//! In-memory span recorder for the traced run.
//!
//! Spans are timed from the benchmark's side of each call into a crate's
//! public API; nothing inside the program is instrumented. They are kept
//! in memory and written out once, when the workload ends.

use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One timed call.
#[derive(Clone, Debug)]
pub struct Span {
    /// Unique within the run; 0 is never used, so it can mean "no parent".
    pub id: u64,
    /// The span that caused this one, or 0.
    pub parent: u64,
    /// Layer and call, as `layer.call`.
    pub name: &'static str,
    /// The operation (batch, request, PTQ run) the span belongs to.
    pub op: u64,
    /// Seconds since the tracer was created.
    pub start: f64,
    /// Seconds since the tracer was created.
    pub end: f64,
    /// Rows (images, including CFG rows) the call processed, or 0.
    pub rows: usize,
}

impl Span {
    /// Duration in seconds.
    pub fn secs(&self) -> f64 {
        self.end - self.start
    }
}

/// A cloneable handle on one run's span log; clones share the log, so a
/// model wrapper on another thread records into the same trace.
#[derive(Clone)]
pub struct Tracer {
    t0: Instant,
    next_id: Arc<AtomicU64>,
    spans: Arc<Mutex<Vec<Span>>>,
}

impl Tracer {
    /// An empty log whose clock starts now.
    pub fn new() -> Tracer {
        Tracer {
            t0: Instant::now(),
            next_id: Arc::new(AtomicU64::new(1)),
            spans: Arc::new(Mutex::new(Vec::new())),
        }
    }

    /// Runs `f` inside a span. `f` receives the span's id, so the calls
    /// it makes can name it as their parent.
    pub fn span<T>(
        &self,
        name: &'static str,
        op: u64,
        parent: u64,
        rows: usize,
        f: impl FnOnce(u64) -> T,
    ) -> T {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start = self.t0.elapsed().as_secs_f64();
        let out = f(id);
        let end = self.t0.elapsed().as_secs_f64();
        let span = Span { id, parent, name, op, start, end, rows };
        self.spans.lock().expect("a thread panicked while recording a span").push(span);
        out
    }

    /// A copy of every span recorded so far, in completion order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("a thread panicked while recording a span").clone()
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans() {
            writeln!(
                out,
                r#"{{"id": {}, "parent": {}, "name": "{}", "op": {}, "start_s": {}, "end_s": {}, "rows": {}}}"#,
                s.id, s.parent, s.name, s.op, s.start, s.end, s.rows
            )?;
        }
        out.flush()
    }
}

/// Spans named `name`.
pub fn named<'a>(spans: &'a [Span], name: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
    spans.iter().filter(move |s| s.name == name)
}

/// Total seconds spent in spans named `name`.
pub fn total_secs(spans: &[Span], name: &str) -> f64 {
    named(spans, name).map(Span::secs).sum()
}

/// Self time of every span named `name`, summed: each span's duration
/// minus the part its children cover (see [`crate::stats::self_time`]).
pub fn total_self_secs(spans: &[Span], name: &str) -> f64 {
    named(spans, name)
        .map(|p| {
            let children: Vec<(f64, f64)> =
                spans.iter().filter(|c| c.parent == p.id).map(|c| (c.start, c.end)).collect();
            crate::stats::self_time((p.start, p.end), &children)
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn children_name_their_parent_and_self_time_excludes_them() {
        let tracer = Tracer::new();
        tracer.span("sampler.sample", 7, 0, 2, |parent| {
            for _ in 0..3 {
                tracer.span("unet.forward", 7, parent, 2, |_| {
                    std::thread::sleep(std::time::Duration::from_millis(2))
                });
            }
        });
        let spans = tracer.spans();
        assert_eq!(spans.len(), 3 + 1);
        let sampler = named(&spans, "sampler.sample").next().unwrap();
        assert!(named(&spans, "unet.forward").all(|c| c.parent == sampler.id && c.op == 7));
        let children = total_secs(&spans, "unet.forward");
        let self_s = total_self_secs(&spans, "sampler.sample");
        assert!((sampler.secs() - children - self_s).abs() < 1e-9);
        assert!(self_s >= 0.0 && self_s < sampler.secs());
    }
}
