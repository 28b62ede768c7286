//! Data-parallel row helpers on a persistent worker pool.
//!
//! The workspace deliberately avoids a work-stealing runtime; the tensor
//! kernels only need "split these rows across cores" parallelism. Every
//! helper here funnels into [`parallel_rows_aligned_in`], which cuts the
//! output into row chunks and runs them on one lazily started,
//! process-wide pool of `num_threads() - 1` workers. The calling thread
//! runs chunks too and returns only when every chunk of its call has
//! finished, so bodies may borrow the caller's stack like scoped threads.
//! Idle workers block on a condition variable and never spin.
//!
//! # Bit-identity
//!
//! The chunk decomposition depends only on `(workers, rows, align)`, never
//! on the pool size or on which thread runs which chunk: the same call
//! always hands the body the same `(row_start, chunk)` pairs. Kernels whose
//! per-element arithmetic does not depend on the chunk boundaries (or only
//! on the aligned boundaries) are therefore bit-identical across thread
//! counts and schedules.
//!
//! # Panics and nesting
//!
//! A panic in a body is caught on whichever thread ran it; the call waits
//! for every other chunk to finish and then resumes the first payload on
//! the calling thread. A body may itself make a parallel call: the nested
//! caller drains its own chunks, so a call never waits on work that no
//! thread is running.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Returns the number of worker threads to use for parallel kernels.
///
/// Respects the `FPDQ_THREADS` environment variable when set (useful for
/// reproducible benchmarking); otherwise uses the machine's available
/// parallelism, capped at 16.
pub fn num_threads() -> usize {
    static CACHED: AtomicUsize = AtomicUsize::new(0);
    let cached = CACHED.load(Ordering::Relaxed);
    if cached != 0 {
        return cached;
    }
    let n = std::env::var("FPDQ_THREADS")
        .ok()
        .and_then(|s| s.parse::<usize>().ok())
        .filter(|&n| n >= 1)
        .unwrap_or_else(|| {
            std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1).min(16)
        });
    CACHED.store(n, Ordering::Relaxed);
    n
}

/// Splits a mutable slice into `0..rows` row-chunks of `row` elements each
/// and processes them in parallel: `body(row_start, rows_chunk)`.
///
/// Each chunk is an exclusive `&mut [f32]` window covering whole rows, so
/// kernels can write without synchronisation. Falls back to a single
/// in-line call when there are fewer than `min_rows` rows per worker.
///
/// # Example
///
/// ```
/// let mut out = vec![0.0f32; 7 * 3];
/// fpdq_tensor::parallel::parallel_rows(&mut out, 7, 3, 1, |row_start, chunk| {
///     for (r, row) in chunk.chunks_mut(3).enumerate() {
///         row.fill((row_start + r) as f32);
///     }
/// });
/// assert_eq!(out[6 * 3], 6.0);
/// ```
pub fn parallel_rows<F>(out: &mut [f32], rows: usize, row: usize, min_rows: usize, body: F)
where
    F: Fn(usize, &mut [f32]) + Sync,
{
    parallel_rows_aligned(out, rows, row, min_rows, 1, body);
}

/// [`parallel_rows`] with an explicit worker-count cap instead of the
/// process-wide [`num_threads`] default.
///
/// The batched packed kernels thread their scheduling decision and their
/// execution through the same worker count, and the differential test
/// suite sweeps worker counts in one process (where `FPDQ_THREADS` is
/// cached and cannot vary). `workers == 0` is treated as 1.
pub fn parallel_rows_in<F>(
    workers: usize,
    out: &mut [f32],
    rows: usize,
    row: usize,
    min_rows: usize,
    body: F,
) where
    F: Fn(usize, &mut [f32]) + Sync,
{
    parallel_rows_aligned_in(workers, out, rows, row, min_rows, 1, body);
}

/// [`parallel_rows`] with chunk starts forced to multiples of `align`.
///
/// Tiled kernels want worker boundaries on their register-block grid
/// (e.g. the 4-row blocks of the NT micro-kernel): aligned chunks keep
/// every worker's block decomposition identical to the single-threaded
/// run, so blocked kernels that group rows (like `gemm_serial`'s 4-row
/// zero-skip) partition work exactly as the serial pass would.
pub fn parallel_rows_aligned<F>(
    out: &mut [f32],
    rows: usize,
    row: usize,
    min_rows: usize,
    align: usize,
    body: F,
) where
    F: Fn(usize, &mut [f32]) + Sync,
{
    parallel_rows_aligned_in(num_threads(), out, rows, row, min_rows, align, body);
}

/// [`parallel_rows_aligned`] with an explicit worker-count cap (see
/// [`parallel_rows_in`]). The chunk decomposition for a given
/// `(workers, rows, align)` is deterministic, so callers that pin
/// `workers` get a reproducible schedule regardless of `FPDQ_THREADS`.
/// `workers` may exceed the pool size; the extra chunks queue for the
/// threads there are.
pub fn parallel_rows_aligned_in<F>(
    workers: usize,
    out: &mut [f32],
    rows: usize,
    row: usize,
    min_rows: usize,
    align: usize,
    body: F,
) where
    F: Fn(usize, &mut [f32]) + Sync,
{
    assert_eq!(out.len(), rows * row, "output length must equal rows * row");
    if rows == 0 {
        return;
    }
    let workers = workers.max(1).min(rows / min_rows.max(1)).max(1);
    if workers <= 1 {
        body(0, out);
        return;
    }
    let align = align.max(1);
    let rows_per = rows.div_ceil(workers).next_multiple_of(align);
    let mut chunks = Vec::with_capacity(rows.div_ceil(rows_per));
    let mut rest = out;
    let mut row_start = 0usize;
    while row_start < rows {
        let take = rows_per.min(rows - row_start);
        let (head, tail) = rest.split_at_mut(take * row);
        rest = tail;
        chunks.push((row_start, head));
        row_start += take;
    }
    pool::for_each(&mut chunks, &|(start, chunk)| body(*start, chunk));
}

/// The process-wide worker pool. All unsafe code of the parallel helpers
/// lives here: a call publishes a [`Job`] holding a lifetime-erased pointer
/// to a closure on the caller's stack, which is sound only because
/// [`for_each`] blocks until every chunk of the job has finished.
mod pool {
    use super::num_threads;
    use std::any::Any;
    use std::collections::VecDeque;
    use std::panic::{self, AssertUnwindSafe};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock};

    /// A chunk runner: called once with each chunk index of its job.
    type Task<'a> = dyn Fn(usize) + Sync + 'a;

    const POISON: &str = "pool mutexes are never held while a chunk body runs";

    struct Shared {
        /// Jobs that may still have unclaimed chunks, oldest first.
        queue: Mutex<VecDeque<Arc<Job>>>,
        /// Signalled once per extra chunk when a job is queued.
        wake: Condvar,
        workers: usize,
    }

    struct Job {
        /// The caller's task; it dangles once the call returns, so it is
        /// dereferenced only while running a claimed, unfinished chunk.
        task: *const Task<'static>,
        chunks: usize,
        /// Next unclaimed chunk index. Only hands out indices, publishes no
        /// data: the queue mutex publishes the job and `progress` publishes
        /// the chunks' writes back to the caller, so `Relaxed` suffices.
        next: AtomicUsize,
        progress: Mutex<Progress>,
        finished: Condvar,
    }

    struct Progress {
        unfinished: usize,
        panic: Option<Box<dyn Any + Send>>,
    }

    // SAFETY: `task` points at a `Sync` closure, so any thread may call it
    // through a shared reference, and it is only dereferenced while the
    // closure is alive (see `Job::work`). Every other field is `Send + Sync`.
    unsafe impl Send for Job {}
    // SAFETY: as for `Send`; `Job` exposes no `&mut` access to `task`.
    unsafe impl Sync for Job {}

    impl Job {
        /// Claims and runs chunks until every chunk has been claimed.
        fn work(&self) {
            loop {
                let i = self.next.fetch_add(1, Ordering::Relaxed);
                if i >= self.chunks {
                    return;
                }
                // SAFETY: chunk `i` is claimed and not yet counted finished,
                // so the caller of `for_each` is still blocked inside it and
                // the closure behind `task` is alive.
                let task = unsafe { &*self.task };
                let result = panic::catch_unwind(AssertUnwindSafe(|| task(i)));
                let mut progress = self.progress.lock().expect(POISON);
                if let Err(payload) = result {
                    progress.panic.get_or_insert(payload);
                }
                progress.unfinished -= 1;
                if progress.unfinished == 0 {
                    self.finished.notify_all();
                }
            }
        }
    }

    fn shared() -> &'static Shared {
        static POOL: OnceLock<Shared> = OnceLock::new();
        POOL.get_or_init(|| {
            let workers = (1..num_threads())
                .map(|i| {
                    // The workers live as long as the process and are never
                    // joined; a failed spawn only leaves the pool smaller,
                    // because callers run their own chunks.
                    std::thread::Builder::new()
                        .name(format!("fpdq-pool-{i}"))
                        .spawn(|| worker(shared()))
                        .is_ok()
                })
                .filter(|&spawned| spawned)
                .count();
            Shared { queue: Mutex::new(VecDeque::new()), wake: Condvar::new(), workers }
        })
    }

    fn worker(shared: &'static Shared) {
        let mut queue = shared.queue.lock().expect(POISON);
        loop {
            match queue.front().cloned() {
                Some(job) => {
                    drop(queue);
                    job.work();
                    queue = shared.queue.lock().expect(POISON);
                    retire(&mut queue, &job);
                }
                None => queue = shared.wake.wait(queue).expect(POISON),
            }
        }
    }

    /// Drops a job whose chunks have all been claimed from the queue.
    fn retire(queue: &mut MutexGuard<'_, VecDeque<Arc<Job>>>, job: &Arc<Job>) {
        queue.retain(|queued| !Arc::ptr_eq(queued, job));
    }

    /// `&mut [T]` base pointer shared by the threads running one job.
    struct Items<T>(*mut T);

    impl<T> Clone for Items<T> {
        fn clone(&self) -> Self {
            *self
        }
    }

    impl<T> Copy for Items<T> {}

    impl<T> Items<T> {
        /// # Safety
        ///
        /// `i` must be in bounds of the slice this was made from, that slice
        /// must stay mutably borrowed by the caller for `'a`, and no other
        /// reference to item `i` may exist during `'a`.
        unsafe fn get<'a>(self, i: usize) -> &'a mut T {
            // SAFETY: guaranteed by the caller, as documented above.
            unsafe { &mut *self.0.add(i) }
        }
    }

    // SAFETY: threads sharing `Items` only reach the items through `get`,
    // whose contract gives each item to one thread at a time; moving a
    // `&mut T` to another thread requires `T: Send`.
    unsafe impl<T: Send> Sync for Items<T> {}

    /// Runs `body` once on each item, spreading items over the pool and the
    /// calling thread, and returns when all are done. If any body panicked,
    /// resumes the first payload after every item has finished.
    pub(super) fn for_each<T: Send>(items: &mut [T], body: &(dyn Fn(&mut T) + Sync)) {
        let shared = shared();
        if items.len() <= 1 || shared.workers == 0 {
            items.iter_mut().for_each(body);
            return;
        }
        let chunks = items.len();
        let items = Items(items.as_mut_ptr());
        // SAFETY: `Job::work` hands out each index in `0..chunks` exactly
        // once, and `items` stays mutably borrowed until this call returns.
        let task = move |i: usize| body(unsafe { items.get(i) });
        let task: &Task<'_> = &task;
        let job = Arc::new(Job {
            // SAFETY: only the lifetime is erased. This function neither
            // returns nor unwinds until `unfinished` reaches 0 below, and no
            // thread dereferences `task` after finishing its chunk, so the
            // pointer is never used after `task` goes out of scope.
            task: unsafe {
                std::mem::transmute::<*const Task<'_>, *const Task<'static>>(task as *const _)
            },
            chunks,
            next: AtomicUsize::new(0),
            progress: Mutex::new(Progress { unfinished: chunks, panic: None }),
            finished: Condvar::new(),
        });
        shared.queue.lock().expect(POISON).push_back(Arc::clone(&job));
        for _ in 1..chunks.min(shared.workers + 1) {
            shared.wake.notify_one();
        }
        job.work();
        retire(&mut shared.queue.lock().expect(POISON), &job);
        let mut progress = job.progress.lock().expect(POISON);
        while progress.unfinished > 0 {
            progress = job.finished.wait(progress).expect(POISON);
        }
        if let Some(payload) = progress.panic.take() {
            drop(progress);
            panic::resume_unwind(payload);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Arc, Barrier, Mutex};

    #[test]
    fn rows_partition_exclusive() {
        let mut out = vec![0.0f32; 7 * 5];
        parallel_rows(&mut out, 7, 5, 1, |row_start, chunk| {
            for (r, row) in chunk.chunks_mut(5).enumerate() {
                for v in row.iter_mut() {
                    *v = (row_start + r) as f32;
                }
            }
        });
        for r in 0..7 {
            for c in 0..5 {
                assert_eq!(out[r * 5 + c], r as f32);
            }
        }
    }

    #[test]
    fn num_threads_is_at_least_one() {
        assert!(num_threads() >= 1);
    }

    #[test]
    fn explicit_worker_counts_cover_rows_exactly_once() {
        // The `_in` variants must partition identically for any worker
        // count, including 0 (treated as 1) and more workers than rows.
        for workers in [0usize, 1, 2, 3, 8, 64] {
            let mut out = vec![0.0f32; 13 * 2];
            parallel_rows_in(workers, &mut out, 13, 2, 1, |_, chunk| {
                for v in chunk.iter_mut() {
                    *v += 1.0;
                }
            });
            assert!(out.iter().all(|&v| v == 1.0), "workers = {workers}");
        }
    }

    #[test]
    fn explicit_single_worker_gets_whole_slice() {
        let mut out = vec![0.0f32; 9 * 4];
        let calls = Mutex::new(0usize);
        parallel_rows_aligned_in(1, &mut out, 9, 4, 1, 4, |start, chunk| {
            *calls.lock().unwrap() += 1;
            assert_eq!(start, 0);
            assert_eq!(chunk.len(), 9 * 4);
        });
        assert_eq!(*calls.lock().unwrap(), 1);
    }

    #[test]
    fn aligned_rows_partition_on_grid() {
        // Chunk starts must land on multiples of the alignment and still
        // cover every row exactly once.
        let mut out = vec![0.0f32; 11 * 3];
        let starts = Mutex::new(Vec::new());
        parallel_rows_aligned(&mut out, 11, 3, 1, 4, |row_start, chunk| {
            starts.lock().unwrap().push((row_start, chunk.len() / 3));
            for v in chunk.iter_mut() {
                *v += 1.0;
            }
        });
        for (start, _) in starts.lock().unwrap().iter() {
            assert_eq!(start % 4, 0, "chunk start {start} off the 4-row grid");
        }
        assert!(out.iter().all(|&v| v == 1.0), "rows must be covered exactly once");
    }

    #[test]
    fn far_more_chunks_than_pool_threads_cover_each_row_once() {
        // 64 chunks of 4 rows, whatever the pool size (two threads on a
        // two-core machine): every chunk runs exactly once.
        let mut out = vec![0.0f32; 256];
        let chunks = Mutex::new(0usize);
        parallel_rows_in(64, &mut out, 256, 1, 1, |_, chunk| {
            *chunks.lock().unwrap() += 1;
            for v in chunk.iter_mut() {
                *v += 1.0;
            }
        });
        assert_eq!(*chunks.lock().unwrap(), 64);
        assert!(out.iter().all(|&v| v == 1.0));
    }

    #[test]
    fn chunk_panic_reaches_caller_with_its_payload() {
        let mut out = vec![0.0f32; 8];
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            parallel_rows_in(4, &mut out, 8, 1, 1, |start, _| {
                if start == 2 {
                    std::panic::panic_any(("chunk", start));
                }
            });
        }))
        .expect_err("the chunk panic must reach the caller");
        assert_eq!(caught.downcast_ref::<(&str, usize)>(), Some(&("chunk", 2)));
        // The pool survives the panic: the next call still covers every row.
        let mut out = vec![0.0f32; 8];
        parallel_rows_in(4, &mut out, 8, 1, 1, |_, chunk| chunk.fill(1.0));
        assert!(out.iter().all(|&v| v == 1.0));
    }

    #[test]
    fn nested_call_inside_a_body_completes() {
        let mut out = vec![0.0f32; 6 * 4];
        parallel_rows_in(3, &mut out, 6, 4, 1, |_, chunk| {
            for row in chunk.chunks_mut(4) {
                parallel_rows_in(4, row, 4, 1, 1, |_, cell| cell.fill(1.0));
            }
        });
        assert!(out.iter().all(|&v| v == 1.0));
    }

    #[test]
    fn concurrent_callers_get_exact_exclusive_coverage() {
        const CALLERS: usize = 4;
        let start = Arc::new(Barrier::new(CALLERS));
        let callers: Vec<_> = (0..CALLERS)
            .map(|caller| {
                let start = Arc::clone(&start);
                std::thread::spawn(move || {
                    start.wait();
                    for _ in 0..50 {
                        let mut out = vec![0.0f32; 37 * 3];
                        parallel_rows_in(4, &mut out, 37, 3, 1, |row_start, chunk| {
                            for (r, row) in chunk.chunks_mut(3).enumerate() {
                                for v in row.iter_mut() {
                                    *v += (caller * 1000 + row_start + r) as f32;
                                }
                            }
                        });
                        for (i, &v) in out.iter().enumerate() {
                            assert_eq!(v, (caller * 1000 + i / 3) as f32, "caller {caller}");
                        }
                    }
                })
            })
            .collect();
        for caller in callers {
            caller.join().expect("caller thread panicked");
        }
    }
}
