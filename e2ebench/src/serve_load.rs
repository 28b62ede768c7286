//! `serve-sd-fp4`: a closed loop of clients against the in-process
//! server holding the packed FP4 SD-shaped text-to-image container.

use crate::fixtures::{self, all_finite, tensor_digest};
use crate::procfs::ProcCounters;
use crate::trace::{self, Tracer};
use crate::{Report, RunCfg};
use fpdq::container::SimPipeline;
use fpdq::data::CaptionedScenes;
use fpdq::diffusion::{Conditioning, NoiseSchedule, Zoo};
use fpdq::serve::api::{pixels_from_hex, GenerateResponse, Healthz, Metrics};
use fpdq::serve::registry::load_container;
use fpdq::serve::{client, serve, ServeConfig, ServeModel, ServerHandle, ServerState};
use fpdq::tensor::{FpdqError, Tensor};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Concurrent clients, one per core of the 2-core machine the baseline
/// was recorded on; each waits for its reply before sending again.
const CLIENTS: u64 = 2;
/// Step counts of the load: in every block of four consecutive requests
/// of a client, the seed picks one to run the long count. A fixed 3:1 mix
/// keeps the median inside the short requests' latency and p90 inside the
/// long ones', instead of jumping between the two with the draw.
const SHORT_STEPS: usize = 10;
const LONG_STEPS: usize = 20;
/// Served images of each kind re-generated offline for the byte check.
const CHECKED_PER_KIND: usize = 2;
/// How long a server may take to load its model.
const READY_TIMEOUT: Duration = Duration::from_secs(60);
/// Served image dims: the autoencoder decodes 8×8 latents to 16×16 RGB.
const IMAGE_DIMS: [usize; 4] = [1, 3, 16, 16];

/// One request of the load.
#[derive(Clone, Debug)]
struct Spec {
    seed: u64,
    steps: usize,
    prompt: Option<String>,
}

impl Spec {
    fn body(&self) -> String {
        match &self.prompt {
            Some(p) => {
                format!(r#"{{"seed": {}, "steps": {}, "prompt": "{p}"}}"#, self.seed, self.steps)
            }
            None => format!(r#"{{"seed": {}, "steps": {}}}"#, self.seed, self.steps),
        }
    }
}

/// The request sequence of client `c`, drawn from the workload seed: half
/// the requests carry a caption-grammar prompt, half none.
fn client_specs(seed: u64, c: u64) -> impl FnMut(u64) -> Spec {
    let mut rng = StdRng::seed_from_u64(seed ^ (c + 1).wrapping_mul(0xD1B5_4A32_D192_ED03));
    let captions = CaptionedScenes::all_captions();
    let mut long = 0;
    move |k| {
        if k % 4 == 0 {
            long = rng.gen_range(0..4);
        }
        // The wire format carries numbers as f64: seeds stay below 2^53,
        // the range it holds exactly. Larger seeds are rounded in transit
        // and the server then samples a different seed than was sent.
        let seed = rng.gen::<u64>() >> 11;
        let steps = if k % 4 == long { LONG_STEPS } else { SHORT_STEPS };
        let prompt = (k + c)
            .is_multiple_of(2)
            .then(|| captions[rng.gen_range(0..captions.len())].clone());
        Spec { seed, steps, prompt }
    }
}

/// One finished request, as the client saw it.
struct Outcome {
    client: u64,
    k: u64,
    spec: Spec,
    latency_ms: f64,
    /// Digest of the served pixels, or `None` for a failed request or
    /// pixels that are not finite.
    digest: Option<u64>,
}

fn served_digest(status: u16, body: &str) -> Option<u64> {
    if status != 200 {
        return None;
    }
    let resp: GenerateResponse = serde_json::from_str(body).ok()?;
    if resp.dims != IMAGE_DIMS {
        return None;
    }
    let pixels = Tensor::from_vec(pixels_from_hex(&resp.pixels_hex).ok()?, &IMAGE_DIMS);
    all_finite(&pixels).then(|| tensor_digest(&pixels))
}

/// Denoising steps the served requests among `outcomes` asked for.
fn request_steps(outcomes: &[Outcome]) -> u64 {
    outcomes
        .iter()
        .filter(|o| o.digest.is_some())
        .map(|o| o.spec.steps as u64)
        .sum()
}

/// Drives the closed loop for `seconds`; every client finishes its
/// in-flight request before the phase ends.
fn drive(addr: SocketAddr, seed: u64, seconds: f64) -> (Vec<Outcome>, Duration) {
    let start = Instant::now();
    let outcomes = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                s.spawn(move || {
                    let mut next = client_specs(seed, c);
                    let mut out = Vec::new();
                    let mut k = 0;
                    while start.elapsed().as_secs_f64() < seconds {
                        let spec = next(k);
                        let t = Instant::now();
                        let reply = client::post_json(addr, "/v1/generate", &spec.body());
                        let latency_ms = t.elapsed().as_secs_f64() * 1e3;
                        let digest =
                            reply.ok().and_then(|(status, body)| served_digest(status, &body));
                        out.push(Outcome { client: c, k, spec, latency_ms, digest });
                        k += 1;
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("a client thread panicked"))
            .collect::<Vec<_>>()
    });
    (outcomes, start.elapsed())
}

fn get_json<T: serde::Deserialize>(addr: SocketAddr, path: &str) -> Result<T, String> {
    let (status, body) = client::get(addr, path).map_err(|e| format!("GET {path}: {e}"))?;
    if status != 200 {
        return Err(format!("GET {path}: status {status}: {body}"));
    }
    serde_json::from_str(&body).map_err(|e| format!("GET {path}: {e}"))
}

/// Starts a server whose scheduler thread builds its model with `build`
/// and returns once `/readyz` answers 200. It waits for the model on the
/// server's shared state and only then asks `/readyz`: every HTTP probe
/// starts a connection thread, and probing while the model loads took
/// CPU from the load and spread the set-up time of one run to nearly twice
/// that of another.
fn start(
    build: impl FnOnce() -> Result<Box<dyn ServeModel>, FpdqError> + Send + 'static,
) -> Result<ServerHandle, String> {
    let handle = serve(ServeConfig::default(), build).map_err(|e| format!("binding: {e}"))?;
    let t0 = Instant::now();
    while handle.shared().state() == ServerState::Starting && t0.elapsed() < READY_TIMEOUT {
        std::thread::sleep(Duration::from_micros(100));
    }
    match client::get(handle.addr(), "/readyz") {
        Ok((200, _)) => Ok(handle),
        reply => {
            let boot = handle.shared().boot_error().unwrap_or_default();
            handle.shutdown();
            Err(format!("the server is not ready: {reply:?} {boot}"))
        }
    }
}

/// A served model whose every call into the pipeline is a span.
struct TimedModel {
    inner: Box<dyn ServeModel>,
    tracer: Tracer,
}

impl ServeModel for TimedModel {
    fn chw(&self) -> [usize; 3] {
        self.inner.chw()
    }
    fn schedule(&self) -> &NoiseSchedule {
        self.inner.schedule()
    }
    fn clip_x0(&self) -> Option<f32> {
        self.inner.clip_x0()
    }
    fn eps(&self, x: &Tensor, t: &Tensor, ctx: Option<&Tensor>) -> Tensor {
        self.tracer
            .span("unet.forward", 0, 0, x.dims()[0], |_| self.inner.eps(x, t, ctx))
    }
    fn conditioning(
        &self,
        prompt: Option<&str>,
        guidance: Option<f32>,
    ) -> Result<Conditioning, FpdqError> {
        self.tracer
            .span("serve.conditioning", 0, 0, 1, |_| self.inner.conditioning(prompt, guidance))
    }
    fn finish(&self, x: &Tensor) -> Tensor {
        self.tracer.span("serve.finish", 0, 0, x.dims()[0], |_| self.inner.finish(x))
    }
}

/// Server counters after a phase: `(steps, completed, failed, rejected)`.
fn counters(addr: SocketAddr) -> Result<(u64, u64, u64, u64), String> {
    let h: Healthz = get_json(addr, "/healthz")?;
    let m: Metrics = get_json(addr, "/metrics")?;
    Ok((h.steps, m.health.completed, m.health.failed, m.health.rejected))
}

pub fn run(cfg: &RunCfg) -> Result<Report, String> {
    let path = fixtures::prepared_container(&cfg.work, fixtures::SD_FP4)?;
    let mut report = Report::default();

    // Set-up: from opening the container until `/readyz` answers 200.
    let loads = Arc::new(Mutex::new(Vec::new()));
    let (setup_s, server) = crate::repeated_setup(
        || {
            let (path, loads) = (path.clone(), loads.clone());
            start(move || {
                let t = Instant::now();
                let model = load_container(&path);
                loads.lock().expect("load log").push(t.elapsed().as_secs_f64());
                model
            })
        },
        ServerHandle::shutdown,
    )?;
    report.e2e.insert("setup_s", setup_s);
    let load_s = crate::stats::median(&loads.lock().expect("load log")).unwrap_or(0.0);

    let proc0 = ProcCounters::now();
    let (outcomes, wall) = drive(server.addr(), cfg.seed, cfg.seconds);
    let proc = ProcCounters::now().since(&proc0);
    let (steps, completed, failed, rejected) = counters(server.addr())?;
    server.shutdown();

    let served = outcomes.iter().filter(|o| o.digest.is_some()).count();
    let lat_ms: Vec<f64> = outcomes.iter().map(|o| o.latency_ms).collect();
    let images_per_s = served as f64 / wall.as_secs_f64();
    // Requests overlap, so CPU time is shared out over the whole phase.
    let cpu_ms = (proc.user_s + proc.sys_s) * 1e3 / outcomes.len().max(1) as f64;
    report.timings("one request, timed by its client", &lat_ms, images_per_s, cpu_ms);

    // Served bytes must match the offline batch-1 run of the same
    // request: prompted requests against the guided pipeline, prompt-less
    // ones against the empty prompt at guidance 1 (the null context alone).
    let loaded = fpdq::container::load(&path).map_err(|e| e.to_string())?;
    let SimPipeline::Sd(mut offline) = loaded.pipeline else {
        return Err("the serving container does not hold an SD pipeline".into());
    };
    let guidance = offline.guidance;
    let mut mismatched = std::collections::HashSet::new();
    let mut checked = 0;
    for prompted in [true, false] {
        let sample = outcomes
            .iter()
            .filter(|o| o.digest.is_some() && o.spec.prompt.is_some() == prompted);
        for o in sample.take(CHECKED_PER_KIND) {
            offline.guidance = if prompted { guidance } else { 1.0 };
            let prompt = o.spec.prompt.clone().unwrap_or_default();
            let solo = offline.generate_seeded(&[prompt], &[o.spec.seed], o.spec.steps, 1);
            checked += 1;
            if Some(tensor_digest(&solo)) != o.digest {
                mismatched.insert((o.client, o.k));
            }
        }
    }
    offline.guidance = guidance;
    for o in &outcomes {
        report.check(if o.digest.is_none() {
            Some(format!("request {}/{} failed", o.client, o.k))
        } else if mismatched.contains(&(o.client, o.k)) {
            Some(format!("served request {}/{} differs from its offline run", o.client, o.k))
        } else {
            None
        });
    }
    report.notes.push(format!(
        "{} requests from {CLIENTS} clients, {checked} byte-checked against offline runs; \
         server counters: steps {steps}, completed {completed}, failed {failed}, rejected {rejected}",
        outcomes.len()
    ));

    let (x, t) = fixtures::held_out_inputs([4, 8, 8]);
    let reference_model = fixtures::sd_fp32();
    let captions = CaptionedScenes::all_captions();
    let prompts: Vec<String> =
        (0..x.dims()[0]).map(|i| captions[i * 5 % captions.len()].clone()).collect();
    let ctx = reference_model.encode_prompts(&prompts);
    let reference = reference_model.unet.forward(&x, &t, Some(&ctx));
    let packed = offline.unet.forward(&x, &t, Some(&offline.encode_prompts(&prompts)));
    report.e2e.insert("quant_rel_err", fixtures::relative_mse(&packed, &reference));

    if cfg.trace {
        let tracer = Tracer::new();
        let (model_tracer, model_path): (Tracer, PathBuf) = (tracer.clone(), path.clone());
        let server = start(move || {
            let inner = load_container(&model_path)?;
            Ok(Box::new(TimedModel { inner, tracer: model_tracer }) as Box<dyn ServeModel>)
        })?;
        let traced_proc0 = ProcCounters::now();
        let (traced, traced_wall) = drive(server.addr(), cfg.seed, cfg.seconds);
        let traced_proc = ProcCounters::now().since(&traced_proc0);
        let traced_steps = counters(server.addr()).map(|(steps, ..)| steps);
        server.shutdown();
        let traced_steps = traced_steps?;
        let untraced: std::collections::HashMap<(u64, u64), Option<u64>> =
            outcomes.iter().map(|o| ((o.client, o.k), o.digest)).collect();
        for o in &traced {
            let ok = o.digest.is_some()
                && untraced.get(&(o.client, o.k)).is_none_or(|d| d.is_none() || *d == o.digest);
            report.check((!ok).then(|| format!("traced request {}/{} differs", o.client, o.k)));
        }

        let spans = tracer.spans();
        let wall_s = traced_wall.as_secs_f64();
        let census = fpdq::perf::census::census(
            &Zoo::sd_unet_config(),
            (4, 8, 8),
            1,
            fixtures::SD_CONTEXT_LEN,
        );
        crate::unet_layer_metrics(&mut report, &spans, census.total_flops());
        crate::proc_layer_metrics(&mut report, &proc);
        let eps_s = trace::total_secs(&spans, "unet.forward");
        let ms = |name: &str| -> f64 {
            let v: Vec<f64> = trace::named(&spans, name).map(|s| s.secs() * 1e3).collect();
            crate::stats::median(&v).unwrap_or(0.0)
        };
        let model_s = eps_s
            + trace::total_secs(&spans, "serve.conditioning")
            + trace::total_secs(&spans, "serve.finish");
        report.layers.insert("serve.engine_share", eps_s / wall_s);
        report.layers.insert("serve.conditioning_ms_p50", ms("serve.conditioning"));
        report.layers.insert("serve.finish_ms_p50", ms("serve.finish"));
        report.layers.insert("serve.other_share", (1.0 - model_s / wall_s).max(0.0));
        report.layers.insert("serve.steps", steps as f64);
        let occupancy = crate::stats::batch_occupancy(request_steps(&outcomes), steps);
        report.layers.insert("serve.batch_occupancy", occupancy);
        report.layers.insert("serve.completed", completed as f64);
        report.layers.insert("serve.failed", failed as f64);
        report.layers.insert("serve.rejected", rejected as f64);
        report.layers.insert("container.load_s", load_s);
        report
            .layers
            .insert("container.bytes", std::fs::metadata(&path).map_or(0, |m| m.len()) as f64);
        // Per engine step: the phases need not batch their requests alike,
        // and a step costs nearly as much for one request as for four.
        let per_step =
            |p: &ProcCounters, steps: u64| (p.user_s + p.sys_s) * 1e3 / steps.max(1) as f64;
        crate::overhead(&mut report, per_step(&proc, steps), per_step(&traced_proc, traced_steps));
        report.notes.push(format!(
            "batch occupancy untraced {occupancy:.3}, traced {:.3}",
            crate::stats::batch_occupancy(request_steps(&traced), traced_steps)
        ));
        let out = cfg.work.join(format!("trace-serve-sd-fp4-seed{}.jsonl", cfg.seed));
        tracer.write_jsonl(&out).map_err(|e| format!("writing {out:?}: {e}"))?;
        report.notes.push(format!("spans written to {}", out.display()));
    }
    Ok(report)
}
