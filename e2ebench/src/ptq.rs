//! `ptq-fp4-rl`: the paper's method itself. FP4-weight / FP8-activation
//! PTQ with rounding learning on the DDIM-shaped U-Net, then packing,
//! encoding, loading and verifying the result.

use crate::fixtures::{self, all_finite, fnv1a, tensor_digest};
use crate::procfs::ProcCounters;
use crate::trace::{self, Tracer};
use crate::{Report, RunCfg};
use fpdq::container::SimPipeline;
use fpdq::diffusion::DdimSim;
use fpdq::quant::{quantize_unet, CalibrationSet, PtqConfig, QuantReport};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::Path;
use std::time::Instant;

/// Seed of the rounding-learning batch draws (fixed, like `fpdq pack`).
const RL_SEED: u64 = 1;
/// Seed of the calibration set. It is fixed rather than drawn from the
/// workload seed: rounding learning fits it closely enough that the
/// error of the result moved by 14% between seed-drawn sets, which would
/// hide any smaller change in quantization quality.
const CALIB_SEED: u64 = 0xF4;

/// What one PTQ run produced.
struct Outcome {
    quantize_s: f64,
    report: QuantReport,
    /// Digest of the encoded container.
    container: u64,
    /// Whether the loaded container's one-step output is finite and
    /// matched the in-process packed model bit for bit.
    verified: bool,
    /// The loaded, packed pipeline.
    loaded: DdimSim,
}

/// The public calls one PTQ run makes, in order; `span` times each one
/// (the untraced run passes a pass-through).
fn ptq_run(
    calib: &CalibrationSet,
    verify_seed: u64,
    file: &Path,
    span: &dyn Fn(&'static str, &mut dyn FnMut()),
) -> Result<Outcome, String> {
    let sim = fixtures::ddim_fp32();
    let mut report = None;
    let t = Instant::now();
    span("quant.quantize", &mut || {
        report = Some(quantize_unet(
            &sim.unet,
            calib,
            &PtqConfig::fp(4, 8),
            &mut StdRng::seed_from_u64(RL_SEED),
        ))
    });
    let quantize_s = t.elapsed().as_secs_f64();
    let report = report.expect("quantize ran");
    let pipeline = SimPipeline::Ddim(sim);
    let mut bytes = Ok(Vec::new());
    span("container.encode", &mut || bytes = fpdq::container::container_bytes(&pipeline, &report));
    let bytes = bytes.map_err(|e| e.to_string())?;
    std::fs::write(file, &bytes).map_err(|e| format!("writing {file:?}: {e}"))?;
    span("kernels.pack", &mut || {
        fpdq::kernels::pack_unet(pipeline.unet(), &report);
    });
    let mut loaded = None;
    span("container.load", &mut || loaded = Some(fpdq::container::load(file)));
    let loaded = loaded.expect("load ran").map_err(|e| e.to_string())?;
    let (SimPipeline::Ddim(packed), SimPipeline::Ddim(loaded)) = (pipeline, loaded.pipeline) else {
        return Err("the PTQ container does not hold a DDIM pipeline".into());
    };
    // The `fpdq pack --verify` check: one step from the loaded container
    // equals one step of the in-process packed model, bit for bit.
    let one_step = loaded.generate_seeded(&[verify_seed], 1, 1);
    let verified = all_finite(&one_step)
        && tensor_digest(&packed.generate_seeded(&[verify_seed], 1, 1)) == tensor_digest(&one_step);
    Ok(Outcome { quantize_s, report, container: fnv1a(&bytes), verified, loaded })
}

/// What is wrong with a PTQ run, if anything: it failed, its loaded
/// container differs from the packed model, or its container bytes differ
/// from the first run's.
fn failure(outcome: &Result<Outcome, String>, first_digest: Option<u64>) -> Option<String> {
    match outcome {
        Err(e) => Some(e.clone()),
        Ok(o) if !o.verified => {
            Some("loaded model is not finite or differs from the packed model".into())
        }
        Ok(o) if first_digest.is_some_and(|d| d != o.container) => {
            Some("container digest changed".into())
        }
        Ok(_) => None,
    }
}

pub fn run(cfg: &RunCfg) -> Result<Report, String> {
    let mut report = Report::default();
    let file = cfg.work.join(format!("ptq-fp4-rl-seed{}.fpdq", cfg.seed));

    // Set-up: the FP32 model and the calibration set.
    let (setup_s, calib) = crate::repeated_setup(
        || {
            std::hint::black_box(fixtures::ddim_fp32());
            Ok(fixtures::synthetic_calibration([3, 8, 8], &[None], CALIB_SEED))
        },
        drop,
    )?;
    report.e2e.insert("setup_s", setup_s);

    let passthrough = |_: &'static str, f: &mut dyn FnMut()| f();
    let proc0 = ProcCounters::now();
    let (ops, wall) =
        crate::timed_phase(cfg.seconds, |_| ptq_run(&calib, cfg.seed, &file, &passthrough));
    let proc = ProcCounters::now().since(&proc0);
    // The container digest must not change between PTQ runs: within this
    // run, and across every run of this build (the first one records it).
    let recorded = fixtures::build_file(&cfg.work, "ptq-fp4-rl-digest", ".txt");
    let first_digest = std::fs::read_to_string(&recorded)
        .ok()
        .and_then(|s| u64::from_str_radix(s.trim(), 16).ok())
        .or_else(|| ops.iter().find_map(|op| op.out.as_ref().ok().map(|o| o.container)));
    if let Some(d) = first_digest {
        std::fs::write(&recorded, format!("{d:016x}")).map_err(|e| format!("{recorded:?}: {e}"))?;
    }
    for op in &ops {
        report.check(failure(&op.out, first_digest).map(|f| format!("PTQ run: {f}")));
    }
    let done: Vec<&Outcome> = ops.iter().filter_map(|op| op.out.as_ref().ok()).collect();
    let quantize_ms: Vec<f64> = done.iter().map(|o| o.quantize_s * 1e3).collect();
    let runs_per_s = done.len() as f64 / wall.as_secs_f64();
    let cpu_ms = crate::op_cpu_ms(&ops);
    report.timings(
        "one PTQ run (latency: its quantize_unet call)",
        &quantize_ms,
        runs_per_s,
        cpu_ms,
    );
    report.notes.push(format!(
        "quantize_s = {} s (median of {}); container digest {:016x}",
        crate::stats::median(&quantize_ms).unwrap_or(0.0) / 1e3,
        quantize_ms.len(),
        first_digest.unwrap_or(0)
    ));

    let first = done.first().ok_or("no PTQ run completed")?;
    let (x, t) = fixtures::held_out_inputs([3, 8, 8]);
    let reference = fixtures::ddim_fp32().unet.forward(&x, &t, None);
    let packed = first.loaded.unet.forward(&x, &t, None);
    report.e2e.insert("quant_rel_err", fixtures::relative_mse(&packed, &reference));

    if cfg.trace {
        let tracer = Tracer::new();
        let mut search_cpu_ms = Vec::new();
        let (traced, _) = crate::timed_phase(cfg.seconds, |k| {
            tracer.span("ptq.run", k, 0, 0, |parent| {
                let span = |name: &'static str, f: &mut dyn FnMut()| {
                    tracer.span(name, k, parent, 0, |_| f())
                };
                let outcome = ptq_run(&calib, cfg.seed, &file, &span);
                // The same call with rounding learning off: its time is the
                // format search alone.
                let cpu0 = ProcCounters::now();
                let sim = fixtures::ddim_fp32();
                let search = PtqConfig::fp(4, 8).without_rounding_learning();
                tracer.span("quant.search", k, parent, 0, |_| {
                    quantize_unet(&sim.unet, &calib, &search, &mut StdRng::seed_from_u64(RL_SEED))
                });
                let d = ProcCounters::now().since(&cpu0);
                search_cpu_ms.push((d.user_s + d.sys_s) * 1e3);
                outcome
            })
        });
        for op in &traced {
            report.check(failure(&op.out, first_digest).map(|f| format!("traced PTQ run: {f}")));
        }
        let spans = tracer.spans();
        let n = traced.len() as f64;
        let mean = |name: &str| trace::total_secs(&spans, name) / n;
        crate::proc_layer_metrics(&mut report, &proc);
        report.layers.insert("quant.search_s", mean("quant.search"));
        report
            .layers
            .insert("quant.rl_s", mean("quant.quantize") - mean("quant.search"));
        let (learned, rtn) = first.report.layers.iter().fold((0.0, 0.0), |(l, r), layer| {
            (l + layer.learned_mse.unwrap_or(0.0) as f64, r + layer.rtn_mse.unwrap_or(0.0) as f64)
        });
        report
            .layers
            .insert("quant.rl_mse_ratio", if rtn > 0.0 { learned / rtn } else { 0.0 });
        report.layers.insert("kernels.pack_s", mean("kernels.pack"));
        report.layers.insert("container.encode_s", mean("container.encode"));
        report.layers.insert("container.load_s", mean("container.load"));
        report
            .layers
            .insert("container.bytes", std::fs::metadata(&file).map_or(0, |m| m.len()) as f64);
        // Overhead on the work both runs share: a traced run without its
        // extra search call.
        let traced_cpu_ms: Vec<f64> =
            traced.iter().zip(&search_cpu_ms).map(|(op, s)| op.cpu_s * 1e3 - s).collect();
        let traced_cpu_ms = crate::stats::median(&traced_cpu_ms).unwrap_or(0.0);
        crate::overhead(&mut report, cpu_ms, traced_cpu_ms);
        let out = cfg.work.join(format!("trace-ptq-fp4-rl-seed{}.jsonl", cfg.seed));
        tracer.write_jsonl(&out).map_err(|e| format!("writing {out:?}: {e}"))?;
        report.notes.push(format!("spans written to {}", out.display()));
    }
    let _ = std::fs::remove_file(&file);
    Ok(report)
}
