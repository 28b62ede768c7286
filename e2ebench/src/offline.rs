//! `offline-ddim-fp8`: batch-16, 20-step DDIM generation on the packed
//! FP8 DDIM-shaped U-Net loaded from a `.fpdq` container.

use crate::fixtures::{self, all_finite, tensor_digest};
use crate::procfs::ProcCounters;
use crate::trace::{self, Tracer};
use crate::{Report, RunCfg};
use fpdq::container::SimPipeline;
use fpdq::diffusion::sampler::ddim_sample_seeded;
use fpdq::diffusion::{DdimParams, DdimSim, Zoo};
use fpdq::tensor::Tensor;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const BATCH: usize = 16;
const STEPS: usize = 20;
/// Batches whose images are re-generated alone to check batch invariance.
const CHECKED_BATCHES: u64 = 3;

/// The per-image seeds of batch `k`, drawn from the workload seed.
fn batch_seeds(seed: u64, k: u64) -> Vec<u64> {
    let mut rng = StdRng::seed_from_u64(seed ^ k.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    (0..BATCH).map(|_| rng.gen()).collect()
}

/// The traced twin of `DdimSim::generate_seeded` for one chunk: the same
/// sampler call, with a span around the sampler and around each U-Net
/// forward its `eps` closure makes.
fn generate_traced(sim: &DdimSim, seeds: &[u64], tracer: &Tracer, op: u64) -> Tensor {
    let chw = [sim.channels, sim.image_size, sim.image_size];
    let params = DdimParams { steps: STEPS, eta: 0.0, clip_x0: Some(1.0) };
    let img = tracer.span("sampler.sample", op, 0, seeds.len(), |parent| {
        ddim_sample_seeded(&sim.schedule, chw, seeds, params, |x, t| {
            tracer.span("unet.forward", op, parent, x.dims()[0], |_| sim.unet.forward(x, t, None))
        })
    });
    img.clamp(-1.0, 1.0)
}

pub fn run(cfg: &RunCfg) -> Result<Report, String> {
    let path = fixtures::prepared_container(&cfg.work, fixtures::DDIM_FP8)?;
    let mut report = Report::default();

    // Set-up: open the prepared container until the model can sample.
    let (setup_s, loaded) =
        crate::repeated_setup(|| fpdq::container::load(&path).map_err(|e| e.to_string()), drop)?;
    let SimPipeline::Ddim(sim) = loaded.pipeline else {
        return Err("the offline container does not hold a DDIM pipeline".into());
    };
    report.e2e.insert("setup_s", setup_s);

    let proc0 = ProcCounters::now();
    let (ops, wall) = crate::timed_phase(cfg.seconds, |k| {
        sim.generate_seeded(&batch_seeds(cfg.seed, k), STEPS, BATCH)
    });
    let proc = ProcCounters::now().since(&proc0);
    let lat_ms: Vec<f64> = ops.iter().map(|op| op.wall.as_secs_f64() * 1e3).collect();
    let images_per_s = (ops.len() * BATCH) as f64 / wall.as_secs_f64();
    let cpu_ms = crate::op_cpu_ms(&ops);
    report.timings("one batch-16 generate call", &lat_ms, images_per_s, cpu_ms);

    // Every image must be finite, and sampled images re-generated alone
    // must match their batch-16 bytes.
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let n = ops.len() as u64;
    let checked: Vec<u64> =
        (0..CHECKED_BATCHES.min(n)).map(|i| i * n / CHECKED_BATCHES.min(n)).collect();
    for (k, img) in ops.iter().map(|op| &op.out).enumerate() {
        let mut failure = (!all_finite(img)).then(|| format!("batch {k} is not finite"));
        if failure.is_none() && checked.contains(&(k as u64)) {
            let i = rng.gen_range(0..BATCH);
            let seed = batch_seeds(cfg.seed, k as u64)[i];
            let solo = sim.generate_seeded(&[seed], STEPS, 1);
            if tensor_digest(&solo) != tensor_digest(&img.narrow(0, i, 1)) {
                failure = Some(format!("batch {k} image {i} differs at batch 1"));
            }
        }
        report.check(failure);
    }
    report.notes.push(format!(
        "checked {} images at batch 16 against batch 1; {} batches of {BATCH} images, {STEPS} steps",
        checked.len(),
        ops.len()
    ));

    let (x, t) = fixtures::held_out_inputs([3, 8, 8]);
    let reference = fixtures::ddim_fp32().unet.forward(&x, &t, None);
    report.e2e.insert(
        "quant_rel_err",
        fixtures::relative_mse(&sim.unet.forward(&x, &t, None), &reference),
    );

    if cfg.trace {
        let tracer = Tracer::new();
        let (traced, _) = crate::timed_phase(cfg.seconds, |k| {
            tracer.span("offline.batch", k, 0, BATCH, |_| {
                generate_traced(&sim, &batch_seeds(cfg.seed, k), &tracer, k)
            })
        });
        for (k, img) in traced.iter().map(|op| &op.out).enumerate() {
            let same = ops.get(k).is_none_or(|u| tensor_digest(&u.out) == tensor_digest(img));
            report.check((!same).then(|| format!("traced batch {k} differs from untraced")));
        }
        let spans = tracer.spans();
        let cfg_unet = Zoo::ddim_unet_config();
        let flops = fpdq::perf::census::census(&cfg_unet, (3, 8, 8), 1, 0).total_flops();
        crate::unet_layer_metrics(&mut report, &spans, flops);
        crate::proc_layer_metrics(&mut report, &proc);
        report
            .layers
            .insert("sampler.self_s", trace::total_self_secs(&spans, "sampler.sample"));
        report.layers.insert("container.load_s", setup_s);
        let bytes = std::fs::metadata(&path).map_or(0, |m| m.len());
        report.layers.insert("container.bytes", bytes as f64);
        crate::overhead(&mut report, cpu_ms, crate::op_cpu_ms(&traced));
        let out = cfg.work.join(format!("trace-offline-ddim-fp8-seed{}.jsonl", cfg.seed));
        tracer.write_jsonl(&out).map_err(|e| format!("writing {out:?}: {e}"))?;
        report.notes.push(format!("spans written to {}", out.display()));
    }
    Ok(report)
}
