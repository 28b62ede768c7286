//! Models, calibration sets and prepared containers.
//!
//! Every model is built from a fixed seed in a zoo architecture
//! (`Zoo::ddim_unet_config`, `Zoo::sd_unet_config`) and left untrained:
//! timing and bit-identity do not depend on what the weights learned, and
//! no training or download is needed.

use fpdq::container::SimPipeline;
use fpdq::data::{CaptionedScenes, Tokenizer};
use fpdq::diffusion::{DdimSim, NoiseSchedule, SdSim, Zoo};
use fpdq::nn::{Autoencoder, AutoencoderConfig, TextEncoder, TextEncoderConfig, UNet};
use fpdq::quant::{quantize_unet, CalibPoint, CalibrationSet, PtqConfig};
use fpdq::tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::{Path, PathBuf};

/// Seed of the DDIM-shaped model's weights (the zoo's ddim seed).
const DDIM_MODEL_SEED: u64 = 101;
/// Seed of the SD-shaped pipeline's weights (the zoo's sd seed).
const SD_MODEL_SEED: u64 = 301;
/// Seed of the calibration sets behind the prepared containers.
const FIXTURE_CALIB_SEED: u64 = 0xCA11B;
/// Seed of the held-out inputs `quant_rel_err` is measured on.
const HELD_OUT_SEED: u64 = 0x4E1D;
/// Training-schedule length of the zoo pipelines.
const SCHEDULE_STEPS: usize = 100;
/// Context length of the SD-shaped text encoder.
pub const SD_CONTEXT_LEN: usize = 8;

/// The full-precision DDIM-shaped pixel pipeline (8×8×3).
pub fn ddim_fp32() -> DdimSim {
    let mut rng = StdRng::seed_from_u64(DDIM_MODEL_SEED);
    DdimSim {
        unet: UNet::new(Zoo::ddim_unet_config(), &mut rng),
        schedule: NoiseSchedule::linear_scaled(SCHEDULE_STEPS),
        channels: 3,
        image_size: 8,
    }
}

/// The full-precision SD-shaped text-to-image pipeline (8×8×4 latents,
/// 16×16 images), built as the zoo builds it, without training.
pub fn sd_fp32() -> SdSim {
    let mut rng = StdRng::seed_from_u64(SD_MODEL_SEED);
    let unet_cfg = Zoo::sd_unet_config();
    let tokenizer = Tokenizer::caption_grammar();
    let text = TextEncoder::new(
        TextEncoderConfig {
            vocab_size: tokenizer.vocab_size(),
            max_len: SD_CONTEXT_LEN,
            dim: unet_cfg.context_dim.expect("the sd config is conditional"),
            heads: 2,
            layers: 1,
        },
        &mut rng,
    );
    let ae = Autoencoder::new(AutoencoderConfig::small(3, 4), &mut rng);
    let unet = UNet::new(unet_cfg, &mut rng);
    SdSim {
        tokenizer,
        text,
        ae,
        unet,
        schedule: NoiseSchedule::linear_scaled(SCHEDULE_STEPS),
        latent_channels: 4,
        latent_size: 8,
        latent_scale: 1.0,
        guidance: 3.0,
    }
}

/// Random U-Net inputs at timesteps spread over the schedule, cycling
/// through `contexts` (`[None]` for an unconditional model).
fn synthetic_points(
    n: usize,
    chw: [usize; 3],
    contexts: &[Option<Tensor>],
    rng: &mut StdRng,
) -> Vec<CalibPoint> {
    let [c, h, w] = chw;
    (0..n)
        .map(|i| CalibPoint {
            x: Tensor::randn(&[1, c, h, w], rng),
            t: (i * SCHEDULE_STEPS / n) as f32,
            ctx: contexts[i % contexts.len()].clone(),
        })
        .collect()
}

/// A synthetic calibration set drawn from `seed`: 16 points for the
/// activation search and 16 for rounding learning.
pub fn synthetic_calibration(
    chw: [usize; 3],
    contexts: &[Option<Tensor>],
    seed: u64,
) -> CalibrationSet {
    let mut rng = StdRng::seed_from_u64(seed);
    let init = synthetic_points(16, chw, contexts, &mut rng);
    let rl = synthetic_points(16, chw, contexts, &mut rng);
    CalibrationSet { init, rl }
}

/// Conditioning rows for the SD-shaped model: a spread of caption-grammar
/// prompts plus the null context.
pub fn sd_contexts(sd: &SdSim) -> Vec<Option<Tensor>> {
    let mut ctx: Vec<Option<Tensor>> = CaptionedScenes::all_captions()
        .iter()
        .step_by(7)
        .map(|c| Some(sd.encode_prompts(std::slice::from_ref(c))))
        .collect();
    ctx.push(Some(sd.null_context(1)));
    ctx
}

/// Identifies the running executable, so a file one build writes is
/// reused only by that build.
fn build_key() -> String {
    let meta = std::env::current_exe().and_then(std::fs::metadata);
    let stamp = meta
        .as_ref()
        .ok()
        .and_then(|m| m.modified().ok())
        .and_then(|t| t.duration_since(std::time::UNIX_EPOCH).ok())
        .map_or(0, |d| d.as_nanos());
    let len = meta.map_or(0, |m| m.len());
    format!("{:016x}", fnv1a(format!("{stamp}:{len}").as_bytes()))
}

/// The path `<work>/<name>-<build key><ext>` of this build's copy of a
/// file, after removing the copies earlier builds left.
pub fn build_file(work: &Path, name: &str, ext: &str) -> PathBuf {
    let file = format!("{name}-{}{ext}", build_key());
    if let Ok(entries) = std::fs::read_dir(work) {
        for entry in entries.flatten() {
            let other = entry.file_name().to_string_lossy().into_owned();
            if other != file && other.starts_with(&format!("{name}-")) && other.ends_with(ext) {
                let _ = std::fs::remove_file(entry.path());
            }
        }
    }
    work.join(file)
}

/// Returns the path of the container `name`, preparing it first unless
/// this build already did. Preparation runs in a child process, so it
/// adds neither time nor peak memory to the measuring process.
pub fn prepared_container(work: &Path, name: &str) -> Result<PathBuf, String> {
    let path = build_file(work, name, ".fpdq");
    if path.is_file() {
        return Ok(path);
    }
    eprintln!("[e2ebench] preparing the {name} container");
    let exe = std::env::current_exe().map_err(|e| format!("locating the benchmark: {e}"))?;
    let status = std::process::Command::new(exe)
        .arg("--prepare")
        .arg(name)
        .arg(&path)
        .status()
        .map_err(|e| format!("starting the {name} preparation: {e}"))?;
    if !status.success() || !path.is_file() {
        return Err(format!("preparing the {name} container failed ({status})"));
    }
    Ok(path)
}

/// Builds the container `name` and writes it to `path` (the body of the
/// child process [`prepared_container`] starts).
pub fn prepare(name: &str, path: &Path) -> Result<(), String> {
    let bytes = match name {
        DDIM_FP8 => ddim_fp8_container()?,
        SD_FP4 => sd_fp4_container()?,
        other => return Err(format!("no container named {other}")),
    };
    let tmp = path.with_extension("tmp");
    std::fs::write(&tmp, &bytes).map_err(|e| format!("writing {tmp:?}: {e}"))?;
    std::fs::rename(&tmp, path).map_err(|e| format!("renaming {tmp:?}: {e}"))
}

/// Name of the offline workload's container.
pub const DDIM_FP8: &str = "ddim-fp8";
/// Name of the serving workload's container.
pub const SD_FP4: &str = "sd-fp4";

/// The offline fixture: the DDIM-shaped U-Net with FP8 weights and FP8
/// activations.
fn ddim_fp8_container() -> Result<Vec<u8>, String> {
    let sim = ddim_fp32();
    let calib = synthetic_calibration([3, 8, 8], &[None], FIXTURE_CALIB_SEED);
    let report =
        quantize_unet(&sim.unet, &calib, &PtqConfig::fp(8, 8), &mut StdRng::seed_from_u64(1));
    fpdq::container::container_bytes(&SimPipeline::Ddim(sim), &report).map_err(|e| e.to_string())
}

/// The serving fixture: the SD-shaped pipeline with FP4 U-Net weights and
/// FP8 activations. Rounding learning is skipped: it changes weight values
/// only, not the packed format or the kernel path.
fn sd_fp4_container() -> Result<Vec<u8>, String> {
    let sim = sd_fp32();
    let calib = synthetic_calibration([4, 8, 8], &sd_contexts(&sim), FIXTURE_CALIB_SEED);
    let cfg = PtqConfig::fp(4, 8).without_rounding_learning();
    let report = quantize_unet(&sim.unet, &calib, &cfg, &mut StdRng::seed_from_u64(1));
    fpdq::container::container_bytes(&SimPipeline::Sd(sim), &report).map_err(|e| e.to_string())
}

/// 64-bit FNV-1a.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ b as u64).wrapping_mul(0x100_0000_01b3))
}

/// Digest of a tensor's exact bit patterns and shape.
pub fn tensor_digest(t: &Tensor) -> u64 {
    let mut bytes: Vec<u8> = t.dims().iter().flat_map(|&d| (d as u64).to_le_bytes()).collect();
    bytes.extend(t.data().iter().flat_map(|v| v.to_bits().to_le_bytes()));
    fnv1a(&bytes)
}

/// Whether every value of `t` is finite. Byte checks alone pass a NaN
/// output that is NaN the same way twice.
pub fn all_finite(t: &Tensor) -> bool {
    t.data().iter().all(|v| v.is_finite())
}

/// Held-out U-Net inputs: 8 rows at timesteps spread over the schedule,
/// from a fixed seed independent of the workload seed.
pub fn held_out_inputs(chw: [usize; 3]) -> (Tensor, Tensor) {
    let mut rng = StdRng::seed_from_u64(HELD_OUT_SEED);
    let [c, h, w] = chw;
    let n = 8;
    let x = Tensor::randn(&[n, c, h, w], &mut rng);
    let t: Vec<f32> = (0..n).map(|i| (i * SCHEDULE_STEPS / n + 3) as f32).collect();
    (x, Tensor::from_vec(t, &[n]))
}

/// Relative MSE of `got` against `reference`: Σ(got − ref)² / Σref².
pub fn relative_mse(got: &Tensor, reference: &Tensor) -> f64 {
    let (num, den) =
        got.data().iter().zip(reference.data()).fold((0.0, 0.0), |(n, d), (&g, &r)| {
            let diff = g as f64 - r as f64;
            (n + diff * diff, d + r as f64 * r as f64)
        });
    num / den.max(f64::MIN_POSITIVE)
}
