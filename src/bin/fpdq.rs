//! The `fpdq` command-line tool: train, quantize, generate, evaluate and
//! characterize from a shell.
//!
//! ```text
//! fpdq pretrain                               train + cache all zoo models
//! fpdq quantize   --model ldm --config fp8    quantize and report per layer
//! fpdq generate   --model sd --prompt "..."   sample images to PPM
//! fpdq evaluate   --model ldm --config int8   FID/sFID/P/R vs the dataset
//! fpdq sparsity   --model sd                  weight-sparsity census
//! fpdq characterize                           roofline latency + memory
//! fpdq serve      --model tiny --port 8321    fault-tolerant HTTP serving
//! ```

use fpdq::data::ppm::{image_grid, save_ppm};
use fpdq::diffusion::pipelines::per_image_seeds;
use fpdq::prelude::*;
use fpdq::quant::sparsity::weight_sparsity;
use fpdq::tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let opts = parse_flags(&args[1..]);
    match cmd.as_str() {
        "pretrain" => pretrain(),
        "quantize" => quantize(&opts),
        "generate" => generate(&opts),
        "evaluate" => evaluate_cmd(&opts),
        "sparsity" => sparsity(&opts),
        "characterize" => characterize(),
        "pack" => pack_cmd(&opts),
        "serve" => serve_cmd(&opts),
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            ExitCode::SUCCESS
        }
        other => {
            eprintln!("unknown command '{other}'\n{USAGE}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "\
fpdq — low-bitwidth floating-point quantization for diffusion models

USAGE: fpdq <COMMAND> [--flag value]...

COMMANDS:
  pretrain                       train and cache every zoo model
  quantize      --model <ddim|ldm|sd|sdxl> --config <fp8|fp4|fp4-norl|int8|int4>
                [--packed] [--sparse <2:4|csr>]
  generate      --model <...> --config <...> [--prompt \"...\"] [--count N] [--batch N] [--out DIR] [--packed]
                [--seeds N,N,...] [--raw-out FILE]
  evaluate      --model <...> --config <...> [--count N] [--batch N] [--packed]
  sparsity      --model <...> [--config <...>]
  characterize                   roofline latency + memory of an SD-scale U-Net
  pack          --model <...> --config <...> --out FILE.fpdq [--verify]
                quantize once and write a checksummed .fpdq container
  serve         [--model <name|FILE.fpdq>] [--addr HOST] [--port N]
                [--max-batch N] [--queue-depth N] [--deadline-ms N]
  help                           this message

FLAGS:
  --packed      run the real bit-packed engine (fused W+A kernels) instead
                of fake-quantized dense execution
  --sparse M    prune-then-quantize through a sparsity mode (2:4 structured
                or csr) and run the sparse kernels where they win; reports
                per-layer sparsity and pruning error (requires --packed)
  --batch N     sample N images per U-Net call (1..=16, default 16):
                per-image seeding makes the images identical at every
                batch size; larger batches amortise the packed engine's
                per-step weight decode across the batch
  --seeds L     explicit comma-separated per-image seeds for generate
                (overrides --count; the same seed list reproduces the
                same bytes, including through `fpdq serve`)
  --raw-out F   also dump the generated images as raw little-endian f32
                bytes to F (exact; for byte-comparison against served
                pixels_hex payloads)

PACK FLAGS:
  --model M     tiny / tiny-sd (fixed-seed, no training) or a zoo pipeline
                (ddim, ldm, sd, sdxl — first run trains and caches)
  --out FILE    target path; the write is atomic (temp + fsync + rename)
  --verify      re-open the written file, fully validate it (checksums,
                metadata) and bit-compare a one-step generation against
                the in-process model before exiting 0

SERVE FLAGS:
  --model M        tiny (default) or tiny-sd (fixed-seed, no training);
                   ddim, ldm or sd (trained zoo pipelines — first run
                   trains and caches); or a path to a .fpdq container
                   from `fpdq pack` (sd containers serve prompts); a
                   missing/corrupt container keeps the server alive in a
                   degraded state (failed /readyz, typed 500s). On
                   conditional models, requests may carry \"prompt\" and
                   \"guidance\" fields
  --addr HOST      bind host (default 127.0.0.1)
  --port N         bind port (default 8321; 0 picks an ephemeral port)
  --max-batch N    batch-size cap per engine step (default 4)
  --queue-depth N  admission queue depth; full queue answers 429 (default 8)
  --deadline-ms N  default per-request deadline (none unless given)

ENVIRONMENT:
  FPDQ_ZOO_DIR   model cache directory (default target/fpdq-zoo)
  FPDQ_FAST=1    reduced training budgets
  FPDQ_FAULT     arm serve-time fault injection, e.g. panic:boom@2,slow:50";

fn parse_flags(args: &[String]) -> HashMap<String, String> {
    let mut out = HashMap::new();
    let mut i = 0;
    while i < args.len() {
        if let Some(key) = args[i].strip_prefix("--") {
            // A flag followed by another flag (or nothing) is boolean.
            match args.get(i + 1).filter(|v| !v.starts_with("--")) {
                Some(value) => {
                    out.insert(key.to_string(), value.clone());
                    i += 2;
                }
                None => {
                    out.insert(key.to_string(), "1".to_string());
                    i += 1;
                }
            }
        } else {
            eprintln!("ignoring stray argument '{}'", args[i]);
            i += 1;
        }
    }
    out
}

fn flag_set(opts: &HashMap<String, String>, key: &str) -> bool {
    opts.get(key).is_some_and(|v| v != "0" && v != "false")
}

/// A flag that is present but unparseable is an error — not a silent
/// fall-through to the default (`--batch four` used to quietly mean 16).
fn parsed_flag<T: std::str::FromStr>(
    opts: &HashMap<String, String>,
    key: &str,
    default: T,
    expected: &str,
) -> Result<T, String> {
    match opts.get(key) {
        None => Ok(default),
        Some(v) => v
            .parse()
            .map_err(|_| format!("invalid value '{v}' for --{key}: expected {expected}")),
    }
}

/// [`parsed_flag`] for flags with no default (absent stays `None`).
fn parsed_opt_flag<T: std::str::FromStr>(
    opts: &HashMap<String, String>,
    key: &str,
    expected: &str,
) -> Result<Option<T>, String> {
    match opts.get(key) {
        None => Ok(None),
        Some(v) => v
            .parse()
            .map(Some)
            .map_err(|_| format!("invalid value '{v}' for --{key}: expected {expected}")),
    }
}

/// Unwraps a flag-parse result, or prints the error + usage and exits
/// non-zero. Shared by every command that takes numeric flags.
macro_rules! flag_or_fail {
    ($result:expr) => {
        match $result {
            Ok(v) => v,
            Err(e) => {
                eprintln!("{e}\n\n{USAGE}");
                return ExitCode::FAILURE;
            }
        }
    };
}

fn config_from(name: &str) -> Option<Option<PtqConfig>> {
    match name {
        "fp32" | "none" => Some(None),
        "fp8" => Some(Some(PtqConfig::fp(8, 8))),
        "fp4" => Some(Some(PtqConfig::fp(4, 8))),
        "fp4-norl" => Some(Some(PtqConfig::fp(4, 8).without_rounding_learning())),
        "int8" => Some(Some(PtqConfig::int(8, 8))),
        "int4" => Some(Some(PtqConfig::int(4, 8))),
        _ => None,
    }
}

/// A uniform handle over the four pipelines.
#[allow(clippy::large_enum_variant)] // a handful of these exist at once
enum Pipeline {
    Ddim(DdimSim),
    Ldm(LdmSim),
    Sd(SdSim),
}

impl Pipeline {
    fn load(model: &str) -> Option<Pipeline> {
        let zoo = Zoo::open_default();
        match model {
            "ddim" => Some(Pipeline::Ddim(zoo.ddim_sim())),
            "ldm" => Some(Pipeline::Ldm(zoo.ldm_sim())),
            "sd" => Some(Pipeline::Sd(zoo.sd_sim())),
            "sdxl" => Some(Pipeline::Sd(zoo.sdxl_sim())),
            _ => None,
        }
    }

    fn into_sim(self) -> fpdq::container::SimPipeline {
        match self {
            Pipeline::Ddim(p) => fpdq::container::SimPipeline::Ddim(p),
            Pipeline::Ldm(p) => fpdq::container::SimPipeline::Ldm(p),
            Pipeline::Sd(p) => fpdq::container::SimPipeline::Sd(p),
        }
    }

    fn from_sim(sim: fpdq::container::SimPipeline) -> Pipeline {
        match sim {
            fpdq::container::SimPipeline::Ddim(p) => Pipeline::Ddim(p),
            fpdq::container::SimPipeline::Ldm(p) => Pipeline::Ldm(p),
            fpdq::container::SimPipeline::Sd(p) => Pipeline::Sd(p),
        }
    }

    fn unet(&self) -> &UNet {
        match self {
            Pipeline::Ddim(p) => &p.unet,
            Pipeline::Ldm(p) => &p.unet,
            Pipeline::Sd(p) => &p.unet,
        }
    }

    fn image_size(&self) -> usize {
        match self {
            Pipeline::Ddim(p) => p.image_size,
            Pipeline::Ldm(_) | Pipeline::Sd(_) => 16,
        }
    }

    /// The U-Net's input shape `[c, h, w]` (latent space for LDM/SD).
    fn unet_input_shape(&self) -> [usize; 3] {
        match self {
            Pipeline::Ddim(p) => [p.channels, p.image_size, p.image_size],
            Pipeline::Ldm(p) => [p.latent_channels, p.latent_size, p.latent_size],
            Pipeline::Sd(p) => [p.latent_channels, p.latent_size, p.latent_size],
        }
    }

    fn calibrate(&self) -> CalibrationSet {
        let mut rng = StdRng::seed_from_u64(0xCA11B);
        match self {
            Pipeline::Ddim(p) => fpdq::quant::record_trajectories(
                &p.unet,
                &p.schedule,
                &[p.channels, p.image_size, p.image_size],
                &[None],
                20,
                6,
                64,
                40,
                &mut rng,
            ),
            Pipeline::Ldm(p) => fpdq::quant::record_trajectories(
                &p.unet,
                &p.schedule,
                &[p.latent_channels, p.latent_size, p.latent_size],
                &[None],
                20,
                6,
                64,
                40,
                &mut rng,
            ),
            Pipeline::Sd(p) => {
                let prompts = CaptionedScenes::all_captions();
                let mut ctx: Vec<Option<Tensor>> = prompts
                    .iter()
                    .step_by(7)
                    .map(|c| Some(p.encode_prompts(std::slice::from_ref(c))))
                    .collect();
                ctx.push(Some(p.null_context(1)));
                fpdq::quant::record_trajectories(
                    &p.unet,
                    &p.schedule,
                    &[p.latent_channels, p.latent_size, p.latent_size],
                    &ctx,
                    20,
                    8,
                    16,
                    40,
                    &mut rng,
                )
            }
        }
    }

    /// `count` images from per-image seeds drawn from the master `seed`.
    fn generate(&self, count: usize, prompt: Option<&str>, seed: u64, batch: usize) -> Tensor {
        let seeds = per_image_seeds(count, &mut StdRng::seed_from_u64(seed));
        self.generate_seeded(&seeds, prompt, batch)
    }

    /// One image per seed — the same seed list reproduces the same bytes,
    /// offline or served. The pipelines clamp the step counts to the
    /// schedule, which may be shorter in container-loaded models.
    fn generate_seeded(&self, seeds: &[u64], prompt: Option<&str>, batch: usize) -> Tensor {
        match self {
            Pipeline::Ddim(p) => p.generate_seeded(seeds, 25, batch),
            Pipeline::Ldm(p) => p.generate_seeded(seeds, 25, batch),
            Pipeline::Sd(p) => {
                let prompts: Vec<String> = match prompt {
                    Some(text) => vec![text.to_string(); seeds.len()],
                    None => {
                        let all = CaptionedScenes::all_captions();
                        (0..seeds.len()).map(|i| all[i % all.len()].clone()).collect()
                    }
                };
                p.generate_seeded(&prompts, seeds, 20, batch)
            }
        }
    }

    fn reference(&self, count: usize) -> Tensor {
        let mut rng = StdRng::seed_from_u64(7);
        match self {
            Pipeline::Ddim(_) => TinyCifar::new().batch(count, &mut rng),
            Pipeline::Ldm(_) => TinyBedrooms::new().batch(count, &mut rng),
            Pipeline::Sd(_) => CaptionedScenes::new().batch(count, &mut rng),
        }
    }
}

fn require<'a>(opts: &'a HashMap<String, String>, key: &str) -> Option<&'a str> {
    match opts.get(key) {
        Some(v) if !v.is_empty() => Some(v),
        _ => {
            eprintln!("missing required flag --{key}");
            None
        }
    }
}

fn pretrain() -> ExitCode {
    let zoo = Zoo::open_default();
    println!("zoo: {:?} (fast = {})", zoo.dir(), zoo.is_fast());
    zoo.ddim_sim();
    zoo.ldm_sim();
    zoo.sd_sim();
    zoo.sdxl_sim();
    println!("all models cached");
    ExitCode::SUCCESS
}

fn quantize(opts: &HashMap<String, String>) -> ExitCode {
    let (Some(model), Some(config)) = (require(opts, "model"), require(opts, "config")) else {
        return ExitCode::FAILURE;
    };
    let Some(pipeline) = Pipeline::load(model) else {
        eprintln!("unknown model '{model}'");
        return ExitCode::FAILURE;
    };
    let Some(Some(cfg)) = config_from(config) else {
        eprintln!("unknown or trivial config '{config}'");
        return ExitCode::FAILURE;
    };
    let calib = pipeline.calibrate();
    let mut rng = StdRng::seed_from_u64(1);
    let report = quantize_unet(pipeline.unet(), &calib, &cfg, &mut rng);
    println!(
        "{:<26} {:<15} {:<15} {:>10} {:>9}",
        "layer", "weight fmt", "act fmt", "wMSE", "sparsity"
    );
    for l in &report.layers {
        println!(
            "{:<26} {:<15} {:<15} {:>10.2e} {:>8.2}%",
            l.name,
            l.weight_quantizer.as_deref().unwrap_or("-"),
            l.act_quantizer.as_deref().unwrap_or("-"),
            l.weight_mse,
            100.0 * l.sparsity_after
        );
    }
    let hist = |m: std::collections::BTreeMap<String, usize>| {
        m.into_iter().map(|(k, v)| format!("{k}:{v}")).collect::<Vec<_>>().join(" ")
    };
    println!("\nweight encodings: {}", hist(report.weight_encoding_histogram()));
    println!("act encodings   : {}", hist(report.act_encoding_histogram()));
    println!(
        "\n{} layers | mean weight MSE {:.3e} | sparsity {:.3}% -> {:.3}% | RL improved {}",
        report.layers.len(),
        report.mean_weight_mse(),
        100.0 * report.sparsity_before(),
        100.0 * report.sparsity_after(),
        report.rl_improved_layers(),
    );
    let sparse = match opts.get("sparse").map(String::as_str) {
        None => None,
        Some(spec) => match fpdq::kernels::SparseMode::parse(spec) {
            Some(mode) => Some(mode),
            None => {
                eprintln!("unknown sparse mode '{spec}' (expected 2:4 or csr)");
                return ExitCode::FAILURE;
            }
        },
    };
    if flag_set(opts, "packed") {
        pack_and_report(&pipeline, &report, sparse);
    } else if sparse.is_some() {
        eprintln!("--sparse requires --packed (sparse kernels run in the packed engine)");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

/// Flips the quantized U-Net into the bit-packed engine, reports the real
/// storage footprint, and times a packed vs fake-quantized-dense forward —
/// the paper's latency/memory experiment running on the real engine
/// instead of simulated quantization. With a sparse mode the weights are
/// pruned first (fig. 11's ablation) and per-layer sparsity / pruning
/// error are reported alongside.
fn pack_and_report(
    pipeline: &Pipeline,
    report: &fpdq::quant::QuantReport,
    sparse: Option<fpdq::kernels::SparseMode>,
) {
    use std::time::Instant;
    let [c, h, w] = pipeline.unet_input_shape();
    let x = Tensor::randn(&[1, c, h, w], &mut StdRng::seed_from_u64(11));
    let t = Tensor::from_vec(vec![5.0], &[1]);
    let reps = 3;
    let time_forward = |label: &str| {
        let mut best = f64::INFINITY;
        for _ in 0..reps {
            let t0 = Instant::now();
            std::hint::black_box(pipeline.unet().forward(&x, &t, None));
            best = best.min(t0.elapsed().as_secs_f64());
        }
        println!("  {label:<28} {:.2} ms / forward", best * 1e3);
        best
    };
    match sparse {
        Some(mode) => println!("\npacked execution ({} sparse):", mode.describe()),
        None => println!("\npacked execution:"),
    }
    let dense = time_forward("fake-quantized dense");
    let pack = match sparse {
        Some(mode) => fpdq::kernels::pack_unet_sparse(pipeline.unet(), report, mode),
        None => fpdq::kernels::pack_unet(pipeline.unet(), report),
    };
    for l in &pack.layers {
        let sparse_cols = match (l.sparsity, l.pruning_error) {
            (Some(s), Some(e)) => format!("  {:>6.2}% zero  prune err {:.2e}", 100.0 * s, e),
            _ => String::new(),
        };
        println!(
            "  {:<26} {:<15} act {:<15} {:>8} B (dense {:>8} B){sparse_cols}",
            l.name,
            l.format,
            l.fused_act.as_deref().unwrap_or("-"),
            l.payload_bytes,
            l.dense_bytes
        );
    }
    println!(
        "  {} layers packed ({} fused act) | payload {:.1} KiB vs dense {:.1} KiB | {:.2}x compression | {} kernels",
        pack.layers.len(),
        pack.fused_act_layers(),
        pack.payload_bytes() as f32 / 1024.0,
        pack.dense_bytes() as f32 / 1024.0,
        pack.compression(),
        pack.isa(),
    );
    let packed = time_forward("packed (fused W+A)");
    println!("  forward speedup: {:.2}x", dense / packed);
}

/// True when a `--model` value names a `.fpdq` container on disk rather
/// than a zoo pipeline.
fn is_container_spec(model: &str) -> bool {
    model.ends_with(".fpdq") || std::path::Path::new(model).is_file()
}

fn generate(opts: &HashMap<String, String>) -> ExitCode {
    let count: usize = flag_or_fail!(parsed_flag(opts, "count", 8, "a positive integer"));
    let batch: usize = flag_or_fail!(parsed_flag(opts, "batch", 16, "a batch size in 1..=16"));
    let Some(model) = require(opts, "model") else { return ExitCode::FAILURE };
    let (pipeline, label, config) = if is_container_spec(model) {
        // Sampling from a container: the quantized formats and packed
        // payloads are baked in — no calibration, no re-quantization. A
        // corrupt or truncated file is a typed error and a non-zero
        // exit, before any output file is touched.
        let loaded = match fpdq::container::load(std::path::Path::new(model)) {
            Ok(l) => l,
            Err(e) => {
                eprintln!("cannot load container '{model}': {e}");
                return ExitCode::FAILURE;
            }
        };
        if opts.contains_key("config") || flag_set(opts, "packed") {
            println!("note: --config/--packed are baked into the container and ignored");
        }
        println!(
            "loaded container: {} layers packed ({} fused act), no re-quantization",
            loaded.pack.layers.len(),
            loaded.pack.fused_act_layers()
        );
        let stem = std::path::Path::new(model)
            .file_stem()
            .and_then(|s| s.to_str())
            .unwrap_or("container")
            .to_string();
        (Pipeline::from_sim(loaded.pipeline), stem, "packed".to_string())
    } else {
        let Some(pipeline) = Pipeline::load(model) else {
            eprintln!("unknown model '{model}': expected ddim, ldm, sd, sdxl or a .fpdq path");
            return ExitCode::FAILURE;
        };
        let config = opts.get("config").map(String::as_str).unwrap_or("fp32");
        let Some(cfg) = config_from(config) else {
            eprintln!("unknown config '{config}'");
            return ExitCode::FAILURE;
        };
        if let Some(cfg) = &cfg {
            let calib = pipeline.calibrate();
            let mut rng = StdRng::seed_from_u64(1);
            let report = quantize_unet(pipeline.unet(), &calib, cfg, &mut rng);
            if flag_set(opts, "packed") {
                let pack = fpdq::kernels::pack_unet(pipeline.unet(), &report);
                println!(
                    "sampling on the packed engine: {} layers, {:.2}x weight compression",
                    pack.layers.len(),
                    pack.compression()
                );
            }
        } else if flag_set(opts, "packed") {
            eprintln!("--packed requires a quantized --config (fp8/fp4/int8/int4)");
            return ExitCode::FAILURE;
        }
        (pipeline, model.to_string(), config.to_string())
    };
    // Explicit --seeds pins per-image seeds (and the image count); the
    // default path derives seeds from the fixed master seed 42.
    let seeds: Option<Vec<u64>> = match opts.get("seeds") {
        None => None,
        Some(spec) => match spec.split(',').map(|s| s.trim().parse()).collect() {
            Ok(seeds) => Some(seeds),
            Err(_) => {
                eprintln!("invalid value '{spec}' for --seeds: expected N,N,...");
                return ExitCode::FAILURE;
            }
        },
    };
    let out_dir = std::path::PathBuf::from(
        opts.get("out").cloned().unwrap_or_else(|| "target/fpdq-cli".into()),
    );
    std::fs::create_dir_all(&out_dir).expect("create output dir");
    let prompt = opts.get("prompt").map(String::as_str);
    let (imgs, count) = match &seeds {
        Some(seeds) => (pipeline.generate_seeded(seeds, prompt, batch), seeds.len()),
        None => (pipeline.generate(count, prompt, 42, batch), count),
    };
    if let Some(raw) = opts.get("raw-out") {
        // Raw little-endian f32 dump — the exact bytes `pixels_hex`
        // encodes on the serving wire, for byte-comparison.
        let bytes: Vec<u8> = imgs.data().iter().flat_map(|v| v.to_le_bytes()).collect();
        std::fs::write(raw, &bytes).expect("write raw dump");
        println!("wrote {raw} ({} bytes raw f32)", bytes.len());
    }
    let size = pipeline.image_size();
    let tiles: Vec<Tensor> =
        (0..count).map(|i| imgs.narrow(0, i, 1).reshape(&[3, size, size])).collect();
    let sheet = image_grid(&tiles, 4);
    let path = out_dir.join(format!("{label}_{config}.ppm"));
    save_ppm(&sheet, &path, 8).expect("write ppm");
    println!("wrote {} ({count} samples, config {config})", path.display());
    ExitCode::SUCCESS
}

fn evaluate_cmd(opts: &HashMap<String, String>) -> ExitCode {
    let count: usize = flag_or_fail!(parsed_flag(opts, "count", 64, "a positive integer"));
    let batch: usize = flag_or_fail!(parsed_flag(opts, "batch", 16, "a batch size in 1..=16"));
    let (Some(model), Some(config)) = (require(opts, "model"), require(opts, "config")) else {
        return ExitCode::FAILURE;
    };
    let Some(pipeline) = Pipeline::load(model) else {
        eprintln!("unknown model '{model}'");
        return ExitCode::FAILURE;
    };
    let Some(cfg) = config_from(config) else {
        eprintln!("unknown config '{config}'");
        return ExitCode::FAILURE;
    };
    if let Some(cfg) = &cfg {
        let calib = pipeline.calibrate();
        let mut rng = StdRng::seed_from_u64(1);
        let report = quantize_unet(pipeline.unet(), &calib, cfg, &mut rng);
        if flag_set(opts, "packed") {
            fpdq::kernels::pack_unet(pipeline.unet(), &report);
        }
    }
    let reference = pipeline.reference(count);
    let imgs = pipeline.generate(count, None, 42, batch);
    let net = FeatureNet::for_size(pipeline.image_size());
    let m = fpdq::metrics::evaluate(&reference, &imgs, &net);
    println!("{model} @ {config} over {count} samples: {m}");
    ExitCode::SUCCESS
}

fn sparsity(opts: &HashMap<String, String>) -> ExitCode {
    let Some(model) = require(opts, "model") else { return ExitCode::FAILURE };
    let Some(pipeline) = Pipeline::load(model) else {
        eprintln!("unknown model '{model}'");
        return ExitCode::FAILURE;
    };
    if let Some(config) = opts.get("config") {
        if let Some(Some(cfg)) = config_from(config) {
            let calib = pipeline.calibrate();
            let mut rng = StdRng::seed_from_u64(1);
            let mut cfg = cfg;
            cfg.quantize_acts = false;
            quantize_unet(pipeline.unet(), &calib, &cfg, &mut rng);
        }
    }
    let report = weight_sparsity(pipeline.unet());
    for l in &report.per_layer {
        println!("{:<26} {:>8.3}%  ({} weights)", l.name, 100.0 * l.sparsity, l.numel);
    }
    println!("\noverall: {:.4}% of weights are zero", 100.0 * report.overall());
    ExitCode::SUCCESS
}

/// `fpdq pack`: quantize a pipeline once and write it as a `.fpdq`
/// container. With `--verify`, the just-written file is re-opened,
/// fully validated (header, checksums, metadata domain checks) and a
/// one-step generation from the loaded model is bit-compared against
/// the in-process packed model before the command exits 0.
fn pack_cmd(opts: &HashMap<String, String>) -> ExitCode {
    use fpdq::container::SimPipeline;
    let (Some(model), Some(config), Some(out)) =
        (require(opts, "model"), require(opts, "config"), require(opts, "out"))
    else {
        return ExitCode::FAILURE;
    };
    let pipeline = match model {
        "tiny" => Pipeline::Ddim(fpdq::serve::tiny_ddim()),
        "tiny-sd" => Pipeline::Sd(fpdq::serve::tiny_sd()),
        _ => match Pipeline::load(model) {
            Some(p) => p,
            None => {
                eprintln!(
                    "unknown model '{model}': expected one of tiny, tiny-sd, ddim, ldm, sd, sdxl"
                );
                return ExitCode::FAILURE;
            }
        },
    };
    let Some(Some(cfg)) = config_from(config) else {
        eprintln!("unknown or trivial config '{config}': a container stores quantized formats");
        return ExitCode::FAILURE;
    };
    // The tiny test models get a synthetic calibration set: they exist to
    // exercise the pack/serve round trip (CI smoke, local experiments),
    // and recording full trajectories would dominate their runtime. The
    // conditional tiny model calibrates with random context rows of the
    // text encoder's output shape (its cross-attention layers need a
    // context to trace).
    let calib = if matches!(model, "tiny" | "tiny-sd") {
        let mut rng = StdRng::seed_from_u64(0xCA11B);
        let [c, h, w] = pipeline.unet_input_shape();
        let ctx_dims: Option<Vec<usize>> = match &pipeline {
            Pipeline::Sd(p) => Some(p.null_context(1).dims().to_vec()),
            _ => None,
        };
        let points: Vec<fpdq::quant::CalibPoint> = (0..3)
            .map(|i| fpdq::quant::CalibPoint {
                x: Tensor::randn(&[1, c, h, w], &mut rng),
                t: (i * 4) as f32,
                ctx: ctx_dims.as_ref().map(|d| Tensor::randn(d, &mut rng)),
            })
            .collect();
        CalibrationSet { init: points.clone(), rl: points }
    } else {
        pipeline.calibrate()
    };
    let mut rng = StdRng::seed_from_u64(1);
    let report = quantize_unet(pipeline.unet(), &calib, &cfg, &mut rng);
    let sim = pipeline.into_sim();
    let out = std::path::PathBuf::from(out);
    if let Err(e) = fpdq::container::save(&out, &sim, &report) {
        eprintln!("cannot write container '{}': {e}", out.display());
        return ExitCode::FAILURE;
    }
    let size = std::fs::metadata(&out).map(|m| m.len()).unwrap_or(0);
    println!("wrote {} ({size} bytes, {model} @ {config})", out.display());
    if !flag_set(opts, "verify") {
        return ExitCode::SUCCESS;
    }
    // Full re-validation from disk: every checksum and domain check runs.
    let loaded = match fpdq::container::load(&out) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("verify FAILED: written container does not validate: {e}");
            return ExitCode::FAILURE;
        }
    };
    // One-step forward bit-compare against the in-process packed model.
    fpdq::kernels::pack_unet(sim.unet(), &report);
    let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    let (want, got) = match (&sim, &loaded.pipeline) {
        (SimPipeline::Ddim(p), SimPipeline::Ddim(q)) => {
            (bits(&p.generate_seeded(&[1], 1, 1)), bits(&q.generate_seeded(&[1], 1, 1)))
        }
        (SimPipeline::Ldm(p), SimPipeline::Ldm(q)) => {
            (bits(&p.generate_seeded(&[1], 1, 1)), bits(&q.generate_seeded(&[1], 1, 1)))
        }
        (SimPipeline::Sd(p), SimPipeline::Sd(q)) => {
            let prompts = vec![CaptionedScenes::all_captions()[0].clone()];
            (
                bits(&p.generate_seeded(&prompts, &[1], 1, 1)),
                bits(&q.generate_seeded(&prompts, &[1], 1, 1)),
            )
        }
        _ => {
            eprintln!("verify FAILED: loaded pipeline kind differs from the packed one");
            return ExitCode::FAILURE;
        }
    };
    if want != got {
        eprintln!("verify FAILED: loaded model is not bit-identical to the in-process model");
        return ExitCode::FAILURE;
    }
    println!(
        "verify OK: checksums valid, {} packed layers, one-step generation bit-identical",
        loaded.pack.layers.len()
    );
    ExitCode::SUCCESS
}

fn serve_cmd(opts: &HashMap<String, String>) -> ExitCode {
    use fpdq::serve::{serve, FaultPlan, ServeConfig};
    let model = opts.get("model").map(String::as_str).unwrap_or("tiny");
    let build = match fpdq::serve::resolve(model) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("{e}\n\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    let host = opts.get("addr").map(String::as_str).unwrap_or("127.0.0.1");
    let port: u16 = flag_or_fail!(parsed_flag(opts, "port", 8321, "a port number"));
    let addr = match format!("{host}:{port}").parse() {
        Ok(addr) => addr,
        Err(_) => {
            eprintln!("invalid value '{host}' for --addr: expected a host address\n\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    let fault = match std::env::var("FPDQ_FAULT") {
        Ok(spec) => match FaultPlan::parse(&spec) {
            Ok(plan) => plan,
            Err(e) => {
                eprintln!("invalid FPDQ_FAULT: {e}");
                return ExitCode::FAILURE;
            }
        },
        Err(_) => FaultPlan::default(),
    };
    let cfg = ServeConfig {
        addr,
        max_batch: flag_or_fail!(parsed_flag(opts, "max-batch", 4, "a positive integer")),
        queue_depth: flag_or_fail!(parsed_flag(opts, "queue-depth", 8, "a positive integer")),
        default_deadline_ms: flag_or_fail!(parsed_opt_flag(
            opts,
            "deadline-ms",
            "a duration in milliseconds"
        )),
        fault,
    };
    if fault_armed(&cfg.fault) {
        println!("fault injection armed: {:?}", cfg.fault);
    }
    let handle = match serve(cfg, build) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("cannot bind {addr}: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("fpdq-serve ({model}) listening on http://{}", handle.addr());
    println!("  POST /v1/generate  {{\"seed\": N, \"steps\": N[, \"prompt\": \"...\", \"guidance\": G]}}");
    println!("  GET  /healthz | /readyz | /metrics      POST /admin/shutdown");
    let shared = handle.shared().clone();
    handle.wait();
    // A server that only ever ran degraded (model never loaded) exits
    // non-zero so scripts notice, even though it stayed up to be probed.
    if let Some(reason) = shared.boot_error() {
        eprintln!("stopped; model never became ready: {reason}");
        return ExitCode::FAILURE;
    }
    println!("stopped");
    ExitCode::SUCCESS
}

fn fault_armed(plan: &fpdq::serve::FaultPlan) -> bool {
    *plan != fpdq::serve::FaultPlan::default()
}

fn characterize() -> ExitCode {
    use fpdq::perf::census::{sd_scale_config, sd_scale_input, SD_CONTEXT_LEN};
    use fpdq::perf::{census, latency, peak_memory, Device, LayerClass, NumberFormat};
    let cfg = sd_scale_config();
    let c = census(&cfg, sd_scale_input(), 1, SD_CONTEXT_LEN);
    println!(
        "SD-scale U-Net: {:.0}M params, {:.0} GFLOP/forward",
        c.total_params() as f64 / 1e6,
        c.total_flops() / 1e9
    );
    for device in [Device::xeon_like(), Device::v100_like(), Device::h100_like()] {
        let r = latency(&c, &device, NumberFormat::Fp32, NumberFormat::Fp32);
        print!("{:<22} {:>8.1} ms |", device.name, r.total * 1e3);
        for class in LayerClass::ALL {
            print!(" {} {:>4.1}%", class.name(), 100.0 * r.share_of(class));
        }
        println!();
    }
    for batch in [1usize, 8, 16] {
        let m = peak_memory(&cfg, sd_scale_input(), batch, SD_CONTEXT_LEN, 4.0, 4.0);
        println!(
            "peak memory @ batch {batch:>2}: {:>6.2} GiB (attention {:>4.1}%)",
            m.total_gib(),
            100.0 * m.attention / m.total()
        );
    }
    ExitCode::SUCCESS
}
