//! The model registry: everything `--model` can name.
//!
//! A model spec is either a **registry name** (a builder this binary
//! knows how to construct: the zoo pipelines, or the zoo-free `tiny`
//! test model) or a **path to a `.fpdq` container** written by `fpdq
//! pack`. Resolution happens in two phases on purpose:
//!
//! 1. [`resolve`] runs on the caller's thread and only decides *what*
//!    to build — an unknown name fails fast, before a server binds, with
//!    an error that lists every valid name;
//! 2. the returned [`ModelBuilder`] runs *inside* the scheduler thread
//!    (packed models hold `Rc` slots and are `!Send`), where a load
//!    failure becomes a boot error that degrades the server instead of
//!    killing it.

use crate::ServeModel;
use fpdq_container::SimPipeline;
use fpdq_diffusion::Zoo;
use fpdq_tensor::FpdqError;
use std::path::{Path, PathBuf};

/// Every name [`resolve`] accepts, in the order help text lists them.
pub const MODEL_NAMES: &[&str] = &["tiny", "tiny-sd", "ddim", "ldm", "sd"];

/// A deferred model constructor, run on the scheduler thread.
pub type ModelBuilder = Box<dyn FnOnce() -> Result<Box<dyn ServeModel>, FpdqError> + Send>;

/// True when `spec` should be treated as a container path rather than a
/// registry name: it looks like a path (separator or `.fpdq` suffix) or
/// an actual file exists there.
pub fn is_container_path(spec: &str) -> bool {
    spec.ends_with(".fpdq")
        || spec.contains(std::path::MAIN_SEPARATOR)
        || spec.contains('/')
        || Path::new(spec).is_file()
}

/// Resolves a model spec to a builder, or fails with an error listing
/// the registry names. The builder itself can still fail later (missing
/// file, corrupt container) — that failure is the *server's* to absorb.
pub fn resolve(spec: &str) -> Result<ModelBuilder, FpdqError> {
    if is_container_path(spec) {
        let path = PathBuf::from(spec);
        return Ok(Box::new(move || load_container(&path)));
    }
    match spec {
        "tiny" => Ok(Box::new(|| Ok(Box::new(crate::tiny_ddim()) as Box<dyn ServeModel>))),
        "tiny-sd" => Ok(Box::new(|| Ok(Box::new(crate::tiny_sd()) as Box<dyn ServeModel>))),
        "ddim" => {
            Ok(Box::new(|| Ok(Box::new(Zoo::open_default().ddim_sim()) as Box<dyn ServeModel>)))
        }
        "ldm" => {
            Ok(Box::new(|| Ok(Box::new(Zoo::open_default().ldm_sim()) as Box<dyn ServeModel>)))
        }
        "sd" => Ok(Box::new(|| Ok(Box::new(Zoo::open_default().sd_sim()) as Box<dyn ServeModel>))),
        other => Err(FpdqError::missing(format!(
            "unknown model '{other}': expected one of {} or a path to a .fpdq container",
            MODEL_NAMES.join(", ")
        ))),
    }
}

/// Loads a `.fpdq` container and adapts its pipeline for serving. Must
/// run on the thread that will own the model: loading installs the
/// packed execution slots (`Rc`-held, `!Send`).
pub fn load_container(path: &Path) -> Result<Box<dyn ServeModel>, FpdqError> {
    let loaded = fpdq_container::load(path)?;
    match loaded.pipeline {
        SimPipeline::Ddim(p) => Ok(Box::new(p)),
        SimPipeline::Ldm(p) => Ok(Box::new(p)),
        // An sd container carries everything serving needs: the packed
        // U-Net plus the full-precision tokenizer, text encoder and
        // autoencoder (TEXT_PARAMS / AE_PARAMS sections).
        SimPipeline::Sd(p) => Ok(Box::new(p)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_names_list_the_registry() {
        let Err(err) = resolve("gpt5") else { panic!("unknown name resolved") };
        let msg = err.to_string();
        for name in MODEL_NAMES {
            assert!(msg.contains(name), "error must list '{name}': {msg}");
        }
        assert!(matches!(err, FpdqError::MissingInput(_)));
    }

    #[test]
    fn known_names_resolve_and_paths_defer() {
        for name in MODEL_NAMES {
            assert!(resolve(name).is_ok(), "registry name '{name}' must resolve");
        }
        // Paths resolve eagerly (building is what fails later).
        let Ok(builder) = resolve("/nonexistent/model.fpdq") else {
            panic!("paths must resolve eagerly")
        };
        let Err(err) = builder() else { panic!("missing file must fail to build") };
        assert!(matches!(err, FpdqError::Io(_)), "{err}");
    }

    #[test]
    fn path_heuristic() {
        assert!(is_container_path("model.fpdq"));
        assert!(is_container_path("target/zoo/ddim.fpdq"));
        assert!(is_container_path("./tiny"));
        assert!(!is_container_path("tiny"));
        assert!(!is_container_path("ddim"));
    }
}
