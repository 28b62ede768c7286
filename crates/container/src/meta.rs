//! The container's JSON metadata: pipeline architecture, quantizer
//! formats, and the packed-weight layer table.
//!
//! Serialization is hand-written against the compat `serde::json::Value`
//! tree (the offline stand-in's derive macros are no-ops), with every
//! numeric domain validated on the way *in* — a hostile or bit-rotted
//! metadata section must come back as a typed [`FpdqError`], never reach
//! a panicking constructor like `FpFormat::with_bias` or
//! `NoiseSchedule::from_betas`.

use fpdq_core::{FpFormat, IntFormat, TensorQuantizer};
use fpdq_nn::{AutoencoderConfig, TextEncoderConfig, UNetConfig};
use fpdq_tensor::FpdqError;
use serde::json::Value;
use std::collections::BTreeMap;

/// Largest dimension, element count, beta count or layer count the
/// metadata parser accepts — far above any real model here, low enough
/// that hostile metadata cannot drive huge allocations.
const MAX_DIM: usize = 1 << 20;
const MAX_NUMEL: usize = 1 << 28;
const MAX_LIST: usize = 1 << 16;

/// Which pipeline family the container holds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PipelineKind {
    /// Pixel-space DDIM.
    Ddim,
    /// Unconditional latent diffusion (autoencoder + U-Net).
    Ldm,
    /// Text-to-image latent diffusion (tokenizer + text encoder + AE + U-Net).
    Sd,
}

impl PipelineKind {
    /// Stable wire name.
    pub fn as_str(&self) -> &'static str {
        match self {
            PipelineKind::Ddim => "ddim",
            PipelineKind::Ldm => "ldm",
            PipelineKind::Sd => "sd",
        }
    }

    fn from_str(s: &str) -> Result<Self, FpdqError> {
        match s {
            "ddim" => Ok(PipelineKind::Ddim),
            "ldm" => Ok(PipelineKind::Ldm),
            "sd" => Ok(PipelineKind::Sd),
            other => Err(corrupt(format!("unknown pipeline kind {other:?}"))),
        }
    }
}

/// One quantized layer: its formats and, when the weight is packed, the
/// location of its payload inside the weights section.
#[derive(Clone, Debug)]
pub struct LayerEntry {
    /// Hierarchical layer name (must exist in the rebuilt U-Net).
    pub name: String,
    /// Packed weight storage format; `None` for act-only layers.
    pub weight_format: Option<TensorQuantizer>,
    /// Whole-input (or trunk-half) activation format.
    pub act_format: Option<TensorQuantizer>,
    /// Skip-half activation format (split layers only).
    pub act_format_skip: Option<TensorQuantizer>,
    /// Logical weight shape (cross-checked against the model).
    pub dims: Vec<usize>,
    /// Payload offset relative to the weights section, 64-byte aligned.
    /// Zero (with `len` zero) when `weight_format` is `None`.
    pub offset: u64,
    /// Payload length in bytes.
    pub len: u64,
}

/// Everything the loader needs besides raw parameter/payload bytes.
#[derive(Clone, Debug)]
pub struct ContainerMeta {
    /// Pipeline family.
    pub kind: PipelineKind,
    /// U-Net architecture.
    pub unet: UNetConfig,
    /// Autoencoder architecture (LDM/SD).
    pub ae: Option<AutoencoderConfig>,
    /// Text-encoder architecture (SD).
    pub text: Option<TextEncoderConfig>,
    /// Noise-schedule betas, each in (0, 1).
    pub betas: Vec<f32>,
    /// DDIM: image channels. LDM/SD: latent channels.
    pub channels: usize,
    /// DDIM: image size. LDM/SD: latent size.
    pub image_size: usize,
    /// Latent scaling factor (LDM/SD).
    pub latent_scale: Option<f32>,
    /// Classifier-free guidance scale (SD).
    pub guidance: Option<f32>,
    /// Quantized layers in model order.
    pub layers: Vec<LayerEntry>,
}

fn corrupt(msg: impl std::fmt::Display) -> FpdqError {
    FpdqError::corrupt(format!("container meta: {msg}"))
}

// ---------------------------------------------------------------------
// Value-tree helpers (the compat serde derives are no-ops, so this module
// reads and writes `Value` directly, like `fpdq_serve::api` does).
// ---------------------------------------------------------------------

fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(fields.into_iter().map(|(k, v)| (k.to_string(), v)).collect::<BTreeMap<_, _>>())
}

fn num(n: f64) -> Value {
    Value::Number(n)
}

fn req<'v>(v: &'v Value, key: &str) -> Result<&'v Value, FpdqError> {
    v.get(key).ok_or_else(|| corrupt(format!("missing field '{key}'")))
}

fn req_f64(v: &Value, key: &str) -> Result<f64, FpdqError> {
    let n = req(v, key)?.as_number().map_err(|e| corrupt(format!("field '{key}': {e}")))?;
    if !n.is_finite() {
        return Err(corrupt(format!("field '{key}' is not finite")));
    }
    Ok(n)
}

fn req_f32(v: &Value, key: &str) -> Result<f32, FpdqError> {
    // A finite f64 beyond the f32 range casts to ±inf.
    let n = req_f64(v, key)? as f32;
    if !n.is_finite() {
        return Err(corrupt(format!("field '{key}' is out of f32 range")));
    }
    Ok(n)
}

fn req_usize(v: &Value, key: &str) -> Result<usize, FpdqError> {
    let n = req_f64(v, key)?;
    if n.fract() != 0.0 || n < 0.0 || n > MAX_NUMEL as f64 {
        return Err(corrupt(format!("field '{key}' = {n} is not a valid size")));
    }
    Ok(n as usize)
}

fn req_u32(v: &Value, key: &str) -> Result<u32, FpdqError> {
    let n = req_f64(v, key)?;
    if n.fract() != 0.0 || !(0.0..=u32::MAX as f64).contains(&n) {
        return Err(corrupt(format!("field '{key}' = {n} is not a valid u32")));
    }
    Ok(n as u32)
}

fn req_u64(v: &Value, key: &str) -> Result<u64, FpdqError> {
    let n = req_f64(v, key)?;
    // f64 is exact up to 2^53; container payloads are far below that.
    if n.fract() != 0.0 || !(0.0..=9.0e15).contains(&n) {
        return Err(corrupt(format!("field '{key}' = {n} is not a valid offset/length")));
    }
    Ok(n as u64)
}

fn req_str<'v>(v: &'v Value, key: &str) -> Result<&'v str, FpdqError> {
    match req(v, key)? {
        Value::String(s) => Ok(s),
        other => Err(corrupt(format!("field '{key}' should be a string, got {}", other.kind()))),
    }
}

fn req_array<'v>(v: &'v Value, key: &str) -> Result<&'v Vec<Value>, FpdqError> {
    match req(v, key)? {
        Value::Array(items) => {
            if items.len() > MAX_LIST {
                return Err(corrupt(format!(
                    "field '{key}' has {} entries (cap {MAX_LIST})",
                    items.len()
                )));
            }
            Ok(items)
        }
        other => Err(corrupt(format!("field '{key}' should be an array, got {}", other.kind()))),
    }
}

fn usize_list(v: &Value, key: &str) -> Result<Vec<usize>, FpdqError> {
    req_array(v, key)?
        .iter()
        .map(|item| {
            let n = item.as_number().map_err(|e| corrupt(format!("field '{key}': {e}")))?;
            if !n.is_finite() || n.fract() != 0.0 || n < 0.0 || n > MAX_DIM as f64 {
                return Err(corrupt(format!("field '{key}' entry {n} is not a valid size")));
            }
            Ok(n as usize)
        })
        .collect()
}

// ---------------------------------------------------------------------
// Quantizer formats
// ---------------------------------------------------------------------

fn quantizer_to_value(q: &TensorQuantizer) -> Value {
    match q {
        TensorQuantizer::Fp(f) => obj(vec![
            ("type", Value::String("fp".into())),
            ("exp_bits", num(f.exp_bits() as f64)),
            ("man_bits", num(f.man_bits() as f64)),
            ("bias", num(f.bias() as f64)),
        ]),
        TensorQuantizer::Int(f) => obj(vec![
            ("type", Value::String("int".into())),
            ("bits", num(f.bits() as f64)),
            ("scale", num(f.scale() as f64)),
            ("zero_point", num(f.zero_point() as f64)),
        ]),
    }
}

fn quantizer_from_value(v: &Value) -> Result<TensorQuantizer, FpdqError> {
    match req_str(v, "type")? {
        "fp" => {
            let f = FpFormat::try_with_bias(
                req_u32(v, "exp_bits")?,
                req_u32(v, "man_bits")?,
                req_f32(v, "bias")?,
            )?;
            Ok(TensorQuantizer::Fp(f))
        }
        "int" => {
            let f = IntFormat::try_from_parts(
                req_u32(v, "bits")?,
                req_f32(v, "scale")?,
                req_f32(v, "zero_point")?,
            )?;
            Ok(TensorQuantizer::Int(f))
        }
        other => Err(corrupt(format!("unknown quantizer type {other:?}"))),
    }
}

fn opt_quantizer(v: &Value, key: &str) -> Result<Option<TensorQuantizer>, FpdqError> {
    match v.get(key) {
        Some(q) => Ok(Some(quantizer_from_value(q).map_err(|e| corrupt(format!("'{key}': {e}")))?)),
        None => Ok(None),
    }
}

// ---------------------------------------------------------------------
// Architecture configs
// ---------------------------------------------------------------------

fn unet_to_value(c: &UNetConfig) -> Value {
    obj(vec![
        ("in_channels", num(c.in_channels as f64)),
        ("out_channels", num(c.out_channels as f64)),
        ("base_channels", num(c.base_channels as f64)),
        ("channel_mults", Value::Array(c.channel_mults.iter().map(|&m| num(m as f64)).collect())),
        ("num_res_blocks", num(c.num_res_blocks as f64)),
        ("attn_levels", Value::Array(c.attn_levels.iter().map(|&l| num(l as f64)).collect())),
        ("heads", num(c.heads as f64)),
        ("context_dim", c.context_dim.map_or(Value::Null, |d| num(d as f64))),
        ("norm_groups", num(c.norm_groups as f64)),
    ])
}

fn unet_from_value(v: &Value) -> Result<UNetConfig, FpdqError> {
    let cfg = UNetConfig {
        in_channels: req_usize(v, "in_channels")?,
        out_channels: req_usize(v, "out_channels")?,
        base_channels: req_usize(v, "base_channels")?,
        channel_mults: usize_list(v, "channel_mults")?,
        num_res_blocks: req_usize(v, "num_res_blocks")?,
        attn_levels: usize_list(v, "attn_levels")?,
        heads: req_usize(v, "heads")?,
        context_dim: match v.get("context_dim") {
            Some(d) => Some({
                let n = d.as_number().map_err(|e| corrupt(format!("context_dim: {e}")))?;
                if !n.is_finite() || n.fract() != 0.0 || n < 1.0 || n > MAX_DIM as f64 {
                    return Err(corrupt(format!("context_dim {n} is not a valid size")));
                }
                n as usize
            }),
            None => None,
        },
        norm_groups: req_usize(v, "norm_groups")?,
    };
    // Pre-validate the panicking invariants of `UNet::new` and the layer
    // constructors it calls.
    if cfg.channel_mults.is_empty() {
        return Err(corrupt("unet config has no channel mults"));
    }
    if cfg.num_res_blocks == 0 {
        return Err(corrupt("unet config has zero res blocks"));
    }
    for (name, n) in [
        ("in_channels", cfg.in_channels),
        ("out_channels", cfg.out_channels),
        ("base_channels", cfg.base_channels),
        ("heads", cfg.heads),
        ("norm_groups", cfg.norm_groups),
    ] {
        if n == 0 || n > MAX_DIM {
            return Err(corrupt(format!("unet config {name} = {n} out of range")));
        }
    }
    Ok(cfg)
}

fn ae_to_value(c: &AutoencoderConfig) -> Value {
    obj(vec![
        ("image_channels", num(c.image_channels as f64)),
        ("base_channels", num(c.base_channels as f64)),
        ("latent_channels", num(c.latent_channels as f64)),
        ("norm_groups", num(c.norm_groups as f64)),
    ])
}

fn ae_from_value(v: &Value) -> Result<AutoencoderConfig, FpdqError> {
    let cfg = AutoencoderConfig {
        image_channels: req_usize(v, "image_channels")?,
        base_channels: req_usize(v, "base_channels")?,
        latent_channels: req_usize(v, "latent_channels")?,
        norm_groups: req_usize(v, "norm_groups")?,
    };
    for (name, n) in [
        ("image_channels", cfg.image_channels),
        ("base_channels", cfg.base_channels),
        ("latent_channels", cfg.latent_channels),
        ("norm_groups", cfg.norm_groups),
    ] {
        if n == 0 || n > MAX_DIM {
            return Err(corrupt(format!("autoencoder config {name} = {n} out of range")));
        }
    }
    Ok(cfg)
}

fn text_to_value(c: &TextEncoderConfig) -> Value {
    obj(vec![
        ("vocab_size", num(c.vocab_size as f64)),
        ("max_len", num(c.max_len as f64)),
        ("dim", num(c.dim as f64)),
        ("heads", num(c.heads as f64)),
        ("layers", num(c.layers as f64)),
    ])
}

fn text_from_value(v: &Value) -> Result<TextEncoderConfig, FpdqError> {
    let cfg = TextEncoderConfig {
        vocab_size: req_usize(v, "vocab_size")?,
        max_len: req_usize(v, "max_len")?,
        dim: req_usize(v, "dim")?,
        heads: req_usize(v, "heads")?,
        layers: req_usize(v, "layers")?,
    };
    for (name, n) in [
        ("vocab_size", cfg.vocab_size),
        ("max_len", cfg.max_len),
        ("dim", cfg.dim),
        ("heads", cfg.heads),
        ("layers", cfg.layers),
    ] {
        if n == 0 || n > MAX_DIM {
            return Err(corrupt(format!("text config {name} = {n} out of range")));
        }
    }
    Ok(cfg)
}

// ---------------------------------------------------------------------
// Layer entries and the whole document
// ---------------------------------------------------------------------

fn layer_to_value(l: &LayerEntry) -> Value {
    let mut fields = vec![
        ("name", Value::String(l.name.clone())),
        ("dims", Value::Array(l.dims.iter().map(|&d| num(d as f64)).collect())),
        ("offset", num(l.offset as f64)),
        ("len", num(l.len as f64)),
    ];
    if let Some(w) = &l.weight_format {
        fields.push(("weight_format", quantizer_to_value(w)));
    }
    if let Some(a) = &l.act_format {
        fields.push(("act_format", quantizer_to_value(a)));
    }
    if let Some(a) = &l.act_format_skip {
        fields.push(("act_format_skip", quantizer_to_value(a)));
    }
    obj(fields)
}

fn layer_from_value(v: &Value) -> Result<LayerEntry, FpdqError> {
    let name = req_str(v, "name")?.to_string();
    let dims = usize_list(v, "dims")?;
    if dims.is_empty() {
        return Err(corrupt(format!("layer '{name}' has empty dims")));
    }
    let mut numel = 1usize;
    for &d in &dims {
        numel = numel
            .checked_mul(d)
            .filter(|&n| n <= MAX_NUMEL)
            .ok_or_else(|| corrupt(format!("layer '{name}' dims {dims:?} are too large")))?;
    }
    let entry = LayerEntry {
        weight_format: opt_quantizer(v, "weight_format")
            .map_err(|e| corrupt(format!("layer '{name}': {e}")))?,
        act_format: opt_quantizer(v, "act_format")
            .map_err(|e| corrupt(format!("layer '{name}': {e}")))?,
        act_format_skip: opt_quantizer(v, "act_format_skip")
            .map_err(|e| corrupt(format!("layer '{name}': {e}")))?,
        offset: req_u64(v, "offset")?,
        len: req_u64(v, "len")?,
        name,
        dims,
    };
    if entry.weight_format.is_some() {
        if !(entry.offset as usize).is_multiple_of(crate::layout::ALIGN) {
            return Err(corrupt(format!(
                "layer '{}' payload offset {} is not {}-byte aligned",
                entry.name,
                entry.offset,
                crate::layout::ALIGN
            )));
        }
    } else if entry.offset != 0 || entry.len != 0 {
        return Err(corrupt(format!(
            "layer '{}' has a payload span but no weight format",
            entry.name
        )));
    }
    Ok(entry)
}

impl ContainerMeta {
    /// Serialises to the canonical (sorted-key) JSON text stored in the
    /// META section.
    pub fn to_json(&self) -> String {
        let mut fields = vec![
            ("kind", Value::String(self.kind.as_str().into())),
            ("unet", unet_to_value(&self.unet)),
            ("betas", Value::Array(self.betas.iter().map(|&b| num(b as f64)).collect())),
            ("channels", num(self.channels as f64)),
            ("image_size", num(self.image_size as f64)),
            ("layers", Value::Array(self.layers.iter().map(layer_to_value).collect())),
        ];
        if let Some(ae) = &self.ae {
            fields.push(("ae", ae_to_value(ae)));
        }
        if let Some(text) = &self.text {
            fields.push(("text", text_to_value(text)));
        }
        if let Some(s) = self.latent_scale {
            fields.push(("latent_scale", num(s as f64)));
        }
        if let Some(g) = self.guidance {
            fields.push(("guidance", num(g as f64)));
        }
        obj(fields).to_json()
    }

    /// Parses and validates a META section. Every field is checked
    /// against its domain; pipeline-kind completeness (LDM needs an AE,
    /// SD needs AE + text) is enforced here so the loader can build
    /// modules without further checks.
    pub fn from_json(text: &str) -> Result<Self, FpdqError> {
        let v = Value::parse(text).map_err(corrupt)?;
        let kind = PipelineKind::from_str(req_str(&v, "kind")?)?;
        let betas_raw = req_array(&v, "betas")?;
        if betas_raw.is_empty() {
            return Err(corrupt("empty beta schedule"));
        }
        let mut betas = Vec::with_capacity(betas_raw.len());
        for b in betas_raw {
            let n = b.as_number().map_err(|e| corrupt(format!("betas: {e}")))?;
            if !(n > 0.0 && n < 1.0) {
                return Err(corrupt(format!("beta {n} outside (0, 1)")));
            }
            betas.push(n as f32);
        }
        let layers_raw = req_array(&v, "layers")?;
        let mut layers = Vec::with_capacity(layers_raw.len());
        for l in layers_raw {
            let entry = layer_from_value(l)?;
            if layers.iter().any(|e: &LayerEntry| e.name == entry.name) {
                return Err(corrupt(format!("duplicate layer entry '{}'", entry.name)));
            }
            layers.push(entry);
        }
        let channels = req_usize(&v, "channels")?;
        let image_size = req_usize(&v, "image_size")?;
        if channels == 0 || channels > MAX_DIM || image_size == 0 || image_size > MAX_DIM {
            return Err(corrupt(format!(
                "channels {channels} / image_size {image_size} out of range"
            )));
        }
        let meta = ContainerMeta {
            kind,
            unet: unet_from_value(req(&v, "unet")?)?,
            ae: match v.get("ae") {
                Some(a) => Some(ae_from_value(a)?),
                None => None,
            },
            text: match v.get("text") {
                Some(t) => Some(text_from_value(t)?),
                None => None,
            },
            betas,
            channels,
            image_size,
            latent_scale: match v.get("latent_scale") {
                Some(_) => Some(pos_f32(&v, "latent_scale")?),
                None => None,
            },
            guidance: match v.get("guidance") {
                Some(_) => Some(pos_f32(&v, "guidance")?),
                None => None,
            },
            layers,
        };
        match meta.kind {
            PipelineKind::Ddim => {}
            PipelineKind::Ldm => {
                if meta.ae.is_none() || meta.latent_scale.is_none() {
                    return Err(corrupt("ldm container needs 'ae' and 'latent_scale'"));
                }
            }
            PipelineKind::Sd => {
                if meta.ae.is_none()
                    || meta.text.is_none()
                    || meta.latent_scale.is_none()
                    || meta.guidance.is_none()
                {
                    return Err(corrupt(
                        "sd container needs 'ae', 'text', 'latent_scale' and 'guidance'",
                    ));
                }
            }
        }
        Ok(meta)
    }
}

fn pos_f32(v: &Value, key: &str) -> Result<f32, FpdqError> {
    let n = req_f32(v, key)?;
    if n <= 0.0 {
        // `req_f32` already rejected non-finite values, so this total
        // comparison is exhaustive.
        return Err(corrupt(format!("field '{key}' = {n} must be positive")));
    }
    Ok(n)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ContainerMeta {
        ContainerMeta {
            kind: PipelineKind::Sd,
            unet: UNetConfig {
                in_channels: 4,
                out_channels: 4,
                base_channels: 16,
                channel_mults: vec![1, 2],
                num_res_blocks: 1,
                attn_levels: vec![1],
                heads: 2,
                context_dim: Some(16),
                norm_groups: 4,
            },
            ae: Some(AutoencoderConfig::small(3, 4)),
            text: Some(TextEncoderConfig::small(64, 8, 16)),
            betas: vec![0.25, 0.5, 0.125],
            channels: 4,
            image_size: 8,
            latent_scale: Some(1.75),
            guidance: Some(3.0),
            layers: vec![LayerEntry {
                name: "down0.res0.conv1".into(),
                weight_format: Some(TensorQuantizer::Fp(FpFormat::with_bias(2, 1, 2.5))),
                act_format: Some(TensorQuantizer::Int(IntFormat::from_range(8, -1.0, 1.0))),
                act_format_skip: None,
                dims: vec![16, 4, 3, 3],
                offset: 0,
                len: 288,
            }],
        }
    }

    #[test]
    fn json_roundtrip_is_exact() {
        let meta = sample();
        let text = meta.to_json();
        let back = ContainerMeta::from_json(&text).unwrap();
        assert_eq!(back.kind, meta.kind);
        assert_eq!(back.unet, meta.unet);
        assert_eq!(back.betas, meta.betas);
        assert_eq!(back.latent_scale, meta.latent_scale);
        assert_eq!(back.layers.len(), 1);
        assert_eq!(back.layers[0].weight_format, meta.layers[0].weight_format);
        assert_eq!(back.layers[0].act_format, meta.layers[0].act_format);
        assert_eq!(back.layers[0].dims, meta.layers[0].dims);
        // Canonical writer: a second roundtrip is byte-identical.
        assert_eq!(back.to_json(), text);
    }

    #[test]
    fn quantizer_f32_fields_roundtrip_bitwise() {
        for bias in [2.5f32, -0.37, 7.712_345, 1e-7] {
            let q = TensorQuantizer::Fp(FpFormat::with_bias(4, 3, bias));
            let v = quantizer_to_value(&q);
            let back = quantizer_from_value(&Value::parse(&v.to_json()).unwrap()).unwrap();
            assert_eq!(back, q, "bias {bias} drifted through JSON");
        }
    }

    #[test]
    fn rejects_domain_violations() {
        let meta = sample();
        let good = meta.to_json();
        for (needle, replacement) in [
            ("\"kind\":\"sd\"", "\"kind\":\"vae\""),
            ("\"exp_bits\":2", "\"exp_bits\":99"),
            ("\"betas\":[0.25,0.5,0.125]", "\"betas\":[0.25,1.5,0.125]"),
            ("\"betas\":[0.25,0.5,0.125]", "\"betas\":[]"),
            ("\"num_res_blocks\":1", "\"num_res_blocks\":0"),
            ("\"channel_mults\":[1,2]", "\"channel_mults\":[]"),
            ("\"guidance\":3", "\"guidance\":-1"),
            // Finite as f64, infinite once narrowed to f32.
            ("\"guidance\":3", "\"guidance\":1e39"),
            ("\"latent_scale\":1.75", "\"latent_scale\":1e39"),
            ("\"offset\":0", "\"offset\":63"),
        ] {
            assert!(good.contains(needle), "fixture drifted: {needle} not found");
            let bad = good.replace(needle, replacement);
            let err = ContainerMeta::from_json(&bad).unwrap_err();
            assert!(matches!(err, FpdqError::Corrupt(_)), "{needle} -> {err}");
        }
    }

    #[test]
    fn rejects_missing_required_sections_per_kind() {
        let mut meta = sample();
        meta.text = None;
        let err = ContainerMeta::from_json(&meta.to_json()).unwrap_err();
        assert!(err.to_string().contains("sd container needs"), "{err}");
    }

    #[test]
    fn not_json_is_typed_corrupt() {
        for bad in ["", "]", "{\"kind\":", "\x00\x01\x02"] {
            assert!(matches!(ContainerMeta::from_json(bad).unwrap_err(), FpdqError::Corrupt(_)));
        }
    }
}
