//! Boundary-table quantizers: branch-free fake quantization without
//! transcendentals.
//!
//! [`FpFormat::quantize_scalar`] pays a `log2` + `powf` per element, which
//! the kernels bench shows dominating the weight+activation GEMM path.
//! A [`BoundaryQuantizer`] precomputes, once per format, the *decision
//! boundary* between every adjacent pair of representable values — found
//! by exact bit-level bisection against the reference quantizer, the same
//! technique the packed weight encoder in `fpdq-kernels` uses — so
//! quantizing an element is a table bisection over presorted `f32`s:
//! no `log2`, no `powf`, no data-dependent branches beyond the search.
//!
//! The table covers the full *signed* value line (INT formats are
//! asymmetric), and the slice path accelerates the search with a
//! 512-bucket index over the sign+exponent byte of the input, leaving at
//! most one binade of boundaries (≤ 2^m + 1 entries for FP formats) to
//! scan branch-free per element. INT formats take an arithmetic shortcut
//! that evaluates the *identical* float expression as
//! [`IntFormat::quantize_scalar`].
//!
//! [`PanelQuantizer`] lifts this to the granularity the fused GEMM/conv
//! kernels need: one shared table (per-tensor, the paper's configuration)
//! or one table per channel (the per-channel ablation), applied to
//! activation micro-panels as they stream through the tile loop.

use crate::format::FpFormat;
use crate::int::IntFormat;
use crate::quantizer::TensorQuantizer;
use fpdq_tensor::simd::{self, Isa};
use fpdq_tensor::Tensor;
use std::sync::{Arc, Mutex};

/// Order-preserving map from a (non-NaN) `f32` to a `u32`: negative
/// floats invert, positives set the sign bit, so integer order equals
/// float total order across the whole signed line.
#[inline]
fn order_key(x: f32) -> u32 {
    let b = x.to_bits();
    if b & 0x8000_0000 != 0 {
        !b
    } else {
        b | 0x8000_0000
    }
}

/// Inverse of [`order_key`].
#[inline]
fn key_to_float(k: u32) -> f32 {
    if k & 0x8000_0000 != 0 {
        f32::from_bits(k & 0x7FFF_FFFF)
    } else {
        f32::from_bits(!k)
    }
}

/// Number of sign+exponent buckets in the slice-path index (9 top bits of
/// the order key: 1 sign × 8 exponent).
const BUCKETS: usize = 512;

/// Padding granule of the bucket stripes: the count sweep runs in fixed
/// blocks of this many lanes so it vectorises.
const PAD_LANES: usize = 8;

/// The INT arithmetic shortcut parameters (evaluating the same float
/// expression as [`IntFormat::quantize_scalar`]), or the FP bucket index.
#[derive(Clone, Debug)]
enum FastPath {
    /// Bucketed boundary search (FP formats).
    Buckets(BucketIndex),
    /// Direct affine rounding (INT formats).
    Affine { scale: f32, zero_point: f32, qmax: f32 },
}

/// The FP slice path's index: `lo[t]` counts boundaries in buckets below
/// `t`; `pad` stores each bucket's boundaries in a fixed `pad_w`-wide
/// stripe (padded with `+∞`), so the per-element count is a branch-free
/// fixed-width sweep the compiler vectorises. Buckets hold negative inputs
/// below `BUCKETS / 2` and non-negative ones from it on; in each half only
/// the run of `span[h]` buckets from `first[h]` that holds its boundaries
/// (a format's binades, a few dozen buckets in all) gets stripes of its
/// own. Every other bucket sweeps the one all-`+∞` stripe stored last.
#[derive(Clone, Debug)]
struct BucketIndex {
    lo: Vec<u32>,
    first: [usize; 2],
    span: [usize; 2],
    pad: Vec<f32>,
    pad_w: usize,
}

impl BucketIndex {
    /// The stripe number of bucket `t`: the negative half's run, then the
    /// non-negative half's run, then the shared `+∞` stripe.
    #[inline]
    fn stripe_of(first: [usize; 2], span: [usize; 2], t: usize) -> usize {
        let h = t / (BUCKETS / 2);
        // Buckets below `first[h]` wrap to huge offsets and miss too.
        let off = t.wrapping_sub(first[h]);
        if off < span[h] {
            h * span[0] + off
        } else {
            span[0] + span[1]
        }
    }

    /// The `+∞`-padded boundaries of bucket `t`, `pad_w` long.
    #[inline]
    fn stripe(&self, t: usize) -> &[f32] {
        let s = Self::stripe_of(self.first, self.span, t);
        &self.pad[s * self.pad_w..(s + 1) * self.pad_w]
    }
}

/// A precomputed signed boundary table for one quantizer, bit-exact
/// against the quantizer's `quantize_scalar` for every input (NaN and ±∞
/// included; `-0.0` canonicalises to `+0.0`, invisible to any downstream
/// sum or product).
#[derive(Clone, Debug)]
pub struct BoundaryQuantizer {
    /// Every representable value, ascending. `values[i]` is the output
    /// for inputs in `[boundaries[i-1], boundaries[i])`.
    values: Vec<f32>,
    /// `boundaries[i]` is the smallest float quantizing to `values[i+1]`
    /// (`±∞` when a value is unreachable from either end).
    boundaries: Vec<f32>,
    /// Output for NaN inputs.
    nan_value: f32,
    fast: FastPath,
}

impl BoundaryQuantizer {
    /// Builds the table for a floating-point format.
    pub fn from_fp(fmt: FpFormat) -> Self {
        let quantize = move |x: f32| {
            let q = fmt.quantize_scalar(x);
            if q == 0.0 {
                0.0 // canonicalise -0.0 (see module docs)
            } else {
                q
            }
        };
        // Project the enumeration through the quantizer itself: for
        // searched fractional biases the clip maximum `c` (eq. 7) and the
        // enumerated top magnitude are computed by different float
        // expressions and can differ by ULPs — the quantizer's *actual*
        // output near the top is whichever survives its final clamp.
        // Quantization is idempotent, so the projected set is exactly the
        // fixed-point (output) set, mirrored onto the signed line.
        let non_neg = fmt.enumerate_non_negative();
        let mut values: Vec<f32> = non_neg
            .iter()
            .flat_map(|&v| [v, -v])
            .chain([f32::MAX, -f32::MAX])
            .map(quantize)
            .collect();
        values.sort_by(f32::total_cmp);
        values.dedup();
        Self::from_reference(values, quantize, 0.0, None)
    }

    /// Builds the table for an integer format.
    pub fn from_int(fmt: IntFormat) -> Self {
        let qmax = (1u32 << fmt.bits()) as f32 - 1.0;
        let zp = fmt.zero_point();
        let values: Vec<f32> =
            (0..1u32 << fmt.bits()).map(|q| fmt.scale() * (q as f32 - zp)).collect();
        let nan_value = fmt.quantize_scalar(f32::NAN);
        let fast = FastPath::Affine { scale: fmt.scale(), zero_point: zp, qmax };
        Self::from_reference(values, move |x| fmt.quantize_scalar(x), nan_value, Some(fast))
    }

    /// Builds the table for either backend of a [`TensorQuantizer`].
    pub fn from_quantizer(q: &TensorQuantizer) -> Self {
        match q {
            TensorQuantizer::Fp(f) => Self::from_fp(*f),
            TensorQuantizer::Int(f) => Self::from_int(*f),
        }
    }

    /// Returns a cached table for `q`, building it on first use. Formats
    /// repeat across layers and sampling steps, so the bisection cost is
    /// paid once per distinct format per process.
    pub fn cached(q: &TensorQuantizer) -> Arc<BoundaryQuantizer> {
        static CACHE: Mutex<Vec<(TensorQuantizer, Arc<BoundaryQuantizer>)>> =
            Mutex::new(Vec::new());
        const CAP: usize = 256;
        // A panic elsewhere must not poison every later quantization
        // (the cache holds only immutable finished tables).
        let mut cache = CACHE.lock().unwrap_or_else(|e| e.into_inner());
        if let Some((_, bq)) = cache.iter().find(|(k, _)| k == q) {
            return bq.clone();
        }
        let bq = Arc::new(Self::from_quantizer(q));
        if cache.len() == CAP {
            cache.remove(0);
        }
        cache.push((*q, bq.clone()));
        bq
    }

    /// Core construction: bisect the exact boundary between every adjacent
    /// pair of `values` against the (monotone) reference quantizer.
    fn from_reference(
        values: Vec<f32>,
        quantize: impl Fn(f32) -> f32,
        nan_value: f32,
        fast: Option<FastPath>,
    ) -> Self {
        assert!(!values.is_empty(), "value table must be non-empty");
        // Nearest-index oracle (as the packed-weight encoder uses): for
        // inputs within one ULP of a binade edge, `floor(log2|x| + b)`
        // can land one binade off and the reference then emits a
        // ULP-sized variant of the adjacent grid value. Snapping such
        // phantom outputs to the nearest table entry keeps the oracle
        // monotone; everywhere the reference outputs a table value — all
        // inputs but those edge slivers — the boundaries stay exact.
        let index_of = |x: f32| {
            let q = quantize(x);
            match values.binary_search_by(|v| v.total_cmp(&q)) {
                Ok(i) => i,
                Err(0) => 0,
                Err(i) if i >= values.len() => values.len() - 1,
                Err(i) => {
                    if (q - values[i - 1]).abs() <= (values[i] - q).abs() {
                        i - 1
                    } else {
                        i
                    }
                }
            }
        };
        let bottom = index_of(-f32::MAX);
        let top = index_of(f32::MAX);
        let mut boundaries = Vec::with_capacity(values.len().saturating_sub(1));
        for i in 0..values.len().saturating_sub(1) {
            if i < bottom {
                // values[i] is unreachable from below: every input already
                // maps past it.
                boundaries.push(f32::NEG_INFINITY);
                continue;
            }
            if top <= i {
                // values[i + 1] is unreachable from above.
                boundaries.push(f32::INFINITY);
                continue;
            }
            // Smallest float whose index exceeds i: bisect on order keys
            // (exactly as the packed-weight encoder does on magnitudes).
            let mut lb = order_key(-f32::MAX);
            let mut ub = order_key(f32::MAX);
            while ub - lb > 1 {
                let mid = lb + (ub - lb) / 2;
                if index_of(key_to_float(mid)) > i {
                    ub = mid;
                } else {
                    lb = mid;
                }
            }
            boundaries.push(key_to_float(ub));
        }
        let fast = fast.unwrap_or_else(|| Self::build_buckets(&boundaries));
        BoundaryQuantizer { values, boundaries, nan_value, fast }
    }

    /// `lo[t]` = number of boundaries whose order-key top-9-bits are
    /// below `t`, so bucket `t` owns at most one sign+binade of entries
    /// (≤ 2^m + 1 for an FP format). Those entries are copied into a
    /// fixed-width `pad` stripe per occupied bucket, `+∞`-padded, so the
    /// slice path counts them without a data-dependent loop bound.
    fn build_buckets(boundaries: &[f32]) -> FastPath {
        let mut lo = vec![0u32; BUCKETS + 1];
        for &b in boundaries {
            let t = (order_key(b) >> 23) as usize;
            lo[t + 1] += 1;
        }
        for t in 0..BUCKETS {
            lo[t + 1] += lo[t];
        }
        let widest = (0..BUCKETS).map(|t| (lo[t + 1] - lo[t]) as usize).max().unwrap_or(0);
        let pad_w = widest.next_multiple_of(PAD_LANES).max(PAD_LANES);
        let (mut first, mut span) = ([0; 2], [0; 2]);
        for h in 0..2 {
            let half = h * BUCKETS / 2..(h + 1) * BUCKETS / 2;
            let occupied: Vec<usize> = half.filter(|&t| lo[t + 1] > lo[t]).collect();
            if let (Some(&a), Some(&b)) = (occupied.first(), occupied.last()) {
                (first[h], span[h]) = (a, b - a + 1);
            }
        }
        let mut pad = vec![f32::INFINITY; (span[0] + span[1] + 1) * pad_w];
        for (i, &b) in boundaries.iter().enumerate() {
            let t = (order_key(b) >> 23) as usize;
            pad[BucketIndex::stripe_of(first, span, t) * pad_w + (i - lo[t] as usize)] = b;
        }
        FastPath::Buckets(BucketIndex { lo, first, span, pad, pad_w })
    }

    /// The representable values, ascending.
    pub fn values(&self) -> &[f32] {
        &self.values
    }

    /// The decision boundaries (reference surface for tests).
    pub fn boundaries(&self) -> &[f32] {
        &self.boundaries
    }

    /// Quantizes one value through the plain table bisection — the
    /// reference the accelerated slice path is property-tested against.
    #[inline]
    pub fn quantize_scalar(&self, v: f32) -> f32 {
        if v.is_nan() {
            return self.nan_value;
        }
        // ±∞ clip like the reference quantizers; keeps the ±∞ sentinel
        // boundaries of unreachable values inert.
        let v = v.clamp(-f32::MAX, f32::MAX);
        self.values[self.boundaries.partition_point(|&b| b <= v)]
    }

    /// Quantizes a slice into caller scratch through the accelerated path
    /// (exponent-bucketed search for FP, direct affine for INT) —
    /// bit-exact with [`Self::quantize_scalar`].
    ///
    /// # Panics
    ///
    /// Panics if `src` and `dst` lengths differ.
    pub fn quantize_slice_into(&self, src: &[f32], dst: &mut [f32]) {
        self.quantize_slice_into_as(simd::active(), src, dst);
    }

    /// [`Self::quantize_slice_into`] on an explicit ISA path — the
    /// dispatch point the differential SIMD tests drive from both sides.
    /// The bucketed FP sweep has an AVX2 variant (8-lane compare stripes
    /// reduced by mask popcount, bit-exact by construction: the count of
    /// `boundary <= v` is an integer); an unsupported `isa` falls back to
    /// the scalar sweep. The INT affine shortcut is a single float
    /// expression either way and does not dispatch.
    ///
    /// # Panics
    ///
    /// Panics if `src` and `dst` lengths differ.
    pub fn quantize_slice_into_as(&self, isa: Isa, src: &[f32], dst: &mut [f32]) {
        assert_eq!(src.len(), dst.len(), "quantize slice length mismatch");
        #[cfg(not(target_arch = "x86_64"))]
        let _ = isa;
        match &self.fast {
            FastPath::Affine { scale, zero_point, qmax } => {
                let (s, zp, qmax) = (*scale, *zero_point, *qmax);
                let nan = self.nan_value;
                for (d, &v) in dst.iter_mut().zip(src) {
                    // The exact expression of `IntFormat::quantize_scalar`.
                    *d = if v.is_nan() {
                        nan
                    } else {
                        s * (((v / s).round() + zp).clamp(0.0, qmax) - zp)
                    };
                }
            }
            FastPath::Buckets(index) => {
                #[cfg(target_arch = "x86_64")]
                if isa == Isa::Avx2 && isa.is_supported() {
                    // Safety: AVX2 (and POPCNT, which detection implies)
                    // verified at runtime; lengths asserted above.
                    unsafe {
                        avx2::quantize_buckets(&self.values, index, self.nan_value, src, dst);
                    }
                    return;
                }
                for (d, &v) in dst.iter_mut().zip(src) {
                    *d = if v.is_nan() {
                        self.nan_value
                    } else {
                        let v = v.clamp(-f32::MAX, f32::MAX);
                        let t = (order_key(v) >> 23) as usize;
                        // Branch-free count within the (≤ one binade)
                        // bucket: every boundary below the bucket is ≤ v
                        // by construction, and the `+∞` padding never
                        // counts. Fixed 8-lane blocks keep the sweep
                        // vectorisable.
                        let mut idx = index.lo[t] as usize;
                        for block in index.stripe(t).chunks_exact(PAD_LANES) {
                            let mut cnt = 0usize;
                            for &b in block {
                                cnt += usize::from(b <= v);
                            }
                            idx += cnt;
                        }
                        self.values[idx]
                    };
                }
            }
        }
    }

    /// Quantizes a whole tensor (convenience wrapper over the slice path;
    /// a drop-in, transcendental-free replacement for
    /// [`TensorQuantizer::quantize`]).
    pub fn quantize(&self, x: &Tensor) -> Tensor {
        let mut out = vec![0.0f32; x.numel()];
        self.quantize_slice_into(x.data(), &mut out);
        Tensor::from_vec(out, x.dims())
    }
}

/// AVX2 variant of the bucketed boundary sweep: the per-element stripe
/// count runs as full 8-lane `cmp_ps` blocks reduced by `movemask` +
/// `popcnt` (the stripes are `+∞`-padded to multiples of [`PAD_LANES`] at
/// construction). The bucket lookup and special-case handling stay
/// scalar and identical to the reference path.
#[cfg(target_arch = "x86_64")]
mod avx2 {
    use super::order_key;
    use core::arch::x86_64::*;

    /// # Safety
    ///
    /// Requires AVX2 + POPCNT at runtime; `src`/`dst` must have equal
    /// lengths and `index.pad_w` must be a multiple of
    /// [`super::PAD_LANES`] (guaranteed by
    /// [`super::BoundaryQuantizer::build_buckets`]).
    #[target_feature(enable = "avx2,popcnt")]
    pub(super) unsafe fn quantize_buckets(
        values: &[f32],
        index: &super::BucketIndex,
        nan_value: f32,
        src: &[f32],
        dst: &mut [f32],
    ) {
        for (d, &v) in dst.iter_mut().zip(src) {
            *d = if v.is_nan() {
                nan_value
            } else {
                let v = v.clamp(-f32::MAX, f32::MAX);
                let t = (order_key(v) >> 23) as usize;
                let vv = _mm256_set1_ps(v);
                let mut idx = index.lo[t] as usize;
                for block in index.stripe(t).chunks_exact(super::PAD_LANES) {
                    // b <= v is false for the +∞ padding and for NaN-free
                    // inputs exactly matches the scalar `b <= v` count.
                    let b = _mm256_loadu_ps(block.as_ptr());
                    let le = _mm256_cmp_ps::<_CMP_LE_OQ>(b, vv);
                    idx += _mm256_movemask_ps(le).count_ones() as usize;
                }
                values[idx]
            };
        }
    }
}

/// Activation quantization at the granularity of a streaming micro-panel:
/// one boundary table shared by every element (per-tensor, the paper's
/// choice) or one per channel (the per-channel ablation).
#[derive(Clone, Debug)]
pub struct PanelQuantizer {
    quants: Vec<Arc<BoundaryQuantizer>>,
}

impl PanelQuantizer {
    /// Per-tensor granularity: one table for every element.
    pub fn per_tensor(q: &TensorQuantizer) -> Self {
        PanelQuantizer { quants: vec![BoundaryQuantizer::cached(q)] }
    }

    /// Per-channel granularity: `formats[c]` quantizes channel `c`.
    ///
    /// # Panics
    ///
    /// Panics if `formats` is empty.
    pub fn per_channel(formats: &[TensorQuantizer]) -> Self {
        assert!(!formats.is_empty(), "per-channel quantizer needs at least one channel");
        PanelQuantizer { quants: formats.iter().map(BoundaryQuantizer::cached).collect() }
    }

    /// Number of channel tables (1 = per-tensor).
    pub fn channels(&self) -> usize {
        self.quants.len()
    }

    /// Quantizes a flat panel where the element at index `i` belongs to
    /// channel `(i / group) % channels`. A GEMM activation row uses
    /// `group = 1` (feature per column); a conv `[c, h, w]` input slice
    /// uses `group = h * w` (one plane per channel).
    ///
    /// # Panics
    ///
    /// Panics if lengths differ or `group` is zero for a per-channel
    /// quantizer.
    pub fn quantize_panel_into(&self, src: &[f32], dst: &mut [f32], group: usize) {
        self.quantize_panel_into_as(simd::active(), src, dst, group);
    }

    /// [`Self::quantize_panel_into`] on an explicit ISA path (see
    /// [`BoundaryQuantizer::quantize_slice_into_as`]).
    ///
    /// # Panics
    ///
    /// Panics if lengths differ or `group` is zero for a per-channel
    /// quantizer.
    pub fn quantize_panel_into_as(&self, isa: Isa, src: &[f32], dst: &mut [f32], group: usize) {
        if let [only] = self.quants.as_slice() {
            only.quantize_slice_into_as(isa, src, dst);
            return;
        }
        assert!(group > 0, "channel group must be positive");
        assert_eq!(src.len(), dst.len(), "quantize panel length mismatch");
        let mut offset = 0usize;
        let mut chan = 0usize;
        while offset < src.len() {
            let n = group.min(src.len() - offset);
            self.quants[chan % self.quants.len()].quantize_slice_into_as(
                isa,
                &src[offset..offset + n],
                &mut dst[offset..offset + n],
            );
            offset += n;
            chan += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn fp_formats() -> Vec<FpFormat> {
        vec![
            FpFormat::new(4, 3),
            FpFormat::new(5, 2),
            FpFormat::new(2, 1),
            FpFormat::new(1, 2),
            FpFormat::new(3, 4),
            FpFormat::with_bias(3, 4, 6.5),
            FpFormat::with_bias(4, 3, 8.37),
            FpFormat::with_bias(2, 1, 1.25),
            // Regression: searched bias whose clip maximum differs from
            // the enumerated top magnitude by ULPs (the clamp wins).
            FpFormat::with_bias(2, 5, 7.874_823),
        ]
    }

    fn assert_zero_or_eq(a: f32, b: f32, ctx: &str) {
        // -0.0 canonicalisation is the one permitted bit difference.
        if a == 0.0 && b == 0.0 {
            return;
        }
        assert_eq!(a.to_bits(), b.to_bits(), "{ctx}: {a} vs {b}");
    }

    #[test]
    fn order_key_is_monotone() {
        let probes =
            [-f32::MAX, -1e20, -3.5, -1.0, -f32::MIN_POSITIVE, 0.0, 1e-30, 0.5, 2.0, f32::MAX];
        for w in probes.windows(2) {
            assert!(order_key(w[0]) < order_key(w[1]), "{} vs {}", w[0], w[1]);
            assert_eq!(key_to_float(order_key(w[0])), w[0]);
        }
    }

    #[test]
    fn fp_boundary_matches_reference_on_adversarial_probes() {
        for fmt in fp_formats() {
            let bq = BoundaryQuantizer::from_fp(fmt);
            let mut probes = vec![0.0f32, f32::INFINITY, f32::NEG_INFINITY];
            for pair in bq.values().windows(2) {
                let mid = ((f64::from(pair[0]) + f64::from(pair[1])) * 0.5) as f32;
                for v in [pair[0], pair[1], mid] {
                    probes.push(v);
                    probes.push(f32::from_bits(v.to_bits().wrapping_add(1)));
                    if v != 0.0 {
                        probes.push(f32::from_bits(v.to_bits().wrapping_sub(1)));
                    }
                }
            }
            for &p in &probes {
                let want = fmt.quantize_scalar(p);
                assert_zero_or_eq(bq.quantize_scalar(p), want, &format!("{fmt} scalar {p}"));
                let mut got = [0.0f32];
                bq.quantize_slice_into(&[p], &mut got);
                assert_zero_or_eq(got[0], want, &format!("{fmt} slice {p}"));
            }
        }
    }

    #[test]
    fn int_boundary_matches_reference() {
        for fmt in [
            IntFormat::from_range(4, -1.0, 1.0),
            IntFormat::from_range(8, -0.3, 2.7),
            IntFormat::from_range(3, 0.0, 5.0),
            IntFormat::from_range(8, -4.0, 0.0),
        ] {
            let bq = BoundaryQuantizer::from_int(fmt);
            let mut probes = vec![0.0f32, 10.0, -10.0, f32::INFINITY, f32::NEG_INFINITY];
            for pair in bq.values().windows(2) {
                let mid = (pair[0] + pair[1]) * 0.5;
                probes.extend([pair[0], pair[1], mid, mid * 1.0001, mid * 0.9999]);
            }
            let mut out = vec![0.0f32; probes.len()];
            bq.quantize_slice_into(&probes, &mut out);
            for (i, &p) in probes.iter().enumerate() {
                let want = fmt.quantize_scalar(p);
                assert_zero_or_eq(bq.quantize_scalar(p), want, &format!("{fmt} scalar {p}"));
                assert_zero_or_eq(out[i], want, &format!("{fmt} slice {p}"));
            }
        }
    }

    #[test]
    fn nan_maps_like_reference() {
        let fp = BoundaryQuantizer::from_fp(FpFormat::new(4, 3));
        assert_eq!(fp.quantize_scalar(f32::NAN).to_bits(), 0.0f32.to_bits());
        let ifmt = IntFormat::from_range(8, -0.3, 2.7);
        let iq = BoundaryQuantizer::from_int(ifmt);
        assert_eq!(iq.quantize_scalar(f32::NAN), ifmt.quantize_scalar(f32::NAN));
        let mut out = [1.0f32; 2];
        iq.quantize_slice_into(&[f32::NAN, f32::NAN], &mut out);
        assert_eq!(out[0], ifmt.quantize_scalar(f32::NAN));
    }

    #[test]
    fn fp_tables_store_stripes_only_for_occupied_buckets() {
        // Every cached activation table stays resident for the process, so
        // empty buckets must share one stripe instead of taking 512.
        let bq = BoundaryQuantizer::from_fp(FpFormat::new(4, 3));
        let FastPath::Buckets(index) = &bq.fast else {
            panic!("FP formats take the bucket path");
        };
        let lo = &index.lo;
        let occupied = (0..BUCKETS).filter(|&t| lo[t + 1] > lo[t]).count();
        let stripes = index.span[0] + index.span[1];
        assert_eq!(index.pad.len(), (stripes + 1) * index.pad_w);
        assert!(stripes < occupied + 8, "{stripes} stripes for {occupied} occupied buckets");
        for t in (0..BUCKETS).filter(|&t| lo[t + 1] == lo[t]) {
            assert!(index.stripe(t).iter().all(|&b| b == f32::INFINITY), "bucket {t}");
        }
    }

    #[test]
    fn cached_returns_same_table() {
        let q = TensorQuantizer::Fp(FpFormat::new(4, 3));
        let a = BoundaryQuantizer::cached(&q);
        let b = BoundaryQuantizer::cached(&q);
        assert!(Arc::ptr_eq(&a, &b), "cache must deduplicate");
    }

    #[test]
    fn tensor_quantize_matches_format_quantize() {
        let fmt = FpFormat::new(2, 1);
        let bq = BoundaryQuantizer::from_fp(fmt);
        let x = Tensor::linspace(-4.0, 4.0, 101);
        let got = bq.quantize(&x);
        let want = fmt.quantize(&x);
        assert_eq!(got.dims(), want.dims());
        for (a, b) in got.data().iter().zip(want.data()) {
            assert_zero_or_eq(*a, *b, "tensor path");
        }
    }

    #[test]
    fn panel_per_channel_routes_by_group() {
        let q0 = TensorQuantizer::Fp(FpFormat::new(4, 3));
        let q1 = TensorQuantizer::Int(IntFormat::from_range(4, -1.0, 1.0));
        let pq = PanelQuantizer::per_channel(&[q0, q1]);
        assert_eq!(pq.channels(), 2);
        let src = [0.731f32, -0.219, 0.731, -0.219];
        let mut dst = [0.0f32; 4];
        // group = 2: first two elements via q0, last two via q1.
        pq.quantize_panel_into(&src, &mut dst, 2);
        assert_eq!(dst[0], q0.quantize(&Tensor::from_vec(vec![src[0]], &[1])).data()[0]);
        assert_eq!(dst[2], q1.quantize(&Tensor::from_vec(vec![src[2]], &[1])).data()[0]);
        assert_ne!(dst[0], dst[2], "distinct formats must disagree on this probe");
        // group = 1 alternates channels per element.
        pq.quantize_panel_into(&src, &mut dst, 1);
        assert_eq!(dst[1], q1.quantize(&Tensor::from_vec(vec![src[1]], &[1])).data()[0]);
    }

    proptest! {
        #[test]
        fn fp_slice_path_is_bit_exact(
            vals in prop::collection::vec(-400.0f32..400.0, 1..64),
            pick in 0usize..9,
        ) {
            let fmt = fp_formats()[pick];
            let bq = BoundaryQuantizer::from_fp(fmt);
            let mut out = vec![0.0f32; vals.len()];
            bq.quantize_slice_into(&vals, &mut out);
            for (&v, &got) in vals.iter().zip(&out) {
                let want = fmt.quantize_scalar(v);
                prop_assert!(
                    (got == 0.0 && want == 0.0) || got.to_bits() == want.to_bits(),
                    "{fmt}: {v} -> {got} vs {want}"
                );
            }
        }

        #[test]
        fn int_slice_path_is_bit_exact(
            vals in prop::collection::vec(-20.0f32..20.0, 1..64),
            bits in 2u32..9,
        ) {
            let fmt = IntFormat::from_range(bits, -3.0, 5.0);
            let bq = BoundaryQuantizer::from_int(fmt);
            let mut out = vec![0.0f32; vals.len()];
            bq.quantize_slice_into(&vals, &mut out);
            for (&v, &got) in vals.iter().zip(&out) {
                let want = fmt.quantize_scalar(v);
                prop_assert!(
                    (got == 0.0 && want == 0.0) || got.to_bits() == want.to_bits(),
                    "INT{bits}: {v} -> {got} vs {want}"
                );
            }
        }

        #[test]
        fn scalar_and_slice_agree_everywhere(bits_pattern in 0u32..u32::MAX) {
            // Any bit pattern, including NaNs, infinities and subnormals.
            let v = f32::from_bits(bits_pattern);
            let bq = BoundaryQuantizer::from_fp(FpFormat::new(3, 4));
            let mut out = [0.0f32];
            bq.quantize_slice_into(&[v], &mut out);
            prop_assert_eq!(out[0].to_bits(), bq.quantize_scalar(v).to_bits());
        }

        #[test]
        fn slice_isa_paths_agree_on_any_bits(bits_pattern in 0u32..u32::MAX, pick in 0usize..3) {
            // The SIMD bucket sweep must match the scalar sweep on every
            // input class: NaNs, ±∞, subnormals, both zeros.
            let v = f32::from_bits(bits_pattern);
            let fmt = [FpFormat::new(4, 3), FpFormat::new(2, 1), FpFormat::with_bias(3, 4, 6.5)][pick];
            let bq = BoundaryQuantizer::cached(&TensorQuantizer::Fp(fmt));
            let mut want = [0.0f32];
            bq.quantize_slice_into_as(Isa::Scalar, &[v], &mut want);
            for &isa in simd::available() {
                let mut got = [0.0f32];
                bq.quantize_slice_into_as(isa, &[v], &mut got);
                prop_assert_eq!(got[0].to_bits(), want[0].to_bits(), "{:?} on {}", isa, v);
            }
        }
    }
}
