//! Criterion microbenchmarks over the quantized kernels: packed
//! encode/decode, dequantize-on-the-fly GEMM vs dense FP32 GEMM, and the
//! sparsity-exploiting kernels over the zero patterns the paper's
//! quantizer creates (§VI-G).
//!
//! The `pack` and `gemm` groups carry explicit before/after pairs: the
//! `*_bitloop` / `*_rowwise_seed` entries re-run the pre-optimisation
//! implementations (per-bit unpacking; row-at-a-time decode + dot) so the
//! LUT-decode and tiled-kernel speedups can be read off one run.

use criterion::{criterion_group, Criterion};
use fpdq_core::{FpFormat, IntFormat, PanelQuantizer, TensorQuantizer};
use fpdq_kernels::packed::unpack_bits_range_bitloop;
use fpdq_kernels::{
    gemm_packed_fp, gemm_packed_fused_as, CsrWeights, PackedFpTensor, PackedIntTensor,
    TwoFourWeights,
};
use fpdq_tensor::matmul::{dot, gemm_nt_serial_with_as, NT_NR};
use fpdq_tensor::parallel::{num_threads, parallel_rows, parallel_rows_in};
use fpdq_tensor::simd;
use fpdq_tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

/// The seed implementation of the packed-FP GEMM: decode one weight row
/// at a time through the per-bit unpack loop (allocating per row, as the
/// original `decode_row` did), then dot it against every activation row.
/// Kept as the baseline side of the `gemm` group's tiled-vs-seed
/// comparison.
fn gemm_packed_fp_rowwise_seed(a: &Tensor, w: &PackedFpTensor, payload: &[u8]) -> Tensor {
    let (m, k) = (a.dim(0), a.dim(1));
    let n = w.dims()[0];
    let bits = w.format().total_bits();
    let mut out = vec![0.0f32; m * n];
    parallel_rows(&mut out, n, m, 4, |row_start, chunk| {
        for (r, col) in chunk.chunks_mut(m).enumerate() {
            let codes = unpack_bits_range_bitloop(payload, bits, (row_start + r) * k, k);
            let wrow: Vec<f32> = codes.iter().map(|&c| w.decode_code(c)).collect();
            for (i, slot) in col.iter_mut().enumerate() {
                *slot = dot(&a.data()[i * k..(i + 1) * k], &wrow);
            }
        }
    });
    Tensor::from_vec(out, &[n, m]).transpose()
}

/// Strips the serialisation header off [`PackedFpTensor::to_bytes`],
/// leaving the raw packed payload.
fn payload_of(w: &PackedFpTensor, elems: usize) -> Vec<u8> {
    let bytes = w.to_bytes();
    let payload_len = (elems * w.format().total_bits() as usize).div_ceil(8);
    bytes[bytes.len() - payload_len..].to_vec()
}

const M: usize = 32;
const K: usize = 256;
const N: usize = 256;

fn rand_mat(r: usize, c: usize, seed: u64) -> Tensor {
    Tensor::randn(&[r, c], &mut StdRng::seed_from_u64(seed))
}

fn sparse_mat(r: usize, c: usize, keep: f32, seed: u64) -> Tensor {
    let mut rng = StdRng::seed_from_u64(seed);
    Tensor::randn(&[r, c], &mut rng).zip_map(
        &Tensor::rand_uniform(&[r, c], 0.0, 1.0, &mut rng),
        |v, u| if u < keep { v } else { 0.0 },
    )
}

fn bench_quantize(c: &mut Criterion) {
    let x = rand_mat(N, K, 1);
    let fp8 = FpFormat::new(4, 3);
    let fp4 = FpFormat::new(2, 1);
    let int8 = IntFormat::fit(&x, 8);
    let mut g = c.benchmark_group("quantize");
    g.bench_function("fp8_e4m3", |b| b.iter(|| black_box(fp8.quantize(&x))));
    g.bench_function("fp4_e2m1", |b| b.iter(|| black_box(fp4.quantize(&x))));
    g.bench_function("int8", |b| b.iter(|| black_box(int8.quantize(&x))));
    g.finish();
}

fn bench_pack(c: &mut Criterion) {
    let w = rand_mat(N, K, 2);
    let fp8 = FpFormat::new(4, 3);
    let fp4 = FpFormat::new(2, 1);
    let mut g = c.benchmark_group("pack");
    g.bench_function("encode_fp8", |b| b.iter(|| black_box(PackedFpTensor::encode(&w, fp8))));
    g.bench_function("encode_fp4", |b| b.iter(|| black_box(PackedFpTensor::encode(&w, fp4))));
    let packed8 = PackedFpTensor::encode(&w, fp8);
    let packed4 = PackedFpTensor::encode(&w, fp4);
    g.bench_function("decode_fp8", |b| b.iter(|| black_box(packed8.decode())));
    g.bench_function("decode_fp4", |b| b.iter(|| black_box(packed4.decode())));
    // Before/after: the seed per-bit decode path vs the byte-LUT path.
    g.bench_function("decode_fp8_bitloop", |b| b.iter(|| black_box(packed8.decode_via_bitloop())));
    g.bench_function("decode_fp4_bitloop", |b| b.iter(|| black_box(packed4.decode_via_bitloop())));
    let payload4 = payload_of(&packed4, N * K);
    g.bench_function("unpack_bits_fp4", |b| {
        b.iter(|| black_box(fpdq_kernels::packed::unpack_bits(&payload4, 4, N * K)))
    });
    g.bench_function("unpack_bits_fp4_bitloop", |b| {
        b.iter(|| black_box(unpack_bits_range_bitloop(&payload4, 4, 0, N * K)))
    });
    g.finish();
}

fn bench_gemm(c: &mut Criterion) {
    let a = rand_mat(M, K, 3);
    let w = rand_mat(N, K, 4);
    let fp8 = PackedFpTensor::encode(&w, FpFormat::new(4, 3));
    let fp4 = PackedFpTensor::encode(&w, FpFormat::new(2, 1));
    let int8 = PackedIntTensor::encode(&w, IntFormat::fit(&w, 8));
    let act8 = TensorQuantizer::Fp(FpFormat::new(4, 3));
    let mut g = c.benchmark_group("gemm_32x256x256");
    g.bench_function("dense_fp32", |b| b.iter(|| black_box(a.matmul_nt(&w))));
    g.bench_function("packed_fp8_w", |b| b.iter(|| black_box(gemm_packed_fp(&a, &fp8, None))));
    g.bench_function("packed_fp4_w", |b| b.iter(|| black_box(gemm_packed_fp(&a, &fp4, None))));
    g.bench_function("packed_fp8_wa", |b| {
        b.iter(|| black_box(gemm_packed_fp(&a, &fp8, Some(&act8))))
    });
    g.bench_function("packed_int8_w", |b| {
        b.iter(|| black_box(fpdq_kernels::gemm_packed_int(&a, &int8, None)))
    });
    // Per-ISA pairs (scalar + every SIMD path this machine supports) so
    // the runtime-dispatch speedup can be read off a single run: the raw
    // serial NT micro-kernel, and the full fused W+A packed GEMM.
    let pq8 = PanelQuantizer::per_tensor(&act8);
    for &isa in simd::available() {
        let mut c_out = vec![0.0f32; M * N];
        let mut bp = vec![0.0f32; K * NT_NR];
        g.bench_function(format!("matmul_nt_serial_{}", isa.name()), |b| {
            b.iter(|| {
                gemm_nt_serial_with_as(isa, a.data(), w.data(), &mut c_out, M, K, N, &mut bp);
                black_box(c_out[0])
            })
        });
        g.bench_function(format!("packed_fp8_wa_{}", isa.name()), |b| {
            b.iter(|| black_box(gemm_packed_fused_as(&a, &fp8, Some(&pq8), isa)))
        });
    }
    // Before/after: the seed row-at-a-time kernel vs the tiled one above.
    let (payload8, payload4) = (payload_of(&fp8, N * K), payload_of(&fp4, N * K));
    g.bench_function("packed_fp8_w_rowwise_seed", |b| {
        b.iter(|| black_box(gemm_packed_fp_rowwise_seed(&a, &fp8, &payload8)))
    });
    g.bench_function("packed_fp4_w_rowwise_seed", |b| {
        b.iter(|| black_box(gemm_packed_fp_rowwise_seed(&a, &fp4, &payload4)))
    });
    g.finish();
}

fn bench_gemm_batched(c: &mut Criterion) {
    // Batched multi-image activation matrices (m = batch × 4 rows, the
    // projection/time-embedding shape where a batch-1 step is *decode-
    // bound*: expanding the 256×256 packed weight costs more than the
    // 4-row product consumes) against one weight: per-image cost falls
    // with the batch as the once-per-call weight decode amortises — the
    // packed engine's serving-scale regime. Per-image throughput =
    // entry time / batch.
    const ROWS_PER_IMAGE: usize = 4;
    let w = rand_mat(N, K, 9);
    let fp8 = PackedFpTensor::encode(&w, FpFormat::new(4, 3));
    let act8 = TensorQuantizer::Fp(FpFormat::new(4, 3));
    let mut g = c.benchmark_group("gemm_batched_4rows_x256x256");
    for batch in [1usize, 4, 8] {
        let a = rand_mat(batch * ROWS_PER_IMAGE, K, 10 + batch as u64);
        g.bench_function(format!("packed_fp8_wa_batch{batch}"), |b| {
            b.iter(|| black_box(gemm_packed_fp(&a, &fp8, Some(&act8))))
        });
    }
    // A narrow layer (n = 32) at batch scale exercises the
    // column-parallel regime.
    let wn = rand_mat(32, K, 11);
    let fp8n = PackedFpTensor::encode(&wn, FpFormat::new(4, 3));
    let an = rand_mat(8 * M, K, 12);
    g.bench_function("packed_fp8_wa_narrow_n32_batch8", |b| {
        b.iter(|| black_box(gemm_packed_fp(&an, &fp8n, Some(&act8))))
    });
    g.finish();
}

/// The seed packed-conv implementation (pre-implicit-GEMM): decode the
/// whole filter bank, materialise the full `[ckk, oh·ow]` im2col matrix
/// per image, and run the scalar NN `gemm_serial` over it. Kept as the
/// baseline side of the conv groups' before/after comparison (fused act
/// quant modelled by its bit-exact equivalent, quantize-first).
fn conv2d_packed_im2col_seed(
    x: &Tensor,
    w: &PackedFpTensor,
    spec: fpdq_tensor::conv::Conv2dSpec,
    act: &TensorQuantizer,
) -> Tensor {
    use fpdq_tensor::conv::im2col_into;
    use fpdq_tensor::matmul::gemm_serial;
    let xq = act.quantize(x);
    let (n, c, h, hw) = (x.dim(0), x.dim(1), x.dim(2), x.dim(3));
    let wd = w.dims();
    let (o, kh, kw) = (wd[0], wd[2], wd[3]);
    let oh = spec.out_extent(h, kh);
    let ow = spec.out_extent(hw, kw);
    let (ckk, ohow, chw) = (c * kh * kw, oh * ow, c * h * hw);
    let filters = w.decode();
    let mut out = vec![0.0f32; n * o * ohow];
    let mut cols = vec![0.0f32; ckk * ohow];
    for (batch, obatch) in out.chunks_mut(o * ohow).enumerate() {
        let img = &xq.data()[batch * chw..(batch + 1) * chw];
        im2col_into(img, c, h, hw, kh, kw, spec, &mut cols);
        gemm_serial(filters.data(), &cols, obatch, o, ckk, ohow);
    }
    Tensor::from_vec(out, &[n, o, oh, ow])
}

fn bench_conv_batched(c: &mut Criterion) {
    use fpdq_kernels::conv2d_packed_fp;
    use fpdq_tensor::conv::Conv2dSpec;
    let mut rng = StdRng::seed_from_u64(13);
    let w = Tensor::randn(&[32, 16, 3, 3], &mut rng);
    let spec = Conv2dSpec::new(1, 1);
    let fp8 = PackedFpTensor::encode(&w, FpFormat::new(4, 3));
    let act8 = TensorQuantizer::Fp(FpFormat::new(4, 3));
    let mut g = c.benchmark_group("conv_batched_16x16x16_to_32ch");
    for batch in [1usize, 4, 8] {
        let x = Tensor::randn(&[batch, 16, 16, 16], &mut rng);
        g.bench_function(format!("packed_fp8_wa_batch{batch}"), |b| {
            b.iter(|| black_box(conv2d_packed_fp(&x, &fp8, None, spec, Some(&act8))))
        });
        // Before/after: the seed materialised-im2col + scalar-GEMM path.
        g.bench_function(format!("packed_fp8_wa_batch{batch}_im2col_seed"), |b| {
            b.iter(|| black_box(conv2d_packed_im2col_seed(&x, &fp8, spec, &act8)))
        });
    }
    g.finish();

    // The deep-bottleneck shape (256→256 channels, 3×3 stride-2 on a 4×4
    // feature map, FP4 weights): the conv analog of the gemm_batched
    // projection shape, where a batch-1 call is *decode-bound* —
    // expanding the 256·256·9 packed filter bank through the nibble LUT
    // costs more than the 4 output pixels consume — so the once-per-call
    // decode amortising across the batch is the dominant effect. This is
    // the `conv_batched` amortization contract the CI bench-smoke asserts
    // (batch-8 per-image ≤ 0.6× batch-1).
    let wb = Tensor::randn(&[256, 256, 3, 3], &mut rng);
    let specb = Conv2dSpec::new(2, 1);
    let fp4b = PackedFpTensor::encode(&wb, FpFormat::new(2, 1));
    // CI asserts a ratio between the two entries below, so a single
    // 10ms smoke sample is too noise-prone: pin this group to min-of-5
    // samples even in smoke mode (~0.7s extra) and restore afterwards.
    let saved = c.clone();
    if std::env::var("FPDQ_BENCH_FAST").is_ok_and(|v| v == "1") {
        *c = Criterion::default()
            .sample_size(5)
            .warm_up_time(std::time::Duration::from_millis(50))
            .measurement_time(std::time::Duration::from_millis(250));
    }
    let mut g = c.benchmark_group("conv_batched_bottleneck_256ch_4x4_s2");
    for batch in [1usize, 8] {
        let x = Tensor::randn(&[batch, 256, 4, 4], &mut rng);
        g.bench_function(format!("packed_fp4_wa_batch{batch}"), |b| {
            b.iter(|| black_box(conv2d_packed_fp(&x, &fp4b, None, specb, Some(&act8))))
        });
    }
    g.finish();
    *c = saved;
}

fn bench_conv(c: &mut Criterion) {
    use fpdq_kernels::conv2d_packed_fp;
    use fpdq_tensor::conv::Conv2dSpec;
    let mut rng = StdRng::seed_from_u64(8);
    let x = Tensor::randn(&[4, 16, 16, 16], &mut rng);
    let w = Tensor::randn(&[32, 16, 3, 3], &mut rng);
    let spec = Conv2dSpec::new(1, 1);
    let fp8 = PackedFpTensor::encode(&w, FpFormat::new(4, 3));
    let fp4 = PackedFpTensor::encode(&w, FpFormat::new(2, 1));
    let mut g = c.benchmark_group("conv2d_4x16x16x16_to_32ch");
    g.bench_function("dense_fp32", |b| b.iter(|| black_box(x.conv2d(&w, None, spec))));
    g.bench_function("packed_fp8_w", |b| {
        b.iter(|| black_box(conv2d_packed_fp(&x, &fp8, None, spec, None)))
    });
    g.bench_function("packed_fp4_w", |b| {
        b.iter(|| black_box(conv2d_packed_fp(&x, &fp4, None, spec, None)))
    });
    g.finish();
}

/// The seed CSR kernel (pre-panel-packing): f32 values, activation-row
/// parallel, per-output scalar gather `acc += arow[col] * val` — no
/// quantized storage, no activation panel reuse, no SIMD. Kept as the
/// baseline side of the sparse group's before/after comparison.
struct CsrSeed {
    n: usize,
    row_ptr: Vec<usize>,
    col_idx: Vec<u32>,
    values: Vec<f32>,
}

impl CsrSeed {
    fn from_dense(w: &Tensor) -> Self {
        let (n, k) = (w.dim(0), w.dim(1));
        let (mut row_ptr, mut col_idx, mut values) = (vec![0usize], Vec::new(), Vec::new());
        for i in 0..n {
            for j in 0..k {
                let v = w.data()[i * k + j];
                if v != 0.0 {
                    col_idx.push(j as u32);
                    values.push(v);
                }
            }
            row_ptr.push(values.len());
        }
        CsrSeed { n, row_ptr, col_idx, values }
    }

    fn gemm(&self, a: &Tensor) -> Tensor {
        let (m, k) = (a.dim(0), a.dim(1));
        let mut out = vec![0.0f32; m * self.n];
        let n = self.n;
        parallel_rows(&mut out, m, n, 4, |row_start, chunk| {
            for (r, orow) in chunk.chunks_mut(n).enumerate() {
                let arow = &a.data()[(row_start + r) * k..(row_start + r + 1) * k];
                for (j, slot) in orow.iter_mut().enumerate() {
                    let (s, e) = (self.row_ptr[j], self.row_ptr[j + 1]);
                    let mut acc = 0.0f32;
                    for idx in s..e {
                        acc += arow[self.col_idx[idx] as usize] * self.values[idx];
                    }
                    *slot = acc;
                }
            }
        });
        Tensor::from_vec(out, &[m, self.n])
    }
}

/// The seed 2:4 kernel: f32 value pairs + metadata bytes, per-output
/// scalar gather (2 MACs per group). Baseline for `two_four_structured`.
struct TwoFourSeed {
    n: usize,
    k: usize,
    values: Vec<f32>,
    positions: Vec<u8>,
}

impl TwoFourSeed {
    fn prune(w: &Tensor) -> Self {
        let (n, k) = (w.dim(0), w.dim(1));
        let groups = n * k / 4;
        let (mut values, mut positions) = (Vec::new(), Vec::new());
        for g in 0..groups {
            let quad = &w.data()[g * 4..g * 4 + 4];
            let mut idx = [0usize, 1, 2, 3];
            idx.sort_by(|&a, &b| quad[b].abs().total_cmp(&quad[a].abs()));
            let mut keep = [idx[0], idx[1]];
            keep.sort_unstable();
            values.push(quad[keep[0]]);
            values.push(quad[keep[1]]);
            positions.push((keep[0] as u8) | ((keep[1] as u8) << 2));
        }
        TwoFourSeed { n, k, values, positions }
    }

    fn gemm(&self, a: &Tensor) -> Tensor {
        let (m, k) = (a.dim(0), a.dim(1));
        let groups_per_row = self.k / 4;
        let mut out = vec![0.0f32; m * self.n];
        let n = self.n;
        parallel_rows(&mut out, m, n, 4, |row_start, chunk| {
            for (r, orow) in chunk.chunks_mut(n).enumerate() {
                let arow = &a.data()[(row_start + r) * k..(row_start + r + 1) * k];
                for (j, slot) in orow.iter_mut().enumerate() {
                    let mut acc = 0.0f32;
                    for g in 0..groups_per_row {
                        let gi = j * groups_per_row + g;
                        let meta = self.positions[gi];
                        let base = g * 4;
                        acc += arow[base + (meta & 0b11) as usize] * self.values[gi * 2];
                        acc += arow[base + ((meta >> 2) & 0b11) as usize] * self.values[gi * 2 + 1];
                    }
                    *slot = acc;
                }
            }
        });
        Tensor::from_vec(out, &[m, self.n])
    }
}

fn bench_sparse(c: &mut Criterion) {
    let a = rand_mat(M, K, 5);
    let fp8 = TensorQuantizer::Fp(FpFormat::new(4, 3));
    // CI asserts sparse ≤ dense ratios inside this group, so a single
    // 10ms smoke sample is too noise-prone: pin it to min-of-5 samples
    // in smoke mode (same pattern as the conv_batched contract group).
    let saved = c.clone();
    if std::env::var("FPDQ_BENCH_FAST").is_ok_and(|v| v == "1") {
        *c = Criterion::default()
            .sample_size(5)
            .warm_up_time(std::time::Duration::from_millis(50))
            .measurement_time(std::time::Duration::from_millis(250));
    }
    let mut g = c.benchmark_group("sparse_gemm_32x256x256");
    let dense_w = rand_mat(N, K, 7);
    g.bench_function("dense_reference", |b| b.iter(|| black_box(a.matmul_nt(&dense_w))));
    let mut csr01 = None;
    for keep in [0.5f32, 0.1, 0.01] {
        let w = sparse_mat(N, K, keep, 6);
        let csr = CsrWeights::from_dense(&w, &fp8);
        g.bench_function(format!("csr_density_{keep}"), |b| b.iter(|| black_box(csr.gemm(&a))));
        // Before/after: the seed f32 gather kernel on the same pattern.
        let seed = CsrSeed::from_dense(&w);
        g.bench_function(format!("csr_density_{keep}_seed"), |b| {
            b.iter(|| black_box(seed.gemm(&a)))
        });
        if keep == 0.1 {
            csr01 = Some(csr);
        }
    }
    let csr01 = csr01.expect("density 0.1 in sweep");
    let tf = TwoFourWeights::prune(&dense_w, &fp8);
    g.bench_function("two_four_structured", |b| b.iter(|| black_box(tf.gemm(&a))));
    let tf_seed = TwoFourSeed::prune(&dense_w);
    g.bench_function("two_four_structured_seed", |b| b.iter(|| black_box(tf_seed.gemm(&a))));
    // Per-ISA pairs (scalar + every SIMD path this machine supports), so
    // the sparse kernels' dispatch speedup reads off one run like the
    // dense group's.
    for &isa in simd::available() {
        g.bench_function(format!("csr_density_0.1_{}", isa.name()), |b| {
            b.iter(|| black_box(csr01.gemm_fused_as(&a, None, isa)))
        });
        g.bench_function(format!("two_four_{}", isa.name()), |b| {
            b.iter(|| black_box(tf.gemm_fused_as(&a, None, isa)))
        });
    }
    g.finish();
    *c = saved;

    // The batched serving shape (m = 256 stacked rows): sparse weight
    // reuse across many activation rows, where the shared quantized
    // activation panel bank amortises exactly like the dense engine's.
    let ab = rand_mat(8 * M, K, 15);
    let mut g = c.benchmark_group("sparse_gemm_batched_256x256x256");
    g.bench_function("dense_reference", |b| b.iter(|| black_box(ab.matmul_nt(&dense_w))));
    g.bench_function("csr_density_0.1", |b| b.iter(|| black_box(csr01.gemm(&ab))));
    g.bench_function("two_four_structured", |b| b.iter(|| black_box(tf.gemm(&ab))));
    g.finish();
}

/// Cold-start cost: what a fresh process pays before it can sample. The
/// container is the whole point of the `cold_start` group — loading a
/// packed `.fpdq` (`container_load`) must be dramatically cheaper than
/// re-deriving the model (`quantize_and_pack`), and `pack_write` prices
/// the crash-safe (temp + fsync + rename) container write itself.
fn bench_cold_start(c: &mut Criterion) {
    use fpdq_container::{container_bytes, load_bytes, save, SimPipeline};
    use fpdq_core::calib::{CalibPoint, CalibrationSet};
    use fpdq_core::{quantize_unet, PtqConfig, RoundingConfig};
    use fpdq_diffusion::{DdimSim, NoiseSchedule};
    use fpdq_nn::{UNet, UNetConfig};

    let mut rng = StdRng::seed_from_u64(21);
    let unet = UNet::new(UNetConfig::tiny(3), &mut rng);
    let points: Vec<CalibPoint> = (0..3)
        .map(|i| CalibPoint {
            x: Tensor::randn(&[1, 3, 8, 8], &mut rng),
            t: (i * 4) as f32,
            ctx: None,
        })
        .collect();
    let calib = CalibrationSet { init: points.clone(), rl: points };
    let mut cfg = PtqConfig::fp(8, 8);
    cfg.bias_candidates = 9;
    cfg.rounding = RoundingConfig { iters: 4, batch: 2, ..RoundingConfig::default() };
    let report = quantize_unet(&unet, &calib, &cfg, &mut StdRng::seed_from_u64(1));
    let pipeline = SimPipeline::Ddim(DdimSim {
        unet,
        schedule: NoiseSchedule::linear_scaled(12),
        channels: 3,
        image_size: 8,
    });
    let image = bytes::Bytes::from(container_bytes(&pipeline, &report).expect("container"));
    let dir = std::env::temp_dir().join("fpdq-bench-cold-start");
    std::fs::create_dir_all(&dir).expect("bench temp dir");
    let out = dir.join("tiny.fpdq");

    let mut g = c.benchmark_group("cold_start");
    // The no-container baseline: re-derive the quantized packed model.
    g.bench_function("quantize_and_pack", |b| {
        b.iter(|| {
            let unet = UNet::new(UNetConfig::tiny(3), &mut StdRng::seed_from_u64(21));
            let report = quantize_unet(&unet, &calib, &cfg, &mut StdRng::seed_from_u64(1));
            black_box(fpdq_kernels::pack_unet(&unet, &report))
        })
    });
    // The crash-safe container write (temp file + fsync + atomic rename).
    g.bench_function("pack_write", |b| b.iter(|| save(&out, &pipeline, &report).expect("save")));
    // The container fast path: validate + rebuild + install, zero-copy
    // payloads shared with the source buffer.
    g.bench_function("container_load", |b| {
        b.iter(|| black_box(load_bytes(image.clone()).expect("load")))
    });
    g.finish();
    std::fs::remove_dir_all(&dir).ok();
}

/// One classifier-free-guidance step on a packed conditional U-Net:
/// the folded single-call batch (`conditioning::eps_folded`, 2n rows,
/// one weight-decode pass) against the seed double forward (two
/// sequential n-row calls + mix — the pre-fold `SdSim` sampling loop).
/// The packed engine decodes each weight tile once per *call*, so the
/// fold halves the per-step decode cost; CI's bench smoke asserts the
/// folded entry wins per-image at batch 4.
fn bench_sd_cfg_step(c: &mut Criterion) {
    use fpdq_core::calib::{CalibPoint, CalibrationSet};
    use fpdq_core::{quantize_unet, PtqConfig, RoundingConfig};
    use fpdq_diffusion::{eps_folded, Conditioning};
    use fpdq_nn::{UNet, UNetConfig};

    let mut rng = StdRng::seed_from_u64(33);
    let unet = UNet::new(UNetConfig { context_dim: Some(8), ..UNetConfig::tiny(4) }, &mut rng);
    // A 4×4 latent keeps each call decode-bound (few output positions
    // per weight tile), which is exactly the regime the fold targets:
    // the packed engine re-decodes every weight once per *call*.
    let points: Vec<CalibPoint> = (0..3)
        .map(|i| CalibPoint {
            x: Tensor::randn(&[1, 4, 4, 4], &mut rng),
            t: (i * 4) as f32,
            ctx: Some(Tensor::randn(&[1, 8, 8], &mut rng)),
        })
        .collect();
    let calib = CalibrationSet { init: points.clone(), rl: points };
    let mut cfg = PtqConfig::fp(8, 8);
    cfg.bias_candidates = 9;
    cfg.rounding = RoundingConfig { iters: 4, batch: 2, ..RoundingConfig::default() };
    let report = quantize_unet(&unet, &calib, &cfg, &mut StdRng::seed_from_u64(1));
    fpdq_kernels::pack_unet(&unet, &report);

    // CI asserts a ratio between paired entries below; pin min-of-5
    // samples in smoke mode like the conv amortization group.
    let saved = c.clone();
    if std::env::var("FPDQ_BENCH_FAST").is_ok_and(|v| v == "1") {
        *c = Criterion::default()
            .sample_size(5)
            .warm_up_time(std::time::Duration::from_millis(50))
            .measurement_time(std::time::Duration::from_millis(250));
    }
    let mut g = c.benchmark_group("sd_cfg_step");
    let guidance = 3.0f32;
    for n in [1usize, 4] {
        let x = Tensor::randn(&[n, 4, 4, 4], &mut rng);
        let t = Tensor::from_vec(vec![5.0; n], &[n]);
        let cond = Tensor::randn(&[n, 8, 8], &mut rng);
        let null = Tensor::randn(&[1, 8, 8], &mut rng);
        let conds: Vec<Conditioning> = (0..n)
            .map(|i| Conditioning::guided(cond.narrow(0, i, 1), null.clone(), guidance))
            .collect();
        let refs: Vec<&Conditioning> = conds.iter().collect();
        g.bench_function(format!("folded_batch{n}"), |b| {
            b.iter(|| black_box(eps_folded(|x, t, ctx| unet.forward(x, t, ctx), &x, &t, &refs)))
        });
        // Before/after: the seed CFG loop — two sequential engine calls
        // per step (cond batch, then null batch), mixed outside.
        let null_n = Tensor::concat(&vec![&null; n], 0);
        g.bench_function(format!("double_forward_batch{n}_seed"), |b| {
            b.iter(|| {
                let e_cond = unet.forward(&x, &t, Some(&cond));
                let e_null = unet.forward(&x, &t, Some(&null_n));
                black_box(e_null.add(&e_cond.sub(&e_null).mul_scalar(guidance)))
            })
        });
    }
    g.finish();
    *c = saved;
}

/// The cost of one parallel call on its own: two empty chunks, so the
/// time is all dispatch — handing a chunk to another thread and waiting
/// for it. The packed conv's channel-parallel regime pays this twice per
/// image per layer, and small-batch serving steps are dominated by it.
fn bench_parallel_dispatch(c: &mut Criterion) {
    let mut out = vec![0.0f32; 2];
    let mut g = c.benchmark_group("parallel");
    g.bench_function("dispatch_2chunks_empty", |b| {
        b.iter(|| {
            parallel_rows_in(2, black_box(&mut out), 2, 1, 1, |start, chunk| {
                black_box((start, chunk));
            })
        })
    });
    g.finish();
}

fn configured() -> Criterion {
    // FPDQ_BENCH_FAST=1 is the CI smoke mode: one sample per benchmark,
    // minimal budgets — enough to prove every kernel still runs and the
    // JSON writer still works, without meaningful timing.
    if std::env::var("FPDQ_BENCH_FAST").is_ok_and(|v| v == "1") {
        Criterion::default()
            .sample_size(1)
            .warm_up_time(std::time::Duration::from_millis(5))
            .measurement_time(std::time::Duration::from_millis(10))
    } else {
        Criterion::default()
            .sample_size(10)
            .warm_up_time(std::time::Duration::from_millis(300))
            .measurement_time(std::time::Duration::from_millis(800))
    }
}

criterion_group! {
    name = kernels;
    config = configured();
    targets = bench_quantize, bench_pack, bench_gemm, bench_gemm_batched, bench_conv,
        bench_conv_batched, bench_sparse, bench_cold_start, bench_sd_cfg_step,
        bench_parallel_dispatch
}

fn main() {
    kernels();
    // Machine-readable results (group/name -> ns/op) so the perf
    // trajectory is tracked across PRs. FPDQ_BENCH_JSON overrides the
    // file name; relative paths resolve against the workspace root
    // (cargo runs benches from the package directory). The `_meta`
    // object records which ISA the dispatched kernels actually ran
    // (scalar/avx2/neon) and whether FPDQ_FORCE_SCALAR pinned it, so
    // cross-PR and cross-machine numbers are comparable.
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let path = root.join(
        std::env::var("FPDQ_BENCH_JSON").unwrap_or_else(|_| "BENCH_kernels.json".to_string()),
    );
    let threads = num_threads().to_string();
    let meta = [
        ("threads", threads.as_str()),
        ("isa", simd::active().name()),
        ("detected_isa", simd::detected().name()),
        ("force_scalar", if simd::force_scalar() { "1" } else { "0" }),
    ];
    match criterion::write_json_report_with_meta(&path, &meta) {
        Ok(()) => eprintln!("wrote {} (isa: {})", path.display(), simd::active().name()),
        Err(e) => eprintln!("failed to write {}: {e}", path.display()),
    }
}
