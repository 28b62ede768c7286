//! # fpdq-kernels
//!
//! Bit-exact software kernels for the quantized representations — the
//! packed *execution engine* of the reproduction:
//!
//! * [`packed`] — bit-packed storage of arbitrary ExMy floating-point and
//!   INT formats (FP8 → 1 byte/element, FP4/INT4 → 2 elements/byte),
//!   proving the memory-footprint claims of the paper's §III;
//! * [`gemm`] / [`conv`] — dequantize-on-the-fly matmul and convolution
//!   over packed weights (the compute pattern of weight-only-quantized
//!   inference);
//! * [`exec`] — the wiring layer that flips a quantized U-Net from dense
//!   fake-quantized execution to these packed kernels;
//! * [`sparse`] — panel-packed sparse kernels over the zeros that the
//!   paper's quantizer creates (§VI-G): unstructured CSR and NVIDIA-style
//!   structured 2:4 pruning, both storing quantized codes decoded through
//!   the same LUTs as [`packed`], running the dense GEMM's row-parallel
//!   panel schedule with AVX2/NEON index-driven kernels under the
//!   bit-identity contract, and dispatching back to the dense engine
//!   above the measured density crossover
//!   ([`schedule::pick_sparse_regime`]) so sparsity never loses to dense
//!   (layout contract in `docs/sparse.md`).
//!
//! # Fused-epilogue packed execution architecture
//!
//! The hot path is built from four layers, each independently tested for
//! bit-exactness against the simulated quantizers:
//!
//! 1. **LUT decode** ([`packed`]). Formats whose code width divides a byte
//!    (FP4/INT4, FP8/INT8 — everything the paper deploys) decode through a
//!    256-entry per-byte lookup table of pre-signed `f32` values: one
//!    table load per element, no bit twiddling. Encode goes through a
//!    precomputed boundary table (exact thresholds found by bit-level
//!    bisection against the reference quantizer), eliminating the
//!    per-element `log2`/`powf` + binary search. Odd widths fall back to
//!    word-level shift unpacking.
//! 2. **Fused activation quantization** ([`fpdq_core::BoundaryQuantizer`]
//!    / [`fpdq_core::PanelQuantizer`]). The weight+activation
//!    configuration no longer fake-quantizes the whole activation tensor
//!    up front: activations are quantized *inside* the tile loops through
//!    signed boundary tables (branch-free, bucket-indexed bisection — no
//!    transcendentals, no intermediate tensor), per-tensor or
//!    per-channel, bit-exact with the simulated quantizers.
//! 3. **Tiled dequantize-on-the-fly with batched regimes** ([`gemm`],
//!    [`conv`], [`schedule`]). The GEMM packs activation micro-panels
//!    (quantizing as it packs — each row exactly once per call) into the
//!    `[k][8]` interleaved layout of the 4×8 NT panel micro-kernel shared
//!    with dense `matmul_nt` ([`fpdq_tensor::matmul::gemm_nt_panel`]),
//!    and streams packed weight rows through the LUT decoder 8 rows at a
//!    time — each weight tile decoded **once per call**, however many
//!    images the batched activation matrix stacks; packed weights
//!    therefore run at or below dense-FP32 latency while moving 4-8×
//!    fewer weight bytes, and the per-image cost *falls* with the batch.
//!    The convolution is *implicit GEMM on the same micro-kernel*: each
//!    8-pixel output tile's `im2col` columns are lowered on the fly
//!    directly into an NT micro-panel arena
//!    ([`fpdq_tensor::conv::im2col_panel_into`]) and fed straight to
//!    `gemm_nt_panel` against the once-per-call decoded filter bank — the
//!    whole-image `im2col` matrix never materialises, and conv inherits
//!    the GEMM's SIMD dispatch, fused activation quant, and decode
//!    amortisation instead of duplicating them. Both kernels pick their
//!    parallel regime per call from the actual tile counts against the
//!    worker count ([`schedule`]): the GEMM between weight-row-parallel
//!    and activation-row-parallel (narrow layers under batched
//!    activations), the convolution between batch-parallel per-worker
//!    panel arenas and channel-parallel workers against a shared
//!    per-image panel bank. Because the micro-kernel accumulates every
//!    output element in plain `k` order in every code path, results are
//!    bit-identical across regimes, tile schedules and thread counts,
//!    and the fused path is bit-exact against "fake-quantize first, then
//!    run the same kernel" — so batch-N sampling reproduces N batch-1
//!    runs bit-for-bit (`tests/batched_consistency.rs`).
//! 4. **Model wiring** ([`exec`]). `pack_unet` re-encodes a PTQ'd model's
//!    baked weights into their searched formats and installs packed
//!    forward overrides into every quantized Linear/Conv layer
//!    ([`fpdq_nn::PackedSlot`]). Layers with one whole-input activation
//!    format get the *fused* forward: their tap quantizer closure is
//!    suspended into the slot (restored by `unpack_unet`) and
//!    quantization runs inside the packed kernel. Split-quantized layers
//!    (separate trunk/skip formats) keep their tap closures; idempotency
//!    of fake quantization keeps the packed kernel exact on the
//!    pre-quantized input.
//!
//! # Runtime SIMD dispatch
//!
//! The three hot loops — the 4×8 NT micro-kernel
//! ([`fpdq_tensor::matmul::gemm_nt_panel`]), the per-byte LUT decode
//! ([`packed`]), and the bucketed boundary-table activation quantizer
//! ([`fpdq_core::BoundaryQuantizer`]) — carry explicit SIMD
//! implementations selected at *runtime* by [`fpdq_tensor::simd`]: AVX2
//! on x86-64 (4×8 accumulator blocks in 256-bit registers; 32-byte
//! gather/shuffle LUT decode; 8-lane compare-stripe bucket sweeps), NEON
//! on aarch64 (micro-kernel only; decode and quantize run the scalar walk
//! there). CPU features are probed once per process and
//! `FPDQ_FORCE_SCALAR=1` pins everything to the scalar reference
//! kernels.
//!
//! **The bit-identity contract** (specified in [`fpdq_tensor::simd`]):
//! every ISA path produces bit-identical output to the scalar reference.
//! The SIMD kernels therefore perform the same IEEE-754 operations in the
//! same per-element order — mul-then-add per ascending `k`, never a fused
//! multiply-add, same operand order, same NaN/±∞ handling. Every
//! dispatched entry point has an explicit-ISA sibling
//! (`gemm_packed_fused_as`, `conv2d_packed_fused_as`,
//! [`PackedWeights::decode_range_into_as`], `quantize_slice_into_as`,
//! `gemm_nt_panel_as`) so the differential suite in
//! `tests/simd_consistency.rs` drives both sides of every dispatch in one
//! process; CI re-runs the whole workspace under `FPDQ_FORCE_SCALAR=1`,
//! under `RUSTFLAGS="-C target-feature=+avx2,+fma"`, and build-checks the
//! NEON path for `aarch64-unknown-linux-gnu`. To add a new ISA path,
//! follow the checklist in [`fpdq_tensor::simd`] — implement behind
//! runtime detection, obey the contract, route it in the `*_as`
//! dispatchers (falling back to scalar when unsupported), and the
//! ISA-sweeping tests pick it up automatically.
//!
//! # Threading model
//!
//! Parallelism comes from the `fpdq_tensor::parallel` row helpers, which
//! run chunks on one persistent, process-wide worker pool plus the calling
//! thread instead of spawning threads per call. The GEMM splits packed
//! weight rows or activation rows on the 4-row register-block grid
//! (`parallel_rows_aligned`), the conv splits batches or output channels —
//! regime chosen per call by [`schedule`] from tile counts vs. workers —
//! and every chunk owns a scratch arena (decoded weight tile, quantized
//! activation block, quantized image, `im2col` micro-panel) so no
//! synchronisation happens inside a tile; the pre-quantized activation
//! panel bank, the decoded filter bank, and the channel-parallel conv's
//! per-image lowered panel bank are built once per call and shared
//! read-only. Chunk boundaries are pinned to the block grid, which —
//! together with the fixed-`k`-order accumulation — makes multi-threaded
//! output bit-identical to single-threaded output. The boundaries depend
//! only on the requested worker count, the rows and the alignment, never
//! on the pool size or on which pool thread runs a chunk, so the pool
//! cannot change a bit either. `FPDQ_THREADS` caps the worker count; the
//! `*_fused_in` entry points take an explicit count so tests and tuners
//! can sweep schedules in one process.
//!
//! The pre-optimisation bit-loop implementations survive as `*_bitloop`
//! reference functions; property tests pin the fast paths to them, and the
//! `pack`/`gemm` groups of the `fpdq-bench` criterion suite benchmark both
//! sides (LUT-vs-bitloop decode, tiled-vs-rowwise GEMM) in one run and
//! persist machine-readable results to `BENCH_kernels.json`.

pub mod conv;
pub mod exec;
pub mod gemm;
pub mod packed;
pub mod sparse;

/// Batched execution-regime selection (shared with the dense kernels in
/// `fpdq-tensor`, where the decision functions live).
pub use fpdq_tensor::schedule;

pub use conv::{
    conv2d_packed, conv2d_packed_fp, conv2d_packed_fused, conv2d_packed_fused_as,
    conv2d_packed_fused_in, conv2d_packed_int,
};
pub use exec::{
    install_packed_weight, pack_unet, pack_unet_sparse, try_install_packed_weight,
    try_install_prebuilt, try_install_sparse_weight, try_pack_unet, try_pack_unet_sparse,
    unpack_unet, PackReport, PackedLayerInfo, PackedTensor, SparseMode,
};
pub use gemm::{
    gemm_packed, gemm_packed_fp, gemm_packed_fused, gemm_packed_fused_as, gemm_packed_fused_in,
    gemm_packed_int,
};
pub use packed::{PackedFpTensor, PackedIntTensor, PackedWeights};
pub use schedule::{
    pick_conv_regime, pick_gemm_regime, pick_sparse_regime, ConvRegime, GemmRegime, SparseRegime,
};
pub use sparse::{CsrWeights, TwoFourWeights};
