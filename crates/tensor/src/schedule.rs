//! Batched execution-regime selection for the GEMM/conv engines.
//!
//! Batch-1 sampling and batched multi-image sampling want opposite
//! parallel decompositions, and the boundary between them depends on the
//! actual work-grain counts, not on the batch size alone. This module
//! holds the (pure, unit-testable) decision functions that both the
//! dense convolution ([`crate::conv`]) and the packed `fpdq-kernels`
//! GEMM/conv engines schedule by (re-exported there as
//! `fpdq_kernels::schedule`).
//!
//! # Why tile counts, not raw sizes
//!
//! The earlier heuristic in the conv path compared the batch size against
//! the worker count (`n < workers` → channel-parallel). That misschedules
//! two regions:
//!
//! * `n` slightly above `workers` (e.g. `n == workers + 1`): the
//!   batch-parallel split hands ⌈n/W⌉ = 2 images to roughly half the
//!   workers and leaves the rest idle — ~2× the wall time of one image
//!   when the channel grid could have kept every worker busy.
//! * `n` slightly below `workers` with few output-channel tiles: the
//!   channel-parallel split can only occupy `ctiles` workers per image,
//!   so wide batches of narrow layers serialize needlessly.
//!
//! Instead both candidate schedules are costed in *wall-clock tile
//! units* — the number of sequential output tiles the slowest worker
//! processes — and the cheaper one wins. Both schedules group output
//! rows in the same register-block tiles and accumulate each output
//! element in plain `k` order, so the choice never changes a single
//! output bit (the property `tests/batched_consistency.rs` pins).

/// Row-block height of the NT micro-kernel ([`crate::matmul::NT_MR`]) —
/// the tile grain of both the packed GEMM and the implicit-GEMM conv.
const BLOCK_ROWS: usize = 4;

/// Activation rows per quantize/stream block of the packed GEMM (the
/// scratch grain of `fpdq_kernels::gemm`). Below this the whole
/// activation panel bank is cache-resident and the weight-stationary
/// schedule is free; above it the activation-stationary schedule
/// streams ~4× less (its hot block is a 4-panel stripe instead of an
/// 8-row weight tile) and skips the output transpose.
pub const ACT_BLOCK: usize = 32;

/// Parallel decomposition of the packed GEMM (`[m, k] × [n, k]ᵀ`).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum GemmRegime {
    /// Split the packed *weight rows* (`n`) across workers; each worker
    /// decodes only its own weight tiles and streams the shared
    /// pre-quantized activation panels (the weight-stationary schedule;
    /// the only regime prior to batched sampling).
    RowParallel,
    /// Split the *activation rows* (`m`) across workers against a shared
    /// decoded weight-panel bank; each weight tile is decoded exactly
    /// once per call (the activation-stationary schedule for batched
    /// sampling of narrow layers).
    ColParallel,
}

/// Parallel decomposition of the packed convolution.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ConvRegime {
    /// One batch image per work grain; each worker owns an `im2col`
    /// micro-panel + quantize arena and sweeps the shared decoded
    /// filter bank.
    BatchParallel,
    /// Images in sequence; within one image the output channels split
    /// across workers on the 4-row block grid.
    ChannelParallel,
}

/// Number of `BLOCK_ROWS`-row output tiles for `rows` output rows.
fn tiles(rows: usize) -> usize {
    rows.div_ceil(BLOCK_ROWS)
}

/// Wall-clock cost, in tiles, of splitting `grains` work grains of
/// `tiles_per_grain` tiles each across `workers` (each grain is
/// indivisible).
fn wall_tiles(grains: usize, tiles_per_grain: usize, workers: usize) -> usize {
    grains.div_ceil(workers.max(1)) * tiles_per_grain
}

/// Picks the packed-GEMM regime for an `[m, k] × [n, k]ᵀ` call on
/// `workers` threads.
///
/// Row-parallel offers `⌈n/4⌉` grains, column-parallel `⌈m/4⌉`. For
/// small activation matrices (`m ≤` [`ACT_BLOCK`] — the batch-1 latency
/// shapes) the panel bank is cache-resident and the weight-stationary
/// row-parallel schedule wins unless it strictly under-fills the
/// workers (narrow layers). At batched sizes (`m >` [`ACT_BLOCK`]) the
/// activation-stationary schedule streams less memory per tile and
/// writes the output untransposed, so it wins whenever it keeps at
/// least as many workers busy.
pub fn pick_gemm_regime(m: usize, n: usize, workers: usize) -> GemmRegime {
    let row_busy = workers.max(1).min(tiles(n));
    let col_busy = workers.max(1).min(tiles(m));
    let col_wins = if m > ACT_BLOCK { col_busy >= row_busy } else { col_busy > row_busy };
    if col_wins {
        GemmRegime::ColParallel
    } else {
        GemmRegime::RowParallel
    }
}

/// Picks the packed-conv regime for a batch of `n` images with `o`
/// output channels on `workers` threads.
///
/// Compares the wall-clock tile cost of the two schedules directly:
/// batch-parallel runs `⌈n/W⌉` rounds of a full image (`⌈o/4⌉` tiles),
/// channel-parallel runs `n` images of `⌈⌈o/4⌉/W⌉` tiles each. Ties go
/// to batch-parallel (its per-worker arenas also reuse one micro-panel
/// buffer across images). With one worker both costs coincide and the
/// batch-parallel (single pass) schedule is used.
///
/// The model deliberately counts tiles only. Channel-parallel makes
/// parallel calls per image (`n` pool dispatches vs. one), an overhead
/// of microseconds per image that the model ignores; it is only chosen
/// when it saves at least one full image's worth of tile imbalance
/// (≥ the per-image GEMM time, orders of magnitude larger), and `n` is
/// bounded near the worker count in this regime, so the uncounted
/// dispatches cannot flip the comparison's sign.
pub fn pick_conv_regime(n: usize, o: usize, workers: usize) -> ConvRegime {
    let ctiles = tiles(o);
    let batch_wall = wall_tiles(n, ctiles, workers);
    let channel_wall = n * wall_tiles(ctiles, 1, workers);
    if channel_wall < batch_wall {
        ConvRegime::ChannelParallel
    } else {
        ConvRegime::BatchParallel
    }
}

/// Execution path of a sparse-weight GEMM call.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SparseRegime {
    /// Run the panel-streaming sparse kernel: per weight row, only the
    /// stored non-zeros multiply against the activation panels.
    Sparse,
    /// Hand the call to the dense packed GEMM through the sparse type's
    /// `PackedWeights` decode — the density is too high for index-driven
    /// accumulation to beat the dense micro-kernel.
    Dense,
}

/// Maximum density (in 1/256ths) at which the unstructured CSR kernel
/// still beats the dense packed GEMM. Measured on the bench shapes
/// (`sparse_gemm_32x256x256` in `BENCH_kernels.json`): the CSR kernel
/// runs one broadcast-multiply-add per stored non-zero per panel with an
/// index load on the critical path, while the dense micro-kernel
/// amortises its decode over 4-panel register blocks — the break-even
/// sits between the 0.1-density win (~3×) and the 0.5-density loss.
const CSR_MAX_DENSITY_256THS: usize = 72; // ≈ 0.28

/// Maximum density for the structured 2:4 kernel at latency shapes
/// (`m ≤ ACT_BLOCK`). Its metadata expands to column indices in-register
/// (no per-non-zero index memory traffic on the build side) and its
/// stored density is exactly 0.5, which measures ~2× faster than dense at
/// the bench shapes — so the threshold only has to exclude degenerate
/// "2:4" inputs that are barely sparse after decode-time zero counting is
/// folded in by the caller.
const STRUCTURED_MAX_DENSITY_256THS: usize = 160; // ≈ 0.63

/// Picks sparse-vs-dense execution for an `[n, k]` sparse weight matrix
/// multiplied against an `m`-row activation, with `nnz` *stored* values
/// (the work the sparse kernel actually iterates — for 2:4 that is
/// `n·k/2` regardless of how many survivors quantize to zero).
///
/// The decision is a pure (density, m) threshold — deliberately
/// independent of the worker count and ISA: both paths parallelise over
/// the same weight rows and carry the same bit-identity contract, so the
/// regime (and therefore every output bit) stays fixed across
/// `FPDQ_THREADS` and forced-scalar runs.
///
/// # Why `m` matters
///
/// The sparse kernels process **one** weight row against the packed
/// activation panel bank, so each panel load feeds a single row where the
/// dense NT micro-kernel feeds a 4–8 row register block. At latency
/// shapes (`m ≤ ACT_BLOCK`, one activation panel) the bank stays
/// register/L1-resident and fewer MACs dominate — 2:4 wins at its fixed
/// 0.5 stored density. At batched shapes the panel bank is re-streamed
/// per weight row, and the measured crossover flips: the
/// `sparse_gemm_batched_256x256x256` shape runs 742µs structured vs 502µs
/// dense, while 0.1-density CSR still wins (266µs). So above `ACT_BLOCK`
/// the structured limit tightens to the CSR crossover
/// ([`CSR_MAX_DENSITY_256THS`]), routing 2:4 (density 128/256) back to
/// the dense engine exactly where it starts losing.
pub fn pick_sparse_regime(
    nnz: usize,
    m: usize,
    n: usize,
    k: usize,
    structured: bool,
) -> SparseRegime {
    let numel = n * k;
    if numel == 0 {
        // Degenerate matrices carry no work; the dense path owns the
        // empty-shape guards.
        return SparseRegime::Dense;
    }
    let limit = if structured && m <= ACT_BLOCK {
        STRUCTURED_MAX_DENSITY_256THS
    } else {
        CSR_MAX_DENSITY_256THS
    };
    if nnz * 256 <= numel * limit {
        SparseRegime::Sparse
    } else {
        SparseRegime::Dense
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batch_one_keeps_latency_schedules() {
        // The batch-1 sampling case must stay channel-parallel whenever
        // more than one channel tile exists (the pre-batching behavior).
        assert_eq!(pick_conv_regime(1, 32, 8), ConvRegime::ChannelParallel);
        // A single channel tile is a tie, which goes batch-parallel.
        assert_eq!(pick_conv_regime(1, 4, 8), ConvRegime::BatchParallel);
        // GEMM with one activation row stays weight-row-parallel.
        assert_eq!(pick_gemm_regime(1, 256, 8), GemmRegime::RowParallel);
    }

    #[test]
    fn conv_boundary_at_workers_minus_one() {
        // n == W - 1 with several channel tiles: the old `n < workers`
        // rule forced channel-parallel; the tile costs agree here
        // (channel: 7 × 2 = 14 < batch: ⌈7/8⌉ × 16 = 16).
        assert_eq!(pick_conv_regime(7, 64, 8), ConvRegime::ChannelParallel);
        // ... but with few channel tiles the channel grid under-fills
        // the workers and batch-parallel must win despite n < W
        // (channel: 7 × 1 = 7 > batch: ⌈7/8⌉ × 1 = 1).
        assert_eq!(pick_conv_regime(7, 4, 8), ConvRegime::BatchParallel);
    }

    #[test]
    fn conv_boundary_at_workers_exactly() {
        // n == W: one image per worker is a perfect batch-parallel fill.
        assert_eq!(pick_conv_regime(8, 64, 8), ConvRegime::BatchParallel);
        assert_eq!(pick_conv_regime(8, 4, 8), ConvRegime::BatchParallel);
    }

    #[test]
    fn conv_boundary_at_workers_plus_one() {
        // n == W + 1: the old `n >= workers` rule forced batch-parallel,
        // which runs 2 serial rounds with most workers idle in the
        // second (batch: 2 × 16 = 32); the channel grid keeps every
        // worker busy (channel: 9 × 2 = 18).
        assert_eq!(pick_conv_regime(9, 64, 8), ConvRegime::ChannelParallel);
        // With a single channel tile there is nothing to split within an
        // image, so the 2-round batch schedule still wins.
        assert_eq!(pick_conv_regime(9, 4, 8), ConvRegime::BatchParallel);
    }

    #[test]
    fn large_batches_go_batch_parallel() {
        assert_eq!(pick_conv_regime(64, 32, 8), ConvRegime::BatchParallel);
        assert_eq!(pick_conv_regime(1024, 256, 16), ConvRegime::BatchParallel);
    }

    #[test]
    fn single_worker_is_batch_parallel() {
        for n in [1usize, 2, 7, 8, 9] {
            assert_eq!(pick_conv_regime(n, 64, 1), ConvRegime::BatchParallel, "n = {n}");
        }
    }

    #[test]
    fn gemm_regime_flips_with_batch_scale_and_layer_width() {
        // n = 16 gives 4 weight-row grains; a batched m = 512 offers far
        // more — the under-filled workers flip to column-parallel.
        assert_eq!(pick_gemm_regime(512, 16, 8), GemmRegime::ColParallel);
        // Above ACT_BLOCK the activation-stationary schedule also wins
        // ties: it streams less and skips the transpose.
        assert_eq!(pick_gemm_regime(512, 256, 8), GemmRegime::ColParallel);
        // ... but not when its grains under-fill the workers.
        assert_eq!(pick_gemm_regime(40, 256, 16), GemmRegime::RowParallel);
        // At or below ACT_BLOCK (batch-1 latency shapes) ties stay
        // row-parallel.
        assert_eq!(pick_gemm_regime(32, 32, 8), GemmRegime::RowParallel);
        assert_eq!(pick_gemm_regime(32, 8, 8), GemmRegime::ColParallel); // strict win
    }

    #[test]
    fn degenerate_worker_counts_do_not_panic() {
        assert_eq!(pick_gemm_regime(8, 8, 0), GemmRegime::RowParallel);
        assert_eq!(pick_conv_regime(2, 8, 0), ConvRegime::BatchParallel);
    }

    #[test]
    fn sparse_regime_boundaries() {
        let (m, n, k) = (32usize, 256usize, 256usize);
        let numel = n * k;
        // The bench densities at the latency shape (m = ACT_BLOCK):
        // 0.1 CSR must run sparse, 0.5 CSR must fall back to dense, and
        // 2:4 (stored density exactly 0.5) must run the structured kernel.
        assert_eq!(pick_sparse_regime(numel / 10, m, n, k, false), SparseRegime::Sparse);
        assert_eq!(pick_sparse_regime(numel / 2, m, n, k, false), SparseRegime::Dense);
        assert_eq!(pick_sparse_regime(numel / 2, m, n, k, true), SparseRegime::Sparse);
        // Exact threshold boundaries (≤ runs sparse, one past is dense).
        let csr_limit = numel * 72 / 256;
        assert_eq!(pick_sparse_regime(csr_limit, m, n, k, false), SparseRegime::Sparse);
        assert_eq!(pick_sparse_regime(csr_limit + 1, m, n, k, false), SparseRegime::Dense);
        let tf_limit = numel * 160 / 256;
        assert_eq!(pick_sparse_regime(tf_limit, m, n, k, true), SparseRegime::Sparse);
        assert_eq!(pick_sparse_regime(tf_limit + 1, m, n, k, true), SparseRegime::Dense);
    }

    #[test]
    fn sparse_regime_tracks_density_not_shape() {
        // Same density, different shapes: the decision tracks density, so
        // tiny and huge matrices at 10% both run sparse.
        assert_eq!(pick_sparse_regime(6, 8, 8, 8, false), SparseRegime::Sparse);
        assert_eq!(pick_sparse_regime(6554, 8, 256, 256, false), SparseRegime::Sparse);
        // An empty matrix is dense (no work; dense path owns the guards).
        assert_eq!(pick_sparse_regime(0, 8, 0, 8, false), SparseRegime::Dense);
        assert_eq!(pick_sparse_regime(0, 8, 8, 0, true), SparseRegime::Dense);
        // A fully dense "sparse" matrix is dense in both modes.
        assert_eq!(pick_sparse_regime(64, 8, 8, 8, false), SparseRegime::Dense);
        assert_eq!(pick_sparse_regime(64, 8, 8, 8, true), SparseRegime::Dense);
    }

    #[test]
    fn structured_crossover_is_m_aware() {
        let (n, k) = (256usize, 256usize);
        let two_four = n * k / 2; // stored density exactly 0.5

        // Latency shapes keep the structured win up to ACT_BLOCK rows...
        for m in [1usize, 8, ACT_BLOCK] {
            assert_eq!(pick_sparse_regime(two_four, m, n, k, true), SparseRegime::Sparse, "m={m}");
        }
        // ... and the measured batched crossover (742µs sparse vs 502µs
        // dense at m = 256) routes back to the dense engine for every
        // batched m.
        for m in [ACT_BLOCK + 1, 64, 256, 1024] {
            assert_eq!(pick_sparse_regime(two_four, m, n, k, true), SparseRegime::Dense, "m={m}");
        }
        // Genuinely sparse matrices are m-independent: 0.1-density CSR
        // (and an equally sparse structured pattern) win at every batch.
        for m in [1usize, 32, 256, 1024] {
            assert_eq!(pick_sparse_regime(numel_tenth(n, k), m, n, k, false), SparseRegime::Sparse);
            assert_eq!(pick_sparse_regime(numel_tenth(n, k), m, n, k, true), SparseRegime::Sparse);
        }
    }

    fn numel_tenth(n: usize, k: usize) -> usize {
        n * k / 10
    }
}
