//! The benchmark's own statistics: percentiles and the rule that names
//! them, span self time, and the ratios derived from counters.

/// Percentile `p` (0..=100) of `values` by linear interpolation between
/// the closest ranks. Returns `None` for an empty sample.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (p / 100.0).clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let (lo, hi) = (rank.floor() as usize, rank.ceil() as usize);
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64))
}

/// Median of `values`, or `None` for an empty sample.
pub fn median(values: &[f64]) -> Option<f64> {
    percentile(values, 50.0)
}

/// Samples a percentile needs beyond it before it is reported as a tail.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Percentiles considered for the tail, highest first.
const TAIL_CANDIDATES: [u32; 4] = [99, 90, 75, 50];

/// Whether percentile `p` of `n` samples has at least
/// [`TAIL_MIN_BEYOND`] samples above it.
pub fn percentile_is_supported(p: u32, n: usize) -> bool {
    // Samples strictly above the p-th percentile: n * (100 - p) / 100,
    // counted in integers so p90 of 100 samples has exactly 10 above.
    n * (100 - p as usize) >= TAIL_MIN_BEYOND * 100
}

/// The highest percentile of `n` samples that has at least
/// [`TAIL_MIN_BEYOND`] samples beyond it, as its name (`"p90"`), or
/// `None` when not even the median has.
pub fn tail_percentile_name(n: usize) -> Option<String> {
    TAIL_CANDIDATES
        .iter()
        .find(|&&p| percentile_is_supported(p, n))
        .map(|p| format!("p{p}"))
}

/// Duration of the interval `parent` not covered by any of `children`,
/// in the intervals' own unit. Children may overlap each other, nest in
/// one another, or stick out of the parent; only the part of their union
/// that lies inside the parent is subtracted.
pub fn self_time(parent: (f64, f64), children: &[(f64, f64)]) -> f64 {
    let (ps, pe) = parent;
    let mut clipped: Vec<(f64, f64)> = children
        .iter()
        .map(|&(s, e)| (s.max(ps), e.min(pe)))
        .filter(|(s, e)| s < e)
        .collect();
    clipped.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut covered = 0.0;
    let mut current: Option<(f64, f64)> = None;
    for (s, e) in clipped {
        current = match current {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                covered += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    if let Some((cs, ce)) = current {
        covered += ce - cs;
    }
    ((pe - ps) - covered).max(0.0)
}

/// Failed or incorrect operations over operations attempted. A run that
/// attempted nothing produced nothing, so it counts as wholly failed.
pub fn failed_ratio(failed: u64, attempted: u64) -> f64 {
    if attempted == 0 {
        return 1.0;
    }
    failed as f64 / attempted as f64
}

/// Mean number of requests sharing an engine step: the steps every
/// request asked for, over the steps the engine ran. Zero when the engine
/// never stepped.
pub fn batch_occupancy(request_steps: u64, engine_steps: u64) -> f64 {
    if engine_steps == 0 {
        return 0.0;
    }
    request_steps as f64 / engine_steps as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_interpolate_between_ranks() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), Some(2.5));
        assert_eq!(percentile(&v, 0.0), Some(1.0));
        assert_eq!(percentile(&v, 100.0), Some(4.0));
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[7.0]), Some(7.0));
    }

    #[test]
    fn tail_is_named_by_the_ten_beyond_rule() {
        // p50 needs 20 samples, p75 40, p90 100, p99 1000.
        assert_eq!(tail_percentile_name(19), None);
        assert_eq!(tail_percentile_name(20).as_deref(), Some("p50"));
        assert_eq!(tail_percentile_name(39).as_deref(), Some("p50"));
        assert_eq!(tail_percentile_name(40).as_deref(), Some("p75"));
        assert_eq!(tail_percentile_name(99).as_deref(), Some("p75"));
        assert_eq!(tail_percentile_name(100).as_deref(), Some("p90"));
        assert_eq!(tail_percentile_name(999).as_deref(), Some("p90"));
        assert_eq!(tail_percentile_name(1000).as_deref(), Some("p99"));
        assert!(!percentile_is_supported(90, 99));
        assert!(percentile_is_supported(90, 100));
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let parent = (0.0, 10.0);
        assert_eq!(self_time(parent, &[]), 10.0);
        // Disjoint children.
        assert_eq!(self_time(parent, &[(1.0, 2.0), (4.0, 6.0)]), 7.0);
        // Overlapping children count their union once.
        assert_eq!(self_time(parent, &[(1.0, 4.0), (3.0, 6.0)]), 5.0);
        // A child nested in another child adds nothing.
        assert_eq!(self_time(parent, &[(1.0, 8.0), (2.0, 3.0)]), 3.0);
        // Children sticking out of the parent are clipped to it.
        assert_eq!(self_time(parent, &[(-5.0, 2.0), (9.0, 15.0)]), 7.0);
        // Children outside the parent, or empty, cover nothing.
        assert_eq!(self_time(parent, &[(11.0, 12.0), (5.0, 5.0)]), 10.0);
        // Full cover leaves no self time.
        assert_eq!(self_time(parent, &[(0.0, 6.0), (5.0, 10.0)]), 0.0);
    }

    #[test]
    fn failed_ratio_of_nothing_attempted_is_total_failure() {
        assert_eq!(failed_ratio(0, 0), 1.0);
        assert_eq!(failed_ratio(0, 8), 0.0);
        assert_eq!(failed_ratio(2, 8), 0.25);
    }

    #[test]
    fn batch_occupancy_is_request_steps_per_engine_step() {
        // Two 10-step requests sharing all their steps: 20 request-steps
        // in 10 engine steps.
        assert_eq!(batch_occupancy(20, 10), 2.0);
        // A 10-step and a 20-step request overlapping for 10 steps.
        assert_eq!(batch_occupancy(30, 20), 1.5);
        assert_eq!(batch_occupancy(0, 0), 0.0);
        assert_eq!(batch_occupancy(5, 0), 0.0);
    }
}
