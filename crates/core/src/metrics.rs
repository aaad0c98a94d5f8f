//! Metrics used by the paper's evaluation: acceptance ratios (Figure 2) and
//! cumulative-tightness comparisons (Figure 3).

/// Counts schedulable / total trials and exposes the acceptance ratio
/// `δ = schedulable / generated`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AcceptanceCounter {
    accepted: u64,
    total: u64,
}

impl AcceptanceCounter {
    /// Creates an empty counter.
    #[must_use]
    pub fn new() -> Self {
        AcceptanceCounter::default()
    }

    /// Reconstructs a counter from raw counts (e.g. when restoring a
    /// checkpointed partial aggregate).
    ///
    /// # Panics
    ///
    /// Panics if `accepted > total`.
    #[must_use]
    pub fn from_counts(accepted: u64, total: u64) -> Self {
        assert!(
            accepted <= total,
            "accepted ({accepted}) cannot exceed total ({total})"
        );
        AcceptanceCounter { accepted, total }
    }

    /// Records one trial.
    pub fn record(&mut self, accepted: bool) {
        self.total += 1;
        if accepted {
            self.accepted += 1;
        }
    }

    /// Number of accepted (schedulable) trials.
    #[must_use]
    pub fn accepted(&self) -> u64 {
        self.accepted
    }

    /// Number of recorded trials.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Acceptance ratio in `[0, 1]`; `0` when no trial was recorded.
    #[must_use]
    pub fn ratio(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.accepted as f64 / self.total as f64
        }
    }

    /// Merges another counter into this one.
    pub fn merge(&mut self, other: &AcceptanceCounter) {
        self.accepted += other.accepted;
        self.total += other.total;
    }
}

/// The improvement metric of Figure 2,
/// `(δ_baseline − δ_candidate)/δ_baseline × 100 %`, where in the paper the
/// baseline is SingleCore and the candidate is HYDRA and the quantity
/// reported is the *reduction in rejected task sets*; the paper plots the
/// improvement of HYDRA over SingleCore, which is positive when HYDRA accepts
/// more task sets.
///
/// Here we follow the figure's caption literally with `baseline = SingleCore`
/// and `candidate = HYDRA` acceptance *failure* ratios: the improvement is
/// `(fail_single − fail_hydra)/fail_single × 100 %`, which is `0` when both
/// schemes accept everything and approaches `100 %` when HYDRA accepts
/// workloads SingleCore always rejects. When the baseline never fails the
/// improvement is defined as `0`.
#[must_use]
pub fn acceptance_improvement_percent(accept_hydra: f64, accept_single: f64) -> f64 {
    let fail_hydra = (1.0 - accept_hydra).max(0.0);
    let fail_single = (1.0 - accept_single).max(0.0);
    if fail_single <= f64::EPSILON {
        0.0
    } else {
        ((fail_single - fail_hydra) / fail_single * 100.0).clamp(-100.0, 100.0)
    }
}

/// The Figure 3 metric: relative difference in cumulative tightness,
/// `Δη = (η_OPT − η_HYDRA)/η_OPT × 100 %`. Zero when both are equal or when
/// the optimal value is zero.
#[must_use]
pub fn tightness_gap_percent(eta_optimal: f64, eta_hydra: f64) -> f64 {
    if eta_optimal <= f64::EPSILON {
        0.0
    } else {
        ((eta_optimal - eta_hydra) / eta_optimal * 100.0).max(0.0)
    }
}

/// Arithmetic mean of a slice; `0` for an empty slice.
#[must_use]
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// The `p`-th percentile (0–100) of a slice using linear interpolation;
/// `0` for an empty slice.
///
/// Clones and sorts the input. On a hot path where the caller already holds
/// sorted data, use [`percentile_sorted`] instead.
///
/// # Panics
///
/// Panics if `p` is not within `[0, 100]`.
#[must_use]
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        assert!((0.0..=100.0).contains(&p), "percentile must be in [0, 100]");
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    percentile_sorted(&sorted, p)
}

/// The `p`-th percentile (0–100) of an **already ascending-sorted** slice
/// using linear interpolation; `0` for an empty slice. No allocation, no
/// re-sort — the hot-path sibling of [`percentile`].
///
/// # Panics
///
/// Panics if `p` is not within `[0, 100]`. Debug builds additionally assert
/// that the slice is sorted.
#[must_use]
pub fn percentile_sorted(values: &[f64], p: f64) -> f64 {
    assert!((0.0..=100.0).contains(&p), "percentile must be in [0, 100]");
    debug_assert!(
        values.windows(2).all(|w| w[0] <= w[1]),
        "percentile_sorted requires ascending-sorted input"
    );
    match values {
        [] => 0.0,
        [only] => *only,
        _ => {
            let rank = p / 100.0 * (values.len() - 1) as f64;
            let lo = rank.floor() as usize;
            let hi = rank.ceil() as usize;
            let frac = rank - lo as f64;
            values[lo] + (values[hi] - values[lo]) * frac
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn acceptance_counter_basics() {
        let mut c = AcceptanceCounter::new();
        assert_eq!(c.ratio(), 0.0);
        c.record(true);
        c.record(true);
        c.record(false);
        assert_eq!(c.accepted(), 2);
        assert_eq!(c.total(), 3);
        assert!((c.ratio() - 2.0 / 3.0).abs() < 1e-12);
        let mut d = AcceptanceCounter::new();
        d.record(false);
        c.merge(&d);
        assert_eq!(c.total(), 4);
        assert!((c.ratio() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn improvement_is_zero_when_both_accept_everything() {
        assert_eq!(acceptance_improvement_percent(1.0, 1.0), 0.0);
    }

    #[test]
    fn improvement_is_large_when_hydra_rescues_rejected_sets() {
        // SingleCore accepts 20%, HYDRA accepts 90%: HYDRA removes 7/8 of the
        // failures.
        let imp = acceptance_improvement_percent(0.9, 0.2);
        assert!((imp - 87.5).abs() < 1e-9);
    }

    #[test]
    fn improvement_can_be_negative_when_hydra_is_worse() {
        let imp = acceptance_improvement_percent(0.5, 0.75);
        assert!(imp < 0.0);
        assert!(imp >= -100.0);
    }

    #[test]
    fn tightness_gap_basics() {
        assert_eq!(tightness_gap_percent(0.0, 0.0), 0.0);
        assert_eq!(tightness_gap_percent(2.0, 2.0), 0.0);
        assert!((tightness_gap_percent(2.0, 1.5) - 25.0).abs() < 1e-12);
        // The gap is clipped at zero: numerical noise must never make HYDRA
        // look better than optimal.
        assert_eq!(tightness_gap_percent(2.0, 2.0000001), 0.0);
    }

    #[test]
    fn mean_and_percentile() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert!((mean(&v) - 2.5).abs() < 1e-12);
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
        assert_eq!(percentile(&[7.0], 90.0), 7.0);
        assert!((percentile(&v, 0.0) - 1.0).abs() < 1e-12);
        assert!((percentile(&v, 100.0) - 4.0).abs() < 1e-12);
        assert!((percentile(&v, 50.0) - 2.5).abs() < 1e-12);
    }

    #[test]
    fn percentile_sorted_matches_percentile_on_sorted_input() {
        let unsorted = [4.0, 1.0, 3.0, 2.0, 9.0];
        let mut sorted = unsorted;
        sorted.sort_by(f64::total_cmp);
        for p in [0.0, 12.5, 50.0, 95.0, 100.0] {
            assert_eq!(percentile(&unsorted, p), percentile_sorted(&sorted, p));
        }
        assert_eq!(percentile_sorted(&[], 50.0), 0.0);
        assert_eq!(percentile_sorted(&[7.0], 90.0), 7.0);
    }

    #[test]
    #[should_panic(expected = "percentile must be in")]
    fn percentile_sorted_out_of_range_panics() {
        let _ = percentile_sorted(&[1.0], -1.0);
    }

    #[test]
    #[should_panic(expected = "percentile must be in")]
    fn percentile_out_of_range_panics() {
        let _ = percentile(&[1.0], 150.0);
    }
}
