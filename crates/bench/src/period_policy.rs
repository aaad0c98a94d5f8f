//! Period-policy comparison: the tightness CDF per post-allocation period
//! policy (fixed / adapt / joint), in the spirit of the follow-up paper
//! "Period Adaptation for Continuous Security Monitoring in Multicore
//! Real-Time Systems" (Hasan et al., 2019).
//!
//! The experiment is a thin declarative [`ScenarioSpec`] on the `rt-dse`
//! engine: one allocator (HYDRA), the full three-policy axis, and a
//! synthetic utilization sweep. Policy variants of every point share the
//! identical task-set instance (same seed address, same allocator), so the
//! per-policy CDFs are paired sample for sample — the difference between two
//! curves is purely the policy.

use rt_dse::prelude::*;
use rt_dse::OutcomeSink;
use rt_dse::ScenarioOutcome;

use crate::report::{fmt3, ResultTable};

/// Parameters of the period-policy comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct PeriodPolicyConfig {
    /// Core counts to sweep.
    pub cores: Vec<usize>,
    /// Random task sets per utilisation point.
    pub trials: usize,
    /// RNG seed.
    pub seed: u64,
    /// Optional cap on the number of utilisation points.
    pub max_points: Option<usize>,
}

impl Default for PeriodPolicyConfig {
    fn default() -> Self {
        PeriodPolicyConfig {
            cores: vec![2, 4],
            trials: 100,
            seed: 2019,
            max_points: None,
        }
    }
}

impl PeriodPolicyConfig {
    /// A reduced configuration for smoke tests and `--quick` runs.
    #[must_use]
    pub fn quick() -> Self {
        PeriodPolicyConfig {
            cores: vec![2],
            trials: 10,
            max_points: Some(8),
            ..PeriodPolicyConfig::default()
        }
    }

    /// The declarative sweep this experiment runs on the engine.
    #[must_use]
    pub fn spec(&self) -> ScenarioSpec {
        ScenarioSpec {
            name: "period_policy_cdf".to_owned(),
            workload: Workload::Synthetic(SyntheticOverrides::default()),
            evaluation: Evaluation::Allocate,
            cores: self.cores.clone(),
            utilizations: UtilizationGrid::Fractions(crate::capped_paper_fractions(
                self.max_points,
            )),
            allocators: vec![AllocatorKind::Hydra],
            period_policies: vec![
                PeriodPolicy::Fixed,
                PeriodPolicy::Adapt,
                PeriodPolicy::Joint,
            ],
            trials: self.trials,
            base_seed: self.seed,
            expansion: Expansion::Cartesian,
            explore: ExploreMode::Exhaustive,
        }
    }
}

/// The empirical tightness distribution of one period policy over every
/// scheduled scenario of the sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct PolicyCdf {
    /// The policy this curve belongs to.
    pub policy: PeriodPolicy,
    /// Cumulative-tightness samples, sorted ascending (the CDF support).
    pub samples: Vec<f64>,
    /// Mean of the samples.
    pub mean: f64,
    /// Mean achieved-vs-desired frequency ratio over the same scenarios.
    pub mean_freq_ratio: f64,
    /// Mean normalised period slack over the same scenarios.
    pub mean_period_slack: f64,
}

impl PolicyCdf {
    /// The p-th percentile of the tightness samples (`0` when empty).
    #[must_use]
    pub fn percentile(&self, p: f64) -> f64 {
        hydra_core::metrics::percentile_sorted(&self.samples, p)
    }

    /// Empirical CDF at tightness `x`: the fraction of scheduled scenarios
    /// with cumulative tightness ≤ `x`.
    #[must_use]
    pub fn cdf_at(&self, x: f64) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        let below = self.samples.partition_point(|&s| s <= x);
        below as f64 / self.samples.len() as f64
    }
}

/// Streaming sink folding scheduled outcomes into per-policy sample sets.
#[derive(Debug, Default)]
struct PolicyCdfSink {
    tightness: [Vec<f64>; 3],
    freq: [Vec<f64>; 3],
    slack: [Vec<f64>; 3],
}

fn policy_slot(policy: PeriodPolicy) -> usize {
    match policy {
        PeriodPolicy::Fixed => 0,
        PeriodPolicy::Adapt => 1,
        PeriodPolicy::Joint => 2,
    }
}

impl OutcomeSink for PolicyCdfSink {
    fn record(&mut self, outcome: &ScenarioOutcome) -> std::io::Result<()> {
        let slot = policy_slot(outcome.scenario.policy);
        if let Some(t) = outcome.cumulative_tightness {
            self.tightness[slot].push(t);
        }
        if let Some(f) = outcome.freq_ratio {
            self.freq[slot].push(f);
        }
        if let Some(s) = outcome.period_slack {
            self.slack[slot].push(s);
        }
        Ok(())
    }
}

/// Runs the period-policy comparison on the parallel sweep engine and
/// returns one CDF per policy, in [`PeriodPolicy::ALL`] order.
#[must_use]
pub fn run(config: &PeriodPolicyConfig) -> Vec<PolicyCdf> {
    let mut sink = PolicyCdfSink::default();
    SweepSession::new(config.spec())
        .run(&mut sink)
        .expect("an in-memory sink never raises I/O errors");
    PeriodPolicy::ALL
        .into_iter()
        .map(|policy| {
            let slot = policy_slot(policy);
            let mut samples = std::mem::take(&mut sink.tightness[slot]);
            samples.sort_by(f64::total_cmp);
            PolicyCdf {
                policy,
                mean: hydra_core::metrics::mean(&samples),
                mean_freq_ratio: hydra_core::metrics::mean(&sink.freq[slot]),
                mean_period_slack: hydra_core::metrics::mean(&sink.slack[slot]),
                samples,
            }
        })
        .collect()
}

/// Renders the per-policy tightness CDFs as a decile table (one row per
/// policy, columns p10 … p90 plus the summary means).
#[must_use]
pub fn cdf_table(cdfs: &[PolicyCdf]) -> ResultTable {
    let mut table = ResultTable::new(
        "Period-policy comparison — cumulative-tightness CDF per policy (HYDRA)",
        &[
            "policy",
            "scheduled",
            "p10",
            "p25",
            "p50",
            "p75",
            "p90",
            "mean",
            "mean_freq_ratio",
            "mean_period_slack",
        ],
    );
    for cdf in cdfs {
        table.push_row(vec![
            cdf.policy.label().to_owned(),
            cdf.samples.len().to_string(),
            fmt3(cdf.percentile(10.0)),
            fmt3(cdf.percentile(25.0)),
            fmt3(cdf.percentile(50.0)),
            fmt3(cdf.percentile(75.0)),
            fmt3(cdf.percentile(90.0)),
            fmt3(cdf.mean),
            fmt3(cdf.mean_freq_ratio),
            fmt3(cdf.mean_period_slack),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> PeriodPolicyConfig {
        PeriodPolicyConfig {
            cores: vec![2],
            trials: 6,
            max_points: Some(4),
            ..PeriodPolicyConfig::quick()
        }
    }

    #[test]
    fn policies_are_paired_and_joint_dominates_fixed() {
        let cdfs = run(&tiny());
        assert_eq!(cdfs.len(), 3);
        let [fixed, adapt, joint] = &cdfs[..] else {
            panic!("one CDF per policy");
        };
        // Paired sampling: every policy schedules the identical scenarios.
        assert_eq!(fixed.samples.len(), adapt.samples.len());
        assert_eq!(fixed.samples.len(), joint.samples.len());
        assert!(!fixed.samples.is_empty());
        // HYDRA's grants are already greedy-minimal, so adapt matches fixed
        // and joint never does worse on the mean.
        assert_eq!(fixed.samples, adapt.samples);
        assert!(joint.mean >= fixed.mean - 1e-12);
        // The secondary metrics are *not* monotonic across policies
        // (stretching a high-priority period can let the tasks below it run
        // faster), but they stay within their defined ranges.
        for cdf in [fixed, adapt, joint] {
            assert!((0.0..=1.0 + 1e-12).contains(&cdf.mean_freq_ratio));
            assert!((0.0..=1.0).contains(&cdf.mean_period_slack));
        }
    }

    #[test]
    fn cdf_queries_are_consistent() {
        let cdfs = run(&tiny());
        for cdf in &cdfs {
            assert!(cdf.samples.windows(2).all(|w| w[0] <= w[1]));
            assert_eq!(cdf.cdf_at(f64::INFINITY), 1.0);
            assert_eq!(cdf.cdf_at(-1.0), 0.0);
            let median = cdf.percentile(50.0);
            let at_median = cdf.cdf_at(median);
            assert!(
                (0.4..=1.0).contains(&at_median),
                "CDF({median}) = {at_median}"
            );
        }
        assert_eq!(cdf_table(&cdfs).len(), 3);
    }

    #[test]
    fn the_spec_carries_the_full_policy_axis() {
        let spec = PeriodPolicyConfig::default().spec();
        assert_eq!(spec.allocators, vec![AllocatorKind::Hydra]);
        assert_eq!(
            spec.period_policies,
            vec![
                PeriodPolicy::Fixed,
                PeriodPolicy::Adapt,
                PeriodPolicy::Joint
            ]
        );
    }
}
