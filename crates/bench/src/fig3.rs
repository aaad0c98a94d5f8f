//! Figure 3: difference in cumulative tightness between HYDRA and the optimal
//! (exhaustive) allocation, for a small platform (M = 2, N_S ∈ [2, 6]).
//!
//! The experiment is a declarative [`ScenarioSpec`] executed on the `rt-dse`
//! engine with the security task-count range restricted so the exhaustive
//! scheme stays tractable. Both schemes receive the **identical task-set
//! instance** at every trial (shared seed addresses), and the engine's
//! paired-comparison aggregation reports the mean relative gap
//! `Δη = (η_OPT − η_HYDRA)/η_OPT × 100 %` over the task sets both schemes
//! schedule — exactly the Figure 3 y-axis.

use rt_dse::prelude::*;

use crate::report::{fmt3, fmt_pct, ResultTable};

/// Parameters of the Figure 3 experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig3Config {
    /// Number of cores (the paper uses 2 so the exhaustive search stays
    /// tractable).
    pub cores: usize,
    /// Range (inclusive) of the number of security tasks (the paper uses
    /// `[2, 6]`).
    pub security_tasks: (usize, usize),
    /// Random task sets per utilisation point.
    pub trials: usize,
    /// RNG seed.
    pub seed: u64,
    /// Optional cap on the number of utilisation points.
    pub max_points: Option<usize>,
}

impl Default for Fig3Config {
    fn default() -> Self {
        Fig3Config {
            cores: 2,
            security_tasks: (2, 6),
            trials: 100,
            seed: 2018,
            max_points: None,
        }
    }
}

impl Fig3Config {
    /// A reduced configuration for smoke tests and `--quick` runs.
    #[must_use]
    pub fn quick() -> Self {
        Fig3Config {
            trials: 10,
            max_points: Some(8),
            ..Fig3Config::default()
        }
    }

    /// The declarative sweep this experiment runs on the engine.
    #[must_use]
    pub fn spec(&self) -> ScenarioSpec {
        ScenarioSpec {
            name: "fig3_optimality_gap".to_owned(),
            workload: Workload::Synthetic(SyntheticOverrides {
                rt_tasks: None,
                security_tasks: Some(self.security_tasks),
            }),
            evaluation: Evaluation::Allocate,
            cores: vec![self.cores],
            utilizations: UtilizationGrid::Fractions(crate::capped_paper_fractions(
                self.max_points,
            )),
            allocators: vec![AllocatorKind::Hydra, AllocatorKind::Optimal],
            period_policies: vec![PeriodPolicy::Fixed],
            trials: self.trials,
            base_seed: self.seed,
            expansion: Expansion::Cartesian,
            explore: ExploreMode::Exhaustive,
        }
    }
}

/// One point of the Figure 3 series.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TightnessPoint {
    /// Total system utilisation of the generated task sets.
    pub utilization: f64,
    /// Number of task sets both schemes scheduled (the gap is averaged over
    /// these).
    pub compared: usize,
    /// Mean cumulative tightness achieved by HYDRA.
    pub hydra_tightness: f64,
    /// Mean cumulative tightness achieved by the optimal scheme.
    pub optimal_tightness: f64,
    /// Mean relative gap in percent (the Figure 3 y-axis).
    pub gap_percent: f64,
    /// Largest observed gap in percent.
    pub max_gap_percent: f64,
}

/// Runs the Figure 3 experiment on the parallel sweep engine.
///
/// Streams: the paired join folds outcome by outcome in a [`PairedSink`], so
/// no per-scenario outcome vector is ever retained.
#[must_use]
pub fn run(config: &Fig3Config) -> Vec<TightnessPoint> {
    let mut paired = PairedSink::new(AllocatorKind::Hydra, AllocatorKind::Optimal);
    SweepSession::new(config.spec())
        .run(&mut paired)
        .expect("a PairedSink never raises I/O errors");
    paired
        .into_points()
        .into_iter()
        .map(|p| TightnessPoint {
            utilization: p.utilization.unwrap_or(0.0),
            compared: p.compared,
            hydra_tightness: p.a_tightness,
            optimal_tightness: p.b_tightness,
            // Optimal dominates HYDRA by construction; the clamp only absorbs
            // floating-point noise on equal allocations (matching
            // `hydra_core::metrics::tightness_gap_percent`).
            gap_percent: p.mean_gap_percent.max(0.0),
            max_gap_percent: p.max_gap_percent.max(0.0),
        })
        .collect()
}

/// Renders the Figure 3 series as a table.
#[must_use]
pub fn tightness_table(points: &[TightnessPoint]) -> ResultTable {
    let mut table = ResultTable::new(
        "Figure 3 — cumulative-tightness gap, HYDRA vs Optimal (M = 2, Ns ≤ 6)",
        &[
            "total_utilization",
            "compared",
            "hydra_tightness",
            "optimal_tightness",
            "mean_gap_percent",
            "max_gap_percent",
        ],
    );
    for p in points {
        table.push_row(vec![
            fmt3(p.utilization),
            p.compared.to_string(),
            fmt3(p.hydra_tightness),
            fmt3(p.optimal_tightness),
            fmt_pct(p.gap_percent),
            fmt_pct(p.max_gap_percent),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_run_produces_points_with_sound_gaps() {
        let config = Fig3Config {
            trials: 5,
            max_points: Some(4),
            ..Fig3Config::quick()
        };
        let points = run(&config);
        assert_eq!(points.len(), 4);
        for p in &points {
            // Optimal never loses to HYDRA, so the gap is non-negative and
            // the mean optimal tightness is at least the mean HYDRA tightness
            // over the compared task sets.
            assert!(p.gap_percent >= 0.0);
            assert!(p.max_gap_percent >= p.gap_percent);
            if p.compared > 0 {
                assert!(p.optimal_tightness + 1e-9 >= p.hydra_tightness);
            }
        }
        assert_eq!(tightness_table(&points).len(), 4);
    }

    #[test]
    fn low_utilization_gap_is_negligible() {
        let config = Fig3Config {
            trials: 8,
            max_points: Some(2),
            ..Fig3Config::quick()
        };
        let points = run(&config);
        let low = &points[0];
        assert!(low.utilization < 0.3);
        assert!(low.compared > 0);
        assert!(
            low.gap_percent < 1.0,
            "gap {} % at utilisation {}",
            low.gap_percent,
            low.utilization
        );
    }

    #[test]
    fn the_spec_restricts_the_security_task_range() {
        let spec = Fig3Config::default().spec();
        let Workload::Synthetic(overrides) = spec.workload else {
            panic!("Figure 3 runs on synthetic workloads");
        };
        assert_eq!(overrides.security_tasks, Some((2, 6)));
        assert_eq!(spec.cores, vec![2]);
        assert_eq!(
            spec.allocators,
            vec![AllocatorKind::Hydra, AllocatorKind::Optimal]
        );
    }
}
