//! Figure 2: improvement in acceptance ratio of HYDRA over SingleCore on
//! synthetic task sets, swept over total system utilisation for 2, 4 and 8
//! cores.
//!
//! The experiment is a declarative [`ScenarioSpec`] executed on the `rt-dse`
//! engine: the engine generates `trials` task sets per `(cores, utilisation)`
//! point (Section IV-B parameters), discards those failing the necessary
//! condition of Eq. (1), offers the survivors to both schemes — **the same
//! task-set instance to each**, thanks to the engine's shared seed
//! addresses — and aggregates acceptance ratios. The reported series is the
//! improvement `(δ_single_fail − δ_hydra_fail)/δ_single_fail × 100 %`
//! together with the raw acceptance ratios (so the figure can be re-plotted
//! either way).

use hydra_core::metrics::acceptance_improvement_percent;
use rt_dse::prelude::*;

use crate::report::{fmt3, fmt_pct, ResultTable};

/// Parameters of the Figure 2 experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig2Config {
    /// Core counts to evaluate.
    pub cores: Vec<usize>,
    /// Random task sets generated per utilisation point (the paper uses 250).
    pub trials: usize,
    /// RNG seed.
    pub seed: u64,
    /// Optional cap on the number of utilisation points (`None` = the full
    /// 39-point sweep). Points are taken evenly from the full sweep.
    pub max_points: Option<usize>,
}

impl Default for Fig2Config {
    fn default() -> Self {
        Fig2Config {
            cores: vec![2, 4, 8],
            trials: 250,
            seed: 2018,
            max_points: None,
        }
    }
}

impl Fig2Config {
    /// A reduced configuration for smoke tests and `--quick` runs.
    #[must_use]
    pub fn quick() -> Self {
        Fig2Config {
            cores: vec![2],
            trials: 20,
            max_points: Some(8),
            ..Fig2Config::default()
        }
    }

    /// The declarative sweep this experiment runs on the engine.
    #[must_use]
    pub fn spec(&self) -> ScenarioSpec {
        ScenarioSpec {
            name: "fig2_acceptance".to_owned(),
            workload: Workload::Synthetic(SyntheticOverrides::default()),
            evaluation: Evaluation::Allocate,
            cores: self.cores.clone(),
            utilizations: UtilizationGrid::Fractions(crate::capped_paper_fractions(
                self.max_points,
            )),
            allocators: vec![AllocatorKind::Hydra, AllocatorKind::SingleCore],
            period_policies: vec![PeriodPolicy::Fixed],
            trials: self.trials,
            base_seed: self.seed,
            expansion: Expansion::Cartesian,
            explore: ExploreMode::Exhaustive,
        }
    }
}

/// One point of the Figure 2 series.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AcceptancePoint {
    /// Number of cores.
    pub cores: usize,
    /// Total system utilisation of the generated task sets.
    pub utilization: f64,
    /// Number of generated task sets that passed the Eq. (1) filter.
    pub evaluated: usize,
    /// Acceptance ratio of HYDRA.
    pub hydra: f64,
    /// Acceptance ratio of SingleCore.
    pub single_core: f64,
    /// Improvement metric plotted in Figure 2.
    pub improvement_percent: f64,
}

/// Runs the Figure 2 experiment on the parallel sweep engine and returns one
/// [`AcceptancePoint`] per `(cores, utilisation)` pair.
///
/// Streams: the engine folds per-worker partial aggregates online and never
/// retains the per-scenario outcomes, so paper-scale trial counts run in
/// bounded memory.
#[must_use]
pub fn run(config: &Fig2Config) -> Vec<AcceptancePoint> {
    let summary = SweepSession::new(config.spec())
        .run(&mut NullSink)
        .expect("a NullSink never raises I/O errors");
    points_from(&summary.partial.rows())
}

/// Builds the Figure 2 series from the engine's aggregate rows.
#[must_use]
pub fn points_from(rows: &[rt_dse::AggregateRow]) -> Vec<AcceptancePoint> {
    let row_for = |cores: usize, utilization: Option<f64>, kind: AllocatorKind| {
        rows.iter()
            .find(|r| r.cores == cores && r.utilization == utilization && r.allocator == kind)
    };
    rows.iter()
        .filter(|r| r.allocator == AllocatorKind::Hydra)
        .map(|hydra| {
            let single = row_for(hydra.cores, hydra.utilization, AllocatorKind::SingleCore)
                .expect("the spec runs SingleCore at every point HYDRA runs");
            AcceptancePoint {
                cores: hydra.cores,
                utilization: hydra.utilization.unwrap_or(0.0),
                evaluated: hydra.feasible,
                hydra: hydra.acceptance_ratio,
                single_core: single.acceptance_ratio,
                improvement_percent: acceptance_improvement_percent(
                    hydra.acceptance_ratio,
                    single.acceptance_ratio,
                ),
            }
        })
        .collect()
}

/// Renders the Figure 2 series as a table.
#[must_use]
pub fn acceptance_table(points: &[AcceptancePoint]) -> ResultTable {
    let mut table = ResultTable::new(
        "Figure 2 — acceptance ratio and improvement, HYDRA vs SingleCore",
        &[
            "cores",
            "total_utilization",
            "evaluated",
            "hydra_acceptance",
            "single_core_acceptance",
            "improvement_percent",
        ],
    );
    for p in points {
        table.push_row(vec![
            p.cores.to_string(),
            fmt3(p.utilization),
            p.evaluated.to_string(),
            fmt3(p.hydra),
            fmt3(p.single_core),
            fmt_pct(p.improvement_percent),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_sweep_produces_the_requested_points() {
        let config = Fig2Config {
            trials: 6,
            max_points: Some(5),
            cores: vec![2],
            ..Fig2Config::quick()
        };
        let points = run(&config);
        assert_eq!(points.len(), 5);
        for p in &points {
            assert_eq!(p.cores, 2);
            assert!(p.hydra >= 0.0 && p.hydra <= 1.0);
            assert!(p.single_core >= 0.0 && p.single_core <= 1.0);
        }
        assert_eq!(acceptance_table(&points).len(), 5);
    }

    #[test]
    fn low_utilization_is_accepted_by_both_schemes() {
        let config = Fig2Config {
            trials: 10,
            max_points: Some(2),
            cores: vec![2],
            ..Fig2Config::quick()
        };
        let points = run(&config);
        let low = &points[0];
        assert!(low.utilization < 0.3);
        assert!(
            low.hydra > 0.9,
            "HYDRA acceptance {} at U = {}",
            low.hydra,
            low.utilization
        );
        assert!((low.improvement_percent).abs() < 50.0);
    }

    #[test]
    fn hydra_accepts_at_least_as_many_tasksets_at_high_utilization() {
        let config = Fig2Config {
            trials: 15,
            max_points: Some(2),
            cores: vec![2],
            ..Fig2Config::quick()
        };
        let points = run(&config);
        let high = points.last().unwrap();
        assert!(high.utilization > 1.5);
        assert!(
            high.hydra >= high.single_core,
            "HYDRA {} vs SingleCore {} at U = {}",
            high.hydra,
            high.single_core,
            high.utilization
        );
    }

    #[test]
    fn full_sweep_has_39_points_per_core_count() {
        assert_eq!(crate::capped_paper_fractions(None).len(), 39);
        assert_eq!(crate::capped_paper_fractions(Some(10)).len(), 10);
        let spec = Fig2Config::default().spec();
        assert_eq!(spec.utilizations.points(8).len(), 39);
    }

    #[test]
    fn the_spec_pairs_both_schemes_on_shared_task_sets() {
        let spec = Fig2Config::quick().spec();
        let grid = rt_dse::ScenarioGrid::expand(&spec);
        for pair in grid.scenarios().chunks(2) {
            assert_eq!(pair[0].problem_stream, pair[1].problem_stream);
            assert_ne!(pair[0].allocator, pair[1].allocator);
        }
    }
}
