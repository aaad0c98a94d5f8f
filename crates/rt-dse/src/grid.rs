//! Expansion of a [`ScenarioSpec`] into concrete [`Scenario`] points.

use rand::Rng;
use taskgen::stream_rng;

use crate::scenario::Scenario;
use crate::spec::{Expansion, ScenarioSpec, Workload};

/// Salt mixed into the RNG used to *choose* sampled scenarios, so sampling
/// never shares a stream with problem generation.
const SAMPLE_SALT: u64 = 0x5ee1_ab1e_0000_0001;

/// The expanded scenario grid of one spec.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioGrid {
    scenarios: Vec<Scenario>,
}

impl ScenarioGrid {
    /// Expands `spec` into its scenario points.
    ///
    /// The full grid is the cartesian product
    /// `cores × utilizations × trials × allocators × period policies`,
    /// enumerated in that nesting order (policy innermost). The *problem
    /// stream* — the seed address task-set generation uses — is derived from
    /// the position along the first three axes only, so every allocator and
    /// every period policy sees the identical problem instance at a given
    /// `(cores, utilization, trial)` point.
    ///
    /// With [`Expansion::Sampled`], a deterministic subset of at most the
    /// requested size is drawn (seeded from the spec's base seed) while
    /// preserving grid order and stream addresses.
    #[must_use]
    pub fn expand(spec: &ScenarioSpec) -> Self {
        let mut scenarios = Vec::new();
        let mut problem_stream = 0u64;
        for &cores in &spec.cores {
            // The utilization axis is owned by the workload: a fixed workload
            // (UAV case study) evaluates the identical problem regardless of
            // any configured grid, so it always expands exactly one pseudo
            // point — never N copies mislabelled with distinct utilizations.
            // Conversely a synthetic workload *needs* the axis: marking it
            // `NotApplicable` expands zero points rather than panicking in a
            // worker thread later.
            let utils: Vec<Option<f64>> = match &spec.workload {
                Workload::CaseStudyUav => vec![None],
                Workload::Synthetic(_) => spec
                    .utilizations
                    .points(cores)
                    .into_iter()
                    .map(Some)
                    .collect(),
            };
            for utilization in utils {
                for trial in 0..spec.trials.max(1) {
                    for &allocator in &spec.allocators {
                        for &policy in &spec.period_policies {
                            scenarios.push(Scenario {
                                index: scenarios.len(),
                                cores,
                                utilization,
                                allocator,
                                policy,
                                trial,
                                problem_stream,
                            });
                        }
                    }
                    problem_stream += 1;
                }
            }
        }
        if let Expansion::Sampled(target) = spec.expansion {
            if target < scenarios.len() {
                // Deterministic partial Fisher–Yates: draw `target` distinct
                // positions, then restore grid order and re-index.
                let mut rng = stream_rng(spec.base_seed, SAMPLE_SALT);
                let mut positions: Vec<usize> = (0..scenarios.len()).collect();
                for i in 0..target {
                    let j = rng.gen_range(i..positions.len());
                    positions.swap(i, j);
                }
                let mut chosen: Vec<usize> = positions[..target].to_vec();
                chosen.sort_unstable();
                scenarios = chosen
                    .into_iter()
                    .enumerate()
                    .map(|(new_index, old)| Scenario {
                        index: new_index,
                        ..scenarios[old]
                    })
                    .collect();
            }
        }

        ScenarioGrid { scenarios }
    }

    /// The scenario points, in deterministic grid order.
    #[must_use]
    pub fn scenarios(&self) -> &[Scenario] {
        &self.scenarios
    }

    /// Consumes the grid, returning its points.
    #[must_use]
    pub fn into_scenarios(self) -> Vec<Scenario> {
        self.scenarios
    }

    /// Number of points after sampling.
    #[must_use]
    pub fn len(&self) -> usize {
        self.scenarios.len()
    }

    /// Whether the grid is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.scenarios.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{AllocatorKind, Expansion, ScenarioSpec, UtilizationGrid};

    fn small_spec() -> ScenarioSpec {
        let mut spec = ScenarioSpec::synthetic("test");
        spec.cores = vec![2, 4];
        spec.utilizations = UtilizationGrid::NormalizedSteps(3);
        spec.allocators = vec![AllocatorKind::Hydra, AllocatorKind::SingleCore];
        spec.trials = 2;
        spec
    }

    #[test]
    fn cartesian_product_has_the_expected_size_and_order() {
        let grid = ScenarioGrid::expand(&small_spec());
        // 2 cores × 3 utils × 2 trials × 2 allocators.
        assert_eq!(grid.len(), 24);
        for (i, s) in grid.scenarios().iter().enumerate() {
            assert_eq!(s.index, i);
        }
        // Allocator is the innermost axis: consecutive pairs share streams.
        let s = grid.scenarios();
        for pair in s.chunks(2) {
            assert_eq!(pair[0].problem_stream, pair[1].problem_stream);
            assert_ne!(pair[0].allocator, pair[1].allocator);
            assert_eq!(pair[0].cores, pair[1].cores);
            assert_eq!(pair[0].utilization, pair[1].utilization);
        }
    }

    #[test]
    fn period_policy_axis_is_innermost_and_shares_seed_addresses() {
        use crate::spec::PeriodPolicy;
        let mut spec = small_spec();
        spec.period_policies = vec![
            PeriodPolicy::Fixed,
            PeriodPolicy::Adapt,
            PeriodPolicy::Joint,
        ];
        let grid = ScenarioGrid::expand(&spec);
        // 2 cores × 3 utils × 2 trials × 2 allocators × 3 policies.
        assert_eq!(grid.len(), 72);
        // Policy is the innermost axis: consecutive triplets share the
        // allocator and the problem stream, differing only in policy.
        for triple in grid.scenarios().chunks(3) {
            assert_eq!(triple[0].policy, PeriodPolicy::Fixed);
            assert_eq!(triple[1].policy, PeriodPolicy::Adapt);
            assert_eq!(triple[2].policy, PeriodPolicy::Joint);
            for s in &triple[1..] {
                assert_eq!(s.allocator, triple[0].allocator);
                assert_eq!(s.problem_stream, triple[0].problem_stream);
                assert_eq!(s.cores, triple[0].cores);
                assert_eq!(s.utilization, triple[0].utilization);
                assert_eq!(s.trial, triple[0].trial);
            }
        }
    }

    #[test]
    fn an_empty_policy_axis_expands_to_nothing() {
        let mut spec = small_spec();
        spec.period_policies = Vec::new();
        assert!(ScenarioGrid::expand(&spec).is_empty());
    }

    #[test]
    fn problem_streams_are_unique_per_point() {
        let grid = ScenarioGrid::expand(&small_spec());
        let mut streams: Vec<u64> = grid
            .scenarios()
            .iter()
            .filter(|s| s.allocator == AllocatorKind::Hydra)
            .map(|s| s.problem_stream)
            .collect();
        let n = streams.len();
        streams.sort_unstable();
        streams.dedup();
        assert_eq!(streams.len(), n);
    }

    #[test]
    fn sampling_is_deterministic_and_preserves_addresses() {
        let mut spec = small_spec();
        spec.expansion = Expansion::Sampled(10);
        let a = ScenarioGrid::expand(&spec);
        let b = ScenarioGrid::expand(&spec);
        assert_eq!(a, b);
        assert_eq!(a.len(), 10);
        // Sampled points carry the stream address they had in the full grid.
        let full = ScenarioGrid::expand(&small_spec());
        for s in a.scenarios() {
            assert!(full.scenarios().iter().any(|f| {
                f.cores == s.cores
                    && f.utilization == s.utilization
                    && f.trial == s.trial
                    && f.allocator == s.allocator
                    && f.policy == s.policy
                    && f.problem_stream == s.problem_stream
            }));
        }
    }

    #[test]
    fn sampling_larger_than_grid_is_a_no_op() {
        let mut spec = small_spec();
        spec.expansion = Expansion::Sampled(1000);
        assert_eq!(ScenarioGrid::expand(&spec).len(), 24);
    }

    #[test]
    fn fixed_workloads_expand_without_a_utilization_axis() {
        let spec = ScenarioSpec::uav_detection("fig1", 60, 10);
        let grid = ScenarioGrid::expand(&spec);
        // 3 core counts × 2 allocators × 1 trial.
        assert_eq!(grid.len(), 6);
        assert!(grid.scenarios().iter().all(|s| s.utilization.is_none()));
    }

    #[test]
    fn fixed_workloads_ignore_a_configured_utilization_grid() {
        // A utilization axis on the UAV workload would only relabel copies
        // of the identical problem — the expander collapses it to one point.
        let mut spec = ScenarioSpec::uav_detection("fig1", 60, 10);
        spec.utilizations = UtilizationGrid::Fractions(vec![0.2, 0.5, 0.8]);
        let grid = ScenarioGrid::expand(&spec);
        assert_eq!(grid.len(), 6);
        assert!(grid.scenarios().iter().all(|s| s.utilization.is_none()));
    }

    #[test]
    fn synthetic_without_a_utilization_axis_expands_to_nothing() {
        // Synthetic generation needs a utilization; marking the axis
        // inapplicable yields an empty grid instead of a worker panic.
        let mut spec = small_spec();
        spec.utilizations = UtilizationGrid::NotApplicable;
        let grid = ScenarioGrid::expand(&spec);
        assert!(grid.is_empty());
    }
}
