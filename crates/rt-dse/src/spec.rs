//! Declarative description of a design-space sweep.
//!
//! A [`ScenarioSpec`] names the *axes* of an exploration — core counts,
//! utilization grid, allocation schemes, trial counts and the base seed —
//! and the engine turns it into concrete scenario points, evaluates them in
//! parallel and aggregates the results. The paper's whole evaluation
//! (Figures 1–3) is expressible as three such specs.

use hydra_core::allocator::{Allocator, HydraAllocator, OptimalAllocator, SingleCoreAllocator};
use hydra_core::precedence::{table1_precedence, PrecedenceGraph};
use hydra_core::{readapt_allocation_with_mode, JointOptions};
use hydra_core::{Allocation, AllocationProblem, NpHydraAllocator, PrecedenceHydraAllocator};
use rt_core::batch::BatchMode;
use taskgen::SyntheticConfig;

/// The allocation schemes the sweep engine can compare.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum AllocatorKind {
    /// The paper's contribution: iterative best-fit with period adaptation.
    Hydra,
    /// The baseline: one core dedicated to security tasks.
    SingleCore,
    /// HYDRA with non-preemptive security-task execution.
    NpHydra,
    /// HYDRA honouring a precedence order between security tasks.
    Precedence,
    /// The exhaustive optimal allocation (exponential; small instances only).
    Optimal,
}

impl AllocatorKind {
    /// Every scheme, in canonical order.
    pub const ALL: [AllocatorKind; 5] = [
        AllocatorKind::Hydra,
        AllocatorKind::SingleCore,
        AllocatorKind::NpHydra,
        AllocatorKind::Precedence,
        AllocatorKind::Optimal,
    ];

    /// Stable lower-case label used in output records and CLI flags.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            AllocatorKind::Hydra => "hydra",
            AllocatorKind::SingleCore => "singlecore",
            AllocatorKind::NpHydra => "nphydra",
            AllocatorKind::Precedence => "precedence",
            AllocatorKind::Optimal => "optimal",
        }
    }

    /// Parses a label (as produced by [`AllocatorKind::label`], case
    /// insensitive; `single_core` and `single-core` are accepted aliases).
    #[must_use]
    pub fn parse(s: &str) -> Option<Self> {
        match s.to_ascii_lowercase().replace(['-', '_'], "").as_str() {
            "hydra" => Some(AllocatorKind::Hydra),
            "singlecore" | "single" => Some(AllocatorKind::SingleCore),
            "nphydra" | "np" => Some(AllocatorKind::NpHydra),
            "precedence" | "prec" => Some(AllocatorKind::Precedence),
            "optimal" | "opt" => Some(AllocatorKind::Optimal),
            _ => None,
        }
    }

    /// Whether this scheme's granted periods may be re-optimised after
    /// allocation by the [`PeriodPolicy::Adapt`]/[`PeriodPolicy::Joint`]
    /// passes, which work per core under the base preemptive model of
    /// Eq. (5)/(7).
    ///
    /// The precedence scheme is excluded: it guarantees every successor's
    /// period is at least its predecessor's *across cores*, an invariant a
    /// per-core pass cannot see, let alone preserve. Its allocations keep
    /// the granted periods under every policy. (The non-preemptive scheme
    /// stays eligible — re-optimised periods ignore its blocking term and
    /// are documented as an upper bound, but no hard ordering invariant
    /// breaks.)
    #[must_use]
    pub fn supports_period_reoptimization(self) -> bool {
        !matches!(self, AllocatorKind::Precedence)
    }

    /// Builds the allocator for a problem with `security_task_count` tasks.
    ///
    /// The precedence scheme receives the Table I precedence graph when the
    /// workload is the UAV case study (whose security set *is* Table I), and
    /// an unconstrained graph of the right size otherwise.
    #[must_use]
    pub fn build(self, security_task_count: usize, workload: &Workload) -> Box<dyn Allocator> {
        match self {
            AllocatorKind::Hydra => Box::new(HydraAllocator::default()),
            AllocatorKind::SingleCore => Box::new(SingleCoreAllocator::default()),
            AllocatorKind::NpHydra => Box::new(NpHydraAllocator::new()),
            AllocatorKind::Precedence => {
                let graph = match workload {
                    Workload::CaseStudyUav => table1_precedence(),
                    Workload::Synthetic(_) => PrecedenceGraph::new(security_task_count),
                };
                Box::new(PrecedenceHydraAllocator::new(graph))
            }
            AllocatorKind::Optimal => Box::new(OptimalAllocator::default()),
        }
    }
}

/// What happens to the security-task periods **after** an allocation scheme
/// has placed the tasks — the *period policy* axis of the design space.
///
/// The DATE 2018 paper fixes each period at allocation time; the follow-up
/// "Period Adaptation for Continuous Security Monitoring in Multicore
/// Real-Time Systems" (Hasan et al., 2019) shows that re-optimising periods
/// once the assignment is known changes the achievable monitoring frequency.
/// Scenarios that differ only in this axis share their seed address *and*
/// their allocator, so policy comparisons are paired exactly like the
/// allocator axis.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum PeriodPolicy {
    /// Keep the periods the allocator granted (the paper's behaviour).
    Fixed,
    /// Re-run the closed-form Eq. (7) adaptation per core in priority order
    /// (greedy smallest feasible periods given the final assignment).
    Adapt,
    /// Jointly re-optimise every core's period vector with the
    /// coordinate-ascent refinement of `hydra_core::joint` — may stretch a
    /// high-priority period to recover cumulative tightness below it.
    Joint,
}

impl PeriodPolicy {
    /// Every policy, in canonical order.
    pub const ALL: [PeriodPolicy; 3] = [
        PeriodPolicy::Fixed,
        PeriodPolicy::Adapt,
        PeriodPolicy::Joint,
    ];

    /// Stable lower-case label used in output records and CLI flags.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            PeriodPolicy::Fixed => "fixed",
            PeriodPolicy::Adapt => "adapt",
            PeriodPolicy::Joint => "joint",
        }
    }

    /// Parses a label (as produced by [`PeriodPolicy::label`], case
    /// insensitive).
    #[must_use]
    pub fn parse(s: &str) -> Option<Self> {
        match s.to_ascii_lowercase().replace(['-', '_'], "").as_str() {
            "fixed" | "none" => Some(PeriodPolicy::Fixed),
            "adapt" | "adaptive" | "greedy" => Some(PeriodPolicy::Adapt),
            "joint" => Some(PeriodPolicy::Joint),
            _ => None,
        }
    }

    /// Applies the policy to a finished allocation: [`PeriodPolicy::Fixed`]
    /// is the identity, the other two are post-allocation re-optimisation
    /// passes over the same core assignment (see
    /// [`hydra_core::readapt_allocation`]).
    #[must_use]
    pub fn apply(self, problem: &AllocationProblem, allocation: Allocation) -> Allocation {
        self.apply_with_mode(problem, allocation, BatchMode::Batch)
    }

    /// [`PeriodPolicy::apply`] with an explicit kernel [`BatchMode`] for the
    /// per-core joint optimisation. Both modes produce bit-identical
    /// allocations (pinned by the engine's determinism tests).
    #[must_use]
    pub fn apply_with_mode(
        self,
        problem: &AllocationProblem,
        allocation: Allocation,
        mode: BatchMode,
    ) -> Allocation {
        match self {
            PeriodPolicy::Fixed => allocation,
            PeriodPolicy::Adapt => readapt_allocation_with_mode(
                problem,
                &allocation,
                &JointOptions::greedy_only(),
                mode,
            ),
            PeriodPolicy::Joint => {
                readapt_allocation_with_mode(problem, &allocation, &JointOptions::default(), mode)
            }
        }
    }
}

/// Overrides applied on top of [`SyntheticConfig::paper_default`] for each
/// core count in the sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SyntheticOverrides {
    /// Overrides the real-time task-count range.
    pub rt_tasks: Option<(usize, usize)>,
    /// Overrides the security task-count range (Figure 3 restricts this to
    /// `[2, 6]` so the exhaustive scheme stays tractable).
    pub security_tasks: Option<(usize, usize)>,
}

impl SyntheticOverrides {
    /// Materialises the synthetic-generator configuration for `cores`.
    #[must_use]
    pub fn config_for(self, cores: usize) -> SyntheticConfig {
        let mut config = SyntheticConfig::paper_default(cores);
        if let Some(rt) = self.rt_tasks {
            config.rt_tasks = rt;
        }
        if let Some(sec) = self.security_tasks {
            config.security_tasks = sec;
        }
        config
    }

    /// A stable fingerprint of the overrides, mixed into problem cache keys.
    #[must_use]
    pub(crate) fn fingerprint(self) -> u64 {
        let enc = |r: Option<(usize, usize)>| match r {
            None => 0u64,
            Some((a, b)) => 1 | (a as u64) << 1 | (b as u64) << 32,
        };
        enc(self.rt_tasks) ^ enc(self.security_tasks).rotate_left(17)
    }
}

/// What task sets a sweep runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Synthetic task sets with the Section IV-B parameters (plus overrides),
    /// one fresh set per `(cores, utilization, trial)` address.
    Synthetic(SyntheticOverrides),
    /// The fixed UAV control system with the Table I security tasks,
    /// real-time tasks spread worst-fit across all cores.
    CaseStudyUav,
}

impl Workload {
    /// The real-time partitioning policy of the UAV case study: worst-fit
    /// (load balancing) with exact response-time admission, so the real-time
    /// tasks are spread across all cores as the paper assumes for HYDRA.
    /// This is the single source of truth — the engine applies it to every
    /// [`Workload::CaseStudyUav`] problem, and the `hydra-bench` Figure 1
    /// driver re-exports it.
    #[must_use]
    pub fn uav_partition_config() -> rt_partition::PartitionConfig {
        rt_partition::PartitionConfig::new(
            rt_partition::Heuristic::WorstFit,
            rt_partition::AdmissionTest::ResponseTime,
        )
    }
}

/// The utilization axis of a sweep.
#[derive(Debug, Clone, PartialEq)]
pub enum UtilizationGrid {
    /// The paper's 39-point sweep: `0.025·M, 0.05·M, …, 0.975·M`.
    PaperSweep,
    /// An evenly spaced grid of `steps` points over `(0, 0.975·M]`,
    /// normalised per core count (each value is multiplied by `M`).
    NormalizedSteps(usize),
    /// Explicit per-core-normalised fractions (each multiplied by `M`).
    Fractions(Vec<f64>),
    /// Explicit absolute total utilizations, used as-is for every core count.
    Absolute(Vec<f64>),
    /// No utilization axis (fixed workloads such as the UAV case study).
    NotApplicable,
}

impl UtilizationGrid {
    /// Expands the axis for a platform with `cores` cores. Returns `None`
    /// entries never — an inapplicable axis expands to a single `None`-like
    /// sentinel handled by the grid expander.
    #[must_use]
    pub fn points(&self, cores: usize) -> Vec<f64> {
        match self {
            UtilizationGrid::PaperSweep => {
                (1..=39).map(|i| 0.025 * i as f64 * cores as f64).collect()
            }
            UtilizationGrid::NormalizedSteps(steps) => {
                let steps = (*steps).max(1);
                (1..=steps)
                    .map(|i| 0.975 * i as f64 / steps as f64 * cores as f64)
                    .collect()
            }
            UtilizationGrid::Fractions(fractions) => {
                fractions.iter().map(|f| f * cores as f64).collect()
            }
            UtilizationGrid::Absolute(values) => values.clone(),
            UtilizationGrid::NotApplicable => Vec::new(),
        }
    }
}

/// What the engine measures at each scenario point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Evaluation {
    /// Run the allocator and record schedulability plus tightness metrics.
    Allocate,
    /// Allocate, simulate the resulting schedule, inject attacks and record
    /// detection-latency statistics (the Figure 1 pipeline).
    Detection {
        /// Simulated observation window (full `Time` resolution; sub-second
        /// horizons are honoured, not truncated).
        horizon: rt_core::Time,
        /// Number of injected attacks per scenario.
        attacks: usize,
    },
}

/// How the axes combine into scenario points.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Expansion {
    /// The full cartesian product of all axes.
    Cartesian,
    /// A deterministic random subset of the cartesian product with at most
    /// this many points (seeded from the spec's base seed).
    Sampled(usize),
}

/// Tuning knobs of the frontier-seeking exploration mode (see
/// [`ExploreMode::Frontier`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrontierConfig {
    /// Refinement points spent per slice *after* the bisection has located
    /// the acceptance cliff: half bracket the cliff outward on the reference
    /// grid, half are low-discrepancy samples over the unprobed remainder of
    /// the utilization axis.
    pub refine_budget: usize,
}

impl Default for FrontierConfig {
    fn default() -> Self {
        FrontierConfig { refine_budget: 8 }
    }
}

/// Which utilization-axis points of the reference grid a sweep evaluates.
///
/// The reference grid — [`ScenarioSpec::utilizations`] expanded per core
/// count — always defines the *addressable* points; the explore mode decides
/// which of them are worth evaluating. [`ExploreMode::Frontier`] replaces
/// the exhaustive enumeration with a deterministic cliff search: per
/// `(cores, allocator, policy)` slice it bisects the utilization axis for
/// the acceptance-ratio cliff and spends [`FrontierConfig::refine_budget`]
/// extra points around it. The schedule derives only from the spec
/// fingerprint plus already-committed round results, so adaptive runs stay
/// byte-identical across thread counts and shard/resume boundaries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExploreMode {
    /// Evaluate every reference-grid point (the classic cartesian sweep).
    Exhaustive,
    /// Binary-search each slice's acceptance cliff, then refine around it.
    Frontier(FrontierConfig),
}

/// A complete, declarative description of one design-space sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSpec {
    /// Sweep name; used for output file stems.
    pub name: String,
    /// Workload source.
    pub workload: Workload,
    /// Measurement pipeline.
    pub evaluation: Evaluation,
    /// Core counts to explore.
    pub cores: Vec<usize>,
    /// Utilization axis.
    pub utilizations: UtilizationGrid,
    /// Allocation schemes to compare.
    pub allocators: Vec<AllocatorKind>,
    /// Period policies to compare (post-allocation period handling). Policy
    /// variants of one point share the allocator *and* the seed address, so
    /// the comparison is paired.
    pub period_policies: Vec<PeriodPolicy>,
    /// Independent task sets per `(cores, utilization)` point.
    pub trials: usize,
    /// Base seed; every scenario derives its own independent sub-seed.
    pub base_seed: u64,
    /// Cartesian or sampled expansion.
    pub expansion: Expansion,
    /// Exploration strategy over the utilization axis: exhaustive grid
    /// enumeration or the frontier-seeking cliff search. Part of the sweep
    /// fingerprint, so checkpoints from one mode never resume the other.
    pub explore: ExploreMode,
}

impl ScenarioSpec {
    /// A synthetic allocate-only sweep with the paper's defaults; the usual
    /// starting point, customised by mutating fields.
    #[must_use]
    pub fn synthetic(name: impl Into<String>) -> Self {
        ScenarioSpec {
            name: name.into(),
            workload: Workload::Synthetic(SyntheticOverrides::default()),
            evaluation: Evaluation::Allocate,
            cores: vec![2, 4, 8],
            utilizations: UtilizationGrid::PaperSweep,
            allocators: vec![AllocatorKind::Hydra, AllocatorKind::SingleCore],
            period_policies: vec![PeriodPolicy::Fixed],
            trials: 25,
            base_seed: 2018,
            expansion: Expansion::Cartesian,
            explore: ExploreMode::Exhaustive,
        }
    }

    /// The UAV case-study detection sweep (the Figure 1 pipeline).
    #[must_use]
    pub fn uav_detection(name: impl Into<String>, horizon_secs: u64, attacks: usize) -> Self {
        ScenarioSpec {
            name: name.into(),
            workload: Workload::CaseStudyUav,
            evaluation: Evaluation::Detection {
                horizon: rt_core::Time::from_secs(horizon_secs),
                attacks,
            },
            cores: vec![2, 4, 8],
            utilizations: UtilizationGrid::NotApplicable,
            allocators: vec![AllocatorKind::Hydra, AllocatorKind::SingleCore],
            period_policies: vec![PeriodPolicy::Fixed],
            trials: 1,
            base_seed: 2018,
            expansion: Expansion::Cartesian,
            explore: ExploreMode::Exhaustive,
        }
    }

    /// Refuses a spec the engine cannot run as written, instead of letting
    /// it stream a wrong or empty result: zero trials, or a frontier search
    /// that has no utilization axis to bisect or is asked to sample the
    /// grid (the frontier plans its own points). The CLI, the server and
    /// [`crate::SweepSession`] all apply it.
    ///
    /// # Errors
    ///
    /// A human-readable reason naming the offending setting.
    pub fn validate(&self) -> Result<(), String> {
        if self.trials == 0 {
            return Err("trials must be at least 1".to_owned());
        }
        if let ExploreMode::Frontier(_) = self.explore {
            if let Expansion::Sampled(_) = self.expansion {
                return Err(
                    "frontier exploration plans its own points and cannot sample the grid"
                        .to_owned(),
                );
            }
            let no_axis = match self.workload {
                Workload::CaseStudyUav => true,
                Workload::Synthetic(_) => self
                    .cores
                    .iter()
                    .all(|&cores| self.utilizations.points(cores).is_empty()),
            };
            if no_axis {
                return Err(
                    "frontier exploration needs a utilization axis to bisect, and this \
                     workload has none"
                        .to_owned(),
                );
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_round_trip_through_parse() {
        for kind in AllocatorKind::ALL {
            assert_eq!(AllocatorKind::parse(kind.label()), Some(kind));
        }
        assert_eq!(
            AllocatorKind::parse("single_core"),
            Some(AllocatorKind::SingleCore)
        );
        assert_eq!(
            AllocatorKind::parse("SINGLE-CORE"),
            Some(AllocatorKind::SingleCore)
        );
        assert_eq!(AllocatorKind::parse("bogus"), None);
    }

    #[test]
    fn policy_labels_round_trip_through_parse() {
        for policy in PeriodPolicy::ALL {
            assert_eq!(PeriodPolicy::parse(policy.label()), Some(policy));
        }
        assert_eq!(PeriodPolicy::parse("ADAPT"), Some(PeriodPolicy::Adapt));
        assert_eq!(PeriodPolicy::parse("greedy"), Some(PeriodPolicy::Adapt));
        assert_eq!(PeriodPolicy::parse("bogus"), None);
    }

    #[test]
    fn specs_default_to_the_fixed_policy() {
        assert_eq!(
            ScenarioSpec::synthetic("s").period_policies,
            vec![PeriodPolicy::Fixed]
        );
        assert_eq!(
            ScenarioSpec::uav_detection("u", 60, 10).period_policies,
            vec![PeriodPolicy::Fixed]
        );
    }

    #[test]
    fn paper_sweep_matches_the_39_points() {
        let points = UtilizationGrid::PaperSweep.points(4);
        assert_eq!(points.len(), 39);
        assert!((points[0] - 0.1).abs() < 1e-9);
        assert!((points[38] - 3.9).abs() < 1e-9);
    }

    #[test]
    fn normalized_steps_scale_with_cores() {
        let p2 = UtilizationGrid::NormalizedSteps(10).points(2);
        let p8 = UtilizationGrid::NormalizedSteps(10).points(8);
        assert_eq!(p2.len(), 10);
        assert!((p8[9] / p2[9] - 4.0).abs() < 1e-9);
        assert!((p2[9] - 0.975 * 2.0).abs() < 1e-9);
    }

    #[test]
    fn overrides_apply_on_top_of_paper_defaults() {
        let overrides = SyntheticOverrides {
            security_tasks: Some((2, 6)),
            rt_tasks: None,
        };
        let config = overrides.config_for(2);
        assert_eq!(config.security_tasks, (2, 6));
        assert_eq!(config.rt_tasks, (6, 20));
        assert_ne!(
            SyntheticOverrides::default().fingerprint(),
            overrides.fingerprint()
        );
    }

    #[test]
    fn builders_produce_named_allocators() {
        let workload = Workload::Synthetic(SyntheticOverrides::default());
        for kind in AllocatorKind::ALL {
            let allocator = kind.build(4, &workload);
            assert!(!allocator.name().is_empty());
        }
        // The UAV workload wires the Table I precedence graph in.
        let uav = AllocatorKind::Precedence.build(6, &Workload::CaseStudyUav);
        assert!(!uav.name().is_empty());
    }
}
