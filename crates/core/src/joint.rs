//! Joint period optimisation for all security tasks sharing one core.
//!
//! HYDRA fixes periods one task at a time (each task gets the smallest
//! feasible period on its chosen core). The *optimal* baseline of Section
//! IV-B.2 instead enumerates every assignment and, per assignment, chooses
//! the whole period vector `T` that maximises the cumulative weighted
//! tightness `Σ ω_s · T_s^des / T_s` — occasionally it pays off to stretch a
//! high-priority security task's period beyond its individual optimum so that
//! the tasks below it suffer less interference.
//!
//! This module implements that per-core joint optimisation:
//!
//! 1. the *greedy* solution (every task at its smallest feasible period in
//!    priority order) — exactly what HYDRA would produce for the same
//!    assignment, and always a feasible starting point;
//! 2. a *coordinate-ascent refinement*: repeatedly sweep the tasks from the
//!    highest priority down, scanning a log-spaced grid of candidate periods
//!    for each task while re-optimising every lower-priority task greedily,
//!    and keep any change that improves the cumulative weighted tightness.
//!
//! The refinement never returns something worse than the greedy solution, so
//! the "optimal" allocator built on top of it is guaranteed to dominate HYDRA
//! on the same workload (the property the paper's Figure 3 relies on), while
//! approaching the true joint optimum closely for the small task counts used
//! in that experiment.

use rt_core::batch::{BatchMode, LANES};
use rt_core::Time;

use crate::allocation::{Allocation, AllocationProblem, SecurityPlacement};
use crate::batch::LaneBounds;
use crate::interference::{rt_interference_on, InterferenceBound};
use crate::period::minimize_linear_fractional;
use crate::security::SecurityTask;

/// Parameters of the coordinate-ascent refinement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JointOptions {
    /// Number of log-spaced candidate periods scanned per task per pass.
    pub grid_points: usize,
    /// Maximum number of full sweeps over the tasks.
    pub max_passes: usize,
    /// Stop when a full pass improves the objective by less than this.
    pub improvement_tolerance: f64,
}

impl Default for JointOptions {
    fn default() -> Self {
        JointOptions {
            grid_points: 24,
            max_passes: 8,
            improvement_tolerance: 1e-9,
        }
    }
}

impl JointOptions {
    /// Disables the refinement entirely: the result is exactly the greedy
    /// (HYDRA-style) period vector. The `adapt` period policy uses it.
    #[must_use]
    pub fn greedy_only() -> Self {
        JointOptions {
            grid_points: 0,
            max_passes: 0,
            improvement_tolerance: 0.0,
        }
    }
}

/// Result of the per-core joint optimisation.
#[derive(Debug, Clone, PartialEq)]
pub struct CorePlan {
    /// Granted periods, one per input task, in the same order as the input
    /// (which must be priority order, highest first).
    pub periods: Vec<Time>,
    /// Cumulative weighted tightness `Σ ω_s · η_s` of this plan.
    pub weighted_tightness: f64,
}

/// Greedy periods for every task: each at its smallest feasible period in
/// priority order. `None` if some task is infeasible.
fn greedy_periods(tasks: &[&SecurityTask], rt_bound: &InterferenceBound) -> Option<Vec<f64>> {
    let mut periods = vec![0.0; tasks.len()];
    regreedify_suffix(tasks, rt_bound, &mut periods, 0).then_some(periods)
}

/// Greedy periods for the lower-priority suffix `tasks[from..]`, given the
/// already-fixed periods of `tasks[..from]`. Returns `false` if any suffix
/// task becomes infeasible.
fn regreedify_suffix(
    tasks: &[&SecurityTask],
    rt_bound: &InterferenceBound,
    periods: &mut [f64],
    from: usize,
) -> bool {
    for i in from..tasks.len() {
        let mut bound = *rt_bound;
        for j in 0..i {
            bound.add_task(tasks[j].wcet(), Time::from_ticks(periods[j] as u64));
        }
        let task = tasks[i];
        let lower = task.desired_period().as_ticks() as f64;
        let upper = task.max_period().as_ticks() as f64;
        let a = task.wcet().as_ticks() as f64 + bound.constant;
        let b = bound.slope;
        match minimize_linear_fractional(lower, upper, a, b) {
            Some(p) => periods[i] = p.ceil(),
            None => return false,
        }
    }
    true
}

fn weighted_tightness(tasks: &[&SecurityTask], periods: &[f64]) -> f64 {
    tasks
        .iter()
        .zip(periods)
        .map(|(task, &p)| task.weight() * task.tightness(Time::from_ticks(p as u64)))
        .sum()
}

/// Lane-batched candidate scan for the coordinate-ascent refinement of task
/// `i`: evaluates the log-spaced grid in [`LANES`]-wide chunks, each lane
/// re-greedifying the lower-priority suffix against its own running
/// [`LaneBounds`] accumulator.
///
/// Bit-identity with the scalar scan: `prefix_bound` already folded rows
/// `0..i` minus the candidate, so seeding every lane from it and then adding
/// row `i` (the lane's candidate) followed by the suffix rows in order
/// replays exactly the `f64` sequence `regreedify_suffix` rebuilds per row.
/// Likewise the objective is accumulated as the same left fold
/// `weighted_tightness` computes: shared prefix sum, then rows `i..` in
/// order. Candidate values do not depend on the running `best`, so folding
/// lane verdicts in ascending grid order reproduces the scalar acceptance.
///
/// Returns `Some((new_best, best_candidate))` when some candidate improves on
/// `best` by more than the tolerance.
#[allow(clippy::too_many_arguments)]
fn scan_grid_batched(
    tasks: &[&SecurityTask],
    prefix_bound: &InterferenceBound,
    periods: &[f64],
    i: usize,
    lo: f64,
    ratio: f64,
    options: &JointOptions,
    best: f64,
) -> Option<(f64, f64)> {
    let task = tasks[i];
    let mut prefix_value = 0.0;
    for j in 0..i {
        prefix_value += tasks[j].weight() * tasks[j].tightness(Time::from_ticks(periods[j] as u64));
    }
    let mut best = best;
    let mut best_candidate = 0.0;
    let mut improved = false;
    let mut g0 = 0;
    while g0 < options.grid_points {
        let lanes = (options.grid_points - g0).min(LANES);
        let mut bounds = LaneBounds::splat(prefix_bound);
        let mut feasible = [true; LANES];
        let mut value = [0.0f64; LANES];
        let mut cand = [0.0f64; LANES];
        for (lane, (v, c)) in value
            .iter_mut()
            .zip(cand.iter_mut())
            .enumerate()
            .take(lanes)
        {
            let g = g0 + lane;
            let frac = g as f64 / (options.grid_points - 1) as f64;
            *c = (lo * ratio.powf(frac)).ceil();
            let granted = Time::from_ticks(*c as u64);
            bounds.add_task(lane, task.wcet(), granted);
            *v = prefix_value + task.weight() * task.tightness(granted);
        }
        for &lp in &tasks[i + 1..] {
            let lower = lp.desired_period().as_ticks() as f64;
            let upper = lp.max_period().as_ticks() as f64;
            let base_a = lp.wcet().as_ticks() as f64;
            for lane in 0..lanes {
                if !feasible[lane] {
                    continue;
                }
                let a = base_a + bounds.constant[lane];
                let b = bounds.slope[lane];
                match minimize_linear_fractional(lower, upper, a, b) {
                    Some(p) => {
                        let granted = Time::from_ticks(p.ceil() as u64);
                        bounds.add_task(lane, lp.wcet(), granted);
                        value[lane] += lp.weight() * lp.tightness(granted);
                    }
                    None => feasible[lane] = false,
                }
            }
        }
        for lane in 0..lanes {
            if feasible[lane] && value[lane] > best + options.improvement_tolerance {
                best = value[lane];
                best_candidate = cand[lane];
                improved = true;
            }
        }
        g0 += lanes;
    }
    improved.then_some((best, best_candidate))
}

/// Jointly optimises the periods of `tasks` (priority order, highest first)
/// sharing a core whose real-time interference is `rt_bound`.
///
/// Returns `None` when even the greedy assignment is infeasible — i.e. no
/// period vector within the `[T^des, T^max]` boxes satisfies every
/// schedulability constraint on this core.
#[must_use]
pub fn optimize_core_periods(
    tasks: &[&SecurityTask],
    rt_bound: &InterferenceBound,
    options: &JointOptions,
) -> Option<CorePlan> {
    optimize_core_periods_with_mode(tasks, rt_bound, options, BatchMode::Batch)
}

/// [`optimize_core_periods`] with an explicit kernel mode.
///
/// [`BatchMode::Scalar`] runs the one-candidate-at-a-time reference loop and
/// serves as the differential oracle; [`BatchMode::Batch`] evaluates the
/// candidate grid in [`LANES`]-wide chunks with structure-of-arrays
/// [`LaneBounds`]. Both modes produce bit-identical plans: every lane
/// performs the same `f64` operations in the same order as the scalar
/// rebuild for the same candidate.
#[must_use]
pub fn optimize_core_periods_with_mode(
    tasks: &[&SecurityTask],
    rt_bound: &InterferenceBound,
    options: &JointOptions,
    mode: BatchMode,
) -> Option<CorePlan> {
    if tasks.is_empty() {
        return Some(CorePlan {
            periods: Vec::new(),
            weighted_tightness: 0.0,
        });
    }
    let mut periods = greedy_periods(tasks, rt_bound)?;
    let mut best = weighted_tightness(tasks, &periods);

    if options.grid_points >= 2 && options.max_passes > 0 && tasks.len() > 1 {
        for _pass in 0..options.max_passes {
            let before = best;
            // The lowest-priority task never benefits from stretching its own
            // period (nobody is below it), so sweep all but the last.
            for i in 0..tasks.len() - 1 {
                let task = tasks[i];
                // The smallest feasible period for task i given the current
                // higher-priority periods.
                let mut bound = *rt_bound;
                for j in 0..i {
                    bound.add_task(tasks[j].wcet(), Time::from_ticks(periods[j] as u64));
                }
                let lower = task.desired_period().as_ticks() as f64;
                let upper = task.max_period().as_ticks() as f64;
                let a = task.wcet().as_ticks() as f64 + bound.constant;
                let b = bound.slope;
                let Some(min_feasible) = minimize_linear_fractional(lower, upper, a, b) else {
                    continue;
                };
                let lo = min_feasible.max(lower);
                let hi = upper;
                if hi <= lo {
                    continue;
                }
                let ratio = hi / lo;
                let mut improved_here = false;
                let mut best_candidate = periods[i];
                match mode {
                    BatchMode::Scalar => {
                        let mut scratch = periods.clone();
                        for g in 0..options.grid_points {
                            let frac = g as f64 / (options.grid_points - 1) as f64;
                            let candidate = (lo * ratio.powf(frac)).ceil();
                            scratch.copy_from_slice(&periods);
                            scratch[i] = candidate;
                            if !regreedify_suffix(tasks, rt_bound, &mut scratch, i + 1) {
                                continue;
                            }
                            let value = weighted_tightness(tasks, &scratch);
                            if value > best + options.improvement_tolerance {
                                best = value;
                                best_candidate = candidate;
                                improved_here = true;
                            }
                        }
                    }
                    BatchMode::Batch => {
                        if let Some((new_best, candidate)) =
                            scan_grid_batched(tasks, &bound, &periods, i, lo, ratio, options, best)
                        {
                            best = new_best;
                            best_candidate = candidate;
                            improved_here = true;
                        }
                    }
                }
                if improved_here {
                    periods[i] = best_candidate;
                    let ok = regreedify_suffix(tasks, rt_bound, &mut periods, i + 1);
                    debug_assert!(ok, "accepted candidate must keep the suffix feasible");
                }
            }
            if best - before <= options.improvement_tolerance {
                break;
            }
        }
    }

    Some(CorePlan {
        periods: periods
            .iter()
            .map(|&p| Time::from_ticks(p as u64))
            .collect(),
        weighted_tightness: weighted_tightness(tasks, &periods),
    })
}

/// Re-optimises the security periods of a **finished** allocation, one core
/// at a time, keeping every core assignment fixed — the post-allocation
/// *period adaptation* pass of the follow-up work ("Period Adaptation for
/// Continuous Security Monitoring in Multicore Real-Time Systems",
/// Hasan et al., 2019).
///
/// With [`JointOptions::greedy_only`] every task on a core is re-granted its
/// smallest feasible period in priority order (the closed form of Eq. 7);
/// with the default options the coordinate-ascent refinement of
/// [`optimize_core_periods`] may additionally stretch a high-priority period
/// to recover tightness below it. Both passes use the base preemptive
/// interference model of Eq. (5); scheme-specific terms the allocator may
/// have accounted for (e.g. non-preemptive blocking) are not re-checked.
///
/// The pass is conservative per core: if re-optimisation of a core fails
/// (which cannot happen for plans produced under the same model, but guards
/// schemes with extra constraints), that core keeps the periods the
/// allocator granted. The returned allocation therefore always covers every
/// security task of the input.
#[must_use]
pub fn readapt_allocation(
    problem: &AllocationProblem,
    allocation: &Allocation,
    options: &JointOptions,
) -> Allocation {
    readapt_allocation_with_mode(problem, allocation, options, BatchMode::Batch)
}

/// [`readapt_allocation`] with an explicit kernel mode for the per-core
/// joint optimisation — see [`optimize_core_periods_with_mode`]. Both modes
/// produce bit-identical allocations.
#[must_use]
pub fn readapt_allocation_with_mode(
    problem: &AllocationProblem,
    allocation: &Allocation,
    options: &JointOptions,
    mode: BatchMode,
) -> Allocation {
    let partition = allocation.rt_partition();
    let mut placements: Vec<SecurityPlacement> =
        allocation.iter().map(|(_, placement)| *placement).collect();
    for core in partition.core_ids() {
        let mut ids = allocation.security_tasks_on(core);
        if ids.is_empty() {
            continue;
        }
        // Priority order (ascending T^max, ties by id) — the order every
        // per-core schedulability argument in this module assumes.
        ids.sort_by_key(|&id| (problem.security_tasks[id].max_period(), id.0));
        let tasks: Vec<&SecurityTask> = ids.iter().map(|&id| &problem.security_tasks[id]).collect();
        let rt_bound = rt_interference_on(&problem.rt_tasks, partition, core);
        if let Some(plan) = optimize_core_periods_with_mode(&tasks, &rt_bound, options, mode) {
            for (rank, &id) in ids.iter().enumerate() {
                let period = plan.periods[rank];
                placements[id.0] = SecurityPlacement {
                    core,
                    period,
                    tightness: problem.security_tasks[id].tightness(period),
                };
            }
        }
    }
    Allocation::new(partition.clone(), placements)
}

/// Whether the given period vector satisfies every schedulability constraint
/// (Eq. 6) and period bound (Eq. 4) for `tasks` (priority order) on a core
/// with real-time interference `rt_bound`. Used by tests and debug
/// assertions.
#[must_use]
pub fn plan_is_feasible(
    tasks: &[&SecurityTask],
    rt_bound: &InterferenceBound,
    periods: &[Time],
) -> bool {
    if tasks.len() != periods.len() {
        return false;
    }
    for (i, task) in tasks.iter().enumerate() {
        let period = periods[i];
        if period < task.desired_period() || period > task.max_period() {
            return false;
        }
        let mut bound = *rt_bound;
        for j in 0..i {
            bound.add_task(tasks[j].wcet(), periods[j]);
        }
        let t = period.as_ticks() as f64;
        let demand = task.wcet().as_ticks() as f64 + bound.at(t);
        if demand > t + 1.0 {
            return false;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::allocator::Allocator as _;

    fn sec(c_ms: u64, tdes_ms: u64, tmax_ms: u64) -> SecurityTask {
        SecurityTask::new(
            Time::from_millis(c_ms),
            Time::from_millis(tdes_ms),
            Time::from_millis(tmax_ms),
        )
        .unwrap()
    }

    fn bound(constant_ms: f64, slope: f64) -> InterferenceBound {
        InterferenceBound {
            constant: constant_ms * 1_000.0,
            slope,
        }
    }

    #[test]
    fn empty_core_is_trivially_optimal() {
        let plan =
            optimize_core_periods(&[], &bound(100.0, 0.5), &JointOptions::default()).unwrap();
        assert!(plan.periods.is_empty());
        assert_eq!(plan.weighted_tightness, 0.0);
    }

    #[test]
    fn single_task_matches_closed_form_adaptation() {
        let task = sec(100, 400, 4000);
        let b = bound(200.0, 0.4);
        let plan = optimize_core_periods(&[&task], &b, &JointOptions::default()).unwrap();
        assert_eq!(plan.periods, vec![Time::from_millis(500)]);
        assert!((plan.weighted_tightness - 0.8).abs() < 1e-9);
        assert!(plan_is_feasible(&[&task], &b, &plan.periods));
    }

    #[test]
    fn refinement_never_loses_to_greedy() {
        let t1 = sec(200, 1000, 40_000);
        let t2 = sec(150, 1000, 40_000);
        let t3 = sec(300, 2000, 60_000);
        let tasks = vec![&t1, &t2, &t3];
        let b = bound(300.0, 0.55);
        let greedy = optimize_core_periods(&tasks, &b, &JointOptions::greedy_only()).unwrap();
        let refined = optimize_core_periods(&tasks, &b, &JointOptions::default()).unwrap();
        assert!(refined.weighted_tightness >= greedy.weighted_tightness - 1e-12);
        assert!(plan_is_feasible(&tasks, &b, &refined.periods));
        assert!(plan_is_feasible(&tasks, &b, &greedy.periods));
    }

    #[test]
    fn refinement_beats_greedy_on_the_textbook_tradeoff() {
        // A high-priority task with a WCET close to its desired period
        // starves the task below it; stretching the first period recovers a
        // lot of tightness for the second.
        let hog = sec(900, 920, 100_000);
        let victim = sec(100, 2_000, 200_000);
        let tasks = vec![&hog, &victim];
        let b = InterferenceBound::zero();
        let greedy = optimize_core_periods(&tasks, &b, &JointOptions::greedy_only()).unwrap();
        let refined = optimize_core_periods(&tasks, &b, &JointOptions::default()).unwrap();
        assert!(
            refined.weighted_tightness > greedy.weighted_tightness + 0.05,
            "refined {} should clearly beat greedy {}",
            refined.weighted_tightness,
            greedy.weighted_tightness
        );
        assert!(plan_is_feasible(&tasks, &b, &refined.periods));
    }

    #[test]
    fn infeasible_core_returns_none() {
        let t1 = sec(600, 1000, 2_000);
        let t2 = sec(600, 1000, 2_000);
        let t3 = sec(600, 1000, 2_000);
        // Three tasks that each need more than half the core cannot coexist.
        let tasks = vec![&t1, &t2, &t3];
        assert_eq!(
            optimize_core_periods(&tasks, &InterferenceBound::zero(), &JointOptions::default()),
            None
        );
    }

    #[test]
    fn heavy_rt_interference_propagates_to_infeasibility() {
        let t = sec(100, 1000, 5_000);
        assert_eq!(
            optimize_core_periods(&[&t], &bound(0.0, 1.0), &JointOptions::default()),
            None
        );
    }

    #[test]
    fn plan_feasibility_rejects_bad_vectors() {
        let t1 = sec(100, 1000, 10_000);
        let t2 = sec(100, 1000, 10_000);
        let tasks = vec![&t1, &t2];
        let b = InterferenceBound::zero();
        // Wrong length.
        assert!(!plan_is_feasible(&tasks, &b, &[Time::from_millis(1000)]));
        // Below the desired period.
        assert!(!plan_is_feasible(
            &tasks,
            &b,
            &[Time::from_millis(500), Time::from_millis(1000)]
        ));
        // Fine vector.
        assert!(plan_is_feasible(
            &tasks,
            &b,
            &[Time::from_millis(1000), Time::from_millis(1300)]
        ));
    }

    #[test]
    fn saturated_greedy_leaves_nothing_for_the_refinement() {
        // Every task reaches tightness 1 greedily (no interference worth
        // mentioning): the refinement must terminate without changing
        // anything — there is no headroom left.
        let t1 = sec(10, 5_000, 50_000);
        let t2 = sec(20, 8_000, 80_000);
        let tasks = vec![&t1, &t2];
        let b = bound(1.0, 0.01);
        let greedy = optimize_core_periods(&tasks, &b, &JointOptions::greedy_only()).unwrap();
        assert!((greedy.weighted_tightness - 2.0).abs() < 1e-12);
        let refined = optimize_core_periods(&tasks, &b, &JointOptions::default()).unwrap();
        assert_eq!(refined.periods, greedy.periods);
        // The bisection oracle agrees per task: with greedy already
        // saturated it lands on the same desired periods, not "better" ones.
        for task in &tasks {
            let lower = task.desired_period().as_ticks() as f64;
            let upper = task.max_period().as_ticks() as f64;
            let a = task.wcet().as_ticks() as f64 + b.constant;
            let x = crate::period::bisect_linear_fractional(lower, upper, a, b.slope).unwrap();
            assert_eq!(Time::from_ticks(x.ceil() as u64), task.desired_period());
        }
    }

    #[test]
    fn zero_slack_tasks_round_trip_through_the_optimiser() {
        // T^des == T^max: the only admissible period is T^max itself, so the
        // plan either grants exactly that or reports infeasibility.
        let pinned = sec(50, 2_000, 2_000);
        let plan = optimize_core_periods(&[&pinned], &bound(100.0, 0.3), &JointOptions::default())
            .unwrap();
        assert_eq!(plan.periods, vec![Time::from_millis(2_000)]);
        // Interference pushing the requirement past T^max is infeasible.
        assert_eq!(
            optimize_core_periods(&[&pinned], &bound(1_500.0, 0.5), &JointOptions::default()),
            None
        );
    }

    fn readapt_problem() -> AllocationProblem {
        use rt_core::{RtTask, TaskSet};
        let rt_tasks: TaskSet =
            vec![RtTask::implicit_deadline(Time::from_millis(40), Time::from_millis(100)).unwrap()]
                .into_iter()
                .collect();
        let sec_tasks = vec![sec(900, 920, 100_000), sec(100, 2_000, 200_000)]
            .into_iter()
            .collect();
        AllocationProblem::new(rt_tasks, sec_tasks, 1)
    }

    #[test]
    fn readapting_a_hydra_allocation_greedily_is_a_fixed_point() {
        // HYDRA grants minimal feasible periods in priority order, so the
        // greedy re-adaptation pass reproduces its allocation exactly.
        let problem = readapt_problem();
        let fixed = crate::allocator::HydraAllocator::default()
            .allocate(&problem)
            .unwrap();
        let adapted = readapt_allocation(&problem, &fixed, &JointOptions::greedy_only());
        assert_eq!(adapted, fixed);
    }

    #[test]
    fn joint_readaptation_dominates_the_fixed_allocation() {
        // The hog/victim geometry: the joint pass stretches the hog's period
        // and recovers strictly more cumulative tightness than HYDRA fixed.
        let problem = readapt_problem();
        let fixed = crate::allocator::HydraAllocator::default()
            .allocate(&problem)
            .unwrap();
        let joint = readapt_allocation(&problem, &fixed, &JointOptions::default());
        let sec_set = &problem.security_tasks;
        assert!(
            joint.cumulative_tightness(sec_set) > fixed.cumulative_tightness(sec_set) + 0.05,
            "joint {} should clearly beat fixed {}",
            joint.cumulative_tightness(sec_set),
            fixed.cumulative_tightness(sec_set)
        );
        // Core assignments never move; only periods do.
        for (id, placement) in joint.iter() {
            assert_eq!(placement.core, fixed.placement(id).core);
        }
    }

    #[test]
    fn readapting_an_empty_allocation_is_a_no_op() {
        let problem = AllocationProblem::new(
            crate::casestudy::uav_rt_tasks(),
            crate::security::SecurityTaskSet::empty(),
            2,
        );
        let empty = crate::allocator::HydraAllocator::default()
            .allocate(&problem)
            .unwrap();
        let readapted = readapt_allocation(&problem, &empty, &JointOptions::default());
        assert!(readapted.is_empty());
        assert_eq!(readapted, empty);
    }

    /// A grab bag of refinement-relevant geometries: interference-heavy,
    /// weight-skewed, hog/victim, and near-saturated cores.
    fn differential_fixtures() -> Vec<(Vec<SecurityTask>, InterferenceBound)> {
        vec![
            (
                vec![
                    sec(200, 1000, 40_000),
                    sec(150, 1000, 40_000),
                    sec(300, 2000, 60_000),
                ],
                bound(300.0, 0.55),
            ),
            (
                vec![sec(900, 920, 100_000), sec(100, 2_000, 200_000)],
                InterferenceBound::zero(),
            ),
            (
                vec![
                    sec(900, 920, 100_000).with_weight(100.0).unwrap(),
                    sec(100, 2_000, 200_000),
                ],
                InterferenceBound::zero(),
            ),
            (
                vec![
                    sec(120, 800, 30_000),
                    sec(340, 1500, 45_000),
                    sec(60, 600, 20_000),
                    sec(500, 4_000, 90_000),
                    sec(75, 900, 12_000),
                ],
                bound(150.0, 0.4),
            ),
            (
                vec![sec(10, 5_000, 50_000), sec(20, 8_000, 80_000)],
                bound(1.0, 0.01),
            ),
        ]
    }

    #[test]
    fn batched_grid_scan_is_bit_identical_to_scalar() {
        use rt_core::batch::BatchMode;
        for (grid_points, max_passes) in [(24, 8), (9, 3), (2, 1), (8, 8), (17, 2)] {
            let opts = JointOptions {
                grid_points,
                max_passes,
                improvement_tolerance: 1e-9,
            };
            for (tasks, b) in differential_fixtures() {
                let refs: Vec<&SecurityTask> = tasks.iter().collect();
                let batch = optimize_core_periods_with_mode(&refs, &b, &opts, BatchMode::Batch);
                let scalar = optimize_core_periods_with_mode(&refs, &b, &opts, BatchMode::Scalar);
                match (&batch, &scalar) {
                    (Some(bp), Some(sp)) => {
                        assert_eq!(bp.periods, sp.periods, "grid {grid_points}");
                        // PartialEq on f64 would accept -0.0 == 0.0 etc.;
                        // compare the bit patterns to pin true identity.
                        assert_eq!(
                            bp.weighted_tightness.to_bits(),
                            sp.weighted_tightness.to_bits(),
                            "grid {grid_points}"
                        );
                    }
                    (None, None) => {}
                    _ => panic!("feasibility verdicts diverged at grid {grid_points}"),
                }
            }
        }
    }

    #[test]
    fn batched_readaptation_matches_scalar() {
        use rt_core::batch::BatchMode;
        let problem = readapt_problem();
        let fixed = crate::allocator::HydraAllocator::default()
            .allocate(&problem)
            .unwrap();
        for opts in [JointOptions::default(), JointOptions::greedy_only()] {
            let batch = readapt_allocation_with_mode(&problem, &fixed, &opts, BatchMode::Batch);
            let scalar = readapt_allocation_with_mode(&problem, &fixed, &opts, BatchMode::Scalar);
            assert_eq!(batch, scalar);
        }
    }

    #[test]
    fn weights_steer_the_refinement() {
        // Same geometry as the textbook trade-off, but the hog carries a huge
        // weight: stretching it is now a bad deal and the refinement should
        // keep its period near the greedy choice.
        let hog = sec(900, 920, 100_000).with_weight(100.0).unwrap();
        let victim = sec(100, 2_000, 200_000);
        let tasks = vec![&hog, &victim];
        let plan =
            optimize_core_periods(&tasks, &InterferenceBound::zero(), &JointOptions::default())
                .unwrap();
        let hog_tightness = hog.tightness(plan.periods[0]);
        assert!(
            hog_tightness > 0.95,
            "heavily-weighted task should keep a tight period, got η = {hog_tightness}"
        );
    }
}
