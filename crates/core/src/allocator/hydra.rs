//! The HYDRA allocation algorithm (Algorithm 1 of the paper), and the one
//! placement loop every greedy scheme runs.
//!
//! HYDRA walks the security tasks from the highest to the lowest priority
//! (ascending `T^max`). For each task it solves the period-adaptation problem
//! of Eq. (7) on every core — against the real-time tasks partitioned onto
//! that core and the higher-priority security tasks already placed there —
//! and assigns the task to the core yielding the best tightness, fixing its
//! period. If some task is infeasible on every core the whole task set is
//! reported unschedulable.
//!
//! [`place`] is that loop. Its four parameters are the placement order, the
//! candidate cores, a floor on each task's period and an admission rule;
//! HYDRA passes the priority order, every core, no floor and a rule that
//! admits every core. NP-HYDRA, Precedence and SingleCore pass their own
//! (see [`crate::allocator`]).

use std::ops::Range;

use rt_core::Time;
use rt_partition::{CoreId, Partition};

use crate::allocation::{Allocation, AllocationError, AllocationProblem, SecurityPlacement};
use crate::allocator::Allocator;
use crate::interference::{rt_interference_on, security_interference, InterferenceBound};
use crate::period::{adapt_period_from, PeriodChoice};
use crate::security::SecurityTaskId;

/// The HYDRA design-space exploration algorithm.
///
/// Among the cores whose period-adaptation problem is feasible, a task goes
/// to the one giving it the maximum tightness (Algorithm 1, line 11). Ties —
/// common at low utilisation, where several cores can grant the desired
/// period — are broken towards the core with the least interfering load,
/// then the lower core index; this keeps the security tasks spread out,
/// which is what produces the faster detection times of Figure 1.
///
/// # Example
///
/// ```
/// use hydra_core::allocator::{Allocator, HydraAllocator};
/// use hydra_core::{AllocationProblem, catalog, casestudy};
///
/// # fn main() -> Result<(), hydra_core::AllocationError> {
/// let problem = AllocationProblem::new(
///     casestudy::uav_rt_tasks(),
///     catalog::table1_tasks(),
///     4,
/// );
/// let allocation = HydraAllocator::default().allocate(&problem)?;
/// assert_eq!(allocation.len(), 6);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct HydraAllocator {
    _private: (),
}

impl HydraAllocator {
    /// Creates the allocator.
    #[must_use]
    pub fn new() -> Self {
        HydraAllocator::default()
    }
}

impl Allocator for HydraAllocator {
    fn name(&self) -> &'static str {
        "HYDRA"
    }

    fn allocate_with_rt_partition(
        &self,
        problem: &AllocationProblem,
        rt_partition: &Partition,
    ) -> Result<Allocation, AllocationError> {
        place(
            problem,
            rt_partition,
            problem.security_tasks.priority_order(),
            0..rt_partition.cores(),
            |_, _| Time::ZERO,
            |_| true,
        )
    }
}

/// A core [`place`] considers for a security task, as an admission rule
/// sees it.
pub(crate) struct Candidate<'a> {
    /// The task being placed.
    pub(crate) task: SecurityTaskId,
    /// The candidate core.
    pub(crate) core: CoreId,
    /// The interference of the real-time tasks on `core` (Eq. 5's first
    /// sum).
    pub(crate) rt_bound: &'a InterferenceBound,
    /// The security tasks already placed on `core`, in placement order, with
    /// the choices they were granted.
    pub(crate) placed: &'a [(SecurityTaskId, PeriodChoice)],
    /// The period Eq. (7) grants `task` on `core`.
    pub(crate) period: Time,
}

/// Algorithm 1: places the security tasks of `problem` one at a time, in
/// `order`, each on the candidate core that grants it the best tightness.
///
/// For each task, `floor(task, placements so far)` bounds its period from
/// below (`Time::ZERO` for none). On each core of `cores` the task's period
/// solves Eq. (7) against the core's real-time tasks and every security task
/// already placed there; a core where Eq. (7) has no solution, or which
/// `admit` refuses, is skipped. The best core gives the higher tightness
/// (beyond 1e-12), then the lower interfering load (beyond 1e-12), then the
/// lower index.
///
/// # Errors
///
/// Returns [`AllocationError::SecurityUnschedulable`] naming the first task
/// that no candidate core admits.
pub(crate) fn place(
    problem: &AllocationProblem,
    rt_partition: &Partition,
    order: &[SecurityTaskId],
    cores: Range<usize>,
    floor: impl Fn(SecurityTaskId, &[Option<SecurityPlacement>]) -> Time,
    admit: impl Fn(&Candidate<'_>) -> bool,
) -> Result<Allocation, AllocationError> {
    let tasks = &problem.security_tasks;
    let rt_bounds: Vec<InterferenceBound> = cores
        .clone()
        .map(|m| rt_interference_on(&problem.rt_tasks, rt_partition, CoreId(m)))
        .collect();
    // The security tasks placed so far, per candidate core.
    let mut placed: Vec<Vec<(SecurityTaskId, PeriodChoice)>> = vec![Vec::new(); rt_bounds.len()];
    let mut placements: Vec<Option<SecurityPlacement>> = vec![None; tasks.len()];

    for &id in order {
        let task = &tasks[id];
        let lower = floor(id, &placements);
        let mut best: Option<(usize, PeriodChoice, f64)> = None;
        for (slot, (rt_bound, on_core)) in rt_bounds.iter().zip(&placed).enumerate() {
            let bound = rt_bound.plus(&security_interference(
                on_core
                    .iter()
                    .map(|(h, choice)| (&tasks[*h], choice.period)),
            ));
            let Some(choice) = adapt_period_from(task, lower, &bound) else {
                continue;
            };
            let candidate = Candidate {
                task: id,
                core: CoreId(cores.start + slot),
                rt_bound,
                placed: on_core,
                period: choice.period,
            };
            if !admit(&candidate) {
                continue;
            }
            let load = bound.slope;
            let better = match &best {
                None => true,
                Some((_, incumbent, incumbent_load)) => {
                    choice.tightness > incumbent.tightness + 1e-12
                        || ((choice.tightness - incumbent.tightness).abs() <= 1e-12
                            && load < incumbent_load - 1e-12)
                }
            };
            if better {
                best = Some((slot, choice, load));
            }
        }
        let Some((slot, choice, _)) = best else {
            return Err(AllocationError::SecurityUnschedulable { task: Some(id) });
        };
        placed[slot].push((id, choice));
        placements[id.0] = Some(SecurityPlacement {
            core: CoreId(cores.start + slot),
            period: choice.period,
            tightness: choice.tightness,
        });
    }

    let placements: Vec<SecurityPlacement> = placements
        .into_iter()
        .map(|p| p.expect("`order` lists every security task exactly once"))
        .collect();
    Ok(Allocation::new(rt_partition.clone(), placements))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::joint::plan_is_feasible;
    use crate::security::{SecurityTask, SecurityTaskSet};
    use rt_core::{RtTask, TaskSet};

    fn rt(c_ms: u64, t_ms: u64) -> RtTask {
        RtTask::implicit_deadline(Time::from_millis(c_ms), Time::from_millis(t_ms)).unwrap()
    }

    fn sec(c_ms: u64, tdes_ms: u64, tmax_ms: u64) -> SecurityTask {
        SecurityTask::new(
            Time::from_millis(c_ms),
            Time::from_millis(tdes_ms),
            Time::from_millis(tmax_ms),
        )
        .unwrap()
    }

    fn verify_allocation(problem: &AllocationProblem, allocation: &Allocation) {
        // Every security task placed on a valid core with a period within its
        // bounds, and the per-core plans satisfy Eq. (6).
        for core in allocation.rt_partition().core_ids() {
            let rt_bound = rt_interference_on(&problem.rt_tasks, allocation.rt_partition(), core);
            let mut ids = allocation.security_tasks_on(core);
            ids.sort_by_key(|&id| (problem.security_tasks[id].max_period(), id.0));
            let tasks: Vec<&SecurityTask> =
                ids.iter().map(|&id| &problem.security_tasks[id]).collect();
            let periods: Vec<Time> = ids.iter().map(|&id| allocation.period_of(id)).collect();
            assert!(
                plan_is_feasible(&tasks, &rt_bound, &periods),
                "core {core} hosts an infeasible security plan"
            );
        }
    }

    #[test]
    fn uav_case_study_allocates_on_two_cores() {
        let problem = AllocationProblem::new(
            crate::casestudy::uav_rt_tasks(),
            crate::catalog::table1_tasks(),
            2,
        );
        let allocation = HydraAllocator::default().allocate(&problem).unwrap();
        assert_eq!(allocation.len(), 6);
        verify_allocation(&problem, &allocation);
        // With two cores and a light RT workload every task should reach a
        // decent tightness.
        assert!(allocation.mean_tightness() > 0.5);
    }

    #[test]
    fn more_cores_never_reduce_cumulative_tightness_on_case_study() {
        let sec_tasks = crate::catalog::table1_tasks();
        let mut previous = 0.0;
        for cores in [2usize, 4, 8] {
            let problem =
                AllocationProblem::new(crate::casestudy::uav_rt_tasks(), sec_tasks.clone(), cores);
            let allocation = HydraAllocator::default().allocate(&problem).unwrap();
            let tightness = allocation.cumulative_tightness(&sec_tasks);
            assert!(
                tightness + 1e-9 >= previous,
                "tightness dropped from {previous} to {tightness} with {cores} cores"
            );
            previous = tightness;
        }
    }

    #[test]
    fn empty_security_set_yields_empty_allocation() {
        let problem = AllocationProblem::new(
            crate::casestudy::uav_rt_tasks(),
            SecurityTaskSet::empty(),
            2,
        );
        let allocation = HydraAllocator::default().allocate(&problem).unwrap();
        assert!(allocation.is_empty());
    }

    #[test]
    fn unpartitionable_rt_workload_is_reported() {
        let rt_tasks: TaskSet = vec![rt(9, 10), rt(9, 10), rt(9, 10)].into_iter().collect();
        let problem = AllocationProblem::new(rt_tasks, SecurityTaskSet::empty(), 2);
        assert!(matches!(
            HydraAllocator::default().allocate(&problem),
            Err(AllocationError::RtPartitionFailed { cores: 2, .. })
        ));
    }

    #[test]
    fn saturated_cores_make_security_unschedulable() {
        // Two cores ~90% busy with RT tasks; a demanding security task cannot
        // fit anywhere.
        let rt_tasks: TaskSet = vec![rt(9, 10), rt(9, 10)].into_iter().collect();
        let sec_tasks: SecurityTaskSet = vec![sec(500, 1000, 3000)].into_iter().collect();
        let problem = AllocationProblem::new(rt_tasks, sec_tasks, 2);
        assert!(matches!(
            HydraAllocator::default().allocate(&problem),
            Err(AllocationError::SecurityUnschedulable { task: Some(_) })
        ));
    }

    #[test]
    fn higher_priority_tasks_get_their_desired_period_first() {
        // One lightly-loaded core: the highest-priority security task should
        // achieve tightness 1 while later ones may be stretched.
        let rt_tasks: TaskSet = vec![rt(40, 100)].into_iter().collect();
        let sec_tasks: SecurityTaskSet = vec![
            sec(300, 1000, 8_000), // lower priority (larger T^max)
            sec(200, 500, 4_000),  // higher priority
        ]
        .into_iter()
        .collect();
        let problem = AllocationProblem::new(rt_tasks, sec_tasks.clone(), 1);
        let allocation = HydraAllocator::default().allocate(&problem).unwrap();
        let hi = allocation.placement(SecurityTaskId(1));
        let lo = allocation.placement(SecurityTaskId(0));
        assert!(hi.tightness >= lo.tightness - 1e-12);
        verify_allocation(&problem, &allocation);
    }

    #[test]
    fn max_tightness_selection_spreads_tasks_across_idle_cores() {
        // Two identical, heavily-interfering security tasks and two idle
        // cores: the second task should avoid the core already hosting the
        // first one because its tightness is better on the empty core.
        let rt_tasks = TaskSet::empty();
        let sec_tasks: SecurityTaskSet = vec![sec(600, 1000, 10_000), sec(600, 1000, 10_000)]
            .into_iter()
            .collect();
        let problem = AllocationProblem::new(rt_tasks, sec_tasks, 2);
        let allocation = HydraAllocator::default().allocate(&problem).unwrap();
        assert_ne!(
            allocation.core_of(SecurityTaskId(0)),
            allocation.core_of(SecurityTaskId(1))
        );
        assert!((allocation.mean_tightness() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn least_loaded_selection_avoids_the_busy_core() {
        // Core 0 busy with RT work, core 1 idle: both grant the light task
        // its desired period, so the tightness tie breaks towards core 1.
        let rt_tasks: TaskSet = vec![rt(50, 100)].into_iter().collect();
        let sec_tasks: SecurityTaskSet = vec![sec(10, 1000, 10_000)].into_iter().collect();
        let problem = AllocationProblem::new(rt_tasks, sec_tasks, 2);
        let allocation = HydraAllocator::default().allocate(&problem).unwrap();
        let rt_core = allocation
            .rt_partition()
            .core_of(rt_core::TaskId(0))
            .unwrap();
        assert_ne!(allocation.core_of(SecurityTaskId(0)), rt_core);
        assert!((allocation.mean_tightness() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn allocator_reports_its_name() {
        assert_eq!(HydraAllocator::default().name(), "HYDRA");
    }
}
