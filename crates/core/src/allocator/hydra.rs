//! The HYDRA allocation algorithm (Algorithm 1 of the paper).
//!
//! HYDRA walks the security tasks from the highest to the lowest priority
//! (ascending `T^max`). For each task it solves the period-adaptation problem
//! of Eq. (7) on every core — against the real-time tasks partitioned onto
//! that core and the higher-priority security tasks already placed there —
//! and assigns the task to the core yielding the best tightness, fixing its
//! period. If some task is infeasible on every core the whole task set is
//! reported unschedulable.

use rt_core::TaskSet;
use rt_partition::{partition_tasks, CoreId, Partition};

use crate::allocation::{Allocation, AllocationError, AllocationProblem, SecurityPlacement};
use crate::allocator::Allocator;
use crate::interference::{rt_interference_on, security_interference, InterferenceBound};
use crate::period::{adapt_period, PeriodChoice};
use crate::security::{SecurityTaskId, SecurityTaskSet};

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

    /// Runs Algorithm 1 against an already-partitioned real-time workload.
    ///
    /// This is the entry point matching the paper's formulation, where the
    /// real-time partition `I = [I_r^m]` is an input. The convenience
    /// [`Allocator::allocate`] implementation partitions the real-time tasks
    /// first and then calls this.
    ///
    /// # Errors
    ///
    /// Returns [`AllocationError::SecurityUnschedulable`] if some security
    /// task has no feasible period on any core.
    pub fn allocate_with_partition(
        &self,
        rt_tasks: &TaskSet,
        rt_partition: &Partition,
        security_tasks: &SecurityTaskSet,
    ) -> Result<Allocation, AllocationError> {
        let cores = rt_partition.cores();
        // Pre-compute the static real-time interference per core.
        let rt_bounds: Vec<InterferenceBound> = (0..cores)
            .map(|m| rt_interference_on(rt_tasks, rt_partition, CoreId(m)))
            .collect();

        // Higher-priority security tasks already placed, per core.
        let mut placed: Vec<Vec<(SecurityTaskId, PeriodChoice)>> = vec![Vec::new(); cores];
        let mut placements: Vec<Option<SecurityPlacement>> = vec![None; security_tasks.len()];

        for &sec_id in security_tasks.priority_order() {
            let task = &security_tasks[sec_id];
            let mut best: Option<(CoreId, PeriodChoice, f64)> = None;
            for m in 0..cores {
                let core = CoreId(m);
                let sec_bound = security_interference(
                    placed[m]
                        .iter()
                        .map(|(id, choice)| (&security_tasks[*id], choice.period)),
                );
                let bound = rt_bounds[m].plus(&sec_bound);
                let Some(choice) = adapt_period(task, &bound) else {
                    continue;
                };
                let candidate_load = bound.slope;
                let better = match &best {
                    None => true,
                    Some((_, incumbent, incumbent_load)) => {
                        choice.tightness > incumbent.tightness + 1e-12
                            || ((choice.tightness - incumbent.tightness).abs() <= 1e-12
                                && candidate_load < incumbent_load - 1e-12)
                    }
                };
                if better {
                    best = Some((core, choice, candidate_load));
                }
            }
            match best {
                Some((core, choice, _)) => {
                    placed[core.0].push((sec_id, choice));
                    placements[sec_id.0] = Some(SecurityPlacement {
                        core,
                        period: choice.period,
                        tightness: choice.tightness,
                    });
                }
                None => return Err(AllocationError::SecurityUnschedulable { task: Some(sec_id) }),
            }
        }

        let placements: Vec<SecurityPlacement> = placements
            .into_iter()
            .map(|p| p.expect("every security task was placed or we returned early"))
            .collect();
        Ok(Allocation::new(rt_partition.clone(), placements))
    }
}

impl Allocator for HydraAllocator {
    fn name(&self) -> &'static str {
        "HYDRA"
    }

    fn allocate(&self, problem: &AllocationProblem) -> Result<Allocation, AllocationError> {
        let rt_partition =
            partition_tasks(&problem.rt_tasks, problem.cores, &problem.partition_config).map_err(
                |e| AllocationError::RtPartitionFailed {
                    task: e.task,
                    cores: problem.cores,
                },
            )?;
        self.allocate_with_partition(&problem.rt_tasks, &rt_partition, &problem.security_tasks)
    }

    fn allocate_with_rt_partition(
        &self,
        problem: &AllocationProblem,
        rt_partition: &Partition,
    ) -> Result<Allocation, AllocationError> {
        self.allocate_with_partition(&problem.rt_tasks, rt_partition, &problem.security_tasks)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::joint::plan_is_feasible;
    use crate::security::SecurityTask;
    use rt_core::{RtTask, Time};

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
