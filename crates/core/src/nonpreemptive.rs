//! Blocking-aware allocation for non-preemptive security tasks
//! (Section V extension).
//!
//! The base HYDRA model keeps security tasks fully preemptive, which is what
//! guarantees they can never perturb the real-time workload. If a security
//! check must run non-preemptively (e.g. to observe a consistent snapshot),
//! it can block *every* task on its core — real-time tasks included — for up
//! to its own WCET. The [`NpHydraAllocator`] therefore runs HYDRA's placement
//! loop (same order, every core, no period floor) with an admission rule.
//! A preemptive task is admitted on every core, so on a workload without
//! non-preemptive tasks NP-HYDRA is HYDRA. A non-preemptive security task
//! `τ_s` (WCET `C_s`) is admitted on core `π_m` only if
//!
//! 1. every **real-time task** on `π_m` stays schedulable under the
//!    blocking-aware response-time recurrence `R = C + B + Σ ⌈R/T⌉·C`, with
//!    `B` the largest WCET among `C_s` and the non-preemptive security tasks
//!    already placed on `π_m`;
//! 2. every **already-placed security task** on `π_m` (all of which have
//!    higher priority, because HYDRA walks tasks in priority order) still
//!    meets its granted period once `C_s` is added to its Eq. (6) constraint
//!    as blocking.
//!
//! The new task itself gets the usual Eq. (7) period: its own
//! non-preemptiveness does not change its *worst-case* response bound — the
//! linear bound of Eq. (5) already covers the preemptions it no longer
//! suffers. Cores failing either check are excluded from the candidate set
//! for that task, so the real-time guarantees are preserved by construction.

use rt_core::rta::response_time_with_blocking;
use rt_core::{RtTask, TaskSet, Time};
use rt_partition::{CoreId, Partition};

use crate::allocation::{Allocation, AllocationError, AllocationProblem};
use crate::allocator::{place, Allocator, Candidate};
use crate::interference::{security_interference, InterferenceBound};
use crate::security::SecurityTask;

/// HYDRA with support for non-preemptive security tasks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct NpHydraAllocator {
    _private: (),
}

impl NpHydraAllocator {
    /// Creates the allocator.
    #[must_use]
    pub fn new() -> Self {
        NpHydraAllocator::default()
    }

    /// Whether every real-time task on `core` tolerates `blocking` time units
    /// of priority inversion from a non-preemptive security task.
    fn rt_tasks_tolerate_blocking(
        rt_tasks: &TaskSet,
        partition: &Partition,
        core: CoreId,
        blocking: Time,
    ) -> bool {
        let members: Vec<&RtTask> = partition
            .iter_core(rt_tasks, core)
            .map(|(_, task)| task)
            .collect();
        // Rate-monotonic priorities among the real-time tasks on this core.
        let mut order: Vec<usize> = (0..members.len()).collect();
        order.sort_by_key(|&i| members[i].period());
        for (rank, &idx) in order.iter().enumerate() {
            let task = members[idx];
            let interferers = order[..rank].iter().map(|&j| members[j]);
            let verdict = response_time_with_blocking(
                task.wcet(),
                task.deadline(),
                blocking,
                interferers.collect::<Vec<_>>(),
            );
            if !verdict.is_schedulable() {
                return false;
            }
        }
        true
    }

    /// Whether an already-granted security placement still satisfies its
    /// Eq. (6) constraint when `blocking` is added.
    fn placement_tolerates_blocking(
        task_wcet: Time,
        granted_period: Time,
        bound: &InterferenceBound,
        blocking: Time,
    ) -> bool {
        let t = granted_period.as_ticks() as f64;
        let demand = task_wcet.as_ticks() as f64 + blocking.as_ticks() as f64 + bound.at(t);
        demand <= t + 1.0
    }

    /// The admission rule: a preemptive task fits every core; a
    /// non-preemptive one only a core whose real-time tasks and placed
    /// security tasks tolerate the blocking it adds.
    fn admits(
        problem: &AllocationProblem,
        partition: &Partition,
        candidate: &Candidate<'_>,
    ) -> bool {
        let (rt_tasks, tasks) = (&problem.rt_tasks, &problem.security_tasks);
        let task = &tasks[candidate.task];
        if !task.is_non_preemptive() {
            return true;
        }
        // The blocking already imposed on the core: the largest
        // non-preemptive WCET placed there.
        let blocking = candidate
            .placed
            .iter()
            .map(|(id, _)| &tasks[*id])
            .filter(|placed| placed.is_non_preemptive())
            .map(SecurityTask::wcet)
            .fold(task.wcet(), Time::max);
        // 1. Real-time tasks on this core must tolerate it.
        if !Self::rt_tasks_tolerate_blocking(rt_tasks, partition, candidate.core, blocking) {
            return false;
        }
        // 2. Every higher-priority security task already granted a period on
        //    this core must still fit, against the interference of the real-
        //    time tasks and of the security tasks placed before it.
        candidate
            .placed
            .iter()
            .enumerate()
            .all(|(k, (id, choice))| {
                let hp_bound = candidate.rt_bound.plus(&security_interference(
                    candidate.placed[..k]
                        .iter()
                        .map(|(h, c)| (&tasks[*h], c.period)),
                ));
                Self::placement_tolerates_blocking(
                    tasks[*id].wcet(),
                    choice.period,
                    &hp_bound,
                    task.wcet(),
                )
            })
    }
}

impl Allocator for NpHydraAllocator {
    fn name(&self) -> &'static str {
        "HYDRA+non-preemptive"
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
            |candidate| Self::admits(problem, rt_partition, candidate),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::allocator::HydraAllocator;
    use crate::security::{SecurityTaskId, SecurityTaskSet};

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

    #[test]
    fn all_preemptive_workload_matches_plain_hydra() {
        let problem = AllocationProblem::new(
            crate::casestudy::uav_rt_tasks(),
            crate::catalog::table1_tasks(),
            4,
        );
        let plain = HydraAllocator::default().allocate(&problem).unwrap();
        let np = NpHydraAllocator::default().allocate(&problem).unwrap();
        assert_eq!(plain, np);
    }

    #[test]
    fn non_preemptive_task_avoids_cores_with_tight_rt_deadlines() {
        // Core 0 hosts an RT task with a 10 ms deadline and 6 ms WCET: a
        // 300 ms non-preemptive check would wreck it, so the check must land
        // on the other core (which has a tolerant RT task).
        let rt_tasks: TaskSet = vec![rt(6, 10), rt(50, 1000)].into_iter().collect();
        let sec_tasks: SecurityTaskSet = vec![sec(300, 2000, 20_000).non_preemptive()]
            .into_iter()
            .collect();
        let problem = AllocationProblem::new(rt_tasks.clone(), sec_tasks, 2);
        let allocation = NpHydraAllocator::default().allocate(&problem).unwrap();
        let rt_partition = allocation.rt_partition();
        let tight_core = rt_partition.core_of(rt_core::TaskId(0)).unwrap();
        assert_ne!(
            allocation.core_of(SecurityTaskId(0)),
            tight_core,
            "non-preemptive check placed next to the tight-deadline RT task"
        );
    }

    #[test]
    fn non_preemptive_task_with_no_tolerant_core_is_rejected() {
        // Every core hosts a tight RT task; the long non-preemptive check can
        // go nowhere even though preemptive HYDRA would accept it.
        let rt_tasks: TaskSet = vec![rt(6, 10), rt(6, 10)].into_iter().collect();
        let sec_tasks_np: SecurityTaskSet = vec![sec(300, 2000, 20_000).non_preemptive()]
            .into_iter()
            .collect();
        let sec_tasks_p: SecurityTaskSet = vec![sec(300, 2000, 20_000)].into_iter().collect();
        let np_problem = AllocationProblem::new(rt_tasks.clone(), sec_tasks_np, 2);
        let p_problem = AllocationProblem::new(rt_tasks, sec_tasks_p, 2);
        assert!(matches!(
            NpHydraAllocator::default().allocate(&np_problem),
            Err(AllocationError::SecurityUnschedulable { task: Some(_) })
        ));
        assert!(NpHydraAllocator::default().allocate(&p_problem).is_ok());
        assert!(HydraAllocator::default().allocate(&np_problem).is_ok());
    }

    #[test]
    fn later_non_preemptive_task_cannot_break_an_earlier_placement() {
        // One idle core. The high-priority security task is admitted at its
        // desired period with almost no slack; a lower-priority non-preemptive
        // task whose WCET would violate that placement must be rejected
        // (there is no other core to move to).
        let hi = sec(900, 1000, 1_050);
        let np_lo = sec(600, 2000, 20_000).non_preemptive();
        let sec_tasks: SecurityTaskSet = vec![hi, np_lo].into_iter().collect();
        let problem = AllocationProblem::new(TaskSet::empty(), sec_tasks, 1);
        assert!(matches!(
            NpHydraAllocator::default().allocate(&problem),
            Err(AllocationError::SecurityUnschedulable {
                task: Some(SecurityTaskId(1))
            })
        ));
        // The same workload with a preemptive low-priority task is fine.
        let sec_tasks: SecurityTaskSet = vec![sec(900, 1000, 1_050), sec(600, 2000, 20_000)]
            .into_iter()
            .collect();
        let problem = AllocationProblem::new(TaskSet::empty(), sec_tasks, 1);
        assert!(NpHydraAllocator::default().allocate(&problem).is_ok());
    }

    #[test]
    fn second_core_rescues_the_conflicting_non_preemptive_task() {
        let hi = sec(900, 1000, 1_050);
        let np_lo = sec(600, 2000, 20_000).non_preemptive();
        let sec_tasks: SecurityTaskSet = vec![hi, np_lo].into_iter().collect();
        let problem = AllocationProblem::new(TaskSet::empty(), sec_tasks, 2);
        let allocation = NpHydraAllocator::default().allocate(&problem).unwrap();
        assert_ne!(
            allocation.core_of(SecurityTaskId(0)),
            allocation.core_of(SecurityTaskId(1))
        );
    }

    #[test]
    fn allocator_name_is_distinct() {
        assert_eq!(NpHydraAllocator::default().name(), "HYDRA+non-preemptive");
    }
}
