//! The SingleCore baseline (Section IV): a dedicated security core.
//!
//! The alternative design point the paper compares against: partition all the
//! real-time tasks onto `M − 1` cores and reserve the remaining core
//! exclusively for the security tasks. Security tasks then suffer no
//! real-time interference (the first term of Eq. 5 vanishes) but all of them
//! share one core, so lower-priority security tasks can still be stretched by
//! the higher-priority ones.

use rt_core::Time;
use rt_partition::{CoreId, Partition};

use crate::allocation::{Allocation, AllocationError, AllocationProblem};
use crate::allocator::{partition_rt, place, Allocator};

/// The SingleCore allocation scheme: all security tasks on one dedicated
/// core, all real-time tasks on the remaining `M − 1` cores.
///
/// # Example
///
/// ```
/// use hydra_core::allocator::{Allocator, SingleCoreAllocator};
/// use hydra_core::{AllocationProblem, catalog, casestudy};
///
/// # fn main() -> Result<(), hydra_core::AllocationError> {
/// let problem = AllocationProblem::new(
///     casestudy::uav_rt_tasks(),
///     catalog::table1_tasks(),
///     4,
/// );
/// let allocation = SingleCoreAllocator::default().allocate(&problem)?;
/// // Every security task sits on the dedicated core (the last one).
/// assert!(allocation.iter().all(|(_, p)| p.core.0 == 3));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SingleCoreAllocator {
    _private: (),
}

impl SingleCoreAllocator {
    /// Creates the allocator.
    #[must_use]
    pub fn new() -> Self {
        SingleCoreAllocator::default()
    }

    /// The index of the core dedicated to security tasks for a platform with
    /// `cores` cores (the highest-numbered core).
    #[must_use]
    pub fn security_core(cores: usize) -> CoreId {
        CoreId(cores.saturating_sub(1))
    }

    /// Re-expresses a partition computed over the first `M − 1` cores as a
    /// full-platform partition on which the dedicated security core hosts no
    /// real-time task — the shape [`Allocator::allocate_with_rt_partition`]
    /// expects for this scheme.
    #[must_use]
    pub fn widen_partition(small: &Partition, cores: usize, task_count: usize) -> Partition {
        let mut full = Partition::new(task_count, cores);
        for id in (0..task_count).map(rt_core::TaskId) {
            if let Some(core) = small.core_of(id) {
                full.assign(id, core);
            }
        }
        full
    }
}

impl Allocator for SingleCoreAllocator {
    fn name(&self) -> &'static str {
        "SingleCore"
    }

    fn allocate(&self, problem: &AllocationProblem) -> Result<Allocation, AllocationError> {
        if problem.cores < 2 {
            return Err(AllocationError::InsufficientCores {
                available: problem.cores,
                required: 2,
            });
        }
        // Partition the real-time tasks onto the first M − 1 cores, then
        // re-express over the full platform (the dedicated core simply hosts
        // no real-time task).
        let small = partition_rt(problem, problem.cores - 1)?;
        let rt_partition = Self::widen_partition(&small, problem.cores, problem.rt_tasks.len());
        self.allocate_with_rt_partition(problem, &rt_partition)
    }

    fn allocate_with_rt_partition(
        &self,
        problem: &AllocationProblem,
        rt_partition: &Partition,
    ) -> Result<Allocation, AllocationError> {
        if problem.cores < 2 {
            return Err(AllocationError::InsufficientCores {
                available: problem.cores,
                required: 2,
            });
        }
        let security_core = Self::security_core(problem.cores);
        debug_assert!(
            rt_partition.tasks_on(security_core).is_empty(),
            "the dedicated security core must host no real-time task"
        );
        // The dedicated core is the only candidate: its real-time bound is
        // zero, so each task sees only the higher-priority security tasks.
        place(
            problem,
            rt_partition,
            problem.security_tasks.priority_order(),
            security_core.0..security_core.0 + 1,
            |_, _| Time::ZERO,
            |_| true,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::allocator::HydraAllocator;
    use crate::security::{SecurityTask, SecurityTaskId, SecurityTaskSet};
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

    #[test]
    fn all_security_tasks_land_on_the_last_core() {
        let problem = AllocationProblem::new(
            crate::casestudy::uav_rt_tasks(),
            crate::catalog::table1_tasks(),
            4,
        );
        let allocation = SingleCoreAllocator::default().allocate(&problem).unwrap();
        for (_, p) in allocation.iter() {
            assert_eq!(p.core, CoreId(3));
        }
        // No real-time task shares that core.
        assert!(allocation.rt_partition().tasks_on(CoreId(3)).is_empty());
    }

    #[test]
    fn single_core_platform_is_rejected() {
        let problem = AllocationProblem::new(
            crate::casestudy::uav_rt_tasks(),
            crate::catalog::table1_tasks(),
            1,
        );
        assert_eq!(
            SingleCoreAllocator::default().allocate(&problem),
            Err(AllocationError::InsufficientCores {
                available: 1,
                required: 2
            })
        );
    }

    #[test]
    fn rt_workload_that_needs_all_cores_fails() {
        // Four RT tasks at 90% each need four cores; on a 4-core platform the
        // SingleCore scheme only has three for them.
        let rt_tasks: TaskSet = vec![rt(9, 10), rt(9, 10), rt(9, 10), rt(9, 10)]
            .into_iter()
            .collect();
        let problem = AllocationProblem::new(rt_tasks.clone(), SecurityTaskSet::empty(), 4);
        assert!(matches!(
            SingleCoreAllocator::default().allocate(&problem),
            Err(AllocationError::RtPartitionFailed { cores: 3, .. })
        ));
        // HYDRA, with all four cores available to the RT workload, succeeds.
        assert!(HydraAllocator::default().allocate(&problem).is_ok());
    }

    #[test]
    fn overloaded_security_core_is_unschedulable() {
        // Three heavy security tasks cannot share one core even though the
        // real-time side is trivial.
        let rt_tasks: TaskSet = vec![rt(1, 100)].into_iter().collect();
        let sec_tasks: SecurityTaskSet = vec![
            sec(600, 1000, 2_000),
            sec(600, 1000, 2_000),
            sec(600, 1000, 2_000),
        ]
        .into_iter()
        .collect();
        let problem = AllocationProblem::new(rt_tasks, sec_tasks, 2);
        assert!(matches!(
            SingleCoreAllocator::default().allocate(&problem),
            Err(AllocationError::SecurityUnschedulable { task: Some(_) })
        ));
    }

    #[test]
    fn no_rt_interference_on_the_dedicated_core() {
        // A single security task on the dedicated core always achieves its
        // desired period regardless of how busy the other cores are.
        let rt_tasks: TaskSet = vec![rt(90, 100), rt(90, 100)].into_iter().collect();
        let sec_tasks: SecurityTaskSet = vec![sec(100, 1000, 10_000)].into_iter().collect();
        let problem = AllocationProblem::new(rt_tasks, sec_tasks, 3);
        let allocation = SingleCoreAllocator::default().allocate(&problem).unwrap();
        assert_eq!(allocation.placement(SecurityTaskId(0)).tightness, 1.0);
    }

    #[test]
    fn hydra_matches_or_beats_single_core_on_cumulative_tightness() {
        // On the UAV case study HYDRA can use the slack of every core, so its
        // cumulative tightness is at least as good as SingleCore's.
        for cores in [2usize, 4, 8] {
            let sec_tasks = crate::catalog::table1_tasks();
            let problem =
                AllocationProblem::new(crate::casestudy::uav_rt_tasks(), sec_tasks.clone(), cores);
            let hydra = HydraAllocator::default().allocate(&problem).unwrap();
            let single = SingleCoreAllocator::default().allocate(&problem).unwrap();
            assert!(
                hydra.cumulative_tightness(&sec_tasks) + 1e-9
                    >= single.cumulative_tightness(&sec_tasks),
                "HYDRA lost to SingleCore on {cores} cores"
            );
        }
    }

    #[test]
    fn security_core_helper() {
        assert_eq!(SingleCoreAllocator::security_core(4), CoreId(3));
        assert_eq!(SingleCoreAllocator::security_core(2), CoreId(1));
        assert_eq!(SingleCoreAllocator::default().name(), "SingleCore");
    }
}
