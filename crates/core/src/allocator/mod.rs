//! Allocation schemes: HYDRA and its NP-HYDRA and Precedence variants, the
//! SingleCore baseline and the exhaustive Optimal baseline.
//!
//! All schemes implement the [`Allocator`] trait so the experiment harness
//! and the examples can swap them freely.
//!
//! The four greedy schemes run one placement loop, HYDRA's Algorithm 1
//! (`hydra::place`): take the security tasks in a placement order, solve
//! Eq. (7) on every candidate core, and place each task on the core that
//! grants it the best tightness. Each scheme sets the loop's four
//! parameters:
//!
//! | scheme | order | candidate cores | period floor | admission rule |
//! |---|---|---|---|---|
//! | [`HydraAllocator`] | priority | every core | none | every core |
//! | [`NpHydraAllocator`](crate::NpHydraAllocator) | priority | every core | none | the blocking checks of [`crate::nonpreemptive`] |
//! | [`PrecedenceHydraAllocator`](crate::PrecedenceHydraAllocator) | [`PrecedenceGraph::allocation_order`](crate::PrecedenceGraph::allocation_order) | every core | the largest period granted to a predecessor | a `(T^max, id)` re-check of the core when the task outranks one already there |
//! | [`SingleCoreAllocator`] | priority | the dedicated core | none | every core |
//!
//! [`OptimalAllocator`] searches the assignments exhaustively instead.

mod hydra;
mod optimal;
mod single_core;

pub use hydra::HydraAllocator;
pub(crate) use hydra::{place, Candidate};
pub use optimal::{OptimalAllocator, SearchStats};
pub use single_core::SingleCoreAllocator;

use rt_partition::{partition_tasks, Partition};

use crate::allocation::{Allocation, AllocationError, AllocationProblem};

/// A scheme that decides where security tasks run and with what period.
pub trait Allocator {
    /// Short human-readable name of the scheme (used in experiment output).
    fn name(&self) -> &'static str;

    /// Allocates the security tasks of `problem` onto its cores.
    ///
    /// The provided method partitions the real-time tasks onto all
    /// `problem.cores` cores under `problem.partition_config` and then calls
    /// [`Allocator::allocate_with_rt_partition`]. [`SingleCoreAllocator`]
    /// overrides it, because it partitions onto `M − 1` cores.
    ///
    /// # Errors
    ///
    /// Returns an [`AllocationError`] when the real-time workload cannot be
    /// partitioned or no feasible placement/period exists for some security
    /// task under this scheme.
    fn allocate(&self, problem: &AllocationProblem) -> Result<Allocation, AllocationError> {
        let rt_partition = partition_rt(problem, problem.cores)?;
        self.allocate_with_rt_partition(problem, &rt_partition)
    }

    /// Allocates against an **already-partitioned** real-time workload,
    /// skipping this scheme's own `partition_tasks` call.
    ///
    /// `rt_partition` must cover `problem.rt_tasks` on `problem.cores` cores
    /// and be the partition this scheme would have computed itself — for most
    /// schemes the full-platform partition under `problem.partition_config`;
    /// for [`SingleCoreAllocator`] the `M − 1`-core partition re-expressed
    /// over the full platform with the dedicated security core left empty.
    /// Harnesses that sweep several schemes over the same problem use this to
    /// partition once and share the result (see `rt-dse`'s `MemoCache`).
    ///
    /// # Errors
    ///
    /// Returns an [`AllocationError`] when no feasible placement/period
    /// exists for some security task under this scheme.
    fn allocate_with_rt_partition(
        &self,
        problem: &AllocationProblem,
        rt_partition: &Partition,
    ) -> Result<Allocation, AllocationError>;
}

/// Partitions the real-time tasks of `problem` onto `cores` cores under its
/// partition config.
///
/// # Errors
///
/// Returns [`AllocationError::RtPartitionFailed`] when some real-time task
/// fits on no core.
pub(crate) fn partition_rt(
    problem: &AllocationProblem,
    cores: usize,
) -> Result<Partition, AllocationError> {
    partition_tasks(&problem.rt_tasks, cores, &problem.partition_config).map_err(|e| {
        AllocationError::RtPartitionFailed {
            task: e.task,
            cores,
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocator_trait_is_object_safe() {
        fn assert_object_safe(_: &dyn Allocator) {}
        assert_object_safe(&HydraAllocator::default());
        assert_object_safe(&SingleCoreAllocator::default());
        assert_object_safe(&OptimalAllocator::default());
    }

    #[test]
    fn allocator_names_are_distinct() {
        let names = [
            HydraAllocator::default().name(),
            SingleCoreAllocator::default().name(),
            OptimalAllocator::default().name(),
        ];
        let mut unique = names.to_vec();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), names.len());
    }
}
