//! Allocation schemes: HYDRA, the SingleCore baseline and the exhaustive
//! Optimal baseline.
//!
//! All schemes implement the [`Allocator`] trait so the experiment harness
//! and the examples can swap them freely.

mod hydra;
mod optimal;
mod single_core;

pub use hydra::HydraAllocator;
pub use optimal::{OptimalAllocator, SearchStats};
pub use single_core::SingleCoreAllocator;

use rt_partition::Partition;

use crate::allocation::{Allocation, AllocationError, AllocationProblem};

/// A scheme that decides where security tasks run and with what period.
pub trait Allocator {
    /// Short human-readable name of the scheme (used in experiment output).
    fn name(&self) -> &'static str;

    /// Allocates the security tasks of `problem` onto its cores.
    ///
    /// # Errors
    ///
    /// Returns an [`AllocationError`] when the real-time workload cannot be
    /// partitioned or no feasible placement/period exists for some security
    /// task under this scheme.
    fn allocate(&self, problem: &AllocationProblem) -> Result<Allocation, AllocationError>;

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
