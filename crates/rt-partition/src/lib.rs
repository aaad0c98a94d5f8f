//! # rt-partition — partitioned multiprocessor scheduling substrate
//!
//! The HYDRA paper assumes that the real-time tasks are already partitioned
//! onto the `M` identical cores "using existing multicore task partitioning
//! algorithms" (best-fit in the synthetic experiments). This crate provides
//! that substrate:
//!
//! * [`Partition`] — an assignment of tasks to cores with per-core views,
//! * [`heuristics`] — best-fit and worst-fit packing in declaration order,
//!   where a core admits a task when exact rate-monotonic response-time
//!   analysis passes.
//!
//! # Example
//!
//! ```
//! use rt_core::{RtTask, TaskSet, Time};
//! use rt_partition::{partition_tasks, Heuristic, PartitionConfig};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let tasks = TaskSet::new(vec![
//!     RtTask::implicit_deadline(Time::from_millis(4), Time::from_millis(10))?,
//!     RtTask::implicit_deadline(Time::from_millis(6), Time::from_millis(10))?,
//!     RtTask::implicit_deadline(Time::from_millis(5), Time::from_millis(10))?,
//! ]);
//! let partition = partition_tasks(&tasks, 2, &PartitionConfig::new(Heuristic::BestFit))?;
//! assert_eq!(partition.cores(), 2);
//! assert_eq!(partition.assigned_count(), 3);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod heuristics;
pub mod partition;

pub use heuristics::{
    partition_tasks, partition_tasks_with_mode, Heuristic, PartitionConfig, PartitionError,
};
pub use partition::{CoreId, Partition};
