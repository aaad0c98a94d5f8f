//! # rt-core — real-time task model and uniprocessor schedulability analysis
//!
//! This crate is the foundation substrate of the HYDRA reproduction
//! (Hasan et al., *A Design-Space Exploration for Allocating Security Tasks in
//! Multicore Real-Time Systems*, DATE 2018). It provides:
//!
//! * a fixed-point time representation ([`Time`]) in microsecond ticks,
//! * the sporadic real-time task model ([`RtTask`], [`TaskSet`]) with
//!   worst-case execution time, minimum inter-arrival time (period) and
//!   relative deadline,
//! * priority assignment policies ([`priority`]) including rate-monotonic and
//!   deadline-monotonic orders,
//! * utilisation accounting ([`util`]),
//! * the demand-bound function and the multiprocessor necessary condition of
//!   Eq. (1) of the paper ([`dbf`]),
//! * exact response-time analysis for fixed-priority preemptive uniprocessor
//!   scheduling, through one warm-startable recurrence ([`rta`]),
//! * the switch between batched and scalar reference paths, and the
//!   partitioner's work counts ([`batch`]), and
//! * hyperperiod computation ([`hyperperiod`]).
//!
//! # Example
//!
//! ```
//! use rt_core::{RtTask, TaskSet, Time};
//! use rt_core::rta::is_schedulable_rm;
//!
//! # fn main() -> Result<(), rt_core::RtError> {
//! let tasks = TaskSet::new(vec![
//!     RtTask::implicit_deadline(Time::from_millis(5), Time::from_millis(20))?,
//!     RtTask::implicit_deadline(Time::from_millis(10), Time::from_millis(50))?,
//!     RtTask::implicit_deadline(Time::from_millis(20), Time::from_millis(100))?,
//! ]);
//! assert!(is_schedulable_rm(&tasks));
//! assert!(tasks.total_utilization() < 1.0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod batch;
pub mod dbf;
pub mod error;
pub mod hyperperiod;
pub mod priority;
pub mod rta;
pub mod task;
pub mod time;
pub mod util;

pub use batch::{BatchMode, BatchStats};
pub use error::RtError;
pub use priority::{Priority, PriorityAssignment, PriorityPolicy};
pub use task::{RtTask, TaskId, TaskSet};
pub use time::Time;
