//! # hydra-core — allocating security tasks in multicore real-time systems
//!
//! This crate implements the primary contribution of
//! *"A Design-Space Exploration for Allocating Security Tasks in Multicore
//! Real-Time Systems"* (Hasan, Mohan, Pellizzoni & Bobba, DATE 2018):
//! **HYDRA**, an iterative algorithm that jointly chooses, for each sporadic
//! security task, the core it runs on and the period it runs with, such that
//!
//! * the existing real-time tasks (already partitioned and schedulable) are
//!   never perturbed — security tasks run opportunistically at a priority
//!   below every real-time task, and
//! * each security task's period stays as close as possible to the period the
//!   designer asked for (the *tightness* metric `η_s = T_s^des / T_s`).
//!
//! Alongside HYDRA the crate provides the two comparison points used in the
//! paper's evaluation: the **SingleCore** scheme (a core dedicated to
//! security) and the exhaustive **Optimal** scheme; the two Section V
//! extensions, **NP-HYDRA** for non-preemptive security tasks
//! ([`nonpreemptive`]) and a **precedence**-aware HYDRA ([`precedence`]);
//! plus the security task model, the interference analysis of Eq. (5), the
//! period-adaptation problem of Eq. (7), and the Table I / UAV case-study
//! workloads.
//!
//! HYDRA, NP-HYDRA, Precedence and SingleCore run one placement loop,
//! Algorithm 1, and differ only in its placement order, candidate cores,
//! period floor and admission rule; [`allocator`] lists what each sets.
//!
//! # Quick start
//!
//! ```
//! use hydra_core::allocator::{Allocator, HydraAllocator, SingleCoreAllocator};
//! use hydra_core::{casestudy, catalog, AllocationProblem};
//!
//! # fn main() -> Result<(), hydra_core::AllocationError> {
//! let problem = AllocationProblem::new(
//!     casestudy::uav_rt_tasks(),
//!     catalog::table1_tasks(),
//!     4,
//! );
//! let hydra = HydraAllocator::default().allocate(&problem)?;
//! let single = SingleCoreAllocator::default().allocate(&problem)?;
//! let sec = &problem.security_tasks;
//! assert!(hydra.cumulative_tightness(sec) >= single.cumulative_tightness(sec) - 1e-9);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod allocation;
pub mod allocator;
pub mod batch;
pub mod casestudy;
pub mod catalog;
pub mod interference;
pub mod joint;
pub mod metrics;
pub mod nonpreemptive;
pub mod period;
pub mod precedence;
pub mod security;
pub mod sensitivity;

pub use allocation::{Allocation, AllocationError, AllocationProblem, SecurityPlacement};
pub use allocator::{Allocator, HydraAllocator, OptimalAllocator, SingleCoreAllocator};
pub use batch::LaneBounds;
pub use interference::InterferenceBound;
pub use joint::{readapt_allocation, readapt_allocation_with_mode, JointOptions};
pub use nonpreemptive::NpHydraAllocator;
pub use period::PeriodChoice;
pub use precedence::{PrecedenceGraph, PrecedenceHydraAllocator};
pub use security::ExecutionMode;
pub use security::{SecurityTask, SecurityTaskError, SecurityTaskId, SecurityTaskSet};
