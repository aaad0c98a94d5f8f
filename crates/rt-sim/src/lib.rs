//! # rt-sim — discrete-event simulation of partitioned fixed-priority scheduling
//!
//! The Figure 1 experiment of the HYDRA paper runs the UAV workload plus the
//! Tripwire/Bro security tasks on real hardware for 500 s, injects synthetic
//! attacks at random times and measures the empirical CDF of the intrusion
//! detection time. This crate reproduces that experiment in simulation:
//!
//! * [`engine`] — a deterministic discrete-event simulator of partitioned
//!   fixed-priority preemptive scheduling (each core is independent, tasks
//!   never migrate),
//! * [`workload`] — the bridge from an [`hydra_core::Allocation`] to the
//!   simulator's task descriptions,
//! * [`attack`] / [`detection`] — attack injection and the measurement of the
//!   detection latency (the time from the attack instant to the completion of
//!   the next full execution of the responsible security task),
//! * [`cdf`] — the empirical CDF estimator printed under Figure 1,
//! * [`rng`] — a small deterministic PRNG so every experiment is exactly
//!   reproducible from its seed.
//!
//! # Example
//!
//! ```
//! use hydra_core::allocator::{Allocator, HydraAllocator};
//! use hydra_core::{casestudy, catalog, AllocationProblem};
//! use rt_sim::workload::simulation_tasks;
//! use rt_sim::engine::{simulate, SimConfig};
//! use rt_core::Time;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let problem = AllocationProblem::new(casestudy::uav_rt_tasks(), catalog::table1_tasks(), 2);
//! let allocation = HydraAllocator::default().allocate(&problem)?;
//! let tasks = simulation_tasks(&problem, &allocation);
//! let trace = simulate(&tasks, &SimConfig::new(Time::from_secs(30)));
//! assert!(trace.deadline_misses().is_empty());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod attack;
pub mod cdf;
pub mod detection;
pub mod engine;
pub mod rng;
pub mod trace;
pub mod workload;

pub use attack::{AttackScenario, InjectedAttack};
pub use cdf::EmpiricalCdf;
pub use detection::{detection_times, detection_times_online, DetectionOutcome, OnlineDetector};
pub use engine::{
    simulate, simulate_with, simulate_with_scratch, SimConfig, SimObserver, SimScratch, SimStats,
};
pub use trace::{JobRecord, Trace};
pub use workload::{simulation_tasks, SimTask, TaskKind};
