//! # hydra-repro — reproduction of "A Design-Space Exploration for Allocating
//! Security Tasks in Multicore Real-Time Systems" (DATE 2018)
//!
//! This facade crate re-exports the whole workspace behind a single
//! dependency so downstream users (and the examples and integration tests in
//! this repository) can write `use hydra_repro::...` and get:
//!
//! * [`rt`] — the real-time task model and uniprocessor schedulability
//!   analysis ([`rt_core`]),
//! * [`partition`] — partitioned multiprocessor scheduling heuristics
//!   ([`rt_partition`]),
//! * [`hydra`] — the paper's contribution: the security task model, HYDRA,
//!   SingleCore and Optimal allocators ([`hydra_core`]),
//! * [`sim`] — the discrete-event simulator with attack injection
//!   ([`rt_sim`]),
//! * [`gen`] — synthetic workload generation ([`taskgen`]),
//! * [`dse`] — the parallel design-space exploration engine ([`rt_dse`]).
//!
//! # Example
//!
//! ```
//! use hydra_repro::hydra::allocator::{Allocator, HydraAllocator};
//! use hydra_repro::hydra::{casestudy, catalog, AllocationProblem};
//!
//! # fn main() -> Result<(), hydra_repro::hydra::AllocationError> {
//! let problem = AllocationProblem::new(
//!     casestudy::uav_rt_tasks(),
//!     catalog::table1_tasks(),
//!     4,
//! );
//! let allocation = HydraAllocator::default().allocate(&problem)?;
//! println!("{allocation}");
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Real-time task model and schedulability analysis (re-export of
/// [`rt_core`]).
pub mod rt {
    pub use rt_core::*;
}

/// Partitioned multiprocessor scheduling substrate (re-export of
/// [`rt_partition`]).
pub mod partition {
    pub use rt_partition::*;
}

/// The HYDRA security-task allocation library (re-export of [`hydra_core`]).
pub mod hydra {
    pub use hydra_core::*;
}

/// Discrete-event scheduling simulator with attack injection (re-export of
/// [`rt_sim`]).
pub mod sim {
    pub use rt_sim::*;
}

/// Synthetic workload generation (re-export of [`taskgen`]).
pub mod gen {
    pub use taskgen::*;
}

/// Zero-overhead metrics, phase tracing and live-progress plumbing
/// (re-export of [`rt_obs`]): the sharded registry, span tracer and
/// heartbeat the sweep engine records through when observability is
/// requested.
pub mod obs {
    pub use rt_obs::*;
}

/// The parallel design-space exploration engine (re-export of [`rt_dse`]):
/// declarative [`dse::ScenarioSpec`]s expanded into scenario grids and
/// executed on a deterministic multi-threaded sweep engine.
pub mod dse {
    pub use rt_dse::*;
}
