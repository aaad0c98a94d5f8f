//! # rt-dse — a parallel design-space exploration engine
//!
//! The paper this workspace reproduces is, in essence, one large
//! design-space exploration: sweep core counts, total utilizations and
//! security-task workloads, compare allocation schemes, aggregate. This
//! crate turns that pattern into declarative data plus a parallel engine:
//!
//! * [`ScenarioSpec`] — the axes of a sweep (cores, utilization grid,
//!   allocators, period policies, trials, seed) as a value,
//! * [`ScenarioGrid`] — cartesian or sampled expansion into concrete
//!   [`Scenario`] points with deterministic per-point seed addresses,
//! * [`SweepSession`] — the one run surface: it plans what the spec's explore
//!   mode emits ([`SweepPlan`]) and streams any range of that plan on a
//!   self-balancing worker pool (the calling thread plus scoped helpers, each
//!   claiming whole problem groups — every allocator × policy variant of one
//!   task set — from a shared cursor) whose results and memo work counters
//!   are independent of thread count and evaluation order; outcomes feed an
//!   [`OutcomeSink`] in plan order through a reorder buffer, so memory stays
//!   O(threads + reorder window) instead of O(grid),
//! * [`MemoCache`] — cross-scenario caching of generated problems, Eq. (1)
//!   feasibility verdicts and allocator runs, so the allocator/policy axes
//!   never regenerate or re-solve the same point,
//! * [`frontier`] — the adaptive explore mode a session runs for
//!   [`ExploreMode::Frontier`] specs: per-slice bisection for the acceptance
//!   cliff plus a deterministic refinement plan, replacing exhaustive
//!   utilization grids,
//! * [`SweepAccumulator`] / [`PairedSink`] — online acceptance-ratio and
//!   tightness summaries (mean / p50 / p99) plus the paired HYDRA-vs-Optimal
//!   gap of Figure 3, built from per-worker partials merged at the end — no
//!   retained outcome vector,
//! * [`sink`] — byte-deterministic streaming JSONL / CSV / summary sinks,
//! * [`SweepPlan::shard_range`] / [`Checkpoint`] — contiguous plan shards and
//!   killed-run resume whose concatenated outputs are byte-identical to a
//!   single full run (every scenario owns a deterministic seed address).
//!
//! [`SpecFields`] is the one way a spec enters from outside the program:
//! the `dse` binary (through [`cli`]) and `dse-serve` fill its fields and
//! [`SpecFields::into_spec`] applies every default and input rule.
//!
//! The `dse` binary exposes all of it on the command line; the
//! `hydra-bench` figure drivers are thin [`ScenarioSpec`]
//! definitions executed on this engine.
//!
//! # Example
//!
//! ```
//! use rt_dse::prelude::*;
//!
//! let mut spec = ScenarioSpec::synthetic("demo");
//! spec.cores = vec![2];
//! spec.utilizations = UtilizationGrid::Fractions(vec![0.2, 0.6]);
//! spec.allocators = vec![AllocatorKind::Hydra, AllocatorKind::SingleCore];
//! spec.trials = 3;
//!
//! let mut sink = VecSink::new();
//! let summary = SweepSession::new(spec)
//!     .run(&mut sink)
//!     .expect("VecSink never raises I/O errors");
//! assert_eq!(summary.evaluated(), 12);
//! assert_eq!(summary.partial.rows().len(), 4);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod agg;
pub mod api;
pub mod checkpoint;
pub mod cli;
pub mod exec;
pub mod frontier;
pub mod grid;
pub mod memo;
pub mod obs;
pub mod scenario;
pub mod sink;
pub mod spec;
pub mod store;

pub use agg::{AggregateRow, PairedPoint, PairedSink, SweepAccumulator};
pub use api::{Progress, SweepHandle, SweepPlan, SweepSession};
pub use checkpoint::{sweep_fingerprint, Checkpoint};
pub use exec::{shard_range, StreamSummary, SweepResult};
pub use frontier::{FrontierPlan, FrontierRow, FrontierRunner, FrontierSlice};
pub use grid::ScenarioGrid;
pub use memo::{hash_taskset, AllocationKey, MemoCache, MemoStats, ProblemKey, SharedAllocation};
pub use obs::{phase_table, SweepObs, WorkerObs, ENGINE_TRACK, PHASES};
pub use rt_core::Time;
pub use scenario::{DetectionStats, Scenario, ScenarioOutcome};
pub use sink::{CsvSink, JsonlSink, NullSink, OutcomeSink, TeeSink, VecSink};
pub use spec::{
    AllocatorKind, Evaluation, Expansion, ExploreMode, FrontierConfig, PeriodPolicy, ScenarioSpec,
    SpecFields, SyntheticOverrides, UtilizationGrid, Workload,
};
pub use store::MemoStore;

/// Convenience re-exports for sweep definitions.
pub mod prelude {
    pub use crate::agg::{PairedSink, SweepAccumulator};
    pub use crate::api::{Progress, SweepHandle, SweepPlan, SweepSession};
    pub use crate::exec::{shard_range, StreamSummary, SweepResult};
    pub use crate::frontier::{FrontierPlan, FrontierRow, FrontierRunner, FrontierSlice};
    pub use crate::grid::ScenarioGrid;
    pub use crate::scenario::{Scenario, ScenarioOutcome};
    pub use crate::sink::{to_csv, to_jsonl, CsvSink, JsonlSink, NullSink, OutcomeSink, VecSink};
    pub use crate::spec::{
        AllocatorKind, Evaluation, Expansion, ExploreMode, FrontierConfig, PeriodPolicy,
        ScenarioSpec, SpecFields, SyntheticOverrides, UtilizationGrid, Workload,
    };
    pub use crate::store::MemoStore;
}
