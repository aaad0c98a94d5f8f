//! # rt-obs — metrics, phase tracing and live telemetry
//!
//! A hand-rolled (offline-compatible, shim-style — no external
//! dependencies) observability layer for the sweep engine and `perfbench`:
//!
//! * [`Registry`] — counters, gauges and log-bucketed latency histograms,
//!   stored in **one shard per worker** so the hot path is a single relaxed
//!   atomic with no cross-worker contention; shards are merged
//!   deterministically (sorted keys, commutative sums) into a [`Snapshot`] at
//!   drain, and a fixed documented JSON schema ([`Snapshot::to_json`]) backs
//!   `--metrics-out`;
//! * [`Tracer`] — per-phase span recording into per-worker ring buffers,
//!   exportable as Chrome trace-event JSON (loadable in Perfetto /
//!   `chrome://tracing`) plus **exact** per-phase time totals kept outside
//!   the ring, so the aggregate table never suffers ring truncation;
//! * [`Heartbeat`] — a sampler thread that invokes a render callback at a
//!   fixed interval (the `--progress` stderr line);
//! * [`sys`] — `/proc` helpers (peak RSS via `VmHWM`).
//!
//! # The overhead contract
//!
//! Every handle type ([`Counter`], [`Gauge`], [`Histogram`],
//! [`WorkerTracer`]) has a **disabled** form that stores nothing: a
//! disabled registry or tracer hands out inert handles whose record methods
//! are empty inline functions — no atomics, no clock reads, no branches
//! beyond one `Option` check the optimiser folds away. Enabled counters
//! cost one relaxed atomic add; enabled spans cost two monotonic clock
//! reads plus one uncontended per-worker lock. Nothing in this crate ever
//! touches the observed computation's outputs: consumers must stay
//! byte-identical with observability on or off.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
// rt-obs owns the wall clock (lint rule D002) — the workspace-wide
// disallowed-methods entry for Instant::now/SystemTime::now stops here.
#![allow(clippy::disallowed_methods)]

pub mod heartbeat;
pub mod registry;
pub mod span;
pub mod sys;

pub use heartbeat::Heartbeat;
pub use registry::{Counter, Gauge, Histogram, HistogramSnapshot, Registry, ShardHandle, Snapshot};
pub use span::{PhaseRow, Span, Tracer, WorkerTracer};
pub use sys::peak_rss_bytes;
