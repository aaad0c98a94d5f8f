//! The embeddable engine API: [`SweepSession`] and [`SweepHandle`].
//!
//! This module is the **stable library surface** of the sweep engine — the
//! seam both the `dse` CLI and the `dse-serve` server are built on. A
//! session is a value describing one run of one [`ScenarioSpec`]: how many
//! threads, which kernel mode, which observability bundle, which persistent
//! [`MemoStore`], which grid range. Running it streams outcomes into any
//! [`OutcomeSink`] in grid order and returns the [`StreamSummary`]. The
//! engine itself never touches stdout/stderr and holds no process-global
//! state, so any number of sessions can run concurrently in one process
//! (the server runs one per job on a shared store).
//!
//! ```
//! use rt_dse::api::SweepSession;
//! use rt_dse::{ScenarioSpec, UtilizationGrid, VecSink};
//!
//! let mut spec = ScenarioSpec::synthetic("demo");
//! spec.cores = vec![2];
//! spec.utilizations = UtilizationGrid::Fractions(vec![0.2, 0.6]);
//! spec.trials = 3;
//!
//! let mut sink = VecSink::new();
//! let summary = SweepSession::new(spec)
//!     .threads(2)
//!     .run(&mut sink)
//!     .expect("VecSink never raises I/O errors");
//! assert_eq!(summary.evaluated(), 12);
//! assert_eq!(sink.outcomes().len(), 12);
//! ```
//!
//! # Cancellation
//!
//! [`SweepSession::handle`] hands out a cloneable [`SweepHandle`] before the
//! run starts; any thread may call [`SweepHandle::cancel`] and the run stops
//! promptly after in-flight scenarios, finishes the sink cleanly, and
//! reports [`StreamSummary::cancelled`]. [`SweepHandle::progress`] is a
//! lock-free snapshot of outcomes delivered so far — the server's job-status
//! endpoint reads it live.

use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

use rt_core::batch::BatchMode;

use crate::exec::{Executor, StreamSummary, SweepResult};
use crate::grid::ScenarioGrid;
use crate::obs::SweepObs;
use crate::sink::OutcomeSink;
use crate::spec::ScenarioSpec;
use crate::store::MemoStore;

/// Sets a cancel flag.
fn flag_set(flag: &AtomicBool) {
    // relaxed-ok: a monotonic one-way signal polled by workers; no data is
    // transferred through it (workers only stop claiming new scenarios).
    flag.store(true, Ordering::Relaxed);
}

/// Reads a cancel flag.
fn flag_get(flag: &AtomicBool) -> bool {
    // relaxed-ok: same verdict as `flag_set` — a delayed read only delays
    // the (cooperative, already asynchronous) stop by one scenario.
    flag.load(Ordering::Relaxed)
}

/// Publishes a progress counter.
fn counter_set(counter: &AtomicUsize, value: usize) {
    // relaxed-ok: monotonic progress telemetry — snapshots are advisory and
    // no cross-thread handoff reads data "released" by this store.
    counter.store(value, Ordering::Relaxed);
}

/// Snapshots a progress counter.
fn counter_get(counter: &AtomicUsize) -> usize {
    // relaxed-ok: advisory snapshot; same verdict as `counter_set`.
    counter.load(Ordering::Relaxed)
}

/// Shared state behind every clone of one [`SweepHandle`].
#[derive(Debug, Default)]
struct HandleState {
    cancelled: AtomicBool,
    done: AtomicUsize,
    total: AtomicUsize,
}

/// A cloneable remote control for one running sweep: cooperative
/// cancellation plus a lock-free progress snapshot. Obtained from
/// [`SweepSession::handle`] (or constructed standalone and attached via
/// [`Executor::with_handle`]). One handle should observe one run.
#[derive(Debug, Clone, Default)]
pub struct SweepHandle {
    inner: Arc<HandleState>,
}

/// A progress snapshot: outcomes delivered to the sink so far, out of the
/// run's total scenario count. `total` is `0` until the run has expanded
/// its grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Progress {
    /// Outcomes the sink has received, in grid order.
    pub done: usize,
    /// Scenarios the run will evaluate (the clamped range length).
    pub total: usize,
}

impl SweepHandle {
    /// Creates a fresh handle (not yet observing any run).
    #[must_use]
    pub fn new() -> Self {
        SweepHandle::default()
    }

    /// Requests cancellation. Idempotent; takes effect after in-flight
    /// scenario evaluations (typically milliseconds). The run's sink is
    /// still finished cleanly and its summary reports
    /// [`StreamSummary::cancelled`].
    pub fn cancel(&self) {
        flag_set(&self.inner.cancelled);
    }

    /// Whether [`SweepHandle::cancel`] has been called.
    #[must_use]
    pub fn is_cancelled(&self) -> bool {
        flag_get(&self.inner.cancelled)
    }

    /// A lock-free snapshot of the observed run's progress.
    #[must_use]
    pub fn progress(&self) -> Progress {
        Progress {
            done: counter_get(&self.inner.done),
            total: counter_get(&self.inner.total),
        }
    }

    /// Arms the handle at run start: publishes the total and resets `done`.
    pub(crate) fn arm(&self, total: usize) {
        counter_set(&self.inner.total, total);
        counter_set(&self.inner.done, 0);
    }

    /// Publishes the count of outcomes delivered to the sink.
    pub(crate) fn set_done(&self, done: usize) {
        counter_set(&self.inner.done, done);
    }
}

/// A configured, ready-to-run sweep: the builder over
/// [`ScenarioSpec`] → threads / kernel mode / observability / persistent
/// store / range → [`SweepSession::run`].
///
/// Defaults: auto thread count, batched kernels, observability off, no
/// persistent store, the full grid range.
#[derive(Debug, Clone)]
pub struct SweepSession {
    pub(crate) spec: ScenarioSpec,
    pub(crate) threads: usize,
    pub(crate) batch: BatchMode,
    pub(crate) obs: SweepObs,
    pub(crate) store: Option<Arc<MemoStore>>,
    pub(crate) range: Option<Range<usize>>,
    pub(crate) handle: SweepHandle,
}

impl SweepSession {
    /// A session over `spec` with default configuration.
    #[must_use]
    pub fn new(spec: ScenarioSpec) -> Self {
        SweepSession {
            spec,
            threads: 0,
            batch: BatchMode::Batch,
            obs: SweepObs::disabled(),
            store: None,
            range: None,
            handle: SweepHandle::new(),
        }
    }

    /// Worker-thread count (`0` = machine parallelism, the default; `1` =
    /// run on the calling thread only). Outputs and memo counters are
    /// identical regardless.
    #[must_use]
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Analysis-kernel mode for partition admission and joint period
    /// refinement: [`BatchMode::Batch`] (default) or the scalar reference.
    /// The Eq. (1) feasibility filter is scalar in both modes. Outputs are
    /// byte-identical either way.
    #[must_use]
    pub fn batch_mode(mut self, batch: BatchMode) -> Self {
        self.batch = batch;
        self
    }

    /// Attaches an observability bundle (metrics/tracing). Instrumentation
    /// never changes output bytes.
    #[must_use]
    pub fn observability(mut self, obs: SweepObs) -> Self {
        self.obs = obs;
        self
    }

    /// Backs the run with a persistent [`MemoStore`] shared across runs and
    /// processes. Statistics and output bytes are unaffected; repeat work is
    /// answered from disk (see [`crate::memo::MemoCache::backed_by`]).
    #[must_use]
    pub fn memo_store(mut self, store: Arc<MemoStore>) -> Self {
        self.store = Some(store);
        self
    }

    /// Restricts the run to the grid indices in `range` (clamped to the
    /// grid). Concatenating the streams of consecutive ranges is
    /// byte-identical to one full run — the sharding/resume seam.
    #[must_use]
    pub fn range(mut self, range: Range<usize>) -> Self {
        self.range = Some(range);
        self
    }

    /// The session's cancellation/progress handle. May be cloned and shipped
    /// to other threads before [`SweepSession::run`] is called.
    #[must_use]
    pub fn handle(&self) -> SweepHandle {
        self.handle.clone()
    }

    /// The spec this session will run.
    #[must_use]
    pub fn spec(&self) -> &ScenarioSpec {
        &self.spec
    }

    /// Size of the fully expanded (and sampled) scenario grid, before any
    /// [`SweepSession::range`] restriction.
    #[must_use]
    pub fn grid_len(&self) -> usize {
        ScenarioGrid::expand(&self.spec).len()
    }

    /// Runs the sweep, streaming outcomes into `sink` in grid order.
    /// Consumes the session; the [`SweepHandle`] from
    /// [`SweepSession::handle`] stays valid for progress reads afterwards.
    ///
    /// # Errors
    ///
    /// Propagates the first sink I/O error (the sweep aborts early).
    pub fn run(self, sink: &mut dyn OutcomeSink) -> std::io::Result<StreamSummary> {
        let mut executor = Executor::with_threads(self.threads)
            .with_batch_mode(self.batch)
            .with_observability(self.obs)
            .with_handle(self.handle);
        if let Some(store) = self.store {
            executor = executor.with_store(store);
        }
        match self.range {
            Some(range) => executor.run_streaming_range(&self.spec, range, sink),
            None => executor.run_streaming(&self.spec, sink),
        }
    }

    /// Runs the sweep, buffering every outcome in grid order (a
    /// [`crate::VecSink`] under the hood). Memory scales with the grid;
    /// prefer [`SweepSession::run`] for large sweeps.
    #[must_use]
    pub fn run_buffered(self) -> SweepResult {
        let mut sink = crate::sink::VecSink::new();
        let summary = self
            .run(&mut sink)
            .expect("a VecSink never raises I/O errors");
        SweepResult {
            name: summary.name,
            outcomes: sink.into_outcomes(),
            memo: summary.memo,
            elapsed: summary.elapsed,
            threads: summary.threads,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::VecSink;
    use crate::spec::UtilizationGrid;

    fn tiny_spec() -> ScenarioSpec {
        let mut spec = ScenarioSpec::synthetic("api-test");
        spec.cores = vec![2];
        spec.utilizations = UtilizationGrid::Fractions(vec![0.3, 0.7]);
        spec.trials = 2;
        spec
    }

    #[test]
    fn session_matches_the_executor_byte_for_byte() {
        let spec = tiny_spec();
        let expected = Executor::serial().run(&spec);
        let mut sink = VecSink::new();
        let summary = SweepSession::new(spec)
            .threads(1)
            .run(&mut sink)
            .expect("VecSink is infallible");
        assert!(!summary.cancelled);
        assert_eq!(summary.evaluated(), expected.outcomes.len());
        assert_eq!(sink.outcomes(), &expected.outcomes[..]);
    }

    #[test]
    fn handle_reports_progress_and_total() {
        let spec = tiny_spec();
        let session = SweepSession::new(spec).threads(2);
        let handle = session.handle();
        assert_eq!(handle.progress(), Progress::default());
        let grid = session.grid_len();
        let mut sink = VecSink::new();
        let summary = session.run(&mut sink).expect("VecSink is infallible");
        assert_eq!(
            handle.progress(),
            Progress {
                done: summary.evaluated(),
                total: grid,
            }
        );
    }

    #[test]
    fn pre_cancelled_session_delivers_nothing_and_reports_it() {
        for threads in [1, 2] {
            let session = SweepSession::new(tiny_spec()).threads(threads);
            let handle = session.handle();
            handle.cancel();
            let mut sink = VecSink::new();
            let summary = session.run(&mut sink).expect("VecSink is infallible");
            assert!(summary.cancelled);
            assert_eq!(summary.evaluated(), 0);
            assert!(sink.outcomes().is_empty());
            assert_eq!(handle.progress().done, 0);
        }
    }

    #[test]
    fn ranged_session_matches_the_full_run_slice() {
        let spec = tiny_spec();
        let full = Executor::serial().run(&spec);
        let mut sink = VecSink::new();
        let summary = SweepSession::new(spec)
            .threads(1)
            .range(2..5)
            .run(&mut sink)
            .expect("VecSink is infallible");
        assert_eq!(summary.range, 2..5);
        assert_eq!(sink.outcomes(), &full.outcomes[2..5]);
    }

    #[test]
    fn buffered_session_matches_the_buffered_executor() {
        let spec = tiny_spec();
        let via_executor = Executor::serial().run(&spec);
        let via_session = SweepSession::new(spec).threads(1).run_buffered();
        assert_eq!(via_session.outcomes, via_executor.outcomes);
        assert_eq!(via_session.memo, via_executor.memo);
    }
}
