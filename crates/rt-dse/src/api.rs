//! The embeddable engine API: [`SweepSession`], [`SweepPlan`] and
//! [`SweepHandle`].
//!
//! This module is the **one run surface** of the sweep engine — the seam
//! the `dse` CLI, the `dse-serve` server, the figure drivers and the tests
//! are all built on. A session is a value describing one run of one
//! [`ScenarioSpec`]: how many threads, which observability bundle, which
//! persistent [`MemoStore`]. [`SweepSession::plan`] derives the scenario
//! list the spec's explore mode emits (the expanded grid, or the frontier
//! search's emission list), and [`SweepSession::run_plan`] streams any
//! index range of it into an [`OutcomeSink`] in plan order — the sharding
//! and resume seam. [`SweepSession::run`] is the two in one. The engine
//! itself never touches stdout/stderr and holds no process-global state, so
//! any number of sessions can run concurrently in one process (the server
//! runs one per job on a shared store).
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

use std::io;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

use rt_core::batch::BatchMode;

use crate::exec::{shard_range, StreamSummary, SweepResult};
use crate::frontier::{self, FrontierPlan};
use crate::grid::ScenarioGrid;
use crate::memo::MemoCache;
use crate::obs::{SweepObs, ENGINE_TRACK};
use crate::scenario::Scenario;
use crate::sink::{OutcomeSink, VecSink};
use crate::spec::{ExploreMode, ScenarioSpec};
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
/// [`SweepSession::handle`]; one handle observes one session.
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

    /// A lock-free snapshot of the observed run's progress. A frontier
    /// run re-arms the total at each probe round and again for emission,
    /// so `total` only becomes stable once emission starts.
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
/// [`ScenarioSpec`] → threads / observability / persistent store →
/// [`SweepSession::plan`] + [`SweepSession::run_plan`], or
/// [`SweepSession::run`] for both.
///
/// Defaults: auto thread count, observability off, no persistent store.
#[derive(Debug, Clone)]
pub struct SweepSession {
    pub(crate) spec: ScenarioSpec,
    pub(crate) threads: usize,
    /// Analysis-kernel mode of partition admission and joint period
    /// refinement. Always [`BatchMode::Batch`] outside this crate's tests,
    /// which switch it to the scalar oracles to pin that outputs are
    /// byte-identical either way.
    pub(crate) batch: BatchMode,
    pub(crate) obs: SweepObs,
    pub(crate) store: Option<Arc<MemoStore>>,
    pub(crate) handle: SweepHandle,
}

/// The scenario list one [`SweepSession`] emits, in emission order:
/// the expanded (and sampled) grid of an exhaustive spec, or the Phase-B
/// list a frontier spec's bisection probes selected. Run any index range of
/// it with [`SweepSession::run_plan`]; consecutive ranges concatenate
/// byte-identically to the whole plan.
#[derive(Debug, Clone)]
pub struct SweepPlan(Plan);

#[derive(Debug, Clone)]
enum Plan {
    /// The expanded grid. Each run builds a fresh memo.
    Grid(Vec<Scenario>),
    /// The frontier search's emission list, with the memo its probes
    /// warmed: every run of the plan reads it, so the emission phase never
    /// repeats probe work and the memo counters stay cumulative.
    Frontier(FrontierPlan, Arc<MemoCache>),
}

impl SweepPlan {
    /// Number of scenarios the plan emits.
    #[must_use]
    pub fn len(&self) -> usize {
        self.scenarios().len()
    }

    /// Whether the plan emits nothing.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.scenarios().is_empty()
    }

    /// The planned scenarios; every [`Scenario::index`] equals its
    /// position.
    #[must_use]
    pub fn scenarios(&self) -> &[Scenario] {
        match &self.0 {
            Plan::Grid(scenarios) => scenarios,
            Plan::Frontier(plan, _) => &plan.scenarios,
        }
    }

    /// The contiguous index range shard `index` of `count` emits. A grid
    /// splits into `count` equal parts ([`shard_range`]); a frontier plan
    /// splits its slice list the same way, so every shard holds whole
    /// slices. Concatenating the shards' streams in order is byte-identical
    /// to one run of the whole plan.
    ///
    /// # Panics
    ///
    /// Panics unless `1 <= index <= count`.
    #[must_use]
    pub fn shard_range(&self, index: usize, count: usize) -> Range<usize> {
        match &self.0 {
            Plan::Grid(scenarios) => shard_range(scenarios.len(), index, count),
            Plan::Frontier(plan, _) => plan.shard_scenario_range(index, count),
        }
    }

    /// The frontier search behind a frontier plan — per-slice cliff
    /// brackets, from which [`FrontierPlan::rows`] builds the frontier
    /// artifact — or `None` for an exhaustive grid.
    #[must_use]
    pub fn frontier(&self) -> Option<&FrontierPlan> {
        match &self.0 {
            Plan::Grid(_) => None,
            Plan::Frontier(plan, _) => Some(plan),
        }
    }

    /// The frontier search behind this plan, by value.
    pub(crate) fn into_frontier(self) -> Option<FrontierPlan> {
        match self.0 {
            Plan::Grid(_) => None,
            Plan::Frontier(plan, _) => Some(plan),
        }
    }
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

    /// The session's cancellation/progress handle. May be cloned and shipped
    /// to other threads before the session runs.
    #[must_use]
    pub fn handle(&self) -> SweepHandle {
        self.handle.clone()
    }

    /// The spec this session will run.
    #[must_use]
    pub fn spec(&self) -> &ScenarioSpec {
        &self.spec
    }

    /// Length of the session's plan: the expanded (and sampled) grid of an
    /// exhaustive spec — one expansion, no memo — or the frontier emission
    /// list, which runs the bisection probes to find.
    #[must_use]
    pub fn grid_len(&self) -> usize {
        self.plan().len()
    }

    /// Derives what the spec's explore mode emits. An exhaustive spec
    /// expands its grid. A frontier spec runs the Phase-A bisection probes
    /// (see [`crate::frontier`]) on this session's threads, observability
    /// and store, and keeps the memo they warmed for the emission phase. A
    /// cancellation during the probes yields a plan flagged
    /// [`FrontierPlan::cancelled`]; the same cancelled handle stops
    /// [`SweepSession::run_plan`] before its first scenario.
    #[must_use]
    pub fn plan(&self) -> SweepPlan {
        match self.spec.explore {
            ExploreMode::Exhaustive => SweepPlan(Plan::Grid(
                ScenarioGrid::expand(&self.spec).into_scenarios(),
            )),
            ExploreMode::Frontier(config) => {
                let memo = Arc::new(self.fresh_memo());
                SweepPlan(Plan::Frontier(frontier::plan(self, config, &memo), memo))
            }
        }
    }

    /// Streams the scenarios of `plan` whose indices fall in `range`
    /// (clamped to the plan; an inverted or out-of-plan range clamps to
    /// empty) into `sink` in plan order. `plan` must come from this
    /// session's [`SweepSession::plan`]. Because every scenario derives its
    /// inputs from its own seed address, concatenating the streams of
    /// consecutive ranges is byte-identical to one run of the whole plan —
    /// the seam sharded and resumed runs build on.
    ///
    /// # Errors
    ///
    /// [`io::ErrorKind::InvalidInput`] when the spec fails
    /// [`ScenarioSpec::validate`] (nothing is evaluated); otherwise the
    /// first sink I/O error (the sweep aborts early).
    pub fn run_plan(
        &self,
        plan: &SweepPlan,
        range: Range<usize>,
        sink: &mut dyn OutcomeSink,
    ) -> io::Result<StreamSummary> {
        self.check_spec()?;
        match &plan.0 {
            Plan::Grid(scenarios) => {
                self.run_scenario_list(scenarios, range, &self.fresh_memo(), sink)
            }
            Plan::Frontier(frontier, memo) => {
                self.run_scenario_list(&frontier.scenarios, range, memo, sink)
            }
        }
    }

    /// Runs the whole plan: [`SweepSession::plan`], then
    /// [`SweepSession::run_plan`] over every index. Consumes the session;
    /// the [`SweepHandle`] from [`SweepSession::handle`] stays valid for
    /// progress reads afterwards.
    ///
    /// # Errors
    ///
    /// As [`SweepSession::run_plan`]; an invalid spec is refused before any
    /// probe runs.
    pub fn run(self, sink: &mut dyn OutcomeSink) -> io::Result<StreamSummary> {
        self.check_spec()?;
        let plan = self.plan();
        self.run_plan(&plan, 0..plan.len(), sink)
    }

    /// Runs the whole plan, buffering every outcome in plan order (a
    /// [`VecSink`] under the hood). Memory scales with the plan; prefer
    /// [`SweepSession::run`] for large sweeps.
    ///
    /// # Panics
    ///
    /// Panics when the spec fails [`ScenarioSpec::validate`].
    #[must_use]
    pub fn run_buffered(self) -> SweepResult {
        let mut sink = VecSink::new();
        let summary = self
            .run(&mut sink)
            .expect("a valid spec streaming into a VecSink cannot fail");
        SweepResult {
            name: summary.name,
            outcomes: sink.into_outcomes(),
            memo: summary.memo,
            elapsed: summary.elapsed,
            threads: summary.threads,
        }
    }

    /// A fresh memo: its counters mirror onto the engine track of the
    /// registry (inert when observability is off), and it is backed by the
    /// persistent store when one is configured.
    fn fresh_memo(&self) -> MemoCache {
        let memo = MemoCache::with_observability(&self.obs.registry().shard(ENGINE_TRACK));
        match &self.store {
            Some(store) => memo.backed_by(Arc::clone(store)),
            None => memo,
        }
    }

    /// Refuses a spec that fails [`ScenarioSpec::validate`].
    fn check_spec(&self) -> io::Result<()> {
        self.spec
            .validate()
            .map_err(|reason| io::Error::new(io::ErrorKind::InvalidInput, reason))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agg::{AggregateRow, SweepAccumulator};
    use crate::frontier::FrontierRunner;
    use crate::scenario::ScenarioOutcome;
    use crate::sink::{summary_to_csv, to_csv, to_jsonl, JsonlSink};
    use crate::spec::{
        AllocatorKind, FrontierConfig, PeriodPolicy, SyntheticOverrides, UtilizationGrid, Workload,
    };
    use proptest::prelude::*;

    fn tiny_spec() -> ScenarioSpec {
        let mut spec = ScenarioSpec::synthetic("api-test");
        spec.cores = vec![2];
        spec.utilizations = UtilizationGrid::Fractions(vec![0.3, 0.7]);
        spec.trials = 2;
        spec
    }

    /// `session` with its analysis kernels switched to `mode`.
    fn with_kernel(session: SweepSession, mode: BatchMode) -> SweepSession {
        SweepSession {
            batch: mode,
            ..session
        }
    }

    #[test]
    fn session_matches_the_executor_byte_for_byte() {
        // `run` is `plan` then the streaming core over the whole plan, in
        // plan order; `run_buffered` keeps the same outcomes and counters.
        let spec = tiny_spec();
        let session = SweepSession::new(spec.clone()).threads(1);
        let plan = session.plan();
        assert!(plan.frontier().is_none());
        assert_eq!(plan.scenarios(), ScenarioGrid::expand(&spec).scenarios());
        let mut expected = VecSink::new();
        session
            .run_plan(&plan, 0..plan.len(), &mut expected)
            .expect("VecSink is infallible");
        let mut sink = VecSink::new();
        let summary = session
            .clone()
            .run(&mut sink)
            .expect("VecSink is infallible");
        assert!(!summary.cancelled);
        assert_eq!(summary.evaluated(), plan.len());
        assert_eq!(sink.outcomes(), expected.outcomes());
        let emitted: Vec<Scenario> = sink.outcomes().iter().map(|o| o.scenario).collect();
        assert_eq!(emitted, plan.scenarios());
        let buffered = session.run_buffered();
        assert_eq!(buffered.outcomes, sink.into_outcomes());
        assert_eq!(buffered.memo, summary.memo);
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
        let full = SweepSession::new(spec.clone()).threads(1).run_buffered();
        let session = SweepSession::new(spec).threads(1);
        let plan = session.plan();
        let mut sink = VecSink::new();
        let summary = session
            .run_plan(&plan, 2..5, &mut sink)
            .expect("VecSink is infallible");
        assert_eq!(summary.range, 2..5);
        assert_eq!(sink.outcomes(), &full.outcomes[2..5]);
    }

    #[test]
    fn invalid_specs_are_refused_before_anything_is_emitted() {
        let mut frontier = tiny_spec();
        frontier.explore = ExploreMode::Frontier(FrontierConfig::default());
        frontier.expansion = crate::spec::Expansion::Sampled(3);
        let mut uav = ScenarioSpec::uav_detection("uav", 20, 5);
        uav.explore = ExploreMode::Frontier(FrontierConfig::default());
        let mut no_trials = tiny_spec();
        no_trials.trials = 0;
        let no_horizon = ScenarioSpec::uav_detection("uav", 0, 5);
        let no_attacks = ScenarioSpec::uav_detection("uav", 20, 0);
        let mut repeated_cores = tiny_spec();
        repeated_cores.cores = vec![2, 2];
        let mut repeated_utils = tiny_spec();
        repeated_utils.utilizations = UtilizationGrid::Fractions(vec![0.5, 0.5]);
        let mut repeated_allocator = tiny_spec();
        repeated_allocator.allocators = vec![AllocatorKind::Hydra, AllocatorKind::Hydra];
        let mut repeated_policy = tiny_spec();
        repeated_policy.period_policies = vec![PeriodPolicy::Joint, PeriodPolicy::Joint];
        let mut no_steps = tiny_spec();
        no_steps.utilizations = UtilizationGrid::NormalizedSteps(0);
        let mut no_utils = tiny_spec();
        no_utils.utilizations = UtilizationGrid::Fractions(Vec::new());
        let mut no_sample = tiny_spec();
        no_sample.expansion = crate::spec::Expansion::Sampled(0);
        // Specs that used to panic inside a worker or run nothing.
        let with = |edit: fn(&mut ScenarioSpec)| {
            let mut spec = tiny_spec();
            edit(&mut spec);
            spec
        };
        fn set_ranges(
            spec: &mut ScenarioSpec,
            rt: Option<(usize, usize)>,
            sec: Option<(usize, usize)>,
        ) {
            spec.workload = Workload::Synthetic(SyntheticOverrides {
                rt_tasks: rt,
                security_tasks: sec,
            });
        }
        // Each is fine without the frontier or with a trial.
        let mut sampled = frontier.clone();
        sampled.explore = ExploreMode::Exhaustive;
        for valid in [
            sampled,
            ScenarioSpec::uav_detection("uav", 20, 5),
            tiny_spec(),
        ] {
            assert_eq!(valid.validate(), Ok(()));
        }
        for spec in [
            frontier,
            uav,
            no_trials,
            no_horizon,
            no_attacks,
            repeated_cores,
            repeated_utils,
            repeated_allocator,
            repeated_policy,
            no_steps,
            no_utils,
            no_sample,
            with(|s| s.cores = vec![0]),
            with(|s| s.cores = Vec::new()),
            with(|s| s.utilizations = UtilizationGrid::Fractions(vec![0.0])),
            with(|s| s.utilizations = UtilizationGrid::Fractions(vec![-0.5])),
            with(|s| s.utilizations = UtilizationGrid::Fractions(vec![f64::NAN])),
            with(|s| s.utilizations = UtilizationGrid::NotApplicable),
            with(|s| s.allocators = Vec::new()),
            with(|s| s.period_policies = Vec::new()),
            with(|s| set_ranges(s, None, Some((5, 2)))),
            with(|s| set_ranges(s, None, Some((0, 0)))),
            with(|s| set_ranges(s, Some((0, 0)), None)),
            with(|s| {
                set_ranges(s, None, Some((1, 1)));
                s.cores = vec![8];
                s.utilizations = UtilizationGrid::Fractions(vec![0.6]);
            }),
        ] {
            let reason = spec.validate().expect_err("the spec is invalid");
            let mut sink = VecSink::new();
            let err = SweepSession::new(spec.clone())
                .threads(1)
                .run(&mut sink)
                .expect_err("the session refuses an invalid spec");
            assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
            assert_eq!(err.to_string(), reason);
            let session = SweepSession::new(spec);
            let plan = session.plan();
            let err = session
                .run_plan(&plan, 0..plan.len(), &mut sink)
                .expect_err("run_plan refuses it too");
            assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
            assert!(sink.outcomes().is_empty());
        }
    }

    /// A 20-point, 2-trial HYDRA frontier spec whose cliff lies inside the
    /// grid.
    fn hydra_frontier_spec() -> ScenarioSpec {
        let mut spec = ScenarioSpec::synthetic("api-frontier");
        spec.cores = vec![2];
        spec.utilizations =
            UtilizationGrid::Fractions((1..=20).map(|i| 0.06 * f64::from(i)).collect());
        spec.allocators = vec![AllocatorKind::Hydra];
        spec.trials = 2;
        spec.explore = ExploreMode::Frontier(FrontierConfig { refine_budget: 4 });
        spec
    }

    #[test]
    fn every_entry_point_runs_a_frontier_spec_the_same_way() {
        let spec = hydra_frontier_spec();
        let exhaustive = ScenarioGrid::expand(&spec).len();
        let mut reference: Option<(Vec<u8>, crate::memo::MemoStats)> = None;
        for threads in [1, 2, 4] {
            let session = SweepSession::new(spec.clone()).threads(threads);
            let plan = session.plan();
            assert!(plan.frontier().is_some());
            assert!(plan.len() < exhaustive, "{} of {exhaustive}", plan.len());
            assert_eq!(session.grid_len(), plan.len());

            let mut via_plan = JsonlSink::new(Vec::new());
            session
                .run_plan(&plan, 0..plan.len(), &mut via_plan)
                .expect("in-memory sink");
            let mut via_runner = JsonlSink::new(Vec::new());
            FrontierRunner::new(session.clone())
                .explore(&mut via_runner)
                .expect("in-memory sink");
            let mut via_run = JsonlSink::new(Vec::new());
            let summary = session.run(&mut via_run).expect("in-memory sink");

            assert_eq!(summary.evaluated(), plan.len());
            assert_eq!(summary.grid_len, plan.len());
            let bytes = via_run.into_inner();
            assert_eq!(bytes.iter().filter(|&&b| b == b'\n').count(), plan.len());
            assert_eq!(via_plan.into_inner(), bytes, "run_plan, {threads} threads");
            assert_eq!(via_runner.into_inner(), bytes, "explore, {threads} threads");
            match &reference {
                None => reference = Some((bytes, summary.memo)),
                Some((first, memo)) => {
                    assert_eq!(&bytes, first, "{threads} threads");
                    assert_eq!(&summary.memo, memo, "memo, {threads} threads");
                }
            }
        }
    }

    // ---- batch kernels vs the scalar oracles --------------------------------

    /// Folds buffered outcomes through one [`SweepAccumulator`] in grid order.
    fn accumulate(outcomes: &[ScenarioOutcome]) -> Vec<AggregateRow> {
        let mut acc = SweepAccumulator::new();
        for outcome in outcomes {
            acc.record(outcome);
        }
        acc.rows()
    }

    /// A small randomly-parameterised sweep spec: the property tests quantify
    /// over cores, trials, utilization grids, seeds and allocator subsets.
    fn arb_spec() -> impl Strategy<Value = ScenarioSpec> {
        (
            0u64..1_000_000, // base seed
            1usize..=3,      // trials
            2usize..=3,      // utilization steps
            0usize..=2,      // cores-axis selector
            0usize..=2,      // allocator-pair selector
            0usize..=2,      // period-policy selector
        )
            .prop_map(
                |(base_seed, trials, steps, cores_sel, alloc_sel, policy_sel)| {
                    let cores = match cores_sel {
                        0 => vec![2],
                        1 => vec![4],
                        _ => vec![2, 4],
                    };
                    let allocators = match alloc_sel {
                        0 => vec![AllocatorKind::Hydra, AllocatorKind::SingleCore],
                        1 => vec![AllocatorKind::Hydra, AllocatorKind::NpHydra],
                        _ => vec![
                            AllocatorKind::Hydra,
                            AllocatorKind::SingleCore,
                            AllocatorKind::NpHydra,
                        ],
                    };
                    let period_policies = match policy_sel {
                        0 => vec![PeriodPolicy::Fixed],
                        1 => vec![PeriodPolicy::Fixed, PeriodPolicy::Adapt],
                        _ => vec![
                            PeriodPolicy::Fixed,
                            PeriodPolicy::Adapt,
                            PeriodPolicy::Joint,
                        ],
                    };
                    let mut spec = ScenarioSpec::synthetic("determinism");
                    spec.cores = cores;
                    spec.utilizations = UtilizationGrid::NormalizedSteps(steps);
                    spec.allocators = allocators;
                    spec.period_policies = period_policies;
                    spec.trials = trials;
                    spec.base_seed = base_seed;
                    spec
                },
            )
    }

    #[test]
    fn batched_and_scalar_kernels_stream_identical_bytes() {
        // The batch-mode contract, pinned: switching the executor between the
        // batched paths (the default: the partitioner's preference-order
        // early exit and joint refinement's 8-lane kernels) and the scalar
        // oracles never changes an output byte — across the full allocator and
        // period-policy axes, at any thread count.
        let mut spec = ScenarioSpec::synthetic("batch-identity");
        spec.cores = vec![2, 4];
        spec.utilizations = UtilizationGrid::NormalizedSteps(3);
        spec.allocators = vec![
            AllocatorKind::Hydra,
            AllocatorKind::SingleCore,
            AllocatorKind::NpHydra,
        ];
        spec.period_policies = vec![
            PeriodPolicy::Fixed,
            PeriodPolicy::Adapt,
            PeriodPolicy::Joint,
        ];
        spec.trials = 2;

        let scalar = with_kernel(
            SweepSession::new(spec.clone()).threads(1),
            BatchMode::Scalar,
        )
        .run_buffered();
        let scalar_jsonl = to_jsonl(&scalar.outcomes);
        let scalar_csv = to_csv(&scalar.outcomes);
        let scalar_summary = summary_to_csv(&accumulate(&scalar.outcomes));

        for threads in [1usize, 2, 4] {
            for mode in [BatchMode::Batch, BatchMode::Scalar] {
                let run = with_kernel(SweepSession::new(spec.clone()).threads(threads), mode)
                    .run_buffered();
                let label = format!("threads={threads} mode={mode:?}");
                assert_eq!(
                    to_jsonl(&run.outcomes),
                    scalar_jsonl,
                    "JSONL differs with {label}"
                );
                assert_eq!(
                    to_csv(&run.outcomes),
                    scalar_csv,
                    "CSV differs with {label}"
                );
                assert_eq!(
                    summary_to_csv(&accumulate(&run.outcomes)),
                    scalar_summary,
                    "summary differs with {label}"
                );
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        #[test]
        fn batching_on_and_off_agree_on_random_sweeps(spec in arb_spec()) {
            // Quantified over random axes: the batched default and the scalar
            // oracle serialize every sweep to the identical bytes.
            let batched = SweepSession::new(spec.clone()).threads(1).run_buffered();
            let scalar = with_kernel(SweepSession::new(spec).threads(1), BatchMode::Scalar)
                .run_buffered();
            prop_assert_eq!(&batched.outcomes, &scalar.outcomes);
            prop_assert_eq!(to_jsonl(&batched.outcomes), to_jsonl(&scalar.outcomes));
            prop_assert_eq!(to_csv(&batched.outcomes), to_csv(&scalar.outcomes));
        }
    }
}
