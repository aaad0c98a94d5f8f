//! Scenario evaluation and the streaming core behind [`SweepSession`].
//!
//! The streaming core's work item is a **problem group**: the maximal run of
//! consecutive scenarios that share a problem address (cores, utilization,
//! problem stream). Workers claim whole groups from a shared atomic cursor
//! and evaluate each in list order (self-balancing: a worker that finishes
//! a cheap group immediately claims the next, so stragglers never idle the
//! pool). On an exhaustive grid a group holds every allocator × policy
//! variant of one task set, so no two workers ever look up the same memo
//! key: a worker's own earlier lookups are its hits. Every scenario derives
//! its inputs from its own `(base_seed, stream)` address, which makes
//! results independent of thread count, scheduling order and the
//! memoization layer — the property the determinism tests pin down. The
//! memo's single-flight cells make its work counters thread-independent
//! too, including on lists whose groups hold one scenario each.
//!
//! Results **stream**: a reorder buffer restores list order and feeds each
//! outcome to an [`OutcomeSink`] the moment its turn comes, while each worker
//! folds its own outcomes into a partial [`SweepAccumulator`] merged at the
//! end. Peak memory is therefore O(threads + reorder window) outcomes plus
//! the aggregate state — not O(grid) — and a backpressure gate keeps a
//! worker from racing more than one window ahead of the slowest scenario.
//! There is one execution path: the calling thread is worker 0 and only
//! `threads − 1` helpers are spawned, so a 1-thread run spawns nothing.
//! [`SweepSession::run_buffered`] is the buffered wrapper (a
//! [`crate::VecSink`]).
//!
//! Because a scenario's address fully determines its result, any contiguous
//! index range can be evaluated independently: [`shard_range`] splits a grid
//! into `n` chunks whose concatenated streams are byte-identical to a single
//! full run, which is what the `dse` CLI's `--shard i/n` and checkpoint
//! resume build on.

use std::collections::BTreeMap;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

use hydra_core::allocator::{Allocator, OptimalAllocator, SingleCoreAllocator};
use hydra_core::{Allocation, AllocationError, AllocationProblem};
use rt_core::batch::{BatchMode, BatchStats};
use rt_core::dbf::necessary_condition_default_horizon;
use rt_core::Time;
use rt_partition::{partition_tasks_with_mode, Partition};
use rt_sim::attack::{AttackScenario, InjectedAttack};
use rt_sim::detection::OnlineDetector;
use rt_sim::engine::{simulate_with_scratch, SimConfig, SimScratch};
use rt_sim::workload::{simulation_tasks_into, SimTask};
use taskgen::{derive_seed, generate_problem_seeded};

use crate::agg::SweepAccumulator;
use crate::api::SweepSession;
use crate::memo::{hash_taskset, AllocationKey, MemoCache, MemoStats, ProblemKey};
use crate::obs::{
    WorkerObs, ENGINE_TRACK, PHASE_ALLOCATE, PHASE_GENERATE, PHASE_PARTITION, PHASE_PERIOD_POLICY,
    PHASE_SIMULATE, PHASE_SINK,
};
use crate::scenario::{DetectionStats, Scenario, ScenarioOutcome};
use crate::sink::OutcomeSink;
use crate::spec::{AllocatorKind, Evaluation, ScenarioSpec, Workload};

/// Salt separating the attack-injection seed stream from the task-set
/// generation stream at the same scenario address.
const ATTACK_SALT: u64 = 0xa77a_c852_11fe_c7ed;

/// Fingerprint marking case-study problem keys (no generator config).
const CASE_STUDY_FINGERPRINT: u64 = u64::MAX;

/// The contiguous scenario-index range of shard `index` (1-based) out of
/// `count` equal splits of a grid: concatenating every shard's streamed
/// output in shard order is byte-identical to a single full-range run.
///
/// # Panics
///
/// Panics unless `1 <= index <= count`.
#[must_use]
pub fn shard_range(grid_len: usize, index: usize, count: usize) -> Range<usize> {
    assert!(
        index >= 1 && index <= count,
        "shard index must satisfy 1 <= {index} <= {count}"
    );
    let at = |i: usize| (i as u128 * grid_len as u128 / count as u128) as usize;
    at(index - 1)..at(index)
}

/// The completed execution of one **buffered** sweep (see
/// [`SweepSession::run_buffered`]). Memory scales with the plan; large
/// sweeps should stream through [`SweepSession::run`] instead.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepResult {
    /// Sweep name (copied from the spec).
    pub name: String,
    /// One outcome per scenario, in grid order — deterministic for a fixed
    /// spec regardless of thread count.
    pub outcomes: Vec<ScenarioOutcome>,
    /// Memoization hit/miss counters.
    pub memo: MemoStats,
    /// Wall-clock execution time (excluded from serialized outputs so they
    /// stay byte-deterministic).
    pub elapsed: Duration,
    /// Number of worker threads used.
    pub threads: usize,
}

impl SweepResult {
    /// Evaluated scenarios per wall-clock second, or `None` when the sweep
    /// finished below timer resolution (never `inf`/NaN — non-finite numbers
    /// must stay out of every report).
    #[must_use]
    pub fn scenarios_per_sec(&self) -> Option<f64> {
        throughput(self.outcomes.len(), self.elapsed)
    }
}

/// The completed execution of one **streaming** sweep range: everything a
/// caller needs except the outcomes themselves, which went to the sink.
#[derive(Debug)]
pub struct StreamSummary {
    /// Sweep name (copied from the spec).
    pub name: String,
    /// Length of the run's plan: the expanded grid (after sampling) of an
    /// exhaustive spec, or the emission list of a frontier spec.
    pub grid_len: usize,
    /// The evaluated scenario-index range (clamped to the plan).
    pub range: Range<usize>,
    /// Merged per-worker partial aggregates over the evaluated range.
    pub partial: SweepAccumulator,
    /// Memoization hit/miss counters.
    pub memo: MemoStats,
    /// Wall-clock execution time.
    pub elapsed: Duration,
    /// Number of worker threads used.
    pub threads: usize,
    /// Whether the run was cut short by [`crate::SweepHandle::cancel`]. A
    /// cancelled run still finished its sink cleanly; `range` covers
    /// exactly the outcomes the sink received.
    pub cancelled: bool,
}

impl StreamSummary {
    /// Number of scenarios evaluated (the length of the range).
    #[must_use]
    pub fn evaluated(&self) -> usize {
        self.range.len()
    }

    /// Evaluated scenarios per wall-clock second, or `None` when the sweep
    /// finished below timer resolution.
    #[must_use]
    pub fn scenarios_per_sec(&self) -> Option<f64> {
        throughput(self.evaluated(), self.elapsed)
    }
}

fn throughput(evaluated: usize, elapsed: Duration) -> Option<f64> {
    let secs = elapsed.as_secs_f64();
    (secs > 0.0).then(|| evaluated as f64 / secs)
}

/// Per-worker reusable evaluation buffers. Each worker thread owns one
/// scratch for the whole sweep, so the steady-state per-scenario evaluation
/// of the hot detection path — building the simulator workload, generating
/// the attack schedule, running the event-driven simulation and folding the
/// detection latencies — recycles these buffers instead of allocating.
///
/// The scratch also holds the real-time partitions of the worker's current
/// problem group (see `EvalScratch::partition`).
#[derive(Debug, Default)]
pub struct EvalScratch {
    /// The current group's real-time partitions (failures included), keyed
    /// by problem and partitioned core count. Cleared when the worker claims
    /// its next group, so it never holds more than the group's one problem.
    partitions: Vec<(PartitionKey, Result<Partition, AllocationError>)>,
    /// The simulator workload (`SimTask` names reuse their `String`s).
    tasks: Vec<SimTask>,
    /// The injected attack schedule.
    attacks: Vec<InjectedAttack>,
    /// The attack-target cycle (`0..n_sec`).
    targets: Vec<usize>,
    /// Sorted latency samples staged for the outcome record.
    latencies: Vec<f64>,
    /// The event-driven engine's heaps and member lists.
    sim: SimScratch,
    /// The streaming detection observer.
    detector: OnlineDetector,
}

/// Identifies one real-time partition: the problem and the number of cores
/// its real-time tasks are packed onto.
type PartitionKey = (ProblemKey, usize);

impl EvalScratch {
    /// Creates an empty scratch.
    #[must_use]
    pub fn new() -> Self {
        EvalScratch::default()
    }

    /// Forgets the previous group's partitions.
    fn begin_group(&mut self) {
        self.partitions.clear();
    }

    /// The real-time partition of `problem` on `rt_cores` cores. The group's
    /// first request builds it (one `partition_tasks` run, spanned and
    /// batch-counted) and every later scheme of the group shares it: HYDRA,
    /// NP-HYDRA, Precedence and Optimal all pack `problem.rt_tasks` onto the
    /// full platform under `problem.partition_config`, while SingleCore
    /// packs `M − 1` cores. A failure is shared the same way. The reuse is
    /// group-local, so the partition count does not depend on the thread
    /// count and needs no memo family (see "The retired partition family"
    /// in `memo.rs`).
    fn partition(
        &mut self,
        key: PartitionKey,
        problem: &AllocationProblem,
        wobs: &WorkerObs,
        mode: BatchMode,
    ) -> Result<&Partition, AllocationError> {
        let at = match self.partitions.iter().position(|(k, _)| *k == key) {
            Some(at) => at,
            None => {
                let built = partition_inline(problem, key.1, wobs, mode);
                self.partitions.push((key, built));
                self.partitions.len() - 1
            }
        };
        self.partitions[at].1.as_ref().map_err(Clone::clone)
    }
}

/// The in-order emission state shared by all workers: a reorder buffer over
/// the out-of-order completions plus the sink it drains into.
struct Drain<'s> {
    /// Relative index of the next outcome to hand to the sink.
    next: usize,
    /// Completed outcomes waiting for their turn.
    pending: BTreeMap<usize, ScenarioOutcome>,
    /// The grid-order consumer.
    sink: &'s mut dyn OutcomeSink,
    /// First sink error; set once, aborts the sweep.
    error: Option<std::io::Error>,
    /// Workers asleep at the backpressure gate; the turnstile is signalled
    /// only when someone waits on it.
    waiting: usize,
}

impl Drain<'_> {
    /// Takes the outcome of list index `i`. On its turn it goes straight to
    /// the sink, followed by every parked successor now due; otherwise it
    /// parks in the reorder buffer. Returns whether the sink advanced.
    fn complete(&mut self, i: usize, outcome: ScenarioOutcome, wobs: &WorkerObs) -> bool {
        if self.error.is_some() {
            return false;
        }
        if i != self.next {
            self.pending.insert(i, outcome);
            return false;
        }
        self.emit(&outcome, wobs);
        while self.error.is_none() {
            let Some(ready) = self.pending.remove(&self.next) else {
                break;
            };
            self.emit(&ready, wobs);
        }
        true
    }

    /// Records one outcome whose turn has come.
    fn emit(&mut self, outcome: &ScenarioOutcome, wobs: &WorkerObs) {
        let span = wobs.tracer.span(PHASE_SINK);
        let recorded = self.sink.record(outcome);
        drop(span);
        match recorded {
            Ok(()) => self.next += 1,
            Err(error) => self.error = Some(error),
        }
    }
}

/// Splits a scenario list into **problem groups**: the maximal runs of
/// consecutive scenarios that share a problem address (cores, utilization,
/// problem stream) and with it the problem, its Eq. (1) verdict and one
/// allocation per scheme. Exhaustive grids keep the allocator and policy
/// axes innermost, so each group holds every variant of one task set;
/// frontier lists put the trial axis innermost, so theirs hold one scenario
/// each.
fn problem_groups(scenarios: &[Scenario]) -> Vec<Range<usize>> {
    let same_problem = |a: &Scenario, b: &Scenario| {
        a.cores == b.cores
            && a.problem_stream == b.problem_stream
            && a.utilization.map(f64::to_bits) == b.utilization.map(f64::to_bits)
    };
    let mut groups: Vec<Range<usize>> = Vec::new();
    for (i, scenario) in scenarios.iter().enumerate() {
        match groups.last_mut() {
            Some(group) if same_problem(&scenarios[group.start], scenario) => group.end = i + 1,
            _ => groups.push(i..i + 1),
        }
    }
    groups
}

impl SweepSession {
    fn resolve_threads(&self, work_items: usize) -> usize {
        let auto = std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1);
        let requested = if self.threads == 0 {
            auto
        } else {
            self.threads
        };
        requested.clamp(1, work_items.max(1))
    }

    /// Streams `range` (clamped) of an explicit scenario list through
    /// `memo` — the streaming core every plan (and every frontier probe
    /// round) funnels through. Each [`Scenario::index`] must equal its list
    /// position, or the reorder buffer and sink indices disagree.
    /// [`StreamSummary::memo`] reports `memo`'s counters, cumulative over
    /// every run that shared it.
    ///
    /// # Errors
    ///
    /// Propagates the first sink I/O error (the sweep aborts early).
    pub(crate) fn run_scenario_list(
        &self,
        scenarios: &[Scenario],
        range: Range<usize>,
        memo: &MemoCache,
        sink: &mut dyn OutcomeSink,
    ) -> std::io::Result<StreamSummary> {
        let grid_len = scenarios.len();
        let end = range.end.min(grid_len);
        let range = range.start.min(end)..end;
        let slice = &scenarios[range.clone()];
        let groups = problem_groups(slice);
        let threads = self.resolve_threads(groups.len());
        self.handle.arm(slice.len());
        // lint-ok(D002): elapsed feeds only StreamSummary.elapsed (stderr
        // reporting) — the determinism tests pin that no outcome byte sees it.
        #[allow(clippy::disallowed_methods)]
        let started = Instant::now();

        let partial = self.stream_parallel(slice, &groups, threads, memo, sink)?;

        // A cancelled run delivered a prefix of the range: shrink it so
        // `evaluated()` keeps meaning "outcomes the sink saw". (The partial
        // aggregate of a cancelled parallel run may additionally cover
        // completed-but-undrained outcomes; cancellation is a shutdown path,
        // not a byte-deterministic one.)
        let cancelled = self.handle.is_cancelled();
        let range = if cancelled {
            range.start..(range.start + self.handle.progress().done)
        } else {
            range
        };

        Ok(StreamSummary {
            name: self.spec.name.clone(),
            grid_len,
            range,
            partial,
            memo: memo.stats(),
            elapsed: started.elapsed(),
            threads,
            cancelled,
        })
    }

    /// The one execution path. Workers claim whole problem `groups` from an
    /// atomic cursor and evaluate each group in list order, so all variants
    /// of one task set run on one worker and no two workers compute the
    /// same memo entry. Each outcome goes to a reorder buffer the moment it
    /// is done, which drains to the sink in list order, and a backpressure
    /// gate caps how far any worker may run ahead of the drain.
    /// Cancellation is checked before every scenario. The calling thread is
    /// worker 0 and only `threads − 1` helpers are spawned: a 1-thread run
    /// spawns nothing and records each outcome straight into the sink.
    fn stream_parallel(
        &self,
        slice: &[Scenario],
        groups: &[Range<usize>],
        threads: usize,
        memo: &MemoCache,
        sink: &mut dyn OutcomeSink,
    ) -> std::io::Result<SweepAccumulator> {
        // The reorder window bounds pending outcomes: a worker stuck on the
        // scenario the drain waits for can stall at most `window` completed
        // outcomes behind it (plus one in flight per worker).
        let window = (threads * 32).clamp(64, 1024);
        let cursor = AtomicUsize::new(0);
        let drain = Mutex::new(Drain {
            next: 0,
            pending: BTreeMap::new(),
            sink,
            error: None,
            waiting: 0,
        });
        let turnstile = Condvar::new();
        // The reorder-buffer depth is a property of the shared drain, not of
        // any worker, so every worker writes the same engine-track gauge
        // (always under the drain lock — no torn updates).
        let reorder_depth = self
            .obs
            .registry()
            .shard(ENGINE_TRACK)
            .gauge("drain.reorder_depth");
        let cancelled = || self.handle.is_cancelled();

        let work = |worker_index: usize| -> SweepAccumulator {
            let wobs = self.obs.worker(worker_index);
            let mut local = SweepAccumulator::new();
            let mut scratch = EvalScratch::new();
            // The drain position this worker last saw. It only grows, so an
            // index inside the window of this lower bound needs no lock to
            // pass the backpressure gate.
            let mut seen_next = 0;
            // relaxed-ok: the fetch_add's RMW atomicity alone guarantees
            // unique groups; no data rides on this atomic — outcome handoff
            // synchronizes through the `drain` mutex below, scenario inputs
            // are immutable.
            'claim: while let Some(group) = groups.get(cursor.fetch_add(1, Ordering::Relaxed)) {
                scratch.begin_group();
                for i in group.clone() {
                    if cancelled() {
                        break 'claim;
                    }
                    // Backpressure: wait until the drain is within one window
                    // of this index. The worker holding the drain's next
                    // index never waits, so progress is guaranteed. The wait
                    // is periodically re-armed so a cancel delivered while
                    // every worker sleeps still terminates the pool.
                    if i >= seen_next + window {
                        let mut state = drain.lock().expect("drain poisoned");
                        if state.error.is_none() && i >= state.next + window {
                            // lint-ok(D002): metrics-gated backpressure
                            // timing, rt-obs counters only.
                            #[allow(clippy::disallowed_methods)]
                            let waited = wobs.metrics_enabled().then(Instant::now);
                            state.waiting += 1;
                            while state.error.is_none() && i >= state.next + window && !cancelled()
                            {
                                state = turnstile
                                    .wait_timeout(state, Duration::from_millis(25))
                                    .expect("drain poisoned")
                                    .0;
                            }
                            state.waiting -= 1;
                            if let Some(t0) = waited {
                                wobs.backpressure_waits.inc();
                                wobs.backpressure_wait_ns.add(
                                    u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX),
                                );
                            }
                        }
                        if state.error.is_some() || cancelled() {
                            break 'claim;
                        }
                    }
                    // lint-ok(D002): metrics-gated timing feeds the rt-obs
                    // histogram only; obs-on/off byte-identity is pinned in
                    // CI.
                    #[allow(clippy::disallowed_methods)]
                    let timed = wobs.metrics_enabled().then(Instant::now);
                    let outcome =
                        evaluate(&self.spec, &slice[i], memo, &mut scratch, &wobs, self.batch);
                    wobs.record_scenario(timed.map(|t| t.elapsed()));
                    local.record(&outcome);
                    let mut state = drain.lock().expect("drain poisoned");
                    let advanced = state.complete(i, outcome, &wobs);
                    seen_next = state.next;
                    self.handle.set_done(state.next);
                    reorder_depth.set(state.pending.len() as i64);
                    let failed = state.error.is_some();
                    let wake = (advanced || failed) && state.waiting > 0;
                    drop(state);
                    if wake {
                        turnstile.notify_all();
                    }
                    if failed {
                        break 'claim;
                    }
                }
            }
            wobs.add_sim_stats(scratch.sim.stats());
            local
        };

        let partial = std::thread::scope(|scope| {
            let work = &work;
            let helpers: Vec<_> = (1..threads)
                .map(|worker_index| scope.spawn(move || work(worker_index)))
                .collect();
            let mut partial = work(0);
            for helper in helpers {
                match helper.join() {
                    Ok(local) => partial.merge(local),
                    Err(panic) => std::panic::resume_unwind(panic),
                }
            }
            partial
        });

        let state = drain.into_inner().expect("drain poisoned");
        if let Some(error) = state.error {
            return Err(error);
        }
        // A cancelled run legitimately leaves completed-but-undrained
        // outcomes behind; only a clean finish must have drained everything.
        if !cancelled() {
            debug_assert_eq!(state.next, slice.len());
            debug_assert!(state.pending.is_empty());
        }
        state.sink.finish()?;
        Ok(partial)
    }
}

/// Evaluates a single scenario point, reusing the worker's `scratch`.
fn evaluate(
    spec: &ScenarioSpec,
    scenario: &Scenario,
    memo: &MemoCache,
    scratch: &mut EvalScratch,
    wobs: &WorkerObs,
    mode: BatchMode,
) -> ScenarioOutcome {
    match &spec.workload {
        Workload::Synthetic(overrides) => {
            let utilization = scenario
                .utilization
                .expect("synthetic scenarios carry a utilization");
            let key = ProblemKey {
                cores: scenario.cores,
                utilization_bits: utilization.to_bits(),
                base_seed: spec.base_seed,
                stream: scenario.problem_stream,
                config_fingerprint: overrides.fingerprint(),
            };
            let problem = memo.problem(key, || {
                let _span = wobs.tracer.span(PHASE_GENERATE);
                let config = overrides.config_for(scenario.cores);
                generate_problem_seeded(
                    &config,
                    utilization,
                    spec.base_seed,
                    scenario.problem_stream,
                )
            });
            let taskset_hash = hash_taskset(&problem.rt_tasks);
            let feasible = memo.feasibility(taskset_hash, scenario.cores, || {
                necessary_condition_default_horizon(&problem.rt_tasks, scenario.cores)
            });
            if !feasible {
                return ScenarioOutcome::infeasible(
                    *scenario,
                    problem.rt_tasks.len(),
                    problem.security_tasks.len(),
                    problem.total_utilization(),
                );
            }
            allocate_and_measure(spec, scenario, key, &problem, memo, scratch, wobs, mode)
        }
        Workload::CaseStudyUav => {
            let key = ProblemKey {
                cores: scenario.cores,
                utilization_bits: 0,
                base_seed: spec.base_seed,
                stream: scenario.problem_stream,
                config_fingerprint: CASE_STUDY_FINGERPRINT,
            };
            let problem = memo.problem(key, || {
                let _span = wobs.tracer.span(PHASE_GENERATE);
                AllocationProblem::new(
                    hydra_core::casestudy::uav_rt_tasks(),
                    hydra_core::catalog::table1_tasks(),
                    scenario.cores,
                )
                .with_partition_config(Workload::uav_partition_config())
            });
            allocate_and_measure(spec, scenario, key, &problem, memo, scratch, wobs, mode)
        }
    }
}

/// Builds one real-time partition: a `partition_tasks` run, spanned and
/// batch-counted. [`EvalScratch::partition`] calls it once per problem
/// group and core count.
fn partition_inline(
    problem: &AllocationProblem,
    rt_cores: usize,
    wobs: &WorkerObs,
    mode: BatchMode,
) -> Result<Partition, AllocationError> {
    let _span = wobs.tracer.span(PHASE_PARTITION);
    let mut bstats = BatchStats::default();
    let built = partition_tasks_with_mode(
        &problem.rt_tasks,
        rt_cores,
        &problem.partition_config,
        mode,
        &mut bstats,
    )
    .map_err(|e| AllocationError::RtPartitionFailed {
        task: e.task,
        cores: rt_cores,
    });
    wobs.add_batch_stats(&bstats);
    built
}

/// Runs the scenario's allocator against the group's shared real-time
/// partition. Schemes other than SingleCore partition the full platform;
/// SingleCore partitions `M − 1` cores and re-expresses the result over the
/// full platform.
fn allocate_shared(
    scenario: &Scenario,
    allocator: &dyn Allocator,
    problem_key: ProblemKey,
    problem: &AllocationProblem,
    scratch: &mut EvalScratch,
    wobs: &WorkerObs,
    mode: BatchMode,
) -> Result<Allocation, AllocationError> {
    let single_core = scenario.allocator == AllocatorKind::SingleCore;
    if single_core && problem.cores < 2 {
        // Scheme-specific rejection; no partition is ever computed.
        return allocator.allocate(problem);
    }
    let rt_cores = if single_core {
        problem.cores - 1
    } else {
        problem.cores
    };
    let partition = scratch.partition((problem_key, rt_cores), problem, wobs, mode)?;
    if single_core {
        let widened =
            SingleCoreAllocator::widen_partition(partition, problem.cores, problem.rt_tasks.len());
        allocator.allocate_with_rt_partition(problem, &widened)
    } else {
        allocator.allocate_with_rt_partition(problem, partition)
    }
}

/// The Optimal scheme's allocation path: shares the full-platform partition
/// exactly like [`allocate_shared`], but runs the branch-and-bound through
/// its stats-returning entry point so the search counters flow onto the
/// registry. The returned allocation is identical to the plain
/// [`Allocator::allocate_with_rt_partition`] path.
fn allocate_optimal(
    problem_key: ProblemKey,
    problem: &AllocationProblem,
    scratch: &mut EvalScratch,
    wobs: &WorkerObs,
    mode: BatchMode,
) -> Result<Allocation, AllocationError> {
    let partition = scratch.partition((problem_key, problem.cores), problem, wobs, mode)?;
    let (allocation, stats) =
        OptimalAllocator::default().allocate_with_rt_partition_stats(problem, partition)?;
    wobs.add_search_stats(stats.visited, stats.pruned, stats.total);
    Ok(allocation)
}

#[allow(clippy::too_many_arguments)]
fn allocate_and_measure(
    spec: &ScenarioSpec,
    scenario: &Scenario,
    problem_key: ProblemKey,
    problem: &AllocationProblem,
    memo: &MemoCache,
    scratch: &mut EvalScratch,
    wobs: &WorkerObs,
    mode: BatchMode,
) -> ScenarioOutcome {
    let base = ScenarioOutcome {
        scenario: *scenario,
        feasible: true,
        schedulable: false,
        error: None,
        n_rt: problem.rt_tasks.len(),
        n_sec: problem.security_tasks.len(),
        total_utilization: problem.total_utilization(),
        cumulative_tightness: None,
        mean_tightness: None,
        period_slack: None,
        freq_ratio: None,
        detection: None,
    };
    // One placement search per (problem, scheme): scenarios differing only
    // in the period policy share the allocator run through the memo.
    let shared = memo.allocation(
        AllocationKey {
            problem: problem_key,
            allocator: scenario.allocator,
        },
        || {
            let _span = wobs.tracer.span(PHASE_ALLOCATE);
            if scenario.allocator == AllocatorKind::Optimal {
                // Routed through the stats-returning entry point (identical
                // result) so the search counters reach the registry.
                allocate_optimal(problem_key, problem, scratch, wobs, mode)
            } else {
                let allocator = scenario
                    .allocator
                    .build(problem.security_tasks.len(), &spec.workload);
                allocate_shared(
                    scenario,
                    &*allocator,
                    problem_key,
                    problem,
                    scratch,
                    wobs,
                    mode,
                )
            }
        },
    );
    match shared.as_ref() {
        Ok(allocation) => {
            // The period-policy axis acts here: the scheme's placement is
            // kept, the granted periods are re-optimised (or not) before any
            // metric — including the detection simulation — is taken.
            // Schemes whose grants carry invariants the per-core pass cannot
            // preserve (precedence ordering across cores) keep their granted
            // periods under every policy.
            let allocation = if scenario.allocator.supports_period_reoptimization() {
                let _span = wobs.tracer.span(PHASE_PERIOD_POLICY);
                scenario
                    .policy
                    .apply_with_mode(problem, allocation.clone(), mode)
            } else {
                allocation.clone()
            };
            let detection = match spec.evaluation {
                Evaluation::Allocate => None,
                Evaluation::Detection { horizon, attacks } => Some(measure_detection(
                    spec,
                    scenario,
                    problem,
                    &allocation,
                    horizon,
                    attacks,
                    scratch,
                    wobs,
                )),
            };
            ScenarioOutcome {
                schedulable: true,
                cumulative_tightness: Some(
                    allocation.cumulative_tightness(&problem.security_tasks),
                ),
                mean_tightness: Some(allocation.mean_tightness()),
                period_slack: allocation.mean_period_slack(&problem.security_tasks),
                freq_ratio: allocation.frequency_ratio(&problem.security_tasks),
                detection,
                ..base
            }
        }
        Err(error) => ScenarioOutcome {
            error: Some(error.to_string()),
            ..base
        },
    }
}

#[allow(clippy::too_many_arguments)]
fn measure_detection(
    spec: &ScenarioSpec,
    scenario: &Scenario,
    problem: &AllocationProblem,
    allocation: &hydra_core::Allocation,
    horizon: Time,
    attacks: usize,
    scratch: &mut EvalScratch,
    wobs: &WorkerObs,
) -> DetectionStats {
    // One span over the whole measurement: workload build, attack
    // generation, the event-driven simulation and the latency fold.
    let _span = wobs.tracer.span(PHASE_SIMULATE);
    simulation_tasks_into(problem, allocation, &mut scratch.tasks);
    // Keep injections away from the tail so slow checks can still complete;
    // the seed depends on the problem address but NOT the allocator, so every
    // scheme faces the identical attack times (paired comparison).
    let margin = Time::from_secs(60).min(horizon / 2);
    let attack_seed = derive_seed(spec.base_seed ^ ATTACK_SALT, scenario.problem_stream);
    scratch.targets.clear();
    scratch.targets.extend(0..problem.security_tasks.len());
    AttackScenario::new(horizon, margin, attack_seed).generate_into(
        attacks,
        &scratch.targets,
        &mut scratch.attacks,
    );
    // One streaming pass: no trace is materialised, detection latencies fold
    // online per completed job, and the simulation stops as soon as every
    // attack is resolved — outcomes are identical to the trace-based
    // measurement (pinned by the rt-sim equality tests). The detector
    // observes only the attacked security tasks, so the engine skips every
    // core that hosts none and runs the others on their real-time idle
    // supply.
    scratch.detector.begin(&scratch.tasks, &scratch.attacks);
    if !scratch.detector.finished() {
        simulate_with_scratch(
            &scratch.tasks,
            &SimConfig::new(horizon),
            &mut scratch.sim,
            &mut scratch.detector,
        );
    }
    scratch.latencies.clear();
    scratch.latencies.extend(
        scratch
            .detector
            .outcomes()
            .iter()
            .filter_map(|o| o.latency())
            .map(|t| t.as_millis_f64()),
    );
    scratch
        .latencies
        .sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    // The samples arrive sorted, so the percentile summaries are computed
    // with the no-clone `percentile_sorted` fast path.
    DetectionStats::from_sorted_latencies(scratch.attacks.len(), scratch.latencies.clone())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::ScenarioGrid;
    use crate::obs::SweepObs;
    use crate::sink::{to_csv, to_jsonl, CsvSink, JsonlSink, VecSink};
    use crate::spec::{AllocatorKind, ScenarioSpec, UtilizationGrid};

    /// Buffers a whole run of `spec` on `threads` workers.
    fn run(spec: &ScenarioSpec, threads: usize) -> SweepResult {
        SweepSession::new(spec.clone())
            .threads(threads)
            .run_buffered()
    }

    /// Streams `range` of the plan of `spec` on `threads` workers.
    fn run_range(
        spec: &ScenarioSpec,
        threads: usize,
        range: Range<usize>,
        sink: &mut dyn OutcomeSink,
    ) -> std::io::Result<StreamSummary> {
        let session = SweepSession::new(spec.clone()).threads(threads);
        session.run_plan(&session.plan(), range, sink)
    }

    fn tiny_spec() -> ScenarioSpec {
        let mut spec = ScenarioSpec::synthetic("tiny");
        spec.cores = vec![2];
        spec.utilizations = UtilizationGrid::Fractions(vec![0.2, 0.5]);
        spec.allocators = vec![AllocatorKind::Hydra, AllocatorKind::SingleCore];
        spec.trials = 3;
        spec
    }

    #[test]
    fn serial_and_parallel_agree_exactly() {
        let spec = tiny_spec();
        let serial = run(&spec, 1);
        let parallel = run(&spec, 4);
        assert_eq!(serial.outcomes, parallel.outcomes);
        assert_eq!(serial.outcomes.len(), 12);
    }

    #[test]
    fn problem_groups_hold_every_variant_of_one_task_set() {
        use crate::spec::PeriodPolicy;
        let mut spec = tiny_spec();
        spec.period_policies = vec![PeriodPolicy::Fixed, PeriodPolicy::Joint];
        let grid = ScenarioGrid::expand(&spec).into_scenarios();
        let groups = problem_groups(&grid);
        // 2 utilizations × 3 trials, each with 2 allocators × 2 policies.
        assert_eq!(groups.len(), 6);
        let mut covered = 0;
        for group in &groups {
            assert_eq!(group.start, covered);
            assert_eq!(group.len(), 4);
            covered = group.end;
            let stream = grid[group.start].problem_stream;
            assert!(grid[group.clone()]
                .iter()
                .all(|s| s.problem_stream == stream));
        }
        assert_eq!(covered, grid.len());
        // A list with the trial axis innermost splits into singletons.
        let mut trial_major = grid.clone();
        trial_major.sort_by_key(|s| (s.allocator, s.policy, s.problem_stream));
        assert!(problem_groups(&trial_major).iter().all(|g| g.len() == 1));
        assert!(problem_groups(&[]).is_empty());
    }

    #[test]
    fn allocator_axis_shares_problem_instances() {
        let spec = tiny_spec();
        let result = run(&spec, 1);
        // Problems are generated once per (cores, util, trial) point and
        // reused across both allocators.
        assert_eq!(result.memo.problem_misses, 6);
        assert_eq!(result.memo.problem_hits, 6);
        // Paired scenarios report identical problem shapes.
        for pair in result.outcomes.chunks(2) {
            assert_eq!(pair[0].n_rt, pair[1].n_rt);
            assert_eq!(pair[0].n_sec, pair[1].n_sec);
            assert_eq!(pair[0].total_utilization, pair[1].total_utilization);
        }
    }

    #[test]
    fn allocator_axis_runs_one_allocation_per_scheme() {
        // Each scheme's placement search is its own allocation-memo entry:
        // one miss per (problem, scheme), never a cross-scheme hit. Only
        // the real-time partition under it is shared across schemes, inside
        // the problem group — see memo.rs, "the retired partition family".
        let mut spec = tiny_spec();
        spec.allocators = vec![AllocatorKind::Hydra, AllocatorKind::NpHydra];
        let result = run(&spec, 1);
        let feasible_problems = result
            .outcomes
            .iter()
            .filter(|o| o.feasible && o.scenario.allocator == AllocatorKind::Hydra)
            .count() as u64;
        assert!(feasible_problems > 0);
        assert_eq!(result.memo.allocation_misses, 2 * feasible_problems);
        assert_eq!(result.memo.allocation_hits, 0);
    }

    /// Spans the `partition` phase recorded.
    fn partition_count(obs: &SweepObs) -> u64 {
        obs.phase_rows()
            .iter()
            .find(|row| row.name == "partition")
            .map_or(0, |row| row.count)
    }

    #[test]
    fn the_schemes_of_one_problem_share_its_partitions_at_any_thread_count() {
        use crate::spec::PeriodPolicy;
        // HYDRA and NP-HYDRA pack the real-time tasks onto all M cores and
        // share that partition; SingleCore packs M − 1 cores and builds its
        // own. An exhaustive 3-scheme × 3-policy grid therefore runs exactly
        // two partitions per Eq. (1)-feasible problem, and the reuse is
        // group-local, so the count holds at every thread count.
        let mut spec = tiny_spec();
        spec.cores = vec![2, 4];
        spec.utilizations = UtilizationGrid::Fractions(vec![0.2, 0.5, 0.8]);
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
        for threads in [1, 2, 4] {
            let obs = SweepObs::enabled();
            let result = SweepSession::new(spec.clone())
                .threads(threads)
                .observability(obs.clone())
                .run_buffered();
            let feasible_problems = result
                .outcomes
                .iter()
                .filter(|o| {
                    o.feasible
                        && o.scenario.allocator == AllocatorKind::Hydra
                        && o.scenario.policy == PeriodPolicy::Fixed
                })
                .count() as u64;
            assert!(feasible_problems > 0);
            assert_eq!(
                partition_count(&obs),
                2 * feasible_problems,
                "{threads} threads"
            );
        }
    }

    #[test]
    fn a_failed_partition_is_shared_like_a_successful_one() {
        // Near full utilization the real-time partition fails on problems
        // Eq. (1) lets through. HYDRA and NP-HYDRA then report the one
        // shared failure, and each problem runs one partition.
        let mut spec = tiny_spec();
        spec.utilizations = UtilizationGrid::Fractions(vec![0.95, 1.0]);
        spec.allocators = vec![AllocatorKind::Hydra, AllocatorKind::NpHydra];
        spec.trials = 8;
        let obs = SweepObs::enabled();
        let result = SweepSession::new(spec.clone())
            .threads(1)
            .observability(obs.clone())
            .run_buffered();
        let mut failed = 0;
        let mut feasible_problems = 0;
        for pair in result.outcomes.chunks(2) {
            assert_eq!(pair[0].scenario.allocator, AllocatorKind::Hydra);
            assert_eq!(pair[1].scenario.allocator, AllocatorKind::NpHydra);
            assert_eq!(pair[0].error, pair[1].error);
            feasible_problems += u64::from(pair[0].feasible);
            failed += usize::from(
                pair[0]
                    .error
                    .as_deref()
                    .is_some_and(|e| e.contains("cannot be partitioned")),
            );
        }
        assert!(failed > 0, "the grid must hit partition failures");
        assert_eq!(partition_count(&obs), feasible_problems);
    }

    #[test]
    fn single_core_reexpresses_the_smaller_partition_over_the_full_platform() {
        // SingleCore partitions M − 1 cores inline and widens the result to
        // the full platform; the path must agree with the scheme's own
        // allocate() on every outcome (pinned indirectly: outcomes carry the
        // same schedulability as the pre-refactor engine's, which the
        // determinism tests diff at the byte level).
        let spec = tiny_spec();
        let result = run(&spec, 1);
        let mut scheduled = 0usize;
        for outcome in &result.outcomes {
            if outcome.scenario.allocator == AllocatorKind::SingleCore && outcome.schedulable {
                assert!(outcome.cumulative_tightness.is_some());
                scheduled += 1;
            }
        }
        assert!(
            scheduled > 0,
            "tiny spec must schedule some SingleCore points"
        );
    }

    #[test]
    fn period_policy_axis_shares_problems_and_allocations() {
        use crate::spec::PeriodPolicy;
        // Three policy variants of one allocator re-use the generated
        // problem *and* the allocator run (which partitions inline): the
        // policy pass happens after allocation, so the axis costs no
        // regeneration at all.
        let mut spec = tiny_spec();
        spec.allocators = vec![AllocatorKind::Hydra];
        spec.period_policies = vec![
            PeriodPolicy::Fixed,
            PeriodPolicy::Adapt,
            PeriodPolicy::Joint,
        ];
        let result = run(&spec, 1);
        assert_eq!(result.outcomes.len(), 18);
        assert_eq!(result.memo.problem_misses, 6);
        assert_eq!(result.memo.problem_hits, 12);
        let feasible_problems = result
            .outcomes
            .iter()
            .filter(|o| o.feasible && o.scenario.policy == PeriodPolicy::Fixed)
            .count() as u64;
        assert!(feasible_problems > 0);
        // The placement search itself runs once per (problem, scheme) and
        // the other two policies reuse it.
        assert_eq!(result.memo.allocation_misses, feasible_problems);
        assert_eq!(result.memo.allocation_hits, 2 * feasible_problems);
    }

    #[test]
    fn period_policies_are_paired_and_ordered() {
        use crate::spec::PeriodPolicy;
        let mut spec = tiny_spec();
        spec.allocators = vec![AllocatorKind::Hydra];
        spec.period_policies = vec![
            PeriodPolicy::Fixed,
            PeriodPolicy::Adapt,
            PeriodPolicy::Joint,
        ];
        let result = run(&spec, 1);
        for triple in result.outcomes.chunks(3) {
            let [fixed, adapt, joint] = triple else {
                panic!("policy triples must be adjacent in grid order");
            };
            assert_eq!(fixed.scenario.policy, PeriodPolicy::Fixed);
            assert_eq!(adapt.scenario.policy, PeriodPolicy::Adapt);
            assert_eq!(joint.scenario.policy, PeriodPolicy::Joint);
            // The policy acts post-allocation: the paired problem and the
            // schedulability verdict are identical across the axis.
            assert_eq!(fixed.scenario.problem_stream, joint.scenario.problem_stream);
            assert_eq!(fixed.feasible, adapt.feasible);
            assert_eq!(fixed.schedulable, adapt.schedulable);
            assert_eq!(fixed.schedulable, joint.schedulable);
            assert_eq!(fixed.n_rt, joint.n_rt);
            if !fixed.schedulable {
                continue;
            }
            // HYDRA already grants greedy minimal periods, so the greedy
            // re-adaptation is a fixed point of its allocations…
            assert_eq!(fixed.cumulative_tightness, adapt.cumulative_tightness);
            assert_eq!(fixed.period_slack, adapt.period_slack);
            assert_eq!(fixed.freq_ratio, adapt.freq_ratio);
            // …and the joint refinement starts from greedy, so it never
            // loses cumulative tightness. (Frequency ratio and slack are not
            // monotonic across policies: stretching a high-priority period
            // can let the tasks below it run faster.)
            let (f, j) = (
                fixed.cumulative_tightness.unwrap(),
                joint.cumulative_tightness.unwrap(),
            );
            assert!(j >= f - 1e-12, "joint {j} lost to fixed {f}");
            for o in triple {
                let ratio = o.freq_ratio.unwrap();
                let slack = o.period_slack.unwrap();
                assert!((0.0..=1.0 + 1e-12).contains(&ratio), "freq ratio {ratio}");
                assert!((0.0..=1.0).contains(&slack), "period slack {slack}");
            }
        }
    }

    #[test]
    fn precedence_allocations_keep_their_granted_periods_under_every_policy() {
        use crate::spec::PeriodPolicy;
        // The precedence scheme guarantees successor periods >= predecessor
        // periods across cores — an invariant the per-core re-optimisation
        // cannot preserve, so adapt/joint must be no-ops for it.
        let mut spec = tiny_spec();
        spec.allocators = vec![AllocatorKind::Precedence];
        spec.period_policies = vec![
            PeriodPolicy::Fixed,
            PeriodPolicy::Adapt,
            PeriodPolicy::Joint,
        ];
        let result = run(&spec, 1);
        for triple in result.outcomes.chunks(3) {
            for o in &triple[1..] {
                assert_eq!(o.cumulative_tightness, triple[0].cumulative_tightness);
                assert_eq!(o.mean_tightness, triple[0].mean_tightness);
                assert_eq!(o.period_slack, triple[0].period_slack);
                assert_eq!(o.freq_ratio, triple[0].freq_ratio);
            }
        }
    }

    #[test]
    fn low_utilization_synthetic_scenarios_schedule() {
        let mut spec = tiny_spec();
        spec.utilizations = UtilizationGrid::Fractions(vec![0.1]);
        let result = run(&spec, 1);
        for outcome in &result.outcomes {
            assert!(outcome.feasible);
            assert!(
                outcome.schedulable,
                "{:?} failed: {:?}",
                outcome.scenario.allocator, outcome.error
            );
            let eta = outcome.cumulative_tightness.unwrap();
            assert!(eta > 0.0);
        }
    }

    #[test]
    fn detection_scenarios_measure_latencies() {
        let mut spec = ScenarioSpec::uav_detection("uav", 30, 25);
        spec.cores = vec![2];
        let result = run(&spec, 2);
        assert_eq!(result.outcomes.len(), 2);
        for outcome in &result.outcomes {
            assert!(outcome.schedulable);
            let d = outcome.detection.as_ref().unwrap();
            assert_eq!(d.injected, 25);
            assert!(d.detected > 0);
            assert_eq!(d.missed, d.injected - d.detected);
            assert!(d.max_ms >= d.p95_ms && d.p95_ms >= d.median_ms);
            assert!(d.latencies_ms.windows(2).all(|w| w[0] <= w[1]));
        }
    }

    #[test]
    fn throughput_is_reported_and_always_finite() {
        let mut spec = tiny_spec();
        spec.trials = 1;
        let result = run(&spec, 1);
        assert!(result.scenarios_per_sec().unwrap() > 0.0);
        assert_eq!(result.threads, 1);
        // Regression: an elapsed time below timer resolution used to report
        // f64::INFINITY; it must surface as None instead.
        let degenerate = SweepResult {
            elapsed: Duration::ZERO,
            ..result
        };
        assert_eq!(degenerate.scenarios_per_sec(), None);
    }

    #[test]
    fn streaming_matches_the_buffered_run_byte_for_byte() {
        let spec = tiny_spec();
        let buffered = run(&spec, 1);
        let mut jsonl = JsonlSink::new(Vec::new());
        let summary = SweepSession::new(spec.clone())
            .threads(4)
            .run(&mut jsonl)
            .unwrap();
        assert_eq!(summary.grid_len, buffered.outcomes.len());
        assert_eq!(summary.evaluated(), buffered.outcomes.len());
        assert_eq!(
            String::from_utf8(jsonl.into_inner()).unwrap(),
            to_jsonl(&buffered.outcomes)
        );
        // The merged per-worker partials equal a one-pass fold of the
        // buffered outcomes.
        let mut one_pass = SweepAccumulator::new();
        for outcome in &buffered.outcomes {
            one_pass.record(outcome);
        }
        assert_eq!(summary.partial.rows(), one_pass.rows());
    }

    #[test]
    fn shard_ranges_tile_the_grid_and_concatenate_exactly() {
        let spec = tiny_spec();
        let full = run(&spec, 1);
        let n = full.outcomes.len();
        for count in [1usize, 2, 3, 5] {
            // The ranges tile [0, n) without gaps or overlap.
            let mut covered = 0;
            let mut jsonl_parts: Vec<u8> = Vec::new();
            let mut csv_parts: Vec<u8> = Vec::new();
            for index in 1..=count {
                let range = shard_range(n, index, count);
                assert_eq!(range.start, covered);
                covered = range.end;
                let mut jsonl = JsonlSink::new(Vec::new());
                let mut csv = CsvSink::new(Vec::new(), index == 1);
                let summary = run_range(&spec, 2, range.clone(), &mut jsonl).unwrap();
                assert_eq!(summary.range, range);
                run_range(&spec, 1, range, &mut csv).unwrap();
                jsonl_parts.extend(jsonl.into_inner());
                csv_parts.extend(csv.into_inner());
            }
            assert_eq!(covered, n);
            assert_eq!(
                String::from_utf8(jsonl_parts).unwrap(),
                to_jsonl(&full.outcomes),
                "{count} JSONL shards"
            );
            assert_eq!(
                String::from_utf8(csv_parts).unwrap(),
                to_csv(&full.outcomes),
                "{count} CSV shards"
            );
        }
    }

    #[test]
    fn sink_errors_abort_the_sweep() {
        struct FailAfter(usize);
        impl OutcomeSink for FailAfter {
            fn record(&mut self, _: &ScenarioOutcome) -> std::io::Result<()> {
                if self.0 == 0 {
                    return Err(std::io::Error::other("sink full"));
                }
                self.0 -= 1;
                Ok(())
            }
        }
        let spec = tiny_spec();
        for threads in [1, 3] {
            let err = SweepSession::new(spec.clone())
                .threads(threads)
                .run(&mut FailAfter(2))
                .expect_err("the sink error must propagate");
            assert_eq!(err.to_string(), "sink full");
        }
    }

    #[test]
    fn out_of_grid_and_inverted_ranges_clamp_to_empty() {
        let spec = tiny_spec();
        #[allow(clippy::reversed_empty_ranges)]
        for range in [100..200, 10..5, 3..3] {
            let mut sink = VecSink::new();
            let summary = run_range(&spec, 1, range, &mut sink).unwrap();
            assert_eq!(summary.evaluated(), 0);
            assert!(summary.partial.is_empty());
            assert!(sink.into_outcomes().is_empty());
        }
    }

    #[test]
    #[should_panic(expected = "shard index")]
    fn zero_shard_index_is_rejected() {
        let _ = shard_range(10, 0, 2);
    }
}
