//! Bin-packing partitioning heuristics.
//!
//! These are the "existing partitioning heuristics (e.g., first-fit,
//! best-fit, etc.)" referenced by the paper (Davis & Burns survey). Tasks are
//! considered one at a time — optionally sorted by decreasing utilisation —
//! and placed onto a core chosen by the heuristic, subject to an
//! [`AdmissionTest`] on the receiving core.

use core::fmt;

use rt_core::batch::{BatchMode, BatchRtaKernel, BatchStats, LANES};
use rt_core::{TaskId, TaskSet};

use crate::admission::AdmissionTest;
use crate::partition::{CoreId, Partition};

/// Which core a heuristic prefers among those that can admit the task.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub enum Heuristic {
    /// The lowest-indexed core that admits the task.
    FirstFit,
    /// The admitting core with the **highest** current utilisation (tightest
    /// remaining capacity). This is the heuristic the paper uses for the
    /// synthetic experiments.
    #[default]
    BestFit,
    /// The admitting core with the **lowest** current utilisation (spreads
    /// load; a.k.a. load balancing).
    WorstFit,
    /// The core used for the previous task, moving forward cyclically when it
    /// no longer admits.
    NextFit,
}

/// In which order tasks are offered to the bins.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub enum TaskOrdering {
    /// Keep the declaration order of the task set.
    #[default]
    Declaration,
    /// Sort by decreasing utilisation (the classic "-decreasing" variants,
    /// e.g. best-fit decreasing).
    DecreasingUtilization,
    /// Sort by increasing period (rate-monotonic priority order).
    IncreasingPeriod,
}

/// Configuration of a partitioning run: heuristic, admission test and task
/// ordering.
///
/// Implements `Hash` so memoization layers can key partition results by
/// `(task set, cores, config)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct PartitionConfig {
    /// Core-selection heuristic.
    pub heuristic: Heuristic,
    /// Admission test for the receiving core.
    pub admission: AdmissionTest,
    /// Order in which tasks are packed.
    pub ordering: TaskOrdering,
}

impl PartitionConfig {
    /// Creates a configuration with the default ([`TaskOrdering::Declaration`])
    /// ordering.
    #[must_use]
    pub fn new(heuristic: Heuristic, admission: AdmissionTest) -> Self {
        PartitionConfig {
            heuristic,
            admission,
            ordering: TaskOrdering::Declaration,
        }
    }

    /// Sets the task ordering.
    #[must_use]
    pub fn with_ordering(mut self, ordering: TaskOrdering) -> Self {
        self.ordering = ordering;
        self
    }

    /// The configuration the HYDRA paper uses for its synthetic experiments:
    /// best-fit packing with the exact response-time admission test.
    #[must_use]
    pub fn paper_default() -> Self {
        PartitionConfig::new(Heuristic::BestFit, AdmissionTest::ResponseTime)
    }
}

/// Error returned when a task cannot be placed on any core.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartitionError {
    /// The task that could not be placed.
    pub task: TaskId,
    /// The partial partition built before the failure (all previously placed
    /// tasks keep their assignment).
    pub partial: Partition,
}

impl fmt::Display for PartitionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "task {} cannot be admitted on any of the {} cores",
            self.task,
            self.partial.cores()
        )
    }
}

impl std::error::Error for PartitionError {}

fn pack_order(tasks: &TaskSet, ordering: TaskOrdering) -> Vec<TaskId> {
    let mut order: Vec<TaskId> = tasks.ids().collect();
    match ordering {
        TaskOrdering::Declaration => {}
        TaskOrdering::DecreasingUtilization => {
            order.sort_by(|&a, &b| {
                tasks[b]
                    .utilization()
                    .partial_cmp(&tasks[a].utilization())
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then(a.0.cmp(&b.0))
            });
        }
        TaskOrdering::IncreasingPeriod => {
            order.sort_by_key(|&id| (tasks[id].period(), id.0));
        }
    }
    order
}

/// Picks the core the heuristic prefers among `admitting` — shared verbatim
/// between the scalar and batched paths so selection can never diverge.
fn choose_core(
    admitting: &[(CoreId, f64)],
    heuristic: Heuristic,
    cores: usize,
    next_fit_cursor: &mut usize,
) -> Option<CoreId> {
    match heuristic {
        Heuristic::FirstFit => admitting.first().map(|&(c, _)| c),
        Heuristic::BestFit => admitting
            .iter()
            .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal))
            .map(|&(c, _)| c),
        Heuristic::WorstFit => admitting
            .iter()
            .min_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal))
            .map(|&(c, _)| c),
        Heuristic::NextFit => {
            // Try cores starting at the cursor, wrapping around once.
            let mut found = None;
            for offset in 0..cores {
                let core = CoreId((*next_fit_cursor + offset) % cores);
                if admitting.iter().any(|&(c, _)| c == core) {
                    found = Some(core);
                    *next_fit_cursor = core.0;
                    break;
                }
            }
            found
        }
    }
}

/// Partitions `tasks` over `cores` identical cores according to `config`,
/// through the batched admission kernels (see
/// [`partition_tasks_with_mode`]).
///
/// # Errors
///
/// Returns a [`PartitionError`] carrying the partial partition if some task
/// cannot be admitted on any core.
///
/// # Panics
///
/// Panics if `cores` is zero.
pub fn partition_tasks(
    tasks: &TaskSet,
    cores: usize,
    config: &PartitionConfig,
) -> Result<Partition, PartitionError> {
    partition_tasks_with_mode(
        tasks,
        cores,
        config,
        BatchMode::Batch,
        &mut BatchStats::default(),
    )
}

/// Partitions `tasks` over `cores` identical cores according to `config`,
/// choosing between the batched admission kernels and the scalar reference
/// path.
///
/// Under [`BatchMode::Batch`] the response-time admission test of all cores
/// is evaluated through the [`BatchRtaKernel`], one lane per candidate
/// core, re-verifying only the suffix of each core's rate-monotonic order
/// below the insertion point, warm-started from each row's last solved
/// response time. Non-RTA admission tests have no kernel: they take the
/// scalar path and are tallied in `stats`. Both paths produce **identical**
/// partitions; [`BatchMode::Scalar`] forces the reference implementation
/// (the differential oracle).
///
/// # Errors
///
/// Returns a [`PartitionError`] carrying the partial partition if some task
/// cannot be admitted on any core.
///
/// # Panics
///
/// Panics if `cores` is zero.
pub fn partition_tasks_with_mode(
    tasks: &TaskSet,
    cores: usize,
    config: &PartitionConfig,
    mode: BatchMode,
    stats: &mut BatchStats,
) -> Result<Partition, PartitionError> {
    assert!(cores > 0, "cannot partition onto zero cores");
    if mode == BatchMode::Batch
        && config.admission == AdmissionTest::ResponseTime
        && !tasks.is_empty()
    {
        return partition_tasks_batched(tasks, cores, config, stats);
    }
    if mode == BatchMode::Batch && !tasks.is_empty() {
        stats.record_fallback();
    }
    partition_tasks_scalar(tasks, cores, config)
}

/// The scalar reference partitioner — the differential oracle the batched
/// path is tested against.
fn partition_tasks_scalar(
    tasks: &TaskSet,
    cores: usize,
    config: &PartitionConfig,
) -> Result<Partition, PartitionError> {
    let mut partition = Partition::new(tasks.len(), cores);
    let mut next_fit_cursor = 0usize;

    for task_id in pack_order(tasks, config.ordering) {
        let candidate = &tasks[task_id];
        // Cores that can admit the task, with their current utilisation.
        let mut admitting: Vec<(CoreId, f64)> = Vec::new();
        for core in partition.core_ids() {
            let existing = partition.taskset_on(tasks, core);
            if config.admission.admits_with(&existing, candidate) {
                admitting.push((core, partition.utilization_on(tasks, core)));
            }
        }
        let chosen = choose_core(&admitting, config.heuristic, cores, &mut next_fit_cursor);
        match chosen {
            Some(core) => partition.assign(task_id, core),
            None => {
                return Err(PartitionError {
                    task: task_id,
                    partial: partition,
                })
            }
        }
    }
    Ok(partition)
}

/// One task row of a core's rate-monotonic order, in ticks.
#[derive(Debug, Clone, Copy)]
struct CoreRow {
    id: usize,
    wcet: u64,
    period: u64,
    deadline: u64,
    /// The row's last solved response time under a subset of its current
    /// interferers (0: never solved), so never above its current exact
    /// response time — the warm-start seed of its next admission test.
    response: u64,
}

/// One core's incremental packing state for the batched partitioner.
///
/// `rows` holds the core's tasks in rate-monotonic order — sorted by
/// `(period, original task id)`, which is exactly the order
/// [`rt_core::PriorityAssignment::assign`] produces for the ascending-id
/// subset a later admission test would build. `util_id`/`util` hold the
/// same tasks in ascending-id order so the core's utilisation is the
/// identical left-to-right `f64` fold as [`Partition::utilization_on`].
#[derive(Debug, Default)]
struct CoreRows {
    rows: Vec<CoreRow>,
    util_id: Vec<usize>,
    util: Vec<f64>,
    /// How many rows have a constrained (`deadline < period`) deadline;
    /// zero means the whole core is implicit-deadline and the hyperbolic
    /// utilization bound applies.
    non_implicit: usize,
    /// First row whose response time is not covered by the inductive
    /// "already verified" invariant (see below), if any.
    ///
    /// The scalar oracle appends the admission candidate *last* to the
    /// ascending-id subset, so the candidate loses every period tie during
    /// its own test — but once assigned it takes its `(period, id)` place,
    /// *above* tied rows with larger ids. Those rows gain an interferer
    /// they were never verified against; the scalar path would catch any
    /// resulting miss at the next full re-verification, so the batched path
    /// marks them dirty and re-verifies them in the next admission test.
    dirty: Option<usize>,
    /// Response times of the current candidate's exact test, by test row
    /// (the candidate at [`CoreRows::test_pos`]); rows the test did not
    /// solve keep their seeds. Empty when the hyperbolic bound admitted
    /// the candidate without a test.
    solved: Vec<u64>,
}

impl CoreRows {
    /// Where the candidate sits during *its own* admission test: after every
    /// row with `period <= p` (the oracle's candidate-last tie-breaking).
    fn test_pos(&self, p: u64) -> usize {
        self.rows.partition_point(|row| row.period <= p)
    }

    /// Where the candidate sits *once assigned*: rate-monotonic order with
    /// ties broken by original task id.
    fn state_pos(&self, p: u64, id: usize) -> usize {
        self.rows
            .partition_point(|row| (row.period, row.id) < (p, id))
    }

    /// The core's current utilisation — the same ascending-id `f64` sum as
    /// [`Partition::utilization_on`].
    fn utilization(&self) -> f64 {
        self.util.iter().sum()
    }

    /// Whether the hyperbolic bound (Bini & Buttazzo) certifies the merged
    /// core schedulable without running the exact test: with every deadline
    /// implicit, `Π (U_i + 1) ≤ 2` over the core's tasks plus the candidate
    /// implies RM-schedulability under any tie-breaking, so the exact RTA
    /// the oracle would run can only answer yes. The margin keeps the check
    /// conservative against `f64` rounding; a marginal set simply takes the
    /// exact path instead.
    fn bound_admits(&self, cand_util: f64, cand_implicit: bool) -> bool {
        if self.non_implicit != 0 || !cand_implicit {
            return false;
        }
        let mut product = 1.0 + cand_util;
        for &u in &self.util {
            product *= 1.0 + u;
        }
        product <= 2.0 - 1e-9
    }

    /// Loads the core plus `cand` at its test position into `lane`, every
    /// row seeded with its last solved response time, and primes `solved`
    /// with those seeds.
    fn load(&mut self, kernel: &mut BatchRtaKernel, lane: usize, cand: CoreRow) {
        let pos = self.test_pos(cand.period);
        self.solved.clear();
        let (above, below) = self.rows.split_at(pos);
        for row in above.iter().chain([&cand]).chain(below) {
            kernel.push_seeded(lane, row.wcet, row.period, row.deadline, row.response);
            self.solved.push(row.response);
        }
        kernel.set_start(lane, pos.min(self.dirty.unwrap_or(usize::MAX)));
    }

    /// Assigns `cand` to this core. After an exact test the solved response
    /// times become the rows' new seeds; after a bound admission the rows
    /// keep their old ones, which adding an interferer leaves valid.
    fn commit(&mut self, mut cand: CoreRow, util: f64) {
        let test = self.test_pos(cand.period);
        let state = self.state_pos(cand.period, cand.id);
        if !self.solved.is_empty() {
            for (k, row) in self.rows.iter_mut().enumerate() {
                row.response = self.solved[k + usize::from(k >= test)];
            }
            // A candidate that wins a period tie sits above rows it was
            // tested below, so its test value can exceed its response time.
            if state == test {
                cand.response = self.solved[test];
            }
        }
        self.rows.insert(state, cand);
        self.non_implicit += usize::from(cand.deadline != cand.period);
        let upos = self.util_id.partition_point(|&x| x < cand.id);
        self.util_id.insert(upos, cand.id);
        self.util.insert(upos, util);
        if state < test {
            // Tied rows with larger ids (now at `state + 1 ..= test`) gained
            // the candidate as an interferer without being verified against
            // it; re-check them next time.
            let stale = state + 1;
            self.dirty = Some(self.dirty.map_or(stale, |d| d.min(stale)));
        }
    }
}

/// The batched response-time partitioner: every task's admission test over
/// all cores runs through the [`BatchRtaKernel`], one lane per core, in
/// dispatches of up to [`LANES`] cores (a one-core remainder or platform
/// is a one-lane dispatch). Each core re-verifies only the rows at and
/// below the candidate, warm-started from their last solved response times.
/// Bit-identical to [`partition_tasks_scalar`] with
/// [`AdmissionTest::ResponseTime`].
fn partition_tasks_batched(
    tasks: &TaskSet,
    cores: usize,
    config: &PartitionConfig,
    stats: &mut BatchStats,
) -> Result<Partition, PartitionError> {
    let mut partition = Partition::new(tasks.len(), cores);
    let mut next_fit_cursor = 0usize;
    let mut states: Vec<CoreRows> = (0..cores).map(|_| CoreRows::default()).collect();
    let mut kernel = BatchRtaKernel::new();
    let mut admit = vec![false; cores];
    let mut admitting: Vec<(CoreId, f64)> = Vec::new();
    let mut pending: Vec<usize> = Vec::with_capacity(cores);

    for task_id in pack_order(tasks, config.ordering) {
        let candidate = &tasks[task_id];
        let cand = CoreRow {
            id: task_id.0,
            wcet: candidate.wcet().as_ticks(),
            period: candidate.period().as_ticks(),
            deadline: candidate.deadline().as_ticks(),
            response: 0,
        };
        let cu = candidate.utilization();

        // Cores the hyperbolic bound certifies outright skip the exact
        // test entirely (the bound proves the whole merged core
        // schedulable, dirty rows included); the rest queue for the kernel.
        pending.clear();
        for (core, st) in states.iter_mut().enumerate() {
            if st.bound_admits(cu, cand.deadline == cand.period) {
                admit[core] = true;
                st.dirty = None;
                st.solved.clear();
            } else {
                pending.push(core);
            }
        }

        for chunk in pending.chunks(LANES) {
            kernel.begin(chunk.len());
            stats.record_batch(chunk.len());
            for (lane, &core) in chunk.iter().enumerate() {
                states[core].load(&mut kernel, lane, cand);
            }
            let ok = kernel.solve(true, |lane, row, verdict| {
                if let Some(r) = verdict.time() {
                    states[chunk[lane]].solved[row] = r.as_ticks();
                }
            });
            for (lane, &core) in chunk.iter().enumerate() {
                admit[core] = ok[lane];
                if ok[lane] {
                    // Every row from the start row down was just verified
                    // against a superset of its current interferers, so the
                    // core is clean again.
                    states[core].dirty = None;
                }
            }
        }

        admitting.clear();
        for core in partition.core_ids() {
            if admit[core.0] {
                admitting.push((core, states[core.0].utilization()));
            }
        }
        let chosen = choose_core(&admitting, config.heuristic, cores, &mut next_fit_cursor);
        match chosen {
            Some(core) => {
                partition.assign(task_id, core);
                states[core.0].commit(cand, cu);
            }
            None => {
                return Err(PartitionError {
                    task: task_id,
                    partial: partition,
                })
            }
        }
    }
    Ok(partition)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rt_core::rta::is_schedulable_rm;
    use rt_core::{RtTask, Time};

    fn task(c_ms: u64, t_ms: u64) -> RtTask {
        RtTask::implicit_deadline(Time::from_millis(c_ms), Time::from_millis(t_ms)).unwrap()
    }

    fn set(tasks: Vec<RtTask>) -> TaskSet {
        tasks.into_iter().collect()
    }

    fn assert_valid(partition: &Partition, tasks: &TaskSet) {
        assert!(partition.is_complete());
        for core in partition.core_ids() {
            assert!(is_schedulable_rm(&partition.taskset_on(tasks, core)));
        }
    }

    #[test]
    fn first_fit_packs_onto_first_core_when_possible() {
        let tasks = set(vec![task(1, 10), task(1, 10), task(1, 10)]);
        let p = partition_tasks(
            &tasks,
            3,
            &PartitionConfig::new(Heuristic::FirstFit, AdmissionTest::ResponseTime),
        )
        .unwrap();
        assert_eq!(p.tasks_on(CoreId(0)).len(), 3);
        assert_eq!(p.tasks_on(CoreId(1)).len(), 0);
        assert_valid(&p, &tasks);
    }

    #[test]
    fn worst_fit_spreads_load() {
        let tasks = set(vec![task(1, 10), task(1, 10), task(1, 10)]);
        let p = partition_tasks(
            &tasks,
            3,
            &PartitionConfig::new(Heuristic::WorstFit, AdmissionTest::ResponseTime),
        )
        .unwrap();
        for core in p.core_ids() {
            assert_eq!(p.tasks_on(core).len(), 1);
        }
    }

    #[test]
    fn best_fit_prefers_fullest_admitting_core() {
        // Seed: put a 0.5-utilisation task first; best-fit should then stack
        // the 0.3 task on the same core rather than the empty one.
        let tasks = set(vec![task(5, 10), task(3, 10), task(9, 10)]);
        let p = partition_tasks(
            &tasks,
            2,
            &PartitionConfig::new(Heuristic::BestFit, AdmissionTest::ResponseTime),
        )
        .unwrap();
        assert_eq!(p.core_of(TaskId(0)), p.core_of(TaskId(1)));
        assert_ne!(p.core_of(TaskId(0)), p.core_of(TaskId(2)));
        assert_valid(&p, &tasks);
    }

    #[test]
    fn next_fit_moves_forward() {
        // Each task half-fills a core; next-fit keeps the cursor and packs
        // pairs per core.
        let tasks = set(vec![task(4, 10); 4]);
        let p = partition_tasks(
            &tasks,
            2,
            &PartitionConfig::new(Heuristic::NextFit, AdmissionTest::UtilizationOnly),
        )
        .unwrap();
        assert_eq!(p.tasks_on(CoreId(0)).len(), 2);
        assert_eq!(p.tasks_on(CoreId(1)).len(), 2);
    }

    #[test]
    fn infeasible_workload_reports_offending_task() {
        let tasks = set(vec![task(9, 10), task(9, 10), task(9, 10)]);
        let err = partition_tasks(&tasks, 2, &PartitionConfig::paper_default()).unwrap_err();
        assert_eq!(err.task, TaskId(2));
        assert_eq!(err.partial.assigned_count(), 2);
        assert!(err.to_string().contains("cannot be admitted"));
    }

    #[test]
    fn decreasing_utilization_ordering_packs_heaviest_first() {
        // Declared light-to-heavy; with decreasing-utilisation ordering the
        // heaviest task (index 2, U = 0.9) is packed first and therefore ends
        // up alone on core 0, with the two light tasks pushed to core 1.
        let tasks = set(vec![task(2, 10), task(3, 10), task(9, 10)]);
        let cfg = PartitionConfig::new(Heuristic::FirstFit, AdmissionTest::UtilizationOnly)
            .with_ordering(TaskOrdering::DecreasingUtilization);
        let p = partition_tasks(&tasks, 2, &cfg).unwrap();
        assert_eq!(p.core_of(TaskId(2)), Some(CoreId(0)));
        assert_eq!(p.core_of(TaskId(0)), Some(CoreId(1)));
        assert_eq!(p.core_of(TaskId(1)), Some(CoreId(1)));
        // Declaration order instead stacks the two light tasks on core 0.
        let plain = PartitionConfig::new(Heuristic::FirstFit, AdmissionTest::UtilizationOnly);
        let q = partition_tasks(&tasks, 2, &plain).unwrap();
        assert_eq!(q.core_of(TaskId(0)), Some(CoreId(0)));
        assert_eq!(q.core_of(TaskId(2)), Some(CoreId(1)));
    }

    #[test]
    fn increasing_period_ordering_is_supported() {
        let tasks = set(vec![task(10, 100), task(1, 5), task(2, 20)]);
        let p = partition_tasks(
            &tasks,
            2,
            &PartitionConfig::paper_default().with_ordering(TaskOrdering::IncreasingPeriod),
        )
        .unwrap();
        assert_valid(&p, &tasks);
    }

    #[test]
    fn single_core_partition_equals_uniprocessor_test() {
        let feasible = set(vec![task(1, 4), task(2, 6), task(3, 13)]);
        assert!(partition_tasks(&feasible, 1, &PartitionConfig::paper_default()).is_ok());
        let infeasible = set(vec![task(3, 4), task(3, 6)]);
        assert!(partition_tasks(&infeasible, 1, &PartitionConfig::paper_default()).is_err());
    }

    #[test]
    #[should_panic(expected = "zero cores")]
    fn zero_cores_panics() {
        let _ = partition_tasks(
            &set(vec![task(1, 10)]),
            0,
            &PartitionConfig::paper_default(),
        );
    }

    #[test]
    fn empty_taskset_partitions_trivially() {
        let p = partition_tasks(&TaskSet::empty(), 4, &PartitionConfig::paper_default()).unwrap();
        assert!(p.is_complete());
        assert_eq!(p.assigned_count(), 0);
    }

    #[test]
    fn paper_default_is_best_fit_rta() {
        let cfg = PartitionConfig::paper_default();
        assert_eq!(cfg.heuristic, Heuristic::BestFit);
        assert_eq!(cfg.admission, AdmissionTest::ResponseTime);
    }

    #[test]
    fn period_tie_insertion_invalidates_stale_rows_like_the_oracle() {
        // DecreasingUtilization packs id1 before id0; both share a period,
        // so id0 is admitted *below* id1 during its own test (candidate-last
        // tie-breaking) but sits *above* id1 once assigned, silently breaking
        // id1's tight deadline. The next admission on that core must fail in
        // both modes — the batched path via its dirty-row re-verification.
        let id0 = RtTask::new(
            Time::from_millis(1),
            Time::from_millis(10),
            Time::from_millis(10),
        )
        .unwrap();
        let id1 = RtTask::new(
            Time::from_millis(2),
            Time::from_millis(10),
            Time::from_millis(2),
        )
        .unwrap();
        let id2 = RtTask::new(
            Time::from_millis(1),
            Time::from_millis(10),
            Time::from_millis(10),
        )
        .unwrap();
        let tasks = set(vec![id0, id1, id2]);
        let cfg = PartitionConfig::new(Heuristic::FirstFit, AdmissionTest::ResponseTime)
            .with_ordering(TaskOrdering::DecreasingUtilization);
        let mut stats = BatchStats::default();
        let batch =
            partition_tasks_with_mode(&tasks, 2, &cfg, BatchMode::Batch, &mut stats).unwrap();
        let scalar = partition_tasks_with_mode(
            &tasks,
            2,
            &cfg,
            BatchMode::Scalar,
            &mut BatchStats::default(),
        )
        .unwrap();
        assert_eq!(batch, scalar);
        // id2 is pushed off core 0 by the stale (and now re-verified) id1.
        assert_eq!(batch.core_of(TaskId(0)), Some(CoreId(0)));
        assert_eq!(batch.core_of(TaskId(1)), Some(CoreId(0)));
        assert_eq!(batch.core_of(TaskId(2)), Some(CoreId(1)));
        assert!(stats.lanes_filled[2] > 0);
        // id0 and id2 are implicit-deadline, so the hyperbolic bound admits
        // the emptier core without the kernel and only the core holding the
        // tight-deadline id1 needs the exact test — a one-lane dispatch.
        assert_eq!(stats.lanes_filled[1], 2);
        assert_eq!(stats.scalar_fallbacks, 0);
    }

    #[test]
    fn a_tie_winning_candidate_keeps_no_warm_seed_from_its_own_test() {
        // DecreasingUtilization packs w, y, x, z onto one core. x ties y's
        // period with a smaller id: its own test puts it below y (R = 699,
        // exactly its deadline), but once assigned it sits above y, where
        // its response time is 499. z then joins above x and x's exact
        // response time is 609, yet a recurrence seeded at the stale 699
        // jumps to 719 and misses the deadline. Only the seedless restart
        // admits z, as the oracle does.
        let t = |c: u64, p: u64, d: u64| {
            RtTask::new(
                Time::from_micros(c),
                Time::from_micros(p),
                Time::from_micros(d),
            )
            .unwrap()
        };
        let x = t(199, 1000, 699);
        let y = t(200, 1000, 1000);
        let w = t(300, 999, 999);
        let z = t(110, 620, 620);
        let tasks = set(vec![x, y, w, z]);
        let cfg = PartitionConfig::new(Heuristic::FirstFit, AdmissionTest::ResponseTime)
            .with_ordering(TaskOrdering::DecreasingUtilization);
        let mut stats = BatchStats::default();
        let batch = partition_tasks_with_mode(&tasks, 1, &cfg, BatchMode::Batch, &mut stats);
        let scalar = partition_tasks_with_mode(
            &tasks,
            1,
            &cfg,
            BatchMode::Scalar,
            &mut BatchStats::default(),
        );
        assert!(scalar.is_ok());
        assert_eq!(batch, scalar);
        // w and y pass the hyperbolic bound; the constrained x and the z
        // that joins it need the exact test.
        assert_eq!(stats.lanes_filled[1], 2);
    }

    #[test]
    fn non_rta_admission_falls_back_to_scalar_and_counts_it() {
        let tasks = set(vec![task(4, 10); 4]);
        let cfg = PartitionConfig::new(Heuristic::NextFit, AdmissionTest::UtilizationOnly);
        let mut stats = BatchStats::default();
        let p = partition_tasks_with_mode(&tasks, 2, &cfg, BatchMode::Batch, &mut stats).unwrap();
        assert_eq!(p.tasks_on(CoreId(0)).len(), 2);
        assert_eq!(stats.scalar_fallbacks, 1);
        assert!(stats.lanes_filled.iter().all(|&c| c == 0));
        // Scalar mode records nothing at all.
        let mut silent = BatchStats::default();
        let q = partition_tasks_with_mode(&tasks, 2, &cfg, BatchMode::Scalar, &mut silent).unwrap();
        assert_eq!(p, q);
        assert!(silent.is_empty());
    }
}
