//! Bin-packing partitioning heuristics.
//!
//! The paper packs its synthetic task sets best-fit and spreads the UAV
//! control tasks over all cores, worst-fit. Tasks are offered in declaration
//! order, one at a time, and a core admits a task when exact rate-monotonic
//! response-time analysis passes on the core's tasks plus the candidate.

use core::cmp::Ordering;
use core::fmt;

use rt_core::batch::{BatchMode, BatchRtaKernel, BatchStats, LANES};
use rt_core::rta::is_schedulable_rm;
use rt_core::{TaskId, TaskSet};

use crate::partition::{CoreId, Partition};

/// Which core a heuristic prefers among those that can admit the task.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Heuristic {
    /// The admitting core with the **highest** current utilisation (tightest
    /// remaining capacity). This is the heuristic the paper uses for the
    /// synthetic experiments.
    #[default]
    BestFit,
    /// The admitting core with the **lowest** current utilisation (spreads
    /// load; a.k.a. load balancing).
    WorstFit,
}

/// Configuration of a partitioning run: the core-selection heuristic.
///
/// Every run packs the tasks in declaration order and admits a task on a
/// core when exact rate-monotonic response-time analysis passes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PartitionConfig {
    /// Core-selection heuristic.
    pub heuristic: Heuristic,
}

impl PartitionConfig {
    /// Creates a configuration with the given heuristic.
    #[must_use]
    pub fn new(heuristic: Heuristic) -> Self {
        PartitionConfig { heuristic }
    }

    /// The configuration the HYDRA paper uses for its synthetic experiments:
    /// best-fit packing.
    #[must_use]
    pub fn paper_default() -> Self {
        PartitionConfig::new(Heuristic::BestFit)
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

/// Picks the core the heuristic prefers among `admitting` — shared verbatim
/// between the scalar and batched paths so selection can never diverge.
fn choose_core(admitting: &[(CoreId, f64)], heuristic: Heuristic) -> Option<CoreId> {
    let by_util =
        |a: &&(CoreId, f64), b: &&(CoreId, f64)| a.1.partial_cmp(&b.1).unwrap_or(Ordering::Equal);
    match heuristic {
        Heuristic::BestFit => admitting.iter().max_by(by_util),
        Heuristic::WorstFit => admitting.iter().min_by(by_util),
    }
    .map(|&(c, _)| c)
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
/// response time; `stats` counts the dispatches. Both paths produce
/// **identical** partitions; [`BatchMode::Scalar`] forces the reference
/// implementation (the differential oracle).
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
    match mode {
        BatchMode::Batch => partition_tasks_batched(tasks, cores, config, stats),
        BatchMode::Scalar => partition_tasks_scalar(tasks, cores, config),
    }
}

/// The scalar reference partitioner — the differential oracle the batched
/// path is tested against.
fn partition_tasks_scalar(
    tasks: &TaskSet,
    cores: usize,
    config: &PartitionConfig,
) -> Result<Partition, PartitionError> {
    let mut partition = Partition::new(tasks.len(), cores);

    for task_id in tasks.ids() {
        // Cores that can admit the task, with their current utilisation.
        let mut admitting: Vec<(CoreId, f64)> = Vec::new();
        for core in partition.core_ids() {
            let mut merged = partition.taskset_on(tasks, core);
            merged.push(tasks[task_id].clone());
            if is_schedulable_rm(&merged) {
                admitting.push((core, partition.utilization_on(tasks, core)));
            }
        }
        match choose_core(&admitting, config.heuristic) {
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
/// `rows` holds the core's tasks in rate-monotonic order, sorted by
/// `(period, original task id)`: the order
/// [`rt_core::PriorityAssignment::assign`] produces for the ascending-id
/// subset the scalar oracle builds. Tasks arrive in declaration order, so
/// each candidate has the largest id so far. It therefore ranks below every
/// row of its own period, both during its own test (where the oracle
/// appends it last) and once assigned. `util` holds the same tasks'
/// utilisations in id order, so the core's utilisation is the identical
/// left-to-right `f64` fold as [`Partition::utilization_on`].
#[derive(Debug, Default)]
struct CoreRows {
    rows: Vec<CoreRow>,
    util: Vec<f64>,
    /// How many rows have a constrained (`deadline < period`) deadline;
    /// zero means the whole core is implicit-deadline and the hyperbolic
    /// utilization bound applies.
    non_implicit: usize,
    /// Response times of the current candidate's exact test, by row (the
    /// candidate at [`CoreRows::position`]); rows the test did not solve
    /// keep their seeds. Empty when the hyperbolic bound admitted the
    /// candidate without a test.
    solved: Vec<u64>,
}

impl CoreRows {
    /// Where a candidate of period `p` sits, during its test and once
    /// assigned: after every row with `period <= p`.
    fn position(&self, p: u64) -> usize {
        self.rows.partition_point(|row| row.period <= p)
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

    /// Loads the core plus `cand` at its position into `lane`, every row
    /// seeded with its last solved response time, and primes `solved` with
    /// those seeds. Only the candidate and the rows below it are
    /// re-verified: the rows above it keep their interferers.
    fn load(&mut self, kernel: &mut BatchRtaKernel, lane: usize, cand: CoreRow) {
        let pos = self.position(cand.period);
        self.solved.clear();
        let (above, below) = self.rows.split_at(pos);
        for row in above.iter().chain([&cand]).chain(below) {
            kernel.push_seeded(lane, row.wcet, row.period, row.deadline, row.response);
            self.solved.push(row.response);
        }
        kernel.set_start(lane, pos);
    }

    /// Assigns `cand` to this core. After an exact test the solved response
    /// times become the rows' new seeds; after a bound admission the rows
    /// keep their old ones, which adding an interferer leaves valid.
    fn commit(&mut self, mut cand: CoreRow, util: f64) {
        let pos = self.position(cand.period);
        if !self.solved.is_empty() {
            for (k, row) in self.rows.iter_mut().enumerate() {
                row.response = self.solved[k + usize::from(k >= pos)];
            }
            cand.response = self.solved[pos];
        }
        self.rows.insert(pos, cand);
        self.non_implicit += usize::from(cand.deadline != cand.period);
        self.util.push(util);
    }
}

/// The batched response-time partitioner: every task's admission test over
/// all cores runs through the [`BatchRtaKernel`], one lane per core, in
/// dispatches of up to [`LANES`] cores (a one-core remainder or platform
/// is a one-lane dispatch). Each core re-verifies only the rows at and
/// below the candidate, warm-started from their last solved response times.
/// Bit-identical to [`partition_tasks_scalar`].
fn partition_tasks_batched(
    tasks: &TaskSet,
    cores: usize,
    config: &PartitionConfig,
    stats: &mut BatchStats,
) -> Result<Partition, PartitionError> {
    let mut partition = Partition::new(tasks.len(), cores);
    let mut states: Vec<CoreRows> = (0..cores).map(|_| CoreRows::default()).collect();
    let mut kernel = BatchRtaKernel::new();
    let mut admit = vec![false; cores];
    let mut admitting: Vec<(CoreId, f64)> = Vec::new();
    let mut pending: Vec<usize> = Vec::with_capacity(cores);

    for task_id in tasks.ids() {
        let candidate = &tasks[task_id];
        let cand = CoreRow {
            wcet: candidate.wcet().as_ticks(),
            period: candidate.period().as_ticks(),
            deadline: candidate.deadline().as_ticks(),
            response: 0,
        };
        let cu = candidate.utilization();

        // Cores the hyperbolic bound certifies outright skip the exact
        // test entirely; the rest queue for the kernel.
        pending.clear();
        for (core, st) in states.iter_mut().enumerate() {
            if st.bound_admits(cu, cand.deadline == cand.period) {
                admit[core] = true;
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
            }
        }

        admitting.clear();
        for core in partition.core_ids() {
            if admit[core.0] {
                admitting.push((core, states[core.0].utilization()));
            }
        }
        match choose_core(&admitting, config.heuristic) {
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
    fn worst_fit_spreads_load() {
        let tasks = set(vec![task(1, 10), task(1, 10), task(1, 10)]);
        let p = partition_tasks(&tasks, 3, &PartitionConfig::new(Heuristic::WorstFit)).unwrap();
        for core in p.core_ids() {
            assert_eq!(p.tasks_on(core).len(), 1);
        }
    }

    #[test]
    fn best_fit_prefers_fullest_admitting_core() {
        // Seed: put a 0.5-utilisation task first; best-fit should then stack
        // the 0.3 task on the same core rather than the empty one.
        let tasks = set(vec![task(5, 10), task(3, 10), task(9, 10)]);
        let p = partition_tasks(&tasks, 2, &PartitionConfig::new(Heuristic::BestFit)).unwrap();
        assert_eq!(p.core_of(TaskId(0)), p.core_of(TaskId(1)));
        assert_ne!(p.core_of(TaskId(0)), p.core_of(TaskId(2)));
        assert_valid(&p, &tasks);
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
        assert_eq!(
            PartitionConfig::paper_default().heuristic,
            Heuristic::BestFit
        );
        assert_eq!(PartitionConfig::default(), PartitionConfig::paper_default());
    }

    #[test]
    fn period_tie_candidates_rank_below_their_peers_like_the_oracle() {
        // A, B and C share a period. Best fit puts A on core 1 (the last of
        // two empty cores). B's tight deadline fits alone on core 0 but not
        // below A, so B goes to core 0; C fits on both and joins the fuller
        // core 0, below B.
        let t = |c: u64, d: u64| {
            RtTask::new(
                Time::from_millis(c),
                Time::from_millis(10),
                Time::from_millis(d),
            )
            .unwrap()
        };
        let tasks = set(vec![t(1, 10), t(2, 2), t(1, 10)]);
        let cfg = PartitionConfig::paper_default();
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
        assert_eq!(batch.core_of(TaskId(0)), Some(CoreId(1)));
        assert_eq!(batch.core_of(TaskId(1)), Some(CoreId(0)));
        assert_eq!(batch.core_of(TaskId(2)), Some(CoreId(0)));
        // A passes the hyperbolic bound on both empty cores. B's
        // constrained deadline sends both cores to the exact test: one
        // two-lane dispatch. The bound admits C on A's core, so only B's
        // core is tested: one one-lane dispatch.
        let mut expected = [0; LANES + 1];
        expected[1] = 1;
        expected[2] = 1;
        assert_eq!(stats.lanes_filled, expected);
    }
}
