//! Bin-packing partitioning heuristics.
//!
//! The paper packs its synthetic task sets best-fit and spreads the UAV
//! control tasks over all cores, worst-fit. Tasks are offered in declaration
//! order, one at a time, and a core admits a task when exact rate-monotonic
//! response-time analysis passes on the core's tasks plus the candidate.

use core::cmp::Ordering;
use core::fmt;

use rt_core::batch::{BatchMode, BatchStats};
use rt_core::rta::{is_schedulable_rm, response_time_seeded};
use rt_core::{TaskId, TaskSet, Time};

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

/// Picks the core the heuristic prefers among `admitting` — the selection
/// rule of the scalar oracle. Best fit's `max_by` keeps the last of equal
/// maxima, worst fit's `min_by` the first of equal minima.
fn choose_core(admitting: &[(CoreId, f64)], heuristic: Heuristic) -> Option<CoreId> {
    let by_util =
        |a: &&(CoreId, f64), b: &&(CoreId, f64)| a.1.partial_cmp(&b.1).unwrap_or(Ordering::Equal);
    match heuristic {
        Heuristic::BestFit => admitting.iter().max_by(by_util),
        Heuristic::WorstFit => admitting.iter().min_by(by_util),
    }
    .map(|&(c, _)| c)
}

/// The order in which the batched partitioner tests `(core, utilization)`
/// entries, so that the first core that admits is the one [`choose_core`]
/// picks among all admitting cores: best fit tests the fullest core first
/// and breaks ties toward the highest index; worst fit tests the emptiest
/// first and breaks ties toward the lowest index.
fn preference(heuristic: Heuristic, a: &(usize, f64), b: &(usize, f64)) -> Ordering {
    let emptiest_first =
        a.1.partial_cmp(&b.1)
            .unwrap_or(Ordering::Equal)
            .then(a.0.cmp(&b.0));
    match heuristic {
        Heuristic::BestFit => emptiest_first.reverse(),
        Heuristic::WorstFit => emptiest_first,
    }
}

/// Partitions `tasks` over `cores` identical cores according to `config`,
/// on the batched path (see [`partition_tasks_with_mode`]).
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
/// choosing between the batched path and the scalar reference path.
///
/// Under [`BatchMode::Batch`] each task tests the cores one at a time in the
/// heuristic's preference order and goes to the first core that admits it.
/// A core's test re-verifies only the candidate and the rows below it in
/// the core's rate-monotonic order, each warm-started from its last solved
/// response time, unless the hyperbolic bound admits the candidate
/// outright; `stats` records each exact test as one single-lane entry
/// ([`BatchStats`]). [`BatchMode::Scalar`] tests every core with the full
/// analysis and then picks one (the differential oracle). Both paths
/// produce **identical** partitions.
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

/// One task row of a core's rate-monotonic order.
#[derive(Debug, Clone, Copy)]
struct CoreRow {
    wcet: Time,
    period: Time,
    deadline: Time,
    /// The row's last solved response time under a subset of its current
    /// interferers (zero: never solved), so never above its current exact
    /// response time — the warm-start seed of its next exact test.
    response: Time,
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
    /// Response times of the rows the current exact test verified, from the
    /// candidate's row down.
    solved: Vec<Time>,
}

impl CoreRows {
    /// Where a candidate of period `p` sits, during its test and once
    /// assigned: after every row with `period <= p`.
    fn position(&self, p: Time) -> usize {
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

    /// Assigns `cand` to this core if the core admits it, and reports
    /// whether it did; a core that refuses is left as it was.
    ///
    /// Unless the hyperbolic bound admits the candidate, the candidate's row
    /// and the rows below it run the exact test (the start row: the rows
    /// above keep their interferers), and `stats` records it. After an
    /// exact admission the solved response times become the rows' new
    /// seeds; after a bound admission the rows keep their old ones, which
    /// adding an interferer leaves valid.
    fn try_assign(&mut self, cand: CoreRow, cand_util: f64, stats: &mut BatchStats) -> bool {
        let pos = self.position(cand.period);
        let bound = self.bound_admits(cand_util, cand.deadline == cand.period);
        self.rows.insert(pos, cand);
        if !bound {
            stats.lanes_filled[1] += 1;
            if !self.verify_from(pos) {
                self.rows.remove(pos);
                return false;
            }
        }
        self.util.push(cand_util);
        self.non_implicit += usize::from(cand.deadline != cand.period);
        true
    }

    /// Exact response-time analysis of `rows[start..]`, each row under the
    /// rows above it and warm-started from its seed, stopping at the first
    /// miss. When every row passes, the solved response times replace the
    /// seeds.
    fn verify_from(&mut self, start: usize) -> bool {
        self.solved.clear();
        let mut hp_util: f64 = self.rows[..start]
            .iter()
            .map(|row| row.wcet.ratio(row.period))
            .sum();
        for (i, row) in self.rows.iter().enumerate().skip(start) {
            let hp = self.rows[..i].iter().map(|r| (r.wcet, r.period));
            match response_time_seeded(row.wcet, row.deadline, row.response, hp_util, hp).time() {
                Some(r) => self.solved.push(r),
                None => return false,
            }
            hp_util += row.wcet.ratio(row.period);
        }
        for (row, &r) in self.rows[start..].iter_mut().zip(&self.solved) {
            row.response = r;
        }
        true
    }
}

/// The batched response-time partitioner: each task tests the cores one at
/// a time in [`preference`] order and goes to the first core that admits
/// it, so a core after the first admitting one is never tested and keeps
/// its seeds. Bit-identical to [`partition_tasks_scalar`].
fn partition_tasks_batched(
    tasks: &TaskSet,
    cores: usize,
    config: &PartitionConfig,
    stats: &mut BatchStats,
) -> Result<Partition, PartitionError> {
    let mut partition = Partition::new(tasks.len(), cores);
    let mut states: Vec<CoreRows> = (0..cores).map(|_| CoreRows::default()).collect();
    let mut order: Vec<(usize, f64)> = Vec::with_capacity(cores);

    for task_id in tasks.ids() {
        let candidate = &tasks[task_id];
        let cand = CoreRow {
            wcet: candidate.wcet(),
            period: candidate.period(),
            deadline: candidate.deadline(),
            response: Time::ZERO,
        };
        let cu = candidate.utilization();

        order.clear();
        order.extend(states.iter().map(CoreRows::utilization).enumerate());
        order.sort_by(|a, b| preference(config.heuristic, a, b));
        match order
            .iter()
            .find(|&&(core, _)| states[core].try_assign(cand, cu, stats))
        {
            Some(&(core, _)) => partition.assign(task_id, CoreId(core)),
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

    /// Partitions `tasks` on both paths, asserts that they agree, and
    /// returns each task's core with the batched path's work counts.
    fn both_paths(tasks: &TaskSet, cores: usize, heuristic: Heuristic) -> (Vec<usize>, BatchStats) {
        let cfg = PartitionConfig::new(heuristic);
        let mut stats = BatchStats::default();
        let batch =
            partition_tasks_with_mode(tasks, cores, &cfg, BatchMode::Batch, &mut stats).unwrap();
        let scalar = partition_tasks_with_mode(
            tasks,
            cores,
            &cfg,
            BatchMode::Scalar,
            &mut BatchStats::default(),
        )
        .unwrap();
        assert_eq!(batch, scalar, "{heuristic:?}");
        let placed = tasks.ids().map(|id| batch.core_of(id).unwrap().0);
        (placed.collect(), stats)
    }

    /// Exact tests recorded: one single-lane entry each.
    fn exact_tests(count: u64) -> BatchStats {
        let mut stats = BatchStats::default();
        stats.lanes_filled[1] = count;
        stats
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
        let (placed, _) = both_paths(&tasks, 2, Heuristic::BestFit);
        assert_eq!(placed, [1, 0, 0]);
    }

    #[test]
    fn equal_loads_tie_to_the_highest_core_under_best_fit_and_the_lowest_under_worst_fit() {
        // Period 10 ms throughout; every tie below is exact in f64, since
        // 0.6 is exactly 2 × 0.3.
        let tasks = set(vec![
            task(6, 10),
            task(6, 10),
            task(3, 10),
            task(3, 10),
            task(1, 10),
        ]);
        // Best fit: the first task ties three empty cores and takes core 2.
        // The second does not fit there and ties the two empty cores: core
        // 1. The third ties cores 1 and 2 at 0.6 and takes core 2. The
        // fourth does not fit on core 2 and takes core 1. The last ties
        // cores 1 and 2 at 0.9 and takes core 2. Core 0 stays empty.
        assert_eq!(both_paths(&tasks, 3, Heuristic::BestFit).0, [2, 1, 2, 1, 2]);
        // Worst fit: the first three take the empty cores from core 0 up,
        // the fourth joins the emptiest core 2, and the last ties all three
        // cores at 0.6 and takes core 0.
        assert_eq!(
            both_paths(&tasks, 3, Heuristic::WorstFit).0,
            [0, 1, 2, 2, 0]
        );
    }

    #[test]
    fn exact_tests_stop_at_the_first_admitting_core() {
        // Every deadline is constrained, so the hyperbolic bound never
        // applies and every tested core runs the exact test.
        let t = |c: u64| {
            RtTask::new(
                Time::from_millis(c),
                Time::from_millis(10),
                Time::from_millis(8),
            )
            .unwrap()
        };
        let tasks = set(vec![t(4), t(4), t(4), t(2), t(2)]);
        // Best fit: the first two tasks fill core 2 (response time 8). Each
        // later task fails there first and then fits on core 1: 1 + 1 + 2 +
        // 2 + 2 tests, where testing every core would take 15.
        let (placed, stats) = both_paths(&tasks, 3, Heuristic::BestFit);
        assert_eq!(placed, [2, 2, 1, 1, 1]);
        assert_eq!(stats, exact_tests(8));
        // Worst fit: the emptiest core admits every task, one test each.
        let (placed, stats) = both_paths(&tasks, 3, Heuristic::WorstFit);
        assert_eq!(placed, [0, 1, 2, 0, 1]);
        assert_eq!(stats, exact_tests(5));
        // Implicit deadlines under light load: the bound admits everything.
        let light = set(vec![task(1, 10), task(2, 20), task(1, 10)]);
        for heuristic in [Heuristic::BestFit, Heuristic::WorstFit] {
            assert_eq!(both_paths(&light, 2, heuristic).1, exact_tests(0));
        }
    }
}
