//! Property-based tests for the partitioning heuristics.

use proptest::prelude::*;
use rt_core::batch::{BatchMode, BatchStats};
use rt_core::rta::is_schedulable_rm;
use rt_core::{RtTask, TaskSet, Time};
use rt_partition::{partition_tasks, partition_tasks_with_mode, Heuristic, PartitionConfig};

fn arb_task() -> impl Strategy<Value = RtTask> {
    (500u64..=30_000, 40_000u64..=500_000).prop_map(|(c, t)| {
        RtTask::implicit_deadline(Time::from_micros(c.min(t)), Time::from_micros(t)).unwrap()
    })
}

fn arb_taskset() -> impl Strategy<Value = TaskSet> {
    prop::collection::vec(arb_task(), 1..=16).prop_map(TaskSet::new)
}

/// Constrained-deadline tasks whose periods often tie: half of them draw
/// from a five-value pool. About two in five keep an implicit deadline, so
/// the hyperbolic-bound shortcut and the exact test both run.
fn arb_tied_constrained_task() -> impl Strategy<Value = RtTask> {
    (
        500u64..=30_000,
        0usize..10,
        40_000u64..=500_000,
        0.3f64..1.5,
    )
        .prop_map(|(c, pick, t, d_frac)| {
            const POOL: [u64; 5] = [40_000, 50_000, 80_000, 100_000, 200_000];
            let period = if pick < POOL.len() { POOL[pick] } else { t };
            let c = c.min(period);
            let deadline = ((period as f64 * d_frac) as u64).clamp(c, period);
            RtTask::new(
                Time::from_micros(c),
                Time::from_micros(period),
                Time::from_micros(deadline),
            )
            .unwrap()
        })
}

fn all_configs() -> [PartitionConfig; 2] {
    [Heuristic::BestFit, Heuristic::WorstFit].map(PartitionConfig::new)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn successful_partitions_are_complete_and_schedulable(set in arb_taskset(), cores in 1usize..=4) {
        for cfg in all_configs() {
            if let Ok(p) = partition_tasks(&set, cores, &cfg) {
                prop_assert!(p.is_complete());
                prop_assert_eq!(p.task_count(), set.len());
                // Every core content passes the exact RM test, the
                // admission test itself.
                for core in p.core_ids() {
                    prop_assert!(is_schedulable_rm(&p.taskset_on(&set, core)));
                }
                // Each task appears on exactly one core.
                let total: usize = p.core_ids().map(|c| p.tasks_on(c).len()).sum();
                prop_assert_eq!(total, set.len());
            }
        }
    }

    #[test]
    fn batched_partitioner_matches_the_scalar_oracle(set in arb_taskset(), cores in 2usize..=9) {
        // Up to nine cores, so a task may test many cores before one admits
        // it.
        for cfg in all_configs() {
            let mut stats = BatchStats::default();
            let batch = partition_tasks_with_mode(&set, cores, &cfg, BatchMode::Batch, &mut stats);
            let scalar = partition_tasks_with_mode(
                &set,
                cores,
                &cfg,
                BatchMode::Scalar,
                &mut BatchStats::default(),
            );
            prop_assert_eq!(batch, scalar, "config {:?} diverged", cfg);
        }
    }

    #[test]
    fn batched_partitioner_matches_the_oracle_on_ties_and_constrained_deadlines(
        tasks in prop::collection::vec(arb_tied_constrained_task(), 1..=20),
        cores in 1usize..=9
    ) {
        // From one core to nine; a candidate loses every period tie, and
        // every re-verified row starts from its warm-start seed.
        let set = TaskSet::new(tasks);
        for cfg in all_configs() {
            let batch = partition_tasks_with_mode(
                &set, cores, &cfg, BatchMode::Batch, &mut BatchStats::default());
            let scalar = partition_tasks_with_mode(
                &set, cores, &cfg, BatchMode::Scalar, &mut BatchStats::default());
            prop_assert_eq!(batch, scalar, "config {:?} diverged", cfg);
        }
    }

    #[test]
    fn batched_partitioner_matches_oracle_under_heavy_period_ties(
        wcets in prop::collection::vec(500u64..=30_000, 1..=12),
        cores in 2usize..=4
    ) {
        // Periods drawn from a two-value pool force rate-monotonic ties: the
        // oracle appends each candidate last, so it must rank below every
        // row of its period in the batched path too.
        let set: TaskSet = wcets
            .iter()
            .enumerate()
            .map(|(i, &c)| {
                let t = if i % 2 == 0 { 40_000 } else { 80_000 };
                RtTask::implicit_deadline(Time::from_micros(c.min(t)), Time::from_micros(t)).unwrap()
            })
            .collect();
        for cfg in all_configs() {
            let batch = partition_tasks_with_mode(
                &set, cores, &cfg, BatchMode::Batch, &mut BatchStats::default());
            let scalar = partition_tasks_with_mode(
                &set, cores, &cfg, BatchMode::Scalar, &mut BatchStats::default());
            prop_assert_eq!(batch, scalar, "config {:?} diverged", cfg);
        }
    }

    #[test]
    fn batched_partitioner_matches_the_oracle_on_equal_loads(
        picks in prop::collection::vec(0usize..6, 1..=16),
        cores in 1usize..=6
    ) {
        // Three utilizations (0.125, 0.25, 0.5) over two periods: cores tie
        // on load all the time, not only while empty, so the batched path's
        // test order must break every tie the way the oracle's selection
        // does.
        let set: TaskSet = picks
            .iter()
            .map(|&pick| {
                let t = if pick % 2 == 0 { 40_000 } else { 80_000 };
                let c = t >> (1 + pick / 2);
                RtTask::implicit_deadline(Time::from_micros(c), Time::from_micros(t)).unwrap()
            })
            .collect();
        for cfg in all_configs() {
            let batch = partition_tasks_with_mode(
                &set, cores, &cfg, BatchMode::Batch, &mut BatchStats::default());
            let scalar = partition_tasks_with_mode(
                &set, cores, &cfg, BatchMode::Scalar, &mut BatchStats::default());
            prop_assert_eq!(batch, scalar, "config {:?} diverged", cfg);
        }
    }

    #[test]
    fn partition_error_preserves_placed_tasks(set in arb_taskset(), cores in 1usize..=2) {
        let cfg = PartitionConfig::paper_default();
        if let Err(e) = partition_tasks(&set, cores, &cfg) {
            prop_assert!(e.partial.assigned_count() < set.len());
            prop_assert!(e.task.0 < set.len());
            prop_assert_eq!(e.partial.core_of(e.task), None);
        }
    }
}
