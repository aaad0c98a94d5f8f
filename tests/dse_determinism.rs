//! Determinism guarantees of the design-space exploration engine, pinned as
//! properties:
//!
//! * two runs of the same [`ScenarioSpec`] + seed produce **byte-identical**
//!   JSONL output,
//! * parallel and serial execution produce identical outcomes and therefore
//!   identical aggregates,
//! * changing the seed changes the results (the guarantee is not vacuous),
//! * sharded (`--shard i/n`-style range) runs and killed-then-resumed runs
//!   concatenate to the **byte-identical** single-process stream at any
//!   thread count,
//! * the memo's work counters are exact: identical at every thread count.

use hydra_repro::dse::sink::summary_to_csv;
use hydra_repro::dse::{prelude::*, AggregateRow, TeeSink};
use proptest::prelude::*;

/// Folds buffered outcomes through one [`SweepAccumulator`] in grid order:
/// the one-pass reference the streaming per-worker partials are compared
/// against.
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
                // Stay in the low-to-mid utilization band so the sweep runs fast.
                spec.utilizations = UtilizationGrid::NormalizedSteps(steps);
                spec.allocators = allocators;
                spec.period_policies = period_policies;
                spec.trials = trials;
                spec.base_seed = base_seed;
                spec
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn repeated_runs_serialize_to_identical_bytes(spec in arb_spec()) {
        let first = Executor::serial().run(&spec);
        let second = Executor::serial().run(&spec);
        prop_assert_eq!(to_jsonl(&first.outcomes), to_jsonl(&second.outcomes));
        prop_assert_eq!(to_csv(&first.outcomes), to_csv(&second.outcomes));
    }

    #[test]
    fn parallel_and_serial_execution_agree_exactly(spec in arb_spec()) {
        let serial = Executor::serial().run(&spec);
        let parallel = Executor::with_threads(4).run(&spec);
        // Outcome-level equality...
        prop_assert_eq!(&serial.outcomes, &parallel.outcomes);
        // ...and therefore byte-identical serializations and aggregates.
        prop_assert_eq!(
            to_jsonl(&serial.outcomes),
            to_jsonl(&parallel.outcomes)
        );
        let serial_agg = accumulate(&serial.outcomes);
        let parallel_agg = accumulate(&parallel.outcomes);
        prop_assert_eq!(&serial_agg, &parallel_agg);
        prop_assert_eq!(summary_to_csv(&serial_agg), summary_to_csv(&parallel_agg));
    }

    #[test]
    fn different_seeds_produce_different_results(spec in arb_spec()) {
        let mut reseeded = spec.clone();
        reseeded.base_seed = spec.base_seed.wrapping_add(1);
        let a = Executor::serial().run(&spec);
        let b = Executor::serial().run(&reseeded);
        // Same grid shape...
        prop_assert_eq!(a.outcomes.len(), b.outcomes.len());
        // ...but different generated workloads somewhere in the sweep.
        prop_assert!(
            to_jsonl(&a.outcomes) != to_jsonl(&b.outcomes),
            "two different seeds produced byte-identical sweeps"
        );
    }
}

#[test]
fn sampled_expansion_is_deterministic_across_thread_counts() {
    let mut spec = ScenarioSpec::synthetic("sampled-determinism");
    spec.cores = vec![2, 4];
    spec.utilizations = UtilizationGrid::NormalizedSteps(4);
    spec.trials = 3;
    spec.expansion = Expansion::Sampled(20);
    let serial = Executor::serial().run(&spec);
    let parallel = Executor::with_threads(3).run(&spec);
    assert_eq!(serial.outcomes.len(), 20);
    assert_eq!(to_jsonl(&serial.outcomes), to_jsonl(&parallel.outcomes));
}

/// Streams `range` of `spec` into fresh JSONL/CSV buffers and appends them
/// to `jsonl`/`csv`; `first` controls the CSV header (only the first slice
/// of a split run carries it).
fn stream_range_into(
    spec: &ScenarioSpec,
    threads: usize,
    range: std::ops::Range<usize>,
    first: bool,
    jsonl: &mut Vec<u8>,
    csv: &mut Vec<u8>,
) {
    let mut jsonl_sink = JsonlSink::new(Vec::new());
    let mut csv_sink = CsvSink::new(Vec::new(), first);
    let mut tee = TeeSink::new().with(&mut jsonl_sink).with(&mut csv_sink);
    Executor::with_threads(threads)
        .run_streaming_range(spec, range, &mut tee)
        .expect("in-memory sinks never fail");
    jsonl.extend(jsonl_sink.into_inner());
    csv.extend(csv_sink.into_inner());
}

#[test]
fn shard_streams_concatenate_to_the_full_run_at_any_thread_count() {
    let mut spec = ScenarioSpec::synthetic("sharded");
    spec.cores = vec![2, 4];
    spec.utilizations = UtilizationGrid::NormalizedSteps(3);
    spec.allocators = vec![
        AllocatorKind::Hydra,
        AllocatorKind::SingleCore,
        AllocatorKind::NpHydra,
    ];
    // Shard boundaries may fall *inside* a policy triple: concatenation must
    // still be exact, so the sharded spec carries the full policy axis.
    spec.period_policies = vec![
        PeriodPolicy::Fixed,
        PeriodPolicy::Adapt,
        PeriodPolicy::Joint,
    ];
    spec.trials = 2;
    let full = Executor::serial().run(&spec);
    let (full_jsonl, full_csv) = (to_jsonl(&full.outcomes), to_csv(&full.outcomes));
    let n = full.outcomes.len();
    assert_eq!(n, 108);
    for threads in [1usize, 3] {
        for count in [2usize, 5] {
            let mut jsonl = Vec::new();
            let mut csv = Vec::new();
            for index in 1..=count {
                let range = shard_range(n, index, count);
                stream_range_into(&spec, threads, range, index == 1, &mut jsonl, &mut csv);
            }
            assert_eq!(
                String::from_utf8(jsonl).unwrap(),
                full_jsonl,
                "{count} shards on {threads} threads (JSONL)"
            );
            assert_eq!(
                String::from_utf8(csv).unwrap(),
                full_csv,
                "{count} shards on {threads} threads (CSV)"
            );
        }
    }
}

#[test]
fn a_killed_and_resumed_run_is_byte_identical_to_one_full_sweep() {
    // A resume is a range run continuing where the durable prefix ended —
    // model a kill at several awkward cut points, including inside a shard.
    let mut spec = ScenarioSpec::synthetic("resumed");
    spec.cores = vec![2];
    spec.utilizations = UtilizationGrid::NormalizedSteps(4);
    spec.allocators = vec![AllocatorKind::Hydra, AllocatorKind::SingleCore];
    spec.trials = 3;
    let full = Executor::serial().run(&spec);
    let (full_jsonl, full_csv) = (to_jsonl(&full.outcomes), to_csv(&full.outcomes));
    let n = full.outcomes.len();
    for cut in [1usize, n / 3 + 1, n - 1] {
        let mut jsonl = Vec::new();
        let mut csv = Vec::new();
        stream_range_into(&spec, 2, 0..cut, true, &mut jsonl, &mut csv);
        stream_range_into(&spec, 4, cut..n, false, &mut jsonl, &mut csv);
        assert_eq!(
            String::from_utf8(jsonl).unwrap(),
            full_jsonl,
            "resume after {cut} (JSONL)"
        );
        assert_eq!(
            String::from_utf8(csv).unwrap(),
            full_csv,
            "resume after {cut} (CSV)"
        );
    }
}

#[test]
fn three_policy_paired_sweeps_are_byte_identical_across_thread_counts() {
    // The acceptance property of the period-policy axis: a paired
    // fixed/adapt/joint sweep serializes to the identical bytes no matter
    // how many workers evaluate it, and the policy variants of every point
    // share their problem instance.
    let mut spec = ScenarioSpec::synthetic("policy-paired");
    spec.cores = vec![2, 4];
    spec.utilizations = UtilizationGrid::NormalizedSteps(3);
    spec.allocators = vec![AllocatorKind::Hydra, AllocatorKind::SingleCore];
    spec.period_policies = vec![
        PeriodPolicy::Fixed,
        PeriodPolicy::Adapt,
        PeriodPolicy::Joint,
    ];
    spec.trials = 2;
    let serial = Executor::serial().run(&spec);
    for threads in [2usize, 4] {
        let parallel = Executor::with_threads(threads).run(&spec);
        assert_eq!(to_jsonl(&serial.outcomes), to_jsonl(&parallel.outcomes));
        assert_eq!(to_csv(&serial.outcomes), to_csv(&parallel.outcomes));
        assert_eq!(
            summary_to_csv(&accumulate(&serial.outcomes)),
            summary_to_csv(&accumulate(&parallel.outcomes))
        );
    }
    // Pairing: the three policy variants of each (point, allocator) report
    // the identical generated problem.
    for triple in serial.outcomes.chunks(3) {
        assert_eq!(
            triple[0].scenario.problem_stream,
            triple[2].scenario.problem_stream
        );
        assert_eq!(triple[0].scenario.allocator, triple[1].scenario.allocator);
        assert_eq!(triple[0].n_rt, triple[2].n_rt);
        assert_eq!(triple[0].n_sec, triple[2].n_sec);
        assert_eq!(triple[0].total_utilization, triple[2].total_utilization);
    }
}

#[test]
fn memo_work_counts_are_independent_of_thread_count() {
    // Every memo key is computed exactly once, whatever the worker count:
    // exhaustive grids hand each worker whole problem groups, and frontier
    // lists (whose slices share problems across the allocator and policy
    // axes) meet the memo's single-flight cells.
    let mut spec = ScenarioSpec::synthetic("memo-counts");
    spec.cores = vec![2, 4];
    spec.utilizations = UtilizationGrid::NormalizedSteps(6);
    spec.allocators = vec![AllocatorKind::Hydra, AllocatorKind::SingleCore];
    spec.period_policies = vec![
        PeriodPolicy::Fixed,
        PeriodPolicy::Adapt,
        PeriodPolicy::Joint,
    ];
    spec.trials = 4;

    let serial = Executor::serial().run(&spec);
    let feasible_pairs: std::collections::BTreeSet<_> = serial
        .outcomes
        .iter()
        .filter(|o| o.feasible)
        .map(|o| (o.scenario.problem_stream, o.scenario.allocator))
        .collect();
    assert!(!feasible_pairs.is_empty());
    assert_eq!(serial.memo.allocation_misses, feasible_pairs.len() as u64);
    for threads in [2usize, 4] {
        let parallel = Executor::with_threads(threads).run(&spec);
        assert_eq!(
            parallel.memo, serial.memo,
            "exhaustive grid, {threads} threads"
        );
    }

    spec.explore = ExploreMode::Frontier(FrontierConfig::default());
    let explore = |threads: usize| {
        FrontierRunner::new(SweepSession::new(spec.clone()).threads(threads))
            .explore(&mut NullSink)
            .expect("NullSink never fails")
            .1
            .memo
    };
    let frontier = explore(1);
    for threads in [2usize, 4] {
        assert_eq!(explore(threads), frontier, "frontier, {threads} threads");
    }
}

#[test]
fn batched_and_scalar_kernels_stream_identical_bytes() {
    // The batch-kernel contract, pinned: switching the executor between the
    // 8-lane structure-of-arrays kernels (the default) and the scalar
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

    let scalar = Executor::serial()
        .with_batch_mode(BatchMode::Scalar)
        .run(&spec);
    let scalar_jsonl = to_jsonl(&scalar.outcomes);
    let scalar_csv = to_csv(&scalar.outcomes);
    let scalar_summary = summary_to_csv(&accumulate(&scalar.outcomes));

    for threads in [1usize, 2, 4] {
        for mode in [BatchMode::Batch, BatchMode::Scalar] {
            let run = Executor::with_threads(threads)
                .with_batch_mode(mode)
                .run(&spec);
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
        let batched = Executor::serial().run(&spec);
        let scalar = Executor::serial()
            .with_batch_mode(BatchMode::Scalar)
            .run(&spec);
        prop_assert_eq!(&batched.outcomes, &scalar.outcomes);
        prop_assert_eq!(to_jsonl(&batched.outcomes), to_jsonl(&scalar.outcomes));
        prop_assert_eq!(to_csv(&batched.outcomes), to_csv(&scalar.outcomes));
    }
}

#[test]
fn streaming_partial_aggregates_match_the_buffered_summary() {
    let mut spec = ScenarioSpec::synthetic("online-agg");
    spec.cores = vec![2, 4];
    spec.utilizations = UtilizationGrid::NormalizedSteps(3);
    spec.trials = 3;
    let buffered = Executor::serial().run(&spec);
    let summary = Executor::with_threads(4)
        .run_streaming(&spec, &mut NullSink)
        .unwrap();
    assert_eq!(summary.partial.rows(), accumulate(&buffered.outcomes));
    assert_eq!(
        summary_to_csv(&summary.partial.rows()),
        summary_to_csv(&accumulate(&buffered.outcomes))
    );
}

#[test]
fn observability_never_changes_an_output_byte() {
    // The rt-obs overhead contract, pinned: every combination of metrics /
    // tracing instrumentation, across thread counts, streams the identical
    // JSONL, CSV and summary bytes as an uninstrumented serial run — while
    // actually recording when enabled (the guarantee is not vacuous).
    use hydra_repro::dse::SweepObs;
    let mut spec = ScenarioSpec::synthetic("obs-identity");
    spec.cores = vec![2, 4];
    spec.utilizations = UtilizationGrid::NormalizedSteps(3);
    spec.allocators = vec![
        AllocatorKind::Hydra,
        AllocatorKind::SingleCore,
        AllocatorKind::NpHydra,
    ];
    spec.period_policies = vec![PeriodPolicy::Fixed, PeriodPolicy::Adapt];
    spec.trials = 2;

    let baseline = Executor::serial().run(&spec);
    let base_jsonl = to_jsonl(&baseline.outcomes);
    let base_csv = to_csv(&baseline.outcomes);
    let base_summary = summary_to_csv(&accumulate(&baseline.outcomes));

    for threads in [1usize, 2, 4] {
        for (metrics, tracing) in [(true, false), (false, true), (true, true)] {
            let obs = SweepObs::new(metrics, tracing);
            let executor = Executor::with_threads(threads).with_observability(obs.clone());
            let mut jsonl_sink = JsonlSink::new(Vec::new());
            let mut csv_sink = CsvSink::new(Vec::new(), true);
            let mut tee = TeeSink::new().with(&mut jsonl_sink).with(&mut csv_sink);
            let summary = executor
                .run_streaming(&spec, &mut tee)
                .expect("in-memory sinks never fail");
            let label = format!("threads={threads} metrics={metrics} tracing={tracing}");
            assert_eq!(
                String::from_utf8(jsonl_sink.into_inner()).unwrap(),
                base_jsonl,
                "JSONL differs with {label}"
            );
            assert_eq!(
                String::from_utf8(csv_sink.into_inner()).unwrap(),
                base_csv,
                "CSV differs with {label}"
            );
            assert_eq!(
                summary_to_csv(&summary.partial.rows()),
                base_summary,
                "summary differs with {label}"
            );
            if metrics {
                assert_eq!(
                    obs.registry().snapshot().counter("sweep.scenarios_done"),
                    baseline.outcomes.len() as u64,
                    "scenario counter wrong with {label}"
                );
            } else {
                assert!(obs.registry().snapshot().counters.is_empty());
            }
            if tracing {
                assert!(
                    obs.phase_rows().iter().any(|row| row.count > 0),
                    "no phase spans recorded with {label}"
                );
            } else {
                assert!(obs.phase_rows().is_empty());
            }
        }
    }
}

#[test]
fn detection_stats_distinguish_silence_from_instant_detection() {
    // Regression: zero detections must surface as None/missed, never 0.0 ms.
    let mut spec = ScenarioSpec::uav_detection("uav-miss", 20, 15);
    spec.cores = vec![2];
    let result = Executor::serial().run(&spec);
    for outcome in &result.outcomes {
        let d = outcome.detection.as_ref().unwrap();
        assert_eq!(d.injected, d.detected + d.missed);
        assert_eq!(d.detected == 0, d.mean_ms.is_none());
        assert_eq!(d.detected == 0, d.median_ms.is_none());
        assert_eq!(d.detected == 0, d.p95_ms.is_none());
        assert_eq!(d.detected == 0, d.max_ms.is_none());
        if let Some(mean) = d.mean_ms {
            assert!(mean.is_finite() && mean > 0.0);
        }
    }
}

#[test]
fn detection_sweeps_are_deterministic() {
    let mut spec = ScenarioSpec::uav_detection("uav-determinism", 20, 15);
    spec.cores = vec![2];
    let a = Executor::serial().run(&spec);
    let b = Executor::with_threads(2).run(&spec);
    assert_eq!(to_jsonl(&a.outcomes), to_jsonl(&b.outcomes));
    // Both schemes face the identical attack sequence: the detection record
    // exists and reports the same number of injected attacks.
    for outcome in &a.outcomes {
        assert_eq!(outcome.detection.as_ref().unwrap().injected, 15);
    }
}
