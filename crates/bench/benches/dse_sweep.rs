//! Criterion bench: throughput of the `rt-dse` sweep engine (scenarios per
//! second), serial vs multi-threaded, the buffered-vs-streaming output path,
//! plus the marginal cost of the memoization layer's sharing across the
//! allocator axis.
//!
//! The final group is the **CI bench gate**: a quick fixed-size sweep over
//! the full axis set (allocators × period policies) whose throughput is
//! written to a machine-readable `BENCH_sweep.json` (scenarios/sec, peak
//! RSS, grid size, git SHA) and compared against the checked-in baseline in
//! `crates/bench/bench_baselines/dse_sweep.json`. A >25 % regression fails
//! the bench run (and therefore CI). Environment knobs:
//!
//! * `BENCH_SWEEP_JSON` — output path (default `<workspace>/BENCH_sweep.json`),
//! * `BENCH_GATE_SKIP=1` — emit the JSON but skip the regression assertion
//!   (for debugging on known-slow machines).

// Benches own the wall clock (lint rule D002 boundary).
#![allow(clippy::disallowed_methods)]

use std::time::{Duration, Instant};

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rt_dse::prelude::*;

/// A mid-sized allocate-only sweep: 2 core counts × 6 utilization points ×
/// 3 trials × 2 allocators = 72 scenarios per iteration.
fn sweep_spec() -> ScenarioSpec {
    let mut spec = ScenarioSpec::synthetic("bench");
    spec.cores = vec![2, 4];
    spec.utilizations = UtilizationGrid::NormalizedSteps(6);
    spec.allocators = vec![AllocatorKind::Hydra, AllocatorKind::SingleCore];
    spec.trials = 3;
    spec
}

fn bench_sweep_throughput(c: &mut Criterion) {
    let mut group = c.benchmark_group("dse_sweep_72_scenarios");
    group.sample_size(10);
    for &threads in &[1usize, 2, 4] {
        group.bench_with_input(
            BenchmarkId::new("threads", threads),
            &threads,
            |b, &threads| {
                let spec = sweep_spec();
                let executor = Executor::with_threads(threads);
                b.iter(|| executor.run(std::hint::black_box(&spec)));
            },
        );
    }
    group.finish();
}

fn bench_streaming_vs_buffered(c: &mut Criterion) {
    // The gate for the streaming refactor: rendering the sweep through the
    // incremental sinks (reorder buffer + per-record serialization, bounded
    // memory) must not lose throughput against the legacy buffer-everything-
    // then-render path. Both arms produce the complete JSONL and CSV bytes.
    let mut group = c.benchmark_group("dse_output_path");
    group.sample_size(10);
    group.bench_function("buffered_then_rendered", |b| {
        let spec = sweep_spec();
        let executor = Executor::with_threads(2);
        b.iter(|| {
            let result = executor.run(std::hint::black_box(&spec));
            let jsonl = to_jsonl(&result.outcomes);
            let csv = to_csv(&result.outcomes);
            std::hint::black_box((jsonl.len(), csv.len()))
        });
    });
    group.bench_function("streaming_sinks", |b| {
        let spec = sweep_spec();
        let executor = Executor::with_threads(2);
        b.iter(|| {
            let mut jsonl = JsonlSink::new(Vec::new());
            let mut csv = CsvSink::new(Vec::new(), true);
            let mut tee = rt_dse::TeeSink::new().with(&mut jsonl).with(&mut csv);
            executor
                .run_streaming(std::hint::black_box(&spec), &mut tee)
                .expect("in-memory sinks never fail");
            std::hint::black_box((jsonl.bytes_written(), csv.bytes_written()))
        });
    });
    group.finish();
}

fn bench_grid_expansion(c: &mut Criterion) {
    // Expansion alone: the full paper-scale grid (3 cores × 39 utils × 250
    // trials × 2 allocators = 58 500 points) must expand in microseconds.
    let mut spec = ScenarioSpec::synthetic("expand");
    spec.trials = 250;
    c.bench_function("dse_grid_expand_58500_points", |b| {
        b.iter(|| ScenarioGrid::expand(std::hint::black_box(&spec)));
    });
}

fn bench_memoized_vs_fresh_generation(c: &mut Criterion) {
    // One allocator vs three on the same grid: the extra allocators reuse
    // every generated problem, so the marginal cost per extra scheme is the
    // allocation alone, not generation + allocation.
    let mut group = c.benchmark_group("dse_allocator_axis");
    group.sample_size(10);
    for &(label, n) in &[("one_scheme", 1usize), ("three_schemes", 3)] {
        group.bench_with_input(BenchmarkId::new("allocators", label), &n, |b, &n| {
            let mut spec = sweep_spec();
            spec.allocators = vec![
                AllocatorKind::Hydra,
                AllocatorKind::SingleCore,
                AllocatorKind::NpHydra,
            ][..n]
                .to_vec();
            let executor = Executor::serial();
            b.iter(|| executor.run(std::hint::black_box(&spec)));
        });
    }
    group.finish();
}

/// The fixed workload the CI gate times: the mid-sized sweep extended with
/// the full period-policy axis, so a regression on any axis of the engine
/// (generation, allocation, policy passes, sinks) moves the number.
fn gate_spec() -> ScenarioSpec {
    let mut spec = sweep_spec();
    spec.period_policies = vec![
        PeriodPolicy::Fixed,
        PeriodPolicy::Adapt,
        PeriodPolicy::Joint,
    ];
    spec
}

use hydra_bench::gate::json_number;
use hydra_bench::record::BenchRecord;
use rt_dse::SweepObs;

/// The CI throughput gate. Times the fixed gate workload **with
/// observability fully enabled** (metrics + tracing — the overhead contract
/// says instrumentation must be nearly free, so the gated number covers
/// it), emits `BENCH_sweep.json` with the run's metrics snapshot embedded,
/// and fails on a >25 % scenarios/sec regression against the checked-in
/// baseline.
fn bench_gate(_c: &mut Criterion) {
    let workspace = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
    let spec = gate_spec();
    let grid_size = ScenarioGrid::expand(&spec).len();
    let threads = 2usize;
    let obs = SweepObs::enabled();
    let executor = Executor::with_threads(threads).with_observability(obs.clone());

    // Warm-up once (page in, prime allocator), then time whole-sweep
    // repetitions until at least ~0.6 s of work has been measured.
    let _ = executor.run(std::hint::black_box(&spec));
    let mut evaluated = 0usize;
    let started = Instant::now();
    while started.elapsed() < Duration::from_millis(600) {
        let result = executor.run(std::hint::black_box(&spec));
        evaluated += result.outcomes.len();
    }
    let elapsed = started.elapsed().as_secs_f64();
    let scenarios_per_sec = evaluated as f64 / elapsed;

    let baseline_path = format!("{workspace}/crates/bench/bench_baselines/dse_sweep.json");
    let baseline = std::fs::read_to_string(&baseline_path)
        .ok()
        .and_then(|text| json_number(&text, "scenarios_per_sec"));
    let floor = baseline.map(|b| b * 0.75);
    let ratio = baseline.map(|b| scenarios_per_sec / b);
    let pass = floor.is_none_or(|f| scenarios_per_sec >= f);

    // Batch-kernel lane occupancy from the instrumented run. Only partition
    // admission records it, so the gate record surfaces that kernel's mean
    // occupancy and scalar fallback count as first-class fields (the full
    // histogram stays inside the embedded metrics document).
    let snapshot = obs.registry().snapshot();
    let mean_lanes_filled = snapshot
        .histograms
        .get("batch.lanes_filled")
        .and_then(|h| h.mean());
    let scalar_fallbacks = snapshot.counter("batch.scalar_fallbacks");

    let json = BenchRecord::new("dse_sweep")
        .int("grid_size", grid_size as u128)
        .int("threads", threads as u128)
        .int("scenarios_evaluated", evaluated as u128)
        .num("elapsed_secs", elapsed, 3)
        .num("scenarios_per_sec", scenarios_per_sec, 1)
        .opt("baseline_scenarios_per_sec", baseline, 1)
        .opt("gate_floor_scenarios_per_sec", floor, 1)
        .opt("measured_vs_baseline_ratio", ratio, 3)
        .opt("batch_mean_lanes_filled", mean_lanes_filled, 3)
        .int("batch_scalar_fallbacks", u128::from(scalar_fallbacks))
        .metrics(&obs.metrics_json())
        .finish(pass);
    let out_path = std::env::var("BENCH_SWEEP_JSON")
        .unwrap_or_else(|_| format!("{workspace}/BENCH_sweep.json"));
    std::fs::write(&out_path, &json).expect("write BENCH_sweep.json");
    println!(
        "bench_gate: {scenarios_per_sec:.0} scenarios/s over {grid_size}-point grid \
         ({} of baseline) -> {out_path}",
        ratio.map_or_else(|| "no baseline".to_owned(), |r| format!("{r:.2}x")),
    );

    if std::env::var("BENCH_GATE_SKIP").is_ok() {
        println!("bench_gate: BENCH_GATE_SKIP set, not enforcing the baseline");
        return;
    }
    match (baseline, floor) {
        (Some(baseline), Some(floor)) => {
            assert!(
                pass,
                "dse_sweep throughput regressed by more than 25 %: \
                 {scenarios_per_sec:.0} scenarios/s vs baseline {baseline:.0} \
                 (floor {floor:.0}); see {out_path}"
            );
        }
        _ => println!("bench_gate: no baseline at {baseline_path}, gate not enforced"),
    }
}

criterion_group!(
    benches,
    // The gate runs first so its VmHWM peak-RSS record reflects the gate
    // workload, not the buffered outcome vectors of the groups below.
    bench_gate,
    bench_sweep_throughput,
    bench_streaming_vs_buffered,
    bench_grid_expansion,
    bench_memoized_vs_fresh_generation
);
criterion_main!(benches);
