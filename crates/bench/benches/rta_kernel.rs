//! Criterion bench: the scalar response-time analysis vs the 8-lane
//! batch kernel of `rt-core::batch` (unseeded rows), on the
//! task-set shapes the sweep engine actually feeds them (synthetic
//! workloads at the paper's utilization band, small per-core lists through
//! full platform-sized sets).
//!
//! Besides the criterion groups, a hand-timed section emits a
//! machine-readable `BENCH_rta.json` (scalar and batch task-sets/sec, the
//! speedup ratio, git SHA, peak RSS) through the shared [`BenchRecord`]
//! envelope so CI can archive the kernel comparison next to the sweep
//! gate's document. The record's `gate` verdict asserts the oracle
//! contract — every batch verdict must equal its scalar counterpart —
//! not a throughput floor. Environment knobs:
//!
//! * `BENCH_RTA_JSON` — output path (default `<workspace>/BENCH_rta.json`).

// Benches own the wall clock (lint rule D002 boundary).
#![allow(clippy::disallowed_methods)]

use std::time::{Duration, Instant};

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hydra_bench::record::BenchRecord;
use rand::rngs::StdRng;
use rand::SeedableRng;
use rt_core::batch::{BatchRtaKernel, LANES};
use rt_core::rta::{response_times_into, ResponseTime};
use rt_core::{PriorityAssignment, PriorityPolicy, TaskId, TaskSet};
use taskgen::synthetic::{generate_problem, SyntheticConfig};

/// One task set prepared for both arms: the set itself, its rate-monotonic
/// priority assignment, and its rows (wcet, period, deadline ticks) in
/// priority order — the shape the partition heuristics hand the kernel.
struct Prepared {
    set: TaskSet,
    priorities: PriorityAssignment,
    rows: Vec<(u64, u64, u64)>,
}

/// Generates `count` synthetic task sets sized for `cores` (the `3m..10m`
/// task counts of the paper's workloads) at a total utilization of 0.65 —
/// mostly single-lane-feasible, so the recurrences run to convergence
/// instead of failing at the first row.
fn prepare(cores: usize, count: usize, seed: u64) -> Vec<Prepared> {
    let config = SyntheticConfig::paper_default(cores);
    let mut rng = StdRng::seed_from_u64(seed);
    (0..count)
        .map(|_| {
            let set = generate_problem(&config, 0.65, &mut rng).rt_tasks;
            let priorities = PriorityAssignment::assign(&set, PriorityPolicy::RateMonotonic);
            let mut order: Vec<usize> = (0..set.len()).collect();
            order.sort_by_key(|&i| priorities.priority(TaskId(i)));
            let rows = order
                .iter()
                .map(|&i| {
                    let t = &set[TaskId(i)];
                    (
                        t.wcet().as_ticks(),
                        t.period().as_ticks(),
                        t.deadline().as_ticks(),
                    )
                })
                .collect();
            Prepared {
                set,
                priorities,
                rows,
            }
        })
        .collect()
}

/// Scalar arm: full response-time vectors through the allocation-free
/// entry point, one set at a time.
fn scalar_rta(sets: &[Prepared], scratch: &mut Vec<ResponseTime>) -> usize {
    let mut schedulable = 0usize;
    for p in sets {
        response_times_into(&p.set, &p.priorities, scratch);
        schedulable += usize::from(scratch.iter().all(|r| r.is_schedulable()));
    }
    schedulable
}

/// Batch arm: the same verdicts through the 8-lane kernel, loading rows
/// inside the timed region (loading is part of the kernel's real cost).
fn batch_rta(sets: &[Prepared], kernel: &mut BatchRtaKernel) -> usize {
    let mut schedulable = 0usize;
    for chunk in sets.chunks(LANES) {
        kernel.begin(chunk.len());
        for (lane, p) in chunk.iter().enumerate() {
            for &(w, t, d) in &p.rows {
                kernel.push(lane, w, t, d);
            }
        }
        let ok = kernel.solve(false, |_, _, _| ());
        schedulable += ok[..chunk.len()].iter().filter(|&&v| v).count();
    }
    schedulable
}

fn bench_rta_kernel(c: &mut Criterion) {
    // Shapes: 2-core sets (6..20 tasks, the per-core admission scale),
    // 4-core sets (the sweep's default platform), 8-core sets (the largest
    // Fig. 2 platform — 24..80 tasks per set).
    let mut group = c.benchmark_group("rta_kernel_64_sets");
    group.sample_size(20);
    for &cores in &[2usize, 4, 8] {
        let sets = prepare(cores, 64, 7 + cores as u64);
        group.bench_with_input(BenchmarkId::new("scalar", cores), &sets, |b, sets| {
            let mut scratch = Vec::new();
            b.iter(|| scalar_rta(std::hint::black_box(sets), &mut scratch));
        });
        group.bench_with_input(BenchmarkId::new("batch", cores), &sets, |b, sets| {
            let mut kernel = BatchRtaKernel::new();
            b.iter(|| batch_rta(std::hint::black_box(sets), &mut kernel));
        });
    }
    group.finish();
}

/// Times `run` in whole-workload repetitions for at least ~0.4 s and
/// returns (sets/sec, the last repetition's verdict count).
fn throughput(sets_per_pass: usize, mut run: impl FnMut() -> usize) -> (f64, usize) {
    let mut verdict = run(); // warm-up
    let mut passes = 0usize;
    let started = Instant::now();
    while started.elapsed() < Duration::from_millis(400) {
        verdict = run();
        passes += 1;
    }
    let elapsed = started.elapsed().as_secs_f64();
    ((passes * sets_per_pass) as f64 / elapsed, verdict)
}

/// The machine-readable record: scalar vs batch RTA throughput on the
/// 4-core shape, plus the oracle-contract verdict check.
fn bench_record(_c: &mut Criterion) {
    let workspace = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
    let cores = 4usize;
    let sets = prepare(cores, 256, 2018);
    let tasks_total: usize = sets.iter().map(|p| p.set.len()).sum();

    let mut scratch = Vec::new();
    let (scalar_rate, scalar_verdicts) = throughput(sets.len(), || scalar_rta(&sets, &mut scratch));
    let mut kernel = BatchRtaKernel::new();
    let (batch_rate, batch_verdicts) = throughput(sets.len(), || batch_rta(&sets, &mut kernel));
    let pass = scalar_verdicts == batch_verdicts;
    let speedup = batch_rate / scalar_rate;

    let json = BenchRecord::new("rta_kernel")
        .int("cores", cores as u128)
        .int("task_sets", sets.len() as u128)
        .int("tasks_total", tasks_total as u128)
        .num("scalar_sets_per_sec", scalar_rate, 1)
        .num("batch_sets_per_sec", batch_rate, 1)
        .num("batch_vs_scalar_speedup", speedup, 3)
        .int("schedulable_sets", batch_verdicts as u128)
        .finish(pass);
    let out_path =
        std::env::var("BENCH_RTA_JSON").unwrap_or_else(|_| format!("{workspace}/BENCH_rta.json"));
    std::fs::write(&out_path, &json).expect("write BENCH_rta.json");
    println!(
        "rta_kernel: scalar {scalar_rate:.0} sets/s, batch {batch_rate:.0} sets/s \
         ({speedup:.2}x) -> {out_path}"
    );
    assert!(
        pass,
        "batch kernel verdicts diverged from the scalar oracle: \
         {batch_verdicts} vs {scalar_verdicts} schedulable sets"
    );
}

criterion_group!(benches, bench_record, bench_rta_kernel);
criterion_main!(benches);
