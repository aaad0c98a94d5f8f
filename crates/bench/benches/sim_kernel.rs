//! Criterion bench + CI gate for the event-driven evaluation kernel: raw
//! simulator throughput (jobs/sec), the detection-mode quick-gate sweep
//! (scenarios/sec through the streaming `OnlineDetector` path), and the
//! branch-and-bound Optimal search (visited/pruned assignments, instances/sec
//! against the recorded pre-branch-and-bound exhaustive rate).
//!
//! The gate group writes a machine-readable `BENCH_sim.json` next to
//! `BENCH_sweep.json` and enforces two assertions:
//!
//! * detection-sweep throughput must stay above 75 % of the checked-in
//!   baseline in `crates/bench/bench_baselines/sim_kernel.json` (the verdict
//!   line prints the measured/baseline ratio);
//! * the branch-and-bound Optimal must prune at least `min_prune_ratio`
//!   (50 %) of the assignment space on the Fig. 3-style instance grid.
//!
//! The baseline file also records the throughput of the *pre-rewrite* kernel
//! on the identical workloads (`pre_pr_*` keys, measured at the parent
//! commit), so the JSON is self-contained evidence of the speedup.
//! Environment knobs mirror the sweep gate: `BENCH_SIM_JSON` overrides the
//! output path, `BENCH_GATE_SKIP=1` emits the JSON but skips the assertions.

// Benches own the wall clock (lint rule D002 boundary).
#![allow(clippy::disallowed_methods)]

use std::time::{Duration, Instant};

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hydra_core::allocator::{Allocator, HydraAllocator, OptimalAllocator, SearchStats};
use hydra_core::{casestudy, catalog, AllocationProblem};
use rt_core::Time;
use rt_dse::prelude::*;
use rt_sim::engine::{simulate, SimConfig};
use rt_sim::workload::simulation_tasks;
use taskgen::generate_problem_seeded;

/// The fixed detection-mode quick-gate sweep: 2 core counts × 4 utilization
/// points × 3 trials × 2 allocators = 48 scenarios, each allocating and then
/// simulating a 30 s schedule with 100 injected attacks (the Figure 1
/// measurement pipeline at sweep scale).
fn detection_gate_spec() -> ScenarioSpec {
    let mut spec = ScenarioSpec::synthetic("sim_gate");
    spec.cores = vec![2, 4];
    spec.utilizations = UtilizationGrid::NormalizedSteps(4);
    spec.allocators = vec![AllocatorKind::Hydra, AllocatorKind::SingleCore];
    spec.trials = 3;
    spec.evaluation = Evaluation::Detection {
        horizon: Time::from_secs(30),
        attacks: 100,
    };
    spec
}

/// The Fig. 3-style Optimal instance grid: security sets of 2–6 tasks at
/// half-load on 2 and 4 cores, 6 seeded trials each.
fn optimal_instances() -> Vec<AllocationProblem> {
    let mut instances = Vec::new();
    for cores in [2usize, 4] {
        let mut config = taskgen::SyntheticConfig::paper_default(cores);
        config.security_tasks = (2, 6);
        for trial in 0..6u64 {
            let util = 0.5 * cores as f64;
            instances.push(generate_problem_seeded(
                &config,
                util,
                2018,
                trial * 7 + cores as u64,
            ));
        }
    }
    instances
}

fn bench_sim_throughput(c: &mut Criterion) {
    let mut group = c.benchmark_group("sim_kernel_uav");
    group.sample_size(10);
    for &cores in &[2usize, 8] {
        let problem =
            AllocationProblem::new(casestudy::uav_rt_tasks(), catalog::table1_tasks(), cores);
        let allocation = HydraAllocator::default().allocate(&problem).unwrap();
        let tasks = simulation_tasks(&problem, &allocation);
        group.bench_with_input(BenchmarkId::new("cores", cores), &tasks, |b, tasks| {
            let config = SimConfig::new(Time::from_secs(30));
            b.iter(|| simulate(std::hint::black_box(tasks), &config));
        });
    }
    group.finish();
}

fn bench_detection_sweep(c: &mut Criterion) {
    let mut group = c.benchmark_group("sim_kernel_detection_sweep");
    group.sample_size(10);
    let spec = detection_gate_spec();
    group.bench_function("48_scenarios", |b| {
        b.iter(|| {
            SweepSession::new(std::hint::black_box(&spec).clone())
                .threads(2)
                .run_buffered()
        });
    });
    group.finish();
}

fn bench_optimal_bnb(c: &mut Criterion) {
    let mut group = c.benchmark_group("optimal_bnb");
    group.sample_size(10);
    let instances = optimal_instances();
    let allocator = OptimalAllocator::default();
    group.bench_function("fig3_grid_12_instances", |b| {
        b.iter(|| {
            for problem in &instances {
                let _ = allocator.allocate_with_stats(std::hint::black_box(problem));
            }
        });
    });
    group.finish();
}

use hydra_bench::gate::json_number;
use hydra_bench::record::BenchRecord;
use rt_dse::SweepObs;

/// The CI kernel gate: times the detection quick-gate sweep (with
/// observability fully enabled, per the overhead contract) and the
/// branch-and-bound Optimal grid, emits `BENCH_sim.json` with the sweep's
/// metrics snapshot embedded, and fails on a >25 % detection-throughput
/// regression or a prune ratio below the floor.
fn bench_gate(_c: &mut Criterion) {
    let workspace = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");

    // --- Raw simulator throughput (informational): UAV case study, 2 cores.
    let problem = AllocationProblem::new(casestudy::uav_rt_tasks(), catalog::table1_tasks(), 2);
    let allocation = HydraAllocator::default().allocate(&problem).unwrap();
    let tasks = simulation_tasks(&problem, &allocation);
    let config = SimConfig::new(Time::from_secs(30));
    let _ = simulate(&tasks, &config);
    let started = Instant::now();
    let mut jobs = 0usize;
    while started.elapsed() < Duration::from_millis(300) {
        jobs += simulate(std::hint::black_box(&tasks), &config).jobs().len();
    }
    let sim_jobs_per_sec = jobs as f64 / started.elapsed().as_secs_f64();

    // --- Detection-mode quick-gate sweep (gated).
    let spec = detection_gate_spec();
    let grid_size = ScenarioGrid::expand(&spec).len();
    let threads = 2usize;
    let obs = SweepObs::enabled();
    let run = || {
        SweepSession::new(std::hint::black_box(&spec).clone())
            .threads(threads)
            .observability(obs.clone())
            .run_buffered()
    };
    let _ = run();
    let mut evaluated = 0usize;
    let started = Instant::now();
    while started.elapsed() < Duration::from_millis(600) {
        evaluated += run().outcomes.len();
    }
    let detection_scenarios_per_sec = evaluated as f64 / started.elapsed().as_secs_f64();

    // --- Branch-and-bound Optimal on the Fig. 3-style grid (gated on
    // pruning). One warm pass collects the visited/pruned counts, then the
    // timing loop measures instances/sec.
    let instances = optimal_instances();
    let mut stats = SearchStats::default();
    let allocator = OptimalAllocator::default();
    for problem in &instances {
        if let Ok((_, s)) = allocator.allocate_with_stats(problem) {
            stats.visited += s.visited;
            stats.pruned += s.pruned;
            stats.total += s.total;
        }
    }
    let started = Instant::now();
    let mut optimal_runs = 0usize;
    while started.elapsed() < Duration::from_millis(300) {
        for problem in &instances {
            let _ = allocator.allocate_with_stats(std::hint::black_box(problem));
            optimal_runs += 1;
        }
    }
    let optimal_instances_per_sec = optimal_runs as f64 / started.elapsed().as_secs_f64();
    let prune_ratio = stats.prune_ratio();

    // --- Baselines.
    let baseline_path = format!("{workspace}/crates/bench/bench_baselines/sim_kernel.json");
    let baseline_text = std::fs::read_to_string(&baseline_path).unwrap_or_default();
    let baseline = json_number(&baseline_text, "detection_scenarios_per_sec");
    let pre_pr_detection = json_number(&baseline_text, "pre_pr_detection_scenarios_per_sec");
    let pre_pr_optimal = json_number(&baseline_text, "pre_pr_optimal_instances_per_sec");
    let min_prune_ratio = json_number(&baseline_text, "min_prune_ratio").unwrap_or(0.5);
    let floor = baseline.map(|b| b * 0.75);
    let ratio = baseline.map(|b| detection_scenarios_per_sec / b);
    let speedup_vs_pre_pr = pre_pr_detection.map(|b| detection_scenarios_per_sec / b);
    let optimal_speedup = pre_pr_optimal.map(|b| optimal_instances_per_sec / b);
    let throughput_pass = floor.is_none_or(|f| detection_scenarios_per_sec >= f);
    let prune_pass = prune_ratio >= min_prune_ratio;
    let pass = throughput_pass && prune_pass;

    let json = BenchRecord::new("sim_kernel")
        .num("sim_jobs_per_sec", sim_jobs_per_sec, 0)
        .int("detection_grid_size", grid_size as u128)
        .int("threads", threads as u128)
        .num(
            "detection_scenarios_per_sec",
            detection_scenarios_per_sec,
            1,
        )
        .opt("baseline_detection_scenarios_per_sec", baseline, 1)
        .opt("gate_floor_detection_scenarios_per_sec", floor, 1)
        .opt("detection_vs_baseline_ratio", ratio, 3)
        .opt("pre_pr_detection_scenarios_per_sec", pre_pr_detection, 1)
        .opt("detection_speedup_vs_pre_pr", speedup_vs_pre_pr, 2)
        .int("optimal_instances", instances.len() as u128)
        .num("optimal_instances_per_sec", optimal_instances_per_sec, 1)
        .int("optimal_visited", stats.visited)
        .int("optimal_pruned", stats.pruned)
        .int("optimal_total_assignments", stats.total)
        .num("optimal_prune_ratio", prune_ratio, 4)
        .num("min_prune_ratio", min_prune_ratio, 2)
        .opt("pre_pr_optimal_instances_per_sec", pre_pr_optimal, 1)
        .opt("optimal_speedup_vs_pre_pr", optimal_speedup, 2)
        .metrics(&obs.metrics_json())
        .finish(pass);
    let out_path =
        std::env::var("BENCH_SIM_JSON").unwrap_or_else(|_| format!("{workspace}/BENCH_sim.json"));
    std::fs::write(&out_path, &json).expect("write BENCH_sim.json");
    println!(
        "sim_kernel gate: {detection_scenarios_per_sec:.0} detection scenarios/s \
         ({} baseline ratio), {:.1} % of Optimal assignments pruned -> {out_path}",
        ratio.map_or_else(|| "no".to_owned(), |r| format!("{r:.2}x")),
        prune_ratio * 100.0,
    );

    if std::env::var("BENCH_GATE_SKIP").is_ok() {
        println!("sim_kernel gate: BENCH_GATE_SKIP set, not enforcing baselines");
        return;
    }
    if let (Some(baseline), Some(floor)) = (baseline, floor) {
        assert!(
            throughput_pass,
            "detection-sweep throughput regressed by more than 25 %: \
             {detection_scenarios_per_sec:.0} scenarios/s vs baseline {baseline:.0} \
             (floor {floor:.0}); see {out_path}"
        );
    } else {
        println!("sim_kernel gate: no baseline at {baseline_path}, throughput not enforced");
    }
    assert!(
        prune_pass,
        "branch-and-bound pruned only {:.1} % of the Fig. 3 assignment space \
         (floor {:.0} %); see {out_path}",
        prune_ratio * 100.0,
        min_prune_ratio * 100.0,
    );
}

criterion_group!(
    benches,
    // The gate runs first so its VmHWM peak-RSS record reflects the gate
    // workload, not the buffered outcomes of the groups below.
    bench_gate,
    bench_sim_throughput,
    bench_detection_sweep,
    bench_optimal_bnb
);
criterion_main!(benches);
