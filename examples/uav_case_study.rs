//! The Figure 1 scenario end-to-end: allocate the UAV control system plus the
//! Tripwire/Bro security tasks with HYDRA and with the SingleCore baseline,
//! simulate both schedules, inject synthetic attacks and compare detection
//! latencies.
//!
//! Run with `cargo run --release --example uav_case_study`.

use hydra_repro::hydra::allocator::{Allocator, HydraAllocator, SingleCoreAllocator};
use hydra_repro::hydra::{casestudy, catalog, AllocationProblem};
use hydra_repro::partition::{Heuristic, PartitionConfig};
use hydra_repro::rt::Time;
use hydra_repro::sim::attack::AttackScenario;
use hydra_repro::sim::cdf::EmpiricalCdf;
use hydra_repro::sim::detection::detection_latencies_ms;
use hydra_repro::sim::engine::{simulate, SimConfig};
use hydra_repro::sim::workload::simulation_tasks;

const CORES: usize = 4;
const HORIZON_SECS: u64 = 120;
const ATTACKS: usize = 200;

fn evaluate(scheme: &dyn Allocator) -> Result<EmpiricalCdf, Box<dyn std::error::Error>> {
    // Real-time tasks are spread over all cores (worst-fit), as the paper
    // assumes for the multicore design point.
    let problem = AllocationProblem::new(casestudy::uav_rt_tasks(), catalog::table1_tasks(), CORES)
        .with_partition_config(PartitionConfig::new(Heuristic::WorstFit));
    let allocation = scheme.allocate(&problem)?;

    println!("== {} ==", scheme.name());
    for (id, placement) in allocation.iter() {
        let task = &problem.security_tasks[id];
        println!(
            "  {:<24} core {}  T = {:>7}  η = {:.2}",
            task.name().unwrap_or("security"),
            placement.core.0,
            placement.period.to_string(),
            placement.tightness
        );
    }

    let tasks = simulation_tasks(&problem, &allocation);
    let horizon = Time::from_secs(HORIZON_SECS);
    let trace = simulate(&tasks, &SimConfig::new(horizon));
    assert!(
        trace.deadline_misses().is_empty(),
        "an admitted allocation must not miss deadlines in simulation"
    );

    let scenario = AttackScenario::new(horizon, Time::from_secs(30), 2018);
    let targets: Vec<usize> = (0..problem.security_tasks.len()).collect();
    let attacks = scenario.generate(ATTACKS, &targets);
    let latencies = detection_latencies_ms(&tasks, &trace, &attacks);
    Ok(EmpiricalCdf::new(latencies))
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let hydra = evaluate(&HydraAllocator::default())?;
    let single = evaluate(&SingleCoreAllocator::default())?;

    println!();
    println!("detection latency (ms)        HYDRA     SingleCore");
    for (label, q) in [("median", 0.5), ("p90", 0.9), ("p99", 0.99)] {
        println!(
            "  {label:<26} {:>9.1} {:>12.1}",
            hydra.quantile(q).unwrap_or(f64::NAN),
            single.quantile(q).unwrap_or(f64::NAN)
        );
    }
    let (hm, sm) = (hydra.mean().unwrap_or(0.0), single.mean().unwrap_or(0.0));
    println!("  {:<26} {hm:>9.1} {sm:>12.1}", "mean");
    if sm > 0.0 {
        println!(
            "\nHYDRA detects intrusions {:.1}% faster on average ({CORES} cores)",
            (sm - hm) / sm * 100.0
        );
    }
    Ok(())
}
