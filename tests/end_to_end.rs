//! End-to-end integration tests: allocation decisions made by the analytical
//! side of the workspace must hold up when the resulting system is actually
//! executed by the discrete-event simulator.

use hydra_repro::hydra::allocator::{
    Allocator, HydraAllocator, OptimalAllocator, SingleCoreAllocator,
};
use hydra_repro::hydra::{casestudy, catalog, AllocationProblem};
use hydra_repro::partition::{Heuristic, PartitionConfig};
use hydra_repro::rt::Time;
use hydra_repro::sim::engine::{simulate, SimConfig};
use hydra_repro::sim::workload::{simulation_tasks, TaskKind};

fn case_study(cores: usize) -> AllocationProblem {
    AllocationProblem::new(casestudy::uav_rt_tasks(), catalog::table1_tasks(), cores)
        .with_partition_config(PartitionConfig::new(Heuristic::WorstFit))
}

#[test]
fn admitted_allocations_never_miss_deadlines_in_simulation() {
    for cores in [2usize, 4, 8] {
        for scheme in [
            &HydraAllocator::default() as &dyn Allocator,
            &SingleCoreAllocator::default(),
        ] {
            let problem = case_study(cores);
            let allocation = scheme
                .allocate(&problem)
                .unwrap_or_else(|e| panic!("{} failed on {cores} cores: {e}", scheme.name()));
            let tasks = simulation_tasks(&problem, &allocation);
            let trace = simulate(&tasks, &SimConfig::new(Time::from_secs(120)));
            assert!(
                trace.deadline_misses().is_empty(),
                "{} produced deadline misses on {cores} cores",
                scheme.name()
            );
        }
    }
}

#[test]
fn simulated_security_response_times_respect_granted_periods() {
    // Implicit deadlines: every security job must finish within its granted
    // period; the simulator confirms the period-adaptation maths.
    let problem = case_study(4);
    let allocation = HydraAllocator::default().allocate(&problem).unwrap();
    let tasks = simulation_tasks(&problem, &allocation);
    let trace = simulate(&tasks, &SimConfig::new(Time::from_secs(120)));
    for (idx, task) in tasks.iter().enumerate() {
        if let TaskKind::Security(sec_idx) = task.kind {
            let granted = allocation.period_of(hydra_repro::hydra::SecurityTaskId(sec_idx));
            if let Some(worst) = trace.worst_response_time(idx) {
                assert!(
                    worst <= granted,
                    "{} exceeded its granted period: {worst:?} > {granted:?}",
                    task.name
                );
            }
        }
    }
}

#[test]
fn hydra_cumulative_tightness_dominates_single_core_on_the_case_study() {
    for cores in [2usize, 4, 8] {
        let problem = case_study(cores);
        let sec = &problem.security_tasks;
        let hydra = HydraAllocator::default().allocate(&problem).unwrap();
        let single = SingleCoreAllocator::default().allocate(&problem).unwrap();
        assert!(
            hydra.cumulative_tightness(sec) + 1e-9 >= single.cumulative_tightness(sec),
            "HYDRA lost to SingleCore on {cores} cores"
        );
    }
}

#[test]
fn optimal_dominates_hydra_on_the_two_core_case_study() {
    let problem = case_study(2);
    let sec = &problem.security_tasks;
    let hydra = HydraAllocator::default().allocate(&problem).unwrap();
    let optimal = OptimalAllocator::default().allocate(&problem).unwrap();
    assert!(optimal.cumulative_tightness(sec) + 1e-9 >= hydra.cumulative_tightness(sec));
}

#[test]
fn single_core_scheme_keeps_the_dedicated_core_free_of_rt_work() {
    let problem = case_study(4);
    let allocation = SingleCoreAllocator::default().allocate(&problem).unwrap();
    let tasks = simulation_tasks(&problem, &allocation);
    let dedicated = SingleCoreAllocator::security_core(4).0;
    for task in &tasks {
        if task.core == dedicated {
            assert!(
                task.is_security(),
                "real-time task {} ended up on the dedicated security core",
                task.name
            );
        }
    }
}

#[test]
fn case_study_uses_every_core_under_hydra_with_load_balancing() {
    // The Figure 1 premise: on the multicore design point the real-time tasks
    // are spread across all cores and HYDRA spreads the security tasks too.
    let problem = case_study(4);
    let allocation = HydraAllocator::default().allocate(&problem).unwrap();
    let tasks = simulation_tasks(&problem, &allocation);
    for core in 0..4 {
        assert!(
            tasks.iter().any(|t| t.core == core),
            "core {core} hosts nothing at all"
        );
    }
    // Security tasks occupy more than one core (otherwise HYDRA degenerates
    // into the SingleCore design point).
    let mut security_cores: Vec<usize> = tasks
        .iter()
        .filter(|t| t.is_security())
        .map(|t| t.core)
        .collect();
    security_cores.sort_unstable();
    security_cores.dedup();
    assert!(security_cores.len() >= 2);
}
