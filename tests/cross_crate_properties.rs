//! Cross-crate property-based tests: synthetic workloads from `taskgen`,
//! allocated by `hydra-core`, executed by `rt-sim`, must satisfy the
//! system-level invariants the analytical crates promise.

use hydra_repro::gen::generate_problem_seeded;
use hydra_repro::gen::synthetic::{generate_problem, SyntheticConfig};
use hydra_repro::hydra::allocator::{
    Allocator, HydraAllocator, OptimalAllocator, SearchStats, SingleCoreAllocator,
};
use hydra_repro::rt::Time;
use hydra_repro::sim::attack::AttackScenario;
use hydra_repro::sim::detection::{detection_times, DetectionOutcome};
use hydra_repro::sim::engine::{simulate, SimConfig};
use hydra_repro::sim::workload::simulation_tasks;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn allocated_synthetic_workloads_execute_without_deadline_misses(
        seed in 0u64..10_000,
        cores in 2usize..=4,
        util_step in 1usize..=14,
    ) {
        // Utilisation from 0.05·M to 0.7·M — the regime where most workloads
        // are accepted and the simulated invariant is meaningful.
        let utilization = 0.05 * util_step as f64 * cores as f64;
        let config = SyntheticConfig::paper_default(cores);
        let mut rng = StdRng::seed_from_u64(seed);
        let problem = generate_problem(&config, utilization, &mut rng);

        for scheme in [
            &HydraAllocator::default() as &dyn Allocator,
            &SingleCoreAllocator::default(),
        ] {
            if let Ok(allocation) = scheme.allocate(&problem) {
                let tasks = simulation_tasks(&problem, &allocation);
                let trace = simulate(&tasks, &SimConfig::new(Time::from_secs(20)));
                prop_assert!(
                    trace.deadline_misses().is_empty(),
                    "{} admitted a workload that missed deadlines (seed {seed}, U {utilization:.2})",
                    scheme.name()
                );
            }
        }
    }

    #[test]
    fn detection_latency_is_bounded_by_two_granted_periods(
        seed in 0u64..10_000,
        cores in 2usize..=3,
    ) {
        // For any detected attack, the latency is at most the granted period
        // (wait for the next release) plus the response time of that job,
        // which is itself bounded by the granted period for a schedulable
        // task — so two periods overall.
        let config = SyntheticConfig::paper_default(cores);
        let mut rng = StdRng::seed_from_u64(seed);
        let problem = generate_problem(&config, 0.4 * cores as f64, &mut rng);
        let Ok(allocation) = HydraAllocator::default().allocate(&problem) else {
            return Ok(());
        };
        let tasks = simulation_tasks(&problem, &allocation);
        let horizon = Time::from_secs(90);
        let trace = simulate(&tasks, &SimConfig::new(horizon));
        let scenario = AttackScenario::new(horizon, Time::from_secs(60), seed);
        let targets: Vec<usize> = (0..problem.security_tasks.len()).collect();
        let attacks = scenario.generate(40, &targets);
        for (attack, outcome) in attacks.iter().zip(detection_times(&tasks, &trace, &attacks)) {
            if let DetectionOutcome::Detected(latency) = outcome {
                let granted =
                    allocation.period_of(hydra_repro::hydra::SecurityTaskId(attack.target));
                prop_assert!(
                    latency <= granted * 2,
                    "attack on σ{} detected after {latency:?}, more than twice the granted period {granted:?}",
                    attack.target
                );
            }
        }
    }

    #[test]
    fn granted_periods_in_simulation_match_the_allocation_exactly(
        seed in 0u64..10_000,
        cores in 2usize..=4,
    ) {
        // The bridge between the analytical and the simulated world must not
        // lose information: every security task in the simulated workload
        // runs on the core and with the period the allocator granted, and the
        // simulated release pattern matches that period.
        let config = SyntheticConfig::paper_default(cores);
        let mut rng = StdRng::seed_from_u64(seed);
        let problem = generate_problem(&config, 0.3 * cores as f64, &mut rng);
        let Ok(allocation) = HydraAllocator::default().allocate(&problem) else {
            return Ok(());
        };
        let tasks = simulation_tasks(&problem, &allocation);
        let horizon = Time::from_secs(15);
        let trace = simulate(&tasks, &SimConfig::new(horizon));
        for (idx, task) in tasks.iter().enumerate() {
            if let hydra_repro::sim::workload::TaskKind::Security(sec_idx) = task.kind {
                let id = hydra_repro::hydra::SecurityTaskId(sec_idx);
                prop_assert_eq!(task.period, allocation.period_of(id));
                prop_assert_eq!(task.core, allocation.core_of(id).0);
                let expected_jobs =
                    horizon.as_ticks().div_ceil(task.period.as_ticks());
                prop_assert_eq!(trace.jobs_of(idx).count() as u64, expected_jobs);
            }
        }
    }
}

#[test]
fn branch_and_bound_prunes_most_of_the_fig3_assignment_space() {
    // The Fig. 3-style grid: 2–6 security tasks at half load on 2 and 4
    // cores, 6 seeded trials each.
    let allocator = OptimalAllocator::default();
    let mut stats = SearchStats::default();
    for cores in [2usize, 4] {
        let mut config = SyntheticConfig::paper_default(cores);
        config.security_tasks = (2, 6);
        for trial in 0..6u64 {
            let util = 0.5 * cores as f64;
            let problem = generate_problem_seeded(&config, util, 2018, trial * 7 + cores as u64);
            if let Ok((_, s)) = allocator.allocate_with_stats(&problem) {
                stats.visited += s.visited;
                stats.pruned += s.pruned;
                stats.total += s.total;
            }
        }
    }
    assert!(stats.total > 0);
    assert!(stats.prune_ratio() >= 0.5, "{stats:?}");
}
