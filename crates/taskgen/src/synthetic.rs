//! The paper's synthetic experiment setup (Section IV-B).
//!
//! For a platform with `M` cores the paper generates task sets with:
//!
//! * `[3M, 10M]` real-time tasks with periods uniform in `[10, 1000]` ms,
//! * `[2M, 5M]` security tasks with desired periods uniform in
//!   `[1000, 3000]` ms and `T^max = 10 · T^des`,
//! * individual utilisations drawn with Randfixedsum for a given total
//!   system utilisation (swept from `0.025 M` to `0.975 M`),
//! * security utilisation capped at 30 % of the real-time utilisation.
//!
//! [`generate_problem`] produces one such [`AllocationProblem`];
//! [`SyntheticConfig`] holds every knob so ablation experiments can deviate
//! from the defaults.

use hydra_core::{AllocationProblem, SecurityTask, SecurityTaskSet};
use rand::Rng;
use rt_core::{RtTask, TaskSet, Time};

use crate::periods::uniform_period_ms;
use crate::randfixedsum::randfixedsum;

/// Configuration of the synthetic workload generator.
#[derive(Debug, Clone, PartialEq)]
pub struct SyntheticConfig {
    /// Number of cores `M`.
    pub cores: usize,
    /// Range (inclusive) of the number of real-time tasks.
    pub rt_tasks: (usize, usize),
    /// Range (inclusive) of the number of security tasks.
    pub security_tasks: (usize, usize),
    /// Real-time period range in milliseconds.
    pub rt_period_ms: (u64, u64),
    /// Desired security period range in milliseconds.
    pub security_period_ms: (u64, u64),
    /// `T^max` as a multiple of `T^des`.
    pub max_period_factor: u64,
    /// Maximum security utilisation as a fraction of the real-time
    /// utilisation (`0.3` in the paper).
    pub security_share: f64,
    /// Smallest WCET ever generated (guards against zero after rounding).
    pub min_wcet: Time,
}

impl SyntheticConfig {
    /// The configuration of Section IV-B for a platform with `cores` cores.
    ///
    /// # Panics
    ///
    /// Panics if `cores` is zero.
    #[must_use]
    pub fn paper_default(cores: usize) -> Self {
        assert!(cores > 0, "a platform needs at least one core");
        SyntheticConfig {
            cores,
            rt_tasks: (3 * cores, 10 * cores),
            security_tasks: (2 * cores, 5 * cores),
            rt_period_ms: (10, 1_000),
            security_period_ms: (1_000, 3_000),
            max_period_factor: 10,
            security_share: 0.3,
            min_wcet: Time::from_micros(10),
        }
    }
}

fn split_utilization<R: Rng + ?Sized>(total: f64, share: f64, rng: &mut R) -> (f64, f64) {
    // Draw the security share of the *real-time* utilisation uniformly in
    // (0, share], then split the requested total so that
    // u_sec = frac · u_rt and u_rt + u_sec = total.
    let frac = if share <= 0.0 {
        0.0
    } else {
        rng.gen_range(0.05_f64..=share)
    };
    let u_rt = total / (1.0 + frac);
    let u_sec = total - u_rt;
    (u_rt, u_sec)
}

/// Generates one synthetic allocation problem with the given total system
/// utilisation (real-time plus security at desired periods).
///
/// # Panics
///
/// Panics if `total_utilization` is not positive or exceeds what the
/// generated task counts can express (each task's utilisation must fit in
/// `[0, 1]`, so the total must stay below the minimum task count — always the
/// case for the paper's parameter ranges where `U ≤ 0.975 M < 3M`).
#[must_use]
pub fn generate_problem<R: Rng + ?Sized>(
    config: &SyntheticConfig,
    total_utilization: f64,
    rng: &mut R,
) -> AllocationProblem {
    assert!(
        total_utilization > 0.0 && total_utilization.is_finite(),
        "total utilisation must be positive"
    );
    let n_rt = rng.gen_range(config.rt_tasks.0..=config.rt_tasks.1);
    let n_sec = rng.gen_range(config.security_tasks.0..=config.security_tasks.1);
    let (u_rt, u_sec) = split_utilization(total_utilization, config.security_share, rng);
    assert!(
        u_rt <= n_rt as f64 && u_sec <= n_sec as f64,
        "requested utilisation cannot be expressed by {n_rt}+{n_sec} tasks"
    );

    let rt_utils = randfixedsum(n_rt, u_rt, rng);
    let mut rt_tasks = TaskSet::empty();
    for u in rt_utils {
        let period = uniform_period_ms(config.rt_period_ms.0, config.rt_period_ms.1, rng);
        let wcet_ticks = (u * period.as_ticks() as f64).round() as u64;
        let wcet = Time::from_ticks(wcet_ticks)
            .max(config.min_wcet)
            .min(period);
        rt_tasks.push(
            RtTask::implicit_deadline(wcet, period).expect("generated RT parameters are valid"),
        );
    }

    let sec_utils = randfixedsum(n_sec, u_sec, rng);
    let mut security_tasks = SecurityTaskSet::empty();
    for u in sec_utils {
        let desired = uniform_period_ms(
            config.security_period_ms.0,
            config.security_period_ms.1,
            rng,
        );
        let max_period = desired * config.max_period_factor;
        let wcet_ticks = (u * desired.as_ticks() as f64).round() as u64;
        let wcet = Time::from_ticks(wcet_ticks)
            .max(config.min_wcet)
            .min(desired);
        security_tasks.push(
            SecurityTask::new(wcet, desired, max_period)
                .expect("generated security parameters are valid"),
        );
    }

    AllocationProblem::new(rt_tasks, security_tasks, config.cores)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn paper_default_matches_section_4b() {
        let cfg = SyntheticConfig::paper_default(4);
        assert_eq!(cfg.rt_tasks, (12, 40));
        assert_eq!(cfg.security_tasks, (8, 20));
        assert_eq!(cfg.rt_period_ms, (10, 1000));
        assert_eq!(cfg.security_period_ms, (1000, 3000));
        assert_eq!(cfg.max_period_factor, 10);
        assert!((cfg.security_share - 0.3).abs() < 1e-12);
    }

    #[test]
    fn generated_problems_respect_the_requested_utilization() {
        let mut rng = StdRng::seed_from_u64(7);
        for cores in [2usize, 4, 8] {
            let cfg = SyntheticConfig::paper_default(cores);
            for target in [0.2 * cores as f64, 0.5 * cores as f64, 0.95 * cores as f64] {
                let problem = generate_problem(&cfg, target, &mut rng);
                // WCET rounding moves the total by well under 1 %.
                assert!(
                    (problem.total_utilization() - target).abs() / target < 0.02,
                    "target {target}, got {}",
                    problem.total_utilization()
                );
                assert_eq!(problem.cores, cores);
            }
        }
    }

    #[test]
    fn task_counts_and_parameters_stay_in_the_configured_ranges() {
        let mut rng = StdRng::seed_from_u64(8);
        let cfg = SyntheticConfig::paper_default(2);
        for _ in 0..50 {
            let problem = generate_problem(&cfg, 1.0, &mut rng);
            assert!((6..=20).contains(&problem.rt_tasks.len()));
            assert!((4..=10).contains(&problem.security_tasks.len()));
            for t in problem.rt_tasks.tasks() {
                assert!(t.period() >= Time::from_millis(10));
                assert!(t.period() <= Time::from_millis(1000));
                assert!(t.wcet() <= t.period());
            }
            for s in problem.security_tasks.tasks() {
                assert!(s.desired_period() >= Time::from_millis(1000));
                assert!(s.desired_period() <= Time::from_millis(3000));
                assert_eq!(s.max_period(), s.desired_period() * 10);
                assert!(s.wcet() <= s.desired_period());
            }
        }
    }

    #[test]
    fn security_utilization_stays_below_the_share_of_rt() {
        let mut rng = StdRng::seed_from_u64(9);
        let cfg = SyntheticConfig::paper_default(4);
        for _ in 0..50 {
            let problem = generate_problem(&cfg, 3.0, &mut rng);
            let u_rt = problem.rt_tasks.total_utilization();
            let u_sec = problem.security_tasks.max_total_utilization();
            // A small tolerance covers WCET rounding.
            assert!(
                u_sec <= 0.3 * u_rt * 1.05 + 0.01,
                "security utilisation {u_sec} exceeds 30% of RT {u_rt}"
            );
        }
    }

    #[test]
    fn generation_is_reproducible_from_the_seed() {
        let cfg = SyntheticConfig::paper_default(2);
        let a = generate_problem(&cfg, 1.0, &mut StdRng::seed_from_u64(33));
        let b = generate_problem(&cfg, 1.0, &mut StdRng::seed_from_u64(33));
        assert_eq!(a.rt_tasks, b.rt_tasks);
        assert_eq!(a.security_tasks, b.security_tasks);
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn zero_utilization_panics() {
        let cfg = SyntheticConfig::paper_default(2);
        let _ = generate_problem(&cfg, 0.0, &mut StdRng::seed_from_u64(1));
    }
}
