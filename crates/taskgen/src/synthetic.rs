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
//! [`generate_problem`] produces one such [`AllocationProblem`]. The
//! constants below fix the setup; [`SyntheticConfig`] holds what the
//! experiments vary: the core count and the two task-count ranges.

use std::fmt;

use hydra_core::{AllocationProblem, SecurityTask, SecurityTaskSet};
use rand::Rng;
use rt_core::{RtTask, TaskSet, Time};

use crate::periods::uniform_period_ms;
use crate::randfixedsum::randfixedsum;

/// Real-time period range in milliseconds.
pub const RT_PERIOD_MS: (u64, u64) = (10, 1_000);
/// Desired security period range in milliseconds.
pub const SECURITY_PERIOD_MS: (u64, u64) = (1_000, 3_000);
/// `T^max` as a multiple of `T^des`.
pub const MAX_PERIOD_FACTOR: u64 = 10;
/// Largest security utilisation as a fraction of the real-time
/// utilisation (the paper's 30 %).
pub const SECURITY_SHARE: f64 = 0.3;
/// Smallest security utilisation fraction a problem draws.
const MIN_SECURITY_FRACTION: f64 = 0.05;
/// Smallest WCET ever generated (guards against zero after rounding).
pub const MIN_WCET: Time = Time::from_micros(10);

/// Configuration of the synthetic workload generator.
#[derive(Debug, Clone, PartialEq)]
pub struct SyntheticConfig {
    /// Number of cores `M`.
    pub cores: usize,
    /// Range (inclusive) of the number of real-time tasks.
    pub rt_tasks: (usize, usize),
    /// Range (inclusive) of the number of security tasks.
    pub security_tasks: (usize, usize),
}

/// Why [`generate_problem`] cannot draw a problem from a configuration at
/// some total utilisation (see [`SyntheticConfig::check_draw`]). A range
/// variant carries the smallest low end the range may have: the fewest
/// tasks that can carry the largest utilisation of their kind a draw can
/// ask for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DrawError {
    /// The total utilisation is not positive and finite.
    Utilization,
    /// The real-time task-count range is empty or starts too low.
    RtTasks(usize),
    /// The security task-count range is empty or starts too low.
    SecurityTasks(usize),
}

impl fmt::Display for DrawError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (kind, needed) = match *self {
            DrawError::Utilization => {
                return f.write_str("total utilisation must be positive and finite")
            }
            DrawError::RtTasks(needed) => ("real-time", needed),
            DrawError::SecurityTasks(needed) => ("security", needed),
        };
        write!(
            f,
            "the {kind} task range must be non-empty and start at {needed} or more"
        )
    }
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
        }
    }

    /// Checks that [`generate_problem`] can draw a problem of total
    /// utilisation `total_utilization` from this configuration, whatever
    /// its RNG yields: the total is positive and finite, and each
    /// task-count range is non-empty and starts at a count that can carry
    /// the largest utilisation of its kind a draw can ask for.
    ///
    /// # Errors
    ///
    /// The first condition that does not hold.
    pub fn check_draw(&self, total_utilization: f64) -> Result<(), DrawError> {
        if !(total_utilization > 0.0 && total_utilization.is_finite()) {
            return Err(DrawError::Utilization);
        }
        // A split's real-time part shrinks and its security part grows with
        // the drawn fraction, so its bounds give the largest of each; and
        // `randfixedsum` draws one value or more, summing to at most `n`.
        let needed = |largest: f64| (largest.ceil() as usize).max(1);
        let fits = |(lo, hi): (usize, usize), needed| needed <= lo && lo <= hi;
        let rt = needed(split_at(total_utilization, MIN_SECURITY_FRACTION).0);
        let security = needed(split_at(total_utilization, SECURITY_SHARE).1);
        if !fits(self.rt_tasks, rt) {
            Err(DrawError::RtTasks(rt))
        } else if !fits(self.security_tasks, security) {
            Err(DrawError::SecurityTasks(security))
        } else {
            Ok(())
        }
    }
}

/// Splits `total` into real-time and security utilisation so that
/// `u_sec = frac · u_rt` and `u_rt + u_sec = total`.
fn split_at(total: f64, frac: f64) -> (f64, f64) {
    let u_rt = total / (1.0 + frac);
    (u_rt, total - u_rt)
}

/// Generates one synthetic allocation problem with the given total system
/// utilisation (real-time plus security at desired periods). The security
/// share of the real-time utilisation is drawn uniformly from
/// `[0.05, SECURITY_SHARE]`.
///
/// # Panics
///
/// Panics if [`SyntheticConfig::check_draw`] refuses `total_utilization`
/// (for the paper's ranges, every total up to `3 M` passes), or if
/// `config.cores` is zero.
#[must_use]
pub fn generate_problem<R: Rng + ?Sized>(
    config: &SyntheticConfig,
    total_utilization: f64,
    rng: &mut R,
) -> AllocationProblem {
    let drawable = config.check_draw(total_utilization);
    assert!(
        drawable.is_ok(),
        "cannot draw utilisation {total_utilization} from {config:?}: {}",
        drawable.map_or_else(|error| error.to_string(), |()| String::new())
    );
    let n_rt = rng.gen_range(config.rt_tasks.0..=config.rt_tasks.1);
    let n_sec = rng.gen_range(config.security_tasks.0..=config.security_tasks.1);
    let frac = rng.gen_range(MIN_SECURITY_FRACTION..=SECURITY_SHARE);
    let (u_rt, u_sec) = split_at(total_utilization, frac);

    let rt_utils = randfixedsum(n_rt, u_rt, rng);
    let mut rt_tasks = TaskSet::empty();
    for u in rt_utils {
        let period = uniform_period_ms(RT_PERIOD_MS.0, RT_PERIOD_MS.1, rng);
        let wcet_ticks = (u * period.as_ticks() as f64).round() as u64;
        let wcet = Time::from_ticks(wcet_ticks).max(MIN_WCET).min(period);
        rt_tasks.push(
            RtTask::implicit_deadline(wcet, period).expect("generated RT parameters are valid"),
        );
    }

    let sec_utils = randfixedsum(n_sec, u_sec, rng);
    let mut security_tasks = SecurityTaskSet::empty();
    for u in sec_utils {
        let desired = uniform_period_ms(SECURITY_PERIOD_MS.0, SECURITY_PERIOD_MS.1, rng);
        let max_period = desired * MAX_PERIOD_FACTOR;
        let wcet_ticks = (u * desired.as_ticks() as f64).round() as u64;
        let wcet = Time::from_ticks(wcet_ticks).max(MIN_WCET).min(desired);
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
        assert_eq!(RT_PERIOD_MS, (10, 1000));
        assert_eq!(SECURITY_PERIOD_MS, (1000, 3000));
        assert_eq!(MAX_PERIOD_FACTOR, 10);
        assert!((SECURITY_SHARE - 0.3).abs() < 1e-12);
    }

    /// An RNG whose every word is `word`: `u64::MAX` makes the split's
    /// inclusive float draw return its upper end, `0` its lower end.
    struct ConstRng(u64);

    impl rand::RngCore for ConstRng {
        fn next_u64(&mut self) -> u64 {
            self.0
        }
    }

    #[test]
    fn the_split_fraction_stays_within_the_bounds_check_draw_assumes() {
        for (word, bound) in [(0, MIN_SECURITY_FRACTION), (u64::MAX, SECURITY_SHARE)] {
            let frac = ConstRng(word).gen_range(MIN_SECURITY_FRACTION..=SECURITY_SHARE);
            assert_eq!(frac.to_bits(), bound.to_bits());
        }
    }

    #[test]
    fn check_draw_names_the_range_that_cannot_hold_its_share() {
        let mut cfg = SyntheticConfig::paper_default(8);
        assert_eq!(cfg.check_draw(0.975 * 8.0), Ok(()));
        // 8 cores at 0.6 each: up to 4.8 - 4.8 / 1.3 ≈ 1.108 is security
        // utilisation, more than one task can carry.
        cfg.security_tasks = (1, 1);
        assert_eq!(cfg.check_draw(4.8), Err(DrawError::SecurityTasks(2)));
        assert_eq!(cfg.check_draw(4.0), Ok(()));
        cfg.security_tasks = (5, 2);
        assert_eq!(cfg.check_draw(4.0), Err(DrawError::SecurityTasks(1)));
        cfg.security_tasks = (2, 5);
        cfg.rt_tasks = (0, 0);
        assert_eq!(cfg.check_draw(0.5), Err(DrawError::RtTasks(1)));
        cfg.rt_tasks = (3, 30);
        assert_eq!(cfg.check_draw(4.0), Err(DrawError::RtTasks(4)));
        for total in [0.0, -0.5, f64::NAN, f64::INFINITY] {
            assert_eq!(cfg.check_draw(total), Err(DrawError::Utilization));
        }
    }

    proptest::proptest! {
        #[test]
        fn generation_never_panics_where_check_draw_passes(
            rt in (0usize..12, 0usize..24),
            sec in (0usize..8, 0usize..16),
            total in 0.0f64..12.0,
            cores in 1usize..8,
        ) {
            let cfg = SyntheticConfig { cores, rt_tasks: rt, security_tasks: sec };
            if cfg.check_draw(total).is_ok() {
                for seed in 0..64 {
                    let problem = generate_problem(&cfg, total, &mut StdRng::seed_from_u64(seed));
                    proptest::prop_assert!((rt.0..=rt.1).contains(&problem.rt_tasks.len()));
                    proptest::prop_assert!((sec.0..=sec.1).contains(&problem.security_tasks.len()));
                }
            }
        }
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
