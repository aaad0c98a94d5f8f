//! Period adaptation for a single security task (Eq. 7).
//!
//! For a given core assignment, the best period of a security task `τ_s` is
//! the solution of
//!
//! ```text
//! maximise η_s = T_s^des / T_s
//! subject to  T_s^des ≤ T_s ≤ T_s^max,    C_s + I_s^m(T_s) ≤ T_s
//! ```
//!
//! The paper solves this as a geometric program; because the interference
//! bound is affine in `T_s` (see [`crate::interference`]) the problem has the
//! closed-form solution
//!
//! ```text
//! T_s* = max(T_s^des, (C_s + constant) / (1 − slope))
//! ```
//!
//! feasible iff `slope < 1` and `T_s* ≤ T_s^max`. [`adapt_period`] implements
//! the closed form, and [`adapt_period_from`] the same with a floor above
//! `T_s^des`; the unit tests cross-check it against a bisection search of
//! the same constraint.

use rt_core::Time;

use crate::interference::InterferenceBound;
use crate::security::SecurityTask;

/// The outcome of period adaptation for one security task on one candidate
/// core: the granted period and the resulting tightness `η_s`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PeriodChoice {
    /// Granted period `T_s` (the smallest feasible period ≥ `T_s^des` and
    /// any floor the scheme sets).
    pub period: Time,
    /// Tightness `η_s = T_s^des / T_s ∈ (0, 1]`.
    pub tightness: f64,
}

impl PeriodChoice {
    /// Weighted contribution of this choice to the cumulative objective,
    /// `ω_s · η_s`.
    #[must_use]
    pub fn weighted_tightness(&self, task: &SecurityTask) -> f64 {
        task.weight() * self.tightness
    }
}

/// Minimises `x` subject to `lower ≤ x ≤ upper` and `a + b·x ≤ x` — the
/// shape of Eq. (7), with `a ≥ 0` the task's WCET plus the constant part of
/// its interference and `b ≥ 0` the interfering utilisation. Maximising the
/// tightness `lower / x` is the same as minimising `x`, so the optimum is
/// `max(lower, a / (1 − b))`, feasible iff `b < 1` and it is `≤ upper`.
///
/// Returns `None` when no value in `[lower, upper]` satisfies the constraint.
///
/// # Panics
///
/// Panics if `lower`, `upper`, `a` or `b` is negative or not finite, or if
/// `lower > upper` or `lower` is zero.
#[must_use]
pub(crate) fn minimize_linear_fractional(lower: f64, upper: f64, a: f64, b: f64) -> Option<f64> {
    assert!(
        lower.is_finite() && upper.is_finite() && a.is_finite() && b.is_finite(),
        "all parameters must be finite"
    );
    assert!(lower > 0.0, "lower bound must be positive, got {lower}");
    assert!(
        upper >= lower,
        "upper bound {upper} below lower bound {lower}"
    );
    assert!(a >= 0.0 && b >= 0.0, "a and b must be non-negative");

    if b >= 1.0 {
        // The constraint a + b·x ≤ x can never hold for positive a (and for
        // a = 0 only in the degenerate limit), so the problem is infeasible
        // unless a == 0 and b == 1 exactly, which we still reject: an
        // interfering load of 100% leaves no slack for the task itself.
        return None;
    }
    let x = (a / (1.0 - b)).max(lower);
    (x <= upper).then_some(x)
}

/// Solves Eq. (7) in closed form.
///
/// Returns `None` when no period in `[T^des, T^max]` satisfies the
/// schedulability constraint on the candidate core (the core is not a
/// feasible host for this task).
#[must_use]
pub fn adapt_period(task: &SecurityTask, interference: &InterferenceBound) -> Option<PeriodChoice> {
    adapt_period_from(task, task.desired_period(), interference)
}

/// Solves Eq. (7) with the period further bounded below by `lower`: the
/// smallest feasible period in `[max(T^des, lower), T^max]`. The precedence
/// scheme passes the largest period granted to a task's predecessors.
///
/// Returns `None` when `lower > T^max` or no period in that range satisfies
/// the schedulability constraint on the candidate core.
#[must_use]
pub fn adapt_period_from(
    task: &SecurityTask,
    lower: Time,
    interference: &InterferenceBound,
) -> Option<PeriodChoice> {
    let lower = lower.max(task.desired_period());
    if lower > task.max_period() {
        return None;
    }
    let lower = lower.as_ticks() as f64;
    let upper = task.max_period().as_ticks() as f64;
    let a = task.wcet().as_ticks() as f64 + interference.constant;
    let b = interference.slope;
    let solution = minimize_linear_fractional(lower, upper, a, b)?;
    // Round up to a whole tick: this keeps the schedulability constraint
    // satisfied (larger periods only relax it) and stays within T^max because
    // the bound itself is ≤ the integral T^max.
    let period = Time::from_ticks(solution.ceil() as u64);
    debug_assert!(period <= task.max_period());
    Some(PeriodChoice {
        period,
        tightness: task.tightness(period),
    })
}

/// Test-only oracle for Eq. (7): the smallest `x` in `[lower, upper]` with
/// `a + b·x ≤ x`, found by bisecting the constraint instead of using the
/// closed form. The result lies within about `1e-9 · upper` of the optimum.
#[cfg(test)]
pub(crate) fn bisect_linear_fractional(lower: f64, upper: f64, a: f64, b: f64) -> Option<f64> {
    let fits = |x: f64| a + b * x <= x;
    if !fits(upper) {
        return None;
    }
    if fits(lower) {
        return Some(lower);
    }
    // Invariant: `lo` violates the constraint, `hi` satisfies it.
    let (mut lo, mut hi) = (lower, upper);
    while hi - lo > 1e-9 * upper {
        let mid = 0.5 * (lo + hi);
        if fits(mid) {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    Some(hi)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rt_core::Time;

    fn sec(c_ms: u64, tdes_ms: u64, tmax_ms: u64) -> SecurityTask {
        SecurityTask::new(
            Time::from_millis(c_ms),
            Time::from_millis(tdes_ms),
            Time::from_millis(tmax_ms),
        )
        .unwrap()
    }

    fn bound(constant_ms: f64, slope: f64) -> InterferenceBound {
        InterferenceBound {
            constant: constant_ms * 1_000.0,
            slope,
        }
    }

    /// [`adapt_period`]'s instance solved by the bisection oracle, rounded
    /// up to a whole tick.
    fn bisected_period(task: &SecurityTask, b: &InterferenceBound) -> Option<Time> {
        let x = bisect_linear_fractional(
            task.desired_period().as_ticks() as f64,
            task.max_period().as_ticks() as f64,
            task.wcet().as_ticks() as f64 + b.constant,
            b.slope,
        )?;
        Some(Time::from_ticks(x.ceil() as u64))
    }

    #[test]
    fn unconstrained_by_interference_returns_lower_bound() {
        // No interference at all: the desired (lower) value is achievable.
        assert_eq!(
            minimize_linear_fractional(10.0, 100.0, 2.0, 0.0),
            Some(10.0)
        );
    }

    #[test]
    fn interference_pushes_value_up() {
        // a = 4, b = 0.5 → required 8; lower 5 → optimum 8.
        assert_eq!(minimize_linear_fractional(5.0, 100.0, 4.0, 0.5), Some(8.0));
    }

    #[test]
    fn infeasible_when_requirement_exceeds_upper() {
        assert_eq!(minimize_linear_fractional(5.0, 7.9, 4.0, 0.5), None);
    }

    #[test]
    fn infeasible_when_interfering_load_saturates() {
        assert_eq!(minimize_linear_fractional(1.0, 1e9, 0.5, 1.0), None);
        assert_eq!(minimize_linear_fractional(1.0, 1e9, 0.5, 1.5), None);
    }

    #[test]
    fn boundary_feasibility_at_upper() {
        assert_eq!(minimize_linear_fractional(5.0, 8.0, 4.0, 0.5), Some(8.0));
    }

    #[test]
    #[should_panic(expected = "lower bound must be positive")]
    fn zero_lower_bound_panics() {
        let _ = minimize_linear_fractional(0.0, 1.0, 0.0, 0.0);
    }

    #[test]
    #[should_panic(expected = "below lower bound")]
    fn inverted_bounds_panic() {
        let _ = minimize_linear_fractional(2.0, 1.0, 0.0, 0.0);
    }

    #[test]
    fn closed_form_matches_bisection_oracle() {
        let cases = [
            (10.0, 200.0, 3.0, 0.4),
            (50.0, 500.0, 20.0, 0.7),
            (5.0, 50.0, 0.5, 0.05),
            (100.0, 1000.0, 90.0, 0.2),
        ];
        for (lower, upper, a, b) in cases {
            let closed =
                minimize_linear_fractional(lower, upper, a, b).expect("cases are feasible");
            let bisected = bisect_linear_fractional(lower, upper, a, b).expect("same cases");
            assert!(
                (bisected - closed).abs() <= 2e-9 * upper,
                "bisection {bisected} vs closed form {closed} (case a={a}, b={b})"
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn closed_form_satisfies_all_constraints(
            lower in 1.0f64..100.0,
            span in 1.0f64..1000.0,
            a in 0.0f64..200.0,
            b in 0.0f64..1.5,
        ) {
            let upper = lower + span;
            match minimize_linear_fractional(lower, upper, a, b) {
                Some(x) => {
                    prop_assert!(x >= lower - 1e-9);
                    prop_assert!(x <= upper + 1e-9);
                    prop_assert!(a + b * x <= x + 1e-6);
                }
                None => {
                    // The most generous candidate is x = upper; it must
                    // violate the linear constraint (otherwise the problem
                    // was feasible).
                    prop_assert!(a + b * upper > upper - 1e-9);
                }
            }
        }

        #[test]
        fn closed_form_is_minimal(
            lower in 1.0f64..100.0,
            span in 1.0f64..1000.0,
            a in 0.0f64..200.0,
            b in 0.0f64..0.95,
        ) {
            let upper = lower + span;
            if let Some(x) = minimize_linear_fractional(lower, upper, a, b) {
                // Any strictly smaller value within the box violates the
                // linear constraint, unless x is already at the lower bound.
                if x > lower + 1e-9 {
                    let smaller = (x - 1e-6).max(lower);
                    prop_assert!(a + b * smaller > smaller - 1e-4);
                }
            }
        }
    }

    #[test]
    fn no_interference_grants_desired_period() {
        let task = sec(10, 1000, 10_000);
        let choice = adapt_period(&task, &InterferenceBound::zero()).unwrap();
        assert_eq!(choice.period, Time::from_millis(1000));
        assert_eq!(choice.tightness, 1.0);
        assert_eq!(choice.weighted_tightness(&task), 1.0);
    }

    #[test]
    fn interference_stretches_the_period() {
        // C = 100 ms, constant 200 ms, slope 0.4:
        // T* = (100 + 200) / 0.6 = 500 ms > T^des = 400 ms.
        let task = sec(100, 400, 4000);
        let choice = adapt_period(&task, &bound(200.0, 0.4)).unwrap();
        assert_eq!(choice.period, Time::from_millis(500));
        assert!((choice.tightness - 0.8).abs() < 1e-9);
    }

    #[test]
    fn desired_period_wins_when_interference_is_mild() {
        // T* requirement = (10 + 50)/(1 − 0.2) = 75 ms < T^des = 1000 ms.
        let task = sec(10, 1000, 10_000);
        let choice = adapt_period(&task, &bound(50.0, 0.2)).unwrap();
        assert_eq!(choice.period, Time::from_millis(1000));
        assert_eq!(choice.tightness, 1.0);
    }

    #[test]
    fn infeasible_when_required_period_exceeds_max() {
        // (100 + 800)/(1 − 0.5) = 1800 ms > T^max = 1500 ms.
        let task = sec(100, 500, 1500);
        assert_eq!(adapt_period(&task, &bound(800.0, 0.5)), None);
    }

    #[test]
    fn infeasible_when_interfering_load_saturates_core() {
        let task = sec(10, 1000, 10_000);
        assert_eq!(adapt_period(&task, &bound(0.0, 1.0)), None);
        assert_eq!(adapt_period(&task, &bound(0.0, 1.2)), None);
    }

    #[test]
    fn granted_period_always_satisfies_eq6() {
        let task = sec(37, 713, 9_241);
        let b = bound(123.4, 0.37);
        let choice = adapt_period(&task, &b).unwrap();
        let t = choice.period.as_ticks() as f64;
        let lhs = task.wcet().as_ticks() as f64 + b.at(t);
        assert!(lhs <= t + 1.0, "constraint violated: {lhs} > {t}");
    }

    #[test]
    fn bisection_oracle_agrees_with_closed_form() {
        let cases = [
            (sec(10, 1000, 10_000), bound(0.0, 0.0)),
            (sec(100, 400, 4000), bound(200.0, 0.4)),
            (sec(55, 1000, 10_000), bound(64.0, 0.62)),
            (sec(375, 5000, 50_000), bound(500.0, 0.3)),
        ];
        for (task, b) in cases {
            let closed = adapt_period(&task, &b).unwrap();
            let bisected = bisected_period(&task, &b).unwrap();
            // Rounding up may land one tick apart when the optimum sits
            // within the bisection tolerance of a whole tick.
            assert!(
                bisected.as_ticks().abs_diff(closed.period.as_ticks()) <= 1,
                "bisection {bisected} vs closed form {} for {task}",
                closed.period
            );
            assert!((task.tightness(bisected) - closed.tightness).abs() < 1e-5);
        }
    }

    #[test]
    fn bisection_oracle_detects_infeasibility() {
        let task = sec(100, 500, 1500);
        let b = bound(800.0, 0.5);
        assert_eq!(adapt_period(&task, &b), None);
        assert_eq!(bisected_period(&task, &b), None);
    }

    #[test]
    fn zero_slack_task_gets_exactly_its_pinned_period_or_nothing() {
        // T^des == T^max leaves no adaptation room: the closed form and the
        // bisection oracle both grant exactly that period when it is
        // feasible and report infeasibility otherwise.
        let pinned = sec(100, 2000, 2000);
        let ok = bound(300.0, 0.4);
        let choice = adapt_period(&pinned, &ok).unwrap();
        assert_eq!(choice.period, Time::from_millis(2000));
        assert_eq!(choice.tightness, 1.0);
        assert_eq!(bisected_period(&pinned, &ok), Some(choice.period));
        // (100 + 1500)/(1 − 0.5) = 3200 ms > 2000 ms: nothing fits.
        let too_much = bound(1500.0, 0.5);
        assert_eq!(adapt_period(&pinned, &too_much), None);
        assert_eq!(bisected_period(&pinned, &too_much), None);
    }

    #[test]
    fn a_floor_raises_the_period_or_leaves_no_core() {
        // Unconstrained the task gets its desired 1 s; with a 1.5 s floor it
        // gets the floor, and a floor beyond T^max = 2 s leaves nothing.
        let task = sec(100, 1000, 2000);
        let b = bound(0.0, 0.0);
        let floored = adapt_period_from(&task, Time::from_millis(1500), &b).unwrap();
        assert_eq!(floored.period, Time::from_millis(1500));
        assert!((floored.tightness - 1.0 / 1.5).abs() < 1e-12);
        assert_eq!(adapt_period_from(&task, Time::from_millis(2001), &b), None);
        // A floor below T^des or below the interference-driven optimum does
        // nothing: T* = (100 + 200)/(1 − 0.8) = 1500 ms.
        let busy = bound(200.0, 0.8);
        assert_eq!(
            adapt_period_from(&task, Time::from_millis(1200), &busy),
            adapt_period(&task, &busy)
        );
        assert_eq!(
            adapt_period_from(&task, Time::ZERO, &b),
            adapt_period(&task, &b)
        );
    }

    #[test]
    fn tightness_never_exceeds_one_nor_drops_below_floor() {
        let task = sec(200, 1000, 5000);
        for slope in [0.0, 0.3, 0.6, 0.79] {
            if let Some(choice) = adapt_period(&task, &bound(300.0, slope)) {
                assert!(choice.tightness <= 1.0 + 1e-12);
                assert!(choice.tightness >= task.min_tightness() - 1e-12);
            }
        }
    }
}
