//! Hyperperiod (least common multiple of periods) computation.
//!
//! The discrete-event simulator and some analyses need the hyperperiod of a
//! task set. Synthetic workloads with co-prime microsecond periods can have
//! astronomically large hyperperiods, so the computation saturates at
//! [`Time::MAX`] instead of overflowing.

use crate::task::TaskSet;
use crate::time::Time;

/// Greatest common divisor of two tick counts.
#[must_use]
pub fn gcd(mut a: u64, mut b: u64) -> u64 {
    while b != 0 {
        let r = a % b;
        a = b;
        b = r;
    }
    a
}

/// Least common multiple of two tick counts, saturating at `u64::MAX`.
#[must_use]
pub fn lcm(a: u64, b: u64) -> u64 {
    if a == 0 || b == 0 {
        return 0;
    }
    let g = gcd(a, b);
    (a / g).saturating_mul(b)
}

/// Hyperperiod of a task set: the least common multiple of all periods,
/// saturating at [`Time::MAX`]. Returns [`Time::ZERO`] for an empty set.
///
/// # Example
///
/// ```
/// use rt_core::{RtTask, TaskSet, Time};
/// use rt_core::hyperperiod::hyperperiod;
///
/// # fn main() -> Result<(), rt_core::RtError> {
/// let set = TaskSet::new(vec![
///     RtTask::implicit_deadline(Time::from_millis(1), Time::from_millis(4))?,
///     RtTask::implicit_deadline(Time::from_millis(1), Time::from_millis(6))?,
/// ]);
/// assert_eq!(hyperperiod(&set), Time::from_millis(12));
/// # Ok(())
/// # }
/// ```
#[must_use]
pub fn hyperperiod(tasks: &TaskSet) -> Time {
    tasks
        .tasks()
        .map(|t| t.period().as_ticks())
        .fold(None, |acc: Option<u64>, p| match acc {
            None => Some(p),
            Some(l) => Some(lcm(l, p)),
        })
        .map(Time::from_ticks)
        .unwrap_or(Time::ZERO)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::RtTask;

    fn task(c_ms: u64, t_ms: u64) -> RtTask {
        RtTask::implicit_deadline(Time::from_millis(c_ms), Time::from_millis(t_ms)).unwrap()
    }

    #[test]
    fn gcd_and_lcm_basics() {
        assert_eq!(gcd(12, 18), 6);
        assert_eq!(gcd(7, 13), 1);
        assert_eq!(gcd(0, 5), 5);
        assert_eq!(lcm(4, 6), 12);
        assert_eq!(lcm(0, 6), 0);
        assert_eq!(lcm(u64::MAX, 2), u64::MAX);
    }

    #[test]
    fn hyperperiod_of_harmonic_set() {
        let set: TaskSet = vec![task(1, 10), task(1, 20), task(1, 40)]
            .into_iter()
            .collect();
        assert_eq!(hyperperiod(&set), Time::from_millis(40));
    }

    #[test]
    fn hyperperiod_of_coprime_periods() {
        let set: TaskSet = vec![task(1, 3), task(1, 5), task(1, 7)]
            .into_iter()
            .collect();
        assert_eq!(hyperperiod(&set), Time::from_millis(105));
    }

    #[test]
    fn hyperperiod_of_empty_set_is_zero() {
        assert_eq!(hyperperiod(&TaskSet::empty()), Time::ZERO);
    }
}
