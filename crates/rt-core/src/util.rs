//! Utilisation accounting helpers.
//!
//! These free functions complement the methods on [`RtTask`] /
//! [`TaskSet`](crate::TaskSet) with the aggregate quantities used throughout
//! the experiments: per-core utilisation of a partition slice and the Liu &
//! Layland rate-monotonic bound.

use crate::task::RtTask;

/// Total utilisation of an arbitrary iterator of tasks.
///
/// # Example
///
/// ```
/// use rt_core::{RtTask, Time};
/// use rt_core::util::total_utilization;
///
/// # fn main() -> Result<(), rt_core::RtError> {
/// let tasks = [
///     RtTask::implicit_deadline(Time::from_millis(1), Time::from_millis(4))?,
///     RtTask::implicit_deadline(Time::from_millis(1), Time::from_millis(2))?,
/// ];
/// assert!((total_utilization(tasks.iter()) - 0.75).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
pub fn total_utilization<'a, I>(tasks: I) -> f64
where
    I: IntoIterator<Item = &'a RtTask>,
{
    tasks.into_iter().map(RtTask::utilization).sum()
}

/// The Liu & Layland rate-monotonic utilisation bound `n (2^{1/n} − 1)`.
///
/// A set of `n` implicit-deadline tasks is schedulable under preemptive
/// rate-monotonic scheduling on one core if its utilisation does not exceed
/// this bound. The bound is sufficient but not necessary.
///
/// Returns `0.0` for `n = 0` and tends to `ln 2 ≈ 0.693` as `n → ∞`.
#[must_use]
pub fn liu_layland_bound(n: usize) -> f64 {
    if n == 0 {
        0.0
    } else {
        let n = n as f64;
        n * (2f64.powf(1.0 / n) - 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn liu_layland_known_values() {
        assert_eq!(liu_layland_bound(0), 0.0);
        assert!((liu_layland_bound(1) - 1.0).abs() < 1e-12);
        assert!((liu_layland_bound(2) - 0.8284271247).abs() < 1e-9);
        assert!((liu_layland_bound(3) - 0.7797631497).abs() < 1e-9);
        // Monotone decreasing towards ln 2.
        assert!(liu_layland_bound(100) > 2f64.ln());
        assert!(liu_layland_bound(100) < liu_layland_bound(10));
    }

    #[test]
    fn total_utilization_of_empty_is_zero() {
        assert_eq!(total_utilization(std::iter::empty()), 0.0);
    }
}
