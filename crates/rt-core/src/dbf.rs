//! Demand-bound functions and the multiprocessor necessary condition.
//!
//! Eq. (1) of the HYDRA paper states the necessary schedulability condition
//! for a partitioned sporadic task system on `M` identical cores:
//!
//! ```text
//! Σ_τr DBF(τr, t) ≤ M · t      for all t > 0
//! ```
//!
//! with `DBF(τr, t) = max(0, (⌊(t − D_r)/T_r⌋ + 1) · C_r)`. The paper uses
//! this condition to discard trivially-unschedulable synthetic task sets
//! before running the allocators; we do the same in the Figure 2 experiment.

use crate::task::{RtTask, TaskSet};
use crate::time::Time;

/// Demand-bound function of a single sporadic task over an interval of length
/// `t`: the maximum cumulative execution demand of jobs that both arrive and
/// have their deadline within any window of length `t`.
///
/// # Example
///
/// ```
/// use rt_core::{RtTask, Time};
/// use rt_core::dbf::demand_bound;
///
/// # fn main() -> Result<(), rt_core::RtError> {
/// let task = RtTask::implicit_deadline(Time::from_millis(2), Time::from_millis(10))?;
/// assert_eq!(demand_bound(&task, Time::from_millis(9)), Time::ZERO);
/// assert_eq!(demand_bound(&task, Time::from_millis(10)), Time::from_millis(2));
/// assert_eq!(demand_bound(&task, Time::from_millis(25)), Time::from_millis(4));
/// # Ok(())
/// # }
/// ```
#[must_use]
pub fn demand_bound(task: &RtTask, t: Time) -> Time {
    if t < task.deadline() {
        return Time::ZERO;
    }
    // ⌊(t − D)/T⌋ + 1 jobs have both release and deadline inside the window.
    let jobs = (t - task.deadline()).div_floor(task.period()) + 1;
    task.wcet().saturating_mul(jobs)
}

/// Total demand of a task set over an interval of length `t`.
#[must_use]
pub fn total_demand(tasks: &TaskSet, t: Time) -> Time {
    tasks.tasks().fold(Time::ZERO, |acc, task| {
        acc.saturating_add(demand_bound(task, t))
    })
}

/// The check points at which [`necessary_condition_holds`] evaluates the
/// demand: every absolute deadline `k · T_i + D_i ≤ horizon`, capped at
/// `max_points` values (the smallest deadlines are kept when capping).
fn demand_check_points(tasks: &TaskSet, horizon: Time, max_points: usize) -> Vec<Time> {
    let mut points: Vec<Time> = Vec::new();
    for task in tasks.tasks() {
        let mut d = task.deadline();
        while d <= horizon {
            points.push(d);
            match d.checked_add(task.period()) {
                Some(next) => d = next,
                None => break,
            }
            if points.len() > max_points.saturating_mul(8) {
                break;
            }
        }
    }
    points.sort_unstable();
    points.dedup();
    if points.len() > max_points {
        points.truncate(max_points);
    }
    points
}

/// Checks the necessary condition of Eq. (1), `Σ DBF(τ, t) ≤ M·t`, at every
/// absolute deadline up to `horizon`.
///
/// A `false` result proves the task set unschedulable on `cores` cores under
/// *any* partitioning; a `true` result is only necessary, not sufficient.
///
/// The number of evaluated check points is capped (8192) so pathological
/// period ratios cannot blow up the filter; the cap is far above what the
/// paper's parameter ranges produce within two hyperperiods.
#[must_use]
pub fn necessary_condition_holds(tasks: &TaskSet, cores: usize, horizon: Time) -> bool {
    if tasks.is_empty() {
        return true;
    }
    if tasks.total_utilization() > cores as f64 + 1e-9 {
        return false;
    }
    const MAX_POINTS: usize = 8192;
    let m = cores as u64;
    for t in demand_check_points(tasks, horizon, MAX_POINTS) {
        let demand = total_demand(tasks, t);
        if demand > t.saturating_mul(m) {
            return false;
        }
    }
    true
}

/// Convenience wrapper for [`necessary_condition_holds`] using the customary
/// horizon of twice the largest period (sufficient to expose violations for
/// the implicit-deadline workloads used in the paper's experiments, where the
/// long-run rate check is `U ≤ M`).
#[must_use]
pub fn necessary_condition_default_horizon(tasks: &TaskSet, cores: usize) -> bool {
    let horizon = tasks.max_period().unwrap_or(Time::ZERO).saturating_mul(2);
    necessary_condition_holds(tasks, cores, horizon)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::Time;

    fn task(c_ms: u64, t_ms: u64) -> RtTask {
        RtTask::implicit_deadline(Time::from_millis(c_ms), Time::from_millis(t_ms)).unwrap()
    }

    #[test]
    fn dbf_is_zero_before_first_deadline() {
        let t = task(3, 10);
        assert_eq!(demand_bound(&t, Time::from_millis(0)), Time::ZERO);
        assert_eq!(demand_bound(&t, Time::from_millis(9)), Time::ZERO);
    }

    #[test]
    fn dbf_is_step_function_at_deadlines() {
        let t = task(3, 10);
        assert_eq!(
            demand_bound(&t, Time::from_millis(10)),
            Time::from_millis(3)
        );
        assert_eq!(
            demand_bound(&t, Time::from_millis(19)),
            Time::from_millis(3)
        );
        assert_eq!(
            demand_bound(&t, Time::from_millis(20)),
            Time::from_millis(6)
        );
        assert_eq!(
            demand_bound(&t, Time::from_millis(100)),
            Time::from_millis(30)
        );
    }

    #[test]
    fn dbf_with_constrained_deadline() {
        let t = RtTask::new(
            Time::from_millis(2),
            Time::from_millis(10),
            Time::from_millis(5),
        )
        .unwrap();
        assert_eq!(demand_bound(&t, Time::from_millis(4)), Time::ZERO);
        assert_eq!(demand_bound(&t, Time::from_millis(5)), Time::from_millis(2));
        assert_eq!(
            demand_bound(&t, Time::from_millis(15)),
            Time::from_millis(4)
        );
    }

    #[test]
    fn total_demand_sums_tasks() {
        let set: TaskSet = vec![task(2, 10), task(5, 20)].into_iter().collect();
        assert_eq!(
            total_demand(&set, Time::from_millis(20)),
            Time::from_millis(9)
        );
    }

    #[test]
    fn check_points_are_sorted_unique_and_capped() {
        let set: TaskSet = vec![task(1, 10), task(1, 15)].into_iter().collect();
        let pts = demand_check_points(&set, Time::from_millis(60), 100);
        assert!(pts.windows(2).all(|w| w[0] < w[1]));
        assert!(pts.contains(&Time::from_millis(10)));
        assert!(pts.contains(&Time::from_millis(15)));
        assert!(pts.contains(&Time::from_millis(60)));
        let capped = demand_check_points(&set, Time::from_millis(60), 3);
        assert_eq!(capped.len(), 3);
    }

    #[test]
    fn necessary_condition_accepts_feasible_sets() {
        // Two cores, total utilisation 1.2 — fine for M = 2.
        let set: TaskSet = vec![task(6, 10), task(6, 10)].into_iter().collect();
        assert!(necessary_condition_default_horizon(&set, 2));
    }

    #[test]
    fn necessary_condition_rejects_overloaded_sets() {
        // Total utilisation 2.4 on 2 cores is impossible.
        let set: TaskSet = vec![task(8, 10), task(8, 10), task(8, 10)]
            .into_iter()
            .collect();
        assert!(!necessary_condition_default_horizon(&set, 2));
        assert!(necessary_condition_default_horizon(&set, 3));
    }

    #[test]
    fn single_overlong_task_caught_by_demand_not_rate() {
        // A constrained-deadline task whose demand in [0, D] exceeds M·D even
        // though its long-run utilisation is low.
        let heavy = RtTask::new(
            Time::from_millis(30),
            Time::from_millis(1000),
            Time::from_millis(30),
        )
        .unwrap();
        let fillers: Vec<RtTask> = (0..4).map(|_| task(29, 30)).collect();
        let mut tasks = vec![heavy];
        tasks.extend(fillers);
        let set: TaskSet = tasks.into_iter().collect();
        // On one core the demand at t = 30ms is 30 + 4·29 = 146 > 30.
        assert!(!necessary_condition_holds(&set, 1, Time::from_millis(2000)));
    }

    #[test]
    fn empty_set_is_trivially_fine() {
        assert!(necessary_condition_default_horizon(&TaskSet::empty(), 1));
    }
}
