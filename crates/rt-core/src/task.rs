//! Sporadic real-time task model.
//!
//! A real-time task `τ_r` is characterised by the tuple `(C_r, T_r, D_r)`
//! where `C_r` is the worst-case execution time (WCET), `T_r` the minimum
//! separation between successive invocations (the period of the sporadic
//! task) and `D_r` the relative deadline. The HYDRA paper assumes implicit
//! deadlines (`D_r = T_r`); this crate supports the more general constrained
//! deadline model (`D_r ≤ T_r`) because the analysis does not get harder and
//! it allows richer test workloads.

use core::fmt;

use crate::error::RtError;
use crate::time::Time;

/// Index of a task inside a [`TaskSet`].
///
/// Task ids are stable: they are the position of the task in the owning set
/// and never change once the set is built.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TaskId(pub usize);

impl fmt::Display for TaskId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "τ{}", self.0)
    }
}

/// A sporadic real-time task `(C, T, D)` with an optional human-readable name.
///
/// # Example
///
/// ```
/// use rt_core::{RtTask, Time};
///
/// # fn main() -> Result<(), rt_core::RtError> {
/// let controller = RtTask::new(
///     Time::from_millis(5),
///     Time::from_millis(40),
///     Time::from_millis(40),
/// )?
/// .with_name("controller");
/// assert_eq!(controller.utilization(), 0.125);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct RtTask {
    wcet: Time,
    period: Time,
    deadline: Time,
    name: Option<String>,
}

impl RtTask {
    /// Creates a task with explicit WCET, period and relative deadline.
    ///
    /// # Errors
    ///
    /// Returns an error if any parameter is zero, if `wcet > deadline`
    /// (the task could never meet its deadline), or if
    /// `deadline > period` (unconstrained deadlines are not supported).
    pub fn new(wcet: Time, period: Time, deadline: Time) -> Result<Self, RtError> {
        if wcet.is_zero() {
            return Err(RtError::ZeroWcet);
        }
        if period.is_zero() {
            return Err(RtError::ZeroPeriod);
        }
        if deadline.is_zero() {
            return Err(RtError::ZeroDeadline);
        }
        if wcet > deadline {
            return Err(RtError::WcetExceedsDeadline { wcet, deadline });
        }
        if deadline > period {
            return Err(RtError::DeadlineExceedsPeriod { deadline, period });
        }
        Ok(RtTask {
            wcet,
            period,
            deadline,
            name: None,
        })
    }

    /// Creates an implicit-deadline task (`D = T`), the model used by the
    /// HYDRA paper for every real-time task.
    ///
    /// # Errors
    ///
    /// Returns an error if `wcet` or `period` is zero or `wcet > period`.
    pub fn implicit_deadline(wcet: Time, period: Time) -> Result<Self, RtError> {
        RtTask::new(wcet, period, period)
    }

    /// Attaches a human-readable name (used by the case-study workloads and
    /// by trace output).
    #[must_use]
    pub fn with_name(mut self, name: impl Into<String>) -> Self {
        self.name = Some(name.into());
        self
    }

    /// Worst-case execution time `C`.
    #[must_use]
    pub fn wcet(&self) -> Time {
        self.wcet
    }

    /// Minimum inter-arrival time (period) `T`.
    #[must_use]
    pub fn period(&self) -> Time {
        self.period
    }

    /// Relative deadline `D`.
    #[must_use]
    pub fn deadline(&self) -> Time {
        self.deadline
    }

    /// Optional task name.
    #[must_use]
    pub fn name(&self) -> Option<&str> {
        self.name.as_deref()
    }

    /// Task utilisation `C / T`.
    #[must_use]
    pub fn utilization(&self) -> f64 {
        self.wcet.ratio(self.period)
    }
}

impl fmt::Display for RtTask {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.name {
            Some(name) => write!(
                f,
                "{name}(C={}, T={}, D={})",
                self.wcet, self.period, self.deadline
            ),
            None => write!(
                f,
                "task(C={}, T={}, D={})",
                self.wcet, self.period, self.deadline
            ),
        }
    }
}

/// An ordered collection of real-time tasks.
///
/// The order is significant: [`TaskId`]s are indices into this set, and the
/// priority-assignment policies in [`crate::priority`] produce permutations
/// of these indices.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TaskSet {
    tasks: Vec<RtTask>,
}

impl TaskSet {
    /// Creates a task set from a vector of tasks.
    #[must_use]
    pub fn new(tasks: Vec<RtTask>) -> Self {
        TaskSet { tasks }
    }

    /// Creates an empty task set.
    #[must_use]
    pub fn empty() -> Self {
        TaskSet { tasks: Vec::new() }
    }

    /// Number of tasks.
    #[must_use]
    pub fn len(&self) -> usize {
        self.tasks.len()
    }

    /// Whether the set is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.tasks.is_empty()
    }

    /// Appends a task, returning its id.
    pub fn push(&mut self, task: RtTask) -> TaskId {
        self.tasks.push(task);
        TaskId(self.tasks.len() - 1)
    }

    /// Returns the task with the given id, if it exists.
    #[must_use]
    pub fn get(&self, id: TaskId) -> Option<&RtTask> {
        self.tasks.get(id.0)
    }

    /// Iterates over `(TaskId, &RtTask)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (TaskId, &RtTask)> + '_ {
        self.tasks.iter().enumerate().map(|(i, t)| (TaskId(i), t))
    }

    /// Iterates over the tasks in id order.
    pub fn tasks(&self) -> impl Iterator<Item = &RtTask> + '_ {
        self.tasks.iter()
    }

    /// All task ids in the set.
    pub fn ids(&self) -> impl Iterator<Item = TaskId> + '_ {
        (0..self.tasks.len()).map(TaskId)
    }

    /// Total utilisation `Σ C_i / T_i`.
    #[must_use]
    pub fn total_utilization(&self) -> f64 {
        self.tasks.iter().map(RtTask::utilization).sum()
    }

    /// The largest period in the set, or `None` when empty.
    #[must_use]
    pub fn max_period(&self) -> Option<Time> {
        self.tasks.iter().map(RtTask::period).max()
    }

    /// Builds a sub-set containing the tasks with the given ids, in the given
    /// order. Ids that are out of bounds are silently skipped.
    #[must_use]
    pub fn subset(&self, ids: &[TaskId]) -> TaskSet {
        TaskSet {
            tasks: ids
                .iter()
                .filter_map(|id| self.tasks.get(id.0).cloned())
                .collect(),
        }
    }
}

impl FromIterator<RtTask> for TaskSet {
    fn from_iter<I: IntoIterator<Item = RtTask>>(iter: I) -> Self {
        TaskSet {
            tasks: iter.into_iter().collect(),
        }
    }
}

impl Extend<RtTask> for TaskSet {
    fn extend<I: IntoIterator<Item = RtTask>>(&mut self, iter: I) {
        self.tasks.extend(iter);
    }
}

impl IntoIterator for TaskSet {
    type Item = RtTask;
    type IntoIter = std::vec::IntoIter<RtTask>;
    fn into_iter(self) -> Self::IntoIter {
        self.tasks.into_iter()
    }
}

impl<'a> IntoIterator for &'a TaskSet {
    type Item = &'a RtTask;
    type IntoIter = std::slice::Iter<'a, RtTask>;
    fn into_iter(self) -> Self::IntoIter {
        self.tasks.iter()
    }
}

impl std::ops::Index<TaskId> for TaskSet {
    type Output = RtTask;
    fn index(&self, id: TaskId) -> &RtTask {
        &self.tasks[id.0]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn task(c_ms: u64, t_ms: u64) -> RtTask {
        RtTask::implicit_deadline(Time::from_millis(c_ms), Time::from_millis(t_ms)).unwrap()
    }

    #[test]
    fn implicit_deadline_sets_deadline_to_period() {
        let t = task(5, 20);
        assert_eq!(t.deadline(), t.period());
    }

    #[test]
    fn invalid_parameters_are_rejected() {
        assert_eq!(
            RtTask::new(Time::ZERO, Time::from_millis(10), Time::from_millis(10)),
            Err(RtError::ZeroWcet)
        );
        assert_eq!(
            RtTask::new(Time::from_millis(1), Time::ZERO, Time::from_millis(10)),
            Err(RtError::ZeroDeadline).or(Err(RtError::ZeroPeriod))
        );
        assert!(matches!(
            RtTask::new(
                Time::from_millis(10),
                Time::from_millis(10),
                Time::from_millis(5)
            ),
            Err(RtError::WcetExceedsDeadline { .. })
        ));
        assert!(matches!(
            RtTask::new(
                Time::from_millis(1),
                Time::from_millis(10),
                Time::from_millis(20)
            ),
            Err(RtError::DeadlineExceedsPeriod { .. })
        ));
    }

    #[test]
    fn utilization_uses_the_period_not_the_deadline() {
        let t = RtTask::new(
            Time::from_millis(2),
            Time::from_millis(10),
            Time::from_millis(5),
        )
        .unwrap();
        assert!((t.utilization() - 0.2).abs() < 1e-12);
    }

    #[test]
    fn names_round_trip() {
        let t = task(1, 10).with_name("guidance");
        assert_eq!(t.name(), Some("guidance"));
        assert!(t.to_string().contains("guidance"));
    }

    #[test]
    fn taskset_accessors() {
        let mut set = TaskSet::empty();
        assert!(set.is_empty());
        let a = set.push(task(1, 10));
        let b = set.push(task(2, 20));
        assert_eq!(set.len(), 2);
        assert_eq!(a, TaskId(0));
        assert_eq!(b, TaskId(1));
        assert_eq!(set[a].wcet(), Time::from_millis(1));
        assert_eq!(set.get(TaskId(5)), None);
        assert!((set.total_utilization() - 0.2).abs() < 1e-12);
        assert_eq!(set.max_period(), Some(Time::from_millis(20)));
    }

    #[test]
    fn taskset_from_iterator_and_extend() {
        let mut set: TaskSet = vec![task(1, 10)].into_iter().collect();
        set.extend(vec![task(2, 20), task(3, 30)]);
        assert_eq!(set.len(), 3);
        let ids: Vec<TaskId> = set.ids().collect();
        assert_eq!(ids, vec![TaskId(0), TaskId(1), TaskId(2)]);
    }

    #[test]
    fn subset_preserves_requested_order() {
        let set: TaskSet = vec![task(1, 10), task(2, 20), task(3, 30)]
            .into_iter()
            .collect();
        let sub = set.subset(&[TaskId(2), TaskId(0), TaskId(9)]);
        assert_eq!(sub.len(), 2);
        assert_eq!(sub[TaskId(0)].period(), Time::from_millis(30));
        assert_eq!(sub[TaskId(1)].period(), Time::from_millis(10));
    }

    #[test]
    fn display_for_task_id() {
        assert_eq!(TaskId(3).to_string(), "τ3");
    }
}
