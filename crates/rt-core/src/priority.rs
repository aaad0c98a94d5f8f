//! Fixed-priority assignment policies.
//!
//! The HYDRA paper assumes distinct, rate-monotonic priorities for real-time
//! tasks. This module provides the priority domain ([`Priority`]) and the
//! classic fixed-priority assignment policies (rate-monotonic and
//! deadline-monotonic) with deterministic tie breaking by task index so that
//! priorities are always distinct.

use crate::task::{TaskId, TaskSet};

/// A fixed priority level.
///
/// **Smaller numeric values denote higher priority** (level 0 is the highest
/// priority), matching the common convention in the real-time literature.
/// Use [`Priority::is_higher_than`] instead of `<`/`>` at call sites where the
/// direction matters for readability.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Priority(pub u32);

impl Priority {
    /// The highest possible priority.
    pub const HIGHEST: Priority = Priority(0);

    /// Whether `self` is a strictly higher priority than `other`.
    #[must_use]
    pub fn is_higher_than(self, other: Priority) -> bool {
        self.0 < other.0
    }

    /// The next lower priority level.
    #[must_use]
    pub fn lower(self) -> Priority {
        Priority(self.0 + 1)
    }
}

impl std::fmt::Display for Priority {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "P{}", self.0)
    }
}

/// Fixed-priority assignment policies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum PriorityPolicy {
    /// Rate monotonic: shorter period ⇒ higher priority (Liu & Layland).
    /// This is the policy assumed by the HYDRA paper for real-time tasks.
    #[default]
    RateMonotonic,
    /// Deadline monotonic: shorter relative deadline ⇒ higher priority.
    DeadlineMonotonic,
    /// Priorities follow the task index order (task 0 is the highest). Useful
    /// for tests and for workloads whose priority order is externally given.
    IndexOrder,
}

/// A priority assignment for a task set: a mapping from [`TaskId`] to
/// [`Priority`] in which all priorities are distinct.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PriorityAssignment {
    /// `priorities[i]` is the priority of `TaskId(i)`.
    priorities: Vec<Priority>,
}

impl PriorityAssignment {
    /// Assigns priorities to `tasks` according to `policy`.
    ///
    /// Ties (equal period / deadline) are broken by task index, so the
    /// resulting priorities are always distinct — matching the paper's
    /// assumption of distinct RM priorities.
    #[must_use]
    pub fn assign(tasks: &TaskSet, policy: PriorityPolicy) -> Self {
        let mut order: Vec<TaskId> = tasks.ids().collect();
        match policy {
            PriorityPolicy::RateMonotonic => {
                order.sort_by_key(|&id| (tasks[id].period(), id.0));
            }
            PriorityPolicy::DeadlineMonotonic => {
                order.sort_by_key(|&id| (tasks[id].deadline(), id.0));
            }
            PriorityPolicy::IndexOrder => {}
        }
        let mut priorities = vec![Priority(0); tasks.len()];
        for (level, id) in order.iter().enumerate() {
            priorities[id.0] = Priority(level as u32);
        }
        PriorityAssignment { priorities }
    }

    /// Number of tasks covered by this assignment.
    #[must_use]
    pub fn len(&self) -> usize {
        self.priorities.len()
    }

    /// Whether the assignment covers no tasks.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.priorities.is_empty()
    }

    /// Priority of a task.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of bounds.
    #[must_use]
    pub fn priority(&self, id: TaskId) -> Priority {
        self.priorities[id.0]
    }

    /// Task ids sorted from highest to lowest priority.
    #[must_use]
    pub fn ids_by_priority(&self) -> Vec<TaskId> {
        let mut ids: Vec<TaskId> = (0..self.priorities.len()).map(TaskId).collect();
        ids.sort_by_key(|&id| self.priorities[id.0]);
        ids
    }

    /// Ids of the tasks with a strictly higher priority than `id`.
    #[must_use]
    pub fn higher_priority_than(&self, id: TaskId) -> Vec<TaskId> {
        let p = self.priority(id);
        (0..self.priorities.len())
            .map(TaskId)
            .filter(|&other| other != id && self.priorities[other.0].is_higher_than(p))
            .collect()
    }

    /// Whether all priorities in the assignment are distinct.
    #[must_use]
    pub fn is_distinct(&self) -> bool {
        let mut seen = vec![false; self.priorities.len()];
        for p in &self.priorities {
            let Some(slot) = seen.get_mut(p.0 as usize) else {
                return false;
            };
            if *slot {
                return false;
            }
            *slot = true;
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::RtTask;
    use crate::time::Time;

    fn task(c_ms: u64, t_ms: u64) -> RtTask {
        RtTask::implicit_deadline(Time::from_millis(c_ms), Time::from_millis(t_ms)).unwrap()
    }

    fn sample_set() -> TaskSet {
        // Periods 50, 20, 100, 20 — note the tie between index 1 and 3.
        vec![task(5, 50), task(2, 20), task(10, 100), task(3, 20)]
            .into_iter()
            .collect()
    }

    #[test]
    fn priority_ordering_helpers() {
        assert!(Priority(0).is_higher_than(Priority(1)));
        assert_eq!(Priority::HIGHEST.lower(), Priority(1));
        assert_eq!(Priority(3).to_string(), "P3");
    }

    #[test]
    fn rate_monotonic_orders_by_period_with_index_tiebreak() {
        let set = sample_set();
        let pa = PriorityAssignment::assign(&set, PriorityPolicy::RateMonotonic);
        // Period-20 tasks first (index 1 then 3), then 50, then 100.
        assert_eq!(pa.priority(TaskId(1)), Priority(0));
        assert_eq!(pa.priority(TaskId(3)), Priority(1));
        assert_eq!(pa.priority(TaskId(0)), Priority(2));
        assert_eq!(pa.priority(TaskId(2)), Priority(3));
        assert!(pa.is_distinct());
    }

    #[test]
    fn deadline_monotonic_uses_deadlines() {
        let set: TaskSet = vec![
            RtTask::new(
                Time::from_millis(1),
                Time::from_millis(100),
                Time::from_millis(10),
            )
            .unwrap(),
            RtTask::new(
                Time::from_millis(1),
                Time::from_millis(50),
                Time::from_millis(50),
            )
            .unwrap(),
        ]
        .into_iter()
        .collect();
        let rm = PriorityAssignment::assign(&set, PriorityPolicy::RateMonotonic);
        let dm = PriorityAssignment::assign(&set, PriorityPolicy::DeadlineMonotonic);
        // RM ranks task 1 (period 50) above task 0 (period 100)...
        assert!(rm
            .priority(TaskId(1))
            .is_higher_than(rm.priority(TaskId(0))));
        // ...while DM ranks task 0 (deadline 10) above task 1 (deadline 50).
        assert!(dm
            .priority(TaskId(0))
            .is_higher_than(dm.priority(TaskId(1))));
    }

    #[test]
    fn index_order_is_identity() {
        let set = sample_set();
        let pa = PriorityAssignment::assign(&set, PriorityPolicy::IndexOrder);
        for (i, id) in set.ids().enumerate() {
            assert_eq!(pa.priority(id), Priority(i as u32));
        }
    }

    #[test]
    fn ids_by_priority_is_high_to_low() {
        let set = sample_set();
        let pa = PriorityAssignment::assign(&set, PriorityPolicy::RateMonotonic);
        let order = pa.ids_by_priority();
        assert_eq!(order, vec![TaskId(1), TaskId(3), TaskId(0), TaskId(2)]);
    }

    #[test]
    fn higher_priority_than_returns_strictly_higher() {
        let set = sample_set();
        let pa = PriorityAssignment::assign(&set, PriorityPolicy::RateMonotonic);
        let hp = pa.higher_priority_than(TaskId(0));
        assert_eq!(hp.len(), 2);
        assert!(hp.contains(&TaskId(1)));
        assert!(hp.contains(&TaskId(3)));
        assert!(pa.higher_priority_than(TaskId(1)).is_empty());
    }

    #[test]
    fn distinctness_detects_duplicates() {
        let pa = PriorityAssignment {
            priorities: vec![Priority(0), Priority(0)],
        };
        assert!(!pa.is_distinct());
        let pa = PriorityAssignment {
            priorities: vec![Priority(1), Priority(0)],
        };
        assert!(pa.is_distinct());
        assert_eq!(pa.len(), 2);
        assert!(!pa.is_empty());
    }
}
