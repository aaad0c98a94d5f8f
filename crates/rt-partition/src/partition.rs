//! Task-to-core assignments.

use core::fmt;

use rt_core::{RtTask, TaskId, TaskSet};

/// Identifier of a processor core (`π_m` in the paper), an index in
/// `0..M`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CoreId(pub usize);

impl fmt::Display for CoreId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "π{}", self.0)
    }
}

/// A partition of a real-time task set over `M` identical cores: the matrix
/// `I = [I_r^m]` of the paper, stored as a task → core map.
///
/// A partition may be *partial* (some tasks unassigned) while a packing
/// heuristic is running; a complete partition assigns every task of the
/// associated task set to exactly one core.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Partition {
    cores: usize,
    /// `assignment[i]` is the core of `TaskId(i)`, if assigned.
    assignment: Vec<Option<CoreId>>,
}

impl Partition {
    /// Creates an empty partition of `task_count` tasks over `cores` cores.
    ///
    /// # Panics
    ///
    /// Panics if `cores` is zero.
    #[must_use]
    pub fn new(task_count: usize, cores: usize) -> Self {
        assert!(cores > 0, "a partition needs at least one core");
        Partition {
            cores,
            assignment: vec![None; task_count],
        }
    }

    /// Builds a partition from an explicit assignment vector
    /// (`assignment[i]` = core of task `i`).
    ///
    /// # Panics
    ///
    /// Panics if `cores` is zero or any referenced core is out of range.
    #[must_use]
    pub fn from_assignment(assignment: Vec<Option<CoreId>>, cores: usize) -> Self {
        assert!(cores > 0, "a partition needs at least one core");
        for core in assignment.iter().flatten() {
            assert!(core.0 < cores, "core {core} out of range for {cores} cores");
        }
        Partition { cores, assignment }
    }

    /// Number of cores in the platform.
    #[must_use]
    pub fn cores(&self) -> usize {
        self.cores
    }

    /// Number of tasks covered (assigned or not).
    #[must_use]
    pub fn task_count(&self) -> usize {
        self.assignment.len()
    }

    /// All core ids of the platform.
    pub fn core_ids(&self) -> impl Iterator<Item = CoreId> {
        (0..self.cores).map(CoreId)
    }

    /// Assigns `task` to `core`, replacing any previous assignment.
    ///
    /// # Panics
    ///
    /// Panics if the task index or core index is out of range.
    pub fn assign(&mut self, task: TaskId, core: CoreId) {
        assert!(core.0 < self.cores, "core {core} out of range");
        assert!(task.0 < self.assignment.len(), "task {task} out of range");
        self.assignment[task.0] = Some(core);
    }

    /// The core of `task`, if assigned.
    #[must_use]
    pub fn core_of(&self, task: TaskId) -> Option<CoreId> {
        self.assignment.get(task.0).copied().flatten()
    }

    /// Whether every task is assigned to some core.
    #[must_use]
    pub fn is_complete(&self) -> bool {
        self.assignment.iter().all(Option::is_some)
    }

    /// Number of assigned tasks.
    #[must_use]
    pub fn assigned_count(&self) -> usize {
        self.assignment.iter().filter(|a| a.is_some()).count()
    }

    /// Ids of the tasks assigned to `core`, in task-id order.
    #[must_use]
    pub fn tasks_on(&self, core: CoreId) -> Vec<TaskId> {
        self.assignment
            .iter()
            .enumerate()
            .filter_map(|(i, a)| (*a == Some(core)).then_some(TaskId(i)))
            .collect()
    }

    /// The sub-task-set assigned to `core`, drawn from `tasks`.
    #[must_use]
    pub fn taskset_on(&self, tasks: &TaskSet, core: CoreId) -> TaskSet {
        tasks.subset(&self.tasks_on(core))
    }

    /// Utilisation of the tasks assigned to `core`.
    #[must_use]
    pub fn utilization_on(&self, tasks: &TaskSet, core: CoreId) -> f64 {
        self.tasks_on(core)
            .iter()
            .map(|&id| tasks[id].utilization())
            .sum()
    }

    /// Per-core utilisations, indexed by core id.
    #[must_use]
    pub fn utilizations(&self, tasks: &TaskSet) -> Vec<f64> {
        self.core_ids()
            .map(|c| self.utilization_on(tasks, c))
            .collect()
    }

    /// Iterates over the tasks of `tasks` assigned to `core`, yielding
    /// `(TaskId, &RtTask)` pairs.
    pub fn iter_core<'a>(
        &'a self,
        tasks: &'a TaskSet,
        core: CoreId,
    ) -> impl Iterator<Item = (TaskId, &'a RtTask)> + 'a {
        self.assignment
            .iter()
            .enumerate()
            .filter(move |(_, a)| **a == Some(core))
            .map(|(i, _)| (TaskId(i), &tasks[TaskId(i)]))
    }
}

impl fmt::Display for Partition {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for core in self.core_ids() {
            let ids: Vec<String> = self
                .tasks_on(core)
                .iter()
                .map(|id| id.to_string())
                .collect();
            writeln!(f, "{core}: [{}]", ids.join(", "))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rt_core::Time;

    fn task(c_ms: u64, t_ms: u64) -> RtTask {
        RtTask::implicit_deadline(Time::from_millis(c_ms), Time::from_millis(t_ms)).unwrap()
    }

    fn sample() -> TaskSet {
        vec![task(1, 10), task(2, 10), task(5, 20)]
            .into_iter()
            .collect()
    }

    #[test]
    fn new_partition_is_empty() {
        let p = Partition::new(3, 2);
        assert_eq!(p.cores(), 2);
        assert_eq!(p.task_count(), 3);
        assert!(!p.is_complete());
        assert_eq!(p.assigned_count(), 0);
        assert_eq!(p.core_of(TaskId(0)), None);
    }

    #[test]
    #[should_panic(expected = "at least one core")]
    fn zero_cores_rejected() {
        let _ = Partition::new(1, 0);
    }

    #[test]
    fn assign_places_and_replaces() {
        let mut p = Partition::new(3, 2);
        p.assign(TaskId(0), CoreId(1));
        p.assign(TaskId(2), CoreId(0));
        assert_eq!(p.core_of(TaskId(0)), Some(CoreId(1)));
        assert_eq!(p.core_of(TaskId(1)), None);
        assert_eq!(p.assigned_count(), 2);
        p.assign(TaskId(0), CoreId(0));
        assert_eq!(p.core_of(TaskId(0)), Some(CoreId(0)));
        assert_eq!(p.assigned_count(), 2);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn assign_to_invalid_core_panics() {
        let mut p = Partition::new(1, 1);
        p.assign(TaskId(0), CoreId(1));
    }

    #[test]
    fn per_core_views() {
        let tasks = sample();
        let mut p = Partition::new(tasks.len(), 2);
        p.assign(TaskId(0), CoreId(0));
        p.assign(TaskId(1), CoreId(1));
        p.assign(TaskId(2), CoreId(0));
        assert!(p.is_complete());
        assert_eq!(p.tasks_on(CoreId(0)), vec![TaskId(0), TaskId(2)]);
        let sub = p.taskset_on(&tasks, CoreId(0));
        assert_eq!(sub.len(), 2);
        assert!((p.utilization_on(&tasks, CoreId(0)) - 0.35).abs() < 1e-12);
        assert!((p.utilization_on(&tasks, CoreId(1)) - 0.2).abs() < 1e-12);
        let us = p.utilizations(&tasks);
        assert_eq!(us.len(), 2);
        assert_eq!(p.iter_core(&tasks, CoreId(0)).count(), 2);
    }

    #[test]
    fn from_assignment_validates_cores() {
        let p = Partition::from_assignment(vec![Some(CoreId(0)), None, Some(CoreId(1))], 2);
        assert_eq!(p.assigned_count(), 2);
        assert!(!p.is_complete());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn from_assignment_rejects_bad_core() {
        let _ = Partition::from_assignment(vec![Some(CoreId(3))], 2);
    }

    #[test]
    fn display_lists_cores() {
        let tasks = sample();
        let mut p = Partition::new(tasks.len(), 2);
        p.assign(TaskId(0), CoreId(0));
        let s = p.to_string();
        assert!(s.contains("π0"));
        assert!(s.contains("τ0"));
    }
}
