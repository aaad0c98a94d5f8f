//! Allocation problems, results and errors shared by all allocation schemes.

use core::fmt;

use rt_core::{TaskId, TaskSet, Time};
use rt_partition::{CoreId, Partition, PartitionConfig};

use crate::security::{SecurityTaskId, SecurityTaskSet};

/// The input to an allocation scheme: the real-time workload, the security
/// workload, the platform size and the policy used to partition the
/// real-time tasks when the scheme has to do so itself.
#[derive(Debug, Clone)]
pub struct AllocationProblem {
    /// Real-time tasks (already schedulable as a set; the scheme partitions
    /// them).
    pub rt_tasks: TaskSet,
    /// Security tasks to place.
    pub security_tasks: SecurityTaskSet,
    /// Number of identical cores `M`.
    pub cores: usize,
    /// How real-time tasks are partitioned (best-fit with exact RTA admission
    /// by default, as in the paper's experiments).
    pub partition_config: PartitionConfig,
}

impl AllocationProblem {
    /// Creates a problem with the paper's default partitioning policy.
    ///
    /// # Panics
    ///
    /// Panics if `cores` is zero.
    #[must_use]
    pub fn new(rt_tasks: TaskSet, security_tasks: SecurityTaskSet, cores: usize) -> Self {
        assert!(cores > 0, "a platform needs at least one core");
        AllocationProblem {
            rt_tasks,
            security_tasks,
            cores,
            partition_config: PartitionConfig::paper_default(),
        }
    }

    /// Overrides the real-time partitioning policy.
    #[must_use]
    pub fn with_partition_config(mut self, config: PartitionConfig) -> Self {
        self.partition_config = config;
        self
    }

    /// Total utilisation of the real-time tasks plus the security tasks at
    /// their desired periods — the "total utilisation" swept on the x-axis of
    /// Figures 2 and 3.
    #[must_use]
    pub fn total_utilization(&self) -> f64 {
        self.rt_tasks.total_utilization() + self.security_tasks.max_total_utilization()
    }
}

/// Where one security task ended up: its core, granted period and resulting
/// tightness.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SecurityPlacement {
    /// Core hosting the security task.
    pub core: CoreId,
    /// Granted period `T_s`.
    pub period: Time,
    /// Tightness `η_s = T_s^des / T_s`.
    pub tightness: f64,
}

/// The output of an allocation scheme: the real-time partition it used and
/// one [`SecurityPlacement`] per security task.
#[derive(Debug, Clone, PartialEq)]
pub struct Allocation {
    rt_partition: Partition,
    placements: Vec<SecurityPlacement>,
}

impl Allocation {
    /// Builds an allocation from its parts. `placements[i]` must correspond
    /// to `SecurityTaskId(i)`.
    #[must_use]
    pub fn new(rt_partition: Partition, placements: Vec<SecurityPlacement>) -> Self {
        Allocation {
            rt_partition,
            placements,
        }
    }

    /// The real-time partition used by the scheme.
    #[must_use]
    pub fn rt_partition(&self) -> &Partition {
        &self.rt_partition
    }

    /// Number of placed security tasks.
    #[must_use]
    pub fn len(&self) -> usize {
        self.placements.len()
    }

    /// Whether no security tasks were placed.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.placements.is_empty()
    }

    /// Placement of one security task.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of bounds.
    #[must_use]
    pub fn placement(&self, id: SecurityTaskId) -> &SecurityPlacement {
        &self.placements[id.0]
    }

    /// Iterates over `(SecurityTaskId, &SecurityPlacement)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (SecurityTaskId, &SecurityPlacement)> + '_ {
        self.placements
            .iter()
            .enumerate()
            .map(|(i, p)| (SecurityTaskId(i), p))
    }

    /// Ids of the security tasks placed on `core`.
    #[must_use]
    pub fn security_tasks_on(&self, core: CoreId) -> Vec<SecurityTaskId> {
        self.iter()
            .filter_map(|(id, p)| (p.core == core).then_some(id))
            .collect()
    }

    /// Cumulative weighted tightness `Σ ω_s · η_s` (the objective of Eq. 3).
    #[must_use]
    pub fn cumulative_tightness(&self, tasks: &SecurityTaskSet) -> f64 {
        self.iter()
            .map(|(id, p)| tasks[id].weight() * p.tightness)
            .sum()
    }

    /// Unweighted mean tightness across all placed security tasks
    /// (`0` for an empty allocation).
    #[must_use]
    pub fn mean_tightness(&self) -> f64 {
        if self.placements.is_empty() {
            0.0
        } else {
            self.placements.iter().map(|p| p.tightness).sum::<f64>() / self.placements.len() as f64
        }
    }

    /// Mean normalised period slack `(T^max − T)/T^max` over the placed
    /// security tasks — how far the granted periods stay, on average, from
    /// the point where monitoring becomes ineffective. `None` for an empty
    /// allocation.
    #[must_use]
    pub fn mean_period_slack(&self, tasks: &SecurityTaskSet) -> Option<f64> {
        if self.placements.is_empty() {
            return None;
        }
        let total: f64 = self
            .iter()
            .map(|(id, placement)| {
                let max = tasks[id].max_period().as_ticks() as f64;
                let granted = placement.period.as_ticks() as f64;
                (max - granted).max(0.0) / max
            })
            .sum();
        Some(total / self.placements.len() as f64)
    }

    /// Achieved-vs-desired monitoring frequency ratio
    /// `Σ 1/T_s / Σ 1/T_s^des ∈ (0, 1]` — `1` means every check runs at the
    /// rate the designer asked for. `None` for an empty allocation.
    #[must_use]
    pub fn frequency_ratio(&self, tasks: &SecurityTaskSet) -> Option<f64> {
        if self.placements.is_empty() {
            return None;
        }
        let (achieved, desired) = self.iter().fold((0.0, 0.0), |(a, d), (id, p)| {
            (
                a + 1.0 / p.period.as_ticks() as f64,
                d + 1.0 / tasks[id].desired_period().as_ticks() as f64,
            )
        });
        Some(achieved / desired)
    }

    /// The granted period of one security task.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of bounds.
    #[must_use]
    pub fn period_of(&self, id: SecurityTaskId) -> Time {
        self.placements[id.0].period
    }

    /// The hosting core of one security task.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of bounds.
    #[must_use]
    pub fn core_of(&self, id: SecurityTaskId) -> CoreId {
        self.placements[id.0].core
    }
}

impl fmt::Display for Allocation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (id, p) in self.iter() {
            writeln!(
                f,
                "{id} -> {} (T = {}, η = {:.3})",
                p.core, p.period, p.tightness
            )?;
        }
        Ok(())
    }
}

/// Errors produced by allocation schemes.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum AllocationError {
    /// The real-time tasks themselves could not be partitioned onto the
    /// available cores.
    RtPartitionFailed {
        /// The real-time task that could not be placed.
        task: TaskId,
        /// Number of cores that were available to the real-time workload.
        cores: usize,
    },
    /// A security task could not be placed on any core with a feasible
    /// period — the combined workload is unschedulable under this scheme
    /// (Algorithm 1, line 9).
    SecurityUnschedulable {
        /// The offending security task, when the scheme can identify one.
        task: Option<SecurityTaskId>,
    },
    /// The scheme requires more cores than the platform provides (e.g.
    /// SingleCore needs at least two: one dedicated to security, one for the
    /// real-time tasks).
    InsufficientCores {
        /// Cores available.
        available: usize,
        /// Cores required by the scheme.
        required: usize,
    },
    /// The exhaustive scheme was asked to enumerate more assignments than its
    /// safety limit allows.
    ProblemTooLarge {
        /// Number of assignments that enumeration would require.
        assignments: u128,
        /// The enumeration limit.
        limit: u128,
    },
    /// The precedence scheme's graph does not cover the problem's security
    /// tasks one to one.
    PrecedenceGraphMismatch {
        /// Number of tasks the precedence graph covers.
        graph_tasks: usize,
        /// Number of security tasks in the problem.
        security_tasks: usize,
    },
}

impl fmt::Display for AllocationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AllocationError::RtPartitionFailed { task, cores } => write!(
                f,
                "real-time task {task} cannot be partitioned onto {cores} core(s)"
            ),
            AllocationError::SecurityUnschedulable { task: Some(id) } => {
                write!(f, "security task {id} cannot be scheduled on any core")
            }
            AllocationError::SecurityUnschedulable { task: None } => {
                write!(f, "no feasible allocation exists for the security tasks")
            }
            AllocationError::InsufficientCores {
                available,
                required,
            } => write!(
                f,
                "scheme requires at least {required} cores but only {available} are available"
            ),
            AllocationError::ProblemTooLarge { assignments, limit } => write!(
                f,
                "exhaustive search over {assignments} assignments exceeds the limit of {limit}"
            ),
            AllocationError::PrecedenceGraphMismatch {
                graph_tasks,
                security_tasks,
            } => write!(
                f,
                "the precedence graph covers {graph_tasks} security task(s) but the problem \
                 has {security_tasks}"
            ),
        }
    }
}

impl std::error::Error for AllocationError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::security::SecurityTask;
    use rt_core::RtTask;

    fn sample_problem() -> AllocationProblem {
        let rt: TaskSet =
            vec![RtTask::implicit_deadline(Time::from_millis(10), Time::from_millis(100)).unwrap()]
                .into_iter()
                .collect();
        let sec: SecurityTaskSet = vec![SecurityTask::new(
            Time::from_millis(10),
            Time::from_millis(1000),
            Time::from_millis(10_000),
        )
        .unwrap()]
        .into_iter()
        .collect();
        AllocationProblem::new(rt, sec, 2)
    }

    #[test]
    fn problem_total_utilization_combines_both_workloads() {
        let p = sample_problem();
        assert!((p.total_utilization() - 0.11).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "at least one core")]
    fn zero_core_problem_panics() {
        let p = sample_problem();
        let _ = AllocationProblem::new(p.rt_tasks, p.security_tasks, 0);
    }

    #[test]
    fn allocation_accessors_and_metrics() {
        let partition = Partition::new(1, 2);
        let placements = vec![
            SecurityPlacement {
                core: CoreId(0),
                period: Time::from_millis(1000),
                tightness: 1.0,
            },
            SecurityPlacement {
                core: CoreId(1),
                period: Time::from_millis(2000),
                tightness: 0.5,
            },
        ];
        let alloc = Allocation::new(partition, placements);
        assert_eq!(alloc.len(), 2);
        assert!(!alloc.is_empty());
        assert_eq!(alloc.core_of(SecurityTaskId(1)), CoreId(1));
        assert_eq!(alloc.period_of(SecurityTaskId(0)), Time::from_millis(1000));
        assert_eq!(alloc.security_tasks_on(CoreId(0)), vec![SecurityTaskId(0)]);
        assert!((alloc.mean_tightness() - 0.75).abs() < 1e-12);

        let tasks: SecurityTaskSet = vec![
            SecurityTask::new(
                Time::from_millis(1),
                Time::from_millis(1000),
                Time::from_millis(10_000),
            )
            .unwrap()
            .with_weight(2.0)
            .unwrap(),
            SecurityTask::new(
                Time::from_millis(1),
                Time::from_millis(1000),
                Time::from_millis(10_000),
            )
            .unwrap(),
        ]
        .into_iter()
        .collect();
        assert!((alloc.cumulative_tightness(&tasks) - 2.5).abs() < 1e-12);
        assert!(alloc.to_string().contains("σ0"));

        // Period slack: task 0 at 1000/10000 leaves 0.9, task 1 at
        // 2000/10000 leaves 0.8 → mean 0.85. Frequency ratio:
        // (1/1000 + 1/2000) / (1/1000 + 1/1000) = 0.75.
        assert!((alloc.mean_period_slack(&tasks).unwrap() - 0.85).abs() < 1e-12);
        assert!((alloc.frequency_ratio(&tasks).unwrap() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn empty_allocation_has_no_period_metrics() {
        let alloc = Allocation::new(Partition::new(0, 2), Vec::new());
        let tasks = SecurityTaskSet::empty();
        assert_eq!(alloc.mean_period_slack(&tasks), None);
        assert_eq!(alloc.frequency_ratio(&tasks), None);
        assert_eq!(alloc.mean_tightness(), 0.0);
    }

    #[test]
    fn error_display_variants() {
        let errors = [
            AllocationError::RtPartitionFailed {
                task: TaskId(3),
                cores: 2,
            },
            AllocationError::SecurityUnschedulable {
                task: Some(SecurityTaskId(1)),
            },
            AllocationError::SecurityUnschedulable { task: None },
            AllocationError::InsufficientCores {
                available: 1,
                required: 2,
            },
            AllocationError::ProblemTooLarge {
                assignments: 1 << 40,
                limit: 1 << 24,
            },
        ];
        for e in errors {
            assert!(!e.to_string().is_empty());
        }
        let mismatch = AllocationError::PrecedenceGraphMismatch {
            graph_tasks: 3,
            security_tasks: 6,
        };
        assert_eq!(
            mismatch.to_string(),
            "the precedence graph covers 3 security task(s) but the problem has 6"
        );
    }
}
