//! Precedence constraints between security tasks (Section V extension).
//!
//! The paper's discussion section notes that real deployments may need the
//! security tasks to follow precedence constraints — e.g. Tripwire should
//! verify *its own* binary before it is trusted to verify the system binaries.
//! This module provides the extension:
//!
//! * [`PrecedenceGraph`] — a DAG over the security tasks of a set, with cycle
//!   detection and topological ordering,
//! * [`PrecedenceHydraAllocator`] — a HYDRA variant that walks the tasks in
//!   an order consistent with both the priority order and the DAG, and
//!   additionally guarantees that **no successor monitors less frequently
//!   than its predecessor is able to support**: the granted period of a
//!   successor is never smaller than the granted period of any of its
//!   predecessors (the predecessor check must have had a chance to run at
//!   least as recently as the dependent check).
//!
//! The allocator runs HYDRA's placement loop with three of its parameters
//! changed: the order is [`PrecedenceGraph::allocation_order`], the floor on
//! each task's period is the largest period granted to its predecessors,
//! and an admission rule re-checks a core when the new task outranks a task
//! already placed there.
//!
//! The re-check is needed because a core schedules its security tasks by
//! `(T^max, id)` whatever order they were placed in. A predecessor with a
//! lower priority than its successor is granted its period before the
//! successor lands on its core, so the successor's interference was not
//! part of that grant. When the new task outranks a task already on the
//! candidate core, the core is admitted only if [`plan_is_feasible`] holds
//! for all its security tasks, sorted by `(T^max, id)`, with the new task
//! at its candidate period. Otherwise the new task ranks below every task on
//! the core, its period already counts all of them, and the rule admits
//! without computing anything.
//!
//! With no edge the order is the priority order, the floor is zero and no
//! task ever outranks one already placed, so the result is HYDRA's.

use std::collections::VecDeque;

use rt_core::Time;
use rt_partition::Partition;

use crate::allocation::{Allocation, AllocationError, AllocationProblem};
use crate::allocator::{place, Allocator, Candidate};
use crate::joint::plan_is_feasible;
use crate::security::{SecurityTask, SecurityTaskId, SecurityTaskSet};

/// Errors specific to precedence handling.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum PrecedenceError {
    /// An edge references a task outside the security task set.
    UnknownTask(SecurityTaskId),
    /// The graph contains a cycle, so no valid execution order exists.
    Cyclic,
    /// A self-edge was added.
    SelfDependency(SecurityTaskId),
    /// The graph covers a different number of tasks than the security task
    /// set it is applied to.
    SizeMismatch {
        /// Number of tasks the graph covers.
        graph_tasks: usize,
        /// Number of tasks in the security task set.
        security_tasks: usize,
    },
}

impl std::fmt::Display for PrecedenceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PrecedenceError::UnknownTask(id) => {
                write!(f, "precedence edge references unknown security task {id}")
            }
            PrecedenceError::Cyclic => write!(f, "precedence constraints form a cycle"),
            PrecedenceError::SelfDependency(id) => {
                write!(f, "security task {id} cannot depend on itself")
            }
            PrecedenceError::SizeMismatch {
                graph_tasks,
                security_tasks,
            } => write!(
                f,
                "the precedence graph covers {graph_tasks} security task(s) but the task set \
                 has {security_tasks}"
            ),
        }
    }
}

impl std::error::Error for PrecedenceError {}

/// A directed acyclic graph of "must be checked before" relations between
/// security tasks: an edge `a → b` means `a` (e.g. Tripwire's self-check)
/// must precede `b` (e.g. the system-binary check).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct PrecedenceGraph {
    /// `edges[i]` holds the successors of `SecurityTaskId(i)`.
    edges: Vec<Vec<usize>>,
}

impl PrecedenceGraph {
    /// Creates an empty graph over `task_count` security tasks.
    #[must_use]
    pub fn new(task_count: usize) -> Self {
        PrecedenceGraph {
            edges: vec![Vec::new(); task_count],
        }
    }

    /// Number of tasks covered by this graph.
    #[must_use]
    pub fn len(&self) -> usize {
        self.edges.len()
    }

    /// Whether the graph covers no tasks.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }

    /// Adds the constraint "`before` must be checked before `after`".
    ///
    /// # Errors
    ///
    /// Returns an error for self-dependencies, unknown tasks, or an edge that
    /// would close a cycle.
    pub fn add_dependency(
        &mut self,
        before: SecurityTaskId,
        after: SecurityTaskId,
    ) -> Result<(), PrecedenceError> {
        if before == after {
            return Err(PrecedenceError::SelfDependency(before));
        }
        if before.0 >= self.edges.len() {
            return Err(PrecedenceError::UnknownTask(before));
        }
        if after.0 >= self.edges.len() {
            return Err(PrecedenceError::UnknownTask(after));
        }
        if !self.edges[before.0].contains(&after.0) {
            self.edges[before.0].push(after.0);
        }
        if self.topological_order().is_err() {
            // Roll back the offending edge.
            self.edges[before.0].retain(|&s| s != after.0);
            return Err(PrecedenceError::Cyclic);
        }
        Ok(())
    }

    /// Direct predecessors of a task.
    #[must_use]
    pub fn predecessors(&self, task: SecurityTaskId) -> Vec<SecurityTaskId> {
        self.edges
            .iter()
            .enumerate()
            .filter_map(|(from, succs)| succs.contains(&task.0).then_some(SecurityTaskId(from)))
            .collect()
    }

    /// A topological order of all tasks (Kahn's algorithm).
    ///
    /// # Errors
    ///
    /// Returns [`PrecedenceError::Cyclic`] if the graph contains a cycle.
    pub fn topological_order(&self) -> Result<Vec<SecurityTaskId>, PrecedenceError> {
        let n = self.edges.len();
        let mut in_degree = vec![0usize; n];
        for succs in &self.edges {
            for &s in succs {
                in_degree[s] += 1;
            }
        }
        let mut queue: VecDeque<usize> = (0..n).filter(|&i| in_degree[i] == 0).collect();
        let mut order = Vec::with_capacity(n);
        while let Some(node) = queue.pop_front() {
            order.push(SecurityTaskId(node));
            for &s in &self.edges[node] {
                in_degree[s] -= 1;
                if in_degree[s] == 0 {
                    queue.push_back(s);
                }
            }
        }
        if order.len() == n {
            Ok(order)
        } else {
            Err(PrecedenceError::Cyclic)
        }
    }

    /// An allocation-processing order that respects both the DAG and, among
    /// unconstrained tasks, the priority order of `tasks` (smaller `T^max`
    /// first). This is the order the precedence-aware allocator walks.
    ///
    /// # Errors
    ///
    /// Returns [`PrecedenceError::Cyclic`] for cyclic graphs, or
    /// [`PrecedenceError::SizeMismatch`] if the graph and task set disagree in
    /// size.
    pub fn allocation_order(
        &self,
        tasks: &SecurityTaskSet,
    ) -> Result<Vec<SecurityTaskId>, PrecedenceError> {
        if tasks.len() != self.edges.len() {
            return Err(PrecedenceError::SizeMismatch {
                graph_tasks: self.edges.len(),
                security_tasks: tasks.len(),
            });
        }
        // Kahn's algorithm with a priority-ordered frontier.
        let n = self.edges.len();
        let mut in_degree = vec![0usize; n];
        for succs in &self.edges {
            for &s in succs {
                in_degree[s] += 1;
            }
        }
        let priority_rank: Vec<usize> = {
            let order = tasks.ids_by_priority();
            let mut rank = vec![0usize; n];
            for (r, id) in order.iter().enumerate() {
                rank[id.0] = r;
            }
            rank
        };
        let mut frontier: Vec<usize> = (0..n).filter(|&i| in_degree[i] == 0).collect();
        let mut order = Vec::with_capacity(n);
        while !frontier.is_empty() {
            // Pick the highest-priority ready task.
            let (pos, _) = frontier
                .iter()
                .enumerate()
                .min_by_key(|(_, &node)| priority_rank[node])
                .expect("frontier is non-empty");
            let node = frontier.swap_remove(pos);
            order.push(SecurityTaskId(node));
            for &s in &self.edges[node] {
                in_degree[s] -= 1;
                if in_degree[s] == 0 {
                    frontier.push(s);
                }
            }
        }
        if order.len() == n {
            Ok(order)
        } else {
            Err(PrecedenceError::Cyclic)
        }
    }
}

/// The Tripwire-style default precedence for the Table I catalogue: the
/// self-check precedes every other Tripwire check (the Bro monitor is
/// independent). The ids follow the catalogue order of
/// [`crate::catalog::table1_tasks`].
#[must_use]
pub fn table1_precedence() -> PrecedenceGraph {
    let mut graph = PrecedenceGraph::new(6);
    // Catalogue order: 0 self-check, 1 executables, 2 libraries,
    // 3 dev/kernel, 4 config, 5 bro.
    for target in 1..=4 {
        graph
            .add_dependency(SecurityTaskId(0), SecurityTaskId(target))
            .expect("the static catalogue precedence is acyclic");
    }
    graph
}

/// A HYDRA variant that honours a [`PrecedenceGraph`]: tasks are allocated in
/// a priority-consistent topological order and every successor's period is at
/// least the granted period of each of its predecessors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PrecedenceHydraAllocator {
    graph: PrecedenceGraph,
}

impl PrecedenceHydraAllocator {
    /// Creates the allocator for the given precedence graph.
    #[must_use]
    pub fn new(graph: PrecedenceGraph) -> Self {
        PrecedenceHydraAllocator { graph }
    }

    /// The precedence graph in use.
    #[must_use]
    pub fn graph(&self) -> &PrecedenceGraph {
        &self.graph
    }

    /// The admission rule: when the new task outranks a task already on
    /// the core, every security task on the core must still meet Eq. (6)
    /// in `(T^max, id)` order, the new task at its candidate period.
    fn admits(tasks: &SecurityTaskSet, candidate: &Candidate<'_>) -> bool {
        let rank = |id: SecurityTaskId| (tasks[id].max_period(), id.0);
        let new_rank = rank(candidate.task);
        if candidate.placed.iter().all(|(id, _)| rank(*id) < new_rank) {
            return true;
        }
        let mut plan: Vec<(SecurityTaskId, Time)> = candidate
            .placed
            .iter()
            .map(|(id, choice)| (*id, choice.period))
            .chain([(candidate.task, candidate.period)])
            .collect();
        plan.sort_by_key(|&(id, _)| rank(id));
        let members: Vec<&SecurityTask> = plan.iter().map(|&(id, _)| &tasks[id]).collect();
        let periods: Vec<Time> = plan.iter().map(|&(_, period)| period).collect();
        plan_is_feasible(&members, candidate.rt_bound, &periods)
    }
}

impl Allocator for PrecedenceHydraAllocator {
    fn name(&self) -> &'static str {
        "HYDRA+precedence"
    }

    fn allocate_with_rt_partition(
        &self,
        problem: &AllocationProblem,
        rt_partition: &Partition,
    ) -> Result<Allocation, AllocationError> {
        let order = match self.graph.allocation_order(&problem.security_tasks) {
            Err(PrecedenceError::SizeMismatch {
                graph_tasks,
                security_tasks,
            }) => {
                return Err(AllocationError::PrecedenceGraphMismatch {
                    graph_tasks,
                    security_tasks,
                })
            }
            order => order.expect("`add_dependency` refuses cycles, so only the size can mismatch"),
        };
        place(
            problem,
            rt_partition,
            &order,
            0..rt_partition.cores(),
            // A successor may not run more often than its slowest
            // predecessor actually runs.
            |id, placements| {
                self.graph
                    .predecessors(id)
                    .iter()
                    .filter_map(|pred| placements[pred.0].map(|p| p.period))
                    .max()
                    .unwrap_or(Time::ZERO)
            },
            |candidate| Self::admits(&problem.security_tasks, candidate),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::allocator::HydraAllocator;
    use crate::catalog::table1_tasks;
    use crate::security::SecurityTask;
    use rt_core::Time;

    fn sec(c_ms: u64, tdes_ms: u64, tmax_ms: u64) -> SecurityTask {
        SecurityTask::new(
            Time::from_millis(c_ms),
            Time::from_millis(tdes_ms),
            Time::from_millis(tmax_ms),
        )
        .unwrap()
    }

    #[test]
    fn graph_construction_and_queries() {
        let mut g = PrecedenceGraph::new(3);
        assert!(g.predecessors(SecurityTaskId(2)).is_empty());
        g.add_dependency(SecurityTaskId(0), SecurityTaskId(1))
            .unwrap();
        g.add_dependency(SecurityTaskId(0), SecurityTaskId(2))
            .unwrap();
        assert_eq!(g.predecessors(SecurityTaskId(1)), vec![SecurityTaskId(0)]);
        assert_eq!(g.predecessors(SecurityTaskId(2)), vec![SecurityTaskId(0)]);
        assert_eq!(g.len(), 3);
        assert!(!g.is_empty());
    }

    #[test]
    fn invalid_edges_are_rejected() {
        let mut g = PrecedenceGraph::new(2);
        assert_eq!(
            g.add_dependency(SecurityTaskId(0), SecurityTaskId(0)),
            Err(PrecedenceError::SelfDependency(SecurityTaskId(0)))
        );
        assert_eq!(
            g.add_dependency(SecurityTaskId(0), SecurityTaskId(5)),
            Err(PrecedenceError::UnknownTask(SecurityTaskId(5)))
        );
        g.add_dependency(SecurityTaskId(0), SecurityTaskId(1))
            .unwrap();
        assert_eq!(
            g.add_dependency(SecurityTaskId(1), SecurityTaskId(0)),
            Err(PrecedenceError::Cyclic)
        );
        // The rejected edge must not linger.
        assert!(g.predecessors(SecurityTaskId(0)).is_empty());
    }

    #[test]
    fn topological_order_respects_edges() {
        let mut g = PrecedenceGraph::new(4);
        g.add_dependency(SecurityTaskId(2), SecurityTaskId(0))
            .unwrap();
        g.add_dependency(SecurityTaskId(0), SecurityTaskId(3))
            .unwrap();
        let order = g.topological_order().unwrap();
        let pos = |id: SecurityTaskId| order.iter().position(|&x| x == id).unwrap();
        assert!(pos(SecurityTaskId(2)) < pos(SecurityTaskId(0)));
        assert!(pos(SecurityTaskId(0)) < pos(SecurityTaskId(3)));
    }

    #[test]
    fn allocation_order_prefers_priority_among_ready_tasks() {
        // Task 1 has the smallest T^max (highest priority) and no
        // predecessor, so it must come first even though task 0 is declared
        // earlier.
        let tasks: SecurityTaskSet = vec![
            sec(10, 1000, 30_000),
            sec(10, 1000, 10_000),
            sec(10, 1000, 20_000),
        ]
        .into_iter()
        .collect();
        let g = PrecedenceGraph::new(3);
        let order = g.allocation_order(&tasks).unwrap();
        assert_eq!(order[0], SecurityTaskId(1));
        // With an edge 0 → 1, task 0 must be pulled ahead of task 1 despite
        // the lower priority.
        let mut g = PrecedenceGraph::new(3);
        g.add_dependency(SecurityTaskId(0), SecurityTaskId(1))
            .unwrap();
        let order = g.allocation_order(&tasks).unwrap();
        let pos = |id: SecurityTaskId| order.iter().position(|&x| x == id).unwrap();
        assert!(pos(SecurityTaskId(0)) < pos(SecurityTaskId(1)));
    }

    #[test]
    fn mismatched_graph_size_is_an_error() {
        let tasks: SecurityTaskSet = vec![sec(10, 1000, 10_000)].into_iter().collect();
        let g = PrecedenceGraph::new(3);
        let err = g.allocation_order(&tasks).unwrap_err();
        assert_eq!(
            err,
            PrecedenceError::SizeMismatch {
                graph_tasks: 3,
                security_tasks: 1,
            }
        );
        assert_eq!(
            err.to_string(),
            "the precedence graph covers 3 security task(s) but the task set has 1"
        );
    }

    #[test]
    fn a_graph_of_the_wrong_size_is_named_not_unschedulable() {
        let problem = AllocationProblem::new(crate::casestudy::uav_rt_tasks(), table1_tasks(), 2);
        let allocator = PrecedenceHydraAllocator::new(PrecedenceGraph::new(3));
        let expected = Err(AllocationError::PrecedenceGraphMismatch {
            graph_tasks: 3,
            security_tasks: 6,
        });
        assert_eq!(allocator.allocate(&problem), expected);
        let rt_partition = crate::allocator::partition_rt(&problem, 2).unwrap();
        assert_eq!(
            allocator.allocate_with_rt_partition(&problem, &rt_partition),
            expected
        );
    }

    #[test]
    fn successor_period_never_beats_its_predecessor() {
        // The predecessor is heavy and ends up with a stretched period; the
        // successor (which alone could achieve its desired period) must be
        // granted a period at least as long.
        let tasks: SecurityTaskSet = vec![
            sec(800, 1000, 50_000), // predecessor: needs stretching
            sec(10, 1000, 50_000),  // successor: trivially satisfiable alone
        ]
        .into_iter()
        .collect();
        let mut graph = PrecedenceGraph::new(2);
        graph
            .add_dependency(SecurityTaskId(0), SecurityTaskId(1))
            .unwrap();
        // One busy core so the predecessor really is stretched.
        let rt_tasks: rt_core::TaskSet =
            vec![
                rt_core::RtTask::implicit_deadline(Time::from_millis(60), Time::from_millis(100))
                    .unwrap(),
            ]
            .into_iter()
            .collect();
        let problem = AllocationProblem::new(rt_tasks, tasks, 1);
        let allocation = PrecedenceHydraAllocator::new(graph)
            .allocate(&problem)
            .unwrap();
        let pred = allocation.period_of(SecurityTaskId(0));
        let succ = allocation.period_of(SecurityTaskId(1));
        assert!(
            pred > Time::from_millis(1000),
            "predecessor was not stretched"
        );
        assert!(
            succ >= pred,
            "successor period {succ} beats predecessor {pred}"
        );
    }

    #[test]
    fn without_constraints_the_result_matches_plain_hydra() {
        let problem = AllocationProblem::new(crate::casestudy::uav_rt_tasks(), table1_tasks(), 4);
        let plain = HydraAllocator::default().allocate(&problem).unwrap();
        let graph = PrecedenceGraph::new(problem.security_tasks.len());
        let constrained = PrecedenceHydraAllocator::new(graph)
            .allocate(&problem)
            .unwrap();
        assert_eq!(plain, constrained);
    }

    #[test]
    fn table1_precedence_allocates_and_respects_the_self_check_rule() {
        let problem = AllocationProblem::new(crate::casestudy::uav_rt_tasks(), table1_tasks(), 2);
        let allocator = PrecedenceHydraAllocator::new(table1_precedence());
        assert_eq!(allocator.name(), "HYDRA+precedence");
        let allocation = allocator.allocate(&problem).unwrap();
        let self_check = allocation.period_of(SecurityTaskId(0));
        for dependent in 1..=4 {
            assert!(
                allocation.period_of(SecurityTaskId(dependent)) >= self_check,
                "dependent check {dependent} runs more often than the self-check"
            );
        }
    }

    #[test]
    fn a_lower_priority_predecessor_keeps_its_deadline() {
        // A precedes B but B outranks A (T^max 3 s < 30 s). Placed first, A
        // gets 1 s; B then needs 2.2 s next to it. Under B's interference
        // A's first job would end at 1.1 s, after its 1 s deadline, so the
        // only core is refused for B.
        let tasks: SecurityTaskSet = vec![sec(500, 1000, 30_000), sec(600, 1000, 3_000)]
            .into_iter()
            .collect();
        let mut graph = PrecedenceGraph::new(2);
        graph
            .add_dependency(SecurityTaskId(0), SecurityTaskId(1))
            .unwrap();
        let problem = AllocationProblem::new(rt_core::TaskSet::empty(), tasks, 1);
        assert_eq!(
            PrecedenceHydraAllocator::new(graph.clone()).allocate(&problem),
            Err(AllocationError::SecurityUnschedulable {
                task: Some(SecurityTaskId(1))
            })
        );
        // With a second core B moves away from A and both keep their periods.
        let problem = AllocationProblem::new(rt_core::TaskSet::empty(), problem.security_tasks, 2);
        let allocation = PrecedenceHydraAllocator::new(graph)
            .allocate(&problem)
            .unwrap();
        assert_ne!(
            allocation.core_of(SecurityTaskId(0)),
            allocation.core_of(SecurityTaskId(1))
        );
        assert_eq!(
            allocation.period_of(SecurityTaskId(0)),
            Time::from_millis(1000)
        );
        assert_eq!(
            allocation.period_of(SecurityTaskId(1)),
            Time::from_millis(1000)
        );
    }

    #[test]
    fn infeasible_precedence_floor_is_reported() {
        // The predecessor can only run with a period beyond the successor's
        // maximum period, so the successor cannot satisfy both constraints.
        let tasks: SecurityTaskSet = vec![
            sec(900, 1000, 100_000), // will be stretched far beyond 10 s
            sec(10, 1000, 5_000),    // T^max = 5 s < predecessor's period
        ]
        .into_iter()
        .collect();
        let mut graph = PrecedenceGraph::new(2);
        graph
            .add_dependency(SecurityTaskId(0), SecurityTaskId(1))
            .unwrap();
        let rt_tasks: rt_core::TaskSet =
            vec![
                rt_core::RtTask::implicit_deadline(Time::from_millis(90), Time::from_millis(100))
                    .unwrap(),
            ]
            .into_iter()
            .collect();
        let problem = AllocationProblem::new(rt_tasks, tasks, 1);
        assert!(matches!(
            PrecedenceHydraAllocator::new(graph).allocate(&problem),
            Err(AllocationError::SecurityUnschedulable {
                task: Some(SecurityTaskId(1))
            })
        ));
    }
}
