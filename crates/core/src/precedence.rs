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

use std::collections::VecDeque;

use rt_core::TaskSet;
use rt_partition::{partition_tasks, CoreId, Partition};

use crate::allocation::{Allocation, AllocationError, AllocationProblem, SecurityPlacement};
use crate::allocator::Allocator;
use crate::interference::{rt_interference_on, security_interference, InterferenceBound};
use crate::period::{minimize_linear_fractional, PeriodChoice};
use crate::security::{SecurityTaskId, SecurityTaskSet};

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
    /// [`PrecedenceError::UnknownTask`] if the graph and task set disagree in
    /// size.
    pub fn allocation_order(
        &self,
        tasks: &SecurityTaskSet,
    ) -> Result<Vec<SecurityTaskId>, PrecedenceError> {
        if tasks.len() != self.edges.len() {
            return Err(PrecedenceError::UnknownTask(SecurityTaskId(
                self.edges.len().min(tasks.len()),
            )));
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

    /// Runs the precedence-aware allocation against an already-partitioned
    /// real-time workload.
    ///
    /// # Errors
    ///
    /// Returns [`AllocationError::SecurityUnschedulable`] if a task has no
    /// feasible core/period, and propagates an invalid graph as the same
    /// error with no task attached.
    pub fn allocate_with_partition(
        &self,
        rt_tasks: &TaskSet,
        rt_partition: &Partition,
        security_tasks: &SecurityTaskSet,
    ) -> Result<Allocation, AllocationError> {
        let order = self
            .graph
            .allocation_order(security_tasks)
            .map_err(|_| AllocationError::SecurityUnschedulable { task: None })?;
        let cores = rt_partition.cores();
        let rt_bounds: Vec<InterferenceBound> = (0..cores)
            .map(|m| rt_interference_on(rt_tasks, rt_partition, CoreId(m)))
            .collect();

        let mut placed: Vec<Vec<(SecurityTaskId, PeriodChoice)>> = vec![Vec::new(); cores];
        let mut placements: Vec<Option<SecurityPlacement>> = vec![None; security_tasks.len()];

        for sec_id in order {
            let task = &security_tasks[sec_id];
            // Precedence lower bound: the successor may not run more often
            // than its slowest predecessor actually runs.
            let predecessor_floor = self
                .graph
                .predecessors(sec_id)
                .iter()
                .filter_map(|pred| placements[pred.0].as_ref().map(|p| p.period))
                .max()
                .unwrap_or(rt_core::Time::ZERO);
            let lower = task.desired_period().max(predecessor_floor);
            if lower > task.max_period() {
                return Err(AllocationError::SecurityUnschedulable { task: Some(sec_id) });
            }

            let mut best: Option<(CoreId, PeriodChoice, f64)> = None;
            for m in 0..cores {
                let sec_bound = security_interference(
                    placed[m]
                        .iter()
                        .map(|(id, choice)| (&security_tasks[*id], choice.period)),
                );
                let bound = rt_bounds[m].plus(&sec_bound);
                // Same closed form as Eq. (7), but with the precedence floor
                // as the lower period bound.
                let lower_ticks = lower.as_ticks() as f64;
                let upper_ticks = task.max_period().as_ticks() as f64;
                let a = task.wcet().as_ticks() as f64 + bound.constant;
                let Some(period) =
                    minimize_linear_fractional(lower_ticks, upper_ticks, a, bound.slope)
                else {
                    continue;
                };
                let period = rt_core::Time::from_ticks(period.ceil() as u64);
                let choice = PeriodChoice {
                    period,
                    tightness: task.tightness(period),
                };
                let load = bound.slope;
                let better = match &best {
                    None => true,
                    Some((_, incumbent, incumbent_load)) => {
                        choice.tightness > incumbent.tightness + 1e-12
                            || ((choice.tightness - incumbent.tightness).abs() <= 1e-12
                                && load < incumbent_load - 1e-12)
                    }
                };
                if better {
                    best = Some((CoreId(m), choice, load));
                }
            }
            match best {
                Some((core, choice, _)) => {
                    placed[core.0].push((sec_id, choice));
                    placements[sec_id.0] = Some(SecurityPlacement {
                        core,
                        period: choice.period,
                        tightness: choice.tightness,
                    });
                }
                None => return Err(AllocationError::SecurityUnschedulable { task: Some(sec_id) }),
            }
        }

        let placements: Vec<SecurityPlacement> = placements
            .into_iter()
            .map(|p| p.expect("every task was placed or we returned early"))
            .collect();
        Ok(Allocation::new(rt_partition.clone(), placements))
    }
}

impl Allocator for PrecedenceHydraAllocator {
    fn name(&self) -> &'static str {
        "HYDRA+precedence"
    }

    fn allocate(&self, problem: &AllocationProblem) -> Result<Allocation, AllocationError> {
        let rt_partition =
            partition_tasks(&problem.rt_tasks, problem.cores, &problem.partition_config).map_err(
                |e| AllocationError::RtPartitionFailed {
                    task: e.task,
                    cores: problem.cores,
                },
            )?;
        self.allocate_with_partition(&problem.rt_tasks, &rt_partition, &problem.security_tasks)
    }

    fn allocate_with_rt_partition(
        &self,
        problem: &AllocationProblem,
        rt_partition: &Partition,
    ) -> Result<Allocation, AllocationError> {
        self.allocate_with_partition(&problem.rt_tasks, rt_partition, &problem.security_tasks)
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
        assert!(matches!(
            g.allocation_order(&tasks),
            Err(PrecedenceError::UnknownTask(_))
        ));
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
