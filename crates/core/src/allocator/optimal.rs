//! The "Optimal" baseline (Section IV-B.2), as a branch-and-bound search.
//!
//! For small instances the paper compares HYDRA against an exhaustive search:
//! every one of the `M^{N_S}` assignments of security tasks to cores is
//! enumerated, and for each assignment the whole period vector is chosen to
//! maximise the cumulative weighted tightness (a joint convex/geometric
//! program in the paper; the coordinate-ascent refinement of
//! [`crate::joint`] here). The assignment with the best cumulative tightness
//! wins.
//!
//! This module replaces the plain enumeration with a **branch-and-bound**
//! search that returns the *identical* allocation while visiting only a
//! fraction of the assignments:
//!
//! * tasks are branched lowest priority first and cores in ascending index,
//!   which makes the depth-first search visit complete assignments in
//!   exactly the order of the old mixed-radix enumeration — so keeping the
//!   first strict maximum reproduces the exhaustive tie-breaking bit for
//!   bit;
//! * every partial assignment carries an **admissible upper bound**: each
//!   placed task's achievable tightness is bounded by relaxing all of its
//!   higher-priority neighbours to their maximum periods (the
//!   unconstrained-period relaxation of Eq. 5 — less interference can only
//!   raise tightness, and the bound's interference terms accumulate in the
//!   same order as the evaluator's, so the domination is exact in floating
//!   point, not just in exact arithmetic), while unplaced tasks count their
//!   full weight; subtrees whose bound cannot beat the incumbent are cut;
//! * the per-task relaxed bounds are maintained **incrementally on
//!   push/pop**: placing a task re-tightens only its own core's residents
//!   (placement order guarantees those are exactly its lower-priority
//!   neighbours — O(residents) closed-form solves, every other core
//!   untouched), and un-placing restores the snapshotted values bit-for-bit
//!   from an undo log instead of re-solving;
//! * **symmetry breaking**: when cores 0 and 1 carry bit-identical
//!   real-time bounds and are both still empty, the subtree that touches
//!   core 1 first is the mirror of an earlier-enumerated one whose total is
//!   bit-equal (the swapped groups are the first two terms of the leaf
//!   total, and float addition commutes), so it is skipped wholesale; later
//!   core pairs stay in the search because their mirrors reassociate the
//!   floating-point fold and could flip an ulp-level tie;
//! * per-core period optimisations are **memoised** by `(core, resident
//!   set)`, since the depth-first search re-encounters the same per-core
//!   group across many assignments that differ elsewhere.
//!
//! Because the per-assignment period optimisation starts from the greedy
//! (HYDRA-style) period vector and only ever improves it, the result of this
//! allocator is **never worse than HYDRA** on the same problem — the
//! invariant behind Figure 3.

// plan_memo is a point-lookup cache on the hot search path, never iterated,
// so hash order cannot reach output bytes (allowlisted for lint rule D001).
#![allow(clippy::disallowed_types)]

use std::collections::HashMap;

use rt_core::Time;
use rt_partition::{CoreId, Partition};

use crate::allocation::{Allocation, AllocationError, AllocationProblem, SecurityPlacement};
use crate::allocator::{partition_rt, Allocator};
use crate::interference::{rt_interference_on, InterferenceBound};
use crate::joint::{optimize_core_periods, CorePlan, JointOptions};
use crate::period::minimize_linear_fractional;
use crate::security::{SecurityTask, SecurityTaskId};

/// Safety margin of the bound-based prune: a subtree is cut only when its
/// admissible upper bound trails the incumbent by more than this. The
/// per-task bounds dominate the evaluator's values exactly, but the *sums*
/// are grouped differently (per core vs. per slot), so cross-assignment
/// comparisons can differ by a few ulps; 1e-9 is ~4 orders of magnitude
/// above that while far below any real tightness gap.
const PRUNE_MARGIN: f64 = 1e-9;

/// Statistics of one branch-and-bound run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SearchStats {
    /// Complete assignments whose period optimisation actually ran.
    pub visited: u128,
    /// Assignments skipped by bound, feasibility or symmetry pruning.
    pub pruned: u128,
    /// Size of the full assignment space, `M^{N_S}`.
    pub total: u128,
}

impl SearchStats {
    /// Fraction of the assignment space that was pruned away, in `[0, 1]`.
    #[must_use]
    pub fn prune_ratio(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.pruned as f64 / self.total as f64
        }
    }
}

/// Branch-and-bound assignment search with joint period optimisation.
#[derive(Debug, Clone, PartialEq)]
pub struct OptimalAllocator {
    joint: JointOptions,
    /// Safety limit on the size of the assignment space.
    max_assignments: u128,
}

impl Default for OptimalAllocator {
    fn default() -> Self {
        OptimalAllocator {
            joint: JointOptions::default(),
            max_assignments: 1 << 22,
        }
    }
}

impl OptimalAllocator {
    /// Creates the allocator with default joint-optimisation options and an
    /// assignment-space limit of about four million.
    #[must_use]
    pub fn new() -> Self {
        OptimalAllocator::default()
    }

    /// Overrides the assignment-space safety limit.
    #[cfg(test)]
    #[must_use]
    pub(crate) fn with_assignment_limit(mut self, limit: u128) -> Self {
        self.max_assignments = limit;
        self
    }

    /// [`Allocator::allocate`] plus the search statistics.
    ///
    /// # Errors
    ///
    /// Same as [`Allocator::allocate`].
    pub fn allocate_with_stats(
        &self,
        problem: &AllocationProblem,
    ) -> Result<(Allocation, SearchStats), AllocationError> {
        let rt_partition = partition_rt(problem, problem.cores)?;
        self.allocate_with_rt_partition_stats(problem, &rt_partition)
    }

    /// [`Allocator::allocate_with_rt_partition`] plus the search statistics.
    ///
    /// # Errors
    ///
    /// Same as [`Allocator::allocate_with_rt_partition`].
    pub fn allocate_with_rt_partition_stats(
        &self,
        problem: &AllocationProblem,
        rt_partition: &Partition,
    ) -> Result<(Allocation, SearchStats), AllocationError> {
        let cores = problem.cores;
        let n = problem.security_tasks.len();
        if n == 0 {
            return Ok((
                Allocation::new(rt_partition.clone(), Vec::new()),
                SearchStats::default(),
            ));
        }

        let total = (cores as u128).checked_pow(n as u32).unwrap_or(u128::MAX);
        if total > self.max_assignments || (cores >= 2 && n > 127) {
            return Err(AllocationError::ProblemTooLarge {
                assignments: total,
                limit: self.max_assignments,
            });
        }

        let rt_bounds: Vec<InterferenceBound> = (0..cores)
            .map(|m| rt_interference_on(&problem.rt_tasks, rt_partition, CoreId(m)))
            .collect();
        // Security tasks in priority order (highest first); per-core groups
        // gathered over this order come out already priority-sorted.
        let priority_order = problem.security_tasks.ids_by_priority();

        if cores == 1 {
            // A single core admits exactly one assignment — the whole set on
            // core 0 — so the search degenerates to one period optimisation
            // (this also sidesteps the u128 resident bitmasks, whose width
            // only covers task counts reachable with `cores >= 2` under the
            // assignment limit).
            let tasks: Vec<&SecurityTask> = priority_order
                .iter()
                .map(|&id| &problem.security_tasks[id])
                .collect();
            let stats = SearchStats {
                visited: 1,
                pruned: 0,
                total,
            };
            return match optimize_core_periods(&tasks, &rt_bounds[0], &self.joint) {
                Some(plan) => {
                    let mut placements = vec![None; n];
                    for (rank, &id) in priority_order.iter().enumerate() {
                        let period = plan.periods[rank];
                        placements[id.0] = Some(SecurityPlacement {
                            core: CoreId(0),
                            period,
                            tightness: problem.security_tasks[id].tightness(period),
                        });
                    }
                    let placements: Vec<SecurityPlacement> = placements
                        .into_iter()
                        .map(|p| p.expect("the single assignment placed every task"))
                        .collect();
                    Ok((Allocation::new(rt_partition.clone(), placements), stats))
                }
                None => Err(AllocationError::SecurityUnschedulable { task: None }),
            };
        }

        let mut search = Search::new(problem, &self.joint, priority_order, &rt_bounds, cores);
        if cores > 0 {
            search.descend(n - 1);
        }
        let stats = SearchStats {
            visited: search.visited,
            pruned: total - search.visited,
            total,
        };
        debug_assert_eq!(search.visited + search.pruned_subtrees, total);

        match search.best {
            Some((_, placements)) => Ok((Allocation::new(rt_partition.clone(), placements), stats)),
            None => Err(AllocationError::SecurityUnschedulable { task: None }),
        }
    }
}

/// The branch-and-bound state. Slots index `priority_order` (slot 0 = the
/// highest-priority task); the search assigns slots from `n − 1` down to 0
/// with cores in ascending order, which is exactly the mixed-radix
/// enumeration order of the old exhaustive search (slot 0 is the least
/// significant digit), so "first strict maximum wins" reproduces its
/// tie-breaking.
struct Search<'a> {
    problem: &'a AllocationProblem,
    joint: &'a JointOptions,
    priority_order: &'a [SecurityTaskId],
    rt_bounds: &'a [InterferenceBound],
    cores: usize,
    n: usize,
    /// Whether every weight is exactly 1.0 — then tightness-1 ties are exact
    /// floating-point integers and tied subtrees can be cut.
    unit_weights: bool,
    /// Per slot: the task's objective weight.
    weights: Vec<f64>,
    /// `prefix_weight[s]` = Σ weights of slots `< s` (the still-unassigned
    /// suffix of the search when slot `s` was just placed).
    prefix_weight: Vec<f64>,
    /// `pow[k]` = `cores^k`: the number of assignments below a node with `k`
    /// unassigned slots.
    pow: Vec<u128>,
    /// Whether cores 0 and 1 carry bit-identical real-time interference
    /// bounds. Only this pair is eligible for the symmetry skip: swapping
    /// the contents of the first two cores exchanges the *first two* terms
    /// of the leaf evaluator's left-to-right total (float addition is
    /// commutative, so the mirror's total is bit-equal), whereas mirroring
    /// any later pair reassociates the fold and can move the total by an
    /// ulp — enough to flip the exhaustive search's strict-maximum
    /// tie-break.
    sym01: bool,
    /// Per slot: the assigned core (valid for currently-placed slots).
    assignment: Vec<usize>,
    /// Per core: placed slots, in placement order (descending slot number =
    /// ascending priority).
    residents: Vec<Vec<usize>>,
    /// Per core: bitmask of placed slots — the per-core plan memo key.
    core_mask: Vec<u128>,
    /// Per placed slot: admissible upper bound on its achievable tightness.
    eta_hat: Vec<f64>,
    /// Undo log of `(slot, eta_hat)` snapshots taken before each placement,
    /// so un-placing restores the residents' bounds bit-for-bit without
    /// re-solving them.
    eta_trail: Vec<(usize, f64)>,
    /// `(core, resident mask) → period plan` — the same group reappears
    /// across many assignments that differ on other cores.
    plan_memo: HashMap<(usize, u128), Option<CorePlan>>,
    /// Incumbent: best cumulative weighted tightness and its placements.
    best: Option<(f64, Vec<SecurityPlacement>)>,
    visited: u128,
    pruned_subtrees: u128,
    /// Leaf scratch buffers.
    ids_scratch: Vec<SecurityTaskId>,
    tasks_scratch: Vec<&'a SecurityTask>,
}

impl<'a> Search<'a> {
    fn new(
        problem: &'a AllocationProblem,
        joint: &'a JointOptions,
        priority_order: &'a [SecurityTaskId],
        rt_bounds: &'a [InterferenceBound],
        cores: usize,
    ) -> Self {
        let n = priority_order.len();
        let weights: Vec<f64> = priority_order
            .iter()
            .map(|&id| problem.security_tasks[id].weight())
            .collect();
        let mut prefix_weight = vec![0.0; n + 1];
        for s in 0..n {
            prefix_weight[s + 1] = prefix_weight[s] + weights[s];
        }
        let mut pow = vec![1u128; n + 1];
        for k in 1..=n {
            pow[k] = pow[k - 1].saturating_mul(cores as u128);
        }
        let sym01 = cores >= 2 && rt_bounds[0] == rt_bounds[1];
        Search {
            problem,
            joint,
            priority_order,
            rt_bounds,
            cores,
            n,
            unit_weights: weights.iter().all(|&w| w == 1.0),
            weights,
            prefix_weight,
            pow,
            sym01,
            assignment: vec![0; n],
            residents: vec![Vec::new(); cores],
            core_mask: vec![0; cores],
            eta_hat: vec![0.0; n],
            eta_trail: Vec::new(),
            plan_memo: HashMap::new(),
            best: None,
            visited: 0,
            pruned_subtrees: 0,
            ids_scratch: Vec::new(),
            tasks_scratch: Vec::new(),
        }
    }

    /// The admissible per-task tightness bound: the task's best achievable
    /// tightness under `bound` — interference from its core's real-time
    /// tasks plus the already-placed (lower-priority → later-placed
    /// higher-priority) residents relaxed to their maximum periods. Uses the
    /// same closed form, `ceil` rounding and clamp as the greedy evaluator,
    /// so "less interference ⇒ no smaller tightness" holds exactly in
    /// floating point.
    fn relaxed_eta(&self, slot: usize, bound: &InterferenceBound) -> Option<f64> {
        let task = &self.problem.security_tasks[self.priority_order[slot]];
        let lower = task.desired_period().as_ticks() as f64;
        let upper = task.max_period().as_ticks() as f64;
        let a = task.wcet().as_ticks() as f64 + bound.constant;
        let period = minimize_linear_fractional(lower, upper, a, bound.slope)?;
        Some(task.tightness(Time::from_ticks(period.ceil() as u64)))
    }

    /// Recomputes the relaxed tightness bound of every resident of core `m`
    /// from the resident stack. Interference terms accumulate in ascending
    /// slot order — the exact order the greedy evaluator uses — which keeps
    /// the bound's floating-point domination rigorous. Returns `false` when
    /// some resident's relaxed problem is infeasible: then *no* completion
    /// of the current partial assignment is feasible.
    fn refresh_core(&mut self, m: usize) -> bool {
        let residents = std::mem::take(&mut self.residents[m]);
        let mut ok = true;
        for (i, &slot) in residents.iter().enumerate() {
            let mut bound = self.rt_bounds[m];
            // Higher-priority residents were placed later (positions > i);
            // reversing the suffix yields ascending slot order.
            for j in (i + 1..residents.len()).rev() {
                let hp = &self.problem.security_tasks[self.priority_order[residents[j]]];
                bound.add_task(hp.wcet(), hp.max_period());
            }
            match self.relaxed_eta(slot, &bound) {
                Some(eta) => self.eta_hat[slot] = eta,
                None => {
                    ok = false;
                    break;
                }
            }
        }
        self.residents[m] = residents;
        ok
    }

    /// Whether the subtree under the just-placed `slot` cannot improve on
    /// the incumbent. Cuts strictly-dominated subtrees with a float-safety
    /// margin; exact ties are additionally cut when every bound term is an
    /// exact float (all placed tasks perfect, unit weights) — tied
    /// assignments deeper in the enumeration order never replace the
    /// incumbent anyway.
    fn prunable(&self, slot: usize) -> bool {
        let Some((best, _)) = &self.best else {
            return false;
        };
        let mut assigned = 0.0;
        let mut perfect = true;
        for s in slot..self.n {
            let eta = self.eta_hat[s];
            assigned += self.weights[s] * eta;
            perfect &= eta == 1.0;
        }
        let ub = assigned + self.prefix_weight[slot];
        ub <= best - PRUNE_MARGIN || (self.unit_weights && perfect && ub <= *best)
    }

    fn descend(&mut self, slot: usize) {
        for m in 0..self.cores {
            // Symmetry: while the first two cores carry bit-identical
            // real-time bounds and are both still empty, any assignment
            // entering core 1 first is the mirror of one entering core 0
            // first — and because the swapped groups occupy the *first two*
            // positions of the leaf evaluator's left-to-right total, the
            // mirror's total is bit-equal (float addition commutes), so the
            // earlier-enumerated mirror subsumes the skipped copy exactly.
            // Later core pairs are NOT eligible: their mirror reassociates
            // the fold and can differ by an ulp.
            if m == 1 && self.sym01 && self.residents[0].is_empty() && self.residents[1].is_empty()
            {
                self.pruned_subtrees += self.pow[slot];
                continue;
            }
            self.assignment[slot] = m;
            // Snapshot the residents' current bound values: placing `slot`
            // tightens each of them (it is higher priority than everything
            // already on the core), and un-placing restores the saved
            // values bit-for-bit instead of re-solving.
            let trail_mark = self.eta_trail.len();
            for i in 0..self.residents[m].len() {
                let resident = self.residents[m][i];
                self.eta_trail.push((resident, self.eta_hat[resident]));
            }
            self.residents[m].push(slot);
            self.core_mask[m] |= 1u128 << slot;
            if !self.refresh_core(m) {
                self.pruned_subtrees += self.pow[slot];
            } else if slot == 0 {
                self.visit_leaf();
            } else if self.prunable(slot) {
                self.pruned_subtrees += self.pow[slot];
            } else {
                self.descend(slot - 1);
            }
            self.residents[m].pop();
            self.core_mask[m] &= !(1u128 << slot);
            while self.eta_trail.len() > trail_mark {
                let (resident, eta) = self.eta_trail.pop().expect("trail mark is a lower bound");
                self.eta_hat[resident] = eta;
            }
        }
    }

    /// Evaluates the complete assignment exactly as the exhaustive search
    /// did: cores in ascending order, each core's group optimised jointly,
    /// totals accumulated in the same order — identical floats, so the
    /// strict-improvement comparison picks the identical winner.
    fn visit_leaf(&mut self) {
        self.visited += 1;
        let mut total = 0.0;
        let mut feasible = true;
        for m in 0..self.cores {
            if self.residents[m].is_empty() {
                continue;
            }
            match self.core_plan(m) {
                Some(plan) => total += plan.weighted_tightness,
                None => {
                    feasible = false;
                    break;
                }
            }
        }
        if !feasible {
            return;
        }
        if self.best.as_ref().is_none_or(|(b, _)| total > *b) {
            let mut placements: Vec<Option<SecurityPlacement>> = vec![None; self.n];
            for m in 0..self.cores {
                if self.residents[m].is_empty() {
                    continue;
                }
                let plan = self
                    .core_plan(m)
                    .expect("feasible assignment has a plan on every used core")
                    .clone();
                let mut rank = 0usize;
                for slot in 0..self.n {
                    if self.core_mask[m] >> slot & 1 == 0 {
                        continue;
                    }
                    let id = self.priority_order[slot];
                    let period = plan.periods[rank];
                    placements[id.0] = Some(SecurityPlacement {
                        core: CoreId(m),
                        period,
                        tightness: self.problem.security_tasks[id].tightness(period),
                    });
                    rank += 1;
                }
            }
            let placements: Vec<SecurityPlacement> = placements
                .into_iter()
                .map(|p| p.expect("complete assignment placed every task"))
                .collect();
            self.best = Some((total, placements));
        }
    }

    /// The memoised per-core period plan of core `m`'s current residents.
    fn core_plan(&mut self, m: usize) -> Option<&CorePlan> {
        let key = (m, self.core_mask[m]);
        if !self.plan_memo.contains_key(&key) {
            let problem: &'a AllocationProblem = self.problem;
            self.ids_scratch.clear();
            for (slot, &id) in self.priority_order.iter().enumerate() {
                if self.core_mask[m] >> slot & 1 == 1 {
                    self.ids_scratch.push(id);
                }
            }
            self.tasks_scratch.clear();
            for &id in &self.ids_scratch {
                self.tasks_scratch.push(&problem.security_tasks[id]);
            }
            let plan = optimize_core_periods(&self.tasks_scratch, &self.rt_bounds[m], self.joint);
            self.plan_memo.insert(key, plan);
        }
        self.plan_memo[&key].as_ref()
    }
}

impl Allocator for OptimalAllocator {
    fn name(&self) -> &'static str {
        "Optimal"
    }

    fn allocate_with_rt_partition(
        &self,
        problem: &AllocationProblem,
        rt_partition: &Partition,
    ) -> Result<Allocation, AllocationError> {
        self.allocate_with_rt_partition_stats(problem, rt_partition)
            .map(|(a, _)| a)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::allocator::HydraAllocator;
    use crate::security::{SecurityTask, SecurityTaskSet};
    use proptest::prelude::*;
    use rt_core::{RtTask, TaskSet, Time};
    use rt_partition::partition_tasks;

    fn rt(c_ms: u64, t_ms: u64) -> RtTask {
        RtTask::implicit_deadline(Time::from_millis(c_ms), Time::from_millis(t_ms)).unwrap()
    }

    fn sec(c_ms: u64, tdes_ms: u64, tmax_ms: u64) -> SecurityTask {
        SecurityTask::new(
            Time::from_millis(c_ms),
            Time::from_millis(tdes_ms),
            Time::from_millis(tmax_ms),
        )
        .unwrap()
    }

    /// The pre-branch-and-bound reference: plain mixed-radix enumeration of
    /// every assignment, kept verbatim as the identity oracle.
    fn exhaustive_allocate(
        allocator: &OptimalAllocator,
        problem: &AllocationProblem,
        rt_partition: &Partition,
    ) -> Result<Allocation, AllocationError> {
        let cores = problem.cores;
        let n = problem.security_tasks.len();
        if n == 0 {
            return Ok(Allocation::new(rt_partition.clone(), Vec::new()));
        }
        let rt_bounds: Vec<InterferenceBound> = (0..cores)
            .map(|m| rt_interference_on(&problem.rt_tasks, rt_partition, CoreId(m)))
            .collect();
        let priority_order: Vec<SecurityTaskId> = problem.security_tasks.ids_by_priority().to_vec();

        let mut best: Option<(f64, Vec<SecurityPlacement>)> = None;
        let mut assignment = vec![0usize; n];
        'outer: loop {
            let mut total = 0.0;
            let mut placements: Vec<Option<SecurityPlacement>> = vec![None; n];
            let mut feasible = true;
            for (m, rt_bound) in rt_bounds.iter().enumerate().take(cores) {
                let ids: Vec<SecurityTaskId> = priority_order
                    .iter()
                    .enumerate()
                    .filter_map(|(slot, &id)| (assignment[slot] == m).then_some(id))
                    .collect();
                if ids.is_empty() {
                    continue;
                }
                let tasks: Vec<&SecurityTask> =
                    ids.iter().map(|&id| &problem.security_tasks[id]).collect();
                match optimize_core_periods(&tasks, rt_bound, &allocator.joint) {
                    Some(plan) => {
                        total += plan.weighted_tightness;
                        for (k, &id) in ids.iter().enumerate() {
                            placements[id.0] = Some(SecurityPlacement {
                                core: CoreId(m),
                                period: plan.periods[k],
                                tightness: problem.security_tasks[id].tightness(plan.periods[k]),
                            });
                        }
                    }
                    None => {
                        feasible = false;
                        break;
                    }
                }
            }
            if feasible {
                let placements: Vec<SecurityPlacement> = placements
                    .into_iter()
                    .map(|p| p.expect("feasible assignment placed every task"))
                    .collect();
                if best.as_ref().is_none_or(|(b, _)| total > *b) {
                    best = Some((total, placements));
                }
            }

            let mut slot = 0usize;
            loop {
                if slot == n {
                    break 'outer;
                }
                assignment[slot] += 1;
                if assignment[slot] < cores {
                    break;
                }
                assignment[slot] = 0;
                slot += 1;
            }
        }

        match best {
            Some((_, placements)) => Ok(Allocation::new(rt_partition.clone(), placements)),
            None => Err(AllocationError::SecurityUnschedulable { task: None }),
        }
    }

    /// Runs both searches on the same problem and asserts bit-identical
    /// results (including identical rejections).
    fn assert_identical_to_exhaustive(problem: &AllocationProblem) -> SearchStats {
        let allocator = OptimalAllocator::default();
        let rt_partition =
            partition_tasks(&problem.rt_tasks, problem.cores, &problem.partition_config)
                .expect("test problems have partitionable RT sets");
        let oracle = exhaustive_allocate(&allocator, problem, &rt_partition);
        let bnb = allocator.allocate_with_rt_partition_stats(problem, &rt_partition);
        match (oracle, bnb) {
            (Ok(expected), Ok((actual, stats))) => {
                assert_eq!(actual, expected, "branch-and-bound diverged");
                assert_eq!(stats.visited + stats.pruned, stats.total);
                stats
            }
            (Err(expected), Err(actual)) => {
                assert_eq!(actual, expected);
                SearchStats::default()
            }
            (oracle, bnb) => panic!("oracle {oracle:?} vs branch-and-bound {bnb:?}"),
        }
    }

    #[test]
    fn optimal_never_loses_to_hydra_on_the_case_study() {
        let sec_tasks = crate::catalog::table1_tasks();
        for cores in [2usize, 4] {
            let problem =
                AllocationProblem::new(crate::casestudy::uav_rt_tasks(), sec_tasks.clone(), cores);
            let hydra = HydraAllocator::default().allocate(&problem).unwrap();
            let optimal = OptimalAllocator::default().allocate(&problem).unwrap();
            assert!(
                optimal.cumulative_tightness(&sec_tasks) + 1e-9
                    >= hydra.cumulative_tightness(&sec_tasks),
                "optimal lost to HYDRA on {cores} cores"
            );
        }
    }

    #[test]
    fn optimal_finds_the_split_hydra_would_also_find() {
        // Two heavy security tasks, two idle cores: both schemes should give
        // both tasks their desired period by splitting them.
        let sec_tasks: SecurityTaskSet = vec![sec(600, 1000, 10_000), sec(600, 1000, 10_000)]
            .into_iter()
            .collect();
        let problem = AllocationProblem::new(TaskSet::empty(), sec_tasks.clone(), 2);
        let optimal = OptimalAllocator::default().allocate(&problem).unwrap();
        assert!((optimal.cumulative_tightness(&sec_tasks) - 2.0).abs() < 1e-9);
        assert_ne!(
            optimal.core_of(SecurityTaskId(0)),
            optimal.core_of(SecurityTaskId(1))
        );
    }

    #[test]
    fn optimal_beats_greedy_when_stretching_helps() {
        // Single core with the "hog + victim" geometry from the joint module:
        // HYDRA's greedy periods are strictly worse than the refined ones.
        let sec_tasks: SecurityTaskSet = vec![sec(900, 920, 100_000), sec(100, 2_000, 200_000)]
            .into_iter()
            .collect();
        let problem = AllocationProblem::new(TaskSet::empty(), sec_tasks.clone(), 1);
        let hydra = HydraAllocator::default().allocate(&problem).unwrap();
        let optimal = OptimalAllocator::default().allocate(&problem).unwrap();
        assert!(
            optimal.cumulative_tightness(&sec_tasks)
                > hydra.cumulative_tightness(&sec_tasks) + 0.05
        );
    }

    #[test]
    fn infeasible_problems_are_reported() {
        let sec_tasks: SecurityTaskSet = vec![
            sec(600, 1000, 2_000),
            sec(600, 1000, 2_000),
            sec(600, 1000, 2_000),
        ]
        .into_iter()
        .collect();
        let problem = AllocationProblem::new(TaskSet::empty(), sec_tasks, 1);
        assert_eq!(
            OptimalAllocator::default().allocate(&problem),
            Err(AllocationError::SecurityUnschedulable { task: None })
        );
    }

    #[test]
    fn enumeration_limit_is_enforced() {
        let sec_tasks: SecurityTaskSet = (0..8).map(|_| sec(10, 1000, 10_000)).collect();
        let problem = AllocationProblem::new(TaskSet::empty(), sec_tasks, 4);
        let allocator = OptimalAllocator::default().with_assignment_limit(1000);
        assert!(matches!(
            allocator.allocate(&problem),
            Err(AllocationError::ProblemTooLarge { .. })
        ));
    }

    #[test]
    fn empty_security_set_is_trivially_optimal() {
        let problem = AllocationProblem::new(
            crate::casestudy::uav_rt_tasks(),
            SecurityTaskSet::empty(),
            2,
        );
        let allocation = OptimalAllocator::default().allocate(&problem).unwrap();
        assert!(allocation.is_empty());
    }

    #[test]
    fn rt_partition_failure_is_propagated() {
        let rt_tasks: TaskSet = vec![rt(9, 10), rt(9, 10), rt(9, 10)].into_iter().collect();
        let problem = AllocationProblem::new(rt_tasks, SecurityTaskSet::empty(), 2);
        assert!(matches!(
            OptimalAllocator::default().allocate(&problem),
            Err(AllocationError::RtPartitionFailed { .. })
        ));
    }

    #[test]
    fn branch_and_bound_matches_exhaustive_on_the_case_study() {
        let sec_tasks = crate::catalog::table1_tasks();
        for cores in [2usize, 3, 4] {
            let problem =
                AllocationProblem::new(crate::casestudy::uav_rt_tasks(), sec_tasks.clone(), cores);
            let stats = assert_identical_to_exhaustive(&problem);
            assert_eq!(stats.total, (cores as u128).pow(6));
            assert!(
                stats.pruned > 0,
                "no pruning at all on the {cores}-core case study"
            );
        }
    }

    #[test]
    fn symmetry_breaking_collapses_the_leading_idle_pair() {
        // With no RT tasks every core is bit-identical: the search never
        // enters core 1 while core 0 is still empty (the only float-exact
        // mirror pair), and together with the perfection tie-prune the
        // idle-platform search space collapses by far more than half.
        let sec_tasks: SecurityTaskSet = vec![
            sec(300, 1000, 10_000),
            sec(300, 1000, 10_000),
            sec(200, 1500, 15_000),
        ]
        .into_iter()
        .collect();
        let problem = AllocationProblem::new(TaskSet::empty(), sec_tasks, 4);
        let stats = assert_identical_to_exhaustive(&problem);
        assert_eq!(stats.total, 64);
        assert!(
            stats.prune_ratio() >= 0.5,
            "expected ≥ 50 % pruning on the idle platform, got {}",
            stats.prune_ratio()
        );
    }

    #[test]
    fn saturated_instances_prune_by_perfection() {
        // Light security load on many cores: the first feasible leaf already
        // reaches tightness 1 everywhere; every later subtree ties at best
        // and is cut exactly.
        let sec_tasks: SecurityTaskSet = vec![
            sec(10, 1000, 10_000),
            sec(10, 1000, 10_000),
            sec(10, 2000, 20_000),
            sec(10, 2000, 20_000),
        ]
        .into_iter()
        .collect();
        let rt_tasks: TaskSet = vec![rt(10, 100), rt(10, 100)].into_iter().collect();
        let problem = AllocationProblem::new(rt_tasks, sec_tasks, 2);
        let stats = assert_identical_to_exhaustive(&problem);
        assert!(
            stats.prune_ratio() >= 0.5,
            "expected ≥ 50 % pruning on a saturated instance, got {} ({stats:?})",
            stats.prune_ratio()
        );
    }

    #[test]
    fn overloaded_instances_prune_by_infeasibility() {
        // Heavy security tasks on loaded cores: most assignments die on a
        // relaxed-infeasibility check high up in the tree.
        let sec_tasks: SecurityTaskSet = vec![
            sec(500, 1000, 4_000),
            sec(500, 1000, 4_000),
            sec(400, 1500, 5_000),
            sec(300, 2000, 6_000),
        ]
        .into_iter()
        .collect();
        let rt_tasks: TaskSet = vec![rt(40, 100), rt(30, 100)].into_iter().collect();
        let problem = AllocationProblem::new(rt_tasks, sec_tasks, 2);
        let stats = assert_identical_to_exhaustive(&problem);
        assert!(stats.visited < stats.total, "{stats:?}");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The branch-and-bound search returns the bit-identical allocation
        /// (or the identical rejection) of the exhaustive enumeration on
        /// randomized instances spanning idle to overloaded cores.
        #[test]
        fn branch_and_bound_is_identical_to_exhaustive(
            rt_params in collection::vec((5u64..=40, 1u64..=4), 0..=4),
            sec_params in collection::vec((50u64..=600, 1u64..=4, 2u64..=12), 1..=5),
            cores in 1usize..=3,
        ) {
            let rt_tasks: TaskSet = rt_params
                .into_iter()
                .map(|(c, scale)| rt(c, c * scale * 3))
                .collect();
            let sec_tasks: SecurityTaskSet = sec_params
                .into_iter()
                .map(|(c, des_scale, max_scale)| {
                    let des = c * des_scale * 2;
                    sec(c, des, des * max_scale)
                })
                .collect();
            let problem = AllocationProblem::new(rt_tasks, sec_tasks, cores);
            if partition_tasks(&problem.rt_tasks, cores, &problem.partition_config).is_err() {
                // Unpartitionable RT sets never reach the assignment search.
                return Ok(());
            }
            assert_identical_to_exhaustive(&problem);
        }
    }
}
