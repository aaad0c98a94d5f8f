//! Frontier-seeking adaptive sweeps: deterministic utilization-cliff search
//! replacing exhaustive grids.
//!
//! An exhaustive sweep spends most of its budget far from the only region
//! that matters: the *acceptance cliff*, the narrow utilization band where a
//! scheme's acceptance ratio collapses from ≈1 to ≈0. The frontier mode
//! finds that band directly. Per `(cores, allocator, policy)` **slice** it
//! runs a two-phase driver:
//!
//! 1. **Phase A — bisection.** Round-synchronous probes over the *reference
//!    grid* ([`crate::spec::UtilizationGrid::points`] for the slice's core
//!    count): round 0 probes each slice's endpoints, every later round
//!    probes the bracket midpoint of each unresolved slice, until the cliff
//!    is bracketed by two *adjacent* grid indices — so the located cliff is
//!    within one exhaustive-grid step by construction. A probe's acceptance
//!    ratio is `scheduled / feasible` over the spec's `trials`, and the
//!    cliff threshold is `0.5`. Probe rounds are never emitted and never
//!    checkpointed: they are cheap, deterministic, and simply replayed
//!    (memo-warm) on resume.
//! 2. **Phase B — emission.** A *refinement plan* — a pure function of the
//!    final brackets — spends [`crate::spec::FrontierConfig::refine_budget`]
//!    extra points per slice: half bracketing the cliff outward on the
//!    reference grid (`lo−1, hi+1, lo−2, hi+2, …`), half van der Corput
//!    base-2 low-discrepancy samples over the rest of the axis. The union
//!    of probed and refinement points becomes one flat scenario list —
//!    slice-major, utilizations ascending within each slice, trials
//!    innermost — streamed through the ordinary streaming core with full
//!    parallelism, so the existing sink/checkpoint/shard machinery applies
//!    unchanged.
//!
//! A frontier spec runs like any other: [`SweepSession::plan`] runs Phase A
//! and returns the Phase-B list as a [`crate::SweepPlan`] (whose
//! [`crate::SweepPlan::frontier`] exposes the brackets), and
//! [`SweepSession::run_plan`] / [`SweepSession::run`] stream it.
//!
//! # Determinism
//!
//! Every probe round runs through the deterministic streaming core, so its
//! acceptance ratios — and therefore the bisection decisions, the
//! refinement plan and all emitted bytes — are independent of thread count.
//! Problem streams are the **positional** ones the exhaustive grid assigns
//! to the same `(cores, utilization, trial)` point, so every probe and
//! emitted scenario evaluates exactly the task set an exhaustive sweep of
//! the same spec would: Phase A warms the exact memo entries Phase B reads,
//! the allocator/policy axes stay problem-paired, and the probed acceptance
//! curve is a pointwise sample of the exhaustive curve. The emitted bytes
//! are *not* expected to equal an exhaustive run's (scenario indices and
//! emission order differ — the point is to evaluate far fewer scenarios);
//! cliff-bracket agreement with the exhaustive curve is the contract. The
//! tests `bisection_brackets_are_adjacent_grid_steps` (every bracket is a
//! true crossing of that curve) and
//! `dense_grids_cost_a_tenth_of_the_exhaustive_evaluations` enforce it.
//!
//! # Sharding and resume
//!
//! The plan always covers *all* slices, so scenario indices are absolute;
//! a shard runs the contiguous scenario range of its slice subset
//! ([`crate::SweepPlan::shard_range`]) and shard outputs concatenate
//! byte-identically, exactly like exhaustive shards. Resume re-derives the
//! plan (Phase A replays against the warm memo store) and continues Phase B
//! from the checkpointed index; the checkpoint's `plan_points` header pins
//! the plan length so a diverging plan is rejected instead of spliced.

use std::collections::BTreeMap;
use std::ops::Range;

use crate::agg::SweepAccumulator;
use crate::api::SweepSession;
use crate::exec::{shard_range, StreamSummary};
use crate::memo::MemoCache;
use crate::scenario::Scenario;
use crate::sink::{OutcomeSink, VecSink};
use crate::spec::{AllocatorKind, ExploreMode, FrontierConfig, PeriodPolicy};

/// The acceptance ratio the bisection hunts the crossing of.
const CLIFF_THRESHOLD: f64 = 0.5;

// Problem streams are the *positional* ones the exhaustive grid assigns
// (see `ScenarioGrid::expand`): stream = base(cores) + util_index × trials
// + trial, with allocator/policy variants sharing the address. Every
// frontier probe and emission therefore evaluates exactly the task set an
// exhaustive sweep draws at the same grid point — the bisected acceptance
// curve is a pointwise sample of the exhaustive curve, not merely a
// statistical twin, which is what lets the tests verify cliff brackets
// against the exhaustive curve exactly.

/// The radical-inverse (van der Corput) sequence in base 2: `k = 1, 2, 3…`
/// maps to `0.5, 0.25, 0.75, 0.125…` — a deterministic low-discrepancy
/// cover of `(0, 1)` used to spread refinement points over the unprobed
/// remainder of the utilization axis.
fn van_der_corput(mut k: u64) -> f64 {
    let mut v = 0.0;
    let mut denom = 1.0;
    while k > 0 {
        denom *= 2.0;
        v += (k & 1) as f64 / denom;
        k >>= 1;
    }
    v
}

/// One `(cores, allocator, policy)` slice of a frontier plan: its final
/// cliff bracket on the reference grid and the utilization points Phase B
/// emits for it.
#[derive(Debug, Clone, PartialEq)]
pub struct FrontierSlice {
    /// Number of cores.
    pub cores: usize,
    /// Allocation scheme.
    pub allocator: AllocatorKind,
    /// Period policy.
    pub policy: PeriodPolicy,
    /// Size of the reference utilization grid for this core count.
    pub grid_points: usize,
    /// Distinct utilization points probed during the Phase A bisection.
    pub probed: usize,
    /// Utilization values Phase B emits (probed ∪ refinement), ascending.
    pub points: Vec<f64>,
    /// Highest reference-grid utilization whose acceptance ratio still
    /// reached the cliff threshold (0.5); `None` when the slice rejects
    /// already at the grid's first point.
    pub cliff_lo: Option<f64>,
    /// Lowest reference-grid utilization whose acceptance ratio fell below
    /// the threshold; `None` when the slice accepts through the grid's last
    /// point.
    pub cliff_hi: Option<f64>,
}

/// One row of the frontier artifact: a probed utilization point of one
/// slice with its Phase-B aggregates, the slice's cliff bracket, and the
/// in-slice Pareto-front membership over
/// `(acceptance_ratio, mean_tightness, mean_freq_ratio)` (all maximised).
#[derive(Debug, Clone, PartialEq)]
pub struct FrontierRow {
    /// Number of cores.
    pub cores: usize,
    /// Allocation scheme.
    pub allocator: AllocatorKind,
    /// Period policy.
    pub policy: PeriodPolicy,
    /// Utilization of this point.
    pub utilization: f64,
    /// Scenarios emitted at this point (the spec's trial count).
    pub scenarios: usize,
    /// Scenarios whose task set passed the Eq. (1) filter.
    pub feasible: usize,
    /// Scenarios the scheme scheduled.
    pub scheduled: usize,
    /// `scheduled / feasible` (`0` when nothing was feasible).
    pub acceptance_ratio: f64,
    /// Mean cumulative tightness over the scheduled scenarios.
    pub mean_tightness: f64,
    /// Mean achieved-vs-desired monitoring-frequency ratio.
    pub mean_freq_ratio: f64,
    /// The slice's cliff bracket, low side (see [`FrontierSlice::cliff_lo`]).
    pub cliff_lo: Option<f64>,
    /// The slice's cliff bracket, high side (see
    /// [`FrontierSlice::cliff_hi`]).
    pub cliff_hi: Option<f64>,
    /// Whether no other point of the same slice weakly dominates this one on
    /// `(acceptance_ratio, mean_tightness, mean_freq_ratio)`.
    pub pareto: bool,
}

/// The deterministic product of Phase A: per-slice cliff brackets plus the
/// flat Phase-B scenario list. Derivable from the spec alone (plus the warm
/// memo), so resume and sharding recompute it instead of persisting it.
#[derive(Debug, Clone, PartialEq)]
pub struct FrontierPlan {
    /// Per-slice search results, in spec order
    /// (cores → allocator → policy).
    pub slices: Vec<FrontierSlice>,
    /// The flat emission list: slice-major, utilizations ascending within a
    /// slice, trials innermost. Every [`Scenario::index`] equals its
    /// position, so the list feeds the streaming core directly.
    pub scenarios: Vec<Scenario>,
    /// Trials per utilization point (copied from the spec; the emission
    /// granularity checkpoints must align to).
    pub trials: usize,
    /// Scenarios evaluated by the Phase A probe rounds.
    pub probe_evals: usize,
    /// Whether the bisection was cancelled before completing. A cancelled
    /// plan must not be emitted (its brackets are partial).
    pub cancelled: bool,
}

impl FrontierPlan {
    /// Number of scenarios Phase B emits.
    #[must_use]
    pub fn len(&self) -> usize {
        self.scenarios.len()
    }

    /// Whether the plan emits nothing.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.scenarios.is_empty()
    }

    /// The contiguous scenario range shard `index` of `count` emits: the
    /// slice list is split like [`shard_range`] and mapped to scenario
    /// offsets. Slice-major emission makes shard outputs concatenate
    /// byte-identically to a full run.
    ///
    /// # Panics
    ///
    /// Panics unless `1 <= index <= count` (as [`shard_range`]).
    pub(crate) fn shard_scenario_range(&self, index: usize, count: usize) -> Range<usize> {
        let slices = shard_range(self.slices.len(), index, count);
        let offset = |slice_idx: usize| -> usize {
            self.slices[..slice_idx]
                .iter()
                .map(|s| s.points.len() * self.trials)
                .sum()
        };
        offset(slices.start)..offset(slices.end)
    }

    /// Builds the frontier artifact rows from the final aggregates of the
    /// emitted range: one row per `(slice, utilization)` point present in
    /// `agg`, with the in-slice Pareto flags computed over
    /// `(acceptance_ratio, mean_tightness, mean_freq_ratio)`. A sharded or
    /// cancelled run yields rows only for the points its aggregate covers.
    #[must_use]
    pub fn rows(&self, agg: &SweepAccumulator) -> Vec<FrontierRow> {
        let by_key: BTreeMap<(usize, AllocatorKind, PeriodPolicy, u64), crate::agg::AggregateRow> =
            agg.rows()
                .into_iter()
                .map(|row| {
                    let bits = row.utilization.map_or(0, f64::to_bits);
                    ((row.cores, row.allocator, row.policy, bits), row)
                })
                .collect();
        let mut out = Vec::new();
        for slice in &self.slices {
            let start = out.len();
            for &util in &slice.points {
                let key = (slice.cores, slice.allocator, slice.policy, util.to_bits());
                let Some(row) = by_key.get(&key) else {
                    continue;
                };
                out.push(FrontierRow {
                    cores: slice.cores,
                    allocator: slice.allocator,
                    policy: slice.policy,
                    utilization: util,
                    scenarios: row.scenarios,
                    feasible: row.feasible,
                    scheduled: row.scheduled,
                    acceptance_ratio: row.acceptance_ratio,
                    mean_tightness: row.mean_tightness,
                    mean_freq_ratio: row.mean_freq_ratio,
                    cliff_lo: slice.cliff_lo,
                    cliff_hi: slice.cliff_hi,
                    pareto: false,
                });
            }
            mark_pareto(&mut out[start..]);
        }
        out
    }
}

/// Flags the non-dominated rows of one slice: row `i` is on the front
/// unless some row `j` is at least as good on all three objectives and
/// strictly better on one.
fn mark_pareto(rows: &mut [FrontierRow]) {
    let objectives: Vec<[f64; 3]> = rows
        .iter()
        .map(|r| [r.acceptance_ratio, r.mean_tightness, r.mean_freq_ratio])
        .collect();
    for (i, row) in rows.iter_mut().enumerate() {
        let dominated = objectives.iter().enumerate().any(|(j, other)| {
            j != i
                && other
                    .iter()
                    .zip(&objectives[i])
                    .all(|(o, s)| o.total_cmp(s).is_ge())
                && other
                    .iter()
                    .zip(&objectives[i])
                    .any(|(o, s)| o.total_cmp(s).is_gt())
        });
        row.pareto = !dominated;
    }
}

/// Bisection state of one slice during Phase A.
struct SliceSearch {
    cores: usize,
    allocator: AllocatorKind,
    policy: PeriodPolicy,
    /// The reference utilization grid for this core count.
    utils: Vec<f64>,
    /// First positional problem stream of this core count's grid block
    /// (the exhaustive grid numbers streams sequentially across core
    /// counts; allocator/policy share, so the base is per-cores).
    stream_base: u64,
    /// Reference-grid indices probed so far.
    probed: Vec<usize>,
    /// Highest index whose acceptance reached the threshold.
    lo: Option<usize>,
    /// Lowest index whose acceptance fell below the threshold.
    hi: Option<usize>,
    resolved: bool,
}

impl SliceSearch {
    /// The positional (exhaustive-grid) problem stream of grid point
    /// `index`, trial `trial` — identical for every allocator/policy slice
    /// of the same core count, matching [`crate::ScenarioGrid::expand`].
    fn stream(&self, index: usize, trial: usize, trials: usize) -> u64 {
        self.stream_base + (index as u64) * (trials.max(1) as u64) + trial as u64
    }

    /// The midpoint probe of the current bracket, when still unresolved.
    fn midpoint(&self) -> Option<usize> {
        if self.resolved {
            return None;
        }
        let (lo, hi) = (self.lo?, self.hi?);
        (hi - lo > 1).then_some(lo + (hi - lo) / 2)
    }

    /// Commits one probe's acceptance ratio and tightens the bracket.
    fn commit(&mut self, index: usize, acceptance: f64) {
        self.probed.push(index);
        if acceptance >= CLIFF_THRESHOLD {
            self.lo = Some(self.lo.map_or(index, |lo| lo.max(index)));
        } else {
            self.hi = Some(self.hi.map_or(index, |hi| hi.min(index)));
        }
        self.resolved = match (self.lo, self.hi) {
            (Some(lo), Some(hi)) => hi.saturating_sub(lo) <= 1,
            // One-sided results only resolve once both endpoints are in
            // (round 0 probes both); a single-point grid resolves on the
            // side its lone probe landed.
            _ => self.probed.len() >= self.utils.len().min(2),
        };
    }
}

/// A forward to [`SweepSession`] for frontier specs, kept for the
/// `perfbench` harness: [`FrontierRunner::plan`] is the frontier half of
/// [`SweepSession::plan`] and [`FrontierRunner::explore`] is
/// [`SweepSession::run`] that also returns the plan.
#[derive(Debug)]
pub struct FrontierRunner {
    session: SweepSession,
}

impl FrontierRunner {
    /// Wraps a configured session. A session still set to
    /// [`ExploreMode::Exhaustive`] explores with the default
    /// [`FrontierConfig`].
    #[must_use]
    pub fn new(mut session: SweepSession) -> Self {
        if session.spec.explore == ExploreMode::Exhaustive {
            session.spec.explore = ExploreMode::Frontier(FrontierConfig::default());
        }
        FrontierRunner { session }
    }

    /// Phase A: the session's frontier plan (see [`SweepSession::plan`]).
    #[must_use]
    pub fn plan(&self) -> FrontierPlan {
        self.session
            .plan()
            .into_frontier()
            .expect("FrontierRunner::new sets a frontier explore mode")
    }

    /// Phase A, then Phase B over the whole plan (see
    /// [`SweepSession::run`]). A cancellation during Phase A returns the
    /// cancelled plan and a cancelled summary with nothing emitted.
    ///
    /// # Errors
    ///
    /// As [`SweepSession::run_plan`].
    pub fn explore(
        &self,
        sink: &mut dyn OutcomeSink,
    ) -> std::io::Result<(FrontierPlan, StreamSummary)> {
        let plan = self.session.plan();
        let summary = self.session.run_plan(&plan, 0..plan.len(), sink)?;
        let plan = plan
            .into_frontier()
            .expect("FrontierRunner::new sets a frontier explore mode");
        Ok((plan, summary))
    }
}

/// Phase A: bisects every slice's acceptance cliff on `session`'s threads
/// and derives the refinement plan. Every probe round reads and warms
/// `memo`, which the emission phase then reuses. Deterministic for a fixed
/// spec — independent of thread count — because every probe round runs
/// through the deterministic streaming core and every later decision is a
/// pure function of committed round results. Cancellation marks the
/// returned plan [`FrontierPlan::cancelled`]; such a plan must not be
/// emitted.
pub(crate) fn plan(
    session: &SweepSession,
    config: FrontierConfig,
    memo: &MemoCache,
) -> FrontierPlan {
    let spec = &session.spec;
    let trials = spec.trials;
    let mut searches: Vec<SliceSearch> = Vec::new();
    let mut stream_base = 0u64;
    for &cores in &spec.cores {
        let utils = spec.utilizations.points(cores);
        for &allocator in &spec.allocators {
            for &policy in &spec.period_policies {
                searches.push(SliceSearch {
                    cores,
                    allocator,
                    policy,
                    utils: utils.clone(),
                    stream_base,
                    probed: Vec::new(),
                    lo: None,
                    hi: None,
                    resolved: false,
                });
            }
        }
        // The exhaustive grid numbers one stream per (util, trial)
        // across core counts in order; the next block starts past ours.
        stream_base += utils.len() as u64 * trials.max(1) as u64;
    }

    let mut probe_evals = 0;
    let mut cancelled = false;
    if trials > 0 {
        // Round 0: both endpoints of every non-empty slice.
        let mut requests: Vec<(usize, usize)> = Vec::new();
        for (s, search) in searches.iter().enumerate() {
            match search.utils.len() {
                0 => {}
                1 => requests.push((s, 0)),
                n => requests.extend([(s, 0), (s, n - 1)]),
            }
        }
        loop {
            if requests.is_empty() {
                break;
            }
            probe_evals += requests.len() * trials;
            let Some(ratios) = probe(session, memo, &searches, &requests, trials) else {
                cancelled = true;
                break;
            };
            for (&(s, index), &acceptance) in requests.iter().zip(&ratios) {
                searches[s].commit(index, acceptance);
            }
            // Next round: the bracket midpoints of unresolved slices.
            requests = searches
                .iter()
                .enumerate()
                .filter_map(|(s, search)| search.midpoint().map(|mid| (s, mid)))
                .collect();
        }
    }

    let mut slices = Vec::with_capacity(searches.len());
    let mut scenarios = Vec::new();
    for search in &searches {
        let indices = emission_indices(search, config.refine_budget);
        let points: Vec<f64> = indices.iter().map(|&i| search.utils[i]).collect();
        for &i in &indices {
            for trial in 0..trials {
                scenarios.push(Scenario {
                    index: scenarios.len(),
                    cores: search.cores,
                    utilization: Some(search.utils[i]),
                    allocator: search.allocator,
                    policy: search.policy,
                    trial,
                    problem_stream: search.stream(i, trial, trials),
                });
            }
        }
        slices.push(FrontierSlice {
            cores: search.cores,
            allocator: search.allocator,
            policy: search.policy,
            grid_points: search.utils.len(),
            probed: search.probed.len(),
            points,
            cliff_lo: search.lo.map(|i| search.utils[i]),
            cliff_hi: search.hi.map(|i| search.utils[i]),
        });
    }
    FrontierPlan {
        slices,
        scenarios,
        trials,
        probe_evals,
        cancelled,
    }
}

/// Evaluates one probe round through `memo` and returns each request's
/// acceptance ratio, or `None` when the round was cancelled mid-flight
/// (partial ratios must never feed the bisection).
fn probe(
    session: &SweepSession,
    memo: &MemoCache,
    searches: &[SliceSearch],
    requests: &[(usize, usize)],
    trials: usize,
) -> Option<Vec<f64>> {
    let mut scenarios = Vec::with_capacity(requests.len() * trials);
    for &(s, index) in requests {
        let search = &searches[s];
        let util = search.utils[index];
        for trial in 0..trials {
            scenarios.push(Scenario {
                index: scenarios.len(),
                cores: search.cores,
                utilization: Some(util),
                allocator: search.allocator,
                policy: search.policy,
                trial,
                problem_stream: search.stream(index, trial, trials),
            });
        }
    }
    let mut sink = VecSink::new();
    let summary = session
        .run_scenario_list(&scenarios, 0..scenarios.len(), memo, &mut sink)
        .expect("a VecSink never raises I/O errors");
    if summary.cancelled {
        return None;
    }
    let outcomes = sink.into_outcomes();
    Some(
        outcomes
            .chunks(trials)
            .map(|chunk| {
                let feasible = chunk.iter().filter(|o| o.feasible).count();
                let scheduled = chunk.iter().filter(|o| o.schedulable).count();
                if feasible == 0 {
                    0.0
                } else {
                    scheduled as f64 / feasible as f64
                }
            })
            .collect(),
    )
}

/// The emission indices of one finished slice search: the probed indices,
/// plus up to `budget` refinement points — half bracketing the cliff
/// outward (`lo−1, hi+1, lo−2, hi+2, …`), half van der Corput base-2
/// samples over the rest of the axis — deduplicated and ascending. A pure
/// function of the committed search state, so every shard and resume
/// derives the identical plan.
fn emission_indices(search: &SliceSearch, budget: usize) -> Vec<usize> {
    let n = search.utils.len();
    if n == 0 {
        return Vec::new();
    }
    let mut chosen: Vec<bool> = vec![false; n];
    let mut count = 0;
    let insert = |chosen: &mut Vec<bool>, index: usize| -> bool {
        if chosen[index] {
            false
        } else {
            chosen[index] = true;
            true
        }
    };
    for &i in &search.probed {
        if insert(&mut chosen, i) {
            count += 1;
        }
    }

    // Half the budget walks outward from the bracket, alternating sides.
    let bracket_budget = budget.div_ceil(2);
    let mut added = 0;
    let mut step = 1usize;
    while added < bracket_budget && count < n {
        let below = search
            .lo
            .or(search.hi)
            .and_then(|anchor| anchor.checked_sub(step));
        let above = search
            .hi
            .or(search.lo)
            .map(|anchor| anchor + step)
            .filter(|&i| i < n);
        if below.is_none() && above.is_none() {
            break;
        }
        for index in [below, above].into_iter().flatten() {
            if added >= bracket_budget || count >= n {
                break;
            }
            if insert(&mut chosen, index) {
                added += 1;
                count += 1;
            }
        }
        step += 1;
    }

    // The other half spreads low-discrepancy samples over the whole axis
    // (skipping points already taken). The iteration cap guarantees
    // termination on small grids.
    let ld_budget = budget - bracket_budget;
    let mut added = 0;
    let mut k = 1u64;
    let cap = 8 * n as u64 + 16;
    while added < ld_budget && count < n && k <= cap {
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let index = ((van_der_corput(k) * n as f64) as usize).min(n - 1);
        if insert(&mut chosen, index) {
            added += 1;
            count += 1;
        }
        k += 1;
    }

    (0..n).filter(|&i| chosen[i]).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::{CsvSink, JsonlSink};
    use crate::spec::{ScenarioSpec, UtilizationGrid};

    fn frontier_spec() -> ScenarioSpec {
        let mut spec = ScenarioSpec::synthetic("frontier-test");
        spec.cores = vec![2];
        // Per-core fractions past 1.0 so every scheme's cliff lies strictly
        // inside the grid (the normalized grids stop at 0.975/core, which
        // HYDRA can still accept).
        spec.utilizations =
            UtilizationGrid::Fractions((1..=24).map(|i| 0.05 * f64::from(i)).collect());
        spec.allocators = vec![AllocatorKind::Hydra, AllocatorKind::SingleCore];
        spec.trials = 4;
        spec.explore = ExploreMode::Frontier(FrontierConfig { refine_budget: 4 });
        spec
    }

    fn session(threads: usize) -> SweepSession {
        SweepSession::new(frontier_spec()).threads(threads)
    }

    /// The frontier search a session over `spec` plans on `threads`.
    fn frontier_plan(spec: ScenarioSpec, threads: usize) -> FrontierPlan {
        SweepSession::new(spec)
            .threads(threads)
            .plan()
            .into_frontier()
            .expect("a frontier spec plans a frontier")
    }

    #[test]
    fn plans_are_identical_across_thread_counts() {
        let reference = frontier_plan(frontier_spec(), 1);
        assert!(!reference.cancelled);
        assert!(!reference.is_empty());
        for threads in [2, 4] {
            assert_eq!(frontier_plan(frontier_spec(), threads), reference);
        }
    }

    #[test]
    fn bisection_brackets_are_adjacent_grid_steps() {
        let plan = frontier_plan(frontier_spec(), 1);
        assert_eq!(plan.slices.len(), 2);
        let utils = frontier_spec().utilizations.points(2);
        // The exhaustive curve of the same spec. Probes reuse its positional
        // streams, so every bracket must be a true crossing of it.
        let mut exhaustive = frontier_spec();
        exhaustive.explore = ExploreMode::Exhaustive;
        let mut acc = SweepAccumulator::new();
        for outcome in &SweepSession::new(exhaustive).run_buffered().outcomes {
            acc.record(outcome);
        }
        let rows = acc.rows();
        let acceptance = |allocator: AllocatorKind, util: f64| {
            rows.iter()
                .find(|r| r.allocator == allocator && r.utilization == Some(util))
                .expect("the exhaustive sweep covers every grid point")
                .acceptance_ratio
        };
        for slice in &plan.slices {
            let (Some(lo), Some(hi)) = (slice.cliff_lo, slice.cliff_hi) else {
                panic!("a grid reaching 1.2 utilization per core must bracket the cliff");
            };
            let lo_idx = utils.iter().position(|&u| u == lo).unwrap();
            let hi_idx = utils.iter().position(|&u| u == hi).unwrap();
            assert_eq!(hi_idx, lo_idx + 1, "bracket must be one grid step");
            assert!(acceptance(slice.allocator, lo) >= CLIFF_THRESHOLD);
            assert!(acceptance(slice.allocator, hi) < CLIFF_THRESHOLD);
            // Far fewer points than the exhaustive grid.
            assert!(slice.points.len() < utils.len() / 2);
            // Emission points are sorted and unique.
            assert!(slice.points.windows(2).all(|w| w[0] < w[1]));
        }
    }

    #[test]
    fn dense_grids_cost_a_tenth_of_the_exhaustive_evaluations() {
        // 320 fractions up to 2.0 per core on 2 and 4 cores: 7,680
        // exhaustive scenarios. Probes and emission together must stay
        // within a tenth of that.
        let mut spec = frontier_spec();
        spec.cores = vec![2, 4];
        spec.utilizations =
            UtilizationGrid::Fractions((1..=320).map(|i| 2.0 * f64::from(i) / 320.0).collect());
        spec.trials = 6;
        let exhaustive = crate::ScenarioGrid::expand(&spec).len();
        assert_eq!(exhaustive, 7_680);
        let plan = frontier_plan(spec, 2);
        assert!(plan
            .slices
            .iter()
            .all(|s| s.cliff_lo.is_some() && s.cliff_hi.is_some()));
        let adaptive = plan.probe_evals + plan.len();
        assert!(
            adaptive * 10 <= exhaustive,
            "{adaptive} adaptive vs {exhaustive} exhaustive evaluations"
        );
    }

    #[test]
    fn emission_is_byte_identical_across_thread_counts() {
        let emit = |threads: usize| {
            let session = session(threads);
            let plan = session.plan();
            let mut sink = JsonlSink::new(Vec::new());
            session.run_plan(&plan, 0..plan.len(), &mut sink).unwrap();
            sink.into_inner()
        };
        let reference = emit(1);
        assert!(!reference.is_empty());
        for threads in [2, 4] {
            assert_eq!(emit(threads), reference, "threads={threads}");
        }
    }

    #[test]
    fn slice_shards_concatenate_to_the_full_run() {
        let session = session(2);
        let plan = session.plan();
        let mut full_csv = CsvSink::new(Vec::new(), true);
        session
            .run_plan(&plan, 0..plan.len(), &mut full_csv)
            .unwrap();
        let full = full_csv.into_inner();
        let mut joined = Vec::new();
        for shard in 1..=2 {
            let range = plan.shard_range(shard, 2);
            let mut sink = CsvSink::new(Vec::new(), shard == 1);
            session.run_plan(&plan, range, &mut sink).unwrap();
            joined.extend_from_slice(&sink.into_inner());
        }
        assert_eq!(joined, full);
        // The shard split is a partition of the scenario list.
        assert_eq!(plan.shard_range(1, 2).start, 0);
        assert_eq!(plan.shard_range(1, 2).end, plan.shard_range(2, 2).start);
        assert_eq!(plan.shard_range(2, 2).end, plan.len());
    }

    #[test]
    fn frontier_rows_carry_cliffs_and_a_nonempty_pareto_front() {
        let session = session(2);
        let plan = session.plan();
        let mut sink = VecSink::new();
        let summary = session.run_plan(&plan, 0..plan.len(), &mut sink).unwrap();
        assert!(!summary.cancelled);
        let plan = plan.frontier().expect("a frontier spec plans a frontier");
        let rows = plan.rows(&summary.partial);
        assert_eq!(
            rows.len(),
            plan.slices.iter().map(|s| s.points.len()).sum::<usize>()
        );
        for slice in &plan.slices {
            let slice_rows: Vec<&FrontierRow> = rows
                .iter()
                .filter(|row| {
                    row.cores == slice.cores
                        && row.allocator == slice.allocator
                        && row.policy == slice.policy
                })
                .collect();
            assert_eq!(slice_rows.len(), slice.points.len());
            assert!(slice_rows.iter().any(|row| row.pareto));
            for row in slice_rows {
                assert_eq!(row.cliff_lo, slice.cliff_lo);
                assert_eq!(row.cliff_hi, slice.cliff_hi);
                assert_eq!(row.scenarios, plan.trials);
            }
        }
        // The artifact rendering matches its header's arity.
        let csv = crate::sink::frontier_to_csv(&rows);
        let commas = crate::sink::FRONTIER_HEADER.matches(',').count();
        for line in csv.lines() {
            assert_eq!(line.matches(',').count(), commas, "{line}");
        }
    }

    #[test]
    fn probe_streams_pair_allocators_on_the_same_problem() {
        // Positional streams: every emitted scenario carries exactly the
        // problem stream the exhaustive grid assigns to the same
        // (cores, utilization, trial, allocator, policy) point, so frontier
        // runs sample the very curve an exhaustive sweep measures.
        let plan = frontier_plan(frontier_spec(), 1);
        let grid = crate::ScenarioGrid::expand(&frontier_spec());
        let exhaustive: std::collections::BTreeMap<_, u64> = grid
            .scenarios()
            .iter()
            .map(|s| {
                let bits = s.utilization.map_or(0, f64::to_bits);
                (
                    (s.cores, bits, s.trial, s.allocator, s.policy),
                    s.problem_stream,
                )
            })
            .collect();
        for s in &plan.scenarios {
            let bits = s.utilization.map_or(0, f64::to_bits);
            assert_eq!(
                exhaustive.get(&(s.cores, bits, s.trial, s.allocator, s.policy)),
                Some(&s.problem_stream),
                "frontier streams must be the exhaustive grid's positional streams"
            );
        }
        let streams_of = |kind: AllocatorKind| -> std::collections::BTreeMap<(u64, usize), u64> {
            plan.scenarios
                .iter()
                .filter(|s| s.allocator == kind)
                .map(|s| {
                    let bits = s.utilization.map_or(0, f64::to_bits);
                    ((bits, s.trial), s.problem_stream)
                })
                .collect()
        };
        let hydra = streams_of(AllocatorKind::Hydra);
        let single = streams_of(AllocatorKind::SingleCore);
        // The slices refine different points, but every address both slices
        // evaluate names the identical problem stream — the paired-join
        // contract. The probed endpoints guarantee a non-empty overlap.
        let shared: Vec<_> = hydra
            .iter()
            .filter(|(k, v)| single.get(k) == Some(v))
            .collect();
        assert!(!shared.is_empty());
        for (key, stream) in &hydra {
            if let Some(other) = single.get(key) {
                assert_eq!(stream, other, "shared address must share its stream");
            }
        }
    }

    #[test]
    fn cancelled_plans_refuse_emission() {
        let session = SweepSession::new(frontier_spec());
        let handle = session.handle();
        let r = FrontierRunner::new(session);
        handle.cancel();
        let mut sink = VecSink::new();
        let (plan, summary) = r.explore(&mut sink).unwrap();
        assert!(plan.cancelled);
        assert!(summary.cancelled);
        assert_eq!(summary.evaluated(), 0);
        assert!(sink.outcomes().is_empty());
    }

    #[test]
    fn van_der_corput_is_the_base2_radical_inverse() {
        let head: Vec<f64> = (1..=6).map(van_der_corput).collect();
        assert_eq!(head, vec![0.5, 0.25, 0.75, 0.125, 0.625, 0.375]);
    }

    #[test]
    fn degenerate_grids_still_plan() {
        // Single-point grid: the lone probe decides the side.
        let mut spec = frontier_spec();
        spec.utilizations = UtilizationGrid::Fractions(vec![0.2]);
        spec.allocators = vec![AllocatorKind::Hydra];
        let plan = frontier_plan(spec, 1);
        assert_eq!(plan.slices.len(), 1);
        assert_eq!(plan.slices[0].points.len(), 1);
        assert!(plan.slices[0].cliff_lo.is_some() ^ plan.slices[0].cliff_hi.is_some());
        // No utilization axis: nothing to search, nothing to emit.
        let mut fixed = frontier_spec();
        fixed.utilizations = UtilizationGrid::NotApplicable;
        let plan = frontier_plan(fixed, 1);
        assert!(plan.is_empty());
        assert!(plan.slices.iter().all(|s| s.points.is_empty()));
    }
}
