//! Online aggregation of scenario outcomes into summary series.
//!
//! Two views cover the paper's evaluation and most follow-on questions:
//!
//! * [`SweepAccumulator`] — per `(cores, allocator, period policy,
//!   utilization)` group: acceptance ratio over the Eq. (1)-feasible task
//!   sets, and mean / p50 / p99 of the cumulative tightness over the
//!   scheduled ones;
//! * [`PairedSink`] — joins two allocators' outcomes on the shared problem
//!   instance (same seed-stream address, same period policy) and reports
//!   the tightness gap over the task sets **both** schemes scheduled, which
//!   is exactly the Figure 3 metric.
//!
//! Both are **online**: they fold outcomes one at a time, so the streaming
//! executor never has to retain the full outcome vector. The executor keeps
//! one [`SweepAccumulator`] per worker and merges the partials at the end
//! (built on [`AcceptanceCounter::merge`]); results are independent of the
//! fold order because every finalization step sorts before summing. Per
//! group, only the scheduled scenarios' tightness samples are retained
//! (8 bytes each — required for exact percentiles); everything else is O(1)
//! counters.
//!
//! All group state lives in `BTreeMap`s (lint rule D001): rendering walks
//! the maps in key order directly, so determinism is a property of the
//! container, not of a sort step someone could forget.

use std::collections::BTreeMap;

use hydra_core::metrics::{mean, percentile_sorted, AcceptanceCounter};

use crate::scenario::ScenarioOutcome;
use crate::sink::OutcomeSink;
use crate::spec::{AllocatorKind, PeriodPolicy};

/// Summary statistics of one `(cores, allocator, policy, utilization)`
/// group.
#[derive(Debug, Clone, PartialEq)]
pub struct AggregateRow {
    /// Number of cores.
    pub cores: usize,
    /// Allocation scheme.
    pub allocator: AllocatorKind,
    /// Period policy applied after allocation.
    pub policy: PeriodPolicy,
    /// Utilization grid value (`None` for fixed workloads).
    pub utilization: Option<f64>,
    /// Scenarios in the group.
    pub scenarios: usize,
    /// Scenarios whose task set passed the Eq. (1) filter.
    pub feasible: usize,
    /// Scenarios the scheme scheduled.
    pub scheduled: usize,
    /// `scheduled / feasible` (`0` when nothing was feasible).
    pub acceptance_ratio: f64,
    /// Mean cumulative tightness over the scheduled scenarios.
    pub mean_tightness: f64,
    /// Median cumulative tightness over the scheduled scenarios.
    pub p50_tightness: f64,
    /// 99th-percentile cumulative tightness over the scheduled scenarios.
    pub p99_tightness: f64,
    /// Mean achieved-vs-desired monitoring-frequency ratio over the
    /// scheduled scenarios that reported one (`0` when none did).
    pub mean_freq_ratio: f64,
}

/// Group key: `(cores, allocator, policy, utilization bit pattern)`. A
/// `None` utilization is stored as bit pattern `0`, which no positive grid
/// value collides with.
type GroupKey = (usize, AllocatorKind, PeriodPolicy, u64);

fn group_key(outcome: &ScenarioOutcome) -> GroupKey {
    (
        outcome.scenario.cores,
        outcome.scenario.allocator,
        outcome.scenario.policy,
        outcome.scenario.utilization.map_or(0, f64::to_bits),
    )
}

/// Per-group online state.
#[derive(Debug, Clone, Default)]
struct GroupAcc {
    /// `accepted` = Eq. (1)-feasible scenarios, `total` = all scenarios.
    feasible: AcceptanceCounter,
    /// `accepted` = scheduled scenarios, `total` = feasible scenarios.
    scheduled: AcceptanceCounter,
    /// Cumulative tightness of every scheduled scenario.
    tightness: Vec<f64>,
    /// Achieved-vs-desired frequency ratio of every scheduled scenario that
    /// reported one (scheduled scenarios with an empty security set do not).
    freq_ratio: Vec<f64>,
}

impl GroupAcc {
    fn record(&mut self, outcome: &ScenarioOutcome) {
        self.feasible.record(outcome.feasible);
        if outcome.feasible {
            self.scheduled.record(outcome.schedulable);
        }
        if let Some(t) = outcome.cumulative_tightness {
            self.tightness.push(t);
        }
        if let Some(f) = outcome.freq_ratio {
            self.freq_ratio.push(f);
        }
    }

    fn merge(&mut self, other: GroupAcc) {
        self.feasible.merge(&other.feasible);
        self.scheduled.merge(&other.scheduled);
        self.tightness.extend(other.tightness);
        self.freq_ratio.extend(other.freq_ratio);
    }
}

/// Online per-group aggregation state: fold outcomes in with
/// [`SweepAccumulator::record`] (any order), combine partials with
/// [`SweepAccumulator::merge`], and render the deterministic summary with
/// [`SweepAccumulator::rows`].
#[derive(Debug, Clone, Default)]
pub struct SweepAccumulator {
    groups: BTreeMap<GroupKey, GroupAcc>,
}

impl SweepAccumulator {
    /// Creates an empty accumulator.
    #[must_use]
    pub fn new() -> Self {
        SweepAccumulator::default()
    }

    /// Folds one outcome in.
    pub fn record(&mut self, outcome: &ScenarioOutcome) {
        self.groups
            .entry(group_key(outcome))
            .or_default()
            .record(outcome);
    }

    /// Merges another accumulator (e.g. a worker's partial) into this one.
    /// The final [`SweepAccumulator::rows`] are independent of merge order.
    pub fn merge(&mut self, other: SweepAccumulator) {
        for (key, acc) in other.groups {
            self.groups.entry(key).or_default().merge(acc);
        }
    }

    /// Number of outcomes folded in so far.
    #[must_use]
    pub fn recorded(&self) -> usize {
        self.groups
            .values()
            .map(|g| g.feasible.total() as usize)
            .sum()
    }

    /// Whether nothing has been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.groups.is_empty()
    }

    /// Renders the aggregate rows, sorted by `(cores, allocator, policy,
    /// utilization)` so the output is deterministic (the `BTreeMap` walks
    /// its keys in exactly that order).
    #[must_use]
    pub fn rows(&self) -> Vec<AggregateRow> {
        self.groups
            .iter()
            .map(|(key, group)| {
                let mut tightness = group.tightness.clone();
                tightness.sort_by(f64::total_cmp);
                let mut freq_ratio = group.freq_ratio.clone();
                freq_ratio.sort_by(f64::total_cmp);
                AggregateRow {
                    cores: key.0,
                    allocator: key.1,
                    policy: key.2,
                    utilization: (key.3 != 0).then(|| f64::from_bits(key.3)),
                    scenarios: group.feasible.total() as usize,
                    feasible: group.feasible.accepted() as usize,
                    scheduled: group.scheduled.accepted() as usize,
                    acceptance_ratio: group.scheduled.ratio(),
                    // Sorted input keeps the float sum independent of arrival order.
                    mean_tightness: mean(&tightness),
                    p50_tightness: percentile_sorted(&tightness, 50.0),
                    p99_tightness: percentile_sorted(&tightness, 99.0),
                    mean_freq_ratio: mean(&freq_ratio),
                }
            })
            .collect()
    }

    /// Serializes the accumulator as stable text lines (one `group` line per
    /// group key, tightness and frequency-ratio samples as f64 bit patterns)
    /// for checkpoints. The tightness sample count is explicit so the two
    /// variable-length sample lists can share one line unambiguously.
    #[must_use]
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for (key, group) in &self.groups {
            let _ = write!(
                out,
                "group {} {} {} {:x} {} {} {} {}",
                key.0,
                key.1.label(),
                key.2.label(),
                key.3,
                group.feasible.total(),
                group.feasible.accepted(),
                group.scheduled.accepted(),
                group.tightness.len(),
            );
            for t in &group.tightness {
                let _ = write!(out, " {:x}", t.to_bits());
            }
            for f in &group.freq_ratio {
                let _ = write!(out, " {:x}", f.to_bits());
            }
            out.push('\n');
        }
        out
    }

    /// Parses the [`SweepAccumulator::render`] format.
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed line.
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut acc = SweepAccumulator::new();
        for line in text.lines() {
            let mut fields = line.split_ascii_whitespace();
            if fields.next() != Some("group") {
                return Err(format!("expected a `group` line, got: {line}"));
            }
            let mut next = |what: &str| {
                fields
                    .next()
                    .ok_or_else(|| format!("missing {what} in: {line}"))
            };
            let cores: usize = next("cores")?.parse().map_err(|e| format!("cores: {e}"))?;
            let allocator = next("allocator").map(AllocatorKind::parse)?;
            let allocator = allocator.ok_or_else(|| format!("unknown allocator in: {line}"))?;
            let policy = next("policy").map(PeriodPolicy::parse)?;
            let policy = policy.ok_or_else(|| format!("unknown period policy in: {line}"))?;
            let util_bits = u64::from_str_radix(next("utilization")?, 16)
                .map_err(|e| format!("utilization bits: {e}"))?;
            let scenarios: u64 = next("scenarios")?
                .parse()
                .map_err(|e| format!("scenarios: {e}"))?;
            let feasible: u64 = next("feasible")?
                .parse()
                .map_err(|e| format!("feasible: {e}"))?;
            let scheduled: u64 = next("scheduled")?
                .parse()
                .map_err(|e| format!("scheduled: {e}"))?;
            if feasible > scenarios || scheduled > feasible {
                return Err(format!("inconsistent counters in: {line}"));
            }
            // The tightness count is mandatory (v3 format): without it the
            // tightness and frequency-ratio sample lists are ambiguous, so a
            // pre-freq-ratio v2 line must be rejected, not misread.
            let n_tight: usize = next("tightness count")?
                .parse()
                .map_err(|e| format!("tightness count: {e}"))?;
            let samples: Vec<f64> = fields
                .map(|bits| u64::from_str_radix(bits, 16).map(f64::from_bits))
                .collect::<Result<_, _>>()
                .map_err(|e| format!("sample bits: {e}"))?;
            if samples.len() < n_tight {
                return Err(format!(
                    "tightness count {} exceeds the {} samples in: {line}",
                    n_tight,
                    samples.len()
                ));
            }
            let (tightness, freq_ratio) = samples.split_at(n_tight);
            let previous = acc.groups.insert(
                (cores, allocator, policy, util_bits),
                GroupAcc {
                    feasible: AcceptanceCounter::from_counts(feasible, scenarios),
                    scheduled: AcceptanceCounter::from_counts(scheduled, feasible),
                    tightness: tightness.to_vec(),
                    freq_ratio: freq_ratio.to_vec(),
                },
            );
            if previous.is_some() {
                return Err(format!("duplicate group in: {line}"));
            }
        }
        Ok(acc)
    }
}

/// One point of a paired two-scheme comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct PairedPoint {
    /// Number of cores.
    pub cores: usize,
    /// Period policy both joined outcomes ran under (outcomes are only
    /// joined within one policy — a multi-policy sweep yields one series per
    /// policy).
    pub policy: PeriodPolicy,
    /// Utilization grid value (`None` for fixed workloads).
    pub utilization: Option<f64>,
    /// Task sets both schemes scheduled (the gap is averaged over these).
    pub compared: usize,
    /// Mean cumulative tightness of the first scheme over the compared sets.
    pub a_tightness: f64,
    /// Mean cumulative tightness of the second scheme over the compared sets.
    pub b_tightness: f64,
    /// Mean relative gap `(η_b − η_a)/η_b × 100` over the compared sets.
    pub mean_gap_percent: f64,
    /// Largest observed per-task-set gap in percent.
    pub max_gap_percent: f64,
}

/// Accumulated tightness samples of one `(cores, utilization)` point.
#[derive(Debug, Clone, Default)]
struct PointAcc {
    a_values: Vec<f64>,
    b_values: Vec<f64>,
    gaps: Vec<f64>,
}

/// One half-joined problem instance: each slot is `Some` once that scheme's
/// outcome arrived; the inner option is its cumulative tightness (`None`
/// when the scheme did not schedule the task set).
#[derive(Debug, Clone, Copy, Default)]
struct PendingPair {
    a: Option<Option<f64>>,
    b: Option<Option<f64>>,
}

/// An [`OutcomeSink`] that joins the outcomes of two allocators on their
/// shared problem addresses **online** and reports, per `(cores, policy,
/// utilization)` point, the relative tightness gap of `a` below `b` over the
/// task sets both scheduled. Outcomes are joined within one period policy
/// only, so the pairing stays exact when the sweep also carries the policy
/// axis.
///
/// With `a = Hydra` and `b = Optimal` this is the Figure 3 series. Because
/// the allocator and policy axes are innermost in grid order, a pair's two
/// outcomes arrive close together and the pending join state stays O(1) in
/// practice (O(unpaired points) worst case under sampled expansion).
#[derive(Debug)]
pub struct PairedSink {
    a: AllocatorKind,
    b: AllocatorKind,
    pending: BTreeMap<(usize, PeriodPolicy, u64, u64), PendingPair>,
    points: BTreeMap<(usize, PeriodPolicy, u64), PointAcc>,
}

impl PairedSink {
    /// Creates a sink comparing scheme `a` against scheme `b`.
    #[must_use]
    pub fn new(a: AllocatorKind, b: AllocatorKind) -> Self {
        PairedSink {
            a,
            b,
            pending: BTreeMap::new(),
            points: BTreeMap::new(),
        }
    }

    fn fold(&mut self, outcome: &ScenarioOutcome) {
        let s = &outcome.scenario;
        let util_bits = s.utilization.map_or(0, f64::to_bits);
        let is_a = s.allocator == self.a;
        let is_b = s.allocator == self.b;
        if is_a {
            // Every point scheme `a` ran at appears in the series, even when
            // nothing could be compared there.
            self.points
                .entry((s.cores, s.policy, util_bits))
                .or_default();
        }
        if !is_a && !is_b {
            return;
        }
        let key = (s.cores, s.policy, util_bits, s.problem_stream);
        let entry = self.pending.entry(key).or_default();
        if is_a {
            entry.a = Some(outcome.cumulative_tightness);
        }
        if is_b {
            entry.b = Some(outcome.cumulative_tightness);
        }
        if let (Some(ta), Some(tb)) = (entry.a, entry.b) {
            self.pending.remove(&key);
            if let (Some(eta_a), Some(eta_b)) = (ta, tb) {
                let acc = self
                    .points
                    .entry((s.cores, s.policy, util_bits))
                    .or_default();
                acc.a_values.push(eta_a);
                acc.b_values.push(eta_b);
                acc.gaps.push(if eta_b > 0.0 {
                    (eta_b - eta_a) / eta_b * 100.0
                } else {
                    0.0
                });
            }
        }
    }

    /// Renders the comparison series, sorted by `(cores, policy,
    /// utilization)` — the `BTreeMap`'s key order. Order-independent:
    /// every per-point vector is sorted before summing.
    #[must_use]
    pub fn into_points(self) -> Vec<PairedPoint> {
        self.points
            .into_iter()
            .map(|((cores, policy, util_bits), acc)| {
                let mut a_values = acc.a_values;
                let mut b_values = acc.b_values;
                let mut gaps = acc.gaps;
                a_values.sort_by(f64::total_cmp);
                b_values.sort_by(f64::total_cmp);
                gaps.sort_by(f64::total_cmp);
                PairedPoint {
                    cores,
                    policy,
                    utilization: (util_bits != 0).then(|| f64::from_bits(util_bits)),
                    compared: gaps.len(),
                    // Sorted inputs keep the float sums arrival-order independent.
                    a_tightness: mean(&a_values),
                    b_tightness: mean(&b_values),
                    mean_gap_percent: mean(&gaps),
                    max_gap_percent: gaps.last().copied().map_or(0.0, |g| g.max(0.0)),
                }
            })
            .collect()
    }
}

impl OutcomeSink for PairedSink {
    fn record(&mut self, outcome: &ScenarioOutcome) -> std::io::Result<()> {
        self.fold(outcome);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::Executor;
    use crate::spec::{ScenarioSpec, UtilizationGrid};

    fn spec() -> ScenarioSpec {
        let mut spec = ScenarioSpec::synthetic("agg-test");
        spec.cores = vec![2];
        spec.utilizations = UtilizationGrid::Fractions(vec![0.15, 0.4]);
        spec.allocators = vec![AllocatorKind::Hydra, AllocatorKind::SingleCore];
        spec.trials = 4;
        spec
    }

    fn sweep() -> Vec<ScenarioOutcome> {
        Executor::serial().run(&spec()).outcomes
    }

    /// Folds `outcomes` through one accumulator in order.
    fn rows_of(outcomes: &[ScenarioOutcome]) -> Vec<AggregateRow> {
        let mut acc = SweepAccumulator::new();
        for outcome in outcomes {
            acc.record(outcome);
        }
        acc.rows()
    }

    /// Folds `outcomes` through one paired sink in order.
    fn paired(
        outcomes: &[ScenarioOutcome],
        a: AllocatorKind,
        b: AllocatorKind,
    ) -> Vec<PairedPoint> {
        let mut sink = PairedSink::new(a, b);
        for outcome in outcomes {
            sink.fold(outcome);
        }
        sink.into_points()
    }

    #[test]
    fn aggregate_groups_by_cores_allocator_and_utilization() {
        let rows = rows_of(&sweep());
        // 1 core count × 2 allocators × 2 utilization points.
        assert_eq!(rows.len(), 4);
        for row in &rows {
            assert_eq!(row.scenarios, 4);
            assert!(row.feasible <= row.scenarios);
            assert!(row.scheduled <= row.feasible);
            assert!((0.0..=1.0).contains(&row.acceptance_ratio));
            if row.scheduled > 0 {
                assert!(row.mean_tightness > 0.0);
                assert!(row.p99_tightness + 1e-12 >= row.p50_tightness);
            }
        }
        // Deterministic ordering: sorted by (cores, allocator, util).
        let mut sorted = rows.clone();
        sorted.sort_by_key(|r| {
            (
                r.cores,
                r.allocator,
                r.policy,
                r.utilization.map_or(0, f64::to_bits),
            )
        });
        assert_eq!(rows, sorted);
    }

    #[test]
    fn accumulator_partials_merge_to_the_full_aggregate() {
        // Split the outcomes across three "workers" in an arbitrary
        // interleaving: the merged partials must reproduce the one-pass rows
        // exactly (this is the per-worker online-aggregation contract).
        let outcomes = sweep();
        let mut partials = [
            SweepAccumulator::new(),
            SweepAccumulator::new(),
            SweepAccumulator::new(),
        ];
        for (i, outcome) in outcomes.iter().enumerate() {
            partials[(i * 7 + 3) % 3].record(outcome);
        }
        let [a, b, c] = partials;
        let mut merged = SweepAccumulator::new();
        merged.merge(c);
        merged.merge(a);
        merged.merge(b);
        assert_eq!(merged.recorded(), outcomes.len());
        assert_eq!(merged.rows(), rows_of(&outcomes));
    }

    #[test]
    fn accumulator_render_parse_round_trips() {
        let outcomes = sweep();
        let mut acc = SweepAccumulator::new();
        for outcome in &outcomes {
            acc.record(outcome);
        }
        let text = acc.render();
        let restored = SweepAccumulator::parse(&text).unwrap();
        assert_eq!(restored.rows(), acc.rows());
        assert_eq!(restored.recorded(), acc.recorded());
        assert_eq!(restored.render(), text);
        // Malformed inputs are rejected, not misread.
        assert!(SweepAccumulator::parse("bogus 1 2 3").is_err());
        assert!(SweepAccumulator::parse("group 2 hydra fixed zz 1 1 1 0").is_err());
        assert!(SweepAccumulator::parse("group 2 hydra fixed 0 1 2 2 0").is_err());
        assert!(SweepAccumulator::parse("group 2 hydra bogus 0 1 1 1 0").is_err());
        // The pre-policy v1 group format no longer parses (the policy field
        // is mandatory), so stale checkpoints cannot be silently mixed in.
        assert!(SweepAccumulator::parse("group 2 hydra 0 1 1 1").is_err());
        // The pre-freq-ratio v2 format (no tightness count) is rejected too:
        // its trailing bit patterns would otherwise be misread as a count.
        assert!(SweepAccumulator::parse("group 2 hydra fixed 0 1 1 1").is_err());
        // A tightness count that overruns the samples on the line is corrupt.
        assert!(SweepAccumulator::parse("group 2 hydra fixed 0 1 1 1 2 3ff0000000000000").is_err());
        let empty = SweepAccumulator::parse("").unwrap();
        assert!(empty.is_empty());
    }

    #[test]
    fn paired_comparison_joins_on_the_shared_problem() {
        let outcomes = sweep();
        let points = paired(&outcomes, AllocatorKind::Hydra, AllocatorKind::SingleCore);
        assert_eq!(points.len(), 2);
        for p in &points {
            assert!(p.compared <= 4);
            if p.compared > 0 {
                // HYDRA never does worse than SingleCore on tightness, so the
                // gap of (hydra below singlecore) is never positive by much.
                assert!(p.a_tightness + 1e-9 >= p.b_tightness);
                assert!(p.mean_gap_percent <= 1e-9);
                assert!(p.max_gap_percent <= 1e-9 || p.max_gap_percent == 0.0);
            }
        }
    }

    #[test]
    fn paired_sink_streams_to_the_same_series() {
        // The sink fed by a parallel streaming run sees the outcomes in grid
        // order, exactly like a fold over the buffered serial outcomes.
        let mut sink = PairedSink::new(AllocatorKind::Hydra, AllocatorKind::SingleCore);
        Executor::with_threads(2)
            .run_streaming(&spec(), &mut sink)
            .unwrap();
        // Grid order pairs the two schemes back to back, so no join state
        // lingers once the stream ends.
        assert!(sink.pending.is_empty());
        assert_eq!(
            sink.into_points(),
            paired(&sweep(), AllocatorKind::Hydra, AllocatorKind::SingleCore)
        );
    }

    #[test]
    fn policy_axis_groups_and_joins_per_policy() {
        use crate::spec::PeriodPolicy;
        let mut spec = ScenarioSpec::synthetic("agg-policy");
        spec.cores = vec![2];
        spec.utilizations = UtilizationGrid::Fractions(vec![0.2]);
        spec.allocators = vec![AllocatorKind::Hydra, AllocatorKind::SingleCore];
        spec.period_policies = vec![PeriodPolicy::Fixed, PeriodPolicy::Joint];
        spec.trials = 3;
        let outcomes = Executor::serial().run(&spec).outcomes;
        // 1 core count × 2 allocators × 2 policies × 1 utilization point.
        let rows = rows_of(&outcomes);
        assert_eq!(rows.len(), 4);
        for policy in [PeriodPolicy::Fixed, PeriodPolicy::Joint] {
            assert_eq!(rows.iter().filter(|r| r.policy == policy).count(), 2);
        }
        // The paired join never mixes policies: one series per policy, each
        // comparing at most the per-policy trial count.
        let points = paired(&outcomes, AllocatorKind::Hydra, AllocatorKind::SingleCore);
        assert_eq!(points.len(), 2);
        assert_eq!(points[0].policy, PeriodPolicy::Fixed);
        assert_eq!(points[1].policy, PeriodPolicy::Joint);
        for p in &points {
            assert!(p.compared <= 3);
        }
        // Round-trip of the policy-aware render format.
        let mut acc = SweepAccumulator::new();
        for outcome in &outcomes {
            acc.record(outcome);
        }
        let restored = SweepAccumulator::parse(&acc.render()).unwrap();
        assert_eq!(restored.rows(), acc.rows());
    }

    #[test]
    fn empty_outcomes_produce_empty_series() {
        assert!(SweepAccumulator::new().rows().is_empty());
        assert!(
            PairedSink::new(AllocatorKind::Hydra, AllocatorKind::Optimal)
                .into_points()
                .is_empty()
        );
    }
}
