//! Observability wiring for the sweep engine: the fixed phase list, the
//! metric names of the documented `metrics.json` schema, and the per-sweep
//! / per-worker handle bundles the executor threads record through.
//!
//! Everything here follows the `rt-obs` overhead contract: a disabled
//! [`SweepObs`] hands out inert handles, the executor's outputs are
//! byte-identical with observability on or off, and the enabled hot path
//! per scenario is a handful of relaxed atomics plus (when tracing) two
//! clock reads per phase.
//!
//! # Metric names
//!
//! Counters (all monotonic over the run):
//!
//! | name | meaning |
//! |------|---------|
//! | `sweep.scenarios_done` | scenarios fully evaluated |
//! | `sweep.backpressure_waits` | times a worker blocked on the reorder window |
//! | `sweep.backpressure_wait_ns` | total time workers spent blocked |
//! | `memo.{problem,feasibility,allocation}_{hits,misses}` | memo cache traffic |
//! | `sim.{releases,completions,truncated,preemptions,idle_jumps}` | simulator scheduling events; on a core that takes the simulator's supply path they count security-level events only |
//! | `sim.supply_fallbacks` | simulated cores whose real-time tasks went unobserved but which took the event path because a supply-path precondition failed |
//! | `optimal.{visited,pruned,total}` | branch-and-bound search statistics |
//! | `checkpoint.writes` | checkpoint files durably written (CLI only) |
//!
//! Gauges: `drain.reorder_depth` — outcomes parked in the reorder buffer.
//!
//! Histograms: `sweep.scenario_ns` — per-scenario evaluation latency.
//!
//! # Trace tracks
//!
//! Chrome-trace `tid`s are worker indices; [`ENGINE_TRACK`] is the
//! synthetic track carrying engine-level (non-worker) events such as
//! checkpoint writes.

use std::time::Duration;

use rt_obs::{Counter, Histogram, PhaseRow, Registry, ShardHandle, Tracer, WorkerTracer};
use rt_sim::SimStats;

/// The per-scenario phases, in canonical order. Indices into this slice are
/// the `PHASE_*` constants.
pub const PHASES: &[&str] = &[
    "generate",
    "partition",
    "allocate",
    "period_policy",
    "simulate",
    "sink",
    "checkpoint",
];

/// Task-set generation (a problem-memo miss).
pub const PHASE_GENERATE: usize = 0;
/// Real-time partitioning (once per problem group and core count; nests
/// inside `allocate`).
pub const PHASE_PARTITION: usize = 1;
/// The placement search (an allocation-memo miss).
pub const PHASE_ALLOCATE: usize = 2;
/// Period re-optimisation of the period-policy axis.
pub const PHASE_PERIOD_POLICY: usize = 3;
/// The attack-detection simulation.
pub const PHASE_SIMULATE: usize = 4;
/// Handing an in-order outcome to the sink.
pub const PHASE_SINK: usize = 5;
/// A durable checkpoint write (CLI).
pub const PHASE_CHECKPOINT: usize = 6;

/// The registry shard / trace track used for engine-level recording that
/// belongs to no worker (the memo cache, checkpoint writes).
pub const ENGINE_TRACK: usize = usize::MAX;

/// The observability bundle of one sweep: a metrics [`Registry`] plus a
/// phase [`Tracer`], threaded through the executor. Cheap to clone.
#[derive(Debug, Clone, Default)]
pub struct SweepObs {
    registry: Registry,
    tracer: Tracer,
}

impl SweepObs {
    /// Observability with `metrics` (the registry) and `tracing` (phase
    /// spans) independently switchable — `--metrics-out`/`--progress` need
    /// only the former, `--trace-out` the latter.
    #[must_use]
    pub fn new(metrics: bool, tracing: bool) -> Self {
        SweepObs {
            registry: if metrics {
                Registry::enabled()
            } else {
                Registry::disabled()
            },
            tracer: if tracing {
                Tracer::enabled(PHASES)
            } else {
                Tracer::disabled()
            },
        }
    }

    /// Fully enabled observability (metrics and tracing).
    #[must_use]
    pub fn enabled() -> Self {
        SweepObs::new(true, true)
    }

    /// Fully disabled observability — the default; every handle is inert.
    #[must_use]
    pub fn disabled() -> Self {
        SweepObs::default()
    }

    /// Whether any recording (metrics or tracing) is on.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.registry.is_enabled() || self.tracer.is_enabled()
    }

    /// The metrics registry.
    #[must_use]
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// The phase tracer.
    #[must_use]
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// The merged per-phase time table, in [`PHASES`] order (empty when
    /// tracing is off). `allocate` rows include the `partition` time nested
    /// inside them on a memo miss.
    #[must_use]
    pub fn phase_rows(&self) -> Vec<PhaseRow> {
        self.tracer.phase_rows()
    }

    /// Renders the documented `metrics.json` document: the registry
    /// snapshot plus the per-phase table.
    #[must_use]
    pub fn metrics_json(&self) -> String {
        self.registry
            .snapshot()
            .to_json_with_phases(&self.phase_rows())
    }

    /// The recording bundle for worker `index`.
    #[must_use]
    pub fn worker(&self, index: usize) -> WorkerObs {
        let shard = self.registry.shard(index);
        WorkerObs {
            tracer: self.tracer.worker(index),
            scenarios_done: shard.counter("sweep.scenarios_done"),
            scenario_ns: shard.histogram("sweep.scenario_ns"),
            backpressure_waits: shard.counter("sweep.backpressure_waits"),
            backpressure_wait_ns: shard.counter("sweep.backpressure_wait_ns"),
            shard,
        }
    }
}

/// One worker's pre-resolved recording handles. Inert when the sweep's
/// observability is disabled.
#[derive(Debug, Clone, Default)]
pub struct WorkerObs {
    /// Phase span recorder (worker index = trace `tid`).
    pub tracer: WorkerTracer,
    /// `sweep.scenarios_done`.
    pub scenarios_done: Counter,
    /// `sweep.scenario_ns`.
    pub scenario_ns: Histogram,
    /// `sweep.backpressure_waits`.
    pub backpressure_waits: Counter,
    /// `sweep.backpressure_wait_ns`.
    pub backpressure_wait_ns: Counter,
    shard: ShardHandle,
}

impl WorkerObs {
    /// An inert bundle (what a disabled [`SweepObs`] hands out).
    #[must_use]
    pub fn disabled() -> Self {
        WorkerObs::default()
    }

    /// Whether metric recording is on (gates the per-scenario clock reads
    /// that feed `sweep.scenario_ns`).
    #[must_use]
    pub fn metrics_enabled(&self) -> bool {
        self.shard.is_enabled()
    }

    /// Folds a worker's accumulated [`SimStats`] into the `sim.*` counters
    /// (called once per worker at drain, with the stats delta since the
    /// last fold).
    pub fn add_sim_stats(&self, stats: SimStats) {
        if !self.shard.is_enabled() {
            return;
        }
        self.shard.counter("sim.releases").add(stats.releases);
        self.shard.counter("sim.completions").add(stats.completions);
        self.shard.counter("sim.truncated").add(stats.truncated);
        self.shard.counter("sim.preemptions").add(stats.preemptions);
        self.shard.counter("sim.idle_jumps").add(stats.idle_jumps);
        self.shard
            .counter("sim.supply_fallbacks")
            .add(stats.supply_fallbacks);
    }

    /// Folds an Optimal branch-and-bound run's search statistics into the
    /// `optimal.*` counters (u128 totals saturate at `u64::MAX`).
    pub fn add_search_stats(&self, visited: u128, pruned: u128, total: u128) {
        if !self.shard.is_enabled() {
            return;
        }
        let clamp = |v: u128| u64::try_from(v).unwrap_or(u64::MAX);
        self.shard.counter("optimal.visited").add(clamp(visited));
        self.shard.counter("optimal.pruned").add(clamp(pruned));
        self.shard.counter("optimal.total").add(clamp(total));
    }

    /// Records one scenario's evaluation latency (`sweep.scenario_ns`) and
    /// bumps `sweep.scenarios_done`.
    pub fn record_scenario(&self, elapsed: Option<Duration>) {
        if let Some(elapsed) = elapsed {
            self.scenario_ns
                .record(u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX));
        }
        self.scenarios_done.inc();
    }
}

/// Renders the per-phase time table as the aligned text block the CLI
/// appends to its stderr summary (empty string when no phase ever ran).
#[must_use]
pub fn phase_table(rows: &[PhaseRow]) -> String {
    if rows.iter().all(|r| r.count == 0) {
        return String::new();
    }
    let mut out = String::from("phase           count      total (ms)    mean (us)     max (us)\n");
    for row in rows {
        let mean_us = row.mean_ns().map_or(0.0, |m| m / 1_000.0);
        out.push_str(&format!(
            "{:<14} {:>7} {:>14.3} {:>12.2} {:>12.2}\n",
            row.name,
            row.count,
            row.total_ns as f64 / 1_000_000.0,
            mean_us,
            row.max_ns as f64 / 1_000.0,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_obs_hands_out_inert_handles() {
        let obs = SweepObs::disabled();
        assert!(!obs.is_enabled());
        let worker = obs.worker(0);
        assert!(!worker.metrics_enabled());
        worker.record_scenario(None);
        worker.add_sim_stats(SimStats::default());
        worker.add_search_stats(1, 2, 3);
        assert!(obs.registry().snapshot().counters.is_empty());
        assert!(obs.phase_rows().is_empty());
    }

    #[test]
    fn metrics_only_obs_records_counters_but_no_phases() {
        let obs = SweepObs::new(true, false);
        assert!(obs.is_enabled());
        let worker = obs.worker(0);
        assert!(worker.metrics_enabled());
        assert!(!worker.tracer.is_enabled());
        worker.record_scenario(Some(Duration::from_micros(5)));
        worker.add_search_stats(10, 5, 15);
        let snap = obs.registry().snapshot();
        assert_eq!(snap.counter("sweep.scenarios_done"), 1);
        assert_eq!(snap.counter("optimal.total"), 15);
        assert_eq!(snap.histograms["sweep.scenario_ns"].count, 1);
        assert!(obs.phase_rows().is_empty());
    }

    #[test]
    fn fully_enabled_obs_renders_the_documented_schema() {
        let obs = SweepObs::enabled();
        let worker = obs.worker(0);
        drop(worker.tracer.span(PHASE_SIMULATE));
        worker.add_sim_stats(SimStats {
            releases: 3,
            completions: 2,
            truncated: 1,
            preemptions: 0,
            idle_jumps: 4,
            supply_fallbacks: 2,
        });
        let json = obs.metrics_json();
        assert!(json.contains("\"schema\": \"rt-obs/v1\""));
        assert!(json.contains("\"sim.releases\": 3"));
        assert!(json.contains("\"sim.supply_fallbacks\": 2"));
        assert!(json.contains("\"simulate\": { \"count\": 1"));
        // Every phase appears in the table, in order.
        let rows = obs.phase_rows();
        assert_eq!(rows.len(), PHASES.len());
        assert_eq!(rows[PHASE_SIMULATE].count, 1);
        assert_eq!(rows[PHASE_GENERATE].count, 0);
    }

    #[test]
    fn phase_table_is_empty_without_spans_and_aligned_with_them() {
        let obs = SweepObs::enabled();
        assert_eq!(phase_table(&obs.phase_rows()), "");
        drop(obs.worker(1).tracer.span(PHASE_ALLOCATE));
        let table = phase_table(&obs.phase_rows());
        assert!(table.starts_with("phase"));
        assert!(table.contains("allocate"));
        assert_eq!(table.lines().count(), 1 + PHASES.len());
    }
}
