//! Structured result sinks: streaming JSONL / CSV writers and the aggregate
//! summary rendering.
//!
//! All renderings are **byte-deterministic** for a fixed spec: outcomes are
//! serialized in grid order with a fixed field order, floats are formatted
//! with Rust's shortest-round-trip formatter, and no wall-clock data is ever
//! included. The determinism property tests diff these bytes across runs,
//! thread counts and shard splits.
//!
//! The [`OutcomeSink`] trait is the streaming half: the executor feeds it one
//! outcome at a time **in grid order** (a reorder buffer over the parallel
//! workers restores the order), so a sweep's memory footprint no longer
//! scales with the grid — [`JsonlSink`] and [`CsvSink`] write each record as
//! it arrives and retain nothing. [`VecSink`] is the buffered adapter the
//! compatibility API [`crate::Executor::run`] uses.

use std::fmt::Write as _;

use crate::agg::AggregateRow;
use crate::scenario::ScenarioOutcome;

/// Escapes a string for embedding in a JSON value.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Formats an f64 as a JSON number (shortest round-trip; `null` for
/// non-finite values, which JSON cannot represent).
fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_owned()
    }
}

fn opt_f64(v: Option<f64>) -> String {
    v.map_or_else(|| "null".to_owned(), json_f64)
}

/// Renders one outcome as a single JSON line with a fixed field order.
#[must_use]
pub fn outcome_to_json(outcome: &ScenarioOutcome) -> String {
    let s = &outcome.scenario;
    let mut line = String::with_capacity(256);
    let _ = write!(
        line,
        "{{\"index\":{},\"cores\":{},\"utilization\":{},\"allocator\":\"{}\",\"policy\":\"{}\",\
         \"trial\":{},\"stream\":{},\"feasible\":{},\"schedulable\":{},\"n_rt\":{},\"n_sec\":{},\
         \"total_utilization\":{},\"cumulative_tightness\":{},\"mean_tightness\":{},\
         \"period_slack\":{},\"freq_ratio\":{}",
        s.index,
        s.cores,
        opt_f64(s.utilization),
        s.allocator.label(),
        s.policy.label(),
        s.trial,
        s.problem_stream,
        outcome.feasible,
        outcome.schedulable,
        outcome.n_rt,
        outcome.n_sec,
        json_f64(outcome.total_utilization),
        opt_f64(outcome.cumulative_tightness),
        opt_f64(outcome.mean_tightness),
        opt_f64(outcome.period_slack),
        opt_f64(outcome.freq_ratio),
    );
    if let Some(error) = &outcome.error {
        let _ = write!(line, ",\"error\":\"{}\"", json_escape(error));
    }
    if let Some(d) = &outcome.detection {
        let _ = write!(
            line,
            ",\"detection\":{{\"injected\":{},\"detected\":{},\"missed\":{},\"mean_ms\":{},\
             \"median_ms\":{},\"p95_ms\":{},\"max_ms\":{}}}",
            d.injected,
            d.detected,
            d.missed,
            opt_f64(d.mean_ms),
            opt_f64(d.median_ms),
            opt_f64(d.p95_ms),
            opt_f64(d.max_ms),
        );
    }
    line.push('}');
    line
}

/// The header line of the per-scenario CSV rendering (no trailing newline).
pub const CSV_HEADER: &str = "index,cores,utilization,allocator,policy,trial,stream,feasible,\
                              schedulable,n_rt,n_sec,total_utilization,cumulative_tightness,\
                              mean_tightness,period_slack,freq_ratio,detected,missed,\
                              mean_detection_ms";

/// Renders one outcome as a CSV row matching [`CSV_HEADER`] (no newline).
#[must_use]
pub fn outcome_to_csv_row(outcome: &ScenarioOutcome) -> String {
    let s = &outcome.scenario;
    let csv_opt = |v: Option<f64>| v.map_or(String::new(), |v| format!("{v}"));
    format!(
        "{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{}",
        s.index,
        s.cores,
        csv_opt(s.utilization),
        s.allocator.label(),
        s.policy.label(),
        s.trial,
        s.problem_stream,
        outcome.feasible,
        outcome.schedulable,
        outcome.n_rt,
        outcome.n_sec,
        outcome.total_utilization,
        csv_opt(outcome.cumulative_tightness),
        csv_opt(outcome.mean_tightness),
        csv_opt(outcome.period_slack),
        csv_opt(outcome.freq_ratio),
        outcome
            .detection
            .as_ref()
            .map_or(String::new(), |d| d.detected.to_string()),
        outcome
            .detection
            .as_ref()
            .map_or(String::new(), |d| d.missed.to_string()),
        csv_opt(outcome.detection.as_ref().and_then(|d| d.mean_ms)),
    )
}

/// A consumer of scenario outcomes, fed **in grid order** by the streaming
/// executor ([`crate::Executor::run_streaming`]).
///
/// Implementations should write or fold each record as it arrives and retain
/// O(1) state, so sweep memory stays bounded regardless of grid size.
///
/// `Send` is required because the parallel executor's reorder buffer hands
/// the sink across worker threads (exactly one worker drains it at a time,
/// under a lock, so `Sync` is not needed).
pub trait OutcomeSink: Send {
    /// Consumes the next outcome (called in ascending grid-index order).
    ///
    /// # Errors
    ///
    /// Returns an I/O error to abort the sweep (e.g. a full disk).
    fn record(&mut self, outcome: &ScenarioOutcome) -> std::io::Result<()>;

    /// Called once after the last outcome of the swept range.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from flushing buffered output.
    fn finish(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Streams outcomes as JSONL (one JSON object per line) to any writer.
#[derive(Debug)]
pub struct JsonlSink<W: std::io::Write> {
    writer: W,
    bytes: u64,
}

impl<W: std::io::Write> JsonlSink<W> {
    /// Wraps a writer.
    pub fn new(writer: W) -> Self {
        JsonlSink { writer, bytes: 0 }
    }

    /// Bytes handed to the writer so far (a flushed writer's file length).
    pub fn bytes_written(&self) -> u64 {
        self.bytes
    }

    /// Returns the inner writer.
    pub fn into_inner(self) -> W {
        self.writer
    }

    /// The inner writer (e.g. to flush it).
    pub fn get_mut(&mut self) -> &mut W {
        &mut self.writer
    }
}

impl<W: std::io::Write + Send> OutcomeSink for JsonlSink<W> {
    fn record(&mut self, outcome: &ScenarioOutcome) -> std::io::Result<()> {
        let mut line = outcome_to_json(outcome);
        line.push('\n');
        self.writer.write_all(line.as_bytes())?;
        self.bytes += line.len() as u64;
        Ok(())
    }

    fn finish(&mut self) -> std::io::Result<()> {
        self.writer.flush()
    }
}

/// Streams outcomes as CSV rows to any writer.
///
/// The header is written before the first record when `with_header` is set —
/// shard 1 of a split sweep writes it, later shards suppress it so the
/// concatenation of all shard files is byte-identical to a single-run CSV.
#[derive(Debug)]
pub struct CsvSink<W: std::io::Write> {
    writer: W,
    bytes: u64,
    header_pending: bool,
}

impl<W: std::io::Write> CsvSink<W> {
    /// Wraps a writer; `with_header` controls whether [`CSV_HEADER`] is
    /// emitted before the first row.
    pub fn new(writer: W, with_header: bool) -> Self {
        CsvSink {
            writer,
            bytes: 0,
            header_pending: with_header,
        }
    }

    /// Bytes handed to the writer so far (a flushed writer's file length).
    pub fn bytes_written(&self) -> u64 {
        self.bytes
    }

    /// Returns the inner writer.
    pub fn into_inner(self) -> W {
        self.writer
    }

    /// The inner writer (e.g. to flush it).
    pub fn get_mut(&mut self) -> &mut W {
        &mut self.writer
    }

    fn write_line(&mut self, line: &str) -> std::io::Result<()> {
        self.writer.write_all(line.as_bytes())?;
        self.writer.write_all(b"\n")?;
        self.bytes += line.len() as u64 + 1;
        Ok(())
    }
}

impl<W: std::io::Write + Send> OutcomeSink for CsvSink<W> {
    fn record(&mut self, outcome: &ScenarioOutcome) -> std::io::Result<()> {
        if self.header_pending {
            self.header_pending = false;
            self.write_line(CSV_HEADER)?;
        }
        self.write_line(&outcome_to_csv_row(outcome))
    }

    fn finish(&mut self) -> std::io::Result<()> {
        // An empty shard of a headered CSV still owes its header.
        if self.header_pending {
            self.header_pending = false;
            self.write_line(CSV_HEADER)?;
        }
        self.writer.flush()
    }
}

/// Buffers outcomes in memory — the adapter behind the non-streaming
/// [`crate::Executor::run`]. Memory scales with the grid; prefer the
/// streaming sinks for large sweeps.
#[derive(Debug, Default)]
pub struct VecSink {
    outcomes: Vec<ScenarioOutcome>,
}

impl VecSink {
    /// Creates an empty buffer.
    #[must_use]
    pub fn new() -> Self {
        VecSink::default()
    }

    /// The buffered outcomes, in grid order.
    #[must_use]
    pub fn into_outcomes(self) -> Vec<ScenarioOutcome> {
        self.outcomes
    }

    /// Borrows the buffered outcomes, in grid order.
    #[must_use]
    pub fn outcomes(&self) -> &[ScenarioOutcome] {
        &self.outcomes
    }
}

impl OutcomeSink for VecSink {
    fn record(&mut self, outcome: &ScenarioOutcome) -> std::io::Result<()> {
        self.outcomes.push(outcome.clone());
        Ok(())
    }
}

/// Discards every outcome — for sweeps consumed purely through the online
/// aggregates (e.g. the Figure 2 driver).
#[derive(Debug, Default, Clone, Copy)]
pub struct NullSink;

impl OutcomeSink for NullSink {
    fn record(&mut self, _outcome: &ScenarioOutcome) -> std::io::Result<()> {
        Ok(())
    }
}

/// Fans one outcome stream out to several sinks (e.g. JSONL + CSV +
/// checkpointer in the `dse` CLI).
#[derive(Debug, Default)]
pub struct TeeSink<'a> {
    sinks: Vec<&'a mut dyn OutcomeSink>,
}

impl<'a> TeeSink<'a> {
    /// Creates an empty tee.
    #[must_use]
    pub fn new() -> Self {
        TeeSink { sinks: Vec::new() }
    }

    /// Adds a downstream sink.
    #[must_use]
    pub fn with(mut self, sink: &'a mut dyn OutcomeSink) -> Self {
        self.sinks.push(sink);
        self
    }
}

impl std::fmt::Debug for dyn OutcomeSink + '_ {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("dyn OutcomeSink")
    }
}

impl OutcomeSink for TeeSink<'_> {
    fn record(&mut self, outcome: &ScenarioOutcome) -> std::io::Result<()> {
        for sink in &mut self.sinks {
            sink.record(outcome)?;
        }
        Ok(())
    }

    fn finish(&mut self) -> std::io::Result<()> {
        for sink in &mut self.sinks {
            sink.finish()?;
        }
        Ok(())
    }
}

/// Renders all outcomes as JSONL (one JSON object per line, grid order).
#[must_use]
pub fn to_jsonl(outcomes: &[ScenarioOutcome]) -> String {
    let mut out = String::new();
    for outcome in outcomes {
        out.push_str(&outcome_to_json(outcome));
        out.push('\n');
    }
    out
}

/// Renders all outcomes as a flat CSV (header + one row per scenario).
#[must_use]
pub fn to_csv(outcomes: &[ScenarioOutcome]) -> String {
    let mut out = String::from(CSV_HEADER);
    out.push('\n');
    for outcome in outcomes {
        out.push_str(&outcome_to_csv_row(outcome));
        out.push('\n');
    }
    out
}

/// Renders the aggregate summary as CSV.
#[must_use]
pub fn summary_to_csv(rows: &[AggregateRow]) -> String {
    let mut out = String::from(
        "cores,allocator,policy,utilization,scenarios,feasible,scheduled,acceptance_ratio,\
         mean_tightness,p50_tightness,p99_tightness,mean_freq_ratio\n",
    );
    for row in rows {
        let _ = writeln!(
            out,
            "{},{},{},{},{},{},{},{},{},{},{},{}",
            row.cores,
            row.allocator.label(),
            row.policy.label(),
            row.utilization.map_or(String::new(), |v| format!("{v}")),
            row.scenarios,
            row.feasible,
            row.scheduled,
            row.acceptance_ratio,
            row.mean_tightness,
            row.p50_tightness,
            row.p99_tightness,
            row.mean_freq_ratio,
        );
    }
    out
}

/// The header line of the frontier artifact CSV (no trailing newline) — one
/// row per probed utilization point of each `(cores, allocator, policy)`
/// slice, carrying that slice's final cliff bracket and the in-slice
/// Pareto-front flag.
pub const FRONTIER_HEADER: &str = "cores,allocator,policy,utilization,scenarios,feasible,\
                                   schedulable,acceptance_ratio,mean_tightness,mean_freq_ratio,\
                                   cliff_lo,cliff_hi,pareto";

/// Renders one frontier row as a CSV line matching [`FRONTIER_HEADER`]
/// (no newline).
#[must_use]
pub fn frontier_row_to_csv(row: &crate::frontier::FrontierRow) -> String {
    let csv_opt = |v: Option<f64>| v.map_or(String::new(), |v| format!("{v}"));
    format!(
        "{},{},{},{},{},{},{},{},{},{},{},{},{}",
        row.cores,
        row.allocator.label(),
        row.policy.label(),
        row.utilization,
        row.scenarios,
        row.feasible,
        row.scheduled,
        row.acceptance_ratio,
        row.mean_tightness,
        row.mean_freq_ratio,
        csv_opt(row.cliff_lo),
        csv_opt(row.cliff_hi),
        row.pareto,
    )
}

/// Renders the full frontier artifact (header + one row per probed point,
/// slices in spec order, utilizations ascending within each slice).
#[must_use]
pub fn frontier_to_csv(rows: &[crate::frontier::FrontierRow]) -> String {
    let mut out = String::from(FRONTIER_HEADER);
    out.push('\n');
    for row in rows {
        out.push_str(&frontier_row_to_csv(row));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agg::SweepAccumulator;
    use crate::exec::Executor;
    use crate::scenario::{DetectionStats, Scenario, ScenarioOutcome};
    use crate::spec::{AllocatorKind, ScenarioSpec, UtilizationGrid};

    fn outcomes() -> Vec<ScenarioOutcome> {
        let mut spec = ScenarioSpec::synthetic("sink-test");
        spec.cores = vec![2];
        spec.utilizations = UtilizationGrid::Fractions(vec![0.2]);
        spec.allocators = vec![AllocatorKind::Hydra];
        spec.trials = 2;
        Executor::serial().run(&spec).outcomes
    }

    #[test]
    fn jsonl_has_one_wellformed_line_per_outcome() {
        let outcomes = outcomes();
        let jsonl = to_jsonl(&outcomes);
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), outcomes.len());
        for line in lines {
            assert!(line.starts_with('{') && line.ends_with('}'));
            assert!(line.contains("\"allocator\":\"hydra\""));
            assert!(line.contains("\"schedulable\":"));
            // Balanced braces (no stray quotes breaking the structure).
            assert_eq!(
                line.matches('{').count(),
                line.matches('}').count(),
                "{line}"
            );
        }
    }

    #[test]
    fn csv_rows_match_header_arity() {
        let csv = to_csv(&outcomes());
        let mut lines = csv.lines();
        let header_fields = lines.next().unwrap().matches(',').count();
        for line in lines {
            assert_eq!(line.matches(',').count(), header_fields, "{line}");
        }
    }

    #[test]
    fn streaming_sinks_match_the_buffered_renderings() {
        let outcomes = outcomes();
        let mut jsonl = JsonlSink::new(Vec::new());
        let mut csv = CsvSink::new(Vec::new(), true);
        for outcome in &outcomes {
            jsonl.record(outcome).unwrap();
            csv.record(outcome).unwrap();
        }
        jsonl.finish().unwrap();
        csv.finish().unwrap();
        assert_eq!(jsonl.bytes_written(), to_jsonl(&outcomes).len() as u64);
        assert_eq!(
            String::from_utf8(jsonl.into_inner()).unwrap(),
            to_jsonl(&outcomes)
        );
        assert_eq!(
            String::from_utf8(csv.into_inner()).unwrap(),
            to_csv(&outcomes)
        );
    }

    #[test]
    fn headerless_csv_shards_concatenate_to_the_full_csv() {
        let outcomes = outcomes();
        let (head, tail) = outcomes.split_at(1);
        let mut first = CsvSink::new(Vec::new(), true);
        let mut second = CsvSink::new(Vec::new(), false);
        for o in head {
            first.record(o).unwrap();
        }
        for o in tail {
            second.record(o).unwrap();
        }
        first.finish().unwrap();
        second.finish().unwrap();
        let mut joined = first.into_inner();
        joined.extend_from_slice(&second.into_inner());
        assert_eq!(String::from_utf8(joined).unwrap(), to_csv(&outcomes));
    }

    #[test]
    fn zero_detection_serializes_as_null_and_empty() {
        // Regression: an outcome that detected nothing must not render 0.0.
        let scenario = Scenario {
            index: 0,
            cores: 2,
            utilization: None,
            allocator: AllocatorKind::Hydra,
            policy: crate::spec::PeriodPolicy::Fixed,
            trial: 0,
            problem_stream: 0,
        };
        let mut outcome = ScenarioOutcome::infeasible(scenario, 3, 2, 0.5);
        outcome.feasible = true;
        outcome.schedulable = true;
        outcome.detection = Some(DetectionStats::from_sorted_latencies(4, Vec::new()));
        let json = outcome_to_json(&outcome);
        assert!(
            json.contains(
                "\"detection\":{\"injected\":4,\"detected\":0,\"missed\":4,\"mean_ms\":null,\
                 \"median_ms\":null,\"p95_ms\":null,\"max_ms\":null}"
            ),
            "{json}"
        );
        let row = outcome_to_csv_row(&outcome);
        assert!(row.ends_with(",0,4,"), "{row}");
    }

    #[test]
    fn summary_csv_renders_aggregates() {
        let mut acc = SweepAccumulator::new();
        for outcome in &outcomes() {
            acc.record(outcome);
        }
        let rows = acc.rows();
        let csv = summary_to_csv(&rows);
        assert_eq!(csv.lines().count(), rows.len() + 1);
        assert!(csv.contains("acceptance_ratio"));
    }

    #[test]
    fn json_escaping_handles_special_characters() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
        assert_eq!(json_f64(f64::NAN), "null");
        assert_eq!(json_f64(1.5), "1.5");
    }
}
