//! `dse` — run design-space sweeps from the command line.
//!
//! ```text
//! dse sweep --cores 2,4,8 --util-steps 13 --allocators hydra,singlecore,optimal \
//!           --trials 5 --seed 2018 --threads 0 --out results/dse
//! dse sweep --workload uav --eval detection --horizon 120 --attacks 200
//! dse sweep --trials 500 --shard 1/4 --out results/dse     # one of four shards
//! dse sweep --trials 500 --resume --out results/dse        # continue a killed run
//! dse sweep --period-policy fixed,adapt,joint --allocators hydra
//! dse list-axes
//! ```
//!
//! `sweep` expands the requested grid, evaluates it on the parallel
//! executor, and **streams** each scenario record to deterministic JSONL /
//! CSV files under `--out` the moment it is ready — peak memory is bounded
//! by the worker count and the reorder window, not the grid size. The
//! aggregate summary is folded online and printed at the end. `--shard i/n`
//! evaluates one contiguous slice of the grid (concatenating all shard
//! files reproduces the single-run output byte for byte), and a periodic
//! checkpoint makes a killed run continuable with `--resume`.

use std::fs;
use std::io::{BufWriter, Seek, SeekFrom, Write as _};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

use rt_dse::obs::PHASE_CHECKPOINT;
use rt_dse::prelude::*;
use rt_dse::sink::{frontier_row_to_csv, summary_to_csv, FRONTIER_HEADER};
use rt_dse::{phase_table, sweep_fingerprint, Checkpoint, MemoStats, SweepObs, ENGINE_TRACK};
use rt_obs::{peak_rss_bytes, Counter, Heartbeat, WorkerTracer};

const USAGE: &str = "\
dse — design-space exploration for security-task allocation

USAGE:
    dse sweep [OPTIONS]      run a sweep
    dse list-axes            print the valid values of every enumerable axis
                             (allocators and period policies, one `<axis>
                             <value>` pair per line; `list-allocators` is an
                             alias kept for existing scripts)
    dse help                 show this message (also `dse sweep --help`)

SWEEP OPTIONS:
    --cores A,B,...       core counts to explore            [default: 2,4,8]
    --util-steps N        N-point utilization grid per M    [default: 13]
    --utils F1,F2,...     explicit per-core utilization fractions (overrides --util-steps)
    --allocators L1,L2    schemes: hydra, singlecore, nphydra, precedence, optimal
                          (optimal is exhaustive — pair it with --cores 2 and a
                          small --sec-tasks range, e.g. 2,6, as the paper does)
                                                            [default: hydra,singlecore,nphydra]
    --period-policy P1,P2 post-allocation period policies: fixed (keep the
                          allocator's periods), adapt (greedy per-core
                          re-adaptation), joint (coordinate-ascent joint
                          optimisation); policy variants share the seed
                          address, so comparisons are paired. adapt/joint
                          re-check the base preemptive model only (nphydra
                          blocking is not re-validated; precedence keeps its
                          granted periods under every policy)
                                                            [default: fixed]
    --explore MODE        exhaustive (evaluate the full grid) or frontier
                          (adaptive utilization-cliff search: deterministic
                          bisection per (cores, allocator, policy) slice,
                          then a refinement budget around each bracket;
                          emits the same record formats over far fewer
                          scenarios and writes a {name}_frontier.csv
                          Pareto-front artifact; needs the synthetic
                          workload's utilization axis). Frontier output is
                          byte-identical across thread counts, shards and
                          resume, exactly like exhaustive sweeps
                                                            [default: exhaustive]
    --refine-budget N     frontier only: extra utilization points emitted
                          around each slice's cliff bracket (half walk
                          outward from the bracket, half low-discrepancy
                          over the grid)                    [default: 8]
    --trials N            task sets per grid point, >= 1    [default: 5]
    --seed S              base seed                         [default: 2018]
    --threads N           worker threads (0 = all cores)    [default: 0]
    --serial              force single-threaded execution
    --sample N            sample at most N points from the full grid
                          (exhaustive only)
    --sec-tasks LO,HI     override the security task-count range
    --workload KIND       synthetic | uav                   [default: synthetic]
    --eval KIND           allocate | detection              [default: allocate]
    --horizon SECS        detection: simulated window       [default: 120]
    --attacks N           detection: injected attacks       [default: 100]
    --name NAME           output file stem                  [default: sweep]
    --out DIR             output directory                  [default: results/dse]
    --quiet               suppress the per-group summary table

OBSERVABILITY OPTIONS (all default-off; JSONL/CSV/summary bytes are
identical with or without them):
    --progress[=SECS]     live heartbeat on stderr every SECS seconds
                          (default 2): scenarios done/total, scenarios/s,
                          ETA, memo hit-rates, reorder-buffer depth,
                          backpressure wait, peak RSS
    --metrics-out FILE    write the final metrics snapshot (counters,
                          gauges, histograms, per-phase times; schema
                          `rt-obs/v1`) as JSON
    --trace-out FILE      write per-scenario phase spans as Chrome
                          trace-event JSON — load in Perfetto or
                          chrome://tracing
    A machine-readable run report ({name}_run.json: throughput, memo
    hit-rates, peak RSS) is always written next to the other outputs.

SCALE-OUT OPTIONS:
    --store DIR           back the memo cache with the persistent
                          content-addressed store under DIR (created on first
                          use; shared with dse-serve). Repeat sweeps answer
                          task-set generation, feasibility and allocation
                          work from disk; output bytes are identical with
                          or without it
    --shard I/N           evaluate the I-th of N contiguous grid shards; files
                          are named {name}_shardIofN.* and only shard 1 writes
                          the CSV header, so concatenating every shard's file
                          in order is byte-identical to an unsharded run
    --resume              continue from the checkpoint under --out (a fresh
                          start when none exists); rejects a checkpoint whose
                          spec or shard parameters differ
    --checkpoint-every N  scenarios between checkpoint saves, 0 = disable
                                                            [default: 256]
    --stop-after K        checkpoint and exit after evaluating K scenarios
                          (for time-budgeted runs and resume testing)
";

/// One sweep option as its `USAGE` line declares it.
struct UsageOption {
    /// Whether the next argument is the option's value (`--cores A,B,...`).
    takes_value: bool,
    /// Whether the value may follow an `=` instead (`--progress[=SECS]`).
    inline_value: bool,
}

/// Looks `name` up among the option lines of [`USAGE`] (the lines indented
/// by exactly four spaces that start with `--`), so the help text stays the
/// one list of options `dse sweep` accepts.
fn usage_option(name: &str) -> Option<UsageOption> {
    USAGE.lines().find_map(|line| {
        let decl = line.strip_prefix("    --")?;
        let token_len = decl.find(' ').unwrap_or(decl.len());
        let (token, rest) = decl.split_at(token_len);
        let (declared, inline_value) = match token.split_once("[=") {
            Some((declared, _)) => (declared, true),
            None => (token, false),
        };
        (name.strip_prefix("--")? == declared).then(|| UsageOption {
            // A metavariable follows after exactly one space; the help
            // column starts after several.
            takes_value: rest.len() > 1 && !rest[1..].starts_with(' '),
            inline_value,
        })
    })
}

struct Args(Vec<String>);

impl Args {
    /// Rejects what `dse sweep` does not understand: options missing from
    /// [`USAGE`], repeated options, value options without a value, and
    /// stray positional arguments.
    fn validate(&self) -> Result<(), String> {
        let mut seen: Vec<&str> = Vec::new();
        let mut args = self.0.iter();
        while let Some(arg) = args.next() {
            if !arg.starts_with("--") {
                return Err(format!("unexpected argument {arg}"));
            }
            let (name, inline) = match arg.split_once('=') {
                Some((name, _)) => (name, true),
                None => (arg.as_str(), false),
            };
            let option = usage_option(name)
                .filter(|o| !inline || o.inline_value)
                .ok_or_else(|| format!("unknown option {arg}"))?;
            if seen.contains(&name) {
                return Err(format!("duplicate option {name}"));
            }
            seen.push(name);
            if option.takes_value {
                match args.next() {
                    Some(value) if !value.starts_with("--") => {}
                    Some(flag) => return Err(format!("option {name} expects a value, got {flag}")),
                    None => return Err(format!("option {name} expects a value")),
                }
            }
        }
        Ok(())
    }

    fn help_requested(&self) -> bool {
        self.0.iter().any(|a| a == "--help" || a == "-h")
    }

    fn value_of(&self, key: &str) -> Option<&str> {
        self.0
            .iter()
            .position(|a| a == key)
            .and_then(|i| self.0.get(i + 1))
            .map(String::as_str)
    }

    fn flag(&self, key: &str) -> bool {
        self.0.iter().any(|a| a == key)
    }

    fn parsed<T: std::str::FromStr>(&self, key: &str) -> Result<Option<T>, String> {
        match self.value_of(key) {
            None => Ok(None),
            Some(raw) => raw
                .parse()
                .map(Some)
                .map_err(|_| format!("invalid value for {key}: {raw}")),
        }
    }

    fn parsed_list<T: std::str::FromStr>(&self, key: &str) -> Result<Option<Vec<T>>, String> {
        match self.value_of(key) {
            None => Ok(None),
            Some(raw) => raw
                .split(',')
                .map(|p| p.trim().parse().map_err(|_| format!("invalid {key}: {p}")))
                .collect::<Result<Vec<T>, String>>()
                .map(Some),
        }
    }

    /// `--progress` / `--progress=SECS` — the heartbeat interval, if any.
    fn progress(&self) -> Result<Option<Duration>, String> {
        for arg in &self.0 {
            if arg == "--progress" {
                return Ok(Some(Duration::from_secs(2)));
            }
            if let Some(raw) = arg.strip_prefix("--progress=") {
                let secs: f64 = raw
                    .parse()
                    .map_err(|_| format!("invalid value for --progress: {raw}"))?;
                if secs <= 0.0 || !secs.is_finite() {
                    return Err(format!("--progress interval must be positive, got {raw}"));
                }
                return Ok(Some(Duration::from_secs_f64(secs)));
            }
        }
        Ok(None)
    }

    fn shard(&self) -> Result<(usize, usize), String> {
        let Some(raw) = self.value_of("--shard") else {
            return Ok((1, 1));
        };
        let parse = |what: &str, v: &str| {
            v.parse::<usize>()
                .map_err(|_| format!("invalid shard {what} in --shard {raw}"))
        };
        let (index, count) = raw
            .split_once('/')
            .ok_or_else(|| format!("--shard expects I/N, got {raw}"))?;
        let (index, count) = (parse("index", index)?, parse("count", count)?);
        if count == 0 || index == 0 || index > count {
            return Err(format!("--shard requires 1 <= I <= N, got {raw}"));
        }
        Ok((index, count))
    }
}

fn build_spec(args: &Args) -> Result<ScenarioSpec, String> {
    let workload = match args.value_of("--workload").unwrap_or("synthetic") {
        "synthetic" => {
            let mut overrides = SyntheticOverrides::default();
            if let Some(range) = args.parsed_list::<usize>("--sec-tasks")? {
                let [lo, hi] = range[..] else {
                    return Err("--sec-tasks expects LO,HI".to_owned());
                };
                if lo == 0 || lo > hi {
                    return Err(format!("--sec-tasks range [{lo}, {hi}] is empty or zero"));
                }
                overrides.security_tasks = Some((lo, hi));
            }
            Workload::Synthetic(overrides)
        }
        "uav" => Workload::CaseStudyUav,
        other => return Err(format!("unknown workload: {other}")),
    };

    let evaluation = match args.value_of("--eval").unwrap_or("allocate") {
        "allocate" => Evaluation::Allocate,
        "detection" => Evaluation::Detection {
            horizon: rt_dse::Time::from_secs(args.parsed("--horizon")?.unwrap_or(120)),
            attacks: args.parsed("--attacks")?.unwrap_or(100),
        },
        other => return Err(format!("unknown evaluation: {other}")),
    };

    let utilizations = if matches!(workload, Workload::CaseStudyUav) {
        UtilizationGrid::NotApplicable
    } else if let Some(fractions) = args.parsed_list::<f64>("--utils")? {
        if fractions.iter().any(|f| !(*f > 0.0 && *f <= 1.0)) {
            return Err("--utils fractions must lie in (0, 1]".to_owned());
        }
        UtilizationGrid::Fractions(fractions)
    } else {
        UtilizationGrid::NormalizedSteps(args.parsed("--util-steps")?.unwrap_or(13))
    };

    let allocators = match args.value_of("--allocators") {
        None => vec![
            AllocatorKind::Hydra,
            AllocatorKind::SingleCore,
            AllocatorKind::NpHydra,
        ],
        Some(raw) => raw
            .split(',')
            .map(|label| {
                AllocatorKind::parse(label).ok_or_else(|| format!("unknown allocator: {label}"))
            })
            .collect::<Result<Vec<_>, String>>()?,
    };
    if allocators.is_empty() {
        return Err("at least one allocator is required".to_owned());
    }

    let period_policies = match args.value_of("--period-policy") {
        None => vec![PeriodPolicy::Fixed],
        Some(raw) => raw
            .split(',')
            .map(|label| {
                PeriodPolicy::parse(label).ok_or_else(|| format!("unknown period policy: {label}"))
            })
            .collect::<Result<Vec<_>, String>>()?,
    };
    if period_policies.is_empty() {
        return Err("at least one period policy is required".to_owned());
    }

    let expansion = match args.parsed("--sample")? {
        Some(n) => Expansion::Sampled(n),
        None => Expansion::Cartesian,
    };

    let cores: Vec<usize> = args
        .parsed_list("--cores")?
        .unwrap_or_else(|| vec![2, 4, 8]);
    if cores.is_empty() || cores.contains(&0) {
        return Err("--cores requires one or more core counts >= 1".to_owned());
    }

    let explore = match args.value_of("--explore").unwrap_or("exhaustive") {
        "exhaustive" => {
            if args.value_of("--refine-budget").is_some() {
                return Err("--refine-budget requires --explore frontier".to_owned());
            }
            ExploreMode::Exhaustive
        }
        "frontier" => ExploreMode::Frontier(FrontierConfig {
            refine_budget: args.parsed("--refine-budget")?.unwrap_or(8),
        }),
        other => return Err(format!("unknown explore mode: {other}")),
    };

    let spec = ScenarioSpec {
        name: args.value_of("--name").unwrap_or("sweep").to_owned(),
        workload,
        evaluation,
        cores,
        utilizations,
        allocators,
        period_policies,
        trials: args.parsed("--trials")?.unwrap_or(5),
        base_seed: args.parsed("--seed")?.unwrap_or(2018),
        expansion,
        explore,
    };
    spec.validate()?;
    Ok(spec)
}

fn print_summary(rows: &[rt_dse::AggregateRow]) {
    println!(
        "{:>5}  {:>10}  {:>6}  {:>8}  {:>9}  {:>9}  {:>10}  {:>9}  {:>9}  {:>9}  {:>9}",
        "cores",
        "allocator",
        "policy",
        "util",
        "feasible",
        "scheduled",
        "acceptance",
        "mean_eta",
        "p50_eta",
        "p99_eta",
        "mean_freq"
    );
    for row in rows {
        println!(
            "{:>5}  {:>10}  {:>6}  {:>8}  {:>9}  {:>9}  {:>10.3}  {:>9.3}  {:>9.3}  {:>9.3}  {:>9.3}",
            row.cores,
            row.allocator.label(),
            row.policy.label(),
            row.utilization
                .map_or_else(|| "-".to_owned(), |u| format!("{u:.3}")),
            row.feasible,
            row.scheduled,
            row.acceptance_ratio,
            row.mean_tightness,
            row.p50_tightness,
            row.p99_tightness,
            row.mean_freq_ratio,
        );
    }
}

/// The CLI's streaming sink: tees each outcome to the JSONL and CSV files,
/// folds it into the running aggregate, and periodically persists an atomic
/// checkpoint so a killed run resumes where its output files actually end.
struct CheckpointingSink {
    jsonl: JsonlSink<BufWriter<fs::File>>,
    csv: CsvSink<BufWriter<fs::File>>,
    /// File bytes already present before this process appended anything.
    jsonl_base: u64,
    csv_base: u64,
    /// Aggregate over everything durably written (restored prefix included).
    agg: SweepAccumulator,
    /// Absolute grid index where this shard begins (the aggregate's origin).
    origin: usize,
    /// Absolute grid index of the next scenario to stream.
    completed: usize,
    since_save: usize,
    every: usize,
    /// Planned emission length recorded in every checkpoint (0 for
    /// exhaustive sweeps); resume refuses a checkpoint that disagrees.
    plan_points: usize,
    /// Checkpoints are only taken at multiples of this many records past
    /// the origin — frontier runs align saves to trial-group boundaries so
    /// a resumed run restarts at a whole utilization point.
    align: usize,
    fingerprint: u64,
    path: PathBuf,
    /// Engine-track phase recorder for checkpoint writes (inert when
    /// tracing is off).
    checkpoint_tracer: WorkerTracer,
    /// `checkpoint.writes` (inert when metrics are off).
    checkpoint_writes: Counter,
}

impl CheckpointingSink {
    fn save_checkpoint(&mut self) -> std::io::Result<()> {
        let _span = self.checkpoint_tracer.span(PHASE_CHECKPOINT);
        // The checkpoint claims its byte offsets are *durable*: flush the
        // buffers and fsync the data before the (also fsynced) checkpoint
        // rename, so a power loss can never leave the checkpoint ahead of
        // the output files it describes.
        self.jsonl.get_mut().flush()?;
        self.jsonl.get_mut().get_ref().sync_data()?;
        self.csv.get_mut().flush()?;
        self.csv.get_mut().get_ref().sync_data()?;
        Checkpoint {
            fingerprint: self.fingerprint,
            start: self.origin,
            completed: self.completed,
            plan_points: self.plan_points,
            jsonl_bytes: self.jsonl_base + self.jsonl.bytes_written(),
            csv_bytes: self.csv_base + self.csv.bytes_written(),
            agg: self.agg.clone(),
        }
        .save(&self.path)?;
        self.since_save = 0;
        self.checkpoint_writes.inc();
        Ok(())
    }
}

impl OutcomeSink for CheckpointingSink {
    fn record(&mut self, outcome: &ScenarioOutcome) -> std::io::Result<()> {
        self.jsonl.record(outcome)?;
        self.csv.record(outcome)?;
        self.agg.record(outcome);
        self.completed += 1;
        self.since_save += 1;
        // Each save re-renders the whole accumulated aggregate (it grows
        // with progress) and fsyncs, inside the executor's drain — so the
        // interval stretches with coverage (≥ 1/8 of the records covered so
        // far) to keep total checkpoint I/O linear in the sweep instead of
        // quadratic, while small sweeps still save every `every` records.
        let threshold = self.every.max((self.completed - self.origin) / 8);
        if self.every > 0
            && self.since_save >= threshold
            && (self.completed - self.origin).is_multiple_of(self.align)
        {
            self.save_checkpoint()?;
        }
        Ok(())
    }

    fn finish(&mut self) -> std::io::Result<()> {
        self.jsonl.finish()?;
        self.csv.finish()
    }
}

/// Opens an output file for appending at exactly `keep` bytes: anything a
/// crashed run wrote past the last checkpoint (e.g. a torn JSONL line) is
/// truncated away so the resumed stream continues byte-exactly.
fn open_resumable(path: &Path, keep: u64) -> Result<fs::File, String> {
    let mut file = fs::OpenOptions::new()
        .create(true)
        .truncate(false)
        .write(true)
        .open(path)
        .map_err(|e| format!("cannot open {}: {e}", path.display()))?;
    let len = file
        .metadata()
        .map_err(|e| format!("cannot stat {}: {e}", path.display()))?
        .len();
    if len < keep {
        return Err(format!(
            "{} is {len} bytes but the checkpoint covers {keep}; the output was \
             modified since the checkpoint — delete the checkpoint to start over",
            path.display()
        ));
    }
    if len > keep {
        // A torn tail is expected after a crash, but it should never vanish
        // silently — say how much of the file the resume is discarding.
        eprintln!(
            "resume: dropping {} uncheckpointed byte(s) past offset {keep} of {}",
            len - keep,
            path.display()
        );
    }
    file.set_len(keep)
        .map_err(|e| format!("cannot truncate {}: {e}", path.display()))?;
    file.seek(SeekFrom::End(0))
        .map_err(|e| format!("cannot seek {}: {e}", path.display()))?;
    Ok(file)
}

/// Formats a hit/miss pair as a percentage for the heartbeat line
/// (`-` before any traffic).
fn hit_pct(hits: u64, misses: u64) -> String {
    let total = hits + misses;
    if total == 0 {
        "-".to_owned()
    } else {
        format!("{:.0}%", 100.0 * hits as f64 / total as f64)
    }
}

/// One `--progress` heartbeat line, rendered from a registry snapshot.
fn progress_line(snap: &rt_obs::Snapshot, total: usize, elapsed: Duration) -> String {
    let done = snap.counter("sweep.scenarios_done");
    let secs = elapsed.as_secs_f64();
    let rate = if secs > 0.0 { done as f64 / secs } else { 0.0 };
    let eta = if rate > 0.0 && done < total as u64 {
        format!("{:.0}s", (total as u64 - done) as f64 / rate)
    } else {
        "-".to_owned()
    };
    let pct = if total > 0 {
        100.0 * done as f64 / total as f64
    } else {
        100.0
    };
    let rss = peak_rss_bytes().map_or_else(
        || "-".to_owned(),
        |b| format!("{:.0} MiB", b as f64 / (1024.0 * 1024.0)),
    );
    format!
        ("[dse] {done}/{total} ({pct:.1}%) {rate:.0} scen/s eta {eta} | memo hit pb {} al {} fs {} | reorder {} | bp wait {:.1}ms | rss {rss}",
        hit_pct(snap.counter("memo.problem_hits"), snap.counter("memo.problem_misses")),
        hit_pct(snap.counter("memo.allocation_hits"), snap.counter("memo.allocation_misses")),
        hit_pct(snap.counter("memo.feasibility_hits"), snap.counter("memo.feasibility_misses")),
        snap.gauge("drain.reorder_depth"),
        snap.counter("sweep.backpressure_wait_ns") as f64 / 1_000_000.0,
    )
}

/// The machine-readable `{stem}_run.json` run report: throughput and memo
/// hit-rates persisted next to the sweep outputs (not just echoed on
/// stderr), independent of the observability flags.
fn run_report_json(
    evaluated: usize,
    threads: usize,
    elapsed: Duration,
    memo: &MemoStats,
    store_enabled: bool,
) -> String {
    fn entry(hits: u64, misses: u64) -> String {
        let total = hits + misses;
        let rate = if total == 0 {
            "null".to_owned()
        } else {
            format!("{:.6}", hits as f64 / total as f64)
        };
        format!("{{ \"hits\": {hits}, \"misses\": {misses}, \"hit_rate\": {rate} }}")
    }
    let secs = elapsed.as_secs_f64();
    let throughput = if secs > 0.0 {
        format!("{:.3}", evaluated as f64 / secs)
    } else {
        "null".to_owned()
    };
    let rss = peak_rss_bytes().map_or_else(|| "null".to_owned(), |b| b.to_string());
    // v2: the partition memo family was retired. The allocation memo
    // already dedups repeated (problem, scheme) pairs, and the schemes of
    // one problem group share its partitions in the worker's scratch, so
    // no memo counter tracks partitions.
    format!(
        "{{\n  \"schema\": \"dse-run/v2\",\n  \"scenarios\": {evaluated},\n  \
         \"threads\": {threads},\n  \"elapsed_secs\": {secs:.6},\n  \
         \"scenarios_per_sec\": {throughput},\n  \"memo\": {{\n    \
         \"problem\": {},\n    \"feasibility\": {},\n    \
         \"allocation\": {}\n  }},\n  \"store\": {{ \"enabled\": {store_enabled}, \
         \"hits\": {}, \"misses\": {}, \"write_errors\": {} }},\n  \
         \"peak_rss_bytes\": {rss}\n}}\n",
        entry(memo.problem_hits, memo.problem_misses),
        entry(memo.feasibility_hits, memo.feasibility_misses),
        entry(memo.allocation_hits, memo.allocation_misses),
        memo.store_hits,
        memo.store_misses,
        memo.store_write_errors,
    )
}

fn run_sweep(args: &Args) -> Result<(), String> {
    let spec = build_spec(args)?;
    let progress = args.progress()?;
    let metrics_out = args.value_of("--metrics-out").map(PathBuf::from);
    let trace_out = args.value_of("--trace-out").map(PathBuf::from);
    let obs = SweepObs::new(
        progress.is_some() || metrics_out.is_some(),
        trace_out.is_some(),
    );
    let threads = if args.flag("--serial") {
        1
    } else {
        args.parsed("--threads")?.unwrap_or(0)
    };
    let store = match args.value_of("--store") {
        Some(dir) => Some(Arc::new(
            MemoStore::open(dir).map_err(|e| format!("cannot open memo store {dir}: {e}"))?,
        )),
        None => None,
    };
    let mut session = SweepSession::new(spec.clone())
        .threads(threads)
        .observability(obs.clone());
    if let Some(store) = &store {
        session = session.memo_store(Arc::clone(store));
    }
    let shard = args.shard()?;
    let resume = args.flag("--resume");
    let checkpoint_every: usize = args.parsed("--checkpoint-every")?.unwrap_or(256);
    let stop_after: Option<usize> = args.parsed("--stop-after")?;

    // The plan is fixed before any output file opens. A frontier spec's
    // plan runs the Phase-A bisection of every (cores, allocator, policy)
    // slice (memo-warm probes, nothing emitted), and its emission list
    // replaces the exhaustive grid as the unit of sharding, checkpointing
    // and resume. The plan is a pure function of the spec, so a resumed or
    // sharded run recomputes the identical list.
    let plan = session.plan();
    let frontier = plan.frontier();
    if let Some(frontier) = frontier {
        eprintln!(
            "frontier: {} probe evaluation(s) over {} slice(s) kept {} of {} grid \
             scenarios for emission",
            frontier.probe_evals,
            frontier.slices.len(),
            plan.len(),
            ScenarioGrid::expand(&spec).len()
        );
    }
    // Checkpoints record the frontier plan's length (0 for grids).
    let plan_points = if frontier.is_some() { plan.len() } else { 0 };
    let range = plan.shard_range(shard.0, shard.1);
    let fingerprint = sweep_fingerprint(&spec, shard);

    let out_dir = PathBuf::from(args.value_of("--out").unwrap_or("results/dse"));
    fs::create_dir_all(&out_dir)
        .map_err(|e| format!("could not create {}: {e}", out_dir.display()))?;
    let stem = if shard.1 > 1 {
        format!("{}_shard{}of{}", spec.name, shard.0, shard.1)
    } else {
        spec.name.clone()
    };
    let jsonl_path = out_dir.join(format!("{stem}.jsonl"));
    let csv_path = out_dir.join(format!("{stem}.csv"));
    let summary_path = out_dir.join(format!("{stem}_summary.csv"));
    let ckpt_path = out_dir.join(format!("{stem}.ckpt"));

    // A checkpoint resumes only the sweep that wrote it.
    let restored = if resume {
        let found = Checkpoint::load(&ckpt_path)
            .map_err(|e| format!("cannot load {}: {e}", ckpt_path.display()))?;
        if let Some(ckpt) = &found {
            if ckpt.fingerprint != fingerprint {
                return Err(format!(
                    "{} belongs to a different sweep (spec or shard changed): \
                     expected fingerprint {fingerprint:016x}, found {:016x}; \
                     delete it or rerun without --resume",
                    ckpt_path.display(),
                    ckpt.fingerprint
                ));
            }
            if ckpt.start != range.start || ckpt.completed > range.end {
                return Err(format!(
                    "{} records progress {}..{} outside this shard's range {}..{}",
                    ckpt_path.display(),
                    ckpt.start,
                    ckpt.completed,
                    range.start,
                    range.end
                ));
            }
            if ckpt.plan_points != plan_points {
                return Err(format!(
                    "{} was written by a run planning {} emission point(s) but this \
                     run plans {}; the exploration plan changed — delete the \
                     checkpoint or rerun without --resume",
                    ckpt_path.display(),
                    ckpt.plan_points,
                    plan_points
                ));
            }
        }
        found
    } else {
        None
    };

    let start = restored.as_ref().map_or(range.start, |c| c.completed);
    let end = stop_after.map_or(range.end, |k| range.end.min(start.saturating_add(k)));
    let (jsonl_base, csv_base, agg) = match restored {
        Some(ckpt) => (ckpt.jsonl_bytes, ckpt.csv_bytes, ckpt.agg),
        None => (0, 0, SweepAccumulator::new()),
    };
    // A fresh run simply replaces old outputs; only a resume reports the
    // uncheckpointed bytes it drops.
    let open = |path: &Path, keep: u64| {
        if resume {
            open_resumable(path, keep)
        } else {
            fs::File::create(path).map_err(|e| format!("cannot create {}: {e}", path.display()))
        }
    };
    let jsonl_file = open(&jsonl_path, jsonl_base)?;
    let csv_file = open(&csv_path, csv_base)?;

    let mut sink = CheckpointingSink {
        jsonl: JsonlSink::new(BufWriter::new(jsonl_file)),
        // Only shard 1 writes the CSV header, and only while its file is
        // still empty — a resumed run whose checkpoint already covers the
        // header (e.g. one that stopped before its first record) must not
        // emit it twice, or concatenation stops being exact.
        csv: CsvSink::new(BufWriter::new(csv_file), shard.0 == 1 && csv_base == 0),
        jsonl_base,
        csv_base,
        agg,
        origin: range.start,
        completed: start,
        since_save: 0,
        every: checkpoint_every,
        plan_points,
        // Frontier emission is trial-major within each utilization point;
        // aligning saves to trial groups keeps every checkpoint at a whole
        // point (shard origins are always point-aligned).
        align: if frontier.is_some() {
            spec.trials.max(1)
        } else {
            1
        },
        fingerprint,
        path: ckpt_path.clone(),
        checkpoint_tracer: obs.tracer().worker(ENGINE_TRACK),
        checkpoint_writes: obs
            .registry()
            .shard(ENGINE_TRACK)
            .counter("checkpoint.writes"),
    };

    eprintln!(
        "sweeping \"{}\": {} of {} scenarios ({} indices {}..{}, shard {}/{}) on \
         {} cores × {} allocators × {} period policies, {} trials/point",
        spec.name,
        end - start,
        plan.len(),
        if frontier.is_some() { "plan" } else { "grid" },
        start,
        end,
        shard.0,
        shard.1,
        spec.cores.len(),
        spec.allocators.len(),
        spec.period_policies.len(),
        spec.trials
    );

    let mut heartbeat = match progress {
        Some(interval) => {
            let registry = obs.registry().clone();
            let total = end - start;
            // CLI progress heartbeat: bin targets sit outside the D002
            // boundary; the timestamp feeds the stderr line only.
            #[allow(clippy::disallowed_methods)]
            let t0 = Instant::now();
            Heartbeat::start(interval, move || {
                eprintln!(
                    "{}",
                    progress_line(&registry.snapshot(), total, t0.elapsed())
                );
            })
        }
        None => Heartbeat::disabled(),
    };

    let summary = session
        .run_plan(&plan, start..end, &mut sink)
        .map_err(|e| format!("sweep aborted: {e}"))?;
    heartbeat.stop();

    let throughput = summary
        .scenarios_per_sec()
        .map_or_else(|| "-".to_owned(), |r| format!("{r:.0}"));
    eprintln!(
        "evaluated {} scenarios on {} threads in {:.2?} ({} scenarios/s)",
        summary.evaluated(),
        summary.threads,
        summary.elapsed,
        throughput
    );
    let memo = summary.memo;
    eprintln!(
        "memo: {} problems generated, {} reused; {} allocations computed, {} reused; \
         {} feasibility checks, {} reused",
        memo.problem_misses,
        memo.problem_hits,
        memo.allocation_misses,
        memo.allocation_hits,
        memo.feasibility_misses,
        memo.feasibility_hits
    );
    if let Some(store) = &store {
        eprintln!(
            "store {}: {} disk hits, {} disk misses, {} write errors",
            store.root().display(),
            memo.store_hits,
            memo.store_misses,
            memo.store_write_errors
        );
    }

    // Persist the run report (throughput + memo hit-rates) even when the
    // run stops early — the stderr echo above is not the durable record.
    let run_report_path = out_dir.join(format!("{stem}_run.json"));
    fs::write(
        &run_report_path,
        run_report_json(
            summary.evaluated(),
            summary.threads,
            summary.elapsed,
            &memo,
            store.is_some(),
        ),
    )
    .map_err(|e| format!("could not write {}: {e}", run_report_path.display()))?;

    if obs.tracer().is_enabled() {
        let table = phase_table(&obs.phase_rows());
        if !table.is_empty() {
            eprint!("{table}");
        }
        let dropped = obs.tracer().dropped_events();
        if dropped > 0 {
            eprintln!("trace ring overflow: {dropped} events dropped (totals above remain exact)");
        }
    }
    if let Some(path) = &trace_out {
        fs::write(path, obs.tracer().chrome_trace_json())
            .map_err(|e| format!("could not write {}: {e}", path.display()))?;
        eprintln!("wrote {}", path.display());
    }
    if let Some(path) = &metrics_out {
        fs::write(path, obs.metrics_json())
            .map_err(|e| format!("could not write {}: {e}", path.display()))?;
        eprintln!("wrote {}", path.display());
    }

    if end < range.end {
        // Stopped early on purpose: leave a checkpoint behind instead of a
        // summary, and tell the operator how to continue.
        sink.save_checkpoint()
            .map_err(|e| format!("could not write {}: {e}", ckpt_path.display()))?;
        eprintln!(
            "stopped after {} scenarios ({} remain); continue with --resume",
            end - start,
            range.end - end
        );
        return Ok(());
    }

    let rows = sink.agg.rows();
    if !args.flag("--quiet") {
        print_summary(&rows);
    }
    fs::write(&summary_path, summary_to_csv(&rows))
        .map_err(|e| format!("could not write {}: {e}", summary_path.display()))?;
    // The frontier artifact: one row per emitted (slice, utilization)
    // point with the slice's cliff bracket and in-slice Pareto flags.
    // Shards follow the CSV convention — only shard 1 writes the header,
    // so concatenating the shard artifacts reproduces the full run's.
    if let Some(frontier) = frontier {
        let frontier_path = out_dir.join(format!("{stem}_frontier.csv"));
        let mut text = String::new();
        if shard.0 == 1 {
            text.push_str(FRONTIER_HEADER);
            text.push('\n');
        }
        for row in &frontier.rows(&sink.agg) {
            text.push_str(&frontier_row_to_csv(row));
            text.push('\n');
        }
        fs::write(&frontier_path, text)
            .map_err(|e| format!("could not write {}: {e}", frontier_path.display()))?;
        eprintln!("wrote {}", frontier_path.display());
    }
    // The shard is complete — the checkpoint has served its purpose.
    if ckpt_path.exists() {
        fs::remove_file(&ckpt_path)
            .map_err(|e| format!("could not remove {}: {e}", ckpt_path.display()))?;
    }
    eprintln!(
        "wrote {}, {}, {}",
        jsonl_path.display(),
        csv_path.display(),
        summary_path.display()
    );
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let command = argv.first().map(String::as_str).unwrap_or("help");
    let args = Args(argv.get(1..).unwrap_or_default().to_vec());

    let result = match command {
        "sweep" if args.help_requested() => {
            print!("{USAGE}");
            Ok(())
        }
        "sweep" => {
            if let Err(message) = args.validate() {
                eprintln!("error: {message}");
                return ExitCode::from(2);
            }
            run_sweep(&args)
        }
        // `list-allocators` predates the period-policy axis; it is kept as
        // an alias so existing scripts keep discovering valid flag values.
        "list-axes" | "list-allocators" => {
            for kind in AllocatorKind::ALL {
                println!("allocator {}", kind.label());
            }
            for policy in PeriodPolicy::ALL {
                println!("period-policy {}", policy.label());
            }
            Ok(())
        }
        "help" | "--help" | "-h" => {
            print!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown command: {other}\n\n{USAGE}")),
    };

    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::FAILURE
        }
    }
}
