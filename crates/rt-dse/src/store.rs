//! The persistent, content-addressed memo store.
//!
//! [`MemoStore`] globalizes the three per-run memo families of
//! [`crate::MemoCache`] — generated problems, Eq. (1) feasibility verdicts
//! and allocator runs — into an on-disk key/value store shared by every run
//! that opens the same directory: the `dse` CLI, the `dse-serve` server, and
//! any embedder of [`crate::api::SweepSession`]. A second identical (or
//! overlapping) sweep pays only for the points nobody has evaluated before.
//!
//! # Layout
//!
//! ```text
//! <root>/STORE                   version header ("dse-memo-store v1")
//! <root>/problem/ab/<hash16>     one entry per content-addressed key
//! <root>/feasibility/cd/<hash16>
//! <root>/allocation/01/<hash16>
//! ```
//!
//! (Stores written by earlier revisions may additionally carry a
//! `partition/` family; it belongs to the retired partition memo and is
//! simply never read — delete it to reclaim space.)
//!
//! Every entry file is plain text: a magic/version line, the full rendered
//! key (echoed so hash collisions and foreign files are detected, not
//! trusted), the family payload, and a trailing FNV-1a checksum over all
//! preceding bytes. Values round-trip **bit-exactly** — `f64`s travel as
//! their IEEE bit patterns and [`Time`]s as raw ticks — which is what makes
//! a warm-store sweep byte-identical to a cold one.
//!
//! # Durability and corruption tolerance
//!
//! Writes follow the checkpoint-v2 discipline: serialize to a uniquely named
//! temporary file in the final directory, `sync_all`, then atomically rename
//! over the final path. Readers therefore never observe a torn entry under
//! POSIX rename semantics; if bytes rot anyway (partial copy, disk fault,
//! manual edit), the checksum or key echo fails and the entry is treated as
//! a **miss** — a corrupt store can cost time, never a wrong answer. The
//! store never evicts; any fanout subdirectory (or the whole root) may be
//! deleted at any time to reclaim space, again costing only recomputation.

use std::fmt::Write as _;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use hydra_core::{
    Allocation, AllocationError, AllocationProblem, ExecutionMode, SecurityPlacement, SecurityTask,
    SecurityTaskId, SecurityTaskSet,
};
use rt_core::{RtTask, TaskId, TaskSet, Time};
use rt_partition::{AdmissionTest, CoreId, Heuristic, Partition, PartitionConfig, TaskOrdering};

use crate::memo::{AllocationKey, ProblemKey};

/// The store-level version header (first line of `<root>/STORE`).
const STORE_MAGIC: &str = "dse-memo-store v1";
/// The per-entry version header (first line of every entry file).
const ENTRY_MAGIC: &str = "dse-memo-entry v1";

/// FNV-1a over a byte string — the same structural hash family the memo
/// keys already use, applied to rendered key lines (content addressing) and
/// entry bytes (the corruption checksum).
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// A persistent, content-addressed, corruption-tolerant store for the three
/// memo families. See the module docs for the layout and durability story.
///
/// All methods take `&self`; a single store (typically behind an `Arc`) is
/// safely shared by concurrent readers and writers — atomicity comes from
/// the tmp-file + rename discipline, not from locks.
#[derive(Debug)]
pub struct MemoStore {
    root: PathBuf,
    fsync: bool,
    /// Distinguishes concurrent writers' temporary files within one process
    /// (the process id distinguishes across processes).
    tmp_seq: AtomicU64,
}

impl MemoStore {
    /// Opens (creating if absent) the store rooted at `root`.
    ///
    /// # Errors
    ///
    /// Returns an error when the directory cannot be created, or when an
    /// existing version header does not match — the message names the path
    /// and prints **both** the expected and the found header.
    pub fn open(root: impl Into<PathBuf>) -> io::Result<Self> {
        let root = root.into();
        std::fs::create_dir_all(&root)?;
        let header = root.join("STORE");
        match std::fs::read_to_string(&header) {
            Ok(found) => {
                let found = found.lines().next().unwrap_or("").to_owned();
                if found != STORE_MAGIC {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!(
                            "{}: version header mismatch: expected `{STORE_MAGIC}`, found \
                             `{found}` — this directory belongs to an incompatible store \
                             version; point --store elsewhere or delete it",
                            header.display()
                        ),
                    ));
                }
            }
            Err(e) if e.kind() == io::ErrorKind::NotFound => {
                std::fs::write(&header, format!("{STORE_MAGIC}\n"))?;
            }
            Err(e) => return Err(e),
        }
        Ok(MemoStore {
            root,
            fsync: true,
            tmp_seq: AtomicU64::new(0),
        })
    }

    /// Disables (or re-enables) the per-entry `fsync` before rename.
    /// Durability drops to "whatever the OS flushed", but atomicity — and
    /// therefore corruption tolerance — is unaffected. Intended for tests
    /// and throwaway caches.
    #[must_use]
    pub fn with_fsync(mut self, fsync: bool) -> Self {
        self.fsync = fsync;
        self
    }

    /// The store's root directory.
    #[must_use]
    pub fn root(&self) -> &Path {
        &self.root
    }

    // ---- per-family accessors -------------------------------------------

    /// Looks up a generated problem. `None` is a miss (absent, corrupt, or
    /// a key-echo mismatch).
    #[must_use]
    pub fn get_problem(&self, key: &ProblemKey) -> Option<AllocationProblem> {
        let payload = self.read_entry("problem", &problem_key_line(key))?;
        decode_problem(&payload)
    }

    /// Persists a generated problem.
    ///
    /// # Errors
    ///
    /// Propagates the first I/O error; the entry is either fully present or
    /// absent, never torn.
    pub fn put_problem(&self, key: &ProblemKey, value: &AllocationProblem) -> io::Result<()> {
        self.write_entry("problem", &problem_key_line(key), &encode_problem(value))
    }

    /// Looks up an Eq. (1) feasibility verdict for `(taskset_hash, cores)`.
    #[must_use]
    pub fn get_feasibility(&self, taskset_hash: u64, cores: usize) -> Option<bool> {
        let payload = self.read_entry("feasibility", &feasibility_key_line(taskset_hash, cores))?;
        match payload.trim() {
            "verdict true" => Some(true),
            "verdict false" => Some(false),
            _ => None,
        }
    }

    /// Persists an Eq. (1) feasibility verdict.
    ///
    /// # Errors
    ///
    /// Propagates the first I/O error.
    pub fn put_feasibility(
        &self,
        taskset_hash: u64,
        cores: usize,
        verdict: bool,
    ) -> io::Result<()> {
        self.write_entry(
            "feasibility",
            &feasibility_key_line(taskset_hash, cores),
            &format!("verdict {verdict}\n"),
        )
    }

    /// Looks up an allocator run (rejections are stored too).
    #[must_use]
    pub fn get_allocation(
        &self,
        key: &AllocationKey,
    ) -> Option<Result<Allocation, AllocationError>> {
        let payload = self.read_entry("allocation", &allocation_key_line(key))?;
        decode_allocation(&payload)
    }

    /// Persists an allocator run. Error variants unknown to the codec are
    /// silently skipped (they will be recomputed — never guessed).
    ///
    /// # Errors
    ///
    /// Propagates the first I/O error.
    pub fn put_allocation(
        &self,
        key: &AllocationKey,
        value: &Result<Allocation, AllocationError>,
    ) -> io::Result<()> {
        let Some(payload) = encode_allocation(value) else {
            return Ok(());
        };
        self.write_entry("allocation", &allocation_key_line(key), &payload)
    }

    // ---- entry plumbing --------------------------------------------------

    /// The final path of the entry addressed by `key_line` within `family`.
    fn entry_path(&self, family: &str, key_line: &str) -> PathBuf {
        let hash = fnv1a(key_line.as_bytes());
        let fanout = format!("{:02x}", (hash >> 56) as u8);
        self.root
            .join(family)
            .join(fanout)
            .join(format!("{hash:016x}"))
    }

    /// Reads and validates one entry; `None` on any miss, version mismatch,
    /// key-echo mismatch or checksum failure. Returns the payload text.
    fn read_entry(&self, family: &str, key_line: &str) -> Option<String> {
        let text = std::fs::read_to_string(self.entry_path(family, key_line)).ok()?;
        // `sum <hex16>\n` is the fixed-width trailer; everything before it
        // is covered by the checksum.
        let trailer_at = text.len().checked_sub(21)?;
        let (body, trailer) = text.split_at(trailer_at);
        let sum = trailer
            .strip_prefix("sum ")?
            .strip_suffix('\n')
            .and_then(|h| u64::from_str_radix(h, 16).ok())?;
        if sum != fnv1a(body.as_bytes()) {
            return None;
        }
        let rest = body.strip_prefix(ENTRY_MAGIC)?.strip_prefix('\n')?;
        let rest = rest.strip_prefix("key ")?;
        let (echoed, payload) = rest.split_once('\n')?;
        if echoed != key_line {
            return None; // hash collision or foreign file: a miss, not a lie
        }
        Some(payload.to_owned())
    }

    /// Serializes and durably writes one entry (tmp + fsync + rename).
    fn write_entry(&self, family: &str, key_line: &str, payload: &str) -> io::Result<()> {
        let path = self.entry_path(family, key_line);
        let dir = path
            .parent()
            .expect("entry paths always have a fanout parent");
        std::fs::create_dir_all(dir)?;
        let mut body = format!("{ENTRY_MAGIC}\nkey {key_line}\n");
        body.push_str(payload);
        if !body.ends_with('\n') {
            body.push('\n');
        }
        let sum = fnv1a(body.as_bytes());
        let _ = writeln!(body, "sum {sum:016x}");
        // relaxed-ok: the sequence number only disambiguates tmp-file names
        // between in-process writers; no data handoff rides on it.
        let seq = self.tmp_seq.fetch_add(1, Ordering::Relaxed);
        let tmp = dir.join(format!(
            "{}.{}.{seq}.tmp",
            path.file_name()
                .expect("entry paths always have a file name")
                .to_string_lossy(),
            std::process::id()
        ));
        let result = (|| {
            let mut file = std::fs::File::create(&tmp)?;
            io::Write::write_all(&mut file, body.as_bytes())?;
            if self.fsync {
                file.sync_all()?;
            }
            drop(file);
            std::fs::rename(&tmp, &path)
        })();
        if result.is_err() {
            let _ = std::fs::remove_file(&tmp);
        }
        result
    }
}

// ---- key rendering -------------------------------------------------------

fn problem_key_line(key: &ProblemKey) -> String {
    format!(
        "problem cores={} util={:016x} seed={:016x} stream={:016x} cfg={:016x}",
        key.cores, key.utilization_bits, key.base_seed, key.stream, key.config_fingerprint
    )
}

fn feasibility_key_line(taskset_hash: u64, cores: usize) -> String {
    format!("feasibility taskset={taskset_hash:016x} cores={cores}")
}

fn allocation_key_line(key: &AllocationKey) -> String {
    format!(
        "allocation cores={} util={:016x} seed={:016x} stream={:016x} cfg={:016x} scheme={}",
        key.problem.cores,
        key.problem.utilization_bits,
        key.problem.base_seed,
        key.problem.stream,
        key.problem.config_fingerprint,
        key.allocator.label(),
    )
}

// ---- enum labels (exhaustive matches: a new variant is a compile error,
// ---- not a silently misfiled entry) --------------------------------------

fn heuristic_label(h: Heuristic) -> &'static str {
    match h {
        Heuristic::FirstFit => "firstfit",
        Heuristic::BestFit => "bestfit",
        Heuristic::WorstFit => "worstfit",
        Heuristic::NextFit => "nextfit",
    }
}

fn heuristic_parse(s: &str) -> Option<Heuristic> {
    Some(match s {
        "firstfit" => Heuristic::FirstFit,
        "bestfit" => Heuristic::BestFit,
        "worstfit" => Heuristic::WorstFit,
        "nextfit" => Heuristic::NextFit,
        _ => return None,
    })
}

fn admission_label(a: AdmissionTest) -> &'static str {
    match a {
        AdmissionTest::ResponseTime => "rta",
        AdmissionTest::LiuLayland => "liulayland",
        AdmissionTest::Hyperbolic => "hyperbolic",
        AdmissionTest::UtilizationOnly => "utilization",
    }
}

fn ordering_label(o: TaskOrdering) -> &'static str {
    match o {
        TaskOrdering::Declaration => "declaration",
        TaskOrdering::DecreasingUtilization => "decreasing-util",
        TaskOrdering::IncreasingPeriod => "increasing-period",
    }
}

// ---- problem codec -------------------------------------------------------

/// Optional names travel hex-encoded so arbitrary bytes (spaces, newlines)
/// round-trip exactly; `-` encodes "no name".
fn name_hex(name: Option<&str>) -> String {
    match name {
        None => "-".to_owned(),
        Some(n) => {
            let mut out = String::with_capacity(2 * n.len().max(1));
            for b in n.bytes() {
                let _ = write!(out, "{b:02x}");
            }
            if out.is_empty() {
                out.push_str("--"); // empty-but-present name
            }
            out
        }
    }
}

fn name_unhex(field: &str) -> Option<Option<String>> {
    if field == "-" {
        return Some(None);
    }
    if field == "--" {
        return Some(Some(String::new()));
    }
    if !field.len().is_multiple_of(2) {
        return None;
    }
    let mut bytes = Vec::with_capacity(field.len() / 2);
    for i in (0..field.len()).step_by(2) {
        bytes.push(u8::from_str_radix(field.get(i..i + 2)?, 16).ok()?);
    }
    Some(Some(String::from_utf8(bytes).ok()?))
}

fn encode_problem(problem: &AllocationProblem) -> String {
    let mut out = String::new();
    let cfg = problem.partition_config;
    let _ = writeln!(out, "cores {}", problem.cores);
    let _ = writeln!(
        out,
        "config {} {} {}",
        heuristic_label(cfg.heuristic),
        admission_label(cfg.admission),
        ordering_label(cfg.ordering)
    );
    let _ = writeln!(out, "rt {}", problem.rt_tasks.len());
    for task in problem.rt_tasks.tasks() {
        let _ = writeln!(
            out,
            "r {} {} {} {}",
            task.wcet().as_ticks(),
            task.period().as_ticks(),
            task.deadline().as_ticks(),
            name_hex(task.name()),
        );
    }
    let _ = writeln!(out, "sec {}", problem.security_tasks.len());
    for task in problem.security_tasks.tasks() {
        let mode = match task.execution_mode() {
            ExecutionMode::Preemptive => "p",
            ExecutionMode::NonPreemptive => "n",
        };
        let _ = writeln!(
            out,
            "s {} {} {} {:016x} {} {}",
            task.wcet().as_ticks(),
            task.desired_period().as_ticks(),
            task.max_period().as_ticks(),
            task.weight().to_bits(),
            mode,
            name_hex(task.name()),
        );
    }
    out
}

fn decode_problem(payload: &str) -> Option<AllocationProblem> {
    let mut lines = payload.lines();
    let cores: usize = lines.next()?.strip_prefix("cores ")?.parse().ok()?;
    if cores == 0 {
        return None;
    }
    let mut config = lines.next()?.strip_prefix("config ")?.split(' ');
    let heuristic = heuristic_parse(config.next()?)?;
    let admission = match config.next()? {
        "rta" => AdmissionTest::ResponseTime,
        "liulayland" => AdmissionTest::LiuLayland,
        "hyperbolic" => AdmissionTest::Hyperbolic,
        "utilization" => AdmissionTest::UtilizationOnly,
        _ => return None,
    };
    let ordering = match config.next()? {
        "declaration" => TaskOrdering::Declaration,
        "decreasing-util" => TaskOrdering::DecreasingUtilization,
        "increasing-period" => TaskOrdering::IncreasingPeriod,
        _ => return None,
    };
    let n_rt: usize = lines.next()?.strip_prefix("rt ")?.parse().ok()?;
    let mut rt_tasks = Vec::with_capacity(n_rt);
    for _ in 0..n_rt {
        let mut fields = lines.next()?.strip_prefix("r ")?.split(' ');
        let wcet = Time::from_ticks(fields.next()?.parse().ok()?);
        let period = Time::from_ticks(fields.next()?.parse().ok()?);
        let deadline = Time::from_ticks(fields.next()?.parse().ok()?);
        let name = name_unhex(fields.next()?)?;
        let mut task = RtTask::new(wcet, period, deadline).ok()?;
        if let Some(name) = name {
            task = task.with_name(name);
        }
        rt_tasks.push(task);
    }
    let n_sec: usize = lines.next()?.strip_prefix("sec ")?.parse().ok()?;
    let mut sec_tasks = Vec::with_capacity(n_sec);
    for _ in 0..n_sec {
        let mut fields = lines.next()?.strip_prefix("s ")?.split(' ');
        let wcet = Time::from_ticks(fields.next()?.parse().ok()?);
        let desired = Time::from_ticks(fields.next()?.parse().ok()?);
        let max = Time::from_ticks(fields.next()?.parse().ok()?);
        let weight = f64::from_bits(u64::from_str_radix(fields.next()?, 16).ok()?);
        let mode = match fields.next()? {
            "p" => ExecutionMode::Preemptive,
            "n" => ExecutionMode::NonPreemptive,
            _ => return None,
        };
        let name = name_unhex(fields.next()?)?;
        let mut task = SecurityTask::new(wcet, desired, max)
            .ok()?
            .with_weight(weight)
            .ok()?
            .with_execution_mode(mode);
        if let Some(name) = name {
            task = task.with_name(name);
        }
        sec_tasks.push(task);
    }
    if lines.next().is_some() {
        return None; // trailing garbage: treat as corrupt
    }
    Some(
        AllocationProblem::new(
            TaskSet::new(rt_tasks),
            SecurityTaskSet::new(sec_tasks),
            cores,
        )
        .with_partition_config(PartitionConfig::new(heuristic, admission).with_ordering(ordering)),
    )
}

// ---- assignment codec (shared by the allocation payload) -----------------

fn assignment_field(partition: &Partition) -> String {
    let mut out = String::new();
    for task in 0..partition.task_count() {
        if task > 0 {
            out.push(' ');
        }
        match partition.core_of(TaskId(task)) {
            Some(core) => {
                let _ = write!(out, "{}", core.0);
            }
            None => out.push('-'),
        }
    }
    out
}

fn parse_assignment(field: &str, cores: usize) -> Option<Vec<Option<CoreId>>> {
    if field.is_empty() {
        return Some(Vec::new());
    }
    field
        .split(' ')
        .map(|f| {
            if f == "-" {
                Some(None)
            } else {
                let core: usize = f.parse().ok()?;
                (core < cores).then_some(Some(CoreId(core)))
            }
        })
        .collect()
}

// ---- allocation codec ----------------------------------------------------

/// `None` when the value carries an error variant the codec does not know
/// (`AllocationError` is non-exhaustive): the run is then not persisted.
fn encode_allocation(value: &Result<Allocation, AllocationError>) -> Option<String> {
    match value {
        Ok(allocation) => {
            let partition = allocation.rt_partition();
            let mut out = format!(
                "ok {} cores\na {}\nplacements {}\n",
                partition.cores(),
                assignment_field(partition),
                allocation.len()
            );
            for (_, placement) in allocation.iter() {
                let _ = writeln!(
                    out,
                    "p {} {} {:016x}",
                    placement.core.0,
                    placement.period.as_ticks(),
                    placement.tightness.to_bits()
                );
            }
            Some(out)
        }
        Err(AllocationError::RtPartitionFailed { task, cores }) => {
            Some(format!("err rt-partition-failed {} {cores}\n", task.0))
        }
        Err(AllocationError::SecurityUnschedulable { task }) => Some(format!(
            "err security-unschedulable {}\n",
            task.map_or_else(|| "-".to_owned(), |id| id.0.to_string())
        )),
        Err(AllocationError::InsufficientCores {
            available,
            required,
        }) => Some(format!("err insufficient-cores {available} {required}\n")),
        Err(AllocationError::ProblemTooLarge { assignments, limit }) => {
            Some(format!("err problem-too-large {assignments} {limit}\n"))
        }
        Err(_) => None,
    }
}

fn decode_allocation(payload: &str) -> Option<Result<Allocation, AllocationError>> {
    let mut lines = payload.lines();
    let first = lines.next()?;
    if let Some(rest) = first.strip_prefix("err ") {
        let (kind, args) = rest.split_once(' ').unwrap_or((rest, ""));
        let mut args = args.split(' ');
        let error = match kind {
            "rt-partition-failed" => AllocationError::RtPartitionFailed {
                task: TaskId(args.next()?.parse().ok()?),
                cores: args.next()?.parse().ok()?,
            },
            "security-unschedulable" => AllocationError::SecurityUnschedulable {
                task: match args.next()? {
                    "-" => None,
                    id => Some(SecurityTaskId(id.parse().ok()?)),
                },
            },
            "insufficient-cores" => AllocationError::InsufficientCores {
                available: args.next()?.parse().ok()?,
                required: args.next()?.parse().ok()?,
            },
            "problem-too-large" => AllocationError::ProblemTooLarge {
                assignments: args.next()?.parse().ok()?,
                limit: args.next()?.parse().ok()?,
            },
            _ => return None,
        };
        return Some(Err(error));
    }
    let cores: usize = first
        .strip_prefix("ok ")?
        .strip_suffix(" cores")?
        .parse()
        .ok()?;
    if cores == 0 {
        return None;
    }
    let assignment = parse_assignment(lines.next()?.strip_prefix("a ")?, cores)?;
    let partition = Partition::from_assignment(assignment, cores);
    let n: usize = lines.next()?.strip_prefix("placements ")?.parse().ok()?;
    let mut placements = Vec::with_capacity(n);
    for _ in 0..n {
        let mut fields = lines.next()?.strip_prefix("p ")?.split(' ');
        let core: usize = fields.next()?.parse().ok()?;
        if core >= cores {
            return None;
        }
        placements.push(SecurityPlacement {
            core: CoreId(core),
            period: Time::from_ticks(fields.next()?.parse().ok()?),
            tightness: f64::from_bits(u64::from_str_radix(fields.next()?, 16).ok()?),
        });
    }
    if lines.next().is_some() {
        return None;
    }
    Some(Ok(Allocation::new(partition, placements)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use hydra_core::{casestudy, catalog};

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("rt-dse-store-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn problem_key() -> ProblemKey {
        ProblemKey {
            cores: 2,
            utilization_bits: 0.55f64.to_bits(),
            base_seed: 2018,
            stream: 7,
            config_fingerprint: 42,
        }
    }

    fn uav_problem() -> AllocationProblem {
        AllocationProblem::new(casestudy::uav_rt_tasks(), catalog::table1_tasks(), 2)
    }

    #[test]
    fn problems_round_trip_bit_exactly() {
        let dir = tmp_dir("problem");
        let store = MemoStore::open(&dir).unwrap().with_fsync(false);
        let key = problem_key();
        assert!(store.get_problem(&key).is_none());
        let problem = uav_problem();
        store.put_problem(&key, &problem).unwrap();
        let restored = store.get_problem(&key).expect("entry just written");
        assert_eq!(restored.cores, problem.cores);
        assert_eq!(restored.partition_config, problem.partition_config);
        assert_eq!(restored.rt_tasks.len(), problem.rt_tasks.len());
        for (a, b) in restored.rt_tasks.tasks().zip(problem.rt_tasks.tasks()) {
            assert_eq!(a, b);
        }
        assert_eq!(restored.security_tasks.len(), problem.security_tasks.len());
        for (a, b) in restored
            .security_tasks
            .tasks()
            .zip(problem.security_tasks.tasks())
        {
            assert_eq!(a, b);
        }
        // Bit-exactness of the derived floats, not just approximate equality.
        assert_eq!(
            restored.total_utilization().to_bits(),
            problem.total_utilization().to_bits()
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn feasibility_and_allocation_round_trip() {
        let dir = tmp_dir("families");
        let store = MemoStore::open(&dir).unwrap().with_fsync(false);
        assert!(store.get_feasibility(9, 2).is_none());
        store.put_feasibility(9, 2, true).unwrap();
        store.put_feasibility(9, 4, false).unwrap();
        assert_eq!(store.get_feasibility(9, 2), Some(true));
        assert_eq!(store.get_feasibility(9, 4), Some(false));

        let partition = Partition::from_assignment(vec![Some(CoreId(0)), None, Some(CoreId(2))], 3);
        let akey = AllocationKey {
            problem: problem_key(),
            allocator: crate::spec::AllocatorKind::Hydra,
        };
        let allocation = Allocation::new(
            partition,
            vec![SecurityPlacement {
                core: CoreId(1),
                period: Time::from_millis(250),
                tightness: 0.875,
            }],
        );
        store.put_allocation(&akey, &Ok(allocation)).unwrap();
        let restored = store.get_allocation(&akey).unwrap().unwrap();
        assert_eq!(restored.len(), 1);
        let (id, placement) = restored.iter().next().unwrap();
        assert_eq!(id, SecurityTaskId(0));
        assert_eq!(placement.core, CoreId(1));
        assert_eq!(placement.period, Time::from_millis(250));
        assert_eq!(placement.tightness.to_bits(), 0.875f64.to_bits());
        let bkey = AllocationKey {
            allocator: crate::spec::AllocatorKind::SingleCore,
            ..akey
        };
        store
            .put_allocation(
                &bkey,
                &Err(AllocationError::ProblemTooLarge {
                    assignments: u128::from(u64::MAX) + 7,
                    limit: 1 << 20,
                }),
            )
            .unwrap();
        assert_eq!(
            store.get_allocation(&bkey),
            Some(Err(AllocationError::ProblemTooLarge {
                assignments: u128::from(u64::MAX) + 7,
                limit: 1 << 20,
            }))
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_entries_are_misses_never_wrong_answers() {
        let dir = tmp_dir("corrupt");
        let store = MemoStore::open(&dir).unwrap().with_fsync(false);
        store.put_feasibility(1, 2, true).unwrap();
        let path = store.entry_path("feasibility", &feasibility_key_line(1, 2));
        // Flip one payload byte: checksum fails, entry is a miss.
        let mut bytes = std::fs::read(&path).unwrap();
        let at = bytes.len() / 2;
        bytes[at] ^= 0x20;
        std::fs::write(&path, &bytes).unwrap();
        assert_eq!(store.get_feasibility(1, 2), None);
        // Truncated mid-write (no trailer at all): also a miss.
        store.put_feasibility(1, 2, true).unwrap();
        let full = std::fs::read(&path).unwrap();
        std::fs::write(&path, &full[..full.len() / 2]).unwrap();
        assert_eq!(store.get_feasibility(1, 2), None);
        // An empty file (crashed writer that never renamed would not leave
        // one, but a manual touch might): a miss.
        std::fs::write(&path, b"").unwrap();
        assert_eq!(store.get_feasibility(1, 2), None);
        // A valid rewrite heals the slot.
        store.put_feasibility(1, 2, false).unwrap();
        assert_eq!(store.get_feasibility(1, 2), Some(false));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn key_echo_rejects_hash_collisions() {
        let dir = tmp_dir("echo");
        let store = MemoStore::open(&dir).unwrap().with_fsync(false);
        store.put_feasibility(3, 2, true).unwrap();
        let path = store.entry_path("feasibility", &feasibility_key_line(3, 2));
        // Copy the (valid) entry onto another key's address: the echoed key
        // no longer matches the requested one, so the read is a miss even
        // though magic and checksum are pristine.
        let other = store.entry_path("feasibility", &feasibility_key_line(4, 2));
        std::fs::create_dir_all(other.parent().unwrap()).unwrap();
        std::fs::copy(&path, &other).unwrap();
        assert_eq!(store.get_feasibility(4, 2), None);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn entry_version_mismatch_is_a_miss() {
        let dir = tmp_dir("entry-version");
        let store = MemoStore::open(&dir).unwrap().with_fsync(false);
        store.put_feasibility(5, 2, true).unwrap();
        let path = store.entry_path("feasibility", &feasibility_key_line(5, 2));
        let text = std::fs::read_to_string(&path).unwrap();
        let bumped = text.replace("dse-memo-entry v1", "dse-memo-entry v9");
        // Recompute a valid checksum so only the version line differs.
        let body_end = bumped.len() - 21;
        let mut body = bumped[..body_end].to_owned();
        let sum = fnv1a(body.as_bytes());
        let _ = writeln!(body, "sum {sum:016x}");
        std::fs::write(&path, body).unwrap();
        assert_eq!(store.get_feasibility(5, 2), None);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn store_version_mismatch_is_rejected_with_both_headers() {
        let dir = tmp_dir("store-version");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("STORE"), "dse-memo-store v99\n").unwrap();
        let err = MemoStore::open(&dir).expect_err("incompatible header must be rejected");
        let message = err.to_string();
        assert!(message.contains("dse-memo-store v1"), "{message}");
        assert!(message.contains("dse-memo-store v99"), "{message}");
        assert!(message.contains("STORE"), "{message}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn reopening_a_store_preserves_entries() {
        let dir = tmp_dir("reopen");
        {
            let store = MemoStore::open(&dir).unwrap();
            store.put_feasibility(11, 2, true).unwrap();
        }
        let store = MemoStore::open(&dir).unwrap();
        assert_eq!(store.get_feasibility(11, 2), Some(true));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn names_round_trip_through_hex() {
        assert_eq!(name_unhex(&name_hex(None)), Some(None));
        assert_eq!(
            name_unhex(&name_hex(Some("check executables"))),
            Some(Some("check executables".to_owned()))
        );
        assert_eq!(name_unhex(&name_hex(Some(""))), Some(Some(String::new())));
        assert_eq!(
            name_unhex(&name_hex(Some("uni\ncode π"))),
            Some(Some("uni\ncode π".to_owned()))
        );
        assert_eq!(name_unhex("zz"), None);
    }
}
