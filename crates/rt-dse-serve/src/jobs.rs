//! The shared job pool: every sweep POSTed by any client lands in one FIFO
//! queue drained by a fixed set of runner threads, so concurrent clients
//! share the machine instead of oversubscribing it. Each job is one
//! [`SweepSession`] whose outcomes stream straight onto the client's
//! connection as chunked JSONL — the engine's [`rt_dse::sink::OutcomeSink`]
//! seam is the transport seam.
//!
//! A job's [`SweepHandle`] is registered before the session runs, so
//! `cancel` works in every state: a job cancelled while queued starts its
//! session pre-cancelled (delivers nothing, terminates its stream cleanly)
//! and one cancelled mid-run stops after in-flight scenarios.

use std::collections::{BTreeMap, VecDeque};
use std::io::BufWriter;
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use rt_dse::prelude::*;
use rt_dse::{JsonlSink, SweepObs, ENGINE_TRACK};
use rt_obs::Counter;

use crate::http::{self, ChunkedWriter};
use crate::json;
use crate::proto::SweepRequest;

/// The lifecycle of one job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// Accepted, waiting for a runner thread.
    Queued,
    /// A runner is streaming it.
    Running,
    /// Ran to completion; the stream was terminated cleanly.
    Done,
    /// Stopped by `cancel` (queued or mid-run); the stream was terminated
    /// cleanly after the outcomes delivered so far.
    Cancelled,
    /// The sweep or its transport failed; the stream was left unterminated
    /// so the client sees the truncation.
    Failed,
}

impl JobState {
    /// The wire label used in status documents.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done => "done",
            JobState::Cancelled => "cancelled",
            JobState::Failed => "failed",
        }
    }
}

/// The mutable half of a job record.
#[derive(Debug)]
struct JobStatus {
    state: JobState,
    error: Option<String>,
    started: Option<Instant>,
    elapsed: Option<Duration>,
    store_hits: u64,
    store_misses: u64,
}

/// One submitted sweep job: identity, live progress, terminal statistics.
#[derive(Debug)]
pub struct JobRecord {
    id: u64,
    name: String,
    handle: SweepHandle,
    status: Mutex<JobStatus>,
}

impl JobRecord {
    /// The job's id (unique within one server process, dense from 1).
    #[must_use]
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The sweep's name (the request's `name` field).
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Requests cancellation (idempotent, valid in every state).
    pub fn cancel(&self) {
        self.handle.cancel();
    }

    /// The job's current state.
    #[must_use]
    pub fn state(&self) -> JobState {
        self.status.lock().expect("job status poisoned").state
    }

    /// Renders the status document — field order is pinned to
    /// [`crate::proto::STATUS_FIELDS`] (unit-tested below, machine-checked
    /// against the README by xtask D006).
    #[must_use]
    pub fn status_json(&self) -> String {
        let progress = self.handle.progress();
        let status = self.status.lock().expect("job status poisoned");
        let elapsed = status
            .elapsed
            .or_else(|| status.started.map(|t| t.elapsed()));
        let elapsed =
            elapsed.map_or_else(|| "null".to_owned(), |d| format!("{:.6}", d.as_secs_f64()));
        let error = status
            .error
            .as_deref()
            .map_or_else(|| "null".to_owned(), json::quote);
        format!(
            "{{\"schema\":\"dse-serve-job/v1\",\"id\":{},\"name\":{},\"state\":\"{}\",\
             \"done\":{},\"total\":{},\"elapsed_secs\":{elapsed},\
             \"store_hits\":{},\"store_misses\":{},\"error\":{error}}}",
            self.id,
            json::quote(&self.name),
            status.state.label(),
            progress.done,
            progress.total,
            status.store_hits,
            status.store_misses,
        )
    }
}

/// How many finished jobs (done, cancelled or failed) the registry keeps.
/// Each costs about 0.3 KB and a row of every `GET /v1/jobs` body, so a
/// long-running server keeps the most recent ones only.
const FINISHED_JOBS_KEPT: usize = 1024;

/// The job registry: every queued and running job, plus the
/// [`FINISHED_JOBS_KEPT`] most recently finished ones. An evicted id
/// resolves like one that never existed.
#[derive(Debug, Default)]
struct JobRegistry {
    jobs: BTreeMap<u64, Arc<JobRecord>>,
    /// Ids of the kept finished jobs, in the order they finished.
    finished: VecDeque<u64>,
}

impl JobRegistry {
    fn insert(&mut self, record: Arc<JobRecord>) {
        self.jobs.insert(record.id, record);
    }

    fn remove(&mut self, id: u64) {
        self.jobs.remove(&id);
    }

    fn get(&self, id: u64) -> Option<Arc<JobRecord>> {
        self.jobs.get(&id).cloned()
    }

    /// Every registered job, in id order.
    fn all(&self) -> Vec<Arc<JobRecord>> {
        self.jobs.values().cloned().collect()
    }

    /// Records that job `id` reached a terminal state, evicting the job
    /// that finished longest ago once more than [`FINISHED_JOBS_KEPT`] are
    /// kept.
    fn finish(&mut self, id: u64) {
        self.finished.push_back(id);
        if self.finished.len() > FINISHED_JOBS_KEPT {
            if let Some(oldest) = self.finished.pop_front() {
                self.jobs.remove(&oldest);
            }
        }
    }
}

/// One queued unit of work: the pre-built session plus the client
/// connection its outcomes stream onto.
struct QueuedJob {
    record: Arc<JobRecord>,
    session: SweepSession,
    stream: TcpStream,
}

/// The shared pool: job registry, FIFO queue, shutdown latch, and the
/// engine resources every job shares (observability registry, persistent
/// memo store, per-job thread budget).
pub struct JobPool {
    queue: Mutex<VecDeque<QueuedJob>>,
    available: Condvar,
    jobs: Mutex<JobRegistry>,
    next_id: Mutex<u64>,
    shutdown: AtomicBool,
    obs: SweepObs,
    store: Option<Arc<MemoStore>>,
    threads_per_job: usize,
    jobs_accepted: Counter,
    jobs_completed: Counter,
    jobs_cancelled: Counter,
    jobs_failed: Counter,
}

impl std::fmt::Debug for JobPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JobPool")
            .field("threads_per_job", &self.threads_per_job)
            .field("shutdown", &self.shutdown)
            .finish_non_exhaustive()
    }
}

impl JobPool {
    /// A pool sharing one observability bundle and (optionally) one
    /// persistent memo store across every job. `threads_per_job` is the
    /// worker-thread count each sweep session runs with (`0` = auto).
    #[must_use]
    pub fn new(obs: SweepObs, store: Option<Arc<MemoStore>>, threads_per_job: usize) -> Arc<Self> {
        let shard = obs.registry().shard(ENGINE_TRACK);
        let jobs_accepted = shard.counter("serve.jobs_accepted");
        let jobs_completed = shard.counter("serve.jobs_completed");
        let jobs_cancelled = shard.counter("serve.jobs_cancelled");
        let jobs_failed = shard.counter("serve.jobs_failed");
        Arc::new(JobPool {
            queue: Mutex::new(VecDeque::new()),
            available: Condvar::new(),
            jobs: Mutex::new(JobRegistry::default()),
            next_id: Mutex::new(1),
            shutdown: AtomicBool::new(false),
            obs,
            store,
            threads_per_job,
            jobs_accepted,
            jobs_completed,
            jobs_cancelled,
            jobs_failed,
        })
    }

    /// The shared observability bundle (the `/metrics` document).
    #[must_use]
    pub fn obs(&self) -> &SweepObs {
        &self.obs
    }

    /// Accepts a sweep: registers the job, writes the streaming response
    /// head (including the `X-Job-Id` header, so the client learns its id
    /// before the first result), and enqueues it. Returns `None` when the
    /// pool is shutting down (the caller answers 503).
    ///
    /// # Errors
    ///
    /// Transport errors writing the response head; the job is not enqueued.
    pub fn submit(
        &self,
        request: SweepRequest,
        mut stream: TcpStream,
    ) -> std::io::Result<Option<Arc<JobRecord>>> {
        // SeqCst everywhere the latch is touched: shutdown is rare and cold,
        // simplicity beats shaving an ordering here.
        if self.shutdown.load(Ordering::SeqCst) {
            let body = format!("{{\"error\":{}}}\n", json::quote("shutting down"));
            let _ = http::write_response(&mut stream, 503, "application/json", body.as_bytes());
            return Ok(None);
        }
        let id = {
            let mut next = self.next_id.lock().expect("id counter poisoned");
            let id = *next;
            *next += 1;
            id
        };
        let mut session = SweepSession::new(request.spec)
            .threads(self.threads_per_job)
            .observability(self.obs.clone());
        if let Some(store) = &self.store {
            session = session.memo_store(Arc::clone(store));
        }
        let record = Arc::new(JobRecord {
            id,
            name: session.spec().name.clone(),
            handle: session.handle(),
            status: Mutex::new(JobStatus {
                state: JobState::Queued,
                error: None,
                started: None,
                elapsed: None,
                store_hits: 0,
                store_misses: 0,
            }),
        });
        // Register before the head goes out: the moment the client reads
        // `X-Job-Id` it may act on it (status poll, cancel), so the id must
        // already resolve.
        self.jobs
            .lock()
            .expect("job registry poisoned")
            .insert(Arc::clone(&record));
        if let Err(error) = http::write_chunked_head(
            &mut stream,
            200,
            "application/x-ndjson",
            &[("X-Job-Id", &id.to_string())],
        ) {
            self.jobs.lock().expect("job registry poisoned").remove(id);
            return Err(error);
        }
        self.queue
            .lock()
            .expect("job queue poisoned")
            .push_back(QueuedJob {
                record: Arc::clone(&record),
                session,
                stream,
            });
        self.available.notify_one();
        self.jobs_accepted.inc();
        Ok(Some(record))
    }

    /// Looks up one job; `None` for an unknown or evicted id.
    #[must_use]
    pub fn job(&self, id: u64) -> Option<Arc<JobRecord>> {
        self.jobs.lock().expect("job registry poisoned").get(id)
    }

    /// Every queued and running job and the most recently finished ones,
    /// in id order.
    #[must_use]
    pub fn all_jobs(&self) -> Vec<Arc<JobRecord>> {
        self.jobs.lock().expect("job registry poisoned").all()
    }

    /// Cancels one job. Returns whether the id was known (and not evicted).
    #[must_use]
    pub fn cancel(&self, id: u64) -> bool {
        match self.job(id) {
            Some(record) => {
                record.cancel();
                true
            }
            None => false,
        }
    }

    /// Flips the shutdown latch: new submissions are refused, idle runners
    /// wake up and exit once the queue drains. Idempotent.
    pub fn begin_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        self.available.notify_all();
    }

    /// Whether [`JobPool::begin_shutdown`] has been called.
    #[must_use]
    pub fn is_shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// A runner thread's main loop: drain jobs until shutdown empties the
    /// queue. Already-queued jobs still run to completion (graceful drain).
    pub fn run_worker(&self) {
        loop {
            let job = {
                let mut queue = self.queue.lock().expect("job queue poisoned");
                loop {
                    if let Some(job) = queue.pop_front() {
                        break job;
                    }
                    if self.is_shutting_down() {
                        return;
                    }
                    queue = self.available.wait(queue).expect("job queue poisoned");
                }
            };
            self.run_job(job);
        }
    }

    /// Runs one job to a terminal state, streaming its outcomes onto the
    /// client connection.
    fn run_job(&self, job: QueuedJob) {
        let QueuedJob {
            record,
            session,
            stream,
        } = job;
        {
            let mut status = record.status.lock().expect("job status poisoned");
            status.state = JobState::Running;
            // Job wall-clock: elapsed_secs in the status document is operator
            // telemetry; sweep output bytes come from the engine, which this
            // crate never times (see the D002 allow in crates/xtask/lints.toml).
            #[allow(clippy::disallowed_methods)]
            let started = Instant::now();
            status.started = Some(started);
        }
        let mut sink = JsonlSink::new(ChunkedWriter::new(BufWriter::new(stream)));
        // The session runs whatever the spec's explore mode plans: a
        // frontier job's Phase-A probes locate each slice's acceptance cliff
        // without emitting anything, then its planned stream arrives on the
        // same JSONL transport — byte-identical to a CLI run of the same
        // spec. The job's handle was registered at submit time, so cancel
        // works in both phases.
        let result = session.run(&mut sink);
        {
            let mut status = record.status.lock().expect("job status poisoned");
            status.elapsed = status.started.map(|t| t.elapsed());
            match result {
                Ok(summary) => {
                    status.store_hits = summary.memo.store_hits;
                    status.store_misses = summary.memo.store_misses;
                    // Terminate the chunked stream cleanly — also after a
                    // cancellation, so the client can tell "stopped on purpose"
                    // (terminal chunk) from "something died" (truncation).
                    let finish = sink.into_inner().finish().map(drop);
                    if summary.cancelled {
                        status.state = JobState::Cancelled;
                        self.jobs_cancelled.inc();
                    } else if let Err(error) = finish {
                        status.state = JobState::Failed;
                        status.error = Some(format!("client transport failed: {error}"));
                        self.jobs_failed.inc();
                    } else {
                        status.state = JobState::Done;
                        self.jobs_completed.inc();
                    }
                }
                Err(error) => {
                    // No terminal chunk: the truncated stream is the client's
                    // failure signal.
                    status.state = JobState::Failed;
                    status.error = Some(format!("sweep aborted: {error}"));
                    self.jobs_failed.inc();
                }
            }
        }
        // Only now, with its state terminal, may the job be evicted.
        self.jobs
            .lock()
            .expect("job registry poisoned")
            .finish(record.id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::STATUS_FIELDS;

    fn fabricated_record() -> JobRecord {
        JobRecord {
            id: 3,
            name: "mini \"quoted\"".to_owned(),
            handle: SweepHandle::new(),
            status: Mutex::new(JobStatus {
                state: JobState::Failed,
                error: Some("sweep aborted: broken pipe".to_owned()),
                started: None,
                elapsed: Some(Duration::from_millis(1500)),
                store_hits: 4,
                store_misses: 1,
            }),
        }
    }

    fn record_with_id(id: u64) -> Arc<JobRecord> {
        let mut record = fabricated_record();
        record.id = id;
        Arc::new(record)
    }

    #[test]
    fn registry_keeps_every_running_job_and_the_newest_finished_ones() {
        let extra = 5u64;
        let finished_total = FINISHED_JOBS_KEPT as u64 + extra;
        let mut registry = JobRegistry::default();
        // Every fourth job keeps running; the others finish in id order.
        let mut running = Vec::new();
        let mut finished = Vec::new();
        let mut id = 0u64;
        while (finished.len() as u64) < finished_total {
            id += 1;
            registry.insert(record_with_id(id));
            if id.is_multiple_of(4) {
                running.push(id);
            } else {
                registry.finish(id);
                finished.push(id);
            }
        }
        let mut expected: Vec<u64> = finished[extra as usize..].to_vec();
        expected.extend(&running);
        expected.sort_unstable();
        let kept: Vec<u64> = registry.all().iter().map(|job| job.id()).collect();
        assert_eq!(kept, expected);
        // The evicted jobs resolve like unknown ids; kept ones resolve.
        for &evicted in &finished[..extra as usize] {
            assert!(registry.get(evicted).is_none(), "job {evicted}");
        }
        assert!(registry.get(finished[extra as usize]).is_some());
        assert!(registry.get(running[0]).is_some());
    }

    #[test]
    fn status_json_renders_fields_in_the_documented_order() {
        let rendered = fabricated_record().status_json();
        let doc = json::parse(&rendered).expect("status documents are valid JSON");
        let json::Json::Obj(members) = doc else {
            panic!("status document is an object");
        };
        let rendered_order: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
        let documented: Vec<&str> = STATUS_FIELDS.split(',').map(str::trim).collect();
        assert_eq!(
            rendered_order, documented,
            "STATUS_FIELDS and status_json must agree on names and order"
        );
    }

    #[test]
    fn status_json_carries_state_error_and_store_counters() {
        let rendered = fabricated_record().status_json();
        let doc = json::parse(&rendered).expect("valid JSON");
        assert_eq!(
            doc.get("state").and_then(json::Json::as_str),
            Some("failed")
        );
        assert_eq!(doc.get("store_hits").and_then(json::Json::as_u64), Some(4));
        assert_eq!(
            doc.get("store_misses").and_then(json::Json::as_u64),
            Some(1)
        );
        assert_eq!(
            doc.get("elapsed_secs").and_then(json::Json::as_f64),
            Some(1.5)
        );
        assert_eq!(
            doc.get("error").and_then(json::Json::as_str),
            Some("sweep aborted: broken pipe")
        );
        assert_eq!(
            doc.get("name").and_then(json::Json::as_str),
            Some("mini \"quoted\"")
        );
    }
}
