//! # rt-dse-serve — sweep-as-a-service over the embeddable engine API
//!
//! A long-running, std-only HTTP/1.1 server (hand-rolled on
//! [`std::net::TcpListener`] — the container vendors no async stack) that
//! accepts design-space sweeps as JSON jobs, schedules them on one shared
//! runner pool across concurrent clients, and **streams** each job's
//! results back in grid order as chunked JSONL. The bytes on the wire are
//! identical to what `dse sweep` writes to disk for the same spec — both
//! are one [`rt_dse::api::SweepSession`] feeding an
//! [`rt_dse::sink::OutcomeSink`]; the CI `serve-smoke` job `cmp`s the two.
//!
//! Backed by a persistent [`MemoStore`] (`--store`), repeat jobs are
//! answered from disk: the second POST of an identical sweep re-streams the
//! same bytes at memo-hit speed with zero store misses.
//!
//! ## Endpoints
//!
//! | Method + path          | Purpose                                        |
//! |------------------------|------------------------------------------------|
//! | `GET /`                | Index: endpoint list as JSON                   |
//! | `GET /healthz`         | Liveness probe                                 |
//! | `POST /v1/sweep`       | Submit a sweep; response streams JSONL (chunked, `X-Job-Id` header) |
//! | `GET /v1/jobs`         | Status documents of the queued and running jobs and the 1,024 most recently finished, id order |
//! | `GET /v1/jobs/{id}`    | One job's status document (404 once evicted)   |
//! | `POST /v1/jobs/{id}/cancel` | Cooperative cancel (queued or running)    |
//! | `GET /metrics`         | The shared rt-obs `rt-obs/v1` metrics snapshot |
//! | `POST /v1/shutdown`    | Refuse new work, drain the queue, exit         |

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod http;
pub mod jobs;
pub mod json;
pub mod proto;

use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;
use std::time::Duration;

use rt_dse::{MemoStore, SweepObs};

use jobs::JobPool;

/// How long a connection may dribble its request before the handler gives
/// up on it (a stuck client must not pin a handler thread forever).
const READ_TIMEOUT: Duration = Duration::from_secs(30);

/// Server configuration (the `dse-serve` CLI flags).
#[derive(Debug, Clone, Default)]
pub struct ServerConfig {
    /// Bind address, e.g. `127.0.0.1:7878` (port `0` = ephemeral).
    pub addr: String,
    /// Job-runner threads — how many sweeps run concurrently (min 1).
    pub workers: usize,
    /// Engine worker threads per job (`0` = machine parallelism).
    pub threads_per_job: usize,
    /// The shared persistent memo store, if any.
    pub store: Option<Arc<MemoStore>>,
}

/// A bound, not-yet-serving server. [`Server::serve`] blocks until a
/// `POST /v1/shutdown` drains it.
#[derive(Debug)]
pub struct Server {
    listener: TcpListener,
    pool: Arc<JobPool>,
    workers: usize,
}

impl Server {
    /// Binds the listener and builds the shared job pool (metrics on, so
    /// `/metrics` always has a registry to snapshot).
    ///
    /// # Errors
    ///
    /// Propagates bind errors.
    pub fn bind(config: ServerConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        let pool = JobPool::new(
            SweepObs::new(true, false),
            config.store,
            config.threads_per_job,
        );
        Ok(Server {
            listener,
            pool,
            workers: config.workers.max(1),
        })
    }

    /// The bound address (resolves an ephemeral port).
    ///
    /// # Errors
    ///
    /// Propagates the socket query error.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// The shared job pool (exposed for embedding and tests).
    #[must_use]
    pub fn pool(&self) -> &Arc<JobPool> {
        &self.pool
    }

    /// Serves until shutdown: spawns the runner pool, accepts connections
    /// (one short-lived handler thread each), and on `POST /v1/shutdown`
    /// stops accepting, drains the queue, joins the runners and returns.
    ///
    /// # Errors
    ///
    /// Propagates accept-loop and thread-spawn errors; per-connection I/O
    /// errors only fail their own connection.
    pub fn serve(self) -> io::Result<()> {
        let addr = self.listener.local_addr()?;
        let mut runners = Vec::with_capacity(self.workers);
        for index in 0..self.workers {
            let pool = Arc::clone(&self.pool);
            runners.push(
                std::thread::Builder::new()
                    .name(format!("dse-serve-runner-{index}"))
                    .spawn(move || pool.run_worker())?,
            );
        }
        for connection in self.listener.incoming() {
            if self.pool.is_shutting_down() {
                break;
            }
            let Ok(stream) = connection else {
                continue; // a failed accept poisons nothing
            };
            let pool = Arc::clone(&self.pool);
            std::thread::Builder::new()
                .name("dse-serve-conn".to_owned())
                .spawn(move || handle_connection(&pool, stream, addr))?;
        }
        // Idempotent (the shutdown endpoint already flipped the latch when
        // we got here via it) — wakes any runner idling on the queue.
        self.pool.begin_shutdown();
        for runner in runners {
            let _ = runner.join();
        }
        Ok(())
    }
}

/// Handles one connection: parse, route, respond. All transport errors are
/// swallowed — the peer is gone, there is nobody left to tell.
fn handle_connection(pool: &Arc<JobPool>, mut stream: TcpStream, addr: SocketAddr) {
    let _ = stream.set_read_timeout(Some(READ_TIMEOUT));
    let request = match http::read_request(&mut stream) {
        Ok(request) => request,
        Err(error) => {
            let _ = respond_json(&mut stream, 400, &error_body(&error.to_string()));
            return;
        }
    };
    let _ = route(pool, request, stream, addr);
}

/// Renders `{"error": …}`.
fn error_body(message: &str) -> String {
    format!("{{\"error\":{}}}\n", json::quote(message))
}

/// Writes one JSON response.
fn respond_json(stream: &mut TcpStream, status: u16, body: &str) -> io::Result<()> {
    http::write_response(stream, status, "application/json", body.as_bytes())
}

/// Routes one parsed request. Consumes the stream — the sweep endpoint
/// hands it to the job pool, everything else answers inline.
fn route(
    pool: &Arc<JobPool>,
    request: http::Request,
    mut stream: TcpStream,
    addr: SocketAddr,
) -> io::Result<()> {
    let method = request.method.as_str();
    match (method, request.path.as_str()) {
        ("GET", "/") => respond_json(&mut stream, 200, &index_body()),
        ("GET", "/healthz") => respond_json(&mut stream, 200, "{\"ok\":true}\n"),
        ("POST", "/v1/sweep") => {
            let parsed = std::str::from_utf8(&request.body)
                .map_err(|_| "the request body must be UTF-8".to_owned())
                .and_then(json::parse)
                .and_then(|doc| proto::parse_request(&doc));
            match parsed {
                Err(reason) => respond_json(&mut stream, 400, &error_body(&reason)),
                // Some: the runner owns the stream now. None: the pool is
                // shutting down and already answered 503 on the stream.
                Ok(sweep) => pool.submit(sweep, stream).map(drop),
            }
        }
        ("GET", "/v1/jobs") => {
            let docs: Vec<String> = pool
                .all_jobs()
                .iter()
                .map(|job| job.status_json())
                .collect();
            let body = format!(
                "{{\"schema\":\"dse-serve-jobs/v1\",\"jobs\":[{}]}}\n",
                docs.join(",")
            );
            respond_json(&mut stream, 200, &body)
        }
        ("GET", path) if path.starts_with("/v1/jobs/") => match job_id(path, "") {
            Some(id) => match pool.job(id) {
                Some(job) => {
                    let mut body = job.status_json();
                    body.push('\n');
                    respond_json(&mut stream, 200, &body)
                }
                None => respond_json(&mut stream, 404, &error_body("no such job")),
            },
            None => respond_json(&mut stream, 404, &error_body("no such job")),
        },
        ("POST", path) if path.starts_with("/v1/jobs/") && path.ends_with("/cancel") => {
            match job_id(path, "/cancel") {
                Some(id) if pool.cancel(id) => {
                    respond_json(&mut stream, 200, "{\"ok\":true,\"cancelled\":true}\n")
                }
                _ => respond_json(&mut stream, 404, &error_body("no such job")),
            }
        }
        ("GET", "/metrics") => {
            let body = pool.obs().metrics_json();
            respond_json(&mut stream, 200, &body)
        }
        ("POST", "/v1/shutdown") => {
            pool.begin_shutdown();
            respond_json(&mut stream, 200, "{\"ok\":true,\"draining\":true}\n")?;
            // Unblock the accept loop so `serve` notices the latch; the
            // throwaway connection is closed unused by the handler thread.
            let _ = TcpStream::connect(addr);
            Ok(())
        }
        ("GET" | "POST", _) => respond_json(&mut stream, 404, &error_body("no such endpoint")),
        _ => respond_json(&mut stream, 405, &error_body("method not allowed")),
    }
}

/// Extracts the numeric id from `/v1/jobs/{id}{suffix}`.
fn job_id(path: &str, suffix: &str) -> Option<u64> {
    path.strip_prefix("/v1/jobs/")?
        .strip_suffix(suffix)?
        .parse()
        .ok()
}

/// The `GET /` index document.
fn index_body() -> String {
    format!(
        "{{\"schema\":\"dse-serve/v1\",\"endpoints\":[\
         \"GET /healthz\",\"POST /v1/sweep\",\"GET /v1/jobs\",\"GET /v1/jobs/{{id}}\",\
         \"POST /v1/jobs/{{id}}/cancel\",\"GET /metrics\",\"POST /v1/shutdown\"],\
         \"request_fields\":{},\"status_fields\":{}}}\n",
        json::quote(proto::REQUEST_FIELDS),
        json::quote(proto::STATUS_FIELDS),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn job_ids_parse_from_paths() {
        assert_eq!(job_id("/v1/jobs/17", ""), Some(17));
        assert_eq!(job_id("/v1/jobs/17/cancel", "/cancel"), Some(17));
        assert_eq!(job_id("/v1/jobs/x", ""), None);
        assert_eq!(job_id("/v1/jobs/", ""), None);
        assert_eq!(job_id("/v1/jobs/17/extra", ""), None);
    }

    #[test]
    fn the_index_is_valid_json() {
        let doc = json::parse(&index_body()).expect("index is valid JSON");
        assert_eq!(
            doc.get("schema").and_then(json::Json::as_str),
            Some("dse-serve/v1")
        );
        assert!(doc.get("endpoints").and_then(json::Json::as_arr).is_some());
    }
}
