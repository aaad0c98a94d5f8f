//! End-to-end tests over real sockets: a [`Server`] bound to an ephemeral
//! port, exercised by a hand-rolled HTTP client. The headline assertions:
//! the streamed JSONL is byte-identical to an embedded engine run of the
//! same spec, a warm persistent store answers a repeat job without a single
//! disk miss, cancel works queued and running, and shutdown drains.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use rt_dse::prelude::*;
use rt_dse::JsonlSink;
use rt_dse_serve::{http, json, proto, Server, ServerConfig};

/// Starts a server on an ephemeral port; returns its address and the
/// `serve()` join handle (detached unless the test shuts the server down).
fn start_server(
    workers: usize,
    store: Option<Arc<MemoStore>>,
) -> (SocketAddr, std::thread::JoinHandle<std::io::Result<()>>) {
    let server = Server::bind(ServerConfig {
        addr: "127.0.0.1:0".to_owned(),
        workers,
        threads_per_job: 1,
        store,
    })
    .expect("ephemeral bind succeeds");
    let addr = server.local_addr().expect("bound address resolves");
    let handle = std::thread::spawn(move || server.serve());
    (addr, handle)
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dse-serve-e2e-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Writes one request on a fresh connection.
fn send_request(addr: SocketAddr, method: &str, path: &str, body: &str) -> TcpStream {
    let mut stream = TcpStream::connect(addr).expect("server accepts connections");
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .expect("timeout applies");
    write!(
        stream,
        "{method} {path} HTTP/1.1\r\nHost: e2e\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )
    .expect("request writes");
    stream
}

/// Reads the response head (status line + headers) without touching body
/// bytes.
fn read_head(stream: &mut TcpStream) -> (u16, Vec<(String, String)>) {
    let mut head = Vec::new();
    let mut byte = [0u8; 1];
    while !head.ends_with(b"\r\n\r\n") {
        let n = stream.read(&mut byte).expect("head read succeeds");
        assert!(n != 0, "connection closed mid-head");
        head.push(byte[0]);
    }
    let head = String::from_utf8(head).expect("head is UTF-8");
    let mut lines = head.split("\r\n");
    let status: u16 = lines
        .next()
        .and_then(|l| l.split(' ').nth(1))
        .and_then(|s| s.parse().ok())
        .expect("status line parses");
    let headers = lines
        .filter_map(|l| l.split_once(':'))
        .map(|(k, v)| (k.to_ascii_lowercase(), v.trim().to_owned()))
        .collect();
    (status, headers)
}

fn header<'a>(headers: &'a [(String, String)], name: &str) -> Option<&'a str> {
    headers
        .iter()
        .find(|(k, _)| k == name)
        .map(|(_, v)| v.as_str())
}

/// One complete request/response exchange; chunked bodies are de-chunked.
fn exchange(addr: SocketAddr, method: &str, path: &str, body: &str) -> (u16, Vec<u8>) {
    let mut stream = send_request(addr, method, path, body);
    let (status, headers) = read_head(&mut stream);
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).expect("body read succeeds");
    let body = if header(&headers, "transfer-encoding") == Some("chunked") {
        http::dechunk(&raw).expect("chunk framing is valid")
    } else {
        raw
    };
    (status, body)
}

fn json_of(body: &[u8]) -> json::Json {
    json::parse(std::str::from_utf8(body).expect("body is UTF-8")).expect("body is valid JSON")
}

/// The engine-side reference bytes for a request body: parse it with the
/// same protocol code and run it through a [`SweepSession`] into a JSONL
/// sink.
fn engine_reference_jsonl(request_body: &str) -> Vec<u8> {
    let doc = json::parse(request_body).expect("request body is valid JSON");
    let request = proto::parse_request(&doc).expect("request is valid");
    let mut sink = JsonlSink::new(Vec::new());
    SweepSession::new(request.spec)
        .threads(1)
        .run(&mut sink)
        .expect("in-memory sink is infallible");
    sink.into_inner()
}

const MINI_SWEEP: &str = r#"{"name": "mini", "cores": [2], "utils": [0.3, 0.6], "trials": 2,
                             "allocators": ["hydra", "singlecore"], "seed": 77}"#;

#[test]
fn health_index_and_404s() {
    let (addr, _server) = start_server(1, None);
    let (status, body) = exchange(addr, "GET", "/healthz", "");
    assert_eq!(status, 200);
    assert_eq!(
        json_of(&body).get("ok").and_then(json::Json::as_bool),
        Some(true)
    );

    let (status, body) = exchange(addr, "GET", "/", "");
    assert_eq!(status, 200);
    assert!(json_of(&body).get("endpoints").is_some());

    let (status, _) = exchange(addr, "GET", "/nope", "");
    assert_eq!(status, 404);
    let (status, _) = exchange(addr, "GET", "/v1/jobs/999", "");
    assert_eq!(status, 404);
    let (status, body) = exchange(addr, "POST", "/v1/sweep", r#"{"coores": [2]}"#);
    assert_eq!(status, 400);
    let reason = json_of(&body);
    let error = reason
        .get("error")
        .and_then(json::Json::as_str)
        .expect("error field");
    assert!(error.contains("unknown field"), "{error}");
}

#[test]
fn streamed_jsonl_is_byte_identical_to_the_embedded_engine() {
    let (addr, _server) = start_server(2, None);
    let mut stream = send_request(addr, "POST", "/v1/sweep", MINI_SWEEP);
    let (status, headers) = read_head(&mut stream);
    assert_eq!(status, 200);
    assert_eq!(header(&headers, "transfer-encoding"), Some("chunked"));
    assert_eq!(
        header(&headers, "content-type"),
        Some("application/x-ndjson")
    );
    let id: u64 = header(&headers, "x-job-id")
        .and_then(|v| v.parse().ok())
        .expect("X-Job-Id header names the job");

    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).expect("stream drains");
    let streamed = http::dechunk(&raw).expect("terminated cleanly");
    assert_eq!(
        streamed,
        engine_reference_jsonl(MINI_SWEEP),
        "the wire bytes must match the engine's JSONL exactly"
    );

    // The job's terminal status document.
    let (status, body) = exchange(addr, "GET", &format!("/v1/jobs/{id}"), "");
    assert_eq!(status, 200);
    let doc = json_of(&body);
    assert_eq!(
        doc.get("schema").and_then(json::Json::as_str),
        Some("dse-serve-job/v1")
    );
    assert_eq!(doc.get("state").and_then(json::Json::as_str), Some("done"));
    assert_eq!(doc.get("name").and_then(json::Json::as_str), Some("mini"));
    let done = doc.get("done").and_then(json::Json::as_u64).expect("done");
    let total = doc
        .get("total")
        .and_then(json::Json::as_u64)
        .expect("total");
    assert_eq!(done, total);
    assert_eq!(done, 8, "2 utils x 2 allocators x 2 trials");
    assert!(doc
        .get("elapsed_secs")
        .and_then(json::Json::as_f64)
        .is_some());
    assert_eq!(doc.get("error"), Some(&json::Json::Null));

    // And the job listing carries it.
    let (status, body) = exchange(addr, "GET", "/v1/jobs", "");
    assert_eq!(status, 200);
    let listing = json_of(&body);
    let jobs = listing
        .get("jobs")
        .and_then(json::Json::as_arr)
        .expect("jobs array");
    assert!(jobs
        .iter()
        .any(|j| j.get("id").and_then(json::Json::as_u64) == Some(id)));
}

const FRONTIER_SWEEP: &str = r#"{"name": "fr", "cores": [2], "trials": 2, "seed": 77,
    "utils": [0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4, 0.45, 0.5,
              0.55, 0.6, 0.65, 0.7, 0.75, 0.8, 0.85, 0.9, 0.95, 1.0],
    "allocators": ["hydra", "singlecore"],
    "explore": "frontier", "refine_budget": 4}"#;

#[test]
fn frontier_jobs_stream_the_adaptive_plan_byte_identically() {
    let (addr, _server) = start_server(2, None);
    let mut stream = send_request(addr, "POST", "/v1/sweep", FRONTIER_SWEEP);
    let (status, headers) = read_head(&mut stream);
    assert_eq!(status, 200);
    let id: u64 = header(&headers, "x-job-id")
        .and_then(|v| v.parse().ok())
        .expect("X-Job-Id header names the job");
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).expect("stream drains");
    let streamed = http::dechunk(&raw).expect("terminated cleanly");
    assert_eq!(
        streamed,
        engine_reference_jsonl(FRONTIER_SWEEP),
        "frontier wire bytes must match the embedded adaptive driver exactly"
    );

    // The plan must genuinely prune the grid: fewer emitted records than
    // the exhaustive 20 utils x 2 allocators x 2 trials, but not zero.
    let lines = streamed.iter().filter(|b| **b == b'\n').count();
    assert!(lines > 0, "a frontier job still emits its refined points");
    assert!(
        lines < 20 * 2 * 2,
        "adaptive emission ({lines} records) must undercut the exhaustive grid"
    );

    let (status, body) = exchange(addr, "GET", &format!("/v1/jobs/{id}"), "");
    assert_eq!(status, 200);
    let doc = json_of(&body);
    assert_eq!(doc.get("state").and_then(json::Json::as_str), Some("done"));
}

#[test]
fn a_warm_store_answers_a_repeat_job_without_disk_misses() {
    let dir = scratch("warm");
    let store = Arc::new(
        MemoStore::open(&dir)
            .expect("store opens")
            .with_fsync(false),
    );
    let (addr, _server) = start_server(1, Some(store));

    let (status, cold) = exchange(addr, "POST", "/v1/sweep", MINI_SWEEP);
    assert_eq!(status, 200);
    let mut stream = send_request(addr, "POST", "/v1/sweep", MINI_SWEEP);
    let (status, headers) = read_head(&mut stream);
    assert_eq!(status, 200);
    let id: u64 = header(&headers, "x-job-id")
        .and_then(|v| v.parse().ok())
        .expect("X-Job-Id header");
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).expect("stream drains");
    let warm = http::dechunk(&raw).expect("terminated cleanly");

    assert_eq!(cold, warm, "warm bytes match cold bytes exactly");
    let (_, body) = exchange(addr, "GET", &format!("/v1/jobs/{id}"), "");
    let doc = json_of(&body);
    assert_eq!(doc.get("state").and_then(json::Json::as_str), Some("done"));
    assert_eq!(
        doc.get("store_misses").and_then(json::Json::as_u64),
        Some(0),
        "a repeat job must be answered entirely from the store"
    );
    assert!(
        doc.get("store_hits")
            .and_then(json::Json::as_u64)
            .expect("hits")
            > 0
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cancel_works_queued_and_running_and_streams_terminate_cleanly() {
    // One runner: the first (large) job occupies it, the second queues.
    let (addr, _server) = start_server(1, None);
    let big = r#"{"name": "big", "cores": [2, 4, 8], "trials": 500}"#;

    let mut first = send_request(addr, "POST", "/v1/sweep", big);
    let (status, headers) = read_head(&mut first);
    assert_eq!(status, 200);
    let first_id: u64 = header(&headers, "x-job-id")
        .and_then(|v| v.parse().ok())
        .expect("X-Job-Id header");

    let mut second = send_request(addr, "POST", "/v1/sweep", big);
    let (status, headers) = read_head(&mut second);
    assert_eq!(status, 200);
    let second_id: u64 = header(&headers, "x-job-id")
        .and_then(|v| v.parse().ok())
        .expect("X-Job-Id header");

    // Cancel both: the second while (most likely) still queued, the first
    // mid-run. Either way the state machine must land on `cancelled` and
    // both chunk streams must terminate cleanly.
    let (status, body) = exchange(addr, "POST", &format!("/v1/jobs/{second_id}/cancel"), "");
    assert_eq!(status, 200);
    assert_eq!(
        json_of(&body).get("ok").and_then(json::Json::as_bool),
        Some(true)
    );
    let (status, _) = exchange(addr, "POST", &format!("/v1/jobs/{first_id}/cancel"), "");
    assert_eq!(status, 200);
    let (status, _) = exchange(addr, "POST", "/v1/jobs/424242/cancel", "");
    assert_eq!(status, 404);

    for stream in [&mut first, &mut second] {
        let mut raw = Vec::new();
        stream.read_to_end(&mut raw).expect("stream drains");
        let body = http::dechunk(&raw).expect("cancelled streams still terminate cleanly");
        // Whatever was delivered is whole lines in grid order.
        assert!(body.is_empty() || body.ends_with(b"\n"));
    }
    for id in [first_id, second_id] {
        let (_, body) = exchange(addr, "GET", &format!("/v1/jobs/{id}"), "");
        assert_eq!(
            json_of(&body).get("state").and_then(json::Json::as_str),
            Some("cancelled"),
            "job {id} must end cancelled"
        );
    }
}

#[test]
fn metrics_exposes_the_shared_registry() {
    let (addr, _server) = start_server(1, None);
    let (status, _) = exchange(addr, "POST", "/v1/sweep", MINI_SWEEP);
    assert_eq!(status, 200);
    let (status, body) = exchange(addr, "GET", "/metrics", "");
    assert_eq!(status, 200);
    let text = String::from_utf8(body).expect("metrics are UTF-8");
    assert!(
        text.contains("rt-obs/v1"),
        "metrics carry the rt-obs schema"
    );
    assert!(
        text.contains("serve.jobs_accepted"),
        "serve counters are registered"
    );
    assert!(
        text.contains("sweep.scenarios_done"),
        "engine counters accumulate"
    );
}

#[test]
fn shutdown_refuses_new_work_drains_and_returns() {
    let (addr, server) = start_server(1, None);
    let (status, body) = exchange(addr, "POST", "/v1/sweep", MINI_SWEEP);
    assert_eq!(status, 200);
    assert!(!body.is_empty());

    let (status, body) = exchange(addr, "POST", "/v1/shutdown", "");
    assert_eq!(status, 200);
    assert_eq!(
        json_of(&body).get("draining").and_then(json::Json::as_bool),
        Some(true)
    );
    server
        .join()
        .expect("serve thread joins")
        .expect("serve returns cleanly");
    assert!(
        TcpStream::connect(addr).is_err(),
        "the listener is closed after shutdown"
    );
}
