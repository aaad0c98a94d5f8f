//! `dse-serve` — run design-space sweeps as a service.
//!
//! ```text
//! dse-serve --addr 127.0.0.1:7878 --workers 2 --store results/store
//! curl -sN localhost:7878/v1/sweep -d '{"cores": [2], "trials": 5}'
//! ```

use std::process::ExitCode;
use std::sync::Arc;

use rt_dse::cli::Args;
use rt_dse::MemoStore;
use rt_dse_serve::{Server, ServerConfig};

const USAGE: &str = "\
dse-serve — sweep-as-a-service over the rt-dse engine

USAGE:
    dse-serve [OPTIONS]

OPTIONS:
    --addr HOST:PORT      bind address                      [default: 127.0.0.1:7878]
    --workers N           concurrent sweep jobs             [default: 2]
    --threads-per-job N   engine threads per job, 0 = auto  [default: 0]
    --store DIR           persistent content-addressed memo store shared by
                          every job (and by `dse sweep --store DIR`); repeat
                          jobs are answered from disk
    --help                show this message

A command-line error (an unknown, repeated or malformed option, or
--workers 0) exits 2 before anything binds; a bind or store failure
exits 1.

ENDPOINTS:
    GET  /                endpoint index
    GET  /healthz         liveness probe
    POST /v1/sweep        submit a sweep (JSON body, `dse sweep` field names);
                          the response streams JSONL results in grid order
                          (chunked; the X-Job-Id header names the job)
    GET  /v1/jobs         every job's status document, id order
    GET  /v1/jobs/ID      one job's status document
    POST /v1/jobs/ID/cancel   cooperative cancel (queued or running)
    GET  /metrics         shared rt-obs/v1 metrics snapshot
    POST /v1/shutdown     refuse new work, drain the queue, exit
";

/// `dse-serve`'s options, checked before anything binds or opens.
struct Options {
    addr: String,
    workers: usize,
    threads_per_job: usize,
    store: Option<String>,
}

impl Options {
    /// Reads and checks the command line; any error here exits 2.
    fn parse(args: &Args) -> Result<Self, String> {
        args.validate()?;
        let workers = args.parsed("--workers")?.unwrap_or(2);
        if workers == 0 {
            return Err("--workers must be at least 1".to_owned());
        }
        Ok(Options {
            addr: args
                .value_of("--addr")
                .unwrap_or("127.0.0.1:7878")
                .to_owned(),
            workers,
            threads_per_job: args.parsed("--threads-per-job")?.unwrap_or(0),
            store: args.value_of("--store").map(str::to_owned),
        })
    }
}

fn run(options: Options) -> Result<(), String> {
    let Options {
        addr,
        workers,
        threads_per_job,
        store,
    } = options;
    let store = match store {
        Some(dir) => Some(Arc::new(
            MemoStore::open(&dir).map_err(|e| format!("cannot open memo store {dir}: {e}"))?,
        )),
        None => None,
    };

    let server = Server::bind(ServerConfig {
        addr,
        workers,
        threads_per_job,
        store: store.clone(),
    })
    .map_err(|e| format!("cannot bind: {e}"))?;
    let bound = server
        .local_addr()
        .map_err(|e| format!("cannot resolve bound address: {e}"))?;
    eprintln!(
        "dse-serve listening on {bound} ({workers} job runner(s), {} engine thread(s)/job, store: {})",
        if threads_per_job == 0 {
            "auto".to_owned()
        } else {
            threads_per_job.to_string()
        },
        store
            .as_ref()
            .map_or_else(|| "off".to_owned(), |s| s.root().display().to_string()),
    );
    server.serve().map_err(|e| format!("serve failed: {e}"))?;
    eprintln!("dse-serve drained and stopped");
    Ok(())
}

fn main() -> ExitCode {
    let args = Args::new(USAGE, std::env::args().skip(1));
    if args.help_requested() {
        print!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    let options = match Options::parse(&args) {
        Ok(options) => options,
        Err(message) => {
            eprintln!("error: {message}");
            return ExitCode::from(2);
        }
    };
    match run(options) {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::FAILURE
        }
    }
}
