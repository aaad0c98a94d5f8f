//! End-to-end determinism contract of `dse sweep --explore frontier`,
//! exercised through the real binary: the JSONL/CSV streams *and* the
//! `{stem}_frontier.csv` Pareto artifact must be byte-identical across
//! worker-thread counts, across a kill (`--stop-after`) + `--resume`
//! cycle, and when a run is split into slice shards and the shard files
//! are concatenated.

use std::fs;
use std::ops::Deref;
use std::path::{Path, PathBuf};
use std::process::Command;

/// 20-point utilization grid over (0, 1]: dense enough that the
/// singlecore slice has an interior acceptance cliff for the bisection to
/// bracket, small enough that each binary invocation stays sub-second.
fn utils_arg() -> String {
    (1..=20)
        .map(|i| format!("{:.2}", f64::from(i) * 0.05))
        .collect::<Vec<_>>()
        .join(",")
}

fn dse(args: &[&str]) -> std::process::Output {
    let output = Command::new(env!("CARGO_BIN_EXE_dse"))
        .args(args)
        .output()
        .expect("spawn the dse binary");
    assert!(
        output.status.success(),
        "dse {args:?} failed:\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    output
}

/// Run one frontier sweep into `out`, returning after success. `extra`
/// appends per-test flags (threads, shard, stop-after, resume).
fn frontier_sweep(out: &Path, extra: &[&str]) {
    let utils = utils_arg();
    let out_str = out.to_str().expect("utf-8 temp path");
    let mut args = vec![
        "sweep",
        "--cores",
        "2",
        "--utils",
        &utils,
        "--allocators",
        "hydra,singlecore",
        "--trials",
        "2",
        "--seed",
        "2018",
        "--explore",
        "frontier",
        "--refine-budget",
        "4",
        "--name",
        "t",
        "--out",
        out_str,
        "--quiet",
    ];
    args.extend_from_slice(extra);
    dse(&args);
}

/// A per-test output directory that is removed when the test ends, pass or
/// fail.
struct TempOut(PathBuf);

impl Deref for TempOut {
    type Target = Path;

    fn deref(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempOut {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

/// A fresh per-test output directory under the system temp dir; a stale one
/// left by an interrupted earlier run is cleared first.
fn temp_out(test: &str) -> TempOut {
    let dir = std::env::temp_dir().join(format!("dse-frontier-cli-{}-{test}", std::process::id()));
    if dir.exists() {
        fs::remove_dir_all(&dir).expect("clear stale temp dir");
    }
    TempOut(dir)
}

fn read(dir: &Path, file: &str) -> Vec<u8> {
    fs::read(dir.join(file)).unwrap_or_else(|e| panic!("read {file}: {e}"))
}

const OUTPUTS: [&str; 4] = ["t.jsonl", "t.csv", "t_summary.csv", "t_frontier.csv"];

#[test]
fn outputs_are_byte_identical_across_thread_counts() {
    let reference = temp_out("threads-1");
    frontier_sweep(&reference, &["--threads", "1"]);
    for threads in ["2", "4"] {
        let out = temp_out(&format!("threads-{threads}"));
        frontier_sweep(&out, &["--threads", threads]);
        for file in OUTPUTS {
            assert_eq!(
                read(&reference, file),
                read(&out, file),
                "{file} differs between --threads 1 and --threads {threads}"
            );
        }
    }
}

#[test]
fn kill_and_resume_reproduces_the_uninterrupted_run() {
    let reference = temp_out("resume-reference");
    frontier_sweep(&reference, &["--threads", "2"]);

    // Stop mid-plan (7 is deliberately not a multiple of the trial group,
    // so the forced checkpoint lands mid-point), then resume to the end.
    let out = temp_out("resume");
    frontier_sweep(&out, &["--threads", "2", "--stop-after", "7"]);
    assert!(
        out.join("t.ckpt").exists(),
        "a stopped run must leave its checkpoint behind"
    );
    frontier_sweep(&out, &["--threads", "2", "--resume"]);
    assert!(
        !out.join("t.ckpt").exists(),
        "a completed resume must remove the checkpoint"
    );
    for file in OUTPUTS {
        assert_eq!(
            read(&reference, file),
            read(&out, file),
            "{file} differs between the uninterrupted and the resumed run"
        );
    }
}

#[test]
fn slice_shards_concatenate_to_the_unsharded_artifacts() {
    let reference = temp_out("shard-reference");
    frontier_sweep(&reference, &["--threads", "2"]);

    let out = temp_out("shard");
    frontier_sweep(&out, &["--threads", "2", "--shard", "1/2"]);
    frontier_sweep(&out, &["--threads", "2", "--shard", "2/2"]);
    // The summary is a whole-run aggregate, so only the record streams and
    // the frontier artifact follow the concatenation contract.
    for suffix in [".jsonl", ".csv", "_frontier.csv"] {
        let mut joined = read(&out, &format!("t_shard1of2{suffix}"));
        joined.extend(read(&out, &format!("t_shard2of2{suffix}")));
        assert_eq!(
            read(&reference, &format!("t{suffix}")),
            joined,
            "concatenated shard files for {suffix} differ from the unsharded run"
        );
    }
}
