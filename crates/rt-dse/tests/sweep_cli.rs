//! `dse sweep` argument handling, exercised through the real binary:
//! input the CLI does not understand, a value it cannot use and a spec the
//! engine cannot honour all exit 2 with a named error before any file is
//! written, `--help` prints the usage without sweeping, and a fresh run
//! replaces old outputs without the resume diagnostics.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// Runs `dse` with `args` from the working directory `cwd`.
fn dse_in(cwd: &Path, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_dse"))
        .current_dir(cwd)
        .args(args)
        .output()
        .expect("spawn the dse binary")
}

/// A fresh, empty per-test directory under the system temp dir.
fn temp_dir(test: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dse-sweep-cli-{}-{test}", std::process::id()));
    if dir.exists() {
        fs::remove_dir_all(&dir).expect("clear stale temp dir");
    }
    fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

fn is_empty(dir: &Path) -> bool {
    fs::read_dir(dir).expect("list temp dir").next().is_none()
}

#[test]
fn malformed_arguments_exit_2_before_writing_anything() {
    let cwd = temp_dir("malformed");
    let cases: [(&[&str], &str); 8] = [
        (&["--thread", "4"], "unknown option --thread"),
        (&["--no-batch"], "unknown option --no-batch"),
        (&["--serial"], "unknown option --serial"),
        (&["--bogus-flag", "1"], "unknown option --bogus-flag"),
        (
            &["--cores", "2", "--cores", "4"],
            "duplicate option --cores",
        ),
        (
            &["--out", "--quiet"],
            "option --out expects a value, got --quiet",
        ),
        (&["--cores", "2", "--out"], "option --out expects a value"),
        (&["--trials", "2", "extra"], "unexpected argument extra"),
    ];
    for (args, error) in cases {
        let mut argv = vec!["sweep"];
        argv.extend_from_slice(args);
        let output = dse_in(&cwd, &argv);
        assert_eq!(output.status.code(), Some(2), "dse {argv:?}");
        assert_eq!(
            String::from_utf8_lossy(&output.stderr).trim_end(),
            format!("error: {error}"),
            "dse {argv:?}"
        );
        // Neither the default `results/dse` nor a directory named after a
        // swallowed flag may appear.
        assert!(is_empty(&cwd), "dse {argv:?} wrote into {}", cwd.display());
    }
    // `list-allocators` was an alias of `list-axes`; like any unknown
    // command it is a command-line error now.
    let output = dse_in(&cwd, &["list-allocators"]);
    assert_eq!(output.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&output.stderr)
        .starts_with("error: unknown command: list-allocators\n"));
    fs::remove_dir_all(&cwd).expect("remove temp dir");
}

#[test]
fn specs_the_planner_cannot_honour_exit_2_before_writing_anything() {
    let cwd = temp_dir("invalid-spec");
    let cases: [(&[&str], &str); 31] = [
        (
            &["--explore", "frontier", "--sample", "5"],
            "frontier exploration plans its own points and cannot sample the grid",
        ),
        (
            &["--workload", "uav", "--explore", "frontier"],
            "frontier exploration needs a utilization axis to bisect, and this workload has none",
        ),
        (&["--trials", "0"], "trials must be at least 1"),
        (
            &["--workload", "uav", "--eval", "detection", "--horizon", "0"],
            "horizon must be greater than 0",
        ),
        (&["--cores", "2,2"], "cores lists 2 twice"),
        (
            &["--allocators", "hydra,hydra"],
            "allocators lists hydra twice",
        ),
        (
            &["--period-policy", "fixed,fixed"],
            "period_policies lists fixed twice",
        ),
        (&["--utils", "0.5,0.5"], "utils lists 0.5 twice"),
        (&["--util-steps", "0"], "util_steps must be at least 1"),
        (&["--sample", "0"], "sample must be at least 1"),
        (&["--utils", ""], "utils must list at least one utilization"),
        (
            &["--eval", "detection", "--attacks", "0"],
            "attacks must be at least 1",
        ),
        (
            &["--utils", "0.5", "--util-steps", "3"],
            "utils cannot be combined with util_steps",
        ),
        (
            &["--horizon", "60"],
            "horizon only applies to eval detection",
        ),
        (
            &["--attacks", "5"],
            "attacks only applies to eval detection",
        ),
        (
            &["--workload", "uav", "--sec-tasks", "2,6"],
            "sec_tasks only applies to workload synthetic",
        ),
        (
            &["--workload", "uav", "--utils", "0.5"],
            "utils only applies to workload synthetic",
        ),
        (
            &["--workload", "uav", "--util-steps", "3"],
            "util_steps only applies to workload synthetic",
        ),
        (
            &["--refine-budget", "4"],
            "refine_budget only applies to explore frontier",
        ),
        (
            &["--cores", "0"],
            "cores requires one or more core counts >= 1",
        ),
        (&["--utils", "1.5"], "utils fractions must lie in (0, 1]"),
        (
            &["--sec-tasks", "5,2"],
            "sec_tasks range [5, 2] is empty or zero",
        ),
        (
            &["--sec-tasks", "1,1", "--cores", "8", "--utils", "0.6"],
            "utilization 4.8 on 8 cores needs at least 2 security tasks, but sec_tasks starts at 1",
        ),
        (
            &["--allocators", "warpdrive"],
            "unknown allocator: warpdrive",
        ),
        (&["--seed", "-1"], "invalid value for --seed: -1"),
        (&["--trials", "many"], "invalid value for --trials: many"),
        (&["--cores", "2,x"], "invalid --cores: x"),
        (&["--shard", "3/2"], "--shard requires 1 <= I <= N, got 3/2"),
        (
            &["--progress=0"],
            "--progress interval must be positive, got 0",
        ),
        (&["--threads", "-1"], "invalid value for --threads: -1"),
        // The store is not opened before the command line is checked.
        (
            &["--store", "store", "--cores", "2,2"],
            "cores lists 2 twice",
        ),
    ];
    for (args, error) in cases {
        let mut argv = vec!["sweep", "--out", "out"];
        argv.extend_from_slice(args);
        let output = dse_in(&cwd, &argv);
        assert_eq!(output.status.code(), Some(2), "dse {argv:?}");
        assert_eq!(
            String::from_utf8_lossy(&output.stderr).trim_end(),
            format!("error: {error}"),
            "dse {argv:?}"
        );
        assert!(is_empty(&cwd), "dse {argv:?} wrote into {}", cwd.display());
    }
    fs::remove_dir_all(&cwd).expect("remove temp dir");
}

#[test]
fn sweep_help_prints_the_usage_without_sweeping() {
    let cwd = temp_dir("help");
    for flag in ["--help", "-h"] {
        let output = dse_in(&cwd, &["sweep", flag]);
        assert!(output.status.success(), "dse sweep {flag}");
        assert!(String::from_utf8_lossy(&output.stdout).contains("USAGE"));
        assert!(
            is_empty(&cwd),
            "dse sweep {flag} wrote into {}",
            cwd.display()
        );
    }
    fs::remove_dir_all(&cwd).expect("remove temp dir");
}

#[test]
fn a_fresh_run_replaces_old_outputs_without_resume_messages() {
    let cwd = temp_dir("fresh");
    let args = [
        "sweep",
        "--cores",
        "2",
        "--util-steps",
        "2",
        "--allocators",
        "hydra",
        "--trials",
        "1",
        "--out",
        "out",
        "--quiet",
    ];
    let first = dse_in(&cwd, &args);
    assert!(first.status.success());
    let jsonl_path = cwd.join("out/sweep.jsonl");
    let jsonl = fs::read(&jsonl_path).expect("first run wrote its JSONL");
    // Leave a torn tail behind, as a crashed run would.
    let mut torn = jsonl.clone();
    torn.extend_from_slice(b"{\"index\":0,\"cor");
    fs::write(&jsonl_path, torn).expect("append a torn tail");

    let second = dse_in(&cwd, &args);
    assert!(second.status.success());
    let stderr = String::from_utf8_lossy(&second.stderr);
    assert!(
        !stderr.lines().any(|line| line.starts_with("resume:")),
        "a fresh run logged resume diagnostics:\n{stderr}"
    );
    assert_eq!(fs::read(&jsonl_path).expect("second run's JSONL"), jsonl);
    fs::remove_dir_all(&cwd).expect("remove temp dir");
}
