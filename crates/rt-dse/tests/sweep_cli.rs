//! `dse sweep` argument handling, exercised through the real binary:
//! input the CLI does not understand exits 2 with a named error before any
//! file is written, `--help` prints the usage without sweeping, and a fresh
//! run replaces old outputs without the resume diagnostics.

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
    let cases: [(&[&str], &str); 6] = [
        (&["--thread", "4"], "unknown option --thread"),
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
