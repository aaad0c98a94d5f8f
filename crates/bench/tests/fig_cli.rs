//! The figure binaries' argument and output handling, exercised through
//! `table1` (the one binary that needs no computation): a bad option exits 2
//! before anything is written, and a CSV that cannot be written exits 1.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// Runs `table1` with `args` from the working directory `cwd`.
fn table1_in(cwd: &Path, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_table1"))
        .current_dir(cwd)
        .args(args)
        .output()
        .expect("spawn the table1 binary")
}

/// A fresh, empty per-test directory under the system temp dir.
fn temp_dir(test: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fig-cli-{}-{test}", std::process::id()));
    if dir.exists() {
        fs::remove_dir_all(&dir).expect("clear stale temp dir");
    }
    fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

#[test]
fn an_unknown_option_exits_2_and_writes_nothing() {
    let cwd = temp_dir("unknown");
    let output = table1_in(&cwd, &["--trails", "50"]);
    assert_eq!(output.status.code(), Some(2));
    assert_eq!(
        String::from_utf8_lossy(&output.stderr),
        "error: unknown option --trails\n"
    );
    assert!(output.stdout.is_empty());
    assert!(fs::read_dir(&cwd).expect("list temp dir").next().is_none());
    fs::remove_dir_all(&cwd).expect("remove temp dir");
}

#[test]
fn an_unwritable_out_directory_exits_1() {
    let cwd = temp_dir("unwritable");
    fs::write(cwd.join("file"), "").expect("create a regular file");
    let output = table1_in(&cwd, &["--out", "file/results"]);
    assert_eq!(output.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        stderr.starts_with("error: could not write table1.csv"),
        "{stderr}"
    );
    fs::remove_dir_all(&cwd).expect("remove temp dir");
}
