//! The figure binaries' argument and output handling: a bad option or a
//! spec the engine refuses exits 2 before anything is written, `--help`
//! exits 0, and a CSV that cannot be written exits 1. The argument cases run
//! against `fig2_acceptance`; every binary reads its options the same way,
//! through `rt_dse::cli::Args` and `hydra_bench::args_or_exit`.

use std::fs;
use std::ops::Deref;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

const FIG2: &str = env!("CARGO_BIN_EXE_fig2_acceptance");
const FIG3: &str = env!("CARGO_BIN_EXE_fig3_optimality_gap");
const TABLE1: &str = env!("CARGO_BIN_EXE_table1");

/// Every figure binary: its name and its path.
const BINARIES: [(&str, &str); 5] = [
    (
        "fig1_detection_cdf",
        env!("CARGO_BIN_EXE_fig1_detection_cdf"),
    ),
    ("fig2_acceptance", FIG2),
    ("fig3_optimality_gap", FIG3),
    ("period_policy_cdf", env!("CARGO_BIN_EXE_period_policy_cdf")),
    ("table1", TABLE1),
];

/// Runs the binary at `exe` with `args` from the working directory `cwd`.
fn run_in(exe: &str, cwd: &Path, args: &[&str]) -> Output {
    Command::new(exe)
        .current_dir(cwd)
        .args(args)
        .output()
        .unwrap_or_else(|e| panic!("spawn {exe}: {e}"))
}

/// A per-test directory that is removed when the test ends, pass or fail.
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

/// A fresh, empty per-test directory under the system temp dir; a stale one
/// left by an interrupted earlier run is cleared first.
fn temp_dir(test: &str) -> TempOut {
    let dir = std::env::temp_dir().join(format!("fig-cli-{}-{test}", std::process::id()));
    if dir.exists() {
        fs::remove_dir_all(&dir).expect("clear stale temp dir");
    }
    fs::create_dir_all(&dir).expect("create temp dir");
    TempOut(dir)
}

fn is_empty(dir: &Path) -> bool {
    fs::read_dir(dir).expect("list temp dir").next().is_none()
}

#[test]
fn an_unknown_option_exits_2_and_writes_nothing() {
    let cwd = temp_dir("unknown");
    let output = run_in(TABLE1, &cwd, &["--trails", "50"]);
    assert_eq!(output.status.code(), Some(2));
    assert_eq!(
        String::from_utf8_lossy(&output.stderr),
        "error: unknown option --trails\n"
    );
    assert!(output.stdout.is_empty());
    assert!(is_empty(&cwd));
}

#[test]
fn malformed_options_exit_2_and_write_nothing() {
    let cwd = temp_dir("malformed");
    for (exe, args, error) in [
        (
            FIG2,
            &["--trials", "abc"][..],
            "invalid value for --trials: abc",
        ),
        (FIG2, &["--trials", "0"], "trials must be at least 1"),
        (FIG2, &["--cores", "x,y"], "invalid --cores: x"),
        (FIG2, &["--cores", "2,4,2"], "cores lists 2 twice"),
        (FIG2, &["--seed", "-1"], "invalid value for --seed: -1"),
        (FIG2, &["--seed"], "option --seed expects a value"),
        (
            FIG2,
            &["--out", "--quick"],
            "option --out expects a value, got --quick",
        ),
        (FIG2, &["--quick", "--quick"], "duplicate option --quick"),
        (FIG2, &["results"], "unexpected argument results"),
        (FIG3, &["--cores", "2"], "unknown option --cores"),
    ] {
        let output = run_in(exe, &cwd, args);
        assert_eq!(output.status.code(), Some(2), "{args:?}");
        assert_eq!(
            String::from_utf8_lossy(&output.stderr),
            format!("error: {error}\n"),
            "{args:?}"
        );
        assert!(output.stdout.is_empty(), "{args:?}");
        assert!(is_empty(&cwd), "{args:?} wrote into {}", cwd.display());
    }
}

#[test]
fn help_prints_the_usage_and_exits_0() {
    let cwd = temp_dir("help");
    for (name, exe) in BINARIES {
        let output = run_in(exe, &cwd, &["--help"]);
        assert_eq!(output.status.code(), Some(0), "{name} --help");
        let usage = String::from_utf8_lossy(&output.stdout);
        assert!(usage.starts_with(name), "{name} --help printed {usage}");
        assert!(
            usage.contains("    --out DIR"),
            "{name} --help printed {usage}"
        );
        assert!(is_empty(&cwd), "{name} --help wrote into {}", cwd.display());
    }
}

#[test]
fn known_options_run_and_write_the_csv() {
    let cwd = temp_dir("known");
    let output = run_in(
        FIG2,
        &cwd,
        &[
            "--quick", "--trials", "1", "--cores", "2", "--seed", "7", "--out", "figs",
        ],
    );
    assert_eq!(output.status.code(), Some(0));
    let csv = fs::read_to_string(cwd.join("figs/fig2_acceptance.csv")).expect("the CSV");
    // A header and one row per utilization point of the quick sweep.
    assert_eq!(csv.lines().count(), 1 + 8);
}

#[test]
fn an_unwritable_out_directory_exits_1() {
    let cwd = temp_dir("unwritable");
    fs::write(cwd.join("file"), "").expect("create a regular file");
    let output = run_in(TABLE1, &cwd, &["--out", "file/results"]);
    assert_eq!(output.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        stderr.starts_with("error: could not write table1.csv"),
        "{stderr}"
    );
}
