//! Golden digests: the output bytes of five canonical sweeps, pinned per
//! target triple.
//!
//! Each shape runs through the `dse` binary at `--threads 1` and
//! `--threads 2`. Every artifact it writes (`.jsonl`, `.csv`,
//! `_summary.csv`, and `_frontier.csv` for the frontier shape) is cut into
//! blocks of [`BLOCK`] lines, and each block is hashed with FNV-1a, the hash
//! the memo store uses. Both thread counts must reproduce the committed
//! table `golden_digests.txt` exactly. The table is keyed by target triple
//! because the platform's `powf`/`ln` may round differently elsewhere; a
//! triple with no rows fails.
//!
//! A change that means to move bytes regenerates the table in the same
//! commit and says why:
//!
//! ```sh
//! cargo test -p rt-dse --test golden_digests -- --ignored --nocapture print_golden_table
//! ```
//!
//! prints the whole table with this triple's rows replaced; paste it over
//! `crates/rt-dse/tests/golden_digests.txt`.
//!
//! A second test runs the two detection shapes with `--metrics-out`: every
//! `sim.*` work counter must be equal at 1 and 2 threads, no UAV core may
//! fall back from the simulator's supply path, and some synthetic core
//! must.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;

/// Lines per digested block. A mismatch is located to one block.
const BLOCK: usize = 32;

/// The committed table: `<triple> <shape> <file> <lines> <block digest>…`.
const TABLE: &str = include_str!("golden_digests.txt");

const REGENERATE: &str = "cargo test -p rt-dse --test golden_digests -- --ignored --nocapture \
                          print_golden_table";

/// One canonical sweep: a name and its `dse sweep` arguments.
struct Shape {
    name: &'static str,
    args: &'static str,
}

const SHAPES: &[Shape] = &[
    Shape {
        name: "uav-detection",
        args: "--workload uav --eval detection --allocators hydra,singlecore,nphydra,precedence \
               --period-policy fixed,joint --cores 2,4 --horizon 60 --attacks 50 --trials 2",
    },
    Shape {
        name: "synthetic-detection",
        args: "--eval detection --allocators hydra,singlecore,nphydra,precedence \
               --period-policy fixed,joint --cores 2,4 --util-steps 4 --horizon 60 --attacks 50 \
               --trials 2",
    },
    Shape {
        name: "alloc-grid",
        args: "--cores 2,4,8 --util-steps 39 --allocators hydra,singlecore,nphydra \
               --period-policy fixed,adapt,joint --trials 2",
    },
    Shape {
        name: "fig3",
        args: "--cores 2 --sec-tasks 2,6 --allocators hydra,optimal --trials 5",
    },
    Shape {
        name: "frontier",
        args: "--cores 2,4 --util-steps 39 --allocators hydra,singlecore,nphydra \
               --period-policy fixed,adapt,joint --trials 2 --explore frontier",
    },
];

/// The artifacts a sweep named `sweep` may write, in table order.
const FILES: &[&str] = &[
    "sweep.jsonl",
    "sweep.csv",
    "sweep_summary.csv",
    "sweep_frontier.csv",
];

/// This build's target, e.g. `x86_64-linux-gnu`.
fn target_triple() -> String {
    let env = if cfg!(target_env = "gnu") {
        "gnu"
    } else if cfg!(target_env = "musl") {
        "musl"
    } else if cfg!(target_env = "msvc") {
        "msvc"
    } else {
        "none"
    };
    format!("{}-{}-{env}", std::env::consts::ARCH, std::env::consts::OS)
}

/// 64-bit FNV-1a, as the memo store hashes keys and entries.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// One artifact's digest: its line count and one FNV-1a per block of
/// [`BLOCK`] lines (line terminators included).
#[derive(Debug, Clone, PartialEq, Eq)]
struct FileDigest {
    lines: usize,
    blocks: Vec<u64>,
}

fn digest(text: &str) -> FileDigest {
    let lines: Vec<&str> = text.split_inclusive('\n').collect();
    FileDigest {
        lines: lines.len(),
        blocks: lines
            .chunks(BLOCK)
            .map(|block| fnv1a(block.concat().as_bytes()))
            .collect(),
    }
}

/// A fresh, empty per-test directory under the system temp dir.
fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dse-golden-{}-{tag}", std::process::id()));
    if dir.exists() {
        fs::remove_dir_all(&dir).expect("clear stale temp dir");
    }
    fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

/// Runs `shape` at `threads` into `out` and returns its artifacts as
/// `(file name, contents)`, in [`FILES`] order.
fn run_shape(shape: &Shape, threads: usize, out: &Path) -> Vec<(&'static str, String)> {
    run_dse(shape, threads, out, &[]);
    FILES
        .iter()
        .filter_map(|&file| {
            fs::read_to_string(out.join(file))
                .ok()
                .map(|text| (file, text))
        })
        .collect()
}

/// Runs `dse sweep` on `shape` at `threads` into `out`, with `extra`
/// options.
fn run_dse(shape: &Shape, threads: usize, out: &Path, extra: &[&str]) {
    let threads = threads.to_string();
    let output = Command::new(env!("CARGO_BIN_EXE_dse"))
        .arg("sweep")
        .args(shape.args.split_whitespace())
        .args(["--threads", &threads, "--quiet", "--out"])
        .arg(out)
        .args(extra)
        .output()
        .expect("spawn the dse binary");
    assert!(
        output.status.success(),
        "dse sweep {} --threads {threads} failed: {}",
        shape.args,
        String::from_utf8_lossy(&output.stderr)
    );
}

/// The committed rows of `triple`, keyed by `(shape, file)`.
fn table_rows(triple: &str) -> Vec<(String, String, FileDigest)> {
    TABLE
        .lines()
        .filter(|line| !line.starts_with('#') && !line.trim().is_empty())
        .filter_map(|line| {
            let mut fields = line.split_whitespace();
            if fields.next()? != triple {
                return None;
            }
            let shape = fields.next()?.to_owned();
            let file = fields.next()?.to_owned();
            let lines = fields.next()?.parse().expect("line count");
            let blocks = fields
                .map(|d| u64::from_str_radix(d, 16).expect("hex block digest"))
                .collect();
            Some((shape, file, FileDigest { lines, blocks }))
        })
        .collect()
}

fn render_row(triple: &str, shape: &str, file: &str, digest: &FileDigest) -> String {
    let mut row = format!("{triple} {shape} {file} {}", digest.lines);
    for block in &digest.blocks {
        row.push_str(&format!(" {block:016x}"));
    }
    row
}

/// The first line (1-based) at which `a` and `b` differ, with both lines.
fn first_difference<'a>(a: &'a str, b: &'a str) -> Option<(usize, &'a str, &'a str)> {
    let mut left = a.lines();
    let mut right = b.lines();
    for n in 1.. {
        match (left.next(), right.next()) {
            (None, None) => return None,
            (l, r) if l == r => continue,
            (l, r) => {
                return Some((
                    n,
                    l.unwrap_or("<end of file>"),
                    r.unwrap_or("<end of file>"),
                ))
            }
        }
    }
    None
}

/// Explains why `actual` does not match the committed `expected` digest.
fn describe_mismatch(
    shape: &Shape,
    file: &str,
    threads: usize,
    text: &str,
    expected: Option<&FileDigest>,
) -> String {
    let actual = digest(text);
    let located = match expected {
        None => "the table has no row for this file".to_owned(),
        Some(expected) => {
            let block = (0..)
                .find(|&i| expected.blocks.get(i) != actual.blocks.get(i))
                .expect("digests differ in some block");
            let first = block * BLOCK + 1;
            let line = text.lines().nth(block * BLOCK).unwrap_or("<end of file>");
            format!(
                "the first differing line is one of lines {first}..={} (expected {} lines, got {}); \
                 line {first} now reads:\n    {line}",
                first + BLOCK - 1,
                expected.lines,
                actual.lines
            )
        }
    };
    format!(
        "golden digest mismatch: shape `{}` (dse sweep {} --threads {threads}), file {file}: \
         {located}\nIf this change means to move these bytes, regenerate the table with\n    \
         {REGENERATE}\nand say why in CHANGES.md.",
        shape.name, shape.args,
    )
}

#[test]
fn canonical_sweeps_reproduce_the_golden_digests() {
    let triple = target_triple();
    let rows = table_rows(&triple);
    assert!(
        !rows.is_empty(),
        "golden_digests.txt has no rows for target {triple}; generate them with\n    {REGENERATE}"
    );
    let dir = temp_dir("check");
    let mut failures = Vec::new();
    for shape in SHAPES {
        let runs: Vec<_> = [1, 2]
            .into_iter()
            .map(|threads| {
                let out = dir.join(format!("{}-t{threads}", shape.name));
                (threads, run_shape(shape, threads, &out))
            })
            .collect();
        let (_, serial) = &runs[0];
        for (threads, files) in &runs {
            let names: Vec<&str> = files.iter().map(|(f, _)| *f).collect();
            let expected_names: Vec<&str> = rows
                .iter()
                .filter(|(s, _, _)| s == shape.name)
                .map(|(_, f, _)| f.as_str())
                .collect();
            assert_eq!(
                names, expected_names,
                "shape `{}` at --threads {threads} wrote other artifacts than the table lists",
                shape.name
            );
            for ((file, text), (_, serial_text)) in files.iter().zip(serial) {
                if let Some((n, one, this)) = first_difference(serial_text, text) {
                    failures.push(format!(
                        "shape `{}`, file {file}: --threads {threads} differs from --threads 1 \
                         first at line {n}:\n    1 thread: {one}\n    {threads} threads: {this}",
                        shape.name
                    ));
                }
                let expected = rows
                    .iter()
                    .find(|(s, f, _)| s == shape.name && f == file)
                    .map(|(_, _, d)| d);
                if expected != Some(&digest(text)) {
                    failures.push(describe_mismatch(shape, file, *threads, text, expected));
                }
            }
        }
    }
    fs::remove_dir_all(&dir).expect("remove temp dir");
    assert!(failures.is_empty(), "{}", failures.join("\n\n"));
}

/// The `sim.*` counters of a `--metrics-out` document, in name order.
fn sim_counters(metrics: &str) -> Vec<(String, u64)> {
    metrics
        .lines()
        .filter_map(|line| {
            let (name, value) = line.trim().trim_end_matches(',').split_once(": ")?;
            let name = name.trim_matches('"');
            name.starts_with("sim.")
                .then(|| (name.to_owned(), value.parse().expect("counter value")))
        })
        .collect()
}

/// The simulator's work counters are exact: on both detection shapes every
/// `sim.*` counter is the same at 1 and 2 threads. Every UAV core takes the
/// supply path; some synthetic cores must fall back to the event path.
#[test]
fn detection_sim_counters_are_thread_independent() {
    let dir = temp_dir("counters");
    for shape in &SHAPES[..2] {
        let runs: Vec<Vec<(String, u64)>> = [1, 2]
            .into_iter()
            .map(|threads| {
                let out = dir.join(format!("{}-t{threads}", shape.name));
                let metrics = out.join("metrics.json");
                let metrics_arg = metrics.to_str().expect("UTF-8 temp path");
                run_dse(shape, threads, &out, &["--metrics-out", metrics_arg]);
                sim_counters(&fs::read_to_string(&metrics).expect("metrics document"))
            })
            .collect();
        assert_eq!(
            runs[0], runs[1],
            "shape `{}`: sim.* at 1 vs 2 threads",
            shape.name
        );
        let fallbacks = runs[0]
            .iter()
            .find(|(name, _)| name == "sim.supply_fallbacks")
            .map(|&(_, n)| n)
            .expect("sim.supply_fallbacks is exported");
        let releases = runs[0]
            .iter()
            .find(|(name, _)| name == "sim.releases")
            .map(|&(_, n)| n);
        assert!(
            releases > Some(0),
            "shape `{}` simulated nothing",
            shape.name
        );
        match shape.name {
            "uav-detection" => assert_eq!(fallbacks, 0, "every UAV core takes the supply path"),
            _ => assert!(fallbacks > 0, "some synthetic cores fall back"),
        }
    }
    fs::remove_dir_all(&dir).expect("remove temp dir");
}

/// Prints `golden_digests.txt` with this target's rows regenerated from the
/// current code (`--threads 1`); every other target's rows are kept.
#[test]
#[ignore = "prints the golden table for regeneration"]
fn print_golden_table() {
    let triple = target_triple();
    let dir = temp_dir("print");
    let mut table: Vec<String> = TABLE
        .lines()
        .filter(|line| line.split_whitespace().next() != Some(triple.as_str()))
        .map(str::to_owned)
        .collect();
    for shape in SHAPES {
        let out = dir.join(shape.name);
        for (file, text) in run_shape(shape, 1, &out) {
            table.push(render_row(&triple, shape.name, file, &digest(&text)));
        }
    }
    fs::remove_dir_all(&dir).expect("remove temp dir");
    println!("----- crates/rt-dse/tests/golden_digests.txt -----");
    for line in table {
        println!("{line}");
    }
    println!("----- end -----");
}
