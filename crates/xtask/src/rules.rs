//! The rule catalog and the per-file lint passes (D001–D005; the
//! cross-file schema check D006 lives in [`crate::schema`]).
//!
//! Every rule has a stable ID, a one-line rationale (shown with each
//! finding) and a fix hint. Findings are suppressed by an inline
//! `// lint-ok(ID): reason` comment on — or in the comment block directly
//! above — the offending line, or by a `[[allow]]` path entry in
//! `crates/xtask/lints.toml`.

use crate::engine::{FileKind, ScannedFile};
use crate::tokenizer::Line;

/// Stable rule identifiers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    /// Nondeterministic iteration: `HashMap`/`HashSet` on an output path.
    D001,
    /// Wall-clock confinement: `Instant::now` / `SystemTime` outside the
    /// observability crate and the bin/bench/test targets.
    D002,
    /// Relaxed-atomics audit: `Ordering::Relaxed` without a verdict.
    D003,
    /// Panic policy: unjustified `unwrap()`/`panic!` in library code.
    D004,
    /// Unsafe ban: a non-shim crate root without `#![forbid(unsafe_code)]`.
    D005,
    /// Schema drift: code and README disagree on metric names or columns.
    D006,
}

/// All rules, in ID order.
pub const ALL: [Rule; 6] = [
    Rule::D001,
    Rule::D002,
    Rule::D003,
    Rule::D004,
    Rule::D005,
    Rule::D006,
];

impl Rule {
    /// The stable ID string (`D001` …).
    #[must_use]
    pub fn id(self) -> &'static str {
        match self {
            Rule::D001 => "D001",
            Rule::D002 => "D002",
            Rule::D003 => "D003",
            Rule::D004 => "D004",
            Rule::D005 => "D005",
            Rule::D006 => "D006",
        }
    }

    /// Short rule name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Rule::D001 => "nondeterministic-iteration",
            Rule::D002 => "wall-clock-confinement",
            Rule::D003 => "relaxed-atomics-audit",
            Rule::D004 => "panic-policy",
            Rule::D005 => "unsafe-ban",
            Rule::D006 => "schema-drift",
        }
    }

    /// Why the rule exists (one line, shown with findings and in `rules`).
    #[must_use]
    pub fn rationale(self) -> &'static str {
        match self {
            Rule::D001 => {
                "HashMap/HashSet order is randomized per process; on an output path one \
                 unsorted iteration silently breaks byte-identical sweeps"
            }
            Rule::D002 => {
                "wall-clock reads in evaluation code can leak timing into outcome bytes; \
                 clocks belong to rt-obs and to bin, bench and test targets only"
            }
            Rule::D003 => {
                "Ordering::Relaxed is correct only when no cross-thread data handoff \
                 depends on the atomic; every use must record that argument"
            }
            Rule::D004 => {
                "bare unwrap()/panic! in library code hides the invariant it relies on; \
                 use expect(\"invariant\") or return a Result"
            }
            Rule::D005 => {
                "the workspace guarantees are only as strong as its safe-Rust boundary; \
                 every non-shim crate root must carry #![forbid(unsafe_code)]"
            }
            Rule::D006 => {
                "the rt-obs/v1 metric names and CSV/JSONL columns are a public contract; \
                 code and the README schema tables must not drift apart"
            }
        }
    }

    /// How to fix a finding.
    #[must_use]
    pub fn hint(self) -> &'static str {
        match self {
            Rule::D001 => {
                "migrate to BTreeMap/BTreeSet, or allowlist the path in \
                 crates/xtask/lints.toml with a sortedness/never-iterated argument"
            }
            Rule::D002 => {
                "move the timing into rt-obs, or justify with `// lint-ok(D002): …` \
                 explaining why no outcome byte can depend on it"
            }
            Rule::D003 => {
                "add `// relaxed-ok: <why no data handoff depends on this>` or upgrade \
                 the ordering (Acquire/Release) if it does guard a handoff"
            }
            Rule::D004 => {
                "convert to expect(\"<invariant>\"), return a Result, or justify with \
                 `// lint-ok(D004): …`"
            }
            Rule::D005 => "add `#![forbid(unsafe_code)]` to the crate root",
            Rule::D006 => {
                "update the schema tables in README.md (or revert the code rename) so \
                 both sides list the same names"
            }
        }
    }
}

/// One finding: rule, location, message.
#[derive(Debug, Clone)]
pub struct Finding {
    /// The violated rule.
    pub rule: Rule,
    /// Workspace-relative path.
    pub rel: String,
    /// 1-based line number.
    pub line: usize,
    /// What was found (includes the offending token).
    pub message: String,
}

/// D001 scope: modules whose iteration order can reach output bytes.
const D001_SCOPE: &[&str] = &[
    "crates/rt-dse/src/sink.rs",
    "crates/rt-dse/src/agg.rs",
    "crates/rt-dse/src/checkpoint.rs",
    "crates/rt-dse/src/memo.rs",
    "crates/core/src/allocator/",
    "crates/rt-core/src/",
];

/// D002/D003 boundary: crates that own wall-clock / relaxed atomics.
const CLOCK_CRATES: &[&str] = &["crates/rt-obs/"];
const RELAXED_EXEMPT: &[&str] = &["crates/rt-obs/"];

/// D004 exemptions: shims implement panicking third-party APIs verbatim.
const PANIC_EXEMPT: &[&str] = &["crates/shims/"];

/// Runs the per-file rules over one scanned file. `suppressed(line_idx,
/// needle)` answers whether an inline marker covers the line.
pub fn check_file(file: &ScannedFile, findings: &mut Vec<Finding>) {
    let non_lib = !matches!(file.kind, FileKind::Lib);
    let rel = file.rel.as_str();

    // D001 — nondeterministic iteration surface on output paths.
    if D001_SCOPE.iter().any(|p| rel.starts_with(p)) {
        for line in &file.lines {
            if line.in_test {
                continue;
            }
            for token in ["HashMap", "HashSet"] {
                if contains_token(&line.code, token) && !file.suppressed(line, Rule::D001) {
                    findings.push(Finding {
                        rule: Rule::D001,
                        rel: rel.to_owned(),
                        line: line.number,
                        message: format!("`{token}` on an output path (grid-order bytes)"),
                    });
                }
            }
        }
    }

    // D002 — wall-clock confinement.
    let clock_ok = non_lib || CLOCK_CRATES.iter().any(|p| rel.starts_with(p));
    if !clock_ok {
        for line in &file.lines {
            if line.in_test {
                continue;
            }
            for token in ["Instant::now", "SystemTime"] {
                if line.code.contains(token) && !file.suppressed(line, Rule::D002) {
                    findings.push(Finding {
                        rule: Rule::D002,
                        rel: rel.to_owned(),
                        line: line.number,
                        message: format!("`{token}` outside the observability boundary"),
                    });
                }
            }
        }
    }

    // D003 — relaxed-atomics audit.
    if !RELAXED_EXEMPT.iter().any(|p| rel.starts_with(p)) && !matches!(file.kind, FileKind::Test) {
        for line in &file.lines {
            if line.in_test || !line.code.contains("Ordering::Relaxed") {
                continue;
            }
            let justified =
                file.has_marker(line, "relaxed-ok:") || file.suppressed(line, Rule::D003);
            if !justified {
                findings.push(Finding {
                    rule: Rule::D003,
                    rel: rel.to_owned(),
                    line: line.number,
                    message: "`Ordering::Relaxed` without a `relaxed-ok:` verdict".to_owned(),
                });
            }
        }
    }

    // D004 — panic policy in library code.
    if matches!(file.kind, FileKind::Lib) && !PANIC_EXEMPT.iter().any(|p| rel.starts_with(p)) {
        for line in &file.lines {
            if line.in_test {
                continue;
            }
            for token in [
                ".unwrap()",
                "panic!(",
                "todo!(",
                "unimplemented!(",
                "unreachable!(",
            ] {
                if line.code.contains(token) && !file.suppressed(line, Rule::D004) {
                    findings.push(Finding {
                        rule: Rule::D004,
                        rel: rel.to_owned(),
                        line: line.number,
                        message: format!(
                            "`{}` in library code without a named invariant",
                            token.trim_start_matches('.').trim_end_matches('(')
                        ),
                    });
                }
            }
        }
    }

    // D005 — unsafe ban on crate roots.
    if is_crate_root(rel) && !rel.starts_with("crates/shims/") {
        let has_forbid = file
            .lines
            .iter()
            .any(|l| l.code.contains("#![forbid(unsafe_code)]"));
        if !has_forbid {
            findings.push(Finding {
                rule: Rule::D005,
                rel: rel.to_owned(),
                line: 1,
                message: "crate root lacks `#![forbid(unsafe_code)]`".to_owned(),
            });
        }
    }
}

/// Whether `rel` is a crate root (`src/lib.rs` of the facade or of any
/// workspace crate, at any nesting depth under `crates/`).
fn is_crate_root(rel: &str) -> bool {
    rel == "src/lib.rs" || (rel.starts_with("crates/") && rel.ends_with("/src/lib.rs"))
}

/// Token-boundary match: `HashMap` must not fire on `MyHashMapLike`.
fn contains_token(code: &str, token: &str) -> bool {
    let bytes = code.as_bytes();
    let mut from = 0;
    while let Some(p) = code[from..].find(token) {
        let at = from + p;
        let before_ok = at == 0 || {
            let c = bytes[at - 1];
            !(c.is_ascii_alphanumeric() || c == b'_')
        };
        let end = at + token.len();
        let after_ok = end >= bytes.len() || {
            let c = bytes[end];
            !(c.is_ascii_alphanumeric() || c == b'_')
        };
        if before_ok && after_ok {
            return true;
        }
        from = end;
    }
    false
}

/// Whether an inline marker (`lint-ok(ID)` / `relaxed-ok`) appears in the
/// comment of `line` or of the comment/attribute lines directly above it.
pub fn marker_covers(lines: &[Line], idx: usize, needle: &str) -> bool {
    if lines[idx].comment.contains(needle) {
        return true;
    }
    let mut i = idx;
    while i > 0 {
        i -= 1;
        let l = &lines[i];
        let code = l.code.trim();
        // Attribute-only lines (e.g. `#[allow(...)]`) are transparent: the
        // justification comment may sit above them.
        let transparent = code.is_empty() || (code.starts_with("#[") && code.ends_with(']'));
        if !transparent {
            return false;
        }
        if l.comment.contains(needle) {
            return true;
        }
        if code.is_empty() && l.comment.is_empty() {
            return false; // blank line ends the comment block
        }
    }
    false
}
