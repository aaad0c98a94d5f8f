//! The lint engine: walks a workspace root, tokenizes every Rust source,
//! runs the rule passes and the schema cross-check, applies the allowlists
//! and enforces the suppression-budget ratchet.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use crate::config::Config;
use crate::rules::{self, Finding, Rule};
use crate::schema;
use crate::tokenizer::{self, Line};

/// How a file participates in the build — rules scope by this.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileKind {
    /// Library code (the default).
    Lib,
    /// A binary target (`src/main.rs`, `src/bin/…`).
    Bin,
    /// Integration-test code (`tests/…`).
    Test,
    /// Bench code (`benches/…`).
    Bench,
    /// Example code (`examples/…`).
    Example,
    /// A build script.
    Build,
}

/// One tokenized source file.
#[derive(Debug)]
pub struct ScannedFile {
    /// Workspace-relative path, forward slashes.
    pub rel: String,
    /// Target classification.
    pub kind: FileKind,
    /// Tokenized lines.
    pub lines: Vec<Line>,
}

impl ScannedFile {
    /// Whether `line` carries (or sits under) a `lint-ok(RULE)` marker.
    #[must_use]
    pub fn suppressed(&self, line: &Line, rule: Rule) -> bool {
        let needle = format!("lint-ok({})", rule.id());
        rules::marker_covers(&self.lines, line.number - 1, &needle)
    }

    /// Whether `line` carries (or sits under) an arbitrary marker.
    #[must_use]
    pub fn has_marker(&self, line: &Line, needle: &str) -> bool {
        rules::marker_covers(&self.lines, line.number - 1, needle)
    }
}

/// Per-rule suppression statistics — the `--stats` / ratchet input.
#[derive(Debug, Clone, Default)]
pub struct Stats {
    /// Inline `lint-ok(ID)` / `relaxed-ok` comment count per rule.
    pub inline: BTreeMap<String, u64>,
    /// `lints.toml` path-allow entry count per rule.
    pub path_allows: BTreeMap<String, u64>,
    /// Findings (pre-allowlist) silenced by a path allow, per rule.
    pub path_suppressed: BTreeMap<String, u64>,
}

/// The result of one lint run.
#[derive(Debug, Default)]
pub struct LintOutcome {
    /// Findings that survived every allowlist, sorted by path/line/rule.
    pub findings: Vec<Finding>,
    /// Suppression statistics.
    pub stats: Stats,
    /// Ratchet violations (inline suppressions exceeding their budget).
    pub budget_errors: Vec<String>,
}

impl LintOutcome {
    /// Whether the gate passes.
    #[must_use]
    pub fn clean(&self) -> bool {
        self.findings.is_empty() && self.budget_errors.is_empty()
    }
}

/// Runs the full lint over `root` with `config`.
///
/// # Errors
///
/// Returns a description of the first I/O problem (unreadable file/dir).
pub fn run(root: &Path, config: &Config) -> Result<LintOutcome, String> {
    let mut files = Vec::new();
    walk(root, &mut files)?;
    files.sort();

    let mut outcome = LintOutcome::default();
    let mut raw_findings = Vec::new();
    let mut scanned = Vec::new();
    for path in &files {
        let rel = relative(root, path);
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        let file = ScannedFile {
            kind: classify(&rel),
            lines: tokenizer::tokenize(&text),
            rel,
        };
        rules::check_file(&file, &mut raw_findings);
        count_inline_markers(&file, &mut outcome.stats);
        scanned.push(file);
    }
    schema::check(root, &scanned, &mut raw_findings)?;

    // Path allowlist: silence findings covered by a lints.toml entry.
    for finding in raw_findings {
        if config.allows_path(finding.rule.id(), &finding.rel) {
            *outcome
                .stats
                .path_suppressed
                .entry(finding.rule.id().to_owned())
                .or_default() += 1;
        } else {
            outcome.findings.push(finding);
        }
    }
    outcome
        .findings
        .sort_by(|a, b| (&a.rel, a.line, a.rule).cmp(&(&b.rel, b.line, b.rule)));

    for allow in &config.allows {
        *outcome
            .stats
            .path_allows
            .entry(allow.rule.clone())
            .or_default() += 1;
    }

    // The ratchet: inline suppressions must not exceed their budget. A
    // missing entry (when the [budget] table exists) budgets zero, so every
    // new suppression class is an explicit lints.toml edit.
    if let Some(budgets) = &config.budgets {
        for (rule, &count) in &outcome.stats.inline {
            let budget = budgets.get(rule).copied().unwrap_or(0);
            if count > budget {
                outcome.budget_errors.push(format!(
                    "{rule}: {count} inline suppression(s) exceed the lints.toml budget of \
                     {budget} — new suppressions must raise [budget] {rule} deliberately"
                ));
            }
        }
    }
    Ok(outcome)
}

/// Counts inline suppression markers (whether or not they currently silence
/// a finding — the budget measures the suppression *surface*).
fn count_inline_markers(file: &ScannedFile, stats: &mut Stats) {
    for line in &file.lines {
        for rule in rules::ALL {
            if line.comment.contains(&format!("lint-ok({})", rule.id())) {
                *stats.inline.entry(rule.id().to_owned()).or_default() += 1;
            }
        }
        if line.comment.contains("relaxed-ok:") {
            *stats.inline.entry(Rule::D003.id().to_owned()).or_default() += 1;
        }
    }
}

/// Recursively collects `.rs` files, skipping build output, VCS metadata and
/// the linter's own fixture corpus (which contains deliberate violations).
fn walk(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), String> {
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| format!("{}: {e}", dir.display()))?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name == "target" || name == "fixtures" || name.starts_with('.') {
                continue;
            }
            walk(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Workspace-relative path with forward slashes.
fn relative(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

/// Classifies a file by its path shape.
fn classify(rel: &str) -> FileKind {
    if rel.ends_with("build.rs") && !rel.contains("/src/") {
        FileKind::Build
    } else if rel.contains("/src/bin/") || rel.ends_with("src/main.rs") {
        FileKind::Bin
    } else if rel.starts_with("tests/") || rel.contains("/tests/") {
        FileKind::Test
    } else if rel.starts_with("benches/") || rel.contains("/benches/") {
        FileKind::Bench
    } else if rel.starts_with("examples/") || rel.contains("/examples/") {
        FileKind::Example
    } else {
        FileKind::Lib
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification_by_path_shape() {
        assert_eq!(classify("crates/rt-dse/src/agg.rs"), FileKind::Lib);
        assert_eq!(classify("crates/rt-dse/src/bin/dse.rs"), FileKind::Bin);
        assert_eq!(classify("crates/xtask/src/main.rs"), FileKind::Bin);
        assert_eq!(classify("tests/dse_determinism.rs"), FileKind::Test);
        assert_eq!(
            classify("crates/rt-obs/tests/registry_merge.rs"),
            FileKind::Test
        );
        assert_eq!(classify("crates/bench/tests/fig_cli.rs"), FileKind::Test);
        assert_eq!(classify("examples/quickstart.rs"), FileKind::Example);
    }
}
