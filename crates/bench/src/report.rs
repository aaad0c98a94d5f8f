//! CSV and console reporting helpers shared by the experiment binaries.

use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};

/// A rectangular result table: a header row and data rows, writable as CSV
/// and printable as an aligned console table.
#[derive(Debug, Clone, PartialEq)]
pub struct ResultTable {
    title: String,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl ResultTable {
    /// Creates an empty table with the given title and column names.
    #[must_use]
    pub fn new(title: impl Into<String>, header: &[&str]) -> Self {
        ResultTable {
            title: title.into(),
            header: header.iter().map(|s| (*s).to_owned()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a data row.
    ///
    /// # Panics
    ///
    /// Panics if the row length differs from the header length.
    pub fn push_row(&mut self, row: Vec<String>) {
        assert_eq!(
            row.len(),
            self.header.len(),
            "row has {} cells but the table has {} columns",
            row.len(),
            self.header.len()
        );
        self.rows.push(row);
    }

    /// Number of data rows.
    #[must_use]
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no data rows.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Table title.
    #[must_use]
    pub fn title(&self) -> &str {
        &self.title
    }

    /// Data rows.
    #[must_use]
    pub fn rows(&self) -> &[Vec<String>] {
        &self.rows
    }

    /// Renders the table as CSV (header + rows).
    #[must_use]
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        out.push_str(&self.header.join(","));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.join(","));
            out.push('\n');
        }
        out
    }

    /// Renders the table as an aligned console listing with its title.
    #[must_use]
    pub fn to_console(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let fmt_row = |cells: &[String]| -> String {
            cells
                .iter()
                .zip(&widths)
                .map(|(c, w)| format!("{c:>w$}"))
                .collect::<Vec<_>>()
                .join("  ")
        };
        let mut out = format!("# {}\n", self.title);
        out.push_str(&fmt_row(&self.header));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row));
            out.push('\n');
        }
        out
    }

    /// Writes the CSV rendering to `dir/name.csv`, creating the directory if
    /// needed, and returns the path.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from creating the directory or writing the file.
    pub fn write_csv(&self, dir: impl AsRef<Path>, name: &str) -> std::io::Result<PathBuf> {
        let dir = dir.as_ref();
        fs::create_dir_all(dir)?;
        let path = dir.join(format!("{name}.csv"));
        let mut file = fs::File::create(&path)?;
        file.write_all(self.to_csv().as_bytes())?;
        Ok(path)
    }

    /// [`ResultTable::write_csv`] for the experiment binaries: on failure it
    /// prints `error: …` to stderr and exits with status 1, so a figure whose
    /// CSV was not written never reports success.
    #[must_use]
    pub fn write_csv_or_exit(&self, dir: &str, name: &str) -> PathBuf {
        self.write_csv(dir, name).unwrap_or_else(|e| {
            eprintln!("error: could not write {name}.csv in {dir}: {e}");
            std::process::exit(1)
        })
    }
}

/// Formats a float with three decimal places (the precision used in the
/// experiment outputs).
#[must_use]
pub fn fmt3(value: f64) -> String {
    format!("{value:.3}")
}

/// Formats a float as a percentage with one decimal place.
#[must_use]
pub fn fmt_pct(value: f64) -> String {
    format!("{value:.1}")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ResultTable {
        let mut t = ResultTable::new("demo", &["a", "b"]);
        t.push_row(vec!["1".into(), "2".into()]);
        t.push_row(vec!["30".into(), "4".into()]);
        t
    }

    #[test]
    fn csv_rendering() {
        let t = sample();
        assert_eq!(t.to_csv(), "a,b\n1,2\n30,4\n");
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
        assert_eq!(t.title(), "demo");
        assert_eq!(t.rows().len(), 2);
    }

    #[test]
    fn console_rendering_is_aligned() {
        let t = sample();
        let text = t.to_console();
        assert!(text.starts_with("# demo\n"));
        assert!(text.contains(" a  b"));
        assert!(text.contains("30  4"));
    }

    #[test]
    #[should_panic(expected = "columns")]
    fn mismatched_row_length_panics() {
        let mut t = ResultTable::new("demo", &["a", "b"]);
        t.push_row(vec!["1".into()]);
    }

    #[test]
    fn csv_writes_to_disk() {
        let dir = std::env::temp_dir().join("hydra_bench_test_report");
        let path = sample().write_csv(&dir, "demo").unwrap();
        let content = std::fs::read_to_string(&path).unwrap();
        assert!(content.contains("a,b"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn formatters() {
        assert_eq!(fmt3(1.23456), "1.235");
        assert_eq!(fmt_pct(19.812), "19.8");
    }
}
