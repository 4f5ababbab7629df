//! Experiment output: publication-shaped text tables and JSON records.
//!
//! Every figure/table binary in `qse-repro` renders its rows through this
//! module, so the console output lines up with the paper's tables and a
//! machine-readable JSON twin lands next to it for EXPERIMENTS.md.

use qse_util::json::ToJson;
use std::fmt::Write as _;
use std::path::Path;

/// A simple left-padded text table.
pub struct TextTable {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Creates a table with column headers.
    pub fn new<S: Into<String>>(headers: Vec<S>) -> Self {
        TextTable {
            headers: headers.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends one row (must match the header count).
    pub fn row<S: Into<String>>(&mut self, cells: Vec<S>) -> &mut Self {
        let cells: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(cells.len(), self.headers.len(), "column count mismatch");
        self.rows.push(cells);
        self
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when no rows were added.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders with a header underline and aligned columns.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        let render_row = |out: &mut String, cells: &[String]| {
            for (i, (cell, w)) in cells.iter().zip(&widths).enumerate() {
                if i > 0 {
                    out.push_str("  ");
                }
                let _ = write!(out, "{cell:>w$}", w = w);
            }
            out.push('\n');
        };
        render_row(&mut out, &self.headers);
        let total: usize = widths.iter().sum::<usize>() + 2 * (widths.len() - 1);
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            render_row(&mut out, row);
        }
        out
    }
}

/// Formats seconds the way the paper's tables do.
pub fn fmt_seconds(s: f64) -> String {
    if s >= 100.0 {
        format!("{s:.0} s")
    } else if s >= 1.0 {
        format!("{s:.1} s")
    } else {
        format!("{s:.2} s")
    }
}

/// Formats a ratio as a percentage delta against a baseline of 1.0
/// (`+7 %` / `−12 %`), as read off fig 3.
pub fn fmt_delta(ratio: f64) -> String {
    let pct = (ratio - 1.0) * 100.0;
    format!("{pct:+.0} %")
}

/// Writes a serialisable record as pretty JSON, creating parents.
pub fn write_json<T: ToJson>(path: &Path, value: &T) -> std::io::Result<()> {
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent)?;
    }
    std::fs::write(path, value.to_json().pretty())
}

/// The default output directory for experiment JSON (`results/` at the
/// workspace root, overridable with `QSE_RESULTS_DIR`).
pub fn results_dir() -> std::path::PathBuf {
    std::env::var_os("QSE_RESULTS_DIR")
        .map(Into::into)
        .unwrap_or_else(|| "results".into())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = TextTable::new(vec!["Qubits", "Runtime"]);
        t.row(vec!["38", "0.5 s"]);
        t.row(vec!["44", "476 s"]);
        let s = t.render();
        assert!(s.contains("Qubits"));
        assert!(s.contains("476 s"));
        // header underline present
        assert!(s.lines().nth(1).unwrap().starts_with('-'));
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
    }

    #[test]
    #[should_panic(expected = "column count mismatch")]
    fn ragged_rows_rejected() {
        TextTable::new(vec!["a", "b"]).row(vec!["only-one"]);
    }

    #[test]
    fn second_formatting() {
        assert_eq!(fmt_seconds(476.0), "476 s");
        assert_eq!(fmt_seconds(9.63), "9.6 s");
        assert_eq!(fmt_seconds(0.53), "0.53 s");
    }

    #[test]
    fn delta_formatting() {
        assert_eq!(fmt_delta(1.25), "+25 %");
        assert_eq!(fmt_delta(0.93), "-7 %");
        assert_eq!(fmt_delta(1.0), "+0 %");
    }

    #[test]
    fn json_roundtrip() {
        let dir = std::env::temp_dir().join("qse_experiment_test");
        let path = dir.join("record.json");
        struct R {
            x: u32,
        }
        impl ToJson for R {
            fn to_json(&self) -> qse_util::Json {
                qse_util::Json::object([("x", self.x.to_json())])
            }
        }
        write_json(&path, &R { x: 7 }).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("\"x\": 7"));
        std::fs::remove_dir_all(&dir).ok();
    }
}
