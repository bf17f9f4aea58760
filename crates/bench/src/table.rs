//! Table formatting shared by all experiments.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Scale of an experiment run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Seconds-long CI scale.
    Quick,
    /// Paper scale (100-node platforms, larger campaigns).
    Full,
}

impl Scale {
    /// Picks `quick` or `full` by scale.
    pub fn pick<T>(self, quick: T, full: T) -> T {
        match self {
            Scale::Quick => quick,
            Scale::Full => full,
        }
    }
}

/// Why an experiment could not produce its table: the error of the
/// layer it drove (a workload that would not build, a run that did not
/// complete, a store or runtime call that failed).
pub type ExperimentError = Box<dyn std::error::Error>;

/// One experiment's output: a titled table plus free-form findings.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExperimentTable {
    /// Experiment id (`e1` …).
    pub id: String,
    /// Paper claim being reproduced.
    pub claim: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Row-major cells.
    pub rows: Vec<Vec<String>>,
    /// One-line takeaway comparing measurement to the claim.
    pub finding: String,
}

impl ExperimentTable {
    /// Creates a table.
    pub fn new(id: &str, claim: &str, headers: &[&str]) -> Self {
        ExperimentTable {
            id: id.to_string(),
            claim: claim.to_string(),
            headers: headers.iter().map(|h| h.to_string()).collect(),
            rows: Vec::new(),
            finding: String::new(),
        }
    }

    /// Appends a row.
    pub fn row<I: IntoIterator<Item = String>>(&mut self, cells: I) {
        let row: Vec<String> = cells.into_iter().collect();
        debug_assert_eq!(row.len(), self.headers.len(), "row width mismatch");
        self.rows.push(row);
    }

    /// Sets the takeaway line.
    pub fn finding(&mut self, text: impl Into<String>) {
        self.finding = text.into();
    }

    /// Looks up a cell as `f64` (for assertions in tests).
    ///
    /// # Panics
    ///
    /// Panics if the cell is missing or not numeric.
    pub fn cell_f64(&self, row: usize, col: usize) -> f64 {
        self.rows[row][col]
            .trim_end_matches(['%', 'x', 's'])
            .trim()
            .parse()
            .unwrap_or_else(|_| {
                panic!("cell ({row},{col}) = {:?} not numeric", self.rows[row][col])
            })
    }
}

impl fmt::Display for ExperimentTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "== {} — {}", self.id.to_uppercase(), self.claim)?;
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let header: Vec<String> = self
            .headers
            .iter()
            .enumerate()
            .map(|(i, h)| format!("{h:>width$}", width = widths[i]))
            .collect();
        writeln!(f, "  {}", header.join("  "))?;
        writeln!(f, "  {}", "-".repeat(header.join("  ").len()))?;
        for row in &self.rows {
            let cells: Vec<String> = row
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{c:>width$}", width = widths[i]))
                .collect();
            writeln!(f, "  {}", cells.join("  "))?;
        }
        if !self.finding.is_empty() {
            writeln!(f, "  → {}", self.finding)?;
        }
        Ok(())
    }
}

/// Formats seconds compactly.
pub fn fmt_s(v: f64) -> String {
    format!("{v:.1}")
}

/// Formats a ratio as `N.NNx`.
pub fn fmt_x(v: f64) -> String {
    format!("{v:.2}x")
}

/// Formats a percentage.
pub fn fmt_pct(v: f64) -> String {
    format!("{:.1}%", v * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = ExperimentTable::new("e0", "test claim", &["a", "metric"]);
        t.row(["1".into(), "10.0".into()]);
        t.row(["200".into(), "3.5".into()]);
        t.finding("works");
        let s = t.to_string();
        assert!(s.contains("E0 — test claim"));
        assert!(s.contains("→ works"));
        assert_eq!(t.cell_f64(1, 1), 3.5);
    }

    #[test]
    fn cell_parsing_strips_units() {
        let mut t = ExperimentTable::new("e0", "c", &["v"]);
        t.row([fmt_x(2.5)]);
        t.row([fmt_pct(0.5)]);
        assert_eq!(t.cell_f64(0, 0), 2.5);
        assert_eq!(t.cell_f64(1, 0), 50.0);
    }

    #[test]
    fn scale_pick() {
        assert_eq!(Scale::Quick.pick(1, 2), 1);
        assert_eq!(Scale::Full.pick(1, 2), 2);
    }
}
