//! Minimal aligned-table + CSV text for experiment outputs.

use std::fmt::Write as _;

/// A simple column-aligned text table that can also serialize to CSV.
#[derive(Debug, Clone, Default)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new<S: Into<String>>(header: impl IntoIterator<Item = S>) -> Self {
        Self {
            header: header.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (stringified cells).
    ///
    /// # Panics
    ///
    /// Panics if the cell count differs from the header.
    pub fn push<S: Into<String>>(&mut self, row: impl IntoIterator<Item = S>) {
        let row: Vec<String> = row.into_iter().map(Into::into).collect();
        assert_eq!(row.len(), self.header.len(), "column count mismatch");
        self.rows.push(row);
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// The data rows (stringified cells).
    pub fn rows(&self) -> &[Vec<String>] {
        &self.rows
    }

    /// Whether the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders a column-aligned text table (also valid Markdown).
    pub fn to_text(&self) -> String {
        let mut width: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in width.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], width: &[usize], out: &mut String| {
            out.push('|');
            for (c, w) in cells.iter().zip(width) {
                let _ = write!(out, " {c:>w$} |", w = w);
            }
            out.push('\n');
        };
        fmt_row(&self.header, &width, &mut out);
        out.push('|');
        for w in &width {
            let _ = write!(out, "{:-<w$}|", "", w = w + 2);
        }
        out.push('\n');
        for row in &self.rows {
            fmt_row(row, &width, &mut out);
        }
        out
    }

    /// Serializes to CSV (no quoting; cells must not contain commas).
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{}", self.header.join(","));
        for row in &self.rows {
            let _ = writeln!(out, "{}", row.join(","));
        }
        out
    }
}

/// Arithmetic mean of `a[i] / b[i]` — the paper's "Avg. Ratio" rows.
pub fn avg_ratio(num: &[f64], den: &[f64]) -> f64 {
    assert_eq!(num.len(), den.len());
    assert!(!num.is_empty());
    num.iter().zip(den).map(|(n, d)| n / d).sum::<f64>() / num.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_text() {
        let mut t = Table::new(["name", "value"]);
        t.push(["a", "1"]);
        t.push(["long-name", "12345"]);
        let s = t.to_text();
        assert!(s.contains("| long-name |"));
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines.iter().all(|l| l.len() == lines[0].len()));
    }

    #[test]
    fn csv_round_trip_shape() {
        let mut t = Table::new(["x", "y"]);
        t.push(["1", "2"]);
        let csv = t.to_csv();
        assert_eq!(csv, "x,y\n1,2\n");
    }

    #[test]
    fn avg_ratio_matches_hand_computation() {
        assert!((avg_ratio(&[2.0, 4.0], &[1.0, 2.0]) - 2.0).abs() < 1e-12);
        assert!((avg_ratio(&[1.0, 3.0], &[2.0, 2.0]) - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "column count mismatch")]
    fn row_width_checked() {
        let mut t = Table::new(["a", "b"]);
        t.push(["only-one"]);
    }
}
