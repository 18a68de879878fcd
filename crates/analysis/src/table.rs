//! Markdown / CSV table rendering for experiment output.

use std::fmt::Write as _;

/// A simple rectangular table with headers.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// A table with the given column headers.
    pub fn new<S: Into<String>, I: IntoIterator<Item = S>>(headers: I) -> Self {
        Table {
            headers: headers.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row; must match the header arity.
    pub fn push_row<S: Into<String>, I: IntoIterator<Item = S>>(&mut self, row: I) {
        let row: Vec<String> = row.into_iter().map(Into::into).collect();
        assert_eq!(
            row.len(),
            self.headers.len(),
            "row arity {} != header arity {}",
            row.len(),
            self.headers.len()
        );
        self.rows.push(row);
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// `true` iff the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Render as GitHub-flavoured Markdown with aligned columns.
    pub fn to_markdown(&self) -> String {
        let cols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.chars().count()).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.chars().count());
            }
        }
        let mut out = String::new();
        let render_row = |out: &mut String, cells: &[String]| {
            out.push('|');
            for (w, cell) in widths.iter().zip(cells) {
                let pad = w - cell.chars().count();
                let _ = write!(out, " {}{} |", cell, " ".repeat(pad));
            }
            out.push('\n');
        };
        render_row(&mut out, &self.headers);
        out.push('|');
        for w in &widths {
            let _ = write!(out, "{}|", "-".repeat(w + 2));
        }
        out.push('\n');
        for row in &self.rows {
            render_row(&mut out, row);
        }
        let _ = cols;
        out
    }

    /// Render as CSV (RFC-4180-style quoting for cells containing commas,
    /// quotes or newlines — the shared [`csv_quote`](crate::serial::csv_quote)
    /// rule).
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        let mut write_row = |cells: &[String]| {
            let line: Vec<String> = cells.iter().map(|c| crate::serial::csv_quote(c)).collect();
            out.push_str(&line.join(","));
            out.push('\n');
        };
        write_row(&self.headers);
        for row in &self.rows {
            write_row(row);
        }
        out
    }

    /// Write both renderings to stdout (the experiment binaries' default).
    #[expect(
        clippy::print_stdout,
        reason = "the explicit render-to-stdout entry the CLI layer calls"
    )]
    pub fn print(&self) {
        print!("{}", self.to_markdown());
    }

    /// Save the CSV rendering to `path`.
    pub fn save_csv(&self, path: &std::path::Path) -> std::io::Result<()> {
        std::fs::write(path, self.to_csv())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn markdown_layout() {
        let mut t = Table::new(["n", "k", "latency"]);
        t.push_row(["64", "4", "31"]);
        t.push_row(["1024", "16", "220"]);
        let md = t.to_markdown();
        let lines: Vec<&str> = md.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("| n"));
        assert!(lines[1].starts_with("|--"));
        assert!(lines[3].contains("1024"));
        // All lines have equal width (aligned columns).
        let widths: std::collections::BTreeSet<usize> =
            lines.iter().map(|l| l.chars().count()).collect();
        assert_eq!(widths.len(), 1, "unaligned markdown:\n{md}");
    }

    #[test]
    fn csv_quoting() {
        let mut t = Table::new(["a", "b"]);
        t.push_row(["plain", "with,comma"]);
        t.push_row(["with\"quote", "multi\nline"]);
        let csv = t.to_csv();
        assert!(csv.contains("\"with,comma\""));
        assert!(csv.contains("\"with\"\"quote\""));
        assert!(csv.contains("\"multi\nline\""));
        assert!(csv.starts_with("a,b\n"));
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn arity_mismatch_panics() {
        let mut t = Table::new(["a", "b"]);
        t.push_row(["only-one"]);
    }

    #[test]
    fn empty_table() {
        let t = Table::new(["x"]);
        assert!(t.is_empty());
        assert_eq!(t.len(), 0);
        assert_eq!(t.to_csv(), "x\n");
        assert_eq!(t.to_markdown().lines().count(), 2);
    }

    #[test]
    fn save_csv_roundtrip() {
        let mut t = Table::new(["a"]);
        t.push_row(["1"]);
        let dir = std::env::temp_dir().join("wakeup_analysis_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.csv");
        t.save_csv(&path).unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "a\n1\n");
        std::fs::remove_file(&path).ok();
    }
}
