//! Aligned console tables and CSV emission for the experiment binaries.

use std::fmt::Write as _;
use std::io;
use std::path::Path;

/// A simple column-aligned table, printed the way the paper reports series.
#[derive(Clone, Debug, Default)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// A table with the given column headers.
    pub fn new(headers: &[&str]) -> Self {
        Table { headers: headers.iter().map(|s| s.to_string()).collect(), rows: Vec::new() }
    }

    /// Appends a row (must match the header arity).
    pub fn row(&mut self, cells: &[String]) -> &mut Self {
        assert_eq!(cells.len(), self.headers.len(), "row arity mismatch");
        self.rows.push(cells.to_vec());
        self
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True iff the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders with aligned columns.
    pub fn render(&self) -> String {
        let cols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (k, cell) in row.iter().enumerate().take(cols) {
                widths[k] = widths[k].max(cell.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize], out: &mut String| {
            for (k, cell) in cells.iter().enumerate() {
                if k > 0 {
                    out.push_str("  ");
                }
                let _ = write!(out, "{cell:>width$}", width = widths[k]);
            }
            out.push('\n');
        };
        fmt_row(&self.headers, &widths, &mut out);
        let total: usize = widths.iter().sum::<usize>() + 2 * (cols.saturating_sub(1));
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            fmt_row(row, &widths, &mut out);
        }
        out
    }

    /// Prints the rendered table to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
    }

    /// The table as CSV text.
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        let esc = |s: &str| {
            if s.contains(',') || s.contains('"') {
                format!("\"{}\"", s.replace('"', "\"\""))
            } else {
                s.to_string()
            }
        };
        out.push_str(&self.headers.iter().map(|h| esc(h)).collect::<Vec<_>>().join(","));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.iter().map(|c| esc(c)).collect::<Vec<_>>().join(","));
            out.push('\n');
        }
        out
    }

    /// Writes the CSV next to the experiment outputs.
    pub fn write_csv(&self, path: impl AsRef<Path>) -> io::Result<()> {
        write_csv(path, &self.to_csv())
    }
}

/// Writes text to `path`, creating parent directories.
pub fn write_csv(path: impl AsRef<Path>, contents: &str) -> io::Result<()> {
    if let Some(parent) = path.as_ref().parent() {
        std::fs::create_dir_all(parent)?;
    }
    std::fs::write(path, contents)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_is_aligned() {
        let mut t = Table::new(&["n", "rounds"]);
        t.row(&["5".into(), "8".into()]);
        t.row(&["105".into(), "67".into()]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains('n') && lines[0].contains("rounds"));
        assert!(lines[3].contains("105"));
        // all rows equal width
        assert_eq!(lines[0].len(), lines[2].len().max(lines[0].len()));
    }

    #[test]
    #[should_panic(expected = "row arity mismatch")]
    fn arity_checked() {
        Table::new(&["a", "b"]).row(&["1".into()]);
    }

    #[test]
    fn csv_escapes() {
        let mut t = Table::new(&["name", "v"]);
        t.row(&["a,b".into(), "x\"y".into()]);
        let csv = t.to_csv();
        assert!(csv.contains("\"a,b\""));
        assert!(csv.contains("\"x\"\"y\""));
    }

    #[test]
    fn csv_roundtrip_to_disk() {
        let dir = std::env::temp_dir().join("rechord-analysis-test");
        let path = dir.join("t.csv");
        let mut t = Table::new(&["a"]);
        t.row(&["1".into()]);
        t.write_csv(&path).unwrap();
        let back = std::fs::read_to_string(&path).unwrap();
        assert_eq!(back, "a\n1\n");
        let _ = std::fs::remove_dir_all(dir);
    }
}
