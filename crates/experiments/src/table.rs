//! Result tables: aligned console rendering and CSV output.
//!
//! Every experiment produces one or more [`Table`]s — the textual
//! equivalent of the paper's figures: one row per x-axis point (σ value,
//! window size, dataset, …), one column per plotted series (technique,
//! error family, …), cells carrying `mean ± 95% CI` where applicable.

use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;

/// A rectangular result table.
#[derive(Debug, Clone, PartialEq)]
pub struct Table {
    /// Table title (figure reference + description).
    pub title: String,
    /// Column headers; `headers[0]` names the x-axis.
    pub headers: Vec<String>,
    /// Rows of rendered cells; each row has `headers.len()` cells.
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates an empty table.
    pub fn new(title: impl Into<String>, headers: Vec<String>) -> Self {
        assert!(!headers.is_empty(), "table needs at least one column");
        Self {
            title: title.into(),
            headers,
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    /// If the cell count does not match the header count.
    pub fn push_row(&mut self, cells: Vec<String>) {
        assert_eq!(
            cells.len(),
            self.headers.len(),
            "row width {} != header width {}",
            cells.len(),
            self.headers.len()
        );
        self.rows.push(cells);
    }

    /// Formats a mean ± half-width cell.
    pub fn cell_ci(mean: f64, half_width: f64) -> String {
        if half_width.is_nan() {
            format!("{mean:.3}")
        } else {
            format!("{mean:.3}±{half_width:.3}")
        }
    }

    /// Formats a plain numeric cell.
    pub fn cell(value: f64) -> String {
        format!("{value:.4}")
    }

    /// Renders the table with aligned columns.
    ///
    /// Widths are measured in characters, not bytes — the `±` in CI cells
    /// is multi-byte.
    pub fn render(&self) -> String {
        let char_len = |s: &str| s.chars().count();
        let mut widths: Vec<usize> = self.headers.iter().map(|h| char_len(h)).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(char_len(cell));
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "## {}", self.title);
        let line = |out: &mut String, cells: &[String]| {
            let mut first = true;
            for (w, cell) in widths.iter().zip(cells) {
                if !first {
                    out.push_str("  ");
                }
                for _ in char_len(cell)..*w {
                    out.push(' ');
                }
                out.push_str(cell);
                first = false;
            }
            out.push('\n');
        };
        line(&mut out, &self.headers);
        let total: usize = widths.iter().sum::<usize>() + 2 * (widths.len() - 1);
        let _ = writeln!(out, "{}", "-".repeat(total));
        for row in &self.rows {
            line(&mut out, row);
        }
        out
    }

    /// Serialises the table as CSV (headers + rows; commas inside cells
    /// are replaced by semicolons — cells here are simple numbers/names).
    pub fn to_csv(&self) -> String {
        let esc = |s: &str| s.replace(',', ";");
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{}",
            self.headers
                .iter()
                .map(|h| esc(h))
                .collect::<Vec<_>>()
                .join(",")
        );
        for row in &self.rows {
            let _ = writeln!(
                out,
                "{}",
                row.iter().map(|c| esc(c)).collect::<Vec<_>>().join(",")
            );
        }
        out
    }

    /// Writes the CSV into `dir/name.csv`, creating `dir` if needed.
    pub fn save_csv(&self, dir: &Path, name: &str) -> std::io::Result<std::path::PathBuf> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(format!("{name}.csv"));
        let mut f = std::fs::File::create(&path)?;
        f.write_all(self.to_csv().as_bytes())?;
        Ok(path)
    }
}

impl std::fmt::Display for Table {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.render())
    }
}

#[cfg(test)]
mod unit {
    use super::*;

    fn sample() -> Table {
        let mut t = Table::new(
            "Fig X: demo",
            vec!["sigma".into(), "DUST".into(), "Euclidean".into()],
        );
        t.push_row(vec![
            "0.2".into(),
            Table::cell(0.91234),
            Table::cell_ci(0.9, 0.02),
        ]);
        t.push_row(vec![
            "2.0".into(),
            Table::cell(0.5),
            Table::cell_ci(0.45, f64::NAN),
        ]);
        t
    }

    #[test]
    fn render_is_aligned() {
        let r = sample().render();
        assert!(r.contains("## Fig X: demo"));
        let lines: Vec<&str> = r.lines().collect();
        // header + separator + 2 rows + title
        assert_eq!(lines.len(), 5);
        // All data lines share the same display width (in chars).
        assert_eq!(lines[1].chars().count(), lines[3].chars().count());
    }

    #[test]
    fn csv_round_trip_structure() {
        let csv = sample().to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 3);
        assert_eq!(lines[0], "sigma,DUST,Euclidean");
        assert!(lines[1].starts_with("0.2,0.9123,"));
    }

    #[test]
    fn save_csv_writes_file() {
        let dir = std::env::temp_dir().join("uncertts-table-test");
        let path = sample().save_csv(&dir, "demo").unwrap();
        let content = std::fs::read_to_string(&path).unwrap();
        assert!(content.contains("sigma,DUST"));
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn ci_cell_formats() {
        assert_eq!(Table::cell_ci(0.5, 0.011), "0.500±0.011");
        assert_eq!(Table::cell_ci(0.5, f64::NAN), "0.500");
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn ragged_row_panics() {
        let mut t = Table::new("t", vec!["a".into(), "b".into()]);
        t.push_row(vec!["1".into()]);
    }
}
