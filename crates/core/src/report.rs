//! Text rendering for experiment reports.
//!
//! Every table/figure reproduction prints through these helpers so the
//! `repro` binary's output is uniform: aligned columns, an optional
//! "paper" column for side-by-side comparison, and duration formatting in
//! the paper's units.

/// A simple aligned text table.
#[derive(Debug, Default)]
pub struct TextTable {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Start a table with column headers.
    pub fn new(header: &[&str]) -> Self {
        TextTable {
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (must match the header width).
    pub fn row(&mut self, cells: &[String]) {
        assert_eq!(cells.len(), self.header.len(), "row width mismatch");
        self.rows.push(cells.to_vec());
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True if no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Render with aligned columns.
    pub fn render(&self) -> String {
        let cols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::new();
            for i in 0..cols {
                if i > 0 {
                    line.push_str("  ");
                }
                let cell = &cells[i];
                line.push_str(cell);
                line.push_str(&" ".repeat(widths[i].saturating_sub(cell.len())));
            }
            line.trim_end().to_string()
        };
        out.push_str(&fmt_row(&self.header, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (cols - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }
}

/// Format a duration in the paper's units (minutes / hours / days).
pub fn fmt_duration(secs: u64) -> String {
    const MINUTE: u64 = 60;
    const HOUR: u64 = 3_600;
    const DAY: u64 = 86_400;
    if secs == u64::MAX {
        return "forever".into();
    }
    if secs >= DAY {
        let d = secs as f64 / DAY as f64;
        if (d - d.round()).abs() < 0.01 {
            format!("{}d", d.round() as u64)
        } else {
            format!("{d:.1}d")
        }
    } else if secs >= HOUR {
        let h = secs as f64 / HOUR as f64;
        if (h - h.round()).abs() < 0.01 {
            format!("{}h", h.round() as u64)
        } else {
            format!("{h:.1}h")
        }
    } else if secs >= MINUTE {
        format!("{}m", secs / MINUTE)
    } else {
        format!("{secs}s")
    }
}

/// Format a fraction as a percentage with one decimal.
pub fn pct(fraction: f64) -> String {
    format!("{:.1}%", fraction * 100.0)
}

/// A paper-vs-measured comparison line for EXPERIMENTS.md-style output.
pub fn compare_line(metric: &str, paper: &str, measured: &str) -> String {
    format!("{metric:<46} paper: {paper:<12} measured: {measured}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = TextTable::new(&["Domain", "Days"]);
        t.row(&["yahoo.sim".into(), "63".into()]);
        t.row(&["x.sim".into(), "5".into()]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("Domain"));
        assert!(lines[2].starts_with("yahoo.sim"));
        // Columns aligned: "Days"/"63" start at the same offset.
        let col = lines[0].find("Days").unwrap();
        assert_eq!(lines[2].find("63").unwrap(), col);
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn row_width_checked() {
        let mut t = TextTable::new(&["a", "b"]);
        t.row(&["only-one".into()]);
    }

    #[test]
    fn durations_match_paper_units() {
        assert_eq!(fmt_duration(0), "0s");
        assert_eq!(fmt_duration(59), "59s");
        assert_eq!(fmt_duration(300), "5m");
        assert_eq!(fmt_duration(3_600), "1h");
        assert_eq!(fmt_duration(18 * 3_600), "18h");
        assert_eq!(fmt_duration(86_400), "1d");
        assert_eq!(fmt_duration(63 * 86_400), "63d");
        assert_eq!(fmt_duration(u64::MAX), "forever");
        assert_eq!(fmt_duration(129_600), "1.5d");
    }

    #[test]
    fn pct_and_compare() {
        assert_eq!(pct(0.3811), "38.1%");
        assert_eq!(pct(0.0), "0.0%");
        assert_eq!(pct(1.0), "100.0%");
        let line = compare_line("domains >24h", "38%", "37.2%");
        assert!(line.contains("paper: 38%"));
        assert!(line.contains("measured: 37.2%"));
    }
}
