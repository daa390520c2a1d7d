//! Plain-text table formatting for the benchmark harness.
//!
//! The harness prints the same rows and series the paper reports; the
//! formatting here keeps columns aligned so the output can be compared to
//! the paper's tables at a glance (and diffed between runs).

use psmd_serve::json::{obj, Json};

/// A simple column-aligned text table.
#[derive(Debug, Clone, Default)]
pub struct TextTable {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Creates a table with the given column headers.
    pub fn new<S: Into<String>>(headers: Vec<S>) -> Self {
        Self {
            headers: headers.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (must have as many cells as there are headers).
    pub fn add_row<S: Into<String>>(&mut self, row: Vec<S>) {
        let row: Vec<String> = row.into_iter().map(Into::into).collect();
        assert_eq!(row.len(), self.headers.len(), "row width mismatch");
        self.rows.push(row);
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders the table as a string.
    pub fn render(&self) -> String {
        let cols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
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
                // Right-align numeric-looking cells, left-align the rest.
                let numeric = cell
                    .chars()
                    .all(|c| c.is_ascii_digit() || ".,-+e%".contains(c))
                    && !cell.is_empty();
                if numeric {
                    line.push_str(&format!("{cell:>width$}", width = widths[i]));
                } else {
                    line.push_str(&format!("{cell:<width$}", width = widths[i]));
                }
            }
            line
        };
        out.push_str(&fmt_row(&self.headers, &widths));
        out.push('\n');
        let total: usize = widths.iter().sum::<usize>() + 2 * (cols - 1);
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }
}

impl std::fmt::Display for TextTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.render())
    }
}

/// Formats a millisecond value with two decimals.
pub fn ms(value: f64) -> String {
    format!("{value:.2}")
}

/// Formats a ratio or percentage with two decimals.
pub fn pct(value: f64) -> String {
    format!("{value:.2}")
}

/// Base-2 logarithm used for the paper's Figure 5 and Figure 6 axes.
pub fn log2(value: f64) -> String {
    if value <= 0.0 {
        "-inf".to_string()
    } else {
        format!("{:.2}", value.log2())
    }
}

/// Prints a section banner.
pub fn banner(title: &str) -> String {
    format!("\n=== {title} ===\n")
}

/// A machine-readable benchmark report: one named command plus a list of
/// uniform rows, rendered as a single JSON object with the wire protocol's
/// codec ([`Json`]).  Consumed by the CI perf-snapshot job (`BENCH_*.json`
/// artifacts).
#[derive(Debug, Clone, Default)]
pub struct JsonReport {
    command: String,
    rows: Vec<Json>,
}

impl JsonReport {
    /// Creates an empty report for the given harness command.
    pub fn new(command: &str) -> Self {
        Self {
            command: command.to_string(),
            rows: Vec::new(),
        }
    }

    /// Appends one row of key/value pairs.
    pub fn add_row(&mut self, fields: Vec<(&str, Json)>) {
        self.rows.push(obj(fields));
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when the report has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders the report as one JSON object
    /// (`{"command": ..., "rows": [...]}`; non-finite numbers become
    /// `null`).
    pub fn render(&self) -> String {
        obj(vec![
            ("command", Json::Str(self.command.clone())),
            ("rows", Json::Arr(self.rows.clone())),
        ])
        .to_string()
    }
}

impl std::fmt::Display for JsonReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "{}", self.render())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned_columns() {
        let mut t = TextTable::new(vec!["name", "ms"]);
        t.add_row(vec!["convolution".to_string(), ms(1060.03)]);
        t.add_row(vec!["addition".to_string(), ms(1.37)]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("name"));
        assert!(lines[2].contains("1060.03"));
        assert!(lines[3].contains("1.37"));
        // Columns align: both data lines have the same length.
        assert_eq!(lines[2].len(), lines[3].len());
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn wrong_row_width_is_rejected() {
        let mut t = TextTable::new(vec!["a", "b"]);
        t.add_row(vec!["only one"]);
    }

    #[test]
    fn json_report_renders_valid_rows() {
        let mut r = JsonReport::new("system");
        r.add_row(vec![
            ("poly", Json::Str("p1".to_string())),
            ("fused_ms", Json::Num(1.25)),
            ("launches", Json::Num(9.0)),
        ]);
        r.add_row(vec![("nan", Json::Num(f64::NAN))]);
        let s = r.render();
        assert_eq!(
            s,
            "{\"command\":\"system\",\"rows\":[\
             {\"poly\":\"p1\",\"fused_ms\":1.25,\"launches\":9},\
             {\"nan\":null}]}"
        );
        assert_eq!(r.len(), 2);
        assert!(!r.is_empty());
    }

    #[test]
    fn json_strings_are_escaped() {
        let mut r = JsonReport::new("a\"b\\c\nd");
        r.add_row(vec![("k", Json::Str("\u{1}".to_string()))]);
        assert_eq!(
            r.render(),
            "{\"command\":\"a\\\"b\\\\c\\nd\",\"rows\":[{\"k\":\"\\u0001\"}]}"
        );
    }

    #[test]
    fn helpers_format_values() {
        assert_eq!(ms(12.345), "12.35");
        assert_eq!(pct(99.999), "100.00");
        assert_eq!(log2(8.0), "3.00");
        assert_eq!(log2(0.0), "-inf");
        assert!(banner("Table 3").contains("Table 3"));
    }
}
