//! Result tables: the rows/series each figure of the paper reports,
//! emitted as aligned text, Markdown, and CSV.

use std::fmt::Write as _;

/// What a column holds. Declared where the column is defined, so the
/// work file ([`Table::work`]) never guesses from the header text.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// A parameter that names the row (P, |T|, k, ...).
    Key,
    /// Counted work, equal on every run and host for the seeded data:
    /// candidates, integrations, fractions decided, ...
    Work,
    /// Wall-clock time, throughput or anything else that depends on the
    /// run or the host.
    Measured,
}

/// One column: its header and what it holds.
#[derive(Debug, Clone, Copy)]
pub struct Column {
    /// Header text.
    pub name: &'static str,
    /// What the column holds.
    pub kind: Kind,
}

/// A [`Kind::Key`] column.
pub const fn key(name: &'static str) -> Column {
    Column {
        name,
        kind: Kind::Key,
    }
}

/// A [`Kind::Work`] column.
pub const fn work(name: &'static str) -> Column {
    Column {
        name,
        kind: Kind::Work,
    }
}

/// A [`Kind::Measured`] column.
pub const fn measured(name: &'static str) -> Column {
    Column {
        name,
        kind: Kind::Measured,
    }
}

/// A simple result table.
#[derive(Debug, Clone)]
pub struct Table {
    /// Experiment id, e.g. "Fig. 10".
    pub id: String,
    /// Human title.
    pub title: String,
    /// Columns, in order.
    pub columns: Vec<Column>,
    /// Row data (stringified).
    pub rows: Vec<Vec<String>>,
    /// Free-text notes (workload, parameters, expected shape).
    pub notes: Vec<String>,
}

impl Table {
    /// Create an empty table.
    pub fn new(id: &str, title: &str, columns: &[Column]) -> Self {
        Self {
            id: id.to_string(),
            title: title.to_string(),
            columns: columns.to_vec(),
            rows: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Append a row (must match the column count).
    pub fn push_row(&mut self, row: Vec<String>) {
        assert_eq!(
            row.len(),
            self.columns.len(),
            "row width mismatch in table {}",
            self.id
        );
        self.rows.push(row);
    }

    /// Append a note line.
    pub fn note(&mut self, s: impl Into<String>) {
        self.notes.push(s.into());
    }

    /// The work this table records: its key and work columns, without
    /// the measured ones and without notes. Equal on every run and host.
    pub fn work(&self) -> Table {
        let keep: Vec<usize> = (0..self.columns.len())
            .filter(|&i| self.columns[i].kind != Kind::Measured)
            .collect();
        Table {
            id: self.id.clone(),
            title: self.title.clone(),
            columns: keep.iter().map(|&i| self.columns[i]).collect(),
            rows: self
                .rows
                .iter()
                .map(|row| keep.iter().map(|&i| row[i].clone()).collect())
                .collect(),
            notes: Vec::new(),
        }
    }

    /// The column headers, in order.
    pub fn headers(&self) -> Vec<&'static str> {
        self.columns.iter().map(|c| c.name).collect()
    }

    /// Render as GitHub-flavored Markdown.
    pub fn to_markdown(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "### {} — {}\n", self.id, self.title);
        let _ = writeln!(out, "| {} |", self.headers().join(" | "));
        let _ = writeln!(
            out,
            "|{}|",
            self.columns
                .iter()
                .map(|_| "---")
                .collect::<Vec<_>>()
                .join("|")
        );
        for row in &self.rows {
            let _ = writeln!(out, "| {} |", row.join(" | "));
        }
        if !self.notes.is_empty() {
            let _ = writeln!(out);
            for n in &self.notes {
                let _ = writeln!(out, "> {n}");
            }
        }
        out
    }

    /// Render as CSV (headers + rows; notes as `#` comments).
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        for n in &self.notes {
            let _ = writeln!(out, "# {n}");
        }
        let _ = writeln!(out, "{}", self.headers().join(","));
        for row in &self.rows {
            let _ = writeln!(out, "{}", row.join(","));
        }
        out
    }

    /// Render as aligned plain text for the terminal.
    pub fn to_text(&self) -> String {
        let mut widths: Vec<usize> = self.columns.iter().map(|c| c.name.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "== {} — {} ==", self.id, self.title);
        let header: Vec<String> = self
            .columns
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:>width$}", c.name, width = widths[i]))
            .collect();
        let _ = writeln!(out, "{}", header.join("  "));
        for row in &self.rows {
            let cells: Vec<String> = row
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:>width$}", c, width = widths[i]))
                .collect();
            let _ = writeln!(out, "{}", cells.join("  "));
        }
        for n in &self.notes {
            let _ = writeln!(out, "  note: {n}");
        }
        out
    }
}

/// Format a duration in milliseconds with sensible precision.
pub fn ms(d: std::time::Duration) -> String {
    let v = d.as_secs_f64() * 1e3;
    if v >= 100.0 {
        format!("{v:.0}")
    } else if v >= 1.0 {
        format!("{v:.2}")
    } else {
        format!("{v:.4}")
    }
}

/// Format a ratio/fraction.
pub fn frac(x: f64) -> String {
    format!("{x:.3}")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Table {
        let mut t = Table::new("Fig. X", "demo", &[key("a"), work("b")]);
        t.push_row(vec!["1".into(), "2".into()]);
        t.push_row(vec!["30".into(), "4".into()]);
        t.note("a note");
        t
    }

    #[test]
    fn markdown_has_header_separator_and_rows() {
        let md = sample().to_markdown();
        assert!(md.contains("| a | b |"));
        assert!(md.contains("|---|---|"));
        assert!(md.contains("| 30 | 4 |"));
        assert!(md.contains("> a note"));
    }

    #[test]
    fn csv_roundtrip_shape() {
        let csv = sample().to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "# a note");
        assert_eq!(lines[1], "a,b");
        assert_eq!(lines.len(), 4);
    }

    #[test]
    fn work_keeps_key_and_work_columns_only() {
        let mut t = Table::new(
            "Fig. Y",
            "demo",
            &[measured("q/s"), key("P"), work("integ."), measured("ms")],
        );
        t.push_row(vec![
            "900".into(),
            "0.1".into(),
            "3.5".into(),
            "1.10".into(),
        ]);
        t.push_row(vec![
            "800".into(),
            "0.2".into(),
            "2.0".into(),
            "1.30".into(),
        ]);
        t.note("2 thread(s)");
        let w = t.work();
        assert_eq!((w.id.as_str(), w.title.as_str()), ("Fig. Y", "demo"));
        assert_eq!(w.headers(), ["P", "integ."]);
        assert_eq!(w.columns[0].kind, Kind::Key);
        assert_eq!(w.rows, [["0.1", "3.5"], ["0.2", "2.0"]]);
        assert!(w.notes.is_empty());
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn row_width_checked() {
        let mut t = Table::new("t", "t", &[key("a"), work("b")]);
        t.push_row(vec!["1".into()]);
    }

    #[test]
    fn duration_formatting() {
        assert_eq!(ms(std::time::Duration::from_millis(250)), "250");
        assert_eq!(ms(std::time::Duration::from_micros(1500)), "1.50");
        assert_eq!(ms(std::time::Duration::from_micros(120)), "0.1200");
    }
}
