//! Plain-text table formatting for experiment output, the one ordered JSON
//! writer every `BENCH_*.json` snapshot goes through, and the renderers that
//! turn a [`TelemetrySnapshot`] into the per-op-class tail table and the
//! `"telemetry"` / `"top_pauses"` values those snapshots embed.

use lidx_storage::TelemetrySnapshot;

/// A simple fixed-width text table.
#[derive(Debug, Default)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new<S: Into<String>>(header: impl IntoIterator<Item = S>) -> Self {
        Table { header: header.into_iter().map(Into::into).collect(), rows: Vec::new() }
    }

    /// Appends one row (cells are stringified by the caller).
    pub fn row<S: Into<String>>(&mut self, cells: impl IntoIterator<Item = S>) {
        self.rows.push(cells.into_iter().map(Into::into).collect());
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders the table.
    pub fn render(&self) -> String {
        let cols = self.header.len().max(self.rows.iter().map(Vec::len).max().unwrap_or(0));
        let mut widths = vec![0usize; cols];
        for (i, h) in self.header.iter().enumerate() {
            widths[i] = widths[i].max(h.len());
        }
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::new();
            for (i, w) in widths.iter().enumerate() {
                let cell = cells.get(i).map(String::as_str).unwrap_or("");
                if i > 0 {
                    line.push_str("  ");
                }
                line.push_str(&format!("{cell:>w$}", w = w));
            }
            line
        };
        out.push_str(&fmt_row(&self.header, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (cols.saturating_sub(1))));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }

    /// Prints the table to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
    }
}

/// Formats a float with two decimals.
pub fn f2(v: f64) -> String {
    format!("{v:.2}")
}

/// Formats a throughput (ops/s) compactly.
pub fn ops(v: f64) -> String {
    if v >= 1e6 {
        format!("{:.2}M", v / 1e6)
    } else if v >= 1e3 {
        format!("{:.1}k", v / 1e3)
    } else {
        format!("{v:.1}")
    }
}

/// Formats nanoseconds as milliseconds with two decimals.
pub fn ms(ns: f64) -> String {
    format!("{:.2}", ns / 1e6)
}

/// Formats nanoseconds as microseconds with one decimal.
pub fn us(ns: f64) -> String {
    format!("{:.1}", ns / 1e3)
}

/// Renders the non-empty classes of a telemetry snapshot as a per-op-class
/// tail-latency table (count, mean and the p50/p95/p99/p999/max ladder, in
/// microseconds).
pub fn tail_table(snapshot: &TelemetrySnapshot) -> Table {
    let mut t = Table::new([
        "op class", "count", "mean us", "p50 us", "p95 us", "p99 us", "p999 us", "max us",
    ]);
    for c in snapshot.non_empty() {
        let s = c.summary;
        t.row([
            c.class.label().to_string(),
            s.count.to_string(),
            us(s.mean_ns),
            us(s.p50_ns as f64),
            us(s.p95_ns as f64),
            us(s.p99_ns as f64),
            us(s.p999_ns as f64),
            us(s.max_ns as f64),
        ]);
    }
    t
}

/// One value of a `BENCH_*.json` snapshot. Keys keep insertion order and
/// numbers carry the precision their field was given, so a snapshot's text
/// is a pure function of its values (no serde; the vendored stand-in is
/// marker-only).
#[derive(Debug, Clone)]
pub enum Json {
    /// A pre-formatted literal: an integer, a fixed-precision float, a bool.
    Lit(String),
    /// A string (escaped on output).
    Str(String),
    /// An object rendered one member per line.
    Obj(Vec<(&'static str, Json)>),
    /// An object rendered on one line: `{ "a": 1, "b": 2 }`.
    Row(Vec<(&'static str, Json)>),
    /// An array rendered one element per line.
    Arr(Vec<Json>),
}

impl Json {
    /// An integer (or bool) literal.
    pub fn lit(v: impl std::fmt::Display) -> Json {
        Json::Lit(v.to_string())
    }

    /// A float with exactly `decimals` fractional digits.
    pub fn float(v: f64, decimals: usize) -> Json {
        Json::Lit(format!("{v:.decimals$}"))
    }

    /// A string value.
    pub fn str(v: impl Into<String>) -> Json {
        Json::Str(v.into())
    }

    /// Renders the value as a document: two-space indentation, trailing
    /// newline.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(0, &mut out);
        out.push('\n');
        out
    }

    /// Renders the value and writes it to `path`.
    pub fn write_to(&self, path: &std::path::Path) -> std::io::Result<()> {
        std::fs::write(path, self.render())
    }

    fn render_into(&self, depth: usize, out: &mut String) {
        match self {
            Json::Lit(v) => out.push_str(v),
            Json::Str(v) => {
                out.push('"');
                for c in v.chars() {
                    match c {
                        '"' | '\\' => out.extend(['\\', c]),
                        c if c.is_control() => out.push_str(&format!("\\u{:04x}", c as u32)),
                        c => out.push(c),
                    }
                }
                out.push('"');
            }
            Json::Obj(members) => {
                render_lines(out, depth, ['{', '}'], members.iter().map(|(k, v)| (Some(*k), v)))
            }
            Json::Arr(items) => {
                render_lines(out, depth, ['[', ']'], items.iter().map(|v| (None, v)))
            }
            Json::Row(members) => {
                out.push_str("{ ");
                for (i, (key, value)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    out.push_str(&format!("\"{key}\": "));
                    value.render_into(depth, out);
                }
                out.push_str(" }");
            }
        }
    }
}

/// Renders a multi-line container: one (optionally keyed) value per line,
/// indented one level below `depth`; an empty one collapses to `{}` / `[]`.
fn render_lines<'a>(
    out: &mut String,
    depth: usize,
    [open, close]: [char; 2],
    values: impl ExactSizeIterator<Item = (Option<&'a str>, &'a Json)>,
) {
    let count = values.len();
    out.push(open);
    for (i, (key, value)) in values.enumerate() {
        out.push_str(if i == 0 { "\n" } else { ",\n" });
        out.extend(std::iter::repeat_n(' ', 2 * (depth + 1)));
        if let Some(key) = key {
            out.push_str(&format!("\"{key}\": "));
        }
        value.render_into(depth + 1, out);
    }
    if count > 0 {
        out.push('\n');
        out.extend(std::iter::repeat_n(' ', 2 * depth));
    }
    out.push(close);
}

/// The `"telemetry"` value of a snapshot entry: each non-empty op class
/// mapped to its tail summary, e.g.
/// `{ "lookup": { "count": 9, ..., "max_ns": 120 } }`.
pub fn telemetry_json(snapshot: &TelemetrySnapshot) -> Json {
    Json::Obj(
        snapshot
            .non_empty()
            .map(|c| {
                let s = c.summary;
                let row = Json::Row(vec![
                    ("count", Json::lit(s.count)),
                    ("counter", Json::lit(c.counter)),
                    ("mean_ns", Json::float(s.mean_ns, 1)),
                    ("p50_ns", Json::lit(s.p50_ns)),
                    ("p95_ns", Json::lit(s.p95_ns)),
                    ("p99_ns", Json::lit(s.p99_ns)),
                    ("p999_ns", Json::lit(s.p999_ns)),
                    ("max_ns", Json::lit(s.max_ns)),
                ]);
                (c.class.label(), row)
            })
            .collect(),
    )
}

/// The `"top_pauses"` value of a snapshot entry: the worst recorded pauses
/// (pause classes only, sorted by maximum observed duration).
pub fn top_pauses_json(snapshot: &TelemetrySnapshot, limit: usize) -> Json {
    Json::Arr(
        snapshot
            .top_pauses(limit)
            .iter()
            .map(|c| {
                Json::Row(vec![
                    ("class", Json::str(c.class.label())),
                    ("count", Json::lit(c.summary.count)),
                    ("p99_ns", Json::lit(c.summary.p99_ns)),
                    ("max_ns", Json::lit(c.summary.max_ns)),
                ])
            })
            .collect(),
    )
}

/// Panics unless every non-empty class of `snapshot` reports an ordered
/// percentile ladder (p50 <= p95 <= p99 <= p999 <= max) — the smoke gate the
/// CI `--quick` snapshot runs assert on every refreshed bench JSON.
pub fn assert_percentiles_ordered(snapshot: &TelemetrySnapshot, context: &str) {
    for c in snapshot.non_empty() {
        let s = c.summary;
        assert!(
            s.p50_ns <= s.p95_ns
                && s.p95_ns <= s.p99_ns
                && s.p99_ns <= s.p999_ns
                && s.p999_ns <= s.max_ns,
            "{context}: class {} percentiles out of order: {s:?}",
            c.class.label(),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned_columns() {
        let mut t = Table::new(["index", "throughput"]);
        t.row(["btree", "120.0"]);
        t.row(["alex", "7.5"]);
        let s = t.render();
        assert!(s.contains("index"));
        assert!(s.lines().count() == 4);
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
        // Columns are right-aligned to the same width.
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines[2].len(), lines[3].len());
    }

    #[test]
    fn json_keeps_order_precision_and_the_snapshot_layout() {
        let doc = Json::Obj(vec![
            ("schema", Json::str("v1")),
            ("buffer", Json::Row(vec![("capacity", Json::lit(8)), ("drain", Json::lit(2))])),
            ("empty", Json::Obj(Vec::new())),
            ("none", Json::Arr(Vec::new())),
            (
                "runs",
                Json::Arr(vec![Json::Obj(vec![
                    ("index", Json::str("a\"b")),
                    ("rate", Json::float(0.5, 4)),
                    ("ok", Json::lit(true)),
                ])]),
            ),
        ]);
        let expect = r#"{
  "schema": "v1",
  "buffer": { "capacity": 8, "drain": 2 },
  "empty": {},
  "none": [],
  "runs": [
    {
      "index": "a\"b",
      "rate": 0.5000,
      "ok": true
    }
  ]
}
"#;
        assert_eq!(doc.render(), expect);
    }

    #[test]
    fn number_formatting() {
        assert_eq!(f2(1.234), "1.23");
        assert_eq!(ops(2_500_000.0), "2.50M");
        assert_eq!(ops(12_345.0), "12.3k");
        assert_eq!(ops(45.0), "45.0");
        assert_eq!(ms(2_500_000.0), "2.50");
    }
}
