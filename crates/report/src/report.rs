//! The output type every experiment produces.

use hpc_metrics::output::{self, CsvTable};
use serde::value::Value;
use std::borrow::Borrow;
use std::path::PathBuf;

/// Looks up a field of a JSON object value.
pub(crate) fn json_field<'a>(value: &'a Value, key: &str) -> Result<&'a Value, String> {
    match value {
        Value::Object(entries) => entries
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
            .ok_or_else(|| format!("missing field '{key}'")),
        _ => Err(format!("expected an object carrying field '{key}'")),
    }
}

/// Looks up an optional field of a JSON object value: `None` when the key
/// is absent (or the value is not an object), so schema extensions stay
/// backward compatible with documents written before the field existed.
pub(crate) fn json_opt_field<'a>(value: &'a Value, key: &str) -> Option<&'a Value> {
    match value {
        Value::Object(entries) => entries.iter().find(|(k, _)| k == key).map(|(_, v)| v),
        _ => None,
    }
}

/// Extracts a JSON string value.
pub(crate) fn json_str(value: &Value) -> Result<&str, String> {
    match value {
        Value::Str(s) => Ok(s),
        other => Err(format!("expected a string, got {other:?}")),
    }
}

/// Extracts a non-negative JSON integer value.
pub(crate) fn json_u64(value: &Value) -> Result<u64, String> {
    match value {
        Value::U64(n) => Ok(*n),
        other => Err(format!("expected a non-negative integer, got {other:?}")),
    }
}

/// Extracts a JSON array value.
pub(crate) fn json_array(value: &Value) -> Result<&[Value], String> {
    match value {
        Value::Array(items) => Ok(items),
        other => Err(format!("expected an array, got {other:?}")),
    }
}

/// The result of regenerating one table or figure.
#[derive(Debug, Clone)]
pub struct ExperimentReport {
    /// Stable identifier ("table2", "fig4", …).
    pub id: String,
    /// Human-readable title mirroring the paper's caption.
    pub title: String,
    /// Console rendering (the rows/series the paper reports).
    pub text: String,
    /// Named CSV tables with the underlying data.
    pub tables: Vec<(String, CsvTable)>,
}

impl ExperimentReport {
    /// Creates a report with no CSV payload yet.
    pub fn new(id: impl Into<String>, title: impl Into<String>) -> Self {
        ExperimentReport {
            id: id.into(),
            title: title.into(),
            text: String::new(),
            tables: Vec::new(),
        }
    }

    /// Appends a line to the console rendering.
    pub fn push_line(&mut self, line: impl AsRef<str>) {
        self.text.push_str(line.as_ref());
        self.text.push('\n');
    }

    /// Attaches a CSV table.
    pub fn push_table(&mut self, name: impl Into<String>, table: CsvTable) {
        self.tables.push((name.into(), table));
    }

    /// Writes every attached CSV under `target/experiments/<id>_<name>.csv`
    /// and returns the written paths.
    pub fn write_csv_files(&self) -> std::io::Result<Vec<PathBuf>> {
        self.write_csv_files_to(&output::experiments_dir())
    }

    /// Writes every attached CSV as `<dir>/<id>_<name>.csv` (creating `dir`
    /// as needed) and returns the written paths.
    pub fn write_csv_files_to(&self, dir: &std::path::Path) -> std::io::Result<Vec<PathBuf>> {
        let mut paths = Vec::new();
        for (name, table) in &self.tables {
            let path = dir.join(format!("{}_{}.csv", self.id, name));
            table.write_to(&path)?;
            paths.push(path);
        }
        Ok(paths)
    }

    /// The full console rendering including the title banner.
    pub fn render(&self) -> String {
        format!("=== {} — {} ===\n{}", self.id, self.title, self.text)
    }

    /// The report as a JSON value tree. The schema is stable:
    ///
    /// ```json
    /// {
    ///   "id": "fig4",
    ///   "title": "…",
    ///   "text": "…console rendering…",
    ///   "tables": [
    ///     { "name": "bandwidth", "header": ["device", …],
    ///       "rows": [["NVIDIA H100 NVL - 94 GB", …], …] }
    ///   ]
    /// }
    /// ```
    ///
    /// Table cells stay strings — exactly the bytes the CSV rendering carries
    /// — so the JSON output is byte-identical wherever the CSV output is.
    pub fn to_json_value(&self) -> Value {
        let tables = self
            .tables
            .iter()
            .map(|(name, table)| {
                let header = table.header.iter().cloned().map(Value::Str).collect();
                let rows = table
                    .rows
                    .iter()
                    .map(|row| Value::Array(row.iter().cloned().map(Value::Str).collect()))
                    .collect();
                Value::Object(vec![
                    ("name".to_string(), Value::Str(name.clone())),
                    ("header".to_string(), Value::Array(header)),
                    ("rows".to_string(), Value::Array(rows)),
                ])
            })
            .collect();
        Value::Object(vec![
            ("id".to_string(), Value::Str(self.id.clone())),
            ("title".to_string(), Value::Str(self.title.clone())),
            ("text".to_string(), Value::Str(self.text.clone())),
            ("tables".to_string(), Value::Array(tables)),
        ])
    }

    /// Parses a report back from its [`ExperimentReport::to_json_value`]
    /// schema.
    ///
    /// The schema carries only strings, so the round trip is lossless:
    /// re-serialising the parsed report reproduces the original JSON byte
    /// for byte. The shard merge lane (`crate::shard`) relies on this to
    /// reassemble worker output into single-process-identical reports.
    pub fn from_json_value(value: &Value) -> Result<ExperimentReport, String> {
        let cell_strings = |value: &Value| -> Result<Vec<String>, String> {
            json_array(value)?
                .iter()
                .map(|cell| Ok(json_str(cell)?.to_string()))
                .collect()
        };
        let tables = json_array(json_field(value, "tables")?)?
            .iter()
            .map(|table| {
                let name = json_str(json_field(table, "name")?)?.to_string();
                let header = cell_strings(json_field(table, "header")?)?;
                let rows = json_array(json_field(table, "rows")?)?
                    .iter()
                    .map(cell_strings)
                    .collect::<Result<Vec<_>, _>>()?;
                Ok((name, CsvTable { header, rows }))
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(ExperimentReport {
            id: json_str(json_field(value, "id")?)?.to_string(),
            title: json_str(json_field(value, "title")?)?.to_string(),
            text: json_str(json_field(value, "text")?)?.to_string(),
            tables,
        })
    }

    /// The report as pretty-printed JSON text (with a trailing newline, so
    /// the emitted files and stdout stream are valid line-terminated text).
    pub fn to_json_pretty(&self) -> String {
        let mut json =
            serde_json::to_string_pretty(&self.to_json_value()).expect("report serialises");
        json.push('\n');
        json
    }

    /// Writes the whole report as `<dir>/<id>.json` (creating `dir` as
    /// needed) and returns the written path.
    pub fn write_json_file_to(&self, dir: &std::path::Path) -> std::io::Result<PathBuf> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(format!("{}.json", self.id));
        std::fs::write(&path, self.to_json_pretty())?;
        Ok(path)
    }

    /// Renders a set of reports as one pretty-printed JSON array (the
    /// `run --all --format json` stdout payload).
    pub fn render_json_array<R: Borrow<ExperimentReport>>(reports: &[R]) -> String {
        let array = Value::Array(reports.iter().map(|r| r.borrow().to_json_value()).collect());
        let mut json = serde_json::to_string_pretty(&array).expect("reports serialise");
        json.push('\n');
        json
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_accumulates_lines_and_tables() {
        let mut r = ExperimentReport::new("table9", "An example");
        r.push_line("row 1");
        r.push_line("row 2");
        let mut csv = CsvTable::new(["a"]);
        csv.push_row(["1"]);
        r.push_table("data", csv);
        assert_eq!(r.tables.len(), 1);
        let rendered = r.render();
        assert!(rendered.contains("table9"));
        assert!(rendered.contains("row 1\nrow 2\n"));
    }

    #[test]
    fn json_rendering_carries_the_same_cells_as_the_csv() {
        let mut r = ExperimentReport::new("table9", "An example");
        r.push_line("row 1");
        let mut csv = CsvTable::new(["a", "b"]);
        csv.push_row(["1", "x,y"]);
        r.push_table("data", csv);
        let json = r.to_json_pretty();
        assert!(json.ends_with('\n'));
        assert!(json.contains("\"id\": \"table9\""));
        assert!(json.contains("\"name\": \"data\""));
        // Cells are carried verbatim (no CSV quoting in the JSON lane).
        assert!(json.contains("\"x,y\""));
        let array = ExperimentReport::render_json_array(&[r.clone(), r]);
        assert!(array.starts_with('['));
        assert_eq!(array.matches("\"id\": \"table9\"").count(), 2);
    }

    #[test]
    fn json_value_round_trip_is_byte_lossless() {
        let mut r = ExperimentReport::new("fig9", "Example — with \"quotes\", commas\nand lines");
        r.push_line("line 1");
        r.push_line("line 2, with commas");
        let mut csv = CsvTable::new(["a", "b"]);
        csv.push_row(["1", "x,y"]);
        csv.push_row(["2", "say \"hi\""]);
        r.push_table("data", csv);
        let parsed = ExperimentReport::from_json_value(&r.to_json_value()).unwrap();
        assert_eq!(parsed.id, r.id);
        assert_eq!(parsed.title, r.title);
        assert_eq!(parsed.text, r.text);
        assert_eq!(parsed.tables, r.tables);
        assert_eq!(parsed.to_json_pretty(), r.to_json_pretty());
        // And through the JSON text itself, the path shard merging takes.
        let reparsed: Value = serde_json::from_str(&r.to_json_pretty()).unwrap();
        let back = ExperimentReport::from_json_value(&reparsed).unwrap();
        assert_eq!(back.to_json_pretty(), r.to_json_pretty());
        // Malformed trees are rejected with a named field.
        let err = ExperimentReport::from_json_value(&Value::Object(vec![])).unwrap_err();
        assert!(err.contains("tables"), "{err}");
    }

    #[test]
    fn json_files_are_written_under_the_report_id() {
        let dir = std::env::temp_dir().join(format!("mojo-hpc-json-test-{}", std::process::id()));
        let mut r = ExperimentReport::new("unit-test-json", "tmp");
        let mut csv = CsvTable::new(["x"]);
        csv.push_row(["1"]);
        r.push_table("points", csv);
        let path = r.write_json_file_to(&dir).unwrap();
        assert_eq!(path.file_name().unwrap(), "unit-test-json.json");
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text, r.to_json_pretty());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn csv_files_are_written() {
        let mut r = ExperimentReport::new("unit-test-report", "tmp");
        let mut csv = CsvTable::new(["x", "y"]);
        csv.push_row(["1", "2"]);
        r.push_table("points", csv);
        let paths = r.write_csv_files().unwrap();
        assert_eq!(paths.len(), 1);
        assert!(paths[0].exists());
        std::fs::remove_file(&paths[0]).ok();
    }
}
