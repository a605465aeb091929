//! The output type every experiment produces.

use hpc_metrics::output::{self, CsvTable};
use serde::{Deserialize, Serialize};
use std::borrow::Borrow;
use std::path::PathBuf;

/// The result of regenerating one table or figure.
///
/// Its JSON is derived, so the field names are the wire schema
/// (DESIGN.md §9):
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
/// The schema carries only strings — table cells are exactly the bytes the
/// CSV rendering carries — so parsing and re-serialising a report
/// reproduces its JSON byte for byte. The shard merge lane
/// (`crate::shard`) relies on this.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ExperimentReport {
    /// Stable identifier ("table2", "fig4", …).
    pub id: String,
    /// Human-readable title mirroring the paper's caption.
    pub title: String,
    /// Console rendering (the rows/series the paper reports).
    pub text: String,
    /// Named CSV tables with the underlying data.
    pub tables: Vec<CsvTable>,
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

    /// Attaches a CSV table under `name`.
    pub fn push_table(&mut self, name: impl Into<String>, table: CsvTable) {
        self.tables.push(CsvTable {
            name: name.into(),
            ..table
        });
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
        for table in &self.tables {
            let path = dir.join(format!("{}_{}.csv", self.id, table.name));
            table.write_to(&path)?;
            paths.push(path);
        }
        Ok(paths)
    }

    /// The full console rendering including the title banner.
    pub fn render(&self) -> String {
        format!("=== {} — {} ===\n{}", self.id, self.title, self.text)
    }

    /// The report as pretty-printed JSON text (with a trailing newline, so
    /// the emitted files and stdout stream are valid line-terminated text).
    pub fn to_json_pretty(&self) -> String {
        serde_json::to_string_pretty(self).expect("report serialises") + "\n"
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
        let reports: Vec<&ExperimentReport> = reports.iter().map(Borrow::borrow).collect();
        serde_json::to_string_pretty(&reports).expect("reports serialise") + "\n"
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
        // Through the JSON text itself, the path shard merging takes.
        let parsed: ExperimentReport = serde_json::from_str(&r.to_json_pretty()).unwrap();
        assert_eq!(parsed.id, r.id);
        assert_eq!(parsed.title, r.title);
        assert_eq!(parsed.text, r.text);
        assert_eq!(parsed.tables, r.tables);
        assert_eq!(parsed.to_json_pretty(), r.to_json_pretty());
        // Malformed documents are rejected with a named field.
        let err = serde_json::from_str::<ExperimentReport>(r#"{"id":"x","title":"t","text":""}"#)
            .unwrap_err()
            .to_string();
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
