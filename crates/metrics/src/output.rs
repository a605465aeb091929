//! Experiment output: CSV tables and their default directory.
//!
//! The paper's artifact produces CSV files that its Python plotting scripts
//! consume; this module renders equivalent CSVs, which the report crate
//! writes under `target/experiments/` next to the human-readable console
//! output.

use serde::{Deserialize, Serialize};
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};

/// A named in-memory CSV table: a header row plus data rows. Its derived
/// JSON (`{name, header, rows}`) is the table object of the report schema,
/// so the field names are the wire schema; cells stay the exact strings
/// the CSV rendering carries.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct CsvTable {
    /// Table name, set when a report attaches the table (the `<name>` of
    /// its `<id>_<name>.csv` file).
    pub name: String,
    /// Column names.
    pub header: Vec<String>,
    /// Data rows; each row must have `header.len()` cells.
    pub rows: Vec<Vec<String>>,
}

impl CsvTable {
    /// Creates a table with the given column names.
    pub fn new<S: Into<String>>(header: impl IntoIterator<Item = S>) -> Self {
        CsvTable {
            name: String::new(),
            header: header.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    /// Panics if the row length does not match the header.
    pub fn push_row<S: Into<String>>(&mut self, row: impl IntoIterator<Item = S>) {
        let row: Vec<String> = row.into_iter().map(Into::into).collect();
        assert_eq!(
            row.len(),
            self.header.len(),
            "row has {} cells, header has {}",
            row.len(),
            self.header.len()
        );
        self.rows.push(row);
    }

    /// Renders the table as CSV text (fields containing commas or quotes are
    /// quoted).
    pub fn to_csv_string(&self) -> String {
        let escape = |cell: &str| {
            if cell.contains(',') || cell.contains('"') || cell.contains('\n') {
                format!("\"{}\"", cell.replace('"', "\"\""))
            } else {
                cell.to_string()
            }
        };
        let mut out = String::new();
        out.push_str(
            &self
                .header
                .iter()
                .map(|c| escape(c))
                .collect::<Vec<_>>()
                .join(","),
        );
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.iter().map(|c| escape(c)).collect::<Vec<_>>().join(","));
            out.push('\n');
        }
        out
    }

    /// Writes the table to `path`, creating parent directories as needed.
    pub fn write_to(&self, path: &Path) -> std::io::Result<()> {
        if let Some(parent) = path.parent() {
            fs::create_dir_all(parent)?;
        }
        let mut file = fs::File::create(path)?;
        file.write_all(self.to_csv_string().as_bytes())
    }
}

/// Default output directory for experiment artifacts
/// (`target/experiments/` relative to the workspace root or current dir).
pub fn experiments_dir() -> PathBuf {
    let base = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".to_string());
    PathBuf::from(base).join("experiments")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn csv_round_trip_structure() {
        let mut t = CsvTable::new(["kernel", "backend", "bandwidth_gbs"]);
        t.push_row(["copy", "Mojo", "2657.2"]);
        t.push_row(["dot", "CUDA", "3200.0"]);
        let s = t.to_csv_string();
        let lines: Vec<_> = s.lines().collect();
        assert_eq!(lines.len(), 3);
        assert_eq!(lines[0], "kernel,backend,bandwidth_gbs");
        assert_eq!(lines[1], "copy,Mojo,2657.2");
    }

    #[test]
    fn csv_escapes_commas_and_quotes() {
        let mut t = CsvTable::new(["label", "value"]);
        t.push_row(["a,b", "say \"hi\""]);
        let s = t.to_csv_string();
        assert!(s.contains("\"a,b\""));
        assert!(s.contains("\"say \"\"hi\"\"\""));
    }

    #[test]
    #[should_panic(expected = "cells")]
    fn mismatched_row_panics() {
        let mut t = CsvTable::new(["a", "b"]);
        t.push_row(["only-one"]);
    }

    #[test]
    fn files_are_written_to_disk() {
        let dir = std::env::temp_dir().join("mojo-hpc-metrics-test");
        let path = dir.join("sample.csv");
        let mut t = CsvTable::new(["x"]);
        t.push_row(["1"]);
        t.write_to(&path).unwrap();
        let content = fs::read_to_string(&path).unwrap();
        assert!(content.starts_with("x\n1"));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn experiments_dir_is_under_target() {
        let dir = experiments_dir();
        assert!(dir.to_string_lossy().contains("experiments"));
    }
}
