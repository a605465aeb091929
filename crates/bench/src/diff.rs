//! Parsing and diffing of the bench JSON records (`target/bench/*.json`).
//!
//! The criterion shim exports one record per benchmark group (schema in the
//! crate docs). This module reads those records back and compares two runs —
//! the committed baseline vs a fresh smoke run in CI, or any two archived
//! artifacts — reporting per-benchmark mean deltas and tolerating structural
//! drift: a group or benchmark present in only one side is reported as
//! *added*/*removed* instead of failing the comparison.

use serde::{Deserialize, Serialize};
use std::path::Path;

/// Declared throughput of one benchmark (`"throughput"` in the record).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ThroughputRecord {
    /// `"elements"` or `"bytes"`.
    pub kind: String,
    /// Declared work per iteration.
    pub amount: u64,
    /// `amount / mean` in units per second.
    pub per_sec: f64,
}

/// One benchmark's measurements within a group record.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BenchMeasurement {
    /// Benchmark id within the group.
    pub id: String,
    /// Number of timed iterations.
    pub samples: u64,
    /// Mean wall-clock per iteration in nanoseconds.
    pub mean_ns: f64,
    /// Fastest iteration in nanoseconds.
    pub min_ns: u64,
    /// Slowest iteration in nanoseconds.
    pub max_ns: u64,
    /// Declared throughput, when the group set one.
    pub throughput: Option<ThroughputRecord>,
}

/// One named telemetry counter of a group record (`"counters"` in the
/// record) — the bench targets use these for buffer-pool statistics.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CounterRecord {
    /// Counter name, e.g. `pool_hits`.
    pub name: String,
    /// Counter value over the whole group run.
    pub value: u64,
}

/// One `target/bench/<group>.json` record.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BenchGroup {
    /// Group name (the file stem).
    pub group: String,
    /// Measurements of every benchmark in the group.
    pub benchmarks: Vec<BenchMeasurement>,
    /// Telemetry counters of the group run (`None` for records written
    /// before the key existed).
    pub counters: Option<Vec<CounterRecord>>,
}

/// Mean-time delta of one benchmark present in both runs.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchmarkDelta {
    /// Benchmark id within the group.
    pub id: String,
    /// Mean nanoseconds in the baseline run.
    pub mean_ns_a: f64,
    /// Mean nanoseconds in the compared run.
    pub mean_ns_b: f64,
}

impl BenchmarkDelta {
    /// Relative change of the mean, `(b - a) / a` (positive = slower).
    pub fn relative_change(&self) -> f64 {
        if self.mean_ns_a == 0.0 {
            return 0.0;
        }
        (self.mean_ns_b - self.mean_ns_a) / self.mean_ns_a
    }
}

/// Comparison of one group present in both runs.
#[derive(Debug, Clone, PartialEq)]
pub struct GroupDelta {
    /// Group name.
    pub group: String,
    /// Benchmark ids present only in the compared run.
    pub added: Vec<String>,
    /// Benchmark ids present only in the baseline run.
    pub removed: Vec<String>,
    /// Deltas of the benchmarks present in both.
    pub benchmarks: Vec<BenchmarkDelta>,
}

/// Full comparison of two bench-record sets.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct BenchDiff {
    /// Groups present only in the compared run.
    pub added_groups: Vec<String>,
    /// Groups present only in the baseline run.
    pub removed_groups: Vec<String>,
    /// Per-group comparisons for groups present in both.
    pub groups: Vec<GroupDelta>,
}

/// Parses one bench JSON record.
pub fn parse_group(json: &str) -> Result<BenchGroup, String> {
    serde_json::from_str(json).map_err(|e| format!("invalid bench record: {e}"))
}

/// Loads bench records from `path`: a single `.json` file, or a directory
/// whose `*.json` files are all loaded (sorted by file name).
///
/// `target/bench/` may also host sidecar artifacts that are not group
/// records (older archived snapshots carry one). In directory mode a `.json` file
/// without a `"group"` key (every group record has one; see [`BenchGroup`])
/// is skipped rather than rejected, so sidecars ride along in archived bench
/// artifacts without breaking later diffs. An explicit single-file path is
/// still parsed strictly.
pub fn load_records(path: &Path) -> Result<Vec<BenchGroup>, String> {
    let read_one = |file: &Path| -> Result<BenchGroup, String> {
        let text = std::fs::read_to_string(file)
            .map_err(|e| format!("cannot read {}: {e}", file.display()))?;
        parse_group(&text).map_err(|e| format!("{}: {e}", file.display()))
    };
    if path.is_dir() {
        let mut files: Vec<_> = std::fs::read_dir(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?
            .filter_map(|entry| entry.ok().map(|e| e.path()))
            .filter(|p| p.extension().is_some_and(|ext| ext == "json"))
            .collect();
        files.sort();
        let mut groups = Vec::new();
        for file in &files {
            let text = std::fs::read_to_string(file)
                .map_err(|e| format!("cannot read {}: {e}", file.display()))?;
            if !text.contains("\"group\"") {
                continue;
            }
            groups.push(parse_group(&text).map_err(|e| format!("{}: {e}", file.display()))?);
        }
        Ok(groups)
    } else {
        Ok(vec![read_one(path)?])
    }
}

/// Compares two record sets. Groups and benchmarks are matched by name; a
/// name present on only one side lands in the `added`/`removed` lists
/// instead of aborting the comparison.
pub fn diff(baseline: &[BenchGroup], current: &[BenchGroup]) -> BenchDiff {
    let mut result = BenchDiff::default();
    for group in current {
        if !baseline.iter().any(|g| g.group == group.group) {
            result.added_groups.push(group.group.clone());
        }
    }
    for base in baseline {
        let Some(cur) = current.iter().find(|g| g.group == base.group) else {
            result.removed_groups.push(base.group.clone());
            continue;
        };
        let mut delta = GroupDelta {
            group: base.group.clone(),
            added: Vec::new(),
            removed: Vec::new(),
            benchmarks: Vec::new(),
        };
        for bench in &cur.benchmarks {
            if !base.benchmarks.iter().any(|b| b.id == bench.id) {
                delta.added.push(bench.id.clone());
            }
        }
        for bench in &base.benchmarks {
            match cur.benchmarks.iter().find(|b| b.id == bench.id) {
                Some(matching) => delta.benchmarks.push(BenchmarkDelta {
                    id: bench.id.clone(),
                    mean_ns_a: bench.mean_ns,
                    mean_ns_b: matching.mean_ns,
                }),
                None => delta.removed.push(bench.id.clone()),
            }
        }
        result.groups.push(delta);
    }
    result
}

/// One benchmark whose mean regressed beyond a tolerance.
#[derive(Debug, Clone, PartialEq)]
pub struct Regression {
    /// Group name.
    pub group: String,
    /// Benchmark id within the group.
    pub id: String,
    /// Relative change of the mean, `(b - a) / a`.
    pub change: f64,
}

/// Benchmarks whose mean slowed down by more than `max_regression`
/// (a fraction: `0.10` tolerates up to +10%). Only benchmarks present in
/// both runs count; added/removed entries carry no delta to gate on.
pub fn regressions_beyond(diff: &BenchDiff, max_regression: f64) -> Vec<Regression> {
    let mut out = Vec::new();
    for group in &diff.groups {
        for bench in &group.benchmarks {
            let change = bench.relative_change();
            if change > max_regression {
                out.push(Regression {
                    group: group.group.clone(),
                    id: bench.id.clone(),
                    change,
                });
            }
        }
    }
    out
}

/// Renders a comparison as a human-readable report.
pub fn render(diff: &BenchDiff) -> String {
    let mut out = String::new();
    for group in &diff.added_groups {
        out.push_str(&format!("group {group}: added (no baseline)\n"));
    }
    for group in &diff.removed_groups {
        out.push_str(&format!("group {group}: removed (baseline only)\n"));
    }
    for group in &diff.groups {
        out.push_str(&format!("group {}\n", group.group));
        for id in &group.added {
            out.push_str(&format!("  {id}: added\n"));
        }
        for id in &group.removed {
            out.push_str(&format!("  {id}: removed\n"));
        }
        for bench in &group.benchmarks {
            out.push_str(&format!(
                "  {}: {:.1} ns -> {:.1} ns ({:+.1}%)\n",
                bench.id,
                bench.mean_ns_a,
                bench.mean_ns_b,
                bench.relative_change() * 100.0
            ));
        }
    }
    if out.is_empty() {
        out.push_str("no bench records on either side\n");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn group(name: &str, ids: &[(&str, f64)]) -> BenchGroup {
        BenchGroup {
            group: name.to_string(),
            benchmarks: ids
                .iter()
                .map(|&(id, mean)| BenchMeasurement {
                    id: id.to_string(),
                    samples: 10,
                    mean_ns: mean,
                    min_ns: mean as u64,
                    max_ns: mean as u64 + 10,
                    throughput: None,
                })
                .collect(),
            counters: None,
        }
    }

    #[test]
    fn schema_round_trips_through_the_shim_writer_format() {
        // Exactly the shape the criterion shim writes (see crate docs).
        let json = r#"{
  "group": "fig4_babelstream",
  "benchmarks": [
    {
      "id": "portable_triad",
      "samples": 10,
      "mean_ns": 1234567.8,
      "min_ns": 1200000,
      "max_ns": 1300000,
      "throughput": { "kind": "bytes", "amount": 8388608,
                      "per_sec": 6794772480.0 }
    },
    {
      "id": "no_throughput",
      "samples": 1,
      "mean_ns": 100.0,
      "min_ns": 100,
      "max_ns": 100,
      "throughput": null
    }
  ]
}"#;
        let record = parse_group(json).unwrap();
        assert_eq!(record.group, "fig4_babelstream");
        assert_eq!(record.benchmarks.len(), 2);
        let first = &record.benchmarks[0];
        assert_eq!(first.id, "portable_triad");
        assert_eq!(first.samples, 10);
        assert!((first.mean_ns - 1234567.8).abs() < 1e-6);
        let throughput = first.throughput.as_ref().unwrap();
        assert_eq!(throughput.kind, "bytes");
        assert_eq!(throughput.amount, 8388608);
        assert!(record.benchmarks[1].throughput.is_none());
        // A record written before the counters key existed parses to None.
        assert!(record.counters.is_none());
        // And the parsed record serialises back without loss of structure.
        let rendered = serde_json::to_string(&record).unwrap();
        let reparsed = parse_group(&rendered).unwrap();
        assert_eq!(reparsed, record);
    }

    #[test]
    fn counters_parse_when_present() {
        let json = r#"{
  "group": "g",
  "benchmarks": [],
  "counters": [
    { "name": "pool_hits", "value": 308 },
    { "name": "pool_misses", "value": 4 }
  ]
}"#;
        let record = parse_group(json).unwrap();
        let counters = record.counters.as_ref().unwrap();
        assert_eq!(counters.len(), 2);
        assert_eq!(counters[0].name, "pool_hits");
        assert_eq!(counters[0].value, 308);
        let rendered = serde_json::to_string(&record).unwrap();
        assert_eq!(parse_group(&rendered).unwrap(), record);
    }

    #[test]
    fn regression_gate_flags_only_slowdowns_beyond_the_tolerance() {
        let baseline = vec![group(
            "g",
            &[("fast", 100.0), ("slow", 100.0), ("ok", 100.0)],
        )];
        let current = vec![group(
            "g",
            &[("fast", 80.0), ("slow", 125.0), ("ok", 105.0)],
        )];
        let d = diff(&baseline, &current);
        let flagged = regressions_beyond(&d, 0.10);
        assert_eq!(flagged.len(), 1);
        assert_eq!(flagged[0].id, "slow");
        assert!((flagged[0].change - 0.25).abs() < 1e-12);
        // A looser tolerance passes everything; a zero tolerance flags every
        // slowdown but never a speedup.
        assert!(regressions_beyond(&d, 0.30).is_empty());
        let all = regressions_beyond(&d, 0.0);
        assert_eq!(all.len(), 2);
        assert!(all.iter().all(|r| r.id != "fast"));
    }

    #[test]
    fn missing_groups_are_reported_as_added_or_removed() {
        let baseline = vec![group("only_in_a", &[("x", 10.0)]), group("shared", &[])];
        let current = vec![group("shared", &[]), group("only_in_b", &[("y", 20.0)])];
        let d = diff(&baseline, &current);
        assert_eq!(d.removed_groups, vec!["only_in_a".to_string()]);
        assert_eq!(d.added_groups, vec!["only_in_b".to_string()]);
        assert_eq!(d.groups.len(), 1);
        let rendered = render(&d);
        assert!(rendered.contains("only_in_a: removed"));
        assert!(rendered.contains("only_in_b: added"));
    }

    #[test]
    fn benchmark_level_drift_is_tolerated_and_deltas_computed() {
        let baseline = vec![group("g", &[("kept", 100.0), ("dropped", 50.0)])];
        let current = vec![group("g", &[("kept", 150.0), ("new", 25.0)])];
        let d = diff(&baseline, &current);
        let g = &d.groups[0];
        assert_eq!(g.added, vec!["new".to_string()]);
        assert_eq!(g.removed, vec!["dropped".to_string()]);
        assert_eq!(g.benchmarks.len(), 1);
        assert!((g.benchmarks[0].relative_change() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn malformed_records_are_an_error_not_a_panic() {
        assert!(parse_group("{").is_err());
        assert!(parse_group(r#"{"group": "g"}"#).is_err());
        assert!(load_records(Path::new("/nonexistent/definitely-missing.json")).is_err());
    }

    #[test]
    fn directory_loads_skip_sidecar_artifacts() {
        let dir = std::env::temp_dir().join(format!("bench-diff-sidecar-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let record = serde_json::to_string(&group("streams", &[("copy", 10.0)])).unwrap();
        std::fs::write(dir.join("streams.json"), record).unwrap();
        // A sidecar: valid JSON, but not a bench group.
        std::fs::write(
            dir.join("sidecar.json"),
            r#"{"schema": 1, "accumulators": 4, "kernels": []}"#,
        )
        .unwrap();

        let records = load_records(&dir).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].group, "streams");
    }
}
