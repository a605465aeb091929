//! Sharded multi-process scale-out: partition, manifest, merge.
//!
//! This module implements the shard/merge protocol documented end-to-end in
//! DESIGN.md §10. The pieces:
//!
//! * [`ShardSpec`] — a `--shard I/N` flag value and the deterministic
//!   partition function mapping it to a contiguous range of work items
//!   (experiments for `run`, sweep points for `sweep`);
//! * [`ShardManifest`] — the metadata a worker emits next to its partial
//!   report: shard index and total, the global item range covered, the item
//!   labels, and (for sweeps) the workload name and pinned parameter
//!   encoding;
//! * [`ShardDocument`] — the single JSON object a shard worker prints to
//!   stdout: `{"manifest": …, "reports": […]}`;
//! * [`merge_run`] / [`merge_sweep`] — reassemble worker documents into
//!   output **byte-identical** to a single-process `run` / `sweep`, after
//!   validating that the manifests form a complete, non-overlapping tiling
//!   of the work.
//!
//! Byte-identity holds because the report JSON schema carries only strings
//! (every table cell is exactly the bytes the CSV lane prints), the JSON
//! shim preserves object-key and array order, and the partition is
//! contiguous and order-preserving — so concatenating the partial reports in
//! shard order reproduces the single-process traversal exactly.

use crate::dispatch::WorkerTask;
use crate::report::{json_array, json_field, json_opt_field, json_str, json_u64, ExperimentReport};
use crate::sweep::{self, SweepSpec};
use gpu_sim::PoolStats;
use serde::value::Value;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::Range;

/// Version tag of the shard document schema, bumped on breaking changes.
pub const SHARD_SCHEMA: u64 = 1;

/// A parsed `--shard I/N` flag: this process is worker `index` of `total`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardSpec {
    /// Zero-based shard index, `< total`.
    pub index: u64,
    /// Total shard count, `>= 1`.
    pub total: u64,
}

impl ShardSpec {
    /// Parses an `I/N` spec, rejecting malformed, zero-total and
    /// out-of-range (`I >= N`) values.
    pub fn parse(value: &str) -> Result<ShardSpec, String> {
        let Some((index, total)) = value.split_once('/') else {
            return Err(format!("--shard: expected I/N (e.g. 0/3), got '{value}'"));
        };
        let parse = |part: &str| {
            part.parse::<u64>()
                .map_err(|_| format!("--shard: invalid number '{part}' in '{value}'"))
        };
        let (index, total) = (parse(index)?, parse(total)?);
        if total == 0 {
            return Err("--shard: total shard count must be at least 1".to_string());
        }
        if index >= total {
            return Err(format!(
                "--shard: index {index} is out of range for {total} shard(s) (valid: 0..{})",
                total - 1
            ));
        }
        Ok(ShardSpec { index, total })
    }

    /// The contiguous range of a `len`-item work list this shard covers.
    ///
    /// This is the protocol's partition function: shard `i` of `n` covers
    /// `[i·len/n, (i+1)·len/n)` (integer division). The ranges are
    /// order-preserving, tile the list exactly, and differ in length by at
    /// most one; when `n > len`, `n - len` of the shards are empty. The
    /// products are taken in `u128`, so they cannot overflow at any `n`.
    pub fn range(&self, len: usize) -> Range<usize> {
        let bound = |index: u128| (index * len as u128 / u128::from(self.total)) as usize;
        bound(self.index.into())..bound(u128::from(self.index) + 1)
    }
}

impl fmt::Display for ShardSpec {
    /// Renders the spec back to its `I/N` flag form — `parse ∘ to_string`
    /// is the identity on valid specs.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.index, self.total)
    }
}

/// The metadata a shard worker emits next to its partial reports.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardManifest {
    /// The sharded subcommand: `"run"` or `"sweep"`.
    pub command: String,
    /// This worker's zero-based shard index.
    pub shard: u64,
    /// Total shard count of the partition.
    pub shards: u64,
    /// Global index of the first work item this shard covers.
    pub start: u64,
    /// Number of work items this shard covers (0 for an empty shard).
    pub count: u64,
    /// Total work items across all shards.
    pub total: u64,
    /// Labels of the covered items, in global order: experiment ids for
    /// `run`, size-parameter values for `sweep`.
    pub items: Vec<String>,
    /// The swept workload name (`sweep` only).
    pub workload: Option<String>,
    /// The pinned base parameter encoding every point starts from
    /// (`sweep` only).
    pub params: Option<String>,
    /// The worker's buffer-pool activity, so the coordinator can report
    /// fleet-wide pool telemetry on stderr without touching the merged
    /// output. Absent when the shard checked nothing out; the key is
    /// optional, so [`SHARD_SCHEMA`] stays at 1.
    pub pool: Option<PoolStats>,
}

impl ShardManifest {
    /// The manifest as a JSON value tree (schema in DESIGN.md §10).
    pub fn to_json_value(&self) -> Value {
        let opt = |value: &Option<String>| match value {
            Some(s) => Value::Str(s.clone()),
            None => Value::Null,
        };
        let mut entries = vec![
            ("schema".to_string(), Value::U64(SHARD_SCHEMA)),
            ("command".to_string(), Value::Str(self.command.clone())),
            ("shard".to_string(), Value::U64(self.shard)),
            ("shards".to_string(), Value::U64(self.shards)),
            ("start".to_string(), Value::U64(self.start)),
            ("count".to_string(), Value::U64(self.count)),
            ("total".to_string(), Value::U64(self.total)),
            (
                "items".to_string(),
                Value::Array(self.items.iter().cloned().map(Value::Str).collect()),
            ),
            ("workload".to_string(), opt(&self.workload)),
            ("params".to_string(), opt(&self.params)),
        ];
        if let Some(pool) = &self.pool {
            entries.push(("pool".to_string(), pool.to_value()));
        }
        Value::Object(entries)
    }

    /// Parses a manifest back from its JSON value tree.
    pub fn from_json_value(value: &Value) -> Result<ShardManifest, String> {
        let schema = json_u64(json_field(value, "schema")?)?;
        if schema != SHARD_SCHEMA {
            return Err(format!(
                "unsupported shard schema {schema} (this binary speaks {SHARD_SCHEMA})"
            ));
        }
        let opt = |key: &str| -> Result<Option<String>, String> {
            match json_field(value, key)? {
                Value::Null => Ok(None),
                other => Ok(Some(json_str(other)?.to_string())),
            }
        };
        Ok(ShardManifest {
            command: json_str(json_field(value, "command")?)?.to_string(),
            shard: json_u64(json_field(value, "shard")?)?,
            shards: json_u64(json_field(value, "shards")?)?,
            start: json_u64(json_field(value, "start")?)?,
            count: json_u64(json_field(value, "count")?)?,
            total: json_u64(json_field(value, "total")?)?,
            items: json_array(json_field(value, "items")?)?
                .iter()
                .map(|item| Ok(json_str(item)?.to_string()))
                .collect::<Result<_, String>>()?,
            workload: opt("workload")?,
            params: opt("params")?,
            pool: match json_opt_field(value, "pool") {
                None | Some(Value::Null) => None,
                Some(other) => Some(PoolStats::from_value(other).map_err(|e| e.to_string())?),
            },
        })
    }
}

/// Everything a shard worker prints to stdout: its manifest plus the partial
/// reports of the work items it covered (one report per experiment for
/// `run`; zero or one sweep report for `sweep`).
#[derive(Debug, Clone)]
pub struct ShardDocument {
    /// The shard's metadata.
    pub manifest: ShardManifest,
    /// The partial reports, in global item order.
    pub reports: Vec<ExperimentReport>,
}

impl ShardDocument {
    /// The document as pretty-printed JSON text (trailing newline included).
    pub fn to_json_pretty(&self) -> String {
        let value = Value::Object(vec![
            ("manifest".to_string(), self.manifest.to_json_value()),
            (
                "reports".to_string(),
                Value::Array(self.reports.iter().map(|r| r.to_json_value()).collect()),
            ),
        ]);
        let mut json = serde_json::to_string_pretty(&value).expect("shard document serialises");
        json.push('\n');
        json
    }

    /// Parses a worker's stdout back into a document.
    pub fn parse(text: &str) -> Result<ShardDocument, String> {
        let value: Value = serde_json::from_str(text)
            .map_err(|e| format!("shard document is not valid JSON: {e}"))?;
        let manifest = ShardManifest::from_json_value(json_field(&value, "manifest")?)?;
        let reports = json_array(json_field(&value, "reports")?)?
            .iter()
            .map(ExperimentReport::from_json_value)
            .collect::<Result<_, _>>()?;
        Ok(ShardDocument { manifest, reports })
    }
}

/// Validates that a set of shard documents forms a complete, consistent,
/// non-overlapping tiling for `command`, and returns them sorted by shard
/// index.
fn validate_set<'a>(
    docs: &'a [ShardDocument],
    command: &str,
) -> Result<Vec<&'a ShardDocument>, String> {
    let Some(first) = docs.first() else {
        return Err("no shard documents to merge".to_string());
    };
    let (shards, total) = (first.manifest.shards, first.manifest.total);
    if docs.len() as u64 != shards {
        return Err(format!(
            "expected {shards} shard document(s), got {}",
            docs.len()
        ));
    }
    let mut sorted: Vec<&ShardDocument> = docs.iter().collect();
    sorted.sort_by_key(|doc| doc.manifest.shard);
    let mut next_start = 0u64;
    for (i, doc) in sorted.iter().enumerate() {
        let m = &doc.manifest;
        if m.command != command {
            return Err(format!(
                "shard {}/{}: command '{}' does not match the coordinator's '{command}'",
                m.shard, m.shards, m.command
            ));
        }
        if m.shards != shards || m.total != total {
            return Err(format!(
                "shard {}/{}: inconsistent partition ({} shard(s) over {} item(s), \
                 coordinator expects {shards} over {total})",
                m.shard, m.shards, m.shards, m.total
            ));
        }
        if m.shard != i as u64 {
            return Err(format!(
                "shard index {} is missing or duplicated in the document set",
                i
            ));
        }
        if m.start != next_start {
            return Err(format!(
                "shard {}/{shards}: range starts at item {} but the previous shard ended at {}",
                m.shard, m.start, next_start
            ));
        }
        if m.items.len() as u64 != m.count {
            return Err(format!(
                "shard {}/{shards}: manifest names {} item(s) but claims count {}",
                m.shard,
                m.items.len(),
                m.count
            ));
        }
        next_start += m.count;
    }
    if next_start != total {
        return Err(format!(
            "shard ranges cover {next_start} of {total} item(s)"
        ));
    }
    Ok(sorted)
}

/// Merges `run` shard documents into the full report list, in presentation
/// order — exactly the list a single-process `run` over the same ids
/// produces.
///
/// `expected_items` is the coordinator's own id list; the merged manifests
/// must cover it label-for-label.
pub fn merge_run(
    docs: &[ShardDocument],
    expected_items: &[String],
) -> Result<Vec<ExperimentReport>, String> {
    let sorted = validate_set(docs, "run")?;
    if sorted[0].manifest.total != expected_items.len() as u64 {
        return Err(format!(
            "shards partition {} item(s) but the coordinator requested {}",
            sorted[0].manifest.total,
            expected_items.len()
        ));
    }
    let mut reports = Vec::with_capacity(expected_items.len());
    let mut cursor = 0usize;
    for doc in sorted {
        let m = &doc.manifest;
        if doc.reports.len() as u64 != m.count {
            return Err(format!(
                "shard {}/{}: {} report(s) for {} item(s)",
                m.shard,
                m.shards,
                doc.reports.len(),
                m.count
            ));
        }
        for (item, report) in m.items.iter().zip(&doc.reports) {
            if item != &expected_items[cursor] {
                return Err(format!(
                    "shard {}/{}: item {} is '{item}', coordinator expected '{}'",
                    m.shard, m.shards, cursor, expected_items[cursor]
                ));
            }
            if &report.id != item {
                return Err(format!(
                    "shard {}/{}: report id '{}' does not match its manifest item '{item}'",
                    m.shard, m.shards, report.id
                ));
            }
            cursor += 1;
            reports.push(report.clone());
        }
    }
    Ok(reports)
}

/// Merges `sweep` shard documents into the one report a single-process
/// sweep over `spec` produces, byte for byte.
///
/// The envelope (id, title, table header) is rebuilt from `spec`; the
/// per-point console text and table rows are spliced from the partial
/// reports in shard order. Empty shards contribute nothing.
pub fn merge_sweep(spec: &SweepSpec, docs: &[ShardDocument]) -> Result<ExperimentReport, String> {
    let sorted = validate_set(docs, "sweep")?;
    let expected_items: Vec<String> = spec.sizes.iter().map(|s| s.to_string()).collect();
    let (workload, params) = (spec.workload.name(), spec.base.encode());
    let mut report = sweep::report_envelope(spec);
    let mut table = hpc_metrics::output::CsvTable {
        header: sweep::table_header(spec.workload),
        rows: Vec::new(),
    };
    let mut cursor = 0usize;
    for doc in sorted {
        let m = &doc.manifest;
        if m.total != expected_items.len() as u64 {
            return Err(format!(
                "shards partition {} point(s) but the coordinator swept {}",
                m.total,
                expected_items.len()
            ));
        }
        if m.workload.as_deref() != Some(workload) || m.params.as_deref() != Some(&params) {
            return Err(format!(
                "shard {}/{}: workload/params ({:?}, {:?}) do not match the \
                 coordinator's ({workload}, {params})",
                m.shard, m.shards, m.workload, m.params
            ));
        }
        for item in &m.items {
            if item != &expected_items[cursor] {
                return Err(format!(
                    "shard {}/{}: point {} is '{item}', coordinator expected '{}'",
                    m.shard, m.shards, cursor, expected_items[cursor]
                ));
            }
            cursor += 1;
        }
        match (m.count, doc.reports.as_slice()) {
            (0, []) => {}
            (n, [partial]) if n > 0 => {
                let Some((name, rows)) = partial.tables.first() else {
                    return Err(format!(
                        "shard {}/{}: partial sweep report has no table",
                        m.shard, m.shards
                    ));
                };
                if name != "sweep" || rows.header != table.header {
                    return Err(format!(
                        "shard {}/{}: partial table does not match the sweep schema",
                        m.shard, m.shards
                    ));
                }
                report.text.push_str(&partial.text);
                table.rows.extend(rows.rows.iter().cloned());
            }
            _ => {
                return Err(format!(
                    "shard {}/{}: expected one partial sweep report for {} point(s), got {}",
                    m.shard,
                    m.shards,
                    m.count,
                    doc.reports.len()
                ));
            }
        }
    }
    report.push_table("sweep", table);
    Ok(report)
}

/// Builds the [`WorkerTask`] list for a fan-out: worker `i` of the argument
/// lists computes shard `i` of `N`.
pub fn worker_tasks(args_per_worker: &[Vec<String>]) -> Vec<WorkerTask> {
    let total = args_per_worker.len() as u64;
    args_per_worker
        .iter()
        .enumerate()
        .map(|(index, args)| WorkerTask {
            shard: index as u64,
            shards: total,
            args: args.clone(),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::{run_experiments, ExperimentId};
    use crate::sweep::run_sweep;
    use science_kernels::workload;

    #[test]
    fn shard_specs_parse_and_reject_out_of_range() {
        assert_eq!(
            ShardSpec::parse("0/3").unwrap(),
            ShardSpec { index: 0, total: 3 }
        );
        assert_eq!(
            ShardSpec::parse("2/3").unwrap(),
            ShardSpec { index: 2, total: 3 }
        );
        assert!(ShardSpec::parse("3/3").is_err(), "index == total");
        assert!(ShardSpec::parse("5/3").is_err(), "index > total");
        assert!(ShardSpec::parse("0/0").is_err(), "zero shards");
        assert!(ShardSpec::parse("2").is_err(), "missing separator");
        assert!(ShardSpec::parse("a/3").is_err());
        assert!(ShardSpec::parse("1/b").is_err());
        assert!(ShardSpec::parse("-1/3").is_err(), "negative index");
    }

    #[test]
    fn partition_tiles_the_work_list_exactly() {
        for len in 0..20usize {
            for total in 1..8u64 {
                let mut covered = Vec::new();
                for index in 0..total {
                    let range = ShardSpec { index, total }.range(len);
                    assert!(range.start <= range.end && range.end <= len);
                    covered.extend(range);
                }
                assert_eq!(covered, (0..len).collect::<Vec<_>>(), "len={len} n={total}");
            }
        }
        // The single-shard partition is the identity: --shard 0/1 ≡ no flag.
        assert_eq!(ShardSpec { index: 0, total: 1 }.range(11), 0..11);
        // More workers than items leaves some shards empty.
        assert!(ShardSpec { index: 0, total: 3 }.range(2).is_empty());
        assert!(ShardSpec { index: 0, total: 4 }.range(1).is_empty());
    }

    #[test]
    fn partition_does_not_overflow_at_the_largest_shard_counts() {
        // floor(i·m/n) with i = 2^63 - 1, n = 2^63, m = 11 is item 10.
        let spec = ShardSpec::parse("9223372036854775807/9223372036854775808").unwrap();
        assert_eq!(spec.range(11), 10..11);
        let last = ShardSpec {
            index: u64::MAX - 1,
            total: u64::MAX,
        };
        assert_eq!(last.range(11), 10..11);
        assert!(ShardSpec {
            index: 0,
            total: u64::MAX
        }
        .range(11)
        .is_empty());
    }

    fn run_doc(
        shard: u64,
        shards: u64,
        ids: &[ExperimentId],
        all: &[ExperimentId],
    ) -> ShardDocument {
        let spec = ShardSpec {
            index: shard,
            total: shards,
        };
        let range = spec.range(all.len());
        ShardDocument {
            manifest: ShardManifest {
                command: "run".to_string(),
                shard,
                shards,
                start: range.start as u64,
                count: ids.len() as u64,
                total: all.len() as u64,
                items: ids.iter().map(|id| id.as_str().to_string()).collect(),
                workload: None,
                params: None,
                pool: None,
            },
            reports: run_experiments(ids),
        }
    }

    #[test]
    fn shard_documents_round_trip_through_json() {
        let ids = [ExperimentId::Table1, ExperimentId::Fig5];
        let doc = run_doc(0, 1, &ids, &ids);
        let parsed = ShardDocument::parse(&doc.to_json_pretty()).unwrap();
        assert_eq!(parsed.manifest, doc.manifest);
        assert_eq!(parsed.reports.len(), doc.reports.len());
        assert_eq!(parsed.to_json_pretty(), doc.to_json_pretty());
    }

    #[test]
    fn merged_run_shards_equal_the_single_process_reports() {
        let all = [ExperimentId::Table1, ExperimentId::Fig2, ExperimentId::Fig5];
        let expected = run_experiments(&all);
        let docs = vec![
            run_doc(0, 2, &all[..1], &all),
            run_doc(1, 2, &all[1..], &all),
        ];
        let items: Vec<String> = all.iter().map(|id| id.as_str().to_string()).collect();
        let merged = merge_run(&docs, &items).unwrap();
        assert_eq!(
            ExperimentReport::render_json_array(&merged),
            ExperimentReport::render_json_array(&expected)
        );
    }

    #[test]
    fn merge_rejects_incomplete_or_overlapping_sets() {
        let all = [ExperimentId::Table1, ExperimentId::Fig5];
        let items: Vec<String> = all.iter().map(|id| id.as_str().to_string()).collect();
        let full = run_doc(0, 1, &all, &all);
        // A missing shard.
        let lone = run_doc(0, 2, &all[..1], &all);
        assert!(merge_run(std::slice::from_ref(&lone), &items).is_err());
        // A duplicated shard index.
        assert!(merge_run(&[lone.clone(), lone], &items).is_err());
        // Item labels that do not match the coordinator's request.
        let swapped: Vec<String> = items.iter().rev().cloned().collect();
        assert!(merge_run(std::slice::from_ref(&full), &swapped).is_err());
        assert!(merge_run(&[full], &items).is_ok());
    }

    #[test]
    fn merged_sweep_shards_render_byte_identically() {
        let engine = workload::find("stencil").unwrap();
        let spec = SweepSpec::new(engine, &[], vec![16, 20, 24]).unwrap();
        let expected = run_sweep(&spec).unwrap();
        // Three shards over three points, the middle one via a sub-spec.
        let mut docs = Vec::new();
        for index in 0..3u64 {
            let shard = ShardSpec { index, total: 3 };
            let range = shard.range(spec.sizes.len());
            let sizes = spec.sizes[range.clone()].to_vec();
            let sub = SweepSpec::new(engine, &[], sizes.clone()).unwrap();
            docs.push(ShardDocument {
                manifest: ShardManifest {
                    command: "sweep".to_string(),
                    shard: index,
                    shards: 3,
                    start: range.start as u64,
                    count: sizes.len() as u64,
                    total: spec.sizes.len() as u64,
                    items: sizes.iter().map(|s| s.to_string()).collect(),
                    workload: Some(engine.name().to_string()),
                    params: Some(spec.base.encode()),
                    pool: None,
                },
                reports: vec![run_sweep(&sub).unwrap()],
            });
        }
        let merged = merge_sweep(&spec, &docs).unwrap();
        assert_eq!(merged.render(), expected.render());
        assert_eq!(merged.to_json_pretty(), expected.to_json_pretty());
    }

    #[test]
    fn merged_sweep_tolerates_empty_shards() {
        let engine = workload::find("stencil").unwrap();
        let spec = SweepSpec::new(engine, &[], vec![16]).unwrap();
        let expected = run_sweep(&spec).unwrap();
        let manifest = |index: u64, start: u64, count: u64, items: Vec<String>| ShardManifest {
            command: "sweep".to_string(),
            shard: index,
            shards: 2,
            start,
            count,
            total: 1,
            items,
            workload: Some(engine.name().to_string()),
            params: Some(spec.base.encode()),
            pool: None,
        };
        let docs = vec![
            ShardDocument {
                manifest: manifest(0, 0, 0, vec![]),
                reports: vec![],
            },
            ShardDocument {
                manifest: manifest(1, 0, 1, vec!["16".to_string()]),
                reports: vec![run_sweep(&spec).unwrap()],
            },
        ];
        let merged = merge_sweep(&spec, &docs).unwrap();
        assert_eq!(merged.to_json_pretty(), expected.to_json_pretty());
        // A shard claiming zero points but carrying a report is rejected —
        // splicing it in would silently duplicate rows.
        let contradictory = vec![
            ShardDocument {
                manifest: manifest(0, 0, 0, vec![]),
                reports: vec![run_sweep(&spec).unwrap()],
            },
            ShardDocument {
                manifest: manifest(1, 0, 1, vec!["16".to_string()]),
                reports: vec![run_sweep(&spec).unwrap()],
            },
        ];
        let err = match merge_sweep(&spec, &contradictory) {
            Err(err) => err,
            Ok(_) => panic!("a count-0 shard with a report must be rejected"),
        };
        assert!(err.contains("0 point(s)"), "{err}");
    }
}
