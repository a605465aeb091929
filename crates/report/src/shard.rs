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
//!   encoding. [`ShardManifest::new`] derives it from the spec and the work
//!   list, for the worker and for the merge alike;
//! * [`ShardDocument`] — the single JSON object a shard worker prints to
//!   stdout: `{"manifest": …, "reports": […]}`;
//! * [`merge_run`] / [`merge_sweep`] — reassemble worker documents into
//!   output **byte-identical** to a single-process `run` / `sweep`, after
//!   checking that each manifest equals the one its shard's worker builds
//!   from the coordinator's own work list and configuration, and that the
//!   reports fit it.
//!
//! Byte-identity holds because the report JSON schema carries only strings
//! (every table cell is exactly the bytes the CSV lane prints), the JSON
//! shim preserves object-key and array order, and the partition is
//! contiguous and order-preserving — so concatenating the partial reports in
//! shard order reproduces the single-process traversal exactly.

use crate::dispatch::WorkerTask;
use crate::report::{json_array, json_field, json_u64, ExperimentReport};
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

/// The metadata a shard worker emits next to its partial reports. Its JSON
/// (DESIGN.md §10) is the derived one, so the field names are the wire
/// schema; [`ShardManifest::new`] is the only way the program builds one.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ShardManifest {
    /// The document schema, [`SHARD_SCHEMA`].
    pub schema: u64,
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
    /// output. `null` when the shard checked nothing out; a document
    /// without the key parses too.
    pub pool: Option<PoolStats>,
}

impl ShardManifest {
    /// The manifest of `shard` over the work list `items` of `sweep` (or of
    /// `run` when `None`): the covered range follows from
    /// [`ShardSpec::range`], and a sweep pins its workload name and base
    /// encoding. `pool` starts empty; the worker fills it in.
    pub fn new(shard: ShardSpec, items: &[String], sweep: Option<&SweepSpec>) -> ShardManifest {
        let range = shard.range(items.len());
        ShardManifest {
            schema: SHARD_SCHEMA,
            command: if sweep.is_some() { "sweep" } else { "run" }.to_string(),
            shard: shard.index,
            shards: shard.total,
            start: range.start as u64,
            count: range.len() as u64,
            total: items.len() as u64,
            items: items[range].to_vec(),
            workload: sweep.map(|spec| spec.workload.name().to_string()),
            params: sweep.map(|spec| spec.base.encode()),
            pool: None,
        }
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
            ("manifest".to_string(), self.manifest.to_value()),
            (
                "reports".to_string(),
                Value::Array(self.reports.iter().map(|r| r.to_json_value()).collect()),
            ),
        ]);
        let mut json = serde_json::to_string_pretty(&value).expect("shard document serialises");
        json.push('\n');
        json
    }

    /// Parses a worker's stdout back into a document, refusing any schema
    /// but [`SHARD_SCHEMA`].
    pub fn parse(text: &str) -> Result<ShardDocument, String> {
        let value: Value = serde_json::from_str(text)
            .map_err(|e| format!("shard document is not valid JSON: {e}"))?;
        let manifest = json_field(&value, "manifest")?;
        let schema = json_u64(json_field(manifest, "schema")?)?;
        if schema != SHARD_SCHEMA {
            return Err(format!(
                "unsupported shard schema {schema} (this binary speaks {SHARD_SCHEMA})"
            ));
        }
        let manifest =
            ShardManifest::from_value(manifest).map_err(|e| format!("shard manifest: {e}"))?;
        let reports = json_array(json_field(&value, "reports")?)?
            .iter()
            .map(ExperimentReport::from_json_value)
            .collect::<Result<_, _>>()?;
        Ok(ShardDocument { manifest, reports })
    }
}

/// Sorts `docs` by shard and requires the manifest of shard `i` to equal
/// `expected` of shard `i` of `docs.len()`, its `pool` set aside. Every
/// field is compared, so this one check makes the set a complete,
/// non-overlapping tiling of the coordinator's own work list and
/// configuration. Returns each document with its shard.
fn check_manifests(
    docs: &[ShardDocument],
    expected: impl Fn(ShardSpec) -> ShardManifest,
) -> Result<Vec<(ShardSpec, &ShardDocument)>, String> {
    if docs.is_empty() {
        return Err("no shard documents to merge".to_string());
    }
    let mut sorted: Vec<&ShardDocument> = docs.iter().collect();
    sorted.sort_by_key(|doc| doc.manifest.shard);
    let total = docs.len() as u64;
    let mut checked = Vec::with_capacity(docs.len());
    for (index, doc) in (0..total).zip(sorted) {
        let shard = ShardSpec { index, total };
        let mut expected = expected(shard);
        expected.pool = doc.manifest.pool;
        if doc.manifest != expected {
            return Err(format!(
                "shard {shard}: manifest {}",
                differences(&doc.manifest, &expected)
            ));
        }
        checked.push((shard, doc));
    }
    Ok(checked)
}

/// The fields in which `got` differs from `want`, with both JSON values.
fn differences(got: &ShardManifest, want: &ShardManifest) -> String {
    let (Value::Object(got), Value::Object(want)) = (got.to_value(), want.to_value()) else {
        unreachable!("a manifest serialises to an object");
    };
    let json = |value: &Value| serde_json::to_string(value).unwrap_or_default();
    got.iter()
        .zip(&want)
        .filter(|(got, want)| got != want)
        .map(|((key, got), (_, want))| format!("{key} is {}, expected {}", json(got), json(want)))
        .collect::<Vec<_>>()
        .join("; ")
}

/// Merges `run` shard documents into the full report list, in presentation
/// order — exactly the list a single-process `run` over the same ids
/// produces.
///
/// `expected_items` is the coordinator's own id list: each manifest must be
/// the one a worker builds for its shard of it, and carry one report per
/// covered item, with that item's id.
pub fn merge_run(
    docs: &[ShardDocument],
    expected_items: &[String],
) -> Result<Vec<ExperimentReport>, String> {
    let sorted = check_manifests(docs, |shard| {
        ShardManifest::new(shard, expected_items, None)
    })?;
    let mut reports = Vec::with_capacity(expected_items.len());
    for (shard, doc) in sorted {
        let ids: Vec<&str> = doc.reports.iter().map(|r| r.id.as_str()).collect();
        if ids != doc.manifest.items {
            return Err(format!(
                "shard {shard}: report ids {ids:?} do not match its items {:?}",
                doc.manifest.items
            ));
        }
        reports.extend(doc.reports.iter().cloned());
    }
    Ok(reports)
}

/// Merges `sweep` shard documents into the one report a single-process
/// sweep over `spec` produces, byte for byte.
///
/// Each manifest must be the one a worker builds for its shard of `spec`.
/// The envelope (id, title, table header) is rebuilt from `spec`; the
/// per-point console text and table rows are spliced from the partial
/// reports in shard order. An empty shard carries no report, any other
/// exactly one, whose `sweep` table has the workload's header.
pub fn merge_sweep(spec: &SweepSpec, docs: &[ShardDocument]) -> Result<ExperimentReport, String> {
    let items: Vec<String> = spec.sizes.iter().map(u64::to_string).collect();
    let sorted = check_manifests(docs, |shard| ShardManifest::new(shard, &items, Some(spec)))?;
    let mut report = sweep::report_envelope(spec);
    let mut table = hpc_metrics::output::CsvTable {
        header: sweep::table_header(spec.workload),
        rows: Vec::new(),
    };
    for (shard, doc) in sorted {
        match (doc.manifest.count, doc.reports.as_slice()) {
            (0, []) => {}
            (1.., [partial]) => match partial.tables.first() {
                Some((name, rows)) if name == "sweep" && rows.header == table.header => {
                    report.text.push_str(&partial.text);
                    table.rows.extend(rows.rows.iter().cloned());
                }
                _ => {
                    return Err(format!(
                        "shard {shard}: partial table does not match the sweep schema"
                    ))
                }
            },
            (count, reports) => {
                return Err(format!(
                    "shard {shard}: {} partial sweep report(s) for {count} point(s)",
                    reports.len()
                ))
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

    /// Shard `shard` of `shards` over the `run` work list `all`, as a
    /// worker emits it.
    fn run_doc(shard: u64, shards: u64, all: &[ExperimentId]) -> ShardDocument {
        let spec = ShardSpec {
            index: shard,
            total: shards,
        };
        let items: Vec<String> = all.iter().map(|id| id.as_str().to_string()).collect();
        ShardDocument {
            manifest: ShardManifest::new(spec, &items, None),
            reports: run_experiments(&all[spec.range(all.len())]),
        }
    }

    #[test]
    fn shard_documents_round_trip_through_json() {
        let ids = [ExperimentId::Table1, ExperimentId::Fig5];
        let doc = run_doc(0, 1, &ids);
        let text = doc.to_json_pretty();
        let parsed = ShardDocument::parse(&text).unwrap();
        assert_eq!(parsed.manifest, doc.manifest);
        assert_eq!(parsed.reports.len(), doc.reports.len());
        assert_eq!(parsed.to_json_pretty(), text);
        // Another schema is refused, whatever the rest of the document says.
        let schema_2 = text.replacen("\"schema\": 1", "\"schema\": 2", 1);
        let err = ShardDocument::parse(&schema_2).expect_err("schema 2 is refused");
        assert!(err.contains("unsupported shard schema 2"), "{err}");
        // An empty pool is written as null, and a manifest without the key
        // parses to the same document.
        let pool = ",\n    \"pool\": null";
        assert!(text.contains(pool), "{text}");
        let without_pool = ShardDocument::parse(&text.replacen(pool, "", 1)).unwrap();
        assert_eq!(without_pool.manifest, doc.manifest);
    }

    #[test]
    fn merged_run_shards_equal_the_single_process_reports() {
        let all = [ExperimentId::Table1, ExperimentId::Fig2, ExperimentId::Fig5];
        let expected = run_experiments(&all);
        let docs = vec![run_doc(0, 2, &all), run_doc(1, 2, &all)];
        let items: Vec<String> = all.iter().map(|id| id.as_str().to_string()).collect();
        let merged = merge_run(&docs, &items).unwrap();
        assert_eq!(
            ExperimentReport::render_json_array(&merged),
            ExperimentReport::render_json_array(&expected)
        );
    }

    #[test]
    fn merge_rejects_incomplete_or_overlapping_sets() {
        let all = [ExperimentId::Table1, ExperimentId::Fig2, ExperimentId::Fig5];
        let items: Vec<String> = all.iter().map(|id| id.as_str().to_string()).collect();
        let set = || vec![run_doc(0, 2, &all), run_doc(1, 2, &all)];
        assert!(merge_run(&set(), &items).is_ok());
        // A missing shard.
        let lone = run_doc(0, 2, &all);
        assert!(merge_run(std::slice::from_ref(&lone), &items).is_err());
        // A duplicated shard index.
        assert!(merge_run(&[lone.clone(), lone], &items).is_err());
        // Item labels that do not match the coordinator's request.
        let swapped: Vec<String> = items.iter().rev().cloned().collect();
        assert!(merge_run(&set(), &swapped).is_err());
        // A report that is not its item's.
        let mut docs = set();
        docs[1].reports[0] = docs[0].reports[0].clone();
        let err = merge_run(&docs, &items).expect_err("a foreign report");
        assert!(err.contains("shard 1/2: report ids"), "{err}");

        // Any single-field change to either manifest is refused, naming
        // the shard and the field.
        type Edit = fn(&mut ShardManifest);
        let edits: [(&str, Edit); 9] = [
            ("command", |m| m.command = "sweep".to_string()),
            ("shard", |m| m.shard = 1 - m.shard),
            ("shards", |m| m.shards += 1),
            ("start", |m| m.start += 1),
            ("count", |m| m.count += 1),
            ("total", |m| m.total += 1),
            ("items", |m| m.items.push("table4".to_string())),
            ("workload", |m| m.workload = Some("stencil".to_string())),
            ("params", |m| m.params = Some("n=16".to_string())),
        ];
        for victim in 0..2 {
            for (field, edit) in edits {
                let mut docs = set();
                edit(&mut docs[victim].manifest);
                let err = match merge_run(&docs, &items) {
                    Err(err) => err,
                    Ok(_) => panic!("shard {victim}: a changed {field} must be refused"),
                };
                assert!(err.contains(&format!("shard {victim}/2: ")), "{err}");
                assert!(err.contains(&format!("{field} is ")), "{err}");
            }
        }
        // The pool is telemetry, not part of the check.
        let mut docs = set();
        docs[1].manifest.pool = Some(gpu_sim::pool::stats());
        assert!(merge_run(&docs, &items).is_ok());
    }

    #[test]
    fn merged_sweep_shards_render_byte_identically() {
        let engine = workload::find("stencil").unwrap();
        let spec = SweepSpec::new(engine, &[], vec![16, 20, 24]).unwrap();
        let expected = run_sweep(&spec).unwrap();
        let items: Vec<String> = spec.sizes.iter().map(u64::to_string).collect();
        // Three shards over three points, each via a sub-spec.
        let mut docs = Vec::new();
        for index in 0..3u64 {
            let shard = ShardSpec { index, total: 3 };
            let sizes = spec.sizes[shard.range(spec.sizes.len())].to_vec();
            let sub = SweepSpec::new(engine, &[], sizes).unwrap();
            docs.push(ShardDocument {
                manifest: ShardManifest::new(shard, &items, Some(&spec)),
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
        let items = ["16".to_string()];
        let manifest =
            |index| ShardManifest::new(ShardSpec { index, total: 2 }, &items, Some(&spec));
        let docs = vec![
            ShardDocument {
                manifest: manifest(0),
                reports: vec![],
            },
            ShardDocument {
                manifest: manifest(1),
                reports: vec![run_sweep(&spec).unwrap()],
            },
        ];
        let merged = merge_sweep(&spec, &docs).unwrap();
        assert_eq!(merged.to_json_pretty(), expected.to_json_pretty());
        // A shard claiming zero points but carrying a report is rejected —
        // splicing it in would silently duplicate rows.
        let contradictory = vec![
            ShardDocument {
                manifest: manifest(0),
                reports: vec![run_sweep(&spec).unwrap()],
            },
            ShardDocument {
                manifest: manifest(1),
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
