//! Property-based tests for the shard protocol's parsing and merge
//! invariants: `--shard` specs, shard manifests, and the manifest check
//! that keeps a dispatcher retry from ever corrupting a merged report.

use experiment_report::shard::{merge_run, ShardDocument, ShardManifest, ShardSpec, SHARD_SCHEMA};
use experiment_report::ExperimentReport;
use gpu_sim::PoolStats;
use proptest::prelude::*;

/// A synthetic item label (merge fuzz never runs real experiments).
fn label(i: u64) -> String {
    format!("item{i}")
}

/// A synthetic report whose id matches its manifest label, the invariant
/// `merge_run` checks per item.
fn report_for(item: &str) -> ExperimentReport {
    let mut report = ExperimentReport::new(item, format!("synthetic {item}"));
    report.push_line(format!("row of {item}"));
    report
}

/// The synthetic work list of `total` items.
fn labels(total: u64) -> Vec<String> {
    (0..total).map(label).collect()
}

/// Shard `shard` of `shards` over `total` synthetic items, as a worker
/// emits it.
fn doc(shard: u64, shards: u64, total: u64) -> ShardDocument {
    let spec = ShardSpec {
        index: shard,
        total: shards,
    };
    let manifest = ShardManifest::new(spec, &labels(total), None);
    let reports = manifest.items.iter().map(|item| report_for(item)).collect();
    ShardDocument { manifest, reports }
}

/// `doc` moved to cover `start..start + count`, with labels and reports
/// that follow the move, so only the range itself is wrong.
fn moved(mut doc: ShardDocument, start: u64, count: u64) -> ShardDocument {
    doc.manifest.start = start;
    doc.manifest.count = count;
    doc.manifest.items = (start..start + count).map(label).collect();
    doc.reports = doc
        .manifest
        .items
        .iter()
        .map(|item| report_for(item))
        .collect();
    doc
}

proptest! {
    // Cap the per-property case count so the tier-1 suite stays fast and
    // deterministic; override with PROPTEST_CASES for deeper soak runs.
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// parse ∘ display is the identity on every valid shard spec.
    fn shard_spec_parse_display_round_trips(total in 1u64..10_000, pick in 0u64..10_000) {
        let spec = ShardSpec { index: pick % total, total };
        let parsed = ShardSpec::parse(&spec.to_string()).unwrap();
        prop_assert_eq!(parsed, spec);
        prop_assert_eq!(parsed.to_string(), spec.to_string());
    }

    /// Out-of-range and zero-total specs are rejected however they are
    /// spelled; the error names the flag.
    fn shard_spec_rejects_out_of_range(index in 0u64..10_000, extra in 0u64..100) {
        let total = index.saturating_sub(extra).min(index); // total <= index
        let err = ShardSpec::parse(&format!("{index}/{total}")).unwrap_err();
        prop_assert!(err.contains("--shard"), "{}", err);
        prop_assert!(ShardSpec::parse(&format!("{index}")).is_err());
        prop_assert!(ShardSpec::parse(&format!("{index}/")).is_err());
        prop_assert!(ShardSpec::parse(&format!("/{index}")).is_err());
        prop_assert!(ShardSpec::parse(&format!("{index}/x")).is_err());
        prop_assert!(ShardSpec::parse(&format!("-{index}/{index}")).is_err());
    }

    /// The partition function tiles any work list completely and in order,
    /// whatever the shard count — up to counts near `u64::MAX`, where each
    /// shard's neighbours must still meet it and `floor(i·len/n)` is exact.
    fn shard_ranges_tile_exactly(
        len in 0usize..500, total in 1u64..64,
        below_max in 0u64..1000, pick in 0u64..u64::MAX,
    ) {
        let mut covered = Vec::new();
        for index in 0..total {
            let range = ShardSpec { index, total }.range(len);
            prop_assert!(range.start <= range.end && range.end <= len);
            covered.extend(range);
        }
        prop_assert_eq!(covered, (0..len).collect::<Vec<_>>());

        let total = u64::MAX - below_max;
        let index = pick % total;
        let range = ShardSpec { index, total }.range(len);
        let exact = (u128::from(index) * len as u128 / u128::from(total)) as usize;
        prop_assert_eq!(range.start, exact);
        prop_assert!(range.start <= range.end && range.end <= len && range.len() <= 1);
        if index + 1 < total {
            prop_assert_eq!(ShardSpec { index: index + 1, total }.range(len).start, range.end);
        }
        prop_assert_eq!(ShardSpec { index: 0, total }.range(len).start, 0);
        prop_assert_eq!(ShardSpec { index: total - 1, total }.range(len).end, len);
    }

    /// Shard manifests survive the JSON round trip byte-for-byte, with and
    /// without the optional sweep and pool fields.
    fn shard_manifest_round_trips(
        shard in 0u64..64, extra_shards in 0u64..64,
        start in 0u64..1000, count in 0u64..20, extra_total in 0u64..1000,
        with_sweep in 0u32..2, with_pool in 0u32..2,
        checkouts in 0u64..1_000_000, hits in 0u64..1_000_000,
    ) {
        let manifest = ShardManifest {
            schema: SHARD_SCHEMA,
            command: if with_sweep == 1 { "sweep" } else { "run" }.to_string(),
            shard,
            shards: shard + 1 + extra_shards,
            start,
            count,
            total: start + count + extra_total,
            items: (start..start + count).map(label).collect(),
            workload: (with_sweep == 1).then(|| "stencil".to_string()),
            params: (with_sweep == 1).then(|| format!("n={start}")),
            pool: (with_pool == 1).then(|| PoolStats {
                checkouts,
                hits: hits.min(checkouts),
                misses: checkouts - hits.min(checkouts),
                recycled_bytes: hits * 64,
                fresh_bytes: (checkouts - hits.min(checkouts)) * 64,
                outstanding_bytes: hits * 32,
                high_water_bytes: checkouts * 64,
            }),
        };
        let text = serde_json::to_string_pretty(&manifest).unwrap();
        let parsed: ShardManifest = serde_json::from_str(&text).unwrap();
        prop_assert_eq!(&parsed, &manifest);
        prop_assert_eq!(serde_json::to_string_pretty(&parsed).unwrap(), text);
    }

    /// The workers' own two-shard tiling merges to exactly the expected
    /// labels. Any other cut is refused although it tiles the list, and so
    /// is the clean set with shard 1's range shifted (gap or overlap), even
    /// when its labels and reports move with it.
    fn merge_rejects_gap_and_overlap_tilings(
        total in 2u64..24, cut in 1u64..24, shift in 1i64..6, gap in 0u32..2,
    ) {
        let expected = labels(total);
        let clean = vec![doc(0, 2, total), doc(1, 2, total)];
        let merged = merge_run(&clean, &expected).unwrap();
        prop_assert_eq!(merged.len() as u64, total);

        let cut = cut.min(total - 1);
        let recut = vec![
            moved(doc(0, 2, total), 0, cut),
            moved(doc(1, 2, total), cut, total - cut),
        ];
        prop_assert_eq!(merge_run(&recut, &expected).is_ok(), cut == total / 2);

        // Shift shard 1's start: + opens a gap, - overlaps shard 0.
        let shift = if gap == 1 { shift } else { -shift };
        let shifted_start = (total / 2) as i64 + shift;
        if shifted_start >= 0 && (shifted_start as u64) <= total {
            let shifted_start = shifted_start as u64;
            let broken = vec![
                doc(0, 2, total),
                moved(doc(1, 2, total), shifted_start, total - shifted_start),
            ];
            let err = merge_run(&broken, &expected).unwrap_err();
            prop_assert!(err.contains("shard 1/2"), "{}", err);
        }
    }

    /// A shard that duplicates one of its neighbour's labels (a retry gone
    /// wrong) is rejected even when the counts line up.
    fn merge_rejects_duplicated_labels(total in 2u64..24, dup in 0u64..24) {
        let expected = labels(total);
        let cut = total / 2;
        let mut second = doc(1, 2, total);
        // Overwrite one of shard 1's labels with a label shard 0 owns.
        let victim = (dup % (total - cut)) as usize;
        let stolen = label(dup % cut);
        second.manifest.items[victim] = stolen.clone();
        second.reports[victim] = report_for(&stolen);
        let docs = vec![doc(0, 2, total), second];
        prop_assert!(merge_run(&docs, &expected).is_err());
    }
}
