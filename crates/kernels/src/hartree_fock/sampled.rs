//! Sharded, sampled functional validation for large Hartree–Fock systems.
//!
//! Full functional validation enumerates every quartet, which caps out at
//! [`super::MAX_FUNCTIONAL_NATOMS`] atoms — the 1024-atom paper case implies
//! ~1.4 × 10¹¹ quartets and is host-infeasible. This module makes the large
//! systems checkable anyway:
//!
//! 1. the quartet index space is split into `shards` contiguous shards;
//! 2. each shard is probed at a fixed stride (stratified sampling — purely
//!    arithmetic, no RNG, so the sample set is identical on every run and at
//!    every thread count);
//! 3. the surviving sampled quartets are executed through the portable
//!    kernel on the simulated device — per-quartet ERIs plus the six atomic
//!    Fock updates of Listing 5 — and compared against the CPU reference for
//!    exactly those quartets;
//! 4. the per-shard survivor fractions extrapolate to a whole-space survivor
//!    estimate that is cross-checked against the exact
//!    [`super::surviving_quartets`] two-pointer count.
//!
//! The work scales with the *sample* count, not the quartet count, so a
//! 1024-atom functional validation finishes in seconds on the host.

use super::config::HartreeFockConfig;
use super::cost::surviving_quartets;
use super::geometry::HeliumSystem;
use super::reference::{quartet_eri, scatter_fock};
use super::triangular::pair_decode;
use crate::cache;
use crate::common::compare_slices;
use gpu_sim::{PooledVec, SimError};
use portable_kernel::prelude::*;
use rayon::prelude::*;
use vendor_models::{heuristics, Platform};

/// Default number of sampled probes across the whole quartet space.
pub const DEFAULT_SAMPLES: u64 = 4096;

/// Default number of shards the quartet space is split into.
pub const DEFAULT_SHARDS: u64 = 32;

/// How the sampled probe budget is spread over the shards.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SampleWeighting {
    /// Every shard receives the same probe budget (the historical behaviour
    /// and the default — report goldens are produced with this weighting).
    #[default]
    Uniform,
    /// Importance sampling: each shard's probe budget is proportional to its
    /// coarse Schwarz mass (the mean sampled `schwarz[ij] * schwarz[kl]`
    /// product times the shard width), so probes concentrate where surviving
    /// quartets actually live. The mass pre-pass is a fixed-stride sweep —
    /// purely arithmetic, no RNG — so the weighted plan is as deterministic
    /// as the uniform one.
    Schwarz,
}

impl SampleWeighting {
    /// Stable lowercase label (used in cache keys and diagnostics).
    pub fn label(self) -> &'static str {
        match self {
            SampleWeighting::Uniform => "uniform",
            SampleWeighting::Schwarz => "schwarz",
        }
    }
}

/// Sampling statistics of one shard of the quartet index space.
#[derive(Debug, Clone)]
pub struct ShardStats {
    /// Shard ordinal.
    pub shard: u64,
    /// First quartet index of the shard (inclusive).
    pub start: u64,
    /// One past the last quartet index of the shard.
    pub end: u64,
    /// Probes taken in this shard.
    pub probed: u64,
    /// Probes that survived Schwarz screening.
    pub surviving: u64,
    /// Maximum absolute device-vs-reference ERI error over this shard's
    /// surviving samples.
    pub max_abs_error: f64,
}

impl ShardStats {
    /// Estimated survivor count for the whole shard, extrapolated from the
    /// sampled survivor fraction.
    pub fn estimated_survivors(&self) -> u64 {
        if self.probed == 0 {
            return 0;
        }
        let fraction = self.surviving as f64 / self.probed as f64;
        (fraction * (self.end - self.start) as f64).round() as u64
    }
}

/// The outcome of one sharded, sampled functional validation.
#[derive(Debug, Clone)]
pub struct SampledValidation {
    /// Atom count of the validated system.
    pub natoms: u32,
    /// Gaussian primitives per atom.
    pub ngauss: u32,
    /// Total quartet count of the system.
    pub nquartets: u64,
    /// Per-shard sampling statistics.
    pub shards: PooledVec<ShardStats>,
    /// Probes taken across all shards.
    pub probed: u64,
    /// Sampled quartets that survived screening (and were executed).
    pub executed: u64,
    /// Survivor estimate for the whole quartet space, extrapolated from the
    /// per-shard sampled fractions.
    pub estimated_survivors: u64,
    /// Exact survivor count from the two-pointer sweep.
    pub exact_survivors: u64,
    /// Maximum absolute device-vs-reference error over the sampled Fock
    /// contributions (the atomic-scatter path).
    pub fock_max_abs_error: f64,
    /// Maximum absolute device-vs-reference ERI error over all samples.
    pub eri_max_abs_error: f64,
}

impl SampledValidation {
    /// Relative error of the sampled survivor estimate vs the exact count.
    pub fn survivor_estimate_error(&self) -> f64 {
        if self.exact_survivors == 0 {
            return self.estimated_survivors as f64;
        }
        (self.estimated_survivors as f64 - self.exact_survivors as f64).abs()
            / self.exact_survivors as f64
    }
}

/// Splits `0..nquartets` into `shards` contiguous, near-equal ranges (the
/// first `nquartets % shards` shards are one element longer).
pub fn shard_ranges(nquartets: u64, shards: u64) -> Vec<(u64, u64)> {
    let shards = shards.clamp(1, nquartets.max(1));
    let base = nquartets / shards;
    let extra = nquartets % shards;
    let mut ranges = Vec::with_capacity(shards as usize);
    let mut start = 0;
    for s in 0..shards {
        let len = base + u64::from(s < extra);
        ranges.push((start, start + len));
        start += len;
    }
    ranges
}

/// The run-invariant part of one sampled validation: the stratified probe
/// set, its surviving quartets, the CPU-reference ERIs for those quartets,
/// and the Fock contributions they are expected to produce. Sampling is
/// purely arithmetic (no RNG), so the plan is a function of the system,
/// tolerance and probe counts alone — [`cache::sampled_plan`] generates it
/// once and every repeated run replays it without touching the allocator.
#[derive(Debug)]
pub struct SampledPlan {
    /// Per-shard statistics template, `max_abs_error` zeroed.
    pub shards: Vec<ShardStats>,
    /// Surviving `(shard, quartet)` probes in index order.
    pub survivors: Vec<(u64, u64)>,
    /// CPU-reference ERI of each surviving probe.
    pub host_eris: Vec<f64>,
    /// Expected Fock contributions of the surviving probes (flattened
    /// `natoms × natoms`).
    pub expected_fock: Vec<f64>,
}

impl SampledPlan {
    /// Generates the plan: stratified sampling, reference ERIs, and a serial
    /// scatter of the expected Fock contributions.
    pub(crate) fn generate(
        system: &HeliumSystem,
        screening_tol: f64,
        nquartets: u64,
        samples: u64,
        shards: u64,
        weighting: SampleWeighting,
    ) -> SampledPlan {
        let (stats, survivors) =
            sample_quartets(system, screening_tol, nquartets, samples, shards, weighting);
        let nsamples = survivors.len();
        let host_eris: Vec<f64> = {
            let survivors = &survivors;
            (0..nsamples)
                .into_par_iter()
                .map(move |i| {
                    let (ij, kl) = pair_decode(survivors[i].1);
                    quartet_eri(system, ij, kl)
                })
                .collect()
        };
        let natoms = system.natoms;
        let mut expected_fock = vec![0.0f64; natoms * natoms];
        for (&(_, q), &eri) in survivors.iter().zip(host_eris.iter()) {
            let (ij, kl) = pair_decode(q);
            scatter_fock(natoms, &system.dens, eri, ij, kl, |index, value| {
                expected_fock[index] += value;
            });
        }
        SampledPlan {
            shards: stats,
            survivors,
            host_eris,
            expected_fock,
        }
    }
}

/// Probes the coarse Schwarz mass pre-pass takes per shard. Fixed (and
/// independent of the requested sample budget) so the weighted plan is a
/// deterministic function of the system and shard geometry alone.
const COARSE_MASS_PROBES: u64 = 32;

/// Per-shard probe budgets under a weighting scheme.
///
/// `Uniform` reproduces the historical allocation exactly (`samples`
/// divided evenly, rounded up). `Schwarz` apportions the total budget by
/// each shard's coarse Schwarz mass through largest-remainder rounding,
/// flooring every non-empty shard at one probe so the stratified estimate
/// never loses a stratum.
fn shard_probe_budgets(
    system: &HeliumSystem,
    ranges: &[(u64, u64)],
    samples: u64,
    weighting: SampleWeighting,
) -> Vec<u64> {
    match weighting {
        SampleWeighting::Uniform => {
            let per_shard = samples.div_ceil(ranges.len() as u64).max(1);
            ranges.iter().map(|&(s, e)| per_shard.min(e - s)).collect()
        }
        SampleWeighting::Schwarz => {
            // Coarse mass pre-pass: mean sampled Schwarz product × width.
            let masses: Vec<f64> = ranges
                .iter()
                .map(|&(start, end)| {
                    let len = end - start;
                    if len == 0 {
                        return 0.0;
                    }
                    let probes = COARSE_MASS_PROBES.min(len);
                    let stride = (len / probes).max(1);
                    let mut sum = 0.0f64;
                    for k in 0..probes {
                        let (ij, kl) = pair_decode(start + k * stride);
                        sum += system.schwarz[ij as usize] * system.schwarz[kl as usize];
                    }
                    sum / probes as f64 * len as f64
                })
                .collect();
            let total_mass: f64 = masses.iter().sum();
            if total_mass <= 0.0 {
                // Degenerate mass field: fall back to the uniform split.
                return shard_probe_budgets(system, ranges, samples, SampleWeighting::Uniform);
            }
            // Largest-remainder apportionment of the total budget; ties are
            // broken by shard index, so the result is deterministic.
            let shares: Vec<f64> = masses
                .iter()
                .map(|m| samples as f64 * m / total_mass)
                .collect();
            let mut budgets: Vec<u64> = shares.iter().map(|s| s.floor() as u64).collect();
            let assigned: u64 = budgets.iter().sum();
            let mut order: Vec<usize> = (0..budgets.len()).collect();
            order.sort_by(|&a, &b| {
                let ra = shares[a] - shares[a].floor();
                let rb = shares[b] - shares[b].floor();
                rb.partial_cmp(&ra).unwrap().then(a.cmp(&b))
            });
            for &shard in order
                .iter()
                .cycle()
                .take(samples.saturating_sub(assigned) as usize)
            {
                budgets[shard] += 1;
            }
            // Floor every non-empty shard at one probe and clamp to width.
            for (budget, &(start, end)) in budgets.iter_mut().zip(ranges.iter()) {
                let len = end - start;
                *budget = (*budget).max(u64::from(len > 0)).min(len);
            }
            budgets
        }
    }
}

/// Stratified sample of the quartet space: probes each shard at a fixed
/// stride and partitions the probes by Schwarz screening. Returns the
/// per-shard statistics (errors zeroed) and the surviving `(shard, quartet)`
/// list in index order.
fn sample_quartets(
    system: &HeliumSystem,
    screening_tol: f64,
    nquartets: u64,
    samples: u64,
    shards: u64,
    weighting: SampleWeighting,
) -> (Vec<ShardStats>, Vec<(u64, u64)>) {
    let ranges = shard_ranges(nquartets, shards);
    let budgets = shard_probe_budgets(system, &ranges, samples, weighting);
    let mut stats = Vec::with_capacity(ranges.len());
    let mut survivors = Vec::new();
    for (shard, &(start, end)) in ranges.iter().enumerate() {
        let len = end - start;
        let probes = budgets[shard];
        // probes == 0 only for an empty shard, where the loop body never runs.
        let stride = len.checked_div(probes).map_or(1, |s| s.max(1));
        let mut surviving = 0;
        for k in 0..probes {
            let q = start + k * stride;
            let (ij, kl) = pair_decode(q);
            if system.schwarz[ij as usize] * system.schwarz[kl as usize] > screening_tol {
                surviving += 1;
                survivors.push((shard as u64, q));
            }
        }
        stats.push(ShardStats {
            shard: shard as u64,
            start,
            end,
            probed: probes,
            surviving,
            max_abs_error: 0.0,
        });
    }
    (stats, survivors)
}

/// Runs the sharded, sampled functional validation of the portable
/// Hartree–Fock kernel on `platform`.
///
/// `samples` probes are spread over `shards` shards of the quartet space;
/// the surviving quartets are executed on the simulated device (ERIs plus
/// atomic Fock scatter) and checked against the CPU reference restricted to
/// the same quartets. Works at any `natoms`, including sizes far beyond the
/// full-validation limit.
pub fn run_sampled(
    platform: &Platform,
    config: &HartreeFockConfig,
    samples: u64,
    shards: u64,
) -> Result<SampledValidation, SimError> {
    run_sampled_weighted(platform, config, samples, shards, SampleWeighting::Uniform)
}

/// [`run_sampled`] with an explicit probe-budget weighting. `Uniform` is the
/// historical (and golden) behaviour; `Schwarz` importance-samples the shards
/// by their coarse Schwarz mass, which concentrates probes on the shards that
/// contribute survivors and tightens the extrapolated survivor estimate.
pub fn run_sampled_weighted(
    platform: &Platform,
    config: &HartreeFockConfig,
    samples: u64,
    shards: u64,
    weighting: SampleWeighting,
) -> Result<SampledValidation, SimError> {
    let system = cache::helium_system(config);
    let natoms = system.natoms;
    let nquartets = config.nquartets();

    // The probe set, reference ERIs and expected Fock contributions are
    // run-invariant — fetch the cached plan and copy the mutable shard
    // statistics into pooled storage.
    let plan = cache::sampled_plan(config, samples, shards, weighting);
    let mut stats: PooledVec<ShardStats> = PooledVec::new();
    stats.extend_from_slice(&plan.shards);
    let nsamples = plan.survivors.len();

    // Device execution: one thread per surviving sample, writing its ERI and
    // scattering the six atomic Fock updates of Listing 5.
    let ctx = DeviceContext::from_device(cache::device(platform));
    let dens = LayoutTensor::new(
        ctx.enqueue_create_buffer_from(&system.dens)?,
        Layout::row_major_2d(natoms, natoms),
    )?;
    let fock = LayoutTensor::new(
        ctx.enqueue_create_buffer::<f64>(natoms * natoms)?,
        Layout::row_major_2d(natoms, natoms),
    )?;
    let eris = LayoutTensor::new(
        ctx.enqueue_create_buffer::<f64>(nsamples.max(1))?,
        Layout::row_major_1d(nsamples.max(1)),
    )?;
    if nsamples > 0 {
        let launch = heuristics::hartree_fock_launch(nsamples as u64);
        let (fock_k, dens_k, eris_k) = (fock.clone(), dens.clone(), eris.clone());
        let system_k = &system;
        let survivors_k = &plan.survivors;
        ctx.enqueue_function(launch, move |t| {
            let sample = t.global_x() as usize;
            if sample >= nsamples {
                return;
            }
            let (ij, kl) = pair_decode(survivors_k[sample].1);
            let eri = quartet_eri(system_k, ij, kl);
            eris_k.set(sample, eri);
            let (i, j) = pair_decode(ij);
            let (k, l) = pair_decode(kl);
            let (i, j, k, l) = (i as usize, j as usize, k as usize, l as usize);
            Atomic::fetch_add_f64(&fock_k, i * natoms + j, dens_k.get2(k, l) * eri * 4.0);
            Atomic::fetch_add_f64(&fock_k, k * natoms + l, dens_k.get2(i, j) * eri * 4.0);
            Atomic::fetch_add_f64(&fock_k, i * natoms + k, dens_k.get2(j, l) * -eri);
            Atomic::fetch_add_f64(&fock_k, i * natoms + l, dens_k.get2(j, k) * -eri);
            Atomic::fetch_add_f64(&fock_k, j * natoms + k, dens_k.get2(i, l) * -eri);
            Atomic::fetch_add_f64(&fock_k, j * natoms + l, dens_k.get2(i, k) * -eri);
        })?;
        ctx.synchronize();
    }

    // Compare: per-sample ERIs (exact arithmetic path) and the aggregated
    // Fock contributions (the atomic-scatter path, tolerance for reassociation).
    let mut device_eris: PooledVec<f64> = PooledVec::new();
    eris.to_host_into(&mut device_eris);
    let mut eri_max_abs_error = 0.0f64;
    for (sample, &(shard, _)) in plan.survivors.iter().enumerate() {
        let err = (device_eris[sample] - plan.host_eris[sample]).abs();
        eri_max_abs_error = eri_max_abs_error.max(err);
        let stat = &mut stats[shard as usize];
        stat.max_abs_error = stat.max_abs_error.max(err);
    }
    let mut device_fock: PooledVec<f64> = PooledVec::new();
    fock.to_host_into(&mut device_fock);
    let fock_max_abs_error =
        compare_slices(&device_fock, &plan.expected_fock, 1e-9).map_err(|msg| {
            SimError::InvalidParameter(format!("sampled Hartree-Fock validation failed: {msg}"))
        })?;

    let probed = stats.iter().map(|s| s.probed).sum();
    let estimated_survivors = stats.iter().map(|s| s.estimated_survivors()).sum();
    Ok(SampledValidation {
        natoms: config.natoms,
        ngauss: config.ngauss,
        nquartets,
        shards: stats,
        probed,
        executed: nsamples as u64,
        estimated_survivors,
        exact_survivors: surviving_quartets(&system.schwarz, config.screening_tol),
        fock_max_abs_error,
        eri_max_abs_error,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_ranges_cover_the_space_without_overlap() {
        for (n, shards) in [(100u64, 7u64), (5, 8), (0, 4), (1_000_000, 32)] {
            let ranges = shard_ranges(n, shards);
            let mut cursor = 0;
            for &(start, end) in &ranges {
                assert_eq!(start, cursor);
                assert!(end >= start);
                cursor = end;
            }
            assert_eq!(cursor, n);
        }
    }

    #[test]
    fn sampled_validation_passes_on_a_midsize_system() {
        let config = HartreeFockConfig::paper(64, 3);
        let report = run_sampled(&Platform::portable_h100(), &config, 512, 8).unwrap();
        assert_eq!(report.shards.len(), 8);
        assert!(report.executed > 0);
        assert_eq!(report.eri_max_abs_error, 0.0, "shared ERI arithmetic");
        assert!(report.fock_max_abs_error < 1e-9);
        // The stratified estimate should land near the exact survivor count.
        assert!(
            report.survivor_estimate_error() < 0.35,
            "estimate {} vs exact {}",
            report.estimated_survivors,
            report.exact_survivors
        );
    }

    #[test]
    fn sampling_is_deterministic_across_runs() {
        let config = HartreeFockConfig::paper(64, 3);
        let a = run_sampled(&Platform::portable_h100(), &config, 256, 4).unwrap();
        let b = run_sampled(&Platform::portable_h100(), &config, 256, 4).unwrap();
        assert_eq!(a.executed, b.executed);
        assert_eq!(a.estimated_survivors, b.estimated_survivors);
        for (sa, sb) in a.shards.iter().zip(b.shards.iter()) {
            assert_eq!(sa.surviving, sb.surviving);
            assert_eq!(sa.probed, sb.probed);
        }
    }

    #[test]
    fn schwarz_weighting_reallocates_probes_toward_heavy_shards() {
        let config = HartreeFockConfig::paper(64, 3);
        let system = cache::helium_system(&config);
        let ranges = shard_ranges(config.nquartets(), 16);
        let uniform = shard_probe_budgets(&system, &ranges, 512, SampleWeighting::Uniform);
        let weighted = shard_probe_budgets(&system, &ranges, 512, SampleWeighting::Schwarz);
        assert_eq!(uniform.len(), weighted.len());
        // Importance sampling must actually move budget between shards...
        assert_ne!(uniform, weighted);
        // ...while covering every stratum and respecting the total budget
        // (up to the per-shard floor).
        assert!(weighted.iter().all(|&b| b >= 1));
        let total: u64 = weighted.iter().sum();
        assert!(total >= 512, "floors can only add probes, got {total}");
        assert!(total <= 512 + ranges.len() as u64);
    }

    #[test]
    fn weighted_sampling_is_deterministic_and_passes_validation() {
        let config = HartreeFockConfig::paper(64, 3);
        let platform = Platform::portable_h100();
        let a = run_sampled_weighted(&platform, &config, 512, 8, SampleWeighting::Schwarz).unwrap();
        let b = run_sampled_weighted(&platform, &config, 512, 8, SampleWeighting::Schwarz).unwrap();
        assert_eq!(a.executed, b.executed);
        assert_eq!(a.estimated_survivors, b.estimated_survivors);
        assert!(a.executed > 0);
        assert_eq!(a.eri_max_abs_error, 0.0);
        assert!(a.fock_max_abs_error < 1e-9);
        assert!(
            a.survivor_estimate_error() < 0.35,
            "estimate {} vs exact {}",
            a.estimated_survivors,
            a.exact_survivors
        );
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(8))]

        /// The Schwarz-weighted estimator must stay within the same
        /// extrapolation tolerance the uniform estimator is held to.
        fn weighted_estimator_stays_within_extrapolation_tolerance(
            natoms in 16u32..48,
            samples in 128u64..512,
            shards in 2u64..12,
        ) {
            let config = HartreeFockConfig::paper(natoms, 3);
            let report = run_sampled_weighted(
                &Platform::portable_h100(),
                &config,
                samples,
                shards,
                SampleWeighting::Schwarz,
            )
            .unwrap();
            proptest::prop_assert!(
                report.survivor_estimate_error() < 0.35,
                "natoms={} samples={} shards={}: estimate {} vs exact {}",
                natoms,
                samples,
                shards,
                report.estimated_survivors,
                report.exact_survivors
            );
        }
    }

    #[test]
    fn screening_everything_executes_nothing() {
        let mut config = HartreeFockConfig::validation(16);
        config.screening_tol = 1e12;
        let report = run_sampled(&Platform::portable_h100(), &config, 64, 4).unwrap();
        assert_eq!(report.executed, 0);
        assert_eq!(report.estimated_survivors, 0);
        assert_eq!(report.exact_survivors, 0);
        assert_eq!(report.fock_max_abs_error, 0.0);
    }
}
