//! The `hartree-fock` scenarios: the exact and sampled Hartree–Fock drivers
//! behind the [`Workload`] interface.

use super::{run_sampled, HartreeFockConfig, DEFAULT_SAMPLES, DEFAULT_SHARDS};
use crate::workload::{
    paper_platform_pairs, run_family, Measurement, ParamSpec, Params, Workload, WorkloadError,
    WorkloadOutput,
};
use gpu_sim::{PooledString, PooledVec};

/// Largest `atoms` either Hartree–Fock workload accepts. One point holds
/// about `atoms²/2` Schwarz factors and an `atoms²` density matrix: 4096
/// atoms peaks near 640 MiB resident and takes about a second, so a single
/// sweep or `serve` request cannot exhaust the host. It also keeps the
/// quartet count (≈ atoms⁴/8) far inside `u64`.
pub const MAX_ATOMS: u64 = 4096;

/// Largest `samples` the sampled workload accepts. A probe costs about
/// 28 µs on the host, so 2²⁰ probes bound one point near 30 s. `shards` may
/// not exceed `samples`, which also bounds the per-shard tables.
pub const MAX_SAMPLES: u64 = 1 << 20;

/// Resolves the `ngauss` parameter: `0` (the default) selects the paper's
/// pairing of 6 Gaussians at 1024+ atoms and 3 below.
pub fn resolve_ngauss(atoms: u64, ngauss: u64) -> u32 {
    if ngauss != 0 {
        ngauss as u32
    } else if atoms >= 1024 {
        6
    } else {
        3
    }
}

/// Decodes a validated parameter assignment into a driver configuration.
pub fn config(params: &Params) -> Result<HartreeFockConfig, WorkloadError> {
    let atoms = params.int("atoms");
    Ok(HartreeFockConfig::paper(
        atoms as u32,
        resolve_ngauss(atoms, params.int("ngauss")),
    ))
}

/// The `atoms` parameter of both workloads, at their own defaults.
const fn atoms(default: u64) -> ParamSpec {
    ParamSpec::int("atoms", default, 1, MAX_ATOMS, "helium atom count")
}

/// The `ngauss` parameter of both workloads; its ceiling sits far inside
/// the decoder's `u32` cast.
const NGAUSS: ParamSpec = ParamSpec::int(
    "ngauss",
    0,
    0,
    64,
    "Gaussian primitives per atom (0 = paper pairing: 6 at 1024+, 3 below)",
);

/// The exact Hartree–Fock family (paper Table 4): full quartet sweep
/// through the timing model, functional validation below
/// [`super::MAX_FUNCTIONAL_NATOMS`] atoms.
pub struct HartreeFockWorkload;

/// The `hartree-fock` workload.
pub static HARTREE_FOCK: Workload = Workload {
    name: "hartree-fock",
    description: "Hartree-Fock electron-repulsion kernel, exact quartet sweep (atomics bound)",
    fom_label: "millis",
    size_param: "atoms",
    params: &[atoms(64), NGAUSS],
    bench_sizes: &[16, 24],
    rules: |_| Ok(()),
    run_point: run_family::<HartreeFockWorkload>,
};

/// The `hartree-fock-sampled` workload: sharded stratified functional
/// validation at sizes the exact sweep cannot reach on the host. Its figure
/// of merit is the extrapolated Schwarz-survivor count; `seconds` is 0
/// because the scenario validates numerics rather than timing a launch.
pub static HARTREE_FOCK_SAMPLED: Workload = Workload {
    name: "hartree-fock-sampled",
    description: "Hartree-Fock sampled functional validation (sharded stratified quartet probes)",
    fom_label: "estimated_survivors",
    size_param: "atoms",
    params: &[
        atoms(1024),
        NGAUSS,
        ParamSpec::int(
            "samples",
            DEFAULT_SAMPLES,
            1,
            MAX_SAMPLES,
            "sampled probes across the quartet space",
        ),
        ParamSpec::int(
            "shards",
            DEFAULT_SHARDS,
            1,
            MAX_SAMPLES,
            "shard count of the quartet space, at most samples",
        ),
    ],
    bench_sizes: &[96],
    rules: sampled_rules,
    run_point: sampled_point,
};

/// The sampled workload's one cross-parameter rule: `shards ≤ samples`.
fn sampled_rules(params: &Params) -> Result<(), WorkloadError> {
    let (samples, shards) = (params.int("samples"), params.int("shards"));
    if shards > samples {
        return Err(WorkloadError::new(format!(
            "parameter 'shards' must be in [1, {samples}], got {shards}"
        )));
    }
    Ok(())
}

/// Runs one validated sampled point on the portable H100 platform, shared
/// with the timing workloads.
fn sampled_point(params: &Params) -> Result<WorkloadOutput, WorkloadError> {
    let config = config(params)?;
    let platform = &paper_platform_pairs()[0];
    let report = run_sampled(
        platform,
        &config,
        params.int("samples"),
        params.int("shards"),
    )?;
    let measurement = Measurement {
        device: platform.spec.name,
        backend: platform.backend.label(),
        kernel: "hartree_fock_sampled",
        seconds: 0.0,
        fom: report.estimated_survivors as f64,
        verification: PooledString::from_fmt(format_args!(
            "passed(eri={:.3e},fock={:.3e},exact_survivors={},estimate_err={:.2}%)",
            report.eri_max_abs_error,
            report.fock_max_abs_error,
            report.exact_survivors,
            report.survivor_estimate_error() * 100.0
        )),
    };
    let mut measurements = PooledVec::new();
    measurements.push(measurement);
    Ok(WorkloadOutput {
        params: params.clone(),
        measurements,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ngauss_auto_matches_the_paper_pairing() {
        assert_eq!(resolve_ngauss(64, 0), 3);
        assert_eq!(resolve_ngauss(1024, 0), 6);
        assert_eq!(resolve_ngauss(1024, 4), 4);
        let mut params = HARTREE_FOCK.default_params();
        params.apply_encoding("atoms=1024").unwrap();
        assert_eq!(config(&params).unwrap().ngauss, 6);
    }

    #[test]
    fn exact_workload_times_all_four_platforms() {
        let mut params = HARTREE_FOCK.default_params();
        params.apply_encoding("atoms=12").unwrap();
        let output = HARTREE_FOCK.run(&params).unwrap();
        assert_eq!(output.measurements.len(), 4);
        for m in &output.measurements {
            assert_eq!(m.kernel, "hartree_fock");
            assert!(m.fom > 0.0);
            assert!(m.verification.starts_with("passed("), "{}", m.verification);
        }
    }

    #[test]
    fn sampled_workload_extrapolates_survivors_beyond_the_exact_limit() {
        let mut params = HARTREE_FOCK_SAMPLED.default_params();
        params
            .apply_encoding("atoms=96,samples=256,shards=8")
            .unwrap();
        let output = HARTREE_FOCK_SAMPLED.run(&params).unwrap();
        assert_eq!(output.measurements.len(), 1);
        let m = &output.measurements[0];
        assert!(m.fom > 0.0, "survivor estimate should be positive");
        assert_eq!(m.seconds, 0.0);
        assert!(m.verification.contains("exact_survivors="));
    }

    #[test]
    fn sampled_validation_rejects_zero_counts() {
        // Zero counts, and counts large enough to exhaust the host.
        for bad in [
            "samples=0",
            "shards=0",
            "atoms=4097",
            "samples=1048577",
            "samples=64,shards=65",
            "shards=4294967296",
        ] {
            let mut params = HARTREE_FOCK_SAMPLED.default_params();
            params.apply_encoding(bad).unwrap();
            assert!(HARTREE_FOCK_SAMPLED.validate(&params).is_err(), "{bad}");
        }
    }

    #[test]
    fn out_of_range_counts_are_rejected_before_any_truncating_cast() {
        // ngauss = 2^32 would truncate to 0 (and 2^32 + 3 to 3) in the u32
        // cast, silently running a different basis than the label claims;
        // atoms beyond the ceiling would exhaust the host's memory.
        for bad in [
            "ngauss=4294967296",
            "ngauss=4294967299",
            "atoms=100000",
            "atoms=4097",
        ] {
            let mut params = HARTREE_FOCK.default_params();
            params.apply_encoding(bad).unwrap();
            assert!(HARTREE_FOCK.validate(&params).is_err(), "{bad}");
            assert!(HARTREE_FOCK.run(&params).is_err(), "{bad}");
        }
    }
}
