//! The `hartree-fock` scenarios: the exact and sampled Hartree–Fock drivers
//! behind the [`Workload`] interface.

use super::{run_sampled, HartreeFockConfig, DEFAULT_SAMPLES, DEFAULT_SHARDS};
use crate::workload::{
    check_int_range, paper_platform_pairs, Measurement, ParamSpec, Params, Workload, WorkloadError,
    WorkloadOutput,
};
use gpu_sim::{istr, istr_fmt, PooledVec};

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

fn shared_params(default_atoms: u64) -> Vec<ParamSpec> {
    vec![
        ParamSpec::int("atoms", default_atoms, "helium atom count"),
        ParamSpec::int(
            "ngauss",
            0,
            "Gaussian primitives per atom (0 = paper pairing: 6 at 1024+, 3 below)",
        ),
    ]
}

fn validate_shared(params: &Params) -> Result<(), WorkloadError> {
    // The atom ceiling keeps nquartets ≈ atoms⁴/8 inside u64; the ngauss
    // bound is checked before the decoder's u32 cast so oversized values
    // are rejected, not truncated (ngauss=0 means the paper pairing).
    check_int_range(params, "atoms", 1, 1 << 16)?;
    check_int_range(params, "ngauss", 0, 64)?;
    Ok(())
}

/// The exact Hartree–Fock workload (paper Table 4): full quartet sweep
/// through the timing model, functional validation below
/// [`super::MAX_FUNCTIONAL_NATOMS`] atoms.
pub struct HartreeFockWorkload;

impl Workload for HartreeFockWorkload {
    fn name(&self) -> &'static str {
        "hartree-fock"
    }

    fn description(&self) -> &'static str {
        "Hartree-Fock electron-repulsion kernel, exact quartet sweep (atomics bound)"
    }

    fn fom_label(&self) -> &'static str {
        "millis"
    }

    fn size_param(&self) -> &'static str {
        "atoms"
    }

    fn params(&self) -> Vec<ParamSpec> {
        shared_params(64)
    }

    fn bench_sizes(&self) -> &'static [u64] {
        &[16, 24]
    }

    fn validate(&self, params: &Params) -> Result<(), WorkloadError> {
        validate_shared(params)
    }

    fn run(&self, params: &Params) -> Result<WorkloadOutput, WorkloadError> {
        self.validate(params)?;
        let config = config(params)?;
        let mut measurements = PooledVec::new();
        for platform in paper_platform_pairs() {
            let run = super::run(platform, &config)?;
            let fom = run.millis();
            measurements.push(Measurement::from_run(&run, fom));
        }
        Ok(WorkloadOutput {
            params: params.clone(),
            measurements,
        })
    }
}

/// The sampled Hartree–Fock workload: sharded stratified functional
/// validation at sizes the exact sweep cannot reach on the host. Its figure
/// of merit is the extrapolated Schwarz-survivor count; `seconds` is 0
/// because the scenario validates numerics rather than timing a launch.
pub struct HartreeFockSampledWorkload;

impl Workload for HartreeFockSampledWorkload {
    fn name(&self) -> &'static str {
        "hartree-fock-sampled"
    }

    fn description(&self) -> &'static str {
        "Hartree-Fock sampled functional validation (sharded stratified quartet probes)"
    }

    fn fom_label(&self) -> &'static str {
        "estimated_survivors"
    }

    fn size_param(&self) -> &'static str {
        "atoms"
    }

    fn params(&self) -> Vec<ParamSpec> {
        let mut specs = shared_params(1024);
        specs.push(ParamSpec::int(
            "samples",
            DEFAULT_SAMPLES,
            "sampled probes across the quartet space",
        ));
        specs.push(ParamSpec::int(
            "shards",
            DEFAULT_SHARDS,
            "shard count of the quartet space",
        ));
        specs
    }

    fn bench_sizes(&self) -> &'static [u64] {
        &[96]
    }

    fn validate(&self, params: &Params) -> Result<(), WorkloadError> {
        validate_shared(params)?;
        check_int_range(params, "samples", 1, 1 << 32)?;
        check_int_range(params, "shards", 1, 1 << 32)?;
        Ok(())
    }

    fn run(&self, params: &Params) -> Result<WorkloadOutput, WorkloadError> {
        self.validate(params)?;
        let config = config(params)?;
        // The portable H100 platform, shared with the timing workloads.
        let platform = &paper_platform_pairs()[0];
        let report = run_sampled(
            platform,
            &config,
            params.int("samples"),
            params.int("shards"),
        )?;
        let measurement = Measurement {
            device: istr(&platform.spec.name),
            backend: istr(platform.backend.label()),
            kernel: istr("hartree_fock_sampled"),
            seconds: 0.0,
            fom: report.estimated_survivors as f64,
            verification: istr_fmt(format_args!(
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
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ngauss_auto_matches_the_paper_pairing() {
        assert_eq!(resolve_ngauss(64, 0), 3);
        assert_eq!(resolve_ngauss(1024, 0), 6);
        assert_eq!(resolve_ngauss(1024, 4), 4);
        let mut params = HartreeFockWorkload.default_params();
        params.apply_encoding("atoms=1024").unwrap();
        assert_eq!(config(&params).unwrap().ngauss, 6);
    }

    #[test]
    fn exact_workload_times_all_four_platforms() {
        let mut params = HartreeFockWorkload.default_params();
        params.apply_encoding("atoms=12").unwrap();
        let output = HartreeFockWorkload.run(&params).unwrap();
        assert_eq!(output.measurements.len(), 4);
        for m in &output.measurements {
            assert_eq!(m.kernel, "hartree_fock");
            assert!(m.fom > 0.0);
            assert!(m.verification.starts_with("passed("), "{}", m.verification);
        }
    }

    #[test]
    fn sampled_workload_extrapolates_survivors_beyond_the_exact_limit() {
        let mut params = HartreeFockSampledWorkload.default_params();
        params
            .apply_encoding("atoms=96,samples=256,shards=8")
            .unwrap();
        let output = HartreeFockSampledWorkload.run(&params).unwrap();
        assert_eq!(output.measurements.len(), 1);
        let m = &output.measurements[0];
        assert!(m.fom > 0.0, "survivor estimate should be positive");
        assert_eq!(m.seconds, 0.0);
        assert!(m.verification.contains("exact_survivors="));
    }

    #[test]
    fn sampled_validation_rejects_zero_counts() {
        for bad in ["samples=0", "shards=0"] {
            let mut params = HartreeFockSampledWorkload.default_params();
            params.apply_encoding(bad).unwrap();
            assert!(HartreeFockSampledWorkload.validate(&params).is_err());
        }
    }

    #[test]
    fn out_of_range_counts_are_rejected_before_any_truncating_cast() {
        // ngauss = 2^32 would truncate to 0 (and 2^32 + 3 to 3) in the u32
        // cast, silently running a different basis than the label claims;
        // atoms beyond the ceiling would overflow the quartet count.
        for bad in ["ngauss=4294967296", "ngauss=4294967299", "atoms=100000"] {
            let mut params = HartreeFockWorkload.default_params();
            params.apply_encoding(bad).unwrap();
            assert!(HartreeFockWorkload.validate(&params).is_err(), "{bad}");
            assert!(HartreeFockWorkload.run(&params).is_err(), "{bad}");
        }
    }
}
