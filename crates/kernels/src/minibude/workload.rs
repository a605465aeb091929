//! The `minibude` scenario: the `fasten` docking drivers behind the
//! [`Workload`] interface.

use super::config::DEFAULT_EXECUTED_POSES;
use super::MiniBudeConfig;
use crate::workload::{run_family, ParamSpec, Params, Workload, WorkloadError};

/// Largest `poses` the workload accepts: a deck holds six `f32` transforms
/// per pose, so this is the most that fit one memo tier
/// ([`crate::cache::MEMO_BUDGET_BYTES`]), 11,184,810. A larger deck is
/// refused before any of it is allocated.
pub const MAX_POSES: u64 =
    crate::cache::MEMO_BUDGET_BYTES / (6 * std::mem::size_of::<f32>() as u64);

/// Largest `natlig × natpro` the workload accepts. Each executed pose
/// costs `natlig × natpro` interactions, so the host time of a point is
/// linear in that product: `sweep minibude --sizes 8` takes 0.2 s at the
/// default 26 × 938, 8 s at 256 × 4096 and 30 s at 1024 × 4096 = 2²²
/// (release build, 2 vCPU), the most that
/// [`crate::hartree_fock::workload::MAX_SAMPLES`] allows one point.
pub const MAX_PAIRS: u64 = 1 << 22;

/// The synthetic-deck seed every preset shares (the deck shape, not its
/// contents, is what the paper's figures depend on).
pub const DECK_SEED: u64 = 0x00b0de;

/// Decodes a validated parameter assignment into a driver configuration.
/// Functional execution covers `DEFAULT_EXECUTED_POSES` poses (rounded to
/// a whole number of work-items) with the cost model extrapolating to the
/// full pose count, exactly as [`MiniBudeConfig::paper`] does.
pub fn config(params: &Params) -> Result<MiniBudeConfig, WorkloadError> {
    Ok(MiniBudeConfig {
        ppwi: params.int("ppwi") as u32,
        wg: params.int("wg") as u32,
        natlig: params.int("natlig") as usize,
        natpro: params.int("natpro") as usize,
        nposes: params.int("poses") as usize,
        executed_poses: DEFAULT_EXECUTED_POSES,
        seed: DECK_SEED,
    }
    .normalised())
}

/// The miniBUDE family (paper Figures 6–7).
pub struct MiniBudeWorkload;

/// The `minibude` workload. The ceilings keep the FLOP product
/// (poses × natlig × natpro × …) far inside `u64` and every value inside
/// the decoder's `u32`/`usize` casts.
pub static MINIBUDE: Workload = Workload {
    name: "minibude",
    description: "miniBUDE fasten docking kernel, bm1-shaped deck (compute bound, Eq. 3)",
    fom_label: "gflops",
    size_param: "ppwi",
    params: &[
        ParamSpec::int("ppwi", 8, 1, 128, "poses per work-item, a power of two"),
        ParamSpec::int("wg", 64, 1, 1024, "work-group (thread block) size"),
        ParamSpec::int("poses", 65_536, 1, MAX_POSES, "total pose count"),
        ParamSpec::int("natlig", 26, 1, 1 << 16, "ligand atom count"),
        ParamSpec::int("natpro", 938, 1, 1 << 20, "protein atom count"),
    ],
    bench_sizes: &[1, 4, 16],
    rules,
    run_point: run_family::<MiniBudeWorkload>,
};

/// The rules between miniBUDE parameters. The kernel body is instantiated
/// only for the paper's power-of-two PPWI values, so any other value is a
/// parameter error here rather than a launch failure later.
fn rules(params: &Params) -> Result<(), WorkloadError> {
    let ppwi = params.int("ppwi");
    if !ppwi.is_power_of_two() {
        return Err(WorkloadError::new(format!(
            "PPWI {ppwi} is not in the paper's sweep (1..128 powers of two)"
        )));
    }
    if params.int("poses") < ppwi {
        return Err(WorkloadError::new("poses must be at least ppwi"));
    }
    let pairs = params.int("natlig") * params.int("natpro");
    if pairs > MAX_PAIRS {
        return Err(WorkloadError::new(format!(
            "natlig * natpro must be in [1, {MAX_PAIRS}], got {pairs}"
        )));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decodes_the_paper_deck_shape_by_default() {
        let config = config(&MINIBUDE.default_params()).unwrap();
        let paper = MiniBudeConfig::paper(8, 64);
        assert_eq!(config, paper);
    }

    #[test]
    fn validation_rejects_degenerate_decks() {
        for bad in [
            "ppwi=0",
            "ppwi=3",
            "ppwi=256",
            "wg=0",
            "wg=2048",
            "natlig=0",
            "poses=4,ppwi=8",
            "poses=11184811",
            "natlig=65536,natpro=1048576",
        ] {
            let mut params = MINIBUDE.default_params();
            params.apply_encoding(bad).unwrap();
            assert!(MINIBUDE.validate(&params).is_err(), "{bad}");
        }
    }

    #[test]
    fn values_beyond_u32_are_rejected_before_the_decoder_truncates_them() {
        // 2^32 + 8 would truncate to ppwi=8 in the u32 cast and then run —
        // with every report row mislabeled as the huge value. Both validate
        // and run must refuse it instead.
        let mut params = MINIBUDE.default_params();
        params.apply_encoding("ppwi=4294967304").unwrap();
        assert!(MINIBUDE.validate(&params).is_err());
        assert!(MINIBUDE.run(&params).is_err());
    }

    #[test]
    fn runs_and_verifies_a_reduced_deck() {
        let mut params = MINIBUDE.default_params();
        params
            .apply_encoding("ppwi=4,wg=8,poses=128,natlig=8,natpro=64")
            .unwrap();
        let output = MINIBUDE.run(&params).unwrap();
        assert_eq!(output.measurements.len(), 4);
        for m in &output.measurements {
            assert_eq!(m.kernel, "fasten");
            assert!(m.fom > 0.0);
            assert!(m.verification.starts_with("passed("), "{}", m.verification);
        }
    }
}
