//! The `minibude` scenario: the `fasten` docking drivers behind the
//! [`Workload`] interface.

use super::config::DEFAULT_EXECUTED_POSES;
use super::MiniBudeConfig;
use crate::workload::{
    check_int_range, run_family, ParamSpec, Params, Workload, WorkloadError, WorkloadOutput,
};

/// Largest `poses` the workload accepts: a deck holds six `f32` transforms
/// per pose, so this is the most that fit one memo tier
/// ([`crate::cache::MEMO_BUDGET_BYTES`]), 11,184,810. A larger deck is
/// refused before any of it is allocated.
pub const MAX_POSES: u64 =
    crate::cache::MEMO_BUDGET_BYTES / (6 * std::mem::size_of::<f32>() as u64);

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

/// The miniBUDE workload (paper Figures 6–7).
pub struct MiniBudeWorkload;

impl Workload for MiniBudeWorkload {
    fn name(&self) -> &'static str {
        "minibude"
    }

    fn description(&self) -> &'static str {
        "miniBUDE fasten docking kernel, bm1-shaped deck (compute bound, Eq. 3)"
    }

    fn fom_label(&self) -> &'static str {
        "gflops"
    }

    fn size_param(&self) -> &'static str {
        "ppwi"
    }

    fn params(&self) -> Vec<ParamSpec> {
        vec![
            ParamSpec::int(
                "ppwi",
                8,
                "poses per work-item (a power of two in 1..128, the paper's sweep)",
            ),
            ParamSpec::int("wg", 64, "work-group (thread block) size"),
            ParamSpec::int("poses", 65_536, "total pose count (at most 11184810)"),
            ParamSpec::int("natlig", 26, "ligand atom count"),
            ParamSpec::int("natpro", 938, "protein atom count"),
        ]
    }

    fn bench_sizes(&self) -> &'static [u64] {
        &[1, 4, 16]
    }

    fn validate(&self, params: &Params) -> Result<(), WorkloadError> {
        // Raw u64 bounds *before* the decoder's u32/usize casts, so
        // out-of-range values are rejected instead of truncated; the
        // ceilings keep the FLOP product (poses × natlig × natpro × …)
        // far inside u64. The kernel body is instantiated only for the
        // paper's PPWI values, so any other value is a parameter error here
        // rather than a launch failure later.
        let ppwi = params.int("ppwi");
        if !MiniBudeConfig::paper_ppwi_sweep()
            .into_iter()
            .any(|p| u64::from(p) == ppwi)
        {
            return Err(WorkloadError::new(format!(
                "PPWI {ppwi} is not in the paper's sweep (1..128 powers of two)"
            )));
        }
        check_int_range(params, "wg", 1, 1024)?;
        check_int_range(params, "poses", 1, MAX_POSES)?;
        check_int_range(params, "natlig", 1, 1 << 16)?;
        check_int_range(params, "natpro", 1, 1 << 20)?;
        if params.int("poses") < params.int("ppwi") {
            return Err(WorkloadError::new("poses must be at least ppwi"));
        }
        Ok(())
    }

    fn run(&self, params: &Params) -> Result<WorkloadOutput, WorkloadError> {
        run_family(self, params)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decodes_the_paper_deck_shape_by_default() {
        let config = config(&MiniBudeWorkload.default_params()).unwrap();
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
        ] {
            let mut params = MiniBudeWorkload.default_params();
            params.apply_encoding(bad).unwrap();
            assert!(MiniBudeWorkload.validate(&params).is_err(), "{bad}");
        }
    }

    #[test]
    fn values_beyond_u32_are_rejected_before_the_decoder_truncates_them() {
        // 2^32 + 8 would truncate to ppwi=8 in the u32 cast and then run —
        // with every report row mislabeled as the huge value. Both validate
        // and run must refuse it instead.
        let mut params = MiniBudeWorkload.default_params();
        params.apply_encoding("ppwi=4294967304").unwrap();
        assert!(MiniBudeWorkload.validate(&params).is_err());
        assert!(MiniBudeWorkload.run(&params).is_err());
    }

    #[test]
    fn runs_and_verifies_a_reduced_deck() {
        let mut params = MiniBudeWorkload.default_params();
        params
            .apply_encoding("ppwi=4,wg=8,poses=128,natlig=8,natpro=64")
            .unwrap();
        let output = MiniBudeWorkload.run(&params).unwrap();
        assert_eq!(output.measurements.len(), 4);
        for m in &output.measurements {
            assert_eq!(m.kernel, "fasten");
            assert!(m.fom > 0.0);
            assert!(m.verification.starts_with("passed("), "{}", m.verification);
        }
    }
}
