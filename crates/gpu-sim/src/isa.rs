//! Instruction-mix summaries standing in for the paper's SASS analysis.
//!
//! Figure 5 of the paper compares the NVIDIA SASS generated by Mojo and CUDA
//! for the BabelStream Triad kernel and draws three conclusions: (i) Mojo
//! emits fewer constant-memory loads, (ii) Mojo reports fewer live registers
//! but more integer adds in the main loop, and (iii) global loads/stores are
//! identical. A Rust reproduction has no SASS, but the same conclusions can be
//! read off an *instruction-mix* summary derived from the kernel cost and the
//! backend execution profile — which is what this module produces.

use crate::stats::KernelCost;
use crate::timing::ExecutionProfile;
use std::fmt;

/// Per-thread instruction-mix estimate for one kernel under one backend.
#[derive(Debug, Clone, PartialEq)]
pub struct InstructionMix {
    /// Backend label ("Mojo", "CUDA", "HIP").
    pub backend: &'static str,
    /// Kernel name.
    pub kernel: &'static str,
    /// Global-memory load instructions per thread (LDG).
    pub ldg: f64,
    /// Global-memory store instructions per thread (STG).
    pub stg: f64,
    /// Constant-memory load instructions per thread (LDC).
    pub ldc: u32,
    /// Fused multiply-add instructions per thread (FFMA/DFMA).
    pub fma: f64,
    /// Add instructions per thread (FADD/DADD).
    pub fadd: f64,
    /// Multiply instructions per thread (FMUL/DMUL).
    pub fmul: f64,
    /// Integer add instructions per thread (IADD3 — address arithmetic).
    pub iadd: f64,
    /// Special-function-unit instructions per thread (MUFU: sin/cos/ex2/…).
    pub mufu: f64,
    /// Live registers reported by the backend.
    pub live_registers: u32,
}

impl InstructionMix {
    /// Derives the per-thread instruction mix from a launch cost and a
    /// backend execution profile.
    pub fn derive(cost: &KernelCost, profile: &ExecutionProfile) -> Self {
        let threads = cost.launch.total_threads().max(1) as f64;
        // Address arithmetic scales with the number of memory instructions and
        // the backend's issue overhead; constants that are *not* loaded from
        // constant memory are instead materialised with integer arithmetic,
        // which is exactly the trade Fig. 5 shows (Mojo: fewer LDC, more IADD3).
        let mem_insts = cost.loads_per_thread + cost.stores_per_thread;
        let materialised_constants = 4.0 - f64::from(profile.constant_loads_per_thread.min(4));
        let iadd = (mem_insts + 1.0) * profile.issue_overhead + materialised_constants;
        InstructionMix {
            backend: profile.backend,
            kernel: cost.kernel_name,
            ldg: cost.loads_per_thread,
            stg: cost.stores_per_thread,
            ldc: profile.constant_loads_per_thread,
            fma: cost.flops.fmas as f64 / threads,
            fadd: cost.flops.adds as f64 / threads,
            fmul: cost.flops.muls as f64 / threads,
            iadd,
            mufu: cost.flops.transcendentals as f64 / threads,
            live_registers: profile.registers_per_thread,
        }
    }

    /// Total instructions per thread in this summary.
    pub fn total(&self) -> f64 {
        self.ldg
            + self.stg
            + f64::from(self.ldc)
            + self.fma
            + self.fadd
            + self.fmul
            + self.iadd
            + self.mufu
    }
}

impl fmt::Display for InstructionMix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{} / {} (per thread)", self.backend, self.kernel)?;
        writeln!(
            f,
            "  LDG  {:>8.2}   STG  {:>8.2}   LDC  {:>4}",
            self.ldg, self.stg, self.ldc
        )?;
        writeln!(
            f,
            "  FMA  {:>8.2}   FADD {:>8.2}   FMUL {:>8.2}",
            self.fma, self.fadd, self.fmul
        )?;
        writeln!(f, "  IADD {:>8.2}   MUFU {:>8.2}", self.iadd, self.mufu)?;
        write!(f, "  live registers: {}", self.live_registers)
    }
}

/// A side-by-side comparison of two instruction mixes (Mojo vs. vendor),
/// carrying the observations Fig. 5 makes in prose.
#[derive(Debug, Clone, PartialEq)]
pub struct MixComparison {
    /// The portable backend's mix.
    pub portable: InstructionMix,
    /// The vendor backend's mix.
    pub vendor: InstructionMix,
}

impl MixComparison {
    /// Builds a comparison.
    pub fn new(portable: InstructionMix, vendor: InstructionMix) -> Self {
        MixComparison { portable, vendor }
    }

    /// True when the portable backend issues fewer constant loads
    /// (observation (i) of Fig. 5).
    pub fn portable_has_fewer_constant_loads(&self) -> bool {
        self.portable.ldc < self.vendor.ldc
    }

    /// True when the portable backend issues more integer adds
    /// (observation (ii) of Fig. 5).
    pub fn portable_has_more_iadd(&self) -> bool {
        self.portable.iadd > self.vendor.iadd
    }

    /// True when global loads and stores are identical between the two
    /// (observation (iii) of Fig. 5).
    pub fn global_accesses_match(&self) -> bool {
        (self.portable.ldg - self.vendor.ldg).abs() < f64::EPSILON
            && (self.portable.stg - self.vendor.stg).abs() < f64::EPSILON
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dim::LaunchConfig;
    use crate::stats::{AccessPattern, FlopCounts};
    use gpu_spec::Precision;

    fn triad_cost() -> KernelCost {
        let n = 1u64 << 20;
        KernelCost::builder(
            "triad",
            Precision::Fp64,
            LaunchConfig::cover_1d(n, 1024),
            AccessPattern::Stream,
        )
        .dram_traffic(2 * n * 8, n * 8)
        .flops(FlopCounts {
            fmas: n,
            ..Default::default()
        })
        .loads_stores_per_thread(2.0, 1.0)
        .build()
    }

    fn profile(backend: &'static str, ldc: u32, issue: f64, regs: u32) -> ExecutionProfile {
        let mut p = ExecutionProfile::ideal(backend);
        p.constant_loads_per_thread = ldc;
        p.issue_overhead = issue;
        p.registers_per_thread = regs;
        p
    }

    #[test]
    fn derive_populates_memory_and_flop_columns() {
        let cost = triad_cost();
        let mix = InstructionMix::derive(&cost, &profile("CUDA", 3, 1.0, 18));
        assert_eq!(mix.ldg, 2.0);
        assert_eq!(mix.stg, 1.0);
        assert_eq!(mix.ldc, 3);
        assert!(mix.fma > 0.0);
        assert_eq!(mix.live_registers, 18);
        assert!(mix.total() > 0.0);
    }

    #[test]
    fn comparison_reproduces_fig5_observations() {
        let cost = triad_cost();
        // Mojo: fewer constant loads, fewer live registers, more IADD.
        let mojo = InstructionMix::derive(&cost, &profile("Mojo", 1, 1.4, 16));
        let cuda = InstructionMix::derive(&cost, &profile("CUDA", 3, 1.0, 18));
        let cmp = MixComparison::new(mojo, cuda);
        assert!(cmp.portable_has_fewer_constant_loads());
        assert!(cmp.portable_has_more_iadd());
        assert!(cmp.global_accesses_match());
    }

    #[test]
    fn display_includes_backend_and_registers() {
        let cost = triad_cost();
        let mix = InstructionMix::derive(&cost, &profile("Mojo", 1, 1.4, 16));
        let s = mix.to_string();
        assert!(s.contains("Mojo"));
        assert!(s.contains("live registers: 16"));
        assert!(s.contains("LDG"));
    }
}
