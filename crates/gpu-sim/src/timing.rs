//! The analytic timing model: cost × hardware × codegen profile → duration.
//!
//! The model is a three-lane roofline (DESIGN.md §5):
//!
//! ```text
//! t_mem    = bytes / (BW_peak · eff_mem)
//! t_comp   = weighted FLOPs / (FLOP_peak(precision) · eff_comp)
//! t_atomic = atomics · contention / (atomic_rate · eff_atomic)
//! t        = max(t_mem, t_comp, t_atomic) + launch overhead
//! ```
//!
//! The efficiency factors come from an [`ExecutionProfile`], which is how the
//! `vendor-models` crate expresses what a given compiler backend (portable /
//! CUDA / HIP) did with a given kernel: how many registers it allocated, what
//! fraction of peak bandwidth the generated code can stream at, whether
//! fast-math lowered the transcendental cost, and how well its atomic path
//! performs. All paper-derived constants live in that crate, not here.

use crate::stats::KernelCost;
use gpu_spec::GpuSpec;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Cost of a division or square root relative to an add, used when weighting
/// FLOPs for the compute lane.
pub const DIV_SQRT_COST: f64 = 4.0;

/// What a compiler backend produced for a specific kernel on a specific
/// device: the inputs the timing model needs beyond the raw cost.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecutionProfile {
    /// Backend label as it appears in plots ("Mojo", "CUDA", "CUDA -ffast-math", "HIP").
    pub backend: &'static str,
    /// Registers allocated per thread (Tables 2–3 "Registers" row).
    pub registers_per_thread: u32,
    /// Fraction of peak DRAM bandwidth the generated code sustains (0..=1].
    pub mem_efficiency: f64,
    /// Fraction of peak FLOP rate sustained for FMA-dominated code (0..=1].
    pub compute_efficiency: f64,
    /// Cost of one transcendental (sin/cos/exp/pow) in simple-FLOP
    /// equivalents. Fast-math lowers this substantially.
    pub sfu_cost_flops: f64,
    /// Multiplier on the device's sustained FP64 atomic rate (1.0 = the
    /// vendor-native path; the portable path may be faster or much slower).
    pub atomic_throughput_factor: f64,
    /// Fixed kernel-launch overhead in microseconds.
    pub launch_overhead_us: f64,
    /// Constant-memory load instructions per thread (Figure 5 shows Mojo
    /// needs fewer of these than CUDA for Triad).
    pub constant_loads_per_thread: u32,
    /// Relative per-thread instruction-issue overhead (address arithmetic,
    /// predication); >1 means busier SMs for the same arithmetic. Drives the
    /// "Compute SM %" row of the profiling tables.
    pub issue_overhead: f64,
}

impl ExecutionProfile {
    /// A neutral profile achieving ideal efficiency; useful for tests and for
    /// expressing theoretical upper bounds.
    pub fn ideal(backend: &'static str) -> Self {
        ExecutionProfile {
            backend,
            registers_per_thread: 32,
            mem_efficiency: 1.0,
            compute_efficiency: 1.0,
            sfu_cost_flops: 1.0,
            atomic_throughput_factor: 1.0,
            launch_overhead_us: 0.0,
            constant_loads_per_thread: 0,
            issue_overhead: 1.0,
        }
    }

    /// Validates that efficiencies are in `(0, 1]` and costs are sane.
    pub fn validate(&self) -> Result<(), String> {
        if !(0.0..=1.0).contains(&self.mem_efficiency) || self.mem_efficiency == 0.0 {
            return Err(format!(
                "mem_efficiency {} not in (0,1]",
                self.mem_efficiency
            ));
        }
        if !(0.0..=1.0).contains(&self.compute_efficiency) || self.compute_efficiency == 0.0 {
            return Err(format!(
                "compute_efficiency {} not in (0,1]",
                self.compute_efficiency
            ));
        }
        if self.sfu_cost_flops < 1.0 {
            return Err("sfu_cost_flops must be >= 1".to_string());
        }
        if self.atomic_throughput_factor <= 0.0 {
            return Err("atomic_throughput_factor must be positive".to_string());
        }
        if self.launch_overhead_us < 0.0 {
            return Err("launch_overhead_us must be non-negative".to_string());
        }
        if self.issue_overhead < 1.0 {
            return Err("issue_overhead must be >= 1".to_string());
        }
        Ok(())
    }
}

/// Which lane of the model limited the kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Bottleneck {
    /// DRAM bandwidth limited (stencil, BabelStream).
    Memory,
    /// FLOP throughput limited (miniBUDE).
    Compute,
    /// Atomic serialisation limited (Hartree–Fock).
    Atomics,
}

/// The outcome of the timing model for one launch.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LaunchTiming {
    /// Total simulated kernel duration in seconds (including launch overhead).
    pub seconds: f64,
    /// Memory-lane time in seconds.
    pub t_mem: f64,
    /// Compute-lane time in seconds.
    pub t_comp: f64,
    /// Atomic-lane time in seconds.
    pub t_atomic: f64,
    /// The limiting lane.
    pub bottleneck: Bottleneck,
}

impl LaunchTiming {
    /// Duration in milliseconds (the unit of the paper's profiling tables).
    pub fn millis(&self) -> f64 {
        self.seconds * 1e3
    }
}

/// The timing model for one simulated device.
#[derive(Debug, Clone)]
pub struct TimingModel {
    spec: GpuSpec,
}

impl TimingModel {
    /// Creates a timing model for a device.
    pub fn new(spec: GpuSpec) -> Self {
        TimingModel { spec }
    }

    /// The device this model charges time for.
    pub fn spec(&self) -> &GpuSpec {
        &self.spec
    }

    /// Estimates the duration of a launch with the given cost under the given
    /// execution profile.
    pub fn estimate(&self, cost: &KernelCost, profile: &ExecutionProfile) -> LaunchTiming {
        let peak_bw = self.spec.peak_bandwidth_bytes_per_s() * profile.mem_efficiency;
        let t_mem = if cost.total_bytes() == 0 {
            0.0
        } else {
            cost.total_bytes() as f64 / peak_bw
        };

        let peak_flops = self.spec.peak_flops(cost.precision) * profile.compute_efficiency;
        let weighted = cost.flops.weighted(DIV_SQRT_COST, profile.sfu_cost_flops);
        let t_comp = if weighted == 0.0 {
            0.0
        } else {
            weighted / peak_flops
        };

        let t_atomic = if cost.atomics_fp64 == 0 {
            0.0
        } else {
            // Atomics to the same address serialise; the effective rate is the
            // device's sustained contended rate scaled by the backend's atomic
            // path quality and degraded by the square root of the conflict
            // degree (partial combining in the memory system).
            let base_rate = self.spec.atomic_fp64_gups * 1e9 * profile.atomic_throughput_factor;
            let contention_penalty = cost.atomic_conflict_degree.max(1.0).sqrt();
            cost.atomics_fp64 as f64 * contention_penalty / base_rate
        };

        let body = t_mem.max(t_comp).max(t_atomic);
        let bottleneck = if body == t_mem && t_mem >= t_comp && t_mem >= t_atomic {
            Bottleneck::Memory
        } else if body == t_comp && t_comp >= t_atomic {
            Bottleneck::Compute
        } else {
            Bottleneck::Atomics
        };

        let seconds = body + profile.launch_overhead_us * 1e-6;
        LaunchTiming {
            seconds,
            t_mem,
            t_comp,
            t_atomic,
            bottleneck,
        }
    }
}

/// Seeded run-to-run variability model.
///
/// The paper collects at least 100 runs per configuration and plots the raw
/// scatter (Figs. 3–4); stencil runs show visibly more variability than
/// BabelStream. The jitter model reproduces that character deterministically:
/// it draws multiplicative noise around 1.0 from a seeded uniform
/// distribution, plus an occasional slow outlier, so repeated "runs" of the
/// simulator produce a realistic spread without losing reproducibility.
#[derive(Debug, Clone)]
pub struct JitterModel {
    rng: StdRng,
    sigma: f64,
    outlier_probability: f64,
    outlier_slowdown: f64,
}

impl JitterModel {
    /// Creates a jitter model with the given relative spread (e.g. 0.02 for
    /// ±2 %) and seed.
    pub fn new(sigma: f64, seed: u64) -> Self {
        JitterModel {
            rng: StdRng::seed_from_u64(seed),
            sigma,
            outlier_probability: 0.01,
            outlier_slowdown: 1.12,
        }
    }

    /// Draws the multiplicative factor for one run (>= ~1 - sigma).
    pub fn sample(&mut self) -> f64 {
        let base = 1.0 + self.sigma * (self.rng.gen::<f64>() * 2.0 - 1.0);
        if self.rng.gen::<f64>() < self.outlier_probability {
            base * self.outlier_slowdown
        } else {
            base
        }
    }

    /// Applies jitter to a duration in seconds.
    pub fn jitter_seconds(&mut self, seconds: f64) -> f64 {
        seconds * self.sample()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dim::LaunchConfig;
    use crate::stats::{AccessPattern, FlopCounts, KernelCost};
    use gpu_spec::{presets, Precision};

    fn stream_cost(bytes: u64) -> KernelCost {
        KernelCost::builder(
            "copy",
            Precision::Fp64,
            LaunchConfig::cover_1d(bytes / 8, 1024),
            AccessPattern::Stream,
        )
        .dram_traffic(bytes / 2, bytes / 2)
        .build()
    }

    fn compute_cost(flops: u64) -> KernelCost {
        KernelCost::builder(
            "fasten",
            Precision::Fp32,
            LaunchConfig::cover_1d(1 << 16, 64),
            AccessPattern::ComputeTiled,
        )
        .dram_traffic(1 << 20, 1 << 20)
        .flops(FlopCounts {
            fmas: flops / 2,
            ..Default::default()
        })
        .build()
    }

    #[test]
    fn memory_bound_kernel_hits_memory_lane() {
        let model = TimingModel::new(presets::h100_nvl());
        let profile = ExecutionProfile::ideal("test");
        let timing = model.estimate(&stream_cost(1 << 30), &profile);
        assert_eq!(timing.bottleneck, Bottleneck::Memory);
        // 1 GiB at 3.9 TB/s ≈ 0.275 ms.
        assert!((timing.millis() - 0.2753).abs() < 0.01);
    }

    #[test]
    fn compute_bound_kernel_hits_compute_lane() {
        let model = TimingModel::new(presets::h100_nvl());
        let profile = ExecutionProfile::ideal("test");
        let timing = model.estimate(&compute_cost(1 << 40), &profile);
        assert_eq!(timing.bottleneck, Bottleneck::Compute);
    }

    #[test]
    fn atomic_heavy_kernel_hits_atomic_lane() {
        let model = TimingModel::new(presets::h100_nvl());
        let profile = ExecutionProfile::ideal("test");
        let cost = KernelCost::builder(
            "hartree_fock",
            Precision::Fp64,
            LaunchConfig::cover_1d(1 << 20, 256),
            AccessPattern::AtomicScatter,
        )
        .dram_traffic(1 << 20, 1 << 20)
        .atomics(1 << 30, 64.0)
        .build();
        let timing = model.estimate(&cost, &profile);
        assert_eq!(timing.bottleneck, Bottleneck::Atomics);
        assert!(timing.t_atomic > timing.t_mem);
    }

    #[test]
    fn more_bytes_never_run_faster() {
        let model = TimingModel::new(presets::mi300a());
        let profile = ExecutionProfile::ideal("test");
        let t1 = model.estimate(&stream_cost(1 << 24), &profile).seconds;
        let t2 = model.estimate(&stream_cost(1 << 26), &profile).seconds;
        assert!(t2 > t1);
    }

    #[test]
    fn lower_mem_efficiency_is_slower() {
        let model = TimingModel::new(presets::h100_nvl());
        let mut good = ExecutionProfile::ideal("good");
        good.mem_efficiency = 0.9;
        let mut bad = ExecutionProfile::ideal("bad");
        bad.mem_efficiency = 0.6;
        let cost = stream_cost(1 << 28);
        assert!(model.estimate(&cost, &bad).seconds > model.estimate(&cost, &good).seconds);
    }

    #[test]
    fn fast_math_speeds_up_transcendental_kernels() {
        let model = TimingModel::new(presets::h100_nvl());
        let mut precise = ExecutionProfile::ideal("no-ff");
        precise.sfu_cost_flops = 32.0;
        let mut fast = ExecutionProfile::ideal("ff");
        fast.sfu_cost_flops = 8.0;
        let cost = KernelCost::builder(
            "fasten",
            Precision::Fp32,
            LaunchConfig::cover_1d(1 << 16, 64),
            AccessPattern::ComputeTiled,
        )
        .flops(FlopCounts {
            transcendentals: 1 << 32,
            ..Default::default()
        })
        .build();
        let t_precise = model.estimate(&cost, &precise).seconds;
        let t_fast = model.estimate(&cost, &fast).seconds;
        assert!(t_fast < t_precise);
        assert!((t_precise / t_fast - 4.0).abs() < 0.01);
    }

    #[test]
    fn launch_overhead_is_added() {
        let model = TimingModel::new(presets::h100_nvl());
        let mut profile = ExecutionProfile::ideal("test");
        profile.launch_overhead_us = 10.0;
        let cost = stream_cost(1 << 20);
        let with = model.estimate(&cost, &profile).seconds;
        profile.launch_overhead_us = 0.0;
        let without = model.estimate(&cost, &profile).seconds;
        assert!((with - without - 10e-6).abs() < 1e-12);
    }

    #[test]
    fn zero_cost_kernel_takes_only_overhead() {
        let model = TimingModel::new(presets::h100_nvl());
        let mut profile = ExecutionProfile::ideal("test");
        profile.launch_overhead_us = 5.0;
        let cost = KernelCost::builder(
            "empty",
            Precision::Fp32,
            LaunchConfig::cover_1d(1, 1),
            AccessPattern::Stream,
        )
        .build();
        let t = model.estimate(&cost, &profile);
        assert!((t.seconds - 5e-6).abs() < 1e-12);
        assert_eq!(t.t_mem, 0.0);
        assert_eq!(t.t_comp, 0.0);
        assert_eq!(t.t_atomic, 0.0);
    }

    #[test]
    fn profile_validation() {
        let mut p = ExecutionProfile::ideal("x");
        assert!(p.validate().is_ok());
        p.mem_efficiency = 0.0;
        assert!(p.validate().is_err());
        p = ExecutionProfile::ideal("x");
        p.compute_efficiency = 1.5;
        assert!(p.validate().is_err());
        p = ExecutionProfile::ideal("x");
        p.sfu_cost_flops = 0.5;
        assert!(p.validate().is_err());
        p = ExecutionProfile::ideal("x");
        p.atomic_throughput_factor = -1.0;
        assert!(p.validate().is_err());
        p = ExecutionProfile::ideal("x");
        p.issue_overhead = 0.5;
        assert!(p.validate().is_err());
    }

    #[test]
    fn timing_unit_conversions() {
        let t = LaunchTiming {
            seconds: 0.0015,
            t_mem: 0.0015,
            t_comp: 0.0,
            t_atomic: 0.0,
            bottleneck: Bottleneck::Memory,
        };
        assert!((t.millis() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn jitter_is_deterministic_and_bounded() {
        let mut a = JitterModel::new(0.03, 42);
        let mut b = JitterModel::new(0.03, 42);
        let xs: Vec<f64> = (0..100).map(|_| a.sample()).collect();
        let ys: Vec<f64> = (0..100).map(|_| b.sample()).collect();
        assert_eq!(xs, ys);
        for x in xs {
            assert!(x > 0.9 && x < 1.25, "sample {x} out of expected range");
        }
    }

    #[test]
    fn jitter_with_outliers_produces_occasional_slow_runs() {
        // One run in a hundred is 12 % slow; ±1 % noise keeps the rest
        // below 1.01.
        let mut m = JitterModel::new(0.01, 7);
        let samples: Vec<f64> = (0..2000).map(|_| m.sample()).collect();
        let outliers = samples.iter().filter(|&&s| s > 1.1).count();
        assert!(outliers > 0, "expected some outliers");
        assert!(outliers < 250, "outliers should stay a minority");
    }
}
