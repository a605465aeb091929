//! Analytic launch-cost descriptions.
//!
//! The paper's figures of merit are all *derived* quantities: bytes moved per
//! second (stencil, BabelStream), FLOPs per second (miniBUDE), or raw kernel
//! time (Hartree–Fock). Each kernel implementation in this repository
//! therefore declares the cost of a launch — bytes of device-memory traffic,
//! floating-point operations by class, atomics and their contention — and the
//! timing model converts that cost into simulated time. Unit tests in the
//! kernels crate validate the declared costs against instrumented counts on
//! small problems.
//!
//! Host-side memory behaviour is part of the cost story too: [`PoolStats`]
//! (re-exported from [`crate::pool`]) snapshots the buffer-pool counters —
//! checkouts, hits/misses, recycled vs fresh bytes, high-water mark — so
//! reports and the benchmark's tracer can attribute allocator traffic.

use crate::dim::LaunchConfig;
use gpu_spec::Precision;
use serde::{Deserialize, Serialize};

pub use crate::pool::PoolStats;

/// Classified floating-point operation counts for one kernel launch.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct FlopCounts {
    /// Plain additions/subtractions.
    pub adds: u64,
    /// Plain multiplications.
    pub muls: u64,
    /// Fused multiply-adds (each counts as two FLOPs).
    pub fmas: u64,
    /// Divisions.
    pub divs: u64,
    /// Square roots.
    pub sqrts: u64,
    /// Transcendental operations (sin, cos, exp, log, pow) — the operations
    /// whose cost depends on whether fast-math is available.
    pub transcendentals: u64,
}

impl FlopCounts {
    /// Total FLOPs using the usual convention (FMA = 2, everything else = 1).
    pub fn total(&self) -> u64 {
        self.adds + self.muls + 2 * self.fmas + self.divs + self.sqrts + self.transcendentals
    }

    /// Issue-cost in "simple FLOP equivalents", charging divisions and square
    /// roots `div_cost` each and transcendentals `sfu_cost` each. This is what
    /// the timing model feeds the compute roofline, because a `sin` costs far
    /// more than an `add` even though both count as one FLOP in Eq. (3).
    pub fn weighted(&self, div_cost: f64, sfu_cost: f64) -> f64 {
        (self.adds + self.muls) as f64
            + 2.0 * self.fmas as f64
            + div_cost * (self.divs + self.sqrts) as f64
            + sfu_cost * self.transcendentals as f64
    }

    /// Element-wise sum of two counts.
    pub fn combine(&self, other: &FlopCounts) -> FlopCounts {
        FlopCounts {
            adds: self.adds + other.adds,
            muls: self.muls + other.muls,
            fmas: self.fmas + other.fmas,
            divs: self.divs + other.divs,
            sqrts: self.sqrts + other.sqrts,
            transcendentals: self.transcendentals + other.transcendentals,
        }
    }

    /// Scales every class by `factor` (used to go from per-item to per-launch).
    pub fn scale(&self, factor: u64) -> FlopCounts {
        FlopCounts {
            adds: self.adds * factor,
            muls: self.muls * factor,
            fmas: self.fmas * factor,
            divs: self.divs * factor,
            sqrts: self.sqrts * factor,
            transcendentals: self.transcendentals * factor,
        }
    }
}

/// The dominant device-memory access pattern of a kernel, used by codegen
/// models to pick achievable-bandwidth fractions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AccessPattern {
    /// Unit-stride streaming (BabelStream Copy/Mul/Add/Triad).
    Stream,
    /// Three-dimensional nearest-neighbour stencil.
    Stencil3D,
    /// Streaming read plus a block-level shared-memory reduction (Dot).
    Reduction,
    /// Small working set reused from cache with long arithmetic chains
    /// (miniBUDE fasten).
    ComputeTiled,
    /// Scattered atomic updates into a small dense matrix (Hartree–Fock).
    AtomicScatter,
}

impl AccessPattern {
    /// Human-readable label used in reports.
    pub fn label(&self) -> &'static str {
        match self {
            AccessPattern::Stream => "stream",
            AccessPattern::Stencil3D => "stencil-3d",
            AccessPattern::Reduction => "reduction",
            AccessPattern::ComputeTiled => "compute-tiled",
            AccessPattern::AtomicScatter => "atomic-scatter",
        }
    }
}

/// The full analytic cost of one kernel launch.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelCost {
    /// Kernel name as it appears in reports ("laplacian", "copy", "fasten", …).
    pub kernel_name: &'static str,
    /// Arithmetic precision of the kernel.
    pub precision: Precision,
    /// Launch configuration the cost corresponds to.
    pub launch: LaunchConfig,
    /// Bytes read from device memory (DRAM-level traffic).
    pub bytes_read: u64,
    /// Bytes written to device memory (DRAM-level traffic).
    pub bytes_written: u64,
    /// Bytes moved at the L1 level, if it differs from DRAM traffic
    /// (stencils re-read neighbours from cache).
    pub l1_bytes: Option<u64>,
    /// Bytes moved at the L2 level, if it differs from DRAM traffic.
    pub l2_bytes: Option<u64>,
    /// Floating-point work.
    pub flops: FlopCounts,
    /// Number of FP64 global atomic updates issued by the launch.
    pub atomics_fp64: u64,
    /// Average number of threads contending for the same atomic address
    /// (1.0 = conflict-free).
    pub atomic_conflict_degree: f64,
    /// Bytes of block shared memory traffic.
    pub shared_bytes: u64,
    /// Number of block-wide barriers executed per block.
    pub barriers: u64,
    /// Global-memory load instructions per thread (the LDG row of Tables 2–3).
    pub loads_per_thread: f64,
    /// Global-memory store instructions per thread (the STG row of Tables 2–3).
    pub stores_per_thread: f64,
    /// Dominant access pattern.
    pub pattern: AccessPattern,
}

impl KernelCost {
    /// Starts building a cost description for a kernel.
    pub fn builder(
        kernel_name: &'static str,
        precision: Precision,
        launch: LaunchConfig,
        pattern: AccessPattern,
    ) -> KernelCostBuilder {
        KernelCostBuilder {
            cost: KernelCost {
                kernel_name,
                precision,
                launch,
                bytes_read: 0,
                bytes_written: 0,
                l1_bytes: None,
                l2_bytes: None,
                flops: FlopCounts::default(),
                atomics_fp64: 0,
                atomic_conflict_degree: 1.0,
                shared_bytes: 0,
                barriers: 0,
                loads_per_thread: 0.0,
                stores_per_thread: 0.0,
                pattern,
            },
        }
    }

    /// Total DRAM traffic in bytes.
    pub fn total_bytes(&self) -> u64 {
        self.bytes_read + self.bytes_written
    }

    /// Arithmetic intensity (FLOP per byte) at the DRAM level — the x-axis of
    /// the paper's roofline plot (Fig. 2).
    pub fn arithmetic_intensity_dram(&self) -> f64 {
        if self.total_bytes() == 0 {
            return f64::INFINITY;
        }
        self.flops.total() as f64 / self.total_bytes() as f64
    }

    /// Arithmetic intensity at the L1 level (Tables 2–3, "L1 ai" row).
    pub fn arithmetic_intensity_l1(&self) -> f64 {
        let bytes = self.l1_bytes.unwrap_or_else(|| self.total_bytes());
        if bytes == 0 {
            return f64::INFINITY;
        }
        self.flops.total() as f64 / bytes as f64
    }

    /// Arithmetic intensity at the L2 level (Tables 2–3, "L2 ai" row).
    pub fn arithmetic_intensity_l2(&self) -> f64 {
        let bytes = self.l2_bytes.unwrap_or_else(|| self.total_bytes());
        if bytes == 0 {
            return f64::INFINITY;
        }
        self.flops.total() as f64 / bytes as f64
    }
}

/// Builder for [`KernelCost`].
pub struct KernelCostBuilder {
    cost: KernelCost,
}

impl KernelCostBuilder {
    /// Sets DRAM bytes read and written.
    pub fn dram_traffic(mut self, bytes_read: u64, bytes_written: u64) -> Self {
        self.cost.bytes_read = bytes_read;
        self.cost.bytes_written = bytes_written;
        self
    }

    /// Sets L1-level traffic (defaults to DRAM traffic when unset).
    pub fn l1_bytes(mut self, bytes: u64) -> Self {
        self.cost.l1_bytes = Some(bytes);
        self
    }

    /// Sets L2-level traffic (defaults to DRAM traffic when unset).
    pub fn l2_bytes(mut self, bytes: u64) -> Self {
        self.cost.l2_bytes = Some(bytes);
        self
    }

    /// Sets floating-point work.
    pub fn flops(mut self, flops: FlopCounts) -> Self {
        self.cost.flops = flops;
        self
    }

    /// Sets FP64 atomic count and the average contention degree.
    pub fn atomics(mut self, count: u64, conflict_degree: f64) -> Self {
        self.cost.atomics_fp64 = count;
        self.cost.atomic_conflict_degree = conflict_degree;
        self
    }

    /// Sets shared-memory traffic and barrier count.
    pub fn shared(mut self, bytes: u64, barriers: u64) -> Self {
        self.cost.shared_bytes = bytes;
        self.cost.barriers = barriers;
        self
    }

    /// Sets the per-thread global load/store instruction counts.
    pub fn loads_stores_per_thread(mut self, loads: f64, stores: f64) -> Self {
        self.cost.loads_per_thread = loads;
        self.cost.stores_per_thread = stores;
        self
    }

    /// Finishes the builder.
    pub fn build(self) -> KernelCost {
        self.cost
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dim::LaunchConfig;

    fn sample_cost() -> KernelCost {
        KernelCost::builder(
            "copy",
            Precision::Fp64,
            LaunchConfig::cover_1d(1024, 256),
            AccessPattern::Stream,
        )
        .dram_traffic(8 * 1024, 8 * 1024)
        .flops(FlopCounts {
            adds: 0,
            muls: 0,
            fmas: 0,
            divs: 0,
            sqrts: 0,
            transcendentals: 0,
        })
        .loads_stores_per_thread(1.0, 1.0)
        .build()
    }

    #[test]
    fn flop_totals_count_fma_as_two() {
        let f = FlopCounts {
            adds: 10,
            muls: 5,
            fmas: 3,
            divs: 2,
            sqrts: 1,
            transcendentals: 4,
        };
        assert_eq!(f.total(), 10 + 5 + 6 + 2 + 1 + 4);
    }

    #[test]
    fn weighted_cost_charges_sfu_more() {
        let f = FlopCounts {
            adds: 0,
            muls: 0,
            fmas: 0,
            divs: 0,
            sqrts: 0,
            transcendentals: 10,
        };
        assert!((f.weighted(4.0, 32.0) - 320.0).abs() < 1e-12);
        assert!((f.weighted(4.0, 8.0) - 80.0).abs() < 1e-12);
    }

    #[test]
    fn combine_and_scale() {
        let a = FlopCounts {
            adds: 1,
            muls: 2,
            fmas: 3,
            divs: 4,
            sqrts: 5,
            transcendentals: 6,
        };
        let b = a.combine(&a);
        assert_eq!(b.adds, 2);
        assert_eq!(b.transcendentals, 12);
        let c = a.scale(10);
        assert_eq!(c.muls, 20);
        assert_eq!(c.fmas, 30);
    }

    #[test]
    fn builder_and_intensities() {
        let cost = sample_cost();
        assert_eq!(cost.total_bytes(), 16 * 1024);
        assert_eq!(cost.arithmetic_intensity_dram(), 0.0);
        // No flops: intensity zero but defined.
        assert_eq!(cost.arithmetic_intensity_l1(), 0.0);
    }

    #[test]
    fn zero_traffic_gives_infinite_intensity() {
        let cost = KernelCost::builder(
            "compute-only",
            Precision::Fp32,
            LaunchConfig::cover_1d(1, 1),
            AccessPattern::ComputeTiled,
        )
        .flops(FlopCounts {
            adds: 10,
            ..Default::default()
        })
        .build();
        assert!(cost.arithmetic_intensity_dram().is_infinite());
    }

    #[test]
    fn l1_l2_overrides_change_intensity() {
        let cost = KernelCost::builder(
            "laplacian",
            Precision::Fp64,
            LaunchConfig::cover_1d(1 << 20, 512),
            AccessPattern::Stencil3D,
        )
        .dram_traffic(16 << 20, 8 << 20)
        .l1_bytes(64 << 20)
        .l2_bytes(32 << 20)
        .flops(FlopCounts {
            adds: 6 << 20,
            muls: 4 << 20,
            ..Default::default()
        })
        .build();
        // More bytes at L1 than at DRAM means lower intensity at L1 — the
        // ordering seen in the paper's Table 2 (L1 ai < L2 ai < L3 ai).
        assert!(cost.arithmetic_intensity_l1() < cost.arithmetic_intensity_l2());
        assert!(cost.arithmetic_intensity_l2() < cost.arithmetic_intensity_dram());
    }

    #[test]
    fn access_pattern_labels() {
        assert_eq!(AccessPattern::Stream.label(), "stream");
        assert_eq!(AccessPattern::Stencil3D.label(), "stencil-3d");
        assert_eq!(AccessPattern::Reduction.label(), "reduction");
        assert_eq!(AccessPattern::ComputeTiled.label(), "compute-tiled");
        assert_eq!(AccessPattern::AtomicScatter.label(), "atomic-scatter");
    }
}
