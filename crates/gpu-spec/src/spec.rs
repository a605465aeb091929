//! The top-level GPU specification type and derived roofline quantities.

use crate::memory::MemoryHierarchy;
use crate::vendor::Vendor;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Floating-point precision of a kernel's arithmetic, used to select the
/// correct peak-FLOP ceiling (the paper runs FP32 and FP64 variants of the
/// stencil and BabelStream and FP64 Hartree–Fock; miniBUDE is FP32).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Precision {
    /// IEEE-754 single precision (`f32`).
    Fp32,
    /// IEEE-754 double precision (`f64`).
    Fp64,
}

impl Precision {
    /// Size of one element of this precision in bytes.
    pub fn size_of(&self) -> usize {
        match self {
            Precision::Fp32 => 4,
            Precision::Fp64 => 8,
        }
    }

    /// Short display name matching the paper's figures ("FP32" / "FP64").
    pub fn label(&self) -> &'static str {
        match self {
            Precision::Fp32 => "FP32",
            Precision::Fp64 => "FP64",
        }
    }
}

impl fmt::Display for Precision {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// The five BabelStream operations (paper Listing 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StreamOp {
    /// `c[i] = a[i]`.
    Copy,
    /// `b[i] = scalar * c[i]`.
    Mul,
    /// `c[i] = a[i] + b[i]`.
    Add,
    /// `a[i] = b[i] + scalar * c[i]`.
    Triad,
    /// `sum = Σ a[i]·b[i]` — the block-reduction kernel.
    Dot,
}

impl StreamOp {
    /// All operations in the paper's presentation order.
    pub const ALL: [StreamOp; 5] = [
        StreamOp::Copy,
        StreamOp::Mul,
        StreamOp::Add,
        StreamOp::Triad,
        StreamOp::Dot,
    ];

    /// The number of arrays the operation moves: its Eq. (2) multiplier.
    pub fn array_multiplier(&self) -> u32 {
        match self {
            StreamOp::Copy | StreamOp::Mul | StreamOp::Dot => 2,
            StreamOp::Add | StreamOp::Triad => 3,
        }
    }

    /// Display label matching the paper's figures.
    pub fn label(&self) -> &'static str {
        match self {
            StreamOp::Copy => "Copy",
            StreamOp::Mul => "Mul",
            StreamOp::Add => "Add",
            StreamOp::Triad => "Triad",
            StreamOp::Dot => "Dot",
        }
    }
}

impl fmt::Display for StreamOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Compute-side topology of the device: how many SMs/CUs it has and how much
/// parallel state each can hold. Used for occupancy and launch-heuristic
/// modelling (the CUDA BabelStream baseline, for instance, sizes its dot-kernel
/// grid from the multiprocessor count).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ComputeTopology {
    /// Number of streaming multiprocessors (NVIDIA) or compute units (AMD).
    pub num_compute_units: u32,
    /// Maximum resident threads per compute unit.
    pub max_threads_per_unit: u32,
    /// Maximum threads per block the hardware accepts.
    pub max_threads_per_block: u32,
    /// Number of 32-bit registers available per compute unit.
    pub registers_per_unit: u32,
    /// SIMT scheduling width (32 for NVIDIA warps, 64 for AMD wavefronts).
    pub simt_width: u32,
    /// Base clock of the compute units in GHz (used only for latency-bound
    /// corrections; throughput figures come from the published peaks).
    pub clock_ghz: f64,
}

impl ComputeTopology {
    /// Occupancy (0..=1) achievable by a kernel that needs
    /// `registers_per_thread` registers and blocks of `block_size` threads.
    ///
    /// This is a simplified occupancy model: the limiting factor is either the
    /// register file or the resident-thread limit; shared memory is handled by
    /// the simulator separately because it is per-kernel.
    pub fn occupancy(&self, registers_per_thread: u32, block_size: u32) -> f64 {
        if block_size == 0 || block_size > self.max_threads_per_block {
            return 0.0;
        }
        let reg_limited_threads = self
            .registers_per_unit
            .checked_div(registers_per_thread)
            .unwrap_or(self.max_threads_per_unit)
            .min(self.max_threads_per_unit);
        // Blocks are granular: a partially-fitting block does not run.
        let blocks_by_regs = reg_limited_threads / block_size;
        let blocks_by_threads = self.max_threads_per_unit / block_size;
        let resident_blocks = blocks_by_regs.min(blocks_by_threads);
        let resident_threads = resident_blocks * block_size;
        f64::from(resident_threads) / f64::from(self.max_threads_per_unit)
    }
}

/// Full description of one GPU, combining the published headline figures
/// (Table 1 of the paper) with the architectural detail needed by the
/// simulator and codegen models.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct GpuSpec {
    /// Marketing name, e.g. "NVIDIA H100 NVL - 94 GB". Devices are a fixed
    /// set of presets, so the name is a literal.
    pub name: &'static str,
    /// Silicon vendor.
    pub vendor: Vendor,
    /// Device memory capacity in bytes.
    pub memory_bytes: u64,
    /// Peak device-memory bandwidth in GB/s (decimal), Table 1 column 2.
    pub bandwidth_gbs: f64,
    /// Peak FP32 throughput in TFLOP/s, Table 1 column 3.
    pub fp32_tflops: f64,
    /// Peak FP64 throughput in TFLOP/s, Table 1 column 4.
    pub fp64_tflops: f64,
    /// Compute topology (SM/CU counts, registers, SIMT width).
    pub topology: ComputeTopology,
    /// Cache/memory hierarchy.
    pub memory: MemoryHierarchy,
    /// Sustained fraction of peak FP64 global-atomic throughput, expressed as
    /// giga-updates per second under heavy contention. Drives the
    /// Hartree–Fock atomic model.
    pub atomic_fp64_gups: f64,
}

impl GpuSpec {
    /// Peak floating-point throughput in FLOP/s for the given precision.
    pub fn peak_flops(&self, precision: Precision) -> f64 {
        match precision {
            Precision::Fp32 => self.fp32_tflops * 1e12,
            Precision::Fp64 => self.fp64_tflops * 1e12,
        }
    }

    /// Peak device-memory bandwidth in bytes per second.
    pub fn peak_bandwidth_bytes_per_s(&self) -> f64 {
        self.bandwidth_gbs * 1e9
    }

    /// The roofline "ridge point": the arithmetic intensity (FLOP/byte) at
    /// which a kernel transitions from memory-bound to compute-bound on this
    /// device, for the given precision.
    pub fn ridge_point(&self, precision: Precision) -> f64 {
        self.peak_flops(precision) / self.peak_bandwidth_bytes_per_s()
    }

    /// Attainable FLOP/s under the roofline model for a kernel with the given
    /// arithmetic intensity (FLOP per byte of device-memory traffic).
    pub fn roofline_flops(&self, arithmetic_intensity: f64, precision: Precision) -> f64 {
        (arithmetic_intensity * self.peak_bandwidth_bytes_per_s()).min(self.peak_flops(precision))
    }

    /// Whether a kernel of the given arithmetic intensity is memory-bound on
    /// this device.
    pub fn is_memory_bound(&self, arithmetic_intensity: f64, precision: Precision) -> bool {
        arithmetic_intensity < self.ridge_point(precision)
    }

    /// Validates the spec: positive peaks, consistent hierarchy, and an FP64
    /// peak not exceeding the FP32 peak.
    pub fn validate(&self) -> Result<(), String> {
        if self.bandwidth_gbs <= 0.0 || self.fp32_tflops <= 0.0 || self.fp64_tflops <= 0.0 {
            return Err("peak figures must be positive".to_string());
        }
        if self.fp64_tflops > self.fp32_tflops {
            return Err("FP64 peak cannot exceed FP32 peak".to_string());
        }
        if self.memory_bytes == 0 {
            return Err("device memory must be non-zero".to_string());
        }
        if self.topology.num_compute_units == 0 || self.topology.max_threads_per_block == 0 {
            return Err("topology must have compute units and a block limit".to_string());
        }
        if self.atomic_fp64_gups <= 0.0 {
            return Err("atomic throughput must be positive".to_string());
        }
        self.memory.validate()
    }
}

impl fmt::Display for GpuSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} [{} GB/s, {:.1} FP32 TFLOP/s, {:.1} FP64 TFLOP/s]",
            self.name, self.bandwidth_gbs, self.fp32_tflops, self.fp64_tflops
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets;

    #[test]
    fn precision_sizes() {
        assert_eq!(Precision::Fp32.size_of(), 4);
        assert_eq!(Precision::Fp64.size_of(), 8);
        assert_eq!(Precision::Fp32.label(), "FP32");
        assert_eq!(Precision::Fp64.to_string(), "FP64");
    }

    #[test]
    fn ridge_point_orders_kernels() {
        let h100 = presets::h100_nvl();
        // A STREAM-like kernel (ai ~ 0.08 for triad FP64) is memory bound,
        // a dense compute kernel (ai ~ 50) is compute bound.
        assert!(h100.is_memory_bound(0.08, Precision::Fp64));
        assert!(!h100.is_memory_bound(50.0, Precision::Fp32));
    }

    #[test]
    fn roofline_is_capped_at_peak() {
        let h100 = presets::h100_nvl();
        let peak = h100.peak_flops(Precision::Fp32);
        assert!((h100.roofline_flops(1e6, Precision::Fp32) - peak).abs() < 1.0);
        // In the memory-bound regime the roofline is linear in intensity.
        let lo = h100.roofline_flops(0.1, Precision::Fp32);
        let hi = h100.roofline_flops(0.2, Precision::Fp32);
        assert!((hi / lo - 2.0).abs() < 1e-9);
    }

    #[test]
    fn occupancy_basics() {
        let topo = presets::h100_nvl().topology;
        // Zero registers -> thread-limited occupancy of 1 with a well-chosen block.
        let occ = topo.occupancy(0, 1024);
        assert!(occ > 0.99);
        // Huge register demand lowers occupancy.
        let occ_heavy = topo.occupancy(255, 1024);
        assert!(occ_heavy < occ);
        // Invalid block sizes yield zero.
        assert_eq!(topo.occupancy(32, 0), 0.0);
        assert_eq!(topo.occupancy(32, topo.max_threads_per_block + 1), 0.0);
    }

    #[test]
    fn validation_catches_bad_specs() {
        let mut spec = presets::h100_nvl();
        assert!(spec.validate().is_ok());
        spec.fp64_tflops = spec.fp32_tflops * 2.0;
        assert!(spec.validate().is_err());

        let mut spec = presets::mi300a();
        spec.bandwidth_gbs = -1.0;
        assert!(spec.validate().is_err());

        let mut spec = presets::h100_nvl();
        spec.atomic_fp64_gups = 0.0;
        assert!(spec.validate().is_err());
    }

    #[test]
    fn display_contains_name_and_peaks() {
        let s = presets::h100_nvl().to_string();
        assert!(s.contains("H100"));
        assert!(s.contains("3900"));
    }

    #[test]
    fn serde_round_trip() {
        // A spec serialises but does not deserialise (its name is a preset
        // literal); the JSON text parses back to the same value tree.
        let spec = presets::mi300a();
        let json = serde_json::to_string(&spec).unwrap();
        let back: serde::value::Value = serde_json::from_str(&json).unwrap();
        assert_eq!(back, serde::Serialize::to_value(&spec));
        assert!(
            json.contains(&format!("\"name\":\"{}\"", spec.name)),
            "{json}"
        );
    }
}
