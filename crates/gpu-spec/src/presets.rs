//! Preset device descriptions for the GPUs in the paper's Table 1, plus a
//! small generic device used by unit tests.
//!
//! The headline figures (bandwidth, FP32/FP64 peaks, memory capacity) are the
//! exact values printed in Table 1 / Table 6 of the paper. The architectural
//! detail (SM/CU counts, caches, register files) comes from the public vendor
//! datasheets for the same parts and only influences second-order effects in
//! the simulator (occupancy, cache-level arithmetic intensity).

use crate::memory::{CacheLevel, LevelKind, MemoryHierarchy};
use crate::spec::{ComputeTopology, GpuSpec};
use crate::vendor::Vendor;
use crate::GIB;

/// Identifier for one of the built-in device presets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GpuPreset {
    /// NVIDIA H100 NVL with 94 GB HBM3 (paper Table 1, row 1).
    H100Nvl,
    /// AMD MI300A with 128 GB HBM3 (paper Table 1, row 2).
    Mi300a,
    /// A deliberately small generic device for fast, deterministic tests.
    TestDevice,
}

impl GpuPreset {
    /// Builds the full [`GpuSpec`] for this preset.
    pub fn spec(&self) -> GpuSpec {
        match self {
            GpuPreset::H100Nvl => h100_nvl(),
            GpuPreset::Mi300a => mi300a(),
            GpuPreset::TestDevice => test_device(),
        }
    }
}

/// All presets that correspond to real hardware evaluated in the paper.
pub fn all_presets() -> Vec<GpuSpec> {
    vec![h100_nvl(), mi300a()]
}

/// NVIDIA H100 NVL — 94 GB. Table 1: 3,900 GB/s, 60.0 FP32 TFLOP/s, 30.0 FP64 TFLOP/s.
pub fn h100_nvl() -> GpuSpec {
    GpuSpec {
        name: "NVIDIA H100 NVL - 94 GB",
        vendor: Vendor::Nvidia,
        memory_bytes: 94 * GIB,
        bandwidth_gbs: 3_900.0,
        fp32_tflops: 60.0,
        fp64_tflops: 30.0,
        topology: ComputeTopology {
            num_compute_units: 132,
            max_threads_per_unit: 2048,
            max_threads_per_block: 1024,
            registers_per_unit: 65_536,
            simt_width: 32,
            clock_ghz: 1.785,
        },
        memory: MemoryHierarchy {
            l1: CacheLevel {
                name: LevelKind::L1,
                capacity_bytes: 132 * 256 * 1024,
                bandwidth_gbs: 33_000.0,
                latency_ns: 30.0,
                line_bytes: 128,
            },
            l2: CacheLevel {
                name: LevelKind::L2,
                capacity_bytes: 50 * 1024 * 1024,
                bandwidth_gbs: 12_000.0,
                latency_ns: 200.0,
                line_bytes: 128,
            },
            hbm: CacheLevel {
                name: LevelKind::Hbm,
                capacity_bytes: 94 * GIB,
                bandwidth_gbs: 3_900.0,
                latency_ns: 550.0,
                line_bytes: 128,
            },
            shared_per_block_bytes: 227 * 1024 / 2, // 113 KiB usable per block on Hopper
        },
        // Sustained FP64 global-atomic rate under the Hartree-Fock contention
        // pattern, calibrated from the paper's Table 4 (CUDA, 256 atoms,
        // ngauss = 3: ~3.25e9 atomic updates in 472 ms).
        atomic_fp64_gups: 6.9,
    }
}

/// AMD MI300A — 128 GB HBM3. Table 1: 5,300 GB/s, 122.6 FP32 TFLOP/s, 61.3 FP64 TFLOP/s.
pub fn mi300a() -> GpuSpec {
    GpuSpec {
        name: "AMD MI300A - 128 GB HBM3",
        vendor: Vendor::Amd,
        memory_bytes: 128 * GIB,
        bandwidth_gbs: 5_300.0,
        fp32_tflops: 122.6,
        fp64_tflops: 61.3,
        topology: ComputeTopology {
            num_compute_units: 228,
            max_threads_per_unit: 2048,
            max_threads_per_block: 1024,
            registers_per_unit: 65_536,
            simt_width: 64,
            clock_ghz: 2.1,
        },
        memory: MemoryHierarchy {
            l1: CacheLevel {
                name: LevelKind::L1,
                capacity_bytes: 228 * 32 * 1024,
                bandwidth_gbs: 40_000.0,
                latency_ns: 35.0,
                line_bytes: 128,
            },
            l2: CacheLevel {
                name: LevelKind::L2,
                capacity_bytes: 4 * 1024 * 1024 + 256 * 1024 * 1024, // 4 MiB L2 + 256 MiB Infinity Cache
                bandwidth_gbs: 17_000.0,
                latency_ns: 250.0,
                line_bytes: 128,
            },
            hbm: CacheLevel {
                name: LevelKind::Hbm,
                capacity_bytes: 128 * GIB,
                bandwidth_gbs: 5_300.0,
                latency_ns: 600.0,
                line_bytes: 128,
            },
            shared_per_block_bytes: 64 * 1024,
        },
        // HIP's FP64 atomics on CDNA3 sustain a higher rate than Hopper under
        // the same contention pattern; calibrated from Table 4 (HIP, 256
        // atoms: ~3.25e9 atomic updates in 178 ms).
        atomic_fp64_gups: 18.3,
    }
}

/// A tiny, fast, vendor-neutral device used by unit and property tests where
/// absolute numbers do not matter but determinism and speed do.
pub fn test_device() -> GpuSpec {
    GpuSpec {
        name: "SimTest GPU - 1 GB",
        vendor: Vendor::Generic,
        memory_bytes: GIB,
        bandwidth_gbs: 100.0,
        fp32_tflops: 10.0,
        fp64_tflops: 5.0,
        topology: ComputeTopology {
            num_compute_units: 8,
            max_threads_per_unit: 2048,
            max_threads_per_block: 1024,
            registers_per_unit: 65_536,
            simt_width: 32,
            clock_ghz: 1.0,
        },
        memory: MemoryHierarchy {
            l1: CacheLevel {
                name: LevelKind::L1,
                capacity_bytes: 8 * 128 * 1024,
                bandwidth_gbs: 1_000.0,
                latency_ns: 30.0,
                line_bytes: 128,
            },
            l2: CacheLevel {
                name: LevelKind::L2,
                capacity_bytes: 4 * 1024 * 1024,
                bandwidth_gbs: 400.0,
                latency_ns: 150.0,
                line_bytes: 128,
            },
            hbm: CacheLevel {
                name: LevelKind::Hbm,
                capacity_bytes: GIB,
                bandwidth_gbs: 100.0,
                latency_ns: 400.0,
                line_bytes: 128,
            },
            shared_per_block_bytes: 48 * 1024,
        },
        atomic_fp64_gups: 1.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::Precision;

    #[test]
    fn h100_matches_table1() {
        let spec = h100_nvl();
        assert_eq!(spec.vendor, Vendor::Nvidia);
        assert!((spec.bandwidth_gbs - 3_900.0).abs() < 1e-9);
        assert!((spec.fp32_tflops - 60.0).abs() < 1e-9);
        assert!((spec.fp64_tflops - 30.0).abs() < 1e-9);
        assert_eq!(spec.memory_bytes, 94 * GIB);
        spec.validate().expect("H100 preset must validate");
    }

    #[test]
    fn mi300a_matches_table1() {
        let spec = mi300a();
        assert_eq!(spec.vendor, Vendor::Amd);
        assert!((spec.bandwidth_gbs - 5_300.0).abs() < 1e-9);
        assert!((spec.fp32_tflops - 122.6).abs() < 1e-9);
        assert!((spec.fp64_tflops - 61.3).abs() < 1e-9);
        assert_eq!(spec.memory_bytes, 128 * GIB);
        spec.validate().expect("MI300A preset must validate");
    }

    #[test]
    fn mi300a_has_higher_peaks_than_h100() {
        // The paper notes the MI300A has both higher bandwidth and higher
        // FP32/FP64 peaks; relative results depend on this ordering.
        let h = h100_nvl();
        let m = mi300a();
        assert!(m.bandwidth_gbs > h.bandwidth_gbs);
        assert!(m.peak_flops(Precision::Fp32) > h.peak_flops(Precision::Fp32));
        assert!(m.peak_flops(Precision::Fp64) > h.peak_flops(Precision::Fp64));
    }

    #[test]
    fn test_device_validates_and_is_small() {
        let spec = test_device();
        spec.validate().expect("test device must validate");
        assert!(spec.memory_bytes <= GIB);
    }

    #[test]
    fn preset_enum_builds_specs() {
        assert_eq!(GpuPreset::H100Nvl.spec().vendor, Vendor::Nvidia);
        assert_eq!(GpuPreset::Mi300a.spec().vendor, Vendor::Amd);
        assert_eq!(GpuPreset::TestDevice.spec().vendor, Vendor::Generic);
        assert_eq!(all_presets().len(), 2);
    }

    #[test]
    fn simt_width_matches_vendor() {
        assert_eq!(h100_nvl().topology.simt_width, Vendor::Nvidia.simt_width());
        assert_eq!(mi300a().topology.simt_width, Vendor::Amd.simt_width());
    }
}
