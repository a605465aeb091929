//! Hardware descriptions for the GPUs used in the paper's evaluation.
//!
//! The paper (Table 1 / Table 6) evaluates two devices:
//!
//! | GPU                       | Bandwidth | FP32 peak | FP64 peak |
//! |---------------------------|-----------|-----------|-----------|
//! | NVIDIA H100 NVL — 94 GB   | 3,900 GB/s| 60.0 TF/s | 30.0 TF/s |
//! | AMD MI300A — 128 GB HBM3  | 5,300 GB/s| 122.6 TF/s| 61.3 TF/s |
//!
//! This crate captures those published figures together with the architectural
//! parameters (SM/CU counts, warp/wavefront width, cache sizes and bandwidths,
//! register files) that the simulator in `gpu-sim` and the codegen models in
//! `vendor-models` need to charge time and derive NCU-style profiling metrics.
//!
//! Everything here is a *description*: plain data with derived helper methods.
//! No simulation logic lives in this crate.

#![warn(missing_docs)]

pub mod memory;
pub mod presets;
pub mod spec;
pub mod vendor;

pub use memory::{CacheLevel, LevelKind, MemoryHierarchy};
pub use presets::{all_presets, GpuPreset};
pub use spec::{ComputeTopology, GpuSpec, Precision, StreamOp};
pub use vendor::Vendor;

/// Number of bytes in one gibibyte (2^30), used for memory-capacity accounting.
pub const GIB: u64 = 1 << 30;

/// Number of bytes in one gigabyte (10^9), used for bandwidth accounting
/// (vendor peak-bandwidth figures are decimal).
pub const GB: f64 = 1e9;

/// One teraFLOP per second, in FLOP/s.
pub const TFLOPS: f64 = 1e12;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constants_are_consistent() {
        assert_eq!(GIB, 1_073_741_824);
        assert!((GB - 1e9).abs() < f64::EPSILON);
        assert!((TFLOPS - 1e12).abs() < f64::EPSILON);
    }
}
