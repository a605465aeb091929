//! Memory-hierarchy description: cache levels and device memory.
//!
//! The paper's profiling tables (Tables 2 and 3) report arithmetic intensity
//! and achieved FLOP/s at three levels — L1, L2, and "L3" (device memory /
//! HBM in NCU's terminology) — so the hierarchy here carries per-level
//! capacity and bandwidth figures that the simulator's profiler uses to
//! derive those rows.

use serde::{Deserialize, Serialize};

/// Identifies one level of the memory hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum LevelKind {
    /// Per-SM first-level cache / shared-memory partition.
    L1,
    /// Device-wide second-level cache.
    L2,
    /// Device memory (HBM). NCU labels this level "L3"/"device" in its
    /// arithmetic-intensity breakdown, which the paper's Tables 2–3 follow.
    Hbm,
}

impl LevelKind {
    /// Display name matching the paper's tables.
    pub fn name(&self) -> &'static str {
        match self {
            LevelKind::L1 => "L1",
            LevelKind::L2 => "L2",
            LevelKind::Hbm => "HBM",
        }
    }
}

/// One level of the on-device memory hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CacheLevel {
    /// Which level this is ("L1", "L2", "HBM").
    pub name: LevelKind,
    /// Total capacity of this level in bytes (aggregate across the device).
    pub capacity_bytes: u64,
    /// Peak aggregate bandwidth of this level in GB/s (decimal GB).
    pub bandwidth_gbs: f64,
    /// Typical access latency in nanoseconds (used for small-transfer costs).
    pub latency_ns: f64,
    /// Cache-line / transaction size in bytes.
    pub line_bytes: u32,
}

impl CacheLevel {
    /// Time in seconds to move `bytes` through this level at peak bandwidth.
    pub fn transfer_time_s(&self, bytes: u64) -> f64 {
        bytes as f64 / (self.bandwidth_gbs * 1e9)
    }
}

/// The full memory hierarchy of a device: L1 (per-SM, aggregated), L2
/// (device-wide), and HBM (device memory).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MemoryHierarchy {
    /// Per-SM L1/shared-memory level, aggregated over all SMs.
    pub l1: CacheLevel,
    /// Device-wide L2 cache.
    pub l2: CacheLevel,
    /// Device memory (HBM). Its bandwidth is the headline STREAM-style figure.
    pub hbm: CacheLevel,
    /// Bytes of shared memory (LDS on AMD) available per thread block.
    pub shared_per_block_bytes: u32,
}

impl MemoryHierarchy {
    /// The three levels ordered from closest to the cores to farthest.
    pub fn levels(&self) -> [CacheLevel; 3] {
        [self.l1, self.l2, self.hbm]
    }

    /// Validates internal consistency: capacities and bandwidths must decrease
    /// (bandwidth) / increase (capacity) monotonically moving away from the cores.
    pub fn validate(&self) -> Result<(), String> {
        if self.l1.bandwidth_gbs < self.l2.bandwidth_gbs {
            return Err(format!(
                "L1 bandwidth ({}) must be >= L2 bandwidth ({})",
                self.l1.bandwidth_gbs, self.l2.bandwidth_gbs
            ));
        }
        if self.l2.bandwidth_gbs < self.hbm.bandwidth_gbs {
            return Err(format!(
                "L2 bandwidth ({}) must be >= HBM bandwidth ({})",
                self.l2.bandwidth_gbs, self.hbm.bandwidth_gbs
            ));
        }
        if self.l1.capacity_bytes > self.l2.capacity_bytes {
            return Err("L1 capacity must be <= L2 capacity".to_string());
        }
        if self.l2.capacity_bytes > self.hbm.capacity_bytes {
            return Err("L2 capacity must be <= HBM capacity".to_string());
        }
        if self.shared_per_block_bytes == 0 {
            return Err("shared memory per block must be non-zero".to_string());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> MemoryHierarchy {
        MemoryHierarchy {
            l1: CacheLevel {
                name: LevelKind::L1,
                capacity_bytes: 256 << 10,
                bandwidth_gbs: 30_000.0,
                latency_ns: 30.0,
                line_bytes: 128,
            },
            l2: CacheLevel {
                name: LevelKind::L2,
                capacity_bytes: 50 << 20,
                bandwidth_gbs: 12_000.0,
                latency_ns: 200.0,
                line_bytes: 128,
            },
            hbm: CacheLevel {
                name: LevelKind::Hbm,
                capacity_bytes: 94 * (1 << 30),
                bandwidth_gbs: 3_900.0,
                latency_ns: 500.0,
                line_bytes: 128,
            },
            shared_per_block_bytes: 48 << 10,
        }
    }

    #[test]
    fn validates_consistent_hierarchy() {
        assert!(sample().validate().is_ok());
    }

    #[test]
    fn rejects_inverted_bandwidth() {
        let mut h = sample();
        h.l1.bandwidth_gbs = 1.0;
        assert!(h.validate().is_err());
    }

    #[test]
    fn rejects_inverted_capacity() {
        let mut h = sample();
        h.l2.capacity_bytes = h.hbm.capacity_bytes * 2;
        assert!(h.validate().is_err());
    }

    #[test]
    fn rejects_zero_shared() {
        let mut h = sample();
        h.shared_per_block_bytes = 0;
        assert!(h.validate().is_err());
    }

    #[test]
    fn transfer_time_scales_linearly() {
        let hbm = sample().hbm;
        let t1 = hbm.transfer_time_s(1_000_000);
        let t2 = hbm.transfer_time_s(2_000_000);
        assert!((t2 / t1 - 2.0).abs() < 1e-12);
    }

    #[test]
    fn levels_ordering() {
        let h = sample();
        let names: Vec<_> = h.levels().iter().map(|l| l.name.name()).collect();
        assert_eq!(names, vec!["L1", "L2", "HBM"]);
    }
}
