//! miniBUDE run configuration.

use serde::{Deserialize, Serialize};

/// Number of poses beyond which functional execution is sampled rather than
/// exhaustive: the energy of `executed_poses` poses is computed and verified,
/// while the cost model covers the full pose count (the arithmetic per pose is
/// identical, so the sample is representative).
pub const DEFAULT_EXECUTED_POSES: usize = 256;

/// Configuration of one miniBUDE experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MiniBudeConfig {
    /// Poses per work-item (the paper sweeps 1..128 in powers of two).
    pub ppwi: u32,
    /// Work-group (thread block) size (the paper uses 8 and 64).
    pub wg: u32,
    /// Number of ligand atoms (26 in bm1).
    pub natlig: usize,
    /// Number of protein atoms (938 in bm1).
    pub natpro: usize,
    /// Total number of poses (65,536 in the paper's runs).
    pub nposes: usize,
    /// Number of poses to execute functionally for validation (must be a
    /// multiple of `ppwi`; 0 disables functional execution).
    pub executed_poses: usize,
    /// Seed for the synthetic deck generator.
    pub seed: u64,
}

impl MiniBudeConfig {
    /// The paper's bm1 configuration for a given PPWI / work-group size.
    pub fn paper(ppwi: u32, wg: u32) -> Self {
        MiniBudeConfig {
            ppwi,
            wg,
            natlig: 26,
            natpro: 938,
            nposes: 65_536,
            executed_poses: DEFAULT_EXECUTED_POSES,
            seed: 0x00b0de,
        }
        .normalised()
    }

    /// A reduced configuration for fast tests: a small deck, few poses, all of
    /// them executed and verified.
    pub fn validation(ppwi: u32, wg: u32) -> Self {
        MiniBudeConfig {
            ppwi,
            wg,
            natlig: 8,
            natpro: 64,
            nposes: 128,
            executed_poses: 128,
            seed: 0x00b0de,
        }
        .normalised()
    }

    /// Rounds `executed_poses` down to a multiple of `ppwi` (and caps it at
    /// `nposes`) so work-items own whole groups.
    pub fn normalised(mut self) -> Self {
        let ppwi = self.ppwi.max(1) as usize;
        self.executed_poses = self.executed_poses.min(self.nposes) / ppwi * ppwi;
        self
    }

    /// Whether functional execution should happen at all.
    pub fn should_execute(&self) -> bool {
        self.executed_poses > 0
    }

    /// The PPWI values the paper sweeps in Figures 6 and 7.
    pub fn paper_ppwi_sweep() -> [u32; 8] {
        [1, 2, 4, 8, 16, 32, 64, 128]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_config_matches_bm1() {
        let c = MiniBudeConfig::paper(8, 64);
        assert_eq!(c.natlig, 26);
        assert_eq!(c.natpro, 938);
        assert_eq!(c.nposes, 65_536);
        assert_eq!(c.ppwi, 8);
        assert_eq!(c.wg, 64);
        assert!(c.should_execute());
        assert_eq!(c.executed_poses % 8, 0);
    }

    #[test]
    fn executed_poses_is_a_multiple_of_ppwi() {
        let c = MiniBudeConfig {
            ppwi: 48,
            wg: 8,
            natlig: 4,
            natpro: 4,
            nposes: 100,
            executed_poses: 100,
            seed: 1,
        }
        .normalised();
        assert_eq!(c.executed_poses, 96);
    }

    #[test]
    fn sweep_values_match_the_paper() {
        assert_eq!(
            MiniBudeConfig::paper_ppwi_sweep(),
            [1, 2, 4, 8, 16, 32, 64, 128]
        );
    }

    #[test]
    fn zero_executed_poses_disables_execution() {
        let mut c = MiniBudeConfig::paper(4, 8);
        c.executed_poses = 0;
        assert!(!c.normalised().should_execute());
    }
}
