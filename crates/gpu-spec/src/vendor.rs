//! GPU vendor identification.

use serde::{Deserialize, Serialize};
use std::fmt;

/// The silicon vendor of a GPU.
///
/// The paper compares the portable (Mojo-analog) programming model against the
/// *vendor-native* model on each architecture: CUDA on [`Vendor::Nvidia`] and
/// HIP on [`Vendor::Amd`]. The vendor therefore determines which baseline a
/// portable kernel is measured against.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Vendor {
    /// NVIDIA GPUs (Hopper/Ampere class in the paper; H100 NVL in the evaluation).
    Nvidia,
    /// AMD GPUs (CDNA3 class; MI300A in the evaluation).
    Amd,
    /// A vendor-neutral device used for tests and synthetic experiments.
    Generic,
}

impl Vendor {
    /// The SIMT execution width the vendor's hardware schedules at:
    /// 32-thread warps on NVIDIA, 64-thread wavefronts on AMD CDNA.
    pub fn simt_width(&self) -> u32 {
        match self {
            Vendor::Nvidia => 32,
            Vendor::Amd => 64,
            Vendor::Generic => 32,
        }
    }
}

impl fmt::Display for Vendor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Vendor::Nvidia => write!(f, "NVIDIA"),
            Vendor::Amd => write!(f, "AMD"),
            Vendor::Generic => write!(f, "Generic"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simt_widths() {
        assert_eq!(Vendor::Nvidia.simt_width(), 32);
        assert_eq!(Vendor::Amd.simt_width(), 64);
    }

    #[test]
    fn display_names() {
        assert_eq!(Vendor::Nvidia.to_string(), "NVIDIA");
        assert_eq!(Vendor::Amd.to_string(), "AMD");
        assert_eq!(Vendor::Generic.to_string(), "Generic");
    }

    #[test]
    fn serde_round_trip() {
        let v = Vendor::Amd;
        let s = serde_json::to_string(&v).unwrap();
        let back: Vendor = serde_json::from_str(&s).unwrap();
        assert_eq!(v, back);
    }
}
