//! BabelStream effective bandwidth — the paper's Eq. (2).
//!
//! Each operation's bandwidth is the number of arrays it touches times the
//! array size, divided by kernel time:
//!
//! ```text
//! bandwidth_array = sizeof(T) · vector_size / kernel_time
//! Copy, Mul          → 2 · bandwidth_array
//! Add, Triad, Dot(2) → 3 · (Dot: 2 ·) bandwidth_array
//! ```

use gpu_spec::{Precision, StreamOp};

/// Effective bandwidth in GB/s for one BabelStream operation over a vector of
/// `vector_size` elements that took `kernel_time_s` seconds — Eq. (2).
pub fn babelstream_bandwidth_gbs(
    op: StreamOp,
    vector_size: u64,
    precision: Precision,
    kernel_time_s: f64,
) -> f64 {
    assert!(kernel_time_s > 0.0, "kernel time must be positive");
    let array_bytes = vector_size as f64 * precision.size_of() as f64;
    f64::from(op.array_multiplier()) * array_bytes / kernel_time_s / 1e9
}

#[cfg(test)]
mod tests {
    use super::*;

    const N: u64 = 1 << 25; // the paper's 33,554,432-element vectors

    #[test]
    fn multipliers_follow_eq2() {
        assert_eq!(StreamOp::Copy.array_multiplier(), 2);
        assert_eq!(StreamOp::Mul.array_multiplier(), 2);
        assert_eq!(StreamOp::Add.array_multiplier(), 3);
        assert_eq!(StreamOp::Triad.array_multiplier(), 3);
        assert_eq!(StreamOp::Dot.array_multiplier(), 2);
    }

    #[test]
    fn copy_bandwidth_matches_table3() {
        // Table 3: Mojo Copy takes 0.202 ms at n = 2^25 FP64 → ~2.66 TB/s.
        let bw = babelstream_bandwidth_gbs(StreamOp::Copy, N, Precision::Fp64, 0.202e-3);
        assert!((bw - 2657.0).abs() < 10.0, "bw = {bw}");
    }

    #[test]
    fn add_moves_three_arrays() {
        let copy = babelstream_bandwidth_gbs(StreamOp::Copy, N, Precision::Fp64, 1e-3);
        let add = babelstream_bandwidth_gbs(StreamOp::Add, N, Precision::Fp64, 1e-3);
        assert!((add / copy - 1.5).abs() < 1e-12);
    }

    #[test]
    fn fp32_halves_the_bytes() {
        let f64bw = babelstream_bandwidth_gbs(StreamOp::Triad, N, Precision::Fp64, 1e-3);
        let f32bw = babelstream_bandwidth_gbs(StreamOp::Triad, N, Precision::Fp32, 1e-3);
        assert!((f64bw / f32bw - 2.0).abs() < 1e-12);
    }

    #[test]
    fn labels_and_order() {
        let labels: Vec<_> = StreamOp::ALL.iter().map(|o| o.label()).collect();
        assert_eq!(labels, vec!["Copy", "Mul", "Add", "Triad", "Dot"]);
        assert_eq!(StreamOp::Dot.to_string(), "Dot");
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_time_panics() {
        babelstream_bandwidth_gbs(StreamOp::Copy, N, Precision::Fp64, 0.0);
    }
}
