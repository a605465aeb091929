//! Row-major tensor layouts, mirroring Mojo's `Layout.row_major(...)`.
//!
//! Performance-critical information — problem sizes and array layout — must
//! be fixed before a Mojo kernel is compiled; the paper's listings declare
//! `alias layout = Layout.row_major(L, L, L)`. The Rust analogue is a small
//! value type that owns the extents and does the index arithmetic. Only
//! row-major layouts are provided because they are the only ones the paper's
//! kernels use.

use serde::{Deserialize, Serialize};
use std::fmt;

/// A row-major layout of rank 1, 2 or 3.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Layout {
    dims: [usize; 3],
    rank: u8,
}

impl Layout {
    /// A 1-D layout of `n` elements.
    pub const fn row_major_1d(n: usize) -> Self {
        Layout {
            dims: [n, 1, 1],
            rank: 1,
        }
    }

    /// A 2-D row-major layout of `rows x cols`.
    pub const fn row_major_2d(rows: usize, cols: usize) -> Self {
        Layout {
            dims: [rows, cols, 1],
            rank: 2,
        }
    }

    /// A 3-D row-major layout of `d0 x d1 x d2` (slowest to fastest).
    pub const fn row_major_3d(d0: usize, d1: usize, d2: usize) -> Self {
        Layout {
            dims: [d0, d1, d2],
            rank: 3,
        }
    }

    /// The rank (number of dimensions) of the layout.
    pub const fn rank(&self) -> usize {
        self.rank as usize
    }

    /// The extents, padded with 1s beyond the rank.
    pub const fn dims(&self) -> [usize; 3] {
        self.dims
    }

    /// Total number of elements.
    pub const fn len(&self) -> usize {
        self.dims[0] * self.dims[1] * self.dims[2]
    }

    /// Whether the layout covers zero elements.
    pub const fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Linear offset of a 1-D index.
    #[inline]
    pub fn offset_1d(&self, i: usize) -> usize {
        debug_assert!(self.rank == 1, "offset_1d on rank-{} layout", self.rank);
        i
    }

    /// Linear offset of a 2-D index (row `i`, column `j`).
    #[inline]
    pub fn offset_2d(&self, i: usize, j: usize) -> usize {
        debug_assert!(self.rank == 2, "offset_2d on rank-{} layout", self.rank);
        i * self.dims[1] + j
    }

    /// Linear offset of a 3-D index.
    #[inline]
    pub fn offset_3d(&self, i: usize, j: usize, k: usize) -> usize {
        debug_assert!(self.rank == 3, "offset_3d on rank-{} layout", self.rank);
        (i * self.dims[1] + j) * self.dims[2] + k
    }

    /// Inverse of [`Layout::offset_3d`]: recovers `(i, j, k)` from a linear
    /// offset.
    pub fn delinearize_3d(&self, offset: usize) -> (usize, usize, usize) {
        let k = offset % self.dims[2];
        let j = (offset / self.dims[2]) % self.dims[1];
        let i = offset / (self.dims[1] * self.dims[2]);
        (i, j, k)
    }
}

impl fmt::Display for Layout {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.rank {
            1 => write!(f, "row_major({})", self.dims[0]),
            2 => write!(f, "row_major({}, {})", self.dims[0], self.dims[1]),
            _ => write!(
                f,
                "row_major({}, {}, {})",
                self.dims[0], self.dims[1], self.dims[2]
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lengths_and_ranks() {
        assert_eq!(Layout::row_major_1d(10).len(), 10);
        assert_eq!(Layout::row_major_2d(3, 4).len(), 12);
        assert_eq!(Layout::row_major_3d(2, 3, 4).len(), 24);
        assert_eq!(Layout::row_major_1d(10).rank(), 1);
        assert_eq!(Layout::row_major_2d(3, 4).rank(), 2);
        assert_eq!(Layout::row_major_3d(2, 3, 4).rank(), 3);
        assert!(!Layout::row_major_1d(10).is_empty());
        assert!(Layout::row_major_1d(0).is_empty());
    }

    #[test]
    fn row_major_2d_offsets_are_c_order() {
        let l = Layout::row_major_2d(3, 4);
        assert_eq!(l.offset_2d(0, 0), 0);
        assert_eq!(l.offset_2d(0, 3), 3);
        assert_eq!(l.offset_2d(1, 0), 4);
        assert_eq!(l.offset_2d(2, 3), 11);
    }

    #[test]
    fn row_major_3d_offsets_are_c_order() {
        let l = Layout::row_major_3d(2, 3, 4);
        assert_eq!(l.offset_3d(0, 0, 0), 0);
        assert_eq!(l.offset_3d(0, 0, 3), 3);
        assert_eq!(l.offset_3d(0, 1, 0), 4);
        assert_eq!(l.offset_3d(1, 0, 0), 12);
        assert_eq!(l.offset_3d(1, 2, 3), 23);
    }

    #[test]
    fn delinearize_roundtrips() {
        let l = Layout::row_major_3d(5, 7, 3);
        for off in 0..l.len() {
            let (i, j, k) = l.delinearize_3d(off);
            assert_eq!(l.offset_3d(i, j, k), off);
        }
    }

    #[test]
    fn display_formats() {
        assert_eq!(Layout::row_major_1d(8).to_string(), "row_major(8)");
        assert_eq!(Layout::row_major_2d(2, 3).to_string(), "row_major(2, 3)");
        assert_eq!(
            Layout::row_major_3d(2, 3, 4).to_string(),
            "row_major(2, 3, 4)"
        );
    }
}
