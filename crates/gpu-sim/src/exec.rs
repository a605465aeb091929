//! The flat kernel executor: one closure invocation per simulated thread.
//!
//! All four of the paper's kernels except the BabelStream `dot` reduction are
//! "flat": every thread computes its global index from
//! `block_idx * block_dim + thread_idx` and works independently, with no
//! barriers or shared memory. The executor runs those kernels with a *chunked
//! block scheduler*: the launch's blocks are grouped into contiguous chunks,
//! each chunk becomes one task on the persistent rayon pool, and the threads
//! of a block run sequentially via nested x/y/z loops (no per-thread
//! div/mod delinearisation). Each invocation receives a [`ThreadCtx`] that
//! plays the role of Mojo/CUDA's `thread_idx` / `block_idx` / `block_dim` /
//! `grid_dim` builtins.

use crate::dim::{Dim3, LaunchConfig};
use rayon::prelude::*;

/// Number of chunks targeted per pool worker. A few chunks per worker keeps
/// the pool's deques stealable without paying scheduling overhead per block.
const CHUNKS_PER_WORKER: u64 = 4;

/// Blocks per scheduler chunk for a launch of `num_blocks` blocks.
pub(crate) fn block_chunk_len(num_blocks: u64) -> u64 {
    let workers = rayon::current_num_threads() as u64;
    num_blocks.div_ceil(workers * CHUNKS_PER_WORKER).max(1)
}

/// Per-thread launch coordinates, mirroring the GPU builtins used in the
/// paper's listings.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ThreadCtx {
    /// This thread's index within its block.
    pub thread_idx: Dim3,
    /// This thread's block index within the grid.
    pub block_idx: Dim3,
    /// The block dimensions of the launch.
    pub block_dim: Dim3,
    /// The grid dimensions of the launch.
    pub grid_dim: Dim3,
}

impl ThreadCtx {
    /// The 1-D global thread index `block_idx.x * block_dim.x + thread_idx.x`,
    /// as used by BabelStream, miniBUDE and Hartree–Fock.
    #[inline]
    pub fn global_x(&self) -> u64 {
        u64::from(self.block_idx.x) * u64::from(self.block_dim.x) + u64::from(self.thread_idx.x)
    }

    /// The 1-D global thread index along y.
    #[inline]
    pub fn global_y(&self) -> u64 {
        u64::from(self.block_idx.y) * u64::from(self.block_dim.y) + u64::from(self.thread_idx.y)
    }

    /// The 1-D global thread index along z.
    #[inline]
    pub fn global_z(&self) -> u64 {
        u64::from(self.block_idx.z) * u64::from(self.block_dim.z) + u64::from(self.thread_idx.z)
    }

    /// Total number of threads in the grid along x
    /// (`block_dim.x * grid_dim.x`), the stride of a grid-stride loop.
    #[inline]
    pub fn threads_in_grid_x(&self) -> u64 {
        u64::from(self.block_dim.x) * u64::from(self.grid_dim.x)
    }
}

/// Runs every thread of one block sequentially, in linear order (x fastest),
/// mutating a single [`ThreadCtx`] instead of rebuilding one per thread.
#[inline]
pub(crate) fn run_block<F>(kernel: &F, block_idx: Dim3, block: Dim3, grid: Dim3)
where
    F: Fn(ThreadCtx),
{
    let mut ctx = ThreadCtx {
        thread_idx: Dim3::new(0, 0, 0),
        block_idx,
        block_dim: block,
        grid_dim: grid,
    };
    for tz in 0..block.z {
        for ty in 0..block.y {
            for tx in 0..block.x {
                ctx.thread_idx = Dim3::new(tx, ty, tz);
                kernel(ctx);
            }
        }
    }
}

/// Runs `kernel` once for every thread of the launch.
///
/// Contiguous chunks of blocks are distributed over the persistent pool;
/// threads within a block run sequentially. Because flat kernels have no
/// intra-block communication, this schedule is observationally equivalent to
/// any other.
pub fn launch_flat<F>(cfg: &LaunchConfig, kernel: F)
where
    F: Fn(ThreadCtx) + Sync,
{
    let grid = cfg.grid;
    let block = cfg.block;
    let num_blocks = cfg.num_blocks();
    let chunk = block_chunk_len(num_blocks);
    let num_chunks = num_blocks.div_ceil(chunk);

    (0..num_chunks).into_par_iter().for_each(|chunk_index| {
        let start = chunk_index * chunk;
        let end = (start + chunk).min(num_blocks);
        for block_linear in start..end {
            let (bx, by, bz) = grid.delinearize(block_linear);
            run_block(&kernel, Dim3::new(bx, by, bz), block, grid);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::slice::UnsafeSlice;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn every_thread_runs_exactly_once() {
        let cfg = LaunchConfig::new((4u32, 3u32, 2u32), (8u32, 2u32, 2u32));
        let count = AtomicU64::new(0);
        launch_flat(&cfg, |_ctx| {
            count.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(count.load(Ordering::Relaxed), cfg.total_threads());
    }

    #[test]
    fn global_x_matches_cuda_formula() {
        let cfg = LaunchConfig::new(4u32, 256u32);
        let total = cfg.total_threads() as usize;
        let mut out = vec![0u64; total];
        {
            let slice = UnsafeSlice::new(&mut out);
            launch_flat(&cfg, |ctx| {
                let i = ctx.global_x() as usize;
                slice.write(i, ctx.global_x());
            });
        }
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, i as u64);
        }
    }

    #[test]
    fn grid_stride_loop_covers_all_elements() {
        // Mirrors the accumulation loop of the BabelStream dot kernel.
        let n = 10_000usize;
        let cfg = LaunchConfig::new(8u32, 128u32);
        let mut hits = vec![0u8; n];
        {
            let slice = UnsafeSlice::new(&mut hits);
            launch_flat(&cfg, |ctx| {
                let mut i = ctx.global_x() as usize;
                let stride = ctx.threads_in_grid_x() as usize;
                while i < n {
                    slice.write(i, slice.read(i) + 1);
                    i += stride;
                }
            });
        }
        assert!(hits.iter().all(|&h| h == 1));
    }

    #[test]
    fn thread_ctx_helpers() {
        let ctx = ThreadCtx {
            thread_idx: Dim3::new(3, 1, 0),
            block_idx: Dim3::new(2, 4, 1),
            block_dim: Dim3::new(8, 2, 1),
            grid_dim: Dim3::new(16, 8, 2),
        };
        assert_eq!(ctx.global_x(), 2 * 8 + 3);
        assert_eq!(ctx.global_y(), 4 * 2 + 1);
        assert_eq!(ctx.global_z(), 1);
        assert_eq!(ctx.threads_in_grid_x(), 8 * 16);
    }
}
