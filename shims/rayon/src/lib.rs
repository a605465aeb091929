//! Offline stand-in for `rayon`.
//!
//! Implements the slice of rayon this workspace uses — `into_par_iter()` over
//! integer ranges, [`par_iter()`](ParallelSlice::par_iter) over borrowed
//! slices (`for_each`, `map().collect()`, the deterministic
//! [`reduce`](IndexedParallelIterator::reduce) /
//! [`fold`](IndexedParallelIterator::fold) lanes), `par_chunks_mut`,
//! [`join`], and `ThreadPoolBuilder::install` for single-threaded runs — on
//! top of a **persistent work-stealing thread pool** ([`pool`]). Workers are
//! spawned once per process and kept alive; every parallel region is split
//! into per-worker deque segments with batch stealing, so a kernel launch
//! costs a queue push rather than a round of `std::thread::spawn`/`join`.
//! `RAYON_NUM_THREADS` overrides the worker count; with one hardware thread
//! (or `RAYON_NUM_THREADS=1`) everything degenerates to inline loops with no
//! thread overhead.

use std::ops::Range;
use std::sync::Mutex;

pub mod pool;

pub use pool::{current_num_threads, join};

/// The rayon-style glob import.
pub mod prelude {
    pub use crate::{
        IndexedParallelIterator, IntoParallelIterator, ParallelIterator, ParallelSlice,
        ParallelSliceMut,
    };
}

/// Builder mirroring `rayon::ThreadPoolBuilder` for the one configuration the
/// workspace needs: a serial (one-thread) pool for determinism tests.
#[derive(Debug, Default)]
pub struct ThreadPoolBuilder {
    num_threads: usize,
}

impl ThreadPoolBuilder {
    /// Creates a builder with default (global pool) settings.
    pub fn new() -> Self {
        ThreadPoolBuilder { num_threads: 0 }
    }

    /// Requests a specific thread count (`1` gives strictly serial scopes).
    pub fn num_threads(mut self, n: usize) -> Self {
        self.num_threads = n;
        self
    }

    /// Builds the pool handle. Never fails in the shim.
    pub fn build(self) -> Result<ThreadPool, std::convert::Infallible> {
        Ok(ThreadPool {
            num_threads: self.num_threads,
        })
    }
}

/// A pool handle from [`ThreadPoolBuilder`]. With `num_threads(1)` its
/// `install` runs every nested parallel scope inline on the calling thread;
/// other counts delegate to the process-global pool (the shim does not build
/// additional worker sets).
#[derive(Debug)]
pub struct ThreadPool {
    num_threads: usize,
}

impl ThreadPool {
    /// Runs `f` with this pool's execution policy installed on the current
    /// thread.
    pub fn install<R>(&self, f: impl FnOnce() -> R) -> R {
        if self.num_threads == 1 {
            pool::run_serial(f)
        } else {
            f()
        }
    }
}

/// Runs `f(i)` for every `i in 0..len`, distributing index segments over the
/// persistent pool.
fn parallel_indexed<F: Fn(usize) + Sync>(len: usize, f: F) {
    pool::scope_indexed(len, &f);
}

/// A cell handing one indexed `&mut` chunk to exactly one pool task.
type ChunkCell<'a, T> = Mutex<Option<(usize, &'a mut [T])>>;

/// Computes `f(i)` for every `i in 0..len` and returns the results in order.
///
/// Safe disjoint-chunk implementation: the output is split into
/// non-overlapping `&mut` chunks up front, each chunk is handed to exactly
/// one pool task through a take-once cell, and every task writes only its own
/// chunk — no raw-pointer aliasing anywhere.
fn parallel_collect<R: Send, F: Fn(usize) -> R + Sync>(len: usize, f: F) -> Vec<R> {
    // Serial scopes run inline: skip the per-chunk cells entirely.
    if current_num_threads() == 1 {
        return (0..len).map(f).collect();
    }
    let mut slots: Vec<Option<R>> = (0..len).map(|_| None).collect();
    let chunk_size = collect_chunk_size(len);
    {
        let chunks: Vec<ChunkCell<'_, Option<R>>> = slots
            .chunks_mut(chunk_size)
            .enumerate()
            .map(|pair| Mutex::new(Some(pair)))
            .collect();
        pool::scope_indexed(chunks.len(), &|task| {
            let taken = chunks[task]
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .take();
            let (chunk_index, chunk) = taken.expect("collect chunk taken twice");
            let base = chunk_index * chunk_size;
            for (offset, slot) in chunk.iter_mut().enumerate() {
                *slot = Some(f(base + offset));
            }
        });
    }
    slots
        .into_iter()
        .map(|slot| slot.expect("parallel_collect slot not filled"))
        .collect()
}

/// Chunk granularity for ordered collection: enough chunks to keep every
/// worker busy (and stealable), large enough to amortise the per-chunk cell.
fn collect_chunk_size(len: usize) -> usize {
    let tasks = current_num_threads() * 8;
    len.div_ceil(tasks.max(1)).max(1)
}

/// Fixed chunk width of the deterministic reduction lane.
///
/// The reduction lane splits its input into chunks of exactly this many
/// elements **regardless of the thread count**: each chunk is folded
/// left-to-right on one task, then the chunk partials are combined through a
/// fixed pairwise tree on the calling thread. Because neither the chunking
/// nor the combine order depends on scheduling, a floating-point reduction
/// returns the *bitwise-identical* result at any `RAYON_NUM_THREADS` —
/// including 1 — which is what lets the experiment pipeline promise
/// byte-identical output across thread counts.
pub const REDUCE_CHUNK: usize = 1024;

/// Deterministic fixed-chunk tree reduction of `map(0) ⊕ map(1) ⊕ … ⊕
/// map(len-1)` (seeded with `identity()` per chunk).
///
/// Grouping is a pure function of `len`: elements are folded left-to-right
/// within [`REDUCE_CHUNK`]-sized chunks and the chunk partials are combined
/// pairwise in index order, so the result is bitwise-stable across thread
/// counts even for non-associative operators like `f64` addition.
fn parallel_reduce<R, ID, M, OP>(len: usize, identity: &ID, map: &M, op: &OP) -> R
where
    R: Send,
    ID: Fn() -> R + Sync,
    M: Fn(usize) -> R + Sync,
    OP: Fn(R, R) -> R + Sync,
{
    if len == 0 {
        return identity();
    }
    if current_num_threads() == 1 {
        return serial_chunk_reduce(len, identity, &|acc, i| op(acc, map(i)), op);
    }
    let partials = chunk_partials(len, identity, &|acc, i| op(acc, map(i)));
    combine_pairwise(partials, op)
}

/// The serial lane shared by [`parallel_reduce`] and [`Fold::reduce`]: chunk
/// partials are computed inline and merged through the allocation-free
/// [`TreeCombiner`], so a warm reduction at one thread touches the global
/// allocator zero times while returning the bit-for-bit same result as the
/// pooled lane.
fn serial_chunk_reduce<R, ID, FO, OP>(len: usize, seed: &ID, fold_op: &FO, op: &OP) -> R
where
    ID: Fn() -> R,
    FO: Fn(R, usize) -> R,
    OP: Fn(R, R) -> R,
{
    let mut combiner = TreeCombiner::new();
    let mut start = 0;
    while start < len {
        let end = (start + REDUCE_CHUNK).min(len);
        let mut acc = seed();
        for i in start..end {
            acc = fold_op(acc, i);
        }
        combiner.push(acc, op);
        start = end;
    }
    combiner
        .finish(op)
        .expect("non-empty reduction lost its result")
}

/// An allocation-free combiner producing exactly the same association order as
/// [`combine_pairwise`]'s level-order tree.
///
/// Partials are pushed in index order into a binary counter: level `k` holds
/// the combined result of an aligned run of `2^k` consecutive partials, and
/// pushing partial `i` performs one merge per trailing one-bit of `i`. The
/// final sweep merges the surviving levels bottom-up with the earlier-index
/// group always on the left — which reproduces, operation for operation, the
/// pairing that the level-order tree performs (lower levels hold *later*
/// partials, so they are right operands). The stack is a fixed array: no heap.
struct TreeCombiner<R> {
    levels: [Option<R>; usize::BITS as usize],
    count: usize,
}

impl<R> TreeCombiner<R> {
    fn new() -> Self {
        TreeCombiner {
            levels: std::array::from_fn(|_| None),
            count: 0,
        }
    }

    /// Pushes the next in-order partial, merging completed power-of-two runs.
    fn push<OP: Fn(R, R) -> R>(&mut self, mut partial: R, op: &OP) {
        let mut level = 0;
        let mut mask = self.count;
        while mask & 1 == 1 {
            let left = self.levels[level].take().expect("combiner level vacant");
            partial = op(left, partial);
            mask >>= 1;
            level += 1;
        }
        self.levels[level] = Some(partial);
        self.count += 1;
    }

    /// Merges the surviving levels bottom-up (earlier-index group first) into
    /// the final result; `None` when nothing was pushed.
    fn finish<OP: Fn(R, R) -> R>(mut self, op: &OP) -> Option<R> {
        let mut acc: Option<R> = None;
        for level in 0..self.levels.len() {
            if let Some(left) = self.levels[level].take() {
                acc = Some(match acc {
                    Some(right) => op(left, right),
                    None => left,
                });
            }
        }
        acc
    }
}

/// The fixed-chunk partial accumulators both deterministic lanes share: one
/// accumulator per [`REDUCE_CHUNK`]-sized chunk, seeded with `seed()` and
/// folded left-to-right with `fold_op` over the chunk's positions. The
/// grouping is a pure function of `len`, which is what makes every lane
/// built on it bitwise-stable across thread counts.
fn chunk_partials<R, ID, FO>(len: usize, seed: &ID, fold_op: &FO) -> Vec<R>
where
    R: Send,
    ID: Fn() -> R + Sync,
    FO: Fn(R, usize) -> R + Sync,
{
    let nchunks = len.div_ceil(REDUCE_CHUNK);
    parallel_collect(nchunks, move |chunk| {
        let start = chunk * REDUCE_CHUNK;
        let end = (start + REDUCE_CHUNK).min(len);
        let mut acc = seed();
        for i in start..end {
            acc = fold_op(acc, i);
        }
        acc
    })
}

/// Combines in-order chunk partials through a fixed pairwise tree on the
/// calling thread. The tree shape depends only on the partial count, so the
/// combine order is identical at every thread count.
fn combine_pairwise<R, OP: Fn(R, R) -> R>(mut partials: Vec<R>, op: &OP) -> R {
    while partials.len() > 1 {
        let mut next = Vec::with_capacity(partials.len().div_ceil(2));
        let mut pairs = partials.into_iter();
        while let Some(a) = pairs.next() {
            match pairs.next() {
                Some(b) => next.push(op(a, b)),
                None => next.push(a),
            }
        }
        partials = next;
    }
    partials.pop().expect("non-empty reduction lost its result")
}

/// Types the deterministic [`sum`](Map::sum) lane can accumulate.
pub trait ParallelSum: Send {
    /// The additive identity.
    fn zero() -> Self;
    /// Adds two partials.
    fn add(a: Self, b: Self) -> Self;
}

macro_rules! impl_parallel_sum {
    ($($t:ty),*) => {$(
        impl ParallelSum for $t {
            fn zero() -> Self {
                0 as $t
            }
            fn add(a: Self, b: Self) -> Self {
                a + b
            }
        }
    )*};
}

impl_parallel_sum!(f32, f64, u32, u64, usize, i32, i64);

/// Conversion into a parallel iterator.
pub trait IntoParallelIterator {
    /// The element type.
    type Item: Send;
    /// The resulting iterator type.
    type Iter: ParallelIterator<Item = Self::Item>;
    /// Converts `self` into a parallel iterator.
    fn into_par_iter(self) -> Self::Iter;
}

/// The operations this shim's parallel iterators support.
pub trait ParallelIterator: Sized {
    /// The element type.
    type Item: Send;

    /// Consumes the iterator, invoking `f` on every element in parallel.
    fn for_each<F: Fn(Self::Item) + Sync + Send>(self, f: F);

    /// Maps every element through `f`.
    fn map<R: Send, F: Fn(Self::Item) -> R + Sync + Send>(self, f: F) -> Map<Self, F> {
        Map { base: self, f }
    }
}

/// Integer types usable as parallel range bounds.
pub trait RangeInt: Copy + Send + Sync {
    /// Number of elements between `start` and `end` (0 if inverted).
    fn span(start: Self, end: Self) -> usize;
    /// `start + offset`.
    fn offset(self, offset: usize) -> Self;
}

macro_rules! impl_range_int {
    ($($t:ty),*) => {$(
        impl RangeInt for $t {
            fn span(start: Self, end: Self) -> usize {
                if end > start { (end - start) as usize } else { 0 }
            }
            fn offset(self, offset: usize) -> Self {
                self + offset as $t
            }
        }
    )*};
}

impl_range_int!(i32, i64, u32, u64, usize);

/// A parallel iterator over an integer range.
pub struct RangeIter<T> {
    range: Range<T>,
}

impl<T: RangeInt> IntoParallelIterator for Range<T> {
    type Item = T;
    type Iter = RangeIter<T>;
    fn into_par_iter(self) -> RangeIter<T> {
        RangeIter { range: self }
    }
}

impl<T: RangeInt> ParallelIterator for RangeIter<T> {
    type Item = T;
    fn for_each<F: Fn(T) + Sync + Send>(self, f: F) {
        let start = self.range.start;
        let len = T::span(start, self.range.end);
        parallel_indexed(len, |i| f(start.offset(i)));
    }
}

impl<T: RangeInt> IndexedParallelIterator for RangeIter<T> {
    fn len(&self) -> usize {
        T::span(self.range.start, self.range.end)
    }

    fn get(&self, i: usize) -> T {
        self.range.start.offset(i)
    }
}

/// Parallel iterators with random access by position: integer ranges,
/// borrowed slices, and `map`s of either. Random access is what lets the
/// deterministic lanes ([`collect`](Self::collect), [`reduce`](Self::reduce),
/// [`fold`](Self::fold), [`sum`](Self::sum)) split the input into
/// *position-fixed* chunks, so their grouping — and therefore their result,
/// bitwise — is independent of the thread count.
pub trait IndexedParallelIterator: ParallelIterator + Sync {
    /// Number of elements.
    fn len(&self) -> usize;

    /// The element at position `i` (`i < self.len()`).
    fn get(&self, i: usize) -> Self::Item;

    /// Whether the iterator is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Collects the elements in position order.
    fn collect<C>(self) -> C
    where
        C: FromIndexedResults<Self::Item>,
    {
        let this = &self;
        C::from_results(parallel_collect(self.len(), move |i| this.get(i)))
    }

    /// Reduces the elements with `op`, seeding every chunk with `identity()`,
    /// through the deterministic fixed-chunk tree lane: the result is
    /// bitwise-identical at every thread count (see [`REDUCE_CHUNK`]). An
    /// empty iterator returns `identity()`.
    fn reduce<ID, OP>(self, identity: ID, op: OP) -> Self::Item
    where
        ID: Fn() -> Self::Item + Sync,
        OP: Fn(Self::Item, Self::Item) -> Self::Item + Sync,
    {
        let this = &self;
        parallel_reduce(self.len(), &identity, &move |i| this.get(i), &op)
    }

    /// Sums the elements through the deterministic reduction lane
    /// ([`Self::reduce`] with the additive identity).
    fn sum<S>(self) -> S
    where
        S: ParallelSum,
        Self: IndexedParallelIterator<Item = S>,
    {
        self.reduce(S::zero, S::add)
    }

    /// Folds the elements into accumulators seeded with `identity()`, one per
    /// [`REDUCE_CHUNK`]-sized chunk, mirroring rayon's `fold`: the result is
    /// a [`Fold`] of per-chunk partials whose
    /// [`reduce`](Fold::reduce) combines them through the same fixed pairwise
    /// tree as [`Self::reduce`]. Chunking is a pure function of the length,
    /// so a `fold(..).reduce(..)` pipeline is bitwise-stable across thread
    /// counts even for non-associative accumulators.
    fn fold<R, ID, FO>(self, identity: ID, fold_op: FO) -> Fold<Self, ID, FO>
    where
        R: Send,
        ID: Fn() -> R + Sync,
        FO: Fn(R, Self::Item) -> R + Sync,
    {
        Fold {
            base: self,
            identity,
            fold_op,
        }
    }
}

/// The deferred result of [`IndexedParallelIterator::fold`]: one accumulator
/// per fixed-width chunk, combined by [`Fold::reduce`].
pub struct Fold<I, ID, FO> {
    base: I,
    identity: ID,
    fold_op: FO,
}

impl<I, ID, FO> Fold<I, ID, FO> {
    /// Combines the per-chunk accumulators through the fixed pairwise tree.
    /// `identity()` is returned for an empty input (the chunk accumulators
    /// themselves are seeded by the `fold` identity), matching rayon's
    /// `fold(..).reduce(..)` semantics.
    pub fn reduce<R, RID, OP>(self, identity: RID, op: OP) -> R
    where
        I: IndexedParallelIterator,
        R: Send,
        ID: Fn() -> R + Sync,
        FO: Fn(R, I::Item) -> R + Sync,
        RID: Fn() -> R + Sync,
        OP: Fn(R, R) -> R + Sync,
    {
        let len = self.base.len();
        if len == 0 {
            return identity();
        }
        let base = &self.base;
        let fold_op = &self.fold_op;
        if current_num_threads() == 1 {
            return serial_chunk_reduce(
                len,
                &self.identity,
                &|acc, i| fold_op(acc, base.get(i)),
                &op,
            );
        }
        let partials = chunk_partials(len, &self.identity, &|acc, i| fold_op(acc, base.get(i)));
        combine_pairwise(partials, &op)
    }
}

/// Conversion of borrowed slices into parallel iterators (rayon's
/// `par_iter()` entry point for `&[T]`).
pub trait ParallelSlice<T: Sync> {
    /// Iterates the slice elements by reference in parallel.
    fn par_iter(&self) -> SliceIter<'_, T>;
}

impl<T: Sync> ParallelSlice<T> for [T] {
    fn par_iter(&self) -> SliceIter<'_, T> {
        SliceIter { slice: self }
    }
}

/// A parallel iterator over a borrowed slice.
pub struct SliceIter<'a, T> {
    slice: &'a [T],
}

impl<'a, T: Sync> ParallelIterator for SliceIter<'a, T> {
    type Item = &'a T;
    fn for_each<F: Fn(&'a T) + Sync + Send>(self, f: F) {
        let slice = self.slice;
        parallel_indexed(slice.len(), |i| f(&slice[i]));
    }
}

impl<'a, T: Sync> IndexedParallelIterator for SliceIter<'a, T> {
    fn len(&self) -> usize {
        self.slice.len()
    }

    fn get(&self, i: usize) -> &'a T {
        &self.slice[i]
    }
}

/// A mapped parallel iterator.
pub struct Map<I, F> {
    base: I,
    f: F,
}

impl<I: ParallelIterator, R: Send, F: Fn(I::Item) -> R + Sync + Send> ParallelIterator
    for Map<I, F>
{
    type Item = R;
    fn for_each<G: Fn(R) + Sync + Send>(self, g: G) {
        let f = self.f;
        self.base.for_each(move |item| g(f(item)));
    }
}

impl<I: IndexedParallelIterator, R: Send, F: Fn(I::Item) -> R + Sync + Send> IndexedParallelIterator
    for Map<I, F>
{
    fn len(&self) -> usize {
        self.base.len()
    }

    fn get(&self, i: usize) -> R {
        (self.f)(self.base.get(i))
    }
}

/// Collection types constructible from in-order parallel results.
pub trait FromIndexedResults<R> {
    /// Builds the collection from ordered results.
    fn from_results(results: Vec<R>) -> Self;
}

impl<R> FromIndexedResults<R> for Vec<R> {
    fn from_results(results: Vec<R>) -> Self {
        results
    }
}

/// Parallel operations on mutable slices.
pub trait ParallelSliceMut<T: Send> {
    /// Splits the slice into chunks of `size` elements processed in parallel.
    fn par_chunks_mut(&mut self, size: usize) -> ChunksMut<'_, T>;
}

impl<T: Send> ParallelSliceMut<T> for [T] {
    fn par_chunks_mut(&mut self, size: usize) -> ChunksMut<'_, T> {
        ChunksMut { slice: self, size }
    }
}

/// Parallel iterator over mutable chunks. Lazy: the slice is not split until
/// a consuming call, and serial scopes iterate `chunks_mut` directly without
/// allocating per-chunk cells.
pub struct ChunksMut<'a, T> {
    slice: &'a mut [T],
    size: usize,
}

impl<'a, T: Send> ChunksMut<'a, T> {
    /// Pairs every chunk with its index.
    pub fn enumerate(self) -> EnumeratedChunks<'a, T> {
        EnumeratedChunks {
            slice: self.slice,
            size: self.size,
        }
    }

    /// Invokes `f` on every chunk in parallel.
    pub fn for_each<F: Fn(&'a mut [T]) + Sync + Send>(self, f: F) {
        self.enumerate().for_each(|(_, chunk)| f(chunk));
    }
}

/// Enumerated parallel chunk iterator.
pub struct EnumeratedChunks<'a, T> {
    slice: &'a mut [T],
    size: usize,
}

impl<'a, T: Send> EnumeratedChunks<'a, T> {
    /// Invokes `f` on every `(index, chunk)` pair in parallel. Each chunk is
    /// owned by exactly one pool task (moved out of a take-once cell), so the
    /// mutable borrows never alias.
    pub fn for_each<F: Fn((usize, &'a mut [T])) + Sync + Send>(self, f: F) {
        // Serial scopes run inline, splitting lazily: no cells, no heap.
        if current_num_threads() == 1 {
            for pair in self.slice.chunks_mut(self.size).enumerate() {
                f(pair);
            }
            return;
        }
        let cells: Vec<ChunkCell<'a, T>> = self
            .slice
            .chunks_mut(self.size)
            .enumerate()
            .map(|pair| Mutex::new(Some(pair)))
            .collect();
        pool::scope_indexed(cells.len(), &|i| {
            let taken = cells[i].lock().unwrap_or_else(|e| e.into_inner()).take();
            f(taken.expect("chunk taken twice"));
        });
    }
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn range_for_each_visits_everything_once() {
        let n = 10_000u64;
        let sum = AtomicU64::new(0);
        (0..n).into_par_iter().for_each(|i| {
            sum.fetch_add(i, Ordering::Relaxed);
        });
        assert_eq!(sum.load(Ordering::Relaxed), n * (n - 1) / 2);
    }

    #[test]
    fn map_collect_preserves_order() {
        let out: Vec<u64> = (0..1000u64).into_par_iter().map(|i| i * 2).collect();
        assert_eq!(out.len(), 1000);
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, i as u64 * 2);
        }
    }

    #[test]
    fn par_chunks_mut_covers_the_slice() {
        let mut data = vec![0u32; 1037];
        data.par_chunks_mut(64).enumerate().for_each(|(i, chunk)| {
            for v in chunk.iter_mut() {
                *v = i as u32 + 1;
            }
        });
        assert!(data.iter().all(|&v| v > 0));
        assert_eq!(data[0], 1);
        assert_eq!(data[64], 2);
    }

    #[test]
    fn serial_install_matches_parallel_results() {
        let parallel: Vec<u64> = (0..512u64).into_par_iter().map(|i| i * i).collect();
        let serial: Vec<u64> = crate::ThreadPoolBuilder::new()
            .num_threads(1)
            .build()
            .unwrap()
            .install(|| (0..512u64).into_par_iter().map(|i| i * i).collect());
        assert_eq!(parallel, serial);
    }

    #[test]
    fn sum_matches_the_serial_fold_for_integers() {
        let n = 100_003u64;
        let total: u64 = (0..n).into_par_iter().map(|i| i).sum();
        assert_eq!(total, n * (n - 1) / 2);
    }

    #[test]
    fn reduce_is_bitwise_stable_across_thread_counts() {
        // A sum whose result depends on association order: pooled and serial
        // execution must still agree bit-for-bit through the fixed-chunk tree.
        let f = |i: u64| 1.0f64 / (i as f64 + 1.0);
        let pooled: f64 = (0..50_000u64).into_par_iter().map(f).sum();
        let serial: f64 = crate::ThreadPoolBuilder::new()
            .num_threads(1)
            .build()
            .unwrap()
            .install(|| (0..50_000u64).into_par_iter().map(f).sum());
        assert_eq!(pooled.to_bits(), serial.to_bits());
    }

    #[test]
    fn tree_combiner_reproduces_the_level_order_pairwise_tree() {
        // A textual operator exposes the exact association: any deviation in
        // pairing or operand order changes the string.
        let op = |a: String, b: String| format!("({a}+{b})");
        for n in 1..=64usize {
            let partials: Vec<String> = (0..n).map(|i| i.to_string()).collect();
            let expected = crate::combine_pairwise(partials.clone(), &op);
            let mut combiner = crate::TreeCombiner::new();
            for p in partials {
                combiner.push(p, &op);
            }
            let got = combiner.finish(&op).expect("non-empty combine");
            assert_eq!(got, expected, "combiner diverged from the tree at n={n}");
        }
    }

    #[test]
    fn reduce_is_bitwise_stable_at_chunk_boundaries() {
        let serial_pool = crate::ThreadPoolBuilder::new()
            .num_threads(1)
            .build()
            .unwrap();
        let f = |i: u64| 1.0f64 / (i as f64 + 1.0);
        for &n in &[
            1u64,
            2,
            1023,
            1024,
            1025,
            3 * 1024,
            5 * 1024 + 17,
            11 * 1024 + 9,
            13 * 1024 + 1,
        ] {
            let pooled: f64 = (0..n).into_par_iter().map(f).sum();
            let serial: f64 = serial_pool.install(|| (0..n).into_par_iter().map(f).sum());
            assert_eq!(pooled.to_bits(), serial.to_bits(), "n={n}");
        }
    }

    #[test]
    fn reduce_handles_empty_and_single_element_ranges() {
        let empty: f64 = (0..0u64).into_par_iter().map(|_| 1.0).sum();
        assert_eq!(empty, 0.0);
        let single = (0..1u32)
            .into_par_iter()
            .map(|_| 41.0f64)
            .reduce(|| 1.0, |a, b| a + b);
        assert_eq!(single, 42.0);
    }

    #[test]
    fn reduce_computes_min_and_max() {
        let max = (0..10_000i64)
            .into_par_iter()
            .map(|i| ((i * 7919) % 10_007) as f64)
            .reduce(|| f64::NEG_INFINITY, f64::max);
        let expected = (0..10_000i64)
            .map(|i| ((i * 7919) % 10_007) as f64)
            .fold(f64::NEG_INFINITY, f64::max);
        assert_eq!(max, expected);
    }

    #[test]
    fn slice_par_iter_visits_by_reference_and_collects_in_order() {
        let data: Vec<u64> = (0..2048).collect();
        let sum = AtomicU64::new(0);
        data.par_iter().for_each(|&v| {
            sum.fetch_add(v, Ordering::Relaxed);
        });
        assert_eq!(sum.load(Ordering::Relaxed), 2048 * 2047 / 2);
        let doubled: Vec<u64> = data.par_iter().map(|&v| v * 2).collect();
        assert_eq!(doubled[1023], 2046);
        let total: u64 = data.par_iter().map(|&v| v).sum();
        assert_eq!(total, 2048 * 2047 / 2);
    }

    #[test]
    fn fold_reduce_is_bitwise_stable_across_thread_counts() {
        let data: Vec<f64> = (0..5000).map(|i| 1.0 / (i as f64 + 1.0)).collect();
        let fold_sum = |slice: &[f64]| -> f64 {
            slice
                .par_iter()
                .fold(|| 0.0f64, |acc, &v| acc + v)
                .reduce(|| 0.0, |a, b| a + b)
        };
        let pooled = fold_sum(&data);
        let serial = crate::ThreadPoolBuilder::new()
            .num_threads(1)
            .build()
            .unwrap()
            .install(|| fold_sum(&data));
        assert_eq!(pooled.to_bits(), serial.to_bits());
        // The fold lane chunks exactly like the reduce lane, so a fold-sum
        // equals a map-sum bitwise.
        let mapped: f64 = data.par_iter().map(|&v| v).sum();
        assert_eq!(pooled.to_bits(), mapped.to_bits());
    }

    #[test]
    fn fold_on_an_empty_input_returns_the_reduce_identity() {
        let empty: Vec<u64> = Vec::new();
        let count = empty
            .par_iter()
            .fold(|| 0u64, |acc, _| acc + 1)
            .reduce(|| 7u64, |a, b| a + b);
        assert_eq!(count, 7);
    }

    #[test]
    fn join_from_inside_a_parallel_region() {
        let total = AtomicU64::new(0);
        (0..64u64).into_par_iter().for_each(|i| {
            let (a, b) = crate::join(|| i * 2, || i * 3);
            total.fetch_add(a + b, Ordering::Relaxed);
        });
        assert_eq!(total.load(Ordering::Relaxed), 5 * 63 * 64 / 2);
    }
}
