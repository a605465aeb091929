//! Process-wide size-classed buffer pool: the steady-state memory
//! architecture behind every hot path (DESIGN.md §11).
//!
//! PR 2's thread-local arena recycled per-block scratch only, and only on the
//! thread that first allocated it. This module generalises that discipline to
//! the whole process: backing storage for [`DeviceBuffer`] allocations, coop
//! block scratch, pooled host staging ([`PooledVec`]), reusable report rows
//! and their rendered text ([`PooledString`]) all check raw blocks out of one
//! global, size-classed shelf set and return them on drop. Blocks are rounded
//! up to power-of-two classes (64 B minimum), so a steady workload
//! re-requests the *same* classes on every launch and — after warm-up — never
//! touches the global allocator: checkout pops a shelved block, recycle
//! pushes it back into already-reserved `Vec` capacity.
//!
//! Telemetry is first-class: every checkout is counted as a hit (served from
//! a shelf) or a miss (fresh `alloc`), with recycled vs fresh byte totals, the
//! current outstanding footprint, and its high-water mark. [`stats`] snapshots
//! the counters for the `pool: …` stderr line of `mojo-hpc run`/`sweep` and
//! for `serve`'s `stats` response.
//!
//! Panic safety: a [`PooledVec`] dropped during unwinding *frees* its block
//! instead of recycling it, so a panicking kernel cannot shelve storage whose
//! contents (or accounting) it may have left inconsistent.
//!
//! [`DeviceBuffer`]: crate::memory::DeviceBuffer

use serde::{Deserialize, Serialize};
use std::alloc::{alloc, dealloc, handle_alloc_error, Layout};
use std::marker::PhantomData;
use std::ptr::NonNull;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Smallest size class in bytes; requests below this round up to it.
pub const MIN_CLASS_BYTES: usize = 64;

/// Alignment of every pooled block. 16 bytes covers every scalar and SIMD
/// lane type the simulator stores ([`PooledVec`] enforces this bound on `T`).
pub const BLOCK_ALIGN: usize = 16;

/// Number of power-of-two size classes: 64 B × 2^0 .. 64 B × 2^26 (4 GiB).
const NUM_CLASSES: usize = 27;

/// Sentinel class index for blocks larger than the largest class; they are
/// allocated exactly and freed on recycle instead of shelved.
const OVERSIZE: usize = NUM_CLASSES;

/// Most bytes the shelves hold idle, across every class: 512 MiB. The
/// largest functional point, a stencil at l = 192, holds three 64 MiB blocks
/// (201 MB) at once, so the cap keeps the working sets of two concurrent
/// such points for reuse. A recycled block that would take the idle total
/// past the cap is freed instead of shelved.
const MAX_IDLE_BYTES: u64 = 512 << 20;

/// One shelf per size class. Const-initialised so the statics themselves
/// never allocate; each inner `Vec` grows only while the pool is warming up.
static SHELVES: [Mutex<Vec<Block>>; NUM_CLASSES] = [const { Mutex::new(Vec::new()) }; NUM_CLASSES];

static CHECKOUTS: AtomicU64 = AtomicU64::new(0);
static HITS: AtomicU64 = AtomicU64::new(0);
static MISSES: AtomicU64 = AtomicU64::new(0);
static RECYCLED_BYTES: AtomicU64 = AtomicU64::new(0);
static FRESH_BYTES: AtomicU64 = AtomicU64::new(0);
static OUTSTANDING_BYTES: AtomicU64 = AtomicU64::new(0);
static HIGH_WATER_BYTES: AtomicU64 = AtomicU64::new(0);
/// Bytes currently shelved, at most [`MAX_IDLE_BYTES`].
static IDLE_BYTES: AtomicU64 = AtomicU64::new(0);

/// A raw 16-byte-aligned allocation owned by the pool machinery.
///
/// Crate-internal: [`PooledVec`] and `memory::BufferStorage` wrap it; other
/// crates interact with the pool only through those types and [`stats`].
pub(crate) struct Block {
    ptr: NonNull<u8>,
    /// Usable capacity: the full rounded class size (or the exact rounded
    /// request for oversize blocks).
    bytes: usize,
    /// Index into [`SHELVES`], or [`OVERSIZE`].
    class: usize,
}

// SAFETY: a Block is an exclusive handle to its allocation; nothing about the
// raw pointer is thread-affine.
unsafe impl Send for Block {}

impl Block {
    /// The start of the block's storage.
    pub(crate) fn as_ptr(&self) -> *mut u8 {
        self.ptr.as_ptr()
    }

    /// Usable capacity in bytes (the rounded class size, not the request).
    pub(crate) fn bytes(&self) -> usize {
        self.bytes
    }

    fn layout(&self) -> Layout {
        // SAFETY-adjacent: bytes/align were validated when the block was
        // first allocated.
        Layout::from_size_align(self.bytes, BLOCK_ALIGN).expect("pool block layout")
    }
}

/// Rounds a byte request up to its pool class size (minimum 64 B,
/// powers of two). Oversize requests round up to [`BLOCK_ALIGN`].
pub fn class_bytes(bytes: usize) -> usize {
    let (class, rounded) = classify(bytes);
    if class == OVERSIZE {
        rounded
    } else {
        MIN_CLASS_BYTES << class
    }
}

/// Maps a request to `(class index, rounded byte size)`.
fn classify(bytes: usize) -> (usize, usize) {
    let wanted = bytes.max(MIN_CLASS_BYTES).next_power_of_two();
    let class = (wanted / MIN_CLASS_BYTES).trailing_zeros() as usize;
    if class < NUM_CLASSES {
        (class, wanted)
    } else {
        // Larger than the largest shelf: exact allocation, align-rounded.
        let rounded = bytes.div_ceil(BLOCK_ALIGN) * BLOCK_ALIGN;
        (OVERSIZE, rounded)
    }
}

/// Raises the high-water mark to at least `current`.
fn raise_high_water(current: u64) {
    let mut peak = HIGH_WATER_BYTES.load(Ordering::Relaxed);
    while current > peak {
        match HIGH_WATER_BYTES.compare_exchange_weak(
            peak,
            current,
            Ordering::Relaxed,
            Ordering::Relaxed,
        ) {
            Ok(_) => break,
            Err(now) => peak = now,
        }
    }
}

/// Checks a block of at least `bytes` bytes out of the pool.
///
/// Warm path: pops a shelved block of the same class — no allocator traffic.
/// Cold path: `alloc`s a fresh block of the full class size. `bytes` must be
/// non-zero.
pub(crate) fn checkout(bytes: usize) -> Block {
    assert!(bytes > 0, "pool checkout of zero bytes");
    let (class, rounded) = classify(bytes);
    CHECKOUTS.fetch_add(1, Ordering::Relaxed);

    if class != OVERSIZE {
        let shelved = SHELVES[class]
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .pop();
        if let Some(block) = shelved {
            IDLE_BYTES.fetch_sub(block.bytes as u64, Ordering::Relaxed);
            HITS.fetch_add(1, Ordering::Relaxed);
            RECYCLED_BYTES.fetch_add(block.bytes as u64, Ordering::Relaxed);
            let now = OUTSTANDING_BYTES.fetch_add(block.bytes as u64, Ordering::Relaxed)
                + block.bytes as u64;
            raise_high_water(now);
            return block;
        }
    }

    MISSES.fetch_add(1, Ordering::Relaxed);
    FRESH_BYTES.fetch_add(rounded as u64, Ordering::Relaxed);
    let now = OUTSTANDING_BYTES.fetch_add(rounded as u64, Ordering::Relaxed) + rounded as u64;
    raise_high_water(now);

    let layout = Layout::from_size_align(rounded, BLOCK_ALIGN).expect("pool block layout");
    // SAFETY: `rounded` is non-zero (>= MIN_CLASS_BYTES or align-rounded up
    // from a non-zero request).
    let raw = unsafe { alloc(layout) };
    let Some(ptr) = NonNull::new(raw) else {
        handle_alloc_error(layout)
    };
    Block {
        ptr,
        bytes: rounded,
        class,
    }
}

/// Returns a block to its class shelf (or frees it: oversize blocks and
/// blocks that would take the idle total past [`MAX_IDLE_BYTES`] are
/// deallocated).
pub(crate) fn recycle(block: Block) {
    let bytes = block.bytes as u64;
    OUTSTANDING_BYTES.fetch_sub(bytes, Ordering::Relaxed);
    if block.class != OVERSIZE {
        let mut shelf = SHELVES[block.class]
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        let admitted = IDLE_BYTES.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |idle| {
            (idle + bytes <= MAX_IDLE_BYTES).then_some(idle + bytes)
        });
        if admitted.is_ok() {
            shelf.push(block);
            return;
        }
    }
    free(block);
}

/// Deallocates a block without shelving it (oversize, over the idle cap, or
/// panic-path returns). Outstanding accounting must already be settled by the
/// caller ([`recycle`]) — [`discard`] settles it itself.
fn free(block: Block) {
    let layout = block.layout();
    // SAFETY: ptr/layout come from the matching `alloc` in `checkout`.
    unsafe { dealloc(block.ptr.as_ptr(), layout) };
}

/// Frees a checked-out block *without* recycling it — the panic-safety path:
/// storage whose contents may be inconsistent is dropped, not shelved.
pub(crate) fn discard(block: Block) {
    OUTSTANDING_BYTES.fetch_sub(block.bytes as u64, Ordering::Relaxed);
    free(block);
}

/// A snapshot of the pool counters (DESIGN.md §11 telemetry schema).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PoolStats {
    /// Total blocks checked out since process start.
    pub checkouts: u64,
    /// Checkouts served by popping a shelved block (no allocator traffic).
    pub hits: u64,
    /// Checkouts that had to allocate a fresh block.
    pub misses: u64,
    /// Cumulative bytes served from shelves.
    pub recycled_bytes: u64,
    /// Cumulative bytes served by fresh allocations.
    pub fresh_bytes: u64,
    /// Bytes currently checked out of the pool.
    pub outstanding_bytes: u64,
    /// Peak of [`outstanding_bytes`](Self::outstanding_bytes).
    pub high_water_bytes: u64,
}

impl PoolStats {
    /// Fraction of checkouts served from shelves (0.0 when none happened).
    pub fn hit_rate(&self) -> f64 {
        if self.checkouts == 0 {
            0.0
        } else {
            self.hits as f64 / self.checkouts as f64
        }
    }

    /// Counter-wise difference `self - earlier` for the monotonic counters;
    /// the gauges (`outstanding_bytes`, `high_water_bytes`) keep `self`'s
    /// values. Used to attribute pool traffic to one bench iteration.
    pub fn since(&self, earlier: &PoolStats) -> PoolStats {
        PoolStats {
            checkouts: self.checkouts.saturating_sub(earlier.checkouts),
            hits: self.hits.saturating_sub(earlier.hits),
            misses: self.misses.saturating_sub(earlier.misses),
            recycled_bytes: self.recycled_bytes.saturating_sub(earlier.recycled_bytes),
            fresh_bytes: self.fresh_bytes.saturating_sub(earlier.fresh_bytes),
            outstanding_bytes: self.outstanding_bytes,
            high_water_bytes: self.high_water_bytes,
        }
    }

    /// Adds another process's window into this one, for fleet-wide
    /// telemetry: the counters and outstanding bytes add, the high-water
    /// mark takes the larger of the two.
    pub fn accumulate(&mut self, other: &PoolStats) {
        self.checkouts += other.checkouts;
        self.hits += other.hits;
        self.misses += other.misses;
        self.recycled_bytes += other.recycled_bytes;
        self.fresh_bytes += other.fresh_bytes;
        self.outstanding_bytes += other.outstanding_bytes;
        self.high_water_bytes = self.high_water_bytes.max(other.high_water_bytes);
    }
}

/// Snapshots the global pool counters.
pub fn stats() -> PoolStats {
    PoolStats {
        checkouts: CHECKOUTS.load(Ordering::Relaxed),
        hits: HITS.load(Ordering::Relaxed),
        misses: MISSES.load(Ordering::Relaxed),
        recycled_bytes: RECYCLED_BYTES.load(Ordering::Relaxed),
        fresh_bytes: FRESH_BYTES.load(Ordering::Relaxed),
        outstanding_bytes: OUTSTANDING_BYTES.load(Ordering::Relaxed),
        high_water_bytes: HIGH_WATER_BYTES.load(Ordering::Relaxed),
    }
}

/// A growable array over pooled storage: the `Vec<T>` of the steady-state
/// architecture.
///
/// Capacity always occupies one pool block, so growth is geometric by size
/// class and a dropped `PooledVec` returns its block for the next checkout of
/// the same class. After warm-up, fill/clear/refill cycles at a stable size
/// touch the global allocator zero times.
///
/// `T` may be any type whose alignment is at most [`BLOCK_ALIGN`] (asserted
/// on first growth); elements are dropped in place like `Vec`'s.
pub struct PooledVec<T> {
    ptr: NonNull<T>,
    len: usize,
    cap: usize,
    block: Option<Block>,
    _marker: PhantomData<T>,
}

// SAFETY: PooledVec owns its elements and block exclusively, like Vec<T>.
unsafe impl<T: Send> Send for PooledVec<T> {}
// SAFETY: shared access only reads through &[T].
unsafe impl<T: Sync> Sync for PooledVec<T> {}

impl<T> PooledVec<T> {
    /// Creates an empty vector without checking out a block.
    pub const fn new() -> Self {
        PooledVec {
            ptr: NonNull::dangling(),
            len: 0,
            cap: if std::mem::size_of::<T>() == 0 {
                usize::MAX
            } else {
                0
            },
            block: None,
            _marker: PhantomData,
        }
    }

    /// Creates an empty vector holding a block for at least `cap` elements.
    pub fn with_capacity(cap: usize) -> Self {
        let mut v = Self::new();
        v.reserve(cap);
        v
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the vector is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Element capacity of the held block.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Ensures room for at least `additional` more elements, growing to the
    /// next size class if needed.
    pub fn reserve(&mut self, additional: usize) {
        let needed = self.len.checked_add(additional).expect("capacity overflow");
        if needed > self.cap {
            self.grow_to(needed);
        }
    }

    /// Replaces the current block with one of at least `needed` elements,
    /// moving the live prefix over.
    fn grow_to(&mut self, needed: usize) {
        let elem = std::mem::size_of::<T>();
        debug_assert!(elem > 0, "ZST PooledVec never grows");
        assert!(
            std::mem::align_of::<T>() <= BLOCK_ALIGN,
            "PooledVec element alignment exceeds the pool block alignment"
        );
        let bytes = needed.checked_mul(elem).expect("capacity overflow");
        let block = checkout(bytes);
        let new_ptr = block.as_ptr().cast::<T>();
        // SAFETY: both regions are valid for `len` elements, disjoint (fresh
        // block), and correctly aligned (BLOCK_ALIGN >= align_of::<T>()).
        unsafe {
            std::ptr::copy_nonoverlapping(self.ptr.as_ptr(), new_ptr, self.len);
        }
        let old = self.block.take();
        self.cap = block.bytes() / elem;
        // SAFETY: `alloc` never returns null through `checkout`.
        self.ptr = unsafe { NonNull::new_unchecked(new_ptr) };
        self.block = Some(block);
        if let Some(old) = old {
            recycle(old);
        }
    }

    /// Appends `value`.
    pub fn push(&mut self, value: T) {
        if self.len == self.cap {
            self.grow_to(self.cap.max(1) + 1);
        }
        // SAFETY: len < cap, so the slot is in bounds and uninitialised.
        unsafe {
            std::ptr::write(self.ptr.as_ptr().add(self.len), value);
        }
        self.len += 1;
    }

    /// Shortens to `len` elements, dropping the tail. No-op if already
    /// shorter.
    pub fn truncate(&mut self, len: usize) {
        while self.len > len {
            self.len -= 1;
            // SAFETY: the element at `self.len` was initialised and is now
            // out of the live prefix.
            unsafe {
                std::ptr::drop_in_place(self.ptr.as_ptr().add(self.len));
            }
        }
    }

    /// Drops every element, keeping the block for reuse.
    pub fn clear(&mut self) {
        self.truncate(0);
    }

    /// The elements as a slice.
    pub fn as_slice(&self) -> &[T] {
        // SAFETY: the first `len` elements are initialised.
        unsafe { std::slice::from_raw_parts(self.ptr.as_ptr(), self.len) }
    }

    /// The elements as a mutable slice.
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        // SAFETY: the first `len` elements are initialised and exclusively
        // borrowed.
        unsafe { std::slice::from_raw_parts_mut(self.ptr.as_ptr(), self.len) }
    }

    /// Resizes to `new_len`, filling new slots with `f()`.
    pub fn resize_with(&mut self, new_len: usize, mut f: impl FnMut() -> T) {
        if new_len <= self.len {
            self.truncate(new_len);
            return;
        }
        self.reserve(new_len - self.len);
        while self.len < new_len {
            // SAFETY: len < cap after the reserve above.
            unsafe {
                std::ptr::write(self.ptr.as_ptr().add(self.len), f());
            }
            self.len += 1;
        }
    }
}

impl<T: Clone> PooledVec<T> {
    /// Resizes to `new_len`, filling new slots with clones of `value`.
    pub fn resize(&mut self, new_len: usize, value: T) {
        self.resize_with(new_len, || value.clone());
    }

    /// Appends clones of every element of `other`.
    pub fn extend_from_slice(&mut self, other: &[T]) {
        self.reserve(other.len());
        for value in other {
            // SAFETY: reserve guaranteed room for other.len() more writes.
            unsafe {
                std::ptr::write(self.ptr.as_ptr().add(self.len), value.clone());
            }
            self.len += 1;
        }
    }
}

impl<T> Drop for PooledVec<T> {
    fn drop(&mut self) {
        self.clear();
        if let Some(block) = self.block.take() {
            if std::thread::panicking() {
                // Unwinding: drop the block rather than shelving storage the
                // panicking code may have left inconsistent.
                discard(block);
            } else {
                recycle(block);
            }
        }
    }
}

impl<T> Default for PooledVec<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> std::ops::Deref for PooledVec<T> {
    type Target = [T];
    fn deref(&self) -> &[T] {
        self.as_slice()
    }
}

impl<T> std::ops::DerefMut for PooledVec<T> {
    fn deref_mut(&mut self) -> &mut [T] {
        self.as_mut_slice()
    }
}

impl<T: Clone> Clone for PooledVec<T> {
    fn clone(&self) -> Self {
        let mut out = PooledVec::with_capacity(self.len);
        out.extend_from_slice(self);
        out
    }
}

impl<T: std::fmt::Debug> std::fmt::Debug for PooledVec<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.as_slice().fmt(f)
    }
}

impl<T: PartialEq> PartialEq for PooledVec<T> {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl<T: PartialEq> PartialEq<[T]> for PooledVec<T> {
    fn eq(&self, other: &[T]) -> bool {
        self.as_slice() == other
    }
}

impl<T: PartialEq> PartialEq<Vec<T>> for PooledVec<T> {
    fn eq(&self, other: &Vec<T>) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl<T: Eq> Eq for PooledVec<T> {}

impl<T: Clone> From<&[T]> for PooledVec<T> {
    fn from(slice: &[T]) -> Self {
        let mut out = PooledVec::with_capacity(slice.len());
        out.extend_from_slice(slice);
        out
    }
}

impl<T> FromIterator<T> for PooledVec<T> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        let iter = iter.into_iter();
        let mut out = PooledVec::with_capacity(iter.size_hint().0);
        for value in iter {
            out.push(value);
        }
        out
    }
}

impl<'a, T> IntoIterator for &'a PooledVec<T> {
    type Item = &'a T;
    type IntoIter = std::slice::Iter<'a, T>;
    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter()
    }
}

impl<T: Serialize> Serialize for PooledVec<T> {
    fn to_value(&self) -> serde::value::Value {
        serde::value::Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Deserialize> Deserialize for PooledVec<T> {
    fn from_value(v: &serde::value::Value) -> Result<Self, serde::value::Error> {
        match v {
            serde::value::Value::Array(items) => {
                let mut out = PooledVec::with_capacity(items.len());
                for item in items {
                    out.push(T::from_value(item)?);
                }
                Ok(out)
            }
            other => Err(serde::value::Error::new(format!(
                "expected array, found {other:?}"
            ))),
        }
    }
}

/// UTF-8 text over pooled storage: the `String` of rendered run text (skip
/// reasons, verification tokens). Its bytes go back to the pool's bounded
/// shelves when it drops, so text that differs on every run costs a shelf
/// pop rather than a fresh allocation, and nothing outlives its owner.
#[derive(Clone, Default, PartialEq)]
pub struct PooledString(PooledVec<u8>);

impl PooledString {
    /// Renders `args` into a new pooled string: the pooled `format!`.
    pub fn from_fmt(args: std::fmt::Arguments<'_>) -> Self {
        let mut out = PooledString::default();
        std::fmt::Write::write_fmt(&mut out, args).expect("formatting into pooled text");
        out
    }

    /// The text.
    pub fn as_str(&self) -> &str {
        // SAFETY: the bytes only ever grow through `write_str`, which appends
        // whole `&str`s, so they are always valid UTF-8.
        unsafe { std::str::from_utf8_unchecked(&self.0) }
    }
}

impl std::ops::Deref for PooledString {
    type Target = str;
    fn deref(&self) -> &str {
        self.as_str()
    }
}

impl std::fmt::Write for PooledString {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        self.0.extend_from_slice(s.as_bytes());
        Ok(())
    }
}

impl std::fmt::Display for PooledString {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

impl std::fmt::Debug for PooledString {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        std::fmt::Debug::fmt(self.as_str(), f)
    }
}

impl From<&str> for PooledString {
    fn from(text: &str) -> Self {
        PooledString(PooledVec::from(text.as_bytes()))
    }
}

impl PartialEq<&str> for PooledString {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == *other
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_rounding_is_power_of_two_with_a_floor() {
        assert_eq!(class_bytes(1), 64);
        assert_eq!(class_bytes(64), 64);
        assert_eq!(class_bytes(65), 128);
        assert_eq!(class_bytes(1000), 1024);
        assert_eq!(class_bytes(1024), 1024);
        assert_eq!(class_bytes(1 << 20), 1 << 20);
        assert_eq!(class_bytes((1 << 20) + 1), 1 << 21);
    }

    #[test]
    fn oversize_requests_round_to_alignment_only() {
        let huge = (MIN_CLASS_BYTES << (NUM_CLASSES - 1)) + 1;
        let rounded = class_bytes(huge);
        assert!(rounded >= huge);
        assert_eq!(rounded % BLOCK_ALIGN, 0);
        assert!(rounded < huge + BLOCK_ALIGN);
    }

    /// A size class distinctive enough that concurrently running tests from
    /// other modules do not plausibly touch its shelf.
    const QUIET_CLASS: usize = 3 << 20; // rounds to 4 MiB

    #[test]
    fn recycle_then_checkout_reuses_the_same_block() {
        // Pointer identity rather than global counters: other tests in this
        // process mutate the shared stats concurrently, but nothing else
        // touches this distinctive class.
        let block = checkout(QUIET_CLASS);
        let bytes = block.bytes();
        let ptr = block.as_ptr() as usize;
        assert_eq!(bytes, class_bytes(QUIET_CLASS));
        recycle(block);

        let again = checkout(QUIET_CLASS);
        assert_eq!(again.bytes(), bytes);
        assert_eq!(
            again.as_ptr() as usize,
            ptr,
            "warm checkout must pop the shelved block"
        );
        recycle(again);
    }

    #[test]
    fn outstanding_stays_below_the_high_water_mark() {
        // Monotonic invariants only: the counters are process-global and
        // other tests mutate them concurrently. The strict zero-allocation
        // assertions live in the serial `alloc_steady_state` binary.
        let a = checkout(128);
        let b = checkout(4096);
        let during = stats();
        assert!(during.high_water_bytes >= during.outstanding_bytes);
        recycle(a);
        recycle(b);
    }

    #[test]
    fn pooled_vec_behaves_like_vec() {
        let mut v: PooledVec<u64> = PooledVec::new();
        assert!(v.is_empty());
        for i in 0..1000u64 {
            v.push(i * 3);
        }
        assert_eq!(v.len(), 1000);
        assert_eq!(v[999], 2997);
        assert_eq!(&v[..4], &[0, 3, 6, 9]);
        v.truncate(10);
        assert_eq!(v.len(), 10);
        v.clear();
        assert!(v.is_empty());
        assert!(v.capacity() >= 1000, "clear keeps the block");
        v.extend_from_slice(&[7, 8, 9]);
        assert_eq!(v.as_slice(), &[7, 8, 9]);
        v.resize(5, 1);
        assert_eq!(v.as_slice(), &[7, 8, 9, 1, 1]);
        let w = v.clone();
        assert_eq!(v, w);
    }

    #[test]
    fn pooled_vec_steady_state_reuses_one_block() {
        // A size class no other test in this binary uses, so the shelf we
        // observe is ours alone.
        const N: usize = 48_000; // 375 KiB of f64 → 512 KiB class
        let mut v: PooledVec<f64> = PooledVec::new();
        v.resize(N, 0.0);
        let cap = v.capacity();
        let ptr = v.as_slice().as_ptr() as usize;
        drop(v);

        // Steady state: drop + refill at the same size pops the same block.
        for round in 0..5 {
            let mut v: PooledVec<f64> = PooledVec::with_capacity(N);
            v.resize(N, round as f64);
            assert_eq!(v.capacity(), cap);
            assert_eq!(
                v.as_slice().as_ptr() as usize,
                ptr,
                "steady-state refills must reuse the shelved block"
            );
            assert_eq!(v[N - 1], round as f64);
        }
    }

    #[test]
    fn pooled_vec_drops_its_elements() {
        use std::sync::atomic::AtomicUsize;
        static DROPS: AtomicUsize = AtomicUsize::new(0);
        struct Counted;
        impl Drop for Counted {
            fn drop(&mut self) {
                DROPS.fetch_add(1, Ordering::Relaxed);
            }
        }
        DROPS.store(0, Ordering::Relaxed);
        let mut v: PooledVec<Counted> = PooledVec::new();
        for _ in 0..10 {
            v.push(Counted);
        }
        v.truncate(6);
        assert_eq!(DROPS.load(Ordering::Relaxed), 4);
        drop(v);
        assert_eq!(DROPS.load(Ordering::Relaxed), 10);
    }

    #[test]
    fn zero_sized_elements_never_touch_the_pool() {
        let mut v: PooledVec<()> = PooledVec::new();
        assert_eq!(v.capacity(), usize::MAX, "ZSTs start at infinite capacity");
        for _ in 0..100 {
            v.push(());
        }
        assert_eq!(v.len(), 100);
        v.clear();
        assert!(v.is_empty());
    }

    #[test]
    fn panic_unwind_discards_instead_of_recycling() {
        // Use a distinctive class so the shelf observation is not confounded
        // by concurrent tests.
        const PANIC_CLASS: usize = 5 << 20; // rounds to 8 MiB
        let shelf_len = |class_request: usize| {
            let (class, _) = classify(class_request);
            SHELVES[class]
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .len()
        };
        let shelved_before = shelf_len(PANIC_CLASS);
        let result = std::panic::catch_unwind(|| {
            let mut v: PooledVec<u8> = PooledVec::new();
            v.resize(PANIC_CLASS, 0);
            panic!("kernel panicked while holding pooled storage");
        });
        assert!(result.is_err());
        assert_eq!(
            shelf_len(PANIC_CLASS),
            shelved_before,
            "a panicking holder must not shelve its block"
        );
    }

    #[test]
    fn concurrent_checkout_hands_out_distinct_blocks() {
        use std::collections::HashSet;
        let handles: Vec<_> = (0..8)
            .map(|_| {
                std::thread::spawn(|| {
                    let mut seen = Vec::new();
                    let mut held = Vec::new();
                    for _ in 0..64 {
                        let block = checkout(1024);
                        seen.push(block.as_ptr() as usize);
                        held.push(block);
                    }
                    for block in held {
                        recycle(block);
                    }
                    seen
                })
            })
            .collect();
        // Within each thread all 64 simultaneously-held blocks must be
        // distinct allocations.
        for handle in handles {
            let seen = handle.join().expect("checkout thread panicked");
            let unique: HashSet<usize> = seen.iter().copied().collect();
            assert_eq!(unique.len(), seen.len());
        }
    }

    #[test]
    fn a_block_past_the_idle_cap_is_freed() {
        // A class of its own, larger than the whole cap (it rounds to
        // 1 GiB), so no block of it can ever be shelved. The block is never
        // written, so it costs address space only.
        const OVER_CAP_CLASS: usize = MAX_IDLE_BYTES as usize + 1;
        let (class, _) = classify(OVER_CAP_CLASS);
        recycle(checkout(OVER_CAP_CLASS));
        assert!(SHELVES[class]
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .is_empty());
        assert!(IDLE_BYTES.load(Ordering::Relaxed) <= MAX_IDLE_BYTES);
    }

    #[test]
    fn pooled_strings_behave_like_strings() {
        // Growth across size classes keeps the bytes.
        let long = "x".repeat(1000);
        let grown = PooledString::from_fmt(format_args!("skipped({long})"));
        assert_eq!(grown.len(), 1009);
        assert!(grown.starts_with("skipped(x") && grown.ends_with("x)"));
        assert_eq!(PooledString::from(grown.as_str()), grown);

        let mut text = PooledString::default();
        std::fmt::Write::write_fmt(
            &mut text,
            format_args!("passed(max_abs_err={:.3e})", 1.25e-9),
        )
        .unwrap();
        assert_eq!(text, "passed(max_abs_err=1.250e-9)");
        assert_eq!(text.clone(), text);
        assert_eq!(
            format!("{text} {text:?}"),
            format!("{0} {0:?}", text.as_str())
        );
    }

    #[test]
    fn stats_snapshot_serialises() {
        let snapshot = stats();
        let value = snapshot.to_value();
        let back = PoolStats::from_value(&value).expect("roundtrip");
        assert_eq!(back.checkouts, snapshot.checkouts);
    }
}
