//! Simulated device memory: a capacity-tracked pool of typed buffers.
//!
//! Mirrors the paper's memory model (Listing 1): the host creates a
//! `DeviceContext`, enqueues buffer creations, copies data in, launches
//! kernels over the buffers, and copies results back. Here [`Device`] plays
//! the role of the context's device and [`DeviceBuffer`] the role of a device
//! allocation. Buffers use GPU global-memory semantics: any simulated thread
//! may read or write any element without synchronisation (see
//! [`crate::slice::UnsafeSlice`] for the safety contract).
//!
//! Backing storage is drawn from the process-wide size-classed buffer pool
//! ([`crate::pool`], DESIGN.md §11) and returned on drop, so repeated
//! launches that allocate the same buffer shapes stop touching the global
//! allocator after the first (warm-up) launch. Device-side accounting is
//! unaffected: `allocated_bytes` tracks the *logical* request, and the peak
//! footprint is exposed as [`Device::high_water_bytes`].

use crate::atomics;
use crate::error::{SimError, SimResult};
use crate::pool;
use gpu_spec::{GpuSpec, Precision};
use parking_lot::Mutex;
use std::ptr::NonNull;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Scalar element types that can live in simulated device memory.
pub trait DeviceScalar:
    Copy + Send + Sync + Default + PartialEq + std::fmt::Debug + 'static
{
    /// Size of one element in bytes.
    const SIZE_BYTES: usize;
    /// The floating-point precision this type corresponds to, if any.
    fn precision() -> Option<Precision>;
}

impl DeviceScalar for f32 {
    const SIZE_BYTES: usize = 4;
    fn precision() -> Option<Precision> {
        Some(Precision::Fp32)
    }
}

impl DeviceScalar for f64 {
    const SIZE_BYTES: usize = 8;
    fn precision() -> Option<Precision> {
        Some(Precision::Fp64)
    }
}

impl DeviceScalar for i32 {
    const SIZE_BYTES: usize = 4;
    fn precision() -> Option<Precision> {
        None
    }
}

impl DeviceScalar for u32 {
    const SIZE_BYTES: usize = 4;
    fn precision() -> Option<Precision> {
        None
    }
}

impl DeviceScalar for u64 {
    const SIZE_BYTES: usize = 8;
    fn precision() -> Option<Precision> {
        None
    }
}

/// Device-memory accounting: the live footprint and its peak.
#[derive(Debug, Default, Clone, Copy)]
struct MemUsage {
    allocated: u64,
    high_water: u64,
}

#[derive(Debug)]
struct DeviceInner {
    spec: GpuSpec,
    usage: Mutex<MemUsage>,
}

/// A simulated GPU device: owns the hardware description and tracks how much
/// of the device memory is currently allocated.
#[derive(Clone, Debug)]
pub struct Device {
    inner: Arc<DeviceInner>,
}

impl Device {
    /// Creates a device from a hardware description.
    pub fn new(spec: GpuSpec) -> Self {
        Device {
            inner: Arc::new(DeviceInner {
                spec,
                usage: Mutex::new(MemUsage::default()),
            }),
        }
    }

    /// The hardware description this device simulates.
    pub fn spec(&self) -> &GpuSpec {
        &self.inner.spec
    }

    /// Bytes of device memory currently allocated.
    pub fn allocated_bytes(&self) -> u64 {
        self.inner.usage.lock().allocated
    }

    /// Peak of [`allocated_bytes`](Self::allocated_bytes) over the device's
    /// lifetime. Under pooled steady-state reuse this stays flat while the
    /// current footprint returns to zero between launches.
    pub fn high_water_bytes(&self) -> u64 {
        self.inner.usage.lock().high_water
    }

    /// Allocates an uninitialised (zero-filled) buffer of `len` elements,
    /// mirroring `ctx.enqueue_create_buffer[dtype](len)`.
    ///
    /// Backing storage comes from the size-classed pool: a warm repeat of the
    /// same allocation shape reuses a shelved block instead of allocating.
    pub fn alloc<T: DeviceScalar>(&self, len: usize) -> SimResult<DeviceBuffer<T>> {
        let bytes = (len * T::SIZE_BYTES) as u64;
        {
            let mut usage = self.inner.usage.lock();
            let available = self.inner.spec.memory_bytes - usage.allocated;
            if bytes > available {
                return Err(SimError::OutOfMemory {
                    requested: bytes,
                    available,
                });
            }
            usage.allocated += bytes;
            usage.high_water = usage.high_water.max(usage.allocated);
        }
        let block = (len > 0).then(|| pool::checkout(len * T::SIZE_BYTES));
        let ptr = block
            .as_ref()
            .map_or(NonNull::<T>::dangling().as_ptr(), |b| {
                b.as_ptr().cast::<T>()
            });
        for i in 0..len {
            // SAFETY: the block holds at least `len * SIZE_BYTES` bytes and
            // BLOCK_ALIGN covers every DeviceScalar alignment.
            unsafe { std::ptr::write(ptr.add(i), T::default()) };
        }
        // The refcounted header lives in a pooled block of its own (an
        // `Arc::new` here would put one global allocation on every buffer of
        // every launch, which is exactly what the steady-state contract
        // forbids).
        let header_block = pool::checkout(std::mem::size_of::<BufferInner<T>>().max(1));
        let inner = header_block.as_ptr().cast::<BufferInner<T>>();
        // SAFETY: the header block is at least `size_of::<BufferInner<T>>()`
        // bytes and BLOCK_ALIGN covers its alignment; we initialise it before
        // handing out the pointer.
        unsafe {
            std::ptr::write(
                inner,
                BufferInner {
                    refs: AtomicUsize::new(1),
                    header: Some(header_block),
                    storage: BufferStorage {
                        ptr,
                        len,
                        block,
                        bytes,
                        device: Arc::clone(&self.inner),
                    },
                },
            );
            Ok(DeviceBuffer {
                inner: NonNull::new_unchecked(inner),
            })
        }
    }

    /// Allocates a buffer and copies `data` into it (host-to-device transfer).
    pub fn alloc_from_host<T: DeviceScalar>(&self, data: &[T]) -> SimResult<DeviceBuffer<T>> {
        let buf = self.alloc::<T>(data.len())?;
        buf.copy_from_host(data)?;
        Ok(buf)
    }
}

/// The pooled header of one buffer: a manual refcount plus the storage
/// record, written into a pool block so that handle creation, cloning and
/// dropping never touch the global allocator.
struct BufferInner<T: DeviceScalar> {
    refs: AtomicUsize,
    /// The pool block holding *this header*, returned when the last handle
    /// drops (taken out before the header is dropped in place).
    header: Option<pool::Block>,
    storage: BufferStorage<T>,
}

struct BufferStorage<T: DeviceScalar> {
    /// Start of the pooled element storage (dangling for `len == 0`).
    ptr: *mut T,
    len: usize,
    /// The pooled block backing `ptr`, returned on drop (`None` when empty).
    block: Option<pool::Block>,
    bytes: u64,
    device: Arc<DeviceInner>,
}

// SAFETY: concurrent element access follows GPU global-memory semantics; the
// disjointness obligation is documented on `UnsafeSlice` and `DeviceBuffer`.
unsafe impl<T: DeviceScalar> Sync for BufferStorage<T> {}
unsafe impl<T: DeviceScalar> Send for BufferStorage<T> {}

impl<T: DeviceScalar> Drop for BufferStorage<T> {
    fn drop(&mut self) {
        {
            let mut usage = self.device.usage.lock();
            usage.allocated = usage.allocated.saturating_sub(self.bytes);
        }
        if let Some(block) = self.block.take() {
            // DeviceScalar elements are Copy — no element drop glue — so the
            // block goes straight back to its shelf (or is freed while
            // unwinding: a panicking launch must not shelve storage it may
            // have left mid-write).
            if std::thread::panicking() {
                pool::discard(block);
            } else {
                pool::recycle(block);
            }
        }
    }
}

impl<T: DeviceScalar> std::fmt::Debug for BufferStorage<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BufferStorage")
            .field("len", &self.len)
            .field("bytes", &self.bytes)
            .finish()
    }
}

/// A typed allocation in simulated device memory.
///
/// Cloning a `DeviceBuffer` clones the *handle* (like copying a device
/// pointer), not the data. Reads and writes take `&self` and may be issued
/// concurrently from many simulated threads; writers to the same element must
/// not race, exactly as on hardware. The handle is refcounted through a
/// pooled header block rather than an `Arc`, so buffer churn is
/// allocation-free once the pool is warm.
pub struct DeviceBuffer<T: DeviceScalar> {
    inner: NonNull<BufferInner<T>>,
}

// SAFETY: the header is shared immutably (the refcount is atomic) and the
// element storage follows the GPU global-memory contract documented above.
unsafe impl<T: DeviceScalar> Send for DeviceBuffer<T> {}
unsafe impl<T: DeviceScalar> Sync for DeviceBuffer<T> {}

impl<T: DeviceScalar> Clone for DeviceBuffer<T> {
    fn clone(&self) -> Self {
        self.storage_inner().refs.fetch_add(1, Ordering::Relaxed);
        DeviceBuffer { inner: self.inner }
    }
}

impl<T: DeviceScalar> Drop for DeviceBuffer<T> {
    fn drop(&mut self) {
        // SAFETY: the header stays alive until the last handle drops; the
        // AcqRel ordering makes the final decrement synchronise with every
        // earlier release, exactly like `Arc`.
        unsafe {
            if self.inner.as_ref().refs.fetch_sub(1, Ordering::AcqRel) != 1 {
                return;
            }
            let header = (*self.inner.as_ptr()).header.take();
            std::ptr::drop_in_place(self.inner.as_ptr());
            if let Some(block) = header {
                if std::thread::panicking() {
                    pool::discard(block);
                } else {
                    pool::recycle(block);
                }
            }
        }
    }
}

impl<T: DeviceScalar> std::fmt::Debug for DeviceBuffer<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DeviceBuffer")
            .field("storage", self.storage())
            .finish()
    }
}

impl<T: DeviceScalar> DeviceBuffer<T> {
    #[inline]
    fn storage_inner(&self) -> &BufferInner<T> {
        // SAFETY: the header outlives every handle (refcount above).
        unsafe { self.inner.as_ref() }
    }

    #[inline]
    fn storage(&self) -> &BufferStorage<T> {
        &self.storage_inner().storage
    }

    /// Number of elements in the buffer.
    pub fn len(&self) -> usize {
        self.storage().len
    }

    /// Whether the buffer holds zero elements.
    pub fn is_empty(&self) -> bool {
        self.storage().len == 0
    }

    /// Reads element `i`.
    ///
    /// # Panics
    /// Panics if `i` is out of bounds (device-side bounds are always checked
    /// by the simulator; hardware would silently corrupt memory instead).
    #[inline]
    pub fn read(&self, i: usize) -> T {
        assert!(
            i < self.len(),
            "device read out of bounds: {} >= {}",
            i,
            self.len()
        );
        // SAFETY: bounds-checked above; element reads may race with writes to
        // *other* elements only, per the GPU memory contract.
        unsafe { std::ptr::read(self.storage().ptr.add(i)) }
    }

    /// Writes element `i`. Concurrent writers to distinct elements are
    /// allowed; racing on one element is a bug in the kernel.
    ///
    /// # Panics
    /// Panics if `i` is out of bounds.
    #[inline]
    pub fn write(&self, i: usize, value: T) {
        assert!(
            i < self.len(),
            "device write out of bounds: {} >= {}",
            i,
            self.len()
        );
        // SAFETY: bounds-checked above; disjoint-writer obligation is the
        // kernel author's, as documented.
        unsafe { std::ptr::write(self.storage().ptr.add(i), value) }
    }

    /// Fills the whole buffer with `value`.
    pub fn fill(&self, value: T) {
        for i in 0..self.len() {
            self.write(i, value);
        }
    }

    /// Copies host data into the buffer (host-to-device transfer).
    pub fn copy_from_host(&self, data: &[T]) -> SimResult<()> {
        if data.len() != self.len() {
            return Err(SimError::SizeMismatch {
                expected: self.len(),
                actual: data.len(),
            });
        }
        for (i, v) in data.iter().enumerate() {
            self.write(i, *v);
        }
        Ok(())
    }

    /// Copies the buffer back to the host (device-to-host transfer).
    pub fn copy_to_host(&self) -> Vec<T> {
        (0..self.len()).map(|i| self.read(i)).collect()
    }

    /// Start of the backing storage, for pointer-identity reuse tests.
    #[cfg(test)]
    fn storage_ptr(&self) -> *const T {
        self.storage().ptr
    }

    /// Raw pointer to element `i`, used by the atomic operations below.
    #[inline]
    fn element_ptr(&self, i: usize) -> *mut T {
        assert!(
            i < self.len(),
            "device atomic out of bounds: {} >= {}",
            i,
            self.len()
        );
        // SAFETY-adjacent: in bounds after the assert.
        unsafe { self.storage().ptr.add(i) }
    }
}

impl DeviceBuffer<f64> {
    /// Atomically adds `value` to element `i` and returns the previous value,
    /// mirroring Mojo's `Atomic.fetch_add` / CUDA's `atomicAdd` on doubles.
    #[inline]
    pub fn atomic_add(&self, i: usize, value: f64) -> f64 {
        // SAFETY: pointer is valid and 8-aligned; atomics::fetch_add_f64 only
        // issues atomic operations on it.
        unsafe { atomics::fetch_add_f64(self.element_ptr(i), value) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_spec::presets;

    fn device() -> Device {
        Device::new(presets::test_device())
    }

    #[test]
    fn alloc_and_roundtrip() {
        let dev = device();
        let buf = dev.alloc_from_host(&[1.0f64, 2.0, 3.0]).unwrap();
        assert_eq!(buf.len(), 3);
        assert_eq!(buf.copy_to_host(), vec![1.0, 2.0, 3.0]);
        assert!(!buf.is_empty());
    }

    #[test]
    fn alloc_tracks_capacity_and_frees_on_drop() {
        let dev = device();
        assert_eq!(dev.allocated_bytes(), 0);
        {
            let _a = dev.alloc::<f64>(1024).unwrap();
            let _b = dev.alloc::<f32>(1024).unwrap();
            assert_eq!(dev.allocated_bytes(), 8 * 1024 + 4 * 1024);
        }
        assert_eq!(dev.allocated_bytes(), 0);
    }

    #[test]
    fn clone_shares_storage_and_counts_once() {
        let dev = device();
        let a = dev.alloc::<f64>(16).unwrap();
        let b = a.clone();
        b.write(5, 7.0);
        assert_eq!(a.read(5), 7.0);
        assert_eq!(dev.allocated_bytes(), 128);
        drop(a);
        assert_eq!(dev.allocated_bytes(), 128);
        drop(b);
        assert_eq!(dev.allocated_bytes(), 0);
    }

    #[test]
    fn high_water_tracks_the_peak_not_the_current_footprint() {
        let dev = device();
        assert_eq!(dev.high_water_bytes(), 0);
        {
            let _a = dev.alloc::<f64>(1024).unwrap();
            let _b = dev.alloc::<f32>(1024).unwrap();
        }
        assert_eq!(dev.allocated_bytes(), 0);
        assert_eq!(dev.high_water_bytes(), 8 * 1024 + 4 * 1024);
        // A smaller second round leaves the peak untouched.
        let _c = dev.alloc::<f32>(16).unwrap();
        assert_eq!(dev.high_water_bytes(), 8 * 1024 + 4 * 1024);
    }

    #[test]
    fn repeated_allocation_reuses_pooled_storage() {
        let dev = device();
        // A size class no other test in this binary uses, so the shelved
        // block we observe by pointer identity is ours alone.
        const N: usize = 24_000; // 187.5 KiB of f64 → 256 KiB class
        let warm = dev.alloc::<f64>(N).unwrap();
        let ptr = warm.storage_ptr() as usize;
        drop(warm);
        for _ in 0..4 {
            let buf = dev.alloc::<f64>(N).unwrap();
            assert_eq!(
                buf.storage_ptr() as usize,
                ptr,
                "warm device allocs must reuse the shelved pool block"
            );
            buf.write(N - 1, 1.5);
            assert_eq!(buf.read(N - 1), 1.5);
            assert_eq!(buf.read(0), 0.0, "pooled storage is re-zeroed");
        }
    }

    #[test]
    fn zero_length_buffers_round_trip() {
        let dev = device();
        let buf = dev.alloc::<f64>(0).unwrap();
        assert!(buf.is_empty());
        assert_eq!(buf.copy_to_host(), Vec::<f64>::new());
        assert_eq!(dev.allocated_bytes(), 0);
    }

    #[test]
    fn out_of_memory_is_reported() {
        let dev = device();
        let too_big = (dev.spec().memory_bytes / 8 + 1) as usize;
        let err = dev.alloc::<f64>(too_big).unwrap_err();
        match err {
            SimError::OutOfMemory { requested, .. } => assert!(requested > dev.spec().memory_bytes),
            other => panic!("expected OutOfMemory, got {other:?}"),
        }
    }

    #[test]
    fn copy_size_mismatch_is_reported() {
        let dev = device();
        let buf = dev.alloc::<f32>(4).unwrap();
        assert!(matches!(
            buf.copy_from_host(&[1.0, 2.0]),
            Err(SimError::SizeMismatch {
                expected: 4,
                actual: 2
            })
        ));
    }

    #[test]
    fn fill_sets_every_element() {
        let dev = device();
        let buf = dev.alloc::<u32>(100).unwrap();
        buf.fill(42);
        assert!(buf.copy_to_host().iter().all(|&v| v == 42));
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn read_out_of_bounds_panics() {
        let dev = device();
        let buf = dev.alloc::<f64>(2).unwrap();
        let _ = buf.read(2);
    }

    #[test]
    fn atomic_add_f64_accumulates() {
        let dev = device();
        let buf = dev.alloc::<f64>(1).unwrap();
        use rayon::prelude::*;
        (0..1000).into_par_iter().for_each(|_| {
            buf.atomic_add(0, 1.0);
        });
        assert_eq!(buf.read(0), 1000.0);
    }

    #[test]
    fn scalar_sizes_and_precisions() {
        assert_eq!(f32::SIZE_BYTES, 4);
        assert_eq!(f64::SIZE_BYTES, 8);
        assert_eq!(f32::precision(), Some(Precision::Fp32));
        assert_eq!(f64::precision(), Some(Precision::Fp64));
        assert_eq!(i32::precision(), None);
        assert_eq!(u64::precision(), None);
    }
}
