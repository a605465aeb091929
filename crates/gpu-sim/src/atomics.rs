//! Device-global atomic operations.
//!
//! The Hartree–Fock kernel performs six FP64 `Atomic.fetch_add` updates per
//! integral quartet into the Fock matrix (paper Listing 5), and the paper's
//! Table 4 shows that atomic throughput is the deciding factor between the
//! portable, CUDA, and HIP implementations. The simulator executes those
//! atomics for real (so results are exact regardless of scheduling) using
//! compare-and-swap loops over the raw buffer storage, the same technique
//! pre-Pascal CUDA used to emulate FP64 `atomicAdd`.

use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};

/// Atomically adds `value` to the `f64` at `ptr`, returning the previous value.
///
/// # Safety
/// `ptr` must be valid for reads and writes, 8-byte aligned, and all
/// *concurrent* accesses to it must go through atomic operations (plain reads
/// or writes racing with this call are undefined behaviour).
pub unsafe fn fetch_add_f64(ptr: *mut f64, value: f64) -> f64 {
    let atomic = &*(ptr as *const AtomicU64);
    let mut current = atomic.load(Ordering::Relaxed);
    loop {
        let current_f = f64::from_bits(current);
        let new = f64::to_bits(current_f + value);
        match atomic.compare_exchange_weak(current, new, Ordering::AcqRel, Ordering::Relaxed) {
            Ok(_) => return current_f,
            Err(actual) => current = actual,
        }
    }
}

/// Atomically adds `value` to the `f32` at `ptr`, returning the previous value.
///
/// # Safety
/// Same contract as [`fetch_add_f64`], with 4-byte alignment.
pub unsafe fn fetch_add_f32(ptr: *mut f32, value: f32) -> f32 {
    let atomic = &*(ptr as *const AtomicU32);
    let mut current = atomic.load(Ordering::Relaxed);
    loop {
        let current_f = f32::from_bits(current);
        let new = f32::to_bits(current_f + value);
        match atomic.compare_exchange_weak(current, new, Ordering::AcqRel, Ordering::Relaxed) {
            Ok(_) => return current_f,
            Err(actual) => current = actual,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rayon::prelude::*;

    #[test]
    fn f64_fetch_add_is_exact_under_contention() {
        let mut value = 0.0f64;
        let ptr: *mut f64 = &mut value;
        // Wrap in a Sync shim so rayon can share the raw pointer.
        struct Ptr(*mut f64);
        unsafe impl Sync for Ptr {}
        let p = Ptr(ptr);
        let p = &p;
        (0..10_000).into_par_iter().for_each(|_| unsafe {
            fetch_add_f64(p.0, 1.0);
        });
        assert_eq!(value, 10_000.0);
    }

    #[test]
    fn f32_fetch_add_accumulates() {
        let mut value = 0.0f32;
        let ptr: *mut f32 = &mut value;
        struct Ptr(*mut f32);
        unsafe impl Sync for Ptr {}
        let p = Ptr(ptr);
        let p = &p;
        (0..2_048).into_par_iter().for_each(|_| unsafe {
            fetch_add_f32(p.0, 0.25);
        });
        assert_eq!(value, 512.0);
    }

    #[test]
    fn fetch_add_returns_previous_value() {
        let mut value = 10.0f64;
        let prev = unsafe { fetch_add_f64(&mut value, 5.0) };
        assert_eq!(prev, 10.0);
        assert_eq!(value, 15.0);
    }
}
