//! The `Atomic` namespace, mirroring Mojo's `Atomic.fetch_add`.
//!
//! The paper's Hartree–Fock kernel (Listing 5) issues its Fock-matrix updates
//! as `Atomic.fetch_add(fock.ptr.offset(i*natoms + j), value)`. The Rust
//! analogue routes the same operation through [`LayoutTensor`] so portable
//! kernels read one way regardless of backend.

use crate::tensor::LayoutTensor;

/// Namespace struct for portable atomic operations.
pub struct Atomic;

impl Atomic {
    /// Atomically adds `value` to `tensor` at linear `offset`, returning the
    /// previous value — `Atomic.fetch_add(tensor.ptr.offset(offset), value)`.
    #[inline]
    pub fn fetch_add_f64(tensor: &LayoutTensor<f64>, offset: usize, value: f64) -> f64 {
        tensor.atomic_add_linear(offset, value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::Layout;
    use gpu_sim::Device;
    use gpu_spec::presets;
    use rayon::prelude::*;

    #[test]
    fn fetch_add_f64_under_contention() {
        let dev = Device::new(presets::test_device());
        let natoms = 4usize;
        let fock = LayoutTensor::new(
            dev.alloc::<f64>(natoms * natoms).unwrap(),
            Layout::row_major_2d(natoms, natoms),
        )
        .unwrap();

        let f = &fock;
        (0..10_000usize).into_par_iter().for_each(|q| {
            let i = q % natoms;
            let j = (q / natoms) % natoms;
            Atomic::fetch_add_f64(f, i * natoms + j, 1.0);
        });

        let total: f64 = fock.to_host().iter().sum();
        assert_eq!(total, 10_000.0);
    }

    #[test]
    fn fetch_add_returns_previous() {
        let dev = Device::new(presets::test_device());
        let t = LayoutTensor::new(dev.alloc::<f64>(1).unwrap(), Layout::row_major_1d(1)).unwrap();
        assert_eq!(Atomic::fetch_add_f64(&t, 0, 3.0), 0.0);
        assert_eq!(Atomic::fetch_add_f64(&t, 0, 4.0), 3.0);
        assert_eq!(t.get(0), 7.0);
    }

    #[test]
    fn f32_and_buffer_variants() {
        let dev = Device::new(presets::test_device());
        let t64 = LayoutTensor::new(dev.alloc::<f64>(2).unwrap(), Layout::row_major_1d(2)).unwrap();
        Atomic::fetch_add_f64(&t64, 1, 5.0);
        assert_eq!(t64.get(1), 5.0);
    }
}
