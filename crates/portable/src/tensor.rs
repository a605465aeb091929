//! `LayoutTensor`: a typed, layout-aware view over a device buffer.
//!
//! Mirrors Mojo's `LayoutTensor[dtype, layout](buffer)`: the tensor does not
//! own new storage, it binds a [`Layout`] to an existing [`DeviceBuffer`] so
//! kernels can index it multi-dimensionally (`f[i, j, k]` in the paper's
//! Listing 2 becomes `f.set3(i, j, k, …)` here). Cloning a tensor clones the
//! view, not the data, so kernels capture tensors by value exactly the way
//! Mojo kernels take them as arguments.

use crate::layout::Layout;
use gpu_sim::memory::{DeviceBuffer, DeviceScalar};
use gpu_sim::{PooledVec, SimError, UnsafeSlice};

/// A layout-aware view over a device buffer.
#[derive(Debug, Clone)]
pub struct LayoutTensor<T: DeviceScalar> {
    buffer: DeviceBuffer<T>,
    layout: Layout,
}

impl<T: DeviceScalar> LayoutTensor<T> {
    /// Binds `layout` to `buffer`. Fails if the layout covers more elements
    /// than the buffer holds (covering fewer is allowed, as in Mojo).
    pub fn new(buffer: DeviceBuffer<T>, layout: Layout) -> Result<Self, SimError> {
        if layout.len() > buffer.len() {
            return Err(SimError::SizeMismatch {
                expected: layout.len(),
                actual: buffer.len(),
            });
        }
        Ok(LayoutTensor { buffer, layout })
    }

    /// The layout of this view.
    pub fn layout(&self) -> Layout {
        self.layout
    }

    /// Number of elements covered by the view.
    pub fn len(&self) -> usize {
        self.layout.len()
    }

    /// Whether the view covers no elements.
    pub fn is_empty(&self) -> bool {
        self.layout.is_empty()
    }

    /// The underlying device buffer.
    pub fn buffer(&self) -> &DeviceBuffer<T> {
        &self.buffer
    }

    /// Reads element `i` of a rank-1 tensor.
    #[inline]
    pub fn get(&self, i: usize) -> T {
        self.buffer.read(self.layout.offset_1d(i))
    }

    /// Writes element `i` of a rank-1 tensor.
    #[inline]
    pub fn set(&self, i: usize, value: T) {
        self.buffer.write(self.layout.offset_1d(i), value)
    }

    /// Reads element `(i, j)` of a rank-2 tensor.
    #[inline]
    pub fn get2(&self, i: usize, j: usize) -> T {
        self.buffer.read(self.layout.offset_2d(i, j))
    }

    /// Reads element `(i, j, k)` of a rank-3 tensor.
    #[inline]
    pub fn get3(&self, i: usize, j: usize, k: usize) -> T {
        self.buffer.read(self.layout.offset_3d(i, j, k))
    }

    /// Writes element `(i, j, k)` of a rank-3 tensor.
    #[inline]
    pub fn set3(&self, i: usize, j: usize, k: usize, value: T) {
        self.buffer.write(self.layout.offset_3d(i, j, k), value)
    }

    /// Copies the covered elements back to the host.
    pub fn to_host(&self) -> Vec<T> {
        (0..self.layout.len())
            .map(|i| self.buffer.read(i))
            .collect()
    }

    /// Copies the covered elements into a pooled host vector, reusing its
    /// capacity — the steady-state replacement for [`LayoutTensor::to_host`]
    /// on hot verification paths.
    pub fn to_host_into(&self, out: &mut PooledVec<T>) {
        out.clear();
        out.reserve(self.layout.len());
        for i in 0..self.layout.len() {
            out.push(self.buffer.read(i));
        }
    }

    /// Copies host data into the covered elements.
    pub fn copy_from_host(&self, data: &[T]) -> Result<(), SimError> {
        if data.len() != self.layout.len() {
            return Err(SimError::SizeMismatch {
                expected: self.layout.len(),
                actual: data.len(),
            });
        }
        for (i, v) in data.iter().enumerate() {
            self.buffer.write(i, *v);
        }
        Ok(())
    }

    /// Fills the covered elements with `value`.
    pub fn fill(&self, value: T) {
        for i in 0..self.layout.len() {
            self.buffer.write(i, value);
        }
    }
}

impl LayoutTensor<f64> {
    /// Atomically adds `value` to the linear offset `offset`, mirroring the
    /// `fock.ptr.offset(i*natoms + j)` + `Atomic.fetch_add` idiom of the
    /// paper's Hartree–Fock kernel (Listing 5).
    #[inline]
    pub fn atomic_add_linear(&self, offset: usize, value: f64) -> f64 {
        self.buffer.atomic_add(offset, value)
    }
}

/// A host-side tensor view used by CPU reference implementations so they can
/// share indexing code with the device kernels.
#[derive(Debug)]
pub struct HostTensor<'a, T> {
    data: UnsafeSlice<'a, T>,
    layout: Layout,
}

impl<'a, T: Copy + Send + Sync> HostTensor<'a, T> {
    /// Binds a layout to a host slice.
    pub fn new(data: &'a mut [T], layout: Layout) -> Result<Self, SimError> {
        if layout.len() > data.len() {
            return Err(SimError::SizeMismatch {
                expected: layout.len(),
                actual: data.len(),
            });
        }
        Ok(HostTensor {
            data: UnsafeSlice::new(data),
            layout,
        })
    }

    /// Reads element `(i, j, k)`.
    #[inline]
    pub fn get3(&self, i: usize, j: usize, k: usize) -> T {
        self.data.read(self.layout.offset_3d(i, j, k))
    }

    /// Writes element `(i, j, k)`.
    #[inline]
    pub fn set3(&self, i: usize, j: usize, k: usize, value: T) {
        self.data.write(self.layout.offset_3d(i, j, k), value)
    }

    /// The layout of the view.
    pub fn layout(&self) -> Layout {
        self.layout
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::Device;
    use gpu_spec::presets;

    fn device() -> Device {
        Device::new(presets::test_device())
    }

    #[test]
    fn rank1_get_set_roundtrip() {
        let dev = device();
        let buf = dev.alloc::<f64>(16).unwrap();
        let t = LayoutTensor::new(buf, Layout::row_major_1d(16)).unwrap();
        t.set(3, 2.5);
        assert_eq!(t.get(3), 2.5);
        assert_eq!(t.len(), 16);
        assert!(!t.is_empty());
    }

    #[test]
    fn rank3_indexing_matches_layout() {
        let dev = device();
        let buf = dev.alloc::<f32>(2 * 3 * 4).unwrap();
        let layout = Layout::row_major_3d(2, 3, 4);
        let t = LayoutTensor::new(buf.clone(), layout).unwrap();
        t.set3(1, 2, 3, 9.0);
        assert_eq!(t.get3(1, 2, 3), 9.0);
        assert_eq!(buf.read(layout.offset_3d(1, 2, 3)), 9.0);
    }

    #[test]
    fn layout_larger_than_buffer_is_rejected() {
        let dev = device();
        let buf = dev.alloc::<f64>(8).unwrap();
        assert!(LayoutTensor::new(buf, Layout::row_major_2d(3, 3)).is_err());
    }

    #[test]
    fn layout_smaller_than_buffer_is_allowed() {
        let dev = device();
        let buf = dev.alloc::<f64>(100).unwrap();
        let t = LayoutTensor::new(buf, Layout::row_major_1d(10)).unwrap();
        assert_eq!(t.len(), 10);
        assert_eq!(t.to_host().len(), 10);
    }

    #[test]
    fn host_copy_roundtrip_and_fill() {
        let dev = device();
        let buf = dev.alloc::<f64>(6).unwrap();
        let t = LayoutTensor::new(buf, Layout::row_major_2d(2, 3)).unwrap();
        t.copy_from_host(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap();
        assert_eq!(t.get2(1, 2), 6.0);
        assert_eq!(t.to_host(), vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        t.fill(0.0);
        assert_eq!(t.to_host(), vec![0.0; 6]);
        assert!(t.copy_from_host(&[1.0]).is_err());
    }

    #[test]
    fn tensor_clone_is_a_view() {
        let dev = device();
        let buf = dev.alloc::<f64>(4).unwrap();
        let a = LayoutTensor::new(buf, Layout::row_major_1d(4)).unwrap();
        let b = a.clone();
        b.set(0, 7.0);
        assert_eq!(a.get(0), 7.0);
    }

    #[test]
    fn atomic_adds_accumulate() {
        let dev = device();
        let buf = dev.alloc::<f64>(4).unwrap();
        let t = LayoutTensor::new(buf, Layout::row_major_2d(2, 2)).unwrap();
        use rayon::prelude::*;
        let tr = &t;
        (0..1000).into_par_iter().for_each(|_| {
            tr.atomic_add_linear(3, 1.0);
            tr.atomic_add_linear(0, 0.5);
        });
        assert_eq!(t.get2(1, 1), 1000.0);
        assert_eq!(t.get2(0, 0), 500.0);
    }

    #[test]
    fn host_tensor_shares_indexing_with_device() {
        let layout = Layout::row_major_3d(3, 3, 3);
        let mut data = vec![0.0f64; layout.len()];
        {
            let h = HostTensor::new(&mut data, layout).unwrap();
            h.set3(1, 1, 1, 5.0);
            assert_eq!(h.get3(1, 1, 1), 5.0);
            assert_eq!(h.layout().rank(), 3);
        }
        assert_eq!(data[layout.offset_3d(1, 1, 1)], 5.0);
        let mut small = vec![0.0f64; 2];
        assert!(HostTensor::new(&mut small, layout).is_err());
    }
}
