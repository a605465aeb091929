//! `DeviceContext`: the host-side entry point of the portable model.
//!
//! Mirrors Mojo's `gpu.host.DeviceContext` (paper Listing 1): the context owns
//! a device, creates buffers on it, enqueues kernel launches, and
//! synchronises. Because the simulator executes kernels eagerly,
//! `synchronize()` is a semantic no-op kept for API fidelity — host code reads
//! results only after calling it, exactly as it must on real hardware.

use gpu_sim::memory::{DeviceBuffer, DeviceScalar};
use gpu_sim::{launch_flat, CoopKernel, CoopLaunch, Device, LaunchConfig, SimError, ThreadCtx};
use gpu_spec::GpuSpec;

/// The host-side handle to a simulated GPU.
#[derive(Debug)]
pub struct DeviceContext {
    device: Device,
}

impl DeviceContext {
    /// Creates a context for a device described by `spec`.
    pub fn new(spec: GpuSpec) -> Self {
        DeviceContext {
            device: Device::new(spec),
        }
    }

    /// Creates a context over an existing simulated device.
    pub fn from_device(device: Device) -> Self {
        DeviceContext { device }
    }

    /// The simulated device behind this context.
    pub fn device(&self) -> &Device {
        &self.device
    }

    /// The hardware description of the device.
    pub fn spec(&self) -> &GpuSpec {
        self.device.spec()
    }

    /// Allocates a zero-initialised device buffer of `len` elements,
    /// mirroring `ctx.enqueue_create_buffer[dtype](len)`.
    pub fn enqueue_create_buffer<T: DeviceScalar>(
        &self,
        len: usize,
    ) -> Result<DeviceBuffer<T>, SimError> {
        self.device.alloc::<T>(len)
    }

    /// Allocates a device buffer and fills it from host data.
    pub fn enqueue_create_buffer_from<T: DeviceScalar>(
        &self,
        data: &[T],
    ) -> Result<DeviceBuffer<T>, SimError> {
        self.device.alloc_from_host(data)
    }

    /// Launches a flat (barrier-free) kernel, mirroring
    /// `ctx.enqueue_function[kernel](args, grid_dim=…, block_dim=…)`.
    ///
    /// The closure is invoked once per simulated thread with its
    /// [`ThreadCtx`]; captured tensors/buffers provide the kernel arguments.
    pub fn enqueue_function<F>(&self, config: LaunchConfig, kernel: F) -> Result<(), SimError>
    where
        F: Fn(ThreadCtx) + Sync,
    {
        config.validate(self.device.spec())?;
        launch_flat(&config, kernel);
        Ok(())
    }

    /// Launches a cooperative kernel that uses block shared memory and
    /// barriers (see [`CoopKernel`]).
    pub fn enqueue_cooperative<K: CoopKernel>(
        &self,
        config: LaunchConfig,
        kernel: &K,
    ) -> Result<(), SimError> {
        config.validate(self.device.spec())?;
        CoopLaunch::run(&config, kernel);
        Ok(())
    }

    /// Waits for all enqueued work to finish. Execution is eager in the
    /// simulator, so this only exists to keep host code structured the way it
    /// must be for real devices.
    pub fn synchronize(&self) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::Layout;
    use crate::tensor::LayoutTensor;
    use gpu_spec::presets;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn listing1_fill_one() {
        // Mirrors the paper's Listing 1 end-to-end.
        const NX: usize = 1024;
        const BLOCK_SIZE: u32 = 256;
        let ctx = DeviceContext::new(presets::test_device());
        let d_u = ctx.enqueue_create_buffer::<f32>(NX).unwrap();
        let u_tensor = LayoutTensor::new(d_u, Layout::row_major_1d(NX)).unwrap();

        let t = u_tensor.clone();
        ctx.enqueue_function(LaunchConfig::cover_1d(NX as u64, BLOCK_SIZE), move |c| {
            let tid = c.global_x() as usize;
            if tid < NX {
                t.set(tid, 1.0);
            }
        })
        .unwrap();
        ctx.synchronize();

        assert!(u_tensor.to_host().iter().all(|&v| v == 1.0));
    }

    #[test]
    fn create_buffer_from_host_data() {
        let ctx = DeviceContext::new(presets::test_device());
        let buf = ctx.enqueue_create_buffer_from(&[1.0f64, 2.0, 3.0]).unwrap();
        assert_eq!(buf.copy_to_host(), vec![1.0, 2.0, 3.0]);
        assert!(ctx.device().allocated_bytes() > 0);
        assert_eq!(ctx.spec().vendor, gpu_spec::Vendor::Generic);
    }

    #[test]
    fn invalid_launch_is_rejected_and_not_counted() {
        let ctx = DeviceContext::new(presets::test_device());
        let threads = AtomicU64::new(0);
        let res = ctx.enqueue_function(LaunchConfig::new(1u32, 4096u32), |_c| {
            threads.fetch_add(1, Ordering::Relaxed);
        });
        assert!(res.is_err());
        assert_eq!(threads.into_inner(), 0, "a rejected launch runs no thread");
    }

    #[test]
    fn out_of_memory_propagates() {
        let ctx = DeviceContext::new(presets::test_device());
        let elems = (ctx.spec().memory_bytes / 8 + 1) as usize;
        assert!(ctx.enqueue_create_buffer::<f64>(elems).is_err());
    }

    #[test]
    fn multiple_launches_are_counted() {
        let ctx = DeviceContext::new(presets::test_device());
        let threads = AtomicU64::new(0);
        for _ in 0..3 {
            ctx.enqueue_function(LaunchConfig::cover_1d(128, 64), |_c| {
                threads.fetch_add(1, Ordering::Relaxed);
            })
            .unwrap();
        }
        assert_eq!(threads.into_inner(), 3 * 128, "every launch runs in full");
    }
}
