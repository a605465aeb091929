//! The portable GPU kernel programming model — the Rust analogue of the
//! paper's primary contribution.
//!
//! The paper evaluates Mojo's vendor-agnostic GPU standard library: one kernel
//! source, written against `DeviceContext`, `LayoutTensor`, thread-index
//! builtins, shared memory, barriers and atomics, compiles for both NVIDIA and
//! AMD GPUs. This crate reproduces that programming model as an embedded Rust
//! DSL over the [`gpu_sim`] simulator: kernels written against these types run
//! unchanged on every simulated architecture (H100, MI300A, test devices).
//! The CUDA/HIP baselines in `science-kernels` run the same kernel bodies;
//! what separates them from the portable backend is their launch heuristics
//! and execution profiles in `vendor_models`, not a second implementation.
//!
//! A minimal program mirroring the paper's Listing 1:
//!
//! ```
//! use portable_kernel::prelude::*;
//!
//! // Compile-time style configuration (Mojo `alias`es become constants).
//! const NX: usize = 1024;
//! const BLOCK_SIZE: u32 = 256;
//!
//! let ctx = DeviceContext::new(gpu_spec::presets::test_device());
//! let d_u = ctx.enqueue_create_buffer::<f32>(NX).unwrap();
//! let u_tensor = LayoutTensor::new(d_u, Layout::row_major_1d(NX)).unwrap();
//!
//! // GPU kernel: fill with ones (Listing 1's `fill_one`).
//! let tensor = u_tensor.clone();
//! ctx.enqueue_function(
//!     LaunchConfig::cover_1d(NX as u64, BLOCK_SIZE),
//!     move |t: ThreadCtx| {
//!         let tid = t.global_x() as usize;
//!         if tid < NX {
//!             tensor.set(tid, 1.0);
//!         }
//!     },
//! )
//! .unwrap();
//! ctx.synchronize();
//!
//! assert!(u_tensor.to_host().iter().all(|&v| v == 1.0));
//! ```

#![warn(missing_docs)]

pub mod atomic;
pub mod context;
pub mod dtype;
pub mod layout;
pub mod prelude;
pub mod simd;
pub mod tensor;

pub use atomic::Atomic;
pub use context::DeviceContext;
pub use dtype::DType;
pub use layout::Layout;
pub use simd::Simd;
pub use tensor::LayoutTensor;

// Re-export the launch-side vocabulary so kernels only need this crate.
pub use gpu_sim::memory::{DeviceBuffer, DeviceScalar};
pub use gpu_sim::{CoopKernel, CoopLaunch, Dim3, LaunchConfig, PhaseOutcome, SimError, ThreadCtx};
