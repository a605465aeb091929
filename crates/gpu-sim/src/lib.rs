//! A deterministic GPU device simulator.
//!
//! The paper's experiments run on an NVIDIA H100 and an AMD MI300A. Neither is
//! available to this reproduction, so every kernel executes *functionally* on
//! the host CPU through this crate (numerics are real and validated against
//! CPU references) while *time* is charged by an analytic model built from the
//! devices' published peaks ([`gpu_spec`]) and per-backend code-generation
//! profiles (provided by the `vendor-models` crate).
//!
//! The crate provides:
//!
//! * [`memory`] — a device-memory pool with typed buffers that follow GPU
//!   semantics (unsynchronised concurrent writes are allowed and are the
//!   kernel author's responsibility, exactly as on real devices);
//! * [`dim`] — `Dim3` grids/blocks and validated launch configurations;
//! * [`exec`] — the flat executor that runs one closure per simulated thread,
//!   scheduling contiguous chunks of blocks onto the persistent rayon pool;
//! * [`coop`] — a bulk-synchronous engine for kernels that use block shared
//!   memory and barriers (the BabelStream `dot` reduction);
//! * [`pool`] — the process-wide size-classed buffer pool behind device
//!   buffers, executor scratch, pooled host staging ([`PooledVec`]) and
//!   rendered run text ([`PooledString`]): in steady state a repeated launch
//!   touches the global allocator zero times;
//! * [`atomics`] — device-global atomic operations (FP64/FP32 `fetch_add`);
//! * [`stats`] — the analytic cost description of a launch (bytes moved,
//!   FLOPs by class, atomics, access pattern);
//! * [`timing`] — the roofline-plus-codegen timing model that converts a cost
//!   and an execution profile into a simulated duration;
//! * [`profiler`] — NCU-style profiling reports (Tables 2–3 of the paper);
//! * [`isa`] — instruction-mix summaries (the paper's Figure 5 SASS analysis).

#![warn(missing_docs)]

pub mod atomics;
pub mod coop;
pub mod dim;
pub mod error;
pub mod exec;
pub mod isa;
pub mod memory;
pub mod pool;
pub mod profiler;
pub mod slice;
pub mod stats;
pub mod timing;

pub use atomics::AtomicCell;
pub use coop::{CoopKernel, CoopLaunch, PhaseOutcome};
pub use dim::{Dim3, LaunchConfig};
pub use error::SimError;
pub use exec::{launch_flat, ThreadCtx};
pub use memory::{Device, DeviceBuffer};
pub use pool::{PoolStats, PooledString, PooledVec};
pub use profiler::{MemoryReport, ProfileReport};
pub use slice::UnsafeSlice;
pub use stats::{AccessPattern, FlopCounts, KernelCost};
pub use timing::{Bottleneck, ExecutionProfile, LaunchTiming, TimingModel};
