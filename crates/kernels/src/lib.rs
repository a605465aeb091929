//! The science proxy kernels evaluated in the paper, plus the composite
//! patterns of DESIGN.md §15 that combine them.
//!
//! | Module | Workload | Character | Figure of merit |
//! |---|---|---|---|
//! | [`stencil7`] | seven-point Laplacian stencil | memory-bandwidth bound | effective bandwidth (Eq. 1) |
//! | [`babelstream`] | BabelStream Copy/Mul/Add/Triad/Dot | memory-bandwidth bound | bandwidth (Eq. 2) |
//! | [`minibude`] | miniBUDE `fasten` docking kernel | compute bound | GFLOP/s (Eq. 3) |
//! | [`hartree_fock`] | Hartree–Fock electron repulsion | compute bound + atomics | kernel wall-clock |
//! | [`jacobi`] | iterative Jacobi solver (stencil + convergence norm) | memory bound, multi-pass | effective bandwidth (§15) |
//! | [`framestream`] | streaming-dataset EMA engine | memory bound, batch-streaming | effective bandwidth (§15) |
//!
//! Each workload module provides:
//!
//! * **one kernel body** written against the `portable-kernel` API (the
//!   paper's Mojo port — one source for every simulated device). The
//!   CUDA and HIP baselines run the same body; they differ only in their
//!   launch heuristics and execution profile (`vendor_models`), which is
//!   where the paper locates the measured gaps,
//! * a **CPU reference** used to validate every simulated result,
//! * an analytic **cost model** (bytes, FLOPs, atomics) that the unit tests
//!   cross-check against instrumented counts on small problems,
//! * a host driver returning a [`common::WorkloadRun`] (the analytic
//!   timing plus the functional verification) on one platform,
//! * a [`workload`] adapter exposing the drivers as a named, parameterizable
//!   [`workload::Workload`] — the layer the experiment registry, the
//!   `mojo-hpc sweep` engine and the `serve` daemon share. Its analytic
//!   half, [`workload::timed`], is what the report crate turns into the
//!   paper's tables and figures.

#![warn(missing_docs)]

pub mod babelstream;
pub mod cache;
pub mod common;
pub mod framestream;
pub mod hartree_fock;
pub mod jacobi;
pub mod minibude;
pub mod prelude;
pub mod real;
pub mod stencil7;
pub mod workload;

pub use common::{Verification, WorkloadRun};
pub use real::Real;
pub use workload::{Measurement, ParamSpec, Params, Workload, WorkloadError, WorkloadOutput};
