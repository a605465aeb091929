//! The paper's figures of merit and statistical helpers.
//!
//! Each workload in the paper reports a different metric:
//!
//! * seven-point stencil — effective bandwidth, Eq. (1) ([`stencil`]),
//! * BabelStream — per-operation bandwidth, Eq. (2) ([`babelstream`]),
//! * miniBUDE — GFLOP/s, Eq. (3) ([`minibude`]),
//! * Hartree–Fock — raw kernel wall-clock time (no transformation),
//! * Jacobi / framestream — composite-pattern effective bandwidth
//!   ([`composite`], DESIGN.md §15),
//!
//! and Section 4.1 aggregates them into the application-efficiency
//! performance-portability metric Φ, Eq. (4) ([`portability`]).
//! [`roofline`] produces the roofline ceilings of Fig. 2, [`stats`]
//! summarises repeated runs, and [`output`] renders and writes CSV
//! experiment tables.

#![warn(missing_docs)]

pub mod babelstream;
pub mod composite;
pub mod minibude;
pub mod output;
pub mod portability;
pub mod roofline;
pub mod stats;
pub mod stencil;

pub use babelstream::babelstream_bandwidth_gbs;
pub use composite::{
    framestream_bandwidth_gbs, framestream_traffic_bytes, jacobi_bandwidth_gbs,
    jacobi_traffic_bytes,
};
pub use minibude::{minibude_gflops, minibude_total_ops, MiniBudeSizes};
pub use portability::{efficiency, PortabilityEntry, PortabilityTable};
pub use roofline::{Roofline, RooflinePoint};
pub use stats::RunStats;
pub use stencil::{stencil_bandwidth_gbs, stencil_fetch_bytes, stencil_write_bytes};
