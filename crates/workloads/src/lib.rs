//! Workload generators and golden reference implementations for the
//! HammerBlade parallel benchmark suite (paper Table I).
//!
//! The paper evaluates on SuiteSparse matrices (wiki-Vote, roadNet-CA,
//! hollywood-2009, ...); those files are not available offline, so this
//! crate provides synthetic generators with the same qualitative structure:
//!
//! - [`gen::rmat`] — power-law graphs (wiki-Vote / soc-network-like),
//! - [`gen::road_grid`] — near-constant-degree planar graphs
//!   (roadNet-CA-like),
//! - [`gen::uniform_sparse`] — uniformly random sparse matrices,
//!
//! plus dense matrix/signal generators and host-side golden
//! implementations of all ten kernels used to validate simulator output.

#![forbid(unsafe_code)]

pub mod csr;
pub mod gen;
pub mod golden;
pub mod mtx;

pub use csr::CsrMatrix;
pub use mtx::{parse_mtx, to_mtx, MtxError};
