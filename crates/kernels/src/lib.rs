//! The HammerBlade parallel benchmark suite (paper Table I).
//!
//! Ten kernels spanning Berkeley's parallel-computing dwarfs, written as
//! RV32IMAF programs via [`hb_asm`] and validated against the golden
//! implementations in [`hb_workloads::golden`] on every run:
//!
//! | kernel | dwarf | category |
//! |---|---|---|
//! | AES | Combinational logic | compute-intensive, low-communication |
//! | BS (Black-Scholes) | MapReduce | compute-intensive, low-communication |
//! | SW (Smith-Waterman) | Dynamic programming | compute-intensive, low-communication |
//! | SGEMM | Dense linear algebra | compute-intensive, sequential-access |
//! | FFT | Spectral methods | compute-intensive, sequential-access |
//! | Jacobi | Structured grids | compute-intensive, sequential-access |
//! | SpGEMM | Sparse linear algebra | memory-intensive, irregular-access |
//! | PR (PageRank) | Sparse LA / graph | memory-intensive, irregular-access |
//! | BFS | Graph traversal | memory-intensive, irregular-access |
//! | BH (Barnes-Hut) | N-body methods | memory-intensive, irregular-access |
//!
//! Every benchmark implements [`Benchmark`]: it builds a machine from a
//! [`hb_core::MachineConfig`], generates its input, runs the kernel to completion,
//! **validates the simulated output against the golden reference**, and
//! returns the hardware counters the paper's figures are drawn from.

#![forbid(unsafe_code)]

mod aes;
mod bench;
mod bfs;
mod bh;
mod bs;
mod fft;
pub mod fixtures;
mod jacobi;
mod pr;
mod sgemm;
mod spgemm;
mod sw;
pub mod util;

pub use aes::Aes;
pub use bench::{BenchStats, Benchmark, SizeClass};
pub use bfs::Bfs;
pub use bh::BarnesHut;
pub use bs::BlackScholes;
pub use fft::Fft;
pub use jacobi::Jacobi;
pub use pr::PageRank;
pub use sgemm::Sgemm;
pub use spgemm::SpGemm;
pub use sw::SmithWaterman;

/// The full ten-kernel suite with default inputs, ordered
/// memory-intensive → compute-intensive as in the paper's Figure 11.
pub fn suite() -> Vec<Box<dyn Benchmark>> {
    vec![
        Box::new(PageRank::default()),
        Box::new(Bfs::default()),
        Box::new(SpGemm::default()),
        Box::new(BarnesHut::default()),
        Box::new(Fft::default()),
        Box::new(Jacobi::default()),
        Box::new(Sgemm::default()),
        Box::new(BlackScholes::default()),
        Box::new(SmithWaterman::default()),
        Box::new(Aes::default()),
    ]
}
