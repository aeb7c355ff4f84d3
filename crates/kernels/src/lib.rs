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
//! Every kernel implements [`Kernel`]: on a machine the caller built it
//! generates its input and describes one [`Launch`]. [`run_on`] is the one
//! run body — launch, run to completion, **validate the simulated output
//! against the golden reference**, return the hardware counters the paper's
//! figures are drawn from — and [`Benchmark::run`] is [`run_on`] a fresh
//! machine. [`kernels`] is the one table of what the suite is.

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
pub use bench::{
    launch_on, run_on, BenchStats, Benchmark, Kernel, Launch, SizeClass, CYCLE_BUDGET,
};
pub use bfs::Bfs;
pub use bh::BarnesHut;
pub use bs::BlackScholes;
pub use fft::Fft;
pub use jacobi::Jacobi;
pub use pr::PageRank;
pub use sgemm::Sgemm;
pub use spgemm::{SpGemm, SpGemmTask};
pub use sw::SmithWaterman;

type New = fn() -> Box<dyn Kernel>;

/// The twelve checked parameterizations by token, `Name` or `Name@variant`
/// (space-free, so a token fits the `hb-serve` canonical job line): the ten
/// suite defaults, ordered memory-intensive → compute-intensive as in the
/// paper's Figure 11, with the direction-optimizing BFS (`Bfs::program(true)`)
/// and the SPM-blocked SGEMM after their defaults. Constructors, so
/// [`by_name`] builds the one kernel it returns and [`suite`] its ten.
const KERNELS: [(&str, New); 12] = [
    ("PR", || Box::<PageRank>::default()),
    ("BFS", || Box::<Bfs>::default()),
    ("BFS@diropt", || Box::new(Bfs::direction_optimizing())),
    ("SpGEMM", || Box::<SpGemm>::default()),
    ("BH", || Box::<BarnesHut>::default()),
    ("FFT", || Box::<Fft>::default()),
    ("Jacobi", || Box::<Jacobi>::default()),
    ("SGEMM", || Box::<Sgemm>::default()),
    ("SGEMM@blocked", || Box::new(Sgemm::blocked())),
    ("BS", || Box::<BlackScholes>::default()),
    ("SW", || Box::<SmithWaterman>::default()),
    ("AES", || Box::<Aes>::default()),
];

/// Every registry entry: `(token, kernel)`, in table order.
pub fn kernels() -> Vec<(&'static str, Box<dyn Kernel>)> {
    KERNELS.iter().map(|&(token, new)| (token, new())).collect()
}

/// Resolves a [`kernels`] token, case-insensitively.
pub fn by_name(token: &str) -> Option<Box<dyn Kernel>> {
    KERNELS
        .iter()
        .find_map(|(t, new)| t.eq_ignore_ascii_case(token).then(new))
}

/// The full ten-kernel suite with default inputs: the un-suffixed
/// [`kernels`].
pub fn suite() -> Vec<Box<dyn Benchmark>> {
    KERNELS
        .iter()
        .filter(|(token, _)| !token.contains('@'))
        .map(|(_, new)| new() as Box<dyn Benchmark>)
        .collect()
}
