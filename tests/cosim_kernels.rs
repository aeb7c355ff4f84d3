//! Lockstep co-simulation of the suite: the cycle-level tile and the
//! `hb-iss` golden model retire the same instruction stream, and
//! `Machine::run_cosim` checks PCs at every retire, register files at
//! quiescent points, and the full architectural state (registers, SPM,
//! DRAM) at the end. One divergence anywhere fails the run with a
//! disassembled context window. The launch's own `check` then holds the
//! flushed DRAM to the host golden model, so the two oracles — `hb-iss` and
//! `hb_workloads::golden` — are applied to the same run.
//!
//! Every entry of `hb_kernels::kernels()` runs, at `Tiny`; none has to be
//! left out. They run single-tile (`cell_dim` 1x1) so the instruction
//! interleaving is deterministic: rank-strided kernels cover all the work
//! from rank 0, Jacobi's one column is an edge (copy-in, a barrier per
//! step, copy-out, grid unchanged), and the graph kernels take every
//! barrier and AMO alone. The multi-tile cycle model is validated
//! separately by the kernel suites against their golden references.

use hammerblade::core::{CellDim, Machine, MachineConfig};
use hammerblade::kernels::{kernels, launch_on, SizeClass};

/// Co-simulates and golden-checks the registry entries `pick` selects; the
/// four tests below partition the registry so they run side by side.
fn cosim_entries(pick: impl Fn(&str) -> bool) {
    let cfg = MachineConfig {
        cell_dim: CellDim { x: 1, y: 1 },
        ..MachineConfig::baseline_16x8()
    };
    let mut ran = 0;
    for (token, kernel) in kernels().into_iter().filter(|(token, _)| pick(token)) {
        let mut machine = Machine::new(cfg.clone());
        let launch = launch_on(&mut machine, kernel.as_ref(), SizeClass::Tiny);
        let (_, report) = machine
            .run_cosim(50_000_000)
            .unwrap_or_else(|e| panic!("{token}: {e}"));
        assert!(report.instrs > 100, "{token} must retire real work");
        assert!(
            report.reg_compares > 0,
            "{token}: quiescent points must be checked"
        );
        (launch.check)(&machine);
        ran += 1;
    }
    assert!(ran > 0, "the filter selects no registry entry");
}

const OWN_TEST: [&str; 3] = ["SGEMM", "Jacobi", "BFS"];

#[test]
fn sgemm_cosim_runs_divergence_free() {
    cosim_entries(|token| token.starts_with("SGEMM"));
}

#[test]
fn jacobi_cosim_runs_divergence_free() {
    cosim_entries(|token| token.starts_with("Jacobi"));
}

#[test]
fn bfs_cosim_runs_divergence_free() {
    cosim_entries(|token| token.starts_with("BFS"));
}

#[test]
fn every_other_registry_entry_cosims_divergence_free() {
    cosim_entries(|token| !OWN_TEST.iter().any(|own| token.starts_with(own)));
}
