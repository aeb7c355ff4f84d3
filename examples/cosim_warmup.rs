//! The `hb-iss` golden model in action: lockstep co-simulation of a real
//! kernel, functional fast-forward of its init phase, and what a caught
//! divergence looks like.
//!
//! Run with: `cargo run --release --example cosim_warmup`

use hammerblade::asm::Assembler;
use hammerblade::core::{CellDim, CosimChecker, CosimError, Machine, MachineConfig};
use hammerblade::isa::Gpr;
use hammerblade::kernels::{launch_on, Launch, Sgemm, SizeClass};
use std::sync::Arc;

fn config(x: u8, y: u8) -> MachineConfig {
    MachineConfig {
        cell_dim: CellDim { x, y },
        ..MachineConfig::baseline_16x8()
    }
}

/// A machine with the suite's `Tiny` SGEMM (8x16x8) launched, and the
/// launch, whose `check` is the golden model.
fn sgemm_machine(cfg: MachineConfig) -> (Machine, Launch) {
    let mut machine = Machine::new(cfg);
    let launch = launch_on(&mut machine, &Sgemm::default(), SizeClass::Tiny);
    (machine, launch)
}

fn main() {
    // 1. Lockstep co-simulation: single-tile SGEMM, every retire checked
    //    against the ISS, full state compared at the end.
    let (mut machine, launch) = sgemm_machine(config(1, 1));
    let (summary, report) = machine
        .run_cosim(10_000_000)
        .unwrap_or_else(|e| panic!("{e}"));
    (launch.check)(&machine);
    println!(
        "[cosim] 8x16x8 SGEMM: {} cycles, {} retires checked, {} register-file compares, \
         0 divergences; result validates against golden",
        summary.cycles, report.instrs, report.reg_compares
    );

    // 2. Functional fast-forward: the same kernel on a 2x2 tile group is
    //    executed by the ISS at interpreter speed; the cycle model only
    //    retires what remains.
    let (mut machine, launch) = sgemm_machine(config(2, 2));
    let warm = machine.warmup_functional(1_000_000).unwrap();
    let summary = machine.run(1_000_000).unwrap();
    machine.cell_mut(0).flush_caches();
    (launch.check)(&machine);
    println!(
        "[warmup] fast-forwarded {} instrs across {} tiles ({} finished, {} at a barrier); \
         cycle model finished in {} cycles; result validates against golden",
        warm.instrs, warm.tiles, warm.finished, warm.at_barrier, summary.cycles
    );

    // 3. What a divergence looks like: corrupt the tile's scratchpad after
    //    the checker snapshots it, so the first load disagrees.
    let mut a = Assembler::new();
    a.li(Gpr::T0, 0);
    a.lw(Gpr::A0, Gpr::T0, 0);
    a.fence();
    a.ecall();
    let image = Arc::new(a.assemble(0).unwrap());
    let mut machine = Machine::new(config(1, 1));
    machine.launch(0, &image, &[]);
    let mut checker = CosimChecker::new(&machine, 0, (0, 0));
    machine
        .cell_mut(0)
        .tile_mut(0, 0)
        .spm_write_u32(0, 0xdead_beef);
    println!("\n[divergence demo] corrupting SPM[0] behind the checker's back...");
    for _ in 0..100_000 {
        if machine.all_done() {
            break;
        }
        machine.tick();
        if let Err(d) = checker.observe(&machine) {
            println!("{}", CosimError::Diverged(d));
            return;
        }
    }
    panic!("the corruption should have been caught");
}
