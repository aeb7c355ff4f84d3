//! Functional fast-forward (`Machine::warmup_functional`): kernel init
//! phases execute on the `hb-iss` golden model at interpreter speed, the
//! resulting architectural state is injected back into the tiles, and the
//! cycle-level simulation takes over — producing the same final memory
//! image as a pure cycle-level run.

use hammerblade::core::{CellDim, Machine, MachineConfig};
use hammerblade::kernels::{launch_on, Jacobi, Launch, Sgemm, SizeClass};

fn config(x: u8, y: u8) -> MachineConfig {
    MachineConfig {
        cell_dim: CellDim { x, y },
        ..MachineConfig::baseline_16x8()
    }
}

/// A machine with the `Tiny` SGEMM (8x16x8) launched, and the launch.
fn sgemm_machine(cfg: &MachineConfig) -> (Machine, Launch) {
    let mut machine = Machine::new(cfg.clone());
    let launch = launch_on(&mut machine, &Sgemm::default(), SizeClass::Tiny);
    (machine, launch)
}

/// SGEMM has no barrier, so a generous warmup budget fast-forwards the
/// whole kernel functionally; the cycle model then just retires the final
/// `ecall`. The result must still validate against golden.
#[test]
fn warmup_can_fast_forward_a_whole_barrier_free_kernel() {
    let (mut machine, launch) = sgemm_machine(&config(2, 2));
    let report = machine.warmup_functional(1_000_000).unwrap();
    assert_eq!(report.tiles, 4);
    assert_eq!(report.finished, 4, "every tile must park at its ecall");
    assert!(report.instrs > 400, "fast-forward must execute real work");

    let summary = machine.run(1_000_000).unwrap();
    // Only the parked ecalls (plus launch latency) remain for the cycle
    // model — far less than the thousands of cycles the kernel itself takes.
    assert!(
        summary.cycles < 200,
        "warmup must have consumed the kernel work"
    );
    machine.cell_mut(0).flush_caches();
    (launch.check)(&machine);
}

/// The warmup result is bit-identical to a pure cycle-level run of the
/// same kernel (the ISS mirrors tile FP semantics exactly).
#[test]
fn warmup_matches_pure_cycle_simulation_bit_for_bit() {
    let cfg = config(2, 2);

    let (mut pure, _) = sgemm_machine(&cfg);
    pure.run(10_000_000).unwrap();
    pure.cell_mut(0).flush_caches();

    let (mut warm, _) = sgemm_machine(&cfg);
    warm.warmup_functional(1_000_000).unwrap();
    warm.run(1_000_000).unwrap();
    warm.cell_mut(0).flush_caches();

    assert!(
        pure.cell(0).dram() == warm.cell(0).dram(),
        "warmup must not change the computed result"
    );
}

/// Jacobi's init phase (column copy-in) fast-forwards up to the first
/// barrier; the stencil steps then run cycle-accurately and must still
/// validate against the golden model.
#[test]
fn warmup_stops_at_the_first_barrier_and_cycle_sim_completes() {
    let mut machine = Machine::new(config(4, 4));
    let launch = launch_on(&mut machine, &Jacobi::default(), SizeClass::Tiny);

    let report = machine.warmup_functional(1_000_000).unwrap();
    assert_eq!(
        report.at_barrier, 16,
        "all 16 tiles must park at the copy-in barrier"
    );
    assert_eq!(report.finished, 0);

    machine.run(10_000_000).unwrap();
    machine.cell_mut(0).flush_caches();
    (launch.check)(&machine);
}
