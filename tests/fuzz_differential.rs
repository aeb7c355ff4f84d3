//! Differential fuzzing: deterministic seeded RV32IMAF sequences run on
//! the cycle-level single-tile machine in lockstep with the `hb-iss`
//! golden model. `Machine::run_cosim` checks every retire's PC, the
//! register files whenever the tile is quiescent, and the final
//! architectural state (registers, scratchpad, DRAM) bit-for-bit.
//!
//! Unlike the straight-line differential tests, these sequences cover
//! loads/stores to both the scratchpad and DRAM windows, AMOs, forward
//! control flow, fences and the full FP set — the whole memory system sits
//! between the two models.

use hammerblade::asm::Assembler;
use hammerblade::core::{pgas, CellDim, CosimChecker, CosimError, Machine, MachineConfig};
use hammerblade::fault::{InjectionPlan, Site};
use hammerblade::isa::Gpr;
use hammerblade::iss::fuzz::{gen_sequence, FuzzConfig};
use hammerblade::rng::Rng;
use std::sync::Arc;

const SEQUENCES: u64 = 1000;
const SEED_BASE: u64 = 0xF022_0000;

fn fuzz_machine_config() -> MachineConfig {
    MachineConfig {
        cell_dim: CellDim { x: 1, y: 1 },
        ..MachineConfig::baseline_16x8()
    }
}

#[test]
fn thousand_seeded_sequences_match_the_iss() {
    let fuzz = FuzzConfig {
        len: 120,
        spm_base: 0x100,
        spm_len: 1024,
        dram_base: pgas::local_dram(0x1000),
        dram_len: 2048,
    };
    for seed in SEED_BASE..SEED_BASE + SEQUENCES {
        let body = gen_sequence(seed, &fuzz);
        let mut a = Assembler::new();
        for &i in &body {
            a.emit(i);
        }
        let image = Arc::new(a.assemble(0).unwrap());

        let mut machine = Machine::new(fuzz_machine_config());
        // Nonzero initial DRAM so window loads observe real data.
        let mut content = Rng::seed_from_u64(seed ^ 0x5eed);
        for w in 0..2048 / 4 {
            machine
                .cell_mut(0)
                .dram_mut()
                .write_u32(0x1000 + w * 4, content.next_u32());
        }
        machine.launch(0, &image, &[]);

        let (_, report) = machine
            .run_cosim(1_000_000)
            .unwrap_or_else(|e| panic!("seed {seed:#x}:\n{e}"));
        assert!(report.instrs > 0, "seed {seed:#x} retired nothing");
    }
}

/// The checker is not vacuously green: corrupting the tile's SPM after
/// the ISS snapshot makes the very first load disagree, and the reported
/// divergence carries the disassembled context.
#[test]
fn cosim_catches_a_real_divergence() {
    // Program: a0 = SPM[0]; ecall.
    let mut a = Assembler::new();
    a.li(Gpr::T0, 0);
    a.lw(Gpr::A0, Gpr::T0, 0);
    a.fence();
    a.ecall();
    let image = Arc::new(a.assemble(0).unwrap());

    let mut machine = Machine::new(fuzz_machine_config());
    machine.launch(0, &image, &[]);
    let mut checker = CosimChecker::new(&machine, 0, (0, 0));
    // The checker snapshot saw SPM[0] == 0; the tile will now load this.
    machine
        .cell_mut(0)
        .tile_mut(0, 0)
        .spm_write_u32(0, 0xdead_beef);
    let mut divergence = None;
    for _ in 0..100_000 {
        if machine.all_done() {
            break;
        }
        machine.tick();
        if let Err(d) = checker.observe(&machine) {
            divergence = Some(d);
            break;
        }
    }
    let d = divergence.expect("corrupted SPM must diverge the register files");
    assert!(
        d.what.contains("mismatch"),
        "unexpected divergence: {}",
        d.what
    );
    let rendered = format!("{}", CosimError::Diverged(d));
    assert!(rendered.contains("recent retires"), "{rendered}");
}

/// Injection mode: a seeded register flip landed mid-run via the hb-fault
/// plan must surface as a cosim divergence naming the first divergent
/// register — never as a silent pass. (The ISS shadow never sees
/// injections; divergence detection *is* the fault-detection story for
/// cosim runs.)
#[test]
fn cosim_flags_an_injected_register_flip() {
    // s0 = 5; ~600-cycle delay loop; a0 = s0; ecall.
    let mut a = Assembler::new();
    a.li(Gpr::S0, 5);
    a.li(Gpr::T0, 200);
    let top = a.here();
    a.addi(Gpr::T0, Gpr::T0, -1);
    a.bnez(Gpr::T0, top);
    a.mv(Gpr::A0, Gpr::S0);
    a.fence();
    a.ecall();
    let image = Arc::new(a.assemble(0).unwrap());

    let mut machine = Machine::new(fuzz_machine_config());
    machine.launch(0, &image, &[]);
    machine.set_injection_plan(&InjectionPlan::explicit([(
        100,
        Site::RegFile {
            cell: 0,
            x: 0,
            y: 0,
            reg: Gpr::S0 as u8,
            bit: 1,
        },
    )]));
    match machine.run_cosim(1_000_000) {
        Err(CosimError::Diverged(d)) => {
            let reg = format!("x{} mismatch", Gpr::S0 as u8);
            assert!(d.what.contains(&reg), "wrong divergence: {}", d.what);
        }
        other => panic!("injected flip must diverge the cosim, got {other:?}"),
    }

    // Same launch with no plan: the checker stays green.
    let mut clean = Machine::new(fuzz_machine_config());
    clean.launch(0, &image, &[]);
    let (_, report) = clean.run_cosim(1_000_000).expect("clean run matches ISS");
    assert!(report.instrs > 0);
}
