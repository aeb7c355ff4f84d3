//! The static phase-race pass names a DRAM word the way the sanitizer's
//! `RaceLoc::Dram` does: the same word reached through the own-cell
//! window, an explicit cell's window or the global window is one word.

use hb_asm::{Assembler, Program};
use hb_core::{pgas, CellDim, HbOps, Machine, MachineConfig};
use hb_isa::Gpr::*;
use hb_race::{cross_validate, static_conflicts};
use std::sync::Arc;

fn cfg() -> MachineConfig {
    MachineConfig {
        cell_dim: CellDim { x: 4, y: 2 },
        ..MachineConfig::baseline_16x8()
    }
}

/// Rank 0 stores to `local_dram(0x100)` and rank 1 to `other`, in one
/// barrier phase; every other rank does nothing.
fn two_stores(other: u32) -> Program {
    let mut a = Assembler::new();
    let (rank1, done) = (a.new_label(), a.new_label());
    a.tg_rank(T0, T6);
    a.li_u(T1, pgas::local_dram(0x100));
    a.li_u(T2, other);
    a.bnez(T0, rank1);
    a.sw(T0, T1, 0);
    a.j(done);
    a.bind(rank1);
    a.li(T3, 1);
    a.bne(T0, T3, done);
    a.sw(T0, T2, 0);
    a.bind(done);
    a.fence();
    a.ecall();
    a.assemble(0).unwrap()
}

/// Runs `program` under the sanitizer and holds both checkers to one
/// write-write race, statically flagged.
#[track_caller]
fn one_race_on_both_sides(program: Program) {
    let c = cfg();
    let statics = static_conflicts(&program, &c);
    let mut m = Machine::new(c);
    m.set_race_check(true);
    m.launch(0, &Arc::new(program), &[]);
    m.run(1_000_000).unwrap();
    let rendered = m.render_races();
    assert_eq!(rendered.len(), 1, "dynamic reports: {rendered:#?}");
    assert!(!statics.is_empty(), "no static finding for {rendered:?}");
    cross_validate(&statics, m.race_reports()).unwrap();
}

#[test]
fn own_cell_and_explicit_cell_windows_name_one_word() {
    one_race_on_both_sides(two_stores(pgas::group_dram(0, 0x100)));
}

#[test]
fn own_cell_and_global_windows_name_one_word() {
    one_race_on_both_sides(two_stores(pgas::global_dram(0x100)));
}

#[test]
fn two_own_cell_stores_race() {
    one_race_on_both_sides(two_stores(pgas::local_dram(0x100)));
}
