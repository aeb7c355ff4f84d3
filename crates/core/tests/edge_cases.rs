//! Edge-case machine tests: LPC across cache-line boundaries, scoreboard
//! saturation, icache thrashing, deep store streams, AMO fairness and
//! barrier pipelining.

use hb_asm::Assembler;
use hb_core::{pgas, CellDim, HbOps, Machine, MachineConfig, SimError, StallKind};
use hb_isa::Gpr::*;
use std::sync::Arc;

fn cfg() -> MachineConfig {
    MachineConfig {
        cell_dim: CellDim { x: 4, y: 2 },
        ..MachineConfig::baseline_16x8()
    }
}

#[test]
fn lpc_burst_across_line_boundary_is_correct() {
    // Four sequential loads starting 8 bytes before a line boundary: the
    // compressed packet's words span two cache lines and must still all
    // return the right values.
    let mut m = Machine::new(cfg());
    let base = m.cell_mut(0).alloc(256, 64);
    let start = base + 64 - 8; // two words before the boundary
    for i in 0..4u32 {
        m.cell_mut(0).dram_mut().write_u32(start + 4 * i, 0x100 + i);
    }
    let mut a = Assembler::new();
    a.tg_rank(T0, T6);
    let skip = a.new_label();
    a.bnez(T0, skip);
    a.lw(T1, A0, 0);
    a.lw(T2, A0, 4);
    a.lw(T3, A0, 8);
    a.lw(T4, A0, 12);
    a.add(T1, T1, T2);
    a.add(T1, T1, T3);
    a.add(T1, T1, T4);
    a.sw(T1, A1, 0);
    a.fence();
    a.bind(skip);
    a.ecall();
    let out = m.cell_mut(0).alloc(4, 64);
    let p = Arc::new(a.assemble(0).unwrap());
    m.launch(0, &p, &[pgas::local_dram(start), pgas::local_dram(out)]);
    m.run(100_000).unwrap();
    m.cell_mut(0).flush_caches();
    assert_eq!(
        m.cell(0).dram().read_u32(out),
        0x100 + 0x101 + 0x102 + 0x103
    );
}

#[test]
fn scoreboard_saturation_backpressures_not_breaks() {
    // Issue far more than 63 outstanding stores; the tile must stall on
    // credits but complete correctly.
    let mut m = Machine::new(cfg());
    let base = m.cell_mut(0).alloc(4096, 64);
    let mut a = Assembler::new();
    a.li(T0, 512);
    a.mv(T1, A0);
    let top = a.here();
    a.sw(T0, T1, 0);
    a.addi(T1, T1, 4);
    a.addi(T0, T0, -1);
    a.bnez(T0, top);
    a.fence();
    a.ecall();
    let p = Arc::new(a.assemble(0).unwrap());
    m.launch(0, &p, &[pgas::local_dram(base)]);
    let summary = m.run(1_000_000).unwrap();
    assert!(
        summary.core.stall(StallKind::RemoteCredit) > 0,
        "512 back-to-back stores should hit the scoreboard/outbox limit"
    );
    m.cell_mut(0).flush_caches();
    assert_eq!(m.cell(0).dram().read_u32(base), 512);
    assert_eq!(m.cell(0).dram().read_u32(base + 4 * 511), 1);
}

#[test]
fn icache_thrash_is_accounted() {
    // A straight-line program larger than the 4 KB icache: every line is
    // a cold miss and the counters must say so.
    let mut m = Machine::new(cfg());
    let mut a = Assembler::new();
    for _ in 0..2000 {
        a.nop(); // 8 KB of code
    }
    a.ecall();
    let p = Arc::new(a.assemble(0).unwrap());
    m.launch(0, &p, &[]);
    let summary = m.run(10_000_000).unwrap();
    // 2001 instructions / 4 per line ~ 500 cold misses per tile, 8 tiles.
    assert!(
        summary.core.icache_misses >= 8 * 450,
        "expected cold icache misses, got {}",
        summary.core.icache_misses
    );
    assert!(summary.core.stall(StallKind::IcacheMiss) > summary.core.int_cycles);
}

#[test]
fn amo_fairness_all_tiles_get_slots() {
    // Every tile amoadds its (rank+1) value 32 times; the final counter
    // equals the closed form, proving no tile's atomics were lost.
    let mut m = Machine::new(cfg());
    let counter = m.cell_mut(0).alloc(4, 64);
    let mut a = Assembler::new();
    a.tg_rank(T0, T6);
    a.addi(T0, T0, 1);
    a.li(T1, 32);
    let top = a.here();
    a.amoadd(Zero, T0, A0);
    a.addi(T1, T1, -1);
    a.bnez(T1, top);
    a.fence();
    a.ecall();
    let p = Arc::new(a.assemble(0).unwrap());
    m.launch(0, &p, &[pgas::local_dram(counter)]);
    m.run(1_000_000).unwrap();
    m.cell_mut(0).flush_caches();
    let expect: u32 = (1..=8).map(|r| r * 32).sum();
    assert_eq!(m.cell(0).dram().read_u32(counter), expect);
}

#[test]
fn pipelined_barriers_many_rounds() {
    // 50 consecutive barriers; tiles alternate fast/slow paths so rounds
    // genuinely overlap in the barrier network's counters.
    let mut m = Machine::new(cfg());
    let mut a = Assembler::new();
    a.tg_rank(S0, T6);
    a.li(S1, 50);
    let round = a.here();
    // Odd ranks burn some cycles first.
    a.andi(T0, S0, 1);
    let join = a.new_label();
    a.beqz(T0, join);
    a.li(T1, 20);
    let spin = a.here();
    a.addi(T1, T1, -1);
    a.bnez(T1, spin);
    a.bind(join);
    a.barrier(T6);
    a.addi(S1, S1, -1);
    a.bnez(S1, round);
    a.ecall();
    let p = Arc::new(a.assemble(0).unwrap());
    m.launch(0, &p, &[]);
    m.run(1_000_000).unwrap();
    assert!(m.all_done());
}

#[test]
fn byte_and_halfword_remote_access_sign_extension() {
    let mut m = Machine::new(cfg());
    let base = m.cell_mut(0).alloc(64, 64);
    m.cell_mut(0).dram_mut().write_u8(base, 0x80); // -128 as i8
    m.cell_mut(0).dram_mut().write_u16(base + 2, 0x8000); // -32768 as i16
    let out = m.cell_mut(0).alloc(16, 64);
    let mut a = Assembler::new();
    a.tg_rank(T0, T6);
    let skip = a.new_label();
    a.bnez(T0, skip);
    a.lb(T1, A0, 0);
    a.lbu(T2, A0, 0);
    a.lh(T3, A0, 2);
    a.lhu(T4, A0, 2);
    a.sw(T1, A1, 0);
    a.sw(T2, A1, 4);
    a.sw(T3, A1, 8);
    a.sw(T4, A1, 12);
    a.fence();
    a.bind(skip);
    a.ecall();
    let p = Arc::new(a.assemble(0).unwrap());
    m.launch(0, &p, &[pgas::local_dram(base), pgas::local_dram(out)]);
    m.run(100_000).unwrap();
    m.cell_mut(0).flush_caches();
    let vals = m.cell(0).dram().read_u32_slice(out, 4);
    assert_eq!(vals[0] as i32, -128);
    assert_eq!(vals[1], 0x80);
    assert_eq!(vals[2] as i32, -32768);
    assert_eq!(vals[3], 0x8000);
}

#[test]
fn global_dram_space_works_single_cell() {
    // Global DRAM hashes over all banks; with one cell it must still
    // round-trip data.
    let mut m = Machine::new(cfg());
    let off = m.cell_mut(0).alloc(64, 64);
    let mut a = Assembler::new();
    a.tg_rank(T0, T6);
    let skip = a.new_label();
    a.bnez(T0, skip);
    a.li(T1, 4242);
    a.sw(T1, A0, 0); // global-DRAM store
    a.fence();
    a.lw(T2, A0, 0); // global-DRAM load back
    a.sw(T2, A1, 0); // result into local DRAM
    a.fence();
    a.bind(skip);
    a.ecall();
    let out = m.cell_mut(0).alloc(4, 64);
    let p = Arc::new(a.assemble(0).unwrap());
    m.launch(0, &p, &[pgas::global_dram(off), pgas::local_dram(out)]);
    m.run(100_000).unwrap();
    m.cell_mut(0).flush_caches();
    assert_eq!(m.cell(0).dram().read_u32(out), 4242);
}

#[test]
fn divider_structural_hazard_counted() {
    let mut m = Machine::new(cfg());
    let mut a = Assembler::new();
    a.li(T0, 1000);
    a.li(T1, 7);
    let top = a.here();
    a.div(T2, T0, T1);
    a.div(T3, T0, T2); // back-to-back divides contend for the unit
    a.addi(T0, T0, -1);
    a.bnez(T0, top);
    a.ecall();
    let p = Arc::new(a.assemble(0).unwrap());
    m.launch(0, &p, &[]);
    let summary = m.run(10_000_000).unwrap();
    assert!(
        summary.core.stall(StallKind::IntBusy) > 0,
        "iterative divider contention must be visible"
    );
}

#[test]
fn a_fault_reports_its_cause_pc_and_window() {
    let mut m = Machine::new(cfg());
    let mut a = Assembler::new();
    a.li(T0, 3);
    a.li_u(T1, 0x2000); // invalid EVA
    let lw = 4 * a.len() as u32; // the program's base is 0
    a.lw(T2, T1, 0); // traps
    a.ecall();
    let p = Arc::new(a.assemble(0).unwrap());
    m.launch(0, &p, &[]);
    let Err(SimError::Fault(info)) = m.run(10_000) else {
        panic!("the load must trap");
    };
    assert!(info.cause.contains("0x00002000"), "{}", info.cause);
    assert_eq!(info.pc, Some(lw));
    let at = format!("{lw:#06x}: lw t2, 0(t1)  <-- fault");
    assert!(info.window.contains(&at), "{:?}", info.window);
}

#[test]
fn wide_cell_32x8_constructs_and_runs() {
    // Regression: strip channels must size to the Cell width (a 32-wide
    // Cell has 32 banks per strip, not the default 16).
    let mut m = Machine::new(MachineConfig::cell_32x8());
    let mut a = Assembler::new();
    a.tg_rank(T0, T6);
    a.slli(T0, T0, 2);
    a.add(T0, T0, A0);
    a.sw(T0, T0, 0);
    a.fence();
    a.ecall();
    let out = m.cell_mut(0).alloc(32 * 8 * 4, 64);
    let p = Arc::new(a.assemble(0).unwrap());
    m.launch(0, &p, &[pgas::local_dram(out)]);
    m.run(10_000_000).unwrap();
}

#[test]
fn global_dram_spans_four_cells() {
    // Four Cells; every tile of every Cell amoadds into one Global-DRAM
    // counter, proving chip-wide synchronization across Cell boundaries.
    let mut config = cfg();
    config.num_cells = 4;
    let mut m = Machine::new(config);
    // Pick a global offset and zero it host-side.
    let goff = 0x400u32;
    m.global_write_u32(goff, 0);
    let mut a = Assembler::new();
    a.li(T0, 16);
    a.li(T1, 1);
    let top = a.here();
    a.amoadd(Zero, T1, A0);
    a.addi(T0, T0, -1);
    a.bnez(T0, top);
    a.fence();
    a.ecall();
    let p = Arc::new(a.assemble(0).unwrap());
    for c in 0..4 {
        m.launch(c, &p, &[pgas::global_dram(goff)]);
    }
    m.run(5_000_000).unwrap();
    m.flush_all_caches();
    // 4 cells x 8 tiles x 16 increments.
    assert_eq!(m.global_read_u32(goff), 4 * 8 * 16);
}

#[test]
fn global_dram_host_round_trip() {
    let mut config = cfg();
    config.num_cells = 2;
    let mut m = Machine::new(config);
    // Consecutive lines land on different (cell, bank) homes but must
    // round-trip independently.
    for i in 0..64u32 {
        m.global_write_u32(i * 64, 0xC0DE + i);
    }
    for i in 0..64u32 {
        assert_eq!(m.global_read_u32(i * 64), 0xC0DE + i);
    }
    // And they really spread across cells.
    let cells: std::collections::HashSet<u8> =
        (0..64u32).map(|i| m.global_location(i * 64).0).collect();
    assert_eq!(cells.len(), 2);
}

#[test]
fn amo_past_the_end_of_a_remote_scratchpad_traps_the_guest() {
    // Rank 0 bumps a mailbox word in tile (1, 0)'s scratchpad, `back`
    // bytes from its end.
    let bump = |back: u32| {
        let config = cfg();
        let offset = config.spm_bytes - back;
        let mut m = Machine::new(config);
        let mut a = Assembler::new();
        a.tg_rank(T0, T6);
        let skip = a.new_label();
        a.bnez(T0, skip);
        a.li(T1, 5);
        a.amoadd(T2, T1, A0);
        a.fence();
        a.bind(skip);
        a.ecall();
        let p = Arc::new(a.assemble(0).unwrap());
        m.launch(0, &p, &[pgas::group_spm(1, 0, offset)]);
        let outcome = m.run(100_000);
        (outcome, m.cell(0).tile(1, 0).spm_read_u32(offset & !3))
    };

    // The last whole word is a legal mailbox.
    let (outcome, word) = bump(4);
    outcome.unwrap();
    assert_eq!(word, 5);

    // The last three bytes translate (the offset is below `spm_bytes`) but
    // a word there does not fit: one register bit-flip away from the legal
    // address. The issuing tile must trap, as it does for a local overrun
    // — not hand the neighbour's NI a request that indexes past its SPM.
    for back in 1..4 {
        match bump(back) {
            (Err(SimError::Fault(info)), word) => {
                assert_eq!(info.coord, Some((0, 0)), "{info}");
                assert!(info.cause.contains("AMO overrun"), "{info}");
                assert_eq!(word, 0, "the neighbour's scratchpad was written");
            }
            (other, _) => panic!("expected a guest fault {back} bytes from the end, got {other:?}"),
        }
    }
}

#[test]
fn two_adjacent_remote_loads_leave_as_one_packet() {
    // Two consecutive remote word loads ride in one packet (Load Packet
    // Compression is on by default), and both land.
    let mut m = Machine::new(cfg());
    let base = m.cell_mut(0).alloc(64, 64);
    m.cell_mut(0).dram_mut().write_u32(base, 40);
    m.cell_mut(0).dram_mut().write_u32(base + 4, 2);
    let mut a = Assembler::new();
    a.tg_rank(T0, T6);
    let skip = a.new_label();
    a.bnez(T0, skip);
    // Both loads in one icache line: a fetch miss between them would
    // outlast the latch.
    a.addi(T3, Zero, 0);
    a.lw(T1, A0, 0);
    a.lw(T2, A0, 4);
    a.add(T1, T1, T2);
    a.bind(skip);
    a.ecall();
    let p = Arc::new(a.assemble(0).unwrap());
    m.launch(0, &p, &[pgas::local_dram(base)]);
    let summary = m.run(100_000).unwrap();
    assert_eq!(summary.core.remote_requests, 1);
    assert_eq!(m.cell(0).tile(0, 0).reg(T1), 42);
}

/// A kernel that timed out leaves loads and stores in flight; relaunching
/// on the same machine must neither trap on their late responses nor let
/// them land in the new kernel's registers. The clean kernel computes what
/// it computes on a fresh machine.
#[test]
fn a_relaunch_after_a_timeout_drops_the_abandoned_responses() {
    let cfg = cfg();
    let clean = |m: &mut Machine, buf: u32| {
        // Every tile sums four words of the buffer and stores the sum at
        // its rank's slot.
        let mut a = Assembler::new();
        a.tg_rank(T0, T6);
        a.lw(T1, A0, 0);
        a.lw(T2, A0, 4);
        a.lw(T3, A0, 8);
        a.lw(T4, A0, 12);
        a.add(T1, T1, T2);
        a.add(T1, T1, T3);
        a.add(T1, T1, T4);
        a.add(T1, T1, T0);
        a.slli(T0, T0, 2);
        a.add(T0, T0, A1);
        a.sw(T1, T0, 0);
        a.fence();
        a.ecall();
        let p = Arc::new(a.assemble(0).unwrap());
        m.launch(0, &p, &[pgas::local_dram(buf), pgas::local_dram(buf + 64)]);
        m.run(100_000).map(|s| s.cycles)
    };
    let setup = |m: &mut Machine| {
        let buf = m.cell_mut(0).alloc(256, 64);
        for i in 0..4u32 {
            m.cell_mut(0)
                .dram_mut()
                .write_u32(buf + 4 * i, 10 * (i + 1));
        }
        buf
    };
    let results = |m: &mut Machine, buf: u32| {
        m.cell_mut(0).flush_caches();
        (0..8u32)
            .map(|r| m.cell(0).dram().read_u32(buf + 64 + 4 * r))
            .collect::<Vec<_>>()
    };

    let mut fresh = Machine::new(cfg.clone());
    let buf = setup(&mut fresh);
    clean(&mut fresh, buf).unwrap();
    let expect = results(&mut fresh, buf);
    assert_eq!(expect, (0..8).map(|r| 100 + r).collect::<Vec<_>>());

    // A spinning kernel: remote loads and stores, never a fence, never an
    // ecall. Cut off mid-stream, it owes responses to every tile.
    let mut m = Machine::new(cfg);
    let buf = setup(&mut m);
    let mut a = Assembler::new();
    let top = a.new_label();
    a.bind(top);
    a.lw(T1, A0, 0);
    a.lw(T2, A0, 32);
    a.sw(T1, A0, 128);
    a.j(top);
    let spin = Arc::new(a.assemble(0).unwrap());
    m.launch(0, &spin, &[pgas::local_dram(buf)]);
    assert!(matches!(m.run(500), Err(SimError::Timeout { .. })));
    assert!(m.cell(0).req_in_flight() + m.cell(0).resp_in_flight() > 0);
    clean(&mut m, buf).unwrap();
    assert_eq!(results(&mut m, buf), expect);
}

/// `fsqrt.s` reads rs1 only. Its encoding fills rs2 with `f0`, so a
/// scoreboard that read rs2 would hold the sqrt until an unrelated load
/// into `ft0` came back. The sqrt retires without waiting for it.
#[test]
fn fsqrt_does_not_wait_on_a_pending_f0() {
    let mut m = Machine::new(MachineConfig {
        cell_dim: CellDim { x: 1, y: 1 },
        ..MachineConfig::baseline_16x8()
    });
    let mut a = Assembler::new();
    a.flw(hb_isa::Fpr::Ft0, A0, 0);
    a.fsqrt(hb_isa::Fpr::Fa0, hb_isa::Fpr::Fa1);
    a.ecall();
    let p = Arc::new(a.assemble(0).unwrap());
    m.launch(0, &p, &[pgas::local_dram(0)]);
    let summary = m.run(100_000).unwrap();
    assert_eq!(summary.core.stall(StallKind::RemoteLoad), 0);
}
