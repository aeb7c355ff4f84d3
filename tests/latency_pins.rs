//! Unloaded latency pins: what one access costs on an otherwise idle Cell,
//! as a closed form of `MachineConfig`.
//!
//! One tile runs a microkernel that reads the `CYCLE` CSR, issues one load,
//! consumes the loaded value, and reads `CYCLE` again; every other tile
//! retires its `ecall` long before. The span between the two reads is
//! asserted *equal* to the closed form, for the local scratchpad, a remote
//! scratchpad at every kind of distance on the mesh and over Ruche links,
//! and a last-level-cache hit at bank distance. These are the layer under
//! every kernel's cycle count: a change to the tile's data path, the
//! network interface or the router pipeline that moves one of them moves
//! every figure, and says so here first. (DRAM row-hit/miss/conflict and
//! refresh pins belong with the HBM2 controller rework, ROADMAP item 1.)
//!
//! The span, read off the cycle model (`Cell::tick`: network → memory →
//! tiles → sync → inject):
//!
//! - `CYCLE` is read at cycle `A`; the load issues at `A + 1`.
//! - A request leaves the tile's outbox in the inject phase of the cycle it
//!   issued in. Its first router moves it from the injection FIFO into an
//!   output latch on the next tick (**1 cycle**); every link then holds it
//!   `link_occupancy` cycles, and it crosses one link per hop plus the
//!   destination's ejection port: [`one_way`] = `1 + (hops + 1) *
//!   link_occupancy`. It is ejected, and served, in the cycle it arrives.
//! - A scratchpad's network interface answers in the tile phase of that
//!   same cycle (**0**); a cache bank answers a hit `hit_latency` cycles
//!   later. The response takes the same path back (X and Y swapped, same
//!   hop count).
//! - The response is drained at the top of the tile step of the cycle it
//!   arrives in, so the dependent instruction issues in that cycle; the
//!   second `CYCLE` read issues one cycle later (**+1**).
//! - With Load Packet Compression (every preset's default) a lone word
//!   load waits in the combining latch until it expires, [`LPC_HOLD`]
//!   cycles, because the dependent instruction stalls before it can close
//!   the latch.

use hammerblade::asm::Assembler;
use hammerblade::cache::CacheConfig;
use hammerblade::core::{pgas, HbOps, Machine, MachineConfig};
use hammerblade::isa::Gpr::*;
use std::sync::Arc;

/// Scratchpad word the microkernel leaves its measurement in.
const RESULT: u32 = 128;

/// Cycles a word load sits in the combining latch when no second load
/// joins it: `Tile::remote_load` arms the latch with `flush_at = now + 2`.
const LPC_HOLD: u32 = 2;

/// Runs the microkernel on tile `at` and returns the span between its two
/// `CYCLE` reads around `lw t1, (addr)` and an `add` that does (or does
/// not) consume `t1`. The timed stretch runs twice and the second span is
/// kept, so the icache and — for a DRAM address — the cache bank are warm.
fn span(cfg: &MachineConfig, at: (u8, u8), addr: u32, dependent: bool) -> u32 {
    let mut machine = Machine::new(cfg.clone());
    let rank = u32::from(at.1) * u32::from(cfg.cell_dim.x) + u32::from(at.0);
    let cycle = (pgas::csr::CYCLE & 0x7ff) as i32;
    let mut a = Assembler::new();
    a.tg_rank(T0, T6);
    a.li_u(T1, rank);
    let done = a.new_label();
    a.bne(T0, T1, done);
    a.li(S0, 2);
    a.li_u(T6, pgas::csr::CYCLE & !0x7ff);
    let top = a.here();
    a.lw(S2, T6, cycle);
    a.lw(T1, A0, 0);
    a.add(T2, if dependent { T1 } else { T3 }, T3);
    a.lw(S3, T6, cycle);
    a.sub(S3, S3, S2);
    a.sw(S3, Zero, RESULT as i32);
    a.fence();
    a.addi(S0, S0, -1);
    a.bnez(S0, top);
    a.bind(done);
    a.ecall();
    let program = Arc::new(a.assemble(0).unwrap());
    machine.launch(0, &program, &[addr]);
    machine.run(100_000).unwrap();
    machine.cell(0).tile(at.0, at.1).spm_read_u32(RESULT)
}

/// Network coordinate of tile `(x, y)`: tile rows sit under the top strip.
fn tile_at(x: u8, y: u8) -> (u8, u8) {
    (x, y + 1)
}

/// Router-to-router links between two network coordinates: vertical links
/// span one row; horizontally a packet takes the Ruche link (`ruche_factor`
/// columns at once) while at least that far away, then single links.
fn hops(cfg: &MachineConfig, from: (u8, u8), to: (u8, u8)) -> u32 {
    let dx = u32::from(from.0.abs_diff(to.0));
    let dy = u32::from(from.1.abs_diff(to.1));
    match u32::from(cfg.ruche_factor) {
        0 => dx + dy,
        rf => dx / rf + dx % rf + dy,
    }
}

/// Cycles from the tile phase a packet is sent in to the one it is served
/// in (see the module comment).
fn one_way(cfg: &MachineConfig, hops: u32) -> u32 {
    1 + (hops + 1) * u32::from(cfg.link_occupancy)
}

/// The whole span of a consumed remote load whose endpoint answers
/// `service` cycles after the request arrives.
fn round_trip(cfg: &MachineConfig, hops: u32, service: u32) -> u32 {
    let hold = if cfg.load_packet_compression {
        LPC_HOLD
    } else {
        0
    };
    1 + hold + one_way(cfg, hops) + service + one_way(cfg, hops) + 1
}

#[test]
fn local_spm_load_use_delay_is_spm_load_latency() {
    for spm_load_latency in [1, 2, 3, 5] {
        let cfg = MachineConfig {
            spm_load_latency,
            ..MachineConfig::baseline_16x8()
        };
        // The load issues at A + 1 and its consumer `spm_load_latency`
        // cycles after it; an instruction that does not consume it issues
        // the very next cycle.
        assert_eq!(
            span(&cfg, (0, 0), pgas::local_spm(64), true),
            1 + spm_load_latency as u32 + 1
        );
        assert_eq!(span(&cfg, (0, 0), pgas::local_spm(64), false), 3);
    }
}

#[test]
fn remote_spm_round_trip_is_affine_in_manhattan_distance_on_the_mesh() {
    let targets = [
        (1, 0),
        (2, 0),
        (7, 0),
        (15, 0),
        (0, 1),
        (0, 7),
        (1, 1),
        (3, 3),
        (5, 4),
    ];
    for (link_occupancy, load_packet_compression) in [(1, true), (1, false), (2, false), (3, true)]
    {
        let cfg = MachineConfig {
            ruche_factor: 0,
            link_occupancy,
            load_packet_compression,
            ..MachineConfig::baseline_16x8()
        };
        let nearest = span(&cfg, (0, 0), pgas::group_spm(1, 0, 64), true);
        for (x, y) in targets {
            let distance = u32::from(x) + u32::from(y);
            assert_eq!(hops(&cfg, tile_at(0, 0), tile_at(x, y)), distance);
            let got = span(&cfg, (0, 0), pgas::group_spm(x, y, 64), true);
            assert_eq!(got, round_trip(&cfg, distance, 0), "to ({x},{y})");
            // Each further hop is one more link each way.
            assert_eq!(
                got - nearest,
                (distance - 1) * 2 * u32::from(link_occupancy),
                "to ({x},{y})"
            );
        }
    }
}

#[test]
fn a_ruche_link_makes_ruche_factor_columns_cost_one_hop() {
    let cfg = MachineConfig::baseline_16x8();
    let rf = cfg.ruche_factor;
    assert!(
        rf > 1 && cfg.load_packet_compression,
        "the presets' default"
    );
    let to = |x: u8, y: u8| span(&cfg, (0, 0), pgas::group_spm(x, y, 64), true);
    assert_eq!(to(rf, 0), to(1, 0));
    assert_eq!(to(2 * rf, 0), to(2, 0));
    // Vertical distance is untouched: there are no vertical Ruche links.
    assert!(to(0, rf) > to(0, 1));
    for (x, y) in [(1, 0), (2, 0), (rf + 2, 0), (15, 0), (rf, 3), (5, 4)] {
        let hops = hops(&cfg, tile_at(0, 0), tile_at(x, y));
        assert_eq!(to(x, y), round_trip(&cfg, hops, 0), "to ({x},{y})");
    }
    // From the far corner the trip runs over the westward Ruche links.
    let from_corner = span(&cfg, (15, 7), pgas::group_spm(15 - rf, 7, 64), true);
    assert_eq!(from_corner, to(1, 0));
}

#[test]
fn llc_hit_costs_the_round_trip_to_its_bank_plus_the_hit_pipeline() {
    let hit_latency = CacheConfig::default().hit_latency as u32;
    for (ruche_factor, link_occupancy) in [(3, 1), (0, 1), (0, 2)] {
        let cfg = MachineConfig {
            ruche_factor,
            link_occupancy,
            ..MachineConfig::baseline_16x8()
        };
        let map = *Machine::new(cfg.clone()).cell(0).pgas();
        for at in [(0, 0), (0, 3), (4, 0), (9, 7)] {
            // One line per bank of interest: next to the tile's column in
            // either strip, and far along each.
            let mut seen = Vec::new();
            for line in 0..256u32 {
                let offset = 0x1_0000 + line * cfg.line_bytes;
                let bank = map.bank_for(offset);
                if seen.contains(&bank) || ![0, 3, 4, 15, 16, 25, 31].contains(&bank) {
                    continue;
                }
                seen.push(bank);
                let coord = map.bank_coord(bank);
                let hops = hops(&cfg, tile_at(at.0, at.1), (coord.x, coord.y));
                assert_eq!(
                    span(&cfg, at, pgas::local_dram(offset), true),
                    round_trip(&cfg, hops, hit_latency),
                    "tile {at:?} to bank {bank} at {coord}"
                );
            }
            assert_eq!(seen.len(), 7, "a line for every bank of interest");
        }
    }
}
