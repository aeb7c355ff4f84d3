//! Unloaded latency pins: what one access costs on an otherwise idle Cell,
//! as a closed form of `MachineConfig`.
//!
//! One tile runs a microkernel that reads the `CYCLE` CSR, issues one load,
//! consumes the loaded value, and reads `CYCLE` again; every other tile
//! retires its `ecall` long before. The span between the two reads is
//! asserted *equal* to the closed form, for the local scratchpad, a remote
//! scratchpad at every kind of distance on the mesh and over Ruche links,
//! a last-level-cache hit at bank distance, and the DRAM layer under it:
//! an LLC miss to an open row, a closed bank and a row conflict, a miss
//! that meets a refresh, and peak streaming read bandwidth. These are the
//! layer under every kernel's cycle count: a change to the tile's data
//! path, the network interface, the router pipeline, the strips or the
//! HBM2 controller that moves one of them moves every figure, and says so
//! here first. Only loaded behaviour (queue occupancy, bandwidth under
//! contention) may move without moving a pin.
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
//!
//! A miss in the bank it arrives at is served by the memory phase instead:
//!
//! - The bank allocates an MSHR in the cycle the request arrives, and the
//!   8-byte fetch rides its strip to the controller: [`strip`] = the
//!   strip's `base_latency`, plus the bank's skip-channel hops, plus one
//!   beat per `bytes_per_cycle`. It joins the controller's queue in the
//!   cycle it lands.
//! - The controller opens the row as [`Row`] says — nothing for the open
//!   row, `t_rcd` for a closed bank, `t_rp + t_rcd` for a conflict — then
//!   `t_cas` and `burst_cycles` for the data; the line leaves on the last
//!   beat, and a refresh under way first waits out the rest of `t_rfc`.
//! - The refill rides the strip back (`8 + line_bytes` bytes), completes
//!   into the bank, and the bank answers one cycle later.
//!
//! The controller counts memory-clock cycles. With the core and memory
//! clocks equal every DRAM pin is exact. Under the presets' 1350/1000 MHz
//! divider the request first waits for the next memory-clock edge (from
//! nothing to one memory tick) and the edges fall on whole core cycles, so
//! the controller's part is pinned to the window [`memory_side`] gives —
//! one memory tick wide — and the rest of the span stays exact.

use hammerblade::asm::Assembler;
use hammerblade::cache::CacheConfig;
use hammerblade::core::{pgas, CellDim, HbOps, Machine, MachineConfig};
use hammerblade::isa::Gpr::*;
use hammerblade::mem::Hbm2Config;
use hammerblade::noc::StripConfig;
use std::ops::RangeInclusive;
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
    timed(cfg, at, addr, 0, dependent).1
}

/// [`span`] with the second load `stride` bytes past the first, and the
/// cycle the kept stretch's first `CYCLE` read returned: `(A, span)`.
fn timed(cfg: &MachineConfig, at: (u8, u8), addr: u32, stride: u32, dependent: bool) -> (u32, u32) {
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
    a.sw(S2, Zero, RESULT as i32 + 4);
    a.fence();
    a.add(A0, A0, A1);
    a.addi(S0, S0, -1);
    a.bnez(S0, top);
    a.bind(done);
    a.ecall();
    let program = Arc::new(a.assemble(0).unwrap());
    machine.launch(0, &program, &[addr, stride]);
    machine.run(100_000).unwrap();
    let tile = machine.cell(0).tile(at.0, at.1);
    (tile.spm_read_u32(RESULT + 4), tile.spm_read_u32(RESULT))
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

/// What an LLC miss finds in the HBM2 bank its line maps to, set up by the
/// microkernel's first load (which opened a row there) and the stride to
/// its second.
#[derive(Debug, Clone, Copy)]
enum Row {
    /// The open row: the same bank, the next line in the row.
    Hit,
    /// A bank no access has opened: the next line.
    Closed,
    /// Another row of the open row's bank.
    Conflict,
}

impl Row {
    fn stride(self, hbm: &Hbm2Config) -> u32 {
        match self {
            Row::Hit => hbm.banks as u32 * hbm.line_bytes,
            Row::Closed => hbm.line_bytes,
            Row::Conflict => hbm.banks as u32 * hbm.row_bytes,
        }
    }

    /// Memory-clock cycles from the controller taking the request to the
    /// last data beat: precharge and activate as the row needs, the column
    /// access, the burst.
    fn dram(self, hbm: &Hbm2Config) -> u64 {
        let open = match self {
            Row::Hit => 0,
            Row::Closed => hbm.t_rcd,
            Row::Conflict => hbm.t_rp + hbm.t_rcd,
        };
        open + hbm.t_cas + hbm.burst_cycles - 1
    }
}

/// Cycles a strip channel holds a transfer of `bytes` for the bank at
/// position `pos` along it: the pipeline, the skip-channel hops, the beats.
fn strip(cfg: &MachineConfig, pos: usize, bytes: u32) -> u32 {
    let s: StripConfig = cfg.strip;
    let hops = pos / s.skip_distance + pos % s.skip_distance;
    s.base_latency as u32 + hops as u32 + bytes.div_ceil(s.bytes_per_cycle)
}

/// The core cycles `n` memory-clock cycles of the controller take, counted
/// from the core cycle the request reaches it: exactly `n` when the clocks
/// are equal. Under a divider the request first waits for the next
/// memory-clock edge — nothing up to one memory tick — and edges fall on
/// whole core cycles, so with ρ = core/mem the count lies strictly between
/// `n·ρ − 1` and `(n + 1)·ρ`: one memory tick of jitter.
fn memory_side(cfg: &MachineConfig, n: u64) -> RangeInclusive<u32> {
    let (core, mem) = (u64::from(cfg.core_freq_mhz), u64::from(cfg.mem_freq_mhz));
    let lo = (n * core - mem) / mem + 1;
    let hi = ((n + 1) * core - 1) / mem;
    lo as u32..=hi as u32
}

/// The memory-clock cycle the controller takes a request in that reaches
/// it in core cycle `at`: the first memory-clock edge at or after it.
fn taken_at(cfg: &MachineConfig, at: u32) -> u64 {
    let (core, mem) = (u64::from(cfg.core_freq_mhz), u64::from(cfg.mem_freq_mhz));
    (u64::from(at) - 1) * mem / core + 1
}

/// The two clockings the DRAM pins run under: equal clocks, where every
/// pin is exact, and the presets' 1.35 GHz core over 1 GHz memory.
fn clockings() -> [MachineConfig; 2] {
    let base = MachineConfig::baseline_16x8();
    let equal = MachineConfig {
        core_freq_mhz: base.mem_freq_mhz,
        ..base.clone()
    };
    [equal, base]
}

/// The second load's line, and the constant part of its span: the round
/// trip to its cache bank, whose service is the request's strip ride to
/// the controller, the refill's ride back and one cycle to answer; what is
/// left is the controller's.
fn miss_path(cfg: &MachineConfig, at: (u8, u8), second: u32) -> (u32, u32) {
    let map = *Machine::new(MachineConfig {
        dram_bytes_per_cell: 1 << 16,
        ..cfg.clone()
    })
    .cell(0)
    .pgas();
    let bank = map.bank_for(second);
    let coord = map.bank_coord(bank);
    let hops = hops(cfg, tile_at(at.0, at.1), (coord.x, coord.y));
    let pos = bank % usize::from(cfg.cell_dim.x);
    let to_mem = strip(cfg, pos, 8);
    let service = to_mem + strip(cfg, pos, 8 + cfg.line_bytes) + 1;
    let hold = if cfg.load_packet_compression {
        LPC_HOLD
    } else {
        0
    };
    // Core cycles from the kept stretch's `CYCLE` read to the request
    // joining the controller's queue.
    let reach = 1 + hold + one_way(cfg, hops) + to_mem;
    (reach, round_trip(cfg, hops, service))
}

#[test]
fn llc_miss_costs_both_strip_rides_and_the_row_buffer_outcome() {
    for cfg in clockings() {
        for at in [(0, 0), (9, 7)] {
            for first in [0x1_0000, 0x2_3440] {
                for row in [Row::Hit, Row::Closed, Row::Conflict] {
                    let stride = row.stride(&cfg.hbm);
                    let (_, fixed) = miss_path(&cfg, at, first + stride);
                    let (_, got) = timed(&cfg, at, pgas::local_dram(first), stride, true);
                    let dram = memory_side(&cfg, row.dram(&cfg.hbm));
                    assert!(
                        got >= fixed && dram.contains(&(got - fixed)),
                        "{row:?} miss from tile {at:?} after {first:#x} at {} MHz: {got} cycles, \
                         {fixed} + {dram:?} expected",
                        cfg.core_freq_mhz
                    );
                }
            }
        }
    }
}

#[test]
fn a_miss_that_meets_a_refresh_waits_out_the_window() {
    for base in clockings() {
        let hbm = Hbm2Config {
            t_rfc: 16,
            ..base.hbm.clone()
        };
        let base = MachineConfig { hbm, ..base };
        let (at, first, stride) = ((0, 0), pgas::local_dram(0x1_0000), base.hbm.line_bytes);
        let (reach, fixed) = miss_path(&base, at, 0x1_0000 + stride);
        let (start, quiet) = timed(&base, at, first, stride, true);
        let taken = taken_at(&base, start + reach);
        // A refresh that starts `early` memory cycles before the controller
        // takes the request: it waits out what is left of the window, and
        // finds its bank closed either way.
        let t_rfc = base.hbm.t_rfc;
        for early in [0, 1, t_rfc - 1, t_rfc, t_rfc + 5] {
            let hbm = Hbm2Config {
                t_refi: taken - early,
                ..base.hbm.clone()
            };
            let cfg = MachineConfig {
                hbm,
                ..base.clone()
            };
            let (again, got) = timed(&cfg, at, first, stride, true);
            assert_eq!(again, start, "the refresh reached the first load");
            let n = Row::Closed.dram(&cfg.hbm) + t_rfc.saturating_sub(early);
            let dram = memory_side(&cfg, n);
            assert!(
                dram.contains(&(got - fixed)),
                "refresh {early} cycles early at {} MHz: {got} cycles ({quiet} without), \
                 {fixed} + {dram:?} expected",
                cfg.core_freq_mhz
            );
        }
    }
}

/// Peak streaming reads: every tile of a 4x4 Cell walks its own lines of a
/// 64 KiB array, eight loads in flight, and the controller's data bus
/// moves one line per burst, back to back. The strips are widened so they
/// carry more than the bus, and refresh is pinned above, not here. Over a
/// window inside the stream the bytes read are the bus's `line_bytes /
/// burst_cycles` per memory cycle, to within one line and one memory tick
/// at the window's edges.
#[test]
fn peak_streaming_reads_move_one_line_per_burst() {
    const LINES: u32 = 1024;
    let regs = [T0, T1, T2, T3, T4, T5, S4, S5];
    let mut a = Assembler::new();
    a.tg_rank(S1, S3);
    a.tg_size(S2, S3);
    a.slli(S1, S1, 6);
    a.add(A0, A0, S1);
    a.slli(S2, S2, 6);
    a.li_u(S0, LINES / 16 / regs.len() as u32);
    let top = a.here();
    for &r in &regs {
        a.lw(r, A0, 0);
        a.add(A0, A0, S2);
    }
    for &r in &regs {
        a.add(S6, S6, r);
    }
    a.addi(S0, S0, -1);
    a.bnez(S0, top);
    a.ecall();
    let program = Arc::new(a.assemble(0).unwrap());
    for base in clockings() {
        let cfg = MachineConfig {
            cell_dim: CellDim { x: 4, y: 4 },
            strip: StripConfig {
                bytes_per_cycle: 64,
                ..base.strip
            },
            hbm: Hbm2Config {
                t_refi: 1 << 40,
                ..base.hbm.clone()
            },
            ..base
        };
        let mut machine = Machine::new(cfg.clone());
        machine.launch(0, &program, &[pgas::local_dram(0x1_0000)]);
        let reads_at = |machine: &mut Machine, cycle: u64| {
            while machine.cycle() < cycle {
                machine.tick();
            }
            machine.cell(0).hbm_stats().reads
        };
        let (from, to) = (1_000, 3_000);
        let before = reads_at(&mut machine, from);
        let lines = reads_at(&mut machine, to) - before;
        assert!(!machine.all_done(), "the stream ended inside the window");
        let (core, mem) = (u64::from(cfg.core_freq_mhz), u64::from(cfg.mem_freq_mhz));
        let burst = cfg.hbm.burst_cycles;
        // lines · burst memory cycles against (to − from) core cycles'
        // worth, in core·memory units.
        let moved = lines * burst * core;
        let window = (to - from) * mem;
        assert!(
            moved.abs_diff(window) <= burst * core + core,
            "{lines} lines in {} cycles at {core} MHz: {:.2} bytes per cycle, peak {:.2}",
            to - from,
            (lines * u64::from(cfg.hbm.line_bytes)) as f64 / (to - from) as f64,
            f64::from(cfg.hbm.line_bytes) * mem as f64 / (burst * core) as f64
        );
    }
}
