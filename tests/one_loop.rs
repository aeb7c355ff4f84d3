//! Contracts of the one cycle loop: there is a single tile phase (the
//! wake-list loop, under the park or the never-park policy) and a single
//! cycle body (`tick`, with or without a stopwatch for a clock), so
//!
//! - a run under the park policy retires exactly the (cycle, tile, pc)
//!   stream of a never-park run, read from every tile's retire counter
//!   after each tick;
//! - `tick_profiled` *is* `tick`: a kernel driven to completion by either
//!   ends in the same state, under both policies, and the stopwatch bills
//!   every one of its six phase buckets.

use hammerblade::asm::{Assembler, Program};
use hammerblade::core::{CellDim, CoreStats, HbOps, Machine, MachineConfig, PhaseTimes};
use hammerblade::isa::Gpr::*;
use hammerblade::kernels::{launch_on, Sgemm, SizeClass};
use std::sync::Arc;
use std::time::Duration;

const BUDGET: u64 = 10_000_000;

fn cfg(event_core: bool) -> MachineConfig {
    MachineConfig {
        cell_dim: CellDim { x: 4, y: 2 },
        event_core,
        ..MachineConfig::baseline_16x8()
    }
}

/// Eight rounds of rank-proportional spinning, each closed by the group
/// barrier: low ranks park for most of every round.
fn barrier_rounds_kernel() -> Program {
    let mut a = Assembler::new();
    a.tg_rank(T0, T6);
    a.li(T1, 8);
    let round = a.new_label();
    a.bind(round);
    a.addi(T2, T0, 1);
    a.slli(T2, T2, 4);
    let spin = a.new_label();
    a.bind(spin);
    a.addi(T2, T2, -1);
    a.bnez(T2, spin);
    a.barrier(T6);
    a.addi(T1, T1, -1);
    a.bnez(T1, round);
    a.ecall();
    a.assemble(0).expect("kernel assembles")
}

fn barrier_machine(cfg: &MachineConfig) -> Machine {
    let mut machine = Machine::new(cfg.clone());
    machine.launch(0, &Arc::new(barrier_rounds_kernel()), &[]);
    machine
}

/// A seeded 32x16x32 SGEMM, DRAM-streaming.
fn sgemm_machine(cfg: &MachineConfig) -> Machine {
    let mut machine = Machine::new(cfg.clone());
    let sgemm = Sgemm {
        m: 32,
        k: 16,
        n: 32,
        blocked: false,
    };
    launch_on(&mut machine, &sgemm, SizeClass::Small);
    machine
}

type Build = fn(&MachineConfig) -> Machine;
const KERNELS: [(&str, Build); 2] = [("barrier", barrier_machine), ("sgemm", sgemm_machine)];

/// A retire: the Cell cycle, the tile (cell, x, y) and its pc.
type Retire = (u64, (u8, u8, u8), u32);

/// Runs `machine` to completion, reading every tile after each tick: a
/// retire is its counter moving on by one, at the pc it held before.
/// Returns the stream, the cycles taken and the core counters.
fn run_retiring(machine: &mut Machine) -> (Vec<Retire>, u64, CoreStats) {
    let dim = machine.config().cell_dim;
    let tiles: Vec<(u8, u8, u8)> = (0..machine.num_cells() as u8)
        .flat_map(|c| (0..dim.y).flat_map(move |y| (0..dim.x).map(move |x| (c, x, y))))
        .collect();
    let read = |m: &Machine, &(c, x, y): &(u8, u8, u8)| {
        let tile = m.cell(c).tile(x, y);
        (tile.stats().instrs, tile.pc())
    };
    let mut last: Vec<(u64, u32)> = tiles.iter().map(|t| read(machine, t)).collect();
    let (start, mut stream) = (machine.cycle(), Vec::new());
    while !machine.all_done() && machine.cycle() - start < BUDGET {
        machine.tick();
        for (t, seen) in tiles.iter().zip(&mut last) {
            let now = read(machine, t);
            assert!(now.0 - seen.0 <= 1, "{t:?} retired twice in a cycle");
            if now.0 > seen.0 {
                stream.push((machine.cell(t.0).cycle(), *t, seen.1));
            }
            *seen = now;
        }
    }
    let core = machine.run(0).expect("kernel finishes").core;
    (stream, machine.cycle() - start, core)
}

#[test]
fn park_run_retires_the_stream_of_never_park() {
    for (name, build) in KERNELS {
        let mut runs = Vec::new();
        for event_core in [false, true] {
            let mut machine = build(&cfg(event_core));
            let run = run_retiring(&mut machine);
            let (_, skipped) = machine.tile_ticks();
            assert_eq!(
                skipped > 0,
                event_core,
                "{name}: reading the counters must leave the park policy alone"
            );
            runs.push(run);
        }
        assert!(
            runs[0].0.len() > 1000,
            "{name}: stream too short to mean much"
        );
        for (i, run) in runs.iter().enumerate().skip(1) {
            assert!(run.0 == runs[0].0, "{name}: run {i} retired another stream");
            assert_eq!(run.1, runs[0].1, "{name}: run {i} cycle count diverged");
            assert_eq!(run.2, runs[0].2, "{name}: run {i} core counters diverged");
        }
    }
}

/// What a finished run is compared by.
#[derive(Debug, PartialEq)]
struct Finish {
    cycles: u64,
    core: CoreStats,
    tile_ticks: (u64, u64),
    digest: u64,
}

fn finish(mut machine: Machine) -> Finish {
    assert!(machine.all_done() && machine.cell(0).fault().is_none());
    machine.flush_all_caches();
    Finish {
        cycles: machine.cycle(),
        core: machine.cell(0).core_stats(),
        tile_ticks: machine.tile_ticks(),
        digest: hb_serve::exec::digest(&machine),
    }
}

#[test]
fn tick_profiled_is_tick_with_a_stopwatch() {
    for (name, build) in KERNELS {
        let mut finishes = Vec::new();
        for event_core in [false, true] {
            let cfg = cfg(event_core);
            let mut plain = build(&cfg);
            while !plain.all_done() && plain.cycle() < BUDGET {
                plain.tick();
            }
            let mut timed = build(&cfg);
            let mut acc = PhaseTimes::default();
            while !timed.all_done() && timed.cycle() < BUDGET {
                timed.tick_profiled(&mut acc);
            }
            let (plain, timed) = (finish(plain), finish(timed));
            assert_eq!(plain, timed, "{name} event_core={event_core}");

            // Every bucket is billed — `sched` under never-park too: the
            // due scan is paid whether or not anything parks.
            let buckets = [
                ("network", acc.network),
                ("memory", acc.memory),
                ("tiles", acc.tiles),
                ("sched", acc.sched),
                ("sync", acc.sync),
                ("inject", acc.inject),
            ];
            for (bucket, spent) in buckets {
                assert!(
                    spent > Duration::ZERO,
                    "{name} event_core={event_core}: nothing billed to {bucket}"
                );
            }
            assert_eq!(acc.total(), buckets.iter().map(|b| b.1).sum());
            assert_eq!(
                plain.tile_ticks.1 > 0,
                event_core,
                "{name}: only the park policy skips"
            );
            finishes.push(plain);
        }
        // Park vs never-park: the same run, except for who got stepped.
        let (never, park) = (&finishes[0], &finishes[1]);
        assert_eq!(
            (never.cycles, never.core, never.digest),
            (park.cycles, park.core, park.digest),
            "{name}: park policy changed the run"
        );
        assert_eq!(
            never.tile_ticks.0,
            park.tile_ticks.0 + park.tile_ticks.1,
            "{name}: never-park steps exactly what park steps or skips"
        );
    }
}
