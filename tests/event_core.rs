//! Regression tests for the wake list's park policy (`event_core`):
//! parked tiles must be *invisible* — stall blame, watchdog classification,
//! telemetry windows and fault injections all behave exactly as under the
//! never-park policy (`event_core = false`: the same loop stepping every
//! tile every cycle, called "dense" below), even when nearly every tile is
//! asleep on the wake list.

use std::sync::Arc;

use hammerblade::asm::{Assembler, Program};
use hammerblade::core::{
    pgas, utilization_report, HbOps, Machine, MachineConfig, SimError, StallKind,
};
use hammerblade::fault::{InjectionPlan, Site};
use hammerblade::isa::Gpr::*;
use hammerblade::obs::{Keep, Sampler, SharedTelemetry};

fn cfg(event_core: bool) -> MachineConfig {
    MachineConfig {
        event_core,
        ..MachineConfig::baseline_16x8()
    }
}

/// Rank 0 spins forever; every other rank parks in the barrier rank 0
/// never joins.
fn spin_vs_parked_kernel() -> Arc<Program> {
    let mut a = Assembler::new();
    a.tg_rank(T0, T6);
    let park = a.new_label();
    a.bnez(T0, park);
    let spin = a.new_label();
    a.bind(spin);
    a.j(spin);
    a.bind(park);
    a.barrier(T6);
    a.ecall();
    Arc::new(a.assemble(0).expect("kernel assembles"))
}

/// Rank 0 exits immediately; every other rank loads a marker value and
/// parks in the barrier forever. The machine goes fully quiescent within
/// a few hundred cycles.
fn all_parked_kernel() -> Arc<Program> {
    let mut a = Assembler::new();
    a.tg_rank(T0, T6);
    let park = a.new_label();
    a.bnez(T0, park);
    a.ecall();
    a.bind(park);
    a.li_u(T2, 0x1234);
    a.barrier(T6);
    a.ecall();
    Arc::new(a.assemble(0).expect("kernel assembles"))
}

/// A machine built from `cfg` with a `window`-cycle telemetry sampler
/// attached, and the store the sampler fills.
fn sampled(cfg: MachineConfig, window: u64) -> (Machine, SharedTelemetry) {
    let store = SharedTelemetry::default();
    let sampler = Sampler::new(&cfg, window, Keep::All, store.clone());
    let mut machine = Machine::new(cfg);
    machine.attach_observer(Box::new(sampler));
    (machine, store)
}

fn run_to_timeout(machine: &mut Machine, budget: u64) -> SimError {
    match machine.run(budget) {
        Err(e) => e,
        Ok(_) => panic!("kernel unexpectedly finished"),
    }
}

#[test]
fn parked_tiles_report_dense_identical_stall_blame() {
    // One spinning tile keeps the 16x8 Cell alive while the other 127 park
    // at the barrier. The event scheduler never steps the parked tiles,
    // yet every per-StallKind counter — aggregate and per-tile — must read
    // exactly as under the dense schedule.
    let budget = 20_000;
    let mut dense = Machine::new(cfg(false));
    dense.launch(0, &spin_vs_parked_kernel(), &[]);
    run_to_timeout(&mut dense, budget);
    let mut event = Machine::new(cfg(true));
    event.launch(0, &spin_vs_parked_kernel(), &[]);
    run_to_timeout(&mut event, budget);

    assert_eq!(
        dense.cell(0).core_stats(),
        event.cell(0).core_stats(),
        "aggregate stall blame diverged"
    );
    for y in 0..8 {
        for x in 0..16 {
            assert_eq!(
                dense.cell(0).tile_stats(x, y),
                event.cell(0).tile_stats(x, y),
                "tile ({x},{y}) stall blame diverged"
            );
        }
    }
    // A parked tile spent nearly the whole run blamed on the barrier.
    let parked = event.cell(0).tile_stats(1, 0);
    assert!(
        parked.stall(StallKind::Barrier) > budget / 2,
        "parked tile shows {} barrier cycles of {budget}",
        parked.stall(StallKind::Barrier)
    );
    // The cycle taxonomy still covers the run: `utilization_report`
    // asserts internally that int + fp + every stall kind == 100.00%.
    let report = utilization_report(&event.cell(0).core_stats());
    assert!(
        report.contains("all"),
        "report missing totals row:\n{report}"
    );

    // And the event run actually skipped: 127 of 128 tiles were asleep
    // almost everywhere, so well over half of all tile-ticks are elided.
    let (stepped, skipped) = event.tile_ticks();
    assert!(
        skipped as f64 / (stepped + skipped) as f64 > 0.5,
        "event run skipped only {skipped} of {} tile-ticks",
        stepped + skipped
    );
    let (dense_stepped, dense_skipped) = dense.tile_ticks();
    assert_eq!(dense_skipped, 0, "never-park must never skip");
    assert_eq!(dense_stepped, stepped + skipped, "tile-tick totals differ");
}

/// Every rank streams its slice of a DRAM array through FP latency chains:
/// remote `flw`s in flight (pending bits, scoreboard occupancy), a
/// dependent `fmadd` chain and an `fdiv` on the loaded values (ready
/// times, a busy unit), a remote store and a fence per round, a barrier at
/// the end. Each step's park hint has to tell "stuck until a response"
/// from "stuck until a ready time" from "not stuck".
fn fp_chains_over_remote_loads_kernel(rounds: i32) -> Arc<Program> {
    use hammerblade::isa::Fpr::*;
    let mut a = Assembler::new();
    a.tg_rank(T0, T6);
    a.slli(T1, T0, 4);
    a.add(A0, A0, T1); // &in[4 * rank]
    a.slli(T1, T0, 2);
    a.add(A1, A1, T1); // &out[rank]
    a.lif(Fa5, T6, 0.5);
    a.li(T2, rounds);
    let top = a.here();
    a.flw(Fa0, A0, 0);
    a.flw(Fa1, A0, 4);
    a.flw(Fa2, A0, 8);
    a.flw(Fa3, A0, 12);
    a.fmadd(Fa4, Fa0, Fa1, Fa5);
    a.fmadd(Fa4, Fa4, Fa2, Fa5);
    a.fmadd(Fa4, Fa4, Fa3, Fa5);
    a.fdiv(Fa5, Fa4, Fa1);
    a.fsw(Fa4, A1, 0);
    a.fence();
    a.fadd(Fa5, Fa5, Fa4);
    a.addi(T2, T2, -1);
    a.bnez(T2, top);
    a.fsw(Fa5, A1, 0);
    a.fence();
    a.barrier(T6);
    a.ecall();
    Arc::new(a.assemble(0).expect("kernel assembles"))
}

#[test]
fn fp_chains_over_remote_loads_park_identically() {
    let mut runs = Vec::new();
    for event_core in [false, true] {
        let mut machine = Machine::new(cfg(event_core));
        let cell = machine.cell_mut(0);
        let input = cell.alloc(128 * 16, 64);
        let out = cell.alloc(128 * 4, 64);
        let values: Vec<f32> = (0..128 * 4).map(|i| 1.0 + (i % 7) as f32 * 0.25).collect();
        cell.dram_mut().write_f32_slice(input, &values);
        machine.launch(
            0,
            &fp_chains_over_remote_loads_kernel(6),
            &[pgas::local_dram(input), pgas::local_dram(out)],
        );
        let summary = machine.run(1_000_000).expect("kernel runs");
        machine.cell_mut(0).flush_caches();
        let result = machine.cell(0).dram().read_u32_slice(out, 128);
        let tiles: Vec<_> = (0..8)
            .flat_map(|y| (0..16).map(move |x| (x, y)))
            .map(|(x, y)| machine.cell(0).tile_stats(x, y))
            .collect();
        runs.push((
            summary.cycles,
            summary.core,
            tiles,
            result,
            machine.tile_ticks(),
        ));
    }
    let (dense, event) = (&runs[0], &runs[1]);
    assert_eq!(dense.0, event.0, "cycle count diverged");
    assert_eq!(dense.1, event.1, "aggregate counters diverged");
    assert_eq!(dense.2, event.2, "per-tile counters diverged");
    assert_eq!(dense.3, event.3, "results diverged");
    // The kernel waits on everything the hints distinguish...
    for kind in [
        StallKind::RemoteLoad,
        StallKind::Fence,
        StallKind::Bypass,
        StallKind::Barrier,
    ] {
        assert!(event.1.stall(kind) > 0, "kernel never stalls on {kind}");
    }
    // ...and the park policy skipped some of it without losing a tick.
    let ((dense_stepped, dense_skipped), (stepped, skipped)) = (dense.4, event.4);
    assert_eq!(dense_skipped, 0, "never-park must never skip");
    assert!(skipped > 0, "the park policy never parked");
    assert_eq!(dense_stepped, stepped + skipped, "tile-tick totals differ");
}

#[test]
fn quiescent_machine_times_out_as_barrier_stall_not_livelock() {
    // Rank 0 exits without joining; 127 tiles park in the barrier and the
    // machine goes fully quiescent — zero steps, zero packets, zero
    // retired instructions for tens of thousands of cycles. The watchdog
    // must still classify the hang from machine state (BarrierStall), not
    // misread the parked wake list as a livelock.
    let mut machine = Machine::new(cfg(true));
    machine.launch(0, &all_parked_kernel(), &[]);
    let err = run_to_timeout(&mut machine, 30_000);
    let SimError::Timeout { hang, .. } = err else {
        panic!("expected timeout, got {err}");
    };
    let hang = hang.expect("timeout carries a hang report");
    assert_eq!(
        hang.class.label(),
        "barrier-stall",
        "quiescent-but-armed machine misclassified: {hang}"
    );
}

#[test]
fn telemetry_window_one_fires_every_cycle_while_parked() {
    // A one-cycle window demands a sample every machine tick. The
    // event scheduler must not fast-forward past due windows while all
    // tiles sleep: sample count, window bounds and per-window counter
    // deltas must match the dense schedule exactly.
    let budget = 1_500;
    let mut runs = Vec::new();
    for event_core in [false, true] {
        let (mut machine, store) = sampled(cfg(event_core), 1);
        machine.launch(0, &all_parked_kernel(), &[]);
        run_to_timeout(&mut machine, budget);
        drop(machine); // flush the final partial window
        runs.push(store);
    }
    let dense = runs[0].lock().unwrap();
    let event = runs[1].lock().unwrap();
    assert_eq!(
        dense.samples.len(),
        event.samples.len(),
        "sample count diverged"
    );
    assert!(
        dense.samples.len() as u64 >= budget,
        "window=1 produced only {} samples over {budget} cycles",
        dense.samples.len()
    );
    assert_eq!(dense.final_cycle, event.final_cycle);
    for (d, e) in dense.samples.iter().zip(event.samples.iter()) {
        assert_eq!(d.start, e.start);
        assert_eq!(d.end, e.end);
        for (dc, ec) in d.cells.iter().zip(e.cells.iter()) {
            assert_eq!(
                dc.tiles, ec.tiles,
                "per-tile deltas of window ({}, {}] diverged",
                d.start, d.end
            );
            assert_eq!(dc.hbm, ec.hbm);
            assert_eq!(dc.req_net, ec.req_net);
            assert_eq!(dc.resp_net, ec.resp_net);
        }
    }
}

#[test]
fn coprime_telemetry_windows_split_parked_spans_identically() {
    // A 13-cycle window is coprime with every periodicity in the
    // kernel, so window boundaries land in the *middle* of multi-thousand
    // cycle parked spans. The owed-aware readers must split a parked
    // tile's barrier debt at exactly the boundary cycle — each window sees
    // precisely its in-window share, matching the dense schedule, and the
    // per-window deltas must sum back to the end-of-run totals.
    let budget = 10_000;
    let window = 13;
    let mut runs = Vec::new();
    for event_core in [false, true] {
        let (mut machine, store) = sampled(cfg(event_core), window);
        machine.launch(0, &spin_vs_parked_kernel(), &[]);
        run_to_timeout(&mut machine, budget);
        let end_parked = machine.cell(0).tile_stats(1, 0);
        drop(machine); // flush the final partial window
        runs.push((store, end_parked));
    }
    let dense = runs[0].0.lock().unwrap();
    let event = runs[1].0.lock().unwrap();
    assert_eq!(
        dense.samples.len(),
        event.samples.len(),
        "sample count diverged"
    );
    assert_eq!(dense.final_cycle, event.final_cycle);
    for (d, e) in dense.samples.iter().zip(event.samples.iter()) {
        assert_eq!((d.start, d.end), (e.start, e.end), "window bounds diverged");
        for (dc, ec) in d.cells.iter().zip(e.cells.iter()) {
            assert_eq!(
                dc.tiles, ec.tiles,
                "per-tile deltas of window ({}, {}] diverged",
                d.start, d.end
            );
        }
    }
    // The split is conservative: summing a parked tile's per-window
    // barrier deltas reproduces its end-of-run counter exactly. Tile
    // (1, 0) parks within the first few hundred cycles, so nearly every
    // window boundary bisects its parked span.
    let parked_index = 1; // (x=1, y=0) in row-major order
    let windowed: u64 = event
        .samples
        .iter()
        .map(|s| s.cells[0].tiles[parked_index].stall(StallKind::Barrier))
        .sum();
    assert_eq!(
        windowed,
        runs[1].1.stall(StallKind::Barrier),
        "windowed barrier deltas must sum to the end-of-run counter"
    );
    assert!(
        windowed > budget / 2,
        "parked tile shows only {windowed} barrier cycles of {budget}"
    );
}

#[test]
fn injection_lands_on_schedule_while_every_tile_is_asleep() {
    // A register flip scheduled for cycle 2000 — long after the whole
    // machine has parked — must land on exactly that cycle under the event
    // schedule, wake the target tile, and leave every architectural
    // counter identical to the dense run.
    let plan = InjectionPlan::explicit([(
        2_000,
        Site::RegFile {
            cell: 0,
            x: 1,
            y: 0,
            reg: T2.index(),
            bit: 0,
        },
    )]);
    let budget = 6_000;
    let mut stats = Vec::new();
    for event_core in [false, true] {
        let mut machine = Machine::new(cfg(event_core));
        machine.launch(0, &all_parked_kernel(), &[]);
        machine.set_injection_plan(&plan);
        run_to_timeout(&mut machine, budget);
        // The flip landed: the marker value every parked rank loaded
        // before joining the barrier has its bit 0 inverted.
        assert_eq!(
            machine.cell(0).tile(1, 0).reg(T2),
            0x1234 ^ 1,
            "injection missed (event_core={event_core})"
        );
        stats.push(machine.cell(0).core_stats());
    }
    assert_eq!(stats[0], stats[1], "injection run diverged from dense");
}

/// Activity proportionality as exact counts (`Cell::work`): the sequential
/// phases of a cycle look at what the cycle's activity names — flits,
/// deliveries, stepped tiles that left work, moved barrier inputs — never at
/// the machine.
/// The all-routers, all-tiles and all-barrier-nodes sweeps these counters
/// replaced would read 2,240 latch probes, ~290 `eject` calls, 384 tile
/// visits and 128 barrier nodes per cycle on the same 16x8 Cell.
#[test]
fn a_cycle_visits_its_activity_not_the_machine() {
    // Idle, never launched: a tick looks at nothing at all.
    let mut idle = Machine::new(cfg(true));
    for _ in 0..100 {
        idle.tick();
    }
    assert_eq!(idle.cell(0).work(), Default::default());

    // Fully quiescent (127 tiles parked in a barrier nobody completes, one
    // finished): once the last response has landed, nothing again.
    let mut quiet = Machine::new(cfg(true));
    quiet.launch(0, &all_parked_kernel(), &[]);
    for _ in 0..2_000 {
        quiet.tick();
    }
    let settled = quiet.cell(0).work();
    for _ in 0..1_000 {
        quiet.tick();
    }
    assert_eq!(quiet.cell(0).work(), settled);

    // 127 parked, one spinning in its icache: the one tile steps, but its
    // step leaves no join, trap or packet, so neither the sync phase nor the
    // inject phase visits it (or anything else).
    let mut spin = Machine::new(cfg(true));
    spin.launch(0, &spin_vs_parked_kernel(), &[]);
    for _ in 0..2_000 {
        spin.tick();
    }
    let (before, (stepped_before, _)) = (spin.cell(0).work(), spin.tile_ticks());
    let cycles = 10_000;
    for _ in 0..cycles {
        spin.tick();
    }
    let (after, (stepped_after, _)) = (spin.cell(0).work(), spin.tile_ticks());
    assert_eq!(stepped_after - stepped_before, cycles, "one tile awake");
    assert_eq!(after, before, "sync and inject visit no tile");
}
