//! Benchmarks of the simulator itself (plain `main`, no external harness):
//! component throughput (network, cache bank, DRAM channel), end-to-end
//! cycle-level simulation rate, and the `hb-iss` functional interpreter's
//! host throughput — reported rvr-style as guest MIPS alongside the
//! cycle-level model, with the resulting fast-forward speedup.
//!
//! Run with `cargo bench -p hb-bench` (release codegen; debug numbers are
//! meaningless). These guard the simulator's performance; the paper's
//! figures are regenerated by `hb-bench <figure>` (`src/main.rs`).
//!
//! Besides the human-readable log, every reported number is collected into
//! a machine-readable trajectory and written as one JSON document to
//! `results/BENCH_sim_throughput.json` (validated by the workspace's own
//! strict parser before the write), so CI can archive host-throughput
//! history without scraping the log.

use hb_cache::{AccessKind, CacheBank, CacheConfig, CacheRequest};
use hb_core::{CellDim, IssTile, Machine, MachineConfig};
use hb_kernels::{launch_on, Sgemm, SizeClass};
use hb_mem::{DramRequest, Hbm2Channel, Hbm2Config};
use hb_noc::{Coord, Network, NetworkConfig, Packet, RouteOrder};
use std::hint::black_box;
use std::time::Instant;

fn ops_per_sec(ops: u64, secs: f64) -> f64 {
    ops as f64 / secs.max(1e-9)
}

/// The machine-readable bench trajectory: one `{"bench", "value", "unit"}`
/// row per reported number, serialized (no serde, like every exporter in
/// the workspace) as a single JSON document.
#[derive(Default)]
struct Trajectory {
    rows: Vec<String>,
}

impl Trajectory {
    /// Records one measurement row. Values are formatted with two decimal
    /// places — enough for percentages and speedups, and rates are large
    /// enough that the truncation is noise.
    fn row(&mut self, bench: &str, value: f64, unit: &str) {
        self.rows.push(format!(
            r#"{{"bench":"{}","value":{:.2},"unit":"{}"}}"#,
            hb_obs::json::escape(bench),
            value,
            hb_obs::json::escape(unit)
        ));
    }

    fn to_json(&self) -> String {
        format!(
            "{{\"schema\":\"hb-bench sim_throughput v1\",\"rows\":[{}]}}\n",
            self.rows.join(",")
        )
    }

    /// Writes the trajectory to `results/BENCH_sim_throughput.json` at the
    /// workspace root (resolved from the crate manifest — `cargo bench`
    /// runs with the package directory as CWD, not the workspace root),
    /// self-checking the document against the workspace JSON validator
    /// first so a malformed row fails the bench run, not a downstream
    /// consumer.
    fn write(&self) -> std::path::PathBuf {
        let text = self.to_json();
        hb_obs::json::validate(&text).expect("trajectory must be well-formed JSON");
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
        std::fs::create_dir_all(&dir).expect("create results/");
        let path = dir.join("BENCH_sim_throughput.json");
        std::fs::write(&path, text).expect("write trajectory");
        path
    }
}

fn bench_network(t: &mut Trajectory) {
    let mut net: Network<u64> = Network::new(NetworkConfig {
        width: 16,
        height: 10,
        ruche_factor: 3,
        order: RouteOrder::XThenY,
        fifo_depth: 4,
        link_occupancy: 1,
    });
    let mut seed = 1u64;
    const TICKS: u64 = 200_000;
    let start = Instant::now();
    for _ in 0..TICKS {
        seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
        let src = Coord::new((seed >> 33) as u8 % 16, (seed >> 41) as u8 % 10);
        let dst = Coord::new((seed >> 49) as u8 % 16, (seed >> 57) as u8 % 10);
        net.inject(
            src,
            Packet {
                src,
                dst,
                payload: seed,
            },
        );
        net.tick();
        black_box(net.eject(dst));
    }
    let dt = start.elapsed().as_secs_f64();
    t.row(
        "noc.ruche_16x10_tick_under_load",
        ops_per_sec(TICKS, dt),
        "ticks/s",
    );
    println!(
        "noc      ruche_16x10_tick_under_load   {:>12.0} ticks/s",
        ops_per_sec(TICKS, dt)
    );
}

fn bench_cache(t: &mut Trajectory) {
    let mut bank = CacheBank::new(CacheConfig::default());
    // Warm one line.
    bank.try_accept(CacheRequest {
        id: 0,
        addr: 0,
        kind: AccessKind::Store,
        data: 1,
        width: 4,
    });
    bank.tick();
    const OPS: u64 = 500_000;
    let start = Instant::now();
    for i in 0..OPS {
        bank.try_accept(CacheRequest {
            id: i,
            addr: (i % 16) as u32 * 4,
            kind: AccessKind::Load,
            data: 0,
            width: 4,
        });
        bank.tick();
        black_box(bank.pop_response());
    }
    let dt = start.elapsed().as_secs_f64();
    t.row("cache.bank_hit_stream", ops_per_sec(OPS, dt), "ops/s");
    println!(
        "cache    bank_hit_stream               {:>12.0} ops/s",
        ops_per_sec(OPS, dt)
    );
}

fn bench_dram(t: &mut Trajectory) {
    let mut ch = Hbm2Channel::new(Hbm2Config::default());
    let mut next = 0u32;
    const TICKS: u64 = 500_000;
    let start = Instant::now();
    for _ in 0..TICKS {
        if ch.can_accept() {
            ch.enqueue(DramRequest {
                id: u64::from(next),
                addr: next * 64,
                write: false,
            });
            next += 1;
        }
        ch.tick();
        black_box(ch.pop_response());
    }
    let dt = start.elapsed().as_secs_f64();
    t.row(
        "dram.hbm2_streaming_ticks",
        ops_per_sec(TICKS, dt),
        "ticks/s",
    );
    println!(
        "dram     hbm2_streaming_ticks          {:>12.0} ticks/s",
        ops_per_sec(TICKS, dt)
    );
}

/// Builds an SGEMM machine on the given Cell shape, launched and ready to
/// run (shared setup for the cycle-level, ISS, phase-share and hook
/// measurements). Observers are switched on the returned machine.
///
/// The hook-overhead benches pin `event_core = false` (never park): their
/// budgets bound the *hook's* cost relative to a cycle that steps every
/// tile, not the park policy's cheaper cycle. All three share a 6% ceiling — the old
/// 3% was calibrated before the quiescence fast paths sped the baseline
/// cycle up ~1.6x, which inflates both a fixed sampling cost and the
/// relative noise floor by the same factor.
fn sgemm_machine_cfg(dim: CellDim, event_core: bool) -> Machine {
    let cfg = MachineConfig {
        cell_dim: dim,
        event_core,
        ..MachineConfig::baseline_16x8()
    };
    let mut machine = Machine::new(cfg);
    // The suite's default SGEMM: 32x32x32, DRAM-streaming.
    launch_on(&mut machine, &Sgemm::default(), SizeClass::Small);
    machine
}

/// [`sgemm_machine_cfg`] with the default (event) schedule — the common
/// case.
fn sgemm_machine(dim: CellDim) -> Machine {
    sgemm_machine_cfg(dim, true)
}

/// Cycle-level vs functional (ISS) simulation of the same single-tile
/// SGEMM, rvr-style: host-seconds, guest instructions, guest MIPS.
fn bench_cycle_vs_iss(t: &mut Trajectory) {
    // Cycle-level.
    let mut machine = sgemm_machine(CellDim { x: 1, y: 1 });
    let start = Instant::now();
    machine.run(100_000_000).expect("sgemm terminates");
    let cycle_secs = start.elapsed().as_secs_f64();
    let cycle_instrs = machine.cell(0).core_stats().instrs;
    let cycles = machine.cycle();

    // Functional: same launch state, interpreted by hb-iss.
    let machine = sgemm_machine(CellDim { x: 1, y: 1 });
    let mut iss = IssTile::from_machine(&machine, 0, (0, 0));
    let start = Instant::now();
    iss.run(u64::MAX).expect("iss runs the same kernel");
    let iss_secs = start.elapsed().as_secs_f64();
    let iss_instrs = iss.hart.stats.instrs;

    let cycle_mips = ops_per_sec(cycle_instrs, cycle_secs) / 1e6;
    let iss_mips = ops_per_sec(iss_instrs, iss_secs) / 1e6;
    t.row(
        "sgemm_1x1.cycle_level",
        ops_per_sec(cycles, cycle_secs),
        "cycles/s",
    );
    t.row("sgemm_1x1.cycle_level_mips", cycle_mips, "mips");
    t.row("sgemm_1x1.iss_mips", iss_mips, "mips");
    t.row(
        "sgemm_1x1.iss_speedup",
        iss_mips / cycle_mips.max(1e-12),
        "x",
    );
    println!("\nsgemm 32x32x32, single tile (guest-instrs / host-sec):");
    println!(
        "  cycle-level  {cycle_instrs:>9} instrs  {:>10.0} cycles/s  {cycle_mips:>8.2} MIPS",
        ops_per_sec(cycles, cycle_secs)
    );
    println!(
        "  hb-iss       {iss_instrs:>9} instrs  {:>21.2} MIPS",
        iss_mips
    );
    println!(
        "  iss speedup  {:>9.1}x (guest-instrs/host-sec)",
        iss_mips / cycle_mips.max(1e-12)
    );
    assert_eq!(
        cycle_instrs, iss_instrs,
        "both models must retire the same instruction stream"
    );
}

fn bench_machine_tick_idle(t: &mut Trajectory) {
    let cfg = MachineConfig {
        cell_dim: CellDim { x: 8, y: 4 },
        ..MachineConfig::baseline_16x8()
    };
    let mut m = Machine::new(cfg);
    const TICKS: u64 = 100_000;
    let start = Instant::now();
    for _ in 0..TICKS {
        m.tick();
    }
    let dt = start.elapsed().as_secs_f64();
    black_box(m.cycle());
    t.row("machine.tick_idle_8x4", ops_per_sec(TICKS, dt), "ticks/s");
    println!(
        "machine  tick_idle_8x4                 {:>12.0} ticks/s",
        ops_per_sec(TICKS, dt)
    );
}

/// Where the host time of a cycle goes: the measured phase shares of the
/// paper-scale 16x8 Cell running SGEMM.
fn bench_phase_shares(t: &mut Trajectory) {
    let dim = CellDim { x: 16, y: 8 };
    let mut m = sgemm_machine(dim);
    let mut acc = hb_core::PhaseTimes::default();
    while !m.all_done() && m.cycle() < 2_000_000 {
        m.tick_profiled(&mut acc);
    }
    let pct =
        |d: std::time::Duration| d.as_secs_f64() / acc.total().as_secs_f64().max(1e-12) * 100.0;
    println!("\ncycle phases (sgemm 32x32x32, 16x8 Cell):");
    println!(
        "  phase shares: tiles {:.0}%  sched {:.0}%  network {:.0}%  memory {:.0}%  sync {:.0}%  inject {:.0}%",
        pct(acc.tiles),
        pct(acc.sched),
        pct(acc.network),
        pct(acc.memory),
        pct(acc.sync),
        pct(acc.inject)
    );
    // The six buckets partition the cycle: wake-list bookkeeping bills to
    // `sched`, never smeared into the tile phase or dropped.
    let share_sum = pct(acc.tiles)
        + pct(acc.sched)
        + pct(acc.network)
        + pct(acc.memory)
        + pct(acc.sync)
        + pct(acc.inject);
    assert!(
        (share_sum - 100.0).abs() < 0.5,
        "phase shares sum to {share_sum:.2}%, not 100%"
    );
    t.row("sgemm_16x8.tile_share", acc.tile_share() * 100.0, "pct");
}

/// Telemetry overhead: the paper-scale 16x8 SGEMM with sampling off vs on
/// at window 1000 (the `--telemetry` default). Trials interleave off/on so
/// host load drift hits both sides (like the fault/race hook benches),
/// best-of-3 each; the observer hook is asserted at < 6% of the cycle
/// loop. The budget was recalibrated from 3% when the quiescence fast
/// paths (event tile schedule, drained-mesh tick) sped the baseline cycle
/// up ~1.6x: the same absolute per-window sampling cost is now a larger
/// share of a cheaper cycle.
fn bench_telemetry_overhead(t: &mut Trajectory) {
    let dim = CellDim { x: 16, y: 8 };
    let one_run = |window: Option<u64>| -> (f64, u64) {
        let mut m = sgemm_machine_cfg(dim, false);
        if let Some(window) = window {
            let cfg = m.config().clone();
            let store = hb_obs::SharedTelemetry::default();
            let sampler = hb_obs::Sampler::new(&cfg, window, hb_obs::Keep::All, store);
            m.attach_observer(Box::new(sampler));
        }
        let start = Instant::now();
        m.run(100_000_000).expect("sgemm terminates");
        (start.elapsed().as_secs_f64(), m.cycle())
    };
    let (mut off_secs, mut on_secs) = (f64::MAX, f64::MAX);
    let (mut off_cycles, mut on_cycles) = (0, 0);
    for _ in 0..3 {
        let (secs, cycles) = one_run(None);
        off_secs = off_secs.min(secs);
        off_cycles = cycles;
        let (secs, cycles) = one_run(Some(1000));
        on_secs = on_secs.min(secs);
        on_cycles = cycles;
    }
    assert_eq!(
        off_cycles, on_cycles,
        "telemetry must not change simulated results"
    );
    let overhead = (on_secs / off_secs - 1.0) * 100.0;
    t.row("overhead.telemetry_window_1000", overhead, "pct");
    println!("\ntelemetry overhead (sgemm 32x32x32, 16x8 Cell, best of 3):");
    println!(
        "  off          {:>12.0} cycles/s",
        ops_per_sec(off_cycles, off_secs)
    );
    println!(
        "  window=1000  {:>12.0} cycles/s  overhead {overhead:+.2}%",
        ops_per_sec(on_cycles, on_secs)
    );
    assert!(
        overhead < 6.0,
        "telemetry overhead {overhead:.2}% exceeds the 6% budget"
    );
}

/// Profiler overhead: profiling off must cost one untaken branch at each
/// record site (the same one-branch contract as the telemetry hook), and
/// `set_profile(true)` adds the exact retired-PC/stall histogram to every
/// tile. Off/on trials interleave so host load drift hits both sides, and
/// the runs must be cycle-identical in both directions — the profiler is
/// strictly observational. The on-path cost is reported (it does real
/// bookkeeping per retire, so it gets a looser 30% ceiling as a runaway
/// guard, not the 6% hook budget which applies to the *disabled* path —
/// that path is exercised by every other bench in this file).
fn bench_profile_overhead(t: &mut Trajectory) {
    let dim = CellDim { x: 16, y: 8 };
    let one_run = |profile: bool| -> (f64, u64) {
        let mut m = sgemm_machine_cfg(dim, false);
        m.set_profile(profile);
        let start = Instant::now();
        m.run(100_000_000).expect("sgemm terminates");
        (start.elapsed().as_secs_f64(), m.cycle())
    };
    let (mut off_secs, mut on_secs) = (f64::MAX, f64::MAX);
    let (mut off_cycles, mut on_cycles) = (0, 0);
    for _ in 0..3 {
        let (secs, cycles) = one_run(false);
        off_secs = off_secs.min(secs);
        off_cycles = cycles;
        let (secs, cycles) = one_run(true);
        on_secs = on_secs.min(secs);
        on_cycles = cycles;
    }
    assert_eq!(
        off_cycles, on_cycles,
        "profiling must not change simulated results"
    );
    let overhead = (on_secs / off_secs - 1.0) * 100.0;
    t.row("overhead.profile_on", overhead, "pct");
    println!("\nprofiler overhead (sgemm 32x32x32, 16x8 Cell, best of 3):");
    println!(
        "  off          {:>12.0} cycles/s",
        ops_per_sec(off_cycles, off_secs)
    );
    println!(
        "  profiling    {:>12.0} cycles/s  overhead {overhead:+.2}%",
        ops_per_sec(on_cycles, on_secs)
    );
    assert!(
        overhead < 30.0,
        "profiler overhead {overhead:.2}% exceeds the 30% runaway guard"
    );
}

/// Fault-hook overhead: the injection check is one predictable compare
/// per machine tick, so a run with an installed-but-empty plan executes
/// the exact same per-cycle work as one that never heard of faults —
/// asserted bit-identical. The throughput delta is therefore pure host
/// noise; the budget matches the telemetry bench's noise floor.
fn bench_fault_hook_overhead(t: &mut Trajectory) {
    let dim = CellDim { x: 16, y: 8 };
    let one_run = |armed: bool| -> (f64, u64) {
        let mut m = sgemm_machine_cfg(dim, false);
        if armed {
            m.set_injection_plan(&hb_fault::InjectionPlan::default());
        }
        let start = Instant::now();
        m.run(100_000_000).expect("sgemm terminates");
        (start.elapsed().as_secs_f64(), m.cycle())
    };
    // Interleave the off/on trials so host load drift hits both sides.
    let (mut off_secs, mut on_secs) = (f64::MAX, f64::MAX);
    let (mut off_cycles, mut on_cycles) = (0, 0);
    for _ in 0..4 {
        let (secs, cycles) = one_run(false);
        off_secs = off_secs.min(secs);
        off_cycles = cycles;
        let (secs, cycles) = one_run(true);
        on_secs = on_secs.min(secs);
        on_cycles = cycles;
    }
    assert_eq!(
        off_cycles, on_cycles,
        "an empty injection plan must not change simulated results"
    );
    let overhead = (on_secs / off_secs - 1.0) * 100.0;
    t.row("overhead.fault_hook", overhead, "pct");
    println!("\nfault-hook overhead (sgemm 32x32x32, 16x8 Cell, best of 4):");
    println!(
        "  no plan      {:>12.0} cycles/s",
        ops_per_sec(off_cycles, off_secs)
    );
    println!(
        "  empty plan   {:>12.0} cycles/s  overhead {overhead:+.2}%",
        ops_per_sec(on_cycles, on_secs)
    );
    assert!(
        overhead < 6.0,
        "fault-hook overhead {overhead:.2}% exceeds the 6% noise budget"
    );
}

/// Race-hook overhead: switched off, the sanitizer costs one
/// untaken `race.is_some()` branch per machine tick — a run that toggled
/// the sanitizer on and back off must execute the exact same per-cycle
/// work as one that never heard of it (asserted bit-identical, delta
/// budgeted as host noise like the fault hook). The sanitized run is also
/// reported, and must be cycle-identical: checking is read-only.
fn bench_race_hook_overhead(t: &mut Trajectory) {
    let dim = CellDim { x: 16, y: 8 };
    let one_run = |toggled: bool| -> (f64, u64) {
        let mut m = sgemm_machine_cfg(dim, false);
        if toggled {
            // Arms and disarms the hook: state is identical to a machine
            // that never enabled checking, so any delta is host noise.
            m.set_race_check(true);
            m.set_race_check(false);
        }
        let start = Instant::now();
        m.run(100_000_000).expect("sgemm terminates");
        (start.elapsed().as_secs_f64(), m.cycle())
    };
    // Interleave the off/toggled trials so host load drift hits both sides.
    let (mut off_secs, mut on_secs) = (f64::MAX, f64::MAX);
    let (mut off_cycles, mut on_cycles) = (0, 0);
    for _ in 0..4 {
        let (secs, cycles) = one_run(false);
        off_secs = off_secs.min(secs);
        off_cycles = cycles;
        let (secs, cycles) = one_run(true);
        on_secs = on_secs.min(secs);
        on_cycles = cycles;
    }
    assert_eq!(
        off_cycles, on_cycles,
        "a disabled race sanitizer must not change simulated results"
    );
    let overhead = (on_secs / off_secs - 1.0) * 100.0;

    // The sanitized run: slower (shadow-map work), but bit-identical.
    let mut m = sgemm_machine_cfg(dim, false);
    m.set_race_check(true);
    let start = Instant::now();
    m.run(100_000_000).expect("sgemm terminates");
    let checked_secs = start.elapsed().as_secs_f64();
    let checked_cycles = m.cycle();
    let reports = m.race_reports().len();
    assert_eq!(
        off_cycles, checked_cycles,
        "the race sanitizer must be read-only (simulated cycles diverged)"
    );
    assert_eq!(reports, 0, "SGEMM must be race-free");
    t.row("overhead.race_hook_disabled", overhead, "pct");
    t.row(
        "overhead.race_sanitizing",
        (checked_secs / off_secs - 1.0) * 100.0,
        "pct",
    );

    println!("\nrace-hook overhead (sgemm 32x32x32, 16x8 Cell, best of 4):");
    println!(
        "  off          {:>12.0} cycles/s",
        ops_per_sec(off_cycles, off_secs)
    );
    println!(
        "  disabled     {:>12.0} cycles/s  overhead {overhead:+.2}%",
        ops_per_sec(on_cycles, on_secs)
    );
    println!(
        "  sanitizing   {:>12.0} cycles/s  ({} report(s), bit-identical)",
        ops_per_sec(checked_cycles, checked_secs),
        reports
    );
    assert!(
        overhead < 6.0,
        "race-hook overhead {overhead:.2}% exceeds the 6% noise budget"
    );
}

/// The wake list's park policy vs never-park ("dense" below: the same
/// loop stepping every tile every cycle), per suite kernel: simulated
/// cycles must be bit-identical (asserted), and the table reports the
/// share of tile-ticks the wake list elided plus the host-throughput
/// speedup that skipping buys. Barrier-heavy kernels (jacobi, bfs) are
/// the headline rows: their convergence loops park most of the Cell
/// between phases.
fn bench_event_schedule(t: &mut Trajectory) {
    let dim = CellDim { x: 16, y: 8 };
    println!("\nevent-driven tile scheduling (suite, 16x8 Cell):");
    println!(
        "  {:<16} {:>9} {:>13} {:>13} {:>9} {:>8}",
        "kernel", "skipped", "dense cyc/s", "event cyc/s", "speedup", "cycles"
    );
    for bench in hb_kernels::suite() {
        let name = bench.name();
        let mut cfg = MachineConfig {
            cell_dim: dim,
            event_core: false,
            ..MachineConfig::baseline_16x8()
        };
        let start = Instant::now();
        let dense = bench
            .run(&cfg, SizeClass::Small)
            .unwrap_or_else(|e| panic!("{name} (dense) failed: {e}"));
        let dense_secs = start.elapsed().as_secs_f64();
        cfg.event_core = true;
        let start = Instant::now();
        let event = bench
            .run(&cfg, SizeClass::Small)
            .unwrap_or_else(|e| panic!("{name} (event) failed: {e}"));
        let event_secs = start.elapsed().as_secs_f64();
        assert_eq!(
            dense.cycles, event.cycles,
            "{name}: event schedule changed simulated cycles"
        );
        assert_eq!(
            dense.core, event.core,
            "{name}: event schedule changed core counters"
        );
        let dense_rate = ops_per_sec(dense.cycles, dense_secs);
        let event_rate = ops_per_sec(event.cycles, event_secs);
        t.row(
            &format!("event_schedule.{}.skipped", name.to_ascii_lowercase()),
            event.skipped_share() * 100.0,
            "pct",
        );
        t.row(
            &format!("event_schedule.{}.speedup", name.to_ascii_lowercase()),
            event_rate / dense_rate.max(1e-9),
            "x",
        );
        println!(
            "  {:<16} {:>8.1}% {:>13.0} {:>13.0} {:>8.2}x {:>8}",
            name,
            event.skipped_share() * 100.0,
            dense_rate,
            event_rate,
            event_rate / dense_rate.max(1e-9),
            event.cycles
        );
    }
}

/// Checkpoint save/restore throughput: the paper-scale 16x8 SGEMM machine
/// snapshotted mid-run. Reports the snapshot size, the host cost of one
/// save (encode) and one restore (fresh machine + decode + apply), and the
/// speedup of restoring over re-simulating from launch to the same cycle —
/// the number that decides whether mid-job resume and warm-start campaigns
/// pay off. Restore fidelity is asserted by re-encoding to identical bytes.
fn bench_checkpoint(t: &mut Trajectory) {
    let dim = CellDim { x: 16, y: 8 };
    // Find the run length, then snapshot at the midpoint so the blob
    // carries real in-flight state (caches warm, network busy).
    let mut probe = sgemm_machine(dim);
    probe.run(100_000_000).expect("sgemm terminates");
    let at = probe.cycle() / 2;
    let mut m = sgemm_machine(dim);
    while !m.all_done() && m.cycle() < at {
        m.tick();
    }

    const REPS: u32 = 5;
    let start = Instant::now();
    let mut blob = Vec::new();
    for _ in 0..REPS {
        blob = hb_ckpt::encode(&m);
        black_box(blob.len());
    }
    let save_ms = start.elapsed().as_secs_f64() * 1e3 / f64::from(REPS);
    let mb = blob.len() as f64 / (1024.0 * 1024.0);

    let cfg = m.config().clone();
    let start = Instant::now();
    let mut restored = Machine::new(cfg.clone());
    for _ in 0..REPS {
        restored = Machine::new(cfg.clone());
        hb_ckpt::restore(&mut restored, &blob).expect("restore mid-run snapshot");
    }
    let restore_ms = start.elapsed().as_secs_f64() * 1e3 / f64::from(REPS);
    assert_eq!(restored.cycle(), m.cycle());
    assert_eq!(
        hb_ckpt::encode(&restored),
        blob,
        "restore must reproduce the captured state bit-exactly"
    );

    // What a restore replaces: re-simulating from launch to the capture
    // cycle (the cold half of every resumed or warm-started job).
    let start = Instant::now();
    let mut twin = sgemm_machine(dim);
    while !twin.all_done() && twin.cycle() < at {
        twin.tick();
    }
    let rerun_ms = start.elapsed().as_secs_f64() * 1e3;
    assert_eq!(twin.cycle(), m.cycle());
    let speedup = rerun_ms / restore_ms.max(1e-9);

    t.row("ckpt.snapshot_size", mb, "MB");
    t.row("ckpt.save", save_ms, "ms");
    t.row("ckpt.restore", restore_ms, "ms");
    t.row("ckpt.restore_vs_rerun", speedup, "x");
    println!("\ncheckpoint save/restore (sgemm 32x32x32, 16x8 Cell, cycle {at}):");
    println!("  snapshot     {mb:>12.2} MB");
    println!("  save         {save_ms:>12.2} ms");
    println!("  restore      {restore_ms:>12.2} ms");
    println!("  rerun        {rerun_ms:>12.2} ms  (restore speedup {speedup:.1}x)");
}

fn main() {
    let mut t = Trajectory::default();
    println!("simulator throughput (release-mode host performance):\n");
    bench_network(&mut t);
    bench_cache(&mut t);
    bench_dram(&mut t);
    bench_machine_tick_idle(&mut t);
    bench_cycle_vs_iss(&mut t);
    bench_phase_shares(&mut t);
    bench_event_schedule(&mut t);
    bench_checkpoint(&mut t);
    bench_telemetry_overhead(&mut t);
    bench_profile_overhead(&mut t);
    bench_fault_hook_overhead(&mut t);
    bench_race_hook_overhead(&mut t);
    let path = t.write();
    println!("\ntrajectory: {} ({} rows)", path.display(), t.rows.len());
}
