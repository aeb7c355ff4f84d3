//! Host-side choices must not be observable in any simulated number. Every
//! kernel in the suite runs under the park policy and under never-park, and
//! with the race sanitizer on and off; every architectural counter — cycle
//! counts, stall blame, cache/HBM/NoC traffic — must match exactly.

use hammerblade::core::profile::CellProfile;
use hammerblade::core::{CellDim, Machine, MachineConfig};
use hammerblade::kernels::{kernels, run_on, SizeClass};

fn cfg(event_core: bool) -> MachineConfig {
    MachineConfig {
        cell_dim: CellDim { x: 4, y: 2 },
        event_core,
        ..MachineConfig::baseline_16x8()
    }
}

#[test]
fn park_policy_is_bit_identical_to_never_park_for_every_kernel() {
    // Parking quiescent tiles off the wake list is a host-side scheduling
    // optimization only: for every kernel, every architectural counter
    // must match the never-park policy — the same loop stepping every tile
    // every cycle — exactly.
    let dense_cfg = cfg(false);
    let event_cfg = cfg(true);
    for (name, kernel) in kernels()
        .into_iter()
        .filter(|(token, _)| !token.contains('@'))
    {
        let run = |cfg: &MachineConfig| {
            let mut machine = Machine::new(cfg.clone());
            let stats = run_on(&mut machine, kernel.as_ref(), SizeClass::Tiny)
                .unwrap_or_else(|e| panic!("{name} (event={}) failed: {e}", cfg.event_core));
            (stats, CellProfile::capture(machine.cell(0)).east_busy)
        };
        let (dense, dense_east_busy) = run(&dense_cfg);
        let (event, event_east_busy) = run(&event_cfg);
        assert_eq!(dense.cycles, event.cycles, "{name}: cycle count diverged");
        assert_eq!(dense.core, event.core, "{name}: core counters diverged");
        assert_eq!(dense.hbm, event.hbm, "{name}: HBM2 counters diverged");
        assert_eq!(dense.cache, event.cache, "{name}: cache counters diverged");
        assert_eq!(
            dense.bisection, event.bisection,
            "{name}: NoC bisection counters diverged"
        );
        assert_eq!(
            dense_east_busy, event_east_busy,
            "{name}: per-router link activity diverged"
        );
        // Host-side sanity, not architectural counters: never-park
        // steps every tile-tick the park policy steps or skips.
        assert_eq!(dense.ticks_skipped, 0, "{name}: never-park skipped ticks");
        assert_eq!(
            dense.ticks_stepped,
            event.ticks_stepped + event.ticks_skipped,
            "{name}: the two policies disagree on the tile-tick total"
        );
    }
}

#[test]
fn race_sanitizer_is_read_only_and_suite_is_clean() {
    // The dynamic race sanitizer only observes: every registry entry must
    // simulate bit-identically with it on or off — and, while we're
    // watching, must be race-free on both sides of the check.
    let cfg = cfg(true);
    for (name, kernel) in kernels() {
        let statics = hammerblade::race::static_conflicts(&kernel.program(), &cfg);
        assert!(statics.is_empty(), "{name} is statically racy: {statics:?}");
        let off = kernel
            .run(&cfg, SizeClass::Tiny)
            .unwrap_or_else(|e| panic!("{name} (race check off) failed: {e}"));
        let mut machine = Machine::new(cfg.clone());
        machine.set_race_check(true);
        let on = run_on(&mut machine, kernel.as_ref(), SizeClass::Tiny)
            .unwrap_or_else(|e| panic!("{name} (race check on) failed: {e}"));
        assert_eq!(off.cycles, on.cycles, "{name}: sanitizer changed cycles");
        assert_eq!(off.core, on.core, "{name}: sanitizer changed core counters");
        assert_eq!(off.hbm, on.hbm, "{name}: sanitizer changed HBM2 counters");
        let races = machine.render_races();
        assert!(races.is_empty(), "{name} is racy:\n{}", races.join("\n"));
    }
}
