//! The tentpole guarantee of the parallel tile engine: running the tile
//! phase across worker threads is *bit-identical* to the single-threaded
//! schedule. Every kernel in the suite runs twice — `threads = 1` and
//! `threads = 4` — and every architectural counter must match exactly.
//!
//! Tiles step independently during the tile phase (inboxes are latched in
//! the network phase, outboxes drain in the inject phase), so shard
//! assignment and thread interleaving must not be observable anywhere:
//! not in cycle counts, not in stall blame, not in cache/HBM/NoC traffic.

use hammerblade::core::{CellDim, MachineConfig};
use hammerblade::kernels::{suite, SizeClass};

fn cfg_with_threads(threads: usize) -> MachineConfig {
    MachineConfig {
        cell_dim: CellDim { x: 4, y: 2 },
        // Explicit, not from HB_THREADS: runs must differ only where each
        // test says they do.
        threads,
        event_core: true,
        ..MachineConfig::baseline_16x8()
    }
}

fn cfg_never_park(threads: usize) -> MachineConfig {
    MachineConfig {
        event_core: false,
        ..cfg_with_threads(threads)
    }
}

#[test]
fn parallel_tile_phase_is_bit_identical_for_every_kernel() {
    let seq_cfg = cfg_with_threads(1);
    let par_cfg = cfg_with_threads(4);
    for bench in suite() {
        let name = bench.name();
        let seq = bench
            .run(&seq_cfg, SizeClass::Tiny)
            .unwrap_or_else(|e| panic!("{name} (threads=1) failed: {e}"));
        let par = bench
            .run(&par_cfg, SizeClass::Tiny)
            .unwrap_or_else(|e| panic!("{name} (threads=4) failed: {e}"));
        assert_eq!(seq.cycles, par.cycles, "{name}: cycle count diverged");
        assert_eq!(seq.core, par.core, "{name}: core counters diverged");
        assert_eq!(seq.hbm, par.hbm, "{name}: HBM2 counters diverged");
        assert_eq!(seq.cache, par.cache, "{name}: cache counters diverged");
        assert_eq!(
            seq.bisection, par.bisection,
            "{name}: NoC bisection counters diverged"
        );
        assert_eq!(
            seq.profile.east_busy, par.profile.east_busy,
            "{name}: per-router link activity diverged"
        );
    }
}

#[test]
fn park_policy_is_bit_identical_to_never_park_for_every_kernel() {
    // Parking quiescent tiles off the wake list is a host-side scheduling
    // optimization only: for every kernel, at 1 and 4 worker threads,
    // every architectural counter must match the never-park policy — the
    // same loop stepping every tile every cycle — exactly.
    for threads in [1, 4] {
        let dense_cfg = cfg_never_park(threads);
        let event_cfg = cfg_with_threads(threads);
        for bench in suite() {
            let name = bench.name();
            let dense = bench
                .run(&dense_cfg, SizeClass::Tiny)
                .unwrap_or_else(|e| panic!("{name} (dense, threads={threads}) failed: {e}"));
            let event = bench
                .run(&event_cfg, SizeClass::Tiny)
                .unwrap_or_else(|e| panic!("{name} (event, threads={threads}) failed: {e}"));
            assert_eq!(
                dense.cycles, event.cycles,
                "{name} (threads={threads}): cycle count diverged"
            );
            assert_eq!(
                dense.core, event.core,
                "{name} (threads={threads}): core counters diverged"
            );
            assert_eq!(
                dense.hbm, event.hbm,
                "{name} (threads={threads}): HBM2 counters diverged"
            );
            assert_eq!(
                dense.cache, event.cache,
                "{name} (threads={threads}): cache counters diverged"
            );
            assert_eq!(
                dense.bisection, event.bisection,
                "{name} (threads={threads}): NoC bisection counters diverged"
            );
            assert_eq!(
                dense.profile.east_busy, event.profile.east_busy,
                "{name} (threads={threads}): per-router link activity diverged"
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
}

#[test]
fn race_sanitizer_is_read_only_and_suite_is_clean() {
    // The dynamic race sanitizer only observes: every kernel must simulate
    // bit-identically with `race_check` on or off — and, while we're
    // watching, the suite must be race-free.
    let off_cfg = cfg_with_threads(1);
    let on_cfg = MachineConfig {
        race_check: true,
        ..cfg_with_threads(1)
    };
    let scope = hammerblade::core::collect_races();
    for bench in suite() {
        let name = bench.name();
        let off = bench
            .run(&off_cfg, SizeClass::Tiny)
            .unwrap_or_else(|e| panic!("{name} (race_check off) failed: {e}"));
        let on = bench
            .run(&on_cfg, SizeClass::Tiny)
            .unwrap_or_else(|e| panic!("{name} (race_check on) failed: {e}"));
        assert_eq!(off.cycles, on.cycles, "{name}: sanitizer changed cycles");
        assert_eq!(off.core, on.core, "{name}: sanitizer changed core counters");
        assert_eq!(off.hbm, on.hbm, "{name}: sanitizer changed HBM2 counters");
        let races = scope.take();
        assert!(
            races.is_empty(),
            "{name} is racy:\n{}",
            races
                .iter()
                .map(|(_, s)| s.as_str())
                .collect::<Vec<_>>()
                .join("\n")
        );
    }
}

#[test]
fn oversubscribed_pool_is_still_deterministic() {
    // More worker threads than tiles (4x2 Cell, 16 threads): empty and
    // tiny shards must not change anything either.
    let bench = &suite()[0];
    let a = bench.run(&cfg_with_threads(1), SizeClass::Tiny).unwrap();
    let b = bench.run(&cfg_with_threads(16), SizeClass::Tiny).unwrap();
    assert_eq!(a.cycles, b.cycles);
    assert_eq!(a.core, b.core);
}
