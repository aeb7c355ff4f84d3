//! The tentpole guarantee of the telemetry subsystem: observation never
//! perturbs the simulation. Every kernel runs with telemetry off (the
//! baseline) and then with the sampler attached at several windows —
//! including the pathological `window = 1` (a sample every machine tick)
//! and a coprime window (1009) — and every architectural counter must be
//! bit-identical.

use hammerblade::core::{CellDim, MachineConfig};
use hammerblade::kernels::{suite, SizeClass};
use hammerblade::obs::Keep;

fn cfg(window: u64) -> MachineConfig {
    MachineConfig {
        cell_dim: CellDim { x: 4, y: 2 },
        telemetry_window: window,
        ..MachineConfig::baseline_16x8()
    }
}

#[test]
fn telemetry_never_perturbs_any_kernel() {
    for bench in suite() {
        let name = bench.name();
        let base = bench
            .run(&cfg(0), SizeClass::Tiny)
            .unwrap_or_else(|e| panic!("{name} baseline failed: {e}"));
        for window in [1u64, 64, 1009] {
            // Bound retention at window = 1: one sample per machine tick.
            let keep = if window == 1 {
                Keep::Last(8)
            } else {
                Keep::All
            };
            let (scope, store) = hammerblade::obs::attach(keep);
            let run = bench
                .run(&cfg(window), SizeClass::Tiny)
                .unwrap_or_else(|e| panic!("{name} (window={window}) failed: {e}"));
            drop(scope);
            let label = format!("{name} window={window}");
            assert_eq!(base.cycles, run.cycles, "{label}: cycle count diverged");
            assert_eq!(base.core, run.core, "{label}: core counters diverged");
            assert_eq!(base.hbm, run.hbm, "{label}: HBM2 counters diverged");
            assert_eq!(base.cache, run.cache, "{label}: cache counters diverged");
            assert_eq!(
                base.bisection, run.bisection,
                "{label}: NoC bisection counters diverged"
            );
            let t = store.lock().unwrap();
            assert!(!t.samples.is_empty(), "{label}: sampler never fired");
            assert_eq!(t.final_cycle, run.cycles, "{label}: final sample cycle");
        }
    }
}

#[test]
fn telemetry_windows_cover_the_whole_run() {
    let bench = &suite()[0];
    let (scope, store) = hammerblade::obs::attach(Keep::All);
    let stats = bench.run(&cfg(64), SizeClass::Tiny).unwrap();
    drop(scope);
    let t = store.lock().unwrap();
    // Windows tile [0, final] exactly: contiguous, no gaps, no overlap.
    assert_eq!(t.covered_cycles(), stats.cycles);
    let mut prev_end = 0;
    for s in &t.samples {
        assert_eq!(s.start, prev_end);
        assert!(s.end > s.start);
        prev_end = s.end;
    }
    assert_eq!(prev_end, stats.cycles);
    // The windowed deltas sum back to the end-of-run aggregates.
    let agg = t.aggregate(0);
    let total: u64 = agg.tiles.iter().map(|s| s.instrs).sum();
    assert_eq!(total, stats.core.instrs);
}
