//! The tentpole guarantee of the telemetry subsystem: observation never
//! perturbs the simulation. Every kernel runs with telemetry off (the
//! baseline) and then with the sampler attached at several windows —
//! including the pathological `window = 1` (a sample every machine tick)
//! and a coprime window (1009) — and every architectural counter must be
//! bit-identical.

use hammerblade::core::{CellDim, Machine, MachineConfig, SimError};
use hammerblade::kernels::{kernels, run_on, BenchStats, Kernel, SizeClass};
use hammerblade::obs::{Keep, Sampler, SharedTelemetry};

fn cfg() -> MachineConfig {
    MachineConfig {
        cell_dim: CellDim { x: 4, y: 2 },
        ..MachineConfig::baseline_16x8()
    }
}

/// Runs `kernel` on a fresh machine, with a sampler attached when a
/// `(window, retention)` is given, and returns the counters and the store
/// the sampler filled (flushed: the machine is gone).
fn run(
    kernel: &dyn Kernel,
    sampler: Option<(u64, Keep)>,
) -> Result<(BenchStats, SharedTelemetry), SimError> {
    let store = SharedTelemetry::default();
    let mut machine = Machine::new(cfg());
    if let Some((window, keep)) = sampler {
        let sampler = Sampler::new(&cfg(), window, keep, store.clone());
        machine.attach_observer(Box::new(sampler));
    }
    let stats = run_on(&mut machine, kernel, SizeClass::Tiny)?;
    Ok((stats, store))
}

#[test]
fn telemetry_never_perturbs_any_kernel() {
    for (name, kernel) in kernels()
        .into_iter()
        .filter(|(token, _)| !token.contains('@'))
    {
        let (base, _) =
            run(kernel.as_ref(), None).unwrap_or_else(|e| panic!("{name} baseline failed: {e}"));
        for window in [1u64, 64, 1009] {
            // Bound retention at window = 1: one sample per machine tick.
            let keep = if window == 1 {
                Keep::Last(8)
            } else {
                Keep::All
            };
            let (sampled, store) = run(kernel.as_ref(), Some((window, keep)))
                .unwrap_or_else(|e| panic!("{name} (window={window}) failed: {e}"));
            let label = format!("{name} window={window}");
            assert_eq!(base.cycles, sampled.cycles, "{label}: cycle count diverged");
            assert_eq!(base.core, sampled.core, "{label}: core counters diverged");
            assert_eq!(base.hbm, sampled.hbm, "{label}: HBM2 counters diverged");
            assert_eq!(
                base.cache, sampled.cache,
                "{label}: cache counters diverged"
            );
            assert_eq!(
                base.bisection, sampled.bisection,
                "{label}: NoC bisection counters diverged"
            );
            let t = store.lock().unwrap();
            assert!(!t.samples.is_empty(), "{label}: sampler never fired");
            assert_eq!(t.final_cycle, sampled.cycles, "{label}: final sample cycle");
        }
    }
}

#[test]
fn telemetry_windows_cover_the_whole_run() {
    let (_, kernel) = kernels().swap_remove(0);
    let (stats, store) = run(kernel.as_ref(), Some((64, Keep::All))).unwrap();
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
