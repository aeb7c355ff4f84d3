//! Cross-crate integration: the guest-code profiler end-to-end over the
//! benchmark suite.
//!
//! Three properties are pinned here, matching the profiler's contract:
//!
//! 1. the SGEMM profile names the FMA inner-loop block as the top retired
//!    block, with more than half of all retired instructions;
//! 2. the folded-stack export is byte-identical under both park policies
//!    of the tile phase;
//! 3. enabling profiling changes no simulated cycle or core counter, for
//!    every registry kernel.

use hammerblade::core::{CellDim, Machine, MachineConfig};
use hammerblade::kernels::{kernels, run_on, Sgemm, SizeClass};
use hammerblade::prof::{folded, summary, Analysis, ProfRun};
use std::sync::Arc;

fn cfg(event_core: bool) -> MachineConfig {
    MachineConfig {
        cell_dim: CellDim { x: 4, y: 2 },
        event_core,
        ..MachineConfig::baseline_16x8()
    }
}

/// Runs SGEMM at tiny scale under the profiler and returns the analysis,
/// the FMA-block disassembly of the top retired block, and the cycle count.
fn sgemm_profile(event_core: bool) -> (Analysis, Vec<String>, u64) {
    let mut machine = Machine::new(cfg(event_core));
    machine.set_profile(true);
    let stats = run_on(&mut machine, &Sgemm::default(), SizeClass::Tiny).unwrap();
    let run = ProfRun::capture(&machine, Arc::new(Sgemm::program()))
        .expect("a profiled machine holds a profile");
    let analysis = Analysis::analyze("SGEMM", &run);
    let top = analysis
        .ranked
        .iter()
        .max_by_key(|r| r.retired)
        .expect("nonempty profile");
    let body: Vec<String> = run.program.instrs()[top.start..top.end]
        .iter()
        .map(|i| i.to_string())
        .collect();
    (analysis, body, stats.cycles)
}

#[test]
fn sgemm_fma_inner_loop_dominates_retired_instructions() {
    let (a, body, _) = sgemm_profile(false);
    let top = a.ranked.iter().max_by_key(|r| r.retired).unwrap();
    assert!(
        a.retired_share_bp(top) > 5000,
        "top block holds {} bp of retired instructions, want > 5000",
        a.retired_share_bp(top)
    );
    assert!(
        body.iter().any(|d| d.starts_with("fmadd")),
        "top retired block is the FMA inner loop, got {body:?}"
    );
    // Shares are exact basis points of the tile-cycle total.
    let total: u64 = a.ranked.iter().map(|r| a.share_bp(r)).sum();
    assert!(total <= 10_000, "block shares sum to {total} bp");
}

#[test]
fn profile_exports_are_identical_across_host_schedules() {
    let (base, _, _) = sgemm_profile(false);
    let folded_base = folded::to_string(&base);
    let ndjson_base = summary::to_ndjson(&base);
    assert!(!folded_base.is_empty());
    let (a, _, _) = sgemm_profile(true);
    assert_eq!(
        folded::to_string(&a),
        folded_base,
        "folded export differs under the park policy"
    );
    assert_eq!(
        summary::to_ndjson(&a),
        ndjson_base,
        "NDJSON export differs under the park policy"
    );
}

#[test]
fn profiling_does_not_change_simulated_cycles() {
    for (name, kernel) in kernels() {
        let off = kernel
            .run(&cfg(true), SizeClass::Tiny)
            .unwrap_or_else(|e| panic!("{name} (profile off) failed: {e}"));
        let mut machine = Machine::new(cfg(true));
        machine.set_profile(true);
        let on = run_on(&mut machine, kernel.as_ref(), SizeClass::Tiny)
            .unwrap_or_else(|e| panic!("{name} (profile on) failed: {e}"));
        assert_eq!(off.cycles, on.cycles, "{name}: profiling changed cycles");
        assert_eq!(off.core, on.core, "{name}: profiling changed core counters");
        let run = ProfRun::capture(&machine, Arc::new(kernel.program()))
            .unwrap_or_else(|| panic!("{name}: a profiled machine holds a profile"));
        let analysis = Analysis::analyze(name, &run);
        assert!(!analysis.ranked.is_empty(), "{name}: no hot blocks");
    }
}
