//! Cross-crate integration: the guest-code profiler end-to-end over the
//! benchmark suite.
//!
//! Four properties are pinned here, matching the profiler's contract:
//!
//! 1. the SGEMM profile names the FMA inner-loop block as the top retired
//!    block, with more than half of all retired instructions;
//! 2. the folded-stack export is byte-identical under both park policies
//!    of the tile phase;
//! 3. enabling profiling changes no simulated cycle or core counter, for
//!    every registry kernel;
//! 4. the profiler and the telemetry sampler on one run (`hb-bench
//!    inspect`) give each instrument's artifacts byte for byte, and the
//!    bare run's cycles, counters and DRAM image.

use hammerblade::core::{CellDim, CoreStats, Machine, MachineConfig};
use hammerblade::kernels::{by_name, kernels, run_on, Kernel, Sgemm, SizeClass};
use hammerblade::obs::{chrome, ndjson, Keep, Sampler, SharedTelemetry};
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

/// What one run of a kernel left: cycles, core counters, the DRAM digest,
/// the telemetry exports (Chrome, NDJSON) when sampled and the profile
/// exports (folded, NDJSON) when profiled.
struct Instrumented {
    cycles: u64,
    core: CoreStats,
    digest: u64,
    telemetry: Option<(String, String)>,
    profile: Option<(String, String)>,
}

fn instrumented(kernel: &dyn Kernel, sample: bool, profile: bool) -> Instrumented {
    let cfg = cfg(true);
    let store = SharedTelemetry::default();
    let mut machine = Machine::new(cfg.clone());
    if sample {
        let sampler = Sampler::new(&cfg, 200, Keep::All, store.clone());
        machine.attach_observer(Box::new(sampler));
    }
    machine.set_profile(profile);
    let stats = run_on(&mut machine, kernel, SizeClass::Tiny)
        .unwrap_or_else(|e| panic!("{} failed: {e}", kernel.name()));
    machine.detach_observer(); // flushes the final partial window
    let telemetry = sample.then(|| {
        let t = store.lock().unwrap();
        (chrome::to_string(&t), ndjson::to_string(&t))
    });
    let profile = profile.then(|| {
        let run = ProfRun::capture(&machine, Arc::new(kernel.program()))
            .expect("a profiled machine holds a profile");
        let a = Analysis::analyze(kernel.name(), &run);
        (folded::to_string(&a), summary::to_ndjson(&a))
    });
    Instrumented {
        cycles: stats.cycles,
        core: stats.core,
        digest: hb_serve::exec::digest(&machine),
        telemetry,
        profile,
    }
}

#[test]
fn sampler_and_profiler_on_one_run_match_each_alone() {
    for token in ["SGEMM", "BFS"] {
        let kernel = by_name(token).unwrap();
        let bare = instrumented(kernel.as_ref(), false, false);
        let sampled = instrumented(kernel.as_ref(), true, false);
        let profiled = instrumented(kernel.as_ref(), false, true);
        let both = instrumented(kernel.as_ref(), true, true);
        assert_eq!(both.cycles, bare.cycles, "{token}: cycles moved");
        assert_eq!(both.core, bare.core, "{token}: core counters moved");
        assert_eq!(both.digest, bare.digest, "{token}: DRAM image moved");
        let (trace, windows) = both.telemetry.unwrap();
        let (want_trace, want_windows) = sampled.telemetry.unwrap();
        assert!(trace == want_trace, "{token}: Chrome trace differs");
        assert!(windows == want_windows, "{token}: telemetry NDJSON differs");
        let (stacks, blocks) = both.profile.unwrap();
        let (want_stacks, want_blocks) = profiled.profile.unwrap();
        assert_eq!(stacks, want_stacks, "{token}: folded stacks differ");
        assert_eq!(blocks, want_blocks, "{token}: block NDJSON differs");
    }
}
