//! `inspect` — the paper's §III.D performance-debugging workflow: one
//! instrumented run of one kernel answers where the time went, across the
//! cores, caches, DRAM and routers.
//!
//! ```text
//! hb-bench inspect [--kernel SGEMM] [--window 1000] [--out inspect] [--top 10]
//! ```
//!
//! The run carries three read-only instruments at once: the telemetry
//! sampler (`--window` cycles per window), the guest-code profiler and,
//! after it ends, Cell 0's counters. Stdout prints the tile-utilization
//! and router-occupancy maps, the stall blame, cache bank and HBM2 tables
//! with the bottleneck verdict, and the `--top` hot basic blocks. Four
//! files are written next to `--out`:
//!
//! - `<out>.trace.json` — Chrome trace (load at ui.perfetto.dev),
//! - `<out>.trace.ndjson` — the telemetry windows and events as NDJSON,
//! - `<out>.folded` — folded stacks for `flamegraph.pl`/Speedscope,
//! - `<out>.blocks.ndjson` — the hot-block summary, one block per line.
//!
//! Kernel names are `hb_kernels::kernels()` tokens (`SGEMM`, `FFT`,
//! `BFS@diropt`, ... — case insensitive); `HB_SCALE` picks the Cell shape
//! as in the figures. Cycles and results are bit-identical to an
//! uninstrumented run, and every artifact to a run with that instrument
//! alone (`tests/profile.rs`).

use crate::{bench_size, hb_config, kernel_arg};
use hb_core::profile::CellProfile;
use hb_core::Machine;
use hb_obs::{Keep, Sampler, SharedTelemetry};
use hb_serve::cli::{self, Args};
use std::num::{NonZeroU64, NonZeroUsize};
use std::sync::Arc;

pub fn run(args: &Args) {
    let bench = kernel_arg(args, "SGEMM");
    let out = args.value("--out").unwrap_or("inspect");
    let window = args
        .parse::<NonZeroU64>("--window")
        .map_or(1000, NonZeroU64::get);
    let top = args
        .parse::<NonZeroUsize>("--top")
        .map_or(10, NonZeroUsize::get);

    let cfg = hb_config();
    let store = SharedTelemetry::default();
    let mut machine = Machine::new(cfg.clone());
    machine.attach_observer(Box::new(Sampler::new(
        &cfg,
        window,
        Keep::All,
        store.clone(),
    )));
    machine.set_profile(true);
    let stats = hb_kernels::run_on(&mut machine, bench.as_ref(), bench_size())
        .unwrap_or_else(|e| cli::fail(format!("instrumented {} failed: {e}", bench.name())));
    machine.detach_observer(); // flushes the final partial window
    let Some(prof) = hb_prof::ProfRun::capture(&machine, Arc::new(bench.program())) else {
        cli::fail("kernel run captured no profile");
    };
    let analysis = hb_prof::Analysis::analyze(bench.name(), &prof);
    let t = store
        .lock()
        .expect("the sampler never panics holding the store");
    if t.samples.is_empty() {
        cli::fail("instrumented run produced no telemetry windows");
    }
    let artifacts = [
        (
            format!("{out}.trace.json"),
            "Chrome trace, load at ui.perfetto.dev",
            hb_obs::chrome::to_string(&t),
        ),
        (
            format!("{out}.trace.ndjson"),
            "telemetry NDJSON",
            hb_obs::ndjson::to_string(&t),
        ),
        (
            format!("{out}.folded"),
            "folded stacks",
            hb_prof::folded::to_string(&analysis),
        ),
        (
            format!("{out}.blocks.ndjson"),
            "hot-block NDJSON",
            hb_prof::summary::to_ndjson(&analysis),
        ),
    ];
    // The files first: a reader that closes stdout early (`| head`) ends
    // the process at the first line printed.
    for (path, _, text) in &artifacts {
        if let Err(e) = std::fs::write(path, text) {
            cli::fail(format!("cannot write {path}: {e}"));
        }
    }
    println!(
        "inspect: {} on a {}x{} Cell, window {window}",
        bench.name(),
        cfg.cell_dim.x,
        cfg.cell_dim.y
    );
    println!(
        "{} finished in {} cycles ({} instructions, {} remote requests)\n",
        bench.name(),
        stats.cycles,
        stats.core.instrs,
        stats.core.remote_requests
    );
    println!("{}", hb_obs::heatmap::tile_utilization(&t, 0));
    println!("{}", hb_obs::heatmap::link_occupancy(&t, 0));
    println!("{}", CellProfile::capture(machine.cell(0)).report());
    print!("{}", hb_prof::summary::report_text(&analysis, top));
    println!(
        "kernel cycles {}  (profile covers {} tile-cycles)\n",
        stats.cycles,
        analysis.tile_cycles()
    );
    println!(
        "telemetry: {} windows, {} events",
        t.samples.len(),
        hb_obs::chrome::instant_event_count(&t)
    );
    for (path, what, _) in &artifacts {
        println!("wrote {path} ({what})");
    }
}
