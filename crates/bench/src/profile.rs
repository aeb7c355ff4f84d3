//! Deterministic guest-code profile of one suite kernel: runs it on a
//! machine with `set_profile(true)`, maps the retired-PC and stall-cycle
//! histograms onto the kernel's basic blocks, prints the ranked
//! hot-block table and writes two exports next to `--out`:
//!
//! - `<out>.folded` — folded-stack text for `flamegraph.pl`/Speedscope,
//! - `<out>.ndjson` — machine-readable summary (one block per line).
//!
//! ```text
//! hb-bench profile [--kernel SGEMM] [--out profile] [--top 10]
//! ```
//!
//! Kernel names are `hb_kernels::kernels()` tokens (case insensitive); `HB_SCALE` picks the
//! Cell shape as in the figures. Profiling is observation-only:
//! cycles and results are bit-identical to an unprofiled run, and the
//! profile itself is bit-identical across both park policies
//! (`tests/profile.rs`).

use crate::{bench_size, hb_config, kernel_arg};
use hb_core::Machine;
use hb_serve::cli::{self, Args};
use std::sync::Arc;

pub fn run(args: &Args) {
    let bench = kernel_arg(args, "SGEMM");
    let out = args.value("--out").unwrap_or("profile");
    let top: usize = args.parse("--top").unwrap_or(10);

    let cfg = hb_config();
    println!(
        "profile run: {} on a {}x{} Cell",
        bench.name(),
        cfg.cell_dim.x,
        cfg.cell_dim.y
    );

    let mut machine = Machine::new(cfg);
    machine.set_profile(true);
    let stats = match hb_kernels::run_on(&mut machine, bench.as_ref(), bench_size()) {
        Ok(stats) => stats,
        Err(e) => cli::fail(e),
    };
    let Some(run) = hb_prof::ProfRun::capture(&machine, Arc::new(bench.program())) else {
        cli::fail("kernel run captured no profile");
    };
    let analysis = hb_prof::Analysis::analyze(bench.name(), &run);

    print!("{}", hb_prof::summary::report_text(&analysis, top));
    println!(
        "kernel cycles {}  (profile covers {} tile-cycles)",
        stats.cycles,
        analysis.tile_cycles()
    );

    let folded = format!("{out}.folded");
    let ndjson = format!("{out}.ndjson");
    if let Err(e) = std::fs::write(&folded, hb_prof::folded::to_string(&analysis)) {
        cli::fail(format!("write {folded}: {e}"));
    }
    if let Err(e) = std::fs::write(&ndjson, hb_prof::summary::to_ndjson(&analysis)) {
        cli::fail(format!("write {ndjson}: {e}"));
    }
    println!("wrote {folded} and {ndjson}");
}
