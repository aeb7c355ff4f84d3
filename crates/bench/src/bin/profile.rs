//! Deterministic guest-code profile of one suite kernel: runs it on a
//! machine with `set_profile(true)`, maps the retired-PC and stall-cycle
//! histograms onto the kernel's basic blocks, prints the ranked
//! hot-block table and writes two exports next to `--out`:
//!
//! - `<out>.folded` — folded-stack text for `flamegraph.pl`/Speedscope,
//! - `<out>.ndjson` — machine-readable summary (one block per line).
//!
//! ```text
//! cargo run --release -p hb-bench --bin profile -- \
//!     [--kernel SGEMM] [--out profile] [--top 10]
//! ```
//!
//! Kernel names are `hb_kernels::kernels()` tokens (case insensitive); `HB_SCALE` picks the
//! Cell shape as in the figure binaries. Profiling is observation-only:
//! cycles and results are bit-identical to an unprofiled run, and the
//! profile itself is bit-identical across both park policies
//! (`tests/profile.rs`).

use hb_bench::cli::arg_value;
use hb_bench::{bench_size, hb_config, kernel_arg};
use hb_core::Machine;
use std::sync::Arc;

const USAGE: &str = "usage: profile [--kernel SGEMM] [--out profile] [--top 10]";

fn main() {
    let kernel = arg_value("--kernel").unwrap_or_else(|| "SGEMM".to_owned());
    let out = arg_value("--out").unwrap_or_else(|| "profile".to_owned());
    let top: usize = arg_value("--top").map_or(10, |v| {
        v.parse()
            .unwrap_or_else(|_| hb_bench::cli::usage_fail(USAGE, format!("bad --top {v:?}")))
    });

    let bench = kernel_arg(&kernel, USAGE);

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
        Err(e) => hb_bench::cli::fail(e),
    };
    let Some(run) = hb_prof::ProfRun::capture(&machine, Arc::new(bench.program())) else {
        hb_bench::cli::fail("kernel run captured no profile");
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
        hb_bench::cli::fail(format!("write {folded}: {e}"));
    }
    if let Err(e) = std::fs::write(&ndjson, hb_prof::summary::to_ndjson(&analysis)) {
        hb_bench::cli::fail(format!("write {ndjson}: {e}"));
    }
    println!("wrote {folded} and {ndjson}");
}
