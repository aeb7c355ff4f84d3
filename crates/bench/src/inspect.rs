//! `inspect` — the paper's §III.D performance-debugging workflow: run one
//! benchmark and print the full profile (tile/link heatmaps, stall blame,
//! cache and HBM2 tables, bottleneck verdict).
//!
//! Usage: `hb-bench inspect [--kernel K]` where `K` is an
//! `hb_kernels::kernels()` token (default: SpGEMM).

use crate::{bench_size, hb_config, kernel_arg};
use hb_core::profile::CellProfile;
use hb_core::Machine;
use hb_serve::cli::Args;

pub fn run(args: &Args) {
    let bench = kernel_arg(args, "SpGEMM");
    let cfg = hb_config();
    let size = bench_size();

    eprintln!(
        "running {} on a {}x{} Cell ...",
        bench.name(),
        cfg.cell_dim.x,
        cfg.cell_dim.y
    );
    let mut machine = Machine::new(cfg);
    let stats = hb_kernels::run_on(&mut machine, bench.as_ref(), size).expect("kernel validates");
    println!(
        "{} finished in {} cycles ({} instructions, {} remote requests)\n",
        bench.name(),
        stats.cycles,
        stats.core.instrs,
        stats.core.remote_requests
    );
    println!("{}", CellProfile::capture(machine.cell(0)).report());
}
