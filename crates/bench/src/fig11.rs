//! Figure 11: core and HBM2 utilization per kernel on the most-optimized
//! Cell, kernels ordered memory-intensive -> compute-intensive, with the
//! stall taxonomy of Table III.

use crate::{bench_size, hb_config, header, row, telemetry};
use hb_core::StallKind;
use hb_serve::cli::Args;

pub fn run(args: &Args) {
    let telemetry = telemetry::request(args);
    let cfg = hb_config();
    let size = bench_size();
    println!(
        "Figure 11 — core & HBM2 utilization ({}x{} Cell, all features on)\n",
        cfg.cell_dim.x, cfg.cell_dim.y
    );

    let widths = [8usize, 7, 7, 7, 7, 7, 7, 7, 7];
    header(
        &[
            "kernel", "int%", "fp%", "rem_ld%", "barr%", "other%", "hbm_rd%", "hbm_wr%", "hbm_idl%",
        ],
        &widths,
    );

    for bench in hb_kernels::suite() {
        let stats = bench
            .run(&cfg, size)
            .unwrap_or_else(|e| panic!("{} failed: {e}", bench.name()));
        // Exclude post-ecall idling (tiles that finished early) from the
        // utilization denominator, as the paper measures execution only.
        let done = stats.core.stall(StallKind::Done);
        let total = (stats.core.total_cycles() - done).max(1) as f64;
        let pct = |v: u64| format!("{:.1}", v as f64 / total * 100.0);
        let remote = stats.core.stall(StallKind::RemoteLoad) + stats.core.stall(StallKind::AmoDep);
        let barrier = stats.core.stall(StallKind::Barrier) + stats.core.stall(StallKind::Fence);
        let other = stats.core.total_cycles()
            - done
            - stats.core.int_cycles
            - stats.core.fp_cycles
            - remote
            - barrier;
        let hbm_total = stats.hbm.denominator().max(1) as f64;
        let hpct = |v: u64| format!("{:.1}", v as f64 / hbm_total * 100.0);
        row(
            &[
                bench.name().to_owned(),
                pct(stats.core.int_cycles),
                pct(stats.core.fp_cycles),
                pct(remote),
                pct(barrier),
                pct(other),
                hpct(stats.hbm.read_cycles),
                hpct(stats.hbm.write_cycles),
                hpct(stats.hbm.idle_cycles),
            ],
            &widths,
        );
    }

    println!("\nTable III — stall taxonomy:");
    for kind in StallKind::ALL {
        println!("  {:<12} {}", kind.label(), describe(kind));
    }

    // `--telemetry <out>`: one instrumented SGEMM pass on the same
    // fully-featured configuration the table used.
    telemetry::sgemm_after(telemetry, &cfg, size);
}

fn describe(kind: StallKind) -> &'static str {
    match kind {
        StallKind::IcacheMiss => "instruction cache miss refill",
        StallKind::BranchMiss => "branch/jalr misprediction penalty",
        StallKind::Bypass => "RAW dependency on in-flight ALU/FPU result",
        StallKind::LocalLoad => "scratchpad load-use delay",
        StallKind::RemoteLoad => "waiting for a remote load response",
        StallKind::AmoDep => "waiting for a remote atomic response",
        StallKind::RemoteCredit => "scoreboard full or network backpressure",
        StallKind::Fence => "fence draining the remote-op scoreboard",
        StallKind::Barrier => "blocked in the hardware barrier",
        StallKind::FpBusy => "iterative FP divide/sqrt unit busy",
        StallKind::IntBusy => "iterative integer divider busy",
        StallKind::Frozen => "core frozen by an injected fault",
        StallKind::Done => "tile finished, waiting for the kernel to end",
    }
}
