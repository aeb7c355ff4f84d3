//! Figure 16: HB (32x8 Cell) vs a hierarchical manycore model (ET-class)
//! on the irregular workloads, splitting run time into execution and
//! inter-phase sparse data transfer.

use crate::{bench_cell, header, row, run_points};
use hb_core::{CellDim, MachineConfig, MultiCellEstimator};
use hb_hier::{HierConfig, HierMachine, WorkloadProfile};
use hb_kernels::Benchmark;
use hb_serve::cli::Args;

pub fn run(_: &Args) {
    let base = bench_cell();
    let dim = CellDim {
        x: base.x * 2,
        y: base.y,
    }; // the paper's 32x8 point
    let cfg = MachineConfig {
        cell_dim: dim,
        ..MachineConfig::baseline_16x8()
    };
    // ET-class comparator normalized to the same DRAM bandwidth and ~1/4
    // the thread count, but far larger L2.
    let hier = HierMachine::new(HierConfig {
        shires: 4,
        cores_per_shire: (dim.tiles() / 16).max(8),
        ..HierConfig::default()
    });
    let est = MultiCellEstimator::from_config(&cfg);

    println!(
        "Figure 16 — irregular workloads: HB {}x{} vs hierarchical (ET-class)\n\
         run time split into execution + inter-phase sparse transfer (cycles)\n",
        dim.x, dim.y
    );
    let widths = [8usize, 12, 12, 12, 12, 10];
    header(
        &[
            "kernel", "HB exec", "HB xfer", "ET exec", "ET xfer", "ET/HB",
        ],
        &widths,
    );

    let irregular: Vec<Box<dyn Benchmark>> = vec![
        Box::new(hb_kernels::SpGemm::wiki_vote()),
        Box::new(hb_kernels::PageRank::default()),
        Box::new(hb_kernels::Bfs::default()),
        Box::new(hb_kernels::BarnesHut::default()),
    ];
    let points: Vec<(&dyn Benchmark, MachineConfig)> = irregular
        .iter()
        .map(|b| (b.as_ref(), cfg.clone()))
        .collect();
    for ((bench, _), stats) in points.iter().zip(run_points(&points)) {
        // Characterize the kernel from measured counters.
        let unique_lines = stats.cache.misses + stats.cache.write_validate_fills;
        let sync = (stats.core.stall(hb_core::StallKind::Barrier)
            + stats.core.stall(hb_core::StallKind::Fence)) as f64
            / stats.core.total_cycles().max(1) as f64;
        let profile = WorkloadProfile {
            instrs: stats.core.instrs,
            mem_accesses: stats.core.remote_requests,
            unique_lines,
            random_fraction: 0.9,
            sync_fraction: sync.min(0.95),
        };
        let et = hier.estimate(&profile);
        // Inter-phase transfer: the partial results exchanged between
        // phases, approximated by the kernel's written lines.
        let xfer_bytes = stats.cache.write_validate_fills.max(64) * 64;
        let hb_xfer = est.transfer_cycles(xfer_bytes);
        let et_xfer = hier.transfer_cycles(xfer_bytes, true);
        let ratio = (et.cycles + et_xfer) as f64 / (stats.cycles + hb_xfer) as f64;
        row(
            &[
                bench.name().to_owned(),
                stats.cycles.to_string(),
                hb_xfer.to_string(),
                et.cycles.to_string(),
                et_xfer.to_string(),
                format!("{ratio:.2}x"),
            ],
            &widths,
        );
    }
    println!(
        "\npaper: higher independent-thread density favors HB on irregular\n\
         kernels overall (with a few cases where ET's larger L2 helps its\n\
         execution phase), and moving sparse data over wide block channels\n\
         inflates ET's transfer time."
    );
}
