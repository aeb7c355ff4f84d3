//! Figure 14: Cell-bisection stall percentage per kernel for (1) plain
//! 2-D mesh, (2) Ruche network, (3) Ruche + Load Packet Compression.

use crate::{bench_cell, header, row, run_points};
use hb_core::{CellDim, MachineConfig};
use hb_kernels::Benchmark;
use hb_serve::cli::Args;

pub fn run(_: &Args) {
    // A wide Cell stresses the horizontal bisection (the paper's point).
    let base = bench_cell();
    let dim = CellDim {
        x: base.x * 2,
        y: base.y,
    };
    let ruche_lpc = MachineConfig {
        cell_dim: dim,
        ..MachineConfig::baseline_16x8()
    };
    let ruche = MachineConfig {
        load_packet_compression: false,
        ..ruche_lpc.clone()
    };
    let mesh = MachineConfig {
        ruche_factor: 0,
        ..ruche.clone()
    };
    let variants = [mesh, ruche, ruche_lpc];

    println!(
        "Figure 14 — request-network bisection behaviour per kernel ({}x{} Cell)\n\
         stall% = fraction of occupied bisection-link cycles spent blocked\n",
        dim.x, dim.y
    );
    let widths = [8usize, 12, 12, 12, 12, 12, 12, 12];
    header(
        &[
            "kernel",
            "mesh stall%",
            "ruche stall%",
            "r+lpc stall%",
            "mesh util%",
            "ruche util%",
            "r+lpc util%",
            "mesh slowdn",
        ],
        &widths,
    );

    let suite = hb_kernels::suite();
    let points: Vec<(&dyn Benchmark, MachineConfig)> = suite
        .iter()
        .flat_map(|b| variants.iter().map(|cfg| (b.as_ref(), cfg.clone())))
        .collect();
    let stats = run_points(&points);
    for (bench, runs) in suite.iter().zip(stats.chunks(variants.len())) {
        let mut cells = vec![bench.name().to_owned()];
        // Stall share of all bisection link-cycle slots (the paper's "% of
        // time the bisection links are stalled").
        cells.extend(runs.iter().map(|s| {
            let slots = (s.cycles * s.bisection_links as u64).max(1) as f64;
            format!("{:.1}", s.bisection.stalled as f64 / slots * 100.0)
        }));
        cells.extend(
            runs.iter()
                .map(|s| format!("{:.1}", s.bisection_utilization() * 100.0)),
        );
        cells.push(format!(
            "{:.2}x",
            runs[2].throughput() / runs[0].throughput()
        ));
        row(&cells, &widths);
    }
    println!(
        "\npaper: mesh bisection links stall up to ~50% on network-heavy kernels;\n\
         Ruche links relieve the bisection for all kernels and LPC further helps\n\
         sequential-access kernels."
    );
}
