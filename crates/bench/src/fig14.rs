//! Figure 14: Cell-bisection stall percentage per kernel for (1) plain
//! 2-D mesh, (2) Ruche network, (3) Ruche + Load Packet Compression.

use crate::{bench_cell, bench_size, header, row};
use hb_core::{CellDim, MachineConfig};
use hb_serve::cli::Args;

pub fn run(_: &Args) {
    // A wide Cell stresses the horizontal bisection (the paper's point).
    let base = bench_cell();
    let dim = CellDim {
        x: base.x * 2,
        y: base.y,
    };
    let size = bench_size();
    type Variant = (&'static str, Box<dyn Fn() -> MachineConfig>);
    let variants: [Variant; 3] = [
        (
            "2-D mesh",
            Box::new(move || MachineConfig {
                cell_dim: dim,
                ruche_factor: 0,
                load_packet_compression: false,
                ..MachineConfig::baseline_16x8()
            }),
        ),
        (
            "ruche",
            Box::new(move || MachineConfig {
                cell_dim: dim,
                load_packet_compression: false,
                ..MachineConfig::baseline_16x8()
            }),
        ),
        (
            "ruche+LPC",
            Box::new(move || MachineConfig {
                cell_dim: dim,
                ..MachineConfig::baseline_16x8()
            }),
        ),
    ];

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

    for bench in hb_kernels::suite() {
        let mut stalls = Vec::new();
        let mut utils = Vec::new();
        let mut tputs = Vec::new();
        for (label, mk) in &variants {
            eprintln!("  running {} / {label} ...", bench.name());
            let stats = bench
                .run(&mk(), size)
                .unwrap_or_else(|e| panic!("{} / {label} failed: {e}", bench.name()));
            // Stall share of all bisection link-cycle slots (the paper's
            // "% of time the bisection links are stalled").
            let slots = (stats.cycles * stats.bisection_links as u64).max(1) as f64;
            stalls.push(stats.bisection.stalled as f64 / slots * 100.0);
            utils.push(stats.bisection_utilization() * 100.0);
            tputs.push(stats.throughput());
        }
        row(
            &[
                bench.name().to_owned(),
                format!("{:.1}", stalls[0]),
                format!("{:.1}", stalls[1]),
                format!("{:.1}", stalls[2]),
                format!("{:.1}", utils[0]),
                format!("{:.1}", utils[1]),
                format!("{:.1}", utils[2]),
                format!("{:.2}x", tputs[2] / tputs[0]),
            ],
            &widths,
        );
    }
    println!(
        "\npaper: mesh bisection links stall up to ~50% on network-heavy kernels;\n\
         Ruche links relieve the bisection for all kernels and LPC further helps\n\
         sequential-access kernels."
    );
}
