//! Figure 10: incremental feature analysis — starting from a
//! TILE64-normalized "Baseline Manycore" and adding, in the paper's order:
//! router bandwidth, cache capacity, core density, non-blocking loads,
//! Ruche network, write-validate, Load Packet Compression, Regional IPOLY
//! and non-blocking caches. Reports per-kernel and geomean speedups.

use crate::{bench_cell, geomean, header, row, run_points};
use hb_core::{CellDim, MachineConfig};
use hb_kernels::Benchmark;
use hb_serve::cli::Args;

pub fn run(_: &Args) {
    let full = bench_cell();
    let quarter = CellDim {
        x: full.x / 2,
        y: full.y / 2,
    };

    // The configuration ladder (cumulative): each step edits the last.
    type Step<'a> = (&'static str, &'a dyn Fn(&mut MachineConfig));
    let steps: [Step; 10] = [
        ("baseline manycore", &|_| {}),
        ("+router", &|c| {
            c.link_occupancy = 1;
            c.net_fifo_depth = 4;
        }),
        ("+cache", &|c| c.cache_sets *= 2),
        ("+density", &|c| c.cell_dim = full),
        ("+nonblock loads", &|c| c.non_blocking_loads = true),
        ("+ruche", &|c| c.ruche_factor = 3),
        ("+write-validate", &|c| c.write_validate = true),
        ("+load pkt compression", &|c| {
            c.load_packet_compression = true
        }),
        ("+regional ipoly", &|c| c.ipoly_hashing = true),
        ("+nonblock cache", &|c| c.non_blocking_cache = true),
    ];
    let mut cfg = MachineConfig {
        cell_dim: quarter,
        ..MachineConfig::baseline_manycore()
    };
    let configs: Vec<(&str, MachineConfig)> = steps
        .iter()
        .map(|(label, apply)| {
            apply(&mut cfg);
            (*label, cfg.clone())
        })
        .collect();

    let suite = hb_kernels::suite();
    println!(
        "Figure 10 — incremental feature analysis ({}x{} full Cell, speedup vs Baseline Manycore)\n",
        full.x, full.y
    );
    let mut widths = vec![22usize];
    widths.extend(std::iter::repeat_n(7, suite.len()));
    widths.push(8);
    let mut head = vec!["configuration"];
    head.extend(suite.iter().map(|b| b.name()));
    head.push("geomean");
    header(&head, &widths);

    let points: Vec<(&dyn Benchmark, MachineConfig)> = configs
        .iter()
        .flat_map(|(_, cfg)| suite.iter().map(|b| (b.as_ref(), cfg.clone())))
        .collect();
    // Work-normalized (Jacobi's grid scales with the Cell).
    let tputs: Vec<f64> = run_points(&points).iter().map(|s| s.throughput()).collect();
    // Row 0 of the ladder is the Baseline Manycore.
    let baseline = &tputs[..suite.len()];
    for ((label, _), tput) in configs.iter().zip(tputs.chunks(suite.len())) {
        let speedups: Vec<f64> = tput.iter().zip(baseline).map(|(t, b)| t / b).collect();
        let mut cells = vec![(*label).to_owned()];
        cells.extend(speedups.iter().map(|s| format!("{s:.2}")));
        cells.push(format!("{:.2}", geomean(&speedups)));
        row(&cells, &widths);
    }
    println!(
        "\npaper: all optimizations together give ~5.2x geomean over the Baseline\n\
         Manycore; core density is the single largest contributor."
    );
}
