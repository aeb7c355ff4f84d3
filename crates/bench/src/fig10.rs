//! Figure 10: incremental feature analysis — starting from a
//! TILE64-normalized "Baseline Manycore" and adding, in the paper's order:
//! router bandwidth, cache capacity, core density, non-blocking loads,
//! Ruche network, write-validate, Load Packet Compression, Regional IPOLY
//! and non-blocking caches. Reports per-kernel and geomean speedups.

use crate::{bench_cell, bench_size, geomean, header, job_threads, row};
use hb_core::{CellDim, MachineConfig};
use hb_serve::cli::Args;

pub fn run(args: &Args) {
    let threads = job_threads(args);
    let full = bench_cell();
    let quarter = CellDim {
        x: full.x / 2,
        y: full.y / 2,
    };
    let size = bench_size();

    // The configuration ladder (cumulative).
    let base = MachineConfig {
        cell_dim: quarter,
        ..MachineConfig::baseline_manycore()
    };
    type Step = (&'static str, Box<dyn Fn(&MachineConfig) -> MachineConfig>);
    let steps: Vec<Step> = vec![
        ("baseline manycore", Box::new(|c: &MachineConfig| c.clone())),
        (
            "+router",
            Box::new(|c| MachineConfig {
                link_occupancy: 1,
                net_fifo_depth: 4,
                ..c.clone()
            }),
        ),
        (
            "+cache",
            Box::new(move |c| MachineConfig {
                cache_sets: c.cache_sets * 2,
                ..c.clone()
            }),
        ),
        (
            "+density",
            Box::new(move |c| MachineConfig {
                cell_dim: full,
                ..c.clone()
            }),
        ),
        (
            "+nonblock loads",
            Box::new(|c| MachineConfig {
                non_blocking_loads: true,
                ..c.clone()
            }),
        ),
        (
            "+ruche",
            Box::new(|c| MachineConfig {
                ruche_factor: 3,
                ..c.clone()
            }),
        ),
        (
            "+write-validate",
            Box::new(|c| MachineConfig {
                write_validate: true,
                ..c.clone()
            }),
        ),
        (
            "+load pkt compression",
            Box::new(|c| MachineConfig {
                load_packet_compression: true,
                ..c.clone()
            }),
        ),
        (
            "+regional ipoly",
            Box::new(|c| MachineConfig {
                ipoly_hashing: true,
                ..c.clone()
            }),
        ),
        (
            "+nonblock cache",
            Box::new(|c| MachineConfig {
                non_blocking_cache: true,
                ..c.clone()
            }),
        ),
    ];

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

    // The ladder is cumulative, so materialize the configurations first;
    // the (configuration, kernel) simulation points are then independent
    // and fan out across the job pool, collected in submission order.
    let mut configs: Vec<(&'static str, MachineConfig)> = Vec::new();
    let mut cfg = base;
    for (label, apply) in steps {
        cfg = apply(&cfg);
        configs.push((label, cfg.clone()));
    }
    let points: Vec<(usize, usize)> = (0..configs.len())
        .flat_map(|si| (0..suite.len()).map(move |ki| (si, ki)))
        .collect();
    let tputs = hb_serve::run_ordered(&points, threads, |_, &(si, ki)| {
        let (label, cfg) = &configs[si];
        let bench = &suite[ki];
        eprintln!("  running {} / {label} ...", bench.name());
        let stats = bench
            .run(cfg, size)
            .unwrap_or_else(|e| panic!("{} under '{label}' failed: {e}", bench.name()));
        // Work-normalized (Jacobi's grid scales with the Cell).
        stats.throughput()
    });

    for (si, (label, _)) in configs.iter().enumerate() {
        let mut speedups = Vec::new();
        let mut cells = vec![(*label).to_owned()];
        for ki in 0..suite.len() {
            // Row 0 of the ladder is the Baseline Manycore.
            let speedup = tputs[si * suite.len() + ki] / tputs[ki];
            speedups.push(speedup);
            cells.push(format!("{speedup:.2}"));
        }
        cells.push(format!("{:.2}", geomean(&speedups)));
        row(&cells, &widths);
    }
    println!(
        "\npaper: all optimizations together give ~5.2x geomean over the Baseline\n\
         Manycore; core density is the single largest contributor."
    );
}
