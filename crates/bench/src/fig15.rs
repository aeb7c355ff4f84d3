//! Figure 15: three strategies to double the compute resources at
//! constant HBM2 bandwidth — taller Cells (16x16), wider Cells (32x8) and
//! more Cells (2x16x8) — vs the baseline 16x8 Cell.

use crate::{bench_cell, bench_size, geomean, header, job_threads, row};
use hb_core::{CellDim, MachineConfig, MultiCellEstimator, Phase};
use hb_serve::cli::Args;

pub fn run(args: &Args) {
    let threads = job_threads(args);
    let base_dim = bench_cell();
    let size = bench_size();
    let base_cfg = MachineConfig {
        cell_dim: base_dim,
        ..MachineConfig::baseline_16x8()
    };
    // Doubling strategies, shape-preserving at the bench scale.
    let tall = MachineConfig {
        cell_dim: CellDim {
            x: base_dim.x,
            y: base_dim.y * 2,
        },
        ..base_cfg.clone()
    };
    let wide = MachineConfig {
        cell_dim: CellDim {
            x: base_dim.x * 2,
            y: base_dim.y,
        },
        ..base_cfg.clone()
    };

    println!(
        "Figure 15 — doubling HW resources at constant HBM2 bandwidth (baseline {}x{})\n",
        base_dim.x, base_dim.y
    );
    let widths = [8usize, 12, 11, 11, 12];
    header(
        &["kernel", "base cyc", "tall x", "wide x", "2-cells x"],
        &widths,
    );

    // Two Cells split the constant HBM2 bandwidth: each pseudo-channel
    // runs at half rate (doubled burst occupancy).
    let half_bw = MachineConfig {
        hbm: hb_mem::Hbm2Config {
            burst_cycles: base_cfg.hbm.burst_cycles * 2,
            ..base_cfg.hbm.clone()
        },
        ..base_cfg.clone()
    };

    let est = MultiCellEstimator::from_config(&base_cfg);
    let suite = hb_kernels::suite();

    // Every (kernel, configuration) point is an independent simulation;
    // fan them all out across the job pool and reassemble the rows from
    // the ordered results.
    let variants = [
        ("base", &base_cfg),
        ("tall", &tall),
        ("wide", &wide),
        ("half-bw", &half_bw),
    ];
    let points: Vec<(usize, usize)> = (0..suite.len())
        .flat_map(|ki| (0..variants.len()).map(move |vi| (ki, vi)))
        .collect();
    let runs = hb_serve::run_ordered(&points, threads, |_, &(ki, vi)| {
        let bench = &suite[ki];
        let (vname, cfg) = variants[vi];
        eprintln!("  running {} / {vname} ...", bench.name());
        let stats = bench
            .run(cfg, size)
            .unwrap_or_else(|e| panic!("{} / {vname} failed: {e}", bench.name()));
        (stats.cycles, stats.throughput(), stats.work_units)
    });

    let (mut s_tall, mut s_wide, mut s_two) = (Vec::new(), Vec::new(), Vec::new());
    for (ki, bench) in suite.iter().enumerate() {
        let at = |vi: usize| runs[ki * variants.len() + vi];
        let (base_cycles, base_t, _) = at(0);
        let base = base_cycles as f64;
        let (_, tall_t, _) = at(1);
        let (_, wide_t, _) = at(2);
        // Two Cells, the paper's own methodology: each Cell handles half
        // the work at half the HBM2 bandwidth, plus a conservative
        // inter-phase broadcast of shared data for hard-to-partition
        // kernels (graph/octree duplication into both Local DRAMs).
        let (half_cycles, _, half_work) = at(3);
        let dup_bytes: u64 = match bench.name() {
            "BFS" | "PR" | "SpGEMM" | "BH" => 256 * 1024,
            _ => 0,
        };
        let two_c = est.total_cycles(&[Phase {
            exec_cycles: half_cycles / 2,
            transfer_bytes: dup_bytes,
        }]) as f64;
        let two_t = half_work / two_c;
        s_tall.push(tall_t / base_t);
        s_wide.push(wide_t / base_t);
        s_two.push(two_t / base_t);
        row(
            &[
                bench.name().to_owned(),
                format!("{base:.0}"),
                format!("{:.2}", tall_t / base_t),
                format!("{:.2}", wide_t / base_t),
                format!("{:.2}", two_t / base_t),
            ],
            &widths,
        );
    }
    row(
        &[
            "geomean".into(),
            String::new(),
            format!("{:.2}", geomean(&s_tall)),
            format!("{:.2}", geomean(&s_wide)),
            format!("{:.2}", geomean(&s_two)),
        ],
        &widths,
    );
    println!(
        "\npaper: 16x16 / 32x8 / 2x16x8 reach 1.25x / 1.39x / 1.34x geomean.\n\
         Doubling tiles without cache (tall) is least effective; wider Cells\n\
         win when data is hard to partition; more Cells avoid bisection\n\
         pressure but duplicate shared data."
    );
}
