//! Figure 15: three strategies to double the compute resources at
//! constant HBM2 bandwidth — taller Cells (16x16), wider Cells (32x8) and
//! more Cells (2x16x8) — vs the baseline 16x8 Cell.

use crate::{bench_cell, geomean, header, row, run_points};
use hb_core::{CellDim, MachineConfig, MultiCellEstimator};
use hb_kernels::Benchmark;
use hb_serve::cli::Args;

pub fn run(_: &Args) {
    let base_dim = bench_cell();
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

    let variants = [&base_cfg, &tall, &wide, &half_bw];
    let points: Vec<(&dyn Benchmark, MachineConfig)> = suite
        .iter()
        .flat_map(|b| variants.map(|cfg| (b.as_ref(), cfg.clone())))
        .collect();
    let stats = run_points(&points);

    let (mut s_tall, mut s_wide, mut s_two) = (Vec::new(), Vec::new(), Vec::new());
    for (bench, runs) in suite.iter().zip(stats.chunks(variants.len())) {
        let [base, tall, wide, half] = runs else {
            unreachable!("one run per variant")
        };
        let base_t = base.throughput();
        let (tall_t, wide_t) = (tall.throughput(), wide.throughput());
        // Two Cells, the paper's own methodology: each Cell handles half
        // the work at half the HBM2 bandwidth, plus a conservative
        // inter-phase broadcast of shared data for hard-to-partition
        // kernels (graph/octree duplication into both Local DRAMs).
        let dup_bytes: u64 = match bench.name() {
            "BFS" | "PR" | "SpGEMM" | "BH" => 256 * 1024,
            _ => 0,
        };
        let two_c = (half.cycles / 2 + est.transfer_cycles(dup_bytes)) as f64;
        let two_t = half.work_units / two_c;
        s_tall.push(tall_t / base_t);
        s_wide.push(wide_t / base_t);
        s_two.push(two_t / base_t);
        row(
            &[
                bench.name().to_owned(),
                base.cycles.to_string(),
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
