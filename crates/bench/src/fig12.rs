//! Figure 12: scaling an irregular workload (SpGEMM on a power-law
//! matrix) with tile groups — one Cell-wide group vs several smaller
//! groups each running an independent task on the shared data structure.

use crate::{bench_cell, header, row};
use hb_core::{pgas, GroupSpec, Machine, MachineConfig};
use hb_kernels::util::{alloc_f32, alloc_u32};
use hb_kernels::SpGemm;
use hb_serve::cli::Args;
use hb_workloads::{gen, golden};
use std::sync::Arc;

pub fn run(_: &Args) {
    let dim = bench_cell();
    let cfg = MachineConfig {
        cell_dim: dim,
        ..MachineConfig::baseline_16x8()
    };
    // A wiki-Vote-like operand: as many rows as the Cell has tiles, with a
    // few hub rows owning most of the nonzeros — a single Cell-wide group
    // leaves most tiles idle while the hub rows finish.
    let n: u32 = 128;
    let rows = dim.tiles() as u32;
    let hubs = rows / 8;
    let mut triples = Vec::new();
    let mut rng = hb_rng::Rng::seed_from_u64(0x5A);
    for hub in 0..hubs {
        for c in 0..n {
            triples.push((hub, c, 1.0f32 + (c % 7) as f32));
        }
    }
    for r in hubs..rows {
        for _ in 0..2 {
            let c = rng.range_u32(0, n);
            triples.push((r, c, 1.0f32));
        }
    }
    let a = hb_workloads::CsrMatrix::from_triples(rows, n, &triples);
    let b = gen::uniform_sparse(n, n, 8, 0x5B);
    let expect_nnz = golden::spgemm(&a, &b).nnz() as u32;

    println!(
        "Figure 12 — tile groups on SpGEMM (power-law {nx}x{nx}, {gx}x{gy} Cell)\n",
        nx = n,
        gx = dim.x,
        gy = dim.y
    );
    let widths = [14usize, 10, 12, 14, 12];
    header(
        &["groups", "tasks", "cycles", "tasks/Mcycle", "hbm util%"],
        &widths,
    );

    // Group layouts: whole cell, halves, eighths (16x8 -> 4x4 groups).
    let layouts = [(dim.x, dim.y), (dim.x / 2, dim.y), (dim.x / 4, dim.y / 2)];

    for (gw, gh) in layouts {
        let groups = GroupSpec::grid(&cfg, gw, gh);
        let ntasks = groups.len();
        let mut machine = Machine::new(cfg.clone());
        let cell = machine.cell_mut(0);
        // Shared inputs.
        let a_rp = alloc_u32(cell, &a.row_ptr);
        let a_ci = alloc_u32(cell, &a.col_idx);
        let a_av = alloc_f32(cell, &a.vals);
        let b_rp = alloc_u32(cell, &b.row_ptr);
        let b_ci = alloc_u32(cell, &b.col_idx);
        let b_av = alloc_f32(cell, &b.vals);
        // Per-task counters and outputs (independent tasks on shared data).
        let mut launches = Vec::new();
        for g in groups {
            let q0 = alloc_u32(cell, &[0]);
            let nnz = alloc_u32(cell, &[0]);
            let cap = expect_nnz + 64;
            let out_i = cell.alloc(cap * 4, 64);
            let out_j = cell.alloc(cap * 4, 64);
            let out_v = cell.alloc(cap * 4, 64);
            let desc = alloc_u32(
                cell,
                &[
                    pgas::local_dram(a_rp),
                    pgas::local_dram(a_ci),
                    pgas::local_dram(a_av),
                    pgas::local_dram(b_rp),
                    pgas::local_dram(b_ci),
                    pgas::local_dram(b_av),
                    pgas::local_dram(q0),
                    pgas::local_dram(nnz),
                    pgas::local_dram(out_i),
                    pgas::local_dram(out_j),
                    pgas::local_dram(out_v),
                    a.rows,
                    b.cols,
                ],
            );
            launches.push((g, vec![pgas::local_dram(desc)], nnz));
        }
        let program = Arc::new(SpGemm::program());
        let specs: Vec<(GroupSpec, Vec<u32>)> = launches
            .iter()
            .map(|(g, args, _)| (*g, args.clone()))
            .collect();
        machine.launch_groups(0, &program, &specs);
        let summary = machine.run(500_000_000).expect("spgemm tile-group run");
        machine.cell_mut(0).flush_caches();
        for (_, _, nnz) in &launches {
            assert_eq!(
                machine.cell(0).dram().read_u32(*nnz),
                expect_nnz,
                "task produced wrong nnz"
            );
        }
        let hbm = machine.cell(0).hbm_stats();
        let throughput = ntasks as f64 / (summary.cycles as f64 / 1.0e6);
        row(
            &[
                format!("{} x {}x{}", ntasks, gw, gh),
                ntasks.to_string(),
                summary.cycles.to_string(),
                format!("{throughput:.2}"),
                format!("{:.1}", hbm.data_utilization() * 100.0),
            ],
            &widths,
        );
    }
    println!(
        "\npaper: eight 4x4 groups improve SpGEMM (WV) throughput ~4x and HBM2\n\
         utilization ~7.8x over one 16x8 group; smaller groups expose task-level\n\
         parallelism that irregular kernels cannot extract from more tiles."
    );
}
