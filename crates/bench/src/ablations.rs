//! `ablations` — sweeps over the design choices DESIGN.md calls out, beyond the
//! paper's on/off feature analysis (Figure 10):
//!
//! - Ruche factor 0..4 (the paper fixes 3; this shows the knee),
//! - remote-op scoreboard depth 1..63 (the paper fixes 63),
//! - MSHRs per cache bank 1..16 (the paper consolidates MSHRs at the LLC).
//!
//! Each sweep uses the kernel most sensitive to the resource, named by its
//! `hb_kernels::kernels()` token (`SGEMM@blocked` is the SPM-blocked
//! variant). Every sweep point is one run of [`run_points`].

use crate::{hb_config, header, row, run_points};
use hb_core::MachineConfig;
use hb_kernels::Benchmark;
use hb_serve::cli::Args;

pub fn run(_: &Args) {
    let base = hb_config();
    println!(
        "Ablation sweeps ({}x{} Cell)\n",
        base.cell_dim.x, base.cell_dim.y
    );

    // One point per value: `name=value`, at `base` with `set` applied.
    let sweep = |name: &str, values: &[usize], set: fn(&mut MachineConfig, usize)| {
        values
            .iter()
            .map(|&v| {
                let mut cfg = base.clone();
                set(&mut cfg, v);
                (format!("{name}={v}"), cfg)
            })
            .collect::<Vec<_>>()
    };
    let ruche = sweep("ruche", &[0, 1, 2, 3, 4], |c, v| {
        c.ruche_factor = u8::try_from(v).expect("a small factor");
    });
    let outstanding = sweep("outstanding", &[1, 2, 4, 8, 16, 32, 63], |c, v| {
        c.max_outstanding = v;
    });
    let mshrs = sweep("mshrs", &[1, 2, 4, 8, 16], |c, v| c.cache_mshrs = v);
    // Kernel-structure ablation: DRAM-streaming vs SPM-blocked SGEMM (the
    // paper's recommended load-blocks/compute/dump structure).
    let one = |label: &str| vec![(label.to_owned(), base.clone())];

    let kernel = |token| hb_kernels::by_name(token).expect("a registry token");

    // (title, kernel, points); the first point is the speedup base.
    let sweeps = [
        ("-- Ruche factor (SGEMM) --", kernel("SGEMM"), ruche),
        (
            "-- scoreboard depth (SGEMM) --",
            kernel("SGEMM"),
            outstanding.clone(),
        ),
        (
            "-- scoreboard depth (PageRank) --",
            kernel("PR"),
            outstanding,
        ),
        ("-- MSHRs per bank (SpGEMM) --", kernel("SpGEMM"), mshrs),
        ("-- SGEMM streamed --", kernel("SGEMM"), one("streamed")),
        (
            "-- SGEMM SPM-blocked --",
            kernel("SGEMM@blocked"),
            one("spm-blocked"),
        ),
    ];
    let points: Vec<(&dyn Benchmark, MachineConfig)> = sweeps
        .iter()
        .flat_map(|(_, kernel, points)| {
            points
                .iter()
                .map(move |(_, cfg)| (kernel.as_ref() as &dyn Benchmark, cfg.clone()))
        })
        .collect();
    let mut cycles = run_points(&points).into_iter().map(|s| s.cycles);

    for (title, _, points) in &sweeps {
        println!("{title}");
        let widths = [14usize, 12, 10];
        header(&["setting", "cycles", "speedup"], &widths);
        let curve: Vec<u64> = cycles.by_ref().take(points.len()).collect();
        for ((label, _), cyc) in points.iter().zip(&curve) {
            row(
                &[
                    label.clone(),
                    cyc.to_string(),
                    format!("{:.2}x", curve[0] as f64 / *cyc as f64),
                ],
                &widths,
            );
        }
        println!();
    }

    println!(
        "expected knees: ruche gains saturate by factor 3 (the silicon's\n\
         choice); scoreboard depth stops paying once it covers the memory\n\
         round trip; a few MSHRs per bank suffice because they are shared by\n\
         all tiles (the paper's consolidation argument); SPM blocking trades\n\
         scratchpad capacity for DRAM traffic."
    );
}
