//! `ablations` — sweeps over the design choices DESIGN.md calls out, beyond the
//! paper's on/off feature analysis (Figure 10):
//!
//! - Ruche factor 0..4 (the paper fixes 3; this shows the knee),
//! - remote-op scoreboard depth 1..63 (the paper fixes 63),
//! - MSHRs per cache bank 1..16 (the paper consolidates MSHRs at the LLC).
//!
//! Each sweep uses the kernel most sensitive to the resource. Every sweep
//! point is a content-addressed job executed through the `hb-serve`
//! campaign service: points shared between sweeps (e.g. the baseline
//! configuration) simulate once, and with `--out DIR` the whole sweep is
//! durable — a killed run resumes where it stopped and a repeated run is
//! pure cache hits.
//!
//! Usage:
//!
//! ```text
//! hb-bench ablations [--out DIR] [--threads N]
//! ```
//!
//! The service's summary line carries host wall-clock, so it goes to
//! stderr: stdout is `results/ablations.txt` byte for byte.

use crate::{bench_size, hb_config, header, job_threads, row};
use hb_core::MachineConfig;
use hb_serve::cli::{self, Args};
use hb_serve::{
    size_token, Campaign, CancelToken, JobKind, JobSpec, PlanSpec, RunOpts, SimExecutor, Store,
};
use std::path::PathBuf;

struct Sweep {
    title: &'static str,
    /// Suite benchmark name, optionally `Name@variant` (`SGEMM@blocked`).
    kernel: &'static str,
    points: Vec<(String, MachineConfig)>,
}

pub fn run(args: &Args) {
    let out = args.value("--out").map(PathBuf::from);
    let base = hb_config();
    let size = bench_size();
    let threads = job_threads(args);
    println!(
        "Ablation sweeps ({}x{} Cell)\n",
        base.cell_dim.x, base.cell_dim.y
    );

    let ruche_points: Vec<(String, MachineConfig)> = [0u8, 1, 2, 3, 4]
        .into_iter()
        .map(|rf| {
            (
                format!("ruche={rf}"),
                MachineConfig {
                    ruche_factor: rf,
                    ..base.clone()
                },
            )
        })
        .collect();
    let sb_points: Vec<(String, MachineConfig)> = [1usize, 2, 4, 8, 16, 32, 63]
        .into_iter()
        .map(|n| {
            (
                format!("outstanding={n}"),
                MachineConfig {
                    max_outstanding: n,
                    ..base.clone()
                },
            )
        })
        .collect();
    let mshr_points: Vec<(String, MachineConfig)> = [1usize, 2, 4, 8, 16]
        .into_iter()
        .map(|n| {
            (
                format!("mshrs={n}"),
                MachineConfig {
                    cache_mshrs: n,
                    ..base.clone()
                },
            )
        })
        .collect();
    // Kernel-structure ablation: DRAM-streaming vs SPM-blocked SGEMM (the
    // paper's recommended load-blocks/compute/dump structure).
    let style_point = vec![("streamed".to_owned(), base.clone())];
    let blocked_point = vec![("spm-blocked".to_owned(), base.clone())];

    let sweeps = [
        Sweep {
            title: "-- Ruche factor (SGEMM) --",
            kernel: "SGEMM",
            points: ruche_points,
        },
        Sweep {
            title: "-- scoreboard depth (SGEMM) --",
            kernel: "SGEMM",
            points: sb_points.clone(),
        },
        Sweep {
            title: "-- scoreboard depth (PageRank) --",
            kernel: "PR",
            points: sb_points,
        },
        Sweep {
            title: "-- MSHRs per bank (SpGEMM) --",
            kernel: "SpGEMM",
            points: mshr_points,
        },
        Sweep {
            title: "-- SGEMM streamed --",
            kernel: "SGEMM",
            points: style_point,
        },
        Sweep {
            title: "-- SGEMM SPM-blocked --",
            kernel: "SGEMM@blocked",
            points: blocked_point,
        },
    ];

    // One campaign over every point; identical (kernel, config, size)
    // points across sweeps hash identically and simulate once.
    let specs: Vec<JobSpec> = sweeps
        .iter()
        .flat_map(|sweep| {
            sweep.points.iter().map(|(label, cfg)| JobSpec {
                kind: JobKind::Ablation {
                    size: size_token(size).to_owned(),
                },
                kernel: sweep.kernel.to_owned(),
                seed: 0,
                plan: PlanSpec::None,
                config: cfg.clone(),
                label: label.clone(),
            })
        })
        .collect();
    let campaign = Campaign {
        name: format!(
            "ablation sweeps {}x{} {}",
            base.cell_dim.x,
            base.cell_dim.y,
            size_token(size)
        ),
        specs,
    };

    let (dir, ephemeral) = match out {
        Some(d) => (d, false),
        None => (
            std::env::temp_dir().join(format!("ablation-sweeps-{}", std::process::id())),
            true,
        ),
    };
    if let Err(e) = campaign.save(&dir) {
        cli::fail(format!("cannot write campaign manifest: {e}"));
    }
    let store =
        Campaign::open_store(&dir).unwrap_or_else(|e| cli::fail(format!("cannot open store: {e}")));
    let summary = campaign.run(
        &store,
        &SimExecutor::new(threads),
        &RunOpts {
            threads,
            ..RunOpts::default()
        },
        &CancelToken::new(),
    );

    let cycles_of = |store: &Store, spec: &JobSpec| -> u64 {
        store
            .get(&spec.hash())
            .unwrap_or_else(|| {
                cli::fail(format!(
                    "sweep point {:?} ({}) has no stored result; see {}",
                    spec.label,
                    spec.kernel,
                    dir.join("store").join("journal.ndjson").display()
                ))
            })
            .cycles
    };

    let mut spec_iter = campaign.specs.iter();
    for sweep in &sweeps {
        println!("{}", sweep.title);
        let widths = [14usize, 12, 10];
        header(&["setting", "cycles", "speedup"], &widths);
        let cycles: Vec<u64> = sweep
            .points
            .iter()
            .map(|_| cycles_of(&store, spec_iter.next().expect("spec per point")))
            .collect();
        let base_cycles = cycles[0] as f64;
        for ((label, _), cyc) in sweep.points.iter().zip(&cycles) {
            row(
                &[
                    label.clone(),
                    cyc.to_string(),
                    format!("{:.2}x", base_cycles / *cyc as f64),
                ],
                &widths,
            );
        }
        println!();
    }

    eprintln!("service: {}", summary.line());
    if ephemeral {
        let _ = std::fs::remove_dir_all(&dir);
    } else {
        println!("store: {}", dir.display());
    }

    println!(
        "expected knees: ruche gains saturate by factor 3 (the silicon's\n\
         choice); scoreboard depth stops paying once it covers the memory\n\
         round trip; a few MSHRs per bank suffice because they are shared by\n\
         all tiles (the paper's consolidation argument); SPM blocking trades\n\
         scratchpad capacity for DRAM traffic."
    );
}
