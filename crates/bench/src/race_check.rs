//! `race_check` — the two-sided race-checking harness.
//!
//! Two modes:
//!
//! - no `--fixture` (the suite): every suite kernel parameterization runs
//!   through **both** checkers — the static `phase-race` pass and a full
//!   golden-validating benchmark run under the dynamic epoch sanitizer —
//!   and must come back clean on both. Exit 1 on any finding.
//! - `--fixture NAME`: one deliberately-racy fixture from
//!   `hb_kernels::fixtures` runs through both checkers; findings are
//!   printed, cross-validated (every dynamic race must be statically
//!   flagged), and held to the counts the fixture records
//!   (`expect_static`, `expect_dynamic`; a mismatch exits 1). Pass
//!   `--fixture list` to enumerate the fixtures.
//!
//! ```text
//! hb-bench race_check [--fixture NAME] [--cell WxH] [--verbose]
//! ```

use hb_core::{CellDim, MachineConfig};
use hb_kernels::fixtures::{self, Fixture};
use hb_serve::cli::{self, Args};

pub fn run(args: &Args) {
    let usage = args.usage();
    let verbose = args.has("--verbose");
    let cell = args.value("--cell").map(|v| cli::parse_cell(v, usage));
    let config = |default: CellDim| {
        let cfg = MachineConfig {
            cell_dim: cell.unwrap_or(default),
            ..MachineConfig::baseline_16x8()
        };
        cli::valid_config(cfg, usage)
    };
    match args.value("--fixture") {
        Some("list") => {
            for f in fixtures::all() {
                println!(
                    "{:32} static={} dynamic={}  {}",
                    f.name, f.expect_static, f.expect_dynamic, f.blurb
                );
            }
        }
        Some(name) => {
            let Some(f) = fixtures::by_name(name) else {
                cli::usage_fail(
                    usage,
                    format!("unknown fixture {name:?} (try --fixture list)"),
                );
            };
            check_fixture(verbose, &f, &config(CellDim { x: 4, y: 2 }));
        }
        None => check_suite(&config(crate::bench_cell())),
    }
}

fn check_fixture(verbose: bool, f: &Fixture, cfg: &MachineConfig) {
    let out = hb_race::run_fixture(f, cfg);
    println!(
        "fixture {}: {} static finding(s), {} dynamic report(s)",
        out.name,
        out.statics.len(),
        out.dynamic.len()
    );
    if verbose {
        for c in &out.statics {
            println!(
                "static: {} at {:#x} vs {} at {:#x} ({}, phase {})",
                c.kind_a.label(),
                c.pc_a,
                c.kind_b.label(),
                c.pc_b,
                c.space,
                c.phase
            );
        }
    }
    for r in &out.rendered {
        println!("{r}");
    }
    if let Err(e) = hb_race::cross_validate(&out.statics, &out.dynamic) {
        cli::fail(e);
    }
    println!("cross-validation: every dynamic race statically flagged");
    let (ws, wd) = (f.expect_static, f.expect_dynamic);
    if (out.statics.len(), out.dynamic.len()) != (ws, wd) {
        cli::fail(format!(
            "expectation mismatch: {} records static={ws} dynamic={wd}, \
             got static={} dynamic={}",
            f.name,
            out.statics.len(),
            out.dynamic.len()
        ));
    }
    println!("recorded finding counts: ok");
}

fn check_suite(cfg: &MachineConfig) {
    let size = crate::bench_size();
    println!(
        "race_check: suite cell={}x{} size={:?} (static + sanitized golden-validating runs)",
        cfg.cell_dim.x, cfg.cell_dim.y, size
    );
    let mut dirty = 0usize;
    let entries = hb_race::check_suite(cfg, size);
    for e in &entries {
        println!(
            "{:16} static={} dynamic={}  {}",
            e.name,
            e.static_findings,
            e.dynamic_findings,
            if e.is_clean() { "clean" } else { "RACY" }
        );
        for r in &e.races {
            println!("{r}");
        }
        if !e.is_clean() {
            dirty += 1;
        }
    }
    if dirty > 0 {
        cli::fail(format!("{dirty} kernel(s) with race findings"));
    }
    println!("all {} parameterizations race-clean", entries.len());
}
