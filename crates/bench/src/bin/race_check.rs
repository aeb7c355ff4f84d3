//! `race_check` — the two-sided race-checking harness.
//!
//! Two modes:
//!
//! - `--suite` (the default): every suite kernel parameterization runs
//!   through **both** checkers — the static `phase-race` pass and a full
//!   golden-validating benchmark run under the dynamic epoch sanitizer —
//!   and must come back clean on both. Exit 1 on any finding.
//! - `--fixture NAME`: one deliberately-racy fixture from
//!   `hb_kernels::fixtures` runs through both checkers; findings are
//!   printed, cross-validated (every dynamic race must be statically
//!   flagged), and optionally compared against exact expected counts with
//!   `--expect static=N,dynamic=M` (mismatch exits 1). Pass `--fixture
//!   list` to enumerate the fixtures.
//!
//! ```text
//! cargo run --release -p hb-bench --bin race_check -- \
//!   [--suite] [--fixture NAME] [--expect static=N,dynamic=M] \
//!   [--cell WxH] [--verbose]
//! ```

use hb_bench::cli;
use hb_core::{CellDim, MachineConfig};
use std::process::ExitCode;

const USAGE: &str = "usage: race_check [--suite] [--fixture NAME] \
[--expect static=N,dynamic=M] [--cell WxH] [--verbose]";

struct Args {
    fixture: Option<String>,
    expect: Option<(usize, usize)>,
    cell: Option<CellDim>,
    verbose: bool,
}

fn parse_args() -> Args {
    let mut out = Args {
        fixture: None,
        expect: None,
        cell: None,
        verbose: false,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < argv.len() {
        match argv[i].as_str() {
            "--suite" => {} // the default mode; accepted for explicitness
            "--fixture" => out.fixture = Some(cli::flag_value(&argv, &mut i, USAGE)),
            "--expect" => {
                let v = cli::flag_value(&argv, &mut i, USAGE);
                let mut want = (None, None);
                for part in v.split(',') {
                    match part.split_once('=') {
                        Some(("static", n)) => {
                            want.0 = Some(cli::parse_value("--expect", n.trim(), USAGE));
                        }
                        Some(("dynamic", n)) => {
                            want.1 = Some(cli::parse_value("--expect", n.trim(), USAGE));
                        }
                        _ => cli::usage_fail(USAGE, format!("bad --expect component {part:?}")),
                    }
                }
                let (Some(s), Some(d)) = want else {
                    cli::usage_fail(USAGE, "--expect needs both static=N and dynamic=M");
                };
                out.expect = Some((s, d));
            }
            "--cell" => {
                out.cell = Some(cli::parse_cell(
                    &cli::flag_value(&argv, &mut i, USAGE),
                    USAGE,
                ))
            }
            "--verbose" => out.verbose = true,
            other => cli::usage_fail(USAGE, format!("unknown option {other:?}")),
        }
        i += 1;
    }
    out
}

fn check_fixtures(args: &Args, name: &str) -> ExitCode {
    if name == "list" {
        for f in hb_kernels::fixtures::all() {
            println!(
                "{:32} static={} dynamic={}  {}",
                f.name, f.expect_static, f.expect_dynamic, f.blurb
            );
        }
        return ExitCode::SUCCESS;
    }
    let Some(f) = hb_kernels::fixtures::by_name(name) else {
        cli::fail(format!("unknown fixture {name:?} (try --fixture list)"));
    };
    let cfg = MachineConfig {
        cell_dim: args.cell.unwrap_or(CellDim { x: 4, y: 2 }),
        ..MachineConfig::baseline_16x8()
    };
    if let Err(e) = cfg.validate() {
        cli::fail(format!("invalid configuration: {e}"));
    }
    let out = hb_race::run_fixture(&f, &cfg);
    println!(
        "fixture {}: {} static finding(s), {} dynamic report(s)",
        out.name,
        out.statics.len(),
        out.dynamic.len()
    );
    if args.verbose {
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
        eprintln!("error: {e}");
        return ExitCode::FAILURE;
    }
    println!("cross-validation: every dynamic race statically flagged");
    if let Some((ws, wd)) = args.expect {
        if (out.statics.len(), out.dynamic.len()) != (ws, wd) {
            eprintln!(
                "expectation mismatch: wanted static={ws} dynamic={wd}, \
                 got static={} dynamic={}",
                out.statics.len(),
                out.dynamic.len()
            );
            return ExitCode::FAILURE;
        }
        println!("expected finding counts: ok");
    }
    ExitCode::SUCCESS
}

fn check_suite(args: &Args) -> ExitCode {
    let cfg = MachineConfig {
        cell_dim: args.cell.unwrap_or_else(hb_bench::bench_cell),
        ..MachineConfig::baseline_16x8()
    };
    if let Err(e) = cfg.validate() {
        cli::fail(format!("invalid configuration: {e}"));
    }
    let size = hb_bench::bench_size();
    println!(
        "race_check: suite cell={}x{} size={:?} (static + sanitized golden-validating runs)",
        cfg.cell_dim.x, cfg.cell_dim.y, size
    );
    let mut dirty = 0usize;
    let entries = hb_race::check_suite(&cfg, size);
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
        eprintln!("error: {dirty} kernel(s) with race findings");
        return ExitCode::FAILURE;
    }
    println!("all {} parameterizations race-clean", entries.len());
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args = parse_args();
    match &args.fixture {
        Some(name) => check_fixtures(&args, &name.clone()),
        None => check_suite(&args),
    }
}
