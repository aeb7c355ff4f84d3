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
//! hb-bench race_check [--suite] [--fixture NAME] \
//!   [--expect static=N,dynamic=M] [--cell WxH] [--verbose]
//! ```

use hb_core::{CellDim, MachineConfig};
use hb_serve::cli::{self, Args};

struct Opts {
    expect: Option<(usize, usize)>,
    cell: Option<CellDim>,
    verbose: bool,
}

pub fn run(args: &Args) {
    let opts = Opts {
        expect: args.value("--expect").map(|v| {
            let counts = cli::parse_counts("--expect", v, &["static", "dynamic"], args.usage());
            (counts[0] as usize, counts[1] as usize)
        }),
        cell: args
            .value("--cell")
            .map(|v| cli::parse_cell(v, args.usage())),
        verbose: args.has("--verbose"),
    };
    // `--suite` is the default mode; it is accepted for explicitness.
    match args.value("--fixture") {
        Some(name) => check_fixtures(&opts, name),
        None => check_suite(&opts),
    }
}

fn check_fixtures(opts: &Opts, name: &str) {
    if name == "list" {
        for f in hb_kernels::fixtures::all() {
            println!(
                "{:32} static={} dynamic={}  {}",
                f.name, f.expect_static, f.expect_dynamic, f.blurb
            );
        }
        return;
    }
    let Some(f) = hb_kernels::fixtures::by_name(name) else {
        cli::fail(format!("unknown fixture {name:?} (try --fixture list)"));
    };
    let cfg = MachineConfig {
        cell_dim: opts.cell.unwrap_or(CellDim { x: 4, y: 2 }),
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
    if opts.verbose {
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
    if let Some((ws, wd)) = opts.expect {
        if (out.statics.len(), out.dynamic.len()) != (ws, wd) {
            cli::fail(format!(
                "expectation mismatch: wanted static={ws} dynamic={wd}, \
                 got static={} dynamic={}",
                out.statics.len(),
                out.dynamic.len()
            ));
        }
        println!("expected finding counts: ok");
    }
}

fn check_suite(opts: &Opts) {
    let cfg = MachineConfig {
        cell_dim: opts.cell.unwrap_or_else(crate::bench_cell),
        ..MachineConfig::baseline_16x8()
    };
    if let Err(e) = cfg.validate() {
        cli::fail(format!("invalid configuration: {e}"));
    }
    let size = crate::bench_size();
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
        cli::fail(format!("{dirty} kernel(s) with race findings"));
    }
    println!("all {} parameterizations race-clean", entries.len());
}
