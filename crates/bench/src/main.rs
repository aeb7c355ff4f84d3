//! `hb-bench` — regenerates every figure and table of the paper's
//! evaluation, and runs the harness tools.
//!
//! ```text
//! hb-bench <command> [options]
//! ```
//!
//! A figure or table command is named after the `results/` file it writes
//! (`hb-bench fig10 > results/fig10.txt`; progress lines go to stderr); the
//! index is in `DESIGN.md`. Every command checks its flags against its own
//! list, so a misspelled flag or a bad value is a usage error (one
//! `error:` line, exit 2), never silently ignored. Commands honor the
//! `HB_SCALE` environment variable:
//!
//! - `tiny` — smoke-test scale (debug-build friendly),
//! - `small` (default) — reduced Cell (8x4) and inputs; shapes hold,
//! - `full` — the paper's 16x8 Cell and larger inputs (slow; release
//!   builds only).
//!
//! Any other `HB_SCALE` value is a usage error too.

#![forbid(unsafe_code)]

mod ablations;
mod fig03;
mod fig04;
mod fig10;
mod fig11;
mod fig12;
mod fig13;
mod fig14;
mod fig15;
mod fig16;
mod inspect;
mod race_check;
mod replay;
mod table1_benchmarks;
mod table2_configurations;
mod table4_comparison;

use hb_core::{CellDim, MachineConfig};
use hb_kernels::{BenchStats, Benchmark, Kernel, SizeClass};
use hb_serve::cli::{self, Args};

/// A command: its name, its flags (a flag followed by a word takes a
/// value) and its body.
type Command = (&'static str, &'static str, fn(&Args));

const COMMANDS: &[Command] = &[
    ("fig03", "", fig03::run),
    ("fig04", "", fig04::run),
    ("fig10", "", fig10::run),
    ("fig11", "", fig11::run),
    ("fig12", "", fig12::run),
    ("fig13", "", fig13::run),
    ("fig14", "", fig14::run),
    ("fig15", "", fig15::run),
    ("fig16", "", fig16::run),
    ("table1_benchmarks", "", table1_benchmarks::run),
    ("table2_configurations", "", table2_configurations::run),
    ("table4_comparison", "", table4_comparison::run),
    ("ablations", "", ablations::run),
    (
        "inspect",
        "--kernel K --window N --out PATH --top N",
        inspect::run,
    ),
    (
        "race_check",
        "--fixture NAME --cell WxH --verbose",
        race_check::run,
    ),
    ("replay", "--ckpt FILE --cycles N", replay::run),
];

fn main() {
    quiet_on_closed_stdout();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let names: Vec<&str> = COMMANDS.iter().map(|(name, ..)| *name).collect();
    let usage = format!(
        "usage: hb-bench <command> [options]\n\ncommands: {}\n\n\
         `hb-bench <command> --help` lists a command's options; HB_SCALE=tiny|small|full \
         scales the machine",
        names.join(" ")
    );
    let Some(name) = argv.first() else {
        cli::usage_fail(&usage, "missing command");
    };
    if matches!(name.as_str(), "help" | "--help" | "-h") {
        println!("{usage}");
        return;
    }
    let Some((name, flags, run)) = COMMANDS.iter().find(|(n, ..)| n == name) else {
        cli::usage_fail(&usage, format!("unknown command {name:?}"));
    };
    if let Some(v) = std::env::var_os("HB_SCALE") {
        if !matches!(v.to_str(), Some("tiny" | "small" | "full")) {
            cli::usage_fail(
                &usage,
                format!("HB_SCALE={v:?}: expected tiny, small or full"),
            );
        }
    }
    let usage = format!("usage: hb-bench {name} {flags}");
    run(&Args::walk(&argv[1..], flags, usage.trim_end().to_owned()));
}

/// Ends the process quietly, with status 0, once stdout is closed under it
/// (`hb-bench fig10 | head -3`): `println!` panics on the broken pipe, and
/// this hook turns that one panic into an exit, as `SIGPIPE` ends a C
/// tool. Every other panic reports as before.
fn quiet_on_closed_stdout() {
    let report = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let msg = info
            .payload()
            .downcast_ref::<String>()
            .map_or("", String::as_str);
        if msg.starts_with("failed printing to stdout")
            && msg.to_ascii_lowercase().contains("broken pipe")
        {
            std::process::exit(0);
        }
        report(info);
    }));
}

/// The one runner of a figure's simulations. A point is a suite kernel at
/// a configuration; each runs at [`bench_size`] on the ordered job pool,
/// with [`hb_serve::default_threads`] workers (the CPUs the process may run
/// on), and the stats come back in point order, so the worker count never
/// shows in a figure.
///
/// # Panics
///
/// Panics if a point fails to simulate or to validate.
fn run_points(points: &[(&dyn Benchmark, MachineConfig)]) -> Vec<BenchStats> {
    let size = bench_size();
    hb_serve::run_ordered(points, hb_serve::default_threads(), |_, (bench, cfg)| {
        let dim = cfg.cell_dim;
        eprintln!("  running {} on {}x{} ...", bench.name(), dim.x, dim.y);
        bench
            .run(cfg, size)
            .unwrap_or_else(|e| panic!("{} on {}x{} failed: {e}", bench.name(), dim.x, dim.y))
    })
}

/// Resolves `--kernel` (else `default`) through [`hb_kernels::by_name`];
/// an unknown token is a usage error listing the registry.
fn kernel_arg(args: &Args, default: &str) -> Box<dyn Kernel> {
    let token = args.value("--kernel").unwrap_or(default);
    hb_kernels::by_name(token).unwrap_or_else(|| {
        let tokens: Vec<&str> = hb_kernels::kernels().iter().map(|(t, _)| *t).collect();
        cli::usage_fail(
            args.usage(),
            format!("unknown kernel {token:?}; available: {}", tokens.join(", ")),
        )
    })
}

/// The benchmark scale selected by `HB_SCALE` (unset is `small`; `main`
/// refuses any other value before a command runs).
fn scale() -> SizeClass {
    match std::env::var("HB_SCALE").as_deref() {
        Ok("tiny") => SizeClass::Tiny,
        Ok("full") => SizeClass::Large,
        _ => SizeClass::Small,
    }
}

/// The Cell shape used for figure runs at the current scale
/// (shape-preserving reduction of the paper's 16x8 baseline).
fn bench_cell() -> CellDim {
    match scale() {
        SizeClass::Tiny => CellDim { x: 4, y: 2 },
        SizeClass::Small => CellDim { x: 8, y: 4 },
        SizeClass::Large => CellDim { x: 16, y: 8 },
    }
}

/// The kernel input size for figure runs (one class below the machine
/// scale so debug runs stay tractable).
fn bench_size() -> SizeClass {
    match scale() {
        SizeClass::Tiny => SizeClass::Tiny,
        _ => SizeClass::Small,
    }
}

/// The fully-featured HB configuration at the current scale.
fn hb_config() -> MachineConfig {
    MachineConfig {
        cell_dim: bench_cell(),
        ..MachineConfig::baseline_16x8()
    }
}

/// Geometric mean.
///
/// # Panics
///
/// Panics on an empty slice.
fn geomean(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty());
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// Prints a fixed-width table row.
fn row(cells: &[String], widths: &[usize]) {
    let mut line = String::new();
    for (cell, w) in cells.iter().zip(widths) {
        line.push_str(&format!("{cell:>w$}  ", w = w));
    }
    println!("{}", line.trim_end());
}

/// Prints a header row plus separator.
fn header(cells: &[&str], widths: &[usize]) {
    row(
        &cells.iter().map(|s| (*s).to_owned()).collect::<Vec<_>>(),
        widths,
    );
    let total: usize = widths.iter().map(|w| w + 2).sum();
    println!("{}", "-".repeat(total));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_of_constants() {
        assert!((geomean(&[2.0, 2.0, 2.0]) - 2.0).abs() < 1e-12);
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
    }
}
