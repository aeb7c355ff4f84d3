//! Shared harness utilities for the figure/table regeneration binaries.
//!
//! Every figure and table in the paper's evaluation has a binary under
//! `src/bin/` (see `DESIGN.md` for the index). Binaries honor the
//! `HB_SCALE` environment variable:
//!
//! - `tiny` — smoke-test scale (debug-build friendly),
//! - `small` (default) — reduced Cell (8x4) and inputs; shapes hold,
//! - `full` — the paper's 16x8 Cell and larger inputs (slow; release
//!   builds only).

#![forbid(unsafe_code)]

use hb_core::{CellDim, MachineConfig};
use hb_kernels::{Kernel, SizeClass};

pub mod telemetry;
pub use telemetry::{run_instrumented, telemetry_out, window_arg};

/// Uniform command-line error handling for the harness binaries: malformed
/// arguments are one `error:` line + usage and exit 2; runtime failures
/// (unwritable `--out`, invalid configuration) are one `error:` line and
/// exit 1. Shared with the `hb-serve` CLI, which hosts the implementation.
pub use hb_serve::cli;

/// Job-level worker count for a sweep binary: `--threads N` (or
/// `--threads=N`) on the command line, else 1. The points fan out through
/// [`hb_serve::run_ordered`] or a campaign's [`hb_serve::RunOpts`].
pub fn job_threads() -> usize {
    cli::arg_value("--threads")
        .and_then(|v| v.parse::<usize>().ok())
        .map_or(1, |n| n.max(1))
}

/// Resolves a `--kernel` argument through [`hb_kernels::by_name`]; an unknown
/// token is a usage error listing the registry.
pub fn kernel_arg(token: &str, usage: &str) -> Box<dyn Kernel> {
    hb_kernels::by_name(token).unwrap_or_else(|| {
        let tokens: Vec<&str> = hb_kernels::kernels().iter().map(|(t, _)| *t).collect();
        cli::usage_fail(
            usage,
            format!("unknown kernel {token:?}; available: {}", tokens.join(", ")),
        )
    })
}

/// The benchmark scale selected by `HB_SCALE`.
pub fn scale() -> SizeClass {
    match std::env::var("HB_SCALE").as_deref() {
        Ok("tiny") => SizeClass::Tiny,
        Ok("full") => SizeClass::Large,
        _ => SizeClass::Small,
    }
}

/// The Cell shape used for figure runs at the current scale
/// (shape-preserving reduction of the paper's 16x8 baseline).
pub fn bench_cell() -> CellDim {
    match scale() {
        SizeClass::Tiny => CellDim { x: 4, y: 2 },
        SizeClass::Small => CellDim { x: 8, y: 4 },
        SizeClass::Large => CellDim { x: 16, y: 8 },
    }
}

/// The kernel input size for figure runs (one class below the machine
/// scale so debug runs stay tractable).
pub fn bench_size() -> SizeClass {
    match scale() {
        SizeClass::Tiny => SizeClass::Tiny,
        _ => SizeClass::Small,
    }
}

/// The fully-featured HB configuration at the current scale.
pub fn hb_config() -> MachineConfig {
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
pub fn geomean(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty());
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// Prints a fixed-width table row.
pub fn row(cells: &[String], widths: &[usize]) {
    let mut line = String::new();
    for (cell, w) in cells.iter().zip(widths) {
        line.push_str(&format!("{cell:>w$}  ", w = w));
    }
    println!("{}", line.trim_end());
}

/// Prints a header row plus separator.
pub fn header(cells: &[&str], widths: &[usize]) {
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
