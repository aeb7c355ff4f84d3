//! Instrumented single-kernel run: samples cycle-windowed telemetry while
//! the kernel executes, writes a Perfetto-loadable Chrome trace plus an
//! NDJSON dump, and prints the tile-utilization and router-occupancy
//! heatmaps of Cell 0.
//!
//! ```text
//! cargo run --release -p hb-bench --bin telemetry -- \
//!     [--kernel SGEMM] [--window 1000] [--out telemetry.json]
//! ```
//!
//! Kernel names are `hb_kernels::kernels()` tokens (`SGEMM`, `FFT`,
//! `BFS@diropt`, ... — case insensitive); `HB_SCALE` picks the Cell shape
//! as in the figure binaries. The run is bit-identical to an
//! uninstrumented one.

use hb_bench::cli::arg_value;
use hb_bench::{bench_size, hb_config, kernel_arg, run_instrumented, window_arg};

fn main() {
    let kernel = arg_value("--kernel").unwrap_or_else(|| "SGEMM".to_owned());
    let out = arg_value("--out").unwrap_or_else(|| "telemetry.json".to_owned());
    let window = window_arg(1000);

    let bench = kernel_arg(
        &kernel,
        "usage: telemetry [--kernel SGEMM] [--window 1000] [--out telemetry.json]",
    );

    let cfg = hb_config();
    println!(
        "telemetry run: {} on a {}x{} Cell, window {window}",
        bench.name(),
        cfg.cell_dim.x,
        cfg.cell_dim.y
    );
    if let Err(e) = run_instrumented(bench.as_ref(), &cfg, bench_size(), window, &out) {
        hb_bench::cli::fail(e);
    }
}
