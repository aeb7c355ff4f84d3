//! `telemetry` — an instrumented single-kernel run: samples cycle-windowed
//! telemetry while the kernel executes, writes a Perfetto-loadable Chrome
//! trace plus an NDJSON dump, and prints the tile-utilization and
//! router-occupancy heatmaps of Cell 0.
//!
//! ```text
//! hb-bench telemetry [--kernel SGEMM] [--window 1000] [--out telemetry.json]
//! ```
//!
//! Kernel names are `hb_kernels::kernels()` tokens (`SGEMM`, `FFT`,
//! `BFS@diropt`, ... — case insensitive); `HB_SCALE` picks the Cell shape
//! as in the figures. The run is bit-identical to an uninstrumented one.

use crate::{bench_size, hb_config, kernel_arg};
use hb_core::{Machine, MachineConfig};
use hb_kernels::Kernel;
use hb_obs::{Keep, Sampler, SharedTelemetry};
use hb_serve::cli::{self, Args};
use std::io::Write as _;
use std::num::NonZeroU64;

pub fn run(args: &Args) {
    let bench = kernel_arg(args, "SGEMM");
    let out = args.value("--out").unwrap_or("telemetry.json");
    let window = args
        .parse::<NonZeroU64>("--window")
        .map_or(1000, NonZeroU64::get);

    let cfg = hb_config();
    println!(
        "telemetry run: {} on a {}x{} Cell, window {window}",
        bench.name(),
        cfg.cell_dim.x,
        cfg.cell_dim.y
    );
    if let Err(e) = run_instrumented(bench.as_ref(), &cfg, window, out) {
        cli::fail(e);
    }
}

/// Runs one instrumented pass of `bench` on `cfg` with the given sampling
/// window, writes the Chrome trace to `out` and the NDJSON dump next to it
/// (`<out>.ndjson`), and prints the Cell-0 heatmaps to stdout. Simulated
/// results are bit-identical to the uninstrumented run.
///
/// # Errors
///
/// Returns a message (for the caller to surface as one clean `error:`
/// line, not a panic backtrace) when the kernel faults, produces no
/// telemetry, or an output file cannot be written.
fn run_instrumented(
    bench: &dyn Kernel,
    cfg: &MachineConfig,
    window: u64,
    out: &str,
) -> Result<(), String> {
    let store = SharedTelemetry::default();
    let mut machine = Machine::new(cfg.clone());
    machine.attach_observer(Box::new(Sampler::new(
        cfg,
        window,
        Keep::All,
        store.clone(),
    )));
    let stats = hb_kernels::run_on(&mut machine, bench, bench_size())
        .map_err(|e| format!("instrumented {} failed: {e}", bench.name()))?;
    machine.detach_observer(); // flushes the final partial window

    let t = store.lock().unwrap();
    if t.samples.is_empty() {
        return Err("instrumented run produced no telemetry windows".to_owned());
    }
    let mut f = std::fs::File::create(out).map_err(|e| format!("cannot write {out}: {e}"))?;
    hb_obs::chrome::write(&t, &mut f).map_err(|e| format!("cannot write {out}: {e}"))?;
    let nd = format!("{out}.ndjson");
    let mut f = std::fs::File::create(&nd).map_err(|e| format!("cannot write {nd}: {e}"))?;
    hb_obs::ndjson::write(&t, &mut f).map_err(|e| format!("cannot write {nd}: {e}"))?;

    println!(
        "\ntelemetry: {} @ window {window} -> {out} (Chrome trace, load at ui.perfetto.dev), \
         {nd} (NDJSON)",
        bench.name()
    );
    println!(
        "  {} windows, {} events, {} cycles, {} instrs",
        t.samples.len(),
        hb_obs::chrome::instant_event_count(&t),
        stats.cycles,
        stats.core.instrs
    );
    println!("\n{}", hb_obs::heatmap::tile_utilization(&t, 0));
    println!("{}", hb_obs::heatmap::link_occupancy(&t, 0));
    let _ = std::io::stdout().flush();
    Ok(())
}
