//! Telemetry wiring shared by the figure binaries and the `telemetry`
//! binary: `--telemetry <out>` argument parsing and an instrumented
//! single-kernel pass that writes a Chrome trace + NDJSON dump and prints
//! the mesh heatmaps.

use hb_core::{Machine, MachineConfig};
use hb_kernels::{Kernel, SizeClass};
use hb_obs::{Keep, Sampler, SharedTelemetry};
use std::io::Write as _;

/// Telemetry output path from the command line: `--telemetry <path>` or
/// `--telemetry=<path>`, else `None` (telemetry stays off).
pub fn telemetry_out() -> Option<String> {
    crate::cli::arg_value("--telemetry")
}

/// Sampling window from the command line: `--window N` or `--window=N`,
/// else `default`.
pub fn window_arg(default: u64) -> u64 {
    crate::cli::arg_value("--window")
        .and_then(|v| v.parse::<u64>().ok())
        .map_or(default, |n| n.max(1))
}

/// Runs one instrumented pass of `bench` on `cfg` with the given sampling
/// window, writes the Chrome trace to `out` and the NDJSON dump next to it
/// (`<out>.ndjson`), and prints the Cell-0 heatmaps to stdout.
///
/// The sampler is attached to the one machine built here, so the sweep's
/// machines are never instrumented. Simulated results are bit-identical to
/// the uninstrumented run.
///
/// # Errors
///
/// Returns a message (for the binaries to surface as one clean `error:`
/// line, not a panic backtrace) when the kernel faults, produces no
/// telemetry, or an output file cannot be written.
pub fn run_instrumented(
    bench: &dyn Kernel,
    cfg: &MachineConfig,
    size: SizeClass,
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
    let stats = hb_kernels::run_on(&mut machine, bench, size)
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
