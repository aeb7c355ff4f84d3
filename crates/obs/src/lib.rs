//! Cycle-windowed telemetry for the HammerBlade simulator.
//!
//! Every number the simulator reports elsewhere (`CellProfile`, the
//! Figure 11 taxonomy) is an end-of-run aggregate. This crate adds the
//! *time* axis: a [`Sampler`] attached to a machine with
//! [`hb_core::Machine::attach_observer`] snapshots per-tile [`CoreStats`] deltas, per-router
//! NoC link counters and per-HBM-channel activity every `window` cycles
//! into an in-memory [`Telemetry`] store, together with instant events
//! (kernel-phase marks, barrier joins, fence retires, faults) captured by
//! the tiles themselves.
//!
//! The store then exports three ways:
//!
//! - [`chrome`]: Chrome trace-event JSON, loadable in Perfetto or
//!   `chrome://tracing` (1 trace µs = 1 core cycle);
//! - [`ndjson`]: newline-delimited JSON for ad-hoc scripting;
//! - [`heatmap`]: textual mesh heatmaps of tile utilization and router
//!   occupancy.
//!
//! Sampling is read-only and windowed, so it never perturbs simulated
//! results: runs are bit-identical with telemetry on or off, at any
//! window (`tests/telemetry_determinism.rs` in the workspace root pins
//! this down).
//!
//! # Example
//!
//! ```
//! use hb_core::{CellDim, Machine, MachineConfig};
//! use hb_obs::{Keep, Sampler, Telemetry};
//! use std::sync::{Arc, Mutex};
//!
//! let mut cfg = MachineConfig::baseline_16x8();
//! cfg.cell_dim = CellDim { x: 2, y: 2 };
//! let store = Arc::new(Mutex::new(Telemetry::default()));
//! let mut machine = Machine::new(cfg.clone());
//! machine.attach_observer(Box::new(Sampler::new(&cfg, 64, Keep::All, store.clone())));
//! for _ in 0..200 {
//!     machine.tick();
//! }
//! drop(machine); // flushes the final partial window
//! let t = store.lock().unwrap();
//! assert_eq!(t.samples.len(), 4); // 3 full windows + the tail
//! let json = hb_obs::chrome::to_string(&t);
//! assert!(json.starts_with("{\"traceEvents\":["));
//! ```

#![forbid(unsafe_code)]

pub mod chrome;
pub mod heatmap;
pub mod json;
pub mod ndjson;

use hb_core::observe::{MachineObserver, ObsEvent};
use hb_core::{CoreStats, Machine, MachineConfig};
use hb_mem::{Hbm2Stats, SnapError, SnapState};
use hb_noc::LinkStats;
use std::sync::{Arc, Mutex};

/// Shared handle to the in-memory time series; the caller keeps one side
/// while the machine (which owns the sampler) fills the other.
pub type SharedTelemetry = Arc<Mutex<Telemetry>>;

/// Window-delta counters of one Cell.
#[derive(Debug, Clone, Default)]
pub struct CellWindow {
    /// Per-tile [`CoreStats`] accumulated in this window, row-major.
    pub tiles: Vec<CoreStats>,
    /// Per-router request-network deltas (ports summed), row-major over
    /// the router grid.
    pub req_net: Vec<LinkStats>,
    /// Per-router response-network deltas.
    pub resp_net: Vec<LinkStats>,
    /// HBM2 channel activity in this window (memory-clock cycles).
    pub hbm: Hbm2Stats,
}

/// One sampling window: everything that happened in `(start, end]`.
#[derive(Debug, Clone, Default)]
pub struct WindowSample {
    /// Core cycle the window opened at (exclusive).
    pub start: u64,
    /// Core cycle the window closed at (inclusive).
    pub end: u64,
    /// Per-Cell deltas, indexed by Cell id.
    pub cells: Vec<CellWindow>,
}

impl WindowSample {
    /// Core cycles the window spans.
    pub fn span(&self) -> u64 {
        self.end - self.start
    }
}

/// The in-memory time-series store one instrumented run fills.
#[derive(Debug, Clone, Default)]
pub struct Telemetry {
    /// Nominal sampling window in core cycles (the tail sample may span
    /// less).
    pub window: u64,
    /// Tile grid of each Cell.
    pub dim: (u8, u8),
    /// Router grid of each Cell's networks (includes the two I/O rows).
    pub net_dim: (u8, u8),
    /// Number of Cells.
    pub num_cells: u8,
    /// Retained windows, oldest first.
    pub samples: Vec<WindowSample>,
    /// Instant events (marks, barrier joins, fence retires, faults),
    /// drained from the tiles each window; within one cycle, ordered by
    /// Cell then row-major tile.
    pub events: Vec<ObsEvent>,
    /// Last sampled machine cycle.
    pub final_cycle: u64,
    /// Windows evicted under [`Keep::Last`] retention.
    pub dropped: u64,
}

impl Telemetry {
    /// Tiles per Cell.
    pub fn tiles_per_cell(&self) -> usize {
        self.dim.0 as usize * self.dim.1 as usize
    }

    /// Sums the retained windows of one Cell into whole-run aggregates
    /// (per-tile core stats, per-router link stats, HBM). With
    /// [`Keep::All`] this equals the end-of-run counters; with bounded
    /// retention it covers only the surviving windows.
    pub fn aggregate(&self, cell: usize) -> CellWindow {
        let mut agg = CellWindow {
            tiles: vec![CoreStats::default(); self.tiles_per_cell()],
            req_net: vec![LinkStats::default(); self.net_dim.0 as usize * self.net_dim.1 as usize],
            resp_net: vec![LinkStats::default(); self.net_dim.0 as usize * self.net_dim.1 as usize],
            hbm: Hbm2Stats::default(),
        };
        for s in &self.samples {
            let Some(cw) = s.cells.get(cell) else {
                continue;
            };
            for (a, t) in agg.tiles.iter_mut().zip(&cw.tiles) {
                *a += *t;
            }
            for (a, l) in agg.req_net.iter_mut().zip(&cw.req_net) {
                *a = *a + *l;
            }
            for (a, l) in agg.resp_net.iter_mut().zip(&cw.resp_net) {
                *a = *a + *l;
            }
            agg.hbm = agg.hbm + cw.hbm;
        }
        agg
    }

    /// Total core cycles covered by the retained windows.
    pub fn covered_cycles(&self) -> u64 {
        self.samples.iter().map(WindowSample::span).sum()
    }
}

/// Window retention policy.
///
/// [`Keep::All`] stores every window — right for post-processing a whole
/// run. [`Keep::Last`] keeps a bounded ring of the most recent windows
/// (evictions are counted in [`Telemetry::dropped`]) — right for tiny
/// windows or very long runs, e.g. "what led up to the fault".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Keep {
    /// Retain every window.
    All,
    /// Retain only the most recent `n` windows.
    Last(usize),
}

/// Previous cumulative counters of one Cell, diffed each window.
#[derive(Debug)]
struct PrevCell {
    tiles: Vec<CoreStats>,
    req: Vec<LinkStats>,
    resp: Vec<LinkStats>,
    hbm: Hbm2Stats,
}

/// The cycle-windowed sampling observer.
///
/// Driven by [`hb_core::Machine::tick`] at the end of each window: all
/// five BSP phases of every Cell plus the inter-Cell fabric have run, so
/// counters are quiescent. Each sample is a field-wise delta against the previous
/// cumulative snapshot, so the store holds true per-window activity.
#[derive(Debug)]
pub struct Sampler {
    window: u64,
    due: u64,
    last_end: u64,
    keep: Keep,
    prev: Vec<PrevCell>,
    store: SharedTelemetry,
}

impl Sampler {
    /// Builds a sampler for machines of shape `cfg`, firing every
    /// `window` cycles, writing into `store` (whose previous contents are
    /// reset).
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero.
    pub fn new(cfg: &MachineConfig, window: u64, keep: Keep, store: SharedTelemetry) -> Sampler {
        assert!(window > 0, "telemetry window must be positive");
        let tiles = cfg.cell_dim.x as usize * cfg.cell_dim.y as usize;
        let routers = cfg.net_width() as usize * cfg.net_height() as usize;
        let prev = (0..cfg.num_cells)
            .map(|_| PrevCell {
                tiles: vec![CoreStats::default(); tiles],
                req: vec![LinkStats::default(); routers],
                resp: vec![LinkStats::default(); routers],
                hbm: Hbm2Stats::default(),
            })
            .collect();
        {
            let mut t = store.lock().unwrap();
            *t = Telemetry {
                window,
                dim: (cfg.cell_dim.x, cfg.cell_dim.y),
                net_dim: (cfg.net_width(), cfg.net_height()),
                num_cells: cfg.num_cells,
                ..Telemetry::default()
            };
        }
        Sampler {
            window,
            due: window,
            last_end: 0,
            keep,
            prev,
            store,
        }
    }

    fn take_sample(&mut self, machine: &mut Machine) {
        let end = machine.cycle();
        let mut cells = Vec::with_capacity(machine.num_cells());
        for ci in 0..machine.num_cells() {
            let cell = machine.cell(ci as u8);
            let prev = &mut self.prev[ci];
            let mut tiles = Vec::with_capacity(prev.tiles.len());
            let (w, h) = (cell.pgas().cell_w, cell.pgas().cell_h);
            for y in 0..h {
                for x in 0..w {
                    let idx = y as usize * w as usize + x as usize;
                    let cur = cell.tile_stats(x, y);
                    tiles.push(cur - prev.tiles[idx]);
                    prev.tiles[idx] = cur;
                }
            }
            let req_cum = cell.request_net_snapshot();
            let req_net = req_cum
                .iter()
                .zip(&prev.req)
                .map(|(c, p)| *c - *p)
                .collect();
            prev.req = req_cum;
            let resp_cum = cell.response_net_snapshot();
            let resp_net = resp_cum
                .iter()
                .zip(&prev.resp)
                .map(|(c, p)| *c - *p)
                .collect();
            prev.resp = resp_cum;
            let hbm_cum = *cell.hbm_stats();
            let hbm = hbm_cum.delta_since(&prev.hbm);
            prev.hbm = hbm_cum;
            cells.push(CellWindow {
                tiles,
                req_net,
                resp_net,
                hbm,
            });
        }
        let mut t = self.store.lock().unwrap();
        for ci in 0..machine.num_cells() {
            machine.cell_mut(ci as u8).drain_obs_events(&mut t.events);
        }
        t.samples.push(WindowSample {
            start: self.last_end,
            end,
            cells,
        });
        if let Keep::Last(n) = self.keep {
            if t.samples.len() > n {
                let excess = t.samples.len() - n;
                t.samples.drain(..excess);
                t.dropped += excess as u64;
            }
        }
        t.final_cycle = end;
        self.last_end = end;
    }
}

impl MachineObserver for Sampler {
    fn sample(&mut self, machine: &mut Machine) {
        self.take_sample(machine);
        self.due += self.window;
    }

    fn next_due(&self) -> u64 {
        self.due
    }

    fn finish(&mut self, machine: &mut Machine) {
        if machine.cycle() > self.last_end {
            self.take_sample(machine);
        }
    }

    fn snapshot(&self) -> Option<Vec<u8>> {
        let mut w = hb_mem::SnapWriter::new();
        self.save_state(&mut w);
        Some(w.into_bytes())
    }

    fn restore(&mut self, bytes: &[u8]) -> Result<(), SnapError> {
        let mut r = hb_mem::SnapReader::new(bytes);
        self.load_state(&mut r)?;
        r.finish()
    }
}

impl Sampler {
    fn save_window(&self, w: &mut hb_mem::SnapWriter) {
        w.u64(self.window);
    }

    /// The window length is configuration: a blob captured under another
    /// one would close its windows at the wrong cycles.
    fn check_window(&mut self, r: &mut hb_mem::SnapReader) -> Result<(), SnapError> {
        if r.u64()? != self.window {
            return Err(SnapError::Bad("Sampler window mismatch"));
        }
        Ok(())
    }
}

hb_mem::snap_state!(PrevCell [b"PREV"] {
    save: hbm;
    fixed: tiles, req, resp;
});
// The in-progress window: its due cycle, the last window boundary and the
// previous cumulative counters the next delta diffs against, so a restored
// run closes its windows at the same cycles with the same contents as the
// uninterrupted one. The retention policy and the store itself are
// host-side and travel separately.
hb_mem::snap_state!(Sampler [b"SAMP"] {
    save: due, last_end;
    fixed: prev;
    host: window, keep, store;
} extra (save_window, check_window));

#[cfg(test)]
mod tests {
    use super::*;
    use hb_core::CellDim;

    fn tiny_cfg() -> MachineConfig {
        MachineConfig {
            cell_dim: CellDim { x: 2, y: 2 },
            ..MachineConfig::baseline_16x8()
        }
    }

    fn idle_run(window: u64, keep: Keep, cycles: u64) -> SharedTelemetry {
        let cfg = tiny_cfg();
        let store = Arc::new(Mutex::new(Telemetry::default()));
        let mut machine = Machine::new(cfg.clone());
        machine.attach_observer(Box::new(Sampler::new(&cfg, window, keep, store.clone())));
        for _ in 0..cycles {
            machine.tick();
        }
        drop(machine);
        store
    }

    #[test]
    fn windows_tile_the_run_exactly() {
        let store = idle_run(64, Keep::All, 200);
        let t = store.lock().unwrap();
        assert_eq!(t.samples.len(), 4);
        let spans: Vec<(u64, u64)> = t.samples.iter().map(|s| (s.start, s.end)).collect();
        assert_eq!(spans, vec![(0, 64), (64, 128), (128, 192), (192, 200)]);
        assert_eq!(t.covered_cycles(), 200);
        assert_eq!(t.final_cycle, 200);
        assert_eq!(t.dropped, 0);
        assert_eq!(t.tiles_per_cell(), 4);
    }

    #[test]
    fn bounded_retention_keeps_the_newest_windows() {
        let store = idle_run(10, Keep::Last(3), 100);
        let t = store.lock().unwrap();
        assert_eq!(t.samples.len(), 3);
        assert_eq!(t.dropped, 7);
        assert_eq!(t.samples.last().unwrap().end, 100);
        assert_eq!(t.samples[0].start, 70);
    }

    #[test]
    fn idle_machine_has_empty_deltas() {
        let store = idle_run(50, Keep::All, 100);
        let t = store.lock().unwrap();
        for s in &t.samples {
            for cw in &s.cells {
                assert!(cw.tiles.iter().all(|st| st.total_cycles() == 0));
                assert!(cw.req_net.iter().all(|l| l.busy == 0 && l.flits == 0));
                assert_eq!(cw.hbm.reads + cw.hbm.writes, 0);
            }
        }
        assert!(t.events.is_empty());
        // Aggregation over empty windows is empty too.
        let agg = t.aggregate(0);
        assert!(agg.tiles.iter().all(|st| st.instrs == 0));
    }
}
