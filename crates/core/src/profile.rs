//! Performance debugging tables (paper §III.D).
//!
//! The open-source HammerBlade release ships "an extensive set of custom
//! performance debugging and visualization tools, which analyze where and
//! why the processors spend most of the time during the kernel execution
//! and the utilization of DRAM, cache, processors, and network routers".
//! This module is the end-of-run half of that tooling for the simulator:
//! per-bank cache reports, the HBM2 line, a stall "blame" breakdown and a
//! bottleneck diagnosis. The mesh maps of tile and router utilization are
//! `hb_obs::heatmap`'s, over a sampled run; `hb-bench inspect` prints both.
//!
//! # Examples
//!
//! ```no_run
//! use hb_core::{profile::CellProfile, Machine, MachineConfig};
//!
//! let machine = Machine::new(MachineConfig::baseline_16x8());
//! // ... launch and run a kernel ...
//! let profile = CellProfile::capture(machine.cell(0));
//! println!("{}", profile.report());
//! ```

use crate::cell::Cell;
use crate::stats::{CoreStats, StallKind};
use hb_cache::CacheStats;
use hb_mem::Hbm2Stats;
use std::fmt::Write;

/// A post-run snapshot of one Cell's hardware counters, with its report.
#[derive(Debug, Clone)]
pub struct CellProfile {
    /// Tile array shape.
    pub dim: (u8, u8),
    /// Cycles the Cell has executed.
    pub cycles: u64,
    /// Per-tile core counters, row-major.
    pub tiles: Vec<CoreStats>,
    /// Per-bank cache counters.
    pub banks: Vec<CacheStats>,
    /// HBM2 channel counters.
    pub hbm: Hbm2Stats,
}

impl CellProfile {
    /// Captures a profile from a (finished or running) Cell.
    pub fn capture(cell: &Cell) -> CellProfile {
        let cfg = cell.pgas();
        let (w, h) = (cfg.cell_w, cfg.cell_h);
        let tiles = (0..h)
            .flat_map(|y| (0..w).map(move |x| (x, y)))
            .map(|(x, y)| cell.tile_stats(x, y))
            .collect();
        let banks = (0..cfg.banks()).map(|b| cell.bank_stats(b)).collect();
        CellProfile {
            dim: (w, h),
            cycles: cell.cycle(),
            tiles,
            banks,
            hbm: *cell.hbm_stats(),
        }
    }

    /// Aggregated core counters.
    pub fn aggregate(&self) -> CoreStats {
        let mut agg = CoreStats::default();
        for t in &self.tiles {
            agg += *t;
        }
        agg
    }

    /// Per-bank table: accesses, miss rate, atomics.
    pub fn bank_report(&self) -> String {
        let mut out = String::from("bank  hits      misses    wv-fills  amos      miss%\n");
        for (i, b) in self.banks.iter().enumerate() {
            let _ = writeln!(
                out,
                "{i:<5} {:<9} {:<9} {:<9} {:<9} {:.1}",
                b.hits,
                b.misses,
                b.write_validate_fills,
                b.amos,
                b.miss_rate() * 100.0
            );
        }
        out
    }

    /// Names the dominant bottleneck, in the spirit of the paper's "where
    /// and why the processors spend most of the time" tools.
    ///
    /// Shares are normalized against the aggregate cycle count and the
    /// verdict reports the winning share as a percentage. The
    /// DRAM-bandwidth check is independent of which stall category tops the
    /// table: a saturated HBM2 channel (>70% data-bus utilization) is the
    /// bottleneck even when the cores mostly show compute cycles, because
    /// adding tiles or MLP cannot help a full memory pipe.
    pub fn bottleneck(&self) -> String {
        let agg = self.aggregate();
        let total = agg.total_cycles().max(1) as f64;
        let exec = agg.int_cycles + agg.fp_cycles;
        let remote = agg.stall(StallKind::RemoteLoad) + agg.stall(StallKind::AmoDep);
        let barrier = agg.stall(StallKind::Barrier) + agg.stall(StallKind::Fence);
        let credit = agg.stall(StallKind::RemoteCredit);
        let fpu = agg.stall(StallKind::FpBusy) + agg.stall(StallKind::IntBusy);
        let hbm_busy = self.hbm.data_utilization();
        if hbm_busy > 0.7 {
            return format!(
                "DRAM-bandwidth-bound: needs more HBM2 bandwidth \
                 (data bus {:.0}% busy)",
                hbm_busy * 100.0
            );
        }
        let shares = [
            (exec as f64 / total, "compute-bound: add tiles"),
            (
                remote as f64 / total,
                "memory-latency-bound: increase MLP or cache locality",
            ),
            (
                barrier as f64 / total,
                "synchronization-bound: improve load balance",
            ),
            (
                credit as f64 / total,
                "network-injection-bound: reduce request rate or widen NoC",
            ),
            (
                fpu as f64 / total,
                "iterative-FPU-bound: pipeline fdiv/fsqrt or restructure math",
            ),
        ];
        let &(top, verdict) = shares.iter().max_by(|a, b| a.0.total_cmp(&b.0)).unwrap();
        format!("{verdict} ({:.0}% of cycles)", top * 100.0)
    }

    /// The §III.D-style tables: stall blame, the cache bank table, the
    /// HBM2 line and the bottleneck verdict.
    pub fn report(&self) -> String {
        let agg = self.aggregate();
        let mut out = String::new();
        let _ = writeln!(out, "=== Cell profile after {} cycles ===\n", self.cycles);
        out.push_str("stall blame (all tiles):\n");
        out.push_str(&crate::stats::utilization_report(&agg));
        out.push('\n');
        out.push_str(&self.bank_report());
        let denom = self.hbm.denominator().max(1) as f64;
        let _ = writeln!(
            out,
            "\nHBM2: read {:.1}%  write {:.1}%  busy {:.1}%  idle {:.1}%  (row hit {:.1}%)",
            self.hbm.read_cycles as f64 / denom * 100.0,
            self.hbm.write_cycles as f64 / denom * 100.0,
            self.hbm.busy_cycles as f64 / denom * 100.0,
            self.hbm.idle_cycles as f64 / denom * 100.0,
            self.hbm.row_hit_rate() * 100.0,
        );
        let _ = writeln!(out, "\nverdict: {}", self.bottleneck());
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fake_profile() -> CellProfile {
        let mut busy_tile = CoreStats {
            int_cycles: 90,
            ..CoreStats::default()
        };
        busy_tile.add_stall(StallKind::RemoteLoad);
        let mut idle_tile = CoreStats {
            int_cycles: 5,
            ..CoreStats::default()
        };
        for _ in 0..95 {
            idle_tile.add_stall(StallKind::Barrier);
        }
        CellProfile {
            dim: (2, 1),
            cycles: 100,
            tiles: vec![busy_tile, idle_tile],
            banks: vec![CacheStats::default()],
            hbm: Hbm2Stats::default(),
        }
    }

    #[test]
    fn bottleneck_diagnoses_barrier_imbalance() {
        let p = fake_profile();
        let verdict = p.bottleneck();
        assert!(verdict.contains("synchronization"));
        // The verdict reports the winning share normalized to total cycles:
        // 95 barrier stalls out of 191 aggregate cycles -> 50%.
        assert!(verdict.contains("50% of cycles"), "verdict: {verdict}");
    }

    #[test]
    fn saturated_hbm_wins_even_when_compute_bound() {
        // A compute-bound kernel (top share is execute cycles) on a >70%
        // busy HBM2 data bus must still be diagnosed as DRAM-bound: the
        // override is independent of which stall category tops the table.
        let mut p = fake_profile();
        p.hbm = Hbm2Stats {
            read_cycles: 80,
            write_cycles: 0,
            busy_cycles: 10,
            idle_cycles: 10,
            ..Hbm2Stats::default()
        };
        let verdict = p.bottleneck();
        assert!(
            verdict.contains("DRAM-bandwidth-bound"),
            "verdict: {verdict}"
        );
        assert!(verdict.contains("80%"), "verdict: {verdict}");
    }

    #[test]
    fn report_contains_all_sections() {
        let p = fake_profile();
        let r = p.report();
        for needle in ["stall blame", "miss%", "HBM2", "verdict"] {
            assert!(r.contains(needle), "report missing {needle}");
        }
        // The mesh maps are hb_obs::heatmap's: the report is tables only.
        assert!(!r.contains("row 0 = north"), "report renders a map:\n{r}");
    }
}
