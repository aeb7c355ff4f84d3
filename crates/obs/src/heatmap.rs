//! Textual mesh heatmaps over the telemetry store: where on the Cell the
//! time went, aggregated over the retained windows (the time-resolved
//! counterpart of `hb_core::profile::CellProfile`'s end-of-run maps, in
//! the same shade ramp).

use crate::Telemetry;
use hb_core::profile::shade;
use std::fmt::Write as _;

/// The shade ramp, for legends.
pub fn legend() -> String {
    format!(
        "shade ramp: '{}' = 0% .. '{}' = 100%",
        shade(0.0),
        shade(1.0)
    )
}

/// Per-tile utilization heatmap (execute cycles / covered cycles),
/// aggregated over the retained windows of `cell`. Row 0 is the north row.
pub fn tile_utilization(t: &Telemetry, cell: usize) -> String {
    let agg = t.aggregate(cell);
    let covered = t.covered_cycles().max(1) as f64;
    let (w, h) = t.dim;
    let mut out = format!(
        "tile utilization over {} windows, {} cycles (row 0 = north)\n",
        t.samples.len(),
        t.covered_cycles()
    );
    for y in 0..h {
        for x in 0..w {
            let s = &agg.tiles[y as usize * w as usize + x as usize];
            out.push(shade((s.int_cycles + s.fp_cycles) as f64 / covered));
        }
        out.push('\n');
    }
    let _ = writeln!(out, "{}", legend());
    out
}

/// Per-router link occupancy heatmap (busy cycles, request + response
/// networks summed, normalized to the hottest router), aggregated over
/// the retained windows of `cell`. The router grid includes the two cache
/// I/O rows: row 0 and the last row are the north/south bank strips; the
/// tile rows sit between them.
pub fn link_occupancy(t: &Telemetry, cell: usize) -> String {
    let agg = t.aggregate(cell);
    let (w, h) = t.net_dim;
    let busy: Vec<u64> = agg
        .req_net
        .iter()
        .zip(&agg.resp_net)
        .map(|(a, b)| a.busy + b.busy)
        .collect();
    let max = busy.iter().copied().max().unwrap_or(0).max(1) as f64;
    let mut out = format!(
        "router occupancy over {} windows, hottest = {} busy cycles \
         (rows 0 and {} = cache strips)\n",
        t.samples.len(),
        busy.iter().copied().max().unwrap_or(0),
        h.saturating_sub(1)
    );
    for y in 0..h {
        for x in 0..w {
            out.push(shade(
                busy[y as usize * w as usize + x as usize] as f64 / max,
            ));
        }
        out.push('\n');
    }
    let _ = writeln!(out, "{}", legend());
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CellWindow, WindowSample};
    use hb_core::CoreStats;
    use hb_noc::LinkStats;

    fn store() -> Telemetry {
        let hot = CoreStats {
            int_cycles: 100,
            ..CoreStats::default()
        };
        let hot_link = LinkStats {
            busy: 50,
            stalled: 0,
            flits: 50,
        };
        Telemetry {
            window: 100,
            dim: (2, 1),
            net_dim: (2, 3),
            num_cells: 1,
            samples: vec![WindowSample {
                start: 0,
                end: 100,
                cells: vec![CellWindow {
                    tiles: vec![hot, CoreStats::default()],
                    req_net: vec![
                        hot_link,
                        LinkStats::default(),
                        LinkStats::default(),
                        LinkStats::default(),
                        LinkStats::default(),
                        LinkStats::default(),
                    ],
                    resp_net: vec![LinkStats::default(); 6],
                    hbm: hb_mem::Hbm2Stats::default(),
                }],
            }],
            events: vec![],
            final_cycle: 100,
            dropped: 0,
        }
    }

    #[test]
    fn utilization_grid_shades_hot_and_cold_tiles() {
        let map = tile_utilization(&store(), 0);
        let grid: Vec<&str> = map.lines().collect();
        // title + 1 tile row + legend
        assert_eq!(grid.len(), 3, "{map}");
        assert_eq!(grid[1].chars().count(), 2);
        assert_eq!(grid[1].chars().next().unwrap(), '@');
        assert_eq!(grid[1].chars().nth(1).unwrap(), ' ');
    }

    #[test]
    fn occupancy_grid_covers_the_router_array() {
        let map = link_occupancy(&store(), 0);
        let grid: Vec<&str> = map.lines().collect();
        // title + 3 router rows + legend
        assert_eq!(grid.len(), 5, "{map}");
        assert_eq!(grid[1].chars().next().unwrap(), '@');
        assert!(map.contains("hottest = 50 busy cycles"), "{map}");
    }
}
