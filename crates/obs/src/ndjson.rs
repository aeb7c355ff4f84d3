//! Newline-delimited JSON exporter: one self-describing object per line
//! (`"type"` discriminates), for ad-hoc scripting (`jq`, pandas). Per-tile
//! lines embed [`hb_core::CoreStats::to_json_line`] verbatim, so the
//! schema is shared with everything else that serializes core counters.

use crate::Telemetry;
use hb_core::observe::ObsKind;
use std::fmt::Write as _;

/// Renders the whole store as NDJSON.
pub fn to_string(t: &Telemetry) -> String {
    let mut out = String::new();
    let (w, h) = t.dim;
    let _ = writeln!(
        out,
        "{{\"type\":\"meta\",\"window\":{},\"cells\":{},\"dim\":[{},{}],\
         \"net_dim\":[{},{}],\"final_cycle\":{},\"dropped_windows\":{}}}",
        t.window, t.num_cells, w, h, t.net_dim.0, t.net_dim.1, t.final_cycle, t.dropped
    );
    for s in &t.samples {
        for (ci, cw) in s.cells.iter().enumerate() {
            for y in 0..h {
                for x in 0..w {
                    let st = &cw.tiles[y as usize * w as usize + x as usize];
                    let _ = writeln!(
                        out,
                        "{{\"type\":\"tile\",\"cell\":{ci},\"start\":{},\"end\":{},\
                         \"x\":{x},\"y\":{y},\"stats\":{}}}",
                        s.start,
                        s.end,
                        st.to_json_line()
                    );
                }
            }
            let hb = &cw.hbm;
            let _ = writeln!(
                out,
                "{{\"type\":\"hbm\",\"cell\":{ci},\"start\":{},\"end\":{},\
                 \"read_cycles\":{},\"write_cycles\":{},\"busy_cycles\":{},\
                 \"idle_cycles\":{},\"refresh_cycles\":{},\"reads\":{},\"writes\":{}}}",
                s.start,
                s.end,
                hb.read_cycles,
                hb.write_cycles,
                hb.busy_cycles,
                hb.idle_cycles,
                hb.refresh_cycles,
                hb.reads,
                hb.writes
            );
            let join = |f: &dyn Fn(&hb_noc::LinkStats) -> u64, links: &[hb_noc::LinkStats]| {
                links
                    .iter()
                    .map(|l| f(l).to_string())
                    .collect::<Vec<_>>()
                    .join(",")
            };
            let _ = writeln!(
                out,
                "{{\"type\":\"noc\",\"cell\":{ci},\"start\":{},\"end\":{},\
                 \"req_busy\":[{}],\"req_flits\":[{}],\"resp_busy\":[{}],\"resp_flits\":[{}]}}",
                s.start,
                s.end,
                join(&|l| l.busy, &cw.req_net),
                join(&|l| l.flits, &cw.req_net),
                join(&|l| l.busy, &cw.resp_net),
                join(&|l| l.flits, &cw.resp_net),
            );
        }
    }
    for ev in &t.events {
        let (kind, value) = match ev.kind {
            ObsKind::Mark(v) => ("mark", i64::from(v)),
            ObsKind::BarrierJoin => ("barrier", -1),
            ObsKind::FenceRetire => ("fence_retire", -1),
            ObsKind::Fault => ("fault", -1),
            ObsKind::Inject(k) => ("inject", i64::from(k as u8)),
            ObsKind::Retransmit => ("retransmit", -1),
            ObsKind::Race => ("race", -1),
            ObsKind::Park(Some(k)) => ("park", k as i64),
            ObsKind::Park(None) => ("park", -1),
            ObsKind::Wake => ("wake", -1),
        };
        let _ = writeln!(
            out,
            "{{\"type\":\"event\",\"cell\":{},\"cycle\":{},\"x\":{},\"y\":{},\
             \"kind\":\"{kind}\",\"value\":{value}}}",
            ev.cell, ev.cycle, ev.tile.0, ev.tile.1
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CellWindow, WindowSample};
    use hb_core::CoreStats;

    #[test]
    fn every_line_is_one_valid_json_object() {
        let t = Telemetry {
            window: 10,
            dim: (2, 1),
            net_dim: (2, 3),
            num_cells: 1,
            samples: vec![WindowSample {
                start: 0,
                end: 10,
                cells: vec![CellWindow {
                    tiles: vec![CoreStats::default(); 2],
                    req_net: vec![hb_noc::LinkStats::default(); 6],
                    resp_net: vec![hb_noc::LinkStats::default(); 6],
                    hbm: hb_mem::Hbm2Stats::default(),
                }],
            }],
            events: vec![hb_core::ObsEvent {
                cycle: 5,
                cell: 0,
                tile: (0, 0),
                kind: hb_core::ObsKind::BarrierJoin,
            }],
            final_cycle: 10,
            dropped: 0,
        };
        let doc = to_string(&t);
        let lines: Vec<&str> = doc.lines().collect();
        // meta + 2 tiles + hbm + noc + 1 event
        assert_eq!(lines.len(), 6, "{doc}");
        for line in &lines {
            crate::json::validate(line).unwrap_or_else(|e| panic!("bad line {line}: {e}"));
            assert!(line.starts_with("{\"type\":\""), "{line}");
        }
        assert!(lines[0].contains("\"window\":10"));
        assert!(lines[5].contains("\"kind\":\"barrier\""));
    }
}
