//! Chrome trace-event JSON exporter (the "JSON Array Format" with a
//! `traceEvents` wrapper), loadable in Perfetto and `chrome://tracing`.
//!
//! Mapping:
//!
//! - one trace *process* per Cell, one trace *thread* per tile;
//! - one counter track per tile (`util (x,y)`, percent of the window
//!   spent retiring instructions) plus two Cell-wide counter tracks
//!   (`hbm` read/write percent of memory cycles, `noc flits` request/
//!   response packets per window), all stamped at the window-end cycle;
//! - one instant event per mark / barrier join / fence retire / fault,
//!   stamped at the cycle it happened on its tile's thread.
//!
//! Trace timestamps are microseconds; we emit **1 µs = 1 core cycle**, so
//! Perfetto's time axis reads directly in cycles.

use crate::json::escape;
use crate::Telemetry;
use hb_core::observe::ObsKind;
use std::fmt::Write as _;

/// Renders the whole store as one Chrome-trace JSON document.
pub fn to_string(t: &Telemetry) -> String {
    let mut out = String::from("{\"traceEvents\":[");
    let mut first = true;
    let mut push = |out: &mut String, ev: String| {
        if !std::mem::take(&mut first) {
            out.push(',');
        }
        out.push('\n');
        out.push_str(&ev);
    };

    let (w, h) = t.dim;
    let tid = |x: u8, y: u8| 1 + u64::from(y) * u64::from(w) + u64::from(x);

    // Track metadata: processes are Cells, threads are tiles.
    for cell in 0..t.num_cells {
        push(
            &mut out,
            format!(
                "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{cell},\
                 \"args\":{{\"name\":\"cell {cell}\"}}}}"
            ),
        );
        for y in 0..h {
            for x in 0..w {
                push(
                    &mut out,
                    format!(
                        "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":{cell},\
                         \"tid\":{},\"args\":{{\"name\":\"tile ({x},{y})\"}}}}",
                        tid(x, y)
                    ),
                );
            }
        }
    }

    // Counter tracks, one point per window.
    for s in &t.samples {
        let span = s.span().max(1) as f64;
        for (ci, cw) in s.cells.iter().enumerate() {
            for y in 0..h {
                for x in 0..w {
                    let st = &cw.tiles[y as usize * w as usize + x as usize];
                    let util = (st.int_cycles + st.fp_cycles) as f64 / span * 100.0;
                    push(
                        &mut out,
                        format!(
                            "{{\"name\":\"util ({x},{y})\",\"ph\":\"C\",\"pid\":{ci},\
                             \"ts\":{},\"args\":{{\"util\":{util:.2}}}}}",
                            s.end
                        ),
                    );
                }
            }
            let mem = (cw.hbm.denominator() + cw.hbm.refresh_cycles).max(1) as f64;
            push(
                &mut out,
                format!(
                    "{{\"name\":\"hbm\",\"ph\":\"C\",\"pid\":{ci},\"ts\":{},\
                     \"args\":{{\"read\":{:.2},\"write\":{:.2}}}}}",
                    s.end,
                    cw.hbm.read_cycles as f64 / mem * 100.0,
                    cw.hbm.write_cycles as f64 / mem * 100.0,
                ),
            );
            let req: u64 = cw.req_net.iter().map(|l| l.flits).sum();
            let resp: u64 = cw.resp_net.iter().map(|l| l.flits).sum();
            push(
                &mut out,
                format!(
                    "{{\"name\":\"noc flits\",\"ph\":\"C\",\"pid\":{ci},\"ts\":{},\
                     \"args\":{{\"req\":{req},\"resp\":{resp}}}}}",
                    s.end
                ),
            );
        }
    }

    // Instant events.
    for ev in &t.events {
        let name = match ev.kind {
            ObsKind::Mark(v) => format!("mark {v}"),
            ObsKind::BarrierJoin => "barrier join".to_owned(),
            ObsKind::FenceRetire => "fence retire".to_owned(),
            ObsKind::Fault => "fault".to_owned(),
            ObsKind::Inject(k) => format!("inject {}", k.label()),
            ObsKind::Retransmit => "noc retransmit".to_owned(),
            ObsKind::Race => "race".to_owned(),
            ObsKind::Park(Some(k)) => format!("park {}", k.label()),
            ObsKind::Park(None) => "park idle".to_owned(),
            ObsKind::Wake => "wake".to_owned(),
        };
        push(
            &mut out,
            format!(
                "{{\"name\":\"{}\",\"ph\":\"i\",\"pid\":{},\"tid\":{},\
                 \"ts\":{},\"s\":\"t\"}}",
                escape(&name),
                ev.cell,
                tid(ev.tile.0, ev.tile.1),
                ev.cycle
            ),
        );
    }

    let mut tail = String::new();
    let _ = write!(
        tail,
        "\n],\"displayTimeUnit\":\"ms\",\
         \"otherData\":{{\"window\":{},\"cells\":{},\"dim\":\"{}x{}\",\
         \"final_cycle\":{},\"dropped_windows\":{}}}}}",
        t.window, t.num_cells, t.dim.0, t.dim.1, t.final_cycle, t.dropped
    );
    out.push_str(&tail);
    out
}

/// Number of `"ph":"M"` metadata events [`to_string`] emits.
pub fn metadata_event_count(t: &Telemetry) -> usize {
    t.num_cells as usize * (1 + t.tiles_per_cell())
}

/// Number of `"ph":"C"` counter events [`to_string`] emits.
pub fn counter_event_count(t: &Telemetry) -> usize {
    let per_cell = t.tiles_per_cell() + 2; // tiles + hbm + noc
    t.samples
        .iter()
        .map(|s| s.cells.len() * per_cell)
        .sum::<usize>()
}

/// Number of `"ph":"i"` instant events [`to_string`] emits.
pub fn instant_event_count(t: &Telemetry) -> usize {
    t.events.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CellWindow, WindowSample};
    use hb_core::observe::ObsEvent;
    use hb_core::CoreStats;
    use hb_mem::Hbm2Stats;
    use hb_noc::LinkStats;

    fn synthetic() -> Telemetry {
        let busy = CoreStats {
            int_cycles: 40,
            fp_cycles: 10,
            instrs: 50,
            ..CoreStats::default()
        };
        let cw = CellWindow {
            tiles: vec![busy, CoreStats::default()],
            req_net: vec![
                LinkStats {
                    busy: 5,
                    stalled: 1,
                    flits: 5,
                };
                6
            ],
            resp_net: vec![LinkStats::default(); 6],
            hbm: Hbm2Stats {
                read_cycles: 30,
                idle_cycles: 70,
                reads: 7,
                ..Hbm2Stats::default()
            },
        };
        Telemetry {
            window: 100,
            dim: (2, 1),
            net_dim: (2, 3),
            num_cells: 1,
            samples: vec![
                WindowSample {
                    start: 0,
                    end: 100,
                    cells: vec![cw.clone()],
                },
                WindowSample {
                    start: 100,
                    end: 150,
                    cells: vec![cw],
                },
            ],
            events: vec![
                ObsEvent {
                    cycle: 42,
                    cell: 0,
                    tile: (1, 0),
                    kind: hb_core::ObsKind::Mark(3),
                },
                ObsEvent {
                    cycle: 60,
                    cell: 0,
                    tile: (0, 0),
                    kind: hb_core::ObsKind::Inject(hb_core::InjectKind::Spm),
                },
                ObsEvent {
                    cycle: 75,
                    cell: 0,
                    tile: (1, 0),
                    kind: hb_core::ObsKind::Retransmit,
                },
            ],
            final_cycle: 150,
            dropped: 0,
        }
    }

    #[test]
    fn trace_is_valid_json_with_expected_event_counts() {
        let t = synthetic();
        let doc = to_string(&t);
        crate::json::validate(&doc).unwrap_or_else(|e| panic!("invalid JSON: {e}\n{doc}"));
        assert_eq!(
            doc.matches("\"ph\":\"M\"").count(),
            metadata_event_count(&t)
        );
        assert_eq!(doc.matches("\"ph\":\"C\"").count(), counter_event_count(&t));
        assert_eq!(doc.matches("\"ph\":\"i\"").count(), instant_event_count(&t));
        assert_eq!(metadata_event_count(&t), 3); // 1 process + 2 threads
        assert_eq!(counter_event_count(&t), 8); // 2 windows x (2 tiles + 2)
                                                // The busy tile's first full window: 50 exec cycles / 100 = 50%.
        assert!(doc.contains("\"util\":50.00"), "{doc}");
        // The partial window normalizes by its true 50-cycle span: 100%.
        assert!(doc.contains("\"util\":100.00"), "{doc}");
        assert!(doc.contains("\"name\":\"mark 3\""), "{doc}");
        assert!(doc.contains("\"name\":\"inject spm\""), "{doc}");
        assert!(doc.contains("\"name\":\"noc retransmit\""), "{doc}");
        assert!(doc.contains("\"name\":\"tile (1,0)\""), "{doc}");
        assert!(doc.contains("\"read\":30.00"), "{doc}");
        assert!(doc.contains("\"req\":30"), "{doc}"); // 6 routers x 5 flits
    }
}
