//! Figure 3: utilization of the bisection links between two adjacent
//! Cells while 1 MB of sparse, random data transfers to the neighbor
//! Cell's banks — HB's word-per-packet uniform network vs a hierarchical
//! manycore's 1024-bit block channels.

use crate::{header, row, scale};
use hb_hier::BlockChannel;
use hb_kernels::SizeClass;
use hb_noc::{Coord, Network, NetworkConfig, Packet, RouteOrder};
use hb_rng::Rng;
use hb_serve::cli::Args;

pub fn run(_: &Args) {
    let words: usize = match scale() {
        SizeClass::Tiny => 16 * 1024 / 4,
        _ => 1024 * 1024 / 4, // the paper's 1 MB
    };
    println!(
        "Figure 3 — bisection utilization during a {}-word sparse random transfer\n",
        words
    );

    // Two 16x8 Cells side by side: a 32-wide network; the inter-Cell
    // bisection is the x=16 cut. Every left-Cell tile streams stores to
    // random right-Cell bank locations.
    let (horiz, h_cycles) = run_transfer(words, true);
    let (vert, v_cycles) = run_transfer(words, false);

    // Hierarchical comparator: the same words over a 128-byte-block
    // channel pair.
    let mut hier = BlockChannel::new(128, BlockChannel::random_workload(words, 1 << 20, 7));
    while !hier.is_done() {
        hier.tick();
    }

    let widths = [34usize, 12, 12];
    header(&["configuration", "mean util", "cycles"], &widths);
    row(
        &[
            "HB horizontal (Ruche bisection)".into(),
            format!("{:.1}%", horiz * 100.0),
            h_cycles.to_string(),
        ],
        &widths,
    );
    row(
        &[
            "HB vertical (mesh bisection)".into(),
            format!("{:.1}%", vert * 100.0),
            v_cycles.to_string(),
        ],
        &widths,
    );
    row(
        &[
            "Hierarchical 1024-bit channels".into(),
            format!("{:.1}%", hier.mean_utilization() * 100.0),
            hier.cycle().to_string(),
        ],
        &widths,
    );
    println!(
        "\npaper: HB sustains 80-90% on sparse random inter-Cell transfers;\n\
         block-channel hierarchical designs waste the wide links on sparse data."
    );
}

/// Streams `words` random single-word packets from one Cell into the
/// adjacent Cell; returns (mean bisection utilization, cycles).
fn run_transfer(words: usize, horizontal: bool) -> (f64, u64) {
    // Horizontal adjacency: 32x10 grid, cut at x=16 (Ruche links count).
    // Vertical adjacency: 16x20 grid, traffic crosses mesh N/S links; we
    // measure delivered words per cycle over the 16-link cut.
    let (w, h) = if horizontal { (32u8, 10u8) } else { (16, 20) };
    let mut net: Network<u32> = Network::new(NetworkConfig {
        width: w,
        height: h,
        ruche_factor: 3,
        order: RouteOrder::XThenY,
        fifo_depth: 4,
        link_occupancy: 1,
    });
    let mut rng = Rng::seed_from_u64(0xF163);
    let mut sent = 0usize;
    let mut received = 0usize;
    let start = net.cycle();
    // Injection sources: every node of the source Cell (tiles and banks
    // both generate traffic in the paper's transfer scenario).
    let sources: Vec<Coord> = if horizontal {
        (0..16u8)
            .flat_map(|x| (0..10u8).map(move |y| Coord::new(x, y)))
            .collect()
    } else {
        (0..16u8)
            .flat_map(|x| (0..10u8).map(move |y| Coord::new(x, y)))
            .collect()
    };
    while received < words {
        for &src in &sources {
            if sent < words && net.can_inject(src) {
                // Random bank node in the destination Cell.
                let dst = if horizontal {
                    let x = 16 + rng.range_u32(0, 16) as u8;
                    let y = if rng.chance(0.5) { 0 } else { 9 };
                    Coord::new(x, y)
                } else {
                    let x = rng.range_u32(0, 16) as u8;
                    let y = if rng.chance(0.5) { 10 } else { 19 };
                    Coord::new(x, y)
                };
                net.inject(
                    src,
                    Packet {
                        src,
                        dst,
                        payload: sent as u32,
                    },
                );
                sent += 1;
            }
        }
        net.tick();
        for y in 0..h {
            for x in 0..w {
                while net.eject(Coord::new(x, y)).is_some() {
                    received += 1;
                }
            }
        }
    }
    let cycles = net.cycle() - start;
    // Utilization: words that crossed the cut / (cut links * cycles).
    // Every word crosses exactly once.
    let links = if horizontal {
        // One direction of the x=16 cut carries the payload.
        net.bisection_link_count(16) / 2
    } else {
        16 // southward mesh links on the y=10 cut
    };
    let util = words as f64 / (links as f64 * cycles as f64);
    (util, cycles)
}
