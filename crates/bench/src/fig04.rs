//! Figure 4: hardware-barrier latency vs group size — Ruche vs plain
//! mesh barrier wiring vs a software tree barrier estimate.

use crate::{header, row};
use hb_noc::{BarrierNetwork, Coord};
use hb_serve::cli::Args;

/// One full barrier round (all tiles join at cycle 0): cycles until the
/// last release.
fn hw_latency(w: u8, h: u8, rf: u8) -> u64 {
    let mut net = BarrierNetwork::tree_for_group(w, h, rf);
    for y in 0..h {
        for x in 0..w {
            net.join(Coord::new(x, y));
        }
    }
    for _ in 0..100_000 {
        net.tick();
        if (0..h).all(|y| (0..w).all(|x| net.is_released(Coord::new(x, y)))) {
            return net.cycle();
        }
    }
    panic!("barrier never completed");
}

/// Software tree barrier estimate: log2(n) combining rounds, each a
/// remote atomic round trip (~2 network traversals + cache-bank access).
fn sw_estimate(tiles: u32, round_trip: u64) -> u64 {
    let rounds = 32 - (tiles - 1).leading_zeros();
    2 * u64::from(rounds) * round_trip
}

pub fn run(_: &Args) {
    println!("Figure 4 — barrier latency vs tile-group size\n");
    let widths = [10usize, 12, 12, 14];
    header(
        &["group", "HW ruche-3", "HW mesh", "SW tree (est)"],
        &widths,
    );
    for (w, h) in [
        (2u8, 2u8),
        (4, 2),
        (4, 4),
        (8, 4),
        (8, 8),
        (16, 8),
        (16, 16),
        (32, 8),
    ] {
        let tiles = u32::from(w) * u32::from(h);
        row(
            &[
                format!("{w}x{h}"),
                hw_latency(w, h, 3).to_string(),
                hw_latency(w, h, 0).to_string(),
                sw_estimate(tiles, 40).to_string(),
            ],
            &widths,
        );
    }
    println!(
        "\npaper: with Ruche-3 links the remotest tile's signal reaches the root\n\
         of a 16-wide Cell in ~8 cycles; HW barrier latency scales far better\n\
         than software barriers as the group grows."
    );
}
