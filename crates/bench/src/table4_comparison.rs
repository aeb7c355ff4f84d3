//! Table IV: manycore landscape comparison — networks, processor type,
//! and 14/16nm-scaled compute density.

use crate::{header, row};
use hb_serve::cli::Args;

struct Entry {
    name: &'static str,
    category: &'static str,
    networks: &'static str,
    processor: &'static str,
    cores: u32,
    fpus: u32,
    scaled_area_mm2: f64,
}

pub fn run(_: &Args) {
    println!("Table IV — manycore comparison (areas scaled to 14/16 nm)\n");
    // Literature data reproduced from the paper's Table IV.
    let entries = [
        Entry {
            name: "HammerBlade",
            category: "Cellular",
            networks: "2x 2-D Ruche",
            processor: "single-issue",
            cores: 2048,
            fpus: 2048,
            scaled_area_mm2: 77.5,
        },
        Entry {
            name: "TILE64",
            category: "Flat",
            networks: "5x 2-D mesh",
            processor: "VLIW",
            cores: 64,
            fpus: 0,
            scaled_area_mm2: 19.4,
        },
        Entry {
            name: "RAW",
            category: "Flat",
            networks: "4x 2-D mesh",
            processor: "single-issue",
            cores: 16,
            fpus: 16,
            scaled_area_mm2: 2.6,
        },
        Entry {
            name: "Celerity",
            category: "Flat",
            networks: "2x 2-D mesh",
            processor: "single-issue",
            cores: 496,
            fpus: 0,
            scaled_area_mm2: 15.3,
        },
        Entry {
            name: "Epiphany-V",
            category: "Flat",
            networks: "3x 2-D mesh",
            processor: "dual-issue",
            cores: 1024,
            fpus: 2048,
            scaled_area_mm2: 117.0,
        },
        Entry {
            name: "OpenPiton",
            category: "Flat",
            networks: "3x 2-D mesh",
            processor: "single-issue",
            cores: 25,
            fpus: 25,
            scaled_area_mm2: 11.1,
        },
        Entry {
            name: "ET-SoC-1",
            category: "Hierarchical",
            networks: "xbar + 2x CMesh",
            processor: "vector",
            cores: 1088,
            fpus: 8704,
            scaled_area_mm2: 1710.0,
        },
        Entry {
            name: "MemPool",
            category: "Hierarchical",
            networks: "xbar + butterfly",
            processor: "single-issue",
            cores: 256,
            fpus: 0,
            scaled_area_mm2: 8.6,
        },
    ];
    let hb_core_density = f64::from(entries[0].cores) / entries[0].scaled_area_mm2;
    let hb_fpu_density = f64::from(entries[0].fpus) / entries[0].scaled_area_mm2;

    let widths = [12usize, 13, 18, 13, 6, 6, 10, 10, 8];
    header(
        &[
            "design",
            "category",
            "networks",
            "processor",
            "cores",
            "FPUs",
            "cores/mm2",
            "FPUs/mm2",
            "HB adv",
        ],
        &widths,
    );
    for e in entries {
        let cd = f64::from(e.cores) / e.scaled_area_mm2;
        let fd = f64::from(e.fpus) / e.scaled_area_mm2;
        let adv = if cd > 0.0 {
            hb_core_density / cd
        } else {
            f64::INFINITY
        };
        row(
            &[
                e.name.to_owned(),
                e.category.to_owned(),
                e.networks.to_owned(),
                e.processor.to_owned(),
                e.cores.to_string(),
                e.fpus.to_string(),
                format!("{cd:.1}"),
                format!("{fd:.1}"),
                format!("{adv:.1}x"),
            ],
            &widths,
        );
    }
    println!(
        "\nHB: {hb_core_density:.1} cores/mm2, {hb_fpu_density:.1} FPUs/mm2 — up to 41.4x the core\n\
         density and 5.2x the FPU density of prior manycores (paper Table IV)."
    );
}
