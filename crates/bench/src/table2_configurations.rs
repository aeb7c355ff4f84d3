//! Table II: HB machine configurations and derived geometry.

use crate::{header, row};
use hb_core::MachineConfig;
use hb_serve::cli::Args;

pub fn run(_: &Args) {
    println!("Table II — HB machine configurations\n");
    // Paper-reported implementation areas (14/16 nm) per configuration.
    let configs: [(&str, MachineConfig, f64, &str); 4] = [
        ("16x8", MachineConfig::baseline_16x8(), 311.0, "8x8"),
        ("16x16", MachineConfig::cell_16x16(), 539.0, "8x8"),
        ("32x8", MachineConfig::cell_32x8(), 620.0, "8x8"),
        ("2x16x8", MachineConfig::two_cells_16x8(), 620.0, "16x8"),
    ];
    let widths = [9usize, 10, 10, 11, 13, 14, 12, 10];
    header(
        &[
            "config",
            "area mm2",
            "cells",
            "cores/cell",
            "banks/cell",
            "cache/cell KB",
            "total cores",
            "cores/mm2",
        ],
        &widths,
    );
    for (name, cfg, area, cell_array) in configs {
        let cells: u32 = {
            let parts: Vec<u32> = cell_array.split('x').map(|s| s.parse().unwrap()).collect();
            parts[0] * parts[1]
        };
        let cores_per_cell = cfg.cell_dim.tiles() as u32;
        let total = cores_per_cell * cells;
        row(
            &[
                name.to_owned(),
                format!("{area:.0}"),
                cell_array.to_owned(),
                cores_per_cell.to_string(),
                cfg.banks_per_cell().to_string(),
                (cfg.cell_cache_bytes() / 1024).to_string(),
                total.to_string(),
                format!("{:.1}", f64::from(total) / area),
            ],
            &widths,
        );
    }
    let base = MachineConfig::baseline_16x8();
    println!(
        "\nshared parameters: {} KB SPM + {} KB icache per tile, {} sets x {} ways\n\
         x {} B lines per bank, core {} MHz / HBM2 {} MHz, {}-entry scoreboard,\n\
         Ruche factor {}.",
        base.spm_bytes / 1024,
        base.icache_bytes / 1024,
        base.cache_sets,
        base.cache_ways,
        base.line_bytes,
        base.core_freq_mhz,
        base.mem_freq_mhz,
        base.max_outstanding,
        base.ruche_factor,
    );
    println!("paper cores/mm2: 26.4 (16x8), 30.3 (16x16), 26.4 (32x8), 26.4 (2x16x8).");
}
