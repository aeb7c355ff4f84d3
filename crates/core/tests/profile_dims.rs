//! §III.D profiling tools across non-baseline Cell shapes.
//!
//! The fig15 resource-doubling sweeps build Cells well away from the 16x8
//! baseline; capture, the mesh maps and the full report must work on all
//! of them (regression: tooling hardcoding the baseline shape would panic
//! or render truncated grids here).

use hb_asm::Assembler;
use hb_core::profile::CellProfile;
use hb_core::{pgas, CellDim, HbOps, Machine, MachineConfig};
use hb_obs::{heatmap, Keep, Sampler, SharedTelemetry};
use std::sync::Arc;

/// Runs a small all-tiles kernel (rank into DRAM, then barrier) under the
/// telemetry sampler and captures the resulting profile and store.
fn profiled(dim: CellDim) -> (CellProfile, SharedTelemetry) {
    let cfg = MachineConfig {
        cell_dim: dim,
        ..MachineConfig::baseline_16x8()
    };
    let tiles = u32::from(dim.x) * u32::from(dim.y);
    let mut m = Machine::new(cfg.clone());
    let store = SharedTelemetry::default();
    m.attach_observer(Box::new(Sampler::new(&cfg, 100, Keep::All, store.clone())));
    let mut a = Assembler::new();
    a.tg_rank(hb_isa::Gpr::T0, hb_isa::Gpr::T6);
    a.slli(hb_isa::Gpr::T1, hb_isa::Gpr::T0, 2);
    a.add(hb_isa::Gpr::A0, hb_isa::Gpr::A0, hb_isa::Gpr::T1);
    a.sw(hb_isa::Gpr::T0, hb_isa::Gpr::A0, 0);
    a.fence();
    a.barrier(hb_isa::Gpr::T6);
    a.ecall();
    let p = Arc::new(a.assemble(0).unwrap());
    let out = m.cell_mut(0).alloc(tiles * 4, 64);
    m.launch(0, &p, &[pgas::local_dram(out)]);
    m.run(1_000_000).unwrap();
    m.detach_observer(); // flushes the final partial window
    (CellProfile::capture(m.cell(0)), store)
}

/// The grid lines of a map: between its title line and its legend line.
fn grid(map: &str) -> Vec<&str> {
    let lines: Vec<&str> = map.lines().collect();
    assert!(lines.last().unwrap().starts_with("shade ramp"), "{map}");
    lines[1..lines.len() - 1].to_vec()
}

fn check_dim(dim: CellDim) {
    let (p, store) = profiled(dim);
    let t = store.lock().unwrap();
    assert_eq!(p.dim, (dim.x, dim.y));
    assert_eq!(p.tiles.len(), dim.x as usize * dim.y as usize);
    assert_eq!(t.dim, (dim.x, dim.y));

    // The tile map is dim.y rows of dim.x glyphs; the router map adds the
    // north and south cache-strip rows.
    let tiles = heatmap::tile_utilization(&t, 0);
    let routers = heatmap::link_occupancy(&t, 0);
    for (map, rows) in [(&tiles, dim.y as usize), (&routers, dim.y as usize + 2)] {
        let grid = grid(map);
        assert_eq!(grid.len(), rows, "grid rows for {dim:?}:\n{map}");
        for row in grid {
            assert_eq!(row.chars().count(), dim.x as usize, "grid cols for {dim:?}");
        }
    }
    // The full report renders (includes the bottleneck verdict).
    let report = p.report();
    for needle in ["stall blame", "HBM2", "verdict"] {
        assert!(report.contains(needle), "{dim:?} report missing {needle}");
    }
    assert!(p.bottleneck().contains("% of cycles") || p.bottleneck().contains("DRAM"));
}

#[test]
fn profile_tools_handle_1x1() {
    check_dim(CellDim { x: 1, y: 1 });
}

#[test]
fn profile_tools_handle_16x16() {
    check_dim(CellDim { x: 16, y: 16 });
}

#[test]
fn profile_tools_handle_32x8() {
    check_dim(CellDim { x: 32, y: 8 });
}
