//! §III.D profiling tools across non-baseline Cell shapes.
//!
//! The fig15 resource-doubling sweeps build Cells well away from the 16x8
//! baseline; capture, heatmaps and the full report must work on all of
//! them (regression: tooling hardcoding the
//! baseline shape would panic or render truncated grids here).

use hb_asm::Assembler;
use hb_core::profile::CellProfile;
use hb_core::{pgas, CellDim, HbOps, Machine, MachineConfig};
use std::sync::Arc;

/// Runs a small all-tiles kernel (rank into DRAM, then barrier) and
/// captures the resulting profile.
fn profiled(dim: CellDim) -> CellProfile {
    let cfg = MachineConfig {
        cell_dim: dim,
        ..MachineConfig::baseline_16x8()
    };
    let tiles = u32::from(dim.x) * u32::from(dim.y);
    let mut m = Machine::new(cfg);
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
    CellProfile::capture(m.cell(0))
}

fn check_dim(dim: CellDim) {
    let p = profiled(dim);
    assert_eq!(p.dim, (dim.x, dim.y));
    assert_eq!(p.tiles.len(), dim.x as usize * dim.y as usize);
    assert_eq!(p.east_busy.len(), dim.x as usize * dim.y as usize);

    // Every grid renderer must emit exactly dim.y rows of dim.x glyphs.
    for map in [p.tile_heatmap(), p.link_heatmap()] {
        let rows: Vec<&str> = map.lines().skip(1).collect();
        assert_eq!(rows.len(), dim.y as usize, "grid rows for {dim:?}");
        for row in rows {
            assert_eq!(row.chars().count(), dim.x as usize, "grid cols for {dim:?}");
        }
    }
    // The full report renders (includes the bottleneck verdict).
    let report = p.report();
    for needle in ["tile utilization", "stall blame", "HBM2", "verdict"] {
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
