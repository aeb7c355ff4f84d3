//! The CSR window has one specification, `hb_core::pgas::csr::loadable`.
//! For every word of the window, a load traps on the cycle-level tile
//! exactly where the functional bus refuses it and the predicate says no,
//! and the linter flags a constant-address load of it exactly there.

use hb_asm::Assembler;
use hb_core::pgas::{csr, CSR_BASE};
use hb_core::{CellDim, IssTile, Machine, MachineConfig, SimError};
use hb_isa::Gpr::*;
use hb_iss::Bus;
use hb_lint::{lint, LintConfig, Rule};
use std::sync::Arc;

#[test]
fn every_csr_word_loads_alike_in_the_tile_the_bus_and_the_linter() {
    let cfg = MachineConfig {
        cell_dim: CellDim { x: 1, y: 1 },
        ..MachineConfig::baseline_16x8()
    };
    let lc = LintConfig::for_machine(&cfg);
    let mut loadable = 0;
    for offset in (CSR_BASE..CSR_BASE + 0x100).step_by(4) {
        let mut a = Assembler::new();
        a.li_u(T1, offset);
        a.lw(T2, T1, 0);
        a.ecall();
        let program = Arc::new(a.assemble(0).unwrap());
        let mut machine = Machine::new(cfg.clone());
        machine.launch(0, &program, &[]);
        let bus_ok = IssTile::from_machine(&machine, 0, (0, 0))
            .bus
            .load(offset, 4)
            .is_ok();
        let tile_ok = match machine.run(10_000) {
            Ok(_) => true,
            Err(SimError::Fault(_)) => false,
            Err(e) => panic!("{offset:#x}: {e}"),
        };
        let flagged = lint(&program, &lc)
            .iter()
            .any(|d| d.rule == Rule::BadCsrAccess);
        let spec = csr::loadable(offset);
        assert_eq!(tile_ok, spec, "{offset:#x}: tile vs pgas::csr::loadable");
        assert_eq!(bus_ok, spec, "{offset:#x}: FuncBus vs pgas::csr::loadable");
        assert_eq!(flagged, !spec, "{offset:#x}: linter vs pgas::csr::loadable");
        loadable += usize::from(spec);
    }
    // 16 named read CSRs and the 8 argument words.
    assert_eq!(loadable, 24);
}
