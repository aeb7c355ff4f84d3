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

/// A sub-word load of an argument CSR reads the addressed bytes of its word
/// (`csr::narrow`), extended by the opcode — on the cycle-level tile and in
/// the ISS over `FuncBus` alike, at every byte offset of every argument.
/// Bytes past the word read as zero, so `lh` at a word's last byte keeps
/// one byte.
#[test]
fn sub_word_argument_loads_agree_in_the_tile_and_the_iss() {
    let cfg = MachineConfig {
        cell_dim: CellDim { x: 1, y: 1 },
        ..MachineConfig::baseline_16x8()
    };
    let args: Vec<u32> = (0..8u32).map(|i| 0x8899_aabb ^ (i * 0x0101_0101)).collect();
    type Load = for<'a> fn(&'a mut Assembler, hb_isa::Gpr, hb_isa::Gpr, i32) -> &'a mut Assembler;
    let ops: [(&str, Load, u32, bool); 4] = [
        ("lb", Assembler::lb, 1, true),
        ("lbu", Assembler::lbu, 1, false),
        ("lh", Assembler::lh, 2, true),
        ("lhu", Assembler::lhu, 2, false),
    ];
    for (name, op, width, signed) in ops {
        for offset in csr::ARG0..csr::ARG0 + 32 {
            let word = args[((offset - csr::ARG0) / 4) as usize];
            let bytes = word >> (8 * (offset % 4));
            let expect = match (width, signed) {
                (1, true) => bytes as u8 as i8 as i32 as u32,
                (1, false) => bytes & 0xff,
                (_, true) => bytes as u16 as i16 as i32 as u32,
                (_, false) => bytes & 0xffff,
            };
            let mut a = Assembler::new();
            a.li_u(T1, offset);
            op(&mut a, T2, T1, 0);
            a.ecall();
            let program = Arc::new(a.assemble(0).unwrap());
            let mut machine = Machine::new(cfg.clone());
            machine.launch(0, &program, &args);
            let mut iss = IssTile::from_machine(&machine, 0, (0, 0));
            iss.hart.run(&program, &mut iss.bus, 100).unwrap();
            machine.run(10_000).unwrap();
            let tile = machine.cell(0).tile(0, 0).reg(T2);
            let at = format!("{name} at ARG0 + {}", offset - csr::ARG0);
            assert_eq!(tile, expect, "{at}: tile");
            assert_eq!(iss.hart.regs[T2.index() as usize], expect, "{at}: ISS");
        }
    }
}
