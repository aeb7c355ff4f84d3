//! Folded-stack exporter: one `frame;frame;...;frame count` line per
//! leaf, the interchange format of `flamegraph.pl` and Speedscope.
//!
//! Stacks are synthesized as `kernel;phase;block`, with one extra
//! `stall:<kind>` leaf per stall category, and counts are **cycles**:
//!
//! ```text
//! sgemm;main;blk_0x0040 5120
//! sgemm;main;blk_0x0040;stall:remote_ld 890
//! ```
//!
//! Execute cycles sit on the block frame itself, stall cycles nest one
//! frame deeper, so the rendered flamegraph's total width is the
//! machine's guest tile-cycles and each block's width is its inclusive
//! cost. Lines are emitted phases-then-blocks-then-kinds in the stored
//! deterministic order and zero counts are skipped, so the output is
//! byte-identical for bit-identical profiles.

use crate::Analysis;
use hb_core::StallKind;
use std::fmt::Write as _;
use std::io;

/// Renders the analysis as folded-stack text.
pub fn to_string(a: &Analysis) -> String {
    let mut out = String::new();
    for ph in &a.phases {
        let phase = crate::phase_name(ph.mark);
        for row in &ph.rows {
            let frame = row.label();
            if row.retired > 0 {
                let _ = writeln!(out, "{};{phase};{frame} {}", a.kernel, row.retired);
            }
            for kind in StallKind::ALL {
                let n = row.stalls[kind as usize];
                if n > 0 {
                    let _ = writeln!(
                        out,
                        "{};{phase};{frame};stall:{} {n}",
                        a.kernel,
                        kind.label()
                    );
                }
            }
        }
    }
    out
}

/// Writes [`to_string`] to `w`.
pub fn write<W: io::Write>(a: &Analysis, w: &mut W) -> io::Result<()> {
    w.write_all(to_string(a).as_bytes())
}

#[cfg(test)]
mod tests {
    use crate::{Analysis, ProfRun};
    use hb_core::{GuestProfile, Machine, MachineConfig, StallKind};
    use std::sync::Arc;

    fn tiny_run() -> ProfRun {
        // Assemble a 4-instruction program and profile it synthetically
        // by running a real machine (ensures GuestProfile's shape).
        let mut asm = hb_asm::Assembler::new();
        use hb_isa::Gpr::*;
        asm.li(A0, 1);
        asm.li(A1, 2);
        asm.add(A2, A0, A1);
        asm.ecall();
        let program = Arc::new(asm.assemble(0).unwrap());

        let cfg = MachineConfig {
            cell_dim: hb_core::CellDim { x: 1, y: 1 },
            ..MachineConfig::baseline_16x8()
        };
        let mut machine = Machine::new(cfg);
        machine.set_profile(true);
        machine.launch(0, &program, &[]);
        machine.run(10_000).unwrap();
        ProfRun::capture(&machine, program).unwrap()
    }

    #[test]
    fn stacks_sum_to_tile_cycles_and_frames_are_well_formed() {
        let a = Analysis::analyze("tiny", &tiny_run());
        let doc = super::to_string(&a);
        let mut total = 0u64;
        for line in doc.lines() {
            let (stack, count) = line.rsplit_once(' ').expect("count suffix");
            total += count.parse::<u64>().unwrap();
            let frames: Vec<&str> = stack.split(';').collect();
            assert!(frames.len() == 3 || frames.len() == 4, "{line}");
            assert_eq!(frames[0], "tiny");
            assert_eq!(frames[1], "main");
            assert!(frames[2].starts_with("blk_0x"), "{line}");
            if let Some(leaf) = frames.get(3) {
                let kind = leaf.strip_prefix("stall:").expect("stall leaf");
                assert!(StallKind::ALL.iter().any(|k| k.label() == kind), "{line}");
            }
        }
        assert_eq!(total, a.tile_cycles());
        assert!(a.retired >= 4, "one tile retires all four instructions");
    }

    #[test]
    fn empty_profile_renders_empty() {
        let run = ProfRun {
            program: tiny_run().program,
            profile: GuestProfile {
                base: 0,
                instrs: 4,
                phases: Vec::new(),
            },
            cycles: 0,
        };
        let a = Analysis::analyze("tiny", &run);
        assert!(super::to_string(&a).is_empty());
        assert_eq!(a.phases.len(), 0);
    }
}
