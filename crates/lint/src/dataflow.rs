//! Register dataflow over the CFG: initialized-register analysis
//! (use-before-def), backward liveness (dead writes), and unreachable-block
//! detection.
//!
//! Registers are tracked in a 64-bit mask of `hb_isa::Reg` bits, read off
//! `Instr::operands`; `x0` (zero) is never a def or a use.

use crate::cfg::{Cfg, Terminator};
use crate::{Diagnostic, Rule, Severity};
use hb_isa::{Gpr, Instr, Reg};

/// Registers guaranteed to hold meaningful values when `Tile::launch` starts
/// a program: `sp` (top of SPM) and the kernel arguments `a0..a7` (`zero`
/// is never a use).
///
/// `Tile::launch` zeroes every other register, so reading one is not
/// undefined behaviour in the simulator — but it is almost always a kernel
/// bug, because no meaningful value was ever placed there.
pub fn entry_defined() -> u64 {
    use Gpr::*;
    [Sp, A0, A1, A2, A3, A4, A5, A6, A7]
        .into_iter()
        .flat_map(Reg::gpr)
        .fold(0, |m, r| m | r.bit())
}

/// Runs the forward initialized-registers analysis and reports
/// use-before-def.
///
/// Two lattices run side by side: *may-init* (union over predecessors) and
/// *must-init* (intersection). A use outside may-init is uninitialized on
/// every path — an [`Severity::Error`]. A use outside must-init but inside
/// may-init is uninitialized on *some* path; since the analysis is
/// path-insensitive that may be a false positive, so it is reported as a
/// [`Severity::Warning`].
pub fn check_use_before_def(cfg: &Cfg, instrs: &[Instr], diags: &mut Vec<Diagnostic>) {
    let n = cfg.blocks.len();
    if n == 0 {
        return;
    }
    let entry = entry_defined();
    // Per-block gen masks (defs anywhere in the block).
    let gen: Vec<u64> = cfg
        .blocks
        .iter()
        .map(|b| {
            instrs[b.start..b.end]
                .iter()
                .fold(0, |m, instr| m | instr.operands().defs())
        })
        .collect();

    let preds = cfg.preds();
    let reachable = cfg.reachable();
    let rpo = cfg.reverse_postorder();

    let mut may_in = vec![0u64; n];
    let mut must_in = vec![u64::MAX; n];
    may_in[0] = entry;
    must_in[0] = entry;

    loop {
        let mut changed = false;
        for &b in &rpo {
            if b != 0 {
                let mut may = 0u64;
                let mut must = u64::MAX;
                for &p in &preds[b] {
                    if !reachable[p] {
                        continue;
                    }
                    may |= may_in[p] | gen[p];
                    must &= must_in[p] | gen[p];
                }
                if preds[b].is_empty() {
                    must = 0;
                }
                if may != may_in[b] || must != must_in[b] {
                    may_in[b] = may;
                    must_in[b] = must;
                    changed = true;
                }
            }
        }
        if !changed {
            break;
        }
    }

    for (bi, b) in cfg.blocks.iter().enumerate() {
        if !reachable[bi] {
            continue;
        }
        let mut may = may_in[bi];
        let mut must = must_in[bi];
        for (off, instr) in instrs[b.start..b.end].iter().enumerate() {
            let i = b.start + off;
            let ops = instr.operands();
            let u = ops.uses();
            let never = u & !may;
            let maybe = u & may & !must;
            for r in Reg::in_mask(never | maybe) {
                if never & r.bit() != 0 {
                    diags.push(Diagnostic {
                        severity: Severity::Error,
                        pc: Some(cfg.pc_of(i)),
                        rule: Rule::UseBeforeDef,
                        message: format!(
                            "register {r} is read but never written on any path to this point \
                             (launch zeroes it, so this reads 0)"
                        ),
                    });
                } else {
                    diags.push(Diagnostic {
                        severity: Severity::Warning,
                        pc: Some(cfg.pc_of(i)),
                        rule: Rule::UseBeforeDef,
                        message: format!(
                            "register {r} may be read before it is written on some path"
                        ),
                    });
                }
            }
            may |= ops.defs();
            must |= ops.defs();
        }
    }
}

/// Backward liveness; reports writes whose value is never read.
///
/// ALU/move results that die are warnings. Dead *loads* are only
/// informational: a load whose value is discarded still warms the remote
/// path and is a recognized prefetch idiom. AMO results are exempt — the
/// memory side effect is the point.
pub fn check_dead_writes(cfg: &Cfg, instrs: &[Instr], diags: &mut Vec<Diagnostic>) {
    let n = cfg.blocks.len();
    if n == 0 {
        return;
    }
    let reachable = cfg.reachable();

    // Per-block use/def for backward analysis.
    let mut use_b = vec![0u64; n];
    let mut def_b = vec![0u64; n];
    for (bi, b) in cfg.blocks.iter().enumerate() {
        for instr in &instrs[b.start..b.end] {
            let ops = instr.operands();
            use_b[bi] |= ops.uses() & !def_b[bi];
            def_b[bi] |= ops.defs();
        }
    }

    let mut live_out = vec![0u64; n];
    let mut live_in = vec![0u64; n];
    // Indirect jumps could go anywhere: everything is live. Exits kill all.
    let all_live = u64::MAX;
    loop {
        let mut changed = false;
        for bi in (0..n).rev() {
            let b = &cfg.blocks[bi];
            let mut out = match b.term {
                Terminator::Indirect => all_live,
                Terminator::Exit | Terminator::OffEnd => 0,
                _ => 0,
            };
            for &s in &b.succs {
                out |= live_in[s];
            }
            let inn = use_b[bi] | (out & !def_b[bi]);
            if out != live_out[bi] || inn != live_in[bi] {
                live_out[bi] = out;
                live_in[bi] = inn;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }

    for (bi, b) in cfg.blocks.iter().enumerate() {
        if !reachable[bi] {
            continue;
        }
        let mut live = live_out[bi];
        // Walk backwards through the block.
        for i in (b.start..b.end).rev() {
            let ops = instrs[i].operands();
            if let Some(rd) = ops.dst.filter(|rd| rd.bit() & live == 0) {
                let is_load = matches!(instrs[i], Instr::Load { .. } | Instr::Flw { .. });
                let is_amo = matches!(
                    instrs[i],
                    Instr::Amo { .. } | Instr::LrW { .. } | Instr::ScW { .. }
                );
                let is_link = matches!(instrs[i], Instr::Jal { .. } | Instr::Jalr { .. });
                if !is_amo && !is_link {
                    diags.push(Diagnostic {
                        severity: if is_load {
                            Severity::Info
                        } else {
                            Severity::Warning
                        },
                        pc: Some(cfg.pc_of(i)),
                        rule: Rule::DeadWrite,
                        message: if is_load {
                            format!("loaded value in {rd} is never read (prefetch, or dead load?)")
                        } else {
                            format!("value written to {rd} is never read")
                        },
                    });
                }
            }
            live &= !ops.defs();
            live |= ops.uses();
        }
    }
}

/// Reports blocks that no path from the entry reaches, and control flow
/// that leaves the program image.
pub fn check_reachability(cfg: &Cfg, diags: &mut Vec<Diagnostic>) {
    let reachable = cfg.reachable();
    for (bi, b) in cfg.blocks.iter().enumerate() {
        if !reachable[bi] {
            diags.push(Diagnostic {
                severity: Severity::Warning,
                pc: Some(cfg.pc_of(b.start)),
                rule: Rule::UnreachableBlock,
                message: format!(
                    "block at {:#x} is unreachable from the entry point",
                    cfg.pc_of(b.start)
                ),
            });
            continue;
        }
        match b.term {
            Terminator::OffEnd => diags.push(Diagnostic {
                severity: Severity::Error,
                pc: Some(cfg.pc_of(b.end - 1)),
                rule: Rule::FallsOffEnd,
                message: "execution can run past the last instruction of the program \
                          (missing ecall or jump?)"
                    .to_owned(),
            }),
            Terminator::Indirect => diags.push(Diagnostic {
                severity: Severity::Info,
                pc: Some(cfg.pc_of(b.end - 1)),
                rule: Rule::IndirectJump,
                message: "indirect jump: static analyses cannot follow this edge".to_owned(),
            }),
            _ => {}
        }
    }
    for &i in &cfg.wild_targets {
        diags.push(Diagnostic {
            severity: Severity::Error,
            pc: Some(cfg.pc_of(i)),
            rule: Rule::FallsOffEnd,
            message: "branch or jump target lies outside the program image".to_owned(),
        });
    }
}
