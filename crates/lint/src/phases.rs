//! Cross-tile barrier-phase conflict analysis (the static half of the race
//! checker; `hb-core`'s `race` module is the dynamic half).
//!
//! The tile-group barrier splits a kernel's execution into **phases**: two
//! accesses to the same shared word from different tiles are ordered only
//! if a barrier (with the producer's stores fenced) separates them. This
//! module reads what the one abstract interpretation ([`mod@crate::absint`])
//! hands it: every memory access whose address is *rank-affine* —
//! `arg? + base + coeff * rank`, where `rank` is the symbolic `TG_RANK` of
//! the executing tile — and the barrier phase the `barrier-mismatch` check's
//! numbering gives it. It reports pairs that
//!
//! 1. may execute in the same phase (including re-executions of a phase by
//!    a loop whose body joins `b` barriers per iteration: phases congruent
//!    mod `b` meet),
//! 2. can touch overlapping words for some pair of *distinct* ranks
//!    `r != r'`, and
//! 3. are not both reads and not both AMOs (atomics commute in the bank
//!    FIFO and are the sanctioned same-phase communication idiom).
//!
//! A store posted without a fence before a barrier join does not retire at
//! the join, so its phase set is widened with `phase(join) + 1` — the
//! static mirror of the dynamic sanitizer's *extended* accesses.
//!
//! The analysis is deliberately **optimistic** where it cannot reason:
//! accesses whose address is not rank-affine (data-dependent indices,
//! tile-coordinate arithmetic) are skipped, and two different launch
//! arguments are assumed to name disjoint regions (`restrict` semantics).
//! It understands one guard idiom: a branch comparing `rank` against a
//! constant pins the rank on the dominated side, so `if rank == 0`
//! finalization code does not self-conflict. Tiles are assumed to run as
//! one full-cell group with origin (0, 0), which is how every harness in
//! this repository launches.

use crate::absint::{self, is_local_spm, AVal, Facts};
use crate::cfg::Cfg;
use crate::{Diagnostic, LintConfig, Rule, Severity};
use hb_asm::Program;
use hb_core::pgas::{Eva, OWN_CELL};
pub use hb_core::AccessKind;
use std::collections::{BTreeSet, HashSet};

/// A statically-found same-phase conflicting pair.
///
/// `pc_a` is the earlier instruction in program order (`pc_a <= pc_b`;
/// equal when one rank-indexed instruction conflicts with itself across
/// ranks, e.g. every tile storing to the same word).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhaseConflict {
    pub pc_a: u32,
    pub kind_a: AccessKind,
    pub pc_b: u32,
    pub kind_b: AccessKind,
    /// The (skeleton-numbered) barrier phase in which the accesses meet.
    pub phase: u32,
    /// Which shared space the overlapping words live in.
    pub space: &'static str,
}

/// One shared-memory access with a rank-affine address.
#[derive(Debug, Clone)]
struct Acc {
    idx: usize,
    kind: AccessKind,
    width: u32,
    sym: Option<u8>,
    base: u32,
    coeff: u32,
    pin: Option<u32>,
    /// Skeleton phases this access can execute in (the block phase plus
    /// `join+1` extensions for unfenced writes).
    phases: BTreeSet<u32>,
    /// Barrier joins per iteration of each loop whose body re-executes
    /// this access.
    periods: Vec<u32>,
}

/// Which shared container a concretized address lands in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Container {
    /// A tile's scratchpad, identified by its full-cell-group rank.
    Spm(u32),
    /// One cell's DRAM window (`OWN_CELL` kept as a sentinel: all tiles of
    /// a group live in one cell, so it compares consistently).
    Dram(u8),
    /// Hash-interleaved global DRAM, by the cell-DRAM address a global
    /// offset lands at in whichever cell its line hashes to.
    GlobalDram,
    /// The opaque region behind launch argument `k`.
    Arg(u8),
}

impl Container {
    /// Whether the two containers may hold the same words at the same
    /// offsets, as `hb_core::RaceLoc::Dram` compares them: the own-cell
    /// window may be any explicit cell's (cell 0's on a one-Cell machine),
    /// and a global line may be in any cell.
    fn may_alias(self, other: Container, num_cells: u8) -> bool {
        use Container::{Dram, GlobalDram};
        match (self, other) {
            (GlobalDram, Dram(_) | GlobalDram) | (Dram(_), GlobalDram) => true,
            (Dram(a), Dram(b)) if a != b && (a == OWN_CELL || b == OWN_CELL) => {
                num_cells > 1 || a.min(b) == 0
            }
            _ => self == other,
        }
    }

    fn space(self) -> &'static str {
        match self {
            Container::Spm(_) => "scratchpad",
            Container::Dram(_) => "cell-DRAM",
            Container::GlobalDram => "global-DRAM",
            Container::Arg(_) => "launch-argument",
        }
    }
}

/// Evaluates `acc` for a tile of rank `r`: the container plus the byte
/// range `[lo, hi)` touched, or `None` when the address faults (the absint
/// reports those separately).
fn concretize(acc: &Acc, r: u32, lc: &LintConfig) -> Option<(Container, u64, u64)> {
    let e = acc.base.wrapping_add(acc.coeff.wrapping_mul(r));
    let span = |c, lo: u32| Some((c, u64::from(lo), u64::from(lo) + u64::from(acc.width)));
    if let Some(k) = acc.sym {
        return span(Container::Arg(k), e);
    }
    let m = &lc.pgas;
    match m.decode(e, acc.width).ok()? {
        Eva::Spm { offset } => span(Container::Spm(r), offset),
        Eva::GroupSpm { x, y, offset } => span(
            Container::Spm(u32::from(y) * u32::from(m.cell_w) + u32::from(x)),
            offset,
        ),
        Eva::Dram { cell, offset } => span(Container::Dram(cell), offset),
        Eva::Global { offset } => span(Container::GlobalDram, offset % m.dram_bytes.max(1)),
        Eva::Csr { .. } => None,
    }
}

/// Searches for distinct ranks `r != r'` under which the two accesses
/// touch overlapping bytes of the same container.
fn overlap(a: &Acc, b: &Acc, ranks: u32, lc: &LintConfig) -> Option<&'static str> {
    if a.sym != b.sym {
        // Distinct launch arguments are assumed non-aliasing (and a
        // concrete EVA cannot be related to an opaque argument region).
        return None;
    }
    // Fast path for the common mass of accesses: rank-independent local-SPM
    // addresses live in the accessing tile's own scratchpad, and two
    // distinct ranks name distinct scratchpads.
    if a.sym.is_none()
        && a.coeff == 0
        && b.coeff == 0
        && is_local_spm(AVal::konst(a.base), a.width, lc)
        && is_local_spm(AVal::konst(b.base), b.width, lc)
    {
        return None;
    }
    let range = |pin: Option<u32>| match pin {
        Some(c) => (c, c + 1),
        None => (0, ranks),
    };
    let (alo, ahi) = range(a.pin);
    let (blo, bhi) = range(b.pin);
    // Rank-independent addresses in a space every tile names alike (an
    // argument region or DRAM, not a scratchpad): one comparison decides,
    // and distinct ranks exist unless both sides are pinned to one rank.
    if a.coeff == 0 && b.coeff == 0 && shared_space(a) && shared_space(b) {
        let distinct = alo < ahi && blo < bhi && !(ahi - alo == 1 && (alo, ahi) == (blo, bhi));
        let (Some((ca, la, ha)), Some((cb, lb, hb))) =
            (concretize(a, alo, lc), concretize(b, blo, lc))
        else {
            return None;
        };
        let same = ca.may_alias(cb, lc.pgas.num_cells);
        return (distinct && same && la < hb && lb < ha).then(|| ca.space());
    }
    for ra in alo..ahi {
        for rb in blo..bhi {
            if ra == rb {
                continue;
            }
            let (Some((ca, la, ha)), Some((cb, lb, hb))) =
                (concretize(a, ra, lc), concretize(b, rb, lc))
            else {
                continue;
            };
            if ca.may_alias(cb, lc.pgas.num_cells) && la < hb && lb < ha {
                return Some(ca.space());
            }
        }
    }
    None
}

/// Whether `acc` concretizes to the same container for every rank that
/// issues it: a launch-argument region or a DRAM space, whose EVA does not
/// name the issuing tile as a scratchpad address does.
fn shared_space(acc: &Acc) -> bool {
    acc.sym.is_some() || acc.base >> 31 == 1
}

/// Can the two accesses execute in the same barrier phase? Returns the
/// meeting phase.
fn meet_phase(a: &Acc, b: &Acc) -> Option<u32> {
    for &x in &a.phases {
        for &y in &b.phases {
            if x == y {
                return Some(x);
            }
            // The earlier-phase access catches up if a loop re-executes it
            // with `bc` joins per iteration and the gap is a multiple.
            let (lo, hi, lo_periods) = if x < y {
                (x, y, &a.periods)
            } else {
                (y, x, &b.periods)
            };
            let d = hi - lo;
            if lo_periods.iter().any(|&bc| bc > 0 && d % bc == 0) {
                return Some(hi);
            }
        }
    }
    None
}

/// Runs the full analysis over an assembled program.
pub fn phase_conflicts(program: &Program, lc: &LintConfig) -> Vec<PhaseConflict> {
    let cfg = Cfg::build(program);
    let facts = absint::interpret(&cfg, program.instrs(), lc, &mut Vec::new());
    conflicts(&cfg, &facts, lc)
}

/// Emits one `phase-race` warning per conflicting pair among `facts`.
pub(crate) fn report(cfg: &Cfg, facts: &Facts, lc: &LintConfig, diags: &mut Vec<Diagnostic>) {
    for c in conflicts(cfg, facts, lc) {
        diags.push(Diagnostic {
            severity: Severity::Warning,
            pc: Some(c.pc_a),
            rule: Rule::PhaseRace,
            message: format!(
                "{} at {:#x} and {} at {:#x} can touch the same {} word from \
                 different tiles in barrier phase {}; order them with fence+barrier \
                 or make both atomic",
                c.kind_a.label(),
                c.pc_a,
                c.kind_b.label(),
                c.pc_b,
                c.space,
                c.phase
            ),
        });
    }
}

fn conflicts(cfg: &Cfg, facts: &Facts, lc: &LintConfig) -> Vec<PhaseConflict> {
    // Natural loops and their barrier joins per iteration.
    let mut loops: Vec<(HashSet<usize>, u32)> = Vec::new();
    for (tail, head) in cfg.back_edges() {
        let body: HashSet<usize> = cfg.natural_loop(tail, head).into_iter().collect();
        let joins: u32 = body.iter().map(|&blk| facts.phases.joins(blk)).sum();
        loops.push((body, joins));
    }

    // Assemble the access list with phase sets and loop periods.
    let mut accs: Vec<Acc> = Vec::new();
    for &(idx, kind, width, addr, pin) in &facts.accesses {
        let AVal::Aff { sym, base, coeff } = addr else {
            continue;
        };
        let Some(p) = facts.phases.of(cfg, idx) else {
            continue;
        };
        let mut phases = BTreeSet::new();
        phases.insert(p);
        let periods: Vec<u32> = loops
            .iter()
            .filter(|(body, _)| body.contains(&cfg.block_of[idx]))
            .map(|&(_, joins)| joins)
            .collect();
        accs.push(Acc {
            idx,
            kind,
            width,
            sym,
            base,
            coeff,
            pin,
            phases,
            periods,
        });
    }
    // Unfenced writes leak one phase past the join they were in flight at.
    for (join, stores) in &facts.leaks {
        let Some(pj) = facts.phases.of(cfg, *join) else {
            continue;
        };
        for acc in &mut accs {
            if stores.contains(&acc.idx) {
                acc.phases.insert(pj + 1);
            }
        }
    }
    accs.sort_by_key(|a| a.idx);

    let ranks = u32::from(lc.pgas.cell_w) * u32::from(lc.pgas.cell_h);
    let ranks = ranks.clamp(2, 128);
    let mut out = Vec::new();
    for i in 0..accs.len() {
        for j in i..accs.len() {
            let (a, b) = (&accs[i], &accs[j]);
            if !a.kind.is_write() && !b.kind.is_write() {
                continue;
            }
            if a.kind == AccessKind::Amo && b.kind == AccessKind::Amo {
                continue;
            }
            let Some(phase) = meet_phase(a, b) else {
                continue;
            };
            let Some(space) = overlap(a, b, ranks, lc) else {
                continue;
            };
            out.push(PhaseConflict {
                pc_a: cfg.pc_of(a.idx),
                kind_a: a.kind,
                pc_b: cfg.pc_of(b.idx),
                kind_b: b.kind,
                phase,
                space,
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use hb_asm::Assembler;
    use hb_core::{pgas, HbOps};
    use hb_isa::Gpr::*;

    fn analyze(a: &Assembler) -> Vec<PhaseConflict> {
        let p = a.assemble(0).unwrap();
        phase_conflicts(&p, &LintConfig::default())
    }

    /// DRAM windows alias as `RaceLoc::Dram` names words: the own cell is
    /// cell 0 on a one-Cell machine and may be any cell on a larger one;
    /// a global line may be in any cell.
    #[test]
    fn dram_windows_alias_as_the_sanitizer_names_words() {
        use Container::{Dram, GlobalDram};
        let own = Dram(OWN_CELL);
        assert!(own.may_alias(own, 1) && own.may_alias(Dram(0), 1));
        assert!(!own.may_alias(Dram(1), 1) && own.may_alias(Dram(1), 2));
        assert!(!Dram(0).may_alias(Dram(1), 2));
        assert!(GlobalDram.may_alias(own, 1) && Dram(1).may_alias(GlobalDram, 2));
        assert!(!GlobalDram.may_alias(Container::Spm(0), 1));
    }

    /// out[rank] = rank; barrier; read out[rank + 1].
    fn producer_consumer(fenced: bool) -> Assembler {
        let mut a = Assembler::new();
        a.tg_rank(T0, T6);
        a.slli(T1, T0, 2);
        a.add(T2, A0, T1);
        a.sw(T0, T2, 0);
        if fenced {
            a.fence();
        }
        a.barrier(T6);
        a.lw(T3, T2, 4);
        a.ecall();
        a
    }

    #[test]
    fn unfenced_producer_consumer_is_flagged() {
        let c = analyze(&producer_consumer(false));
        assert_eq!(c.len(), 1, "{c:?}");
        assert_eq!(c[0].kind_a, AccessKind::Write);
        assert_eq!(c[0].kind_b, AccessKind::Read);
        assert_eq!(c[0].phase, 1);
        assert_eq!(c[0].space, "launch-argument");
    }

    #[test]
    fn fenced_producer_consumer_is_clean() {
        assert_eq!(analyze(&producer_consumer(true)), vec![]);
    }

    #[test]
    fn same_word_write_write_conflicts_with_itself() {
        let mut a = Assembler::new();
        a.tg_rank(T0, T6);
        a.sw(T0, A0, 0); // every rank stores to the same word
        a.fence();
        a.ecall();
        let c = analyze(&a);
        assert_eq!(c.len(), 1, "{c:?}");
        assert_eq!(c[0].pc_a, c[0].pc_b);
    }

    #[test]
    fn rank_guard_pins_the_writer() {
        let mut a = Assembler::new();
        a.tg_rank(T0, T6);
        let skip = a.new_label();
        a.bnez(T0, skip); // only rank 0 falls through
        a.sw(T0, A0, 0);
        a.bind(skip);
        a.fence();
        a.ecall();
        assert_eq!(analyze(&a), vec![]);
    }

    /// A guard pins only the path through it: the store after the guarded
    /// region runs on every rank, whichever way each rank came.
    #[test]
    fn a_store_after_a_rank_guard_is_every_ranks() {
        let mut a = Assembler::new();
        a.tg_rank(T0, T6);
        let skip = a.new_label();
        a.bnez(T0, skip); // only rank 0 falls through
        a.addi(T1, T0, 1);
        a.bind(skip);
        a.sw(T0, A0, 0); // every rank stores to the same word
        a.fence();
        a.ecall();
        let c = analyze(&a);
        assert_eq!(c.len(), 1, "{c:?}");
        assert_eq!(
            (c[0].kind_a, c[0].kind_b),
            (AccessKind::Write, AccessKind::Write)
        );
        assert_eq!(c[0].pc_a, c[0].pc_b);
    }

    /// Rank-independent DRAM words are compared once, pins included: two
    /// accesses pinned to one rank never conflict, a pinned write and an
    /// every-rank read of its word do.
    #[test]
    fn pinned_and_unpinned_dram_words() {
        let mut a = Assembler::new();
        a.tg_rank(T0, T6);
        a.li(T1, pgas::local_dram(256) as i32);
        let skip = a.new_label();
        a.bnez(T0, skip); // only rank 0 falls through
        a.sw(T0, T1, 0);
        a.lw(T2, T1, 0);
        a.bind(skip);
        a.fence();
        a.ecall();
        assert_eq!(analyze(&a), vec![]);

        let mut a = Assembler::new();
        a.tg_rank(T0, T6);
        a.li(T1, pgas::local_dram(256) as i32);
        let skip = a.new_label();
        a.bnez(T0, skip);
        a.sw(T0, T1, 0);
        a.bind(skip);
        a.lw(T2, T1, 2); // every rank reads the upper half of that word
        a.lw(T3, T1, 4); // and the next word, which nobody writes
        a.fence();
        a.ecall();
        let c = analyze(&a);
        assert_eq!(c.len(), 1, "{c:?}");
        assert_eq!(
            (c[0].kind_a, c[0].kind_b),
            (AccessKind::Write, AccessKind::Read)
        );
        assert_eq!(c[0].space, "cell-DRAM");
    }

    #[test]
    fn amo_amo_is_exempt_but_amo_vs_store_is_not() {
        let mut a = Assembler::new();
        a.tg_rank(T0, T6);
        a.amoadd(T1, T0, A0); // every rank: amo on arg0[0]
        a.fence();
        a.ecall();
        assert_eq!(analyze(&a), vec![]);

        let mut a = Assembler::new();
        a.tg_rank(T0, T6);
        a.amoadd(T1, T0, A0);
        a.slli(T2, T0, 2);
        a.add(T2, A0, T2);
        a.sw(T0, T2, 0); // rank 0's store hits the amo word
        a.fence();
        a.ecall();
        let c = analyze(&a);
        assert_eq!(c.len(), 1, "{c:?}");
        assert_eq!(c[0].kind_a, AccessKind::Amo);
        assert_eq!(c[0].kind_b, AccessKind::Write);
    }

    #[test]
    fn loop_phase_congruence_catches_missing_barrier() {
        // Double buffer with ONE barrier per iteration: write A / read A
        // land in the same phase mod 1.
        let mut a = Assembler::new();
        a.tg_rank(T0, T6);
        a.slli(T1, T0, 2);
        a.add(T2, A0, T1); // &A[rank]
        a.add(T3, A1, T1); // &B[rank]
        a.li(T4, 3);
        let top = a.here();
        a.sw(T0, T2, 0);
        a.lw(T5, T3, 4);
        a.sw(T0, T3, 0);
        a.lw(T5, T2, 4);
        a.fence();
        a.barrier(T6);
        a.addi(T4, T4, -1);
        a.bnez(T4, top);
        a.ecall();
        let c = analyze(&a);
        assert_eq!(c.len(), 2, "{c:?}");
    }

    #[test]
    fn two_barrier_double_buffer_is_clean() {
        let mut a = Assembler::new();
        a.tg_rank(T0, T6);
        a.slli(T1, T0, 2);
        a.add(T2, A0, T1);
        a.add(T3, A1, T1);
        a.li(T4, 3);
        let top = a.here();
        a.sw(T0, T2, 0);
        a.lw(T5, T3, 4);
        a.fence();
        a.barrier(T6);
        a.sw(T0, T3, 0);
        a.lw(T5, T2, 4);
        a.fence();
        a.barrier(T6);
        a.addi(T4, T4, -1);
        a.bnez(T4, top);
        a.ecall();
        assert_eq!(analyze(&a), vec![]);
    }

    #[test]
    fn distinct_arguments_do_not_alias() {
        let mut a = Assembler::new();
        a.tg_rank(T0, T6);
        a.slli(T1, T0, 2);
        a.add(T2, A0, T1);
        a.sw(T0, T2, 0); // write arg0[rank]
        a.add(T3, A1, T1);
        a.lw(T4, T3, 4); // read arg1[rank + 1]: a different region
        a.fence();
        a.ecall();
        assert_eq!(analyze(&a), vec![]);
    }

    #[test]
    fn concrete_dram_eva_conflict_is_found() {
        let mut a = Assembler::new();
        a.tg_rank(T0, T6);
        a.li(T1, pgas::local_dram(256) as i32);
        a.sw(T0, T1, 0);
        a.fence();
        a.ecall();
        let c = analyze(&a);
        assert_eq!(c.len(), 1, "{c:?}");
        assert_eq!(c[0].space, "cell-DRAM");
    }

    /// A join is a store to the barrier CSR, whatever register it stores:
    /// `fsw` joins as `sw` does.
    #[test]
    fn an_fsw_to_the_barrier_csr_is_a_join() {
        let mut a = Assembler::new();
        a.tg_rank(T0, T6);
        a.slli(T1, T0, 2);
        a.add(T2, A0, T1);
        a.sw(T0, T2, 0);
        a.fence();
        a.li(T6, pgas::csr::BARRIER as i32);
        a.fmv_w_x(hb_isa::Fpr::Ft0, Zero);
        a.fsw(hb_isa::Fpr::Ft0, T6, 0);
        a.lw(T3, T2, 4);
        a.ecall();
        assert_eq!(analyze(&a), vec![]);
    }

    /// Paths that join different numbers of barriers give the code after
    /// them no phase: the pass leaves it to the `barrier-mismatch` check
    /// rather than guess which count the tiles agree on.
    #[test]
    fn accesses_behind_a_barrier_mismatch_are_left_to_it() {
        let mut a = Assembler::new();
        a.tg_rank(T0, T6);
        a.li(T6, pgas::csr::TILE_X as i32);
        a.lw(T1, T6, 0);
        let skip = a.new_label();
        a.bnez(T1, skip); // only column 0 joins
        a.barrier(T6);
        a.bind(skip);
        a.sw(T0, A0, 0); // every rank stores to the same word
        a.fence();
        a.ecall();
        assert_eq!(analyze(&a), vec![]);
        let p = a.assemble(0).unwrap();
        let diags = crate::lint(&p, &LintConfig::default());
        assert!(
            diags.iter().any(|d| d.rule == Rule::BarrierMismatch),
            "{diags:?}"
        );
    }
}
