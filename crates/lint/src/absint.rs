//! Abstract interpretation of tile resources and barrier phases: the one
//! interpreter the linter runs over a program.
//!
//! Every GPR holds a *rank-affine* value, `arg? + base + coeff * rank`,
//! where `rank` is the symbolic `TG_RANK` of the executing tile and `arg`
//! one opaque launch argument. A constant (no argument, no rank) drives an
//! address classifier that mirrors `hb_core::pgas::PgasMap::translate`,
//! letting the linter statically decide where each memory access lands:
//! local SPM, a tile CSR, or the remote network. Anything else classifies
//! as unknown. On top of that, intervals track how many remote operations
//! can be outstanding in the 63-entry scoreboard, which registers have
//! in-flight remote loads, and how many barrier joins each static path has
//! executed.
//!
//! The same walk hands the phase-race pass ([`mod@crate::phases`]) what it
//! pairs up: every shared-memory access with a rank-affine address, the
//! rank a `rank == c` guard pins it to, the posted writes still unfenced at
//! each barrier join, and the one barrier-phase numbering
//! (`BarrierPhases`) that the `barrier-mismatch` check reads too.

use crate::cfg::{Cfg, Terminator};
use crate::dataflow::defs_uses;
use crate::{Diagnostic, LintConfig, Rule, Severity};
use hb_core::pgas::{csr, OWN_CELL};
use hb_core::AccessKind;
use hb_isa::{BranchOp, Fpr, Gpr, Instr, OpImmOp, OpOp, INSTR_BYTES};
use std::collections::HashSet;

/// Sentinel for an interval bound that widening has given up on.
const UNBOUNDED: u32 = u32::MAX;

/// Rank-affine abstract value: `sym + base + coeff * rank` (all u32
/// arithmetic wrapping), where `sym` is one launch argument treated as an
/// opaque region pointer. Plain constants are `Aff` with `sym: None,
/// coeff: 0`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum AVal {
    Bot,
    Aff {
        sym: Option<u8>,
        base: u32,
        coeff: u32,
    },
    Top,
}

impl AVal {
    const fn aff(sym: Option<u8>, base: u32, coeff: u32) -> AVal {
        AVal::Aff { sym, base, coeff }
    }

    pub(crate) const fn konst(c: u32) -> AVal {
        AVal::aff(None, c, 0)
    }

    const RANK: AVal = AVal::aff(None, 0, 1);

    fn join(self, other: AVal) -> AVal {
        match (self, other) {
            (AVal::Bot, v) | (v, AVal::Bot) => v,
            (a, b) if a == b => a,
            _ => AVal::Top,
        }
    }

    /// `(sym, base, coeff)` of an affine value.
    fn parts(self) -> Option<(Option<u8>, u32, u32)> {
        match self {
            AVal::Aff { sym, base, coeff } => Some((sym, base, coeff)),
            _ => None,
        }
    }

    /// Pure constant (no symbol, no rank dependence).
    fn as_const(self) -> Option<u32> {
        match self.parts()? {
            (None, base, 0) => Some(base),
            _ => None,
        }
    }

    fn add(self, other: AVal) -> AVal {
        let (Some((sa, ba, ca)), Some((sb, bb, cb))) = (self.parts(), other.parts()) else {
            return AVal::Top;
        };
        let sym = match (sa, sb) {
            (None, s) | (s, None) => s,
            (Some(_), Some(_)) => return AVal::Top,
        };
        AVal::aff(sym, ba.wrapping_add(bb), ca.wrapping_add(cb))
    }

    fn sub(self, other: AVal) -> AVal {
        let (Some((sa, ba, ca)), Some((sb, bb, cb))) = (self.parts(), other.parts()) else {
            return AVal::Top;
        };
        let sym = match (sa, sb) {
            (s, None) => s,
            (Some(a), Some(b)) if a == b => None,
            _ => return AVal::Top,
        };
        AVal::aff(sym, ba.wrapping_sub(bb), ca.wrapping_sub(cb))
    }

    fn shl(self, sh: u32) -> AVal {
        match self.parts() {
            Some((None, base, coeff)) => {
                AVal::aff(None, base.wrapping_shl(sh), coeff.wrapping_shl(sh))
            }
            _ if sh == 0 => self,
            _ => AVal::Top,
        }
    }

    fn mul(self, other: AVal) -> AVal {
        let scale = |v: AVal, k: u32| match v.parts() {
            Some((None, base, coeff)) => {
                AVal::aff(None, base.wrapping_mul(k), coeff.wrapping_mul(k))
            }
            _ if k == 1 => v,
            _ => AVal::Top,
        };
        match (self.as_const(), other.as_const()) {
            (_, Some(k)) => scale(self, k),
            (Some(k), _) => scale(other, k),
            _ => AVal::Top,
        }
    }
}

/// Rank constraint along a path: `Eq(c)` after flowing through the
/// `rank == c` side of a guard, `Any` from the entry on. A block not yet
/// reached has no state at all, so the pin needs no bottom: a path that
/// goes around a guard joins `Any` into whatever the guarded path carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Pin {
    Eq(u32),
    Any,
}

impl Pin {
    fn join(self, other: Pin) -> Pin {
        if self == other {
            self
        } else {
            Pin::Any
        }
    }
}

/// Closed interval of possible outstanding-operation counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Interval {
    lo: u32,
    hi: u32,
}

impl Interval {
    const ZERO: Interval = Interval { lo: 0, hi: 0 };

    fn join(self, other: Interval) -> Interval {
        Interval {
            lo: self.lo.min(other.lo),
            hi: self.hi.max(other.hi),
        }
    }

    /// Adds `lo..=hi` more operations.
    fn bump(&mut self, lo: u32, hi: u32) {
        self.lo = self.lo.saturating_add(lo);
        if self.hi != UNBOUNDED {
            self.hi = self.hi.saturating_add(hi).min(UNBOUNDED - 1);
        }
    }

    /// At least one operation definitely retired (an interlock stall).
    fn retire_one(&mut self) {
        self.lo = self.lo.saturating_sub(1);
    }

    fn widen(self, newer: Interval) -> Interval {
        Interval {
            lo: if newer.lo < self.lo { 0 } else { self.lo },
            hi: if newer.hi > self.hi {
                UNBOUNDED
            } else {
                self.hi
            },
        }
    }
}

/// Abstract machine state at a program point.
#[derive(Debug, Clone, PartialEq)]
struct State {
    /// Rank-affine values for the 32 GPRs.
    regs: [AVal; 32],
    /// Outstanding remote operations (scoreboard entries).
    ops: Interval,
    /// The subset of `ops` that are posted remote *stores*.
    stores: Interval,
    /// Register-mask (see `dataflow`) of registers whose value is still in
    /// flight from a remote load or AMO.
    pending: u64,
    /// Register-mask of *tile-divergent* values: derived from the tile's
    /// own coordinates/rank, the cycle counter, or an AMO result. A branch
    /// on a divergent value can send different tiles down different paths,
    /// which is what turns unbalanced barrier counts into a deadlock.
    div: u64,
    /// The rank a `rank == c` guard pins this path to.
    pin: Pin,
    /// Instruction indices of possibly-remote writes with a rank-affine
    /// address posted since the last fence (sorted, deduplicated). These
    /// are what an unfenced barrier join leaks into the next phase.
    unfenced: Vec<usize>,
}

impl State {
    fn entry(lc: &LintConfig) -> State {
        // `Tile::launch` zeroes every register, then sets sp to the top of
        // the SPM and a0..a7 to the kernel arguments (opaque symbols).
        let mut regs = [AVal::konst(0); 32];
        regs[Gpr::Sp.index() as usize] = AVal::konst(lc.spm_bytes);
        for (i, r) in regs[10..=17].iter_mut().enumerate() {
            *r = AVal::aff(Some(i as u8), 0, 0);
        }
        State {
            regs,
            ops: Interval::ZERO,
            stores: Interval::ZERO,
            pending: 0,
            div: 0,
            pin: Pin::Any,
            unfenced: Vec::new(),
        }
    }

    fn join(&self, other: &State) -> State {
        let mut regs = [AVal::Bot; 32];
        for (i, r) in regs.iter_mut().enumerate() {
            *r = self.regs[i].join(other.regs[i]);
        }
        let mut unfenced = self.unfenced.clone();
        for &i in &other.unfenced {
            insert_sorted(&mut unfenced, i);
        }
        State {
            regs,
            ops: self.ops.join(other.ops),
            stores: self.stores.join(other.stores),
            pending: self.pending | other.pending,
            div: self.div | other.div,
            pin: self.pin.join(other.pin),
            unfenced,
        }
    }

    /// Widens the intervals only: every other component has finite height.
    fn widen(&self, newer: &State) -> State {
        State {
            ops: self.ops.widen(newer.ops),
            stores: self.stores.widen(newer.stores),
            ..newer.clone()
        }
    }

    fn get(&self, r: Gpr) -> AVal {
        self.regs[r.index() as usize]
    }

    fn set(&mut self, r: Gpr, v: AVal) {
        if r != Gpr::Zero {
            self.regs[r.index() as usize] = v;
        }
    }
}

fn insert_sorted(set: &mut Vec<usize>, i: usize) {
    if let Err(at) = set.binary_search(&i) {
        set.insert(at, i);
    }
}

/// `true` when `addr` is a concrete in-bounds local-SPM address for every
/// rank (rank-independent): the only write target that cannot be in flight
/// at a barrier join.
pub(crate) fn is_local_spm(addr: AVal, width: u32, lc: &LintConfig) -> bool {
    matches!(addr.as_const(), Some(base) if base.wrapping_add(width) <= lc.spm_bytes)
}

/// Where a statically-classified access lands.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Class {
    /// In-bounds local SPM.
    Local,
    /// A CSR in the local window (carries the CSR offset).
    Csr(u32),
    /// Definitely remote: group SPM or any DRAM space.
    Remote,
    /// Address not statically known.
    Unknown,
    /// Definitely faults in `PgasMap::translate` or the tile access checks.
    Bad(Rule, String),
}

fn classify(v: AVal, width: u32, lc: &LintConfig) -> Class {
    let Some(c) = v.as_const() else {
        return Class::Unknown;
    };
    if width > 1 && c % width != 0 {
        return Class::Bad(
            Rule::UnalignedAccess,
            format!("address {c:#010x} is not {width}-byte aligned"),
        );
    }
    match c >> 30 {
        0b00 => {
            if c + width <= lc.spm_bytes {
                Class::Local
            } else if (0x1000..0x1100).contains(&c) {
                Class::Csr(c)
            } else {
                Class::Bad(
                    Rule::SpmOutOfBounds,
                    format!(
                        "address {c:#010x} is outside the {}-byte local SPM and the CSR window",
                        lc.spm_bytes
                    ),
                )
            }
        }
        0b01 => {
            let y = (c >> 24) & 0x3f;
            let x = (c >> 18) & 0x3f;
            let offset = c & 0x3ffff;
            if x >= u32::from(lc.cell_w) || y >= u32::from(lc.cell_h) {
                Class::Bad(
                    Rule::SpmOutOfBounds,
                    format!(
                        "group-SPM EVA {c:#010x} names tile ({x}, {y}) outside the {}x{} cell",
                        lc.cell_w, lc.cell_h
                    ),
                )
            } else if offset + width > lc.spm_bytes {
                Class::Bad(
                    Rule::SpmOutOfBounds,
                    format!(
                        "group-SPM EVA {c:#010x} offset {offset:#x} overruns the {}-byte SPM",
                        lc.spm_bytes
                    ),
                )
            } else {
                Class::Remote
            }
        }
        0b10 => {
            let cell = (c >> 24) & 0x3f;
            let addr = c & 0xff_ffff;
            if cell != u32::from(OWN_CELL) && cell >= u32::from(lc.num_cells) {
                Class::Bad(
                    Rule::SpmOutOfBounds,
                    format!(
                        "DRAM EVA {c:#010x} names cell {cell} but the machine has {} cell(s)",
                        lc.num_cells
                    ),
                )
            } else if addr + width > lc.dram_bytes_per_cell {
                Class::Bad(
                    Rule::SpmOutOfBounds,
                    format!(
                        "DRAM EVA {c:#010x} offset {addr:#x} overruns the {}-byte cell window",
                        lc.dram_bytes_per_cell
                    ),
                )
            } else {
                Class::Remote
            }
        }
        _ => Class::Remote, // Global DRAM: hashed, always in range.
    }
}

fn csr_load_ok(offset: u32) -> bool {
    matches!(
        offset,
        csr::TILE_X
            | csr::TILE_Y
            | csr::TG_X
            | csr::TG_Y
            | csr::TG_W
            | csr::TG_H
            | csr::TG_RANK
            | csr::TG_SIZE
            | csr::TG_LIVE_RANK
            | csr::TG_LIVE_SIZE
            | csr::TG_ADOPT
            | csr::CELL_W
            | csr::CELL_H
            | csr::CELL_ID
            | csr::NUM_CELLS
            | csr::CYCLE
    ) || (csr::ARG0..csr::ARG0 + 32).contains(&offset)
}

/// The value a load of CSR `offset` yields: the tile's rank, a launch
/// argument, or something the domain does not track.
fn csr_value(offset: u32) -> AVal {
    match offset {
        csr::TG_RANK | csr::TG_LIVE_RANK => AVal::RANK,
        o if (csr::ARG0..csr::ARG0 + 32).contains(&o) => {
            AVal::aff(Some(((o - csr::ARG0) / 4) as u8), 0, 0)
        }
        _ => AVal::Top,
    }
}

/// A shared-memory access with a rank-affine address: (instruction index,
/// kind, width, address, the rank a guard pins it to).
pub(crate) type Access = (usize, AccessKind, u32, AVal, Option<u32>);

/// Per-instruction facts collected while re-walking blocks after the
/// fixpoint, consumed by the loop-level, barrier-phase and phase-race
/// checks.
struct Recorder {
    diags: Vec<Diagnostic>,
    barrier_at: Vec<bool>,
    fence_at: Vec<bool>,
    remote_load_at: Vec<bool>,
    remote_store_at: Vec<bool>,
    pending_use_at: Vec<bool>,
    divergent_branch_at: Vec<bool>,
    accesses: Vec<Access>,
    /// (barrier-join instruction index, unfenced writes at the join)
    leaks: Vec<(usize, Vec<usize>)>,
}

struct Interp<'a> {
    lc: &'a LintConfig,
    cfg: &'a Cfg,
    instrs: &'a [Instr],
}

impl Interp<'_> {
    fn pc(&self, i: usize) -> u32 {
        self.cfg.pc_of(i)
    }

    fn emit(
        &self,
        rec: &mut Option<&mut Recorder>,
        sev: Severity,
        i: usize,
        rule: Rule,
        msg: String,
    ) {
        if let Some(r) = rec {
            r.diags.push(Diagnostic {
                severity: sev,
                pc: Some(self.pc(i)),
                rule,
                message: msg,
            });
        }
    }

    /// Interprets one instruction, updating `st` and (if `rec` is set)
    /// reporting diagnostics and per-instruction facts.
    fn step(&self, st: &mut State, i: usize, mut rec: Option<&mut Recorder>) {
        let instr = self.instrs[i];
        // A read of a register with an in-flight remote value stalls the
        // core until the value arrives (per-register interlock), after
        // which that operation has retired.
        let (defs, uses) = defs_uses(&instr);
        let stalled = uses & st.pending;
        if stalled != 0 {
            for bit in 0..64u32 {
                if stalled & (1 << bit) == 0 {
                    continue;
                }
                let name = if bit < 32 {
                    Gpr::from_index(bit as u8).abi_name()
                } else {
                    Fpr::from_index((bit - 32) as u8).abi_name()
                };
                self.emit(
                    &mut rec,
                    Severity::Info,
                    i,
                    Rule::RemoteUseStall,
                    format!(
                        "{name} is consumed while its remote load may still be in flight; \
                         the core stalls here (consider scheduling independent work first)"
                    ),
                );
                st.ops.retire_one();
            }
            st.pending &= !stalled;
            if let Some(r) = rec.as_deref_mut() {
                r.pending_use_at[i] = true;
            }
        }

        // Divergence taint, computed against the pre-instruction state.
        // Values flowing from the tile's own identity (coordinates, rank,
        // cycle counter) or from AMO results differ across tiles; anything
        // else is optimistically assumed uniform (memory contents are not
        // tracked). Link registers and upper-immediates are always uniform.
        let divergent_def = match instr {
            Instr::Lui { .. } | Instr::Auipc { .. } | Instr::Jal { .. } | Instr::Jalr { .. } => {
                false
            }
            Instr::Amo { .. } => true,
            Instr::Load { rs1, offset, .. } => {
                matches!(
                    self.effective(st, rs1, offset).as_const(),
                    Some(
                        csr::TILE_X
                            | csr::TILE_Y
                            | csr::TG_RANK
                            | csr::TG_LIVE_RANK
                            | csr::TG_ADOPT
                            | csr::CYCLE
                    )
                ) || st.div & reg_bit_gpr(rs1) != 0
            }
            _ => uses & st.div != 0,
        };
        if let Instr::Branch { .. } = instr {
            if uses & st.div != 0 {
                if let Some(r) = rec.as_deref_mut() {
                    r.divergent_branch_at[i] = true;
                }
            }
        }
        if defs != 0 {
            if divergent_def {
                st.div |= defs;
            } else {
                st.div &= !defs;
            }
        }

        match instr {
            Instr::Lui { rd, imm } => st.set(rd, AVal::konst((imm as u32) << 12)),
            Instr::Auipc { rd, imm } => {
                st.set(rd, AVal::konst(self.pc(i).wrapping_add((imm as u32) << 12)));
            }
            Instr::Jal { rd, .. } | Instr::Jalr { rd, .. } => {
                st.set(rd, AVal::konst(self.pc(i).wrapping_add(INSTR_BYTES)));
            }
            Instr::Branch { .. } => {}
            Instr::OpImm { op, rd, rs1, imm } => {
                let a = st.get(rs1);
                let v = match op {
                    OpImmOp::Addi => a.add(AVal::konst(imm as u32)),
                    OpImmOp::Slli => a.shl((imm as u32) & 0x1f),
                    _ => match a.as_const() {
                        Some(c) => AVal::konst(op.eval(c, imm)),
                        None => AVal::Top,
                    },
                };
                st.set(rd, v);
            }
            Instr::Op { op, rd, rs1, rs2 } => {
                let (a, b) = (st.get(rs1), st.get(rs2));
                let v = match op {
                    OpOp::Add => a.add(b),
                    OpOp::Sub => a.sub(b),
                    OpOp::Mul => a.mul(b),
                    OpOp::Sll => match b.as_const() {
                        Some(sh) => a.shl(sh & 0x1f),
                        None => AVal::Top,
                    },
                    _ => match (a.as_const(), b.as_const()) {
                        (Some(x), Some(y)) => AVal::konst(op.eval(x, y)),
                        _ => AVal::Top,
                    },
                };
                st.set(rd, v);
            }
            Instr::Load {
                width,
                rd,
                rs1,
                offset,
            } => {
                let addr = self.effective(st, rs1, offset);
                let v = self.load_effect(st, i, addr, width.bytes(), LoadDst::Int(rd), &mut rec);
                st.set(rd, v);
            }
            Instr::Flw { rd, rs1, offset } => {
                let addr = self.effective(st, rs1, offset);
                self.load_effect(st, i, addr, 4, LoadDst::Fp(rd), &mut rec);
            }
            Instr::Store {
                width, rs1, offset, ..
            } => {
                let addr = self.effective(st, rs1, offset);
                self.store_effect(st, i, addr, width.bytes(), &mut rec);
            }
            Instr::Fsw { rs1, offset, .. } => {
                let addr = self.effective(st, rs1, offset);
                self.store_effect(st, i, addr, 4, &mut rec);
            }
            Instr::Fence => {
                st.ops = Interval::ZERO;
                st.stores = Interval::ZERO;
                st.pending = 0;
                st.unfenced.clear();
                if let Some(r) = rec.as_deref_mut() {
                    r.fence_at[i] = true;
                }
            }
            Instr::Ecall => {
                if st.stores.hi > 0 {
                    self.emit(
                        &mut rec,
                        Severity::Warning,
                        i,
                        Rule::UnfencedExit,
                        "tile can finish with posted remote stores still in flight; \
                         add a fence before ecall so results are visible"
                            .to_owned(),
                    );
                }
            }
            Instr::Ebreak => {}
            Instr::Amo { rd, rs1, .. } => {
                let addr = st.get(rs1);
                let class = classify(addr, 4, self.lc);
                let csr = matches!(class, Class::Csr(_));
                match class {
                    Class::Local | Class::Csr(_) => self.emit(
                        &mut rec,
                        Severity::Error,
                        i,
                        Rule::AmoToLocal,
                        "AMO targets the local SPM/CSR space; HammerBlade executes atomics \
                         at cache banks and remote SPMs only (the tile traps here)"
                            .to_owned(),
                    ),
                    Class::Bad(rule, msg) => self.emit(&mut rec, Severity::Error, i, rule, msg),
                    Class::Remote => {
                        self.issue(st, i, 1, &mut rec);
                        st.pending |= reg_bit_gpr(rd);
                    }
                    Class::Unknown => {
                        st.ops.bump(0, 1);
                        st.pending |= reg_bit_gpr(rd);
                    }
                }
                if !csr {
                    self.access(st, i, AccessKind::Amo, 4, addr, &mut rec);
                }
                st.set(rd, AVal::Top);
            }
            Instr::LrW { rd, .. } | Instr::ScW { rd, .. } => {
                self.emit(
                    &mut rec,
                    Severity::Error,
                    i,
                    Rule::AmoToLocal,
                    "lr/sc are not supported by the tile (it traps); use AMOs".to_owned(),
                );
                st.set(rd, AVal::Top);
            }
            Instr::FpOp { .. } | Instr::Fma { .. } => {}
            Instr::FpCmp { rd, .. }
            | Instr::FcvtWS { rd, .. }
            | Instr::FcvtWuS { rd, .. }
            | Instr::FmvXW { rd, .. } => st.set(rd, AVal::Top),
            Instr::FcvtSW { .. } | Instr::FcvtSWu { .. } | Instr::FmvWX { .. } => {}
        }
    }

    fn effective(&self, st: &State, base: Gpr, offset: i32) -> AVal {
        st.get(base).add(AVal::konst(offset as u32))
    }

    /// Accounts for a newly-issued remote operation and reports scoreboard
    /// pressure when the upper bound first crosses the capacity.
    fn issue(&self, st: &mut State, i: usize, definite: u32, rec: &mut Option<&mut Recorder>) {
        let before = st.ops.hi;
        st.ops.bump(definite, 1);
        if before != UNBOUNDED
            && before <= self.lc.max_outstanding
            && st.ops.hi > self.lc.max_outstanding
        {
            self.emit(
                rec,
                Severity::Warning,
                i,
                Rule::ScoreboardPressure,
                format!(
                    "up to {} remote operations can be outstanding here, exceeding the \
                     {}-entry scoreboard; the core will stall for credits (fence earlier \
                     or batch fewer requests)",
                    st.ops.hi, self.lc.max_outstanding
                ),
            );
        }
    }

    /// Hands a shared-memory access to the phase-race pass. Only
    /// rank-affine addresses are analysable; a write that may be remote is
    /// one a fence would wait for.
    fn access(
        &self,
        st: &mut State,
        i: usize,
        kind: AccessKind,
        width: u32,
        addr: AVal,
        rec: &mut Option<&mut Recorder>,
    ) {
        let AVal::Aff { .. } = addr else {
            return;
        };
        if kind.is_write() && !is_local_spm(addr, width, self.lc) {
            insert_sorted(&mut st.unfenced, i);
        }
        if let Some(r) = rec {
            let pin = match st.pin {
                Pin::Eq(c) => Some(c),
                _ => None,
            };
            r.accesses.push((i, kind, width, addr, pin));
        }
    }

    /// Returns the loaded value: a CSR's, or unknown for memory.
    fn load_effect(
        &self,
        st: &mut State,
        i: usize,
        addr: AVal,
        width: u32,
        dst: LoadDst,
        rec: &mut Option<&mut Recorder>,
    ) -> AVal {
        match classify(addr, width, self.lc) {
            Class::Local => {}
            Class::Csr(offset) => {
                if offset == csr::BARRIER {
                    self.emit(
                        rec,
                        Severity::Error,
                        i,
                        Rule::BadCsrAccess,
                        "the barrier CSR is store-only; loading it traps".to_owned(),
                    );
                } else if !csr_load_ok(offset) {
                    self.emit(
                        rec,
                        Severity::Error,
                        i,
                        Rule::BadCsrAccess,
                        format!("load of unknown CSR {offset:#x} traps"),
                    );
                }
                return csr_value(offset);
            }
            Class::Remote => {
                self.issue(st, i, 1, rec);
                st.pending |= dst.bit();
                if let Some(r) = rec.as_deref_mut() {
                    r.remote_load_at[i] = true;
                }
            }
            Class::Unknown => {
                st.ops.bump(0, 1);
                st.pending |= dst.bit();
            }
            Class::Bad(rule, msg) => self.emit(rec, Severity::Error, i, rule, msg),
        }
        self.access(st, i, AccessKind::Read, width, addr, rec);
        AVal::Top
    }

    fn store_effect(
        &self,
        st: &mut State,
        i: usize,
        addr: AVal,
        width: u32,
        rec: &mut Option<&mut Recorder>,
    ) {
        match classify(addr, width, self.lc) {
            Class::Local => {}
            Class::Csr(offset) => {
                if offset == csr::BARRIER {
                    if st.stores.hi > 0 {
                        self.emit(
                            rec,
                            Severity::Warning,
                            i,
                            Rule::BarrierWithoutFence,
                            "barrier join while posted remote stores may still be in \
                             flight; peers released by this barrier can read stale data \
                             (fence first)"
                                .to_owned(),
                        );
                    }
                    if let Some(r) = rec.as_deref_mut() {
                        r.barrier_at[i] = true;
                        r.leaks.push((i, st.unfenced.clone()));
                    }
                } else if offset == csr::MARK {
                    // Kernel-phase marker: a legal store-only no-op.
                } else {
                    self.emit(
                        rec,
                        Severity::Error,
                        i,
                        Rule::BadCsrAccess,
                        format!("store to read-only CSR {offset:#x} traps"),
                    );
                }
                return;
            }
            Class::Remote => {
                self.issue(st, i, 1, rec);
                st.stores.bump(1, 1);
                if let Some(r) = rec.as_deref_mut() {
                    r.remote_store_at[i] = true;
                }
            }
            Class::Unknown => {
                st.ops.bump(0, 1);
                st.stores.bump(0, 1);
            }
            Class::Bad(rule, msg) => self.emit(rec, Severity::Error, i, rule, msg),
        }
        self.access(st, i, AccessKind::Write, width, addr, rec);
    }

    /// The successor of block `b` that only `rank == c` tiles enter, and
    /// `c`, when `b` ends in a branch comparing a rank-affine value with a
    /// constant (`if rank == 0` finalization code).
    fn rank_guard(&self, b: usize, out: &State) -> Option<(usize, u32)> {
        let block = &self.cfg.blocks[b];
        if block.term != Terminator::Branch {
            return None;
        }
        let last = block.end - 1;
        let Instr::Branch {
            op,
            rs1,
            rs2,
            offset,
        } = self.instrs[last]
        else {
            return None;
        };
        // Solve `base + coeff*rank == k` for rank.
        let solve = |v: AVal, k: AVal| -> Option<u32> {
            let (Some((None, base, coeff)), Some(k)) = (v.parts(), k.as_const()) else {
                return None;
            };
            if coeff == 0 {
                return None;
            }
            let diff = k.wrapping_sub(base);
            (diff % coeff == 0).then_some(diff / coeff)
        };
        let (va, vb) = (out.get(rs1), out.get(rs2));
        let rank = solve(va, vb).or_else(|| solve(vb, va))?;
        let n = self.instrs.len();
        let t = last as i64 + i64::from(offset) / i64::from(INSTR_BYTES);
        let taken = (0..n as i64)
            .contains(&t)
            .then(|| self.cfg.block_of[t as usize]);
        let fall = (last + 1 < n).then(|| self.cfg.block_of[last + 1]);
        if taken == fall {
            return None;
        }
        let eq = match op {
            BranchOp::Eq => taken,
            BranchOp::Ne => fall,
            _ => None,
        };
        eq.map(|s| (s, rank))
    }
}

#[derive(Clone, Copy)]
enum LoadDst {
    Int(Gpr),
    Fp(Fpr),
}

impl LoadDst {
    fn bit(self) -> u64 {
        match self {
            LoadDst::Int(Gpr::Zero) => 0,
            LoadDst::Int(r) => 1u64 << r.index(),
            LoadDst::Fp(r) => 1u64 << (32 + r.index()),
        }
    }
}

fn reg_bit_gpr(r: Gpr) -> u64 {
    if r == Gpr::Zero {
        0
    } else {
        1u64 << r.index()
    }
}

/// What the phase-race pass reads from one interpretation.
pub(crate) struct Facts {
    /// Shared-memory accesses with rank-affine addresses.
    pub accesses: Vec<Access>,
    /// (barrier-join instruction index, unfenced writes at the join)
    pub leaks: Vec<(usize, Vec<usize>)>,
    /// The barrier-phase numbering.
    pub phases: BarrierPhases,
}

/// Runs the abstract interpretation once: pushes the resource findings
/// (scoreboard, CSR, bounds, barrier pairing, icache) onto `diags` and
/// returns the facts the phase-race pass reads.
pub(crate) fn interpret(
    cfg: &Cfg,
    instrs: &[Instr],
    lc: &LintConfig,
    diags: &mut Vec<Diagnostic>,
) -> Facts {
    let n = cfg.blocks.len();
    let interp = Interp { lc, cfg, instrs };
    let reachable = cfg.reachable();

    // --- Fixpoint over block entry states in reverse postorder, with rank
    // pins refined along guard edges and interval widening. ---
    let mut in_state: Vec<Option<State>> = vec![None; n];
    if n > 0 {
        in_state[0] = Some(State::entry(lc));
    }
    let mut bumps = vec![0u32; n];
    let rpo = cfg.reverse_postorder();
    loop {
        let mut changed = false;
        for &b in &rpo {
            let Some(mut st) = in_state[b].clone() else {
                continue;
            };
            for i in cfg.blocks[b].start..cfg.blocks[b].end {
                interp.step(&mut st, i, None);
            }
            let guard = interp.rank_guard(b, &st);
            for &s in &cfg.blocks[b].succs {
                let mut out = st.clone();
                if let Some((eq, rank)) = guard {
                    if s == eq {
                        out.pin = Pin::Eq(rank);
                    }
                }
                let merged = match &in_state[s] {
                    None => out,
                    Some(old) => old.join(&out),
                };
                if in_state[s].as_ref() != Some(&merged) {
                    bumps[s] += 1;
                    let merged = if bumps[s] > 4 {
                        in_state[s].as_ref().unwrap_or(&merged).widen(&merged)
                    } else {
                        merged
                    };
                    if in_state[s].as_ref() != Some(&merged) {
                        in_state[s] = Some(merged);
                        changed = true;
                    }
                }
            }
        }
        if !changed {
            break;
        }
    }

    // --- Reporting pass: walk each reachable block once from its fixpoint
    // entry state, emitting diagnostics and per-instruction facts. ---
    let mut rec = Recorder {
        diags: Vec::new(),
        barrier_at: vec![false; instrs.len()],
        fence_at: vec![false; instrs.len()],
        remote_load_at: vec![false; instrs.len()],
        remote_store_at: vec![false; instrs.len()],
        pending_use_at: vec![false; instrs.len()],
        divergent_branch_at: vec![false; instrs.len()],
        accesses: Vec::new(),
        leaks: Vec::new(),
    };
    for b in 0..n {
        if !reachable[b] {
            continue;
        }
        let Some(mut st) = in_state[b].clone() else {
            continue;
        };
        for i in cfg.blocks[b].start..cfg.blocks[b].end {
            interp.step(&mut st, i, Some(&mut rec));
        }
    }

    let loop_diags = check_loop_saturation(cfg, &reachable, &rec, lc);
    rec.diags.extend(loop_diags);
    let phases = BarrierPhases::number(cfg, &reachable, rec.barrier_at);
    check_barrier_phases(
        cfg,
        &reachable,
        &phases,
        &rec.divergent_branch_at,
        &mut rec.diags,
    );
    check_icache(cfg, instrs.len(), lc, &mut rec.diags);

    diags.append(&mut rec.diags);
    Facts {
        accesses: rec.accesses,
        leaks: rec.leaks,
        phases,
    }
}

/// Flags loops that issue remote operations every iteration with no fence
/// and no consuming stall inside the loop: scoreboard occupancy then grows
/// monotonically until the 63-entry limit throttles the core.
fn check_loop_saturation(
    cfg: &Cfg,
    reachable: &[bool],
    rec: &Recorder,
    lc: &LintConfig,
) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let mut seen_heads = HashSet::new();
    for (tail, head) in cfg.back_edges() {
        if !reachable[head] || !seen_heads.insert(head) {
            continue;
        }
        let body = cfg.natural_loop(tail, head);
        let mut loads = false;
        let mut stores = false;
        let mut fenced = false;
        let mut consumed = false;
        for &b in &body {
            for i in cfg.blocks[b].start..cfg.blocks[b].end {
                loads |= rec.remote_load_at[i];
                stores |= rec.remote_store_at[i];
                fenced |= rec.fence_at[i];
                consumed |= rec.pending_use_at[i];
            }
        }
        if fenced {
            continue;
        }
        if stores || (loads && !consumed) {
            out.push(Diagnostic {
                severity: Severity::Info,
                pc: Some(cfg.pc_of(cfg.blocks[head].start)),
                rule: Rule::ScoreboardPressure,
                message: format!(
                    "loop at {:#x} issues remote {} every iteration without a fence; \
                     occupancy accumulates until the {}-entry scoreboard throttles issue",
                    cfg.pc_of(cfg.blocks[head].start),
                    if stores { "stores" } else { "loads" },
                    lc.max_outstanding
                ),
            });
        }
    }
    out
}

/// Immediate dominators over reachable blocks (Cooper–Harvey–Kennedy).
/// `idom[0] == 0`; unreachable blocks map to `usize::MAX`.
fn idoms(cfg: &Cfg, reachable: &[bool]) -> Vec<usize> {
    const UNDEF: usize = usize::MAX;
    let n = cfg.blocks.len();
    let rpo = cfg.reverse_postorder();
    let mut rpo_pos = vec![UNDEF; n];
    for (pos, &b) in rpo.iter().enumerate() {
        rpo_pos[b] = pos;
    }
    let preds = cfg.preds();
    let mut idom = vec![UNDEF; n];
    if n == 0 {
        return idom;
    }
    idom[0] = 0;
    let intersect = |idom: &[usize], rpo_pos: &[usize], mut a: usize, mut b: usize| {
        while a != b {
            while rpo_pos[a] > rpo_pos[b] {
                a = idom[a];
            }
            while rpo_pos[b] > rpo_pos[a] {
                b = idom[b];
            }
        }
        a
    };
    loop {
        let mut changed = false;
        for &b in rpo.iter().skip(1) {
            let mut new_idom = UNDEF;
            for &p in &preds[b] {
                if !reachable[p] || idom[p] == UNDEF {
                    continue;
                }
                new_idom = if new_idom == UNDEF {
                    p
                } else {
                    intersect(&idom, &rpo_pos, new_idom, p)
                };
            }
            if new_idom != UNDEF && idom[b] != new_idom {
                idom[b] = new_idom;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    idom
}

/// Nearest dominator of `b` (inclusive of `idom[b]`) ending in a
/// conditional branch — the branch that decides which of the conflicting
/// paths a tile takes.
fn dominating_branch(cfg: &Cfg, idom: &[usize], b: usize) -> Option<usize> {
    let mut d = *idom.get(b)?;
    if d == usize::MAX {
        return None;
    }
    loop {
        if cfg.blocks[d].term == Terminator::Branch {
            return Some(d);
        }
        if d == 0 {
            return None;
        }
        let up = idom[d];
        if up == d || up == usize::MAX {
            return None;
        }
        d = up;
    }
}

/// Nearest common dominator of two blocks.
fn common_dominator(idom: &[usize], a: usize, b: usize) -> Option<usize> {
    let mut seen = HashSet::new();
    let mut x = a;
    loop {
        seen.insert(x);
        if x == 0 || idom.get(x).copied()? == usize::MAX {
            break;
        }
        let up = idom[x];
        if up == x {
            break;
        }
        x = up;
    }
    let mut y = b;
    loop {
        if seen.contains(&y) {
            return Some(y);
        }
        if y == 0 || idom.get(y).copied()? == usize::MAX {
            return None;
        }
        let up = idom[y];
        if up == y {
            return None;
        }
        y = up;
    }
}

/// Barrier joins counted over the acyclic skeleton of the CFG (back edges
/// removed), in reverse postorder: the one phase numbering that both the
/// `barrier-mismatch` check and the phase-race pass read.
pub(crate) struct BarrierPhases {
    /// Which instructions are barrier joins.
    barrier_at: Vec<bool>,
    /// Barrier joins in each block.
    count: Vec<u32>,
    /// Joins executed before each block along the first skeleton path into
    /// it (`None`: unreachable).
    phase: Vec<Option<u32>>,
    /// Whether every skeleton path into the block, and into every block
    /// before it, executed the same number of joins.
    agreed: Vec<bool>,
    /// Blocks whose skeleton predecessors disagree, in reverse postorder,
    /// with two of the disagreeing counts.
    conflicts: Vec<(usize, u32, u32)>,
}

impl BarrierPhases {
    fn number(cfg: &Cfg, reachable: &[bool], barrier_at: Vec<bool>) -> BarrierPhases {
        let n = cfg.blocks.len();
        let count: Vec<u32> = cfg
            .blocks
            .iter()
            .map(|b| (b.start..b.end).filter(|&i| barrier_at[i]).count() as u32)
            .collect();
        let back: HashSet<(usize, usize)> = cfg.back_edges().into_iter().collect();
        let preds = cfg.preds();
        let mut phase: Vec<Option<u32>> = vec![None; n];
        let mut agreed = vec![false; n];
        let mut conflicts = Vec::new();
        if n > 0 {
            phase[0] = Some(0);
            agreed[0] = true;
        }
        for &b in &cfg.reverse_postorder() {
            if b == 0 {
                continue;
            }
            let mut first: Option<u32> = None;
            let mut conflict = None;
            let mut clean = true;
            for &p in &preds[b] {
                if back.contains(&(p, b)) || !reachable[p] {
                    continue;
                }
                let Some(pp) = phase[p] else {
                    clean = false;
                    continue;
                };
                clean &= agreed[p];
                let v = pp + count[p];
                match first {
                    None => first = Some(v),
                    Some(a) if a != v => conflict = Some((a, v)),
                    Some(_) => {}
                }
            }
            if let Some((a, v)) = conflict {
                conflicts.push((b, a, v));
            }
            phase[b] = first;
            agreed[b] = clean && conflict.is_none() && first.is_some();
        }
        BarrierPhases {
            barrier_at,
            count,
            phase,
            agreed,
            conflicts,
        }
    }

    /// Barrier joins in block `b`.
    pub(crate) fn joins(&self, b: usize) -> u32 {
        self.count[b]
    }

    /// The phase instruction `i` executes in, when every skeleton path to
    /// it agrees on one.
    pub(crate) fn of(&self, cfg: &Cfg, i: usize) -> Option<u32> {
        let b = cfg.block_of[i];
        if !self.agreed[b] {
            return None;
        }
        let before = (cfg.blocks[b].start..i)
            .filter(|&j| self.barrier_at[j])
            .count() as u32;
        self.phase[b].map(|p| p + before)
    }
}

/// Checks that every static path executes the same barrier-join sequence.
///
/// A join whose skeleton predecessors carry different phase counts means
/// tiles taking different paths join a different number of barriers. Each
/// conflict is attributed to the nearest dominating conditional branch: a
/// branch on a *tile-divergent* value (rank, coordinates, AMO result)
/// definitely deadlocks the group barrier — an error. A branch on a value
/// the analysis believes is tile-uniform (e.g. a flag every tile reads from
/// shared memory) keeps all tiles on the same path, so the imbalance is
/// only reported as info. Program exits must likewise agree.
fn check_barrier_phases(
    cfg: &Cfg,
    reachable: &[bool],
    phases: &BarrierPhases,
    divergent_branch_at: &[bool],
    diags: &mut Vec<Diagnostic>,
) {
    if cfg.blocks.is_empty() {
        return;
    }
    let idom = idoms(cfg, reachable);
    // Severity and framing for one conflict, based on the deciding branch.
    let attribute = |decider: Option<usize>| -> (Severity, String) {
        match decider {
            Some(d) => {
                let branch_pc = cfg.pc_of(cfg.blocks[d].end - 1);
                if divergent_branch_at[cfg.blocks[d].end - 1] {
                    (
                        Severity::Error,
                        format!(
                            "the deciding branch at {branch_pc:#x} depends on a \
                             tile-divergent value, so tiles take different paths and \
                             deadlock the group barrier"
                        ),
                    )
                } else {
                    (
                        Severity::Info,
                        format!(
                            "safe only because the deciding branch at {branch_pc:#x} \
                             appears tile-uniform; if it can differ across tiles the \
                             group barrier deadlocks"
                        ),
                    )
                }
            }
            None => (
                Severity::Error,
                "no single deciding branch found; if tiles can take different paths \
                 the group barrier deadlocks"
                    .to_owned(),
            ),
        }
    };

    for &(b, a, v) in &phases.conflicts {
        let (severity, why) = attribute(dominating_branch(cfg, &idom, b));
        diags.push(Diagnostic {
            severity,
            pc: Some(cfg.pc_of(cfg.blocks[b].start)),
            rule: Rule::BarrierMismatch,
            message: format!(
                "paths joining at {:#x} have executed different numbers of barrier \
                 joins ({} vs {}); {why}",
                cfg.pc_of(cfg.blocks[b].start),
                a.min(v),
                a.max(v),
            ),
        });
    }

    // Every exit must agree too: otherwise some tiles finish while others
    // still wait at a barrier.
    let mut exit_phase: Option<(u32, usize)> = None;
    for (bi, b) in cfg.blocks.iter().enumerate() {
        if !reachable[bi] || b.term != Terminator::Exit {
            continue;
        }
        let Some(p) = phases.phase[bi] else { continue };
        let v = p + phases.count[bi];
        match exit_phase {
            None => exit_phase = Some((v, bi)),
            Some((e, first)) if e != v => {
                let decider = common_dominator(&idom, first, bi)
                    .and_then(|cd| {
                        if cfg.blocks[cd].term == Terminator::Branch {
                            Some(cd)
                        } else {
                            dominating_branch(cfg, &idom, cd)
                        }
                    })
                    .or_else(|| dominating_branch(cfg, &idom, bi));
                let (severity, why) = attribute(decider);
                diags.push(Diagnostic {
                    severity,
                    pc: Some(cfg.pc_of(b.end - 1)),
                    rule: Rule::BarrierMismatch,
                    message: format!("program exits disagree on barrier count ({e} vs {v}); {why}"),
                });
            }
            Some(_) => {}
        }
    }
}

/// Footprint checks against the direct-mapped instruction cache.
fn check_icache(cfg: &Cfg, n_instrs: usize, lc: &LintConfig, diags: &mut Vec<Diagnostic>) {
    let bytes = n_instrs as u32 * INSTR_BYTES;
    if bytes > lc.icache_bytes {
        diags.push(Diagnostic {
            severity: Severity::Info,
            pc: None,
            rule: Rule::IcacheFootprint,
            message: format!(
                "program is {bytes} bytes but the icache holds {}; expect capacity \
                 misses when the working set spans the image",
                lc.icache_bytes
            ),
        });
    }
    let mut seen_heads = HashSet::new();
    for (tail, head) in cfg.back_edges() {
        if !seen_heads.insert(head) {
            continue;
        }
        let body = cfg.natural_loop(tail, head);
        let lo = body.iter().map(|&b| cfg.blocks[b].start).min().unwrap_or(0);
        let hi = body.iter().map(|&b| cfg.blocks[b].end).max().unwrap_or(0);
        let span = (hi - lo) as u32 * INSTR_BYTES;
        if span > lc.icache_bytes {
            diags.push(Diagnostic {
                severity: Severity::Warning,
                pc: Some(cfg.pc_of(cfg.blocks[head].start)),
                rule: Rule::IcacheLoopSpill,
                message: format!(
                    "loop at {:#x} spans {span} bytes, larger than the {}-byte \
                     direct-mapped icache: every iteration misses",
                    cfg.pc_of(cfg.blocks[head].start),
                    lc.icache_bytes
                ),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::{lint, Diagnostic, LintConfig, Rule};
    use hb_asm::Assembler;
    use hb_core::HbOps;
    use hb_isa::Gpr::*;

    fn unaligned(a: &Assembler) -> Vec<Diagnostic> {
        let p = a.assemble(0).unwrap();
        lint(&p, &LintConfig::default())
            .into_iter()
            .filter(|d| d.rule == Rule::UnalignedAccess)
            .collect()
    }

    /// `a0 - a0` is zero whatever the launch argument is, so the load
    /// below has a known, misaligned address.
    #[test]
    fn an_argument_minus_itself_is_the_constant_zero() {
        let mut a = Assembler::new();
        a.sub(T0, A0, A0);
        a.lw(T1, T0, 2);
        a.ecall();
        let d = unaligned(&a);
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].pc, Some(4));
    }

    /// The rank times the constant 0 is 0 on every tile.
    #[test]
    fn the_rank_times_zero_is_the_constant_zero() {
        let mut a = Assembler::new();
        a.tg_rank(T0, T6);
        a.mul(T1, T0, Zero);
        a.lw(T2, T1, 2);
        a.ecall();
        let d = unaligned(&a);
        assert_eq!(d.len(), 1, "{d:?}");
    }

    /// A value that depends on the rank or on an argument is not a
    /// constant, and an address that is not a constant is not classified.
    #[test]
    fn a_rank_or_argument_dependent_address_is_unknown() {
        let mut a = Assembler::new();
        a.tg_rank(T0, T6);
        a.slli(T1, T0, 2);
        a.lw(T2, T1, 2);
        a.addi(T3, A0, 2);
        a.lw(T4, T3, 0);
        a.ecall();
        assert_eq!(unaligned(&a), vec![]);
    }
}
