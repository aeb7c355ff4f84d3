//! Static kernel verifier for HammerBlade RV32IMAF programs.
//!
//! All evaluation kernels are hand-written through the `hb-asm` builder, so
//! a mis-paired barrier, a use-before-def register or a scoreboard overrun
//! otherwise only surfaces as a hung or silently-wrong cycle-level
//! simulation. This crate analyses an assembled [`hb_asm::Program`] *before*
//! simulation:
//!
//! 1. a basic-block CFG ([`mod@cfg`]) with reachability and falls-off-end
//!    detection;
//! 2. classic dataflow ([`dataflow`]): use-before-def over GPRs and FPRs,
//!    dead-write detection via backward liveness, unreachable blocks;
//! 3. one abstract interpretation per program ([`absint`]): rank-affine
//!    register values drive an address classifier reading the PGAS map,
//!    which feeds scoreboard-occupancy intervals, barrier-pairing phase
//!    checks, alignment/bounds checks and icache footprint estimates;
//! 4. cross-tile barrier-phase races ([`phases`]) over the accesses and the
//!    barrier-phase numbering that same interpretation collects.
//!
//! Run [`lint`] for the full battery, or assemble with
//! [`AssembleChecked::assemble_checked`] to reject programs with
//! `Error`-severity findings outright. The `lint-kernels` binary applies the
//! battery to every kernel in `hb-kernels`.
//!
//! # Examples
//!
//! ```
//! use hb_asm::Assembler;
//! use hb_isa::Gpr::*;
//! use hb_lint::{lint, LintConfig, Severity};
//!
//! let mut a = Assembler::new();
//! a.add(A0, T3, T4); // t3/t4 were never written
//! a.ecall();
//! let program = a.assemble(0).unwrap();
//! let diags = lint(&program, &LintConfig::default());
//! assert!(diags.iter().any(|d| d.severity == Severity::Error));
//! ```

#![forbid(unsafe_code)]

pub mod absint;
pub mod cfg;
pub mod dataflow;
pub mod phases;

use hb_asm::{AsmError, Assembler, Program};
use hb_core::pgas::PgasMap;
use hb_core::MachineConfig;
use std::collections::BTreeSet;
use std::fmt;

/// How serious a finding is.
///
/// `Error` findings describe programs that trap, deadlock or read garbage
/// when simulated; `assemble_checked` and CI reject them. `Warning` findings
/// are very likely bugs but may be path-insensitive over-approximations.
/// `Info` findings are performance observations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Performance observation or analysis limitation note.
    Info,
    /// Probable bug; may be a false positive on unusual control flow.
    Warning,
    /// Definite defect: the program traps, deadlocks or reads undefined
    /// values on some statically-found path.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Severity::Info => "info",
            Severity::Warning => "warning",
            Severity::Error => "error",
        })
    }
}

/// The rule a [`Diagnostic`] was produced by.
///
/// Rule names (see [`Rule::name`]) are stable identifiers usable with
/// [`LintConfig::disable`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Rule {
    /// A register is read before any instruction wrote it.
    UseBeforeDef,
    /// A written value is never read again.
    DeadWrite,
    /// A block no path from the entry reaches.
    UnreachableBlock,
    /// Execution can run past the last instruction, or a branch/jump
    /// targets an address outside the program image.
    FallsOffEnd,
    /// An indirect jump the analyses cannot follow.
    IndirectJump,
    /// Outstanding remote operations can exceed the scoreboard, stalling
    /// the core for credits.
    ScoreboardPressure,
    /// A remote-loaded value is consumed before it is fenced; the
    /// per-register interlock stalls the core.
    RemoteUseStall,
    /// Static paths execute different barrier-join sequences; the
    /// tile-group barrier deadlocks.
    BarrierMismatch,
    /// A barrier join with posted remote stores still in flight.
    BarrierWithoutFence,
    /// `ecall` with posted remote stores still in flight.
    UnfencedExit,
    /// A memory access whose statically-known address is misaligned.
    UnalignedAccess,
    /// A statically-known address that faults in PGAS translation (SPM
    /// overrun, nonexistent tile or cell, DRAM window overrun).
    SpmOutOfBounds,
    /// An access to a CSR that traps (unknown CSR, load of the store-only
    /// barrier CSR, store to a read-only CSR).
    BadCsrAccess,
    /// An atomic targeting the local SPM/CSR space, or lr/sc (both trap).
    AmoToLocal,
    /// The program image is larger than the instruction cache.
    IcacheFootprint,
    /// A loop body spans more than the instruction cache.
    IcacheLoopSpill,
    /// Two accesses from different tiles can touch the same shared word in
    /// the same barrier phase without ordering (see [`mod@phases`]).
    PhaseRace,
}

impl Rule {
    /// Every rule, in a fixed order.
    pub const ALL: [Rule; 17] = [
        Rule::UseBeforeDef,
        Rule::DeadWrite,
        Rule::UnreachableBlock,
        Rule::FallsOffEnd,
        Rule::IndirectJump,
        Rule::ScoreboardPressure,
        Rule::RemoteUseStall,
        Rule::BarrierMismatch,
        Rule::BarrierWithoutFence,
        Rule::UnfencedExit,
        Rule::UnalignedAccess,
        Rule::SpmOutOfBounds,
        Rule::BadCsrAccess,
        Rule::AmoToLocal,
        Rule::IcacheFootprint,
        Rule::IcacheLoopSpill,
        Rule::PhaseRace,
    ];

    /// The stable kebab-case identifier of this rule.
    pub const fn name(self) -> &'static str {
        match self {
            Rule::UseBeforeDef => "use-before-def",
            Rule::DeadWrite => "dead-write",
            Rule::UnreachableBlock => "unreachable-block",
            Rule::FallsOffEnd => "falls-off-end",
            Rule::IndirectJump => "indirect-jump",
            Rule::ScoreboardPressure => "scoreboard-pressure",
            Rule::RemoteUseStall => "remote-use-stall",
            Rule::BarrierMismatch => "barrier-mismatch",
            Rule::BarrierWithoutFence => "barrier-without-fence",
            Rule::UnfencedExit => "unfenced-exit",
            Rule::UnalignedAccess => "unaligned-access",
            Rule::SpmOutOfBounds => "spm-out-of-bounds",
            Rule::BadCsrAccess => "bad-csr-access",
            Rule::AmoToLocal => "amo-to-local",
            Rule::IcacheFootprint => "icache-footprint",
            Rule::IcacheLoopSpill => "icache-loop-spill",
            Rule::PhaseRace => "phase-race",
        }
    }

    /// Parses a stable rule name back to the rule.
    pub fn from_name(name: &str) -> Option<Rule> {
        Rule::ALL.into_iter().find(|r| r.name() == name)
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One finding of the linter.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// How serious the finding is.
    pub severity: Severity,
    /// Byte address of the offending instruction, if the finding anchors to
    /// one (`None` for whole-program findings such as icache footprint).
    pub pc: Option<u32>,
    /// The rule that produced the finding.
    pub rule: Rule,
    /// Human-readable explanation.
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.pc {
            Some(pc) => write!(
                f,
                "{}[{}] at {pc:#010x}: {}",
                self.severity, self.rule, self.message
            ),
            None => write!(f, "{}[{}]: {}", self.severity, self.rule, self.message),
        }
    }
}

/// Machine parameters the analyses check against, plus rule suppression.
///
/// Defaults mirror [`MachineConfig::baseline_16x8`]; use
/// [`LintConfig::for_machine`] to lint against a different configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LintConfig {
    /// The machine's address map: every EVA is classified through
    /// [`PgasMap::decode`], the decoder the tiles translate with.
    pub pgas: PgasMap,
    /// Instruction-cache bytes per tile.
    pub icache_bytes: u32,
    /// Remote-op scoreboard capacity.
    pub max_outstanding: u32,
    /// Rules whose diagnostics are dropped.
    pub disabled: BTreeSet<Rule>,
}

impl Default for LintConfig {
    fn default() -> LintConfig {
        LintConfig::for_machine(&MachineConfig::baseline_16x8())
    }
}

impl LintConfig {
    /// Builds a lint configuration matching a machine configuration (the
    /// map of Cell 0: a kernel names its own Cell as [`OWN_CELL`]).
    ///
    /// [`OWN_CELL`]: hb_core::pgas::OWN_CELL
    pub fn for_machine(cfg: &MachineConfig) -> LintConfig {
        LintConfig {
            pgas: PgasMap::new(cfg, 0),
            icache_bytes: cfg.icache_bytes,
            max_outstanding: cfg.max_outstanding as u32,
            disabled: BTreeSet::new(),
        }
    }

    /// Suppresses a rule (builder style).
    pub fn disable(mut self, rule: Rule) -> LintConfig {
        self.disabled.insert(rule);
        self
    }
}

/// Runs every analysis over `program` and returns the findings, sorted by
/// descending severity then ascending address.
pub fn lint(program: &Program, config: &LintConfig) -> Vec<Diagnostic> {
    let graph = cfg::Cfg::build(program);
    let instrs = program.instrs();
    let mut diags = Vec::new();
    dataflow::check_reachability(&graph, &mut diags);
    dataflow::check_use_before_def(&graph, instrs, &mut diags);
    dataflow::check_dead_writes(&graph, instrs, &mut diags);
    let facts = absint::interpret(&graph, instrs, config, &mut diags);
    phases::report(&graph, &facts, config, &mut diags);
    diags.retain(|d| !config.disabled.contains(&d.rule));
    diags.sort_by(|a, b| {
        b.severity
            .cmp(&a.severity)
            .then(a.pc.unwrap_or(u32::MAX).cmp(&b.pc.unwrap_or(u32::MAX)))
    });
    diags
}

/// Renders a diagnostic with up to two lines of disassembly context on each
/// side of the offending instruction.
pub fn render(program: &Program, diag: &Diagnostic) -> String {
    use std::fmt::Write;
    let mut out = diag.to_string();
    let Some(pc) = diag.pc else {
        return out;
    };
    let base = program.base();
    if pc < base {
        return out;
    }
    let idx = ((pc - base) / hb_isa::INSTR_BYTES) as usize;
    let instrs = program.instrs();
    if idx >= instrs.len() {
        return out;
    }
    let lo = idx.saturating_sub(2);
    let hi = (idx + 3).min(instrs.len());
    for (i, instr) in instrs.iter().enumerate().take(hi).skip(lo) {
        let marker = if i == idx { ">>>" } else { "   " };
        let at = base + (i as u32) * hb_isa::INSTR_BYTES;
        write!(out, "\n  {marker} {at:08x}:  {instr}").unwrap();
    }
    out
}

/// Why [`AssembleChecked::assemble_checked`] rejected a program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckError {
    /// Label resolution or encoding failed.
    Asm(AsmError),
    /// The assembled program has `Error`-severity findings (all findings
    /// are included, errors first).
    Lint(Vec<Diagnostic>),
}

impl fmt::Display for CheckError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckError::Asm(e) => write!(f, "assembly failed: {e}"),
            CheckError::Lint(diags) => {
                let errors = diags
                    .iter()
                    .filter(|d| d.severity == Severity::Error)
                    .count();
                write!(f, "lint found {errors} error(s):")?;
                for d in diags.iter().filter(|d| d.severity == Severity::Error) {
                    write!(f, "\n  {d}")?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for CheckError {}

impl From<AsmError> for CheckError {
    fn from(e: AsmError) -> CheckError {
        CheckError::Asm(e)
    }
}

/// Opt-in strict assembly: assemble, then reject the program if the linter
/// finds any `Error`-severity diagnostic.
///
/// Implemented for [`hb_asm::Assembler`]; lives here (not in `hb-asm`) so
/// the assembler crate stays dependency-free.
pub trait AssembleChecked {
    /// Assembles at `base_pc` and lints the result against `config`.
    ///
    /// # Errors
    ///
    /// Returns [`CheckError::Asm`] if assembly itself fails, or
    /// [`CheckError::Lint`] carrying every finding if any has
    /// [`Severity::Error`].
    fn assemble_checked(&self, base_pc: u32, config: &LintConfig) -> Result<Program, CheckError>;
}

impl AssembleChecked for Assembler {
    fn assemble_checked(&self, base_pc: u32, config: &LintConfig) -> Result<Program, CheckError> {
        let program = self.assemble(base_pc)?;
        let diags = lint(&program, config);
        if diags.iter().any(|d| d.severity == Severity::Error) {
            return Err(CheckError::Lint(diags));
        }
        Ok(program)
    }
}
