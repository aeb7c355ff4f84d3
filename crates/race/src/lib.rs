//! Two-sided race checking for HammerBlade kernels.
//!
//! This crate closes the loop between the two independent race detectors
//! in the workspace:
//!
//! - the **static** side — `hb-lint`'s [`phase-race`](hb_lint::Rule::PhaseRace)
//!   pass ([`hb_lint::phases`]), which abstractly interprets a kernel over
//!   a symbolic tile rank and reports access pairs that can touch the same
//!   shared word in the same barrier phase;
//! - the **dynamic** side — the barrier-epoch sanitizer in the cycle model
//!   ([`hb_core::RaceChecker`]), which stamps every shared-location access
//!   with its tile's barrier epoch and reports same-epoch conflicting
//!   pairs as they happen.
//!
//! The contract between them is one-directional soundness: **every race
//! the sanitizer observes must have been statically flagged** (the static
//! pass over-approximates; the dynamic pass only sees what a particular
//! run did). [`cross_validate`] enforces that contract, and the racy
//! fixtures in [`hb_kernels::fixtures`] exercise it with exact expected
//! finding counts on both sides. The clean direction — every entry of
//! [`hb_kernels::kernels`] produces zero findings from either checker — is
//! covered by [`check_suite`] and the `race_check` harness binary.

#![forbid(unsafe_code)]

use hb_asm::Program;
use hb_core::{pgas, Machine, MachineConfig, RaceReport};
use hb_kernels::fixtures::Fixture;
use hb_kernels::SizeClass;
use hb_lint::phases::phase_conflicts;
pub use hb_lint::phases::PhaseConflict;
use hb_lint::LintConfig;
use std::collections::BTreeSet;
use std::sync::Arc;

/// Runs the static phase-conflict analysis against `cfg`'s machine shape.
pub fn static_conflicts(program: &Program, cfg: &MachineConfig) -> Vec<PhaseConflict> {
    phase_conflicts(program, &LintConfig::for_machine(cfg))
}

/// Everything both checkers said about one fixture run.
pub struct FixtureOutcome {
    pub name: &'static str,
    /// Static `phase-race` findings for the fixture's program.
    pub statics: Vec<PhaseConflict>,
    /// Raw dynamic reports from the sanitized run.
    pub dynamic: Vec<RaceReport>,
    /// The same reports rendered with both PCs disassembled.
    pub rendered: Vec<String>,
}

/// Runs one fixture through both checkers: the static pass over its
/// program, then a run on a machine built from `cfg` with the sanitizer
/// switched on, one `ranks + 1`-word DRAM buffer per launch argument.
///
/// # Panics
///
/// Panics if the simulated run itself fails (timeout, fault) — fixtures
/// are racy, not broken.
pub fn run_fixture(f: &Fixture, cfg: &MachineConfig) -> FixtureOutcome {
    let program = (f.build)();
    let statics = static_conflicts(&program, cfg);
    let ranks = u32::from(cfg.cell_dim.x) * u32::from(cfg.cell_dim.y);
    let mut m = Machine::new(cfg.clone());
    m.set_race_check(true);
    let args: Vec<u32> = (0..f.buffers)
        .map(|_| pgas::local_dram(m.cell_mut(0).alloc((ranks + 1) * 4, 64)))
        .collect();
    let p = Arc::new(program);
    m.launch(0, &p, &args);
    m.run(10_000_000)
        .unwrap_or_else(|e| panic!("fixture {} did not complete: {e:?}", f.name));
    let rendered = m.render_races();
    let dynamic = m.race_reports().to_vec();
    FixtureOutcome {
        name: f.name,
        statics,
        dynamic,
        rendered,
    }
}

fn unordered(a: u32, b: u32) -> (u32, u32) {
    (a.min(b), a.max(b))
}

/// Checks the soundness contract: every dynamically observed race — an
/// unordered `(pc, pc)` instruction pair — must appear among the static
/// findings. The static side may (and usually does) over-approximate;
/// the reverse direction is *not* required.
pub fn cross_validate(statics: &[PhaseConflict], dynamic: &[RaceReport]) -> Result<(), String> {
    let known: BTreeSet<(u32, u32)> = statics.iter().map(|c| unordered(c.pc_a, c.pc_b)).collect();
    for r in dynamic {
        let pair = unordered(r.a.pc, r.b.pc);
        if !known.contains(&pair) {
            return Err(format!(
                "soundness regression: dynamic race between pcs {:#x} and {:#x} \
                 (on {}) was not statically flagged",
                pair.0,
                pair.1,
                r.loc.render()
            ));
        }
    }
    Ok(())
}

/// Verdict for one suite kernel: finding counts from both checkers.
pub struct SuiteEntry {
    pub name: &'static str,
    pub static_findings: usize,
    pub dynamic_findings: usize,
    /// Rendered dynamic reports (empty for a clean kernel).
    pub races: Vec<String>,
}

impl SuiteEntry {
    pub fn is_clean(&self) -> bool {
        self.static_findings == 0 && self.dynamic_findings == 0
    }
}

/// Runs every [`hb_kernels::kernels`] entry through both checkers: the
/// static pass against `cfg`'s shape and a full sanitized benchmark run
/// (which also golden-validates the output, proving the sanitizer is
/// read-only).
///
/// # Panics
///
/// Panics if a benchmark run fails or mis-validates.
pub fn check_suite(cfg: &MachineConfig, size: SizeClass) -> Vec<SuiteEntry> {
    hb_kernels::kernels()
        .into_iter()
        .map(|(name, kernel)| {
            let statics = static_conflicts(&kernel.program(), cfg);
            let mut machine = Machine::new(cfg.clone());
            machine.set_race_check(true);
            hb_kernels::run_on(&mut machine, kernel.as_ref(), size)
                .unwrap_or_else(|e| panic!("{name} failed under the sanitizer: {e:?}"));
            let races = machine.render_races();
            SuiteEntry {
                name,
                static_findings: statics.len(),
                dynamic_findings: races.len(),
                races,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use hb_core::CellDim;

    fn cfg() -> MachineConfig {
        MachineConfig {
            cell_dim: CellDim { x: 4, y: 2 },
            ..MachineConfig::baseline_16x8()
        }
    }

    #[test]
    fn fixtures_match_expected_counts_and_cross_validate() {
        for f in hb_kernels::fixtures::all() {
            let out = run_fixture(&f, &cfg());
            assert_eq!(
                out.statics.len(),
                f.expect_static,
                "{}: static findings {:#?}",
                f.name,
                out.statics
            );
            assert_eq!(
                out.dynamic.len(),
                f.expect_dynamic,
                "{}: dynamic reports:\n{}",
                f.name,
                out.rendered.join("\n")
            );
            cross_validate(&out.statics, &out.dynamic)
                .unwrap_or_else(|e| panic!("{}: {e}", f.name));
            // Rendered reports carry both disassembled PCs.
            for r in &out.rendered {
                assert!(r.contains("race on"), "{r}");
                assert!(!r.contains("[?]"), "PC failed to disassemble: {r}");
            }
        }
    }

    #[test]
    fn clean_kernel_is_clean_on_both_sides() {
        use hb_core::HbOps;
        use hb_isa::Gpr::*;
        let mut a = hb_asm::Assembler::new();
        a.tg_rank(T0, T6);
        a.slli(T1, T0, 2);
        a.add(T2, A0, T1);
        a.sw(T0, T2, 0);
        a.fence();
        a.barrier(T6);
        a.lw(T3, T2, 4);
        a.fence();
        a.ecall();
        let program = a.assemble(0).unwrap();

        let c = cfg();
        assert!(static_conflicts(&program, &c).is_empty());
        let mut m = Machine::new(c);
        m.set_race_check(true);
        let buf = m.cell_mut(0).alloc(9 * 4, 64);
        let p = Arc::new(program);
        m.launch(0, &p, &[pgas::local_dram(buf)]);
        m.run(1_000_000).unwrap();
        assert!(m.race_reports().is_empty());
    }
}
