//! Shared kernel-authoring helpers.

use hb_asm::Assembler;
use hb_core::{Cell, HbOps};
use hb_isa::Gpr;

/// Allocates a 64-byte-aligned Local-DRAM buffer holding `data`.
pub(crate) fn alloc_u32(cell: &mut Cell, data: &[u32]) -> u32 {
    let p = cell.alloc((data.len() * 4) as u32, 64);
    cell.dram_mut().write_u32_slice(p, data);
    p
}

/// [`alloc_u32`] for floats.
pub(crate) fn alloc_f32(cell: &mut Cell, data: &[f32]) -> u32 {
    let p = cell.alloc((data.len() * 4) as u32, 64);
    cell.dram_mut().write_f32_slice(p, data);
    p
}

/// Emits the standard kernel prologue: `rank` ← *live* tile-group rank
/// and `nthreads` ← live tile-group size (clobbering `scratch`). Launch
/// arguments stay in `a0..a7`.
///
/// Using the live-rank CSRs instead of `TG_RANK`/`TG_SIZE` makes every
/// rank-strided kernel degrade transparently around tiles disabled via
/// `MachineConfig::disabled_tiles`: live tiles see a dense `0..live_size`
/// rank space and simply cover more work each. With no tiles disabled the
/// CSRs read identically to the plain rank/size, and the load sequence is
/// the same length, so fault-free runs are bit-identical.
pub fn prologue(a: &mut Assembler, rank: Gpr, nthreads: Gpr, scratch: Gpr) {
    a.tg_live_rank(rank, scratch);
    a.tg_live_size(nthreads, scratch);
}

/// Emits `exp(x) ~= (1 + x/256)^256` into `dst` (eight fmuls), matching
/// [`hb_workloads::golden::exp_approx`]. Clobbers `tmp` (FP) and
/// `scratch` (int).
pub fn emit_exp_approx(
    a: &mut Assembler,
    dst: hb_isa::Fpr,
    x: hb_isa::Fpr,
    tmp: hb_isa::Fpr,
    scratch: Gpr,
) {
    // tmp = 1/256
    a.lif(tmp, scratch, 1.0 / 256.0);
    a.fmul(tmp, x, tmp);
    // dst = 1 + tmp
    a.lif(dst, scratch, 1.0);
    a.fadd(dst, dst, tmp);
    for _ in 0..8 {
        a.fmul(dst, dst, dst);
    }
}

/// Emits `ln(x) ~= 2*artanh((x-1)/(x+1))` (4-term series) into `dst`,
/// matching [`hb_workloads::golden::ln_approx`]. Clobbers `t0..t2` (FP)
/// and `scratch`.
pub fn emit_ln_approx(
    a: &mut Assembler,
    dst: hb_isa::Fpr,
    x: hb_isa::Fpr,
    t0: hb_isa::Fpr,
    t1: hb_isa::Fpr,
    t2: hb_isa::Fpr,
    scratch: Gpr,
) {
    use hb_isa::Fpr;
    let one: Fpr = t2;
    a.lif(one, scratch, 1.0);
    // t0 = (x-1), t1 = (x+1), t0 = y = t0/t1
    a.fsub(t0, x, one);
    a.fadd(t1, x, one);
    a.fdiv(t0, t0, t1); // y
    a.fmul(t1, t0, t0); // y2
                        // dst = 1/7
    a.lif(dst, scratch, 1.0 / 7.0);
    a.fmul(dst, dst, t1);
    a.lif(t2, scratch, 1.0 / 5.0);
    a.fadd(dst, dst, t2);
    a.fmul(dst, dst, t1);
    a.lif(t2, scratch, 1.0 / 3.0);
    a.fadd(dst, dst, t2);
    a.fmul(dst, dst, t1);
    a.lif(t2, scratch, 1.0);
    a.fadd(dst, dst, t2);
    a.fmul(dst, dst, t0);
    // dst *= 2
    a.lif(t2, scratch, 2.0);
    a.fmul(dst, dst, t2);
}

#[cfg(test)]
mod tests {
    use super::*;
    use hb_core::{pgas, CellDim, Machine, MachineConfig};
    use hb_isa::{Fpr::*, Gpr::*};
    use std::sync::Arc;

    /// Runs a one-tile FP snippet and returns the f32 it stores to DRAM.
    fn run_fp_snippet(build: impl Fn(&mut Assembler)) -> f32 {
        let mut cfg = MachineConfig::baseline_16x8();
        cfg.cell_dim = CellDim { x: 1, y: 1 };
        let mut m = Machine::new(cfg);
        let out = m.cell_mut(0).alloc(4, 64);
        let mut a = Assembler::new();
        build(&mut a);
        // fa0 holds the result; a0 the output EVA.
        a.fsw(Fa0, A0, 0);
        a.fence();
        a.ecall();
        let p = Arc::new(a.assemble(0).unwrap());
        m.launch(0, &p, &[pgas::local_dram(out)]);
        m.run(1_000_000).unwrap();
        m.cell_mut(0).flush_caches();
        m.cell(0).dram().read_f32(out)
    }

    #[test]
    fn exp_matches_golden() {
        for x in [-2.0f32, -0.5, 0.0, 1.0, 2.5] {
            let got = run_fp_snippet(|a| {
                a.lif(Fa1, T0, x);
                emit_exp_approx(a, Fa0, Fa1, Ft0, T0);
            });
            let want = hb_workloads::golden::exp_approx(x);
            assert!(
                (got - want).abs() <= want.abs() * 1e-6 + 1e-9,
                "exp({x}): sim {got} vs golden {want}"
            );
        }
    }

    #[test]
    fn ln_matches_golden() {
        for x in [0.3f32, 1.0, 2.0, 7.5] {
            let got = run_fp_snippet(|a| {
                a.lif(Fa1, T0, x);
                emit_ln_approx(a, Fa0, Fa1, Ft0, Ft1, Ft2, T0);
            });
            let want = hb_workloads::golden::ln_approx(x);
            assert!(
                (got - want).abs() <= 1e-5,
                "ln({x}): sim {got} vs golden {want}"
            );
        }
    }
}
