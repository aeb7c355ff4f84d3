//! BS — Black-Scholes European option pricing (MapReduce dwarf).
//!
//! Compute-intensive and low-communication: each tile prices a
//! rank-strided set of options entirely in FP registers, exercising the
//! iterative FP divide and square-root units heavily (the paper notes BS
//! is characterized by fdiv/fsqrt use and bypass stalls from polynomial
//! evaluation).

use crate::bench::{run_fresh, BenchStats, Benchmark, Kernel, Launch, SizeClass};
use crate::util::{emit_exp_approx, emit_ln_approx, prologue};
use hb_asm::{Assembler, Program};
use hb_core::{pgas, Machine, MachineConfig, SimError};
use hb_isa::{Fpr, Fpr::*, Gpr::*};
use hb_workloads::{gen, golden};
use std::sync::Arc;

/// The Black-Scholes benchmark over `count` options.
#[derive(Debug, Clone)]
pub struct BlackScholes {
    /// Number of options priced.
    pub count: u32,
}

impl Default for BlackScholes {
    fn default() -> BlackScholes {
        BlackScholes { count: 1024 }
    }
}

/// Emits `dst = CND(d)` (cumulative normal distribution, golden-matching).
/// Clobbers `Ft0..Ft7`, `T4` and `T5`; `d` must not alias those.
fn emit_cnd(a: &mut Assembler, dst: Fpr, d: Fpr) {
    const COEFF: [f32; 5] = [
        0.319_381_53,
        -0.356_563_78,
        1.781_477_9,
        -1.821_255_9,
        1.330_274_4,
    ];
    // l = |d|
    a.fabs(Ft0, d);
    // kk = 1 / (1 + 0.2316419 * l)
    a.lif(Ft1, T5, 0.231_641_9);
    a.lif(Ft2, T5, 1.0);
    a.fmadd(Ft1, Ft0, Ft1, Ft2);
    a.fdiv(Ft1, Ft2, Ft1);
    // poly = kk*(A0 + kk*(A1 + kk*(A2 + kk*(A3 + kk*A4))))
    a.lif(Ft3, T5, COEFF[4]);
    for i in (0..4).rev() {
        a.lif(Ft4, T5, COEFF[i]);
        a.fmadd(Ft3, Ft3, Ft1, Ft4);
    }
    a.fmul(Ft3, Ft3, Ft1);
    // ft5 = exp(-l*l/2)
    a.fmul(Ft4, Ft0, Ft0);
    a.lif(Ft5, T5, -0.5);
    a.fmul(Ft4, Ft4, Ft5);
    emit_exp_approx(a, Ft5, Ft4, Ft6, T5);
    // w = 1 - 0.39894228 * ft5 * poly
    a.lif(Ft6, T5, 0.398_942_3);
    a.fmul(Ft6, Ft6, Ft5);
    a.fmul(Ft6, Ft6, Ft3);
    a.lif(Ft7, T5, 1.0);
    a.fsub(dst, Ft7, Ft6);
    // if d < 0: w = 1 - w
    a.fmv_w_x(Ft0, Zero);
    a.flt(T5, d, Ft0);
    let skip = a.new_label();
    a.beqz(T5, skip);
    a.lif(Ft7, T4, 1.0);
    a.fsub(dst, Ft7, dst);
    a.bind(skip);
}

impl BlackScholes {
    fn sized(&self, size: SizeClass) -> BlackScholes {
        match size {
            SizeClass::Tiny => BlackScholes { count: 64 },
            SizeClass::Small => self.clone(),
            SizeClass::Large => BlackScholes { count: 4096 },
        }
    }

    /// Builds the kernel. Arguments: `a0`=spot, `a1`=strike, `a2`=time,
    /// `a3`=out, `a4`=count.
    pub fn program() -> Program {
        let mut a = Assembler::new();
        prologue(&mut a, S10, S11, T6);
        a.mv(S0, S10); // i = rank
        let loop_top = a.new_label();
        let done = a.new_label();
        a.bind(loop_top);
        a.bge(S0, A4, done);

        a.slli(T0, S0, 2);
        a.add(T1, A0, T0);
        a.flw(Fs0, T1, 0); // s
        a.add(T1, A1, T0);
        a.flw(Fs1, T1, 0); // k
        a.add(T1, A2, T0);
        a.flw(Fs2, T1, 0); // t

        // fs3 = sqrt(t)
        a.fsqrt(Fs3, Fs2);
        // fs4 = ln(s/k)
        a.fdiv(Fs5, Fs0, Fs1);
        emit_ln_approx(&mut a, Fs4, Fs5, Ft0, Ft1, Ft2, T5);
        // fs4 += (R + V^2/2) * t
        a.lif(Ft0, T5, 0.02 + 0.30 * 0.30 / 2.0);
        a.fmadd(Fs4, Ft0, Fs2, Fs4);
        // fs5 = V * sqrt(t); d1 = fs4/fs5; d2 = d1 - fs5
        a.lif(Ft0, T5, 0.30);
        a.fmul(Fs5, Ft0, Fs3);
        a.fdiv(Fs6, Fs4, Fs5); // d1
        a.fsub(Fs7, Fs6, Fs5); // d2
                               // fs8 = CND(d1), fs9 = CND(d2)
        emit_cnd(&mut a, Fs8, Fs6);
        emit_cnd(&mut a, Fs9, Fs7);
        // fs10 = exp(-R*t)
        a.lif(Ft0, T5, -0.02);
        a.fmul(Ft0, Ft0, Fs2);
        emit_exp_approx(&mut a, Fs10, Ft0, Ft1, T5);
        // price = s*cnd(d1) - k*exp(-rt)*cnd(d2)
        a.fmul(Ft0, Fs1, Fs10);
        a.fmul(Ft0, Ft0, Fs9);
        a.fmsub(Fa0, Fs0, Fs8, Ft0);
        // out[i] = price
        a.slli(T0, S0, 2);
        a.add(T1, A3, T0);
        a.fsw(Fa0, T1, 0);

        a.add(S0, S0, S11);
        a.j(loop_top);
        a.bind(done);
        a.fence();
        a.ecall();
        a.assemble(0).expect("black-scholes assembles")
    }
}

impl Benchmark for BlackScholes {
    fn name(&self) -> &'static str {
        "BS"
    }

    fn dwarf(&self) -> &'static str {
        "MapReduce"
    }

    fn run(&self, cfg: &MachineConfig, size: SizeClass) -> Result<BenchStats, SimError> {
        run_fresh(self, cfg, size)
    }
}

impl Kernel for BlackScholes {
    fn program(&self) -> Program {
        Self::program()
    }

    /// Validates against [`golden::black_scholes_call`].
    fn prepare(&self, machine: &mut Machine, size: SizeClass) -> Launch {
        let n = self.sized(size).count;
        let opts = gen::bs_options(n as usize, 0xB5);

        let cell = machine.cell_mut(0);
        let spot = cell.alloc(n * 4, 64);
        let strike = cell.alloc(n * 4, 64);
        let time = cell.alloc(n * 4, 64);
        let out = cell.alloc(n * 4, 64);
        let d = cell.dram_mut();
        for (i, &(s, k, t)) in opts.iter().enumerate() {
            d.write_f32(spot + 4 * i as u32, s);
            d.write_f32(strike + 4 * i as u32, k);
            d.write_f32(time + 4 * i as u32, t);
        }

        Launch {
            program: Arc::new(Self::program()),
            args: vec![
                pgas::local_dram(spot),
                pgas::local_dram(strike),
                pgas::local_dram(time),
                pgas::local_dram(out),
                n,
            ],
            work_units: 1.0,
            check: Box::new(move |machine| {
                let got = machine.cell(0).dram().read_f32_slice(out, n as usize);
                for (i, (g, &(s, k, t))) in got.iter().zip(&opts).enumerate() {
                    let e = golden::black_scholes_call(s, k, t);
                    assert!(
                        (g - e).abs() <= e.abs() * 2e-3 + 2e-3,
                        "BS mismatch at option {i}: sim {g} vs golden {e} ({:?})",
                        opts[i]
                    );
                }
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hb_core::{CellDim, StallKind};

    #[test]
    fn bs_validates_and_uses_fp_divider() {
        let cfg = MachineConfig {
            cell_dim: CellDim { x: 4, y: 2 },
            ..MachineConfig::baseline_16x8()
        };
        let stats = BlackScholes::default().run(&cfg, SizeClass::Tiny).unwrap();
        assert!(stats.core.fp_cycles > 0);
        // The paper: BS leans on the iterative fdiv/fsqrt unit.
        assert!(
            stats.core.stall(StallKind::FpBusy) + stats.core.stall(StallKind::Bypass) > 0,
            "expected FP pipeline pressure"
        );
    }
}
