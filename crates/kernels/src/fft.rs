//! FFT — batched radix-2 complex FFT (spectral-methods dwarf).
//!
//! Compute-intensive with sequential access: each tile claims rank-strided
//! signals, streams the whole signal plus twiddle and bit-reversal tables
//! into Local SPM with large sequential loads (Load Packet Compression
//! territory), runs the in-SPM butterfly passes, and streams the spectrum
//! back out through the write-validate cache.

use crate::bench::{run_fresh, BenchStats, Benchmark, Kernel, Launch, SizeClass};
use crate::util::{alloc_f32, alloc_u32, prologue};
use hb_asm::{Assembler, Program};
use hb_core::{pgas, Machine, MachineConfig, SimError};
use hb_isa::{Fpr::*, Gpr::*};
use hb_workloads::{gen, golden};
use std::sync::Arc;

/// SPM layout for up to 128-point signals: data (interleaved complex) at
/// 0 (1 KB), bit-reversal table at 0x400 (512 B), twiddles (wr, wi
/// interleaved) at 0x600 (512 B).
const SPM_DATA: i32 = 0;
const SPM_REV: i32 = 0x400;
const SPM_TW: i32 = 0x600;

/// The batched-FFT benchmark: `batch` independent `points`-point FFTs.
#[derive(Debug, Clone)]
pub struct Fft {
    /// Transform size (power of two, <= 128).
    pub points: u32,
    /// Number of independent signals.
    pub batch: u32,
}

impl Default for Fft {
    fn default() -> Fft {
        Fft {
            points: 64,
            batch: 32,
        }
    }
}

impl Fft {
    fn sized(&self, size: SizeClass) -> Fft {
        match size {
            SizeClass::Tiny => Fft {
                points: 16,
                batch: 8,
            },
            SizeClass::Small => self.clone(),
            SizeClass::Large => Fft {
                points: 128,
                batch: 128,
            },
        }
    }

    /// Builds the kernel. Arguments: `a0`=signals (batch * 2N floats),
    /// `a1`=bit-reversal table (N words), `a2`=twiddles (N/2 interleaved
    /// (wr, wi) pairs), `a3`=batch, `a4`=N.
    pub fn program() -> Program {
        let mut a = Assembler::new();
        prologue(&mut a, S10, S11, T6);

        // ---- Copy the reversal table (N words) and twiddles (N floats)
        // into SPM once per tile ----
        a.mv(T0, A1);
        a.li(T1, SPM_REV);
        a.mv(T2, A4);
        let copy_rev = a.here();
        a.lw(T3, T0, 0);
        a.sw(T3, T1, 0);
        a.addi(T0, T0, 4);
        a.addi(T1, T1, 4);
        a.addi(T2, T2, -1);
        a.bnez(T2, copy_rev);
        a.mv(T0, A2);
        a.li(T1, SPM_TW);
        a.mv(T2, A4); // N floats = N/2 pairs * 2
        let copy_tw = a.here();
        a.lw(T3, T0, 0);
        a.sw(T3, T1, 0);
        a.addi(T0, T0, 4);
        a.addi(T1, T1, 4);
        a.addi(T2, T2, -1);
        a.bnez(T2, copy_tw);

        // ---- Signal loop ----
        a.mv(S0, S10); // s = rank
        let sig_loop = a.new_label();
        let done = a.new_label();
        a.bind(sig_loop);
        a.bge(S0, A3, done);

        // S1 = &signal[s] in DRAM (s * 2N * 4 bytes).
        a.slli(T0, A4, 3);
        a.mul(S1, S0, T0);
        a.add(S1, S1, A0);

        // Copy signal into SPM (2N words, 4-wide for LPC).
        a.mv(T0, S1);
        a.li(T1, SPM_DATA);
        a.slli(T2, A4, 1); // 2N words
        a.srli(T2, T2, 2); // /4 iterations (N multiple of 8 -> exact)
        let copy_sig = a.here();
        a.lw(T3, T0, 0);
        a.lw(T4, T0, 4);
        a.lw(T5, T0, 8);
        a.lw(S2, T0, 12);
        a.sw(T3, T1, 0);
        a.sw(T4, T1, 4);
        a.sw(T5, T1, 8);
        a.sw(S2, T1, 12);
        a.addi(T0, T0, 16);
        a.addi(T1, T1, 16);
        a.addi(T2, T2, -1);
        a.bnez(T2, copy_sig);

        // Bit-reversal permutation (swap pairs where rev[i] > i).
        a.li(S2, 0); // i
        let rev_loop = a.here();
        {
            a.slli(T0, S2, 2);
            a.lw(T1, T0, SPM_REV); // j = rev[i]
            let no_swap = a.new_label();
            a.ble(T1, S2, no_swap);
            // Swap complex i and j in SPM.
            a.slli(T2, S2, 3);
            a.slli(T3, T1, 3);
            a.flw(Ft0, T2, SPM_DATA);
            a.flw(Ft1, T2, SPM_DATA + 4);
            a.flw(Ft2, T3, SPM_DATA);
            a.flw(Ft3, T3, SPM_DATA + 4);
            a.fsw(Ft2, T2, SPM_DATA);
            a.fsw(Ft3, T2, SPM_DATA + 4);
            a.fsw(Ft0, T3, SPM_DATA);
            a.fsw(Ft1, T3, SPM_DATA + 4);
            a.bind(no_swap);
            a.addi(S2, S2, 1);
        }
        a.blt(S2, A4, rev_loop);

        // Butterfly stages: len = 2, 4, ..., N.
        a.li(S2, 2); // len
        let stage_loop = a.here();
        {
            a.srli(S3, S2, 1); // half = len/2
            a.divu(S4, A4, S2); // tstep = N / len
            a.li(S5, 0); // start
            let group_loop = a.here();
            {
                a.li(S6, 0); // k
                let bf_loop = a.here();
                {
                    // Twiddle: index k * tstep, pairs of 8 bytes.
                    a.mul(T0, S6, S4);
                    a.slli(T0, T0, 3);
                    a.flw(Fs0, T0, SPM_TW); // wr
                    a.flw(Fs1, T0, SPM_TW + 4); // wi
                                                // i = start + k, j = i + half (complex indices).
                    a.add(T1, S5, S6);
                    a.slli(T1, T1, 3);
                    a.slli(T3, S3, 3);
                    a.add(T2, T1, T3); // j byte offset
                    a.flw(Fa0, T2, SPM_DATA); // xr
                    a.flw(Fa1, T2, SPM_DATA + 4); // xi
                                                  // (tr, ti) = x * w
                    a.fmul(Fa2, Fa0, Fs0);
                    a.fnmsub(Fa2, Fa1, Fs1, Fa2); // tr = xr*wr - xi*wi
                    a.fmul(Fa3, Fa0, Fs1);
                    a.fmadd(Fa3, Fa1, Fs0, Fa3); // ti = xr*wi + xi*wr
                    a.flw(Fa4, T1, SPM_DATA); // ur
                    a.flw(Fa5, T1, SPM_DATA + 4); // ui
                    a.fadd(Fa6, Fa4, Fa2);
                    a.fsw(Fa6, T1, SPM_DATA);
                    a.fadd(Fa7, Fa5, Fa3);
                    a.fsw(Fa7, T1, SPM_DATA + 4);
                    a.fsub(Fa6, Fa4, Fa2);
                    a.fsw(Fa6, T2, SPM_DATA);
                    a.fsub(Fa7, Fa5, Fa3);
                    a.fsw(Fa7, T2, SPM_DATA + 4);
                    a.addi(S6, S6, 1);
                }
                a.blt(S6, S3, bf_loop);
                a.add(S5, S5, S2);
            }
            a.blt(S5, A4, group_loop);
            a.slli(S2, S2, 1);
        }
        a.ble(S2, A4, stage_loop);

        // Copy the spectrum back to DRAM.
        a.li(T0, SPM_DATA);
        a.mv(T1, S1);
        a.slli(T2, A4, 1);
        a.srli(T2, T2, 2);
        let copy_out = a.here();
        a.lw(T3, T0, 0);
        a.lw(T4, T0, 4);
        a.lw(T5, T0, 8);
        a.lw(S2, T0, 12);
        a.sw(T3, T1, 0);
        a.sw(T4, T1, 4);
        a.sw(T5, T1, 8);
        a.sw(S2, T1, 12);
        a.addi(T0, T0, 16);
        a.addi(T1, T1, 16);
        a.addi(T2, T2, -1);
        a.bnez(T2, copy_out);

        a.add(S0, S0, S11);
        a.j(sig_loop);
        a.bind(done);
        a.fence();
        a.ecall();
        a.assemble(0).expect("fft assembles")
    }
}

impl Benchmark for Fft {
    fn name(&self) -> &'static str {
        "FFT"
    }

    fn dwarf(&self) -> &'static str {
        "Spectral Methods"
    }

    fn run(&self, cfg: &MachineConfig, size: SizeClass) -> Result<BenchStats, SimError> {
        run_fresh(self, cfg, size)
    }
}

impl Kernel for Fft {
    fn program(&self) -> Program {
        Self::program()
    }

    /// Validates against [`golden::fft`].
    fn prepare(&self, machine: &mut Machine, size: SizeClass) -> Launch {
        let Fft { points, batch } = self.sized(size);
        let n = points as usize;
        assert!(n.is_power_of_two() && (8..=128).contains(&n));
        let input = gen::complex_signal(n * batch as usize, 0xFF7);

        // Host-precomputed tables (the RV32 core has no sin/cos).
        let bits = n.trailing_zeros();
        let rev: Vec<u32> = (0..n as u32)
            .map(|i| i.reverse_bits() >> (32 - bits))
            .collect();
        let mut twiddles = Vec::with_capacity(n);
        for k in 0..n / 2 {
            let ang = -2.0 * std::f32::consts::PI * k as f32 / n as f32;
            twiddles.push(ang.cos());
            twiddles.push(ang.sin());
        }

        let cell = machine.cell_mut(0);
        let sig = alloc_f32(cell, &input);
        let rev_dev = alloc_u32(cell, &rev);
        let tw_dev = alloc_f32(cell, &twiddles);

        Launch {
            program: Arc::new(Self::program()),
            args: vec![
                pgas::local_dram(sig),
                pgas::local_dram(rev_dev),
                pgas::local_dram(tw_dev),
                batch,
                points,
            ],
            work_units: 1.0,
            check: Box::new(move |machine| {
                let mut expect = input;
                for signal in expect.chunks_mut(2 * n) {
                    golden::fft(signal);
                }
                let got = machine.cell(0).dram().read_f32_slice(sig, expect.len());
                for (i, (g, e)) in got.iter().zip(&expect).enumerate() {
                    assert!(
                        (g - e).abs() <= 1e-3 + e.abs() * 1e-3,
                        "FFT mismatch at float {i}: sim {g} vs golden {e}"
                    );
                }
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hb_core::CellDim;

    #[test]
    fn fft_validates_against_golden() {
        let cfg = MachineConfig {
            cell_dim: CellDim { x: 4, y: 2 },
            ..MachineConfig::baseline_16x8()
        };
        let stats = Fft::default().run(&cfg, SizeClass::Tiny).unwrap();
        assert!(
            stats.core.lpc_merged > 0,
            "FFT block copies should trigger LPC"
        );
    }
}
