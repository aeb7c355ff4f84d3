//! SGEMM — dense single-precision matrix multiply (dense LA dwarf).
//!
//! Each tile computes a rank-strided set of C rows. The inner loop streams
//! the A row (sequential loads) and 4-wide column blocks of B rows
//! (sequential loads that Load Packet Compression merges), accumulating
//! with `fmadd.s`.

use crate::bench::{run_fresh, BenchStats, Benchmark, Kernel, Launch, SizeClass};
use crate::util::{alloc_f32, prologue};
use hb_asm::{Assembler, Program};
use hb_core::{pgas, Machine, MachineConfig, SimError};
use hb_isa::{Fpr::*, Gpr::*};
use hb_workloads::{gen, golden};
use std::sync::Arc;

/// The SGEMM benchmark: `C(MxN) = A(MxK) * B(KxN)`.
#[derive(Debug, Clone)]
pub struct Sgemm {
    /// Rows of A/C.
    pub m: u32,
    /// Inner dimension.
    pub k: u32,
    /// Columns of B/C (multiple of 4).
    pub n: u32,
    /// SPM-blocked variant: tiles copy 8x16 / 16x8 operand blocks into
    /// their scratchpads with large sequential loads, compute the 8x8
    /// output block entirely in SPM, then dump it — the paper's
    /// "load blocks, compute long, dump results" pattern for the
    /// compute-intensive sequential-access category.
    pub blocked: bool,
}

impl Default for Sgemm {
    fn default() -> Sgemm {
        Sgemm {
            m: 32,
            k: 32,
            n: 32,
            blocked: false,
        }
    }
}

impl Sgemm {
    /// The SPM-blocked variant (requires M, N multiples of 8 and K a
    /// multiple of 16).
    pub fn blocked() -> Sgemm {
        Sgemm {
            m: 32,
            k: 32,
            n: 32,
            blocked: true,
        }
    }

    fn sized(&self, size: SizeClass) -> Sgemm {
        match size {
            SizeClass::Tiny => Sgemm {
                m: 8,
                k: 16,
                n: 8,
                ..self.clone()
            },
            SizeClass::Small => self.clone(),
            SizeClass::Large => Sgemm {
                m: 64,
                k: 64,
                n: 64,
                ..self.clone()
            },
        }
    }

    /// Builds the kernel program.
    ///
    /// Arguments: `a0`=A, `a1`=B, `a2`=C (EVAs), `a3`=M, `a4`=K, `a5`=N.
    pub fn program() -> Program {
        let mut a = Assembler::new();
        prologue(&mut a, S10, S11, T6);
        // S9 = N*4 (B row stride in bytes), S8 = K*4.
        a.slli(S9, A5, 2);
        a.slli(S8, A4, 2);

        a.mv(S0, S10); // i = rank
        let row_loop = a.new_label();
        let done = a.new_label();
        a.bind(row_loop);
        a.bge(S0, A3, done);

        // T0 = &A[i*K], T3 = &C[i*N]
        a.mul(T0, S0, S8);
        a.add(T0, T0, A0);
        a.mul(T3, S0, S9);
        a.add(T3, T3, A2);

        a.li(S1, 0); // j
        let col_loop = a.here();
        {
            // acc = 0
            a.fmv_w_x(Fs0, Zero);
            a.fmv_w_x(Fs1, Zero);
            a.fmv_w_x(Fs2, Zero);
            a.fmv_w_x(Fs3, Zero);
            // T1 = &B[0*N + j], T2 = &A[i*K]
            a.slli(T1, S1, 2);
            a.add(T1, T1, A1);
            a.mv(T2, T0);
            a.li(S2, 0); // k
            let k_loop = a.here();
            {
                a.flw(Fa0, T2, 0);
                a.flw(Ft0, T1, 0);
                a.flw(Ft1, T1, 4);
                a.flw(Ft2, T1, 8);
                a.flw(Ft3, T1, 12);
                a.fmadd(Fs0, Fa0, Ft0, Fs0);
                a.fmadd(Fs1, Fa0, Ft1, Fs1);
                a.fmadd(Fs2, Fa0, Ft2, Fs2);
                a.fmadd(Fs3, Fa0, Ft3, Fs3);
                a.addi(T2, T2, 4);
                a.add(T1, T1, S9);
                a.addi(S2, S2, 1);
            }
            a.blt(S2, A4, k_loop);
            // Store C[i][j..j+4].
            a.slli(T4, S1, 2);
            a.add(T4, T4, T3);
            a.fsw(Fs0, T4, 0);
            a.fsw(Fs1, T4, 4);
            a.fsw(Fs2, T4, 8);
            a.fsw(Fs3, T4, 12);
            a.addi(S1, S1, 4);
        }
        a.blt(S1, A5, col_loop);

        a.add(S0, S0, S11); // i += nthreads
        a.j(row_loop);
        a.bind(done);
        a.fence();
        a.ecall();
        a.assemble(0).expect("sgemm assembles")
    }

    /// Builds the SPM-blocked kernel: each tile claims 8x8 output blocks,
    /// streams 8x16 A-blocks and 16x8 B-blocks into SPM (sequential loads,
    /// LPC-merged), accumulates in SPM and dumps the finished block.
    ///
    /// SPM layout: A-block at 0, B-block at 0x200, C-block at 0x400.
    /// Arguments as in [`Sgemm::program`].
    pub fn program_blocked() -> Program {
        const SPM_A: i32 = 0;
        const SPM_B: i32 = 0x200;
        const SPM_C: i32 = 0x400;
        let mut a = Assembler::new();
        prologue(&mut a, S10, S11, T6);
        // S9 = N*4, S8 = K*4, S0 = N/8 (blocks per row), S1 = total blocks.
        a.slli(S9, A5, 2);
        a.slli(S8, A4, 2);
        a.srli(S0, A5, 3);
        a.srli(T0, A3, 3);
        a.mul(S1, T0, S0);

        a.mv(S2, S10); // b = rank
        let block_loop = a.new_label();
        let done = a.new_label();
        a.bind(block_loop);
        a.bge(S2, S1, done);
        // bi = b / (N/8), bj = b % (N/8).
        a.divu(S3, S2, S0);
        a.remu(S4, S2, S0);

        // Zero the 8x8 C block (64 words).
        for w in 0..64i32 {
            a.sw(Zero, Zero, SPM_C + 4 * w);
        }

        a.li(S5, 0); // k0
        let k0_loop = a.here();
        {
            // Copy A-block: 8 rows x 16 words from &A[(bi*8+r)*K + k0].
            a.slli(T0, S3, 3); // bi*8
            a.mul(T0, T0, S8); // *K*4
            a.add(T0, T0, A0);
            a.slli(T1, S5, 2);
            a.add(T0, T0, T1); // + k0*4
            a.li(T2, SPM_A);
            a.li(T3, 8);
            let copy_a = a.here();
            for w in 0..4 {
                a.lw(T4, T0, 16 * w);
                a.lw(T5, T0, 16 * w + 4);
                a.lw(S6, T0, 16 * w + 8);
                a.lw(S7, T0, 16 * w + 12);
                a.sw(T4, T2, 16 * w);
                a.sw(T5, T2, 16 * w + 4);
                a.sw(S6, T2, 16 * w + 8);
                a.sw(S7, T2, 16 * w + 12);
            }
            a.add(T0, T0, S8); // next A row
            a.addi(T2, T2, 64);
            a.addi(T3, T3, -1);
            a.bnez(T3, copy_a);

            // Copy B-block: 16 rows x 8 words from &B[(k0+r)*N + bj*8].
            a.mul(T0, S5, S9); // k0*N*4
            a.add(T0, T0, A1);
            a.slli(T1, S4, 5); // bj*8*4
            a.add(T0, T0, T1);
            a.li(T2, SPM_B);
            a.li(T3, 16);
            let copy_b = a.here();
            for w in 0..2 {
                a.lw(T4, T0, 16 * w);
                a.lw(T5, T0, 16 * w + 4);
                a.lw(S6, T0, 16 * w + 8);
                a.lw(S7, T0, 16 * w + 12);
                a.sw(T4, T2, 16 * w);
                a.sw(T5, T2, 16 * w + 4);
                a.sw(S6, T2, 16 * w + 8);
                a.sw(S7, T2, 16 * w + 12);
            }
            a.add(T0, T0, S9); // next B row
            a.addi(T2, T2, 32);
            a.addi(T3, T3, -1);
            a.bnez(T3, copy_b);

            // Accumulate: C[r][c] += sum_k A[r][k]*B[k][c], all in SPM.
            a.li(T0, 0); // r
            let r_loop = a.here();
            {
                a.li(T1, 0); // c
                let c_loop = a.here();
                {
                    // acc address: SPM_C + (r*8 + c)*4.
                    a.slli(T2, T0, 5);
                    a.slli(T3, T1, 2);
                    a.add(T2, T2, T3);
                    a.flw(Fa0, T2, SPM_C);
                    // a-ptr: SPM_A + r*64; b-ptr: SPM_B + c*4 (stride 32).
                    a.slli(T3, T0, 6);
                    a.slli(T4, T1, 2);
                    a.li(T5, 16); // k counter
                    let k_loop = a.here();
                    a.flw(Fa1, T3, SPM_A);
                    a.flw(Fa2, T4, SPM_B);
                    a.fmadd(Fa0, Fa1, Fa2, Fa0);
                    a.addi(T3, T3, 4);
                    a.addi(T4, T4, 32);
                    a.addi(T5, T5, -1);
                    a.bnez(T5, k_loop);
                    a.slli(T2, T0, 5);
                    a.slli(T3, T1, 2);
                    a.add(T2, T2, T3);
                    a.fsw(Fa0, T2, SPM_C);
                    a.addi(T1, T1, 1);
                }
                a.slti(T2, T1, 8);
                a.bnez(T2, c_loop);
                a.addi(T0, T0, 1);
            }
            a.slti(T1, T0, 8);
            a.bnez(T1, r_loop);

            a.addi(S5, S5, 16); // k0 += 16
        }
        a.blt(S5, A4, k0_loop);

        // Dump the C block: 8 rows x 8 words to &C[(bi*8+r)*N + bj*8].
        a.slli(T0, S3, 3);
        a.mul(T0, T0, S9);
        a.add(T0, T0, A2);
        a.slli(T1, S4, 5);
        a.add(T0, T0, T1);
        a.li(T2, SPM_C);
        a.li(T3, 8);
        let dump = a.here();
        for w in 0..2 {
            a.lw(T4, T2, 16 * w);
            a.lw(T5, T2, 16 * w + 4);
            a.lw(S6, T2, 16 * w + 8);
            a.lw(S7, T2, 16 * w + 12);
            a.sw(T4, T0, 16 * w);
            a.sw(T5, T0, 16 * w + 4);
            a.sw(S6, T0, 16 * w + 8);
            a.sw(S7, T0, 16 * w + 12);
        }
        a.add(T0, T0, S9);
        a.addi(T2, T2, 32);
        a.addi(T3, T3, -1);
        a.bnez(T3, dump);

        a.add(S2, S2, S11); // b += nthreads
        a.j(block_loop);
        a.bind(done);
        a.fence();
        a.ecall();
        a.assemble(0).expect("blocked sgemm assembles")
    }
}

impl Benchmark for Sgemm {
    fn name(&self) -> &'static str {
        "SGEMM"
    }

    fn dwarf(&self) -> &'static str {
        "Dense Linear Algebra"
    }

    fn run(&self, cfg: &MachineConfig, size: SizeClass) -> Result<BenchStats, SimError> {
        run_fresh(self, cfg, size)
    }
}

impl Kernel for Sgemm {
    fn program(&self) -> Program {
        if self.blocked {
            Self::program_blocked()
        } else {
            Self::program()
        }
    }

    /// Validates against [`golden::sgemm`].
    fn prepare(&self, machine: &mut Machine, size: SizeClass) -> Launch {
        let Sgemm { m, k, n, blocked } = self.sized(size);
        assert_eq!(n % 4, 0, "N must be a multiple of 4");
        if blocked {
            assert!(
                m.is_multiple_of(8) && n.is_multiple_of(8) && k.is_multiple_of(16),
                "blocked SGEMM needs M,N % 8 == 0 and K % 16 == 0"
            );
        }
        let (mu, ku, nu) = (m as usize, k as usize, n as usize);
        let a_host = gen::dense_matrix(mu, ku, 0xA);
        let b_host = gen::dense_matrix(ku, nu, 0xB);

        let cell = machine.cell_mut(0);
        let a_dev = alloc_f32(cell, &a_host);
        let b_dev = alloc_f32(cell, &b_host);
        let c_dev = cell.alloc(m * n * 4, 64);

        Launch {
            program: Arc::new(self.program()),
            args: vec![
                pgas::local_dram(a_dev),
                pgas::local_dram(b_dev),
                pgas::local_dram(c_dev),
                m,
                k,
                n,
            ],
            work_units: 1.0,
            check: Box::new(move |machine| {
                let expect = golden::sgemm(mu, ku, nu, &a_host, &b_host);
                let got = machine.cell(0).dram().read_f32_slice(c_dev, mu * nu);
                for (i, (g, e)) in got.iter().zip(&expect).enumerate() {
                    assert!(
                        (g - e).abs() <= e.abs() * 1e-3 + 1e-4,
                        "SGEMM mismatch at {i}: sim {g} vs golden {e}"
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
    fn blocked_sgemm_validates_and_merges_loads() {
        let cfg = MachineConfig {
            cell_dim: CellDim { x: 4, y: 2 },
            ..MachineConfig::baseline_16x8()
        };
        let stats = Sgemm::blocked().run(&cfg, SizeClass::Tiny).unwrap();
        assert!(
            stats.core.lpc_merged > 0,
            "block copies are sequential loads and must trigger LPC"
        );
    }

    #[test]
    fn sgemm_validates_on_small_cell() {
        let cfg = MachineConfig {
            cell_dim: CellDim { x: 4, y: 2 },
            ..MachineConfig::baseline_16x8()
        };
        let stats = Sgemm::default().run(&cfg, SizeClass::Tiny).unwrap();
        assert!(stats.cycles > 0);
        assert!(stats.core.fp_cycles > 0, "SGEMM must execute FP work");
    }

    #[test]
    fn sgemm_stays_golden_with_two_dead_tiles() {
        // Rank-strided kernels degrade through the live-rank prologue
        // alone: the six live tiles cover the dense 0..6 rank space.
        let cfg = MachineConfig {
            cell_dim: CellDim { x: 4, y: 2 },
            disabled_tiles: vec![(1, 0), (2, 1)],
            ..MachineConfig::baseline_16x8()
        };
        Sgemm::default().run(&cfg, SizeClass::Tiny).unwrap();
    }
}
