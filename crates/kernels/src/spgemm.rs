//! SpGEMM — sparse matrix-matrix multiply (sparse-LA dwarf).
//!
//! Gustavson's algorithm with the paper's work-distribution idiom
//! (Figure 8): output rows are claimed with `amoadd` on a shared work
//! counter, each tile accumulates a row into a dense SPM accumulator, and
//! result nonzeros are appended to a global triple buffer through a second
//! atomic counter. Memory-intensive with highly irregular access.

use crate::bench::{run_fresh, BenchStats, Benchmark, Kernel, Launch, SizeClass};
use crate::util::{alloc_f32, alloc_u32, prologue};
use hb_asm::{Assembler, Program};
use hb_core::{pgas, Cell, Machine, MachineConfig, SimError};
use hb_isa::{Fpr::*, Gpr::*};
use hb_workloads::{gen, golden, CsrMatrix};
use std::sync::Arc;

/// Descriptor word indices (read by [`SpGemm::program`], written by
/// [`SpGemm::alloc_task`]).
const D_A_RP: u32 = 0;
const D_A_CI: u32 = 1;
const D_A_AV: u32 = 2;
const D_B_RP: u32 = 3;
const D_B_CI: u32 = 4;
const D_B_AV: u32 = 5;
const D_Q0: u32 = 6;
const D_NNZ: u32 = 7;
const D_OUT_I: u32 = 8;
const D_OUT_J: u32 = 9;
const D_OUT_V: u32 = 10;
const D_A_ROWS: u32 = 11;
const D_B_COLS: u32 = 12;
const DESC_WORDS: u32 = 13;

/// The SpGEMM benchmark: `C = A * B` on uniform sparse or power-law
/// inputs.
#[derive(Debug, Clone)]
pub struct SpGemm {
    /// Rows/cols of the square operands (<= 512 to fit the dense SPM
    /// accumulator).
    pub n: u32,
    /// Nonzeros per row of each operand.
    pub nnz_per_row: u32,
    /// Use a power-law (wiki-Vote-like) A instead of uniform.
    pub power_law: bool,
}

impl Default for SpGemm {
    fn default() -> SpGemm {
        SpGemm {
            n: 128,
            nnz_per_row: 8,
            power_law: false,
        }
    }
}

impl SpGemm {
    /// The paper's "SpGEMM (WV)" configuration: power-law input.
    pub fn wiki_vote() -> SpGemm {
        SpGemm {
            n: 256,
            nnz_per_row: 8,
            power_law: true,
        }
    }

    fn sized(&self, size: SizeClass) -> SpGemm {
        match size {
            SizeClass::Tiny => SpGemm {
                n: 32,
                nnz_per_row: 4,
                power_law: self.power_law,
            },
            SizeClass::Small => self.clone(),
            SizeClass::Large => SpGemm {
                n: 512,
                nnz_per_row: 8,
                power_law: self.power_law,
            },
        }
    }

    /// Builds the kernel. Argument: `a0` = descriptor EVA (13 words).
    pub fn program() -> Program {
        let mut a = Assembler::new();
        prologue(&mut a, S10, S11, T6);
        // Unpack the descriptor.
        let desc = |a: &mut Assembler, dst, word: u32| {
            a.lw(dst, A0, (word * 4) as i32);
        };
        desc(&mut a, T0, D_A_RP);
        desc(&mut a, T1, D_A_CI);
        desc(&mut a, T2, D_A_AV);
        desc(&mut a, T3, D_B_RP);
        desc(&mut a, T4, D_B_CI);
        desc(&mut a, T5, D_B_AV);
        desc(&mut a, S0, D_OUT_I);
        desc(&mut a, S1, D_OUT_J);
        desc(&mut a, S2, D_OUT_V);
        desc(&mut a, S3, D_A_ROWS);
        desc(&mut a, S4, D_B_COLS);
        desc(&mut a, A6, D_Q0);
        desc(&mut a, A7, D_NNZ);
        a.mv(A1, T1);
        a.mv(A2, T2);
        a.mv(A3, T3);
        a.mv(A4, T4);
        a.mv(A5, T5);
        a.mv(T6, T0); // keep a_rp in t6 temporarily
        a.mv(A0, T6); // a0 = a_rp (descriptor pointer no longer needed)

        // Zero the SPM accumulator (b_cols words).
        a.li(T1, 0);
        let zero_acc = a.here();
        a.slli(T2, T1, 2);
        a.sw(Zero, T2, 0);
        a.addi(T1, T1, 1);
        a.blt(T1, S4, zero_acc);
        a.li(T0, 1); // amoadd operand
        a.fmv_w_x(Ft0, Zero); // 0.0 for comparisons

        // ---- Row loop: i = amoadd(q0, 1) ----
        let row_loop = a.new_label();
        let done = a.new_label();
        a.bind(row_loop);
        a.amoadd(S5, T0, A6);
        a.bge(S5, S3, done);

        // k-pointer range of A row i.
        a.slli(T1, S5, 2);
        a.add(T1, A0, T1);
        a.lw(S6, T1, 0);
        a.lw(S7, T1, 4);
        let k_loop = a.new_label();
        let emit = a.new_label();
        a.bind(k_loop);
        a.bge(S6, S7, emit);
        a.slli(T1, S6, 2);
        a.add(T2, A1, T1);
        a.lw(T3, T2, 0); // k = a_ci[ptr]
        a.add(T2, A2, T1);
        a.flw(Fa0, T2, 0); // av
                           // B row k range.
        a.slli(T4, T3, 2);
        a.add(T4, A3, T4);
        a.lw(S8, T4, 0);
        a.lw(S9, T4, 4);
        let j_loop = a.new_label();
        let j_done = a.new_label();
        a.bind(j_loop);
        a.bge(S8, S9, j_done);
        a.slli(T4, S8, 2);
        a.add(T5, A4, T4);
        a.lw(T1, T5, 0); // j
        a.add(T5, A5, T4);
        a.flw(Fa1, T5, 0); // bv
        a.slli(T1, T1, 2);
        a.flw(Fa2, T1, 0); // SPM acc[j]
        a.fmadd(Fa2, Fa0, Fa1, Fa2);
        a.fsw(Fa2, T1, 0);
        a.addi(S8, S8, 1);
        a.j(j_loop);
        a.bind(j_done);
        a.addi(S6, S6, 1);
        a.j(k_loop);

        // ---- Emit the accumulated row as triples ----
        a.bind(emit);
        a.li(T1, 0); // j
        let scan = a.new_label();
        let next_j = a.new_label();
        a.bind(scan);
        a.bge(T1, S4, row_loop);
        a.slli(T2, T1, 2);
        a.flw(Fa2, T2, 0);
        a.feq(T3, Fa2, Ft0);
        a.bnez(T3, next_j);
        a.amoadd(T4, T0, A7); // idx = nnz++
        a.slli(T4, T4, 2);
        a.add(T5, S0, T4);
        a.sw(S5, T5, 0); // out_i[idx] = i
        a.add(T5, S1, T4);
        a.sw(T1, T5, 0); // out_j[idx] = j
        a.add(T5, S2, T4);
        a.fsw(Fa2, T5, 0); // out_v[idx]
        a.sw(Zero, T2, 0); // acc[j] = 0
        a.bind(next_j);
        a.addi(T1, T1, 1);
        a.j(scan);

        a.bind(done);
        a.fence();
        a.ecall();
        a.assemble(0).expect("spgemm assembles")
    }

    fn inputs(&self) -> (CsrMatrix, CsrMatrix) {
        let a = if self.power_law {
            let scale = self.n.trailing_zeros();
            gen::rmat(scale, (self.n * self.nnz_per_row) as usize, 0x5A)
        } else {
            gen::uniform_sparse(self.n, self.n, self.nnz_per_row, 0x5A)
        };
        let b = gen::uniform_sparse(self.n, self.n, self.nnz_per_row, 0x5B);
        (a, b)
    }

    /// Writes the operands into `cell`'s DRAM once for every task that
    /// multiplies them: `a` then `b`, each as row pointers, column indices
    /// and values.
    pub fn alloc_inputs(cell: &mut Cell, a: &CsrMatrix, b: &CsrMatrix) -> [u32; 6] {
        [
            alloc_u32(cell, &a.row_ptr),
            alloc_u32(cell, &a.col_idx),
            alloc_f32(cell, &a.vals),
            alloc_u32(cell, &b.row_ptr),
            alloc_u32(cell, &b.col_idx),
            alloc_f32(cell, &b.vals),
        ]
    }

    /// Allocates one task over the shared `inputs` ([`SpGemm::alloc_inputs`]):
    /// its row and nonzero counters, its output triples with room for
    /// `expect` (the `golden::spgemm` product) and its descriptor.
    pub fn alloc_task(cell: &mut Cell, inputs: [u32; 6], expect: &Arc<CsrMatrix>) -> SpGemmTask {
        let q0 = alloc_u32(cell, &[0]);
        let nnz = alloc_u32(cell, &[0]);
        let max_out = expect.nnz() as u32 + 64;
        let out = [(); 3].map(|()| cell.alloc(max_out * 4, 64));
        // In word order, `D_A_RP` through `D_B_COLS`.
        let mut desc: Vec<u32> = [&inputs[..], &[q0, nnz], &out]
            .concat()
            .into_iter()
            .map(pgas::local_dram)
            .collect();
        desc.extend([expect.rows, expect.cols]);
        debug_assert_eq!(desc.len(), DESC_WORDS as usize);
        SpGemmTask {
            arg: pgas::local_dram(alloc_u32(cell, &desc)),
            nnz,
            out,
            expect: Arc::clone(expect),
        }
    }
}

/// One SpGEMM task in Cell 0 (see [`SpGemm::alloc_task`]).
#[derive(Debug)]
pub struct SpGemmTask {
    /// The task's launch argument: its descriptor's EVA.
    pub arg: u32,
    nnz: u32,
    out: [u32; 3],
    expect: Arc<CsrMatrix>,
}

impl SpGemmTask {
    /// Asserts that the task wrote exactly the expected product: the
    /// nonzero count, the pattern, and every value to a relative 1e-3.
    pub fn check(&self, machine: &Machine) {
        let expect = &*self.expect;
        let dram = machine.cell(0).dram();
        let got_nnz = dram.read_u32(self.nnz) as usize;
        assert_eq!(got_nnz, expect.nnz(), "SpGEMM nonzero count mismatch");
        let [out_i, out_j, out_v] = self.out;
        let is = dram.read_u32_slice(out_i, got_nnz);
        let js = dram.read_u32_slice(out_j, got_nnz);
        let vs = dram.read_f32_slice(out_v, got_nnz);
        let triples: Vec<(u32, u32, f32)> = is
            .into_iter()
            .zip(js)
            .zip(vs)
            .map(|((i, j), v)| (i, j, v))
            .collect();
        let got = CsrMatrix::from_triples(expect.rows, expect.cols, &triples);
        assert_eq!(got.row_ptr, expect.row_ptr, "SpGEMM structure mismatch");
        assert_eq!(got.col_idx, expect.col_idx, "SpGEMM pattern mismatch");
        for (i, (g, e)) in got.vals.iter().zip(&expect.vals).enumerate() {
            assert!(
                (g - e).abs() <= e.abs() * 1e-3 + 1e-5,
                "SpGEMM value mismatch at nz {i}: {g} vs {e}"
            );
        }
    }
}

impl Benchmark for SpGemm {
    fn name(&self) -> &'static str {
        "SpGEMM"
    }

    fn dwarf(&self) -> &'static str {
        "Sparse Linear Algebra"
    }

    fn run(&self, cfg: &MachineConfig, size: SizeClass) -> Result<BenchStats, SimError> {
        run_fresh(self, cfg, size)
    }
}

impl Kernel for SpGemm {
    fn program(&self) -> Program {
        Self::program()
    }

    /// Validates against [`golden::spgemm`].
    fn prepare(&self, machine: &mut Machine, size: SizeClass) -> Launch {
        let sized = self.sized(size);
        assert!(sized.n.is_power_of_two() && sized.n <= 512);
        let (am, bm) = sized.inputs();
        // The output buffers are sized from the product, so this kernel
        // multiplies on the host before the launch, not in `check`.
        let expect = Arc::new(golden::spgemm(&am, &bm));
        let cell = machine.cell_mut(0);
        let inputs = Self::alloc_inputs(cell, &am, &bm);
        let task = Self::alloc_task(cell, inputs, &expect);
        Launch {
            program: Arc::new(Self::program()),
            args: vec![task.arg],
            work_units: 1.0,
            check: Box::new(move |machine| task.check(machine)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hb_core::CellDim;

    #[test]
    fn spgemm_validates_uniform() {
        let cfg = MachineConfig {
            cell_dim: CellDim { x: 4, y: 2 },
            ..MachineConfig::baseline_16x8()
        };
        let stats = SpGemm::default().run(&cfg, SizeClass::Tiny).unwrap();
        assert!(stats.cache.amos > 0, "work distribution uses atomics");
    }

    #[test]
    fn spgemm_validates_power_law() {
        let cfg = MachineConfig {
            cell_dim: CellDim { x: 4, y: 2 },
            ..MachineConfig::baseline_16x8()
        };
        SpGemm::wiki_vote().run(&cfg, SizeClass::Tiny).unwrap();
    }
}
