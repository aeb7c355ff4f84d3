//! SW — Smith-Waterman local sequence alignment (dynamic-programming
//! dwarf).
//!
//! Each tile aligns a rank-strided set of (query, reference) pairs with
//! the single-row DP recurrence, keeping the sequences and the DP row in
//! Local SPM. The inner loop's max() chains are deliberately branchy: the
//! paper calls out SW's high branch-miss rate (fixable with min/max ISA
//! extensions).

use crate::bench::{run_fresh, BenchStats, Benchmark, Kernel, Launch, SizeClass};
use crate::util::prologue;
use hb_asm::{Assembler, Program};
use hb_core::{pgas, Machine, MachineConfig, SimError};
use hb_isa::Gpr::*;
use hb_workloads::{gen, golden};
use std::sync::Arc;

/// SPM layout: query at 0, reference at `0x80`, DP row at `0x100`.
const SPM_QUERY: i32 = 0;
const SPM_REF: i32 = 0x80;
const SPM_ROW: i32 = 0x100;

/// The Smith-Waterman benchmark: `pairs` alignments of `len`-character
/// sequences (match +2, mismatch -1, gap -1).
#[derive(Debug, Clone)]
pub struct SmithWaterman {
    /// Number of sequence pairs.
    pub pairs: u32,
    /// Sequence length (<= 128).
    pub len: u32,
}

impl Default for SmithWaterman {
    fn default() -> SmithWaterman {
        SmithWaterman { pairs: 64, len: 32 }
    }
}

impl SmithWaterman {
    fn sized(&self, size: SizeClass) -> SmithWaterman {
        match size {
            SizeClass::Tiny => SmithWaterman { pairs: 8, len: 16 },
            SizeClass::Small => self.clone(),
            SizeClass::Large => SmithWaterman {
                pairs: 128,
                len: 64,
            },
        }
    }

    /// Builds the kernel. Arguments: `a0`=queries, `a1`=references,
    /// `a2`=scores out, `a3`=pair count, `a4`=sequence length.
    pub fn program() -> Program {
        let mut a = Assembler::new();
        prologue(&mut a, S10, S11, T6);

        a.mv(S0, S10); // p = rank
        let pair_loop = a.new_label();
        let done = a.new_label();
        a.bind(pair_loop);
        a.bge(S0, A3, done);

        // Copy query and reference into SPM (byte loop).
        a.mul(T0, S0, A4); // p * len
        a.add(T1, A0, T0); // &query[p*len]
        a.add(T2, A1, T0); // &ref[p*len]
        a.li(T3, 0);
        let copy = a.here();
        a.add(T4, T1, T3);
        a.lbu(T5, T4, 0);
        a.add(T4, T3, Zero);
        a.sb(T5, T4, SPM_QUERY);
        a.add(T4, T2, T3);
        a.lbu(T5, T4, 0);
        a.sb(T5, T3, SPM_REF);
        a.addi(T3, T3, 1);
        a.blt(T3, A4, copy);

        // Zero the DP row (len+1 words).
        a.li(T3, 0);
        let zero = a.here();
        a.slli(T4, T3, 2);
        a.sw(Zero, T4, SPM_ROW);
        a.addi(T3, T3, 1);
        a.ble(T3, A4, zero);

        a.li(S4, 0); // best
        a.li(S1, 0); // i
        let i_loop = a.here();
        {
            a.lbu(S6, S1, SPM_QUERY); // a[i]
            a.li(S3, 0); // diag
            a.li(S2, 0); // j
            a.li(S5, SPM_ROW); // &prev[j]
            let j_loop = a.here();
            {
                a.mv(T0, S3); // up_left = diag
                a.lw(S3, S5, 4); // diag = prev[j+1]
                                 // score = up_left + (q[i]==r[j] ? 2 : -1)
                a.lbu(T1, S2, SPM_REF);
                let mismatch = a.new_label();
                let scored = a.new_label();
                a.bne(S6, T1, mismatch);
                a.addi(T0, T0, 2);
                a.j(scored);
                a.bind(mismatch);
                a.addi(T0, T0, -1);
                a.bind(scored);
                // h = max(score, diag-1, prev[j]-1, 0)
                a.addi(T1, S3, -1);
                let m1 = a.new_label();
                a.bge(T0, T1, m1);
                a.mv(T0, T1);
                a.bind(m1);
                a.lw(T1, S5, 0);
                a.addi(T1, T1, -1);
                let m2 = a.new_label();
                a.bge(T0, T1, m2);
                a.mv(T0, T1);
                a.bind(m2);
                let m3 = a.new_label();
                a.bge(T0, Zero, m3);
                a.li(T0, 0);
                a.bind(m3);
                a.sw(T0, S5, 4); // prev[j+1] = h
                let m4 = a.new_label();
                a.bge(S4, T0, m4);
                a.mv(S4, T0); // best = h
                a.bind(m4);
                a.addi(S5, S5, 4);
                a.addi(S2, S2, 1);
            }
            a.blt(S2, A4, j_loop);
            a.addi(S1, S1, 1);
        }
        a.blt(S1, A4, i_loop);

        // scores[p] = best
        a.slli(T0, S0, 2);
        a.add(T0, T0, A2);
        a.sw(S4, T0, 0);

        a.add(S0, S0, S11);
        a.j(pair_loop);
        a.bind(done);
        a.fence();
        a.ecall();
        a.assemble(0).expect("smith-waterman assembles")
    }
}

impl Benchmark for SmithWaterman {
    fn name(&self) -> &'static str {
        "SW"
    }

    fn dwarf(&self) -> &'static str {
        "Dynamic Programming"
    }

    fn run(&self, cfg: &MachineConfig, size: SizeClass) -> Result<BenchStats, SimError> {
        run_fresh(self, cfg, size)
    }
}

impl Kernel for SmithWaterman {
    fn program(&self) -> Program {
        Self::program()
    }

    /// Validates against [`golden::smith_waterman`].
    fn prepare(&self, machine: &mut Machine, size: SizeClass) -> Launch {
        let SmithWaterman { pairs, len } = self.sized(size);
        assert!(len <= 128, "DP row must fit the SPM layout");
        let n = (pairs * len) as usize;
        let queries = gen::dna_sequence(n, 0x51);
        let refs = gen::dna_sequence(n, 0x52);

        let cell = machine.cell_mut(0);
        let q = cell.alloc(n as u32, 64);
        let r = cell.alloc(n as u32, 64);
        let out = cell.alloc(pairs * 4, 64);
        cell.dram_mut().write_bytes(q, &queries);
        cell.dram_mut().write_bytes(r, &refs);

        Launch {
            program: Arc::new(Self::program()),
            args: vec![
                pgas::local_dram(q),
                pgas::local_dram(r),
                pgas::local_dram(out),
                pairs,
                len,
            ],
            work_units: 1.0,
            check: Box::new(move |machine| {
                let len = len as usize;
                let expect: Vec<u32> = (queries.chunks(len).zip(refs.chunks(len)))
                    .map(|(q, r)| golden::smith_waterman(q, r) as u32)
                    .collect();
                let got = machine.cell(0).dram().read_u32_slice(out, pairs as usize);
                assert_eq!(got, expect, "SW score mismatch");
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hb_core::{CellDim, StallKind};

    #[test]
    fn sw_validates_and_is_branchy() {
        let cfg = MachineConfig {
            cell_dim: CellDim { x: 4, y: 2 },
            ..MachineConfig::baseline_16x8()
        };
        let stats = SmithWaterman::default().run(&cfg, SizeClass::Tiny).unwrap();
        assert!(stats.core.branch_misses > 0, "SW should mispredict");
        assert!(stats.core.stall(StallKind::BranchMiss) > 0);
    }
}
