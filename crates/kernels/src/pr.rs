//! PR — PageRank (sparse LA / graph dwarf).
//!
//! Pull-based power iteration in three barrier-separated phases per
//! iteration: (1) every tile computes contributions `pr[v]/deg[v]` for a
//! static stride of vertices and accumulates its dangling mass,
//! (2) rank 0 reduces the dangling partials into the per-iteration base
//! term, (3) every tile gathers in-edge contributions — the irregular,
//! memory-bound phase the paper characterizes as HBM2-latency dominated.

use crate::bench::{run_fresh, BenchStats, Benchmark, Kernel, Launch, SizeClass};
use crate::util::{alloc_u32, prologue};
use hb_asm::{Assembler, Program};
use hb_core::{pgas, HbOps, Machine, MachineConfig, SimError};
use hb_isa::{Fpr::*, Gpr::*};
use hb_workloads::{gen, golden, CsrMatrix};
use std::sync::Arc;

const D_TG_RP: u32 = 0;
const D_TG_CI: u32 = 1;
const D_DEG: u32 = 2;
const D_PR_A: u32 = 3;
const D_PR_B: u32 = 4;
const D_CONTRIB: u32 = 5;
const D_PARTIALS: u32 = 6;
const D_BASE: u32 = 7;
const D_N: u32 = 8;
const D_ITERS: u32 = 9;
const DESC_WORDS: u32 = 10;

const DAMPING: f32 = 0.85;

/// The PageRank benchmark.
#[derive(Debug, Clone)]
pub struct PageRank {
    /// log2 of the vertex count.
    pub scale: u32,
    /// Directed edges.
    pub edges: usize,
    /// Power iterations.
    pub iters: u32,
    /// Power-law (true) or road-grid-like input.
    pub power_law: bool,
}

impl Default for PageRank {
    fn default() -> PageRank {
        PageRank {
            scale: 8,
            edges: 2048,
            iters: 4,
            power_law: true,
        }
    }
}

impl PageRank {
    fn sized(&self, size: SizeClass) -> PageRank {
        match size {
            SizeClass::Tiny => PageRank {
                scale: 6,
                edges: 512,
                iters: 2,
                power_law: self.power_law,
            },
            SizeClass::Small => self.clone(),
            SizeClass::Large => PageRank {
                scale: 10,
                edges: 16384,
                iters: 8,
                power_law: self.power_law,
            },
        }
    }

    fn graph(&self) -> CsrMatrix {
        if self.power_law {
            gen::rmat(self.scale, self.edges, 0xBB)
        } else {
            let side = 1u32 << (self.scale / 2);
            gen::road_grid(side, side)
        }
    }

    /// Builds the kernel. Argument: `a0` = descriptor EVA (10 words).
    pub fn program() -> Program {
        let mut a = Assembler::new();
        prologue(&mut a, S10, S11, T6);
        // Unpack.
        a.lw(T0, A0, (D_TG_RP * 4) as i32);
        a.lw(T1, A0, (D_TG_CI * 4) as i32);
        a.lw(T2, A0, (D_DEG * 4) as i32);
        a.lw(T3, A0, (D_PR_A * 4) as i32);
        a.lw(T4, A0, (D_PR_B * 4) as i32);
        a.lw(T5, A0, (D_CONTRIB * 4) as i32);
        a.lw(A6, A0, (D_PARTIALS * 4) as i32);
        a.lw(A7, A0, (D_BASE * 4) as i32);
        a.lw(S0, A0, (D_N * 4) as i32);
        a.lw(S1, A0, (D_ITERS * 4) as i32);
        a.mv(A0, T0);
        a.mv(A1, T1);
        a.mv(A2, T2);
        a.mv(A3, T3);
        a.mv(A4, T4);
        a.mv(A5, T5);

        // FP constants: fs0 = damping, fs2 = (1-d), fs3 = 1/n as float of n.
        a.lif(Fs0, T0, DAMPING);
        a.fcvt_s_wu(Fs3, S0); // (f32)n

        let iter_loop = a.new_label();
        let finished = a.new_label();
        a.bind(iter_loop);
        a.beqz(S1, finished);

        // ---- Phase 1: contributions + dangling partial ----
        a.fmv_w_x(Fs1, Zero); // dangling = 0
        a.mv(S2, S10); // v = rank
        let p1 = a.new_label();
        let p1_done = a.new_label();
        a.bind(p1);
        a.bge(S2, S0, p1_done);
        a.slli(T0, S2, 2);
        a.add(T1, A2, T0);
        a.lw(T2, T1, 0); // deg[v]
        a.add(T1, A3, T0);
        a.flw(Fa0, T1, 0); // pr[v]
        let dangling = a.new_label();
        let p1_next = a.new_label();
        a.beqz(T2, dangling);
        a.fcvt_s_wu(Fa1, T2);
        a.fdiv(Fa2, Fa0, Fa1);
        a.add(T1, A5, T0);
        a.fsw(Fa2, T1, 0); // contrib[v]
        a.j(p1_next);
        a.bind(dangling);
        a.fadd(Fs1, Fs1, Fa0);
        a.bind(p1_next);
        a.add(S2, S2, S11);
        a.j(p1);
        a.bind(p1_done);
        // partials[rank] = dangling
        a.slli(T0, S10, 2);
        a.add(T1, A6, T0);
        a.fsw(Fs1, T1, 0);
        a.fence();
        a.barrier(T6);

        // ---- Phase 2 (rank 0): base = (1-d)/n + d*dangling/n ----
        let p2_skip = a.new_label();
        a.bnez(S10, p2_skip);
        a.fmv_w_x(Fa0, Zero);
        a.li(T0, 0);
        let sum_partials = a.here();
        a.slli(T1, T0, 2);
        a.add(T1, A6, T1);
        a.flw(Fa1, T1, 0);
        a.fadd(Fa0, Fa0, Fa1);
        a.addi(T0, T0, 1);
        a.blt(T0, S11, sum_partials);
        // fa2 = (1-d)/n
        a.lif(Fa2, T0, 1.0 - DAMPING);
        a.fdiv(Fa2, Fa2, Fs3);
        // fa0 = d*dangling/n
        a.fmul(Fa0, Fa0, Fs0);
        a.fdiv(Fa0, Fa0, Fs3);
        a.fadd(Fa2, Fa2, Fa0);
        a.fsw(Fa2, A7, 0);
        a.fence();
        a.bind(p2_skip);
        a.barrier(T6);

        // ---- Phase 3: gather ----
        a.flw(Fs4, A7, 0); // base
        a.mv(S2, S10);
        let p3 = a.new_label();
        let p3_done = a.new_label();
        a.bind(p3);
        a.bge(S2, S0, p3_done);
        a.slli(T0, S2, 2);
        a.add(T1, A0, T0);
        a.lw(S3, T1, 0); // edge begin
        a.lw(S4, T1, 4); // edge end
        a.fmv_w_x(Fa0, Zero); // sum
        let gather = a.new_label();
        let gather_done = a.new_label();
        a.bind(gather);
        a.bge(S3, S4, gather_done);
        a.slli(T1, S3, 2);
        a.add(T1, A1, T1);
        a.lw(T2, T1, 0); // u
        a.slli(T2, T2, 2);
        a.add(T2, A5, T2);
        a.flw(Fa1, T2, 0); // contrib[u]
        a.fadd(Fa0, Fa0, Fa1);
        a.addi(S3, S3, 1);
        a.j(gather);
        a.bind(gather_done);
        // next[v] = base + d * sum
        a.fmadd(Fa0, Fa0, Fs0, Fs4);
        a.add(T1, A4, T0);
        a.fsw(Fa0, T1, 0);
        a.add(S2, S2, S11);
        a.j(p3);
        a.bind(p3_done);
        a.fence();
        a.barrier(T6);

        // Swap pr buffers; next iteration.
        a.mv(T0, A3);
        a.mv(A3, A4);
        a.mv(A4, T0);
        a.addi(S1, S1, -1);
        a.j(iter_loop);

        a.bind(finished);
        a.ecall();
        a.assemble(0).expect("pagerank assembles")
    }
}

impl Benchmark for PageRank {
    fn name(&self) -> &'static str {
        "PR"
    }

    fn dwarf(&self) -> &'static str {
        "Sparse Linear Algebra / Graph"
    }

    fn run(&self, cfg: &MachineConfig, size: SizeClass) -> Result<BenchStats, SimError> {
        run_fresh(self, cfg, size)
    }
}

impl Kernel for PageRank {
    fn program(&self) -> Program {
        Self::program()
    }

    /// Validates against [`golden::pagerank`].
    fn prepare(&self, machine: &mut Machine, size: SizeClass) -> Launch {
        let sized = self.sized(size);
        let iters = sized.iters;
        let g = sized.graph();
        let n = g.rows;
        let tg = g.transpose();
        let deg: Vec<u32> = (0..n).map(|v| g.degree(v)).collect();

        let nthreads = machine.config().cell_dim.tiles() as u32;
        let cell = machine.cell_mut(0);
        let tg_rp = alloc_u32(cell, &tg.row_ptr);
        let tg_ci = alloc_u32(cell, &tg.col_idx);
        let deg_dev = alloc_u32(cell, &deg);
        let pr_a = cell.alloc(n * 4, 64);
        let pr_b = cell.alloc(n * 4, 64);
        let contrib = cell.alloc(n * 4, 64);
        let partials = cell.alloc(nthreads * 4, 64);
        let base_slot = cell.alloc(4, 64);
        cell.dram_mut()
            .write_f32_slice(pr_a, &vec![1.0 / n as f32; n as usize]);
        let desc_vals = [
            pgas::local_dram(tg_rp),
            pgas::local_dram(tg_ci),
            pgas::local_dram(deg_dev),
            pgas::local_dram(pr_a),
            pgas::local_dram(pr_b),
            pgas::local_dram(contrib),
            pgas::local_dram(partials),
            pgas::local_dram(base_slot),
            n,
            iters,
        ];
        debug_assert_eq!(desc_vals.len(), DESC_WORDS as usize);
        let desc = alloc_u32(cell, &desc_vals);

        Launch {
            program: Arc::new(Self::program()),
            args: vec![pgas::local_dram(desc)],
            work_units: 1.0,
            check: Box::new(move |machine| {
                let expect = golden::pagerank(&g, iters);
                // Result buffer depends on iteration parity.
                let result = if iters.is_multiple_of(2) { pr_a } else { pr_b };
                let got = machine.cell(0).dram().read_f32_slice(result, n as usize);
                for (v, (g_val, e)) in got.iter().zip(&expect).enumerate() {
                    assert!(
                        (g_val - e).abs() <= 1e-5 + e.abs() * 1e-3,
                        "PageRank mismatch at vertex {v}: sim {g_val} vs golden {e}"
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
    fn pagerank_validates_power_law() {
        let cfg = MachineConfig {
            cell_dim: CellDim { x: 4, y: 2 },
            ..MachineConfig::baseline_16x8()
        };
        let stats = PageRank::default().run(&cfg, SizeClass::Tiny).unwrap();
        assert!(stats.core.stall(hb_core::StallKind::Barrier) > 0);
    }
}
