//! BH — Barnes-Hut N-body force computation (N-body dwarf).
//!
//! Each tile claims bodies with `amoadd` and traverses the host-built
//! quadtree with an explicit stack in its 4 KB slice of Local DRAM — the
//! paper's exact scenario for Regional IPOLY hashing (without it, every
//! tile's stack would camp on the same cache bank). The opening test and
//! accumulation use back-to-back `fsqrt`/`fdiv`, the iterative-FPU
//! bottleneck Figure 11 shows for BH.

use crate::bench::{run_fresh, BenchStats, Benchmark, Kernel, Launch, SizeClass};
use crate::util::{alloc_f32, alloc_u32, prologue};
use hb_asm::{Assembler, Program};
use hb_core::{pgas, Machine, MachineConfig, SimError};
use hb_isa::{Fpr::*, Gpr::*};
use hb_workloads::{gen, golden};
use std::sync::Arc;

const D_CX: u32 = 0;
const D_CY: u32 = 1;
const D_MASS: u32 = 2;
const D_SIZE2: u32 = 3;
const D_LEAF: u32 = 4;
const D_CHILD: u32 = 5;
const D_BODIES: u32 = 6;
const D_OUT: u32 = 7;
const D_Q0: u32 = 8;
const D_NBODIES: u32 = 9;
const D_STACK: u32 = 10;
const D_THETA2: u32 = 11;
const D_EPS2: u32 = 12;
const DESC_WORDS: u32 = 13;

const THETA: f32 = 0.5;
const EPS2: f32 = 1e-4;

/// The Barnes-Hut benchmark: one force-computation phase over `bodies`
/// bodies in the unit square.
#[derive(Debug, Clone)]
pub struct BarnesHut {
    /// Number of bodies.
    pub bodies: u32,
}

impl Default for BarnesHut {
    fn default() -> BarnesHut {
        BarnesHut { bodies: 256 }
    }
}

impl BarnesHut {
    fn sized(&self, size: SizeClass) -> BarnesHut {
        match size {
            SizeClass::Tiny => BarnesHut { bodies: 64 },
            SizeClass::Small => self.clone(),
            SizeClass::Large => BarnesHut { bodies: 1024 },
        }
    }

    /// Builds the kernel. Argument: `a0` = descriptor EVA (13 words).
    pub fn program() -> Program {
        let mut a = Assembler::new();
        prologue(&mut a, S10, S11, T6);
        a.lw(T0, A0, (D_CX * 4) as i32);
        a.lw(T1, A0, (D_CY * 4) as i32);
        a.lw(T2, A0, (D_MASS * 4) as i32);
        a.lw(T3, A0, (D_SIZE2 * 4) as i32);
        a.lw(T4, A0, (D_LEAF * 4) as i32);
        a.lw(T5, A0, (D_CHILD * 4) as i32);
        a.lw(A6, A0, (D_BODIES * 4) as i32);
        a.lw(A7, A0, (D_OUT * 4) as i32);
        a.lw(S0, A0, (D_Q0 * 4) as i32);
        a.lw(S1, A0, (D_NBODIES * 4) as i32);
        a.lw(S2, A0, (D_STACK * 4) as i32);
        a.lw(T6, A0, (D_THETA2 * 4) as i32);
        a.fmv_w_x(Fs2, T6); // theta^2
        a.lw(T6, A0, (D_EPS2 * 4) as i32);
        a.fmv_w_x(Fs3, T6); // eps^2
        a.mv(A0, T0);
        a.mv(A1, T1);
        a.mv(A2, T2);
        a.mv(A3, T3);
        a.mv(A4, T4);
        a.mv(A5, T5);
        // Private stack: S2 += rank * 4096.
        a.slli(T0, S10, 12);
        a.add(S2, S2, T0);
        a.li(S8, -1); // sentinel
        a.lif(Fs9, T0, 1.0);
        // S4 = 4*nbodies (array stride between x/y/mass planes).
        a.slli(S4, S1, 2);
        a.li(S9, 1); // amoadd operand

        // ---- Body loop ----
        let body_loop = a.new_label();
        let all_done = a.new_label();
        a.bind(body_loop);
        a.amoadd(S5, S9, S0);
        a.bge(S5, S1, all_done);
        // Load px, py, pm.
        a.slli(T0, S5, 2);
        a.add(T1, A6, T0);
        a.flw(Fs4, T1, 0); // px
        a.add(T1, T1, S4);
        a.flw(Fs5, T1, 0); // py
        a.add(T1, T1, S4);
        a.flw(Fs6, T1, 0); // pm
        a.fmv_w_x(Fs7, Zero); // fx
        a.fmv_w_x(Fs8, Zero); // fy
                              // Push root (node 0).
        a.sw(Zero, S2, 0);
        a.li(S6, 4); // sp (bytes)

        let traverse = a.new_label();
        let body_done = a.new_label();
        let accumulate = a.new_label();
        let not_leaf = a.new_label();
        a.bind(traverse);
        a.beqz(S6, body_done);
        a.addi(S6, S6, -4);
        a.add(T1, S2, S6);
        a.lw(S7, T1, 0); // ni
        a.slli(T0, S7, 2);
        a.add(T1, A0, T0);
        a.flw(Fa0, T1, 0); // com.x
        a.add(T1, A1, T0);
        a.flw(Fa1, T1, 0); // com.y
        a.add(T1, A2, T0);
        a.flw(Fa2, T1, 0); // mass
        a.fsub(Fa0, Fa0, Fs4); // dx
        a.fsub(Fa1, Fa1, Fs5); // dy
        a.fmul(Fa3, Fa0, Fa0);
        a.fmadd(Fa3, Fa1, Fa1, Fa3);
        a.fadd(Fa3, Fa3, Fs3); // dist2
        a.add(T1, A4, T0);
        a.lw(T2, T1, 0); // leaf/body tag
        a.beq(T2, S8, not_leaf);
        // Leaf: skip self-interaction.
        a.beq(T2, S5, traverse);
        a.j(accumulate);
        a.bind(not_leaf);
        // Opening test: size2 < theta2 * dist2 -> accumulate as a cell.
        a.add(T1, A3, T0);
        a.flw(Fa4, T1, 0); // size2
        a.fmul(Fa5, Fs2, Fa3);
        a.flt(T2, Fa4, Fa5);
        a.bnez(T2, accumulate);
        // Open: push non-empty children.
        a.slli(T0, S7, 4);
        a.add(T1, A5, T0); // &children[ni][0]
        for q in 0..4i32 {
            let skip = a.new_label();
            a.lw(T2, T1, 4 * q);
            a.beq(T2, S8, skip);
            a.add(T3, S2, S6);
            a.sw(T2, T3, 0);
            a.addi(S6, S6, 4);
            a.bind(skip);
        }
        a.j(traverse);

        a.bind(accumulate);
        // inv = 1 / (dist2 * sqrt(dist2)); f = pm * mass * inv.
        a.fsqrt(Fa4, Fa3);
        a.fmul(Fa4, Fa3, Fa4);
        a.fdiv(Fa4, Fs9, Fa4);
        a.fmul(Fa5, Fs6, Fa2);
        a.fmul(Fa5, Fa5, Fa4);
        a.fmadd(Fs7, Fa5, Fa0, Fs7); // fx += f * dx
        a.fmadd(Fs8, Fa5, Fa1, Fs8); // fy += f * dy
        a.j(traverse);

        a.bind(body_done);
        a.slli(T0, S5, 2);
        a.add(T1, A7, T0);
        a.fsw(Fs7, T1, 0);
        a.add(T1, T1, S4);
        a.fsw(Fs8, T1, 0);
        a.j(body_loop);

        a.bind(all_done);
        a.fence();
        a.ecall();
        a.assemble(0).expect("barnes-hut assembles")
    }
}

impl Benchmark for BarnesHut {
    fn name(&self) -> &'static str {
        "BH"
    }

    fn dwarf(&self) -> &'static str {
        "N-Body Methods"
    }

    fn run(&self, cfg: &MachineConfig, size: SizeClass) -> Result<BenchStats, SimError> {
        run_fresh(self, cfg, size)
    }
}

impl Kernel for BarnesHut {
    fn program(&self) -> Program {
        Self::program()
    }

    /// Validates against [`golden::QuadTree::force`].
    fn prepare(&self, machine: &mut Machine, size: SizeClass) -> Launch {
        let n = self.sized(size).bodies;
        let bodies = gen::bodies(n as usize, 0xB4);
        // The kernel walks the host-built tree, so it is set-up, not golden.
        let tree = golden::QuadTree::build(&bodies);

        // Serialize the tree into flat arrays.
        let nn = tree.nodes.len();
        let mut cx = Vec::with_capacity(nn);
        let mut cy = Vec::with_capacity(nn);
        let mut mass = Vec::with_capacity(nn);
        let mut size2 = Vec::with_capacity(nn);
        let mut leaf = Vec::with_capacity(nn);
        let mut child = Vec::with_capacity(nn * 4);
        for node in &tree.nodes {
            cx.push(node.com.0);
            cy.push(node.com.1);
            mass.push(node.mass);
            size2.push(node.size * node.size);
            leaf.push(if node.is_leaf {
                node.children[0]
            } else {
                u32::MAX
            });
            if node.is_leaf {
                child.extend_from_slice(&[u32::MAX; 4]);
            } else {
                child.extend_from_slice(&node.children);
            }
        }

        let nthreads = machine.config().cell_dim.tiles() as u32;
        let cell = machine.cell_mut(0);
        let cx_d = alloc_f32(cell, &cx);
        let cy_d = alloc_f32(cell, &cy);
        let mass_d = alloc_f32(cell, &mass);
        let size2_d = alloc_f32(cell, &size2);
        let leaf_d = alloc_u32(cell, &leaf);
        let child_d = alloc_u32(cell, &child);
        let mut body_soa = Vec::with_capacity(3 * n as usize);
        body_soa.extend(bodies.iter().map(|b| b.0));
        body_soa.extend(bodies.iter().map(|b| b.1));
        body_soa.extend(bodies.iter().map(|b| b.2));
        let bodies_d = alloc_f32(cell, &body_soa);
        let out_d = cell.alloc(2 * n * 4, 64);
        let q0 = alloc_u32(cell, &[0]);
        let stack = cell.alloc(nthreads * 4096, 64);
        let desc_vals = [
            pgas::local_dram(cx_d),
            pgas::local_dram(cy_d),
            pgas::local_dram(mass_d),
            pgas::local_dram(size2_d),
            pgas::local_dram(leaf_d),
            pgas::local_dram(child_d),
            pgas::local_dram(bodies_d),
            pgas::local_dram(out_d),
            pgas::local_dram(q0),
            n,
            pgas::local_dram(stack),
            (THETA * THETA).to_bits(),
            EPS2.to_bits(),
        ];
        debug_assert_eq!(desc_vals.len(), DESC_WORDS as usize);
        let desc = alloc_u32(cell, &desc_vals);

        Launch {
            program: Arc::new(Self::program()),
            args: vec![pgas::local_dram(desc)],
            work_units: 1.0,
            check: Box::new(move |machine| {
                let dram = machine.cell(0).dram();
                let fx = dram.read_f32_slice(out_d, n as usize);
                let fy = dram.read_f32_slice(out_d + 4 * n, n as usize);
                for b in 0..n as usize {
                    let (ex, ey) = tree.force(&bodies, b, THETA);
                    let scale = ex.abs().max(ey.abs()).max(1.0);
                    assert!(
                        (fx[b] - ex).abs() <= scale * 1e-2,
                        "BH fx mismatch at body {b}: sim {} vs golden {ex}",
                        fx[b]
                    );
                    assert!(
                        (fy[b] - ey).abs() <= scale * 1e-2,
                        "BH fy mismatch at body {b}: sim {} vs golden {ey}",
                        fy[b]
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
    fn bh_validates_against_tree_forces() {
        let cfg = MachineConfig {
            cell_dim: CellDim { x: 4, y: 2 },
            ..MachineConfig::baseline_16x8()
        };
        let stats = BarnesHut::default().run(&cfg, SizeClass::Tiny).unwrap();
        assert!(
            stats.core.stall(hb_core::StallKind::FpBusy) > 0,
            "BH should hit the iterative fsqrt/fdiv unit"
        );
    }
}
