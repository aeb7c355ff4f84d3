//! Jacobi — 7-point 3-D stencil (structured-grids dwarf).
//!
//! The paper's flagship Group-SPM kernel (Figure 7): each tile owns a
//! `1 x 1 x Z` column of the grid in its scratchpad, and reads the four
//! lateral neighbor columns directly from the neighboring tiles'
//! scratchpads through Group SPM pointers — non-blocking remote loads
//! pipelined in the network. Tiles synchronize between time steps with the
//! hardware barrier.
//!
//! # Degraded mode
//!
//! The kernel tolerates tiles disabled via `MachineConfig::disabled_tiles`:
//! each tile walks a small list of column descriptors built in its SPM —
//! its own column plus, if the `TG_ADOPT` CSR names a dead tile, that
//! tile's column. The adopted column still *lives in the dead tile's
//! scratchpad* (its network interface stays alive), accessed through
//! Group-SPM EVAs, so every other tile's neighbor pointers are unchanged
//! and the stencil stays golden-correct around the hole. With no tiles
//! disabled the descriptor list has one entry and the schedule matches the
//! dedicated-column kernel.

use crate::bench::{run_fresh, BenchStats, Benchmark, Kernel, Launch, SizeClass};
use crate::util::{alloc_f32, prologue};
use hb_asm::{Assembler, Program};
use hb_core::{pgas, HbOps, Machine, MachineConfig, SimError};
use hb_isa::{Fpr::*, Gpr::*};
use hb_workloads::{gen, golden};
use std::sync::Arc;

/// Double-buffered column storage: buffer 0 at SPM 0, buffer 1 at 0x800.
const BUF_STRIDE: i32 = 0x800;

/// Column descriptors live above both buffers (each buffer holds at most
/// 448 words = 0x700 bytes, so 0xF00..0xFFF is always free).
const DESC_BASE: i32 = 0xF00;
/// Bytes per descriptor (two fit between `DESC_BASE` and the SPM top).
const DESC_SIZE: i32 = 0x20;
/// Descriptor field offsets: column base in DRAM, column base in SPM
/// (local offset or Group-SPM EVA), interior flag, neighbor EVAs.
const DESC_DRAM: i32 = 0x0;
const DESC_SPM: i32 = 0x4;
const DESC_INTERIOR: i32 = 0x8;
const DESC_LEFT: i32 = 0xC;
const DESC_RIGHT: i32 = 0x10;
const DESC_UP: i32 = 0x14;
const DESC_DOWN: i32 = 0x18;

/// The Jacobi benchmark: `steps` iterations on a `(cell_w, cell_h, z)`
/// grid, one column per tile.
#[derive(Debug, Clone)]
pub struct Jacobi {
    /// Grid depth per tile (<= 448 to fit double buffering in 4 KB).
    pub z: u32,
    /// Time steps.
    pub steps: u32,
}

impl Default for Jacobi {
    fn default() -> Jacobi {
        Jacobi { z: 128, steps: 4 }
    }
}

impl Jacobi {
    fn sized(&self, size: SizeClass) -> Jacobi {
        match size {
            SizeClass::Tiny => Jacobi { z: 32, steps: 2 },
            SizeClass::Small => self.clone(),
            SizeClass::Large => Jacobi { z: 256, steps: 8 },
        }
    }

    /// Builds the kernel. Arguments: `a0`=grid (DRAM, layout
    /// `[(y*nx+x)*nz + z]`), `a1`=Z, `a2`=steps.
    ///
    /// Each tile first builds one column *descriptor* per column it owns —
    /// always its own, plus the `TG_ADOPT` tile's when degraded — at SPM
    /// `DESC_BASE`, then runs copy-in / step-loop / copy-out uniformly
    /// over the descriptor list. A descriptor holds the column's DRAM
    /// base, its SPM base (0 locally, a Group-SPM EVA for an adopted
    /// column), an interior flag, and the four neighbor-column EVAs.
    pub fn program() -> Program {
        let mut a = Assembler::new();
        prologue(&mut a, S10, S11, T6);
        // Tile coordinates and cell shape.
        a.csr_load(S0, pgas::csr::TILE_X, T6);
        a.csr_load(S1, pgas::csr::TILE_Y, T6);
        a.csr_load(S2, pgas::csr::CELL_W, T6);
        a.csr_load(S3, pgas::csr::CELL_H, T6);

        // group_spm(x, y, 0) = (1<<30)|y<<24|x<<18, clobbers t0/t1.
        let spm_base = |a: &mut Assembler, dst, x_reg, y_reg| {
            a.slli(T0, y_reg, 24);
            a.slli(T1, x_reg, 18);
            a.or(T0, T0, T1);
            a.li_u(T1, 1 << 30);
            a.or(dst, T0, T1);
        };
        // Emits one descriptor at [s4] for the column of tile (x_reg,
        // y_reg); `own` selects local SPM addressing over a Group-SPM EVA.
        // Clobbers t0..t4. Neighbor EVAs are garbage on edge columns but
        // the cleared interior flag keeps them from ever being read.
        let emit_desc = |a: &mut Assembler, x_reg, y_reg, own: bool| {
            a.mul(T2, y_reg, S2);
            a.add(T2, T2, x_reg);
            a.mul(T2, T2, A1);
            a.slli(T2, T2, 2);
            a.add(T2, T2, A0);
            a.sw(T2, S4, DESC_DRAM);
            if own {
                a.sw(Zero, S4, DESC_SPM);
            } else {
                spm_base(a, T4, x_reg, y_reg);
                a.sw(T4, S4, DESC_SPM);
            }
            // Interior test: 0 < x < w-1 and 0 < y < h-1.
            let edge = a.new_label();
            a.li(T3, 0);
            a.beqz(x_reg, edge);
            a.beqz(y_reg, edge);
            a.addi(T0, S2, -1);
            a.beq(x_reg, T0, edge);
            a.addi(T0, S3, -1);
            a.beq(y_reg, T0, edge);
            a.li(T3, 1);
            a.bind(edge);
            a.sw(T3, S4, DESC_INTERIOR);
            a.addi(T2, x_reg, -1);
            spm_base(a, T4, T2, y_reg); // left  (x-1, y)
            a.sw(T4, S4, DESC_LEFT);
            a.addi(T2, x_reg, 1);
            spm_base(a, T4, T2, y_reg); // right (x+1, y)
            a.sw(T4, S4, DESC_RIGHT);
            a.addi(T2, y_reg, -1);
            spm_base(a, T4, x_reg, T2); // up    (x, y-1)
            a.sw(T4, S4, DESC_UP);
            a.addi(T2, y_reg, 1);
            spm_base(a, T4, x_reg, T2); // down  (x, y+1)
            a.sw(T4, S4, DESC_DOWN);
        };

        // Descriptor 0: own column. S7 = descriptor count.
        a.li(S4, DESC_BASE);
        emit_desc(&mut a, S0, S1, true);
        a.li(S7, 1);
        // Descriptor 1: adopted dead tile's column, if any.
        a.csr_load(T5, pgas::csr::TG_ADOPT, T6);
        a.li(T0, -1); // pgas::NO_ADOPTEE
        let no_adopt = a.new_label();
        a.beq(T5, T0, no_adopt);
        a.srli(S5, T5, 8); // adopted x
        a.andi(S6, T5, 0xFF); // adopted y
        a.addi(S4, S4, DESC_SIZE);
        emit_desc(&mut a, S5, S6, false);
        a.li(S7, 2);
        a.bind(no_adopt);

        // Copy each column from DRAM into buffer 0 and buffer 1 (remote
        // stores through the dead tile's network interface when adopted).
        a.li(S4, DESC_BASE);
        a.mv(S8, S7);
        let ci_block = a.here();
        {
            a.lw(T0, S4, DESC_DRAM);
            a.lw(T1, S4, DESC_SPM);
            a.li(T5, BUF_STRIDE);
            a.add(T5, T5, T1);
            a.mv(T2, A1);
            let copy_in = a.here();
            a.lw(T3, T0, 0);
            a.sw(T3, T1, 0);
            a.sw(T3, T5, 0);
            a.addi(T0, T0, 4);
            a.addi(T1, T1, 4);
            a.addi(T5, T5, 4);
            a.addi(T2, T2, -1);
            a.bnez(T2, copy_in);
            a.addi(S4, S4, DESC_SIZE);
            a.addi(S8, S8, -1);
        }
        a.bnez(S8, ci_block);
        a.fence();
        a.barrier(T6);

        // fs0 = 1/7.
        a.lif(Fs0, T0, 1.0 / 7.0);

        // Step loop. S9 = current buffer offset (0 / 0x800); a3 holds the
        // stride so the toggle is `s9 = a3 - s9` (xori immediates max out
        // at +/-2047).
        a.li(A3, BUF_STRIDE);
        a.li(S9, 0);
        a.mv(S2, A2); // reuse s2 as remaining-steps counter
        let step_loop = a.here();
        {
            a.li(S4, DESC_BASE);
            a.mv(S8, S7);
            let blk_loop = a.here();
            {
                let next_blk = a.new_label();
                a.lw(T5, S4, DESC_INTERIOR);
                a.beqz(T5, next_blk); // edge columns only keep barriers
                                      // Pointers: t0 self cur (+4), t1..t4 neighbors cur (+4),
                                      // t5 out (next buffer, +4).
                a.lw(T0, S4, DESC_SPM);
                a.sub(S5, A3, S9);
                a.add(T5, T0, S5);
                a.addi(T5, T5, 4);
                a.add(T0, T0, S9);
                a.addi(T0, T0, 4);
                a.lw(T1, S4, DESC_LEFT);
                a.add(T1, T1, S9);
                a.addi(T1, T1, 4);
                a.lw(T2, S4, DESC_RIGHT);
                a.add(T2, T2, S9);
                a.addi(T2, T2, 4);
                a.lw(T3, S4, DESC_UP);
                a.add(T3, T3, S9);
                a.addi(T3, T3, 4);
                a.lw(T4, S4, DESC_DOWN);
                a.add(T4, T4, S9);
                a.addi(T4, T4, 4);
                // z = 1 .. Z-1.
                a.li(S3, 1);
                a.addi(S1, A1, -1); // reuse s1 as Z-1 (coords are encoded)
                let z_loop = a.here();
                {
                    a.flw(Fa3, T1, 0); // left (remote, in flight)
                    a.flw(Fa4, T2, 0); // right
                    a.flw(Fa5, T3, 0); // up
                    a.flw(Fa6, T4, 0); // down
                    a.flw(Fa0, T0, 0); // self z
                    a.flw(Fa1, T0, -4); // z-1
                    a.flw(Fa2, T0, 4); // z+1
                                       // Golden order: self + left + right + up + down + z-1 + z+1.
                    a.fadd(Fa7, Fa0, Fa3);
                    a.fadd(Fa7, Fa7, Fa4);
                    a.fadd(Fa7, Fa7, Fa5);
                    a.fadd(Fa7, Fa7, Fa6);
                    a.fadd(Fa7, Fa7, Fa1);
                    a.fadd(Fa7, Fa7, Fa2);
                    a.fmul(Fa7, Fa7, Fs0);
                    a.fsw(Fa7, T5, 0);
                    a.addi(T0, T0, 4);
                    a.addi(T1, T1, 4);
                    a.addi(T2, T2, 4);
                    a.addi(T3, T3, 4);
                    a.addi(T4, T4, 4);
                    a.addi(T5, T5, 4);
                    a.addi(S3, S3, 1);
                }
                a.blt(S3, S1, z_loop);
                a.bind(next_blk);
                a.addi(S4, S4, DESC_SIZE);
                a.addi(S8, S8, -1);
            }
            a.bnez(S8, blk_loop);
            a.fence();
            a.barrier(T6);
            a.sub(S9, A3, S9);
            a.addi(S2, S2, -1);
        }
        a.bnez(S2, step_loop);

        // Write each column's current buffer back to DRAM.
        a.li(S4, DESC_BASE);
        a.mv(S8, S7);
        let co_block = a.here();
        {
            a.lw(T0, S4, DESC_SPM);
            a.add(T0, T0, S9);
            a.lw(T1, S4, DESC_DRAM);
            a.mv(T2, A1);
            let copy_out = a.here();
            a.lw(T3, T0, 0);
            a.sw(T3, T1, 0);
            a.addi(T0, T0, 4);
            a.addi(T1, T1, 4);
            a.addi(T2, T2, -1);
            a.bnez(T2, copy_out);
            a.addi(S4, S4, DESC_SIZE);
            a.addi(S8, S8, -1);
        }
        a.bnez(S8, co_block);
        a.fence();
        a.ecall();
        a.assemble(0).expect("jacobi assembles")
    }
}

impl Benchmark for Jacobi {
    fn name(&self) -> &'static str {
        "Jacobi"
    }

    fn dwarf(&self) -> &'static str {
        "Structured Grids"
    }

    fn run(&self, cfg: &MachineConfig, size: SizeClass) -> Result<BenchStats, SimError> {
        run_fresh(self, cfg, size)
    }
}

impl Kernel for Jacobi {
    fn program(&self) -> Program {
        Self::program()
    }

    /// Validates against repeated [`golden::jacobi_step`].
    fn prepare(&self, machine: &mut Machine, size: SizeClass) -> Launch {
        let Jacobi { z, steps } = self.sized(size);
        assert!(z <= 448, "column must fit double-buffered in SPM");
        let dim = machine.config().cell_dim;
        let (nx, ny, nz) = (dim.x as usize, dim.y as usize, z as usize);
        let init = gen::dense_matrix(nx * ny, nz, 0x1AC0B1);

        let grid = alloc_f32(machine.cell_mut(0), &init);

        Launch {
            program: Arc::new(Self::program()),
            args: vec![pgas::local_dram(grid), z, steps],
            // The grid scales with the Cell, so normalize by grid size for
            // cross-configuration comparisons (weak scaling).
            work_units: (nx * ny * nz) as f64 * f64::from(steps),
            check: Box::new(move |machine| {
                let mut expect = init;
                for _ in 0..steps {
                    expect = golden::jacobi_step(nx, ny, nz, &expect);
                }
                let got = machine.cell(0).dram().read_f32_slice(grid, expect.len());
                for (i, (g, e)) in got.iter().zip(&expect).enumerate() {
                    assert!(
                        (g - e).abs() <= 1e-4 + e.abs() * 1e-4,
                        "Jacobi mismatch at {i}: sim {g} vs golden {e}"
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
    fn jacobi_validates_with_group_spm() {
        let cfg = MachineConfig {
            cell_dim: CellDim { x: 4, y: 4 },
            ..MachineConfig::baseline_16x8()
        };
        let stats = Jacobi::default().run(&cfg, SizeClass::Tiny).unwrap();
        assert!(
            stats.core.remote_requests > 0,
            "neighbor SPM reads are remote"
        );
    }

    #[test]
    fn jacobi_stays_golden_with_two_dead_tiles() {
        // One interior dead tile (adopter must compute its column through
        // the dead tile's SPM) and one edge dead tile (Dirichlet column,
        // adopter only copies it in so neighbors read the right values).
        let cfg = MachineConfig {
            cell_dim: CellDim { x: 4, y: 4 },
            disabled_tiles: vec![(1, 1), (0, 2)],
            ..MachineConfig::baseline_16x8()
        };
        Jacobi::default().run(&cfg, SizeClass::Tiny).unwrap();
    }
}
