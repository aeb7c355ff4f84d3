//! AES — AES-128 ECB encryption (combinational-logic dwarf).
//!
//! Compute-intensive with almost no memory traffic: each tile keeps a
//! private copy of the S-box and round keys in its Local SPM (the paper's
//! exact strategy) and encrypts a rank-strided set of 16-byte blocks with
//! byte-level table lookups.

use crate::bench::{run_fresh, BenchStats, Benchmark, Kernel, Launch, SizeClass};
use crate::util::prologue;
use hb_asm::{Assembler, Program};
use hb_core::{pgas, Machine, MachineConfig, SimError};
use hb_isa::Gpr::{self, *};
use hb_workloads::{gen, golden};
use std::sync::Arc;

/// SPM layout: S-box at 0 (so a byte value *is* its lookup address),
/// round keys at 0x100, state at 0x1b0, shifted state at 0x1c0.
const SPM_RK: i32 = 0x100;
const SPM_STATE: i32 = 0x1b0;
const SPM_TMP: i32 = 0x1c0;

/// The AES-128 ECB benchmark over `blocks` 16-byte blocks.
#[derive(Debug, Clone)]
pub struct Aes {
    /// Number of blocks encrypted.
    pub blocks: u32,
}

impl Default for Aes {
    fn default() -> Aes {
        Aes { blocks: 256 }
    }
}

/// Emits `dst_byte = sbox[state_like[src_off]]` where the S-box lives at
/// SPM address 0. Clobbers t0, t1.
fn emit_sub_byte(a: &mut Assembler, src_off: i32, dst_off: i32) {
    a.lbu(T0, Zero, src_off);
    a.lbu(T1, T0, 0); // S-box lookup: address == byte value
    a.sb(T1, Zero, dst_off);
}

/// Emits `dst = xtime(src)` (GF(2^8) multiply by x). Clobbers `tmp`.
fn emit_xtime(a: &mut Assembler, dst: Gpr, src: Gpr, tmp: Gpr) {
    a.srli(tmp, src, 7);
    a.neg(tmp, tmp);
    a.andi(tmp, tmp, 0x1b);
    a.slli(dst, src, 1);
    a.andi(dst, dst, 0xff);
    a.xor(dst, dst, tmp);
}

impl Aes {
    fn sized(&self, size: SizeClass) -> Aes {
        match size {
            SizeClass::Tiny => Aes { blocks: 16 },
            SizeClass::Small => self.clone(),
            SizeClass::Large => Aes { blocks: 1024 },
        }
    }

    /// Builds the kernel. Arguments: `a0`=S-box, `a1`=round keys,
    /// `a2`=plaintext, `a3`=ciphertext, `a4`=block count.
    pub fn program() -> Program {
        let mut a = Assembler::new();
        prologue(&mut a, S10, S11, T6);

        // ---- Copy S-box (256 B) + round keys (176 B) into SPM ----
        // S-box: 64 words from a0 -> SPM 0.
        a.mv(S0, A0);
        a.li(S1, 0);
        a.li(S2, 64);
        let copy_sbox = a.here();
        a.lw(T0, S0, 0);
        a.lw(T1, S0, 4);
        a.lw(T2, S0, 8);
        a.lw(T3, S0, 12);
        a.sw(T0, S1, 0);
        a.sw(T1, S1, 4);
        a.sw(T2, S1, 8);
        a.sw(T3, S1, 12);
        a.addi(S0, S0, 16);
        a.addi(S1, S1, 16);
        a.addi(S2, S2, -4);
        a.bnez(S2, copy_sbox);
        // Round keys: 44 words from a1 -> SPM 0x100.
        a.mv(S0, A1);
        a.li(S1, SPM_RK);
        a.li(S2, 44);
        let copy_rk = a.here();
        a.lw(T0, S0, 0);
        a.sw(T0, S1, 0);
        a.addi(S0, S0, 4);
        a.addi(S1, S1, 4);
        a.addi(S2, S2, -1);
        a.bnez(S2, copy_rk);

        // ---- Block loop: i = rank; i < nblocks; i += nthreads ----
        a.mv(S0, S10);
        let block_loop = a.new_label();
        let done = a.new_label();
        a.bind(block_loop);
        a.bge(S0, A4, done);

        // Load block (4 words) and AddRoundKey 0 into SPM state.
        a.slli(T4, S0, 4);
        a.add(T4, T4, A2); // &in[i*16]
        for w in 0..4 {
            a.lw(T0, T4, 4 * w);
            a.lw(T1, Zero, SPM_RK + 4 * w);
            a.xor(T0, T0, T1);
            a.sw(T0, Zero, SPM_STATE + 4 * w);
        }

        // Rounds 1..9: SubBytes+ShiftRows (state->tmp), MixColumns
        // (tmp->state), AddRoundKey (SPM rk pointer in s4).
        a.li(S3, 9);
        a.li(S4, SPM_RK + 16);
        let round_loop = a.here();
        {
            // SubBytes + ShiftRows fused: tmp[c*4+r] = S[state[((c+r)%4)*4+r]].
            for col in 0..4i32 {
                for row in 0..4i32 {
                    let src = ((col + row) % 4) * 4 + row;
                    emit_sub_byte(&mut a, SPM_STATE + src, SPM_TMP + col * 4 + row);
                }
            }
            // MixColumns per column: tmp -> state.
            for col in 0..4i32 {
                // Load the 4 bytes: s2..s5? use t0-t3 as a0..a3, s5 = all.
                a.lbu(T0, Zero, SPM_TMP + col * 4);
                a.lbu(T1, Zero, SPM_TMP + col * 4 + 1);
                a.lbu(T2, Zero, SPM_TMP + col * 4 + 2);
                a.lbu(T3, Zero, SPM_TMP + col * 4 + 3);
                a.xor(S5, T0, T1);
                a.xor(S5, S5, T2);
                a.xor(S5, S5, T3); // all
                let rows = [T0, T1, T2, T3];
                for r in 0..4usize {
                    let (ar, anext) = (rows[r], rows[(r + 1) % 4]);
                    a.xor(T4, ar, anext);
                    emit_xtime(&mut a, T4, T4, T5);
                    a.xor(T4, T4, S5);
                    a.xor(T4, T4, ar);
                    a.sb(T4, Zero, SPM_STATE + col * 4 + r as i32);
                }
            }
            // AddRoundKey (word-wise from s4).
            for w in 0..4i32 {
                a.lw(T0, Zero, SPM_STATE + 4 * w);
                a.lw(T1, S4, 4 * w);
                a.xor(T0, T0, T1);
                a.sw(T0, Zero, SPM_STATE + 4 * w);
            }
            a.addi(S4, S4, 16);
            a.addi(S3, S3, -1);
        }
        a.bnez(S3, round_loop);

        // Final round: SubBytes+ShiftRows, AddRoundKey(10), store to DRAM.
        for col in 0..4i32 {
            for row in 0..4i32 {
                let src = ((col + row) % 4) * 4 + row;
                emit_sub_byte(&mut a, SPM_STATE + src, SPM_TMP + col * 4 + row);
            }
        }
        a.slli(T4, S0, 4);
        a.add(T4, T4, A3); // &out[i*16]
        for w in 0..4i32 {
            a.lw(T0, Zero, SPM_TMP + 4 * w);
            a.lw(T1, S4, 4 * w); // s4 now points at rk[160]
            a.xor(T0, T0, T1);
            a.sw(T0, T4, 4 * w);
        }

        a.add(S0, S0, S11);
        a.j(block_loop);
        a.bind(done);
        a.fence();
        a.ecall();
        a.assemble(0).expect("aes assembles")
    }
}

impl Benchmark for Aes {
    fn name(&self) -> &'static str {
        "AES"
    }

    fn dwarf(&self) -> &'static str {
        "Combinational Logic"
    }

    fn run(&self, cfg: &MachineConfig, size: SizeClass) -> Result<BenchStats, SimError> {
        run_fresh(self, cfg, size)
    }
}

impl Kernel for Aes {
    fn program(&self) -> Program {
        Self::program()
    }

    /// Validates against [`golden::aes128_ecb`].
    fn prepare(&self, machine: &mut Machine, size: SizeClass) -> Launch {
        let blocks = self.sized(size).blocks;
        let key: [u8; 16] = *b"HammerBlade-2024";
        let plaintext = gen::random_bytes(blocks as usize * 16, 0xAE5);

        let cell = machine.cell_mut(0);
        let sbox = cell.alloc(256, 64);
        let rk = cell.alloc(176, 64);
        let input = cell.alloc(blocks * 16, 64);
        let output = cell.alloc(blocks * 16, 64);
        cell.dram_mut().write_bytes(sbox, &golden::AES_SBOX);
        cell.dram_mut()
            .write_bytes(rk, &golden::aes128_key_schedule(&key));
        cell.dram_mut().write_bytes(input, &plaintext);

        Launch {
            program: Arc::new(Self::program()),
            args: vec![
                pgas::local_dram(sbox),
                pgas::local_dram(rk),
                pgas::local_dram(input),
                pgas::local_dram(output),
                blocks,
            ],
            work_units: 1.0,
            check: Box::new(move |machine| {
                let expect = golden::aes128_ecb(&plaintext, &key);
                let mut got = vec![0; expect.len()];
                machine.cell(0).dram().read_into(output, &mut got);
                assert_eq!(got, expect, "AES ciphertext mismatch");
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hb_core::CellDim;

    #[test]
    fn aes_matches_golden_ciphertext() {
        let cfg = MachineConfig {
            cell_dim: CellDim { x: 4, y: 2 },
            ..MachineConfig::baseline_16x8()
        };
        let stats = Aes::default().run(&cfg, SizeClass::Tiny).unwrap();
        // Compute-bound: core utilization dominated by int execution.
        assert!(stats.core.int_cycles > stats.core.stall(hb_core::StallKind::RemoteLoad));
    }
}
