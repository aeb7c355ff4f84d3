//! Assembled program images.

use hb_isa::{Instr, INSTR_BYTES};

/// A fully assembled program: a base address plus a contiguous sequence of
/// instructions, available both as decoded [`Instr`]s and as encoded machine
/// words/bytes for loading into simulated DRAM.
#[derive(Debug, Clone, PartialEq)]
pub struct Program {
    base: u32,
    instrs: Vec<Instr>,
    words: Vec<u32>,
}

impl Program {
    pub(crate) fn from_instrs(base: u32, instrs: Vec<Instr>) -> Program {
        let words = instrs.iter().map(Instr::encode).collect();
        Program {
            base,
            instrs,
            words,
        }
    }

    /// Rebuilds a program from its encoded machine words (the inverse of
    /// [`Program::words`]), e.g. when restoring a checkpoint whose image
    /// was saved as raw words.
    ///
    /// # Errors
    ///
    /// Returns the index of the first word that fails to decode.
    pub fn from_words(base: u32, words: &[u32]) -> Result<Program, usize> {
        let instrs = words
            .iter()
            .enumerate()
            .map(|(i, &w)| hb_isa::decode(w).map_err(|_| i))
            .collect::<Result<Vec<Instr>, usize>>()?;
        Ok(Program {
            base,
            instrs,
            words: words.to_vec(),
        })
    }

    /// Byte address of the first instruction.
    pub fn base(&self) -> u32 {
        self.base
    }

    /// Number of instructions.
    pub fn len(&self) -> usize {
        self.instrs.len()
    }

    /// Whether the program contains no instructions.
    pub fn is_empty(&self) -> bool {
        self.instrs.is_empty()
    }

    /// Size of the image in bytes.
    pub fn size_bytes(&self) -> u32 {
        (self.instrs.len() as u32) * INSTR_BYTES
    }

    /// The decoded instructions in program order.
    pub fn instrs(&self) -> &[Instr] {
        &self.instrs
    }

    /// The encoded machine words in program order.
    pub fn words(&self) -> &[u32] {
        &self.words
    }

    /// The instruction at byte address `pc`, if `pc` falls inside the image
    /// and is 4-byte aligned.
    pub fn instr_at(&self, pc: u32) -> Option<Instr> {
        if pc < self.base || !pc.is_multiple_of(INSTR_BYTES) {
            return None;
        }
        self.instrs
            .get(((pc - self.base) / INSTR_BYTES) as usize)
            .copied()
    }

    /// Disassembles the whole program, one instruction per line, with
    /// addresses.
    pub fn disassemble(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        for (i, instr) in self.instrs.iter().enumerate() {
            let pc = self.base + (i as u32) * INSTR_BYTES;
            let _ = writeln!(out, "{pc:08x}: {:08x}  {instr}", self.words[i]);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Assembler;
    use hb_isa::Gpr::*;

    fn sample() -> Program {
        let mut a = Assembler::new();
        a.li(A0, 42).ecall();
        a.assemble(0x100).unwrap()
    }

    #[test]
    fn bytes_round_trip_through_decode() {
        let p = sample();
        let words = p.words();
        assert_eq!(words.len() as u32 * INSTR_BYTES, p.size_bytes());
        for (i, &word) in words.iter().enumerate() {
            assert_eq!(hb_isa::decode(word).unwrap(), p.instrs()[i]);
        }
    }

    #[test]
    fn instr_at_bounds() {
        let p = sample();
        assert!(p.instr_at(0x0fc).is_none());
        assert!(p.instr_at(0x101).is_none());
        assert!(p.instr_at(0x100).is_some());
        assert!(p.instr_at(0x100 + p.size_bytes()).is_none());
    }

    #[test]
    fn disassemble_lists_every_instruction() {
        let p = sample();
        let text = p.disassemble();
        assert_eq!(text.lines().count(), p.len());
        assert!(text.contains("ecall"));
    }
}
