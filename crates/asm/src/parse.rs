//! A text front-end for the assembler: parse RISC-V assembly source
//! (labels, comments, the common pseudo-instructions) into a [`Program`].
//!
//! This is the human-facing counterpart to the builder API — kernels can
//! be kept as `.s` files and assembled at runtime:
//!
//! ```
//! use hb_asm::parse;
//!
//! let program = parse(
//!     r#"
//!     // sum 1..=10
//!         li   t0, 10
//!         li   t1, 0
//!     loop:
//!         add  t1, t1, t0
//!         addi t0, t0, -1
//!         bnez t0, loop
//!         ecall
//!     "#,
//! )?;
//! assert_eq!(program.len(), 6);
//! # Ok::<(), hb_asm::ParseError>(())
//! ```

use crate::builder::{Assembler, Label};
use crate::program::Program;
use crate::AsmError;
use hb_isa::{
    AmoOp, BranchOp, FmaOp, FpCmp, FpOp, Fpr, Gpr, Instr, LoadWidth, OpImmOp, OpOp, StoreWidth,
};
use std::collections::HashMap;
use std::fmt;

/// Error produced while parsing assembly text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based source line.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

impl From<AsmError> for ParseError {
    fn from(e: AsmError) -> ParseError {
        ParseError {
            line: 0,
            message: e.to_string(),
        }
    }
}

/// Parses and assembles `src` with the first instruction at address 0.
///
/// # Errors
///
/// Returns [`ParseError`] for syntax errors, unknown mnemonics/registers,
/// out-of-range immediates, and unresolved labels.
pub fn parse(src: &str) -> Result<Program, ParseError> {
    parse_with_base(src, 0)
}

/// Parses and assembles `src` with the first instruction at `base_pc`.
///
/// # Errors
///
/// See [`parse`].
pub fn parse_with_base(src: &str, base_pc: u32) -> Result<Program, ParseError> {
    let mut p = Parser {
        a: Assembler::new(),
        labels: HashMap::new(),
    };
    for (idx, raw) in src.lines().enumerate() {
        let line_no = idx + 1;
        p.line(raw, line_no)?;
    }
    p.a.assemble(base_pc).map_err(|e| ParseError {
        line: 0,
        message: e.to_string(),
    })
}

struct Parser {
    a: Assembler,
    labels: HashMap<String, Label>,
}

fn err(line: usize, message: impl Into<String>) -> ParseError {
    ParseError {
        line,
        message: message.into(),
    }
}

/// Parses a signed immediate: decimal or 0x hex (optionally negative).
fn imm(tok: &str, line: usize) -> Result<i32, ParseError> {
    let (neg, t) = match tok.strip_prefix('-') {
        Some(rest) => (true, rest),
        None => (false, tok),
    };
    let v = if let Some(hex) = t.strip_prefix("0x").or_else(|| t.strip_prefix("0X")) {
        u32::from_str_radix(hex, 16).map_err(|_| err(line, format!("bad immediate `{tok}`")))?
    } else {
        t.parse::<u32>()
            .map_err(|_| err(line, format!("bad immediate `{tok}`")))?
    };
    let v = v as i32;
    Ok(if neg { v.wrapping_neg() } else { v })
}

/// Normalizes a `lui`/`auipc` operand to the signed 20-bit field value.
/// Disassembly prints the field as unsigned hex (`lui t0, 0xbf000`), so
/// values in `[0, 2^20)` are reinterpreted by sign-extending from bit 19.
fn upper20(v: i32, line: usize) -> Result<i32, ParseError> {
    if (0..1 << 20).contains(&v) {
        Ok((v << 12) >> 12)
    } else if (-(1 << 19)..1 << 19).contains(&v) {
        Ok(v)
    } else {
        Err(err(
            line,
            format!("upper immediate {v} does not fit 20 bits"),
        ))
    }
}

fn gpr(tok: &str, line: usize) -> Result<Gpr, ParseError> {
    tok.parse()
        .map_err(|_| err(line, format!("unknown register `{tok}`")))
}

fn fpr(tok: &str, line: usize) -> Result<Fpr, ParseError> {
    tok.parse()
        .map_err(|_| err(line, format!("unknown FP register `{tok}`")))
}

/// Splits a memory operand `offset(base)`.
fn mem_operand(tok: &str, line: usize) -> Result<(i32, Gpr), ParseError> {
    let open = tok
        .find('(')
        .ok_or_else(|| err(line, format!("expected offset(reg), got `{tok}`")))?;
    let close = tok
        .strip_suffix(')')
        .ok_or_else(|| err(line, format!("missing `)` in `{tok}`")))?;
    let off_str = &tok[..open];
    let reg_str = &close[open + 1..];
    let offset = if off_str.is_empty() {
        0
    } else {
        imm(off_str, line)?
    };
    Ok((offset, gpr(reg_str, line)?))
}

impl Parser {
    fn label(&mut self, name: &str) -> Label {
        if let Some(&l) = self.labels.get(name) {
            return l;
        }
        let l = self.a.new_label();
        self.labels.insert(name.to_owned(), l);
        l
    }

    fn line(&mut self, raw: &str, line: usize) -> Result<(), ParseError> {
        // Strip comments (# and //).
        let mut text = raw;
        if let Some(i) = text.find('#') {
            text = &text[..i];
        }
        if let Some(i) = text.find("//") {
            text = &text[..i];
        }
        let mut text = text.trim();
        // Leading labels, possibly several.
        while let Some(colon) = text.find(':') {
            let (name, rest) = text.split_at(colon);
            let name = name.trim();
            if name.is_empty() || name.contains(char::is_whitespace) {
                break;
            }
            let l = self.label(name);
            self.a.bind(l);
            text = rest[1..].trim();
        }
        if text.is_empty() {
            return Ok(());
        }
        // Directives are not supported (data lives in DRAM via the host).
        if text.starts_with('.') {
            return Err(err(line, format!("directives are not supported: `{text}`")));
        }
        let (mnemonic, rest) = match text.find(char::is_whitespace) {
            Some(i) => text.split_at(i),
            None => (text, ""),
        };
        let ops: Vec<&str> = rest
            .split(',')
            .map(str::trim)
            .filter(|s| !s.is_empty())
            .collect();
        self.instr(mnemonic, &ops, line)
    }

    /// Resolves `m`: an op of a table family is found by its mnemonic and
    /// read in its family's operand shape; the rest are spelled here.
    fn instr(&mut self, m: &str, ops: &[&str], line: usize) -> Result<(), ParseError> {
        let o = Operands { m, ops, line };
        let (base, aq, rl) = ordering(m);
        let instr = if let Some(op) = find(&OpOp::ALL, OpOp::mnemonic, m) {
            o.need(3)?;
            Instr::Op {
                op,
                rd: o.gpr(0)?,
                rs1: o.gpr(1)?,
                rs2: o.gpr(2)?,
            }
        } else if let Some(op) = find(&OpImmOp::ALL, OpImmOp::mnemonic, m) {
            o.need(3)?;
            Instr::OpImm {
                op,
                rd: o.gpr(0)?,
                rs1: o.gpr(1)?,
                imm: o.imm(2)?,
            }
        } else if let Some(width) = find(&LoadWidth::ALL, LoadWidth::mnemonic, m) {
            o.need(2)?;
            let rd = o.gpr(0)?;
            let (offset, rs1) = o.mem(1)?;
            Instr::Load {
                width,
                rd,
                rs1,
                offset,
            }
        } else if let Some(width) = find(&StoreWidth::ALL, StoreWidth::mnemonic, m) {
            o.need(2)?;
            let rs2 = o.gpr(0)?;
            let (offset, rs1) = o.mem(1)?;
            Instr::Store {
                width,
                rs1,
                rs2,
                offset,
            }
        } else if let Some(op) = find(&BranchOp::ALL, BranchOp::mnemonic, m) {
            o.need(3)?;
            self.branch(op, o.gpr(0)?, o.gpr(1)?, ops[2], line);
            return Ok(());
        } else if let Some(op) = find(&AmoOp::ALL, AmoOp::mnemonic, base) {
            o.need(3)?;
            let (rd, rs2) = (o.gpr(0)?, o.gpr(1)?);
            Instr::Amo {
                op,
                rd,
                rs1: o.amo_addr(2)?,
                rs2,
                aq,
                rl,
            }
        } else if base == "lr.w" {
            o.need(2)?;
            Instr::LrW {
                rd: o.gpr(0)?,
                rs1: o.amo_addr(1)?,
                aq,
                rl,
            }
        } else if base == "sc.w" {
            o.need(3)?;
            let (rd, rs2) = (o.gpr(0)?, o.gpr(1)?);
            Instr::ScW {
                rd,
                rs1: o.amo_addr(2)?,
                rs2,
                aq,
                rl,
            }
        } else if let Some(op) = find(&FpOp::ALL, FpOp::mnemonic, m) {
            // `fsqrt.s` reads one source; its rs2 field is zero.
            let unary = op == FpOp::Sqrt;
            o.need(if unary { 2 } else { 3 })?;
            Instr::FpOp {
                op,
                rd: o.fpr(0)?,
                rs1: o.fpr(1)?,
                rs2: if unary { Fpr::Ft0 } else { o.fpr(2)? },
            }
        } else if let Some(op) = find(&FmaOp::ALL, FmaOp::mnemonic, m) {
            o.need(4)?;
            Instr::Fma {
                op,
                rd: o.fpr(0)?,
                rs1: o.fpr(1)?,
                rs2: o.fpr(2)?,
                rs3: o.fpr(3)?,
            }
        } else if let Some(op) = find(&FpCmp::ALL, FpCmp::mnemonic, m) {
            o.need(3)?;
            Instr::FpCmp {
                op,
                rd: o.gpr(0)?,
                rs1: o.fpr(1)?,
                rs2: o.fpr(2)?,
            }
        } else {
            return self.other(&o);
        };
        self.a.emit(instr);
        Ok(())
    }

    /// Instructions outside the op tables, and the pseudo-instructions.
    fn other(&mut self, o: &Operands<'_>) -> Result<(), ParseError> {
        let (m, ops, line) = (o.m, o.ops, o.line);
        let a = &mut self.a;
        if let Some(emit) = form(&NULLARY, m) {
            o.need(0)?;
            emit(a);
            return Ok(());
        }
        if let Some(emit) = form(&GPR_FPR, m) {
            o.need(2)?;
            emit(a, o.gpr(0)?, o.fpr(1)?);
            return Ok(());
        }
        if let Some(emit) = form(&FPR_GPR, m) {
            o.need(2)?;
            emit(a, o.fpr(0)?, o.gpr(1)?);
            return Ok(());
        }
        if let Some(emit) = form(&FPR_FPR, m) {
            o.need(2)?;
            emit(a, o.fpr(0)?, o.fpr(1)?);
            return Ok(());
        }
        if let Some(emit) = form(&GPR_GPR, m) {
            o.need(2)?;
            emit(a, o.gpr(0)?, o.gpr(1)?);
            return Ok(());
        }
        match m {
            "lui" => {
                o.need(2)?;
                a.lui(o.gpr(0)?, upper20(o.imm(1)?, line)?);
            }
            "auipc" => {
                o.need(2)?;
                a.auipc(o.gpr(0)?, upper20(o.imm(1)?, line)?);
            }
            "flw" => {
                o.need(2)?;
                let rd = o.fpr(0)?;
                let (off, base) = o.mem(1)?;
                a.flw(rd, base, off);
            }
            "fsw" => {
                o.need(2)?;
                let rs2 = o.fpr(0)?;
                let (off, base) = o.mem(1)?;
                a.fsw(rs2, base, off);
            }
            "jalr" => {
                o.need(2)?;
                let rd = o.gpr(0)?;
                let (off, base) = o.mem(1)?;
                a.jalr(rd, base, off);
            }
            "li" => {
                o.need(2)?;
                a.li(o.gpr(0)?, o.imm(1)?);
            }
            // `bgt`/`ble` swap their sources; `beqz`/`bnez` compare with zero.
            "bgt" => {
                o.need(3)?;
                self.branch(BranchOp::Lt, o.gpr(1)?, o.gpr(0)?, ops[2], line);
            }
            "ble" => {
                o.need(3)?;
                self.branch(BranchOp::Ge, o.gpr(1)?, o.gpr(0)?, ops[2], line);
            }
            "beqz" => {
                o.need(2)?;
                self.branch(BranchOp::Eq, o.gpr(0)?, Gpr::Zero, ops[1], line);
            }
            "bnez" => {
                o.need(2)?;
                self.branch(BranchOp::Ne, o.gpr(0)?, Gpr::Zero, ops[1], line);
            }
            "j" => {
                o.need(1)?;
                self.jump(Gpr::Zero, ops[0], line);
            }
            "jal" => match ops.len() {
                1 => self.jump(Gpr::Ra, ops[0], line),
                2 => self.jump(o.gpr(0)?, ops[1], line),
                _ => return Err(err(line, "`jal` expects 1 or 2 operands")),
            },
            "call" => {
                o.need(1)?;
                let t = self.label(ops[0]);
                self.a.call(t);
            }
            other => return Err(err(line, format!("unknown mnemonic `{other}`"))),
        }
        Ok(())
    }

    /// Branch targets are labels or (as disassembly prints them) numeric
    /// byte offsets relative to the branch itself.
    fn branch(&mut self, op: BranchOp, rs1: Gpr, rs2: Gpr, target: &str, line: usize) {
        if let Ok(offset) = imm(target, line) {
            self.a.emit(Instr::Branch {
                op,
                rs1,
                rs2,
                offset,
            });
        } else {
            let target = self.label(target);
            self.a.branch(op, rs1, rs2, target);
        }
    }

    /// A jump target, read as [`Parser::branch`] reads one.
    fn jump(&mut self, rd: Gpr, target: &str, line: usize) {
        if let Ok(offset) = imm(target, line) {
            self.a.emit(Instr::Jal { rd, offset });
        } else {
            let target = self.label(target);
            self.a.jal(rd, target);
        }
    }
}

/// Splits the `.aq`, `.rl` or `.aqrl` suffix that orders an AMO, `lr.w` or
/// `sc.w` off its mnemonic.
fn ordering(m: &str) -> (&str, bool, bool) {
    [
        (".aqrl", true, true),
        (".aq", true, false),
        (".rl", false, true),
    ]
    .into_iter()
    .find_map(|(sfx, aq, rl)| Some((m.strip_suffix(sfx)?, aq, rl)))
    .unwrap_or((m, false, false))
}

/// Forms outside the op tables that share an operand shape, by mnemonic,
/// with the builder method that emits each.
type Emit<A, B> = fn(&mut Assembler, A, B) -> &mut Assembler;
type Emit0 = fn(&mut Assembler) -> &mut Assembler;
const NULLARY: [(&str, Emit0); 5] = [
    ("fence", Assembler::fence),
    ("ecall", Assembler::ecall),
    ("ebreak", Assembler::ebreak),
    ("nop", Assembler::nop),
    ("ret", Assembler::ret),
];
const GPR_FPR: [(&str, Emit<Gpr, Fpr>); 3] = [
    ("fcvt.w.s", Assembler::fcvt_w_s),
    ("fcvt.wu.s", Assembler::fcvt_wu_s),
    ("fmv.x.w", Assembler::fmv_x_w),
];
const FPR_GPR: [(&str, Emit<Fpr, Gpr>); 3] = [
    ("fcvt.s.w", Assembler::fcvt_s_w),
    ("fcvt.s.wu", Assembler::fcvt_s_wu),
    ("fmv.w.x", Assembler::fmv_w_x),
];
const FPR_FPR: [(&str, Emit<Fpr, Fpr>); 3] = [
    ("fmv.s", Assembler::fmv),
    ("fneg.s", Assembler::fneg),
    ("fabs.s", Assembler::fabs),
];
const GPR_GPR: [(&str, Emit<Gpr, Gpr>); 5] = [
    ("mv", Assembler::mv),
    ("not", Assembler::not),
    ("neg", Assembler::neg),
    ("seqz", Assembler::seqz),
    ("snez", Assembler::snez),
];

/// The builder method of the form in `rows` spelled `m`.
fn form<F: Copy>(rows: &[(&str, F)], m: &str) -> Option<F> {
    rows.iter().find(|row| row.0 == m).map(|row| row.1)
}

/// The first op in `all` spelled `m`.
fn find<T: Copy>(all: &[T], mnemonic: fn(T) -> &'static str, m: &str) -> Option<T> {
    all.iter().copied().find(|&op| mnemonic(op) == m)
}

/// One line's mnemonic and operands.
struct Operands<'a> {
    m: &'a str,
    ops: &'a [&'a str],
    line: usize,
}

impl Operands<'_> {
    fn need(&self, want: usize) -> Result<(), ParseError> {
        let n = self.ops.len();
        if n == want {
            Ok(())
        } else {
            let m = self.m;
            Err(err(
                self.line,
                format!("`{m}` expects {want} operands, got {n}"),
            ))
        }
    }

    fn gpr(&self, i: usize) -> Result<Gpr, ParseError> {
        gpr(self.ops[i], self.line)
    }

    fn fpr(&self, i: usize) -> Result<Fpr, ParseError> {
        fpr(self.ops[i], self.line)
    }

    fn imm(&self, i: usize) -> Result<i32, ParseError> {
        imm(self.ops[i], self.line)
    }

    fn mem(&self, i: usize) -> Result<(i32, Gpr), ParseError> {
        mem_operand(self.ops[i], self.line)
    }

    /// The `(rs1)` address of an AMO, `lr.w` or `sc.w`.
    fn amo_addr(&self, i: usize) -> Result<Gpr, ParseError> {
        match self.mem(i)? {
            (0, base) => Ok(base),
            _ => Err(err(self.line, "AMO address must have zero offset")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_loop_with_labels() {
        let p = parse(
            "
            li t0, 5
        top:
            addi t0, t0, -1
            bnez t0, top
            ecall
        ",
        )
        .unwrap();
        assert_eq!(p.len(), 4);
        assert!(p.disassemble().contains("bne t0, zero, -4"));
    }

    #[test]
    fn parses_memory_operands() {
        let p = parse("lw a0, 8(sp)\nsw a0, -4(s0)\nflw fa0, 0(a1)\necall").unwrap();
        let d = p.disassemble();
        assert!(d.contains("lw a0, 8(sp)"));
        assert!(d.contains("sw a0, -4(s0)"));
        assert!(d.contains("flw fa0, 0(a1)"));
    }

    #[test]
    fn parses_amo_and_fp() {
        let p = parse("amoadd.w a0, a1, (a2)\nfmadd.s fa0, fa1, fa2, fa3\nfsqrt.s fa4, fa5\necall")
            .unwrap();
        let d = p.disassemble();
        assert!(d.contains("amoadd.w a0, a1, (a2)"));
        assert!(d.contains("fmadd.s fa0, fa1, fa2, fa3"));
    }

    #[test]
    fn comments_and_blank_lines_are_ignored() {
        let p = parse("# header\n\n  nop # trailing\n  // c++ style\necall").unwrap();
        assert_eq!(p.len(), 2);
    }

    #[test]
    fn text_and_builder_agree() {
        use hb_isa::Gpr::*;
        let text = parse("li t0, 1000\nadd t1, t0, t0\nslli t1, t1, 3\necall").unwrap();
        let mut a = Assembler::new();
        a.li(T0, 1000).add(T1, T0, T0).slli(T1, T1, 3).ecall();
        let built = a.assemble(0).unwrap();
        assert_eq!(text.words(), built.words());
    }

    #[test]
    fn unknown_mnemonic_reports_line() {
        let e = parse("nop\nfrobnicate a0\n").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.message.contains("frobnicate"));
    }

    #[test]
    fn bad_register_reports_line() {
        let e = parse("add q0, a1, a2").unwrap_err();
        assert_eq!(e.line, 1);
        assert!(e.message.contains("q0"));
    }

    #[test]
    fn unresolved_label_fails() {
        assert!(parse("j nowhere").is_err());
    }

    #[test]
    fn hex_immediates() {
        let p = parse("li a0, 0x1234\nandi a0, a0, 0xff\necall").unwrap();
        assert!(p.disassemble().contains("andi a0, a0, 255"));
    }

    #[test]
    fn multiple_labels_one_line() {
        let p = parse("a: b: nop\nj a\nj b\necall").unwrap();
        assert_eq!(p.len(), 4);
    }
}
