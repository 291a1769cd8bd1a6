//! The program text, written byte by byte.
//!
//! One writer produces every line of the litmus-assembly text that
//! [`Program`](crate::Program)'s `Display` prints and the parser reads
//! back: the `init:` line, the `P{t}:` thread headers and the numbered
//! instruction lines (`"  {i:>3}: {instr}\n"`). `Program`'s and
//! [`Instr`]'s `Display` call it, and so does `wo-serve`'s canonical
//! search, whose cache keys are this text, so the key format has one
//! implementation. Integers are formatted by hand rather than through
//! `fmt`, which the canonical search would otherwise pay for on every
//! line of every thread order it renders. The text is ASCII.
//!
//! # Examples
//!
//! ```
//! use litmus::{text, Instr, Reg};
//! use memory_model::Loc;
//!
//! let mut out = String::new();
//! text::thread_header(&mut out, 0);
//! text::instr_line(&mut out, 0, &Instr::Read { loc: Loc(7), dst: Reg(1) });
//! assert_eq!(out, "P0:\n    0: r1 := R(m7)\n");
//! ```

use memory_model::{Loc, Value};

use crate::{Instr, Operand, Reg};

/// Appends the `init:` line for `cells` (`init: m3=1 m9=2`), or nothing
/// when there are none: an init-free program's text has no init line.
pub fn init_line(out: &mut String, cells: &[(Loc, Value)]) {
    if cells.is_empty() {
        return;
    }
    out.push_str("init:");
    for &(loc, v) in cells {
        out.push(' ');
        push_loc(out, loc);
        out.push('=');
        push_uint(out, v);
    }
    out.push('\n');
}

/// Appends the header line of thread `thread` (`P2:`).
pub fn thread_header(out: &mut String, thread: usize) {
    out.push('P');
    push_uint(out, thread as u64);
    out.push_str(":\n");
}

/// Appends instruction `index` of a thread as one line: two spaces, the
/// index right-aligned to three columns, `": "`, the instruction and a
/// newline (`"   12: fence\n"`).
pub fn instr_line(out: &mut String, index: usize, instr: &Instr) {
    out.push_str(match index {
        0..=9 => "    ",
        10..=99 => "   ",
        _ => "  ",
    });
    push_uint(out, index as u64);
    out.push_str(": ");
    self::instr(out, instr);
    out.push('\n');
}

/// Appends `instr` alone (`r0 := TestAndSet(m9)`), as
/// [`Instr`]'s `Display` prints it.
pub(crate) fn instr(out: &mut String, instr: &Instr) {
    match *instr {
        Instr::Read { loc, dst } => load(out, dst, "R(", loc),
        Instr::Write { loc, src } => store(out, "W(", loc, src),
        Instr::SyncRead { loc, dst } => load(out, dst, "Test(", loc),
        Instr::SyncWrite { loc, src } => store(out, "Set(", loc, src),
        Instr::TestAndSet { loc, dst } => load(out, dst, "TestAndSet(", loc),
        Instr::FetchAdd { loc, dst, add } => {
            push_reg(out, dst);
            out.push_str(" := FetchAdd(");
            push_loc(out, loc);
            out.push_str(", ");
            push_operand(out, add);
            out.push(')');
        }
        Instr::Move { dst, src } => {
            push_reg(out, dst);
            out.push_str(" := ");
            push_operand(out, src);
        }
        Instr::Add { dst, a, b } => {
            push_reg(out, dst);
            out.push_str(" := ");
            push_operand(out, a);
            out.push_str(" + ");
            push_operand(out, b);
        }
        Instr::BranchEq { a, b, target } => branch(out, a, " == ", b, target),
        Instr::BranchNe { a, b, target } => branch(out, a, " != ", b, target),
        Instr::Jump { target } => {
            out.push_str("goto ");
            push_uint(out, target as u64);
        }
        Instr::Fence => out.push_str("fence"),
    }
}

/// `dst := Op(loc)`, with `op` the opening `Op(`.
fn load(out: &mut String, dst: Reg, op: &str, loc: Loc) {
    push_reg(out, dst);
    out.push_str(" := ");
    out.push_str(op);
    push_loc(out, loc);
    out.push(')');
}

/// `Op(loc) := src`, with `op` the opening `Op(`.
fn store(out: &mut String, op: &str, loc: Loc, src: Operand) {
    out.push_str(op);
    push_loc(out, loc);
    out.push_str(") := ");
    push_operand(out, src);
}

fn branch(out: &mut String, a: Operand, cmp: &str, b: Operand, target: usize) {
    out.push_str("if ");
    push_operand(out, a);
    out.push_str(cmp);
    push_operand(out, b);
    out.push_str(" goto ");
    push_uint(out, target as u64);
}

fn push_operand(out: &mut String, o: Operand) {
    match o {
        Operand::Const(v) => push_uint(out, v),
        Operand::Reg(r) => push_reg(out, r),
    }
}

fn push_reg(out: &mut String, r: Reg) {
    out.push('r');
    push_uint(out, u64::from(r.0));
}

fn push_loc(out: &mut String, loc: Loc) {
    out.push('m');
    push_uint(out, u64::from(loc.0));
}

/// Appends the decimal digits of `v`, most significant first.
fn push_uint(out: &mut String, v: u64) {
    if v >= 10 {
        push_uint(out, v / 10);
    }
    out.push(char::from(b'0' + (v % 10) as u8));
}
