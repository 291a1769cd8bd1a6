//! The program text, pinned to literal strings.
//!
//! `wo-serve` keys its verdict cache and journal on the canonical program
//! text, and [`litmus::text`] is the one writer of that text. These
//! strings were printed by the `fmt`-based `Display` impls the writer
//! replaced; the writer must reproduce them byte for byte, including at
//! the extremes no corpus program reaches: every instruction variant at
//! indexes that change the column width, the largest register, location
//! and constant, branch targets past 999, thread headers past `P9`, and
//! an `init:` line.

use litmus::{text, Instr, Operand, Program, Reg, Thread};
use memory_model::Loc;

/// Every variant, with the largest register, location and constant.
fn extreme_instrs() -> Vec<Instr> {
    let (loc, big, reg) = (Loc(u32::MAX), Operand::Const(u64::MAX), Operand::Reg(Reg(255)));
    vec![
        Instr::Read { loc, dst: Reg(255) },
        Instr::Write { loc, src: big },
        Instr::SyncRead { loc, dst: Reg(255) },
        Instr::SyncWrite { loc, src: reg },
        Instr::TestAndSet { loc, dst: Reg(255) },
        Instr::FetchAdd { loc, dst: Reg(255), add: big },
        Instr::Move { dst: Reg(255), src: big },
        Instr::Add { dst: Reg(255), a: reg, b: big },
        Instr::BranchEq { a: reg, b: big, target: 1000 },
        Instr::BranchNe { a: big, b: reg, target: 65_536 },
        Instr::Jump { target: 1000 },
        Instr::Fence,
    ]
}

/// Indexes at which the right-aligned index column changes width.
const INDEXES: [usize; 7] = [0, 9, 10, 99, 100, 999, 1000];

/// `extreme_instrs()` at every index of `INDEXES`, index-major.
const INSTR_LINES: &str = concat!(
    "    0: r255 := R(m4294967295)\n",
    "    0: W(m4294967295) := 18446744073709551615\n",
    "    0: r255 := Test(m4294967295)\n",
    "    0: Set(m4294967295) := r255\n",
    "    0: r255 := TestAndSet(m4294967295)\n",
    "    0: r255 := FetchAdd(m4294967295, 18446744073709551615)\n",
    "    0: r255 := 18446744073709551615\n",
    "    0: r255 := r255 + 18446744073709551615\n",
    "    0: if r255 == 18446744073709551615 goto 1000\n",
    "    0: if 18446744073709551615 != r255 goto 65536\n",
    "    0: goto 1000\n",
    "    0: fence\n",
    "    9: r255 := R(m4294967295)\n",
    "    9: W(m4294967295) := 18446744073709551615\n",
    "    9: r255 := Test(m4294967295)\n",
    "    9: Set(m4294967295) := r255\n",
    "    9: r255 := TestAndSet(m4294967295)\n",
    "    9: r255 := FetchAdd(m4294967295, 18446744073709551615)\n",
    "    9: r255 := 18446744073709551615\n",
    "    9: r255 := r255 + 18446744073709551615\n",
    "    9: if r255 == 18446744073709551615 goto 1000\n",
    "    9: if 18446744073709551615 != r255 goto 65536\n",
    "    9: goto 1000\n",
    "    9: fence\n",
    "   10: r255 := R(m4294967295)\n",
    "   10: W(m4294967295) := 18446744073709551615\n",
    "   10: r255 := Test(m4294967295)\n",
    "   10: Set(m4294967295) := r255\n",
    "   10: r255 := TestAndSet(m4294967295)\n",
    "   10: r255 := FetchAdd(m4294967295, 18446744073709551615)\n",
    "   10: r255 := 18446744073709551615\n",
    "   10: r255 := r255 + 18446744073709551615\n",
    "   10: if r255 == 18446744073709551615 goto 1000\n",
    "   10: if 18446744073709551615 != r255 goto 65536\n",
    "   10: goto 1000\n",
    "   10: fence\n",
    "   99: r255 := R(m4294967295)\n",
    "   99: W(m4294967295) := 18446744073709551615\n",
    "   99: r255 := Test(m4294967295)\n",
    "   99: Set(m4294967295) := r255\n",
    "   99: r255 := TestAndSet(m4294967295)\n",
    "   99: r255 := FetchAdd(m4294967295, 18446744073709551615)\n",
    "   99: r255 := 18446744073709551615\n",
    "   99: r255 := r255 + 18446744073709551615\n",
    "   99: if r255 == 18446744073709551615 goto 1000\n",
    "   99: if 18446744073709551615 != r255 goto 65536\n",
    "   99: goto 1000\n",
    "   99: fence\n",
    "  100: r255 := R(m4294967295)\n",
    "  100: W(m4294967295) := 18446744073709551615\n",
    "  100: r255 := Test(m4294967295)\n",
    "  100: Set(m4294967295) := r255\n",
    "  100: r255 := TestAndSet(m4294967295)\n",
    "  100: r255 := FetchAdd(m4294967295, 18446744073709551615)\n",
    "  100: r255 := 18446744073709551615\n",
    "  100: r255 := r255 + 18446744073709551615\n",
    "  100: if r255 == 18446744073709551615 goto 1000\n",
    "  100: if 18446744073709551615 != r255 goto 65536\n",
    "  100: goto 1000\n",
    "  100: fence\n",
    "  999: r255 := R(m4294967295)\n",
    "  999: W(m4294967295) := 18446744073709551615\n",
    "  999: r255 := Test(m4294967295)\n",
    "  999: Set(m4294967295) := r255\n",
    "  999: r255 := TestAndSet(m4294967295)\n",
    "  999: r255 := FetchAdd(m4294967295, 18446744073709551615)\n",
    "  999: r255 := 18446744073709551615\n",
    "  999: r255 := r255 + 18446744073709551615\n",
    "  999: if r255 == 18446744073709551615 goto 1000\n",
    "  999: if 18446744073709551615 != r255 goto 65536\n",
    "  999: goto 1000\n",
    "  999: fence\n",
    "  1000: r255 := R(m4294967295)\n",
    "  1000: W(m4294967295) := 18446744073709551615\n",
    "  1000: r255 := Test(m4294967295)\n",
    "  1000: Set(m4294967295) := r255\n",
    "  1000: r255 := TestAndSet(m4294967295)\n",
    "  1000: r255 := FetchAdd(m4294967295, 18446744073709551615)\n",
    "  1000: r255 := 18446744073709551615\n",
    "  1000: r255 := r255 + 18446744073709551615\n",
    "  1000: if r255 == 18446744073709551615 goto 1000\n",
    "  1000: if 18446744073709551615 != r255 goto 65536\n",
    "  1000: goto 1000\n",
    "  1000: fence\n",
);

/// Eleven small threads covering every variant (headers `P0:` to `P10:`)
/// and an `init:` line with the largest location and value.
const PROGRAM: &str = concat!(
    "init: m4294967295=18446744073709551615 m0=0 m10=9\n",
    "P0:\n",
    "    0: r0 := R(m0)\n",
    "P1:\n",
    "    0: W(m9) := 9\n",
    "P2:\n",
    "    0: r10 := Test(m10)\n",
    "P3:\n",
    "    0: Set(m99) := r15\n",
    "P4:\n",
    "    0: r9 := TestAndSet(m100)\n",
    "P5:\n",
    "    0: r1 := FetchAdd(m1, 10)\n",
    "P6:\n",
    "    0: r2 := r3\n",
    "P7:\n",
    "    0: r4 := 99 + r5\n",
    "P8:\n",
    "    0: if r6 == 100 goto 1\n",
    "    1: if 0 != r7 goto 0\n",
    "P9:\n",
    "    0: goto 1\n",
    "P10:\n",
    "    0: fence\n",
);

fn program() -> Program {
    Program::new(vec![
        Thread::new().read(Loc(0), Reg(0)),
        Thread::new().write(Loc(9), 9u64),
        Thread::new().sync_read(Loc(10), Reg(10)),
        Thread::new().sync_write(Loc(99), Reg(15)),
        Thread::new().test_and_set(Loc(100), Reg(9)),
        Thread::new().fetch_add(Loc(1), Reg(1), 10u64),
        Thread::new().mov(Reg(2), Reg(3)),
        Thread::new().add(Reg(4), 99u64, Reg(5)),
        Thread::new().branch_eq(Reg(6), 100u64, 1).branch_ne(0u64, Reg(7), 0),
        Thread::new().jump(1),
        Thread::new().fence(),
    ])
    .expect("valid program")
    .with_init(vec![(Loc(u32::MAX), u64::MAX), (Loc(0), 0), (Loc(10), 9)])
}

#[test]
fn instruction_lines_match_the_recorded_text() {
    let mut out = String::new();
    for i in INDEXES {
        for instr in &extreme_instrs() {
            text::instr_line(&mut out, i, instr);
        }
    }
    assert_eq!(out, INSTR_LINES);
    // `Instr`'s `Display` is the writer's instruction text.
    let mut lines = INSTR_LINES.lines();
    for i in INDEXES {
        for instr in &extreme_instrs() {
            let line = lines.next().expect("one line per instruction");
            assert_eq!(line, format!("  {i:>3}: {instr}"));
        }
    }
}

#[test]
fn program_text_matches_the_recorded_text() {
    assert_eq!(program().to_string(), PROGRAM);
    let reparsed = litmus::parse::parse_program(PROGRAM).expect("the text parses");
    assert_eq!(reparsed, program());
}

#[test]
fn a_long_thread_numbers_its_lines_as_the_writer_does() {
    let thread = (0..1001).fold(Thread::new(), |t, _| t.fence()).jump(1001);
    let p = Program::new(vec![thread]).expect("valid program");
    let shown = p.to_string();
    let mut lines = shown.lines();
    assert_eq!(lines.next(), Some("P0:"));
    for (i, line) in lines.enumerate() {
        let mut want = String::new();
        text::instr_line(&mut want, i, &p.threads()[0].instrs()[i]);
        assert_eq!(format!("{line}\n"), want);
    }
    assert!(shown.ends_with("\n  999: fence\n  1000: fence\n  1001: goto 1001\n"), "{shown}");
}
