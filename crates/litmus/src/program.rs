//! The program DSL.

use std::error::Error;
use std::fmt;

use memory_model::{Loc, SyncOp, Value};

/// Number of registers per thread.
pub const NUM_REGS: usize = 16;

/// A thread-local register.
///
/// # Examples
///
/// ```
/// use litmus::Reg;
/// let r = Reg(0);
/// assert_eq!(r.to_string(), "r0");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Reg(pub u8);

impl Reg {
    /// The register number as an index.
    #[must_use]
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

/// An instruction operand: an immediate or a register.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Operand {
    /// An immediate constant.
    Const(Value),
    /// The current value of a register.
    Reg(Reg),
}

impl Operand {
    /// The operand's value against the register file `regs`.
    #[inline]
    #[must_use]
    pub fn eval(self, regs: &[Value; NUM_REGS]) -> Value {
        match self {
            Operand::Const(v) => v,
            Operand::Reg(r) => regs[r.index()],
        }
    }
}

impl From<Value> for Operand {
    fn from(v: Value) -> Self {
        Operand::Const(v)
    }
}

impl From<Reg> for Operand {
    fn from(r: Reg) -> Self {
        Operand::Reg(r)
    }
}

impl fmt::Display for Operand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Operand::Const(v) => write!(f, "{v}"),
            Operand::Reg(r) => write!(f, "{r}"),
        }
    }
}

/// One instruction of the DSL.
///
/// Memory instructions map one-to-one onto the paper's operation kinds:
/// data reads/writes, and the synchronization primitives DRF0 admits —
/// hardware-recognizable operations on a single location.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Instr {
    /// Data read of `loc` into `dst`.
    Read {
        /// Location to read.
        loc: Loc,
        /// Destination register.
        dst: Reg,
    },
    /// Data write of `src` to `loc`.
    Write {
        /// Location to write.
        loc: Loc,
        /// Value source.
        src: Operand,
    },
    /// Read-only synchronization operation (the paper's `Test`).
    SyncRead {
        /// Location to read.
        loc: Loc,
        /// Destination register.
        dst: Reg,
    },
    /// Write-only synchronization operation (the paper's `Set`/`Unset`).
    SyncWrite {
        /// Location to write.
        loc: Loc,
        /// Value source.
        src: Operand,
    },
    /// Atomic `TestAndSet`: loads the old value of `loc` into `dst` and
    /// stores 1, as one indivisible synchronization operation.
    TestAndSet {
        /// Location operated on.
        loc: Loc,
        /// Receives the old value.
        dst: Reg,
    },
    /// Atomic fetch-and-add synchronization operation: loads the old value
    /// of `loc` into `dst` and stores `old + add` (wrapping), indivisibly.
    /// Used for barrier counts.
    FetchAdd {
        /// Location operated on.
        loc: Loc,
        /// Receives the old value.
        dst: Reg,
        /// Amount to add.
        add: Operand,
    },
    /// Register move: `dst := src`.
    Move {
        /// Destination register.
        dst: Reg,
        /// Value source.
        src: Operand,
    },
    /// Wrapping addition: `dst := a + b`.
    Add {
        /// Destination register.
        dst: Reg,
        /// Left addend.
        a: Operand,
        /// Right addend.
        b: Operand,
    },
    /// Branches to `target` when `a == b`.
    BranchEq {
        /// Left comparand.
        a: Operand,
        /// Right comparand.
        b: Operand,
        /// Instruction index to jump to (may equal the thread length,
        /// meaning halt).
        target: usize,
    },
    /// Branches to `target` when `a != b`.
    BranchNe {
        /// Left comparand.
        a: Operand,
        /// Right comparand.
        b: Operand,
        /// Instruction index to jump to.
        target: usize,
    },
    /// Unconditional jump to `target`.
    Jump {
        /// Instruction index to jump to.
        target: usize,
    },
    /// A memory fence in the RP3 style (Section 2.1): the processor waits
    /// until all its outstanding accesses are globally performed before
    /// proceeding. On the idealized architecture (and to the memory
    /// system) it is a no-op; it is **not** a synchronization operation —
    /// it orders only its own processor and creates no happens-before
    /// edges, so it cannot make a racy program data-race-free.
    Fence,
}

impl fmt::Display for Instr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = String::new();
        crate::text::instr(&mut out, self);
        f.write_str(&out)
    }
}

impl Instr {
    /// Whether executing this instruction performs a memory access.
    #[must_use]
    pub fn is_memory_op(&self) -> bool {
        matches!(
            self,
            Instr::Read { .. }
                | Instr::Write { .. }
                | Instr::SyncRead { .. }
                | Instr::SyncWrite { .. }
                | Instr::TestAndSet { .. }
                | Instr::FetchAdd { .. }
        )
    }

    /// The memory location this instruction accesses, if it is a memory
    /// operation. Locations are static — the DSL has no indirect
    /// addressing — which is what lets [`Program::locations`] enumerate
    /// every cell a program can ever touch.
    #[must_use]
    pub fn memory_loc(&self) -> Option<Loc> {
        match self {
            Instr::Read { loc, .. }
            | Instr::Write { loc, .. }
            | Instr::SyncRead { loc, .. }
            | Instr::SyncWrite { loc, .. }
            | Instr::TestAndSet { loc, .. }
            | Instr::FetchAdd { loc, .. } => Some(*loc),
            _ => None,
        }
    }

    /// The instruction index a branch or jump may continue at.
    #[must_use]
    pub fn branch_target(&self) -> Option<usize> {
        match self {
            Instr::BranchEq { target, .. }
            | Instr::BranchNe { target, .. }
            | Instr::Jump { target } => Some(*target),
            _ => None,
        }
    }

    /// Executes a local instruction — a move, an addition, a branch, a
    /// jump or a fence — at `pc` against the register file `regs`, and
    /// returns the next pc. A fence changes no register: ordering is the
    /// memory system's business, so a simulator that drains its
    /// outstanding accesses does so before it calls this.
    ///
    /// # Panics
    ///
    /// Panics on a memory instruction, which only the caller's memory
    /// can perform.
    #[inline]
    #[must_use]
    pub fn step_local(&self, pc: usize, regs: &mut [Value; NUM_REGS]) -> usize {
        match *self {
            Instr::Move { dst, src } => {
                regs[dst.index()] = src.eval(regs);
                pc + 1
            }
            Instr::Add { dst, a, b } => {
                regs[dst.index()] = a.eval(regs).wrapping_add(b.eval(regs));
                pc + 1
            }
            Instr::BranchEq { a, b, target } => {
                if a.eval(regs) == b.eval(regs) { target } else { pc + 1 }
            }
            Instr::BranchNe { a, b, target } => {
                if a.eval(regs) != b.eval(regs) { target } else { pc + 1 }
            }
            Instr::Jump { target } => target,
            Instr::Fence => pc + 1,
            _ => panic!("a memory instruction is not a local step"),
        }
    }

    /// A synchronization instruction as the primitive it performs: its
    /// location, the [`SyncOp`] with its operand read from `regs`, and the
    /// register that receives the value the primitive returns (`None` for
    /// a write-only `Set`). `None` for every other instruction.
    #[inline]
    #[must_use]
    pub fn sync_op(&self, regs: &[Value; NUM_REGS]) -> Option<(Loc, SyncOp, Option<Reg>)> {
        Some(match *self {
            Instr::SyncRead { loc, dst } => (loc, SyncOp::Test, Some(dst)),
            Instr::SyncWrite { loc, src } => (loc, SyncOp::SetTo(src.eval(regs)), None),
            Instr::TestAndSet { loc, dst } => (loc, SyncOp::TestAndSet, Some(dst)),
            Instr::FetchAdd { loc, dst, add } => {
                (loc, SyncOp::FetchAdd(add.eval(regs)), Some(dst))
            }
            _ => return None,
        })
    }

    /// The registers the instruction names: the destination first, then
    /// the operands in order (`a` before `b`).
    fn regs(&self) -> impl Iterator<Item = Reg> {
        let reg = |o: Operand| match o {
            Operand::Reg(r) => Some(r),
            Operand::Const(_) => None,
        };
        let named = match *self {
            Instr::Read { dst, .. } | Instr::SyncRead { dst, .. } | Instr::TestAndSet { dst, .. } => {
                [Some(dst), None, None]
            }
            Instr::Write { src, .. } | Instr::SyncWrite { src, .. } => [reg(src), None, None],
            Instr::FetchAdd { dst, add, .. } => [Some(dst), reg(add), None],
            Instr::Move { dst, src } => [Some(dst), reg(src), None],
            Instr::Add { dst, a, b } => [Some(dst), reg(a), reg(b)],
            Instr::BranchEq { a, b, .. } | Instr::BranchNe { a, b, .. } => [reg(a), reg(b), None],
            Instr::Jump { .. } | Instr::Fence => [None; 3],
        };
        named.into_iter().flatten()
    }
}

/// One thread of a program: a straight sequence of instructions, entered at
/// index 0, halting when the program counter reaches the end.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Thread {
    instrs: Vec<Instr>,
}

impl Thread {
    /// Creates an empty thread; chain [`Thread::push`] or use the
    /// convenience builders below.
    #[must_use]
    pub fn new() -> Self {
        Thread::default()
    }

    /// Appends an instruction, returning `self` for chaining.
    #[must_use]
    pub fn push(mut self, instr: Instr) -> Self {
        self.instrs.push(instr);
        self
    }

    /// Appends a data read of `loc` into `dst`.
    #[must_use]
    pub fn read(self, loc: Loc, dst: Reg) -> Self {
        self.push(Instr::Read { loc, dst })
    }

    /// Appends a data write of `src` to `loc`.
    #[must_use]
    pub fn write(self, loc: Loc, src: impl Into<Operand>) -> Self {
        self.push(Instr::Write { loc, src: src.into() })
    }

    /// Appends a `Test` (read-only sync op) of `loc` into `dst`.
    #[must_use]
    pub fn sync_read(self, loc: Loc, dst: Reg) -> Self {
        self.push(Instr::SyncRead { loc, dst })
    }

    /// Appends a `Set`/`Unset` (write-only sync op) of `src` to `loc`.
    #[must_use]
    pub fn sync_write(self, loc: Loc, src: impl Into<Operand>) -> Self {
        self.push(Instr::SyncWrite { loc, src: src.into() })
    }

    /// Appends a `TestAndSet` of `loc` into `dst`.
    #[must_use]
    pub fn test_and_set(self, loc: Loc, dst: Reg) -> Self {
        self.push(Instr::TestAndSet { loc, dst })
    }

    /// Appends a fetch-and-add of `add` to `loc`, old value into `dst`.
    #[must_use]
    pub fn fetch_add(self, loc: Loc, dst: Reg, add: impl Into<Operand>) -> Self {
        self.push(Instr::FetchAdd { loc, dst, add: add.into() })
    }

    /// Appends `dst := src`.
    #[must_use]
    pub fn mov(self, dst: Reg, src: impl Into<Operand>) -> Self {
        self.push(Instr::Move { dst, src: src.into() })
    }

    /// Appends `dst := a + b` (wrapping).
    #[must_use]
    pub fn add(self, dst: Reg, a: impl Into<Operand>, b: impl Into<Operand>) -> Self {
        self.push(Instr::Add { dst, a: a.into(), b: b.into() })
    }

    /// Appends a branch to `target` when `a == b`.
    #[must_use]
    pub fn branch_eq(
        self,
        a: impl Into<Operand>,
        b: impl Into<Operand>,
        target: usize,
    ) -> Self {
        self.push(Instr::BranchEq { a: a.into(), b: b.into(), target })
    }

    /// Appends a branch to `target` when `a != b`.
    #[must_use]
    pub fn branch_ne(
        self,
        a: impl Into<Operand>,
        b: impl Into<Operand>,
        target: usize,
    ) -> Self {
        self.push(Instr::BranchNe { a: a.into(), b: b.into(), target })
    }

    /// Appends an unconditional jump to `target`.
    #[must_use]
    pub fn jump(self, target: usize) -> Self {
        self.push(Instr::Jump { target })
    }

    /// Appends a [`Instr::Fence`]: drain all outstanding accesses before
    /// proceeding.
    #[must_use]
    pub fn fence(self) -> Self {
        self.push(Instr::Fence)
    }

    /// The instructions in order.
    #[must_use]
    pub fn instrs(&self) -> &[Instr] {
        &self.instrs
    }

    /// Number of instructions.
    #[must_use]
    pub fn len(&self) -> usize {
        self.instrs.len()
    }

    /// Whether the thread has no instructions.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.instrs.is_empty()
    }

    /// The index of the *next* instruction to be appended — useful as a
    /// forward branch target while building.
    #[must_use]
    pub fn here(&self) -> usize {
        self.instrs.len()
    }
}

/// A multi-threaded litmus program.
///
/// Memory starts at all-zeros unless initial writes are supplied with
/// [`Program::with_init`] (the paper's hypothetical initializing writes).
///
/// # Examples
///
/// ```
/// use litmus::{Program, Thread, Reg};
/// use memory_model::Loc;
///
/// let (x, y) = (Loc(0), Loc(1));
/// let program = Program::new(vec![
///     Thread::new().write(x, 1).read(y, Reg(0)),
///     Thread::new().write(y, 1).read(x, Reg(0)),
/// ])?;
/// assert_eq!(program.num_threads(), 2);
/// # Ok::<(), litmus::ProgramError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Program {
    threads: Vec<Thread>,
    init: Vec<(Loc, Value)>,
}

impl Program {
    /// Creates and validates a program.
    ///
    /// # Errors
    ///
    /// Returns an error if a branch targets past the end of its thread or
    /// an instruction names a register outside `0..NUM_REGS`.
    pub fn new(threads: Vec<Thread>) -> Result<Self, ProgramError> {
        for (t, thread) in threads.iter().enumerate() {
            for (i, instr) in thread.instrs.iter().enumerate() {
                if let Some(target) = instr.branch_target() {
                    if target > thread.instrs.len() {
                        return Err(ProgramError::BadBranchTarget {
                            thread: t,
                            instr: i,
                            target,
                            len: thread.instrs.len(),
                        });
                    }
                }
                if let Some(reg) = instr.regs().find(|r| r.index() >= NUM_REGS) {
                    return Err(ProgramError::BadRegister { thread: t, instr: i, reg });
                }
            }
        }
        Ok(Program { threads, init: Vec::new() })
    }

    /// Adds initial memory values (applied before the program starts).
    #[must_use]
    pub fn with_init(mut self, init: Vec<(Loc, Value)>) -> Self {
        self.init = init;
        self
    }

    /// The threads.
    #[must_use]
    pub fn threads(&self) -> &[Thread] {
        &self.threads
    }

    /// Number of threads.
    #[must_use]
    pub fn num_threads(&self) -> usize {
        self.threads.len()
    }

    /// Initial memory cells.
    #[must_use]
    pub fn init(&self) -> &[(Loc, Value)] {
        &self.init
    }

    /// The initial memory as a [`memory_model::Memory`].
    #[must_use]
    pub fn initial_memory(&self) -> memory_model::Memory {
        self.init.iter().copied().collect()
    }

    /// Every memory location the program can touch, sorted and deduplicated.
    ///
    /// Addressing in the DSL is static (no computed locations), so the
    /// union of instruction operands and `init` cells is exhaustive. The
    /// explorer uses this as a dense index space for flat memory storage.
    #[must_use]
    pub fn locations(&self) -> Vec<Loc> {
        let mut locs: Vec<Loc> = self
            .threads
            .iter()
            .flat_map(|t| t.instrs.iter())
            .filter_map(Instr::memory_loc)
            .chain(self.init.iter().map(|&(loc, _)| loc))
            .collect();
        locs.sort_unstable();
        locs.dedup();
        locs
    }

    /// Groups threads by identical code: returns one class id per thread,
    /// where two threads share a class iff their instruction lists are
    /// equal. Classes are numbered by first occurrence, so the ids are
    /// stable under program identity (not under thread reordering).
    ///
    /// Threads in the same class are interchangeable up to renaming, which
    /// is what licenses the explorer's thread-permutation symmetry
    /// reduction.
    #[must_use]
    pub fn thread_identity_classes(&self) -> Vec<u32> {
        let mut reps: Vec<&Thread> = Vec::new();
        self.threads
            .iter()
            .map(|t| {
                if let Some(c) = reps.iter().position(|r| *r == t) {
                    c as u32
                } else {
                    reps.push(t);
                    (reps.len() - 1) as u32
                }
            })
            .collect()
    }

    /// An upper bound on straight-line memory operations (loop-free); used
    /// by exploration budgets. Counts each memory instruction once.
    #[must_use]
    pub fn static_memory_ops(&self) -> usize {
        self.threads
            .iter()
            .flat_map(|t| t.instrs.iter())
            .filter(|i| i.is_memory_op())
            .count()
    }
}

impl fmt::Display for Program {
    /// Renders the program in litmus-assembly style, one numbered column
    /// of instructions per thread, through [`crate::text`].
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = String::new();
        crate::text::init_line(&mut out, &self.init);
        for (t, thread) in self.threads.iter().enumerate() {
            crate::text::thread_header(&mut out, t);
            for (i, instr) in thread.instrs().iter().enumerate() {
                crate::text::instr_line(&mut out, i, instr);
            }
        }
        f.write_str(&out)
    }
}

/// A validation error for [`Program::new`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProgramError {
    /// A branch target lies beyond the end of its thread.
    BadBranchTarget {
        /// Thread index.
        thread: usize,
        /// Instruction index of the branch.
        instr: usize,
        /// The out-of-range target.
        target: usize,
        /// The thread's length.
        len: usize,
    },
    /// An instruction names a register outside the register file.
    BadRegister {
        /// Thread index.
        thread: usize,
        /// Instruction index.
        instr: usize,
        /// The offending register.
        reg: Reg,
    },
}

impl fmt::Display for ProgramError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProgramError::BadBranchTarget { thread, instr, target, len } => write!(
                f,
                "thread {thread} instruction {instr}: branch target {target} exceeds thread length {len}"
            ),
            ProgramError::BadRegister { thread, instr, reg } => write!(
                f,
                "thread {thread} instruction {instr}: register {reg} outside the register file"
            ),
        }
    }
}

impl Error for ProgramError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_chains() {
        let t = Thread::new()
            .write(Loc(0), 1)
            .read(Loc(1), Reg(0))
            .sync_write(Loc(2), Reg(0))
            .test_and_set(Loc(2), Reg(1));
        assert_eq!(t.len(), 4);
        assert!(t.instrs()[0].is_memory_op());
    }

    #[test]
    fn here_tracks_next_index() {
        let t = Thread::new().write(Loc(0), 1);
        assert_eq!(t.here(), 1);
    }

    #[test]
    fn validates_branch_targets() {
        let t = Thread::new().jump(5);
        let err = Program::new(vec![t]).unwrap_err();
        assert!(matches!(err, ProgramError::BadBranchTarget { target: 5, .. }));
    }

    #[test]
    fn branch_to_end_is_halt_and_valid() {
        let t = Thread::new().write(Loc(0), 1).jump(2).read(Loc(0), Reg(0));
        // jump target 3 == len is also fine:
        let t2 = Thread::new().jump(1);
        assert!(Program::new(vec![t, t2]).is_ok());
    }

    #[test]
    fn validates_registers() {
        let t = Thread::new().read(Loc(0), Reg(200));
        let err = Program::new(vec![t]).unwrap_err();
        assert!(matches!(err, ProgramError::BadRegister { reg: Reg(200), .. }));
    }

    #[test]
    fn first_bad_register_is_the_destination_then_a_then_b() {
        let bad = |instr: Instr| match Program::new(vec![Thread::new().push(instr)]) {
            Err(ProgramError::BadRegister { reg, .. }) => reg,
            other => panic!("{instr:?} gave {other:?}"),
        };
        let (r17, r18, r19) = (Reg(17), Reg(18), Reg(19));
        let add = Instr::Add { dst: r17, a: Operand::Reg(r18), b: Operand::Reg(r19) };
        assert_eq!(bad(add), r17);
        let add = Instr::Add { dst: Reg(0), a: Operand::Reg(r18), b: Operand::Reg(r19) };
        assert_eq!(bad(add), r18);
        let fetch_add = Instr::FetchAdd { loc: Loc(0), dst: r19, add: Operand::Reg(r17) };
        assert_eq!(bad(fetch_add), r19);
        let mov = Instr::Move { dst: r18, src: Operand::Reg(r17) };
        assert_eq!(bad(mov), r18);
        let branch = Instr::BranchNe { a: Operand::Reg(r19), b: Operand::Reg(r17), target: 0 };
        assert_eq!(bad(branch), r19);
    }

    #[test]
    fn init_and_counters() {
        let p = Program::new(vec![
            Thread::new().write(Loc(0), 1).mov(Reg(0), 5),
            Thread::new().read(Loc(0), Reg(0)),
        ])
        .unwrap()
        .with_init(vec![(Loc(0), 9)]);
        assert_eq!(p.num_threads(), 2);
        assert_eq!(p.static_memory_ops(), 2);
        assert_eq!(p.initial_memory().read(Loc(0)), 9);
        assert_eq!(p.init(), &[(Loc(0), 9)]);
    }

    #[test]
    fn program_display_is_litmus_style() {
        let p = Program::new(vec![
            Thread::new().write(Loc(0), 1).fence().read(Loc(1), Reg(0)),
            Thread::new().test_and_set(Loc(9), Reg(0)).branch_ne(Reg(0), 0u64, 0),
        ])
        .unwrap()
        .with_init(vec![(Loc(9), 1)]);
        let text = p.to_string();
        assert!(text.contains("init: m9=1"));
        assert!(text.contains("P0:"));
        assert!(text.contains("0: W(m0) := 1"));
        assert!(text.contains("1: fence"));
        assert!(text.contains("r0 := TestAndSet(m9)"));
        assert!(text.contains("if r0 != 0 goto 0"));
    }

    #[test]
    fn instr_display_covers_all_variants() {
        let samples: Vec<Instr> = vec![
            Instr::Read { loc: Loc(0), dst: Reg(1) },
            Instr::Write { loc: Loc(0), src: Operand::Const(5) },
            Instr::SyncRead { loc: Loc(0), dst: Reg(1) },
            Instr::SyncWrite { loc: Loc(0), src: Operand::Reg(Reg(2)) },
            Instr::TestAndSet { loc: Loc(0), dst: Reg(1) },
            Instr::FetchAdd { loc: Loc(0), dst: Reg(1), add: Operand::Const(2) },
            Instr::Move { dst: Reg(1), src: Operand::Const(3) },
            Instr::Add { dst: Reg(1), a: Operand::Reg(Reg(2)), b: Operand::Const(1) },
            Instr::BranchEq { a: Operand::Reg(Reg(0)), b: Operand::Const(0), target: 2 },
            Instr::BranchNe { a: Operand::Reg(Reg(0)), b: Operand::Const(0), target: 2 },
            Instr::Jump { target: 7 },
            Instr::Fence,
        ];
        for instr in samples {
            assert!(!instr.to_string().is_empty());
        }
    }

    #[test]
    fn operand_conversions_and_display() {
        let c: Operand = 5u64.into();
        let r: Operand = Reg(2).into();
        assert_eq!(c.to_string(), "5");
        assert_eq!(r.to_string(), "r2");
    }
}
