//! Memory operations: data accesses and synchronization operations.

use std::fmt;

use crate::{Loc, OpId, ProcId, Value};

/// The kind of a memory operation.
///
/// Following the conventions of Section 5 of the paper, *reads* include
/// data reads, read-only synchronization operations (e.g. `Test`), and the
/// read component of read-write synchronization operations; *writes*
/// include data writes, write-only synchronization operations (e.g.
/// `Unset`), and the write component of read-write synchronization
/// operations (e.g. `TestAndSet`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpKind {
    /// An ordinary (data) read.
    DataRead,
    /// An ordinary (data) write.
    DataWrite,
    /// A read-only synchronization operation (the paper's `Test`).
    SyncRead,
    /// A write-only synchronization operation (the paper's `Unset`/`Set`).
    SyncWrite,
    /// A read-modify-write synchronization operation (the paper's
    /// `TestAndSet`); its read and write components execute atomically.
    SyncRmw,
}

impl OpKind {
    /// Whether the operation has a read component.
    #[must_use]
    pub const fn is_read(self) -> bool {
        matches!(self, OpKind::DataRead | OpKind::SyncRead | OpKind::SyncRmw)
    }

    /// Whether the operation has a write component.
    #[must_use]
    pub const fn is_write(self) -> bool {
        matches!(self, OpKind::DataWrite | OpKind::SyncWrite | OpKind::SyncRmw)
    }

    /// Whether the operation is a synchronization operation (recognizable
    /// by the hardware, per DRF0 restriction 1).
    #[must_use]
    pub const fn is_sync(self) -> bool {
        matches!(self, OpKind::SyncRead | OpKind::SyncWrite | OpKind::SyncRmw)
    }

    /// Whether the operation is an ordinary data access.
    #[must_use]
    pub const fn is_data(self) -> bool {
        !self.is_sync()
    }
}

/// A synchronization primitive: the paper's `Test`, `Set`/`Unset` and
/// `TestAndSet`, and a fetch-and-add generalization.
///
/// [`SyncOp::apply`] is the one rule for what a primitive does at its
/// cell; the idealized interpreter, the relational path walker, the
/// coherence cache, the snooping bus and the memory modules all use it.
///
/// # Examples
///
/// ```
/// use memory_model::{OpKind, SyncOp};
///
/// assert_eq!(SyncOp::Test.apply(4), (Some(4), 4));
/// assert_eq!(SyncOp::SetTo(5).apply(9), (None, 5));
/// assert_eq!(SyncOp::TestAndSet.apply(0), (Some(0), 1));
/// assert_eq!(SyncOp::FetchAdd(2).apply(u64::MAX), (Some(u64::MAX), 1));
/// assert_eq!(SyncOp::FetchAdd(2).kind(), OpKind::SyncRmw);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyncOp {
    /// Read-only `Test`.
    Test,
    /// Write-only `Set`/`Unset` of the given value.
    SetTo(Value),
    /// Atomic `TestAndSet`: read old, store 1.
    TestAndSet,
    /// Atomic fetch-and-add of the given amount (wrapping).
    FetchAdd(Value),
}

impl SyncOp {
    /// The kind of operation the primitive performs.
    #[must_use]
    pub const fn kind(self) -> OpKind {
        match self {
            SyncOp::Test => OpKind::SyncRead,
            SyncOp::SetTo(_) => OpKind::SyncWrite,
            SyncOp::TestAndSet | SyncOp::FetchAdd(_) => OpKind::SyncRmw,
        }
    }

    /// The primitive's effect on a cell holding `found`: the value it
    /// returns (`None` for the write-only `Set`) and the value it leaves
    /// in the cell.
    #[inline]
    #[must_use]
    pub const fn apply(self, found: Value) -> (Option<Value>, Value) {
        match self {
            SyncOp::Test => (Some(found), found),
            SyncOp::SetTo(v) => (None, v),
            SyncOp::TestAndSet => (Some(found), 1),
            SyncOp::FetchAdd(n) => (Some(found), found.wrapping_add(n)),
        }
    }

    /// The operation `proc` performs when the primitive meets `loc`
    /// holding `found`: [`SyncOp::apply`]'s values, the written one
    /// recorded only when the primitive writes.
    #[inline]
    #[must_use]
    pub fn perform(self, id: OpId, proc: ProcId, loc: Loc, found: Value) -> Operation {
        let (read_value, left) = self.apply(found);
        let kind = self.kind();
        Operation { id, proc, kind, loc, read_value, write_value: kind.is_write().then_some(left) }
    }
}

impl fmt::Display for OpKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            OpKind::DataRead => "R",
            OpKind::DataWrite => "W",
            OpKind::SyncRead => "S.r",
            OpKind::SyncWrite => "S.w",
            OpKind::SyncRmw => "S.rw",
        };
        f.write_str(s)
    }
}

/// One memory operation in an execution.
///
/// An operation accesses exactly one location (`loc`) — the paper's DRF0
/// restriction 2 — and records the value its read component returned
/// (`read_value`) and/or the value its write component stored
/// (`write_value`).
///
/// # Examples
///
/// ```
/// use memory_model::{Loc, OpId, Operation, ProcId};
///
/// let w = Operation::data_write(OpId(0), ProcId(0), Loc(1), 42);
/// let r = Operation::data_read(OpId(1), ProcId(1), Loc(1), 42);
/// assert!(w.conflicts_with(&r)); // same location, not both reads
///
/// let r2 = Operation::data_read(OpId(2), ProcId(2), Loc(1), 42);
/// assert!(!r.conflicts_with(&r2)); // two reads never conflict
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Operation {
    /// Unique identifier within the containing execution.
    pub id: OpId,
    /// The processor that initiated the operation.
    pub proc: ProcId,
    /// What kind of operation this is.
    pub kind: OpKind,
    /// The single memory location accessed.
    pub loc: Loc,
    /// The value returned by the read component, if any.
    pub read_value: Option<Value>,
    /// The value stored by the write component, if any.
    pub write_value: Option<Value>,
}

impl Operation {
    /// Creates a data read that returned `value`.
    #[must_use]
    pub fn data_read(id: OpId, proc: ProcId, loc: Loc, value: Value) -> Self {
        Operation {
            id,
            proc,
            kind: OpKind::DataRead,
            loc,
            read_value: Some(value),
            write_value: None,
        }
    }

    /// Creates a data write that stored `value`.
    #[must_use]
    pub fn data_write(id: OpId, proc: ProcId, loc: Loc, value: Value) -> Self {
        Operation {
            id,
            proc,
            kind: OpKind::DataWrite,
            loc,
            read_value: None,
            write_value: Some(value),
        }
    }

    /// Creates a read-only synchronization operation (`Test`) that returned
    /// `value`.
    #[must_use]
    pub fn sync_read(id: OpId, proc: ProcId, loc: Loc, value: Value) -> Self {
        Operation {
            id,
            proc,
            kind: OpKind::SyncRead,
            loc,
            read_value: Some(value),
            write_value: None,
        }
    }

    /// Creates a write-only synchronization operation (`Unset`/`Set`) that
    /// stored `value`.
    #[must_use]
    pub fn sync_write(id: OpId, proc: ProcId, loc: Loc, value: Value) -> Self {
        Operation {
            id,
            proc,
            kind: OpKind::SyncWrite,
            loc,
            read_value: None,
            write_value: Some(value),
        }
    }

    /// Creates a read-modify-write synchronization operation
    /// (`TestAndSet`) that read `read_value` and stored `write_value`
    /// atomically.
    #[must_use]
    pub fn sync_rmw(
        id: OpId,
        proc: ProcId,
        loc: Loc,
        read_value: Value,
        write_value: Value,
    ) -> Self {
        Operation {
            id,
            proc,
            kind: OpKind::SyncRmw,
            loc,
            read_value: Some(read_value),
            write_value: Some(write_value),
        }
    }

    /// Whether this operation *conflicts* with `other`: they access the
    /// same location and they are not both reads (the paper's Section 4
    /// definition).
    #[must_use]
    pub fn conflicts_with(&self, other: &Operation) -> bool {
        self.loc == other.loc && (self.kind.is_write() || other.kind.is_write())
    }

    /// Whether both operations are synchronization operations on the same
    /// location — the pairs related by synchronization order `so`.
    #[must_use]
    pub fn so_related(&self, other: &Operation) -> bool {
        self.loc == other.loc && self.kind.is_sync() && other.kind.is_sync()
    }
}

impl fmt::Display for Operation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {}({})", self.proc, self.kind, self.loc)?;
        if let Some(v) = self.read_value {
            write!(f, "->{v}")?;
        }
        if let Some(v) = self.write_value {
            write!(f, "={v}")?;
        }
        write!(f, " {}", self.id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ops() -> (Operation, Operation, Operation, Operation, Operation) {
        let l = Loc(0);
        (
            Operation::data_read(OpId(0), ProcId(0), l, 0),
            Operation::data_write(OpId(1), ProcId(1), l, 1),
            Operation::sync_read(OpId(2), ProcId(0), l, 0),
            Operation::sync_write(OpId(3), ProcId(1), l, 1),
            Operation::sync_rmw(OpId(4), ProcId(2), l, 0, 1),
        )
    }

    #[test]
    fn kind_predicates() {
        assert!(OpKind::DataRead.is_read() && !OpKind::DataRead.is_write());
        assert!(OpKind::DataWrite.is_write() && !OpKind::DataWrite.is_read());
        assert!(OpKind::SyncRmw.is_read() && OpKind::SyncRmw.is_write());
        assert!(OpKind::SyncRead.is_sync() && !OpKind::SyncRead.is_data());
        assert!(OpKind::DataRead.is_data());
    }

    #[test]
    fn conflicts_require_a_write() {
        let (r, w, sr, sw, rmw) = ops();
        assert!(!r.conflicts_with(&sr), "two reads never conflict");
        assert!(r.conflicts_with(&w));
        assert!(w.conflicts_with(&w.clone()));
        assert!(sr.conflicts_with(&sw));
        assert!(rmw.conflicts_with(&r));
    }

    #[test]
    fn conflicts_require_same_location() {
        let w0 = Operation::data_write(OpId(0), ProcId(0), Loc(0), 1);
        let w1 = Operation::data_write(OpId(1), ProcId(1), Loc(1), 1);
        assert!(!w0.conflicts_with(&w1));
    }

    #[test]
    fn so_related_only_for_sync_pairs() {
        let (r, _, sr, sw, rmw) = ops();
        assert!(sr.so_related(&sw));
        assert!(sw.so_related(&rmw));
        assert!(!r.so_related(&sr), "data ops are never so-related");
        let far = Operation::sync_write(OpId(9), ProcId(0), Loc(9), 1);
        assert!(!sw.so_related(&far), "different locations are not so-related");
    }

    #[test]
    fn constructors_fill_values() {
        let (r, w, _, _, rmw) = ops();
        assert_eq!(r.read_value, Some(0));
        assert_eq!(r.write_value, None);
        assert_eq!(w.write_value, Some(1));
        assert_eq!(rmw.read_value, Some(0));
        assert_eq!(rmw.write_value, Some(1));
    }

    #[test]
    fn display_is_informative() {
        let (_, w, _, _, rmw) = ops();
        assert_eq!(w.to_string(), "P1 W(m0)=1 #1");
        assert_eq!(rmw.to_string(), "P2 S.rw(m0)->0=1 #4");
    }
}
