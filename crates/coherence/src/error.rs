//! Structured protocol errors.
//!
//! Every condition the protocol state machines used to `panic!` or
//! `unreachable!` on is represented here, so a perturbed (chaos-injected)
//! or corrupted message stream surfaces as an `Err` the harness can
//! report — never as a crashed process. The variants deliberately carry
//! the location and request involved: they end up verbatim in diagnostic
//! dumps.

use memory_model::{Loc, ProcId};

use crate::msg::RequestId;

/// Why a wire message failed to decode (see `crate::msg`'s byte codec).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeError {
    /// The buffer ended before the fixed-size frame was complete.
    Truncated {
        /// Bytes the frame needs.
        needed: usize,
        /// Bytes actually present.
        got: usize,
    },
    /// The leading tag byte names no known message kind.
    UnknownTag(u8),
    /// Well-formed frame followed by garbage.
    TrailingBytes {
        /// Number of unconsumed bytes.
        extra: usize,
    },
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::Truncated { needed, got } => {
                write!(f, "truncated frame: needed {needed} bytes, got {got}")
            }
            DecodeError::UnknownTag(tag) => write!(f, "unknown message tag {tag:#04x}"),
            DecodeError::TrailingBytes { extra } => {
                write!(f, "{extra} trailing bytes after frame")
            }
        }
    }
}

/// A protocol invariant violated by an incoming message.
///
/// Under fault injection these are *expected* outcomes of aggressive
/// perturbation; the simulator aborts the run with a structured
/// diagnostic instead of panicking.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProtocolError {
    /// A data reply arrived for a line with no pending request.
    UnsolicitedData {
        /// Line involved.
        loc: Loc,
        /// Request the reply claims to answer.
        req: RequestId,
    },
    /// A data reply answered a different request than the one pending.
    WrongRequest {
        /// Line involved.
        loc: Loc,
        /// Request the cache is waiting on.
        expected: RequestId,
        /// Request the reply carried.
        got: RequestId,
    },
    /// A shared-state data reply arrived for a pending *store* — stores
    /// always request exclusive state.
    SharedDataForStore {
        /// Line involved.
        loc: Loc,
        /// Pending store request.
        req: RequestId,
    },
    /// An exclusive-state data reply arrived for a pending *load* —
    /// loads always request shared state.
    ExclusiveDataForLoad {
        /// Line involved.
        loc: Loc,
        /// Pending load request.
        req: RequestId,
    },
    /// A global-perform acknowledgement matched no awaited write.
    UnexpectedGlobalAck {
        /// Line involved.
        loc: Loc,
        /// Request the ack claims to complete.
        req: RequestId,
    },
    /// An invalidation arrived at the line's exclusive owner — the
    /// directory recalls owners, it never invalidates them.
    InvalidateOfOwner {
        /// Line involved.
        loc: Loc,
        /// Invalidation round.
        req: RequestId,
    },
    /// An invalidation acknowledgement arrived with no invalidation round
    /// in flight for the line, or for the wrong round.
    StrayInvAck {
        /// Line involved.
        loc: Loc,
        /// Round the ack claims to belong to.
        req: RequestId,
    },
    /// A recall reply (ack or nack) arrived with no recall in flight.
    StrayRecallReply {
        /// Line involved.
        loc: Loc,
    },
    /// A downgrade reply (ack or nack) arrived with no downgrade in
    /// flight.
    StrayDowngradeReply {
        /// Line involved.
        loc: Loc,
    },
    /// A write-back arrived from a cache that does not own the line.
    ForeignWriteBack {
        /// Line involved.
        loc: Loc,
        /// The cache that sent the write-back.
        from: ProcId,
    },
    /// The synchronous test fabric wedged: a processor's access stayed
    /// blocked after the wire drained.
    FabricBlocked {
        /// The blocked processor.
        proc: ProcId,
    },
    /// A wire message failed to decode.
    Malformed(DecodeError),
}

impl std::fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtocolError::UnsolicitedData { loc, req } => {
                write!(f, "unsolicited data reply for {loc} ({req})")
            }
            ProtocolError::WrongRequest { loc, expected, got } => {
                write!(f, "data reply for {loc} answers {got}, cache awaits {expected}")
            }
            ProtocolError::SharedDataForStore { loc, req } => {
                write!(f, "shared data reply for pending store on {loc} ({req})")
            }
            ProtocolError::ExclusiveDataForLoad { loc, req } => {
                write!(f, "exclusive data reply for pending load on {loc} ({req})")
            }
            ProtocolError::UnexpectedGlobalAck { loc, req } => {
                write!(f, "global ack for {loc} ({req}) matches no awaited write")
            }
            ProtocolError::InvalidateOfOwner { loc, req } => {
                write!(f, "invalidation of exclusive owner of {loc} ({req})")
            }
            ProtocolError::StrayInvAck { loc, req } => {
                write!(f, "invalidation ack for {loc} ({req}) with no round in flight")
            }
            ProtocolError::StrayRecallReply { loc } => {
                write!(f, "recall reply for {loc} with no recall in flight")
            }
            ProtocolError::StrayDowngradeReply { loc } => {
                write!(f, "downgrade reply for {loc} with no downgrade in flight")
            }
            ProtocolError::ForeignWriteBack { loc, from } => {
                write!(f, "write-back of {loc} from non-owner {from}")
            }
            ProtocolError::FabricBlocked { proc } => {
                write!(f, "synchronous fabric blocked at {proc}")
            }
            ProtocolError::Malformed(e) => write!(f, "malformed message: {e}"),
        }
    }
}

impl std::error::Error for ProtocolError {}
impl std::error::Error for DecodeError {}

impl From<DecodeError> for ProtocolError {
    fn from(e: DecodeError) -> Self {
        ProtocolError::Malformed(e)
    }
}
