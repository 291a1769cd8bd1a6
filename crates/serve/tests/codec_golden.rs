//! Golden bytes for the `wo-serve` text frames and journal records.
//!
//! One encoded sample of every frame kind — v1 requests and responses,
//! batch items and the batch frame, result frames, race blocks,
//! `resultref` frames, and journal records as read back from the log —
//! is folded into one FNV-1a digest. The constant was printed by this
//! test against the codec before its decoders moved onto the shared
//! text-frame grammar, so a change to any encoder's bytes fails here.
//! Every sample must also decode back to the value it was encoded from.

use std::fs;

use memory_model::{Loc, OpId, Operation, ProcId};
use wo_serve::cache::{CachedAnswer, KindGroup};
use wo_serve::canon::fnv1a;
use wo_serve::journal::{Journal, JournalRecord};
use wo_serve::protocol::{
    decode_batch_race_block, decode_batch_result, decode_batch_result_ref, encode_batch_frame,
    encode_batch_race_block, encode_batch_result, encode_batch_result_ref, split_batch_frame,
    BatchItem, CacheStatus, Engine, ErrorCode, QueryKind, RaceCoord, Request, Response, ResultRef,
    ServerStats, Verdict,
};

/// FNV-1a over every sample, each prefixed by its `u32` LE length.
const GOLDEN: u64 = 0xc09b_6d65_40b6_6b3c;

fn races() -> Vec<RaceCoord> {
    vec![
        RaceCoord { first_thread: 0, first_seq: 1, second_thread: 1, second_seq: 0, loc: 7 },
        RaceCoord {
            first_thread: 2,
            first_seq: 13,
            second_thread: 0,
            second_seq: 4,
            loc: 4_000_001,
        },
    ]
}

fn requests() -> Vec<Request> {
    let mut full = Request::new(QueryKind::Drf0, "P0:\n  0: W(m0) := 1\nP1:\n  0: r0 := R(m0)\n");
    full.deadline_ms = Some(250);
    full.max_total_steps = Some(200_000);
    full.max_ops_per_execution = Some(48);
    vec![full, Request::new(QueryKind::Ping, "")]
}

/// Every `Response` variant, paired with what it decodes to (an error
/// message's newline is folded to a space on the wire).
fn responses() -> Vec<(Response, Response)> {
    let same = |r: Response| (r.clone(), r);
    vec![
        same(Response::Verdict {
            verdict: Verdict::Racy,
            races: races(),
            steps: 421,
            cache: CacheStatus::Miss,
            engine: Some(Engine::Explorer),
        }),
        same(Response::Verdict {
            verdict: Verdict::Unknown { reason: "max_total_steps".into() },
            races: vec![],
            steps: 10_000,
            cache: CacheStatus::Coalesced,
            engine: None,
        }),
        same(Response::Sc {
            outcomes: 4,
            complete: true,
            reason: None,
            steps: 99,
            cache: CacheStatus::Hit,
            engine: Some(Engine::Axiom),
        }),
        same(Response::Sc {
            outcomes: 2,
            complete: false,
            reason: Some("deadline".into()),
            steps: 7,
            cache: CacheStatus::Miss,
            engine: Some(Engine::Explorer),
        }),
        same(Response::Pong),
        same(Response::Stats(ServerStats {
            served: 10,
            cache_hits: 4,
            coalesced: 2,
            explored: 4,
            overloaded: 1,
            degraded: 1,
            journal_replayed: 3,
            shedding: true,
            batch_depth: [1, 0, 2, 0, 0, 9],
            shard_hits: vec![3, 0, 1],
            shard_misses: vec![0, 2, 0],
            coalesced_in_batch: 5,
            shed_items: 2,
            computed_axiom: 1,
            computed_explorer: 3,
            route_fallbacks: 2,
        })),
        same(Response::Trace { report: "verdict: racy\nsegments: 2\nraces: 1\n".into() }),
        (
            Response::Error { code: ErrorCode::Parse, message: "line 1\nmessage=spoofed".into() },
            Response::Error { code: ErrorCode::Parse, message: "line 1 message=spoofed".into() },
        ),
    ]
}

fn items() -> Vec<BatchItem> {
    let [full, _] = <[Request; 2]>::try_from(requests()).expect("two requests");
    vec![
        BatchItem::Query { id: 0, request: full },
        BatchItem::TraceOpen { id: 1, release_writes: true },
        BatchItem::TraceOpen { id: 2, release_writes: false },
        BatchItem::TraceSeg {
            id: 3,
            procs: 3,
            ops: vec![
                Operation::data_write(OpId(1), ProcId(0), Loc(3), 7),
                Operation::data_read(OpId(2), ProcId(1), Loc(3), 7),
                Operation::sync_write(OpId(3), ProcId(0), Loc(9), 1),
                Operation::sync_read(OpId(4), ProcId(1), Loc(9), 1),
                Operation::sync_rmw(OpId(5), ProcId(2), Loc(9), 1, 2),
            ],
        },
        BatchItem::TraceFinish { id: u64::MAX },
    ]
}

fn result_ref() -> ResultRef {
    ResultRef {
        id: 12,
        block_id: 5,
        verdict: Verdict::Racy,
        steps: 31,
        cache: CacheStatus::Coalesced,
        engine: Some(Engine::Axiom),
        thread_unmap: vec![1, 0, 2],
        loc_unmap: vec![5, 3],
    }
}

fn journal_records() -> Vec<JournalRecord> {
    vec![
        JournalRecord {
            group: KindGroup::Explore,
            key: "P0:\n  0: W(m0) := 1\nP1:\n  0: r0 := R(m0)\n".into(),
            answer: CachedAnswer::Explore {
                racy: true,
                races: races(),
                steps: 42,
                definitive: true,
                reason: None,
                engine: Some(Engine::Explorer),
            },
        },
        JournalRecord {
            group: KindGroup::Sc,
            key: "P0:\n  0: W(m0) := 1\n".into(),
            answer: CachedAnswer::Sc {
                outcomes: 4,
                complete: true,
                reason: None,
                steps: 99,
                engine: Some(Engine::Axiom),
            },
        },
    ]
}

/// Appends each record to a fresh journal and returns the log's bytes
/// after each append, then checks that reopening replays the records.
fn journal_bytes(records: &[JournalRecord]) -> Vec<Vec<u8>> {
    let dir = std::env::temp_dir().join(format!("wo-serve-golden-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    let (mut journal, _, _) = Journal::open(&dir, 0).expect("open journal");
    let mut samples = Vec::new();
    let mut seen = 0;
    for record in records {
        journal.append(record).expect("append");
        let log = fs::read(journal.path()).expect("read journal");
        samples.push(log[seen..].to_vec());
        seen = log.len();
    }
    drop(journal);
    let (_j, replayed, report) = Journal::open(&dir, 0).expect("reopen journal");
    assert_eq!(replayed, records, "journal records replay to their values");
    assert_eq!(report.truncated_bytes, 0);
    fs::remove_dir_all(&dir).expect("remove journal dir");
    samples
}

#[test]
fn every_frame_kind_encodes_to_its_golden_bytes_and_decodes_back() {
    let mut samples: Vec<(String, Vec<u8>)> = Vec::new();
    for request in requests() {
        let bytes = request.encode();
        assert_eq!(Request::decode(&bytes).unwrap(), request);
        samples.push((format!("request {:?}", request.kind), bytes));
    }
    for (response, decoded) in responses() {
        let bytes = response.encode();
        assert_eq!(Response::decode(&bytes).unwrap(), decoded);
        samples.push((format!("response {response:?}"), bytes));
    }
    let encoded_items: Vec<Vec<u8>> = items().iter().map(BatchItem::encode).collect();
    for (item, bytes) in items().iter().zip(&encoded_items) {
        assert_eq!(&BatchItem::decode(bytes).unwrap(), item);
        samples.push((format!("item {}", item.id()), bytes.clone()));
    }
    let frame = encode_batch_frame(&encoded_items);
    let split = split_batch_frame(&frame, 16).unwrap();
    assert_eq!(split, encoded_items.iter().map(Vec::as_slice).collect::<Vec<_>>());
    samples.push(("batch frame".into(), frame));

    let inner = responses()[0].0.encode();
    let result = encode_batch_result(9, &inner);
    assert_eq!(decode_batch_result(&result).unwrap(), (9, &inner[..]));
    samples.push(("result frame".into(), result));
    let block = encode_batch_race_block(5, &races());
    assert_eq!(decode_batch_race_block(&block).unwrap(), (5, races()));
    samples.push(("race block".into(), block));
    let rref = encode_batch_result_ref(&result_ref());
    assert_eq!(decode_batch_result_ref(&rref).unwrap(), result_ref());
    samples.push(("resultref".into(), rref));

    for (record, bytes) in journal_records().iter().zip(journal_bytes(&journal_records())) {
        samples.push((format!("journal {}", record.group.as_str()), bytes));
    }

    let mut all = Vec::new();
    for (_, bytes) in &samples {
        all.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
        all.extend_from_slice(bytes);
    }
    let digest = fnv1a(&all);
    let dump: String =
        samples.iter().map(|(name, bytes)| format!("{name}: {}\n", bytes.escape_ascii())).collect();
    assert_eq!(digest, GOLDEN, "digest {digest:#018x} over:\n{dump}");
}
