//! The wo-serve/2 batch-mode contract, end to end against a live daemon:
//!
//! * **Byte equality** — a batched verdict stream must be byte-for-byte
//!   the stream a sequential per-request client would have received, at
//!   every batch size in {1, 7, 256} and every pool thread count in
//!   {1, 4}. The canonicalize/probe parallelism, per-key coalescing, and
//!   out-of-order result streaming are all invisible in the bytes.
//! * **Per-item admission** — caps are enforced on decoded items, not
//!   frames: one oversized item inside a batch is rejected with a tagged
//!   `TooLarge` result while its siblings are answered and the
//!   connection survives. Structural frame damage (including an item
//!   count over the server's limit) still drops the connection.
//! * **Trace ingest** — segments streamed through `trace_submit` produce
//!   a report byte-identical to a local [`wo_trace::StreamChecker`] fed
//!   the same segments, and ingest errors surface as structured results.
//! * **Stats** — the batch depth histogram, per-shard hit/miss vectors,
//!   coalesced-in-batch count, and per-item shed count are all live.

use std::net::TcpStream;
use std::time::Duration;

use litmus::explore::{explore_dpor, ExploreConfig};
use memory_model::SyncMode;
use wo_fuzz::{generate, GenConfig};
use wo_serve::cache::SHARD_COUNT;
use wo_serve::client::{BatchClient, ClientConfig, ClientError, ServeClient};
use wo_serve::protocol::{
    batch_depth_bucket, encode_batch_frame, read_frame, write_frame, BatchItem, ErrorCode,
    QueryKind, Request, Response,
};
use wo_serve::server::{Server, ServerConfig, ServerHandle};
use wo_trace::{CheckerConfig, StreamChecker};

fn server_with(pool_threads: usize) -> ServerHandle {
    let cfg = ServerConfig {
        explore: ExploreConfig {
            max_ops_per_execution: 48,
            max_executions: 64,
            ..ExploreConfig::default()
        },
        pool_threads,
        ..ServerConfig::default()
    };
    Server::spawn(cfg).expect("spawn server")
}

fn client_cfg(handle: &ServerHandle) -> ClientConfig {
    let mut cfg = ClientConfig::new(handle.addr().to_string());
    cfg.io_timeout = Duration::from_secs(60);
    cfg.hedge_after = None;
    cfg
}

/// A deterministic workload: fuzz-generated programs across all three
/// query kinds, with duplicates so batches exercise per-key coalescing.
/// `deadline_ms = 0` opts out of wall-clock deadlines — the byte-equality
/// contract only holds for deterministic answers.
fn workload() -> Vec<Request> {
    let gen_cfg = GenConfig::default();
    let kinds = [QueryKind::Drf0, QueryKind::Races, QueryKind::Sc];
    let mut requests = Vec::new();
    for seed in 0..18u64 {
        let program = generate(seed, &gen_cfg);
        let mut request = Request::new(kinds[seed as usize % 3], program.program.to_string());
        request.deadline_ms = Some(0);
        requests.push(request);
    }
    // Duplicates (same text, and same text under a different kind) make
    // coalescing and the leader/follower cache-status contract visible.
    for i in 0..9 {
        let mut dup = requests[i].clone();
        if i % 3 == 0 {
            dup.kind = kinds[(i + 1) % 3];
        }
        requests.push(dup);
    }
    requests
}

#[test]
fn batched_streams_are_byte_equal_to_v1_at_every_size_and_thread_count() {
    let requests = workload();

    // Reference stream: sequential per-request queries on a fresh server.
    let reference: Vec<Vec<u8>> = {
        let handle = server_with(1);
        let mut client = ServeClient::new(client_cfg(&handle));
        let bytes = requests
            .iter()
            .map(|r| match client.query(r) {
                Ok(response) => response.encode(),
                Err(e) => panic!("v1 reference query failed: {e}"),
            })
            .collect();
        handle.shutdown();
        bytes
    };

    for pool_threads in [1usize, 4] {
        for batch_size in [1usize, 7, 256] {
            let handle = server_with(pool_threads);
            let mut client = BatchClient::new(client_cfg(&handle));
            client.max_batch_items = batch_size;
            let responses = client.query_batch(&requests).expect("batched query");
            assert_eq!(responses.len(), reference.len());
            for (i, (response, expected)) in
                responses.iter().zip(&reference).enumerate()
            {
                assert_eq!(
                    &response.encode(),
                    expected,
                    "request {i} diverged at batch_size={batch_size} pool_threads={pool_threads}"
                );
            }
            assert_eq!(client.resubmitted_items(), 0, "no faults were injected");
            handle.shutdown();
        }
    }
}

#[test]
fn per_item_caps_reject_the_item_and_keep_the_connection() {
    let cfg = ServerConfig {
        max_frame_bytes: 512,
        ..ServerConfig::default()
    };
    let handle = Server::spawn(cfg).expect("spawn server");
    let stream = TcpStream::connect(handle.addr()).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();

    // One well-formed ping and one item past the per-item (v1 frame) cap,
    // in one batch frame that is itself well under the batch cap.
    let ping = BatchItem::Query { id: 1, request: Request::new(QueryKind::Ping, "") };
    let oversized = BatchItem::Query {
        id: 2,
        request: Request::new(QueryKind::Drf0, "x".repeat(4096)),
    };
    let frame = encode_batch_frame(&[ping.encode(), oversized.encode()]);
    write_frame(&mut &stream, &frame).unwrap();

    let mut saw_pong = false;
    let mut saw_too_large = false;
    for _ in 0..2 {
        let payload = read_frame(&mut &stream, 1 << 20).unwrap().expect("result frame");
        let (id, body) = wo_serve::protocol::decode_batch_result(&payload).unwrap();
        match Response::decode(body).unwrap() {
            Response::Pong => {
                assert_eq!(id, 1);
                saw_pong = true;
            }
            Response::Error { code: ErrorCode::TooLarge, .. } => {
                assert_eq!(id, 2);
                saw_too_large = true;
            }
            other => panic!("unexpected {other:?}"),
        }
    }
    assert!(saw_pong && saw_too_large);

    // The connection survived per-item rejection: it still answers.
    let again = encode_batch_frame(&[ping.encode()]);
    write_frame(&mut &stream, &again).unwrap();
    let payload = read_frame(&mut &stream, 1 << 20).unwrap().expect("result frame");
    let (_, body) = wo_serve::protocol::decode_batch_result(&payload).unwrap();
    assert_eq!(Response::decode(body).unwrap(), Response::Pong);

    // Shed accounting saw the rejected item.
    let mut stats_client = ServeClient::new(client_cfg(&handle));
    match stats_client.query(&Request::new(QueryKind::Stats, "")).unwrap() {
        Response::Stats(stats) => assert_eq!(stats.shed_items, 1),
        other => panic!("unexpected {other:?}"),
    }
    handle.shutdown();
}

#[test]
fn batches_over_the_item_limit_are_rejected_whole() {
    let cfg = ServerConfig { max_batch_items: 4, ..ServerConfig::default() };
    let handle = Server::spawn(cfg).expect("spawn server");
    let stream = TcpStream::connect(handle.addr()).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();

    let ping = BatchItem::Query { id: 0, request: Request::new(QueryKind::Ping, "") };
    let items: Vec<Vec<u8>> = (0..5).map(|_| ping.encode()).collect();
    write_frame(&mut &stream, &encode_batch_frame(&items)).unwrap();

    // Structural rejection: a bare v1 Malformed frame, then the server
    // drops the connection.
    let payload = read_frame(&mut &stream, 1 << 20).unwrap().expect("error frame");
    match Response::decode(&payload).unwrap() {
        Response::Error { code: ErrorCode::Malformed, message } => {
            assert!(message.contains("item"), "{message}");
        }
        other => panic!("unexpected {other:?}"),
    }
    assert!(read_frame(&mut &stream, 1 << 20).unwrap().is_none(), "connection dropped");
    handle.shutdown();
}

/// A client chunking above the daemon's item limit gets the bare
/// structural error as a permanent failure: no retry, and no silent
/// re-run of the chunk over wo-serve/1.
#[test]
fn oversized_chunks_fail_permanently_without_retry() {
    let cfg = ServerConfig { max_batch_items: 4, ..ServerConfig::default() };
    let handle = Server::spawn(cfg).expect("spawn server");
    let mut client = BatchClient::new(client_cfg(&handle));
    client.max_batch_items = 5;
    let requests = vec![Request::new(QueryKind::Ping, ""); 5];
    match client.query_batch(&requests) {
        Err(ClientError::Permanent { code: ErrorCode::Malformed, message }) => {
            assert!(message.contains("item"), "{message}");
        }
        other => panic!("unexpected {other:?}"),
    }
    assert_eq!(client.sent_items(), 5, "one frame went out");
    assert_eq!(client.resubmitted_items(), 0, "and was not retried");

    let mut stats_client = ServeClient::new(client_cfg(&handle));
    match stats_client.query(&Request::new(QueryKind::Stats, "")).unwrap() {
        Response::Stats(stats) => {
            assert_eq!(stats.served, 1, "only the structural error: {stats:?}");
        }
        other => panic!("unexpected {other:?}"),
    }
    handle.shutdown();
}

#[test]
fn trace_submit_reports_match_a_local_stream_checker() {
    let handle = server_with(1);
    let explore_cfg = ExploreConfig {
        max_ops_per_execution: 48,
        max_executions: 64,
        keep_executions: true,
        sync_mode: SyncMode::Drf0,
        ..ExploreConfig::default()
    };

    for seed in 0..6u64 {
        let program = generate(seed, &GenConfig::default());
        let report = explore_dpor(&program.program, &explore_cfg);
        let procs = u16::try_from(program.program.num_threads()).unwrap();

        let mut local = StreamChecker::new(CheckerConfig::default());
        let mut client = BatchClient::new(client_cfg(&handle));
        client.trace_open(false).expect("trace_open");
        for exec in &report.executions {
            local.begin_segment(procs);
            for op in exec.ops() {
                local.ingest(op).unwrap();
            }
            local.end_segment();
            client.trace_segment(procs, exec.ops()).expect("trace_segment");
        }
        let remote = client.trace_finish().expect("trace_finish");
        assert_eq!(remote, local.finish().canonical_text(), "seed {seed}");
    }
    handle.shutdown();
}

#[test]
fn trace_ingest_errors_surface_as_structured_results() {
    let handle = server_with(1);
    let mut client = BatchClient::new(client_cfg(&handle));

    // A segment before any open trace check is a protocol-state error.
    let op = memory_model::Operation::data_write(
        memory_model::OpId(1),
        memory_model::ProcId(0),
        memory_model::Loc(0),
        1,
    );
    client.trace_segment(1, &[op]).expect("send is unacknowledged");
    client.trace_open(false).expect_err("queued error surfaces on the next ack");

    // An op naming a processor outside the declared range poisons the
    // stream with a structured Parse error.
    let mut client = BatchClient::new(client_cfg(&handle));
    client.trace_open(false).expect("trace_open");
    let bad = memory_model::Operation::data_write(
        memory_model::OpId(1),
        memory_model::ProcId(7),
        memory_model::Loc(0),
        1,
    );
    client.trace_segment(2, &[bad]).expect("send is unacknowledged");
    match client.trace_finish() {
        Err(wo_serve::client::ClientError::Permanent { code: ErrorCode::Parse, message }) => {
            assert!(message.contains("processor"), "{message}");
        }
        other => panic!("unexpected {other:?}"),
    }
    handle.shutdown();
}

#[test]
fn a_segment_wider_than_the_checker_bound_is_refused_and_the_daemon_keeps_serving() {
    let handle = server_with(1);
    let mut client = BatchClient::new(client_cfg(&handle));
    client.trace_open(false).expect("trace_open");
    // One processor past the bound: the checker allocates no clocks for
    // it and refuses the first event.
    let wide = u16::try_from(wo_trace::checker::MAX_PROCS + 1).unwrap();
    let op = memory_model::Operation::data_write(
        memory_model::OpId(1),
        memory_model::ProcId(0),
        memory_model::Loc(0),
        1,
    );
    client.trace_segment(wide, &[op]).expect("send is unacknowledged");
    match client.trace_finish() {
        Err(ClientError::Permanent { code: ErrorCode::Parse, message }) => {
            assert!(message.contains("257 processors"), "{message}");
        }
        other => panic!("unexpected {other:?}"),
    }

    // The daemon still answers an ordinary drf0 query.
    let mut query = ServeClient::new(client_cfg(&handle));
    let handoff = "P0:\n  W(m0) := 1\n  Set(m1) := 1\nP1:\n  r0 := Test(m1)\n  r1 := R(m0)\n";
    match query.drf0(handoff).expect("a query after the refused segment") {
        Response::Verdict { .. } => {}
        other => panic!("unexpected {other:?}"),
    }
    handle.shutdown();
}

#[test]
fn stats_report_batch_depth_shards_and_coalescing() {
    let handle = server_with(2);
    let mut client = BatchClient::new(client_cfg(&handle));

    // 16 queries, 8 of which share one program: one exploration, 7
    // coalesced-in-batch followers.
    let mut requests = workload();
    requests.truncate(9);
    let mut shared = requests[0].clone();
    shared.kind = QueryKind::Drf0;
    for _ in 0..7 {
        requests.push(shared.clone());
    }
    client.query_batch(&requests).expect("batched query");

    let mut stats_client = ServeClient::new(client_cfg(&handle));
    let stats = match stats_client.query(&Request::new(QueryKind::Stats, "")).unwrap() {
        Response::Stats(stats) => stats,
        other => panic!("unexpected {other:?}"),
    };
    assert!(
        stats.batch_depth[batch_depth_bucket(requests.len())] >= 1,
        "batch depth histogram missed the batch: {:?}",
        stats.batch_depth
    );
    assert_eq!(stats.shard_hits.len(), SHARD_COUNT);
    assert_eq!(stats.shard_misses.len(), SHARD_COUNT);
    assert!(
        stats.shard_misses.iter().sum::<u64>() >= 1,
        "explorations must show up as shard misses"
    );
    assert!(stats.coalesced_in_batch >= 7, "stats: {stats:?}");
    assert_eq!(stats.shed_items, 0);
    handle.shutdown();
}
