//! In-process daemon round trips: a real [`Server`] on an ephemeral port,
//! queried through the retrying [`ServeClient`], covering the cache
//! ladder (miss → hit), journal persistence across a restart, structured
//! parse failures, ping/stats, and the exact value of every counter.

use std::io::Write;
use std::net::TcpStream;
use std::path::PathBuf;
use std::time::Duration;

use wo_serve::client::{BatchClient, ClientConfig, ClientError, ServeClient};
use wo_serve::protocol::{
    batch_depth_bucket, read_frame, write_frame, CacheStatus, Engine, ErrorCode, QueryKind,
    Request, Response, ServerStats, Verdict, BATCH_DEPTH_BUCKETS,
};
use wo_serve::server::{Server, ServerConfig, ServerHandle};

const RACY_MP: &str = "P0:\n  W(m5) := 1\n  Set(m6) := 1\nP1:\n  r0 := Test(m6)\n  r1 := R(m5)\n";
const DRF_HANDOFF: &str =
    "P0:\n  W(m0) := 7\n  Set(m1) := 1\nP1:\n  r0 := Test(m1)\n  if r0 != 1 goto 3\n  r1 := R(m0)\n";
/// IRIW with every access a sync operation: 4 threads, no loops, DRF0.
const IRIW_SYNC: &str = "P0:\n  Set(m0) := 1\nP1:\n  Set(m1) := 1\n\
     P2:\n  r0 := Test(m0)\n  r1 := Test(m1)\nP3:\n  r0 := Test(m1)\n  r1 := Test(m0)\n";

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "wo-serve-it-{tag}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn spawn(journal: Option<PathBuf>) -> ServerHandle {
    let cfg = ServerConfig { journal_dir: journal, ..ServerConfig::default() };
    Server::spawn(cfg).expect("server spawn")
}

fn client_for(handle: &ServerHandle) -> ServeClient {
    let mut cfg = ClientConfig::new(handle.addr().to_string());
    cfg.io_timeout = Duration::from_secs(60);
    cfg.hedge_after = None;
    ServeClient::new(cfg)
}

#[test]
fn miss_then_hit_with_race_coords_in_submitter_space() {
    let handle = spawn(None);
    let mut client = client_for(&handle);

    match client.drf0(RACY_MP).expect("first query") {
        Response::Verdict { verdict: Verdict::Racy, races, cache, .. } => {
            assert_eq!(cache, CacheStatus::Miss);
            assert!(races.iter().all(|r| r.loc == 5), "races in submitted coords");
        }
        other => panic!("unexpected {other:?}"),
    }
    match client.drf0(RACY_MP).expect("second query") {
        Response::Verdict { verdict: Verdict::Racy, cache, .. } => {
            assert_eq!(cache, CacheStatus::Hit);
        }
        other => panic!("unexpected {other:?}"),
    }
    // A renamed-but-equivalent program is also a hit: the cache is keyed
    // on canonical form, not raw text.
    let renamed =
        "P0:\n  W(m77) := 1\n  Set(m3) := 1\nP1:\n  r0 := Test(m3)\n  r1 := R(m77)\n";
    match client.drf0(renamed).expect("renamed query") {
        Response::Verdict { verdict: Verdict::Racy, races, cache, .. } => {
            assert_eq!(cache, CacheStatus::Hit);
            assert!(races.iter().all(|r| r.loc == 77), "renamed submitter coords");
        }
        other => panic!("unexpected {other:?}"),
    }
    handle.shutdown();
}

#[test]
fn journal_survives_restart_and_warms_the_cache() {
    let dir = tmpdir("restart");
    let first = spawn(Some(dir.clone()));
    let mut client = client_for(&first);
    for body in [RACY_MP, DRF_HANDOFF] {
        match client.drf0(body).expect("warm query") {
            Response::Verdict { cache: CacheStatus::Miss, .. } => {}
            other => panic!("unexpected {other:?}"),
        }
    }
    assert_eq!(first.replayed(), 0);
    first.shutdown();

    let second = spawn(Some(dir.clone()));
    assert_eq!(second.replayed(), 2, "both definitive verdicts replayed");
    let mut client = client_for(&second);
    match client.drf0(DRF_HANDOFF).expect("replayed query") {
        Response::Verdict { verdict: Verdict::Drf0, cache, .. } => {
            assert_eq!(cache, CacheStatus::Hit, "journal warmed the cache");
        }
        other => panic!("unexpected {other:?}"),
    }
    second.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn sc_ping_stats_and_parse_errors_round_trip() {
    let handle = spawn(None);
    let mut client = client_for(&handle);

    match client.query(&Request::new(QueryKind::Sc, RACY_MP)).expect("sc") {
        Response::Sc { outcomes, complete: true, .. } => assert!(outcomes >= 2),
        other => panic!("unexpected {other:?}"),
    }
    match client.query(&Request::new(QueryKind::Ping, "")).expect("ping") {
        Response::Pong => {}
        other => panic!("unexpected {other:?}"),
    }
    // Parse failures come back as structured errors; the client refuses
    // to retry them.
    match client.drf0("P0:\n  W(m0").expect_err("parse error is permanent") {
        wo_serve::client::ClientError::Permanent { code, message } => {
            assert_eq!(code, wo_serve::protocol::ErrorCode::Parse);
            assert!(message.contains("line"));
        }
        other => panic!("unexpected {other:?}"),
    }
    match client.query(&Request::new(QueryKind::Stats, "")).expect("stats") {
        Response::Stats(stats) => {
            assert!(stats.served >= 3, "sc/ping/parse all served: {stats:?}");
            assert!(stats.explored >= 1);
        }
        other => panic!("unexpected {other:?}"),
    }
    handle.shutdown();
}

#[test]
fn per_request_budget_degrades_to_unknown_without_poisoning_cache() {
    let handle = spawn(None);
    let mut client = client_for(&handle);

    let mut starved = Request::new(QueryKind::Drf0, DRF_HANDOFF);
    starved.max_total_steps = Some(3);
    match client.query(&starved).expect("starved query") {
        Response::Verdict { verdict: Verdict::Unknown { reason }, cache, .. } => {
            assert_eq!(reason, "max_total_steps");
            assert_eq!(cache, CacheStatus::Miss);
        }
        other => panic!("unexpected {other:?}"),
    }
    // The degraded answer must not have been cached: a full-budget retry
    // recomputes and lands the definitive verdict.
    match client.drf0(DRF_HANDOFF).expect("full-budget retry") {
        Response::Verdict { verdict: Verdict::Drf0, cache, .. } => {
            assert_eq!(cache, CacheStatus::Miss, "degraded answers are not cached");
        }
        other => panic!("unexpected {other:?}"),
    }
    match client.drf0(DRF_HANDOFF).expect("now cached") {
        Response::Verdict { verdict: Verdict::Drf0, cache, .. } => {
            assert_eq!(cache, CacheStatus::Hit);
        }
        other => panic!("unexpected {other:?}"),
    }
    handle.shutdown();
}

#[test]
fn concurrent_identical_misses_coalesce_to_one_exploration() {
    let handle = spawn(None);
    let addr = handle.addr().to_string();

    let mut joins = Vec::new();
    for _ in 0..8 {
        let addr = addr.clone();
        joins.push(std::thread::spawn(move || {
            let mut cfg = ClientConfig::new(addr);
            cfg.hedge_after = None;
            cfg.io_timeout = Duration::from_secs(60);
            let mut client = ServeClient::new(cfg);
            match client.drf0(RACY_MP).expect("concurrent query") {
                Response::Verdict { verdict: Verdict::Racy, cache, .. } => cache,
                other => panic!("unexpected {other:?}"),
            }
        }));
    }
    let statuses: Vec<CacheStatus> = joins.into_iter().map(|j| j.join().unwrap()).collect();
    let misses = statuses.iter().filter(|s| **s == CacheStatus::Miss).count();
    assert_eq!(misses, 1, "exactly one leader explored: {statuses:?}");

    let mut client = client_for(&handle);
    match client.query(&Request::new(QueryKind::Stats, "")).expect("stats") {
        Response::Stats(stats) => {
            assert_eq!(stats.explored, 1, "one exploration for eight clients");
            assert_eq!(stats.coalesced + stats.cache_hits, 7);
        }
        other => panic!("unexpected {other:?}"),
    }
    handle.shutdown();
}

/// Every counter of a `stats` answer, with the per-shard vectors summed
/// (which shard a key lands in is an implementation detail).
#[derive(Debug, PartialEq, Eq)]
struct Counters {
    served: u64,
    cache_hits: u64,
    coalesced: u64,
    explored: u64,
    overloaded: u64,
    degraded: u64,
    journal_replayed: u64,
    shedding: bool,
    batch_depth: [u64; BATCH_DEPTH_BUCKETS],
    shard_hits: u64,
    shard_misses: u64,
    coalesced_in_batch: u64,
    shed_items: u64,
    computed_axiom: u64,
    computed_explorer: u64,
    route_fallbacks: u64,
}

fn counters(client: &mut ServeClient) -> Counters {
    let stats: ServerStats = match client.query(&Request::new(QueryKind::Stats, "")) {
        Ok(Response::Stats(stats)) => stats,
        other => panic!("unexpected {other:?}"),
    };
    Counters {
        served: stats.served,
        cache_hits: stats.cache_hits,
        coalesced: stats.coalesced,
        explored: stats.explored,
        overloaded: stats.overloaded,
        degraded: stats.degraded,
        journal_replayed: stats.journal_replayed,
        shedding: stats.shedding,
        batch_depth: stats.batch_depth,
        shard_hits: stats.shard_hits.iter().sum(),
        shard_misses: stats.shard_misses.iter().sum(),
        coalesced_in_batch: stats.coalesced_in_batch,
        shed_items: stats.shed_items,
        computed_axiom: stats.computed_axiom,
        computed_explorer: stats.computed_explorer,
        route_fallbacks: stats.route_fallbacks,
    }
}

fn cache_status(response: &Response) -> Option<CacheStatus> {
    match response {
        Response::Verdict { cache, .. } | Response::Sc { cache, .. } => Some(*cache),
        _ => None,
    }
}

/// Pins every counter, exactly, across a fixed v1 sequence and then one
/// batch frame on a fresh daemon. The batch-only counters
/// (`batch_depth`, `coalesced_in_batch`, `shed_items`) must not move on
/// v1 traffic, and the `stats` answer never counts itself. Every
/// computation is counted under the engine that answered it, so
/// `computed_axiom + computed_explorer == explored`; the two tight-budget
/// queries are the only ones whose first engine (the explorer) was
/// undecided.
#[test]
fn counters_are_exact_across_a_v1_sequence_and_one_batch() {
    let handle = spawn(None);
    let check = |c: Counters| {
        assert_eq!(c.computed_axiom + c.computed_explorer, c.explored, "{c:?}");
        c
    };
    let mut client = client_for(&handle);
    let renamed_mp =
        "P0:\n  W(m77) := 1\n  Set(m3) := 1\nP1:\n  r0 := Test(m3)\n  r1 := R(m77)\n";
    let renamed_handoff =
        "P0:\n  W(m4) := 7\n  Set(m9) := 1\nP1:\n  r0 := Test(m9)\n  if r0 != 1 goto 3\n  r1 := R(m4)\n";
    let mut starved = Request::new(QueryKind::Drf0, DRF_HANDOFF);
    starved.max_total_steps = Some(3);

    // Phase 1, v1: miss, renamed hit, tight-budget Unknown, ping, parse error.
    assert_eq!(cache_status(&client.drf0(RACY_MP).unwrap()), Some(CacheStatus::Miss));
    assert_eq!(cache_status(&client.drf0(renamed_mp).unwrap()), Some(CacheStatus::Hit));
    match client.query(&starved).unwrap() {
        Response::Verdict { verdict: Verdict::Unknown { .. }, cache: CacheStatus::Miss, .. } => {}
        other => panic!("unexpected {other:?}"),
    }
    assert_eq!(client.query(&Request::new(QueryKind::Ping, "")).unwrap(), Response::Pong);
    assert!(matches!(
        client.drf0("P0:\n  W(m0").unwrap_err(),
        ClientError::Permanent { code: ErrorCode::Parse, .. }
    ));
    assert_eq!(
        check(counters(&mut client)),
        Counters {
            served: 5,
            cache_hits: 1,
            coalesced: 0,
            explored: 2,
            overloaded: 0,
            degraded: 1,
            journal_replayed: 0,
            shedding: false,
            batch_depth: [0; BATCH_DEPTH_BUCKETS],
            shard_hits: 1,
            shard_misses: 2,
            coalesced_in_batch: 0,
            shed_items: 0,
            computed_axiom: 0,
            computed_explorer: 2,
            route_fallbacks: 1,
        }
    );

    // Phase 2, one batch frame: a cached key asked twice (one probe), a
    // fresh key asked twice (one exploration, one in-batch follower), a
    // tight-budget SC query, a ping, a parse error, and a 4-thread
    // loop-free program the relational engine answers first.
    let mut races = Request::new(QueryKind::Races, renamed_mp);
    races.deadline_ms = Some(0);
    let mut tight_sc = Request::new(QueryKind::Sc, DRF_HANDOFF);
    tight_sc.max_total_steps = Some(3);
    let batch = vec![
        Request::new(QueryKind::Drf0, RACY_MP),
        races,
        Request::new(QueryKind::Drf0, DRF_HANDOFF),
        Request::new(QueryKind::Drf0, renamed_handoff),
        tight_sc,
        Request::new(QueryKind::Ping, ""),
        Request::new(QueryKind::Drf0, "P0:\n  W(m0"),
        Request::new(QueryKind::Drf0, IRIW_SYNC),
    ];
    let mut batch_cfg = ClientConfig::new(handle.addr().to_string());
    batch_cfg.io_timeout = Duration::from_secs(60);
    let responses = BatchClient::new(batch_cfg).query_batch(&batch).unwrap();
    let statuses: Vec<Option<CacheStatus>> = responses.iter().map(cache_status).collect();
    assert_eq!(
        statuses,
        [
            Some(CacheStatus::Hit),
            Some(CacheStatus::Hit),
            Some(CacheStatus::Miss),
            Some(CacheStatus::Hit),
            Some(CacheStatus::Miss),
            None,
            None,
            Some(CacheStatus::Miss),
        ]
    );
    assert!(matches!(responses[4], Response::Sc { complete: false, .. }), "{:?}", responses[4]);
    assert!(matches!(responses[6], Response::Error { code: ErrorCode::Parse, .. }));
    assert!(
        matches!(
            responses[7],
            Response::Verdict { verdict: Verdict::Drf0, engine: Some(Engine::Axiom), .. }
        ),
        "{:?}",
        responses[7]
    );
    let mut batch_depth = [0; BATCH_DEPTH_BUCKETS];
    batch_depth[batch_depth_bucket(batch.len())] = 1;
    assert_eq!(
        check(counters(&mut client)),
        Counters {
            served: 6 + 8,
            cache_hits: 2,
            coalesced: 0,
            explored: 5,
            overloaded: 0,
            degraded: 2,
            journal_replayed: 0,
            shedding: false,
            batch_depth,
            shard_hits: 2,
            shard_misses: 5,
            coalesced_in_batch: 1,
            shed_items: 0,
            computed_axiom: 1,
            computed_explorer: 4,
            route_fallbacks: 2,
        }
    );
    handle.shutdown();
}

/// Each cache lookup is counted once, in its shard, and a `stats` answer
/// derives `cache_hits` and `coalesced` from the same read of the shard
/// counters as `shard_hits` and `shard_misses`; each computation counts
/// under one engine, and `explored` is their sum. So while clients send
/// hits and cold misses, every snapshot agrees with itself.
#[test]
fn every_stats_snapshot_agrees_with_itself_under_load() {
    const QUERIES: u64 = 400;
    let handle = spawn(None);
    let mut poller = client_for(&handle);
    assert_eq!(cache_status(&poller.drf0(RACY_MP).unwrap()), Some(CacheStatus::Miss));
    let senders: Vec<_> = (0..2u64)
        .map(|sender| {
            let mut client = client_for(&handle);
            std::thread::spawn(move || {
                for k in 0..QUERIES {
                    // Every other query is a hit; the rest are misses, since
                    // arithmetic keeps each added constant in the key.
                    let program = if k % 2 == 0 {
                        RACY_MP.to_string()
                    } else {
                        let add = k * 2 + sender;
                        format!("P0:\n  r0 := FetchAdd(m0, {add})\nP1:\n  r1 := R(m0)\n")
                    };
                    client.drf0(&program).expect("query");
                }
            })
        })
        .collect();
    let mut snapshots = 0;
    let mut busy = true;
    while busy {
        busy = senders.iter().any(|s| !s.is_finished());
        let stats = match poller.query(&Request::new(QueryKind::Stats, "")) {
            Ok(Response::Stats(stats)) => stats,
            other => panic!("unexpected {other:?}"),
        };
        let shard_hits: u64 = stats.shard_hits.iter().sum();
        let shard_misses: u64 = stats.shard_misses.iter().sum();
        assert_eq!(shard_hits, stats.cache_hits, "snapshot {snapshots}: {stats:?}");
        assert!(stats.coalesced <= shard_misses, "snapshot {snapshots}: {stats:?}");
        assert_eq!(
            stats.computed_axiom + stats.computed_explorer,
            stats.explored,
            "snapshot {snapshots}: {stats:?}"
        );
        snapshots += 1;
    }
    for sender in senders {
        sender.join().unwrap();
    }
    let stats = counters(&mut poller);
    assert_eq!(stats.cache_hits, QUERIES, "{stats:?}");
    assert_eq!(stats.shard_misses, QUERIES + 1, "{stats:?}");
    assert_eq!(stats.explored, QUERIES + 1, "every miss computed once: {stats:?}");
    assert!(snapshots > 10, "only {snapshots} snapshots taken under load");
    handle.shutdown();
}

/// A v1 frame over `max_frame_bytes` is answered with `TooLarge`, the
/// connection is dropped, and the answer counts as served like any other.
#[test]
fn oversized_v1_frame_is_answered_dropped_and_counted() {
    let cfg = ServerConfig { max_frame_bytes: 512, ..ServerConfig::default() };
    let handle = Server::spawn(cfg).expect("server spawn");
    let stream = TcpStream::connect(handle.addr()).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let oversized = Request::new(QueryKind::Drf0, "x".repeat(4096)).encode();
    write_frame(&mut &stream, &oversized).unwrap();
    let payload = read_frame(&mut &stream, 1 << 20).unwrap().expect("error frame");
    match Response::decode(&payload).unwrap() {
        Response::Error { code: ErrorCode::TooLarge, .. } => {}
        other => panic!("unexpected {other:?}"),
    }
    assert!(read_frame(&mut &stream, 1 << 20).unwrap().is_none(), "connection dropped");

    let mut client = client_for(&handle);
    let stats = counters(&mut client);
    assert_eq!(stats.served, 1, "{stats:?}");
    handle.shutdown();
}

/// Writes one request on a raw connection and reads its answer.
fn raw_query(stream: &TcpStream, request: &Request) -> Response {
    write_frame(&mut &*stream, &request.encode()).unwrap();
    let payload = read_frame(&mut &*stream, 1 << 20).unwrap().expect("a response frame");
    Response::decode(&payload).unwrap()
}

/// A frame that arrives on an open connection after `shutdown` has
/// returned is answered `shutting_down` and closes the connection; it is
/// neither computed nor journaled, so a restart on the journal cannot
/// race its append.
#[test]
fn a_frame_read_after_shutdown_is_refused_and_not_journaled() {
    let dir = tmpdir("after-shutdown");
    let handle = spawn(Some(dir.clone()));
    let stream = TcpStream::connect(handle.addr()).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    match raw_query(&stream, &Request::new(QueryKind::Drf0, RACY_MP)) {
        Response::Verdict { verdict: Verdict::Racy, .. } => {}
        other => panic!("unexpected {other:?}"),
    }
    // A ping's answer shows the connection's thread is past the first
    // answer's journal append; then it waits in its read.
    assert_eq!(raw_query(&stream, &Request::new(QueryKind::Ping, "")), Response::Pong);
    std::thread::sleep(Duration::from_millis(20));
    // The next frame's first bytes arrive before the shutdown and the rest
    // after it, so its read spans the shutdown whatever the daemon's poll
    // tick does.
    let request = Request::new(QueryKind::Drf0, DRF_HANDOFF).encode();
    let mut frame = (request.len() as u32).to_be_bytes().to_vec();
    frame.extend_from_slice(&request);
    (&stream).write_all(&frame[..2]).unwrap();
    handle.shutdown();
    let journal = dir.join("journal.log");
    let len = std::fs::metadata(&journal).unwrap().len();
    assert!(len > 0, "the answer before shutdown was journaled");

    (&stream).write_all(&frame[2..]).unwrap();
    let payload = read_frame(&mut &stream, 1 << 20).unwrap().expect("a response frame");
    match Response::decode(&payload).unwrap() {
        Response::Error { code: ErrorCode::ShuttingDown, .. } => {}
        other => panic!("a frame read after shutdown was served: {other:?}"),
    }
    assert!(read_frame(&mut &stream, 1 << 20).unwrap().is_none(), "connection closed");
    assert_eq!(std::fs::metadata(&journal).unwrap().len(), len, "nothing journaled after shutdown");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A client whose kept connection belongs to a daemon that was shut down
/// and restarted on the same address gets its next query answered by the
/// new daemon within one attempt: the closed connection is redialed at
/// once, not retried after backoff.
#[test]
fn a_kept_connection_is_redialed_to_a_daemon_restarted_on_its_address() {
    let first = spawn(None);
    let addr = first.addr();
    let mut cfg = ClientConfig::new(addr.to_string());
    cfg.io_timeout = Duration::from_secs(60);
    cfg.hedge_after = None;
    cfg.max_attempts = 1;
    let mut client = ServeClient::new(cfg);
    for cache in [CacheStatus::Miss, CacheStatus::Hit] {
        assert_eq!(cache_status(&client.drf0(RACY_MP).unwrap()), Some(cache));
    }
    first.shutdown();
    let mut second = None;
    for _ in 0..100 {
        let cfg = ServerConfig { addr: addr.to_string(), ..ServerConfig::default() };
        if let Ok(handle) = Server::spawn(cfg) {
            second = Some(handle);
            break;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    let second = second.expect("rebind the first daemon's address");

    // The new daemon's cache is empty: a miss proves it answered.
    assert_eq!(cache_status(&client.drf0(RACY_MP).unwrap()), Some(CacheStatus::Miss));
    assert_eq!(cache_status(&client.drf0(RACY_MP).unwrap()), Some(CacheStatus::Hit));
    second.shutdown();
}
