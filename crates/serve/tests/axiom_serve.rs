//! The two engines through the daemon, end to end:
//!
//! * **Byte equality under batching** — `drf0` queries answered by either
//!   engine (race-free corpus programs, racy ones, and wide loop-free
//!   fans the router sends to the relational engine first) must produce
//!   a batched verdict stream byte-for-byte identical to the sequential
//!   v1 stream, at every batch size in {1, 7, 256} and pool width in
//!   {1, 4}. The route must be invisible in the bytes.
//! * **Provenance** — every computed answer names its engine, and its
//!   `steps` equals that engine's own count on the canonical form: the
//!   relational engine's `work` for `engine=axiom`, `explore_dpor`'s
//!   states for `engine=explorer`.
//! * **Journal replay** — verdicts from both engines are journaled like
//!   any other definitive answer: after a restart they replay into the
//!   cache, keep their engine, and serve byte-identical hits without
//!   re-deciding anything. A record written before the `engine=` line
//!   existed still replays, and is served without one.

use std::path::PathBuf;
use std::time::Duration;

use litmus::corpus::{self, iriw_fan, mp_fan};
use litmus::explore::{explore_dpor, ExploreConfig};
use litmus::Program;
use wo_axiom::{decide_drf0, AxiomConfig, AxiomVerdict};
use wo_serve::canon;
use wo_serve::client::{BatchClient, ClientConfig, ServeClient};
use wo_serve::protocol::{CacheStatus, Engine, QueryKind, Request, Response, Verdict};
use wo_serve::server::{Server, ServerConfig, ServerHandle};

/// The explore budget every server in this file runs — mirrored on the
/// test side so the engines run standalone see exactly what the daemon's
/// engines see.
fn explore_cfg() -> ExploreConfig {
    ExploreConfig {
        max_ops_per_execution: 48,
        max_executions: 64,
        ..ExploreConfig::default()
    }
}

fn server_with(pool_threads: usize, journal: Option<PathBuf>) -> ServerHandle {
    let cfg = ServerConfig {
        explore: explore_cfg(),
        pool_threads,
        journal_dir: journal,
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

/// Race-free programs the router sends to the relational engine first.
/// In the drf0 suite only `iriw_sync` is wide and loop-free.
fn wide_programs() -> Vec<Program> {
    vec![mp_fan(4), mp_fan(5), iriw_fan(3)]
}

fn drf0_request(program: &Program) -> Request {
    let mut request = Request::new(QueryKind::Drf0, program.to_string());
    request.deadline_ms = Some(0);
    request
}

/// Corpus `drf0` requests interleaved with racy ones and wide fans, plus
/// duplicates so batches coalesce. `deadline_ms = 0` opts out of
/// wall-clock deadlines; byte equality needs determinism.
fn workload() -> Vec<Request> {
    let mut requests: Vec<Request> = corpus::drf0_suite()
        .iter()
        .chain(&corpus::racy_suite())
        .map(|(_, program)| drf0_request(program))
        .collect();
    requests.extend(wide_programs().iter().map(drf0_request));
    let dups: Vec<Request> = requests.iter().step_by(3).cloned().collect();
    requests.extend(dups);
    requests
}

fn canonical(request: &Request) -> Program {
    canon::canonicalize(&litmus::parse::parse_program(&request.program).unwrap()).program
}

#[test]
fn axiom_answered_drf0_batches_are_byte_equal_to_v1() {
    let requests = workload();
    let acfg = AxiomConfig::from_explore(&explore_cfg());

    // Reference stream: sequential per-request v1 queries on a fresh
    // server, checked for provenance as they stream.
    let mut axiom_misses = 0usize;
    let mut explorer_misses = 0usize;
    let reference: Vec<Vec<u8>> = {
        let handle = server_with(1, None);
        let mut client = ServeClient::new(client_cfg(&handle));
        let bytes: Vec<Vec<u8>> = requests
            .iter()
            .map(|r| match client.query(r) {
                Ok(response) => {
                    // Every miss names the engine that computed it, and
                    // carries that engine's own count as `steps`.
                    if let Response::Verdict {
                        verdict,
                        steps,
                        cache: CacheStatus::Miss,
                        engine,
                        ..
                    } = &response
                    {
                        let program = canonical(r);
                        match engine.expect("a computed answer names its engine") {
                            Engine::Axiom => {
                                let report = decide_drf0(&program, &acfg);
                                assert_eq!(report.verdict, AxiomVerdict::Drf0);
                                assert_eq!(*verdict, Verdict::Drf0);
                                assert_eq!(*steps, report.work, "steps are not axiom work");
                                axiom_misses += 1;
                            }
                            Engine::Explorer => {
                                let report = explore_dpor(&program, &explore_cfg());
                                assert_eq!(*steps, report.steps as u64, "steps are not explorer states");
                                explorer_misses += 1;
                            }
                        }
                    }
                    response.encode()
                }
                Err(e) => panic!("v1 reference query failed: {e}"),
            })
            .collect();
        handle.shutdown();
        bytes
    };
    assert!(axiom_misses >= 4, "workload must contain axiomatically answered programs");
    assert!(explorer_misses >= 4, "workload must contain explorer-answered programs");

    for pool_threads in [1usize, 4] {
        for batch_size in [1usize, 7, 256] {
            let handle = server_with(pool_threads, None);
            let mut client = BatchClient::new(client_cfg(&handle));
            client.max_batch_items = batch_size;
            let responses = client.query_batch(&requests).expect("batched query");
            assert_eq!(responses.len(), reference.len());
            for (i, (response, expected)) in responses.iter().zip(&reference).enumerate() {
                assert_eq!(
                    &response.encode(),
                    expected,
                    "request {i} diverged at batch_size={batch_size} pool_threads={pool_threads}"
                );
            }
            handle.shutdown();
        }
    }
}

fn engine_of(response: &Response) -> Option<Engine> {
    match response {
        Response::Verdict { engine, .. } | Response::Sc { engine, .. } => *engine,
        _ => None,
    }
}

#[test]
fn axiom_verdicts_replay_from_the_journal_byte_identically() {
    let dir = std::env::temp_dir()
        .join(format!("wo-serve-axiom-journal-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let acfg = AxiomConfig::from_explore(&explore_cfg());

    // Warm a journaled server with every axiomatically certifiable corpus
    // program (definitive whichever engine answers) and the wide fans,
    // and keep the cache-hit bytes and the engine as the reference.
    let mut certifiable: Vec<Program> = corpus::drf0_suite()
        .into_iter()
        .map(|(_, program)| program)
        .filter(|p| decide_drf0(&canon::canonicalize(p).program, &acfg).verdict == AxiomVerdict::Drf0)
        .collect();
    certifiable.extend(wide_programs());
    let mut requests: Vec<Request> = Vec::new();
    let mut hits: Vec<(Vec<u8>, Engine)> = Vec::new();
    let first = server_with(1, Some(dir.clone()));
    let mut client = ServeClient::new(client_cfg(&first));
    for program in &certifiable {
        let request = drf0_request(program);
        let miss = client.query(&request).expect("warm query");
        let engine = match &miss {
            Response::Verdict { verdict: Verdict::Drf0, cache: CacheStatus::Miss, .. } => {
                engine_of(&miss).expect("a computed answer names its engine")
            }
            other => panic!("{program}: unexpected {other:?}"),
        };
        match client.query(&request).expect("warm hit") {
            response @ Response::Verdict {
                verdict: Verdict::Drf0,
                cache: CacheStatus::Hit,
                ..
            } => {
                assert_eq!(engine_of(&response), Some(engine), "a hit keeps the engine");
                hits.push((response.encode(), engine));
            }
            other => panic!("{program}: unexpected {other:?}"),
        }
        requests.push(request);
    }
    for engine in [Engine::Axiom, Engine::Explorer] {
        assert!(hits.iter().any(|(_, e)| *e == engine), "no {engine:?} answer was journaled");
    }
    assert_eq!(first.replayed(), 0);
    first.shutdown();

    // Restart on the same journal: every verdict replays into the cache
    // and serves the exact same bytes as a hit, with no recomputation
    // (steps and engine stay the replayed answer's, not a fresh
    // decider's — byte equality covers both).
    let second = server_with(1, Some(dir.clone()));
    assert_eq!(
        second.replayed() as usize,
        requests.len(),
        "every definitive verdict replays"
    );
    let mut client = ServeClient::new(client_cfg(&second));
    for (request, (expected, engine)) in requests.iter().zip(&hits) {
        let response = client.query(request).expect("replayed query");
        match &response {
            Response::Verdict { cache: CacheStatus::Hit, .. } => {}
            other => panic!("journal did not warm the cache: {other:?}"),
        }
        assert_eq!(engine_of(&response), Some(*engine), "the engine did not survive replay");
        assert_eq!(&response.encode(), expected, "replayed bytes diverged");
    }
    second.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A journal record in the format written before the `engine=` line
/// existed, encoded by hand, replays into the cache (not torn, nothing
/// truncated) and is served as a hit with no engine line.
#[test]
fn records_without_an_engine_replay_and_serve_no_engine_line() {
    let dir = std::env::temp_dir()
        .join(format!("wo-serve-old-journal-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let program = corpus::iriw_sync();
    let key = canon::canonicalize(&program).text;
    let payload = format!("group=explore\nanswer=explore\nracy=false\nsteps=17\nraces=0\n\n{key}");
    let mut bytes = (payload.len() as u32).to_be_bytes().to_vec();
    bytes.extend_from_slice(&canon::fnv1a(payload.as_bytes()).to_be_bytes());
    bytes.extend_from_slice(payload.as_bytes());
    std::fs::write(dir.join("journal.log"), &bytes).unwrap();

    let handle = server_with(1, Some(dir.clone()));
    assert_eq!(handle.replayed(), 1);
    let mut client = ServeClient::new(client_cfg(&handle));
    let response = client.query(&drf0_request(&program)).expect("replayed query");
    match &response {
        Response::Verdict {
            verdict: Verdict::Drf0,
            steps: 17,
            cache: CacheStatus::Hit,
            engine: None,
            ..
        } => {}
        other => panic!("unexpected {other:?}"),
    }
    let text = String::from_utf8(response.encode()).unwrap();
    assert!(!text.contains("engine="), "{text}");
    handle.shutdown();
    // The log was not truncated: the record is still there.
    assert_eq!(std::fs::read(dir.join("journal.log")).unwrap(), bytes);
    let _ = std::fs::remove_dir_all(&dir);
}
