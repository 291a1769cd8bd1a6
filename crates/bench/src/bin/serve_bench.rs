//! wo-serve daemon benchmark: throughput, cache effectiveness, crash
//! recovery, and overload behavior, written to `BENCH_serve.json`.
//!
//! Four phases against an in-process [`wo_serve::server::Server`]:
//!
//! * **cold** — every corpus program queried once on an empty cache:
//!   pure exploration throughput through the full network + canonicalize
//!   + cache + journal path;
//! * **hot** — each program re-queried under `renames` random
//!   thread/location/value renamings ([`wo_serve::canon`]): the
//!   canonical-form cache must absorb all of them (hit rate is asserted
//!   and reported). `canonicalize` is also timed alone, once per hot
//!   request, as the per-query stage split (`hot.canon_*`);
//! * **restart** — the server is shut down and a fresh one spawned on the
//!   same journal directory: replay count and wall-clock recovery time,
//!   then the whole corpus re-queried (warm from disk, zero
//!   re-explorations);
//! * **overload** — a deliberately starved server (1 worker, queue of 2)
//!   under concurrent fire: `Overloaded` rejections must appear and every
//!   response must still be structured (no drops, no panics);
//! * **batched** — the wo-serve/2 pipelined path: a byte-equality grid
//!   (every batched response must equal the v1 per-request stream, at
//!   batch sizes {1, 7, 256} x pool threads {1, 4}; any divergence fails
//!   the run) and a hot-path throughput comparison against the v1 numbers
//!   from the same run (`batched.speedup_vs_v1`, reported, not gated: it
//!   divides by the v1 rate, so a faster v1 path would read as a
//!   batched regression).
//!
//! Writes `BENCH_serve.json` in the [`wo_bench::report`] schema (one row
//! per grid cell) and exits 1 after writing on a divergence or a failed
//! gate.
//!
//! Usage:
//!
//! ```text
//! serve_bench [--smoke] [--renames N] [--out PATH] [--min-hot-qps Q] [--min-batched-qps Q]
//!   --smoke              CI variant: fewer programs, fewer renamings
//!   --renames N          renamed variants per program in the hot phase (default 20)
//!   --out PATH           where to write the JSON (default BENCH_serve.json)
//!   --min-hot-qps Q      exit nonzero if v1 hot-path throughput lands below Q
//!   --min-batched-qps Q  exit nonzero if batched hot-path throughput lands below Q
//! ```

use std::path::PathBuf;
use std::time::{Duration, Instant};

use litmus::corpus;
use litmus::Program;
use wo_bench::harness::median;
use wo_bench::report::{self, Report, Row};
use wo_bench::table;
use wo_serve::client::{BatchClient, ClientConfig, ServeClient};
use wo_serve::protocol::{CacheStatus, QueryKind, Request, Response};
use wo_serve::server::{Server, ServerConfig, ServerHandle};

const USAGE: &str =
    "serve_bench [--smoke] [--renames N] [--out PATH] [--min-hot-qps Q] [--min-batched-qps Q]";

/// Timed passes per hot phase (v1 and batched). The reported number is
/// the median pass: single ~30 ms passes swing by 2x under scheduler
/// noise on small machines, and a gate rides on each path's rate.
const HOT_PASSES: usize = 3;

/// The fewest samples a stage's p99 is reported from; below this, a
/// percentile that high says nothing about the tail.
const TAIL_SAMPLES: usize = 40;

/// Corpus: bounded programs whose exploration completes in sane time at
/// these budgets — the bench measures the serving machinery, not DPOR.
fn workload(smoke: bool) -> Vec<(&'static str, Program)> {
    let mut programs = vec![
        ("mp_data", corpus::message_passing_data()),
        ("mp_sync", corpus::message_passing_sync(2)),
        ("mp_fenced", corpus::message_passing_fenced()),
        ("dekker_fenced", corpus::fig1_dekker_fenced()),
        ("load_buffering", corpus::load_buffering()),
        ("coherence_rr", corpus::coherence_rr()),
        ("sync_only_tas", corpus::sync_only_tas()),
        ("s_shape", corpus::s_shape()),
    ];
    if !smoke {
        programs.extend([
            ("dekker", corpus::fig1_dekker()),
            ("two_plus_two_w", corpus::two_plus_two_w()),
            ("iriw_data", corpus::iriw_data()),
            ("iriw_sync", corpus::iriw_sync()),
            ("peterson_data", corpus::peterson_data()),
            ("handoff", corpus::fig3_handoff_bounded(2, 2)),
            ("barrier_2", corpus::barrier_bounded(2, 2)),
            ("racy_counter", corpus::racy_counter(2)),
        ]);
    }
    programs
}

fn request_for(text: &str) -> Request {
    kind_request(QueryKind::Drf0, text)
}

fn kind_request(kind: QueryKind, text: &str) -> Request {
    let mut req = Request::new(kind, text);
    req.deadline_ms = Some(0); // budgets only
    req.max_total_steps = Some(2_000_000);
    req
}

fn client_for(handle: &ServerHandle) -> ServeClient {
    let mut cfg = ClientConfig::new(handle.addr().to_string());
    cfg.io_timeout = Duration::from_secs(300);
    cfg.hedge_after = None;
    ServeClient::new(cfg)
}

fn spawn(journal: &std::path::Path) -> ServerHandle {
    Server::spawn(ServerConfig {
        journal_dir: Some(journal.to_path_buf()),
        snapshot_every: 8,
        ..ServerConfig::default()
    })
    .expect("server spawn")
}

fn stats_of(client: &mut ServeClient) -> wo_serve::protocol::ServerStats {
    match client.query(&Request::new(QueryKind::Stats, "")).expect("stats") {
        Response::Stats(stats) => stats,
        other => panic!("unexpected {other:?}"),
    }
}

fn main() {
    let (mut smoke, mut renames) = (false, 20u64);
    let mut out = PathBuf::from("BENCH_serve.json");
    let (mut min_hot_qps, mut min_batched_qps) = (None, None);
    report::parse_args(USAGE, |flag, args| {
        match flag {
            "--smoke" => smoke = true,
            "--renames" => renames = args.value(flag)?,
            "--out" => out = args.value(flag)?,
            "--min-hot-qps" => min_hot_qps = Some(args.value(flag)?),
            "--min-batched-qps" => min_batched_qps = Some(args.value(flag)?),
            _ => return Ok(false),
        }
        Ok(true)
    });
    if smoke {
        renames = renames.min(5);
    }
    let mut report = Report::new("serve_bench", "serve-corpus", smoke);
    let programs = workload(smoke);
    let journal = std::env::temp_dir().join(format!("wo-serve-bench-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&journal);

    // ---- cold: explore everything once through the full serving path.
    let handle = spawn(&journal);
    let mut client = client_for(&handle);
    let cold_t0 = Instant::now();
    let mut verdicts = Vec::new();
    for (name, program) in &programs {
        let response = client.query(&request_for(&program.to_string())).expect(name);
        match &response {
            Response::Verdict { verdict, cache: CacheStatus::Miss, .. } => {
                verdicts.push((*name, format!("{verdict:?}")));
            }
            other => panic!("{name}: expected a cold miss, got {other:?}"),
        }
    }
    let cold_secs = cold_t0.elapsed().as_secs_f64();

    // ---- hot: renamed-equivalent storms, all absorbed by the cache.
    // Requests are pre-generated (renaming and rendering stay outside the
    // timing window, as on the batched path) and the phase runs
    // HOT_PASSES times: a ~30 ms single pass is at the mercy of one
    // scheduler hiccup on a small machine, and the v1 floor rides on this
    // number, so the median pass is what gets reported.
    let hot_requests: Vec<Request> = programs
        .iter()
        .flat_map(|(_, program)| {
            (0..renames).map(move |k| {
                let renamed = wo_serve::canon::random_renaming(program, k);
                request_for(&renamed.to_string())
            })
        })
        .collect();
    let before_hot = stats_of(&mut client);
    let mut hot_pass_nanos = Vec::new();
    for pass in 0..HOT_PASSES {
        let hot_t0 = Instant::now();
        for (i, req) in hot_requests.iter().enumerate() {
            match client.query(req).expect("hot query") {
                Response::Verdict { cache: CacheStatus::Hit, .. } => {}
                other => panic!("hot pass {pass} item {i}: expected a hit, got {other:?}"),
            }
        }
        hot_pass_nanos.push(hot_t0.elapsed().as_nanos() as u64);
    }
    let hot_queries = hot_requests.len() as u64;
    hot_pass_nanos.sort_unstable();
    let hot_secs = median(&hot_pass_nanos) as f64 / 1e9;
    let after_hot = stats_of(&mut client);
    let hot_hits = after_hot.cache_hits - before_hot.cache_hits;
    let explored_during_hot = after_hot.explored - before_hot.explored;
    assert_eq!(explored_during_hot, 0, "hot phase re-explored");

    // ---- the canonicalization stage alone, once per hot request: every
    // query pays it, hit or miss. Parsing stays outside the timing.
    let mut canon_nanos: Vec<u64> = hot_requests
        .iter()
        .map(|req| {
            let program = litmus::parse::parse_program(&req.program).expect("hot request parses");
            let t0 = Instant::now();
            std::hint::black_box(wo_serve::canon::canonicalize(&program));
            t0.elapsed().as_nanos() as u64
        })
        .collect();
    canon_nanos.sort_unstable();
    let canon_p50_us = median(&canon_nanos) as f64 / 1e3;
    // Nearest rank: the sample at rank ceil(0.99 n).
    let canon_p99_us = (canon_nanos.len() >= TAIL_SAMPLES)
        .then(|| canon_nanos[(canon_nanos.len() * 99).div_ceil(100) - 1] as f64 / 1e3);

    // ---- restart: recovery from the journal alone.
    handle.shutdown();
    let restart_t0 = Instant::now();
    let handle = spawn(&journal);
    let restart_secs = restart_t0.elapsed().as_secs_f64();
    let replayed = handle.replayed();
    let mut client = client_for(&handle);
    let warm_t0 = Instant::now();
    for (name, program) in &programs {
        match client.query(&request_for(&program.to_string())).expect(name) {
            Response::Verdict { cache: CacheStatus::Hit, .. } => {}
            other => panic!("{name}: expected a post-restart hit, got {other:?}"),
        }
    }
    let warm_secs = warm_t0.elapsed().as_secs_f64();
    let post_restart = stats_of(&mut client);
    assert_eq!(post_restart.explored, 0, "post-restart queries re-explored");
    handle.shutdown();

    // ---- overload: a starved server must reject, not wedge.
    let starved = Server::spawn(ServerConfig {
        explore_workers: 1,
        queue_capacity: 2,
        default_deadline_ms: 2_000,
        ..ServerConfig::default()
    })
    .expect("starved spawn");
    let addr = starved.addr().to_string();
    let fire = if smoke { 8 } else { 16 };
    let mut joins = Vec::new();
    for i in 0..fire {
        let addr = addr.clone();
        // Distinct unbounded-spin programs defeat the cache (every
        // request is a leader) and outrun any step budget, so each
        // granted exploration holds the single worker for its full 2 s
        // deadline — the queue genuinely fills and rejections appear.
        let program = corpus::spinlock(3, 1 + i);
        joins.push(std::thread::spawn(move || {
            let mut cfg = ClientConfig::new(addr);
            cfg.hedge_after = None;
            cfg.max_attempts = 1; // count raw rejections, no retries
            cfg.io_timeout = Duration::from_secs(300);
            let mut client = ServeClient::new(cfg);
            let mut req = Request::new(QueryKind::Drf0, program.to_string());
            req.max_total_steps = Some(2_000_000);
            match client.query(&req) {
                Ok(Response::Verdict { .. }) => "answered",
                Ok(Response::Error { code, .. }) => code.as_str(),
                Ok(_) => "other",
                Err(wo_serve::client::ClientError::Exhausted { .. }) => "overloaded",
                Err(_) => "error",
            }
        }));
    }
    let outcomes: Vec<&'static str> = joins.into_iter().map(|j| j.join().unwrap()).collect();
    let answered = outcomes.iter().filter(|o| **o == "answered").count();
    let overloaded = outcomes.iter().filter(|o| **o == "overloaded").count();
    let other = outcomes.len() - answered - overloaded;
    starved.shutdown();
    assert!(answered > 0, "starved server answered nothing: {outcomes:?}");

    // ---- batched, part 1: the byte-equality grid. One v1 reference
    // stream from a fresh server, then every (batch size, pool threads)
    // cell replays the same mixed-kind workload through the wo-serve/2
    // pipeline on its own fresh server. Any byte divergence fails the run.
    let grid_requests: Vec<Request> = programs
        .iter()
        .flat_map(|(_, program)| {
            let renamed = wo_serve::canon::random_renaming(program, 1);
            [
                request_for(&program.to_string()),
                request_for(&renamed.to_string()),
                kind_request(QueryKind::Races, &program.to_string()),
                kind_request(QueryKind::Sc, &program.to_string()),
            ]
        })
        .collect();
    let reference: Vec<Vec<u8>> = {
        let fresh = Server::spawn(ServerConfig::default()).expect("reference spawn");
        let mut client = client_for(&fresh);
        let bytes = grid_requests
            .iter()
            .map(|r| client.query(r).expect("reference query").encode())
            .collect();
        fresh.shutdown();
        bytes
    };
    let mut grid_rows = Vec::new();
    for pool_threads in [1usize, 4] {
        for batch_size in [1usize, 7, 256] {
            let fresh = Server::spawn(ServerConfig {
                pool_threads,
                ..ServerConfig::default()
            })
            .expect("grid spawn");
            let mut cfg = ClientConfig::new(fresh.addr().to_string());
            cfg.io_timeout = Duration::from_secs(300);
            cfg.hedge_after = None;
            let mut client = BatchClient::new(cfg);
            client.max_batch_items = batch_size;
            let t0 = Instant::now();
            let responses = client.query_batch(&grid_requests).expect("grid batch");
            let secs = t0.elapsed().as_secs_f64();
            let mut cell_divergences = 0u64;
            for (i, (response, want)) in responses.iter().zip(&reference).enumerate() {
                if &response.encode() != want {
                    cell_divergences += 1;
                    report.diverge(format!(
                        "batch_size={batch_size} pool_threads={pool_threads} item {i}: \
                         batched {response:?}"
                    ));
                }
            }
            grid_rows.push((
                batch_size,
                pool_threads,
                grid_requests.len(),
                secs,
                grid_requests.len() as f64 / secs.max(1e-9),
                cell_divergences,
            ));
            fresh.shutdown();
        }
    }

    // ---- batched, part 2: hot-path throughput against the v1 hot numbers
    // from this same run. A fresh server is warmed with the corpus, then
    // fresh renamed variants (pure cache hits, like the v1 hot phase) are
    // streamed through the pipeline in default-size batches.
    let batched_hot = {
        let fresh = Server::spawn(ServerConfig::default()).expect("batched-hot spawn");
        let mut warm = client_for(&fresh);
        for (name, program) in &programs {
            match warm.query(&request_for(&program.to_string())).expect(name) {
                Response::Verdict { .. } => {}
                other => panic!("{name}: warm-up failed: {other:?}"),
            }
        }
        let passes: u64 = if smoke { 8 } else { 4 };
        let requests: Vec<Request> = (0..passes)
            .flat_map(|pass| {
                programs.iter().flat_map(move |(_, program)| {
                    (0..renames).map(move |k| {
                        let renamed = wo_serve::canon::random_renaming(
                            program,
                            (pass + 1) * renames + k,
                        );
                        request_for(&renamed.to_string())
                    })
                })
            })
            .collect();
        let mut cfg = ClientConfig::new(fresh.addr().to_string());
        cfg.io_timeout = Duration::from_secs(300);
        cfg.hedge_after = None;
        let mut client = BatchClient::new(cfg);
        // Same pass structure as the v1 hot phase: the reported number is
        // the median of HOT_PASSES identical passes over the request set.
        let mut pass_nanos = Vec::new();
        for pass in 0..HOT_PASSES {
            let t0 = Instant::now();
            let responses = client.query_batch(&requests).expect("batched hot");
            pass_nanos.push(t0.elapsed().as_nanos() as u64);
            for (i, response) in responses.iter().enumerate() {
                match response {
                    Response::Verdict { .. } => {}
                    other => panic!("batched hot pass {pass} item {i}: {other:?}"),
                }
            }
        }
        fresh.shutdown();
        pass_nanos.sort_unstable();
        let secs = median(&pass_nanos) as f64 / 1e9;
        (requests.len() as u64, secs, requests.len() as f64 / secs.max(1e-9))
    };

    // ---- report.
    let n = programs.len() as f64;
    let cold_qps = n / cold_secs.max(1e-9);
    let hot_qps = hot_queries as f64 / hot_secs.max(1e-9);
    let mut rows = Vec::new();
    for (name, verdict) in &verdicts {
        rows.push(vec![(*name).to_string(), verdict.clone()]);
    }
    println!("{}", table(&["program", "verdict"], &rows));
    println!(
        "cold: {} programs in {cold_secs:.3}s ({cold_qps:.1} q/s)   hot: {hot_queries} renamed queries x{HOT_PASSES} passes, median {hot_secs:.3}s ({hot_qps:.0} q/s, {hot_hits} hits, 0 re-explorations)",
        programs.len()
    );
    println!(
        "canonicalize alone: {} hot requests, p50 {canon_p50_us:.2} us{}",
        canon_nanos.len(),
        canon_p99_us.map_or(String::new(), |p99| format!(", p99 {p99:.2} us"))
    );
    println!(
        "restart: {replayed} verdicts replayed in {restart_secs:.3}s, warm re-query of the corpus in {warm_secs:.3}s with 0 explorations"
    );
    println!(
        "overload (1 worker, queue 2, {fire} concurrent): {answered} answered, {overloaded} rejected, {other} other"
    );
    let (batched_hot_queries, batched_hot_secs, batched_hot_qps) = batched_hot;
    let speedup = batched_hot_qps / hot_qps.max(1e-9);
    let mut grid_table = Vec::new();
    for &(batch_size, pool_threads, queries, secs, qps, diverged) in &grid_rows {
        grid_table.push(vec![
            batch_size.to_string(),
            pool_threads.to_string(),
            queries.to_string(),
            format!("{secs:.3}"),
            format!("{qps:.0}"),
            diverged.to_string(),
        ]);
        report.row(
            Row::new(format!("batch_size={batch_size} pool_threads={pool_threads}"))
                .with("batch_size", batch_size)
                .with("pool_threads", pool_threads)
                .with("queries", queries)
                .with("seconds", secs)
                .with("queries_per_sec", qps)
                .with("divergences", diverged),
        );
    }
    println!(
        "{}",
        table(
            &["batch", "pool threads", "queries", "seconds", "q/s", "diverged"],
            &grid_table
        )
    );
    println!(
        "batched hot: {batched_hot_queries} renamed queries x{HOT_PASSES} passes, median \
         {batched_hot_secs:.3}s ({batched_hot_qps:.0} q/s, {speedup:.1}x the v1 hot path)"
    );
    let _ = std::fs::remove_dir_all(&journal);

    report.metric("programs", programs.len());
    report.metric("renames_per_program", renames);
    report.metric("cold.seconds", cold_secs);
    report.metric("cold.queries_per_sec", cold_qps);
    report.metric("hot.queries", hot_queries);
    report.metric("hot.passes", HOT_PASSES);
    report.metric("hot.seconds", hot_secs);
    report.metric("hot.queries_per_sec", hot_qps);
    report.metric("hot.cache_hits", hot_hits);
    report.metric("hot.re_explorations", explored_during_hot);
    report.metric("hot.canon_samples", canon_nanos.len());
    report.metric("hot.canon_p50_us", canon_p50_us);
    if let Some(p99) = canon_p99_us {
        report.metric("hot.canon_p99_us", p99);
    }
    report.metric("restart.replayed", replayed);
    report.metric("restart.recovery_seconds", restart_secs);
    report.metric("restart.warm_requery_seconds", warm_secs);
    report.metric("overload.concurrent", fire);
    report.metric("overload.answered", answered);
    report.metric("overload.rejected", overloaded);
    report.metric("overload.other", other);
    report.metric("batched.hot_queries", batched_hot_queries);
    report.metric("batched.hot_passes", HOT_PASSES);
    report.metric("batched.hot_seconds", batched_hot_secs);
    report.metric("batched.hot_queries_per_sec", batched_hot_qps);
    report.metric("batched.speedup_vs_v1", speedup);
    report.min("hot.queries_per_sec", min_hot_qps);
    report.min("batched.hot_queries_per_sec", min_batched_qps);
    std::process::exit(report.write(&out));
}
