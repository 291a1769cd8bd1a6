//! The wo-serve daemon binary.
//!
//! ```text
//! wo_serve [--addr HOST:PORT] [--journal DIR] [--workers N] [--queue N]
//!          [--max-frame BYTES] [--deadline-ms MS] [--max-deadline-ms MS]
//!          [--snapshot-every N] [--max-batch-frame BYTES]
//!          [--max-batch-items N] [--pool-threads N]
//! wo_serve stats --addr HOST:PORT
//! ```
//!
//! Prints `wo-serve listening on HOST:PORT` once the socket is bound (the
//! chaos harness and CI smoke job parse that line for the ephemeral
//! port), then serves until killed. All state worth keeping lives in the
//! journal, so SIGKILL is a supported shutdown path.
//!
//! `wo_serve stats` queries a running daemon and pretty-prints its
//! counters, including the wo-serve/2 batch instrumentation: the batch
//! depth histogram, per-shard cache hits/misses, coalesced-in-batch
//! count, and per-item shed count.

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use wo_serve::client::{ClientConfig, ServeClient};
use wo_serve::protocol::{QueryKind, Request, Response, ServerStats, BATCH_DEPTH_BUCKETS};
use wo_serve::server::{Server, ServerConfig};

fn usage() -> ! {
    eprintln!(
        "usage: wo_serve [--addr HOST:PORT] [--journal DIR] [--workers N] \
         [--queue N] [--max-frame BYTES] [--deadline-ms MS] \
         [--max-deadline-ms MS] [--snapshot-every N] \
         [--max-batch-frame BYTES] [--max-batch-items N] [--pool-threads N]\n\
         \x20      wo_serve stats --addr HOST:PORT"
    );
    std::process::exit(2);
}

fn main() -> ExitCode {
    let mut raw_args = std::env::args().skip(1).peekable();
    if raw_args.peek().map(String::as_str) == Some("stats") {
        raw_args.next();
        return stats_main(raw_args);
    }

    let mut cfg = ServerConfig::default();
    let mut args = raw_args;
    while let Some(flag) = args.next() {
        let mut value = |flag: &str| args.next().unwrap_or_else(|| {
            eprintln!("wo_serve: {flag} needs a value");
            usage()
        });
        match flag.as_str() {
            "--addr" => cfg.addr = value("--addr"),
            "--journal" => cfg.journal_dir = Some(PathBuf::from(value("--journal"))),
            "--workers" => cfg.explore_workers = parse_num(&flag, &value("--workers")),
            "--queue" => cfg.queue_capacity = parse_num(&flag, &value("--queue")),
            "--max-frame" => cfg.max_frame_bytes = parse_num(&flag, &value("--max-frame")),
            "--deadline-ms" => cfg.default_deadline_ms = parse_num(&flag, &value("--deadline-ms")),
            "--max-deadline-ms" => {
                cfg.max_deadline_ms = parse_num(&flag, &value("--max-deadline-ms"));
            }
            "--snapshot-every" => {
                cfg.snapshot_every = parse_num(&flag, &value("--snapshot-every"));
            }
            "--max-batch-frame" => {
                cfg.max_batch_frame_bytes = parse_num(&flag, &value("--max-batch-frame"));
            }
            "--max-batch-items" => {
                cfg.max_batch_items = parse_num(&flag, &value("--max-batch-items"));
            }
            "--pool-threads" => cfg.pool_threads = parse_num(&flag, &value("--pool-threads")),
            "--help" | "-h" => usage(),
            other => {
                eprintln!("wo_serve: unknown flag {other}");
                usage();
            }
        }
    }

    let handle = match Server::spawn(cfg) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("wo_serve: failed to start: {e}");
            return ExitCode::FAILURE;
        }
    };
    if handle.replayed() > 0 {
        eprintln!("wo-serve replayed {} journal entries", handle.replayed());
    }
    println!("wo-serve listening on {}", handle.addr());

    // The daemon's lifecycle is the process's: park until killed. Crash
    // safety is the journal's job, not a signal handler's.
    loop {
        std::thread::park();
    }
}

fn stats_main(mut args: impl Iterator<Item = String>) -> ExitCode {
    let mut addr = None;
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--addr" => addr = args.next(),
            "--help" | "-h" => usage(),
            other => {
                eprintln!("wo_serve: unknown flag {other}");
                usage();
            }
        }
    }
    let Some(addr) = addr else {
        eprintln!("wo_serve stats: --addr is required");
        usage();
    };

    let mut cfg = ClientConfig::new(addr);
    cfg.io_timeout = Duration::from_secs(5);
    cfg.hedge_after = None;
    let mut client = ServeClient::new(cfg);
    match client.query(&Request::new(QueryKind::Stats, "")) {
        Ok(Response::Stats(stats)) => {
            print_stats(&stats);
            ExitCode::SUCCESS
        }
        Ok(other) => {
            eprintln!("wo_serve stats: unexpected response {other:?}");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("wo_serve stats: {e}");
            ExitCode::FAILURE
        }
    }
}

fn print_stats(stats: &ServerStats) {
    println!("served              {}", stats.served);
    println!("cache hits          {}", stats.cache_hits);
    println!("coalesced           {}", stats.coalesced);
    println!("explored            {}", stats.explored);
    println!("overloaded          {}", stats.overloaded);
    println!("degraded            {}", stats.degraded);
    println!("journal replayed    {}", stats.journal_replayed);
    println!("shedding            {}", stats.shedding);
    println!("coalesced in batch  {}", stats.coalesced_in_batch);
    println!("shed items          {}", stats.shed_items);
    println!("computed (axiom)    {}", stats.computed_axiom);
    println!("computed (explorer) {}", stats.computed_explorer);
    println!("route fallbacks     {}", stats.route_fallbacks);

    const BUCKET_LABELS: [&str; BATCH_DEPTH_BUCKETS] =
        ["1", "2-7", "8-31", "32-127", "128-511", "512+"];
    println!("batch depth histogram:");
    for (label, count) in BUCKET_LABELS.iter().zip(&stats.batch_depth) {
        println!("  {label:>8}  {count}");
    }

    println!("cache shards (hits/misses):");
    for (i, (hits, misses)) in stats.shard_hits.iter().zip(&stats.shard_misses).enumerate() {
        println!("  shard {i:>2}  {hits:>8} / {misses}");
    }
}

fn parse_num<T: std::str::FromStr>(flag: &str, raw: &str) -> T {
    raw.parse().unwrap_or_else(|_| {
        eprintln!("wo_serve: bad value for {flag}: {raw}");
        usage()
    })
}
