//! `serve-cold` and `serve-hot`: the `wo-serve` daemon driven in-process
//! through `ServeClient` (wo-serve/1, one closed-loop client) and
//! `BatchClient` (wo-serve/2, one pipelined connection), the two taking
//! turns over the whole run.
//!
//! * `serve-cold` sends distinct programs to a fresh daemon per round, so
//!   every request is a cache miss and the engines do the work. A round
//!   is the fixed corpus shapes plus `per_family` generated programs from
//!   each of the generator's nine families, each asked as `drf0` and as
//!   `sc`, renamed by the seed (and, in v1 rounds, ordered by it).
//! * `serve-hot` replays a pre-written journal for a warm set, then sends
//!   seeded renamings of it (`drf0`, `races`, `sc`): all cache hits.
//!
//! Every response is compared byte for byte with the in-process reference
//! path (`answer_locally`'s pipeline) outside the timed windows.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use litmus::explore::{explore_dpor, explore_results, ExploreConfig};
use litmus::parse::parse_program;
use litmus::{corpus, Program, Reg, Thread};
use memory_model::Loc;
use simx::rng::SplitMix64;
use wo_axiom::{analyze, decide_drf0, AxiomConfig, AxiomVerdict};
use wo_fuzz::gen::{generate, Family, GenConfig};
use wo_serve::cache::{CachedAnswer, KindGroup, Lookup, VerdictCache};
use wo_serve::canon::{canonicalize, random_renaming};
use wo_serve::client::{BatchClient, ClientConfig, ServeClient};
use wo_serve::journal::{Journal, JournalRecord};
use wo_serve::protocol::{
    encode_batch_frame, split_batch_frame, CacheStatus, QueryKind, Request, Response, ServerStats,
    Verdict, DEFAULT_MAX_BATCH_ITEMS,
};
use wo_serve::server::{Server, ServerConfig, ServerHandle};
use wo_serve::{answer_locally, answer_to_response, compute_answer, kind_group};

use crate::report::{
    end_rss_window, median, ms, next_is_bulk, on_fresh_thread, start_rss_window, us, Outcome,
    Series, Windows,
};
use crate::spans::{SpanId, Tracer};
use crate::RunCtx;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    Cold,
    Hot,
}

/// Exploration step budget every request carries, and through
/// `AxiomConfig::from_explore` the relational engine's work budget. At
/// this budget every generated program and every fixed shape below gets a
/// definitive answer, and the relational engine's losing first looks on
/// lock and barrier shapes still cost about 93% of `compute_answer` time
/// (regret ≈ 13× over the faster engine per query, against ≈ 31× at the
/// daemon's default budget), while the slowest query stays near 0.2 s so
/// one program cannot swing a run's throughput. See `NOTES.md`.
const STEPS: usize = 300_000;

fn explore_cfg() -> ExploreConfig {
    ExploreConfig {
        max_total_steps: STEPS,
        ..ExploreConfig::default()
    }
}

#[derive(Debug, Clone)]
struct Item {
    kind: QueryKind,
    text: String,
}

impl Item {
    fn request(&self) -> Request {
        let mut req = Request::new(self.kind, self.text.clone());
        req.deadline_ms = Some(0); // budgets only: deterministic answers
        req.max_total_steps = Some(STEPS);
        req
    }
}

/// One writer publishes data behind a sync flag; `readers` threads each
/// sync-read the flag and read the data only after seeing it set. The
/// interleaving space is exponential in `readers`; the relational engine
/// decides it from a polynomial candidate set.
fn mp_fan(readers: usize) -> Program {
    let mut threads = vec![Thread::new().write(Loc(0), 42).sync_write(Loc(1), 1)];
    for _ in 0..readers {
        threads.push(
            Thread::new()
                .sync_read(Loc(1), Reg(0))
                .branch_eq(Reg(0), 0u64, 3)
                .read(Loc(0), Reg(1)),
        );
    }
    Program::new(threads).expect("mp_fan is well-formed")
}

/// `k` writers each sync-publish a location; `k` readers each sync-read
/// two of them (IRIW widened to k+k).
fn iriw_fan(k: usize) -> Program {
    let mut threads = Vec::with_capacity(2 * k);
    for j in 0..k {
        threads.push(Thread::new().sync_write(Loc(j as u32), 1));
    }
    for i in 0..k {
        threads.push(
            Thread::new()
                .sync_read(Loc(i as u32), Reg(0))
                .sync_read(Loc(((i + 1) % k) as u32), Reg(1)),
        );
    }
    Program::new(threads).expect("iriw_fan is well-formed")
}

/// Two threads each writing one data location `writes` times: every
/// cross-thread pair races, 2·writes² races in all, so the answer takes
/// the batch protocol's race-block path.
fn race_storm(writes: u64) -> Program {
    let thread = |base: u64| (0..writes).fold(Thread::new(), |t, k| t.write(Loc(0), base + k));
    Program::new(vec![thread(1), thread(100)]).expect("race_storm is well-formed")
}

/// Shapes every cold round carries: lock and barrier programs where the
/// relational engine's first look costs more than the explorer, fan-out
/// programs where it saves the explorer's exponential walk, and small
/// corpus programs decided in well under a millisecond, the everyday
/// query whose round trip is mostly protocol and daemon overhead.
fn fixed_shapes() -> Vec<Program> {
    let mut shapes = vec![
        corpus::spinlock_bounded(2, 2, 1),
        corpus::spinlock_bounded(2, 2, 2),
        corpus::barrier_bounded(2, 3),
        corpus::barrier_bounded(3, 1),
        mp_fan(5),
        mp_fan(6),
        iriw_fan(3),
        iriw_fan(4),
    ];
    for work in 1..=2 {
        for spins in 1..=3 {
            shapes.push(corpus::fig3_handoff_bounded(work, spins));
        }
    }
    for spins in 1..=3 {
        shapes.push(corpus::spinlock_bounded(2, 1, spins));
    }
    shapes.extend([
        corpus::spinlock_bounded(3, 1, 1),
        corpus::barrier_bounded(2, 1),
        corpus::barrier_bounded(2, 2),
        corpus::racy_counter(2),
        corpus::racy_counter(3),
        mp_fan(2),
        mp_fan(3),
        mp_fan(4),
        iriw_fan(2),
    ]);
    shapes
}

const FAMILIES: [Family; 9] = [
    Family::MpHandoff,
    Family::MpUnrolled,
    Family::LockCounter,
    Family::BarrierPhase,
    Family::SyncOnly,
    Family::RacyPlain,
    Family::RacyFlag,
    Family::RacyLeakyLock,
    Family::RacyFenced,
];

/// Programs from the generator, stratified by family, never repeating a
/// canonical form, drawn from generator seed 0 on: the same programs for
/// every run, so every round and every seed does the same engine work
/// (per-program cost is heavy-tailed, and a seed-drawn handful would
/// swing a run by more than the metrics' bounds). The run's seed renames
/// them and orders the requests.
struct ProgramSource {
    rng: SplitMix64,
    next_gen_seed: u64,
    buckets: BTreeMap<Family, Vec<Program>>,
    seen: HashSet<String>,
}

impl ProgramSource {
    fn new(seed: u64) -> Self {
        ProgramSource {
            rng: SplitMix64::new(seed ^ 0x5E47_E000_C01D),
            next_gen_seed: 0,
            buckets: BTreeMap::new(),
            seen: HashSet::new(),
        }
    }

    /// The next unseen generated program whose primary family is `family`.
    fn next_of(&mut self, family: Family) -> Program {
        loop {
            if let Some(p) = self.buckets.get_mut(&family).and_then(Vec::pop) {
                return p;
            }
            let gp = generate(self.next_gen_seed, &GenConfig::default());
            self.next_gen_seed += 1;
            if self.seen.insert(canonicalize(&gp.program).text) {
                self.buckets
                    .entry(gp.family())
                    .or_default()
                    .insert(0, gp.program);
            }
        }
    }

    fn renamed(&mut self, p: &Program) -> Program {
        random_renaming(p, self.rng.next_u64())
    }

    /// `p` renamed, unless it is wider than the canonicalizer permutes:
    /// a renaming of such a program is a different canonical form with
    /// different engine work, which would make the work seed-dependent.
    fn renamed_same_form(&mut self, p: &Program) -> Program {
        if p.num_threads() > wo_serve::canon::MAX_PERM_THREADS {
            p.clone()
        } else {
            self.renamed(p)
        }
    }

    /// The fixed shapes and `per_family` generated programs per family,
    /// every one a distinct canonical form.
    fn programs(&mut self, per_family: usize) -> Vec<Program> {
        let mut programs = fixed_shapes();
        programs.retain(|p| self.seen.insert(canonicalize(p).text));
        for _ in 0..per_family {
            for family in FAMILIES {
                programs.push(self.next_of(family));
            }
        }
        programs
    }

    /// One cold round: every program freshly renamed, asked as `drf0` and
    /// as `sc`, in a seeded order. Each item carries its index in the
    /// unshuffled round, the same in every round.
    fn cold_round(&mut self, programs: &[Program]) -> Vec<(usize, Item)> {
        let mut items: Vec<(usize, Item)> = programs
            .iter()
            .flat_map(|p| {
                let text = self.renamed_same_form(p).to_string();
                [
                    Item {
                        kind: QueryKind::Drf0,
                        text: text.clone(),
                    },
                    Item {
                        kind: QueryKind::Sc,
                        text,
                    },
                ]
            })
            .enumerate()
            .collect();
        for i in (1..items.len()).rev() {
            let j = (self.rng.next_u64() % (i as u64 + 1)) as usize;
            items.swap(i, j);
        }
        items
    }
}

fn client_cfg(handle: &ServerHandle) -> ClientConfig {
    let mut cfg = ClientConfig::new(handle.addr().to_string());
    cfg.io_timeout = Duration::from_secs(120);
    cfg.hedge_after = None; // one connection at a time
    cfg
}

fn spawn(journal: Option<&Path>) -> (ServerHandle, Duration) {
    let t0 = Instant::now();
    let handle = Server::spawn(ServerConfig {
        journal_dir: journal.map(Path::to_path_buf),
        ..ServerConfig::default()
    })
    .expect("bind a loopback daemon");
    (handle, t0.elapsed())
}

fn stats(handle: &ServerHandle) -> ServerStats {
    let mut client = ServeClient::new(client_cfg(handle));
    match client.query(&Request::new(QueryKind::Stats, "")) {
        Ok(Response::Stats(s)) => s,
        _ => ServerStats::default(),
    }
}

/// Whether a response is a degraded (`Unknown` / incomplete) answer.
fn is_unknown(r: &Response) -> bool {
    matches!(
        r,
        Response::Verdict {
            verdict: Verdict::Unknown { .. },
            ..
        } | Response::Sc {
            complete: false,
            ..
        }
    )
}

fn with_cache(mut r: Response, status: CacheStatus) -> Response {
    match &mut r {
        Response::Verdict { cache, .. } | Response::Sc { cache, .. } => *cache = status,
        _ => {}
    }
    r
}

/// Daemon counters summed over a run's daemons.
#[derive(Default)]
struct Counters {
    hits: u64,
    misses: u64,
    coalesced: u64,
    overloaded: u64,
    degraded: u64,
    resubmitted: u64,
}

impl Counters {
    fn add(&mut self, s: &ServerStats) {
        self.hits += s.cache_hits;
        self.misses += s.shard_misses.iter().sum::<u64>();
        self.coalesced += s.coalesced;
        self.overloaded += s.overloaded;
        self.degraded += s.degraded;
    }
}

/// Scratch directory for one daemon journal, emptied first.
fn fresh_dir(root: &Path, name: &str) -> PathBuf {
    let dir = root.join(format!("{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

pub fn run(ctx: &RunCtx, mode: Mode) -> Outcome {
    let mut out = Outcome::default();
    let mut counters = Counters::default();
    match (mode, ctx.traced) {
        (Mode::Cold, false) => timed_cold(ctx, &mut out, &mut counters),
        (Mode::Hot, false) => timed_hot(ctx, &mut out, &mut counters),
        (Mode::Cold, true) => traced_cold(ctx, &mut out, &mut counters),
        (Mode::Hot, true) => traced_hot(ctx, &mut out, &mut counters),
    }
    out.notes.push(format!(
        "daemon counters: hits={} misses={} coalesced={} overloaded={} degraded={} resubmitted={}",
        counters.hits,
        counters.misses,
        counters.coalesced,
        counters.overloaded,
        counters.degraded,
        counters.resubmitted
    ));
    if ctx.traced {
        out.put("serve.cache.hits", counters.hits as f64, "count");
        out.put("serve.cache.misses", counters.misses as f64, "count");
        out.put("serve.cache.coalesced", counters.coalesced as f64, "count");
        out.put(
            "serve.server.overloaded",
            counters.overloaded as f64,
            "count",
        );
        out.put("serve.server.degraded", counters.degraded as f64, "count");
        out.put(
            "serve.server.resubmitted",
            counters.resubmitted as f64,
            "count",
        );
    }
    out
}

/// Records the end-to-end metrics of an untraced run.
fn put_timed(out: &mut Outcome, setup: &[f64], v1: &Windows, bulk: &Windows) {
    out.put("setup_s", median(setup), "s");
    out.put("throughput_per_s", v1.best_item_rate(), "1/s");
    out.put("latency_p50_us", v1.best_q(0.5), "us");
    out.put("latency_p90_us", v1.best_q(0.9), "us");
    out.put("bulk_throughput_per_s", bulk.fast_rate(), "1/s");
    out.notes.push(format!(
        "serve: {} v1 windows, {} wo-serve/2 windows, {} set-ups",
        v1.len(),
        bulk.len(),
        setup.len()
    ));
}

/// Generated programs per family in a cold round and in the warm set.
fn per_family(ctx: &RunCtx) -> usize {
    if ctx.smoke {
        1
    } else {
        4
    }
}

/// Reference answers: `answer_locally`'s pipeline (parse, canonicalize,
/// `compute_answer` without a deadline, `answer_to_response`) with the
/// engine answer memoized per kind group and canonical form, which is
/// deterministic under budgets only. Built before the timed phases and
/// outside `setup_s`, so checking a response between rounds is cheap and
/// holds no more memory than the fixed set of forms.
struct Reference {
    answers: HashMap<(KindGroup, String), CachedAnswer>,
}

impl Reference {
    /// Both kind groups' answers for every program, on the worker threads.
    fn compute(programs: &[Program], out: &mut Outcome) -> Self {
        let cfg = explore_cfg();
        let jobs: Vec<(KindGroup, &Program)> = programs
            .iter()
            .flat_map(|p| [(KindGroup::Explore, p), (KindGroup::Sc, p)])
            .collect();
        let threads = RunCtx::threads();
        let answers = std::thread::scope(|s| {
            let workers: Vec<_> = (0..threads)
                .map(|w| {
                    let jobs = &jobs;
                    s.spawn(move || {
                        jobs.iter()
                            .skip(w)
                            .step_by(threads)
                            .map(|&(group, p)| {
                                let form = canonicalize(p);
                                let answer = compute_answer(group, &form.program, &cfg);
                                ((group, form.text), answer)
                            })
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            workers
                .into_iter()
                .flat_map(|w| w.join().expect("reference worker panicked"))
                .collect()
        });
        Reference::from_answers(answers, programs, out)
    }

    /// A reference from answers already computed, spot-checked against
    /// `answer_locally` itself on the first and last program.
    fn from_answers(
        answers: HashMap<(KindGroup, String), CachedAnswer>,
        programs: &[Program],
        out: &mut Outcome,
    ) -> Self {
        let mut reference = Reference { answers };
        let cfg = explore_cfg();
        for p in [programs.first(), programs.last()].into_iter().flatten() {
            for kind in [QueryKind::Drf0, QueryKind::Races, QueryKind::Sc] {
                let item = Item {
                    kind,
                    text: p.to_string(),
                };
                if reference.expected(&item, CacheStatus::Miss)
                    != answer_locally(kind, &item.text, &cfg)
                {
                    out.fail(format!(
                        "memoized {} reference differs from answer_locally",
                        kind.as_str()
                    ));
                }
            }
        }
        reference
    }

    /// The response the daemon must give for `item`.
    fn expected(&mut self, item: &Item, status: CacheStatus) -> Response {
        let program = match parse_program(&item.text) {
            Ok(p) => p,
            Err(e) => {
                return Response::Error {
                    code: wo_serve::protocol::ErrorCode::Parse,
                    message: e.to_string(),
                }
            }
        };
        let form = canonicalize(&program);
        let group = kind_group(item.kind).expect("query kinds have a group");
        let answer = self
            .answers
            .entry((group, form.text.clone()))
            .or_insert_with(|| compute_answer(group, &form.program, &explore_cfg()));
        with_cache(
            answer_to_response(item.kind, answer, &form, CacheStatus::Miss),
            status,
        )
    }

    /// Checks one response byte for byte and counts it.
    fn check(&mut self, item: &Item, got: &Response, status: CacheStatus, out: &mut Outcome) {
        out.attempted += 1;
        if is_unknown(got) {
            out.unknown += 1;
        }
        let want = self.expected(item, status);
        if got.encode() != want.encode() {
            out.fail(format!(
                "{} mismatch: got {got:?}, want {want:?}",
                item.kind.as_str()
            ));
        }
    }

    /// Checks a whole batch; a failed or short batch fails every item.
    fn check_batch(
        &mut self,
        items: &[Item],
        result: Result<Vec<Response>, wo_serve::client::ClientError>,
        status: CacheStatus,
        out: &mut Outcome,
    ) {
        match result {
            Ok(responses) if responses.len() == items.len() => {
                for (item, got) in items.iter().zip(&responses) {
                    self.check(item, got, status, out);
                }
            }
            other => {
                let why = match other {
                    Ok(r) => format!("batch returned {} of {} responses", r.len(), items.len()),
                    Err(e) => format!("batch client: {e}"),
                };
                out.attempted += items.len() as u64;
                out.failed += items.len() as u64;
                out.notes.push(format!("FAIL: {why}"));
            }
        }
    }
}

/// One cold set-up: the program set built from the generator, the
/// round's renamed requests, and a fresh daemon with an empty journal.
/// Returns the daemon, its journal directory, the round (each item with
/// its unshuffled index) and the seconds it all took.
fn cold_setup(
    ctx: &RunCtx,
    source: &mut ProgramSource,
) -> (ServerHandle, PathBuf, Vec<(usize, Item)>, f64) {
    let dir = fresh_dir(&ctx.out_dir, "cold-journal");
    // On a fresh thread, as the timed windows are: the thread that has just
    // checked a round and shut its daemon down tends to keep a busy vCPU.
    on_fresh_thread(|| {
        let t0 = Instant::now();
        let programs = ProgramSource::new(ctx.seed).programs(per_family(ctx));
        let items = source.cold_round(&programs);
        let (handle, _) = spawn(Some(&dir));
        (handle, dir, items, t0.elapsed().as_secs_f64())
    })
}

fn timed_cold(ctx: &RunCtx, out: &mut Outcome, counters: &mut Counters) {
    let mut source = ProgramSource::new(ctx.seed);
    let programs = source.programs(per_family(ctx));
    let mut reference = Reference::compute(&programs, out);
    let phase = ctx.budget.as_secs_f64() / 2.0;
    let (mut setup, mut v1, mut bulk) = (Vec::new(), Windows::default(), Windows::default());
    start_rss_window(out);

    // Each round gets a fresh set-up (daemon with the journal on) and goes
    // either through one closed-loop v1 client or as one pipelined
    // wo-serve/2 batch, the two in turn. Each round is checked as it ends,
    // outside the timed window.
    while let Some(is_bulk) = next_is_bulk(&v1, &bulk, phase) {
        let (handle, dir, round, secs) = cold_setup(ctx, &mut source);
        setup.push(secs);
        if is_bulk {
            let items = batch_order(round);
            let mut client = BatchClient::new(client_cfg(&handle));
            let requests: Vec<Request> = items.iter().map(Item::request).collect();
            let t0 = Instant::now();
            let result = client.query_batch(&requests);
            bulk.push(requests.len() as u64, t0.elapsed().as_secs_f64(), &[]);
            reference.check_batch(&items, result, CacheStatus::Miss, out);
            counters.resubmitted += client.resubmitted_items();
        } else {
            v1_round(&handle, round, &mut reference, &mut v1, out);
        }
        counters.add(&stats(&handle));
        handle.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }
    end_rss_window(out);
    put_timed(out, &setup, &v1, &bulk);
}

/// One cold round through one closed-loop v1 client, each item timed
/// and then checked.
fn v1_round(
    handle: &ServerHandle,
    items: Vec<(usize, Item)>,
    reference: &mut Reference,
    v1: &mut Windows,
    out: &mut Outcome,
) {
    let cfg = client_cfg(handle);
    let round: Vec<(usize, Item, Response, f64)> = on_fresh_thread(|| {
        let mut client = ServeClient::new(cfg);
        items
            .into_iter()
            .map(|(idx, item)| {
                let req = item.request();
                let t0 = Instant::now();
                let response = into_response(client.query(&req));
                (idx, item, response, us(t0.elapsed()))
            })
            .collect()
    });
    let mut latencies = vec![0.0; round.len()];
    for (idx, item, response, latency) in round {
        latencies[idx] = latency;
        reference.check(&item, &response, CacheStatus::Miss, out);
    }
    let secs = latencies.iter().sum::<f64>() / 1e6;
    v1.push(latencies.len() as u64, secs, &latencies);
}

/// A cold round's items in their unshuffled order, for one batch. A
/// batch takes as long as its heaviest items keep the daemon's pool busy,
/// which depends on where in the batch they sit; in the same order every
/// round and every seed, batch time depends on the program set alone.
/// (Each v1 query is timed on its own, so v1 rounds stay shuffled.)
fn batch_order(mut round: Vec<(usize, Item)>) -> Vec<Item> {
    round.sort_unstable_by_key(|(idx, _)| *idx);
    round.into_iter().map(|(_, item)| item).collect()
}

fn into_response(result: Result<Response, wo_serve::client::ClientError>) -> Response {
    result.unwrap_or_else(|e| Response::Error {
        code: wo_serve::protocol::ErrorCode::Internal,
        message: format!("client: {e}"),
    })
}

/// Renamed requests per warm program.
const RENAMES: usize = 8;

/// The warm set, computed untimed: the programs with definitive answers
/// in both kind groups (degraded answers are never cached, so every hot
/// request is a hit), their journal records, and the reference built from
/// those answers.
struct WarmSet {
    programs: Vec<Program>,
    records: Vec<JournalRecord>,
    reference: Reference,
}

fn warm_set(ctx: &RunCtx, out: &mut Outcome) -> WarmSet {
    let mut programs = ProgramSource::new(ctx.seed).programs(per_family(ctx));
    programs.extend([race_storm(6), race_storm(7)]);
    let cfg = explore_cfg();
    let mut warm = Vec::new();
    let mut records = Vec::new();
    for p in programs {
        let form = canonicalize(&p);
        let computed: Vec<(KindGroup, CachedAnswer)> = [KindGroup::Explore, KindGroup::Sc]
            .into_iter()
            .map(|g| (g, compute_answer(g, &form.program, &cfg)))
            .collect();
        if computed.iter().all(|(_, a)| a.is_definitive()) {
            records.extend(computed.into_iter().map(|(group, answer)| JournalRecord {
                group,
                key: form.text.clone(),
                answer,
            }));
            warm.push(p);
        }
    }
    let answers = records
        .iter()
        .map(|r| ((r.group, r.key.clone()), r.answer.clone()))
        .collect();
    let reference = Reference::from_answers(answers, &warm, out);
    let most_races = records
        .iter()
        .map(|r| match &r.answer {
            CachedAnswer::Explore { races, .. } => races.len(),
            CachedAnswer::Sc { .. } => 0,
        })
        .max()
        .unwrap_or(0);
    if most_races < wo_serve::protocol::RACE_BLOCK_MIN_RACES {
        out.fail(format!(
            "warm set lacks a race-block answer (most races {most_races})"
        ));
    }
    WarmSet {
        programs: warm,
        records,
        reference,
    }
}

/// The hot request list: `RENAMES` seeded renamings of each warm program,
/// mixing `drf0`, `races` and `sc`. Canonicalization permutes at most
/// `MAX_PERM_THREADS` threads, so a renaming of a wider program may be a
/// different cache key: only programs whose every renaming maps back to
/// the warm key are sent.
fn hot_requests(ctx: &RunCtx, warm: &[Program]) -> Vec<Item> {
    let mut source = ProgramSource::new(ctx.seed);
    let renamed: Vec<Vec<Program>> = warm
        .iter()
        .map(|p| {
            (
                p,
                (0..RENAMES).map(|_| source.renamed(p)).collect::<Vec<_>>(),
            )
        })
        .filter(|(p, rs)| {
            let key = canonicalize(p).text;
            rs.iter().all(|r| canonicalize(r).text == key)
        })
        .map(|(_, rs)| rs)
        .collect();
    let kinds = [QueryKind::Drf0, QueryKind::Races, QueryKind::Sc];
    let mut items = Vec::with_capacity(renamed.len() * RENAMES);
    for r in 0..RENAMES {
        for (i, variants) in renamed.iter().enumerate() {
            items.push(Item {
                kind: kinds[(i + r) % kinds.len()],
                text: variants[r].to_string(),
            });
        }
    }
    items
}

/// One hot set-up: the warm journal written to a fresh directory named
/// after `name`, the request list built from the seed, and a daemon
/// started on the journal, replaying it. Returns the daemon, its journal
/// directory, the requests and the seconds it all took.
fn hot_setup(
    ctx: &RunCtx,
    name: &str,
    warm: &WarmSet,
    out: &mut Outcome,
) -> (ServerHandle, PathBuf, Vec<Item>, f64) {
    let dir = fresh_dir(&ctx.out_dir, name);
    // On a fresh thread, as the timed windows are.
    let (handle, items, secs) = on_fresh_thread(|| {
        let t0 = Instant::now();
        let (mut journal, _, _) = Journal::open(&dir, 0).expect("create the warm journal");
        for rec in &warm.records {
            journal.append(rec).expect("append to the warm journal");
        }
        drop(journal);
        let items = hot_requests(ctx, &warm.programs);
        let (handle, _) = spawn(Some(&dir));
        (handle, items, t0.elapsed().as_secs_f64())
    });
    if handle.replayed() != warm.records.len() as u64 {
        out.fail(format!(
            "replayed {} of {} journal records",
            handle.replayed(),
            warm.records.len()
        ));
    }
    (handle, dir, items, secs)
}

fn timed_hot(ctx: &RunCtx, out: &mut Outcome, counters: &mut Counters) {
    let mut warm = warm_set(ctx, out);
    let phase = ctx.budget.as_secs_f64() / 2.0;
    let (mut setup, mut v1, mut bulk) = (Vec::new(), Windows::default(), Windows::default());
    start_rss_window(out);

    // v1 passes (each one closed-loop client through the request list, on
    // a daemon freshly set up for it, so `setup_s` is a median over the
    // whole run) alternate with wo-serve/2 passes (the same requests as one
    // pipelined batch, all on one daemon). The first pass of each path is
    // checked against the reference as it ends; later passes send
    // identical requests and must repeat it.
    let (batch_handle, batch_dir, items, secs) = hot_setup(ctx, "hot-batch-journal", &warm, out);
    setup.push(secs);
    let requests: Vec<Request> = items.iter().map(Item::request).collect();
    let mut batch = BatchClient::new(client_cfg(&batch_handle));
    let (mut v1_first, mut batch_first) = (Vec::new(), Vec::new());
    while let Some(is_bulk) = next_is_bulk(&v1, &bulk, phase) {
        if is_bulk {
            let t0 = Instant::now();
            let result = batch.query_batch(&requests);
            bulk.push(requests.len() as u64, t0.elapsed().as_secs_f64(), &[]);
            match result {
                Ok(responses) if responses.len() == requests.len() => {
                    for (i, r) in responses.into_iter().enumerate() {
                        check_or_repeat(
                            out,
                            &mut warm.reference,
                            &mut batch_first,
                            &items[i],
                            i,
                            r,
                        );
                    }
                }
                other => {
                    out.attempted += requests.len() as u64;
                    out.failed += requests.len() as u64;
                    out.notes
                        .push(format!("FAIL: hot batch pass: {:?}", other.err()));
                }
            }
            continue;
        }
        let (handle, dir, items, secs) = hot_setup(ctx, "hot-journal", &warm, out);
        setup.push(secs);
        let cfg = client_cfg(&handle);
        let pass: Vec<(Response, f64)> = on_fresh_thread(|| {
            let mut client = ServeClient::new(cfg);
            items
                .iter()
                .map(|item| {
                    let req = item.request();
                    let t0 = Instant::now();
                    let response = into_response(client.query(&req));
                    (response, us(t0.elapsed()))
                })
                .collect()
        });
        let mut latencies = Vec::with_capacity(items.len());
        for (i, (response, latency)) in pass.into_iter().enumerate() {
            latencies.push(latency);
            check_or_repeat(
                out,
                &mut warm.reference,
                &mut v1_first,
                &items[i],
                i,
                response,
            );
        }
        let secs = latencies.iter().sum::<f64>() / 1e6;
        v1.push(items.len() as u64, secs, &latencies);
        counters.add(&stats(&handle));
        handle.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }
    end_rss_window(out);
    counters.resubmitted += batch.resubmitted_items();
    counters.add(&stats(&batch_handle));
    batch_handle.shutdown();
    let _ = std::fs::remove_dir_all(&batch_dir);
    put_timed(out, &setup, &v1, &bulk);
}

/// Item `i` of a repeated pass: the first pass's responses are checked
/// against the reference and kept; later passes must repeat them.
fn check_or_repeat(
    out: &mut Outcome,
    reference: &mut Reference,
    first: &mut Vec<Response>,
    item: &Item,
    i: usize,
    r: Response,
) {
    if first.len() == i {
        reference.check(item, &r, CacheStatus::Hit, out);
        first.push(r);
    } else {
        out.attempted += 1;
        if first[i] != r {
            out.fail(format!("hot item {i} changed between passes: {r:?}"));
        }
    }
}

/// The benchmark's own copy of the daemon's per-query stages, timed one
/// by one in the traced run: a cache and journal mirroring the daemon's.
struct Mirror {
    cache: VerdictCache,
    journal: Journal,
    journal_dir: PathBuf,
    cfg: ExploreConfig,
    /// Per-query residual: round trip minus the stages the daemon runs.
    residual_us: Series,
    best_engine_us: f64,
    compute_us: f64,
    axiom_accepted: u64,
    axiom_work: u64,
    explore_steps: u64,
    races: u64,
    appends: u64,
}

impl Mirror {
    fn new(ctx: &RunCtx, warm: Option<&Path>) -> Self {
        let journal_dir = fresh_dir(&ctx.out_dir, "mirror-journal");
        let (journal, _, _) = Journal::open(&journal_dir, 0).expect("create the mirror journal");
        let cache = VerdictCache::new();
        if let Some(dir) = warm {
            let (_, records, _) = Journal::open(dir, 0).expect("reopen the warm journal");
            for rec in records {
                cache.insert_replayed(rec.group, rec.key, rec.answer);
            }
        }
        Mirror {
            cache,
            journal,
            journal_dir,
            cfg: explore_cfg(),
            residual_us: Series::default(),
            best_engine_us: 0.0,
            compute_us: 0.0,
            axiom_accepted: 0,
            axiom_work: 0,
            explore_steps: 0,
            races: 0,
            appends: 0,
        }
    }

    /// One v1 round trip, then each daemon stage re-run standalone in its
    /// own span. Returns the daemon's response and the stage pipeline's.
    fn query(
        &mut self,
        tr: &mut Tracer,
        client: &mut ServeClient,
        id: u64,
        item: &Item,
    ) -> Result<(Response, Response), String> {
        let req = item.request();
        let payload = req.encode();
        let root = tr.begin("bench.item", None, id);
        let (result, round_trip) =
            tr.time("serve.roundtrip", Some(root), id, || client.query(&req));
        let got = into_response(result);
        // Time spent in the stages the daemon runs for this query.
        let mut stages = Duration::ZERO;
        let (decoded, d) = tr.time("serve.protocol", Some(root), id, || {
            Request::decode(&payload)
        });
        stages += d;
        let decoded = decoded.map_err(|e| format!("request decode: {e}"))?;
        let (parsed, d) = tr.time("litmus.parse", Some(root), id, || {
            parse_program(&decoded.program)
        });
        stages += d;
        let program = parsed.map_err(|e| format!("parse: {e}"))?;
        let (form, d) = tr.time("serve.canon", Some(root), id, || canonicalize(&program));
        stages += d;
        let group = kind_group(item.kind).expect("query kinds have a group");

        let lookup_span = tr.begin("serve.cache", Some(root), id);
        let lookup = self.cache.lookup(group, &form.text);
        stages += tr.end(lookup_span);
        let (answer, status) = match lookup {
            Lookup::Hit(a) => ((*a).clone(), CacheStatus::Hit),
            Lookup::Join(_) => return Err("mirror cache saw a concurrent flight".into()),
            Lookup::Lead(guard) => {
                let cfg = self.cfg;
                let (answer, compute) = tr.time("serve.compute", Some(root), id, || {
                    compute_answer(group, &form.program, &cfg)
                });
                stages += compute;
                self.compute_us += us(compute);
                let (accepted, work, steps, best) =
                    engines_standalone(tr, root, id, group, &form.program, &cfg);
                self.axiom_accepted += u64::from(accepted);
                self.axiom_work += work;
                self.explore_steps += steps;
                self.best_engine_us += best;
                let c = tr.begin("serve.cache", Some(root), id);
                guard.complete(answer.clone());
                stages += tr.end(c);
                if answer.is_definitive() {
                    let rec = JournalRecord {
                        group,
                        key: form.text.clone(),
                        answer: answer.clone(),
                    };
                    let (appended, d) = tr.time("serve.journal", Some(root), id, || {
                        self.journal.append(&rec)
                    });
                    appended.map_err(|e| format!("mirror journal: {e}"))?;
                    stages += d;
                    self.appends += 1;
                }
                (answer, CacheStatus::Miss)
            }
        };
        let (want, d) = tr.time("serve.translate", Some(root), id, || {
            answer_to_response(item.kind, &answer, &form, status)
        });
        stages += d;
        if let Response::Verdict { races, .. } = &want {
            self.races += races.len() as u64;
        }
        let ((), d) = tr.time("serve.protocol", Some(root), id, || {
            std::hint::black_box(want.encode());
        });
        stages += d;
        tr.end(root);
        self.residual_us.push(us(round_trip) - us(stages));
        Ok((got, want))
    }

    fn report(self, tr: &Tracer, out: &mut Outcome) {
        let replay_t0 = Instant::now();
        let replayed = Journal::open(&self.journal_dir, 0)
            .map(|(_, r, _)| r.len())
            .unwrap_or(0);
        let replay = replay_t0.elapsed();
        let bytes = std::fs::metadata(self.journal_dir.join("journal.log")).map_or(0, |m| m.len());
        let _ = std::fs::remove_dir_all(&self.journal_dir);
        if replayed as u64 != self.appends {
            out.fail(format!(
                "mirror journal replayed {replayed} of {} appends",
                self.appends
            ));
        }
        let layers = tr.layers();
        let get = |name: &str| layers.get(name).cloned().unwrap_or_default();
        let protocol = get("serve.protocol");
        out.put("serve.protocol.calls", protocol.calls as f64, "count");
        out.put("serve.protocol.busy_ms", protocol.busy_ms(), "ms");
        out.put("serve.protocol.p50_us", protocol.q_us(0.5), "us");
        let parse = get("litmus.parse");
        out.put("litmus.parse.calls", parse.calls as f64, "count");
        out.put("litmus.parse.busy_ms", parse.busy_ms(), "ms");
        out.put("litmus.parse.p50_us", parse.q_us(0.5), "us");
        let canon = get("serve.canon");
        out.put("serve.canon.calls", canon.calls as f64, "count");
        out.put("serve.canon.busy_ms", canon.busy_ms(), "ms");
        out.put("serve.canon.p50_us", canon.q_us(0.5), "us");
        out.put("serve.canon.p99_us", canon.q_us(0.99), "us");
        out.put("serve.cache.busy_ms", get("serve.cache").busy_ms(), "ms");
        let compute = get("serve.compute");
        out.put("serve.compute.calls", compute.calls as f64, "count");
        out.put("serve.compute.busy_ms", compute.busy_ms(), "ms");
        out.put("serve.compute.p50_us", compute.q_us(0.5), "us");
        out.put("serve.compute.p99_us", compute.q_us(0.99), "us");
        out.put(
            "serve.compute.best_engine_ms",
            self.best_engine_us / 1e3,
            "ms",
        );
        let regret = if self.best_engine_us > 0.0 {
            self.compute_us / self.best_engine_us
        } else {
            0.0
        };
        out.put("serve.compute.regret_ratio", regret, "ratio");
        let axiom = get("axiom");
        out.put("axiom.calls", axiom.calls as f64, "count");
        out.put("axiom.busy_ms", axiom.busy_ms(), "ms");
        out.put("axiom.p99_us", axiom.q_us(0.99), "us");
        out.put("axiom.accepted", self.axiom_accepted as f64, "count");
        out.put("axiom.work", self.axiom_work as f64, "count");
        let explore = get("litmus.explore");
        out.put("litmus.explore.calls", explore.calls as f64, "count");
        out.put("litmus.explore.busy_ms", explore.busy_ms(), "ms");
        out.put("litmus.explore.p99_us", explore.q_us(0.99), "us");
        out.put("litmus.explore.steps", self.explore_steps as f64, "count");
        let translate = get("serve.translate");
        out.put("serve.translate.calls", translate.calls as f64, "count");
        out.put("serve.translate.busy_ms", translate.busy_ms(), "ms");
        out.put("serve.translate.races", self.races as f64, "count");
        out.put("serve.journal.appends", self.appends as f64, "count");
        out.put("serve.journal.bytes", bytes as f64, "bytes");
        out.put(
            "serve.journal.busy_ms",
            get("serve.journal").busy_ms(),
            "ms",
        );
        let replay_ms = layers
            .get("serve.journal_replay")
            .map_or(ms(replay), |l| l.busy_ms());
        out.put("serve.journal.replay_ms", replay_ms, "ms");
        out.put(
            "serve.server.residual_p50_us",
            self.residual_us.q(0.5),
            "us",
        );
        out.put(
            "serve.server.residual_p99_us",
            self.residual_us.q(0.99),
            "us",
        );
        out.notes.push(format!(
            "regret base: compute {:.3} ms vs best single engine {:.3} ms over {} computed queries",
            self.compute_us / 1e3,
            self.best_engine_us / 1e3,
            compute.calls
        ));
    }
}

/// Both engines alone on the canonical program, for the per-engine split
/// and the regret base: the faster engine that could have answered alone
/// (the explorer always can; the relational engine only when
/// `compute_answer` would accept its answer). Returns (accepted, axiom
/// work, explorer steps, best engine µs).
fn engines_standalone(
    tr: &mut Tracer,
    root: SpanId,
    id: u64,
    group: KindGroup,
    program: &Program,
    cfg: &ExploreConfig,
) -> (bool, u64, u64, f64) {
    let acfg = AxiomConfig::from_explore(cfg);
    let ((accepted, work), axiom) = tr.time("axiom", Some(root), id, || match group {
        KindGroup::Explore => {
            let r = decide_drf0(program, &acfg);
            (r.verdict == AxiomVerdict::Drf0, r.work)
        }
        KindGroup::Sc => {
            let r = analyze(program, &acfg);
            (r.complete, r.work)
        }
    });
    let (steps, explore) = tr.time("litmus.explore", Some(root), id, || match group {
        KindGroup::Explore => explore_dpor(program, cfg).steps,
        KindGroup::Sc => explore_results(program, cfg).steps,
    });
    let best = us(if accepted {
        axiom.min(explore)
    } else {
        explore
    });
    (accepted, work, steps as u64, best)
}

/// Traced v1 pass: every item through [`Mirror::query`], checked against
/// the stage pipeline's own answer.
fn traced_v1(
    tr: &mut Tracer,
    mirror: &mut Mirror,
    handle: &ServerHandle,
    items: &[Item],
    first_id: u64,
    out: &mut Outcome,
) {
    let mut client = ServeClient::new(client_cfg(handle));
    for (k, item) in items.iter().enumerate() {
        out.attempted += 1;
        match mirror.query(tr, &mut client, first_id + k as u64, item) {
            Ok((got, want)) => {
                if is_unknown(&got) {
                    out.unknown += 1;
                }
                if got.encode() != want.encode() {
                    out.fail(format!(
                        "{} mismatch: got {got:?}, want {want:?}",
                        item.kind.as_str()
                    ));
                }
            }
            Err(e) => out.fail(e),
        }
    }
}

/// Traced batch pass: the round trip, and the frame build and split the
/// daemon's protocol layer does for it.
fn traced_batch(
    tr: &mut Tracer,
    handle: &ServerHandle,
    items: &[Item],
    id: u64,
    counters: &mut Counters,
) -> Result<Vec<Response>, wo_serve::client::ClientError> {
    let requests: Vec<Request> = items.iter().map(Item::request).collect();
    let mut client = BatchClient::new(client_cfg(handle));
    let (result, _) = tr.time("serve.batch_roundtrip", None, id, || {
        client.query_batch(&requests)
    });
    for chunk in requests.chunks(DEFAULT_MAX_BATCH_ITEMS) {
        let payloads: Vec<Vec<u8>> = chunk.iter().map(Request::encode).collect();
        tr.time("serve.protocol", None, id, || {
            let frame = encode_batch_frame(&payloads);
            let parts = split_batch_frame(&frame, DEFAULT_MAX_BATCH_ITEMS).unwrap_or_default();
            for part in parts {
                std::hint::black_box(Request::decode(part).is_ok());
            }
        });
    }
    counters.resubmitted += client.resubmitted_items();
    result
}

/// Overhead of tracing: the traced loop's wall time over the time spent
/// inside the round trips it measures.
fn overhead_ratio(tr: &Tracer, wall: Duration) -> f64 {
    let inside: f64 = ["serve.roundtrip", "serve.batch_roundtrip"]
        .iter()
        .map(|n| tr.per_item(n).values().sum::<f64>())
        .sum();
    if inside > 0.0 {
        us(wall) / inside
    } else {
        0.0
    }
}

/// Traced serve-cold: a fixed number of rounds, so every count repeats
/// exactly for a seed.
fn traced_cold(ctx: &RunCtx, out: &mut Outcome, counters: &mut Counters) {
    let rounds = if ctx.smoke { 1 } else { 3 };
    let mut source = ProgramSource::new(ctx.seed);
    let programs = source.programs(per_family(ctx));
    let mut reference = Reference::compute(&programs, out);
    let mut tr = Tracer::new();
    let wall0 = Instant::now();
    let mut next_id = 0u64;
    let mut mirror = Mirror::new(ctx, None);
    for _ in 0..rounds {
        let items: Vec<Item> = source
            .cold_round(&programs)
            .into_iter()
            .map(|i| i.1)
            .collect();
        let dir = fresh_dir(&ctx.out_dir, "cold-journal");
        let (handle, _) = spawn(Some(&dir));
        // Each round meets a fresh daemon, so the mirror cache starts
        // empty too.
        mirror.cache = VerdictCache::new();
        traced_v1(&mut tr, &mut mirror, &handle, &items, next_id, out);
        next_id += items.len() as u64;
        counters.add(&stats(&handle));
        handle.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }
    let items = batch_order(source.cold_round(&programs));
    let dir = fresh_dir(&ctx.out_dir, "cold-journal");
    let (handle, _) = spawn(Some(&dir));
    let result = traced_batch(&mut tr, &handle, &items, next_id, counters);
    let wall = wall0.elapsed();
    reference.check_batch(&items, result, CacheStatus::Miss, out);
    counters.add(&stats(&handle));
    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
    mirror.report(&tr, out);
    out.put(
        "bench.trace_overhead_ratio",
        overhead_ratio(&tr, wall),
        "ratio",
    );
    tr.write_jsonl(&ctx.out_dir, "serve-cold", ctx.seed);
}

/// Traced serve-hot: one v1 pass and one batch pass over the request
/// list, plus a standalone replay of the warm journal.
fn traced_hot(ctx: &RunCtx, out: &mut Outcome, counters: &mut Counters) {
    let mut warm = warm_set(ctx, out);
    let (handle, dir, items, _) = hot_setup(ctx, "hot-journal", &warm, out);
    let mut tr = Tracer::new();
    tr.time("serve.journal_replay", None, 0, || {
        Journal::open(&dir, 0).map(|(_, r, _)| r.len())
    })
    .0
    .expect("replay the warm journal");
    let mut mirror = Mirror::new(ctx, Some(&dir));
    let wall0 = Instant::now();
    traced_v1(&mut tr, &mut mirror, &handle, &items, 0, out);
    let result = traced_batch(&mut tr, &handle, &items, items.len() as u64, counters);
    let wall = wall0.elapsed();
    warm.reference
        .check_batch(&items, result, CacheStatus::Hit, out);
    counters.add(&stats(&handle));
    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
    mirror.report(&tr, out);
    out.put(
        "bench.trace_overhead_ratio",
        overhead_ratio(&tr, wall),
        "ratio",
    );
    tr.write_jsonl(&ctx.out_dir, "serve-hot", ctx.seed);
}
