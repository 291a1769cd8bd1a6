//! `fuzz-seeds`: the local fuzz campaign over one fixed contiguous seed
//! range. Each seed runs generate → label check → axiom cross-check →
//! `sc_outcomes` → the 9-cell chaos `memsim::sweep` with `check_sc`.
//! In turn: one seed at a time on one thread, in an order drawn from the
//! run seed (per-seed `check_seed` latency, seeds/s; generation is part of
//! the timed set-up), and `run_campaign` itself over the range on the
//! worker threads (bulk seeds/s, from its own `sweep_time`).
//! Every campaign's per-family summary must equal the serial tally of the
//! same seeds, with no `Fail`.

use std::collections::BTreeMap;
use std::time::Instant;

use litmus::explore::{explore_dpor, explore_results, ExploreConfig};
use memory_model::sc::{check_sc, ScCheckConfig};
use memsim::sweep::{sweep, Cell, CellOutcome};
use memsim::{presets, MachineConfig};
use simx::rng::SplitMix64;
use wo_axiom::{analyze, AxiomConfig};
use wo_fuzz::oracle::{machines, profiles};
use wo_fuzz::{
    check_seed, generate, run_campaign, CampaignConfig, CampaignSummary, GenConfig, GenProgram,
    Label, OracleConfig, SeedVerdict,
};

use crate::report::{
    end_rss_window, median, next_is_bulk, on_fresh_thread, start_rss_window, us, Outcome, Windows,
};
use crate::spans::Tracer;
use crate::RunCtx;

/// Per-family (runs, passes, unknown), as `CampaignSummary::per_family`.
type FamilyTally = BTreeMap<&'static str, (u64, u64, u64)>;

/// The seed range every run checks, `0..SEEDS`. Per-seed cost is
/// heavy-tailed even within a family (a few seeds cost 20× the median),
/// so a range drawn from the run seed would swing seeds/s by far more
/// than host noise; a fixed range makes every run do the same oracle
/// work. The run seed orders the serial pass.
const SEEDS: u64 = 360;

/// Oracle budgets. The step budget (shared by the explorer and, as its
/// work budget, the relational engine) keeps every seed's cost bounded,
/// so a run's seeds/s does not hinge on one pathological seed; seeds that
/// outgrow it are reported as unknown, not failed.
fn oracle_cfg() -> OracleConfig {
    let mut cfg = OracleConfig::default();
    cfg.explore.max_total_steps = 100_000;
    cfg
}

/// Single-phase programs: per-seed cost stays within a few milliseconds
/// (two-phase compositions reach 0.2 s), so the range's cost is not
/// dominated by a handful of seeds.
fn gen_cfg() -> GenConfig {
    GenConfig {
        max_phases: 1,
        ..GenConfig::default()
    }
}

fn seed_end(ctx: &RunCtx) -> u64 {
    if ctx.smoke {
        18
    } else {
        SEEDS
    }
}

fn campaign_cfg(end: u64) -> CampaignConfig {
    CampaignConfig {
        seed_start: 0,
        seed_end: end,
        threads: RunCtx::threads(),
        gen: gen_cfg(),
        oracle: oracle_cfg(),
        max_seconds: None,
        shrink_failures: false,
    }
}

fn tally(t: &mut FamilyTally, family: &'static str, verdict: &SeedVerdict) {
    let e = t.entry(family).or_insert((0, 0, 0));
    e.0 += 1;
    match verdict {
        SeedVerdict::Pass => e.1 += 1,
        SeedVerdict::BudgetExceeded(_) => e.2 += 1,
        SeedVerdict::Fail(_) => {}
    }
}

/// Counts one campaign's seeds and checks its summary against the serial
/// tally of the same range.
fn check_summary(summary: &CampaignSummary, end: u64, serial: &FamilyTally, out: &mut Outcome) {
    out.attempted += summary.seeds_run;
    out.unknown += summary.budget_exceeded;
    if summary.seeds_run != end || summary.truncated {
        out.fail(format!(
            "campaign ran {} of {end} seeds (truncated: {})",
            summary.seeds_run, summary.truncated
        ));
    }
    if summary.per_family != *serial {
        out.fail(format!(
            "campaign per-family summary {:?} differs from the serial one {serial:?}",
            summary.per_family
        ));
    }
    for failure in &summary.failures {
        out.fail(format!(
            "campaign seed {} failed: {:?}",
            failure.record.seed, failure.findings
        ));
    }
}

pub fn run(ctx: &RunCtx) -> Outcome {
    let mut out = Outcome::default();
    if ctx.traced {
        traced(ctx, &mut out);
    } else {
        timed(ctx, &mut out);
    }
    out
}

fn record(
    seed: u64,
    family: &'static str,
    v: &SeedVerdict,
    t: &mut FamilyTally,
    out: &mut Outcome,
) {
    out.attempted += 1;
    match v {
        SeedVerdict::Fail(findings) => out.fail(format!("seed {seed}: {findings:?}")),
        SeedVerdict::BudgetExceeded(_) => out.unknown += 1,
        SeedVerdict::Pass => {}
    }
    tally(t, family, v);
}

/// The range `0..end` in an order drawn from the run seed.
fn seeded_order(ctx: &RunCtx, end: u64) -> Vec<u64> {
    let mut seeds: Vec<u64> = (0..end).collect();
    let mut rng = SplitMix64::new(ctx.seed ^ 0x0DE2_5EED);
    for i in (1..seeds.len()).rev() {
        let j = (rng.next_u64() % (i as u64 + 1)) as usize;
        seeds.swap(i, j);
    }
    seeds
}

fn timed(ctx: &RunCtx, out: &mut Outcome) {
    let end = seed_end(ctx);
    let seeds = seeded_order(ctx, end);
    let oracle = oracle_cfg();
    let phase = ctx.budget.as_secs_f64() / 2.0;
    let mut setup = Vec::new();
    start_rss_window(out);
    // Serial windows (the whole range one seed at a time) alternate with
    // bulk windows (`run_campaign` over the same range, timed by its own
    // sweep clock). The first serial window's verdicts are tallied; later
    // ones must repeat them, and every campaign must match the tally.
    let mut serial_tally = FamilyTally::new();
    let mut first: Vec<SeedVerdict> = Vec::new();
    let (mut serial, mut bulk) = (Windows::default(), Windows::default());
    while let Some(is_bulk) = next_is_bulk(&serial, &bulk, phase) {
        if is_bulk {
            set_up(&seeds, &mut setup, out);
            let summary = run_campaign(&campaign_cfg(end));
            bulk.push(summary.seeds_run, summary.sweep_time.as_secs_f64(), &[]);
            check_summary(&summary, end, &serial_tally, out);
            continue;
        }
        let programs = set_up(&seeds, &mut setup, out);
        let pass: Vec<(SeedVerdict, f64)> = on_fresh_thread(|| {
            programs
                .iter()
                .map(|gp| {
                    let t0 = Instant::now();
                    let verdict = check_seed(gp, &oracle);
                    (verdict, us(t0.elapsed()))
                })
                .collect()
        });
        let mut latencies = Vec::with_capacity(seeds.len());
        for (i, (gp, (verdict, latency))) in programs.iter().zip(pass).enumerate() {
            latencies.push(latency);
            if first.len() == i {
                record(
                    gp.seed,
                    gp.family().name(),
                    &verdict,
                    &mut serial_tally,
                    out,
                );
                first.push(verdict);
            } else {
                out.attempted += 1;
                if matches!(verdict, SeedVerdict::BudgetExceeded(_)) {
                    out.unknown += 1;
                }
                if first[i] != verdict {
                    out.fail(format!("seed {}: verdict changed between passes", gp.seed));
                }
            }
        }
        let secs = latencies.iter().sum::<f64>() / 1e6;
        serial.push(seeds.len() as u64, secs, &latencies);
    }
    end_rss_window(out);

    out.put("setup_s", median(&setup), "s");
    out.put("throughput_per_s", serial.best_item_rate(), "1/s");
    out.put("latency_p50_us", serial.best_q(0.5), "us");
    out.put("latency_p90_us", serial.best_q(0.9), "us");
    out.put("bulk_throughput_per_s", bulk.fast_rate(), "1/s");
    out.notes.push(format!(
        "fuzz: seeds 0..{end}, {} serial windows, {} campaigns on {} threads, {} set-ups; per family {serial_tally:?}",
        serial.len(),
        bulk.len(),
        RunCtx::threads(),
        setup.len(),
    ));
}

/// One timed set-up, sampled before every window so `setup_s` is a
/// median over the whole run: the range's programs generated in the
/// serial order, and an empty campaign (the campaign's own set-up).
fn set_up(seeds: &[u64], setup: &mut Vec<f64>, out: &mut Outcome) -> Vec<GenProgram> {
    // On a fresh thread, as the timed windows are.
    let (programs, summary, secs) = on_fresh_thread(|| {
        let t0 = Instant::now();
        let programs: Vec<GenProgram> = seeds.iter().map(|&s| generate(s, &gen_cfg())).collect();
        let summary = run_campaign(&campaign_cfg(0));
        (programs, summary, t0.elapsed().as_secs_f64())
    });
    setup.push(secs);
    if summary.seeds_run != 0 {
        out.fail("an empty campaign ran seeds");
    }
    programs
}

/// Simulated statistics of one sweep, and a digest of them that must
/// repeat exactly for the same seed on any thread count.
#[derive(Default, Debug, PartialEq)]
struct SimStats {
    cells: u64,
    cycles: u64,
    stall_cycles: u64,
    events_popped: u64,
    peak_queue_len: u64,
    messages: u64,
    delayed: u64,
    duplicated: u64,
    dropped: u64,
    retries: u64,
    exhausted: u64,
    digest: u64,
}

impl SimStats {
    fn add(&mut self, outcome: &CellOutcome) {
        self.cells += 1;
        let mut fields = [0u64; 10];
        if let Some(r) = outcome.ok() {
            let s = &r.stats;
            let f = s.chaos.unwrap_or_default();
            fields = [
                r.cycles,
                s.procs.iter().map(memsim::ProcStats::total_stall).sum(),
                s.events_popped,
                s.peak_queue_len,
                s.messages,
                f.delayed,
                f.duplicated,
                f.dropped,
                f.retries,
                f.exhausted,
            ];
            self.cycles += fields[0];
            self.stall_cycles += fields[1];
            self.events_popped += fields[2];
            self.peak_queue_len = self.peak_queue_len.max(fields[3]);
            self.messages += fields[4];
            self.delayed += fields[5];
            self.duplicated += fields[6];
            self.dropped += fields[7];
            self.retries += fields[8];
            self.exhausted += fields[9];
        }
        for v in fields {
            for b in v.to_le_bytes() {
                self.digest = (self.digest ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
            }
        }
    }
}

/// The oracle's chaos sweep shape for one DRF0 program: every machine ×
/// every fault profile, fault seeds drawn from the generation seed.
fn sweep_cells(program: &litmus::Program, seed: u64) -> Vec<MachineConfig> {
    let mut rng = SplitMix64::new(seed ^ 0xC4A0_5000);
    let mut cells = Vec::new();
    for (_, policy) in machines() {
        for (_, fault, _) in profiles() {
            cells.push(MachineConfig {
                chaos: Some(fault),
                ..presets::network_cached(program.num_threads(), policy, rng.next_u64())
            });
        }
    }
    cells
}

/// Traced run over the fixed range, so every count repeats exactly: each
/// seed's generate and oracle calls, then the engines, the chaos sweep
/// and the SC checks re-run standalone, each in its span; then
/// `run_campaign` over the range, checked against the per-seed tally.
fn traced(ctx: &RunCtx, out: &mut Outcome) {
    let end = if ctx.smoke { 4 } else { seed_end(ctx) };
    let oracle = oracle_cfg();
    let ecfg: ExploreConfig = oracle.explore;
    let acfg = AxiomConfig::from_explore(&ecfg);
    let mut tr = Tracer::new();
    let mut serial = FamilyTally::new();
    let mut sim = SimStats::default();
    let (mut work, mut accepted, mut steps) = (0u64, 0u64, 0u64);
    let mut measured_us = 0.0;
    let wall0 = Instant::now();
    for seed in 0..end {
        let root = tr.begin("bench.item", None, seed);
        let (gp, g) = tr.time("fuzz.gen", Some(root), seed, || generate(seed, &gen_cfg()));
        let (verdict, o) = tr.time("fuzz.oracle", Some(root), seed, || check_seed(&gp, &oracle));
        measured_us += us(g + o);
        record(seed, gp.family().name(), &verdict, &mut serial, out);

        let (report, _) = tr.time("axiom", Some(root), seed, || analyze(&gp.program, &acfg));
        work += report.work;
        accepted += u64::from(report.complete);
        let (s, _) = tr.time("litmus.explore", Some(root), seed, || {
            explore_dpor(&gp.program, &ecfg).steps + explore_results(&gp.program, &ecfg).steps
        });
        steps += s as u64;

        if gp.label == Label::Drf0 {
            let configs = sweep_cells(&gp.program, seed);
            let cells: Vec<Cell> = configs
                .iter()
                .map(|&config| Cell {
                    program: &gp.program,
                    config,
                })
                .collect();
            let (outcomes, _) = tr.time("memsim.sweep", Some(root), seed, || sweep(&cells, 1));
            let mut again = SimStats::default();
            for o in &sweep(&cells, RunCtx::threads()) {
                again.add(o);
            }
            let mut mine = SimStats::default();
            for o in &outcomes {
                mine.add(o);
                if let Some(r) = o.ok().filter(|r| r.completed) {
                    let (consistent, _) =
                        tr.time("memory-model.check_sc", Some(root), seed, || {
                            check_sc(
                                &r.observation(),
                                &gp.program.initial_memory(),
                                &ScCheckConfig::default(),
                            )
                            .is_consistent()
                        });
                    if !consistent {
                        out.fail(format!("seed {seed}: a completed chaos run is not SC"));
                    }
                }
            }
            if mine != again {
                out.fail(format!(
                    "seed {seed}: simulated statistics differ between 1 and {} sweep threads",
                    RunCtx::threads()
                ));
            }
            for o in &outcomes {
                sim.add(o);
            }
        }
        tr.end(root);
    }
    let wall = wall0.elapsed();
    check_summary(&run_campaign(&campaign_cfg(end)), end, &serial, out);

    let layers = tr.layers();
    let get = |name: &str| layers.get(name).cloned().unwrap_or_default();
    for (span, metric) in [("fuzz.gen", "fuzz.gen"), ("fuzz.oracle", "fuzz.oracle")] {
        let l = get(span);
        out.put(format!("{metric}.calls"), l.calls as f64, "count");
        out.put(format!("{metric}.busy_ms"), l.busy_ms(), "ms");
        out.put(format!("{metric}.p90_ms"), l.q_us(0.9) / 1e3, "ms");
    }
    let axiom = get("axiom");
    out.put("axiom.calls", axiom.calls as f64, "count");
    out.put("axiom.busy_ms", axiom.busy_ms(), "ms");
    out.put("axiom.p99_us", axiom.q_us(0.99), "us");
    out.put("axiom.accepted", accepted as f64, "count");
    out.put("axiom.work", work as f64, "count");
    let explore = get("litmus.explore");
    out.put("litmus.explore.calls", explore.calls as f64, "count");
    out.put("litmus.explore.busy_ms", explore.busy_ms(), "ms");
    out.put("litmus.explore.p99_us", explore.q_us(0.99), "us");
    out.put("litmus.explore.steps", steps as f64, "count");
    let sweep_l = get("memsim.sweep");
    let sweep_ms = sweep_l.busy_ms();
    out.put("memsim.sweep.cells", sim.cells as f64, "count");
    out.put("memsim.sweep.busy_ms", sweep_ms, "ms");
    out.put(
        "memsim.sweep.cells_per_s",
        sim.cells as f64 / (sweep_ms / 1e3).max(1e-9),
        "1/s",
    );
    out.put("memsim.sweep.sim_cycles", sim.cycles as f64, "cycles");
    out.put(
        "memsim.sweep.stall_cycles",
        sim.stall_cycles as f64,
        "cycles",
    );
    out.put(
        "memsim.sweep.events_popped",
        sim.events_popped as f64,
        "count",
    );
    out.put(
        "memsim.sweep.host_ns_per_sim_event",
        sweep_ms * 1e6 / (sim.events_popped.max(1)) as f64,
        "ns",
    );
    out.put(
        "memsim.sweep.peak_queue_len",
        sim.peak_queue_len as f64,
        "count",
    );
    // 48 bits, so the digest survives a JSON double exactly.
    out.put(
        "memsim.sweep.stats_digest",
        (sim.digest >> 16) as f64,
        "hash",
    );
    out.put("coherence.messages", sim.messages as f64, "count");
    out.put("simx.fault.delayed", sim.delayed as f64, "count");
    out.put("simx.fault.duplicated", sim.duplicated as f64, "count");
    out.put("simx.fault.dropped", sim.dropped as f64, "count");
    out.put("simx.fault.retries", sim.retries as f64, "count");
    out.put("simx.fault.exhausted", sim.exhausted as f64, "count");
    let sc = get("memory-model.check_sc");
    out.put("memory-model.check_sc.calls", sc.calls as f64, "count");
    out.put("memory-model.check_sc.busy_ms", sc.busy_ms(), "ms");
    out.put(
        "bench.trace_overhead_ratio",
        us(wall) / measured_us.max(1e-9),
        "ratio",
    );
    out.notes.push(format!(
        "fuzz traced: seeds 0..{end} simulated-statistics digest {:#014x} (memsim is unvalidated against hardware)",
        sim.digest >> 16,
    ));
    tr.write_jsonl(&ctx.out_dir, "fuzz-seeds", ctx.seed);
}
