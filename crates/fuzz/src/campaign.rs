//! The parallel campaign driver.
//!
//! A campaign sweeps a seed range through generate → oracle on the
//! workspace's work-stealing pool ([`memsim::pool::run_until`]): a worker
//! grabs the next unclaimed seed the moment it finishes its current one,
//! so slow seeds never stall the queue behind a static partition.
//!
//! **Determinism:** every per-seed verdict is a pure function of
//! (seed, [`GenConfig`], [`OracleConfig`]) — worker threads only decide
//! *who* computes each seed, never *what* the answer is. The pool returns
//! records in seed order, and failing seeds are shrunk single-threaded in
//! seed order, so a fixed seed range yields an identical summary at any
//! `--threads` value. The one exception is the optional wall-clock
//! budget, the pool's stop check, which truncates the range
//! scheduling-dependently; summaries then say so
//! ([`CampaignSummary::truncated`]).
//!
//! **Remote verdicts:** with [`OracleConfig::remote`] set, the driver
//! first prefetches the whole corpus's DRF0 verdicts over one pipelined
//! `wo-serve/2` batch connection (deduplicated by program text) and hands
//! workers the answer map; per-seed `wo-serve/1` round trips only happen
//! for prefetch misses (shrink candidates, seeds the daemon did not
//! answer), for ranges too large to prefetch, or after a client failure —
//! and every rung of that ladder returns the same verdicts, so summaries
//! stay byte-identical across wire paths.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::Arc;
use std::time::{Duration, Instant};

use litmus::explore::Drf0Verdict;

use litmus::explore::drf0_verdict;
use litmus::serialize::{to_litmus, Expectation};
use memsim::pool::run_until;

use crate::gen::{generate, GenConfig, GenProgram, Label};
use crate::oracle::{check_seed, FindingKind, OracleConfig, SeedVerdict};
use crate::shrink::shrink;

/// Campaign parameters.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// First seed (inclusive).
    pub seed_start: u64,
    /// Last seed (exclusive).
    pub seed_end: u64,
    /// Worker threads (0 means "available parallelism").
    pub threads: usize,
    /// Generator knobs.
    pub gen: GenConfig,
    /// Oracle knobs.
    pub oracle: OracleConfig,
    /// Optional wall-clock budget; exceeding it stops workers after their
    /// current seed. Breaks fixed-range determinism (summary says so).
    pub max_seconds: Option<u64>,
    /// Minimize failing programs after the sweep.
    pub shrink_failures: bool,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        CampaignConfig {
            seed_start: 0,
            seed_end: 1000,
            threads: 0,
            gen: GenConfig::default(),
            oracle: OracleConfig::default(),
            max_seconds: None,
            shrink_failures: true,
        }
    }
}

/// One seed's outcome, retained for the summary.
#[derive(Debug, Clone)]
pub struct SeedRecord {
    /// The generation seed.
    pub seed: u64,
    /// The generated program's stable name.
    pub name: String,
    /// The static label the oracle held the program to.
    pub label: Label,
    /// The oracle's verdict.
    pub verdict: SeedVerdict,
}

/// A failing seed, with its minimized reproduction.
#[derive(Debug, Clone)]
pub struct FailureReport {
    /// The failing seed's record.
    pub record: SeedRecord,
    /// Findings, rendered.
    pub findings: Vec<String>,
    /// Minimized failing program in `.litmus` form (when shrinking ran).
    pub repro: Option<String>,
    /// Static memory operations in the minimized program.
    pub repro_ops: Option<usize>,
}

/// Aggregate campaign outcome.
#[derive(Debug, Clone)]
pub struct CampaignSummary {
    /// Seeds actually checked.
    pub seeds_run: u64,
    /// Seeds where every oracle check passed.
    pub passes: u64,
    /// Seeds skipped because the exploration budget gave out.
    pub budget_exceeded: u64,
    /// Real failures with repros, in seed order.
    pub failures: Vec<FailureReport>,
    /// Per-family (runs, passes, unknown) tallies, keyed by primary family
    /// name. `unknown` counts seeds whose exploration budget gave out:
    /// they are explicit rows, not silently folded into "didn't pass", so
    /// a family whose programs routinely outgrow the budget is visible as
    /// such in every summary.
    pub per_family: BTreeMap<&'static str, (u64, u64, u64)>,
    /// Whether a wall-clock budget cut the sweep short (summary then
    /// depends on scheduling; fixed-range sweeps are deterministic).
    pub truncated: bool,
    /// Worker threads actually used.
    pub threads_used: usize,
    /// Wall-clock duration of the sweep (excluding shrinking).
    pub sweep_time: Duration,
}

impl CampaignSummary {
    /// Whether the campaign found any real failure.
    #[must_use]
    pub fn failed(&self) -> bool {
        !self.failures.is_empty()
    }
}

/// The largest seed range the batch prefetch will materialize up front.
/// Wall-clock-budgeted sweeps over effectively unbounded ranges keep the
/// per-seed remote path instead.
const MAX_PREFETCH_SEEDS: u64 = 1 << 16;

/// Prefetches the corpus's DRF0 verdicts over one pipelined `wo-serve/2`
/// connection: generate every program in the range (cheap and
/// deterministic), deduplicate by program text, stream the whole corpus as
/// batch queries, and hand workers the answer map. `None` — and therefore
/// the unchanged per-seed remote-then-local ladder — on any client
/// failure or an unbounded range.
fn prefetch_remote_verdicts(
    cfg: &CampaignConfig,
) -> Option<Arc<HashMap<String, Drf0Verdict>>> {
    use wo_serve::client::{BatchClient, ClientConfig};

    let addr = cfg.oracle.remote.as_deref()?;
    let span = cfg.seed_end.saturating_sub(cfg.seed_start);
    if span == 0 || span > MAX_PREFETCH_SEEDS {
        return None;
    }

    let mut seen = HashSet::new();
    let mut texts = Vec::new();
    let mut requests = Vec::new();
    for seed in cfg.seed_start..cfg.seed_end {
        let text = generate(seed, &cfg.gen).program.to_string();
        if seen.insert(text.clone()) {
            requests.push(crate::oracle::drf0_request(text.clone(), &cfg.oracle.explore));
            texts.push(text);
        }
    }

    let mut client = BatchClient::new(ClientConfig::new(addr));
    let responses = client.query_batch(&requests).ok()?;
    let mut map = HashMap::with_capacity(texts.len());
    for (text, response) in texts.into_iter().zip(&responses) {
        // Non-verdict answers (per-item shed, budget rejection, …) are
        // simply absent from the map; those seeds take the per-seed
        // ladder like any prefetch miss.
        if let Some(verdict) = crate::oracle::verdict_from_response(response) {
            map.insert(text, verdict);
        }
    }
    Some(Arc::new(map))
}

/// Runs a campaign. See the module docs for the determinism contract.
#[must_use]
pub fn run_campaign(cfg: &CampaignConfig) -> CampaignSummary {
    let threads = if cfg.threads == 0 {
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
    } else {
        cfg.threads
    };
    let deadline = cfg.max_seconds.map(|s| Instant::now() + Duration::from_secs(s));
    let started = Instant::now();

    // Batch prefetch counts toward the sweep clock and the wall-clock
    // budget: it is the same verdict work, just moved onto one pipelined
    // connection instead of a round trip per seed.
    let mut oracle = cfg.oracle.clone();
    if oracle.prefetched.is_none() {
        oracle.prefetched = prefetch_remote_verdicts(cfg);
    }
    let oracle = &oracle;

    // The pool claims seeds in order and returns them in seed order; the
    // deadline stops workers before their next claim.
    let span = usize::try_from(cfg.seed_end.saturating_sub(cfg.seed_start))
        .unwrap_or(usize::MAX);
    let records = run_until(
        span,
        threads,
        || (),
        |(), i| {
            let seed = cfg.seed_start + i as u64;
            let gp = generate(seed, &cfg.gen);
            let verdict = check_seed(&gp, oracle);
            SeedRecord { seed, name: gp.name(), label: gp.label, verdict }
        },
        || deadline.is_some_and(|d| Instant::now() >= d),
    );
    let sweep_time = started.elapsed();
    let truncated = records.len() < span;

    let mut summary = CampaignSummary {
        seeds_run: records.len() as u64,
        passes: 0,
        budget_exceeded: 0,
        failures: Vec::new(),
        per_family: BTreeMap::new(),
        truncated,
        threads_used: threads,
        sweep_time,
    };

    for record in records {
        let gp = generate(record.seed, &cfg.gen);
        let family = summary.per_family.entry(gp.family().name()).or_insert((0, 0, 0));
        family.0 += 1;
        match &record.verdict {
            SeedVerdict::Pass => {
                family.1 += 1;
                summary.passes += 1;
            }
            SeedVerdict::BudgetExceeded(_) => {
                family.2 += 1;
                summary.budget_exceeded += 1;
            }
            SeedVerdict::Fail(findings) => {
                let findings: Vec<String> =
                    findings.iter().map(ToString::to_string).collect();
                let (repro, repro_ops) = if cfg.shrink_failures {
                    let minimized = shrink_failure(&gp, cfg);
                    let ops = minimized.program.static_memory_ops();
                    let text = to_litmus(
                        &minimized.program,
                        &format!("{} (minimized)", record.name),
                        match record.label {
                            Label::Drf0 => Expectation::Drf0,
                            Label::Racy => Expectation::Racy,
                        },
                    );
                    (Some(text), Some(ops))
                } else {
                    (None, None)
                };
                summary.failures.push(FailureReport {
                    record,
                    findings,
                    repro,
                    repro_ops,
                });
            }
        }
    }
    summary
}

/// Minimizes a failing seed's program: a candidate still "fails" when the
/// oracle (same config, including any injected bug) reports a finding of
/// the same class as one of the original findings.
///
/// Machine-level failures take a fast path — the candidate is held to its
/// static label via [`litmus::explore::drf0_verdict`] (so shrinking never
/// drifts a DRF0 witness into racy territory, where Definition 2 promises
/// nothing) and then only the originally-failing (machine, profile,
/// fault_seed) triples are re-run, not the full nine-triple sweep. Label
/// mismatches and racy shakeouts re-run the whole (cheap) oracle.
pub(crate) fn shrink_failure(
    gp: &GenProgram,
    cfg: &CampaignConfig,
) -> crate::shrink::ShrinkOutcome {
    let findings = match check_seed(gp, &cfg.oracle) {
        SeedVerdict::Fail(findings) => findings,
        _ => Vec::new(), // raced-away failure: shrink degenerates to identity
    };
    let original_classes: Vec<_> = findings.iter().map(|f| class_of(&f.kind)).collect();
    let triples: Vec<(&'static str, &'static str, u64)> = findings
        .iter()
        .filter_map(|f| Some((f.machine?, f.profile?, f.fault_seed?)))
        .filter(|(_, p, _)| *p != "none")
        .collect();

    let template = gp.clone();
    shrink(&gp.program, move |candidate| {
        if !triples.is_empty() {
            if drf0_verdict(candidate, &cfg.oracle.explore) != expected_verdict(template.label)
            {
                return false;
            }
            return crate::oracle::recheck_triples(candidate, &cfg.oracle, &triples)
                .iter()
                .any(|k| original_classes.contains(&class_of(k)));
        }
        let synthetic = GenProgram { program: candidate.clone(), ..template.clone() };
        match check_seed(&synthetic, &cfg.oracle) {
            SeedVerdict::Fail(findings) => findings
                .iter()
                .any(|f| original_classes.contains(&class_of(&f.kind))),
            _ => false,
        }
    })
}

fn expected_verdict(label: Label) -> litmus::explore::Drf0Verdict {
    match label {
        Label::Drf0 => litmus::explore::Drf0Verdict::Drf0,
        Label::Racy => litmus::explore::Drf0Verdict::Racy,
    }
}

fn class_of(kind: &FindingKind) -> std::mem::Discriminant<FindingKind> {
    std::mem::discriminant(kind)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::Family;
    use litmus::explore::ExploreConfig;

    /// Keeps debug-mode tests fast: seeds whose interleaving space outruns
    /// this budget are counted as budget-exceeded, which is fine.
    fn test_oracle() -> OracleConfig {
        OracleConfig {
            explore: ExploreConfig {
                max_ops_per_execution: 48,
                max_total_steps: 150_000,
                ..ExploreConfig::default()
            },
            ..OracleConfig::default()
        }
    }

    fn small_cfg(seeds: u64) -> CampaignConfig {
        CampaignConfig {
            seed_start: 0,
            seed_end: seeds,
            threads: 2,
            oracle: test_oracle(),
            shrink_failures: false,
            ..CampaignConfig::default()
        }
    }

    #[test]
    fn summary_is_identical_across_thread_counts() {
        let mut one = small_cfg(14);
        one.threads = 1;
        let mut four = small_cfg(14);
        four.threads = 4;
        let a = run_campaign(&one);
        let b = run_campaign(&four);
        assert_eq!(a.seeds_run, b.seeds_run);
        assert_eq!(a.passes, b.passes);
        assert_eq!(a.budget_exceeded, b.budget_exceeded);
        assert_eq!(a.per_family, b.per_family);
        assert_eq!(
            a.failures.iter().map(|f| f.record.seed).collect::<Vec<_>>(),
            b.failures.iter().map(|f| f.record.seed).collect::<Vec<_>>()
        );
        assert_eq!(a.threads_used, 1);
        assert_eq!(b.threads_used, 4);
    }

    #[test]
    fn clean_campaign_has_no_failures() {
        let summary = run_campaign(&small_cfg(14));
        assert!(!summary.failed(), "failures: {:?}", summary.failures);
        assert_eq!(summary.passes + summary.budget_exceeded, summary.seeds_run);
        assert!(summary.passes > 0);
    }

    /// The end-to-end defect drill: inject the historical state-only prune
    /// bug into the SC reference, sweep a window of seeds containing
    /// single-phase `mp_unrolled` programs (the family whose converging
    /// read histories witness the bug), and demand the campaign catch it
    /// and shrink the witness to a handful of operations.
    #[test]
    fn injected_prune_bug_is_caught_and_shrunk_small() {
        // Locate witness candidates by pure generation (cheap).
        let gen_cfg = GenConfig::default();
        let candidates: Vec<u64> = (0..500)
            .filter(|&s| generate(s, &gen_cfg).phases == [Family::MpUnrolled])
            .take(6)
            .collect();
        assert!(!candidates.is_empty(), "no mp_unrolled seeds in 0..500");

        let mut caught = None;
        for &seed in &candidates {
            let mut cfg = CampaignConfig {
                seed_start: seed,
                seed_end: seed + 1,
                threads: 1,
                oracle: test_oracle(),
                shrink_failures: true,
                ..CampaignConfig::default()
            };
            cfg.oracle.inject_prune_bug = true;
            let summary = run_campaign(&cfg);
            if summary.failed() {
                caught = Some(summary);
                break;
            }
        }
        let summary = caught.unwrap_or_else(|| {
            panic!("injected prune bug not caught on any of {candidates:?}")
        });
        let best = summary
            .failures
            .iter()
            .filter_map(|f| f.repro_ops)
            .min()
            .expect("failures were shrunk");
        assert!(
            best <= 6,
            "minimized repro should be tiny (<= 6 static memory ops), got {best}"
        );
        for f in &summary.failures {
            assert!(
                f.findings.iter().any(|s| s.contains("outside the SC outcome set")),
                "prune-bug failures are containment failures: {:?}",
                f.findings
            );
        }
    }

    /// The axiomatic defect drill: plant the hb-check bug in the
    /// relational engine's fast path, sweep seeds whose generated program
    /// is a pure write/write race (the only shape the planted defect
    /// mis-certifies), and demand the campaign catch the divergence and
    /// shrink it to a tiny `.litmus` repro.
    #[test]
    fn injected_hb_bug_is_caught_and_shrunk_small() {
        use litmus::Instr;

        let gen_cfg = GenConfig::default();
        // Pure-writer RacyPlain instances: no reads anywhere, so the only
        // conflicts are write/write — exactly what the defect skips.
        let candidates: Vec<u64> = (0..2000)
            .filter(|&s| {
                let gp = generate(s, &gen_cfg);
                gp.phases == [Family::RacyPlain]
                    && gp.program.threads().iter().all(|t| {
                        t.instrs().iter().all(|i| !matches!(i, Instr::Read { .. }))
                    })
            })
            .take(4)
            .collect();
        assert!(!candidates.is_empty(), "no pure-writer racy_plain seeds in 0..2000");

        let mut caught = None;
        for &seed in &candidates {
            let mut cfg = CampaignConfig {
                seed_start: seed,
                seed_end: seed + 1,
                threads: 1,
                oracle: test_oracle(),
                shrink_failures: true,
                ..CampaignConfig::default()
            };
            cfg.oracle.inject_hb_bug = true;
            let summary = run_campaign(&cfg);
            if summary.failed() {
                caught = Some(summary);
                break;
            }
        }
        let summary = caught.unwrap_or_else(|| {
            panic!("injected hb bug not caught on any of {candidates:?}")
        });
        for f in &summary.failures {
            assert!(
                f.findings.iter().any(|s| s.contains("verdict divergence")),
                "hb-bug failures are verdict divergences: {:?}",
                f.findings
            );
        }
        let best = summary
            .failures
            .iter()
            .filter_map(|f| f.repro_ops)
            .min()
            .expect("failures were shrunk");
        assert!(
            best <= 4,
            "minimized repro should be tiny (<= 4 static memory ops), got {best}"
        );
    }

    /// Budget-exhausted seeds must surface as explicit per-family unknown
    /// rows: every family's columns add up, the unknown columns sum to the
    /// campaign-wide `budget_exceeded`, and a starvation budget moves
    /// seeds from `passed` to `unknown` rather than dropping them.
    #[test]
    fn budget_exhausted_seeds_are_explicit_unknown_rows() {
        let generous = run_campaign(&small_cfg(20));
        let mut starved_cfg = small_cfg(20);
        starved_cfg.oracle.explore.max_total_steps = 40;
        let starved = run_campaign(&starved_cfg);

        for summary in [&generous, &starved] {
            let unknown_sum: u64 =
                summary.per_family.values().map(|(_, _, u)| u).sum();
            assert_eq!(unknown_sum, summary.budget_exceeded);
            let failed_by_family: u64 = summary
                .per_family
                .values()
                .map(|(runs, passes, unknown)| runs - passes - unknown)
                .sum();
            assert_eq!(failed_by_family, summary.failures.len() as u64);
            assert_eq!(
                summary.passes + summary.budget_exceeded + summary.failures.len() as u64,
                summary.seeds_run
            );
        }
        assert_eq!(starved.seeds_run, generous.seeds_run);
        assert!(
            starved.budget_exceeded > generous.budget_exceeded,
            "starvation must show up as unknowns: {} vs {}",
            starved.budget_exceeded,
            generous.budget_exceeded
        );
    }

    /// The wire path must be invisible in the summary: local verdicts,
    /// per-seed v1 round trips, and the pipelined batch prefetch all
    /// produce identical per-family tables and tallies. The batched run
    /// must actually have used batch frames (the server's depth histogram
    /// says so), not fallen back to the per-seed path.
    #[test]
    fn remote_summaries_match_local_ones_on_both_wire_paths() {
        use wo_serve::client::{ClientConfig, ServeClient};
        use wo_serve::protocol::{QueryKind, Request, Response};
        use wo_serve::server::{Server, ServerConfig};

        let handle = Server::spawn(ServerConfig::default()).expect("spawn server");
        let addr = handle.addr().to_string();

        let local = run_campaign(&small_cfg(12));

        // An empty prefetched map skips the batch prefetch, so every
        // seed takes the per-seed v1 ladder.
        let mut v1_cfg = small_cfg(12);
        v1_cfg.oracle.remote = Some(addr.clone());
        v1_cfg.oracle.prefetched = Some(Arc::new(HashMap::new()));
        let v1 = run_campaign(&v1_cfg);

        let mut batched_cfg = small_cfg(12);
        batched_cfg.oracle.remote = Some(addr.clone());
        let batched = run_campaign(&batched_cfg);

        for (name, summary) in [("v1", &v1), ("batched", &batched)] {
            assert_eq!(summary.per_family, local.per_family, "{name} per-family table");
            assert_eq!(summary.seeds_run, local.seeds_run, "{name} seeds_run");
            assert_eq!(summary.passes, local.passes, "{name} passes");
            assert_eq!(
                summary.budget_exceeded, local.budget_exceeded,
                "{name} budget_exceeded"
            );
            assert_eq!(
                summary.failures.iter().map(|f| f.record.seed).collect::<Vec<_>>(),
                local.failures.iter().map(|f| f.record.seed).collect::<Vec<_>>(),
                "{name} failing seeds"
            );
        }

        let mut stats_client = ServeClient::new(ClientConfig::new(addr));
        match stats_client.query(&Request::new(QueryKind::Stats, "")).unwrap() {
            Response::Stats(stats) => assert!(
                stats.batch_depth.iter().sum::<u64>() >= 1,
                "the batched campaign never sent a batch frame: {stats:?}"
            ),
            other => panic!("unexpected {other:?}"),
        }
        handle.shutdown();
    }

    #[test]
    fn wall_clock_budget_marks_summary_truncated() {
        let cfg = CampaignConfig {
            seed_start: 0,
            seed_end: u64::MAX,
            threads: 1,
            max_seconds: Some(0),
            shrink_failures: false,
            ..CampaignConfig::default()
        };
        let summary = run_campaign(&cfg);
        assert!(summary.truncated);
        assert_eq!(summary.seeds_run, 0);
    }
}
