//! The differential oracle: one generated program in, a verdict out.
//!
//! For every seed the oracle performs three independent checks:
//!
//! * **Label soundness** — the generator's construction-time DRF0/racy
//!   claim is replayed against [`litmus::explore::drf0_verdict`], which
//!   drives the dynamic vector-clock race detector over every idealized
//!   interleaving. A mismatch is a bug in the generator's reasoning (or
//!   the detector) and fails the seed.
//! * **Definition 2** — DRF0-labeled programs are audited
//!   ([`weakord::verify::audit`]) on the chaos grid: the three
//!   weak-ordering machine classes under fault-injecting interconnects.
//!   Every completed run must pass the `check_sc` appearance test and
//!   produce a result inside the idealized SC outcome set. Structured
//!   aborts are tolerated only under message-losing profiles; panics
//!   never are. Each failing run's verdict maps to one [`FindingKind`].
//! * **Racy shakeout** — racy-labeled programs get one plain machine run
//!   purely to catch panics; no SC assertion is made (Definition 2
//!   promises nothing for racy software).
//!
//! Programs whose interleaving space outgrows the exploration budget are
//! reported as [`SeedVerdict::BudgetExceeded`], not failures.
//!
//! # The injected bug
//!
//! [`OracleConfig::inject_prune_bug`] swaps the SC reference enumeration
//! for [`buggy_sc_outcomes`], a faithful re-implementation of a real
//! historical defect: pruning the result-set DFS on architectural state
//! alone. Two paths that converge on the same (threads, memory) state but
//! carry different read-value histories represent *different results*;
//! state-only pruning silently drops one of them, so a perfectly legal
//! machine run is then flagged as "outside the SC set". The campaign must
//! catch this and shrink it to a tiny repro — that is the end-to-end test
//! that the whole apparatus actually detects oracle-level defects.

use std::cell::RefCell;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use litmus::explore::{
    drf0_verdict, sc_outcomes, Drf0Verdict, ExploreConfig, IncompleteReason,
    ScOutcomes,
};
use litmus::ideal::{IdealState, StepOutcome};
use litmus::Program;
use memory_model::ExecutionResult;
use memsim::presets;
use memsim::sweep::{sweep, Cell, CellOutcome};
use simx::rng::SplitMix64;
use weakord::verify::{audit, chaos_run, AuditRun, CellVerdict};
use wo_serve::client::{ClientConfig, ServeClient};

use crate::gen::{GenProgram, Label};

/// Oracle knobs. The defaults match the chaos-litmus sweep.
#[derive(Debug, Clone)]
pub struct OracleConfig {
    /// Exploration budget for both the DRF0 verdict and the SC reference.
    pub explore: ExploreConfig,
    /// Fault-plan seeds per (machine, profile); derived deterministically
    /// from the generation seed.
    pub fault_seeds: u64,
    /// Replace the SC reference enumeration with the historical
    /// state-only-pruning bug (see module docs). Test/demo only.
    pub inject_prune_bug: bool,
    /// Ask the `wo-axiom` relational engine for a second opinion on every
    /// seed: DRF0 verdicts must match the operational explorer whenever
    /// both are definitive, and SC outcome sets must be equal whenever
    /// both enumerations complete. The axiomatic engine shares no code
    /// with the interleaving explorer on the deciding path, so agreement
    /// here is genuine cross-validation, not an echo.
    pub axiom: bool,
    /// Plant a defect in the axiomatic engine's Lemma 1 fast path (skip
    /// the happens-before check on write/write conflict pairs), so the
    /// campaign can prove the differential gate catches real axiomatic
    /// bugs. Test/demo only.
    pub inject_hb_bug: bool,
    /// Address of a wo-serve daemon to ask for DRF0 verdicts
    /// (`host:port`). The daemon's canonical-form cache makes repeated
    /// campaigns over overlapping corpora cheap; any client-side failure
    /// (connection refused, retries exhausted, permanent error) falls back
    /// to computing the verdict locally, so a flaky or absent daemon can
    /// slow a campaign down but never change its verdicts.
    pub remote: Option<String>,
    /// Verdicts already fetched for this corpus, keyed by program text.
    /// Filled by the campaign driver's batch prefetch; consulted before
    /// any per-seed network round trip. Misses (e.g. shrink candidates,
    /// which are not in the generated corpus) fall through to the
    /// per-seed remote-then-local ladder.
    pub prefetched: Option<Arc<HashMap<String, Drf0Verdict>>>,
}

impl Default for OracleConfig {
    fn default() -> Self {
        OracleConfig {
            explore: ExploreConfig {
                max_ops_per_execution: 64,
                max_total_steps: 3_000_000,
                ..ExploreConfig::default()
            },
            fault_seeds: 1,
            inject_prune_bug: false,
            axiom: true,
            inject_hb_bug: false,
            remote: None,
            prefetched: None,
        }
    }
}

/// What went wrong for a failing seed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FindingKind {
    /// The static label disagreed with the dynamic race verdict.
    LabelMismatch {
        /// What the generator claimed.
        claimed: Label,
        /// What exploration + the vector-clock detector concluded.
        dynamic: Drf0Verdict,
    },
    /// A completed machine run failed the SC appearance test.
    NotSc,
    /// A completed machine run produced a result outside the reference SC
    /// outcome set — a Definition 2 violation (or, with the injected bug,
    /// a hole in the reference).
    OutsideScSet,
    /// The machine aborted where the fault profile cannot justify it.
    UnexpectedAbort {
        /// The structured error, rendered.
        error: String,
    },
    /// The machine panicked. Never acceptable.
    Panic,
    /// The machine returned without completing all program threads.
    Incomplete,
    /// The axiomatic engine and the operational explorer were both
    /// definitive and disagreed on the DRF0 verdict.
    AxiomVerdictDivergence {
        /// The relational engine's verdict.
        axiomatic: wo_axiom::AxiomVerdict,
        /// The interleaving explorer's verdict.
        operational: Drf0Verdict,
    },
    /// Both enumerations completed but produced different SC outcome
    /// sets.
    AxiomScSetDivergence {
        /// Distinct results the axiomatic engine emitted.
        axiomatic: usize,
        /// Distinct results the operational enumeration found.
        operational: usize,
    },
}

impl std::fmt::Display for FindingKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FindingKind::LabelMismatch { claimed, dynamic } => {
                write!(f, "label mismatch: claimed {claimed}, dynamic {dynamic}")
            }
            FindingKind::NotSc => write!(f, "completed run failed check_sc"),
            FindingKind::OutsideScSet => {
                write!(f, "completed run outside the SC outcome set")
            }
            FindingKind::UnexpectedAbort { error } => {
                write!(f, "unexpected abort: {error}")
            }
            FindingKind::Panic => write!(f, "machine panicked"),
            FindingKind::Incomplete => write!(f, "machine run incomplete"),
            FindingKind::AxiomVerdictDivergence { axiomatic, operational } => {
                write!(
                    f,
                    "axiomatic/operational verdict divergence: axiomatic {axiomatic}, \
                     operational {operational}"
                )
            }
            FindingKind::AxiomScSetDivergence { axiomatic, operational } => {
                write!(
                    f,
                    "axiomatic/operational SC set divergence: axiomatic {axiomatic} \
                     results, operational {operational}"
                )
            }
        }
    }
}

/// A concrete failure with everything needed to replay it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// The failure class.
    pub kind: FindingKind,
    /// Machine preset name, when a machine run was involved.
    pub machine: Option<&'static str>,
    /// Fault profile name, when a machine run was involved.
    pub profile: Option<&'static str>,
    /// Fault-plan seed, when a machine run was involved.
    pub fault_seed: Option<u64>,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.kind)?;
        if let (Some(m), Some(p), Some(s)) =
            (self.machine, self.profile, self.fault_seed)
        {
            write!(f, " [machine={m} profile={p} fault_seed={s}]")?;
        }
        Ok(())
    }
}

/// The oracle's verdict for one seed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SeedVerdict {
    /// Every check passed.
    Pass,
    /// The exploration budget gave out before a verdict; not a failure.
    BudgetExceeded(IncompleteReason),
    /// At least one check failed.
    Fail(Vec<Finding>),
}

impl SeedVerdict {
    /// Whether this verdict is a real failure.
    #[must_use]
    pub fn is_fail(&self) -> bool {
        matches!(self, SeedVerdict::Fail(_))
    }
}

/// The chaos grid the Definition 2 sweep audits: machine presets and
/// fault profiles (with whether each may legitimately wedge a run).
pub use weakord::verify::{machines, profiles};

/// Runs the full oracle against one generated program.
#[must_use]
pub fn check_seed(gp: &GenProgram, cfg: &OracleConfig) -> SeedVerdict {
    // 1. Label soundness: static claim vs dynamic vector-clock verdict.
    let dynamic = dynamic_verdict(&gp.program, cfg);
    match (&gp.label, &dynamic) {
        (_, Drf0Verdict::BudgetExceeded(reason)) => {
            return SeedVerdict::BudgetExceeded(*reason);
        }
        (Label::Drf0, Drf0Verdict::Racy) | (Label::Racy, Drf0Verdict::Drf0) => {
            return SeedVerdict::Fail(vec![Finding {
                kind: FindingKind::LabelMismatch { claimed: gp.label, dynamic },
                machine: None,
                profile: None,
                fault_seed: None,
            }]);
        }
        _ => {}
    }

    // 2. Axiomatic second opinion: the relational engine must agree with
    // the (definitive, at this point) operational verdict, and with the
    // honest SC enumeration whenever both complete.
    let mut honest = None;
    if cfg.axiom {
        match axiom_cross_check(&gp.program, cfg, &dynamic) {
            Ok(set) => honest = set,
            Err(finding) => return SeedVerdict::Fail(vec![finding]),
        }
    }

    match gp.label {
        Label::Drf0 => check_drf0_program(gp, cfg, honest),
        Label::Racy => racy_shakeout(gp),
    }
}

/// Compares the `wo-axiom` relational engine against the operational
/// explorer on one program. `operational` is already definitive (budget
/// exhaustion returned earlier). Only both-definitive verdicts and
/// both-complete outcome sets are compared; an `Unknown` axiomatic run is
/// never a finding — the engine is allowed to give up, just not to
/// disagree. `Ok` carries the honest SC enumeration when the comparison
/// ran it, for the Definition 2 sweep to reuse.
fn axiom_cross_check(
    program: &Program,
    cfg: &OracleConfig,
    operational: &Drf0Verdict,
) -> Result<Option<ScOutcomes>, Finding> {
    use wo_axiom::{analyze, AxiomConfig, AxiomVerdict};

    let acfg = AxiomConfig {
        inject_hb_bug: cfg.inject_hb_bug,
        ..AxiomConfig::from_explore(&cfg.explore)
    };
    let report = analyze(program, &acfg);
    let diverged = matches!(
        (report.verdict, operational),
        (AxiomVerdict::Drf0, Drf0Verdict::Racy) | (AxiomVerdict::Racy, Drf0Verdict::Drf0)
    );
    if diverged {
        return Err(Finding {
            kind: FindingKind::AxiomVerdictDivergence {
                axiomatic: report.verdict,
                operational: *operational,
            },
            machine: None,
            profile: None,
            fault_seed: None,
        });
    }
    if report.complete {
        // Always against the honest enumeration: an injected prune bug is
        // the reference-side specimen and must stay catchable by the
        // Definition 2 containment check, not be intercepted here.
        let honest = sc_outcomes(program, &cfg.explore);
        if honest.complete && honest.results != report.results {
            return Err(Finding {
                kind: FindingKind::AxiomScSetDivergence {
                    axiomatic: report.results.len(),
                    operational: honest.results.len(),
                },
                machine: None,
                profile: None,
                fault_seed: None,
            });
        }
        return Ok(Some(honest));
    }
    Ok(None)
}

/// The DRF0 verdict for label soundness: prefetched when the campaign's
/// batch prefetch already answered this program, remote when a daemon is
/// configured and reachable, local otherwise. All three paths answer the
/// same question with the same budgets, so the ladder never changes a
/// campaign's verdicts — only where the exploration ran.
fn dynamic_verdict(program: &litmus::Program, cfg: &OracleConfig) -> Drf0Verdict {
    let mut text = None;
    if let Some(map) = &cfg.prefetched {
        let rendered = program.to_string();
        if let Some(verdict) = map.get(&rendered) {
            return *verdict;
        }
        text = Some(rendered);
    }
    if let Some(addr) = &cfg.remote {
        let text = text.unwrap_or_else(|| program.to_string());
        if let Some(verdict) = remote_drf0_verdict(addr, text, &cfg.explore) {
            return verdict;
        }
    }
    drf0_verdict(program, &cfg.explore)
}

/// Builds the wire request for one DRF0 verdict. The batch prefetch and
/// the per-seed v1 path both go through here, so their requests — and
/// therefore the daemon's answers — are byte-identical.
pub(crate) fn drf0_request(
    program_text: String,
    explore: &ExploreConfig,
) -> wo_serve::protocol::Request {
    use wo_serve::protocol::{QueryKind, Request};
    let mut request = Request::new(QueryKind::Drf0, program_text);
    request.max_total_steps = Some(explore.max_total_steps);
    request.max_ops_per_execution = Some(explore.max_ops_per_execution);
    // Budgets only, no wall-clock deadline: keeps remote verdicts as
    // deterministic as local ones.
    request.deadline_ms = Some(0);
    request
}

/// Maps a daemon response back to a [`Drf0Verdict`]. `None` for any
/// non-verdict shape (errors included) — the caller falls back.
pub(crate) fn verdict_from_response(
    response: &wo_serve::protocol::Response,
) -> Option<Drf0Verdict> {
    use wo_serve::protocol::{Response, Verdict};
    match response {
        Response::Verdict { verdict, .. } => Some(match verdict {
            Verdict::Racy => Drf0Verdict::Racy,
            Verdict::Drf0 => Drf0Verdict::Drf0,
            Verdict::Unknown { reason } => Drf0Verdict::BudgetExceeded(
                wo_serve::reason_from_token(reason)
                    .unwrap_or(IncompleteReason::MaxTotalSteps),
            ),
        }),
        _ => None,
    }
}

thread_local! {
    /// This thread's client and the daemon address it was built for: one
    /// kept connection per campaign worker (and for the shrinker).
    static REMOTE: RefCell<Option<(String, ServeClient)>> = const { RefCell::new(None) };
}

/// Asks a wo-serve daemon for one DRF0 verdict over the v1 protocol, on
/// this thread's kept connection. `None` on any client failure or
/// unexpected response shape — the caller falls back to local.
fn remote_drf0_verdict(
    addr: &str,
    program_text: String,
    explore: &ExploreConfig,
) -> Option<Drf0Verdict> {
    let request = drf0_request(program_text, explore);
    let response = REMOTE.with_borrow_mut(|slot| {
        if slot.as_ref().is_none_or(|(kept, _)| kept != addr) {
            *slot = Some((addr.to_string(), ServeClient::new(ClientConfig::new(addr))));
        }
        let (_, client) = slot.as_mut().expect("filled above");
        client.query(&request).ok()
    })?;
    verdict_from_response(&response)
}

/// The Definition 2 sweep for a DRF0-labeled program: every machine ×
/// fault profile × fault seed of the chaos grid. `honest` is the SC
/// enumeration the axiomatic cross-check already ran, if it ran one; it
/// stands in for the reference unless the prune bug is injected.
fn check_drf0_program(
    gp: &GenProgram,
    cfg: &OracleConfig,
    honest: Option<ScOutcomes>,
) -> SeedVerdict {
    let reference = match honest {
        Some(honest) if !cfg.inject_prune_bug => honest,
        _ => reference_outcomes(&gp.program, cfg),
    };
    if !reference.complete {
        return SeedVerdict::BudgetExceeded(IncompleteReason::MaxTotalSteps);
    }
    let mut triples = Vec::new();
    for (machine, _) in machines() {
        for (profile, _, _) in profiles() {
            for k in 0..cfg.fault_seeds.max(1) {
                triples.push((machine, profile, derive_fault_seed(gp.seed, machine, profile, k)));
            }
        }
    }
    let findings = audit_triples(&gp.program, &reference, &triples);
    if findings.is_empty() {
        SeedVerdict::Pass
    } else {
        SeedVerdict::Fail(findings)
    }
}

/// Re-runs only the named (machine, profile, fault_seed) triples against a
/// fresh reference for `program`. The shrinker's fast path: a candidate
/// program is re-checked against the handful of runs that originally
/// failed instead of the full 9-triple sweep.
pub(crate) fn recheck_triples(
    program: &Program,
    cfg: &OracleConfig,
    triples: &[(&'static str, &'static str, u64)],
) -> Vec<FindingKind> {
    let reference = reference_outcomes(program, cfg);
    if !reference.complete {
        return Vec::new();
    }
    audit_triples(program, &reference, triples).into_iter().map(|f| f.kind).collect()
}

/// Audits `program` on the named chaos-grid triples as a single-thread
/// [`weakord::verify::audit`]: the campaign driver already parallelizes
/// across seeds, so the win here is the sweep engine's recycled machine,
/// not more threads. Returns one finding per failing triple; names not
/// in the grid are skipped.
fn audit_triples(
    program: &Program,
    reference: &ScOutcomes,
    triples: &[(&'static str, &'static str, u64)],
) -> Vec<Finding> {
    let (machines, profiles) = (machines(), profiles());
    let (named, runs): (Vec<_>, Vec<AuditRun>) = triples
        .iter()
        .filter_map(|triple @ &(machine, profile, fault_seed)| {
            let policy = machines.iter().find(|(m, _)| *m == machine)?.1;
            let &(_, fault, may_wedge) = profiles.iter().find(|(p, _, _)| *p == profile)?;
            Some((triple, chaos_run(program, policy, fault, may_wedge, fault_seed)))
        })
        .unzip();
    audit(program, &runs, Some(reference), 1)
        .into_iter()
        .zip(named)
        .filter_map(|((outcome, verdict), &(machine, profile, fault_seed))| {
            let kind = match verdict {
                CellVerdict::AppearsSc | CellVerdict::TolerableAbort => return None,
                CellVerdict::NotSc | CellVerdict::ScUndecided => FindingKind::NotSc,
                CellVerdict::OutsideScSet => FindingKind::OutsideScSet,
                CellVerdict::Incomplete => FindingKind::Incomplete,
                CellVerdict::Panic => FindingKind::Panic,
                CellVerdict::UnexpectedAbort => FindingKind::UnexpectedAbort {
                    error: outcome.into_result().expect_err("aborts are errors").to_string(),
                },
            };
            Some(Finding {
                kind,
                machine: Some(machine),
                profile: Some(profile),
                fault_seed: Some(fault_seed),
            })
        })
        .collect()
}

/// One plain (fault-free) run of a racy program to shake out panics. No SC
/// assertion: Definition 2 promises nothing for racy software.
fn racy_shakeout(gp: &GenProgram) -> SeedVerdict {
    let cell = Cell {
        program: &gp.program,
        config: presets::network_cached(
            gp.program.num_threads(),
            presets::wo_def2(),
            gp.seed,
        ),
    };
    match sweep(std::slice::from_ref(&cell), 1).pop() {
        Some(CellOutcome::Panicked(_)) => SeedVerdict::Fail(vec![Finding {
            kind: FindingKind::Panic,
            machine: Some("def2"),
            profile: Some("none"),
            fault_seed: Some(gp.seed),
        }]),
        _ => SeedVerdict::Pass,
    }
}

/// The SC reference set, honest or deliberately buggy.
pub(crate) fn reference_outcomes(
    program: &Program,
    cfg: &OracleConfig,
) -> ScOutcomes {
    if cfg.inject_prune_bug {
        buggy_sc_outcomes(program, &cfg.explore)
    } else {
        sc_outcomes(program, &cfg.explore)
    }
}

/// Deterministic per-run fault seed: a hash of the generation seed, the
/// machine and profile names, and the fault-seed index. Stable across
/// thread counts and platforms.
fn derive_fault_seed(
    gen_seed: u64,
    machine: &str,
    profile: &str,
    k: u64,
) -> u64 {
    let mut h = SplitMix64::new(gen_seed ^ 0x0FAC_57A7_E5EE_D000);
    let mut acc = h.next_u64();
    for b in machine.bytes().chain(profile.bytes()) {
        acc = acc.wrapping_mul(0x100_0000_01b3).wrapping_add(u64::from(b));
    }
    SplitMix64::new(acc.wrapping_add(k)).next_u64()
}

/// The historical prune bug, preserved as a specimen: enumerate reachable
/// results with a DFS pruned on **architectural state alone** — thread
/// states plus memory, *without* the read-value history.
///
/// Why that is wrong: a result (Lamport's observable) includes every value
/// returned by every read. Two interleavings can converge on the same
/// architectural state while having returned different values along the
/// way — e.g. a consumer whose two `Test(s)` reads saw `(0, 1)` on one
/// path and `(1, 1)` on another, both ending with the flag set and the
/// same registers. State-only pruning visits the converged state once and
/// records one result; the other reachable result is silently dropped
/// from the reference set, and a machine run that legally produces it is
/// then misreported as a Definition 2 violation.
///
/// The honest enumeration ([`sc_outcomes`]) keys the DFS on state *plus*
/// read history.
#[must_use]
pub fn buggy_sc_outcomes(program: &Program, cfg: &ExploreConfig) -> ScOutcomes {
    let mut results = HashSet::new();
    let mut visited = HashSet::new();
    let mut steps = 0usize;
    let mut complete = true;
    buggy_dfs(
        program,
        IdealState::new(program),
        cfg,
        &mut visited,
        &mut results,
        &mut steps,
        &mut complete,
    );
    ScOutcomes { results, initial: program.initial_memory(), complete }
}

type BuggyKey = (
    litmus::ideal::ThreadStateKey,
    Vec<(memory_model::Loc, memory_model::Value)>,
    // Read history deliberately omitted — that is the bug.
);

#[allow(clippy::too_many_arguments)]
fn buggy_dfs(
    program: &Program,
    state: IdealState<'_>,
    cfg: &ExploreConfig,
    visited: &mut HashSet<BuggyKey>,
    results: &mut HashSet<ExecutionResult>,
    steps: &mut usize,
    complete: &mut bool,
) {
    *steps += 1;
    if results.len() >= cfg.max_executions || *steps >= cfg.max_total_steps {
        *complete = false;
        return;
    }
    if !visited.insert(state.state_key()) {
        return;
    }
    let runnable = state.runnable_threads();
    if runnable.is_empty() {
        results.insert(state.into_execution().result(&program.initial_memory()));
        return;
    }
    if state.ops().len() >= cfg.max_ops_per_execution {
        *complete = false;
        return;
    }
    for &t in &runnable {
        let mut next = state.clone();
        match next.step(t) {
            StepOutcome::Performed(_) => {
                buggy_dfs(program, next, cfg, visited, results, steps, complete);
            }
            StepOutcome::Halted => {
                buggy_dfs(program, next, cfg, visited, results, steps, complete);
                return;
            }
            StepOutcome::StepLimit => {
                *complete = false;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{generate, GenConfig};
    use litmus::{Reg, Thread};
    use memory_model::Loc;

    /// The minimal witness of the prune bug: a consumer issuing two
    /// `Test(s)` reads while a producer `Set`s the flag. Read histories
    /// (0,1) and (1,1) converge on the same final state, so state-only
    /// pruning drops one of the two results.
    fn prune_bug_witness() -> Program {
        let s = Loc(100);
        Program::new(vec![
            Thread::new().test_and_set(s, Reg(0)).test_and_set(s, Reg(0)),
            Thread::new().sync_write(s, 1),
        ])
        .unwrap()
    }

    #[test]
    fn buggy_enumeration_drops_a_reachable_result() {
        let p = prune_bug_witness();
        let cfg = ExploreConfig::default();
        let honest = sc_outcomes(&p, &cfg);
        let buggy = buggy_sc_outcomes(&p, &cfg);
        assert!(honest.complete && buggy.complete);
        assert!(
            buggy.results.len() < honest.results.len(),
            "state-only pruning should lose a result: honest {} vs buggy {}",
            honest.results.len(),
            buggy.results.len()
        );
        for r in &buggy.results {
            assert!(honest.allows(r), "the bug loses results, never invents them");
        }
    }

    #[test]
    fn oracle_passes_a_small_seed_range_without_injection() {
        let gen_cfg = GenConfig::default();
        let oracle_cfg = OracleConfig {
            explore: ExploreConfig {
                max_ops_per_execution: 48,
                max_total_steps: 150_000,
                ..ExploreConfig::default()
            },
            ..OracleConfig::default()
        };
        let mut passes = 0;
        for seed in 0..8 {
            let gp = generate(seed, &gen_cfg);
            match check_seed(&gp, &oracle_cfg) {
                SeedVerdict::Fail(findings) => panic!(
                    "seed {seed} ({}) failed: {}",
                    gp.name(),
                    findings
                        .iter()
                        .map(ToString::to_string)
                        .collect::<Vec<_>>()
                        .join("; ")
                ),
                SeedVerdict::Pass => passes += 1,
                SeedVerdict::BudgetExceeded(_) => {}
            }
        }
        assert!(passes > 0, "at least one seed should fully pass");
    }

    /// The per-seed remote path keeps one connection per thread. A stub
    /// daemon answers every frame with `Pong`, so every seed falls back
    /// to its local verdict over the same kept connection.
    #[test]
    fn the_remote_path_keeps_one_connection_per_thread() {
        use std::net::TcpListener;
        use std::sync::atomic::{AtomicUsize, Ordering};
        use wo_serve::protocol::{read_frame, write_frame, Response};

        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let accepted = Arc::new(AtomicUsize::new(0));
        let count = Arc::clone(&accepted);
        std::thread::spawn(move || {
            for stream in listener.incoming().flatten() {
                count.fetch_add(1, Ordering::SeqCst);
                std::thread::spawn(move || {
                    while let Ok(Some(_)) = read_frame(&mut &stream, 1 << 20) {
                        if write_frame(&mut &stream, &Response::Pong.encode()).is_err() {
                            return;
                        }
                    }
                });
            }
        });
        let local = OracleConfig {
            explore: ExploreConfig {
                max_ops_per_execution: 48,
                max_total_steps: 150_000,
                ..ExploreConfig::default()
            },
            ..OracleConfig::default()
        };
        let remote = OracleConfig {
            remote: Some(addr),
            prefetched: Some(Arc::new(HashMap::new())),
            ..local.clone()
        };
        for seed in 0..4 {
            let gp = generate(seed, &GenConfig::default());
            assert_eq!(check_seed(&gp, &remote), check_seed(&gp, &local), "seed {seed}");
        }
        assert_eq!(accepted.load(Ordering::SeqCst), 1, "one kept connection for 4 seeds");
    }

    /// The planted axiomatic defect (skipping the hb check on write/write
    /// conflict pairs in the Lemma 1 fast path) must flip a pure
    /// two-writer race to a bogus Drf0 certificate — and the cross-check
    /// must catch exactly that as a verdict divergence. Without the
    /// injection the same program must produce no finding.
    #[test]
    fn injected_hb_bug_is_a_catchable_verdict_divergence() {
        let p = Program::new(vec![
            Thread::new().write(Loc(0), 1),
            Thread::new().write(Loc(0), 2),
        ])
        .unwrap();
        let cfg = OracleConfig::default();
        assert_eq!(drf0_verdict(&p, &cfg.explore), Drf0Verdict::Racy);
        assert!(
            axiom_cross_check(&p, &cfg, &Drf0Verdict::Racy).is_ok(),
            "honest engine must agree the program is racy"
        );

        let buggy = OracleConfig { inject_hb_bug: true, ..cfg };
        let finding = axiom_cross_check(&p, &buggy, &Drf0Verdict::Racy)
            .expect_err("planted defect must surface as a divergence");
        match finding.kind {
            FindingKind::AxiomVerdictDivergence { axiomatic, operational } => {
                assert_eq!(axiomatic, wo_axiom::AxiomVerdict::Drf0);
                assert_eq!(operational, Drf0Verdict::Racy);
            }
            other => panic!("wrong finding class: {other}"),
        }
    }

    #[test]
    fn fault_seeds_are_deterministic_and_spread() {
        let a = derive_fault_seed(7, "def2", "latency", 0);
        let b = derive_fault_seed(7, "def2", "latency", 0);
        let c = derive_fault_seed(7, "def2", "drop", 0);
        let d = derive_fault_seed(8, "def2", "latency", 0);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_ne!(a, d);
    }
}
