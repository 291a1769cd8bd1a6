//! `Outcome::of` rebuilds a completed execution's register-level outcome
//! from its result: each thread replayed alone on the values its reads
//! returned. The walks record no outcomes, so the oracle here is a
//! test-local unreduced depth-first walk that steps and undoes an
//! `IdealState` itself and, at every completed execution, checks the
//! replayed outcome against the state's own registers and memory.
//!
//! On every program where the oracle and a walk both complete, the
//! outcome set `ExploreReport::outcomes` derives from the walk's results
//! must equal the oracle's, for the unreduced, the sleep-set and the
//! converged walk alike.
//!
//! The inputs are the corpus suites, every shipped `.litmus` file and
//! 2,000 generated programs.

use std::collections::HashSet;

use litmus::explore::{explore, explore_dpor, explore_results, ExploreConfig, Outcome};
use litmus::ideal::{IdealState, StepOutcome};
use litmus::parse::parse_litmus_dir;
use litmus::{corpus, Program};
use wo_fuzz::gen::{generate, GenConfig};

const FUZZ_SEEDS: u64 = 2_000;

fn budget() -> ExploreConfig {
    ExploreConfig {
        max_ops_per_execution: 48,
        max_total_steps: 5_000,
        ..ExploreConfig::default()
    }
}

/// The oracle's walk over one program.
struct Oracle<'p> {
    name: &'p str,
    program: &'p Program,
    cfg: ExploreConfig,
    states: usize,
    complete: bool,
    outcomes: HashSet<Outcome>,
    leaves: usize,
}

impl Oracle<'_> {
    fn dfs(&mut self, state: &mut IdealState<'_>) {
        if self.states == self.cfg.max_total_steps {
            self.complete = false;
            return;
        }
        self.states += 1;
        if state.finished() {
            let reached = Outcome {
                regs: (0..state.num_threads()).map(|t| state.thread(t).regs).collect(),
                final_memory: state.memory_snapshot(),
            };
            let result = state.result();
            assert_eq!(
                Outcome::of(self.program, &result).as_ref(),
                Some(&reached),
                "{}: {result:?} replays to another outcome",
                self.name
            );
            self.outcomes.insert(reached);
            self.leaves += 1;
            return;
        }
        if state.ops().len() >= self.cfg.max_ops_per_execution {
            self.complete = false;
            return;
        }
        for t in 0..state.num_threads() {
            if !state.runnable(t) {
                continue;
            }
            let (step, undo) = state.step_undoable(t);
            if step == StepOutcome::StepLimit {
                self.complete = false;
            } else {
                self.dfs(state);
            }
            state.undo(undo);
        }
    }
}

/// Checks `program`; returns the number of leaves the oracle replayed
/// and the number of walks whose outcome sets were compared.
fn check(name: &str, program: &Program, cfg: &ExploreConfig) -> (usize, usize) {
    let mut oracle = Oracle {
        name,
        program,
        cfg: *cfg,
        states: 0,
        complete: true,
        outcomes: HashSet::new(),
        leaves: 0,
    };
    oracle.dfs(&mut IdealState::new(program));
    let mut compared = 0;
    if oracle.complete {
        for (walk, report) in [
            ("full", explore(program, cfg)),
            ("dpor", explore_dpor(program, cfg)),
            ("converged", explore_results(program, cfg)),
        ] {
            if report.complete {
                assert_eq!(report.outcomes(program), oracle.outcomes, "{name} ({walk})");
                compared += 1;
            }
        }
    }
    (oracle.leaves, compared)
}

#[test]
fn derived_outcomes_equal_the_registers_at_every_leaf() {
    let mut programs: Vec<(String, Program)> = corpus::drf0_suite()
        .into_iter()
        .chain(corpus::racy_suite())
        .map(|(name, p)| (name.to_string(), p))
        .collect();
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../litmus-tests");
    for (path, p) in parse_litmus_dir(&dir).unwrap_or_else(|e| panic!("{e}")) {
        programs.push((path.display().to_string(), p));
    }
    let gen_cfg = GenConfig::default();
    programs.extend((0..FUZZ_SEEDS).map(|seed| {
        let gp = generate(seed, &gen_cfg);
        (gp.name(), gp.program)
    }));
    let cfg = budget();
    let (mut leaves, mut compared) = (0, 0);
    for (name, p) in &programs {
        let (l, c) = check(name, p, &cfg);
        leaves += l;
        compared += c;
    }
    // 1,259,923 leaves and 3,801 compared walks over 2,050 programs when
    // written; the floors keep budget rot from hollowing the test out.
    assert!(leaves >= 1_000_000, "only {leaves} leaves replayed");
    assert!(compared >= 3_000, "only {compared} walks compared");
}
