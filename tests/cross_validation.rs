//! Cross-validation: independent implementations of the same mathematics
//! must agree, and the simulators must refine the idealized semantics.

use std::collections::HashSet;

use weak_ordering::litmus::corpus;
use weak_ordering::litmus::explore::{explore, explore_results, ExploreConfig};
use weak_ordering::memory_model::hb::HbRelation;
use weak_ordering::memory_model::race::RaceDetector;
use weak_ordering::memory_model::vc::VcHb;
use weak_ordering::memory_model::{drf0, Memory};
use weak_ordering::memsim::{presets, Machine, MachineConfig};

fn keep_execs() -> ExploreConfig {
    ExploreConfig {
        keep_executions: true,
        max_ops_per_execution: 32,
        max_executions: 3_000,
        ..ExploreConfig::default()
    }
}

/// Every corpus program's explored executions: the hb bit-matrix and the
/// vector-clock hb must agree on every ordered pair.
#[test]
fn hb_matrix_and_vector_clocks_agree_on_corpus_executions() {
    for (name, program) in corpus::drf0_suite().iter().chain(corpus::racy_suite().iter())
    {
        let report = explore(program, &keep_execs());
        for exec in report.executions.iter().take(100) {
            let matrix = HbRelation::from_execution(exec);
            let vc = VcHb::from_execution(exec);
            for a in exec.ops() {
                for b in exec.ops() {
                    assert_eq!(
                        matrix.happens_before(a.id, b.id),
                        vc.happens_before(a.id, b.id),
                        "{name}: disagreement on ({}, {})",
                        a.id,
                        b.id
                    );
                }
            }
        }
    }
}

/// The streaming race detector and the exhaustive pairwise check must give
/// the same race-free verdict on every explored execution.
#[test]
fn streaming_and_pairwise_race_detection_agree() {
    for (name, program) in corpus::drf0_suite().iter().chain(corpus::racy_suite().iter())
    {
        let report = explore(program, &keep_execs());
        for exec in report.executions.iter().take(200) {
            assert_eq!(
                RaceDetector::check_execution(exec),
                drf0::is_data_race_free(exec),
                "{name}: detectors disagree on an execution"
            );
        }
    }
}

/// Every idealized execution satisfies atomic-memory semantics (interpreter
/// self-check) and appears SC (the idealized architecture IS sequentially
/// consistent).
#[test]
fn idealized_executions_are_atomic_and_sc() {
    use weak_ordering::memory_model::sc::appears_sc;
    use weak_ordering::memory_model::Observation;
    for (name, program) in corpus::drf0_suite() {
        let report = explore(&program, &keep_execs());
        let initial: Memory = program.initial_memory();
        for exec in report.executions.iter().take(50) {
            assert!(
                exec.validate_atomic_semantics(&initial).is_ok(),
                "{name}: interpreter broke atomicity"
            );
            let obs = Observation::from_execution(exec);
            assert!(appears_sc(&obs, &initial), "{name}: idealized execution not SC");
        }
    }
}

/// **Refinement**: on DRF0 programs, every outcome the weak hardware
/// produces must be an outcome the idealized (sequentially consistent)
/// architecture can produce. This is Definition 2 stated over observable
/// outcomes, checked against the exhaustively enumerated SC outcome set.
#[test]
fn simulator_outcomes_refine_idealized_outcomes_on_drf0_programs() {
    let explore_cfg = ExploreConfig {
        max_ops_per_execution: 64,
        max_executions: 500_000,
        ..ExploreConfig::default()
    };
    for (name, program) in corpus::drf0_suite() {
        let ideal = explore_results(&program, &explore_cfg);
        assert!(ideal.complete, "{name}: idealized enumeration incomplete");
        type FlatOutcome = (Vec<u64>, Vec<(u32, u64)>);
        let ideal_outcomes: HashSet<FlatOutcome> = ideal
            .outcomes(&program)
            .iter()
            .map(|o| {
                (
                    o.regs.iter().flat_map(|r| r.iter().copied()).collect(),
                    o.final_memory.iter().map(|&(l, v)| (l.0, v)).collect(),
                )
            })
            .collect();

        for (policy_name, policy) in presets::all_policies() {
            for seed in 0..6 {
                let cfg = presets::network_cached(program.num_threads(), policy, seed);
                let result = Machine::run_program(&program, &cfg).unwrap();
                assert!(result.completed, "{name} on {policy_name} seed {seed}");
                let got = (
                    result
                        .outcome
                        .regs
                        .iter()
                        .flat_map(|r| r.iter().copied())
                        .collect::<Vec<u64>>(),
                    result
                        .outcome
                        .final_memory
                        .iter()
                        .map(|&(l, v)| (l.0, v))
                        .collect::<Vec<(u32, u64)>>(),
                );
                assert!(
                    ideal_outcomes.contains(&got),
                    "{name} on {policy_name} seed {seed}: hardware produced an outcome \
                     outside the SC set: {got:?}"
                );
            }
        }
    }
}

/// Lemma 1 closes the loop on hardware runs: the SC witness of a DRF0
/// run, replayed as an idealized execution, must satisfy the
/// reads-see-last-hb-write condition (Appendix A's characterization).
#[test]
fn lemma1_holds_on_witnesses_of_hardware_runs() {
    use weak_ordering::memory_model::hb::HbRelation;
    use weak_ordering::memory_model::lemma1::reads_see_last_hb_write;
    use weak_ordering::memory_model::sc::{check_sc, ScCheckConfig, ScVerdict};
    use weak_ordering::memory_model::{Execution, Operation};
    for (name, program) in corpus::drf0_suite() {
        for (policy_name, policy) in presets::all_policies() {
            let cfg = presets::network_cached(program.num_threads(), policy, 11);
            let result = Machine::run_program(&program, &cfg).unwrap();
            assert!(result.completed);
            let obs = result.observation();
            let ScVerdict::Consistent(witness) =
                check_sc(&obs, &program.initial_memory(), &ScCheckConfig::default())
            else {
                panic!("{name} on {policy_name}: DRF0 run must appear SC");
            };
            let ordered: Vec<Operation> = witness
                .iter()
                .map(|&id| *obs.op(id).expect("witness ids come from obs"))
                .collect();
            let exec = Execution::new(ordered).unwrap();
            let hb = HbRelation::from_execution(&exec);
            reads_see_last_hb_write(&exec, &hb, &program.initial_memory())
                .unwrap_or_else(|e| {
                    panic!("{name} on {policy_name}: Lemma 1 violated: {e}")
                });
        }
    }
}

/// The snooping-bus machine also refines the idealized outcomes on DRF0
/// programs (same check as the directory machines).
#[test]
fn snooping_machine_refines_idealized_outcomes() {
    let explore_cfg = ExploreConfig {
        max_ops_per_execution: 64,
        max_executions: 500_000,
        ..ExploreConfig::default()
    };
    for (name, program) in corpus::drf0_suite() {
        let ideal = explore_results(&program, &explore_cfg);
        assert!(ideal.complete);
        let outcomes: HashSet<Vec<u64>> = ideal
            .outcomes(&program)
            .iter()
            .map(|o| o.regs.iter().flat_map(|r| r.iter().copied()).collect())
            .collect();
        for policy in [
            weak_ordering::memsim::Policy::Sc,
            weak_ordering::memsim::Policy::WoDef1,
        ] {
            for seed in 0..4 {
                let cfg = presets::bus_cached_snooping(program.num_threads(), policy, seed);
                let r = Machine::run_program(&program, &cfg).unwrap();
                assert!(r.completed, "{name} snoop seed {seed}");
                let got: Vec<u64> =
                    r.outcome.regs.iter().flat_map(|x| x.iter().copied()).collect();
                assert!(
                    outcomes.contains(&got),
                    "{name}: snooping machine left the SC outcome set: {got:?}"
                );
            }
        }
    }
}

/// Determinism across the whole stack: identical configs yield identical
/// everything.
#[test]
fn whole_stack_is_deterministic() {
    let program = corpus::tts_spinlock(3, 2);
    let cfg = presets::network_cached(3, presets::wo_def2_optimized(), 42);
    let a = Machine::run_program(&program, &cfg).unwrap();
    let b = Machine::run_program(&program, &cfg).unwrap();
    assert_eq!(a.cycles, b.cycles);
    assert_eq!(a.outcome, b.outcome);
    assert_eq!(a.records.len(), b.records.len());
    for (ra, rb) in a.records.iter().zip(&b.records) {
        assert_eq!(ra, rb);
    }
}

/// Different seeds explore genuinely different timings (sanity check that
/// the seed actually matters).
#[test]
fn seeds_change_timing() {
    let program = corpus::spinlock(3, 2);
    let cycles: HashSet<u64> = (0..8)
        .map(|seed| {
            let cfg = presets::network_cached(3, presets::wo_def2(), seed);
            Machine::run_program(&program, &cfg).unwrap().cycles
        })
        .collect();
    assert!(cycles.len() > 1, "all seeds produced identical timing");
}

/// The SC witness returned by the checker replays correctly against the
/// hardware observation for simulator runs.
#[test]
fn sc_witness_replays_against_hardware_observations() {
    use weak_ordering::memory_model::sc::{check_sc, ScCheckConfig, ScVerdict};
    use weak_ordering::memory_model::{Execution, Operation};
    let program = corpus::fig3_handoff_bounded(1, 3);
    let cfg = MachineConfig { seed: 3, ..presets::network_cached(2, presets::wo_def2(), 3) };
    let result = Machine::run_program(&program, &cfg).unwrap();
    let obs = result.observation();
    let ScVerdict::Consistent(witness) =
        check_sc(&obs, &program.initial_memory(), &ScCheckConfig::default())
    else {
        panic!("DRF0 run must appear SC");
    };
    let ordered: Vec<Operation> = witness
        .iter()
        .map(|&id| *obs.op(id).expect("witness ids come from the observation"))
        .collect();
    let exec = Execution::new(ordered).unwrap();
    assert!(exec.validate_atomic_semantics(&program.initial_memory()).is_ok());
}
