//! Verifying a hardware model against the weak-ordering contract — the
//! workflow a hardware designer would use with this library.
//!
//! Definition 2 makes the obligation precise: the machine must appear
//! sequentially consistent to every DRF0 program. This example runs the
//! whole DRF0 corpus across seeds on a machine of your choosing, checks
//! every observation for sequential consistency, audits the Section 5.1
//! conditions on each trace, and prints a verdict. Try sabotaging
//! `memsim` (e.g. skip the reserve-bit check) and watch it fail.
//!
//! Run with: `cargo run --example verify_hardware`

use weak_ordering::litmus::corpus;
use weak_ordering::memsim::presets;
use weak_ordering::weakord::conditions;
use weak_ordering::weakord::verify::{audit, seeded_runs, CellVerdict};

fn main() {
    let policy = presets::wo_def2();
    println!("Hardware under test: network + directory caches, policy {}\n", policy.name());

    let mut all_ok = true;
    for (name, program) in corpus::drf0_suite() {
        let base = presets::network_cached(program.num_threads(), policy, 0);
        let audited = audit(&program, &seeded_runs(&base, 0..12), None, 0);

        // Definition 2: every run must appear sequentially consistent.
        let sc_ok = audited.iter().all(|(_, v)| *v == CellVerdict::AppearsSc);

        // Section 5.1: audit the mechanism on the same traces.
        let condition_violations: usize = audited
            .iter()
            .filter_map(|(outcome, _)| outcome.ok())
            .map(|run| conditions::check_all(run, &program.initial_memory()).len())
            .sum();

        println!(
            "  {name:<22} appears-SC: {}   condition violations: {}",
            if sc_ok { "yes" } else { "NO" },
            condition_violations
        );
        all_ok &= sc_ok && condition_violations == 0;
    }

    println!(
        "\nVerdict: the machine {} weakly ordered with respect to DRF0 (Definition 2)",
        if all_ok { "IS (empirically)" } else { "is NOT" }
    );
    assert!(all_ok);
}
