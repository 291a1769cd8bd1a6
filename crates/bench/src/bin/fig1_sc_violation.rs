//! Regenerates **Figure 1**: the sequential-consistency violation across
//! the four machine classes.
//!
//! For each class — {shared bus, general network} × {no caches, caches} —
//! the Dekker-style litmus of Figure 1 runs under (a) the strict SC
//! policy and (b) the class's performance relaxation (write buffers /
//! non-blocking stores). The table reports, over many seeds, how many
//! runs violated sequential consistency and whether the paper's "both
//! processors killed" outcome (`r0 == r1 == 0`) appeared.
//!
//! Expected shape (the paper's claim): zero violations under SC, and
//! violations on *every* class once its relaxation is enabled.

use litmus::corpus;
use memsim::{presets, InterconnectConfig, MachineConfig, Policy};
use weakord::verify::{audit, seeded_runs, CellVerdict};
use wo_bench::table;

fn main() {
    let program = corpus::fig1_dekker();
    let seeds = 40;

    let mut rows = Vec::new();
    for (class, strict) in presets::fig1_classes(2, presets::sc(), 0) {
        let relaxed = relaxed_variant(&strict);
        for (mode, base) in [("SC", strict), ("relaxed", relaxed)] {
            let audited = audit(&program, &seeded_runs(&base, 0..seeds), None, 0);
            let violations = audited.iter().filter(|(_, v)| *v == CellVerdict::NotSc).count();
            let both_zero = audited
                .iter()
                .filter_map(|(outcome, _)| outcome.ok())
                .filter(|r| r.outcome.regs[0][0] == 0 && r.outcome.regs[1][0] == 0)
                .count();
            rows.push(vec![
                class.to_string(),
                mode.to_string(),
                format!("{violations}/{seeds}"),
                format!("{both_zero}/{seeds}"),
            ]);
        }
    }

    println!("Figure 1 — SC violation (Dekker litmus) across machine classes");
    println!("(violations = runs whose observation has no SC explanation;");
    println!(" both-killed = runs where r0 == r1 == 0, the paper's outcome)\n");
    println!(
        "{}",
        table(&["machine class", "policy", "SC violations", "both killed"], &rows)
    );
    println!("Paper's claim: the relaxed variant of EVERY class admits the violation;");
    println!("the strict SC policy never does.");
}

/// The class-appropriate relaxation from Figure 1's discussion.
fn relaxed_variant(strict: &MachineConfig) -> MachineConfig {
    let write_delay = match (strict.caches, strict.interconnect) {
        // Bus without caches: the violation needs reads passing writes in
        // a write buffer.
        (false, InterconnectConfig::Bus { .. }) => 40,
        // Bus with caches: miss latencies suffice, but a small buffer
        // keeps it robust.
        (true, InterconnectConfig::Bus { .. }) => 16,
        // Networks: out-of-order arrival at modules / pending
        // invalidations suffice.
        (_, InterconnectConfig::Network { .. }) => 0,
    };
    MachineConfig { policy: Policy::Relaxed { write_delay }, ..*strict }
}
