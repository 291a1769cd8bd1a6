//! The explorer's search, pinned by one digest.
//!
//! Every field of the reports `explore`, `explore_dpor` and
//! `explore_results` return is folded into one FNV-1a digest: the result,
//! outcome and race sets in sorted order, the execution and truncation
//! counts, completeness and the first budget that gave out, and the
//! `steps`, `pruned` and `peak_visited` counters. The counters are
//! charged at fixed points of each depth-first search, so equal digests
//! mean every strategy walked the same states in the same order and
//! stopped at the same place. A change that only makes the interpreter or
//! a search step cheaper must leave the digest unchanged; a change that
//! alters what an instruction does or how the search enumerates must
//! re-record it and say why.
//!
//! The inputs are the corpus suites, the scaling families, and the
//! shipped `.litmus` files, each under both synchronization modes, with
//! budgets small enough that budget-stopped searches are pinned too.
//! Adding a shipped `.litmus` file changes the digest: re-record it on
//! the commit before the change under test.

use litmus::corpus;
use litmus::explore::{explore, explore_dpor, explore_results, ExploreConfig, ExploreReport};
use litmus::parse::parse_litmus_dir;
use litmus::Program;
use memory_model::SyncMode;

/// The digest of every report below, recorded on the commit before the
/// interpreter, the path walker and the simulator shared one local step.
const EXPECTED: u64 = 0xb3ec_905b_192b_c9c5;

struct Fnv(u64);

impl Fnv {
    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn pairs(&mut self, pairs: impl ExactSizeIterator<Item = (u64, u64)>) {
        self.u64(pairs.len() as u64);
        for (a, b) in pairs {
            self.u64(a);
            self.u64(b);
        }
    }
}

/// The corpus suites, the scaling families and the shipped `.litmus`
/// files, named.
fn programs() -> Vec<(String, Program)> {
    let mut out: Vec<(String, Program)> = Vec::new();
    for (name, p) in corpus::drf0_suite().into_iter().chain(corpus::racy_suite()) {
        out.push((name.to_string(), p));
    }
    for k in 1..=4 {
        out.push((format!("mp_fan({k})"), corpus::mp_fan(k)));
    }
    for k in 2..=3 {
        out.push((format!("iriw_fan({k})"), corpus::iriw_fan(k)));
    }
    for stages in 2..=4 {
        out.push((format!("pipeline({stages})"), corpus::pipeline(stages)));
    }
    out.push(("spinlock_bounded(2,2,2)".into(), corpus::spinlock_bounded(2, 2, 2)));
    out.push(("spinlock_bounded(3,1,2)".into(), corpus::spinlock_bounded(3, 1, 2)));
    out.push(("barrier_bounded(3,1)".into(), corpus::barrier_bounded(3, 1)));
    out.push(("barrier_bounded(2,3)".into(), corpus::barrier_bounded(2, 3)));
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../litmus-tests");
    for (path, p) in parse_litmus_dir(&dir).unwrap_or_else(|e| panic!("{e}")) {
        let name = path.file_name().expect("file").to_string_lossy().into_owned();
        out.push((name, p));
    }
    out
}

fn fold(h: &mut Fnv, r: &ExploreReport) {
    let mut results: Vec<_> = r
        .results
        .iter()
        .map(|res| {
            (
                res.reads.iter().map(|(id, v)| (id.0, *v)).collect::<Vec<_>>(),
                res.final_memory.iter().map(|(loc, v)| (u64::from(loc.0), *v)).collect::<Vec<_>>(),
            )
        })
        .collect();
    results.sort();
    h.u64(results.len() as u64);
    for (reads, memory) in &results {
        h.pairs(reads.iter().copied());
        h.pairs(memory.iter().copied());
    }
    let mut outcomes: Vec<_> = r
        .outcomes
        .iter()
        .map(|o| {
            (
                o.regs.clone(),
                o.final_memory.iter().map(|(loc, v)| (u64::from(loc.0), *v)).collect::<Vec<_>>(),
            )
        })
        .collect();
    outcomes.sort();
    h.u64(outcomes.len() as u64);
    for (regs, memory) in &outcomes {
        h.u64(regs.len() as u64);
        for file in regs {
            for &v in file {
                h.u64(v);
            }
        }
        h.pairs(memory.iter().copied());
    }
    let mut races: Vec<_> =
        r.races.iter().map(|race| (race.first.0, race.second.0, race.loc.0)).collect();
    races.sort_unstable();
    h.u64(races.len() as u64);
    for (first, second, loc) in races {
        h.u64(first);
        h.u64(second);
        h.u64(u64::from(loc));
    }
    h.u64(r.executions.len() as u64);
    h.u64(r.execution_count as u64);
    h.u64(r.truncated_executions as u64);
    h.u64(u64::from(r.complete));
    match r.incomplete {
        None => h.bytes(b"-"),
        Some(reason) => h.bytes(reason.to_string().as_bytes()),
    }
    h.u64(r.steps as u64);
    h.u64(r.pruned as u64);
    h.u64(r.peak_visited as u64);
}

#[test]
fn reports_match_the_recorded_digest() {
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    let programs = programs();
    for sync_mode in [SyncMode::Drf0, SyncMode::ReleaseWrites] {
        let cfg = ExploreConfig {
            max_ops_per_execution: 24,
            max_executions: 4_000,
            max_total_steps: 40_000,
            max_visited_states: 20_000,
            sync_mode,
            ..ExploreConfig::default()
        };
        for (name, program) in &programs {
            h.bytes(name.as_bytes());
            fold(&mut h, &explore(program, &cfg));
            fold(&mut h, &explore_dpor(program, &cfg));
            fold(&mut h, &explore_results(program, &cfg));
        }
    }
    assert_eq!(
        h.0, EXPECTED,
        "digest over {} programs is {:#018x}: the explorer ran differently",
        programs.len(),
        h.0
    );
}
