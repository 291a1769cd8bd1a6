//! Ablation: full interleaving enumeration vs converged-state pruning vs
//! sleep-set DPOR (DESIGN.md decisions 3 and 9).
//!
//! Converged-state pruning is sound for reachable-result collection only;
//! DPOR preserves races too, so it is the strategy the DRF0 verdicts run
//! on. The full/dpor gap is the payoff of partial-order reduction, the
//! full/pruned gap the (smaller) payoff of state convergence.

use litmus::explore::{explore, explore_dpor, explore_results, ExploreConfig};
use litmus::{corpus, Program, Thread};
use memory_model::Loc;
use std::hint::black_box;
use wo_bench::harness::Harness;

fn independent_writers(threads: usize, writes: u32) -> Program {
    let ts = (0..threads)
        .map(|t| {
            let mut th = Thread::new();
            for i in 0..writes {
                th = th.write(Loc(t as u32 * 100 + i), u64::from(i) + 1);
            }
            th
        })
        .collect();
    Program::new(ts).expect("static program is valid")
}

fn bench_strategies(h: &mut Harness) {
    let cfg = ExploreConfig::default();
    let mut group = h.group("explore");
    group.sample_size(10);

    let cases: Vec<(&str, Program)> = vec![
        ("dekker", corpus::fig1_dekker()),
        ("mp_sync", corpus::message_passing_sync(2)),
        ("indep_3x3", independent_writers(3, 3)),
        ("spinlock_bounded", corpus::spinlock_bounded(2, 1, 2)),
    ];
    for (name, program) in &cases {
        group.bench(&format!("full/{name}"), || {
            black_box(explore(black_box(program), &cfg));
        });
        group.bench(&format!("pruned/{name}"), || {
            black_box(explore_results(black_box(program), &cfg));
        });
        group.bench(&format!("dpor/{name}"), || {
            black_box(explore_dpor(black_box(program), &cfg));
        });
    }
    group.finish();
}

fn main() {
    let mut h = Harness::new("explore_ablation");
    bench_strategies(&mut h);
}
