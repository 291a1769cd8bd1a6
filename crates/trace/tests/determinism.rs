//! Determinism tests: the checker's canonical report must be
//! byte-identical at any shard and thread count — including when memory
//! caps degrade the verdict.

use memory_model::SyncMode;
use wo_trace::synth::{SynthConfig, SynthStream};
use wo_trace::{check_ops, CheckerConfig, UnknownReason, Verdict};

/// `(shards, threads)` grid the reports must agree across.
const GRID: [(usize, usize); 4] = [(1, 1), (2, 2), (5, 4), (8, 3)];

fn report_text(ops: &[memory_model::Operation], procs: u16, base: CheckerConfig) -> Vec<String> {
    GRID.iter()
        .map(|&(shards, threads)| {
            let cfg = CheckerConfig { shards, threads, ..base };
            check_ops(ops, procs, cfg).unwrap().canonical_text()
        })
        .collect()
}

#[test]
fn locked_stream_verdict_is_shard_and_thread_independent() {
    let synth = SynthConfig {
        events: 200_000,
        procs: 6,
        locations: 1 << 10,
        sync_locations: 32,
        sync_percent: 12,
        racy_percent: 0,
        seed: 11,
    };
    let ops: Vec<_> = SynthStream::new(synth).collect();
    let texts = report_text(&ops, synth.procs, CheckerConfig::default());
    for (i, text) in texts.iter().enumerate().skip(1) {
        assert_eq!(
            text, &texts[0],
            "grid point {:?} diverged from serial",
            GRID[i]
        );
    }
    assert!(texts[0].starts_with("verdict: DRF0\n"), "{}", texts[0]);
    assert!(texts[0].contains("events: 200000"), "{}", texts[0]);
}

#[test]
fn racy_stream_reports_identical_races_at_any_parallelism() {
    let synth = SynthConfig {
        events: 150_000,
        procs: 4,
        locations: 256,
        sync_locations: 16,
        sync_percent: 10,
        racy_percent: 25,
        seed: 77,
    };
    let ops: Vec<_> = SynthStream::new(synth).collect();
    let texts = report_text(&ops, synth.procs, CheckerConfig::default());
    assert!(texts[0].starts_with("verdict: RACY\n"), "{}", texts[0]);
    for (i, text) in texts.iter().enumerate().skip(1) {
        assert_eq!(text, &texts[0], "grid point {:?} diverged", GRID[i]);
    }
}

#[test]
fn degraded_verdicts_are_equally_deterministic() {
    // The location cap drops most locations: which ones are dropped must
    // depend only on first-appearance order, never on the shard count.
    let synth = SynthConfig {
        events: 60_000,
        procs: 4,
        locations: 2_000,
        sync_locations: 16,
        sync_percent: 8,
        racy_percent: 0,
        seed: 5,
    };
    let ops: Vec<_> = SynthStream::new(synth).collect();
    let capped = CheckerConfig { max_tracked_locations: 100, ..CheckerConfig::default() };
    let texts = report_text(&ops, synth.procs, capped);
    for (i, text) in texts.iter().enumerate().skip(1) {
        assert_eq!(text, &texts[0], "grid point {:?} diverged under the cap", GRID[i]);
    }
    let report = check_ops(&ops, synth.procs, capped).unwrap();
    assert!(report.dropped_locations > 0, "the cap should have bitten");
    assert_eq!(report.tracked_locations_high_water, 100);
    match report.verdict {
        Verdict::Racy | Verdict::Unknown(UnknownReason::LocationCapExceeded) => {}
        other => panic!("cap must leave Racy or degrade to Unknown, got {other:?}"),
    }
}

#[test]
fn racy_verdict_survives_the_location_cap_when_tracked_locations_race() {
    // All races on one hot location, admitted first: capping the tail
    // locations must not lose the Racy verdict (dropped locations only
    // hide their own races).
    let synth = SynthConfig {
        events: 50_000,
        procs: 4,
        locations: 64,
        sync_locations: 8,
        sync_percent: 10,
        racy_percent: 40,
        seed: 13,
    };
    let ops: Vec<_> = SynthStream::new(synth).collect();
    // Keep every race: the subset check below needs untruncated lists.
    let uncapped_races = CheckerConfig { max_kept_races: usize::MAX, ..CheckerConfig::default() };
    let full = check_ops(&ops, synth.procs, uncapped_races).unwrap();
    assert_eq!(full.verdict, Verdict::Racy);
    assert!(!full.races_truncated);

    // Cap to the first 32 first-seen locations; this deterministic stream
    // still races inside the tracked set.
    let capped_cfg = CheckerConfig { max_tracked_locations: 32, ..uncapped_races };
    let capped = check_ops(&ops, synth.procs, capped_cfg).unwrap();
    assert_eq!(capped.verdict, Verdict::Racy);
    assert!(capped.dropped_events > 0);
    assert!(
        capped.total_races <= full.total_races,
        "dropping locations can only lose races, never invent them"
    );
    // Every race the capped run reports is one the full run found too.
    let full_set: std::collections::HashSet<_> = full.races.iter().copied().collect();
    for race in &capped.races {
        assert!(full_set.contains(race), "capped run invented {race:?}");
    }
}

#[test]
fn batch_size_never_changes_the_report() {
    let synth = SynthConfig {
        events: 30_000,
        procs: 3,
        locations: 128,
        sync_locations: 8,
        sync_percent: 15,
        racy_percent: 10,
        seed: 21,
    };
    let ops: Vec<_> = SynthStream::new(synth).collect();
    for mode in [SyncMode::Drf0, SyncMode::ReleaseWrites] {
        let base = CheckerConfig { mode, ..CheckerConfig::default() };
        let baseline = check_ops(&ops, synth.procs, base).unwrap().canonical_text();
        for batch in [1, 7, 1 << 10] {
            let cfg = CheckerConfig { batch, shards: 3, threads: 2, ..base };
            let text = check_ops(&ops, synth.procs, cfg).unwrap().canonical_text();
            assert_eq!(text, baseline, "{mode:?}: batch {batch} diverged");
        }
    }
}
