//! The simulator's runs, pinned by one digest.
//!
//! `Machine::run_program`'s whole `Debug` rendering — every record with
//! its issue, commit and global-perform cycles, the final registers and
//! memory, the cycle count, per-processor stall statistics, message and
//! event counts, and any watchdog dump — is folded into one FNV-1a
//! digest for every program below on every machine below. A change that
//! only makes the simulator cheaper to run must leave the digest
//! unchanged; a change to what an instruction does, when a processor
//! stalls or how the memory system answers must re-record it and say why.
//!
//! The programs are the corpus suites, the scaling families and the
//! shipped `.litmus` files. The machines are the four Figure 1 classes
//! plus the snooping bus under every policy the benchmark harness
//! compares, the relaxed write-buffer policy, both Section 5.3 stall
//! alternatives (NACK and queue) and a bounded miss window, and the
//! directory-cached network under the drop-heavy fault profile.
//! Combinations a machine rejects are folded as their `RunError`.

use litmus::corpus;
use litmus::parse::parse_litmus_dir;
use litmus::Program;
use memsim::{presets, Def2Config, FaultConfig, Machine, MachineConfig, Policy};

/// The digest of every run below, recorded on the commit before the
/// interpreter, the path walker and the simulator shared one local step.
const EXPECTED: u64 = 0xfed5_f646_3ba6_ddf2;

struct Fnv(u64);

impl Fnv {
    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
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

/// Every policy the harness compares, the relaxed write buffer, the
/// Section 5.3 queue alternative and a bounded miss window.
fn policies() -> Vec<(&'static str, Policy)> {
    let mut out = presets::all_policies();
    out.push(("Relaxed", presets::relaxed()));
    out.push(("WO-Def2-queued", presets::wo_def2_queued()));
    out.push((
        "WO-Def2-miss1",
        Policy::WoDef2(Def2Config { max_misses_while_reserved: Some(1), ..Def2Config::default() }),
    ));
    out
}

fn machines(procs: usize, seed: u64) -> Vec<(String, MachineConfig)> {
    let mut out = Vec::new();
    for (policy_name, policy) in policies() {
        let mut classes = presets::fig1_classes(procs, policy, seed);
        classes.push(("bus/snooping", presets::bus_cached_snooping(procs, policy, seed)));
        classes.push((
            "network/cache+drop-chaos",
            MachineConfig {
                chaos: Some(FaultConfig::drop_heavy()),
                ..presets::network_cached(procs, policy, seed)
            },
        ));
        for (class, config) in classes {
            out.push((format!("{class} {policy_name} seed={seed}"), config));
        }
    }
    out
}

#[test]
fn runs_match_the_recorded_digest() {
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    let programs = programs();
    let mut runs = 0;
    for (name, program) in &programs {
        for seed in [1, 2] {
            for (machine, config) in machines(program.num_threads(), seed) {
                h.bytes(name.as_bytes());
                h.bytes(machine.as_bytes());
                h.bytes(format!("{:?}", Machine::run_program(program, &config)).as_bytes());
                runs += 1;
            }
        }
    }
    assert_eq!(
        h.0, EXPECTED,
        "digest over {runs} runs is {:#018x}: the simulator ran differently",
        h.0
    );
}

