//! The gated bench binaries fail on each of their gates. Each runs in
//! smoke mode with every floor and ceiling flag it takes set out of
//! reach; it must write its report, exit 1, and list each of those gates
//! as failed. A usage error exits 2 before any work.

use std::process::Command;

/// Runs `exe --smoke --out <a file of its own> flags…`: the exit status
/// and the report it wrote.
fn run(exe: &str, tag: &str, flags: &[&str]) -> (Option<i32>, String) {
    let out =
        std::env::temp_dir().join(format!("wo-bench-gates-{}-{tag}.json", std::process::id()));
    let _ = std::fs::remove_file(&out);
    let run = Command::new(exe)
        .arg("--smoke")
        .arg("--out")
        .arg(&out)
        .args(flags)
        .output()
        .expect("the bench binary starts");
    let report = std::fs::read_to_string(&out).unwrap_or_else(|e| {
        panic!(
            "{tag}: no report at {} ({e}); stderr:\n{}",
            out.display(),
            String::from_utf8_lossy(&run.stderr)
        )
    });
    std::fs::remove_file(&out).ok();
    (run.status.code(), report)
}

/// Asserts that `report` lists a failed gate on `metric`.
fn assert_failed(report: &str, metric: &str) {
    let gate = format!("{{\"metric\": \"{metric}\",");
    let line = report
        .lines()
        .find(|line| line.trim_start().starts_with(&gate))
        .unwrap_or_else(|| panic!("no gate on {metric} in:\n{report}"));
    assert!(line.ends_with("\"pass\": false},") || line.ends_with("\"pass\": false}"), "{line}");
}

#[test]
fn axiom_bench_fails_each_floor_and_ceiling() {
    let (status, report) = run(
        env!("CARGO_BIN_EXE_axiom_bench"),
        "axiom",
        &["--min-speedup", "1e12", "--min-sweep-speedup", "1e12", "--max-routed-regret", "-1"],
    );
    assert_eq!(status, Some(1), "{report}");
    for metric in ["drf0_axiom_speedup", "sweep_axiom_speedup", "routed_regret"] {
        assert_failed(&report, metric);
    }
}

#[test]
fn explore_bench_fails_each_throughput_floor() {
    let (status, report) = run(
        env!("CARGO_BIN_EXE_explore_bench"),
        "explore",
        &["--min-converged-pps", "1e12", "--min-dpor-pps", "1e12"],
    );
    assert_eq!(status, Some(1), "{report}");
    assert_failed(&report, "converged_state.programs_per_sec");
    assert_failed(&report, "dpor.programs_per_sec");
}

#[test]
fn serve_bench_fails_its_hot_path_floor() {
    let (status, report) = run(
        env!("CARGO_BIN_EXE_serve_bench"),
        "serve",
        &["--min-hot-qps", "1e12", "--min-batched-qps", "1e12"],
    );
    assert_eq!(status, Some(1), "{report}");
    assert_failed(&report, "hot.queries_per_sec");
    assert_failed(&report, "batched.hot_queries_per_sec");
}

#[test]
fn trace_bench_fails_its_throughput_floor() {
    let (status, report) = run(
        env!("CARGO_BIN_EXE_trace_bench"),
        "trace",
        &["--events", "20000", "--min-cold-eps", "1e12"],
    );
    assert_eq!(status, Some(1), "{report}");
    assert_failed(&report, "cold.events_per_sec");
}

#[test]
fn usage_errors_exit_2() {
    for args in [&["--renames"][..], &["--bogus"], &["--min-hot-qps", "fast"]] {
        let run = Command::new(env!("CARGO_BIN_EXE_serve_bench"))
            .args(args)
            .output()
            .expect("serve_bench starts");
        assert_eq!(run.status.code(), Some(2), "{args:?}");
        let stderr = String::from_utf8_lossy(&run.stderr);
        assert!(stderr.contains("usage: serve_bench [--smoke]"), "{stderr}");
    }
}
