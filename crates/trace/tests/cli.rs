//! The `wo_trace emit` command end to end: the machine is as wide as
//! the program, a run where every cell fails names the first cell's
//! error, and an emitted trace checks to its program's verdict.

use std::path::PathBuf;
use std::process::{Command, Output};

fn wo_trace(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_wo_trace")).args(args).output().expect("run wo_trace")
}

fn temp_path(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("wo-trace-cli-{}-{name}", std::process::id()))
}

#[test]
fn procs_is_not_an_emit_flag() {
    let out = temp_path("procs.trace");
    let run = wo_trace(&["emit", "handoff", "--procs", "4", "--out", out.to_str().unwrap()]);
    assert_eq!(run.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&run.stderr).contains("unknown flag --procs"));
    let _ = std::fs::remove_file(out);
}

#[test]
fn a_run_where_every_cell_fails_names_the_first_cells_error() {
    let program = temp_path("spin.litmus");
    let out = temp_path("spin.trace");
    std::fs::write(&program, "P0:\n  0: goto 0\n").unwrap();
    let run = wo_trace(&["emit", program.to_str().unwrap(), "--out", out.to_str().unwrap()]);
    assert_eq!(run.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&run.stderr);
    assert!(stderr.contains("every cell failed") && stderr.contains("LocalStepLimit"), "{stderr}");
    let _ = std::fs::remove_file(program);
    let _ = std::fs::remove_file(out);
}

#[test]
fn emitted_traces_check_to_their_programs_verdicts() {
    for (name, verdict) in [("handoff", 0), ("racy-counter", 1)] {
        let out = temp_path(&format!("{name}.trace"));
        let path = out.to_str().unwrap();
        assert_eq!(wo_trace(&["emit", name, "--out", path]).status.code(), Some(0), "{name}");
        assert_eq!(wo_trace(&["check", path]).status.code(), Some(verdict), "{name}");
        let _ = std::fs::remove_file(out);
    }
}
