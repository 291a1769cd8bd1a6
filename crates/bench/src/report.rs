//! One report for the `*_bench` binaries: one walk over their flags, one
//! JSON schema for every `BENCH_*.json`, and one list of gates.
//!
//! The schema, in order: the header (`bench`, `workload`, `smoke`,
//! `host_vcpus`, `profile`, `divergences`), then `metrics` (flat numeric
//! keys; a dotted name such as `dpor.programs_per_sec` groups a phase or
//! a mode), `gates` (each floor or ceiling next to its measured value and
//! a pass flag) and `rows` (per-program, per-phase and grid rows, each
//! with a `name`).
//!
//! [`Report::write`] writes the file before it reports a failed gate or
//! divergence, so a red CI job still uploads the numbers that explain it.

use std::fmt;
use std::fmt::Write as _;
use std::path::Path;
use std::str::FromStr;
use std::time::Instant;

/// A flag value that is missing or does not parse.
#[derive(Debug)]
pub struct UsageError(String);

/// The flags of one bench binary, walked once (see [`parse_args`]).
#[derive(Debug)]
pub struct Args {
    rest: std::vec::IntoIter<String>,
}

impl Args {
    /// [`parse_args`] on `argv`, the arguments after the program name,
    /// returning the exit status of a usage error instead of exiting.
    fn parse(
        usage: &str,
        argv: impl IntoIterator<Item = String>,
        mut each: impl FnMut(&str, &mut Args) -> Result<bool, UsageError>,
    ) -> Result<(), i32> {
        let mut args = Args { rest: argv.into_iter().collect::<Vec<_>>().into_iter() };
        while let Some(flag) = args.rest.next() {
            let message = match each(&flag, &mut args) {
                Ok(true) => continue,
                Ok(false) => format!("unknown argument `{flag}`"),
                Err(UsageError(message)) => message,
            };
            let bin = usage.split_whitespace().next().unwrap_or(usage);
            eprintln!("{bin}: {message}\nusage: {usage}");
            return Err(2);
        }
        Ok(())
    }

    /// The value after `flag`.
    ///
    /// # Errors
    ///
    /// The value is missing or does not parse as a `T`.
    pub fn value<T: FromStr>(&mut self, flag: &str) -> Result<T, UsageError> {
        let raw = self.rest.next().ok_or_else(|| UsageError(format!("{flag} needs a value")))?;
        raw.parse().map_err(|_| UsageError(format!("{flag}: cannot parse `{raw}`")))
    }
}

/// Walks this process's flags: `each` gets every flag in turn, reads the
/// flag's value (if it takes one) with [`Args::value`], and returns
/// `Ok(false)` for a flag the binary does not take. An unknown flag or a
/// missing or unparsable value prints the error and the `usage` line to
/// stderr and exits with status 2.
pub fn parse_args(usage: &str, each: impl FnMut(&str, &mut Args) -> Result<bool, UsageError>) {
    if let Err(status) = Args::parse(usage, std::env::args().skip(1), each) {
        std::process::exit(status);
    }
}

/// Runs `f` `iters` times (at least once) and returns its shortest wall
/// time in seconds and its last result, so scheduler noise can neither
/// make nor hide a speedup.
pub fn best_of<T>(iters: u32, mut f: impl FnMut() -> T) -> (f64, T) {
    let mut best = f64::INFINITY;
    let mut out = None;
    for _ in 0..iters.max(1) {
        let start = Instant::now();
        out = Some(f());
        best = best.min(start.elapsed().as_secs_f64());
    }
    (best, out.expect("f ran at least once"))
}

/// One value in a report.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// An exact count, written as an integer.
    Count(u64),
    /// A measurement, written with at most six decimals (`null` if not
    /// finite).
    Real(f64),
    /// A pass flag.
    Flag(bool),
    /// A verdict or other label (rows only), written as a JSON string.
    Text(String),
}

impl From<u64> for Value {
    fn from(n: u64) -> Self {
        Value::Count(n)
    }
}

impl From<usize> for Value {
    fn from(n: usize) -> Self {
        Value::Count(n as u64)
    }
}

impl From<f64> for Value {
    fn from(x: f64) -> Self {
        Value::Real(x)
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Flag(b)
    }
}

impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::Text(s)
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Count(n) => write!(f, "{n}"),
            Value::Real(x) if !x.is_finite() => f.write_str("null"),
            Value::Real(x) => {
                let fixed = format!("{x:.6}");
                f.write_str(fixed.trim_end_matches('0').trim_end_matches('.'))
            }
            Value::Flag(b) => write!(f, "{b}"),
            Value::Text(s) => f.write_str(&quoted(s)),
        }
    }
}

/// `s` as a JSON string literal.
fn quoted(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if u32::from(c) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", u32::from(c));
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// One row of a report: a `name`, then fields in the order added.
#[derive(Debug, Clone)]
pub struct Row {
    fields: Vec<(&'static str, Value)>,
}

impl Row {
    /// A row with only its name.
    #[must_use]
    pub fn new(name: impl Into<String>) -> Self {
        Row { fields: vec![("name", Value::Text(name.into()))] }
    }

    /// The row with `key` set to `value`.
    #[must_use]
    pub fn with(mut self, key: &'static str, value: impl Into<Value>) -> Self {
        self.fields.push((key, value.into()));
        self
    }
}

impl fmt::Display for Row {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let fields: Vec<String> =
            self.fields.iter().map(|(key, v)| format!("{}: {v}", quoted(key))).collect();
        write!(f, "{{{}}}", fields.join(", "))
    }
}

/// What one bench run measured, in the one schema (see the module docs).
#[derive(Debug)]
pub struct Report {
    bench: &'static str,
    workload: &'static str,
    smoke: bool,
    host_vcpus: usize,
    profile: &'static str,
    divergences: Vec<String>,
    metrics: Vec<(String, Value)>,
    /// One row per gate: `metric`, `min` or `max`, `value`, `pass`.
    gates: Vec<Row>,
    failed_gates: usize,
    rows: Vec<Row>,
}

impl Report {
    /// An empty report for the binary `bench` running `workload`, with
    /// this host's vCPUs and this build's profile.
    #[must_use]
    pub fn new(bench: &'static str, workload: &'static str, smoke: bool) -> Self {
        Report {
            bench,
            workload,
            smoke,
            host_vcpus: std::thread::available_parallelism().map_or(1, usize::from),
            profile: if cfg!(debug_assertions) { "debug" } else { "release" },
            divergences: Vec::new(),
            metrics: Vec::new(),
            gates: Vec::new(),
            failed_gates: 0,
            rows: Vec::new(),
        }
    }

    /// Records the metric `name`.
    ///
    /// # Panics
    ///
    /// Panics if `value` is not a number.
    pub fn metric(&mut self, name: impl Into<String>, value: impl Into<Value>) {
        let (name, value) = (name.into(), value.into());
        assert!(matches!(value, Value::Count(_) | Value::Real(_)), "metric {name} is not a number");
        self.metrics.push((name, value));
    }

    /// Gates the recorded metric `metric` on `floor`, if one is given.
    pub fn min(&mut self, metric: &str, floor: Option<f64>) {
        self.gate(metric, "min", floor);
    }

    /// Gates the recorded metric `metric` on `ceiling`, if one is given.
    pub fn max(&mut self, metric: &str, ceiling: Option<f64>) {
        self.gate(metric, "max", ceiling);
    }

    /// Records the gate and prints its outcome.
    fn gate(&mut self, metric: &str, kind: &'static str, limit: Option<f64>) {
        let Some(limit) = limit else { return };
        let value = match self.metrics.iter().find(|(name, _)| name == metric) {
            Some((_, Value::Count(n))) => *n as f64,
            Some((_, Value::Real(x))) => *x,
            _ => panic!("gate on metric {metric}, which is not recorded"),
        };
        let (pass, op) =
            if kind == "min" { (value >= limit, ">=") } else { (value <= limit, "<=") };
        let (shown, bound) = (Value::Real(value), Value::Real(limit));
        if pass {
            println!("gate {metric}: {shown} {op} {bound}");
        } else {
            eprintln!("GATE FAILED {metric}: {shown}, need {op} {bound}");
            self.failed_gates += 1;
        }
        let gate = Row { fields: vec![("metric", Value::Text(metric.to_string()))] };
        self.gates.push(gate.with(kind, limit).with("value", value).with("pass", pass));
    }

    /// Records a divergence between engines, modes or phases: it fails the
    /// run.
    pub fn diverge(&mut self, what: impl Into<String>) {
        self.divergences.push(what.into());
    }

    /// Appends `row`.
    pub fn row(&mut self, row: Row) {
        self.rows.push(row);
    }

    /// The report as JSON.
    #[must_use]
    fn render(&self) -> String {
        let mut out = String::from("{\n");
        let _ = writeln!(out, "  \"bench\": {},", quoted(self.bench));
        let _ = writeln!(out, "  \"workload\": {},", quoted(self.workload));
        let _ = writeln!(out, "  \"smoke\": {},", self.smoke);
        let _ = writeln!(out, "  \"host_vcpus\": {},", self.host_vcpus);
        let _ = writeln!(out, "  \"profile\": {},", quoted(self.profile));
        let _ = writeln!(out, "  \"divergences\": {},", self.divergences.len());
        let metrics = self.metrics.iter().map(|(name, v)| format!("{}: {v}", quoted(name)));
        let _ = writeln!(out, "  \"metrics\": {{{}}},", block(metrics));
        let _ = writeln!(out, "  \"gates\": [{}],", block(self.gates.iter().map(Row::to_string)));
        let _ = writeln!(out, "  \"rows\": [{}]\n}}", block(self.rows.iter().map(Row::to_string)));
        out
    }

    /// Writes the report to `path`, prints every divergence, and returns
    /// the exit status: 1 if a gate failed or a divergence was recorded,
    /// else 0.
    ///
    /// # Panics
    ///
    /// Panics if the file cannot be written.
    #[must_use]
    pub fn write(&self, path: &Path) -> i32 {
        std::fs::write(path, self.render())
            .unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));
        println!("wrote {}", path.display());
        for d in &self.divergences {
            eprintln!("DIVERGENCE: {d}");
        }
        i32::from(self.failed_gates > 0 || !self.divergences.is_empty())
    }
}

/// `items`, one per line at list indentation; nothing for no items.
fn block(items: impl Iterator<Item = String>) -> String {
    let items: Vec<String> = items.collect();
    if items.is_empty() {
        String::new()
    } else {
        format!("\n    {}\n  ", items.join(",\n    "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(argv: &[&str]) -> (Result<(), i32>, bool, Option<f64>) {
        let (mut smoke, mut floor) = (false, None);
        let status = Args::parse(
            "t_bench [--smoke] [--min-x F]",
            argv.iter().map(|s| s.to_string()),
            |flag, args| {
                match flag {
                    "--smoke" => smoke = true,
                    "--min-x" => floor = Some(args.value(flag)?),
                    _ => return Ok(false),
                }
                Ok(true)
            },
        );
        (status, smoke, floor)
    }

    #[test]
    fn flags_parse_and_usage_errors_exit_2() {
        assert_eq!(parse(&["--min-x", "2.5", "--smoke"]), (Ok(()), true, Some(2.5)));
        assert_eq!(parse(&[]), (Ok(()), false, None));
        assert_eq!(parse(&["--bogus"]).0, Err(2), "unknown flag");
        assert_eq!(parse(&["--min-x"]).0, Err(2), "missing value");
        assert_eq!(parse(&["--min-x", "fast"]).0, Err(2), "unparsable value");
    }

    /// A report with one metric gated at `floor` and `ceiling`, written to
    /// a file of its own: the exit status and the file's text.
    fn run(tag: &str, floor: f64, ceiling: f64, diverge: bool) -> (i32, String) {
        let mut report = Report::new("t_bench", "w", true);
        report.metric("x.per_sec", 10.0);
        report.min("x.per_sec", Some(floor));
        report.max("x.per_sec", Some(ceiling));
        report.min("x.per_sec", None);
        if diverge {
            report.diverge("a and b disagree");
        }
        let path =
            std::env::temp_dir().join(format!("wo-bench-report-{}-{tag}.json", std::process::id()));
        let status = report.write(&path);
        let text = std::fs::read_to_string(&path).expect("the report is written first");
        std::fs::remove_file(&path).ok();
        (status, text)
    }

    #[test]
    fn a_failed_gate_or_divergence_exits_1_after_writing() {
        let (status, text) = run("pass", 10.0, 10.0, false);
        assert_eq!(status, 0);
        assert_eq!(text.matches("\"pass\": true").count(), 2, "{text}");
        let (status, text) = run("floor", 10.5, 20.0, false);
        assert_eq!(status, 1);
        assert!(
            text.contains(
                "{\"metric\": \"x.per_sec\", \"min\": 10.5, \"value\": 10, \"pass\": false}"
            ),
            "{text}"
        );
        let (status, text) = run("ceiling", 1.0, 9.5, false);
        assert_eq!(status, 1);
        assert!(text.contains("\"max\": 9.5, \"value\": 10, \"pass\": false"), "{text}");
        let (status, text) = run("diverge", 1.0, 20.0, true);
        assert_eq!(status, 1);
        assert!(text.contains("\"divergences\": 1,"), "{text}");
    }

    #[test]
    fn golden_rendering_pins_the_schema_and_escaping() {
        let mut report = Report::new("t_bench", "tiny", false);
        report.host_vcpus = 2;
        report.profile = "release";
        report.metric("programs", 3usize);
        report.metric("dpor.seconds", 0.25);
        report.metric("speedup", f64::INFINITY);
        report.min("programs", Some(1.0));
        report.row(
            Row::new("odd \"name\" \\ here")
                .with("steps", 7u64)
                .with("us", 1.5)
                .with("verdict", "drf0".to_string()),
        );
        report.row(Row::new("plain"));
        let want = r#"{
  "bench": "t_bench",
  "workload": "tiny",
  "smoke": false,
  "host_vcpus": 2,
  "profile": "release",
  "divergences": 0,
  "metrics": {
    "programs": 3,
    "dpor.seconds": 0.25,
    "speedup": null
  },
  "gates": [
    {"metric": "programs", "min": 1, "value": 3, "pass": true}
  ],
  "rows": [
    {"name": "odd \"name\" \\ here", "steps": 7, "us": 1.5, "verdict": "drf0"},
    {"name": "plain"}
  ]
}
"#;
        assert_eq!(report.render(), want);
        let empty = Report { metrics: Vec::new(), gates: Vec::new(), rows: Vec::new(), ..report };
        assert!(empty
            .render()
            .ends_with("\"metrics\": {},\n  \"gates\": [],\n  \"rows\": []\n}\n"));
    }

    #[test]
    fn reals_keep_six_decimals_without_trailing_zeros() {
        for (x, want) in [
            (0.0, "0"),
            (100.0, "100"),
            (0.1234567, "0.123457"),
            (-2.5, "-2.5"),
            (f64::NAN, "null"),
        ] {
            assert_eq!(Value::Real(x).to_string(), want);
        }
        assert_eq!(quoted("a\nb"), "\"a\\u000ab\"");
    }

    #[test]
    fn best_of_keeps_the_last_result_and_runs_at_least_once() {
        let mut calls = 0;
        let (secs, last) = best_of(3, || {
            calls += 1;
            calls
        });
        assert_eq!((calls, last), (3, 3));
        assert!(secs >= 0.0);
        assert_eq!(best_of(0, || 7).1, 7);
    }
}
