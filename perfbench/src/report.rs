//! Metric collection, order statistics and the one-line JSON result.

use std::fmt::Write as _;
use std::time::Duration;

/// One named measurement with its unit.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// What one workload run produced: metrics plus the failure accounting
/// every result line carries.
#[derive(Debug, Default)]
pub struct Outcome {
    pub metrics: Vec<Metric>,
    /// Work items the run attempted (queries, trace checks, seeds).
    pub attempted: u64,
    /// Items that failed: error responses, transport errors, output
    /// mismatches against the reference, oracle `Fail`s.
    pub failed: u64,
    /// Items answered with a degraded `Unknown`/`BudgetExceeded`.
    pub unknown: u64,
    /// Human-readable notes printed before the result line (mismatch
    /// details, run metadata).
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    /// Counts a failed item and keeps the first few explanations.
    pub fn fail(&mut self, why: impl Into<String>) {
        self.failed += 1;
        if self.failed <= 5 {
            self.notes.push(format!("FAIL: {}", why.into()));
        }
    }

    /// Whether every reported value is a finite number.
    pub fn metrics_finite(&self) -> bool {
        self.metrics.iter().all(|m| m.value.is_finite())
    }

    /// The single JSON object the benchmark prints as its last line.
    pub fn result_line(&self, correct: bool) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.attempted, self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            );
        }
        out.push_str("}}");
        out
    }
}

/// Nearest-rank quantile of an unsorted sample (`q` in 0..=1); 0 for an
/// empty sample.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut sorted = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median with midpoint averaging for even sample counts.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut sorted = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Runs one timed window on a fresh thread. A long single-threaded loop
/// tends to stay on one vCPU for its whole life, and on a shared host one
/// vCPU can stay contended for seconds; a fresh thread per window is placed
/// anew each time, so the best latency across windows reflects the
/// program rather than one vCPU's neighbours.
pub fn on_fresh_thread<T: Send>(f: impl FnOnce() -> T + Send) -> T {
    std::thread::scope(|s| s.spawn(f).join().expect("timed window panicked"))
}

/// Starts the span `peak_rss_mb` covers: resets this process's peak
/// resident set size to its current size (Linux `clear_refs`), so the
/// untimed set-up and reference work before the timed phases do not set
/// the mark.
pub fn start_rss_window(out: &mut Outcome) {
    if std::fs::write("/proc/self/clear_refs", "5").is_err() {
        out.notes.push(
            "peak_rss_mb: the peak mark cannot be reset here, so it includes the untimed set-up"
                .into(),
        );
    }
}

/// Ends the span: records the peak since [`start_rss_window`] as
/// `peak_rss_mb`. Called as soon as the timed phases end, before any
/// reference check or cross-check.
pub fn end_rss_window(out: &mut Outcome) {
    out.put("peak_rss_mb", peak_rss_mib(), "MiB");
}

/// Peak resident set size of this process (`VmHWM`) in MiB; 0 when the
/// platform has no `/proc`.
pub fn peak_rss_mib() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Sorted-sample accumulator for one latency series.
#[derive(Debug, Default, Clone)]
pub struct Series {
    pub samples: Vec<f64>,
}

impl Series {
    pub fn push(&mut self, x: f64) {
        self.samples.push(x);
    }

    pub fn q(&self, q: f64) -> f64 {
        quantile(&self.samples, q)
    }
}

/// Identical passes over the same items, timed pass by pass. Contention
/// from other tenants of a shared host only ever adds time and comes in
/// bursts lasting up to seconds, so the steadiest estimates of the
/// program's own cost are a fast pass rate (the rate that one pass in ten
/// reaches) and, for each item, its least-contended latency across passes.
#[derive(Debug, Default)]
pub struct Windows {
    /// (items, seconds) per pass.
    passes: Vec<(u64, f64)>,
    /// Per item (same index in every pass), its lowest latency in µs.
    best_us: Vec<f64>,
}

impl Windows {
    /// Records one pass; `latencies_us[i]` must be the same item in every
    /// pass (empty when the pass has no per-item timings).
    pub fn push(&mut self, items: u64, secs: f64, latencies_us: &[f64]) {
        self.passes.push((items, secs));
        for (i, &l) in latencies_us.iter().enumerate() {
            match self.best_us.get_mut(i) {
                Some(best) => *best = best.min(l),
                None => self.best_us.push(l),
            }
        }
    }

    pub fn len(&self) -> usize {
        self.passes.len()
    }

    /// Seconds timed so far.
    pub fn elapsed(&self) -> f64 {
        self.passes.iter().map(|p| p.1).sum()
    }

    /// Items per second that one pass in ten reaches: the 90th
    /// percentile of pass rates. Steadier across runs than the single
    /// fastest pass, which hangs on the luckiest moment of the run (over
    /// five serve-hot runs of about a thousand batch passes each, the
    /// fastest pass spread 0.125 of its median from run to run and this
    /// estimate 0.062); with ten passes or fewer it is the fastest pass.
    pub fn fast_rate(&self) -> f64 {
        let rates: Vec<f64> = self
            .passes
            .iter()
            .map(|&(n, s)| n as f64 / s.max(1e-9))
            .collect();
        quantile(&rates, 0.9)
    }

    /// Items per second if every item took its best latency: the
    /// single-stream rate with contention bursts filtered out per item.
    pub fn best_item_rate(&self) -> f64 {
        self.best_us.len() as f64 / (self.best_us.iter().sum::<f64>() / 1e6).max(1e-9)
    }

    /// The `q` quantile over items of each item's best latency.
    pub fn best_q(&self, q: f64) -> f64 {
        quantile(&self.best_us, q)
    }
}

/// Which path a run times next, given what each has timed so far: `false`
/// for the one-at-a-time path, `true` for the bulk path, `None` once both
/// have `phase` seconds. The path with less time goes next, so the two
/// alternate over the whole run instead of taking one half each: the
/// host's speed drifts over seconds, and both estimates then see all of
/// the run's drift alike.
pub fn next_is_bulk(one: &Windows, bulk: &Windows, phase: f64) -> Option<bool> {
    let (a, b) = (one.elapsed(), bulk.elapsed());
    match (a < phase, b < phase) {
        (false, false) => None,
        (true, false) => Some(false),
        (false, true) => Some(true),
        (true, true) => Some(b < a),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_use_nearest_rank() {
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quantile(&xs, 0.5), 5.0);
        assert_eq!(quantile(&xs, 0.9), 9.0);
        assert_eq!(quantile(&xs, 1.0), 10.0);
        assert_eq!(median(&xs), 5.5);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn windows_keep_each_items_best_latency() {
        let mut w = Windows::default();
        w.push(10, 2.0, &[3.0, 1.0, 2.0]);
        w.push(10, 1.0, &[5.0, 4.0, 1.5]);
        assert_eq!(w.fast_rate(), 10.0);
        assert_eq!(w.best_item_rate(), 3.0 / 5.5e-6);
        assert_eq!(w.best_q(0.5), 1.5);
        assert_eq!(w.best_q(1.0), 3.0);
        assert_eq!(w.elapsed(), 3.0);
        for k in 1..=18 {
            w.push(10, 1.0 + f64::from(k), &[]);
        }
        // Rates 10/1, 10/2, 10/3, … over 20 passes: the second fastest.
        assert_eq!(w.fast_rate(), 5.0);
    }

    #[test]
    fn paths_alternate_until_both_have_their_time() {
        let (mut one, mut bulk) = (Windows::default(), Windows::default());
        let mut order = Vec::new();
        while let Some(is_bulk) = next_is_bulk(&one, &bulk, 3.0) {
            order.push(is_bulk);
            if is_bulk {
                bulk.push(1, 0.5, &[]);
            } else {
                one.push(1, 1.0, &[]);
            }
        }
        assert_eq!(
            order,
            [false, true, true, false, true, true, false, true, true]
        );
    }

    #[test]
    fn result_line_is_one_json_object() {
        let mut o = Outcome {
            attempted: 3,
            ..Outcome::default()
        };
        o.put("setup_s", 0.25, "s");
        assert_eq!(
            o.result_line(true),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
        );
    }
}
