//! A small wall-clock benchmark harness replacing the `criterion`
//! dependency so `cargo bench` builds offline.
//!
//! It keeps the parts of the criterion API shape the bench files actually
//! use — named groups, per-group sample sizes, labelled cases — and prints
//! a table of min/median/max nanoseconds per iteration. It makes no
//! statistical claims beyond that; the benches here are ablation
//! comparisons where order-of-magnitude medians are what the DESIGN.md
//! decisions cite.

use std::time::Instant;

/// One timed case: label plus observed per-iteration nanoseconds.
#[derive(Debug, Clone)]
struct Case {
    label: String,
    samples: Vec<u64>,
}

/// A named group of benchmark cases sharing a sample size.
#[derive(Debug)]
pub struct Group {
    name: String,
    sample_size: usize,
    cases: Vec<Case>,
}

impl Group {
    /// Sets how many timed samples each case records (default 10).
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(1);
        self
    }

    /// Times `f`, recording `sample_size` samples after one warm-up call.
    pub fn bench(&mut self, label: &str, mut f: impl FnMut()) -> &mut Self {
        f(); // warm-up: first call pays allocation/lazy-init costs
        let mut samples = Vec::with_capacity(self.sample_size);
        for _ in 0..self.sample_size {
            let start = Instant::now();
            f();
            samples.push(u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX));
        }
        samples.sort_unstable();
        self.cases.push(Case { label: label.to_string(), samples });
        self
    }

    /// Prints the group's results.
    pub fn finish(self) {
        println!("\n{}", self.name);
        println!("{:-<width$}", "", width = self.name.len());
        println!("{:<36} {:>12} {:>12} {:>12}", "case", "min", "median", "max");
        for case in &self.cases {
            let n = case.samples.len();
            println!(
                "{:<36} {:>12} {:>12} {:>12}",
                case.label,
                fmt_ns(case.samples[0]),
                fmt_ns(median(&case.samples)),
                fmt_ns(case.samples[n - 1]),
            );
        }
    }
}

/// Median of a sorted, non-empty sample vector. For even counts this is
/// the midpoint average of the two middle samples — `samples[n / 2]`
/// alone is an upper-median, which biased every default-sized (10-sample)
/// group high.
///
/// Public so report binaries (e.g. `perf_comparison`) share the corrected
/// midpoint-median instead of re-deriving a biased one.
#[must_use]
pub fn median(sorted: &[u64]) -> u64 {
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        let lo = sorted[n / 2 - 1];
        let hi = sorted[n / 2];
        lo + (hi - lo) / 2
    }
}

/// The top-level harness for one bench binary.
#[derive(Debug)]
pub struct Harness {
    name: &'static str,
    quick: bool,
}

impl Harness {
    /// Creates the harness, consuming (and ignoring) the arguments cargo
    /// passes to bench binaries (`--bench`, filters).
    #[must_use]
    pub fn new(name: &'static str) -> Self {
        let quick = std::env::args().any(|a| a == "--quick");
        println!("bench: {name}{}", if quick { " (quick)" } else { "" });
        Harness { name, quick }
    }

    /// Opens a named group of cases.
    #[must_use]
    pub fn group(&mut self, name: &str) -> Group {
        Group {
            name: format!("{}/{name}", self.name),
            sample_size: if self.quick { 2 } else { 10 },
            cases: Vec::new(),
        }
    }

    /// `true` when invoked with `--quick` (CI smoke): groups default to
    /// 2 samples and callers may shrink their inputs.
    #[must_use]
    pub fn quick(&self) -> bool {
        self.quick
    }
}

fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.2}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.2}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.2}µs", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn groups_record_every_case() {
        let mut h = Harness::new("self-test");
        let mut g = h.group("g");
        g.sample_size(3);
        let mut calls = 0u32;
        g.bench("a", || calls += 1);
        assert_eq!(calls, 4, "warm-up + 3 samples");
        assert_eq!(g.cases.len(), 1);
        assert_eq!(g.cases[0].samples.len(), 3);
        g.finish();
    }

    #[test]
    fn median_averages_the_middle_pair_for_even_counts() {
        assert_eq!(median(&[7]), 7);
        assert_eq!(median(&[1, 3]), 2);
        assert_eq!(median(&[1, 2, 3]), 2);
        // The original bug: samples[n / 2] would report 40 here.
        assert_eq!(median(&[10, 20, 40, 100]), 30);
        // Ten samples (the default sample_size): middle pair is (5, 6).
        assert_eq!(median(&[1, 2, 3, 4, 5, 6, 7, 8, 9, 10]), 5);
        // Midpoint rounding never overflows near u64::MAX.
        assert_eq!(median(&[u64::MAX - 2, u64::MAX]), u64::MAX - 1);
    }

    #[test]
    fn nanosecond_formatting_scales() {
        assert_eq!(fmt_ns(5), "5ns");
        assert_eq!(fmt_ns(1_500), "1.50µs");
        assert_eq!(fmt_ns(2_000_000), "2.00ms");
        assert_eq!(fmt_ns(3_000_000_000), "3.00s");
    }
}
