//! In-memory spans for the traced run.
//!
//! Spans are recorded around the benchmark's own calls into each layer,
//! kept in memory, and written out as JSON lines when the run ends. A
//! span's self time is its duration minus the time its child spans cover;
//! per-layer busy time is the sum of self times under one name.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};

use crate::report::quantile;

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    /// The query, trace check or seed the span belongs to.
    item: u64,
    /// Nanoseconds covered by direct children.
    child_ns: u64,
}

/// Handle of an open span.
#[derive(Debug, Clone, Copy)]
pub struct SpanId(usize);

pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

/// Aggregates of every span sharing a name.
#[derive(Debug, Default, Clone)]
pub struct LayerStats {
    pub calls: u64,
    /// Per-call self time in microseconds.
    pub self_us: Vec<f64>,
}

impl LayerStats {
    pub fn busy_ms(&self) -> f64 {
        self.self_us.iter().sum::<f64>() / 1e3
    }

    pub fn q_us(&self, q: f64) -> f64 {
        quantile(&self.self_us, q)
    }
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn begin(&mut self, name: &'static str, parent: Option<SpanId>, item: u64) -> SpanId {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: parent.map(|p| p.0),
            item,
            child_ns: 0,
        });
        SpanId(self.spans.len() - 1)
    }

    /// Closes `id` and returns its duration.
    pub fn end(&mut self, id: SpanId) -> Duration {
        let end_ns = self.now_ns();
        let span = &mut self.spans[id.0];
        span.end_ns = end_ns;
        let dur = end_ns - span.start_ns;
        if let Some(p) = span.parent {
            self.spans[p].child_ns += dur;
        }
        Duration::from_nanos(dur)
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        item: u64,
        f: impl FnOnce() -> T,
    ) -> (T, Duration) {
        let id = self.begin(name, parent, item);
        let out = f();
        (out, self.end(id))
    }

    /// Per-name aggregates over every closed span.
    pub fn layers(&self) -> BTreeMap<&'static str, LayerStats> {
        let mut out: BTreeMap<&'static str, LayerStats> = BTreeMap::new();
        for s in &self.spans {
            let self_ns = (s.end_ns - s.start_ns).saturating_sub(s.child_ns);
            let entry = out.entry(s.name).or_default();
            entry.calls += 1;
            entry.self_us.push(self_ns as f64 / 1e3);
        }
        out
    }

    /// Sum of span durations per (name, item): what one item spent in
    /// each layer.
    pub fn per_item(&self, name: &str) -> BTreeMap<u64, f64> {
        let mut out = BTreeMap::new();
        for s in self.spans.iter().filter(|s| s.name == name) {
            *out.entry(s.item).or_insert(0.0) += (s.end_ns - s.start_ns) as f64 / 1e3;
        }
        out
    }

    /// Writes every span as one JSON object per line to
    /// `<dir>/spans-<workload>-seed<seed>.jsonl`, after a line naming the
    /// run. Spans are diagnostics, not results: a failed write is reported
    /// on stderr and the run goes on.
    pub fn write_jsonl(&self, dir: &Path, workload: &str, seed: u64) {
        let path = dir.join(format!("spans-{workload}-seed{seed}.jsonl"));
        let mut text = String::with_capacity(self.spans.len() * 96 + 64);
        let _ = writeln!(text, "{{\"workload\": \"{workload}\", \"seed\": {seed}}}");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            let _ = writeln!(
                text,
                "{{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"item\": {}}}",
                s.name, s.start_ns, s.end_ns, s.item
            );
        }
        if let Err(e) = std::fs::write(&path, text) {
            eprintln!("perfbench: could not write {}: {e}", path.display());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new();
        let root = t.begin("root", None, 7);
        let ((), child) = t.time("child", Some(root), 7, || {
            std::thread::sleep(Duration::from_millis(5));
        });
        let total = t.end(root);
        let layers = t.layers();
        let root_self = layers["root"].self_us[0];
        assert!((root_self - (total - child).as_secs_f64() * 1e6).abs() < 1.0);
        assert_eq!(layers["child"].calls, 1);
        assert!(t.per_item("child")[&7] >= 5000.0);
    }
}
