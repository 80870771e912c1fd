//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark around its calls into each layer's
//! public functions: `(name, start, end, parent, query id)`. A layer's
//! self time is its span minus the part its child spans cover. Counters
//! are recorded at the same boundaries. Everything is kept in memory and
//! written out once, when the run ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Index of a recorded span.
pub type SpanId = usize;

struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<SpanId>,
    query: u64,
}

pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<SpanId>,
    query: u64,
    counters: BTreeMap<&'static str, f64>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::with_capacity(1 << 14),
            open: Vec::new(),
            query: 0,
            counters: BTreeMap::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Spans begun from here on belong to query `id`.
    pub fn set_query(&mut self, id: u64) {
        self.query = id;
    }

    /// Open a span as a child of the innermost open span.
    pub fn begin(&mut self, name: &'static str) -> SpanId {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            query: self.query,
        });
        self.open.push(id);
        id
    }

    /// Close span `id`, which must be the innermost open span.
    pub fn end(&mut self, id: SpanId) {
        assert_eq!(self.open.pop(), Some(id), "spans must nest");
        self.spans[id].end_ns = self.now_ns();
    }

    /// Time `f` as a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.begin(name);
        let out = f();
        self.end(id);
        out
    }

    /// Record a child of `parent` whose duration was measured or
    /// estimated elsewhere (write phases, estimated decode time). It is
    /// laid out from `offset_ns` after the parent's start.
    pub fn add_child(&mut self, parent: SpanId, name: &'static str, offset_ns: u64, dur_ns: u64) {
        let start_ns = self.spans[parent].start_ns + offset_ns;
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns + dur_ns,
            parent: Some(parent),
            query: self.spans[parent].query,
        });
    }

    pub fn duration_ns(&self, id: SpanId) -> u64 {
        self.spans[id].end_ns - self.spans[id].start_ns
    }

    /// Add `v` to counter `name`.
    pub fn count(&mut self, name: &'static str, v: f64) {
        *self.counters.entry(name).or_insert(0.0) += v;
    }

    pub fn counter(&self, name: &str) -> f64 {
        self.counters.get(name).copied().unwrap_or(0.0)
    }

    /// Self time in seconds per span name: each span's duration minus the
    /// durations of its direct children.
    pub fn self_secs(&self) -> BTreeMap<&'static str, f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let own = (s.end_ns - s.start_ns).saturating_sub(child_ns[i]);
            *out.entry(s.name).or_insert(0.0) += own as f64 * 1e-9;
        }
        out
    }

    /// Total seconds over every span named `name`.
    pub fn total_secs(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 * 1e-9)
            .sum()
    }

    /// Per-query seconds of spans named `name`, summed within each query,
    /// in query order.
    pub fn per_query_secs(&self, name: &str) -> Vec<f64> {
        let mut by_query: BTreeMap<u64, f64> = BTreeMap::new();
        for s in self.spans.iter().filter(|s| s.name == name) {
            *by_query.entry(s.query).or_insert(0.0) += (s.end_ns - s.start_ns) as f64 * 1e-9;
        }
        by_query.into_values().collect()
    }

    /// Write spans and counters as tab-separated text.
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "# span\tid\tname\tstart_ns\tend_ns\tparent\tquery")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or(-1, |p| p as i64);
            writeln!(
                w,
                "span\t{i}\t{}\t{}\t{}\t{parent}\t{}",
                s.name, s.start_ns, s.end_ns, s.query
            )?;
        }
        writeln!(w, "# counter\tname\tvalue")?;
        for (name, v) in &self.counters {
            writeln!(w, "counter\t{name}\t{v}")?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children() {
        let mut t = Tracer::new();
        let root = t.begin("root");
        let child = t.begin("child");
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.end(child);
        t.add_child(root, "est", 0, 1_000);
        t.end(root);
        let selfs = t.self_secs();
        let total = t.total_secs("root");
        let sum: f64 = selfs.values().sum();
        assert!((sum - total).abs() < 1e-9, "{sum} vs {total}");
        assert!(selfs["child"] >= 0.002);
    }
}
