//! Outside-in span tracing: the benchmark times its own calls into each
//! layer's public functions. Nothing inside the program is instrumented.
//!
//! Every traced operation is one root span (`bench.query`, `bench.ingest`)
//! whose children are the layer calls made on its behalf. A span's *self
//! time* is its duration minus the part of it its direct children cover. A
//! root's self time is the work no layer span claims, reported as
//! `unattributed` rather than hidden. Spans are kept in memory and written
//! out once the run ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the tracer started.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Index of this span in the tracer's record.
    pub id: u32,
    /// The span that caused this one; `None` for an operation's root.
    pub parent: Option<u32>,
    /// `layer.operation`, e.g. `ldp.rr.perturb`.
    pub name: &'static str,
    /// Start, in ns since the tracer's epoch.
    pub start: u64,
    /// End, in ns since the tracer's epoch.
    pub end: u64,
}

impl Span {
    /// Duration in ns.
    #[must_use]
    pub fn duration(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// The in-memory span record of one traced run.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// An empty record whose clock starts now.
    #[must_use]
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::with_capacity(1 << 16),
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`Tracer::end`].
    pub fn begin(&mut self, name: &'static str, parent: Option<u32>) -> u32 {
        let id = self.spans.len() as u32;
        let start = self.now();
        self.spans.push(Span {
            id,
            parent,
            name,
            start,
            end: start,
        });
        id
    }

    /// Closes span `id`.
    pub fn end(&mut self, id: u32) {
        let now = self.now();
        self.spans[id as usize].end = now;
    }

    /// Runs `f` inside a child span of `parent`.
    pub fn time<R>(&mut self, name: &'static str, parent: u32, f: impl FnOnce() -> R) -> R {
        let id = self.begin(name, Some(parent));
        let out = f();
        self.end(id);
        out
    }

    /// Every span recorded so far.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations in µs of every span named `name`.
    #[must_use]
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration() as f64 / 1e3)
            .collect()
    }
}

/// Self time of every span, indexed like `spans`: its duration minus the
/// union of its direct children's intervals (clipped to the span).
#[must_use]
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p as usize].push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start;
            for &(lo, hi) in kids.iter() {
                let lo = lo.max(reach);
                let hi = hi.min(s.end);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            s.duration().saturating_sub(covered)
        })
        .collect()
}

/// The layer a span name belongs to: everything before its last `.`
/// (`ldp.rr.perturb` → `ldp.rr`).
#[must_use]
pub fn layer_of(name: &str) -> &str {
    name.rsplit_once('.').map_or(name, |(layer, _)| layer)
}

/// Per-layer self time of a traced run.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerTable {
    /// `layer → (calls, self ns)`, for every non-root span.
    pub layers: BTreeMap<String, (usize, u64)>,
    /// Self time of the root spans: time no layer span covers.
    pub unattributed_ns: u64,
    /// Summed duration of the root spans (the traced end-to-end time).
    pub traced_ns: u64,
    /// Number of root spans (traced operations).
    pub ops: usize,
}

impl LayerTable {
    /// Builds the table from a span record.
    #[must_use]
    pub fn from_spans(spans: &[Span]) -> Self {
        let selfs = self_times(spans);
        let mut layers: BTreeMap<String, (usize, u64)> = BTreeMap::new();
        let (mut unattributed_ns, mut traced_ns, mut ops) = (0, 0, 0);
        for (s, &own) in spans.iter().zip(&selfs) {
            if s.parent.is_none() {
                unattributed_ns += own;
                traced_ns += s.duration();
                ops += 1;
            } else {
                let row = layers.entry(layer_of(s.name).to_string()).or_default();
                row.0 += 1;
                row.1 += own;
            }
        }
        Self {
            layers,
            unattributed_ns,
            traced_ns,
            ops,
        }
    }

    /// Summed self time of every layer span.
    #[must_use]
    pub fn attributed_ns(&self) -> u64 {
        self.layers.values().map(|&(_, ns)| ns).sum()
    }
}

/// The closure ratio: summed layer self time over the untraced end-to-end
/// time of the same operations. 1.0 means the layers account for all of
/// it; the shortfall is `unattributed` work plus tracing overhead.
#[must_use]
pub fn closure_ratio(attributed_ns: u64, untraced_ns: f64) -> f64 {
    if untraced_ns <= 0.0 {
        0.0
    } else {
        attributed_ns as f64 / untraced_ns
    }
}

/// Renders the span record as JSON lines: one object per span.
#[must_use]
pub fn spans_json(spans: &[Span]) -> String {
    let mut out = String::with_capacity(spans.len() * 72);
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{{\"id\":{},\"parent\":{parent},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            s.id, s.name, s.start, s.end
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, name: &'static str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            name,
            start,
            end,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // root [0,100) ⊃ a [10,40) ⊃ a1 [15,25); root ⊃ b [50,70).
        let spans = vec![
            span(0, None, "bench.query", 0, 100),
            span(1, Some(0), "cne.batch.round1", 10, 40),
            span(2, Some(1), "ldp.rr.perturb", 15, 25),
            span(3, Some(0), "cne.batch.round2", 50, 70),
        ];
        assert_eq!(self_times(&spans), vec![50, 20, 10, 20]);
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once() {
        // Two children overlap on [30,40); one overhangs the parent's end.
        let spans = vec![
            span(0, None, "bench.ingest", 0, 100),
            span(1, Some(0), "x.a", 20, 40),
            span(2, Some(0), "x.b", 30, 60),
            span(3, Some(0), "x.c", 90, 120),
        ];
        assert_eq!(self_times(&spans)[0], 100 - 40 - 10);
    }

    #[test]
    fn layer_table_and_closure() {
        let spans = vec![
            span(0, None, "bench.query", 0, 100),
            span(1, Some(0), "cne.batch.round1", 10, 40),
            span(2, Some(1), "ldp.rr.perturb", 15, 25),
            span(3, Some(0), "cne.batch.round2", 50, 70),
            span(4, None, "bench.query", 200, 250),
            span(5, Some(4), "cne.batch.round2", 200, 240),
        ];
        let t = LayerTable::from_spans(&spans);
        assert_eq!(t.ops, 2);
        assert_eq!(t.traced_ns, 150);
        assert_eq!(t.unattributed_ns, 50 + 10);
        assert_eq!(t.layers["cne.batch"], (3, 20 + 20 + 40));
        assert_eq!(t.layers["ldp.rr"], (1, 10));
        assert_eq!(t.attributed_ns(), 90);
        // Attributed + unattributed = traced end-to-end.
        assert_eq!(t.attributed_ns() + t.unattributed_ns, t.traced_ns);
        // Against an untraced end-to-end time of 120 ns the layers close 75%.
        assert!((closure_ratio(t.attributed_ns(), 120.0) - 0.75).abs() < 1e-12);
        assert_eq!(closure_ratio(5, 0.0), 0.0);
    }

    #[test]
    fn tracer_nests_and_names_layers() {
        let mut t = Tracer::new();
        let root = t.begin("bench.query", None);
        let v = t.time("cne.optimizer.optimize", root, || 7);
        t.end(root);
        assert_eq!(v, 7);
        assert_eq!(t.spans().len(), 2);
        assert_eq!(t.spans()[1].parent, Some(root));
        assert!(t.spans()[0].end >= t.spans()[1].end);
        assert_eq!(layer_of("cne.optimizer.optimize"), "cne.optimizer");
        assert_eq!(layer_of("plain"), "plain");
        assert!(spans_json(t.spans()).contains("\"parent\":null"));
    }
}
