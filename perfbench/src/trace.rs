//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span records its layer name, start and end (nanoseconds since the tracer's epoch),
//! the span that caused it and the request it belongs to.  Spans stay in memory while the
//! traced pass runs and are written out once it ends.  A layer's *self time* is its span's
//! duration minus the part of that interval its child spans cover, so the self times of
//! every span under a root add up to the root's duration.  A tracer made with
//! [`Tracer::off`] records nothing, so the same calls can run untraced for comparison.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// The layer the span measures (`"wire"`, `"pool"`, …).
    pub name: &'static str,
    /// Start, in nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer's epoch.
    pub end_ns: u64,
    /// Index of the enclosing span, `None` for a root.
    pub parent: Option<usize>,
    /// The request the span belongs to (0 for spans outside any request).
    pub request: u64,
}

impl Span {
    /// The span's duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records nested spans for one thread.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    on: bool,
}

impl Tracer {
    /// A tracer whose timestamps count from `epoch` (share one epoch across threads so
    /// their spans line up).
    pub fn new(epoch: Instant) -> Tracer {
        Tracer {
            epoch,
            spans: Vec::new(),
            open: Vec::new(),
            on: true,
        }
    }

    /// A tracer that records no span: the untraced baseline of the same calls.
    pub fn off() -> Tracer {
        Tracer {
            on: false,
            ..Tracer::new(Instant::now())
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span nested in the innermost open one.
    pub fn begin(&mut self, name: &'static str, request: u64) -> usize {
        if !self.on {
            return 0;
        }
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            request,
        });
        self.open.push(id);
        id
    }

    /// Closes the innermost open span, which must be `id`.
    pub fn end(&mut self, id: usize) {
        if !self.on {
            return;
        }
        assert_eq!(
            self.open.pop(),
            Some(id),
            "spans must close innermost first"
        );
        self.spans[id].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span that has no child spans of its own.
    pub fn leaf<T>(&mut self, name: &'static str, request: u64, f: impl FnOnce() -> T) -> T {
        let id = self.begin(name, request);
        let out = f();
        self.end(id);
        out
    }

    /// The recorded spans (every span must be closed).
    pub fn finish(self) -> Vec<Span> {
        assert!(self.open.is_empty(), "unclosed spans at finish");
        self.spans
    }
}

/// Concatenates per-thread span lists, re-basing each list's parent indices.
pub fn merge(parts: Vec<Vec<Span>>) -> Vec<Span> {
    let mut out = Vec::new();
    for part in parts {
        let base = out.len();
        out.extend(part.into_iter().map(|mut span| {
            span.parent = span.parent.map(|p| p + base);
            span
        }));
    }
    out
}

/// Each span's self time: its duration minus the union of its children's intervals,
/// clipped to its own.  Overlapping children are counted once.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            children[parent].push((span.start_ns, span.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(span, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = span.start_ns;
            for &(start, end) in kids.iter() {
                let start = start.max(reach);
                let end = end.min(span.end_ns);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            span.duration_ns() - covered.min(span.duration_ns())
        })
        .collect()
}

/// Per-layer totals of a span list.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LayerTotal {
    /// Summed self time, nanoseconds.
    pub self_ns: u64,
    /// Spans recorded for the layer.
    pub count: u64,
}

/// Sums self time and span count per layer name.
pub fn layer_totals(spans: &[Span]) -> BTreeMap<&'static str, LayerTotal> {
    let mut totals: BTreeMap<&'static str, LayerTotal> = BTreeMap::new();
    for (span, self_ns) in spans.iter().zip(self_times(spans)) {
        let total = totals.entry(span.name).or_default();
        total.self_ns += self_ns;
        total.count += 1;
    }
    totals
}

/// Writes spans as JSON lines (`name`, `start_ns`, `end_ns`, `parent`, `request`).
pub fn write_jsonl(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (id, span) in spans.iter().enumerate() {
        let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"id\": {id}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"request\": {}}}",
            span.name, span.start_ns, span.end_ns, span.request
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            request: 1,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = vec![
            span("request", 0, 100, None),
            span("wire", 10, 30, Some(0)),
            span("pool", 40, 90, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![30, 20, 50]);
    }

    #[test]
    fn overlapping_children_count_once() {
        // Two children overlapping on 40..50 and one reaching past the parent's end.
        let spans = vec![
            span("request", 0, 100, None),
            span("a", 20, 50, Some(0)),
            span("b", 40, 70, Some(0)),
            span("c", 90, 130, Some(0)),
        ];
        // Covered: 20..70 and 90..100 = 60, so the parent keeps 40.
        assert_eq!(self_times(&spans)[0], 40);
    }

    #[test]
    fn self_times_add_up_to_the_roots() {
        let spans = vec![
            span("run", 0, 1000, None),
            span("request", 100, 400, Some(0)),
            span("wire", 120, 200, Some(1)),
            span("pool", 200, 390, Some(1)),
            span("request", 500, 900, Some(0)),
            span("ui", 510, 880, Some(4)),
        ];
        let sum: u64 = self_times(&spans).iter().sum();
        assert_eq!(sum, spans[0].duration_ns());
        let totals = layer_totals(&spans);
        assert_eq!(totals["run"].self_ns, 1000 - 300 - 400);
        assert_eq!(totals["request"].count, 2);
        assert_eq!(totals["request"].self_ns, (300 - 80 - 190) + (400 - 370));
    }

    #[test]
    fn tracer_nests_and_merge_rebases_parents() {
        let epoch = Instant::now();
        let mut first = Tracer::new(epoch);
        let root = first.begin("run", 0);
        first.leaf("wire", 1, || ());
        first.end(root);
        let mut second = Tracer::new(epoch);
        let root = second.begin("run", 0);
        second.leaf("pool", 2, || ());
        second.end(root);
        let spans = merge(vec![first.finish(), second.finish()]);
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[3].parent, Some(2));
        assert!(spans.iter().all(|s| s.end_ns >= s.start_ns));
    }

    #[test]
    fn an_off_tracer_runs_the_calls_and_records_nothing() {
        let mut tracer = Tracer::off();
        let request = tracer.begin("request", 1);
        assert_eq!(tracer.leaf("wire", 1, || 7), 7);
        tracer.end(request);
        assert!(tracer.finish().is_empty());
    }
}
