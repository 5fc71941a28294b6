//! In-memory spans recorded by the benchmark around its calls into each
//! layer: name, start, end, the span that caused it, and the query they
//! belong to. Kept in memory, written out when the run ends. A layer's
//! *self* time is its span minus the part its children cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

pub type SpanId = usize;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub query: u32,
    pub parent: Option<SpanId>,
    pub start_ns: u64,
    pub end_ns: u64,
}

pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<SpanId>,
    /// A disabled tracer records nothing: the same replay code then
    /// gives the untraced wall time the overhead is measured against.
    enabled: bool,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            enabled,
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str, query: u32) -> SpanId {
        if !self.enabled {
            return 0;
        }
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            query,
            parent: self.open.last().copied(),
            start_ns: now,
            end_ns: now,
        });
        self.open.push(self.spans.len() - 1);
        self.spans.len() - 1
    }

    pub fn exit(&mut self, id: SpanId) {
        if !self.enabled {
            return;
        }
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        self.spans[id].end_ns = self.now_ns();
    }

    /// Record a child of the closed span `parent` from a duration the
    /// library itself reported (`Filtered::filter_time`, a
    /// `StageReport`): `ns` long, starting `offset_ns` into the parent,
    /// clipped to it. Returns the offset just past the child.
    pub fn child(&mut self, parent: SpanId, name: &'static str, offset_ns: u64, ns: u64) -> u64 {
        if !self.enabled {
            return 0;
        }
        let p = &self.spans[parent];
        let start = (p.start_ns + offset_ns).min(p.end_ns);
        let end = (start + ns).min(p.end_ns);
        let span = Span {
            name,
            query: p.query,
            parent: Some(parent),
            start_ns: start,
            end_ns: end,
        };
        self.spans.push(span);
        end - self.spans[parent].start_ns
    }

    /// Name a span after the fact (a cache lookup is a hit or a miss only
    /// once it has returned).
    pub fn rename(&mut self, id: SpanId, name: &'static str) {
        if self.enabled {
            self.spans[id].name = name;
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per span name: summed duration and summed self time, in µs.
    pub fn totals(&self) -> BTreeMap<&'static str, Totals> {
        let mut children_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, Totals> = BTreeMap::new();
        for (s, covered) in self.spans.iter().zip(children_ns) {
            let dur = s.end_ns - s.start_ns;
            let t = out.entry(s.name).or_default();
            t.spans += 1;
            t.total_us += dur as f64 / 1e3;
            t.self_us += dur.saturating_sub(covered) as f64 / 1e3;
        }
        out
    }

    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "id\tparent\tquery\tname\tstart_ns\tend_ns")?;
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or(String::from("-"), |p| p.to_string());
            writeln!(
                w,
                "{id}\t{parent}\t{}\t{}\t{}\t{}",
                s.query, s.name, s.start_ns, s.end_ns
            )?;
        }
        w.flush()
    }
}

#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Totals {
    pub spans: usize,
    pub total_us: f64,
    pub self_us: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_the_span_minus_what_its_children_cover() {
        let mut t = Tracer::new(true);
        let root = t.enter("root", 7);
        let a = t.enter("a", 7);
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.exit(a);
        t.exit(root);
        // A library-reported 1 ms inside `a`, and a clipped one.
        let next = t.child(a, "a.reported", 0, 1_000_000);
        assert_eq!(next, 1_000_000);
        t.child(a, "a.clipped", next, u64::MAX / 2);

        let spans = t.spans();
        assert_eq!(spans[a].parent, Some(root));
        assert!(spans.iter().all(|s| s.query == 7));
        let totals = t.totals();
        let (r, a, rep, clip) = (
            totals["root"],
            totals["a"],
            totals["a.reported"],
            totals["a.clipped"],
        );
        assert!(a.total_us >= 2_000.0);
        assert!((r.self_us - (r.total_us - a.total_us)).abs() < 1e-6);
        assert!((rep.total_us - 1_000.0).abs() < 1e-6);
        // The two children tile `a` exactly, so it has no self time left.
        assert!((rep.total_us + clip.total_us - a.total_us).abs() < 1e-6);
        assert!(a.self_us.abs() < 1e-6);
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let id = t.enter("x", 0);
        t.child(id, "y", 0, 10);
        t.exit(id);
        assert!(t.spans().is_empty() && t.totals().is_empty());
    }
}
