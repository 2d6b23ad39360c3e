//! Spans recorded by the benchmark's own code around each call into a
//! layer (choosing-metrics §4): kept in memory, written out as JSONL
//! when the run ends, and reduced to per-layer *self* time — a span's
//! duration minus the part its children cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One recorded span. Spans of one request share `req`.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Request the span belongs to.
    pub req: u64,
    /// Span id, unique within the run.
    pub span: u32,
    /// The enclosing span, if any.
    pub parent: Option<u32>,
    /// Layer name (`core.cluster.build`, `serve.roundtrip`, …).
    pub name: &'static str,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, same clock.
    pub end_ns: u64,
}

/// The span recorder. Single-threaded: every traced loop in the ledger
/// is one closed-loop client. (The untraced run simply does not use
/// one: it calls the engine whole.)
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
    req: u64,
}

impl Tracer {
    /// An empty recorder; its clock starts now.
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            req: 0,
        }
    }

    /// Start the next request: spans opened from here share its id.
    pub fn next_request(&mut self) {
        self.req += 1;
    }

    /// Run `f` inside a span named `name`; spans opened by `f` through
    /// the tracer it is handed become children.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            req: self.req,
            span: id,
            parent: self.stack.last().copied(),
            name,
            start_ns: self.epoch.elapsed().as_nanos() as u64,
            end_ns: 0,
        });
        self.stack.push(id);
        let out = f(self);
        self.stack.pop();
        self.spans[id as usize].end_ns = self.epoch.elapsed().as_nanos() as u64;
        out
    }

    /// Everything recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Write the spans as one JSON object per line.
    pub fn dump_jsonl(&self, out: &mut impl Write) -> std::io::Result<()> {
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"req\":{},\"span\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.req, s.span, parent, s.name, s.start_ns, s.end_ns
            )?;
        }
        Ok(())
    }
}

/// Self time and call count of one layer name.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LayerTime {
    /// Total duration minus the time covered by child spans.
    pub self_ns: u64,
    /// Total duration, children included.
    pub total_ns: u64,
    /// Spans with this name.
    pub calls: u64,
}

/// Reduce spans to per-name self time. A span's children may overlap
/// each other (or stick out of the parent when clocks were read on
/// different threads): the covered part is the *union* of the child
/// intervals clipped to the parent, so nothing is subtracted twice.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, LayerTime> {
    let mut children: BTreeMap<u32, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
    for s in spans {
        let total = s.end_ns.saturating_sub(s.start_ns);
        let mut covered = 0u64;
        if let Some(kids) = children.get_mut(&s.span) {
            kids.sort_unstable();
            let mut reach = s.start_ns;
            for &(start, end) in kids.iter() {
                let start = start.max(reach);
                let end = end.min(s.end_ns);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
        }
        let row = out.entry(s.name).or_default();
        row.self_ns += total - covered;
        row.total_ns += total;
        row.calls += 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(span: u32, parent: Option<u32>, name: &'static str, start: u64, end: u64) -> Span {
        Span {
            req: 1,
            span,
            parent,
            name,
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children_once() {
        let spans = [
            span(0, None, "root", 0, 100),
            span(1, Some(0), "a", 10, 40),
            span(2, Some(1), "a.inner", 20, 30),
            span(3, Some(0), "b", 50, 90),
        ];
        let t = self_times(&spans);
        assert_eq!(t["root"].self_ns, 100 - 30 - 40);
        assert_eq!(t["a"].self_ns, 30 - 10);
        assert_eq!(t["a.inner"].self_ns, 10);
        assert_eq!(t["b"].self_ns, 40);
        assert_eq!(t["root"].total_ns, 100);
        let sum: u64 = t.values().map(|l| l.self_ns).sum();
        assert_eq!(sum, 100, "self times partition the root");
    }

    #[test]
    fn overlapping_and_protruding_children_cover_their_union() {
        let spans = [
            span(0, None, "root", 100, 200),
            span(1, Some(0), "x", 110, 150),
            span(2, Some(0), "y", 140, 170), // overlaps x by 10
            span(3, Some(0), "z", 190, 230), // sticks out by 30
            span(4, Some(0), "w", 120, 130), // inside x entirely
        ];
        let t = self_times(&spans);
        // union = [110,170] + [190,200] = 70
        assert_eq!(t["root"].self_ns, 100 - 70);
        assert_eq!(t["z"].self_ns, 40, "a child's own self time is unclipped");
    }

    #[test]
    fn tracer_nests_through_the_closure() {
        let mut t = Tracer::new();
        t.next_request();
        let v = t.span("outer", |t| t.span("inner", |_| 7));
        assert_eq!(v, 7);
        let s = t.spans();
        assert_eq!(s.len(), 2);
        assert_eq!((s[0].name, s[0].parent), ("outer", None));
        assert_eq!((s[1].name, s[1].parent, s[1].req), ("inner", Some(0), 1));
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);

        let mut buf = Vec::new();
        t.dump_jsonl(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert_eq!(text.lines().count(), 2);
        assert!(text.starts_with("{\"req\":1,\"span\":0,\"parent\":null,\"name\":\"outer\","));
    }
}
