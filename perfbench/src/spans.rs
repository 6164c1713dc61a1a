//! In-memory spans recorded around calls into the program's layers.
//!
//! A [`Recorder`] belongs to one thread. Spans nest through the closure
//! passed to [`Recorder::span`]; a recorder made with
//! [`Recorder::child_of`] parents its top-level spans to a span on
//! another thread, so a parallel section still forms one tree. Spans stay
//! in memory and are written out once, when the run ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One timed call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Unique within one run.
    pub id: u32,
    /// The span that caused this one.
    pub parent: Option<u32>,
    /// Shared by every span of one op.
    pub op: u64,
    /// Layer name, `crate.what_unit`.
    pub name: &'static str,
    /// Start, ns since the run's epoch.
    pub start_ns: u64,
    /// End, ns since the run's epoch.
    pub end_ns: u64,
}

/// Records spans on the calling thread.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    next_id: u32,
    root_parent: Option<u32>,
    op: u64,
    stack: Vec<u32>,
    spans: Vec<Span>,
}

impl Recorder {
    /// A recorder whose span ids start at `first_id`.
    #[must_use]
    pub fn new(epoch: Instant, first_id: u32) -> Self {
        Recorder {
            epoch,
            next_id: first_id,
            root_parent: None,
            op: 0,
            stack: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// A recorder for another thread: its top-level spans are children of
    /// `parent` and belong to `op`.
    #[must_use]
    pub fn child_of(epoch: Instant, first_id: u32, parent: u32, op: u64) -> Self {
        Recorder {
            root_parent: Some(parent),
            op,
            ..Recorder::new(epoch, first_id)
        }
    }

    /// Sets the op id of the spans recorded from now on.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    /// The op id of the spans recorded now.
    #[must_use]
    pub fn op(&self) -> u64 {
        self.op
    }

    /// The innermost open span, if any.
    #[must_use]
    pub fn current(&self) -> Option<u32> {
        self.stack.last().copied().or(self.root_parent)
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).expect("run shorter than 584 years")
    }

    /// Runs `f` inside a span named `name`; spans `f` records through its
    /// argument become children of this one.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Recorder) -> R) -> R {
        let id = self.next_id;
        self.next_id += 1;
        let parent = self.current();
        let start_ns = self.now_ns();
        self.stack.push(id);
        let out = f(self);
        self.stack.pop();
        let end_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent,
            op: self.op,
            name,
            start_ns,
            end_ns,
        });
        out
    }

    /// The recorded spans (in completion order).
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Moves another recorder's spans into this one.
    pub fn absorb(&mut self, other: Recorder) {
        self.spans.extend(other.spans);
    }
}

/// Each span's self time: its duration minus the part of its interval
/// that the union of its children's intervals covers. Children may
/// overlap (a parallel section), and are clipped to the parent.
#[must_use]
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: BTreeMap<u32, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut kids: Vec<(u64, u64)> = children
                .get(&s.id)
                .into_iter()
                .flatten()
                .map(|&(a, b)| (a.max(s.start_ns), b.min(s.end_ns)))
                .filter(|(a, b)| a < b)
                .collect();
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for (a, b) in kids {
                let a = a.max(reach);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            (s.end_ns - s.start_ns) - covered
        })
        .collect()
}

/// Per-name totals over a run.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerTotal {
    /// Spans of this name.
    pub count: u64,
    /// Summed durations, ms.
    pub inclusive_ms: f64,
    /// Summed self times, ms.
    pub self_ms: f64,
}

/// Totals per span name.
#[must_use]
pub fn totals(spans: &[Span]) -> BTreeMap<&'static str, LayerTotal> {
    let mut out: BTreeMap<&'static str, LayerTotal> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(self_times(spans)) {
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.inclusive_ms += (s.end_ns - s.start_ns) as f64 / 1e6;
        t.self_ms += self_ns as f64 / 1e6;
    }
    out
}

/// The spans as a JSON array, one object per line.
#[must_use]
pub fn to_json(spans: &[Span]) -> String {
    let mut out = String::from("[\n");
    for (i, s) in spans.iter().enumerate() {
        let parent = s
            .parent
            .map_or_else(|| "null".to_owned(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{{\"id\":{},\"parent\":{parent},\"op\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}{}",
            s.id,
            s.op,
            s.name,
            s.start_ns,
            s.end_ns,
            if i + 1 < spans.len() { "," } else { "" },
        );
    }
    out.push(']');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            op: 0,
            name: "x",
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_nested_children() {
        let spans = [
            span(0, None, 0, 100),
            // Two children overlapping on [30, 40]: they cover [10, 60].
            span(1, Some(0), 10, 40),
            span(2, Some(0), 30, 60),
            // A grandchild counts against its parent only.
            span(3, Some(1), 15, 20),
            // A child outliving its parent is clipped to [90, 100].
            span(4, Some(0), 90, 120),
        ];
        assert_eq!(self_times(&spans), vec![100 - 50 - 10, 30 - 5, 30, 5, 30]);
    }

    #[test]
    fn recorder_nests_spans_and_tags_ops() {
        let mut rec = Recorder::new(Instant::now(), 0);
        rec.set_op(7);
        let v = rec.span("outer", |rec| rec.span("inner", |_| 3) + 1);
        assert_eq!(v, 4);
        let spans = rec.spans();
        assert_eq!(spans.len(), 2);
        let (inner, outer) = (&spans[0], &spans[1]);
        assert_eq!((inner.name, outer.name), ("inner", "outer"));
        assert_eq!(inner.parent, Some(outer.id));
        assert_eq!(outer.parent, None);
        assert!(outer.start_ns <= inner.start_ns && inner.end_ns <= outer.end_ns);
        assert!(spans.iter().all(|s| s.op == 7));
        let t = totals(spans);
        assert!(t["outer"].self_ms <= t["outer"].inclusive_ms);
    }

    #[test]
    fn child_recorders_parent_to_another_thread() {
        let epoch = Instant::now();
        let mut main = Recorder::new(epoch, 0);
        main.span("op", |main| {
            let parent = main.current().unwrap();
            let first = 1 << 24;
            let mut worker = Recorder::child_of(epoch, first, parent, 9);
            worker.span("shard", |_| ());
            assert_eq!(worker.spans()[0].parent, Some(parent));
            assert_eq!(worker.spans()[0].op, 9);
            main.absorb(worker);
        });
        assert_eq!(main.spans().len(), 2);
        assert!(to_json(main.spans()).contains("\"name\":\"shard\""));
    }
}
