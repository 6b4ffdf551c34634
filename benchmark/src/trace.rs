//! Spans recorded by the benchmark around its calls into each layer.
//!
//! The generator is one thread, so spans nest strictly: a span's children
//! lie inside it and do not overlap each other. Spans stay in memory;
//! each round folds them into per-name totals and the first traced
//! round's spans are kept for the trace file.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Handle returned by [`Tracer::begin`].
pub type SpanId = u32;
/// The handle of a span that is not being recorded; also the `parent` of
/// a root span.
pub const NO_SPAN: SpanId = u32::MAX;

/// Spans kept for the trace file. A traced `broadcast_socket` round
/// records over a million; the file holds the head of the first round.
const FILE_SPAN_CAP: usize = 60_000;

#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub id: u32,
    /// `u32::MAX` for a root span.
    pub parent: u32,
    /// The operation this span belongs to (0 = outside any op).
    pub op: u32,
    pub name: &'static str,
    /// What the call turned out to carry (`welcome`, `path_update`, …).
    pub tag: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Per-name totals over one or more rounds.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct NameTotal {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
    op: u32,
    next_op: u32,
    /// Record spans outside operations too (the isolated probes).
    probing: bool,
    /// Totals keyed by `(name, tag)`.
    totals: BTreeMap<(&'static str, &'static str), NameTotal>,
    kept: Vec<Span>,
    recorded: u64,
    /// Self time of layer spans inside operations, and the operations'
    /// own durations: the two sides of the coverage ratio.
    layer_self_in_ops_ns: u64,
    ops_ns: u64,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            op: 0,
            next_op: 1,
            probing: false,
            totals: BTreeMap::new(),
            kept: Vec::new(),
            recorded: 0,
            layer_self_in_ops_ns: 0,
            ops_ns: 0,
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Turns recording on or off between rounds (a traced run alternates
    /// so it can report its own overhead).
    pub fn set_on(&mut self, on: bool) {
        assert!(self.stack.is_empty(), "toggle only between ops");
        self.on = on;
    }

    /// Spans are recorded inside operations only, so that per-op layer
    /// times are not diluted by set-up; the isolated probes, which run
    /// outside any operation, switch this on around themselves.
    pub fn set_probing(&mut self, probing: bool) {
        self.probing = probing;
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens the root span of one operation; layer spans until
    /// [`Tracer::end_op`] carry its id.
    pub fn begin_op(&mut self, name: &'static str) -> SpanId {
        if !self.on {
            return NO_SPAN;
        }
        self.op = self.next_op;
        self.next_op += 1;
        self.begin(name)
    }

    pub fn end_op(&mut self, id: SpanId) {
        if id != NO_SPAN {
            self.end(id);
            self.op = 0;
        }
    }

    pub fn begin(&mut self, name: &'static str) -> SpanId {
        if !self.on || (self.op == 0 && !self.probing) {
            return NO_SPAN;
        }
        let id = u32::try_from(self.spans.len()).expect("span ids fit u32");
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent: self.stack.last().copied().unwrap_or(NO_SPAN),
            op: self.op,
            name,
            tag: "",
            start_ns,
            end_ns: start_ns,
        });
        self.stack.push(id);
        id
    }

    pub fn end(&mut self, id: SpanId) {
        self.end_tagged(id, "");
    }

    pub fn end_tagged(&mut self, id: SpanId, tag: &'static str) {
        if id == NO_SPAN {
            return;
        }
        let end_ns = self.now_ns();
        let top = self.stack.pop();
        assert_eq!(top, Some(id), "spans close in the order they opened");
        let span = &mut self.spans[id as usize];
        span.end_ns = end_ns;
        span.tag = tag;
    }

    /// Folds the round's spans into the totals and forgets them, keeping
    /// the first [`FILE_SPAN_CAP`] ever recorded for the trace file.
    pub fn fold_round(&mut self) {
        assert!(self.stack.is_empty(), "fold only between ops");
        let own_times = self_times(&self.spans);
        for (s, own) in self.spans.iter().zip(own_times) {
            let dur = s.end_ns.saturating_sub(s.start_ns);
            let slot = self.totals.entry((s.name, s.tag)).or_default();
            slot.count += 1;
            slot.total_ns += dur;
            slot.self_ns += own;
            if s.parent == NO_SPAN && s.op != 0 {
                self.ops_ns += dur;
            } else if s.op != 0 {
                self.layer_self_in_ops_ns += own;
            }
        }
        self.recorded += self.spans.len() as u64;
        let room = FILE_SPAN_CAP.saturating_sub(self.kept.len());
        let base = u32::try_from(self.kept.len()).expect("kept spans fit u32");
        for s in self.spans.iter().take(room) {
            // Ids restart every round; rebase so the file's ids are unique.
            let mut s = s.clone();
            s.id += base;
            if s.parent != NO_SPAN {
                s.parent += base;
            }
            self.kept.push(s);
        }
        self.spans.clear();
    }

    /// Totals for one span name, over every tag.
    pub fn total(&self, name: &str) -> NameTotal {
        let mut sum = NameTotal::default();
        for ((n, _), t) in &self.totals {
            if *n == name {
                sum.count += t.count;
                sum.total_ns += t.total_ns;
                sum.self_ns += t.self_ns;
            }
        }
        sum
    }

    /// Totals for one `(name, tag)` pair.
    pub fn tagged(&self, name: &'static str, tag: &'static str) -> NameTotal {
        self.totals.get(&(name, tag)).copied().unwrap_or_default()
    }

    /// Self time of the layer spans recorded inside operations.
    pub fn layer_self_ns(&self) -> u64 {
        self.layer_self_in_ops_ns
    }

    /// Sum of the operations' own durations.
    pub fn op_total_ns(&self) -> u64 {
        self.ops_ns
    }

    /// The per-name table, for printing.
    pub fn table(&self) -> Vec<(String, NameTotal)> {
        self.totals
            .iter()
            .map(|((n, tag), t)| {
                let label = if tag.is_empty() {
                    (*n).to_string()
                } else {
                    format!("{n}[{tag}]")
                };
                (label, *t)
            })
            .collect()
    }

    /// The kept spans as one JSON document.
    pub fn to_json(&self, workload: &str, seed: u64) -> String {
        let mut out = String::with_capacity(self.kept.len() * 96 + 256);
        let _ = write!(
            out,
            "{{\"workload\":\"{workload}\",\"seed\":{seed},\"spans_recorded\":{},\
             \"spans_in_file\":{},\"truncated\":{},\"unit\":\"ns\",\"spans\":[",
            self.recorded,
            self.kept.len(),
            self.recorded > self.kept.len() as u64
        );
        for (i, s) in self.kept.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\n{{\"id\":{},\"parent\":", s.id);
            if s.parent == NO_SPAN {
                out.push_str("null");
            } else {
                let _ = write!(out, "{}", s.parent);
            }
            let _ = write!(
                out,
                ",\"op\":{},\"name\":\"{}\",\"tag\":\"{}\",\"start\":{},\"end\":{}}}",
                s.op, s.name, s.tag, s.start_ns, s.end_ns
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

/// Self time of each span: its duration minus the part of it its direct
/// children cover. Children are clipped to the parent, so a malformed
/// child cannot drive a self time negative.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut covered = vec![0u64; spans.len()];
    for s in spans {
        if s.parent != NO_SPAN {
            let p = &spans[s.parent as usize];
            let start = s.start_ns.max(p.start_ns);
            let end = s.end_ns.min(p.end_ns);
            covered[s.parent as usize] += end.saturating_sub(start);
        }
    }
    spans
        .iter()
        .zip(covered)
        .map(|(s, c)| s.end_ns.saturating_sub(s.start_ns).saturating_sub(c))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: u32, name: &'static str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            op: 1,
            name,
            tag: "",
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn self_time_is_span_minus_children() {
        // op [0,100] ⊃ handle [10,70] ⊃ {encode [20,30], decode [40,55]},
        // op ⊃ encode [80,90].
        let spans = vec![
            span(0, NO_SPAN, "op.join", 0, 100),
            span(1, 0, "core.leader.handle_at", 10, 70),
            span(2, 1, "wire.encode", 20, 30),
            span(3, 1, "wire.decode", 40, 55),
            span(4, 0, "wire.encode", 80, 90),
        ];
        // op 100 - handle 60 - encode 10; handle 60 - 10 - 15; leaves whole.
        assert_eq!(self_times(&spans), vec![30, 35, 10, 15, 10]);
        // Self times partition the root exactly.
        assert_eq!(self_times(&spans).iter().sum::<u64>(), 100);
    }

    #[test]
    fn child_overrunning_parent_is_clipped() {
        let spans = vec![span(0, NO_SPAN, "a", 10, 20), span(1, 0, "b", 15, 40)];
        assert_eq!(self_times(&spans), vec![5, 25]);
    }

    #[test]
    fn tracer_nests_folds_and_writes() {
        let mut tr = Tracer::new(true);
        let op = tr.begin_op("op.x");
        let a = tr.begin("layer.a");
        let b = tr.begin("layer.b");
        tr.end_tagged(b, "kind");
        tr.end(a);
        tr.end_op(op);
        tr.fold_round();
        assert_eq!(tr.total("layer.a").count, 1);
        assert_eq!(tr.tagged("layer.b", "kind").count, 1);
        assert!(tr.layer_self_ns() <= tr.op_total_ns());
        let json = tr.to_json("w", 1);
        assert!(json.contains("\"name\":\"layer.b\",\"tag\":\"kind\""));
        assert!(json.contains("\"parent\":null"));
        assert!(json.contains("\"truncated\":false"));

        // Outside an operation nothing is recorded unless probing.
        let outside = tr.begin("layer.a");
        assert_eq!(outside, NO_SPAN);
        tr.end(outside);
        tr.set_probing(true);
        let probe = tr.begin("crypto.seal");
        tr.end(probe);
        tr.fold_round();
        assert_eq!(tr.total("layer.a").count, 1);
        assert_eq!(tr.total("crypto.seal").count, 1);

        let mut off = Tracer::new(false);
        let op = off.begin_op("op.x");
        let id = off.begin("layer.a");
        off.end(id);
        off.end_op(op);
        off.fold_round();
        assert_eq!(off.total("layer.a").count, 0);
    }
}
