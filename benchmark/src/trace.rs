//! Spans, recorded from the benchmark's own files around the calls
//! into each layer, kept in memory and written out when the run ends.
//!
//! A span is `(name, start, end, parent, op id)`; a layer's self time
//! is its span minus the part its child spans cover.

use crate::json;
use crate::stats::median;
use std::collections::BTreeMap;
use std::time::Instant;

pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
    pub op: u64,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Tracer {
    origin: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(origin: Instant) -> Self {
        Self {
            origin,
            spans: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn open(&mut self, name: &'static str, parent: Option<u32>, op: u64) -> u32 {
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            op,
        });
        (self.spans.len() - 1) as u32
    }

    pub fn close(&mut self, id: u32) {
        self.spans[id as usize].end_ns = self.now();
    }

    /// Time `f` as a span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<u32>,
        op: u64,
        f: impl FnOnce() -> T,
    ) -> (u32, T) {
        let id = self.open(name, parent, op);
        let out = f();
        self.close(id);
        (id, out)
    }

    /// Record under `parent` a child whose duration was measured apart
    /// from it: by a decorator's counter, or by calling the inner
    /// public function on the same input. It is laid at the parent's
    /// start, after earlier such children, and cut to the parent's end.
    pub fn nest(&mut self, name: &'static str, parent: u32, ns: u64) {
        let p = &self.spans[parent as usize];
        let (p_end, op) = (p.end_ns, p.op);
        // Children are recorded after their parent.
        let start_ns = self.spans[parent as usize + 1..]
            .iter()
            .filter(|s| s.parent == Some(parent))
            .map(|s| s.end_ns)
            .max()
            .unwrap_or(p.start_ns);
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: (start_ns + ns).min(p_end),
            parent: Some(parent),
            op,
        });
    }

    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len() as u32;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }
}

/// What the client loop records while a traced round runs: one root
/// span per op and a child per call it makes. Off, it only runs `f`.
pub struct Probe<'a> {
    tracer: Option<&'a mut Tracer>,
    root: Option<u32>,
    op: u64,
}

impl<'a> Probe<'a> {
    pub fn new(tracer: Option<&'a mut Tracer>, op: u64) -> Self {
        let mut p = Self {
            tracer,
            root: None,
            op,
        };
        if let Some(t) = p.tracer.as_deref_mut() {
            p.root = Some(t.open("client.op", None, op));
        }
        p
    }

    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        match self.tracer.as_deref_mut() {
            Some(t) => t.time(name, self.root, self.op, f).1,
            None => f(),
        }
    }

    pub fn finish(self) {
        if let (Some(t), Some(root)) = (self.tracer, self.root) {
            t.close(root);
        }
    }
}

/// One row of the stage table.
pub struct Stage {
    pub name: &'static str,
    /// Median over ops of the stage's summed self time in the op.
    pub self_ms: f64,
    /// Median over ops of the stage's summed span time in the op.
    pub total_ms: f64,
    /// Spans of this stage per op.
    pub calls_per_op: f64,
}

/// Per stage, self and total time per op, taking the median over the
/// ops that `spans` cover.
pub fn stage_table(spans: &[Span]) -> Vec<Stage> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p as usize] += s.ns();
        }
    }
    // stage -> op -> (self ns, total ns, spans)
    let mut per: BTreeMap<&'static str, BTreeMap<u64, (u64, u64, u64)>> = BTreeMap::new();
    let mut order: Vec<&'static str> = Vec::new();
    for (i, s) in spans.iter().enumerate() {
        if !per.contains_key(s.name) {
            order.push(s.name);
        }
        let e = per.entry(s.name).or_default().entry(s.op).or_default();
        e.0 += s.ns().saturating_sub(child_ns[i]);
        e.1 += s.ns();
        e.2 += 1;
    }
    let ops: std::collections::BTreeSet<u64> = spans.iter().map(|s| s.op).collect();
    order
        .into_iter()
        .map(|name| {
            let by_op = &per[name];
            // An op the stage did not run in counts as zero time.
            let col = |f: fn(&(u64, u64, u64)) -> u64| -> Vec<f64> {
                ops.iter()
                    .map(|op| by_op.get(op).map_or(0, f) as f64 / 1e6)
                    .collect()
            };
            let calls: u64 = by_op.values().map(|e| e.2).sum();
            Stage {
                name,
                self_ms: median(&col(|e| e.0)),
                total_ms: median(&col(|e| e.1)),
                calls_per_op: calls as f64 / ops.len().max(1) as f64,
            }
        })
        .collect()
}

/// The spans as one JSON document.
pub fn to_json(workload: &str, seed: u64, spans: &[Span]) -> String {
    let mut out = format!(
        "{{\"workload\":{},\"seed\":{seed},\"unit\":\"ns\",\"spans\":[\n",
        json::quote(workload)
    );
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        out.push_str(&format!(
            "{{\"id\":{i},\"name\":{},\"start\":{},\"end\":{},\"parent\":{parent},\"op\":{}}}{}\n",
            json::quote(s.name),
            s.start_ns,
            s.end_ns,
            s.op,
            if i + 1 == spans.len() { "" } else { "," }
        ));
    }
    out.push_str("]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_span_minus_children() {
        let mut t = Tracer::new(Instant::now());
        let spans = [
            ("a", 0, 100, None, 0),
            ("b", 10, 40, Some(0), 0),
            ("a", 200, 260, None, 1),
        ];
        for (name, start_ns, end_ns, parent, op) in spans {
            t.spans.push(Span {
                name,
                start_ns,
                end_ns,
                parent,
                op,
            });
        }
        t.nest("c", 2, 1_000);
        let table = stage_table(&t.spans);
        let ms = |n: &str| table.iter().find(|s| s.name == n).unwrap().self_ms * 1e6;
        // a: op 0 → 100 − 30 = 70, op 1 → 60 − 60 (c cut to a's end) = 0.
        assert_eq!(ms("a"), 35.0);
        assert_eq!(ms("b"), 15.0);
        assert_eq!(ms("c"), 30.0);
    }
}
