//! In-memory spans recorded around the benchmark's calls into each layer.
//!
//! A span carries its name (prefixed with the layer: `store.`, `cache.`,
//! `core.`, `server.`, `viz.`; operation roots are `op.`), start and end
//! (nanoseconds since the run's epoch), its parent, and the id of the
//! operation it belongs to. A disabled tracer records nothing and never
//! reads the clock, so untraced runs pay one branch per call site.

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

static NEXT_SPAN: AtomicU64 = AtomicU64::new(1);

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Unique id (unique across threads).
    pub id: u64,
    /// The enclosing span, if any.
    pub parent: Option<u64>,
    /// The operation this span belongs to.
    pub op: u64,
    /// Layer-prefixed name.
    pub name: &'static str,
    /// Start, in nanoseconds since the epoch.
    pub start_ns: u64,
    /// End, in nanoseconds since the epoch.
    pub end_ns: u64,
    /// Bytes produced inside the span (encoders and renderers), else 0.
    pub bytes: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A per-thread span recorder.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    op: u64,
    stack: Vec<usize>,
    /// Every span recorded so far.
    pub spans: Vec<Span>,
    /// Counts taken at the same boundaries as the spans.
    pub counters: BTreeMap<&'static str, f64>,
}

/// Handle of an open span (`None` when tracing is off).
pub type Open = Option<usize>;

impl Tracer {
    /// A tracer; `enabled = false` yields a no-op recorder.
    pub fn new(enabled: bool, epoch: Instant) -> Self {
        Tracer {
            enabled,
            epoch,
            op: 0,
            stack: Vec::new(),
            spans: Vec::new(),
            counters: BTreeMap::new(),
        }
    }

    /// Adds `v` to a counter (traced runs only).
    pub fn count(&mut self, name: &'static str, v: f64) {
        if self.enabled {
            *self.counters.entry(name).or_default() += v;
        }
    }

    /// Whether spans are recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens the root span of operation `op`.
    pub fn begin_op(&mut self, op: u64, name: &'static str) -> Open {
        self.op = op;
        self.begin(name)
    }

    /// Opens a span under the innermost open one.
    pub fn begin(&mut self, name: &'static str) -> Open {
        if !self.enabled {
            return None;
        }
        let start_ns = self.now_ns();
        let idx = self.spans.len();
        self.spans.push(Span {
            id: NEXT_SPAN.fetch_add(1, Ordering::Relaxed),
            parent: self.stack.last().map(|&i| self.spans[i].id),
            op: self.op,
            name,
            start_ns,
            end_ns: start_ns,
            bytes: 0,
        });
        self.stack.push(idx);
        Some(idx)
    }

    /// Closes `open` (which must be the innermost open span).
    pub fn end(&mut self, open: Open) {
        self.end_bytes(open, 0);
    }

    /// Closes `open`, recording the bytes it produced.
    pub fn end_bytes(&mut self, open: Open, bytes: usize) {
        if let Some(idx) = open {
            let end_ns = self.now_ns();
            let span = &mut self.spans[idx];
            span.end_ns = end_ns;
            span.bytes = bytes as u64;
            debug_assert_eq!(self.stack.last(), Some(&idx));
            self.stack.pop();
        }
    }

    /// Records closed child spans of `parent` from durations the layer
    /// measured itself (the miner's phase times), laid end to end so that
    /// they finish when the parent did.
    pub fn children(&mut self, parent: Open, phases: &[(&'static str, Duration)]) {
        let Some(pidx) = parent else { return };
        let (parent_id, parent_start, parent_end) = {
            let p = &self.spans[pidx];
            (p.id, p.start_ns, p.end_ns)
        };
        let total: u64 = phases.iter().map(|(_, d)| d.as_nanos() as u64).sum();
        let mut at = parent_end.saturating_sub(total).max(parent_start);
        for &(name, d) in phases {
            let end = (at + d.as_nanos() as u64).min(parent_end);
            self.spans.push(Span {
                id: NEXT_SPAN.fetch_add(1, Ordering::Relaxed),
                parent: Some(parent_id),
                op: self.op,
                name,
                start_ns: at,
                end_ns: end,
                bytes: 0,
            });
            at = end;
        }
    }
}

/// Aggregate of every span sharing a name.
#[derive(Debug, Default, Clone, Copy)]
pub struct Agg {
    /// Spans seen.
    pub count: u64,
    /// Summed duration.
    pub total_ns: u64,
    /// Summed self time: duration minus the time direct children cover.
    pub self_ns: u64,
    /// Summed bytes.
    pub bytes: u64,
}

impl Agg {
    /// Mean duration per span, in microseconds (0 when never seen).
    pub fn mean_us(&self) -> f64 {
        per(self.total_ns as f64 / 1e3, self.count)
    }

    /// Mean self time per span, in microseconds (0 when never seen).
    pub fn mean_self_us(&self) -> f64 {
        per(self.self_ns as f64 / 1e3, self.count)
    }
}

/// `total / count`, or 0 when `count` is 0: a layer a workload never
/// reaches reports zero work.
pub fn per(total: f64, count: u64) -> f64 {
    if count == 0 {
        0.0
    } else {
        total / count as f64
    }
}

/// Each span's self time: its duration minus the time its direct children
/// cover, by span id.
fn self_times(spans: &[Span]) -> HashMap<u64, u64> {
    let mut child_ns: HashMap<u64, u64> = HashMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            *child_ns.entry(p).or_default() += s.dur_ns();
        }
    }
    spans
        .iter()
        .map(|s| {
            let children = child_ns.get(&s.id).copied().unwrap_or(0);
            (s.id, s.dur_ns().saturating_sub(children))
        })
        .collect()
}

/// Aggregates spans by name.
pub fn aggregate(spans: &[Span]) -> BTreeMap<&'static str, Agg> {
    let self_ns = self_times(spans);
    let mut out: BTreeMap<&'static str, Agg> = BTreeMap::new();
    for s in spans {
        let a = out.entry(s.name).or_default();
        a.count += 1;
        a.total_ns += s.dur_ns();
        a.self_ns += self_ns[&s.id];
        a.bytes += s.bytes;
    }
    out
}

/// Per operation type (`op.*` root name): the mean self time per operation
/// of every span name under it, in microseconds. The entry under the root's
/// own name is the residual — time inside the operation that no span covers.
pub fn breakdown(spans: &[Span]) -> BTreeMap<&'static str, BTreeMap<&'static str, f64>> {
    let ops: HashMap<u64, &'static str> = spans
        .iter()
        .filter(|s| s.parent.is_none() && s.name.starts_with("op."))
        .map(|s| (s.id, s.name))
        .collect();
    let by_id: HashMap<u64, &Span> = spans.iter().map(|s| (s.id, s)).collect();
    let root_of = |s: &Span| -> Option<&'static str> {
        let mut cur = s;
        while let Some(p) = cur.parent {
            cur = by_id.get(&p)?;
        }
        ops.get(&cur.id).copied()
    };
    let mut counts: BTreeMap<&'static str, u64> = BTreeMap::new();
    for name in ops.values() {
        *counts.entry(name).or_default() += 1;
    }
    let self_ns = self_times(spans);
    let mut out: BTreeMap<&'static str, BTreeMap<&'static str, f64>> = BTreeMap::new();
    for s in spans {
        if let Some(root) = root_of(s) {
            *out.entry(root).or_default().entry(s.name).or_default() += self_ns[&s.id] as f64 / 1e3;
        }
    }
    for (root, names) in out.iter_mut() {
        let n = counts[root];
        for v in names.values_mut() {
            *v = per(*v, n);
        }
    }
    out
}

/// Writes spans as JSON lines (`id`, `parent`, `op`, `name`, `start_ns`,
/// `end_ns`, `bytes`).
pub fn write_jsonl(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    use std::io::Write;
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            r#"{{"id":{},"parent":{},"op":{},"name":"{}","start_ns":{},"end_ns":{},"bytes":{}}}"#,
            s.id, parent, s.op, s.name, s.start_ns, s.end_ns, s.bytes
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_residual_is_the_root_self_time() {
        let mut t = Tracer::new(true, Instant::now());
        let op = t.begin_op(7, "op.test");
        let a = t.begin("store.a");
        std::thread::sleep(Duration::from_millis(2));
        t.end(a);
        let svc = t.begin("server.service");
        std::thread::sleep(Duration::from_millis(2));
        t.end(svc);
        t.children(svc, &[("core.search", Duration::from_micros(500))]);
        t.end(op);
        let agg = aggregate(&t.spans);
        let svc_agg = agg["server.service"];
        assert_eq!(svc_agg.total_ns - svc_agg.self_ns, 500_000);
        let root = agg["op.test"];
        let covered = agg["store.a"].total_ns + svc_agg.total_ns;
        assert_eq!(root.self_ns, root.total_ns - covered);
        let per_op = breakdown(&t.spans);
        assert!((per_op["op.test"]["op.test"] - root.self_ns as f64 / 1e3).abs() < 1e-9);
        assert!(t.spans.iter().all(|s| s.op == 7));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false, Instant::now());
        let op = t.begin_op(1, "op.test");
        t.children(op, &[("core.search", Duration::from_micros(5))]);
        t.end(op);
        assert!(t.spans.is_empty());
    }
}
