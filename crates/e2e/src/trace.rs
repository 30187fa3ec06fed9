//! Spans recorded by the benchmark's own code around each call into a
//! layer. They live in memory reserved before the traced loop starts and are
//! written out when the run ends; a span's self time is its duration minus
//! what its direct children cover.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

use crate::json::quote;

/// Index of a span within its [`Tracer`].
pub type SpanId = u32;

const NO_PARENT: SpanId = u32::MAX;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// The span that caused this one, if any.
    pub parent: Option<SpanId>,
    /// Shared by all spans of one operation (one call or request).
    pub op_id: u64,
}

/// One thread's span buffer. Spans beyond the reserved capacity are
/// counted, not stored, so a long run never allocates while it is timed.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    dropped: u64,
}

impl Tracer {
    /// A tracer with room for `capacity` spans, timed against `epoch` (one
    /// epoch per run, so the threads' spans share a clock).
    pub fn new(epoch: Instant, capacity: usize) -> Self {
        Self {
            epoch,
            spans: Vec::with_capacity(capacity),
            dropped: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span now; close it with [`Tracer::end`].
    pub fn begin(&mut self, name: &'static str, parent: Option<SpanId>, op_id: u64) -> SpanId {
        let now = self.now_ns();
        self.record(name, now, now, parent, op_id)
    }

    pub fn end(&mut self, id: SpanId) {
        let now = self.now_ns();
        if let Some(s) = self.spans.get_mut(id as usize) {
            s.end_ns = now;
        }
    }

    /// Stores a span whose times were measured elsewhere (per-operator
    /// totals reported by `Module::run_profiled`).
    pub fn record(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<SpanId>,
        op_id: u64,
    ) -> SpanId {
        if self.spans.len() == self.spans.capacity() {
            self.dropped += 1;
            return NO_PARENT;
        }
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent: parent.filter(|&p| p != NO_PARENT),
            op_id,
        });
        (self.spans.len() - 1) as SpanId
    }

    pub fn start_ns(&self, id: SpanId) -> u64 {
        self.spans.get(id as usize).map_or(0, |s| s.start_ns)
    }
}

/// The spans of a whole run: every thread's buffer, parents re-indexed.
#[derive(Debug, Default)]
pub struct Trace {
    pub spans: Vec<Span>,
    pub dropped: u64,
}

impl Trace {
    pub fn merge(tracers: Vec<Tracer>) -> Self {
        let mut out = Trace::default();
        for t in tracers {
            let base = out.spans.len() as SpanId;
            out.dropped += t.dropped;
            out.spans.extend(t.spans.into_iter().map(|s| Span {
                parent: s.parent.map(|p| p + base),
                ..s
            }));
        }
        out
    }

    /// Self time per span, in ns: duration minus the durations of direct
    /// children (saturating, since stacked per-operator totals may round
    /// past their parent by a few ns).
    pub fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(|s| s.end_ns - s.start_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p as usize] = own[p as usize].saturating_sub(s.end_ns - s.start_ns);
            }
        }
        own
    }

    /// Per span name: count, total ms, self ms.
    pub fn summary(&self) -> BTreeMap<&'static str, (u64, f64, f64)> {
        let own = self.self_ns();
        let mut by_name: BTreeMap<&'static str, (u64, f64, f64)> = BTreeMap::new();
        for (s, own_ns) in self.spans.iter().zip(own) {
            let e = by_name.entry(s.name).or_default();
            e.0 += 1;
            e.1 += (s.end_ns - s.start_ns) as f64 / 1e6;
            e.2 += own_ns as f64 / 1e6;
        }
        by_name
    }

    /// Writes `{summary, spans}` as JSON.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        write!(w, "{{\"dropped\": {}, \"summary\": {{", self.dropped)?;
        for (i, (name, (count, total, own))) in self.summary().iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            write!(
                w,
                "{sep}{}: {{\"count\": {count}, \"total_ms\": {total}, \"self_ms\": {own}}}",
                quote(name)
            )?;
        }
        writeln!(w, "}}, \"spans\": [")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let sep = if i + 1 == self.spans.len() { "" } else { "," };
            writeln!(
                w,
                "{{\"name\": {}, \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"op_id\": {}}}{sep}",
                quote(s.name),
                s.start_ns,
                s.end_ns,
                s.op_id
            )?;
        }
        writeln!(w, "]}}")?;
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<SpanId>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            op_id: 1,
        }
    }

    #[test]
    fn self_time_is_span_minus_direct_children() {
        let trace = Trace {
            spans: vec![
                span("client.op", 0, 100, None),
                span("net.roundtrip", 10, 90, Some(0)),
                span("exec.run", 20, 70, Some(1)),
                span("net.decode", 92, 97, Some(0)),
            ],
            dropped: 0,
        };
        // The grandchild is subtracted from its parent only.
        assert_eq!(trace.self_ns(), vec![100 - 80 - 5, 80 - 50, 50, 5]);
        let summary = trace.summary();
        assert_eq!(summary["client.op"].0, 1);
        assert!((summary["net.roundtrip"].2 - 30e-6).abs() < 1e-12);
    }

    #[test]
    fn a_full_buffer_counts_drops_and_merge_reindexes_parents() {
        let epoch = Instant::now();
        let mut a = Tracer::new(epoch, 2);
        let root = a.begin("client.op", None, 7);
        let child = a.begin("exec.run", Some(root), 7);
        a.end(child);
        a.end(root);
        let lost = a.begin("exec.run", Some(root), 8);
        a.end(lost);
        // A child of a dropped span becomes a root instead of pointing nowhere.
        assert_eq!(a.record("exec.conv2d", 0, 1, Some(lost), 8), NO_PARENT);
        let mut b = Tracer::new(epoch, 4);
        let r = b.begin("client.op", None, 9);
        let c = b.begin("exec.run", Some(r), 9);
        b.end(c);
        b.end(r);
        let t = Trace::merge(vec![a, b]);
        assert_eq!(t.dropped, 2);
        assert_eq!(t.spans.len(), 4);
        assert_eq!(t.spans[1].parent, Some(0));
        assert_eq!(t.spans[3].parent, Some(2));
        assert!(t.spans[0].end_ns >= t.spans[1].end_ns);
    }
}
