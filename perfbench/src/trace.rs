//! The benchmark's span recorder. Spans are kept in memory while the
//! benchmark runs and written out once at exit; nothing inside the
//! program under test is instrumented — every span wraps a call the
//! benchmark itself makes into a layer's public API.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the recorder started.
#[derive(Debug, Clone)]
pub struct Span {
    /// Unique id (1-based; 0 means "no span").
    pub id: u64,
    /// The enclosing span, when there is one.
    pub parent: Option<u64>,
    /// The request this span belongs to (0 for workload-wide phases).
    pub request: u64,
    /// Layer-qualified name, e.g. `qep.parse`.
    pub name: &'static str,
    /// Start, in ns since the recorder's origin.
    pub start_ns: u64,
    /// End, in ns since the recorder's origin.
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// An in-memory span store. A disabled recorder runs the wrapped calls
/// and records nothing, so untraced runs pay no recording cost.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A recorder; `enabled = false` makes every `span` call a plain call.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Run `f` inside a span named `name`. `f` receives the new span's id
    /// so it can parent child spans (0 when the recorder is disabled).
    pub fn span<R>(
        &self,
        name: &'static str,
        parent: Option<u64>,
        request: u64,
        f: impl FnOnce(u64) -> R,
    ) -> R {
        if !self.enabled {
            return f(0);
        }
        let id = self.next_id.fetch_add(1, Ordering::SeqCst);
        let start = self.origin.elapsed();
        let out = f(id);
        let end = self.origin.elapsed();
        self.spans
            .lock()
            .expect("span store lock is never held across a panic")
            .push(Span {
                id,
                parent: parent.filter(|&p| p != 0),
                request,
                name,
                start_ns: start.as_nanos() as u64,
                end_ns: end.as_nanos() as u64,
            });
        out
    }

    /// Every span recorded so far, ordered by start time.
    pub fn spans(&self) -> Vec<Span> {
        let mut spans = self
            .spans
            .lock()
            .expect("span store lock is never held across a panic")
            .clone();
        spans.sort_by_key(|s| (s.start_ns, s.id));
        spans
    }

    /// Durations in ms of every span named `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans()
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64 / 1e6)
            .collect()
    }
}

/// Per-name totals: span count, total time, and self time (a span's
/// duration minus the part of it its direct children cover).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerTime {
    /// Spans with this name.
    pub count: u64,
    /// Summed span durations, ns.
    pub total_ns: u64,
    /// Summed self times, ns.
    pub self_ns: u64,
}

/// Aggregate self time per span name. Children of one parent may run on
/// other threads and overlap, so the covered part of the parent is the
/// union of the children's intervals clipped to the parent's.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, LayerTime> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
    for s in spans {
        let covered = children
            .get(&s.id)
            .map_or(0, |c| covered_ns(c, s.start_ns, s.end_ns));
        let layer = out.entry(s.name).or_default();
        layer.count += 1;
        layer.total_ns += s.dur_ns();
        layer.self_ns += s.dur_ns().saturating_sub(covered);
    }
    out
}

/// Length of the union of `intervals`, clipped to `[lo, hi)`.
fn covered_ns(intervals: &[(u64, u64)], lo: u64, hi: u64) -> u64 {
    let mut clipped: Vec<(u64, u64)> = intervals
        .iter()
        .map(|&(s, e)| (s.max(lo), e.min(hi)))
        .filter(|(s, e)| s < e)
        .collect();
    clipped.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (s, e) in clipped {
        cur = match cur {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    total + cur.map_or(0, |(s, e)| e - s)
}

/// The spans as JSON lines, one object per span.
pub fn to_json_lines(spans: &[Span]) -> String {
    let mut out = String::new();
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        out.push_str(&format!(
            "{{\"id\":{},\"parent\":{},\"request\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}\n",
            s.id, parent, s.request, s.name, s.start_ns, s.end_ns
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, name: &'static str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            request: 1,
            name,
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            span(1, None, "request", 0, 100),
            span(2, Some(1), "parse", 10, 30),
            span(3, Some(1), "eval", 20, 50),
            span(4, Some(1), "render", 90, 120),
        ];
        let t = self_times(&spans);
        // Children cover [10, 50) and [90, 100): 50 ns of 100.
        assert_eq!(t["request"].self_ns, 50);
        assert_eq!(t["request"].total_ns, 100);
        assert_eq!(t["parse"].self_ns, 20);
    }

    #[test]
    fn disabled_recorder_runs_the_call_and_records_nothing() {
        let tracer = Tracer::new(false);
        assert_eq!(tracer.span("x", None, 0, |id| id + 7), 7);
        assert!(tracer.spans().is_empty());
        let tracer = Tracer::new(true);
        let inner = tracer.span("outer", None, 3, |id| {
            tracer.span("inner", Some(id), 3, |_| 1)
        });
        assert_eq!(inner, 1);
        let spans = tracer.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(spans[0].id));
    }
}
