//! In-memory spans around the benchmark's own calls into each layer.
//!
//! A span has a name (`<layer>.<call>`), start and end (ns since the
//! tracer's epoch), an optional parent span and an optional request id
//! that ties the spans of one served request together.  Nothing is
//! recorded inside the program: every span wraps a public-API call made
//! from this crate.  Spans stay in memory and are written out once, at the
//! end of the traced run.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub request: Option<u64>,
    pub name: &'static str,
    pub phase: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }

    fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records spans when enabled; a disabled tracer costs one branch per call.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

/// An open span; [`Tracer::close`] records it.
#[derive(Debug, Clone, Copy)]
pub struct Open {
    pub id: u64,
    parent: Option<u64>,
    request: Option<u64>,
    name: &'static str,
    start: Instant,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    pub fn open(&self, name: &'static str, parent: Option<u64>, request: Option<u64>) -> Open {
        let id = if self.enabled {
            self.next_id.fetch_add(1, Ordering::Relaxed)
        } else {
            0
        };
        Open {
            id,
            parent,
            request,
            name,
            start: Instant::now(),
        }
    }

    /// Closes a span opened with [`Tracer::open`] and returns its duration
    /// in seconds (measured whether or not tracing is on).
    pub fn close(&self, open: Open, phase: &'static str) -> f64 {
        let end = Instant::now();
        if self.enabled {
            let span = Span {
                id: open.id,
                parent: open.parent,
                request: open.request,
                name: open.name,
                phase,
                start_ns: open.start.duration_since(self.epoch).as_nanos() as u64,
                end_ns: end.duration_since(self.epoch).as_nanos() as u64,
            };
            self.spans
                .lock()
                .expect("no thread panics while holding the span list")
                .push(span);
        }
        end.duration_since(open.start).as_secs_f64()
    }

    /// Times `f` inside a span.
    pub fn span<T>(
        &self,
        name: &'static str,
        phase: &'static str,
        parent: Option<u64>,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let open = self.open(name, parent, None);
        let out = f();
        (out, self.close(open, phase))
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans
            .lock()
            .expect("no thread panics while holding the span list")
            .clone()
    }
}

/// Self time per layer in seconds: each span's duration minus the part of
/// its interval that its child spans cover (children may overlap one
/// another when they ran on different threads; their union is subtracted).
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    let mut out: BTreeMap<&'static str, f64> = BTreeMap::new();
    for s in spans {
        let covered = children
            .get(&s.id)
            .map_or(0, |c| covered_ns(c, s.start_ns, s.end_ns));
        *out.entry(s.layer()).or_default() += (s.duration_ns() - covered) as f64 * 1e-9;
    }
    out
}

/// Length of the union of `intervals` clipped to `[lo, hi]`.
fn covered_ns(intervals: &[(u64, u64)], lo: u64, hi: u64) -> u64 {
    let mut v: Vec<(u64, u64)> = intervals
        .iter()
        .map(|&(a, b)| (a.max(lo), b.min(hi)))
        .filter(|(a, b)| a < b)
        .collect();
    v.sort_unstable();
    let (mut total, mut cur) = (0u64, None::<(u64, u64)>);
    for (a, b) in v {
        cur = match cur {
            Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += cb - ca;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    total + cur.map_or(0, |(a, b)| b - a)
}

/// The spans as one JSON document.
pub fn to_json(spans: &[Span], header: &str) -> String {
    let mut out = String::with_capacity(spans.len() * 120 + 256);
    let _ = write!(out, "{{{header},\"spans\":[");
    for (i, s) in spans.iter().enumerate() {
        let opt = |v: Option<u64>| v.map_or("null".to_string(), |x| x.to_string());
        let _ = write!(
            out,
            "{}{{\"id\":{},\"parent\":{},\"request\":{},\"name\":\"{}\",\"phase\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            if i == 0 { "\n" } else { ",\n" },
            s.id,
            opt(s.parent),
            opt(s.request),
            s.name,
            s.phase,
            s.start_ns,
            s.end_ns
        );
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, name: &'static str, a: u64, b: u64) -> Span {
        Span {
            id,
            parent,
            request: None,
            name,
            phase: "main",
            start_ns: a,
            end_ns: b,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span(1, None, "bench.unit", 0, 100),
            span(2, Some(1), "core.run", 10, 50),
            span(3, Some(1), "core.run", 40, 70),
            span(4, Some(1), "serve.wait", 90, 120),
        ];
        let t = self_times(&spans);
        // children cover [10,70) and [90,100) of the parent: 70 ns
        assert!((t["bench"] - 30e-9).abs() < 1e-15);
        assert!((t["core"] - 70e-9).abs() < 1e-15);
        assert!((t["serve"] - 30e-9).abs() < 1e-15);
    }

    #[test]
    fn a_disabled_tracer_records_nothing_but_still_times() {
        let t = Tracer::new(false);
        let ((), secs) = t.span("core.run", "main", None, || {});
        assert!(secs >= 0.0);
        assert!(t.spans().is_empty());
        let t = Tracer::new(true);
        let open = t.open("serve.admit", None, Some(7));
        t.close(open, "main");
        assert_eq!(t.spans()[0].request, Some(7));
    }
}
