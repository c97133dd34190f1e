//! In-memory span recorder for the traced run.
//!
//! A span is recorded by the benchmark's own code around one call into
//! a workspace crate: its name (`layer.call`), start and end in
//! nanoseconds since the recorder was created, the span that caused it,
//! and the operation it belongs to. Spans stay in memory until the run
//! ends and are then written out as one JSON document; the per-layer
//! metrics are computed from the recorded spans.
//!
//! A disabled recorder runs the closure and records nothing, so the
//! untraced run pays one branch per boundary.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub op: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Where a new span hangs: the operation it belongs to and its parent
/// span, if any.
#[derive(Debug, Clone, Copy)]
pub struct Ctx {
    pub op: u64,
    pub parent: Option<u64>,
}

#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    next_id: AtomicU64,
    next_op: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            next_op: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Starts a new operation: a root context with a fresh id.
    pub fn op(&self) -> Ctx {
        Ctx {
            op: self.next_op.fetch_add(1, Ordering::Relaxed),
            parent: None,
        }
    }

    /// Runs `f` inside a span named `name`; `f` receives the context
    /// its own child spans should use.
    pub fn span<R>(&self, name: &'static str, ctx: Ctx, f: impl FnOnce(Ctx) -> R) -> R {
        if !self.enabled {
            return f(ctx);
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start = self.epoch.elapsed().as_nanos() as u64;
        let out = f(Ctx {
            op: ctx.op,
            parent: Some(id),
        });
        let end = self.epoch.elapsed().as_nanos() as u64;
        self.spans.lock().expect("span log lock").push(Span {
            id,
            parent: ctx.parent,
            op: ctx.op,
            name,
            start_ns: start,
            end_ns: end,
        });
        out
    }

    pub fn spans(&self) -> Vec<Span> {
        let mut spans = self.spans.lock().expect("span log lock").clone();
        spans.sort_by_key(|s| s.id);
        spans
    }

    /// Durations (ns) of every span named `name`, grouped by a key the
    /// caller derives from the span's operation id.
    pub fn durations_by<K: Ord>(
        &self,
        name: &str,
        key: impl Fn(u64) -> K,
    ) -> BTreeMap<K, Vec<f64>> {
        let mut out: BTreeMap<K, Vec<f64>> = BTreeMap::new();
        for s in self.spans.lock().expect("span log lock").iter() {
            if s.name == name {
                out.entry(key(s.op)).or_default().push(s.dur_ns() as f64);
            }
        }
        out
    }

    /// The span log as JSON: one object per span.
    pub fn to_json(&self) -> String {
        let spans = self.spans();
        let mut out = String::with_capacity(64 + spans.len() * 96);
        out.push_str("{\"spans\":[");
        for (i, s) in spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "\n{{\"id\":{},\"parent\":{},\"op\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, parent, s.op, s.name, s.start_ns, s.end_ns
            ));
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        let v = t.span("a.b", t.op(), |_| 7);
        assert_eq!(v, 7);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn children_link_to_their_parent_and_operation() {
        let t = Tracer::new(true);
        let op = t.op();
        t.span("outer", op, |ctx| {
            t.span("inner", ctx, |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        let inner = spans.iter().find(|s| s.name == "inner").unwrap();
        let outer = spans.iter().find(|s| s.name == "outer").unwrap();
        assert_eq!(inner.parent, Some(outer.id));
        assert_eq!(inner.op, outer.op);
        assert!(outer.start_ns <= inner.start_ns && inner.end_ns <= outer.end_ns);
        assert_eq!(t.durations_by("inner", |op| op).len(), 1);
        assert!(t.to_json().contains("\"name\":\"inner\""));
    }
}
