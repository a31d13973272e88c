//! The traced run's span recorder.
//!
//! Spans are opened by the benchmark itself around calls into each
//! layer's public functions: name, layer, start, end, parent span and,
//! for serving, the request id that ties a request's submit, queue wait
//! and response together. They are kept in memory and written out once
//! at the end of the run. A disabled tracer never reads the clock.

// nc-lint: allow-file(R3, reason = "a benchmark measures wall-clock time; no program output depends on it")

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One finished span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// Enclosing span (by index), if any.
    pub parent: Option<usize>,
    /// Workspace layer the timed call belongs to (`snn`, `serve`, …).
    pub layer: &'static str,
    /// What was timed.
    pub name: &'static str,
    /// The serving request this span belongs to, if any.
    pub request: Option<u64>,
    /// Start, ns since the tracer was created.
    pub start_ns: u64,
    /// End, ns since the tracer was created.
    pub end_ns: u64,
    /// `false` for an interval recorded after the fact (a queue wait),
    /// which overlaps other spans instead of nesting in them and so
    /// never counts towards anyone's self time.
    pub nested: bool,
}

impl SpanRecord {
    /// Duration in ns.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Aggregate of every span sharing a layer and a name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanSummary {
    /// Spans aggregated.
    pub count: u64,
    /// Total wall time, ns.
    pub total_ns: u64,
    /// Wall time not spent in nested child spans, ns.
    pub self_ns: u64,
}

#[derive(Debug, Default)]
struct Inner {
    spans: Vec<SpanRecord>,
    open: Vec<usize>,
}

/// The span recorder; disabled by default.
#[derive(Debug, Default)]
pub struct Tracer {
    origin: Option<Instant>,
    inner: RefCell<Inner>,
}

/// Closes its span when dropped.
#[derive(Debug)]
pub struct SpanGuard<'a> {
    tracer: &'a Tracer,
    index: Option<usize>,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if let Some(index) = self.index {
            let end = self.tracer.now_ns().unwrap_or_default();
            let mut inner = self.tracer.inner.borrow_mut();
            inner.spans[index].end_ns = end;
            if inner.open.last() == Some(&index) {
                inner.open.pop();
            }
        }
    }
}

impl Tracer {
    /// A tracer that records nothing and never reads the clock.
    pub fn disabled() -> Tracer {
        Tracer::default()
    }

    /// A recording tracer whose time origin is now.
    pub fn enabled() -> Tracer {
        Tracer {
            origin: Some(Instant::now()),
            inner: RefCell::default(),
        }
    }

    /// Whether spans are being recorded.
    pub fn on(&self) -> bool {
        self.origin.is_some()
    }

    /// Ns since the origin, or `None` when disabled.
    pub fn now_ns(&self) -> Option<u64> {
        self.origin
            .map(|o| u64::try_from(o.elapsed().as_nanos()).unwrap_or(u64::MAX))
    }

    fn open(&self, layer: &'static str, name: &'static str, request: Option<u64>) -> SpanGuard<'_> {
        let Some(start_ns) = self.now_ns() else {
            return SpanGuard {
                tracer: self,
                index: None,
            };
        };
        let mut inner = self.inner.borrow_mut();
        let index = inner.spans.len();
        let parent = inner.open.last().copied();
        inner.spans.push(SpanRecord {
            parent,
            layer,
            name,
            request,
            start_ns,
            end_ns: start_ns,
            nested: true,
        });
        inner.open.push(index);
        SpanGuard {
            tracer: self,
            index: Some(index),
        }
    }

    /// Opens a span around a call into `layer`.
    pub fn span(&self, layer: &'static str, name: &'static str) -> SpanGuard<'_> {
        self.open(layer, name, None)
    }

    /// Opens a span that belongs to serving request `request`.
    pub fn span_for(&self, layer: &'static str, name: &'static str, request: u64) -> SpanGuard<'_> {
        self.open(layer, name, Some(request))
    }

    /// Records a finished interval `[start_ns, end_ns]` under the
    /// currently open span: a call timed by hand (`nested`, e.g. a
    /// submit whose request id is only known once it returns) or a wait
    /// that overlaps other spans (not `nested`, e.g. a queue wait).
    pub fn interval(
        &self,
        layer: &'static str,
        name: &'static str,
        request: Option<u64>,
        (start_ns, end_ns): (u64, u64),
        nested: bool,
    ) {
        if !self.on() {
            return;
        }
        let mut inner = self.inner.borrow_mut();
        let parent = inner.open.last().copied();
        inner.spans.push(SpanRecord {
            parent,
            layer,
            name,
            request,
            start_ns,
            end_ns,
            nested,
        });
    }

    /// Per `(layer, name)`: count, total and self time.
    pub fn summary(&self) -> BTreeMap<(&'static str, &'static str), SpanSummary> {
        let inner = self.inner.borrow();
        let mut child_ns = vec![0u64; inner.spans.len()];
        for span in inner.spans.iter().filter(|s| s.nested) {
            if let Some(parent) = span.parent {
                child_ns[parent] += span.duration_ns();
            }
        }
        let mut out: BTreeMap<(&'static str, &'static str), SpanSummary> = BTreeMap::new();
        for (span, &children) in inner.spans.iter().zip(&child_ns) {
            let entry = out.entry((span.layer, span.name)).or_default();
            entry.count += 1;
            entry.total_ns += span.duration_ns();
            if span.nested {
                entry.self_ns += span.duration_ns().saturating_sub(children);
            }
        }
        out
    }

    /// Self time per layer, ns (nested spans only).
    pub fn layer_self_ns(&self) -> BTreeMap<&'static str, u64> {
        let mut out = BTreeMap::new();
        for ((layer, _), summary) in self.summary() {
            *out.entry(layer).or_insert(0) += summary.self_ns;
        }
        out
    }

    /// Every span as CSV (`id,parent,layer,name,request,start_ns,end_ns,nested`).
    pub fn to_csv(&self) -> String {
        let inner = self.inner.borrow();
        let mut out = String::from("id,parent,layer,name,request,start_ns,end_ns,nested\n");
        let opt = |v: Option<u64>| v.map(|x| x.to_string()).unwrap_or_default();
        for (id, s) in inner.spans.iter().enumerate() {
            let parent = s.parent.and_then(|p| u64::try_from(p).ok());
            let _ = writeln!(
                out,
                "{id},{},{},{},{},{},{},{}",
                opt(parent),
                s.layer,
                s.name,
                opt(s.request),
                s.start_ns,
                s.end_ns,
                u8::from(s.nested)
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::disabled();
        {
            let _a = t.span("snn", "outer");
            t.interval("serve", "wait", Some(1), (0, 5), false);
        }
        assert!(t.summary().is_empty());
        assert_eq!(t.now_ns(), None);
    }

    #[test]
    fn nesting_gives_parents_and_self_time() {
        let t = Tracer::enabled();
        {
            let _outer = t.span("serve", "drain");
            {
                let _inner = t.span_for("mlp", "predict", 7);
                std::hint::black_box((0..10_000u64).sum::<u64>());
            }
            t.interval("serve", "queue_wait", Some(7), (0, 1_000_000_000), false);
        }
        let summary = t.summary();
        let drain = summary[&("serve", "drain")];
        let predict = summary[&("mlp", "predict")];
        assert_eq!(drain.count, 1);
        assert_eq!(drain.self_ns, drain.total_ns - predict.total_ns);
        // The queue wait overlaps rather than nests: it is reported but
        // subtracts from no one and has no self time.
        let wait = summary[&("serve", "queue_wait")];
        assert_eq!((wait.total_ns, wait.self_ns), (1_000_000_000, 0));
        let csv = t.to_csv();
        assert!(csv
            .lines()
            .nth(2)
            .unwrap()
            .starts_with("1,0,mlp,predict,7,"));
        assert_eq!(t.layer_self_ns()["mlp"], predict.self_ns);
    }
}
