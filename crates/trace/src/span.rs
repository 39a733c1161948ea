//! Hierarchical timed spans with RAII guards.
//!
//! A span measures one bracketed operation — an optimizer round, a VM
//! run, a WAL commit flush. Spans nest: each thread keeps a stack of
//! open spans, and a new span's parent is whatever is on top, so the
//! recorded stream reconstructs into a tree without the instrumented
//! code threading any context around.
//!
//! The fast path is the crate-wide rule: one relaxed atomic load when
//! tracing is disabled ([`enter`] returns an inert guard that does
//! nothing on drop — no allocation, no TLS touch, no clock read). When
//! enabled, the guard takes two clock reads and, on close, pushes one
//! [`Event::Span`] into the event ring and feeds the histogram keyed by
//! the span's name — so `tmlc stats` percentiles come for free with the
//! span tree.
//!
//! ```
//! let _guard = tml_trace::span!("opt.round");
//! // ... the bracketed operation ...
//! // guard drops here; duration recorded if tracing was on at entry
//! ```

use crate::event::Event;
use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicU64, Ordering};

/// Process-wide span id allocator. Ids start at 1; 0 is the "no parent"
/// sentinel in [`Event::Span::parent`].
static NEXT_SPAN_ID: AtomicU64 = AtomicU64::new(1);

/// Process-wide thread label allocator (std thread ids are opaque).
static NEXT_THREAD_ID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// Open spans on this thread, innermost last.
    static STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
    /// Small dense label for this thread, assigned on first span.
    static THREAD_LABEL: Cell<u64> = const { Cell::new(0) };
}

/// Stable small integer identifying the current thread in span records.
pub fn thread_label() -> u64 {
    THREAD_LABEL.with(|l| {
        let v = l.get();
        if v != 0 {
            return v;
        }
        let v = NEXT_THREAD_ID.fetch_add(1, Ordering::Relaxed);
        l.set(v);
        v
    })
}

/// Id of the innermost open span on this thread, or 0 when none (or when
/// tracing is disabled — disabled guards never push).
pub fn current() -> u64 {
    STACK.with(|s| s.borrow().last().copied().unwrap_or(0))
}

/// RAII guard for one span. Created by [`enter`] (usually via the
/// [`span!`](crate::span!) macro); records the span on drop. Inert when
/// tracing was disabled at entry.
#[must_use = "a span guard measures until it is dropped; binding it to _ closes it immediately"]
#[derive(Debug)]
pub struct SpanGuard {
    live: Option<Live>,
}

#[derive(Debug)]
struct Live {
    name: &'static str,
    id: u64,
    parent: u64,
    start_ns: u64,
}

/// Open a span named `name`, parented under the innermost open span of
/// this thread. One atomic load and an inert guard when tracing is off.
#[inline]
pub fn enter(name: &'static str) -> SpanGuard {
    if !crate::enabled() {
        return SpanGuard { live: None };
    }
    open(name, current())
}

fn open(name: &'static str, parent: u64) -> SpanGuard {
    let id = NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed);
    STACK.with(|s| s.borrow_mut().push(id));
    SpanGuard {
        live: Some(Live {
            name,
            id,
            parent,
            start_ns: crate::global().clock().now_ns(),
        }),
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(live) = self.live.take() else {
            return;
        };
        // Unwind this thread's stack to (and past) our own id. Guards are
        // dropped LIFO under normal control flow; popping to the id keeps
        // the stack consistent even if an inner guard leaked.
        STACK.with(|s| {
            let mut st = s.borrow_mut();
            while let Some(top) = st.pop() {
                if top == live.id {
                    break;
                }
            }
        });
        let rec = crate::global();
        // Tracing may have been switched off mid-span; the stack above
        // still had to unwind, but nothing is recorded.
        if !rec.is_enabled() {
            return;
        }
        let end_ns = rec.clock().now_ns();
        let dur_ns = end_ns.saturating_sub(live.start_ns);
        rec.hist(live.name).record(dur_ns);
        rec.record(Event::Span {
            name: live.name,
            id: live.id,
            parent: live.parent,
            thread: thread_label(),
            start_ns: live.start_ns,
            dur_ns,
        });
    }
}

impl SpanGuard {
    /// Whether this guard will record on drop.
    pub fn is_recording(&self) -> bool {
        self.live.is_some()
    }
}

/// Open a [`SpanGuard`] for the enclosing scope:
/// `let _g = tml_trace::span!("vm.run");`
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::span::enter($name)
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Sample;

    /// Global-recorder tests share process state (the recorder and the
    /// clock), so they serialize on one mutex.
    fn lock() -> std::sync::MutexGuard<'static, ()> {
        static GATE: std::sync::Mutex<()> = std::sync::Mutex::new(());
        match GATE.lock() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        }
    }

    fn spans(samples: &[Sample]) -> Vec<(&'static str, u64, u64, u64)> {
        samples
            .iter()
            .filter_map(|s| match s.event {
                Event::Span {
                    name,
                    id,
                    parent,
                    dur_ns,
                    ..
                } => Some((name, id, parent, dur_ns)),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn disabled_spans_cost_nothing_and_record_nothing() {
        let _g = lock();
        let rec = crate::global();
        rec.set_enabled(false);
        rec.clear();
        {
            let g = enter("outer");
            assert!(!g.is_recording());
            assert_eq!(current(), 0, "disabled spans never join the stack");
            let _inner = enter("inner");
        }
        assert!(rec.events().is_empty());
        assert!(rec.hist_snapshot().is_empty());
    }

    #[test]
    fn nested_spans_build_a_tree_with_mock_durations() {
        let _g = lock();
        let rec = crate::global();
        rec.clear();
        rec.clock().mock(1_000);
        rec.set_enabled(true);
        let inner_id;
        {
            let _outer = enter("outer");
            let outer_id = current();
            rec.clock().advance(10);
            {
                let _inner = enter("inner");
                inner_id = current();
                assert_ne!(inner_id, outer_id);
                rec.clock().advance(5);
            }
            rec.clock().advance(2);
            assert_eq!(current(), outer_id);
        }
        rec.set_enabled(false);
        rec.clock().unmock();
        let got = spans(&rec.events());
        assert_eq!(got.len(), 2, "inner closes first, then outer");
        let (inner, outer) = (got[0], got[1]);
        assert_eq!(inner.0, "inner");
        assert_eq!(outer.0, "outer");
        assert_eq!(inner.1, inner_id, "the recorded id is the one on the stack");
        assert_eq!(inner.2, outer.1, "inner's parent is outer");
        assert_eq!(outer.2, 0, "outer is a root");
        assert_eq!(inner.3, 5);
        assert_eq!(outer.3, 17);
        // Span-fed histograms carry the same durations.
        let hists = rec.hist_snapshot();
        let names: Vec<&str> = hists.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(names, vec!["inner", "outer"]);
        assert_eq!(hists[0].1.max, 5);
        assert_eq!(hists[1].1.max, 17);
        rec.clear();
    }

    #[test]
    fn span_records_survive_ring_overflow_with_consistent_accounting() {
        let _g = lock();
        let rec = crate::global();
        rec.clear();
        rec.set_capacity(4);
        rec.clock().mock(0);
        rec.set_enabled(true);
        for n in 0..6 {
            let _s = enter("tick");
            rec.record(Event::CacheOp {
                cache: "opt-cache",
                op: "hit",
                key_hash: n,
            });
        }
        rec.set_enabled(false);
        rec.clock().unmock();
        // 12 records went in (6 events + 6 spans) into 4 slots.
        assert_eq!(rec.recorded(), 12);
        assert_eq!(rec.dropped(), 8);
        assert_eq!(rec.events().len(), 4);
        assert_eq!(rec.recorded(), rec.dropped() + rec.events().len() as u64);
        // The drop counter is published so silent loss is visible.
        assert_eq!(rec.counter("trace.ring.dropped").get(), 8);
        // Histograms are not ring-bound: all 6 spans measured.
        assert_eq!(rec.hist("tick").count(), 6);
        rec.clear();
        rec.set_capacity(crate::DEFAULT_CAPACITY);
    }
}
