//! The traced run's instrument: spans opened here around calls into each
//! layer, plus the spans, counters and histograms the program already
//! records, reduced to per-layer self time.
//!
//! A span's self time is its duration minus the time covered by its
//! child spans. Children close before their parent, so a parent's child
//! total is complete when the parent's own event arrives, even when the
//! ring is drained between the two.

use std::collections::{BTreeMap, HashMap};
use tml_trace::{Event, Recorder};

/// Ring capacity for traced runs. The ring is drained after every
/// operation; this only has to hold one operation's events.
const RING_CAPACITY: usize = 1 << 20;

pub fn recorder() -> &'static Recorder {
    tml_trace::global()
}

/// Clear every counter, histogram and event, size the ring, and switch
/// recording on or off.
pub fn reset(enabled: bool) {
    let rec = recorder();
    rec.set_enabled(false);
    rec.clear();
    rec.set_capacity(RING_CAPACITY);
    rec.set_enabled(enabled);
}

/// Per-span-name totals accumulated from drained events.
#[derive(Default)]
pub struct SpanTotals {
    self_ns: BTreeMap<&'static str, u64>,
    incl_ns: BTreeMap<&'static str, u64>,
    child_ns: HashMap<u64, u64>,
}

impl SpanTotals {
    /// Drain the ring into the totals. Non-span events are discarded.
    pub fn absorb(&mut self) {
        for sample in recorder().drain() {
            if let Event::Span {
                name,
                id,
                parent,
                dur_ns,
                ..
            } = sample.event
            {
                let children = self.child_ns.remove(&id).unwrap_or(0);
                *self.self_ns.entry(name).or_default() += dur_ns.saturating_sub(children);
                *self.incl_ns.entry(name).or_default() += dur_ns;
                if parent != 0 {
                    *self.child_ns.entry(parent).or_default() += dur_ns;
                }
            }
        }
    }

    /// Self time of every span named `name`, in milliseconds.
    pub fn self_ms(&self, name: &str) -> f64 {
        self.self_ns.get(name).copied().unwrap_or(0) as f64 / 1e6
    }

    /// Inclusive time of every span named `name`, in milliseconds.
    pub fn incl_ms(&self, name: &str) -> f64 {
        self.incl_ns.get(name).copied().unwrap_or(0) as f64 / 1e6
    }
}

/// Current value of a program counter (0 when never bumped).
pub fn counter(name: &str) -> u64 {
    recorder().counter(name).get()
}

/// Sum of every counter whose name starts with `prefix`.
pub fn counter_prefix_sum(prefix: &str) -> u64 {
    recorder()
        .registry()
        .snapshot_prefix(prefix)
        .iter()
        .map(|(_, v)| v)
        .sum()
}

/// Events lost to ring wraparound since the last [`reset`].
pub fn dropped() -> u64 {
    recorder().dropped()
}

/// `(count, sum_ns, p99_ns)` of a latency histogram, zeros when empty.
pub fn hist(name: &str) -> (u64, u64, u64) {
    recorder()
        .hist_snapshot()
        .into_iter()
        .find(|(n, _)| n == name)
        .map_or((0, 0, 0), |(_, h)| (h.count, h.sum, h.p99))
}

/// Every per-layer metric name with its unit. The traced run reports all
/// of them on every workload; a layer a workload does not exercise reads
/// 0 there.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("lang.load_ms", "ms"),
    ("lang.parse_ms", "ms"),
    ("lang.check_ms", "ms"),
    ("lang.cps_ms", "ms"),
    ("opt.reduce_ms", "ms"),
    ("opt.expand_ms", "ms"),
    ("opt.rule_firings", "count"),
    ("opt.inlined", "count"),
    ("opt.nodes_out_per_in", "ratio"),
    ("reflect.optimize_all_ms", "ms"),
    ("reflect.cache.hit_ratio", "ratio"),
    ("reflect.cache.evictions", "count"),
    ("reflect.relink_ms", "ms"),
    ("store.open_ms", "ms"),
    ("store.buffer.hit_ratio", "ratio"),
    ("vm.compile_ms", "ms"),
    ("store.commit_ms", "ms"),
    ("store.checkpoint_ms", "ms"),
    ("store.ptml_per_code_bytes", "ratio"),
    ("vm.run_ms.dyn.fib", "ms"),
    ("vm.run_ms.dyn.sieve", "ms"),
    ("vm.run_ms.dyn.towers", "ms"),
    ("vm.run_ms.dyn.bubble", "ms"),
    ("vm.run_ms.dyn.quick", "ms"),
    ("vm.run_ms.dyn.queens", "ms"),
    ("vm.run_ms.dyn.intmm", "ms"),
    ("vm.run_ms.dyn.perm", "ms"),
    ("vm.run_ms.dyn.tree", "ms"),
    ("vm.run_ms.dyn.mandel", "ms"),
    ("vm.run_ms.base.fib", "ms"),
    ("vm.run_ms.base.sieve", "ms"),
    ("vm.run_ms.base.towers", "ms"),
    ("vm.run_ms.base.bubble", "ms"),
    ("vm.run_ms.base.quick", "ms"),
    ("vm.run_ms.base.queens", "ms"),
    ("vm.run_ms.base.intmm", "ms"),
    ("vm.run_ms.base.perm", "ms"),
    ("vm.run_ms.base.tree", "ms"),
    ("vm.run_ms.base.mandel", "ms"),
    ("vm.instrs.dyn", "count"),
    ("vm.instrs.base", "count"),
    ("vm.calls.dyn", "count"),
    ("vm.calls.base", "count"),
    ("vm.ns_per_instr", "ns"),
    ("query.exec_ms.merge_select", "ms"),
    ("query.exec_ms.view_project", "ms"),
    ("query.exec_ms.exists", "ms"),
    ("query.exec_ms.semi_join", "ms"),
    ("query.exec_ms.index_select", "ms"),
    ("query.pred_calls_per_row_out", "ratio"),
    ("query.objects_per_row_scanned", "ratio"),
    ("query.rewrites", "count"),
    ("query.plan.scan", "count"),
    ("query.plan.index", "count"),
    ("store.gc_ms", "ms"),
    ("store.gc.freed_per_pass", "count"),
    ("store.wal.commits_per_op", "ratio"),
    ("store.wal.flushes_per_op", "ratio"),
    ("store.wal.append_bytes_per_op", "B"),
    ("txn.client.begin_ms", "ms"),
    ("txn.client.call_ms", "ms"),
    ("txn.client.commit_ms", "ms"),
    ("txn.wire_ns_per_req", "ns"),
    ("txn.client_wait_share", "ratio"),
    ("txn.lock.waits_per_txn", "ratio"),
    ("txn.lock.wait_p99_ms", "ms"),
    ("txn.deadlocks", "count"),
    ("txn.aborts_per_txn", "ratio"),
    ("reflect.tier.swaps", "count"),
    ("reflect.tier.promote_ms", "ms"),
    ("trace.overhead_pct", "%"),
    ("trace.ring.dropped", "count"),
];
