//! Typed trace events.
//!
//! Every subsystem reports through the same closed event vocabulary so the
//! export schema stays stable: the optimizer emits the rewrite provenance
//! log ([`Event::RuleFired`], [`Event::ExpandDecision`], [`Event::OptRound`],
//! [`Event::OptStop`]), the store emits cache/GC/snapshot activity, the
//! query rewriter emits plan decisions, and the reflective optimizer emits
//! memo-cache consults and relink summaries.

use crate::json::JsonWriter;

/// One structured trace event.
///
/// Variants carry only plain integers and short strings so recording stays
/// cheap and the JSON export needs no external serializer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Event {
    /// An optimizer rewrite rule fired (§3 rules + constant folding).
    RuleFired {
        /// Rule name (`subst`, `remove`, `reduce`, `eta-reduce`, `fold`,
        /// `case-subst`, `y-remove`, `y-reduce`).
        rule: &'static str,
        /// Anchor for the rewrite where one exists: the bound variable or
        /// primitive the rule matched on, in display form. Empty otherwise.
        site: String,
        /// Pre-order index of the term node the sweep was visiting.
        node: u64,
        /// Term size after the rewrite minus size before (negative = shrank).
        size_delta: i64,
    },
    /// The expansion pass considered an inlining candidate (Appel-style
    /// heuristic, §3.2): records the cost/limit comparison that decided it.
    ExpandDecision {
        /// Display name of the let-bound function considered for inlining.
        site: String,
        /// Estimated body cost of the candidate.
        cost: u64,
        /// `inline_limit` the cost was compared against.
        limit: u64,
        /// Whether the candidate was inlined.
        taken: bool,
        /// Term-size growth charged against the penalty budget (0 if skipped).
        growth: u64,
    },
    /// One reduce(+expand) round of the optimizer driver completed.
    OptRound {
        /// 1-based round number.
        round: u32,
        /// Rule firings during this round's reduce-to-fixpoint pass.
        reductions: u64,
        /// Call sites inlined by this round's expansion pass.
        inlined: u64,
        /// Accumulated inlining penalty after this round.
        penalty: u64,
        /// Term size at the end of the round.
        size: u64,
    },
    /// The optimizer driver stopped, and why (§5 termination argument).
    OptStop {
        /// `fixpoint`, `expand-disabled`, `max-rounds` or `penalty-limit`.
        reason: &'static str,
        /// Total rounds executed.
        rounds: u32,
        /// Final accumulated penalty.
        penalty: u64,
        /// The configured penalty budget.
        penalty_limit: u64,
    },
    /// A named cache performed an operation (store optimization cache).
    CacheOp {
        /// Which cache (`opt-cache`).
        cache: &'static str,
        /// `hit`, `miss`, `invalidation`, `eviction` or `insert`.
        op: &'static str,
        /// Operation detail: the PTML hash of the key involved.
        key_hash: u64,
    },
    /// One phase of a garbage collection pause.
    GcPhase {
        /// `mark`, `sweep` or `cache-sweep`.
        phase: &'static str,
        /// Wall-clock duration of the phase in microseconds.
        micros: u64,
        /// Objects touched: marked (mark), freed (sweep), dropped entries
        /// (cache-sweep).
        count: u64,
        /// Bytes freed, where the phase tracks them.
        bytes: u64,
    },
    /// The query rewriter applied an algebraic rewrite.
    QueryRewrite {
        /// `merge-select`, `trivial-exists`, `index-select` or `semi-join`.
        rule: &'static str,
        /// Relation OID, when the rewrite is anchored to a stored relation.
        relation: Option<u64>,
        /// Index OID substituted by `index-select`.
        index: Option<u64>,
    },
    /// The executor chose an access path for a select.
    PlanChosen {
        /// `scan` or `index`.
        plan: &'static str,
        /// OID of the relation or index driving the plan, if known.
        target: Option<u64>,
    },
    /// The reflective optimizer consulted the persistent memo cache.
    ReflectConsult {
        /// Qualified function name being rebuilt.
        function: String,
        /// Store OID of the closure.
        oid: u64,
        /// `hit`, `miss` or `bypass` (caching disabled).
        outcome: &'static str,
    },
    /// A whole-world optimization pass relinked rebuilt closures
    /// (`rebuilt > 0`), or an image open checked its closures' PTML
    /// (`rebuilt = 0`). The check decodes, compiles and links nothing:
    /// each closure links on its first call.
    Relink {
        /// Closures rebuilt by the pass; zero for an image check.
        rebuilt: u64,
        /// Global/module bindings repointed to the rebuilt closures, or
        /// the closures whose PTML passed the image check.
        relinked: u64,
    },
    /// One target of a whole-world pass was skipped in degraded mode: its
    /// optimization panicked, diverged past its fuel budget, or its PTML
    /// blob failed to decode (or, on image open, to pass the header
    /// check). The unoptimized term is kept.
    DegradedSkip {
        /// Qualified function name of the skipped target.
        function: String,
        /// Store OID of the closure.
        oid: u64,
        /// `panic`, `decode` or `fuel`.
        reason: &'static str,
        /// Human-readable detail (panic payload, decode error), truncated.
        detail: String,
    },
    /// Write-ahead-log activity: one append/flush/checkpoint/redo step of
    /// the durable store's log manager.
    Wal {
        /// `append`, `flush`, `sync`, `checkpoint`, `redo` or `discard`.
        op: &'static str,
        /// Log sequence number the operation reached (last LSN involved).
        lsn: u64,
        /// Bytes appended/flushed/replayed by the operation.
        bytes: u64,
        /// Records involved (1 for appends, batch size for flush/redo).
        records: u64,
        /// Wall-clock duration of the operation in microseconds. These
        /// operations straddle real IO (fsync, image save, redo replay),
        /// so the event carries its own duration instead of being
        /// point-in-time.
        micros: u64,
    },
    /// Transaction lifecycle: one begin/commit/abort/deadlock/recovery
    /// step of the transaction manager (or of recovery undoing a loser).
    Txn {
        /// `begin`, `commit`, `abort`, `deadlock` or `recover-abort`.
        op: &'static str,
        /// Transaction id.
        txn: u64,
        /// Operation-dependent magnitude: logged mutations for `commit`,
        /// undo records rolled back for `abort`/`recover-abort`, 0
        /// otherwise.
        n: u64,
        /// Wall-clock duration in microseconds (0 for point events).
        micros: u64,
    },
    /// A durability guarantee was weakened but execution continued — e.g.
    /// the directory fsync after an atomic rename failed, so the rename
    /// itself may not survive a power cut even though the data is intact.
    DurabilityRisk {
        /// The site that degraded (`snapshot.save.dirsync`, …).
        site: &'static str,
        /// Human-readable detail (the OS error), truncated by the emitter.
        detail: String,
    },
    /// Opening an image fell back past the primary catalog: to its
    /// rolling backup, or to the completed temp file of an interrupted
    /// save.
    Recovery {
        /// `backup` or `tmp`.
        source: &'static str,
        /// Wall-clock duration of the catalog open, fallbacks included,
        /// in microseconds.
        micros: u64,
    },
    /// One closed timed span: a bracketed operation measured by a
    /// [`SpanGuard`](crate::span::SpanGuard). Recorded on close (Chrome
    /// "complete event" model), so a span's children always precede it in
    /// the ring. The span tree reconstructs from `id`/`parent`.
    Span {
        /// Span name, which is also its histogram key (`opt.round`,
        /// `vm.run`, `store.wal.commit_flush`, …).
        name: &'static str,
        /// Process-unique span id (never 0).
        id: u64,
        /// Id of the enclosing span, 0 for a root.
        parent: u64,
        /// Small dense label of the recording thread.
        thread: u64,
        /// Start tick in nanoseconds (trace clock).
        start_ns: u64,
        /// Duration in nanoseconds.
        dur_ns: u64,
    },
}

impl Event {
    /// Stable schema tag for the JSON export.
    pub fn kind(&self) -> &'static str {
        match self {
            Event::RuleFired { .. } => "rule-fired",
            Event::ExpandDecision { .. } => "expand-decision",
            Event::OptRound { .. } => "opt-round",
            Event::OptStop { .. } => "opt-stop",
            Event::CacheOp { .. } => "cache-op",
            Event::GcPhase { .. } => "gc-phase",
            Event::QueryRewrite { .. } => "query-rewrite",
            Event::PlanChosen { .. } => "plan-chosen",
            Event::ReflectConsult { .. } => "reflect-consult",
            Event::Relink { .. } => "relink",
            Event::DegradedSkip { .. } => "degraded-skip",
            Event::Wal { .. } => "wal",
            Event::Txn { .. } => "txn",
            Event::DurabilityRisk { .. } => "durability-risk",
            Event::Recovery { .. } => "recovery",
            Event::Span { .. } => "span",
        }
    }

    /// True for events that belong to the deterministic rewrite provenance
    /// log (the subset `replay` re-derives and checks).
    pub fn is_provenance(&self) -> bool {
        matches!(
            self,
            Event::RuleFired { .. }
                | Event::ExpandDecision { .. }
                | Event::OptRound { .. }
                | Event::OptStop { .. }
        )
    }

    pub(crate) fn write_json(&self, w: &mut JsonWriter) {
        match self {
            Event::RuleFired {
                rule,
                site,
                node,
                size_delta,
            } => {
                w.str_field("rule", rule);
                w.str_field("site", site);
                w.u64_field("node", *node);
                w.i64_field("size_delta", *size_delta);
            }
            Event::ExpandDecision {
                site,
                cost,
                limit,
                taken,
                growth,
            } => {
                w.str_field("site", site);
                w.u64_field("cost", *cost);
                w.u64_field("limit", *limit);
                w.bool_field("taken", *taken);
                w.u64_field("growth", *growth);
            }
            Event::OptRound {
                round,
                reductions,
                inlined,
                penalty,
                size,
            } => {
                w.u64_field("round", u64::from(*round));
                w.u64_field("reductions", *reductions);
                w.u64_field("inlined", *inlined);
                w.u64_field("penalty", *penalty);
                w.u64_field("size", *size);
            }
            Event::OptStop {
                reason,
                rounds,
                penalty,
                penalty_limit,
            } => {
                w.str_field("reason", reason);
                w.u64_field("rounds", u64::from(*rounds));
                w.u64_field("penalty", *penalty);
                w.u64_field("penalty_limit", *penalty_limit);
            }
            Event::CacheOp {
                cache,
                op,
                key_hash,
            } => {
                w.str_field("cache", cache);
                w.str_field("op", op);
                w.u64_field("key_hash", *key_hash);
            }
            Event::GcPhase {
                phase,
                micros,
                count,
                bytes,
            } => {
                w.str_field("phase", phase);
                w.u64_field("micros", *micros);
                w.u64_field("count", *count);
                w.u64_field("bytes", *bytes);
            }
            Event::QueryRewrite {
                rule,
                relation,
                index,
            } => {
                w.str_field("rule", rule);
                w.opt_u64_field("relation", *relation);
                w.opt_u64_field("index", *index);
            }
            Event::PlanChosen { plan, target } => {
                w.str_field("plan", plan);
                w.opt_u64_field("target", *target);
            }
            Event::ReflectConsult {
                function,
                oid,
                outcome,
            } => {
                w.str_field("function", function);
                w.u64_field("oid", *oid);
                w.str_field("outcome", outcome);
            }
            Event::Relink { rebuilt, relinked } => {
                w.u64_field("rebuilt", *rebuilt);
                w.u64_field("relinked", *relinked);
            }
            Event::DegradedSkip {
                function,
                oid,
                reason,
                detail,
            } => {
                w.str_field("function", function);
                w.u64_field("oid", *oid);
                w.str_field("reason", reason);
                w.str_field("detail", detail);
            }
            Event::Wal {
                op,
                lsn,
                bytes,
                records,
                micros,
            } => {
                w.str_field("op", op);
                w.u64_field("lsn", *lsn);
                w.u64_field("bytes", *bytes);
                w.u64_field("records", *records);
                w.u64_field("micros", *micros);
            }
            Event::Txn { op, txn, n, micros } => {
                w.str_field("op", op);
                w.u64_field("txn", *txn);
                w.u64_field("n", *n);
                w.u64_field("micros", *micros);
            }
            Event::DurabilityRisk { site, detail } => {
                w.str_field("site", site);
                w.str_field("detail", detail);
            }
            Event::Recovery { source, micros } => {
                w.str_field("source", source);
                w.u64_field("micros", *micros);
            }
            Event::Span {
                name,
                id,
                parent,
                thread,
                start_ns,
                dur_ns,
            } => {
                w.str_field("name", name);
                w.u64_field("id", *id);
                w.u64_field("parent", *parent);
                w.u64_field("thread", *thread);
                w.u64_field("start_ns", *start_ns);
                w.u64_field("dur_ns", *dur_ns);
            }
        }
    }
}

/// A recorded event with its global sequence number.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Sample {
    /// Monotonic sequence number assigned at record time (never reused,
    /// so gaps reveal ring-buffer overwrites).
    pub seq: u64,
    /// The event payload.
    pub event: Event,
}
