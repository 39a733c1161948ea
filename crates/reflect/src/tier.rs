//! Tiered execution: profile-guided background re-optimization with
//! crash-safe hot-swap and provenance deopt.
//!
//! This module closes the loop the paper's `reflect.optimize` leaves
//! open: instead of a one-shot, user-invoked reflective operation,
//! optimization becomes continuous and workload-driven. The VM counts
//! invocations per code block ([`tml_vm::CodeTable::note_call`]); a
//! [`TierEngine`] samples those counters, picks closures that crossed a
//! configurable hotness threshold, re-optimizes them with **escalated**
//! inline/penalty budgets plus observed-binding specialization
//! ([`escalated`]), and hot-swaps the result into the store *in place* —
//! the closure keeps its OID, so every reference (globals, module
//! exports, mutual captures) picks up the new tier on its next call,
//! while a machine mid-call finishes on the block and environment it
//! read from the code table's link when it entered.
//!
//! ## Swap protocol
//!
//! A promotion is split in two so the mutation can ride the
//! [`StoreAccess`]/transaction seam:
//!
//! 1. [`prepare_promotion`] — optimizer + code generation. Reads the
//!    store, compiles into the session's code table, and allocates the
//!    new PTML blob (garbage until published; a crash here loses
//!    nothing).
//! 2. [`apply_promotion`] — store mutations only, over any
//!    `StoreAccess`: the closure's new bindings and PTML. The server
//!    wraps this in a transaction over a `TxnView`, so the swap takes
//!    the closure's exclusive lock (no torn reads against in-flight
//!    calls), is WAL-logged, and a crash mid-swap rolls back to the
//!    pre-swap closure on recovery.
//! 3. [`Promotion::link`] — point the closure's code-table link at the
//!    hot block. Only after the swap committed (the server) or
//!    `apply_promotion` returned `Ok` (the library [`tick`]): a failed
//!    swap leaves the closure on its baseline block and PTML.
//!
//! ## Deopt
//!
//! `apply_promotion` records a provenance tuple under the store root
//! `tier.prev.<oid>`: the pre-optimization PTML reference, the original
//! R-value bindings, and the observed `(dep, version)` assumption pairs
//! behind the specialization. Roots anchor the old PTML against GC (the
//! attr table is not traced). When any assumption is invalidated — a
//! specialized binding's target mutated or collected —
//! [`prepare_deopt`]/[`apply_deopt`] restore the pre-optimization PTML
//! byte-identically from that record and drop the closure back to the
//! baseline tier.
//!
//! Hotness survives restarts: [`persist_counters`] writes each
//! closure's lifetime call count to the `tier.calls` attribute (saved
//! in the TYCAT2 catalog's attr section at checkpoint), and
//! [`crate::relink_image_code`] seeds the fresh code table from those
//! attributes on image load.

use std::collections::HashMap;

use tml_core::Oid;
use tml_lang::Session;
use tml_store::{Object, SVal, Store, StoreAccess, StoreError};
use tml_vm::{CodeTable, TIER_BASELINE, TIER_HOT};

use crate::{link_ptml, ptml_blob, rebuild, recorded_or_global, KeyInputs};
use crate::{ReflectError, ReflectOptions};

/// Store root holding the cumulative swap/deopt totals tuple.
pub const STATS_ROOT: &str = "tier.stats";

/// Store root anchoring the pre-optimization provenance of a promoted
/// closure.
pub fn prev_root(oid: Oid) -> String {
    format!("tier.prev.{}", oid.0)
}

/// Tier-promotion tuning.
#[derive(Debug, Clone, Copy)]
pub struct TierOptions {
    /// Lifetime invocation count at which a baseline closure becomes a
    /// promotion candidate.
    pub threshold: u64,
    /// At most this many promotions per sampling tick (bounds executor
    /// stall in the server).
    pub max_per_tick: usize,
    /// Baseline optimizer configuration the hot tier escalates from.
    pub base: ReflectOptions,
}

impl Default for TierOptions {
    fn default() -> Self {
        TierOptions {
            threshold: 1000,
            max_per_tick: 4,
            base: ReflectOptions::default(),
        }
    }
}

/// The hot tier's optimizer configuration: deeper cross-module inlining
/// and relaxed growth budgets, tagged `tier = 1` so its cache products
/// never serve a baseline request.
pub fn escalated(base: &ReflectOptions) -> ReflectOptions {
    let mut o = *base;
    o.tier = TIER_HOT;
    o.inline_depth = base.inline_depth + 2;
    o.opt.inline_limit = base.opt.inline_limit.saturating_mul(4);
    o.opt.penalty_limit = base.opt.penalty_limit.saturating_mul(4);
    o
}

/// Cumulative swap/deopt totals, persisted in the [`STATS_ROOT`] tuple.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TierTotals {
    /// Hot-swaps committed since the store was created.
    pub swaps: u64,
    /// Deopts committed since the store was created.
    pub deopts: u64,
}

/// Read the persisted totals (zero when none were recorded yet).
pub fn totals<S: StoreAccess + ?Sized>(store: &S) -> TierTotals {
    let Some(oid) = store.root(STATS_ROOT) else {
        return TierTotals::default();
    };
    match store.base().get(oid) {
        Ok(Object::Tuple(t)) => TierTotals {
            swaps: match t.first() {
                Some(SVal::Int(n)) => *n as u64,
                _ => 0,
            },
            deopts: match t.get(1) {
                Some(SVal::Int(n)) => *n as u64,
                _ => 0,
            },
        },
        _ => TierTotals::default(),
    }
}

/// Add to the persisted totals through the seam (logged, undoable).
fn bump_totals<S: StoreAccess + ?Sized>(
    store: &mut S,
    swaps: u64,
    deopts: u64,
) -> Result<(), StoreError> {
    match store.root(STATS_ROOT) {
        Some(oid) => store.mutate(oid, &mut |obj| {
            if let Object::Tuple(t) = obj {
                if let Some(SVal::Int(n)) = t.first_mut() {
                    *n += swaps as i64;
                }
                if let Some(SVal::Int(n)) = t.get_mut(1) {
                    *n += deopts as i64;
                }
            }
            Ok(())
        }),
        None => {
            let oid = store.alloc(Object::Tuple(vec![
                SVal::Int(swaps as i64),
                SVal::Int(deopts as i64),
            ]))?;
            store.set_root(STATS_ROOT, oid)
        }
    }
}

/// A prepared hot-tier promotion, ready to be applied through the seam.
#[derive(Debug)]
pub struct Promotion {
    /// The closure being promoted (swap happens in place at this OID).
    pub oid: Oid,
    /// Global name, when one is bound to the OID.
    pub name: Option<String>,
    /// Compiled hot-tier code block (already tagged [`TIER_HOT`] in the
    /// session's code table).
    pub block: u32,
    bindings: Vec<(String, SVal)>,
    /// The freshly allocated hot-tier PTML blob.
    pub ptml: Oid,
    prev_ptml: Oid,
    prev_bindings: Vec<(String, SVal)>,
    /// Specialization assumptions: `(dep, version)` pairs observed while
    /// building the hot product. Any change triggers deopt.
    pub observed: Vec<(Oid, u64)>,
    /// Call sites inlined by the escalated optimization.
    pub inlined: u64,
}

/// Re-optimize `oid` under the escalated hot-tier configuration. Pure
/// preparation: the store gains only the (unreferenced) new PTML blob;
/// the swap itself is [`apply_promotion`].
pub fn prepare_promotion<S: StoreAccess>(
    session: &mut Session<S>,
    oid: Oid,
    opts: &TierOptions,
) -> Result<Promotion, ReflectError> {
    let _s = tml_trace::span!("tier.promote");
    let (prev_ptml, prev_bindings) = match session.store.base().get(oid) {
        Ok(Object::Closure(c)) => (c.ptml.ok_or(ReflectError::NoPtml(oid))?, c.bindings.clone()),
        Ok(other) => return Err(ReflectError::NotAClosure(other.kind().to_string())),
        Err(e) => return Err(ReflectError::Store(e.to_string())),
    };
    let name = session.globals.iter().find_map(|(n, v)| {
        if *v == SVal::Ref(oid) {
            Some(n.clone())
        } else {
            None
        }
    });
    let esc = escalated(&opts.base);
    let inputs = KeyInputs::of(&session.ctx, session.store.base(), &esc);
    let rebuilt = rebuild(session, oid, name.clone(), &esc, &inputs)?;
    let mut bindings = Vec::with_capacity(rebuilt.captures.len());
    for (cname, fallback) in &rebuilt.captures {
        let val = session
            .globals
            .get(cname)
            .cloned()
            .or_else(|| fallback.clone())
            .ok_or_else(|| ReflectError::Unresolved(cname.clone()))?;
        bindings.push((cname.clone(), val));
    }
    // The target's own version bumps when the swap mutates it — keep it
    // out of the assumption set or every promotion would immediately
    // deopt itself.
    let observed: Vec<(Oid, u64)> = rebuilt
        .observed
        .iter()
        .filter(|(d, _)| *d != oid)
        .copied()
        .collect();
    session.vm.code.set_tier(rebuilt.block, TIER_HOT);
    // The counters are *lifetime* counts: carry the old block's tally to
    // the hot block so a swap never resets hotness (persist_counters
    // reads the linked block).
    carry_calls(&session.vm.code, oid, rebuilt.block);
    Ok(Promotion {
        oid,
        name,
        block: rebuilt.block,
        bindings,
        ptml: rebuilt.ptml,
        prev_ptml,
        prev_bindings,
        observed,
        inlined: rebuilt.stats.inlined,
    })
}

impl Promotion {
    /// Link the promoted closure to its hot block in `code`. Call it only
    /// once [`apply_promotion`] has taken effect (returned `Ok`, and its
    /// transaction committed if it ran in one).
    pub fn link(&self, code: &CodeTable) {
        code.link(self.oid, self.block, self.bindings.iter().map(|(_, v)| v));
    }
}

/// Carry the lifetime call count of the block `oid` is linked to over to
/// `block`, the one it is about to be linked to.
fn carry_calls(code: &CodeTable, oid: Oid, block: u32) {
    if let Some(prev) = code.linked_block(oid) {
        code.seed_calls(block, code.calls(prev));
    }
}

/// Hot-swap a prepared promotion into the store: in-place closure
/// mutation (bindings and PTML), provenance root, tier attribute, totals
/// bump. Pure store mutations — run it over a `TxnView` to get locking +
/// WAL logging + crash-recoverable atomicity. The closure still runs its
/// baseline block until [`Promotion::link`].
pub fn apply_promotion<S: StoreAccess + ?Sized>(
    store: &mut S,
    p: &Promotion,
) -> Result<(), StoreError> {
    store.mutate(p.oid, &mut |obj| {
        if let Object::Closure(c) = obj {
            c.bindings = p.bindings.clone();
            c.ptml = Some(p.ptml);
        }
        Ok(())
    })?;
    // First promotion wins the provenance slot: deopt always restores
    // the true (pre-any-promotion) baseline.
    let key = prev_root(p.oid);
    if store.root(&key).is_none() {
        let mut t = vec![
            SVal::Ref(p.prev_ptml),
            SVal::Int(p.prev_bindings.len() as i64),
        ];
        for (n, v) in &p.prev_bindings {
            t.push(SVal::Str(n.as_str().into()));
            t.push(v.clone());
        }
        t.push(SVal::Int(p.observed.len() as i64));
        for (d, ver) in &p.observed {
            t.push(SVal::Int(d.0 as i64));
            t.push(SVal::Int(*ver as i64));
        }
        let tup = store.alloc(Object::Tuple(t))?;
        store.set_root(&key, tup)?;
    }
    store.set_attr(p.oid, "tier", i64::from(TIER_HOT))?;
    bump_totals(store, 1, 0)?;
    if tml_trace::enabled() {
        tml_trace::count("reflect.tier.swap", 1);
    }
    Ok(())
}

/// A prepared deopt, ready to be applied through the seam.
#[derive(Debug)]
pub struct Deopt {
    /// The closure being demoted.
    pub oid: Oid,
    /// Baseline code block recompiled from the provenance PTML.
    pub block: u32,
    bindings: Vec<(String, SVal)>,
    /// The pre-optimization PTML blob the closure is restored to.
    pub prev_ptml: Oid,
}

/// Provenance record of a promoted closure, as parsed from its
/// `tier.prev.<oid>` tuple.
struct Provenance {
    prev_ptml: Oid,
    prev_bindings: Vec<(String, SVal)>,
    observed: Vec<(Oid, u64)>,
}

fn load_provenance(store: &Store, oid: Oid) -> Option<Provenance> {
    let tup = store.root(&prev_root(oid))?;
    let Ok(Object::Tuple(t)) = store.get(tup) else {
        return None;
    };
    let mut it = t.iter();
    let SVal::Ref(prev_ptml) = it.next()? else {
        return None;
    };
    let SVal::Int(nbind) = it.next()? else {
        return None;
    };
    let mut prev_bindings = Vec::with_capacity(*nbind as usize);
    for _ in 0..*nbind {
        let SVal::Str(name) = it.next()? else {
            return None;
        };
        prev_bindings.push((name.to_string(), it.next()?.clone()));
    }
    let SVal::Int(ndeps) = it.next()? else {
        return None;
    };
    let mut observed = Vec::with_capacity(*ndeps as usize);
    for _ in 0..*ndeps {
        let SVal::Int(d) = it.next()? else {
            return None;
        };
        let SVal::Int(ver) = it.next()? else {
            return None;
        };
        observed.push((Oid(*d as u64), *ver as u64));
    }
    Some(Provenance {
        prev_ptml: *prev_ptml,
        prev_bindings,
        observed,
    })
}

/// Recompile the pre-optimization PTML from the provenance record. The
/// PTML object itself was never touched, so the restoration is
/// byte-identical by construction.
pub fn prepare_deopt<S: StoreAccess>(
    session: &mut Session<S>,
    oid: Oid,
) -> Result<Deopt, ReflectError> {
    let _s = tml_trace::span!("tier.deopt");
    let prov = load_provenance(session.store.base(), oid)
        .ok_or_else(|| ReflectError::Store(format!("no tier provenance recorded for {oid}")))?;
    let bytes = ptml_blob(session.store.base(), prov.prev_ptml)?.to_vec();
    let linked = link_ptml(session, &bytes, recorded_or_global(&prov.prev_bindings))?;
    // Lifetime counters survive the demotion just like the promotion —
    // the closure is still hot, it only lost its assumptions.
    carry_calls(&session.vm.code, oid, linked.block);
    Ok(Deopt {
        oid,
        block: linked.block,
        bindings: linked.captures,
        prev_ptml: prov.prev_ptml,
    })
}

impl Deopt {
    /// Link the demoted closure to its baseline block in `code`, once
    /// [`apply_deopt`] has taken effect.
    pub fn link(&self, code: &CodeTable) {
        code.link(self.oid, self.block, self.bindings.iter().map(|(_, v)| v));
    }
}

/// Restore a prepared deopt through the seam: the closure drops back to
/// the baseline tier (bindings and PTML), the provenance root is
/// released (the old PTML is referenced by the closure again), totals
/// are bumped. The closure still runs its hot block until
/// [`Deopt::link`].
pub fn apply_deopt<S: StoreAccess + ?Sized>(store: &mut S, d: &Deopt) -> Result<(), StoreError> {
    store.mutate(d.oid, &mut |obj| {
        if let Object::Closure(c) = obj {
            c.bindings = d.bindings.clone();
            c.ptml = Some(d.prev_ptml);
        }
        Ok(())
    })?;
    store.remove_root(&prev_root(d.oid))?;
    store.set_attr(d.oid, "tier", i64::from(TIER_BASELINE))?;
    bump_totals(store, 0, 1)?;
    if tml_trace::enabled() {
        tml_trace::count("reflect.tier.deopt", 1);
    }
    Ok(())
}

/// The background re-optimizer's state: tuning plus the in-memory
/// assumption table (lazily reloaded from provenance after a restart).
pub struct TierEngine {
    /// Tuning.
    pub opts: TierOptions,
    assumptions: HashMap<Oid, Vec<(Oid, u64)>>,
}

impl TierEngine {
    /// A fresh engine.
    pub fn new(opts: TierOptions) -> TierEngine {
        TierEngine {
            opts,
            assumptions: HashMap::new(),
        }
    }

    /// Baseline closures whose lifetime call count crossed the
    /// threshold, hottest first, capped at `max_per_tick`.
    pub fn sample<S: StoreAccess>(&self, session: &Session<S>) -> Vec<(Oid, u64)> {
        let code = &session.vm.code;
        let mut v: Vec<(Oid, u64)> = session
            .store
            .base()
            .iter()
            .filter_map(|(oid, obj)| match obj {
                Object::Closure(c)
                    if c.ptml.is_some()
                        && session.store.attr(oid, "tier") != Some(i64::from(TIER_HOT))
                        && session.store.attr(oid, "tier.skip") != Some(1)
                        && session.store.attr(oid, "degraded") != Some(1) =>
                {
                    let n = code.calls(code.linked_block(oid)?);
                    (n >= self.opts.threshold).then_some((oid, n))
                }
                _ => None,
            })
            .collect();
        v.sort_by(|a, b| b.1.cmp(&a.1).then(a.0 .0.cmp(&b.0 .0)));
        v.truncate(self.opts.max_per_tick);
        v
    }

    /// Hot closures whose recorded specialization assumptions no longer
    /// hold (a specialized binding's target was mutated or collected).
    pub fn violations<S: StoreAccess>(&mut self, session: &Session<S>) -> Vec<Oid> {
        let hot: Vec<Oid> = session
            .store
            .base()
            .iter()
            .filter_map(|(oid, obj)| match obj {
                Object::Closure(_)
                    if session.store.attr(oid, "tier") == Some(i64::from(TIER_HOT)) =>
                {
                    Some(oid)
                }
                _ => None,
            })
            .collect();
        let mut out = Vec::new();
        for oid in hot {
            if let std::collections::hash_map::Entry::Vacant(e) = self.assumptions.entry(oid) {
                // Engine restarted after a reopen: reload the assumption
                // pairs from the provenance record.
                let Some(prov) = load_provenance(session.store.base(), oid) else {
                    continue;
                };
                e.insert(prov.observed);
            }
            let assumed = &self.assumptions[&oid];
            if assumed
                .iter()
                .any(|&(d, ver)| session.store.base().version(d) != ver)
            {
                out.push(oid);
            }
        }
        out
    }

    /// Record a committed promotion's assumptions.
    pub fn note_promoted(&mut self, p: &Promotion) {
        self.assumptions.insert(p.oid, p.observed.clone());
    }

    /// Drop a deopted closure's assumptions.
    pub fn note_deopted(&mut self, oid: Oid) {
        self.assumptions.remove(&oid);
    }
}

/// What one sampling tick did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TickReport {
    /// Closures hot-swapped to the optimized tier.
    pub promoted: usize,
    /// Closures restored to the baseline tier.
    pub deopted: usize,
    /// Promotion attempts that failed (marked `tier.skip`, never
    /// retried).
    pub failed: usize,
}

/// One library-path re-optimizer tick: deopt every closure whose
/// assumptions broke, then promote up to `max_per_tick` hot candidates,
/// applying swaps directly through the session's store seam and
/// committing at the end. The server performs the same steps but wraps
/// each `apply_*` in its own transaction (see `tml-txn`'s server).
pub fn tick<S: StoreAccess>(
    engine: &mut TierEngine,
    session: &mut Session<S>,
) -> Result<TickReport, ReflectError> {
    let store_err = |e: StoreError| ReflectError::Store(e.to_string());
    let mut report = TickReport::default();
    for oid in engine.violations(session) {
        let d = prepare_deopt(session, oid)?;
        apply_deopt(&mut session.store, &d).map_err(store_err)?;
        d.link(&session.vm.code);
        engine.note_deopted(oid);
        report.deopted += 1;
    }
    for (oid, _calls) in engine.sample(session) {
        match prepare_promotion(session, oid, &engine.opts) {
            Ok(p) => {
                apply_promotion(&mut session.store, &p).map_err(store_err)?;
                p.link(&session.vm.code);
                engine.note_promoted(&p);
                report.promoted += 1;
            }
            Err(_) => {
                // One bad target must not wedge the sampler: mark it and
                // move on (mirrors degraded-mode optimization).
                let _ = session.store.set_attr(oid, "tier.skip", 1);
                report.failed += 1;
            }
        }
    }
    if report != TickReport::default() {
        session.store.commit().map_err(store_err)?;
    }
    Ok(report)
}

/// Persist the lifetime call counters as `tier.calls` attributes so
/// hotness survives checkpoint/reopen (the TYCAT2 catalog saves the
/// attr section wholesale). Returns the number of counters written.
pub fn persist_counters<S: StoreAccess>(session: &mut Session<S>) -> Result<usize, StoreError> {
    let code = &session.vm.code;
    let targets: Vec<(Oid, u64)> = session
        .store
        .base()
        .iter()
        .filter_map(|(oid, obj)| match obj {
            Object::Closure(c) if c.ptml.is_some() => {
                Some((oid, code.calls(code.linked_block(oid)?)))
            }
            _ => None,
        })
        .collect();
    let mut written = 0;
    for (oid, calls) in targets {
        let v = calls.min(i64::MAX as u64) as i64;
        if v > 0 && session.store.attr(oid, "tier.calls") != Some(v) {
            session.store.set_attr(oid, "tier.calls", v)?;
            written += 1;
        }
    }
    Ok(written)
}

/// Publish the `reflect.tier.*` gauge block: schema tag, per-tier
/// closure counts, cumulative swap/deopt totals and (when known) the
/// configured threshold.
pub fn publish_gauges<S: StoreAccess + ?Sized>(store: &S, opts: Option<&TierOptions>) {
    let rec = tml_trace::global();
    rec.counter("reflect.tier.schema").set(1);
    let mut hot = 0u64;
    let mut baseline = 0u64;
    for (oid, obj) in store.base().iter() {
        if let Object::Closure(c) = obj {
            if c.ptml.is_some() {
                if store.attr(oid, "tier") == Some(i64::from(TIER_HOT)) {
                    hot += 1;
                } else {
                    baseline += 1;
                }
            }
        }
    }
    rec.counter("reflect.tier.hot").set(hot);
    rec.counter("reflect.tier.baseline").set(baseline);
    let t = totals(store);
    rec.counter("reflect.tier.swaps").set(t.swaps);
    rec.counter("reflect.tier.deopts").set(t.deopts);
    if let Some(o) = opts {
        rec.counter("reflect.tier.threshold").set(o.threshold);
    }
}
