//! Mark-and-sweep garbage collection over the object store.
//!
//! Roots are the store's named roots plus any extra OIDs the embedder
//! supplies (a session's global binding environment, values held by a
//! running machine). Reachability follows every reference an object can
//! hold — including **OID literals embedded in PTML blobs**, since
//! persistent code may mention persistent data directly (paper §2.1: TML
//! terms "may contain … object identifiers which denote arbitrarily
//! complex objects in the persistent Tycoon object store").
//!
//! Unreachable slots are tombstoned, never reused or compacted, so OIDs
//! held outside the store stay valid.

use crate::object::Object;
use crate::ptml::scan_oids;
use crate::store::Store;
use crate::sval::SVal;
use tml_core::Oid;

/// Result of a collection.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GcStats {
    /// Live objects before the collection.
    pub before: usize,
    /// Live objects after the collection.
    pub after: usize,
    /// Objects tombstoned.
    pub freed: usize,
    /// Approximate bytes reclaimed.
    pub bytes_freed: usize,
    /// Optimization-cache entries dropped because an object they observed
    /// was collected.
    pub cache_dropped: usize,
}

fn mark_sval(v: &SVal, pending: &mut Vec<Oid>) {
    if let SVal::Ref(o) = v {
        pending.push(*o);
    }
}

fn mark_object(obj: &Object, pending: &mut Vec<Oid>) {
    match obj {
        Object::Array(vs) | Object::Vector(vs) | Object::Tuple(vs) => {
            for v in vs {
                mark_sval(v, pending);
            }
        }
        Object::ByteArray(_) => {}
        Object::Closure(c) => {
            for (_, v) in &c.bindings {
                mark_sval(v, pending);
            }
            if let Some(p) = c.ptml {
                pending.push(p);
            }
        }
        Object::Ptml(bytes) => {
            // Code references data: OID literals keep their targets alive.
            if let Ok(oids) = scan_oids(bytes) {
                pending.extend(oids);
            }
        }
        Object::Module(m) => {
            for v in m.exports.values() {
                mark_sval(v, pending);
            }
        }
        Object::Relation(r) => {
            for row in &r.rows {
                for v in row {
                    mark_sval(v, pending);
                }
            }
        }
        Object::Index(ix) => pending.push(ix.relation),
    }
}

/// Every OID an object refers to (env/binding/export/row values, PTML
/// attachments and embedded OID literals, index→relation edges) — the
/// same edge set the mark phase traverses, exposed for integrity checks
/// (`tmlc fsck`).
pub fn object_refs(obj: &Object) -> Vec<Oid> {
    let mut out = Vec::new();
    mark_object(obj, &mut out);
    out
}

/// Collect garbage. `extra_roots` are additional roots beyond the store's
/// named roots (e.g. a session's global bindings).
pub fn collect(store: &mut Store, extra_roots: &[Oid]) -> GcStats {
    let _s = tml_trace::span!("store.gc.collect");
    let tracing = tml_trace::enabled();
    let before = store.live();
    let nslots = store.len();
    let mut marked = vec![false; nslots + 1]; // index by oid (1-based)
    let mut pending: Vec<Oid> = store.roots().map(|(_, o)| o).collect();
    pending.extend_from_slice(extra_roots);

    let t_mark = std::time::Instant::now();
    while let Some(oid) = pending.pop() {
        let ix = oid.0 as usize;
        if oid.is_null() || ix > nslots || marked[ix] {
            continue;
        }
        marked[ix] = true;
        if let Ok(obj) = store.get(oid) {
            mark_object(obj, &mut pending);
        }
    }
    if tracing {
        let us = t_mark.elapsed().as_micros() as u64;
        tml_trace::global().record_ns("store.gc.mark", us.saturating_mul(1_000));
        tml_trace::record(tml_trace::Event::GcPhase {
            phase: "mark",
            micros: us,
            count: marked.iter().filter(|&&m| m).count() as u64,
            bytes: 0,
        });
    }

    let t_sweep = std::time::Instant::now();
    let mut freed = 0;
    let mut bytes_freed = 0;
    #[allow(clippy::needless_range_loop)] // oid-indexed, not slice iteration
    for ix in 1..=nslots {
        if marked[ix] {
            continue;
        }
        let oid = Oid(ix as u64);
        if let Ok(obj) = store.get(oid) {
            bytes_freed += obj.byte_size();
            freed += 1;
            store.free(oid);
        }
    }
    if tracing {
        let us = t_sweep.elapsed().as_micros() as u64;
        tml_trace::global().record_ns("store.gc.sweep", us.saturating_mul(1_000));
        tml_trace::record(tml_trace::Event::GcPhase {
            phase: "sweep",
            micros: us,
            count: freed as u64,
            bytes: bytes_freed as u64,
        });
    }
    // Cached optimization products are derived state, not roots: entries
    // that observed a collected object are dropped eagerly (a later lookup
    // would invalidate them anyway via the version check).
    let t_cache = std::time::Instant::now();
    let cache_dropped = store.cache_sweep();
    if tracing {
        tml_trace::record(tml_trace::Event::GcPhase {
            phase: "cache-sweep",
            micros: t_cache.elapsed().as_micros() as u64,
            count: cache_dropped as u64,
            bytes: 0,
        });
        tml_trace::count("store.gc.runs", 1);
        tml_trace::count("store.gc.freed", freed as u64);
        tml_trace::count("store.gc.bytes_freed", bytes_freed as u64);
        tml_trace::count("store.gc.micros", t_mark.elapsed().as_micros() as u64);
    }
    GcStats {
        before,
        after: store.live(),
        freed,
        bytes_freed,
        cache_dropped,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::object::{ClosureObj, ModuleObj, Relation};
    use crate::store::StoreError;

    #[test]
    fn unrooted_objects_are_collected() {
        let mut s = Store::new();
        let kept = s.alloc(Object::Array(vec![SVal::Int(1)]));
        let dead = s.alloc(Object::Array(vec![SVal::Int(2)]));
        s.set_root("kept", kept);
        let stats = collect(&mut s, &[]);
        assert_eq!(stats.freed, 1);
        assert!(s.get(kept).is_ok());
        assert!(matches!(s.get(dead), Err(StoreError::Dangling(_))));
    }

    #[test]
    fn references_keep_objects_alive_transitively() {
        let mut s = Store::new();
        let inner = s.alloc(Object::Array(vec![SVal::Int(9)]));
        let middle = s.alloc(Object::Tuple(vec![SVal::Ref(inner)]));
        let outer = s.alloc(Object::Array(vec![SVal::Ref(middle)]));
        s.set_root("outer", outer);
        let stats = collect(&mut s, &[]);
        assert_eq!(stats.freed, 0);
        assert!(s.get(inner).is_ok());
    }

    #[test]
    fn extra_roots_are_respected() {
        let mut s = Store::new();
        let a = s.alloc(Object::Array(vec![]));
        let b = s.alloc(Object::Array(vec![]));
        let stats = collect(&mut s, &[a]);
        assert_eq!(stats.freed, 1);
        assert!(s.get(a).is_ok());
        assert!(s.get(b).is_err());
    }

    #[test]
    fn closures_keep_env_bindings_and_ptml() {
        let mut s = Store::new();
        let env_obj = s.alloc(Object::Array(vec![]));
        let bind_obj = s.alloc(Object::Array(vec![]));
        let ptml = s.alloc(Object::Ptml(crate::ptml::encode_app(
            &tml_core::Ctx::new(),
            &tml_core::term::App::new(tml_core::term::Value::Lit(tml_core::Lit::Int(1)), vec![]),
        )));
        let clo = s.alloc(Object::Closure(ClosureObj {
            bindings: vec![("g".into(), SVal::Ref(bind_obj))],
            ptml: Some(ptml),
        }));
        s.set_root("f", clo);
        // A run-time closure: its environment is its positional bindings.
        let run_time = s.alloc(Object::Closure(ClosureObj::positional(&[SVal::Ref(
            env_obj,
        )])));
        s.set_root("g", run_time);
        let stats = collect(&mut s, &[]);
        assert_eq!(stats.freed, 0);
    }

    #[test]
    fn ptml_embedded_oids_keep_data_alive() {
        let mut s = Store::new();
        let data = s.alloc(Object::Array(vec![SVal::Int(5)]));
        // A program embedding <oid data> as a literal.
        let ctx = tml_core::Ctx::new();
        let halt = ctx.prims.lookup("halt").unwrap();
        let app = tml_core::term::App::new(
            tml_core::term::Value::Prim(halt),
            vec![tml_core::term::Value::Lit(tml_core::Lit::Oid(data))],
        );
        let bytes = crate::ptml::encode_app(&ctx, &app);
        let ptml = s.alloc(Object::Ptml(bytes));
        s.set_root("code", ptml);
        let stats = collect(&mut s, &[]);
        assert_eq!(stats.freed, 0, "PTML literal must keep its target alive");
        assert!(s.get(data).is_ok());
    }

    #[test]
    fn indexes_keep_their_relation() {
        let mut s = Store::new();
        let rel = s.alloc(Object::Relation(Relation::new(vec!["id".into()])));
        let ix = s.alloc(Object::Index(crate::object::IndexObj {
            relation: rel,
            column: 0,
            entries: Default::default(),
        }));
        s.set_root("ix", ix);
        collect(&mut s, &[]);
        assert!(s.get(rel).is_ok());
    }

    #[test]
    fn oids_stay_stable_across_collection_and_snapshot() {
        let mut s = Store::new();
        let _dead = s.alloc(Object::Array(vec![]));
        let live = s.alloc(Object::Module(ModuleObj::default()));
        s.set_root("m", live);
        collect(&mut s, &[]);
        let bytes = crate::snapshot::to_bytes(&s);
        let loaded = crate::snapshot::from_bytes(&bytes).unwrap();
        assert_eq!(loaded.root("m"), Some(live));
        assert!(loaded.get(live).is_ok());
        assert!(loaded.get(Oid(1)).is_err(), "tombstone persists");
        assert_eq!(loaded.live(), 1);
        assert_eq!(loaded.len(), 2);
    }

    #[test]
    fn attrs_of_dead_objects_are_dropped() {
        let mut s = Store::new();
        let dead = s.alloc(Object::Array(vec![]));
        s.set_attr(dead, "cost", 3);
        collect(&mut s, &[]);
        assert_eq!(s.attr(dead, "cost"), None);
    }

    #[test]
    fn cycles_are_collected() {
        // Two arrays referencing each other, unreachable from roots.
        let mut s = Store::new();
        let a = s.alloc(Object::Array(vec![SVal::Unit]));
        let b = s.alloc(Object::Array(vec![SVal::Ref(a)]));
        s.array_set(a, 0, SVal::Ref(b)).unwrap();
        let stats = collect(&mut s, &[]);
        assert_eq!(stats.freed, 2);
    }
}
