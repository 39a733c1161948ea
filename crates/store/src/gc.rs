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
//! Unreachable slots die and their OIDs are never handed out again, so an
//! OID held outside the store stays valid: it denotes its object while the
//! object is reachable, and reads as dangling after. A chunk of the slot
//! table whose objects are all dead is dropped (see [`Store`]).
//!
//! The mark phase sets bits in per-chunk bitmaps, allocated only for the
//! chunks that hold a marked object, and the sweep visits only resident
//! chunks, so a collection's memory and time follow the live set, not the
//! number of OIDs the store ever allocated.

use crate::object::Object;
use crate::ptml::scan_oids;
use crate::store::{locate, Store, CHUNK_SLOTS};
use crate::sval::SVal;
use tml_core::Oid;

/// Result of a collection.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GcStats {
    /// Live objects before the collection.
    pub before: usize,
    /// Live objects after the collection.
    pub after: usize,
    /// Objects freed.
    pub freed: usize,
    /// Approximate bytes reclaimed.
    pub bytes_freed: usize,
    /// Optimization-cache entries dropped because an object they observed
    /// was collected.
    pub cache_dropped: usize,
    /// Mark bitmaps allocated, one per chunk holding a marked object: the
    /// mark phase's memory, beyond one pointer per chunk index below the
    /// highest marked chunk.
    pub mark_chunks: usize,
}

/// One mark bit per slot of a chunk.
type Bitmap = [u64; CHUNK_SLOTS / 64];

/// Mark bits by chunk index, a bitmap only where something is marked.
#[derive(Default)]
struct Marks {
    chunks: Vec<Option<Box<Bitmap>>>,
    bitmaps: usize,
    marked: usize,
}

impl Marks {
    /// Set `oid`'s bit; `false` if it was already set.
    fn mark(&mut self, oid: Oid) -> bool {
        let (c, off) = locate(oid);
        if c >= self.chunks.len() {
            self.chunks.resize_with(c + 1, || None);
        }
        let bits = self.chunks[c].get_or_insert_with(|| {
            self.bitmaps += 1;
            Box::new([0; CHUNK_SLOTS / 64])
        });
        let (word, bit) = (off / 64, 1u64 << (off % 64));
        if bits[word] & bit != 0 {
            return false;
        }
        bits[word] |= bit;
        self.marked += 1;
        true
    }

    fn is_marked(&self, oid: Oid) -> bool {
        let (c, off) = locate(oid);
        self.chunks
            .get(c)
            .and_then(Option::as_deref)
            .is_some_and(|bits| bits[off / 64] & (1 << (off % 64)) != 0)
    }
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
    let mut marks = Marks::default();
    let mut pending: Vec<Oid> = store.roots().map(|(_, o)| o).collect();
    pending.extend_from_slice(extra_roots);

    let t_mark = std::time::Instant::now();
    while let Some(oid) = pending.pop() {
        // Only live objects are marked: a dangling reference has no slot.
        if let Ok(obj) = store.get(oid) {
            if marks.mark(oid) {
                mark_object(obj, &mut pending);
            }
        }
    }
    if tracing {
        let us = t_mark.elapsed().as_micros() as u64;
        tml_trace::global().record_ns("store.gc.mark", us.saturating_mul(1_000));
        tml_trace::record(tml_trace::Event::GcPhase {
            phase: "mark",
            micros: us,
            count: marks.marked as u64,
            bytes: 0,
        });
    }

    let t_sweep = std::time::Instant::now();
    let dead: Vec<(Oid, usize)> = store
        .iter()
        .filter(|(oid, _)| !marks.is_marked(*oid))
        .map(|(oid, obj)| (oid, obj.byte_size()))
        .collect();
    let freed = dead.len();
    let mut bytes_freed = 0;
    for (oid, bytes) in dead {
        bytes_freed += bytes;
        store.free(oid);
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
        mark_chunks: marks.bitmaps,
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
        assert!(loaded.get(Oid(1)).is_err(), "the dead slot persists");
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
