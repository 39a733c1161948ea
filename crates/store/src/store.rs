//! The OID-addressed object heap with named roots and the derived-attribute
//! cache.

use crate::attr::AttrTable;
use crate::cache::{CacheEntry, CacheKey, CacheStats, OptCache};
use crate::object::Object;
use crate::sval::SVal;
use std::collections::BTreeMap;
use tml_core::Oid;

/// Record an optimization-cache operation on the global trace recorder:
/// one `store.cache.<op>` counter bump plus a [`tml_trace::Event::CacheOp`]
/// ring event keyed by the entry's PTML hash. No-op while tracing is off.
fn trace_cache_op(op: &'static str, key_hash: u64) {
    if !tml_trace::enabled() {
        return;
    }
    tml_trace::count(&format!("store.cache.{op}"), 1);
    tml_trace::record(tml_trace::Event::CacheOp {
        cache: "opt-cache",
        op,
        key_hash,
    });
}

/// Errors from store operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// The OID does not denote a live object.
    Dangling(Oid),
    /// The object has a different kind than expected.
    WrongKind {
        /// The offending OID.
        oid: Oid,
        /// What the caller expected.
        expected: &'static str,
        /// What the store found.
        found: &'static str,
    },
    /// Attempt to mutate an immutable object (e.g. a `vector`).
    Immutable(Oid),
    /// Index out of bounds.
    Bounds {
        /// The offending OID.
        oid: Oid,
        /// The requested index.
        index: i64,
        /// The object's length.
        len: usize,
    },
    /// A durability-layer IO failure (WAL append, page flush, checkpoint)
    /// surfaced through the [`crate::access::StoreAccess`] seam. Carried as
    /// a message so `StoreError` stays `Clone + Eq`.
    Io(String),
    /// A lock conflict: another transaction holds the lock covering this
    /// mutation. Not a store-state error — the transaction layer catches
    /// it, waits for the lock outside the VM, and retries the request.
    Busy {
        /// The lock-table key that conflicted (an OID or a hashed root
        /// name, see the txn crate's lock keys).
        key: u64,
        /// One current holder of the lock.
        holder: u64,
        /// Whether exclusive access was requested.
        exclusive: bool,
    },
    /// The surrounding transaction was aborted — deadlock victim, lock
    /// timeout, or an injected fault — and must roll back. Surfaces
    /// through the VM as a typed abort trap that TML handlers cannot
    /// catch.
    Aborted {
        /// The aborted transaction's id.
        txn: u64,
        /// Short machine-readable reason: `deadlock`, `timeout`, …
        reason: &'static str,
    },
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Dangling(o) => write!(f, "dangling reference {o}"),
            StoreError::WrongKind {
                oid,
                expected,
                found,
            } => write!(f, "{oid} is a {found}, expected a {expected}"),
            StoreError::Immutable(o) => write!(f, "{o} is immutable"),
            StoreError::Bounds { oid, index, len } => {
                write!(f, "index {index} out of bounds for {oid} of length {len}")
            }
            StoreError::Io(msg) => write!(f, "store io failure: {msg}"),
            StoreError::Busy {
                key,
                holder,
                exclusive,
            } => write!(
                f,
                "lock conflict on key {key:#x} ({} requested, held by txn {holder})",
                if *exclusive { "exclusive" } else { "shared" }
            ),
            StoreError::Aborted { txn, reason } => {
                write!(f, "transaction {txn} aborted: {reason}")
            }
        }
    }
}

impl std::error::Error for StoreError {}

/// Aggregate store statistics (experiment E3 reads these).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Live objects.
    pub objects: usize,
    /// Total approximate bytes of all live objects.
    pub bytes: usize,
    /// Bytes held by PTML attachments alone.
    pub ptml_bytes: usize,
    /// Live closures.
    pub closures: usize,
}

/// The persistent object store.
///
/// Objects live in stable slots: an OID, once allocated, never moves and
/// is never reused — the garbage collector ([`crate::gc`]) tombstones
/// unreachable slots instead of compacting, so references held outside
/// the store (session globals, decoded TML terms) stay valid.
#[derive(Debug, Clone, Default)]
pub struct Store {
    /// Slots indexed by OID − 1; `None` is a tombstone. OIDs are never
    /// reused, so a session that frees objects at a steady rate (a query
    /// result per request) keeps every slot it ever allocated: boxing
    /// makes a tombstone cost a pointer instead of an object's width.
    objects: Vec<Option<Box<Object>>>,
    roots: BTreeMap<String, Oid>,
    attrs: AttrTable,
    /// Per-slot content version, parallel to `objects`. Bumped on every
    /// mutable access and on collection, so derived state (the
    /// optimization cache) can detect that an object changed behind a
    /// stable OID.
    versions: Vec<u64>,
    /// The persistent reflective-optimization cache.
    cache: OptCache,
}

impl Store {
    /// Create an empty store.
    pub fn new() -> Store {
        Store::default()
    }

    /// Allocate an object; returns its OID. OIDs start at 1 (0 is the
    /// reserved null OID).
    pub fn alloc(&mut self, obj: Object) -> Oid {
        self.objects.push(Some(Box::new(obj)));
        self.versions.push(0);
        Oid(self.objects.len() as u64)
    }

    /// Number of object slots ever allocated (including tombstones).
    pub fn len(&self) -> usize {
        self.objects.len()
    }

    /// Number of live (non-collected) objects.
    pub fn live(&self) -> usize {
        self.objects.iter().filter(|o| o.is_some()).count()
    }

    /// `true` if the store holds no objects.
    pub fn is_empty(&self) -> bool {
        self.objects.is_empty()
    }

    /// Fetch an object.
    pub fn get(&self, oid: Oid) -> Result<&Object, StoreError> {
        if oid.is_null() {
            return Err(StoreError::Dangling(oid));
        }
        self.objects
            .get(oid.0 as usize - 1)
            .and_then(Option::as_deref)
            .ok_or(StoreError::Dangling(oid))
    }

    /// Fetch an object mutably. Conservatively bumps the object's content
    /// version: every mutation path goes through here, so a version
    /// mismatch is a sound (if over-approximate) staleness witness for
    /// derived state.
    pub fn get_mut(&mut self, oid: Oid) -> Result<&mut Object, StoreError> {
        if oid.is_null() {
            return Err(StoreError::Dangling(oid));
        }
        let ix = oid.0 as usize - 1;
        let slot = self
            .objects
            .get_mut(ix)
            .and_then(Option::as_deref_mut)
            .ok_or(StoreError::Dangling(oid))?;
        self.versions[ix] += 1;
        Ok(slot)
    }

    /// The content version of an object's slot: 0 at allocation, bumped on
    /// every mutable access and on collection. Returns 0 for OIDs the
    /// store never allocated.
    pub fn version(&self, oid: Oid) -> u64 {
        if oid.is_null() {
            return 0;
        }
        self.versions.get(oid.0 as usize - 1).copied().unwrap_or(0)
    }

    /// `Some(version)` when the OID denotes a live object, `None` when it
    /// is null, dangling or tombstoned.
    pub fn live_version(&self, oid: Oid) -> Option<u64> {
        if oid.is_null() {
            return None;
        }
        let ix = oid.0 as usize - 1;
        match self.objects.get(ix) {
            Some(Some(_)) => Some(self.versions[ix]),
            _ => None,
        }
    }

    /// Tombstone a slot (garbage collection). The OID is never reused;
    /// subsequent access reports a dangling reference. Attributes of the
    /// object are dropped.
    pub(crate) fn free(&mut self, oid: Oid) {
        if !oid.is_null() {
            let ix = oid.0 as usize - 1;
            if let Some(slot) = self.objects.get_mut(ix) {
                *slot = None;
                // Collection is a content change: cached results derived
                // from this object must stop matching.
                self.versions[ix] += 1;
            }
        }
        self.attrs.remove_oid(oid);
    }

    /// Internal: room for `n` more slots (image decoding, from a slot
    /// count the caller has bounded).
    pub(crate) fn reserve_slots(&mut self, n: usize) {
        self.objects.reserve(n);
        self.versions.reserve(n);
    }

    /// Internal: restore a possibly-dead slot (snapshot decoding).
    pub(crate) fn push_slot(&mut self, obj: Option<Object>) {
        self.objects.push(obj.map(Box::new));
        self.versions.push(0);
    }

    /// Internal: raw slot access including tombstones (snapshot encoding).
    pub(crate) fn slots(&self) -> impl Iterator<Item = Option<&Object>> {
        self.objects.iter().map(Option::as_deref)
    }

    /// Replace an object wholesale.
    pub fn set(&mut self, oid: Oid, obj: Object) -> Result<(), StoreError> {
        *self.get_mut(oid)? = obj;
        Ok(())
    }

    /// Fetch, insisting on a particular kind.
    pub fn expect<'a, T>(
        &'a self,
        oid: Oid,
        expected: &'static str,
        project: impl FnOnce(&'a Object) -> Option<T>,
    ) -> Result<T, StoreError> {
        let obj = self.get(oid)?;
        let found = obj.kind();
        project(obj).ok_or(StoreError::WrongKind {
            oid,
            expected,
            found,
        })
    }

    /// Iterate over all live `(oid, object)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (Oid, &Object)> {
        self.objects
            .iter()
            .enumerate()
            .filter_map(|(i, o)| o.as_deref().map(|o| (Oid(i as u64 + 1), o)))
    }

    // -- Named roots --------------------------------------------------------

    /// Bind a persistent root name to an OID (database names, module names).
    pub fn set_root(&mut self, name: impl Into<String>, oid: Oid) {
        self.roots.insert(name.into(), oid);
    }

    /// Look up a persistent root.
    pub fn root(&self, name: &str) -> Option<Oid> {
        self.roots.get(name).copied()
    }

    /// Unbind a persistent root. Returns the OID it pointed at, if any.
    pub fn remove_root(&mut self, name: &str) -> Option<Oid> {
        self.roots.remove(name)
    }

    /// Internal: restore the root table (image decoding).
    pub(crate) fn set_root_table(&mut self, roots: BTreeMap<String, Oid>) {
        self.roots = roots;
    }

    /// All roots, sorted by name.
    pub fn roots(&self) -> impl ExactSizeIterator<Item = (&str, Oid)> {
        self.roots.iter().map(|(n, o)| (n.as_str(), *o))
    }

    // -- Derived attributes --------------------------------------------------

    /// Attach a derived attribute (cost, savings, …) to a code object.
    pub fn set_attr(&mut self, oid: Oid, key: &str, value: i64) {
        self.attrs.set(oid, key, value);
    }

    /// Read a derived attribute.
    pub fn attr(&self, oid: Oid, key: &str) -> Option<i64> {
        self.attrs.get(oid, key)
    }

    /// Remove a derived attribute, returning the previous value. Empty
    /// per-object tables are dropped so the attr table keeps the same
    /// canonical shape `set_attr` produces (snapshot byte-determinism).
    pub fn remove_attr(&mut self, oid: Oid, key: &str) -> Option<i64> {
        self.attrs.remove(oid, key)
    }

    /// All attributes of an object, in key order.
    pub fn attrs_of(&self, oid: Oid) -> impl Iterator<Item = (&str, i64)> {
        self.attrs.of(oid)
    }

    /// Internal: the whole attribute table (image encoding).
    pub(crate) fn attr_table(&self) -> &AttrTable {
        &self.attrs
    }

    /// Internal: restore the attribute table (image decoding).
    pub(crate) fn set_attr_table(&mut self, attrs: AttrTable) {
        self.attrs = attrs;
    }

    /// Internal: the version vector (snapshot encoding).
    pub(crate) fn versions(&self) -> &[u64] {
        &self.versions
    }

    /// Internal: restore the version vector (snapshot decoding); padded or
    /// truncated to the slot count so legacy images load cleanly.
    pub(crate) fn set_versions(&mut self, mut versions: Vec<u64>) {
        versions.resize(self.objects.len(), 0);
        self.versions = versions;
    }

    // -- Reflective-optimization cache ---------------------------------------

    /// Read access to the optimization cache.
    pub fn cache(&self) -> &OptCache {
        &self.cache
    }

    /// Mutable access to the optimization cache (capacity, clearing,
    /// snapshot restore).
    pub fn cache_mut(&mut self) -> &mut OptCache {
        &mut self.cache
    }

    /// The cache's hit/miss counters.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats
    }

    /// Look up a cached optimization product, revalidating it against the
    /// current object versions. A stale entry (any observed object mutated
    /// or collected since the entry was produced) is dropped and counted
    /// as an invalidation; the lookup then reports a miss.
    pub fn cache_lookup(&mut self, key: CacheKey) -> Option<CacheEntry> {
        let valid = match self.cache.entries.get(&key) {
            None => {
                self.cache.stats.misses += 1;
                trace_cache_op("miss", key.ptml_hash);
                return None;
            }
            Some(e) => e
                .observed
                .iter()
                .all(|(oid, ver)| self.live_version(*oid) == Some(*ver)),
        };
        if !valid {
            self.cache.entries.remove(&key);
            self.cache.stats.invalidations += 1;
            self.cache.stats.misses += 1;
            trace_cache_op("invalidation", key.ptml_hash);
            trace_cache_op("miss", key.ptml_hash);
            return None;
        }
        self.cache.tick += 1;
        self.cache.stats.hits += 1;
        trace_cache_op("hit", key.ptml_hash);
        let entry = self.cache.entries.get_mut(&key).expect("checked above");
        entry.tick = self.cache.tick;
        Some(entry.clone())
    }

    /// Insert (or replace) a cached optimization product, evicting the
    /// least-recently-used entry when at capacity.
    pub fn cache_insert(&mut self, key: CacheKey, mut entry: CacheEntry) {
        if !self.cache.entries.contains_key(&key) {
            while self.cache.entries.len() >= self.cache.cap {
                self.cache.evict_lru();
                trace_cache_op("eviction", key.ptml_hash);
            }
        }
        self.cache.tick += 1;
        entry.tick = self.cache.tick;
        self.cache.stats.inserts += 1;
        trace_cache_op("insert", key.ptml_hash);
        self.cache.entries.insert(key, entry);
    }

    /// Drop every cache entry that observed an object which is no longer
    /// live at its recorded version. Called by the garbage collector after
    /// a sweep; returns the number of entries dropped (each counted as an
    /// invalidation).
    pub fn cache_sweep(&mut self) -> usize {
        let stale: Vec<CacheKey> = self
            .cache
            .entries
            .iter()
            .filter(|(_, e)| {
                e.observed
                    .iter()
                    .any(|(oid, ver)| self.live_version(*oid) != Some(*ver))
            })
            .map(|(k, _)| *k)
            .collect();
        for key in &stale {
            self.cache.entries.remove(key);
            self.cache.stats.invalidations += 1;
            trace_cache_op("invalidation", key.ptml_hash);
        }
        stale.len()
    }

    /// Publish footprint and cache totals to the global trace registry as
    /// gauges (`store.*`). Works regardless of the recorder's enabled
    /// flag, so `tmlc info` can use the registry as its single report
    /// path.
    pub fn publish_counters(&self) {
        let g = tml_trace::global();
        let st = self.stats();
        g.counter("store.objects").set(st.objects as u64);
        g.counter("store.slots").set(self.len() as u64);
        g.counter("store.bytes").set(st.bytes as u64);
        g.counter("store.ptml_bytes").set(st.ptml_bytes as u64);
        g.counter("store.closures").set(st.closures as u64);
        g.counter("store.cache.entries")
            .set(self.cache.len() as u64);
        g.counter("store.cache.cap").set(self.cache.cap() as u64);
        g.counter("store.cache.bytes")
            .set(self.cache.byte_size() as u64);
        let cs = self.cache.stats;
        g.counter("store.cache.hits").set(cs.hits);
        g.counter("store.cache.misses").set(cs.misses);
        g.counter("store.cache.invalidations").set(cs.invalidations);
        g.counter("store.cache.evictions").set(cs.evictions);
        g.counter("store.cache.inserts").set(cs.inserts);
    }

    // -- Statistics ----------------------------------------------------------

    /// Aggregate statistics over all live objects.
    pub fn stats(&self) -> StoreStats {
        let mut s = StoreStats {
            objects: self.live(),
            ..Default::default()
        };
        for (_, obj) in self.iter() {
            s.bytes += obj.byte_size();
            match obj {
                Object::Ptml(b) => s.ptml_bytes += b.len(),
                Object::Closure(_) => s.closures += 1,
                _ => {}
            }
        }
        s
    }

    // -- Array helpers (primitive semantics shared by VM and tests) ----------

    /// Array element access (`[]` primitive).
    pub fn array_get(&self, oid: Oid, index: i64) -> Result<SVal, StoreError> {
        let slots = match self.get(oid)? {
            Object::Array(v) | Object::Vector(v) | Object::Tuple(v) => v,
            other => {
                return Err(StoreError::WrongKind {
                    oid,
                    expected: "array",
                    found: other.kind(),
                })
            }
        };
        usize::try_from(index)
            .ok()
            .and_then(|i| slots.get(i))
            .cloned()
            .ok_or(StoreError::Bounds {
                oid,
                index,
                len: slots.len(),
            })
    }

    /// Array element update (`[:=]` primitive).
    pub fn array_set(&mut self, oid: Oid, index: i64, value: SVal) -> Result<(), StoreError> {
        let obj = self.get_mut(oid)?;
        let slots = match obj {
            Object::Array(v) | Object::Tuple(v) => v,
            Object::Vector(_) => return Err(StoreError::Immutable(oid)),
            other => {
                return Err(StoreError::WrongKind {
                    oid,
                    expected: "array",
                    found: other.kind(),
                })
            }
        };
        let len = slots.len();
        match usize::try_from(index).ok().and_then(|i| slots.get_mut(i)) {
            Some(slot) => {
                *slot = value;
                Ok(())
            }
            None => Err(StoreError::Bounds { oid, index, len }),
        }
    }

    /// Length of an array / vector / byte array / tuple (`size` primitive).
    pub fn size_of(&self, oid: Oid) -> Result<usize, StoreError> {
        match self.get(oid)? {
            Object::Array(v) | Object::Vector(v) | Object::Tuple(v) => Ok(v.len()),
            Object::ByteArray(b) => Ok(b.len()),
            Object::Relation(r) => Ok(r.len()),
            other => Err(StoreError::WrongKind {
                oid,
                expected: "sized object",
                found: other.kind(),
            }),
        }
    }

    /// Byte array access (`b[]` primitive).
    pub fn bytes_get(&self, oid: Oid, index: i64) -> Result<u8, StoreError> {
        let bytes = self.expect(oid, "bytearray", |o| match o {
            Object::ByteArray(b) => Some(b),
            _ => None,
        })?;
        usize::try_from(index)
            .ok()
            .and_then(|i| bytes.get(i))
            .copied()
            .ok_or(StoreError::Bounds {
                oid,
                index,
                len: bytes.len(),
            })
    }

    /// Byte array update (`b[:=]` primitive).
    pub fn bytes_set(&mut self, oid: Oid, index: i64, value: u8) -> Result<(), StoreError> {
        let obj = self.get_mut(oid)?;
        let Object::ByteArray(bytes) = obj else {
            return Err(StoreError::WrongKind {
                oid,
                expected: "bytearray",
                found: obj.kind(),
            });
        };
        let len = bytes.len();
        match usize::try_from(index).ok().and_then(|i| bytes.get_mut(i)) {
            Some(slot) => {
                *slot = value;
                Ok(())
            }
            None => Err(StoreError::Bounds { oid, index, len }),
        }
    }
}

/// The store's index structures as optimizer input: runtime query rules
/// (index-select) consult them through this read-only lookup.
impl tml_core::prim::IndexFacts for Store {
    fn index_on(&self, rel: Oid, col: usize) -> Option<Oid> {
        self.iter().find_map(|(oid, obj)| match obj {
            Object::Index(ix) if ix.relation == rel && ix.column == col => Some(oid),
            _ => None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_returns_distinct_nonnull_oids() {
        let mut s = Store::new();
        let a = s.alloc(Object::Array(vec![]));
        let b = s.alloc(Object::Array(vec![]));
        assert_ne!(a, b);
        assert!(!a.is_null());
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn get_dangling_and_null() {
        let s = Store::new();
        assert!(matches!(s.get(Oid(5)), Err(StoreError::Dangling(_))));
        assert!(matches!(s.get(Oid::NULL), Err(StoreError::Dangling(_))));
    }

    #[test]
    fn array_get_set_bounds() {
        let mut s = Store::new();
        let a = s.alloc(Object::Array(vec![SVal::Int(1), SVal::Int(2)]));
        assert_eq!(s.array_get(a, 1).unwrap(), SVal::Int(2));
        s.array_set(a, 0, SVal::Int(9)).unwrap();
        assert_eq!(s.array_get(a, 0).unwrap(), SVal::Int(9));
        assert!(matches!(s.array_get(a, 2), Err(StoreError::Bounds { .. })));
        assert!(matches!(s.array_get(a, -1), Err(StoreError::Bounds { .. })));
    }

    #[test]
    fn vectors_are_immutable() {
        let mut s = Store::new();
        let v = s.alloc(Object::Vector(vec![SVal::Int(1)]));
        assert_eq!(s.array_get(v, 0).unwrap(), SVal::Int(1));
        assert!(matches!(
            s.array_set(v, 0, SVal::Int(2)),
            Err(StoreError::Immutable(_))
        ));
    }

    #[test]
    fn byte_arrays() {
        let mut s = Store::new();
        let b = s.alloc(Object::ByteArray(vec![0; 4]));
        s.bytes_set(b, 2, 0xab).unwrap();
        assert_eq!(s.bytes_get(b, 2).unwrap(), 0xab);
        assert_eq!(s.size_of(b).unwrap(), 4);
        assert!(matches!(s.bytes_get(b, 9), Err(StoreError::Bounds { .. })));
    }

    #[test]
    fn wrong_kind_reported() {
        let mut s = Store::new();
        let b = s.alloc(Object::ByteArray(vec![]));
        let err = s.array_get(b, 0).unwrap_err();
        assert!(matches!(
            err,
            StoreError::WrongKind {
                expected: "array",
                ..
            }
        ));
    }

    #[test]
    fn roots() {
        let mut s = Store::new();
        let m = s.alloc(Object::Module(crate::ModuleObj::default()));
        s.set_root("complex", m);
        assert_eq!(s.root("complex"), Some(m));
        assert_eq!(s.root("missing"), None);
        assert_eq!(s.roots().count(), 1);
    }

    #[test]
    fn derived_attributes() {
        let mut s = Store::new();
        let c = s.alloc(Object::Ptml(vec![1, 2, 3]));
        s.set_attr(c, "cost", 42);
        s.set_attr(c, "savings", 7);
        assert_eq!(s.attr(c, "cost"), Some(42));
        assert_eq!(s.attr(c, "nope"), None);
        assert_eq!(s.attrs_of(c).count(), 2);
    }

    #[test]
    fn stats_track_ptml_and_closures() {
        let mut s = Store::new();
        s.alloc(Object::Ptml(vec![0; 50]));
        s.alloc(Object::Closure(crate::ClosureObj {
            bindings: vec![],
            ptml: None,
        }));
        let st = s.stats();
        assert_eq!(st.objects, 2);
        assert_eq!(st.ptml_bytes, 50);
        assert_eq!(st.closures, 1);
        assert!(st.bytes > 50);
    }

    #[test]
    fn versions_track_mutation_and_collection() {
        let mut s = Store::new();
        let a = s.alloc(Object::Array(vec![SVal::Int(1)]));
        let b = s.alloc(Object::Array(vec![SVal::Int(2)]));
        assert_eq!(s.version(a), 0);
        s.array_set(a, 0, SVal::Int(5)).unwrap();
        assert_eq!(s.version(a), 1);
        assert_eq!(s.version(b), 0, "mutating a must not touch b");
        s.get_mut(a).unwrap();
        assert_eq!(s.version(a), 2);
        assert_eq!(s.live_version(a), Some(2));
        s.free(a);
        assert!(s.version(a) > 2, "collection bumps the version");
        assert_eq!(s.live_version(a), None);
        assert_eq!(s.version(Oid::NULL), 0);
        assert_eq!(s.version(Oid(999)), 0);
    }

    #[test]
    fn error_display() {
        let e = StoreError::Bounds {
            oid: Oid(3),
            index: 9,
            len: 2,
        };
        assert!(e.to_string().contains("out of bounds"));
    }
}
