//! The persistent reflective-optimization cache.
//!
//! Reflective optimization (`tml-reflect`, paper §4.1) is expensive: it
//! decodes PTML, rebuilds the term against the current R-value bindings,
//! re-runs the optimizer and regenerates code. Its *inputs*, however, are
//! entirely persistent: the PTML blob and the closure's binding record.
//! This module memoizes the result as a derived attribute of the store —
//! "costs, savings, …" generalized to the whole optimization product —
//! so that repeating an optimization against unchanged bindings skips the
//! rebuild and the optimizer. A product is its optimized PTML, its
//! captures and its size attributes; like every other piece of persistent
//! code it holds no bytecode: the closure `tml-reflect` makes from a hit
//! is linked from that PTML on its first call. The cache is serialized
//! into every checkpoint catalog ([`crate::paged`]) and therefore
//! survives a checkpoint/reopen cycle: a warm restart gets optimized code
//! without ever invoking the optimizer.
//!
//! ## Key derivation
//!
//! An entry is keyed by [`CacheKey`]:
//!
//! * `ptml_hash` — FNV-1a content hash of the source PTML blob;
//! * `binding_sig` — a signature of the closure's R-value bindings
//!   (identifier → value, with [`SVal::Ref`] hashed by OID), folded with a
//!   fingerprint of the optimization options in effect.
//!
//! ## Invalidation
//!
//! The key alone cannot witness *content* changes behind a binding (the
//! OID stays the same when the target object is mutated in place). Every
//! entry therefore records the store [version](crate::Store::version) of
//! each object consulted while the optimization ran (`observed`). A lookup
//! revalidates: if any observed object has since been mutated or
//! collected, the entry is dropped and counted as an invalidation.
//!
//! ## Replacement
//!
//! Entries carry a logical LRU tick updated on hit; when the cache is at
//! capacity an insert evicts the least-recently-used entry.

use crate::sval::SVal;
use std::collections::BTreeMap;
use tml_core::Oid;

/// Identity of one reflective-optimization product.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CacheKey {
    /// FNV-1a hash of the source PTML bytes.
    pub ptml_hash: u64,
    /// Signature of the R-value bindings and optimization options.
    pub binding_sig: u64,
}

/// One memoized optimization product.
#[derive(Debug, Clone, PartialEq)]
pub struct CacheEntry {
    /// Store versions of every object consulted by the optimization, in
    /// ascending OID order. A mismatch at lookup time invalidates the
    /// entry.
    pub observed: Vec<(Oid, u64)>,
    /// The optimized PTML encoding.
    pub ptml: Vec<u8>,
    /// Residual captures of the optimized procedure: name plus the binding
    /// value observed in the source closure.
    pub captures: Vec<(String, Option<SVal>)>,
    /// Tree size before optimization (derived attribute).
    pub size_before: u64,
    /// Tree size after optimization (derived attribute).
    pub size_after: u64,
    /// Call sites inlined (derived attribute).
    pub inlined: u64,
    /// LRU clock value of the last hit or insert.
    pub(crate) tick: u64,
}

impl CacheEntry {
    /// Create an entry. The LRU tick is assigned on insert.
    pub fn new(
        observed: Vec<(Oid, u64)>,
        ptml: Vec<u8>,
        captures: Vec<(String, Option<SVal>)>,
    ) -> CacheEntry {
        CacheEntry {
            observed,
            ptml,
            captures,
            size_before: 0,
            size_after: 0,
            inlined: 0,
            tick: 0,
        }
    }

    /// Attach the derived size/inlining attributes (paper §4.1: "costs,
    /// savings, …").
    pub fn with_attrs(mut self, size_before: u64, size_after: u64, inlined: u64) -> CacheEntry {
        self.size_before = size_before;
        self.size_after = size_after;
        self.inlined = inlined;
        self
    }
}

/// Hit/miss counters, reported by `tmlc info` and the E11 benchmark.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that found no usable entry (including invalidations).
    pub misses: u64,
    /// Entries dropped because an observed object changed or died.
    pub invalidations: u64,
    /// Entries evicted by the LRU policy.
    pub evictions: u64,
    /// Entries inserted.
    pub inserts: u64,
}

/// The reflective-optimization cache. Owned by [`crate::Store`]; persisted
/// in checkpoint catalogs.
#[derive(Debug, Clone, PartialEq)]
pub struct OptCache {
    pub(crate) entries: BTreeMap<CacheKey, CacheEntry>,
    pub(crate) cap: usize,
    pub(crate) tick: u64,
    pub(crate) stats: CacheStats,
}

/// Default maximum number of cached optimization products.
pub const DEFAULT_CACHE_CAP: usize = 64;

impl Default for OptCache {
    fn default() -> Self {
        OptCache {
            entries: BTreeMap::new(),
            cap: DEFAULT_CACHE_CAP,
            tick: 0,
            stats: CacheStats::default(),
        }
    }
}

impl OptCache {
    /// Number of cached entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The LRU capacity.
    pub fn cap(&self) -> usize {
        self.cap
    }

    /// Change the LRU capacity, evicting down to the new bound.
    pub fn set_cap(&mut self, cap: usize) {
        self.cap = cap.max(1);
        while self.entries.len() > self.cap {
            self.evict_lru();
        }
    }

    /// The counters.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Drop all entries (counters are kept).
    pub fn clear(&mut self) {
        self.entries.clear();
    }

    /// Iterate over `(key, entry)` pairs in key order.
    pub fn iter(&self) -> impl Iterator<Item = (&CacheKey, &CacheEntry)> {
        self.entries.iter()
    }

    /// Approximate bytes held by cached PTML payloads.
    pub fn byte_size(&self) -> usize {
        self.entries.values().map(|e| e.ptml.len()).sum()
    }

    pub(crate) fn evict_lru(&mut self) {
        if let Some(key) = self
            .entries
            .iter()
            .min_by_key(|(_, e)| e.tick)
            .map(|(k, _)| *k)
        {
            self.entries.remove(&key);
            self.stats.evictions += 1;
        }
    }
}

/// Incremental FNV-1a hasher used for cache keys. Not collision-resistant
/// against adversaries — the cache is an optimization, validated by the
/// observed-version check — but stable across platforms and runs.
#[derive(Debug, Clone, Copy)]
pub struct SigHasher(u64);

impl Default for SigHasher {
    fn default() -> Self {
        SigHasher::new()
    }
}

impl SigHasher {
    /// Start a hash.
    pub fn new() -> SigHasher {
        SigHasher(0xcbf2_9ce4_8422_2325)
    }

    /// Fold in raw bytes.
    pub fn write(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self
    }

    /// Fold in a 64-bit word.
    pub fn write_u64(&mut self, x: u64) -> &mut Self {
        self.write(&x.to_le_bytes())
    }

    /// The hash value.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// FNV-1a content hash of a byte blob (PTML).
pub fn hash_bytes(bytes: &[u8]) -> u64 {
    let mut h = SigHasher::new();
    h.write(bytes);
    h.finish()
}

fn write_sval(h: &mut SigHasher, v: &SVal) {
    match v {
        SVal::Unit => {
            h.write(&[0]);
        }
        SVal::Bool(b) => {
            h.write(&[1, u8::from(*b)]);
        }
        SVal::Int(n) => {
            h.write(&[2]).write_u64(*n as u64);
        }
        SVal::Real(x) => {
            h.write(&[3]).write_u64(x.to_bits());
        }
        SVal::Char(c) => {
            h.write(&[4, *c]);
        }
        SVal::Str(s) => {
            h.write(&[5]).write_u64(s.len() as u64).write(s.as_bytes());
        }
        SVal::Ref(o) => {
            h.write(&[6]).write_u64(o.0);
        }
    }
}

/// Signature of a closure's R-value binding record: identifier → value
/// pairs, with references hashed by OID. Content versions of the referenced
/// objects are *not* part of the signature — they are validated separately
/// through [`CacheEntry::observed`].
pub fn binding_signature(bindings: &[(String, SVal)]) -> u64 {
    let mut h = SigHasher::new();
    h.write_u64(bindings.len() as u64);
    for (name, val) in bindings {
        h.write_u64(name.len() as u64).write(name.as_bytes());
        write_sval(&mut h, val);
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::object::Object;
    use crate::store::Store;

    fn entry(deps: Vec<(Oid, u64)>) -> CacheEntry {
        CacheEntry {
            observed: deps,
            ptml: vec![1, 2, 3],
            captures: vec![("sqrt".into(), Some(SVal::Ref(Oid(9))))],
            size_before: 10,
            size_after: 4,
            inlined: 2,
            tick: 0,
        }
    }

    #[test]
    fn hash_is_content_sensitive() {
        assert_ne!(hash_bytes(b"abc"), hash_bytes(b"abd"));
        assert_eq!(hash_bytes(b""), hash_bytes(b""));
    }

    #[test]
    fn binding_signature_distinguishes_names_values_and_order() {
        let a = vec![("x".to_string(), SVal::Int(1))];
        let b = vec![("y".to_string(), SVal::Int(1))];
        let c = vec![("x".to_string(), SVal::Int(2))];
        let d = vec![
            ("x".to_string(), SVal::Int(1)),
            ("y".to_string(), SVal::Int(1)),
        ];
        assert_ne!(binding_signature(&a), binding_signature(&b));
        assert_ne!(binding_signature(&a), binding_signature(&c));
        assert_ne!(binding_signature(&a), binding_signature(&d));
        assert_eq!(binding_signature(&a), binding_signature(&a.clone()));
    }

    #[test]
    fn signature_covers_ref_oids() {
        let a = vec![("m".to_string(), SVal::Ref(Oid(3)))];
        let b = vec![("m".to_string(), SVal::Ref(Oid(4)))];
        assert_ne!(binding_signature(&a), binding_signature(&b));
    }

    #[test]
    fn lookup_hit_and_miss() {
        let mut s = Store::new();
        let o = s.alloc(Object::Array(vec![SVal::Int(1)]));
        let key = CacheKey {
            ptml_hash: 1,
            binding_sig: 2,
        };
        assert!(s.cache_lookup(key).is_none());
        s.cache_insert(key, entry(vec![(o, s.version(o))]));
        let hit = s.cache_lookup(key).expect("hit");
        assert_eq!(hit.ptml, vec![1, 2, 3]);
        let st = s.cache_stats();
        assert_eq!((st.hits, st.misses, st.inserts), (1, 1, 1));
    }

    #[test]
    fn mutation_invalidates() {
        let mut s = Store::new();
        let o = s.alloc(Object::Array(vec![SVal::Int(1)]));
        let key = CacheKey {
            ptml_hash: 7,
            binding_sig: 8,
        };
        s.cache_insert(key, entry(vec![(o, s.version(o))]));
        s.array_set(o, 0, SVal::Int(9)).unwrap();
        assert!(s.cache_lookup(key).is_none(), "stale entry must not hit");
        let st = s.cache_stats();
        assert_eq!(st.invalidations, 1);
        assert_eq!(s.cache().len(), 0, "stale entry removed");
    }

    #[test]
    fn collected_object_invalidates() {
        let mut s = Store::new();
        let o = s.alloc(Object::Array(vec![]));
        let key = CacheKey {
            ptml_hash: 1,
            binding_sig: 1,
        };
        s.cache_insert(key, entry(vec![(o, s.version(o))]));
        crate::gc::collect(&mut s, &[]);
        assert!(s.cache_lookup(key).is_none());
    }

    #[test]
    fn lru_eviction() {
        let mut s = Store::new();
        s.cache_mut().set_cap(2);
        let k = |i: u64| CacheKey {
            ptml_hash: i,
            binding_sig: 0,
        };
        s.cache_insert(k(1), entry(vec![]));
        s.cache_insert(k(2), entry(vec![]));
        // Touch entry 1 so entry 2 is the LRU victim.
        assert!(s.cache_lookup(k(1)).is_some());
        s.cache_insert(k(3), entry(vec![]));
        assert!(s.cache_lookup(k(1)).is_some());
        assert!(s.cache_lookup(k(2)).is_none(), "LRU victim evicted");
        assert!(s.cache_lookup(k(3)).is_some());
        assert_eq!(s.cache_stats().evictions, 1);
    }

    #[test]
    fn set_cap_evicts_down() {
        let mut c = OptCache::default();
        for i in 0..10 {
            c.entries.insert(
                CacheKey {
                    ptml_hash: i,
                    binding_sig: 0,
                },
                entry(vec![]),
            );
        }
        c.set_cap(3);
        assert_eq!(c.len(), 3);
        assert_eq!(c.stats().evictions, 7);
    }
}
