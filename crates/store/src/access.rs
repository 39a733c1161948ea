//! The store-access seam: one narrow trait covering the read/write
//! surface of [`Store`], implemented by both the plain in-memory store
//! and the write-ahead-logged [`crate::durable::DurableStore`].
//!
//! Everything above the store — the session, the VM's host hooks, the
//! reflective optimizer, the query externs — mutates object state through
//! [`StoreAccess`] instead of calling `Store` methods directly. With
//! `S = Store` the seam compiles down to the plain heap (tests, ephemeral
//! runs); with `S = DurableStore` every mutation is WAL-logged and
//! replays byte-identically after a crash. The trait is object safe, so
//! host callbacks that cannot be generic (`ExternFn`) receive a
//! `&mut dyn StoreAccess`.
//!
//! ## Error model
//!
//! Mutations return `Result<_, StoreError>`. The plain store can only
//! fail with the classic typed errors (dangling, wrong kind, bounds,
//! immutable); the durable store additionally surfaces IO failures as
//! [`StoreError::Io`] — typed errors are preserved exactly, so VM
//! semantics (bounds → TML exception, …) are identical on both backends.
//!
//! ## Transient state
//!
//! No method hands out a raw `&mut Store`. The one write that bypasses
//! the log is [`StoreAccess::set_transient_code`]: relinking restores a
//! closure's code-table index, which every image open re-derives from
//! PTML, so a durable backend only marks the record dirty for the next
//! checkpoint.
//!
//! ## Why the plain store keeps its own impl
//!
//! The in-memory backend is not a `DurableStore` over an in-memory page
//! file, because ephemeral sessions — every `stanford_run` program run
//! and every `query_scan` query — mutate arrays constantly, and a
//! `DurableStore` logs a full post-image of the array for each
//! `array_set` (`log_post_image`). An ephemeral session would pay a
//! record encode per element store for durability it never uses. The
//! `Store` impl below is that cost's absence: each method forwards to
//! the heap, and both backends share every default method.

use crate::cache::{CacheEntry, CacheKey};
use crate::gc::{self, GcStats};
use crate::object::Object;
use crate::store::{Store, StoreError, StoreStats};
use crate::sval::SVal;
use tml_core::Oid;

/// A transaction stamp for logged mutations: which transaction owns the
/// record and whether it is a compensating (rollback) record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TxnStamp {
    /// Owning transaction id.
    pub txn: u64,
    /// `true` for compensating records written by rollback.
    pub clr: bool,
}

/// The uniform read/write surface of an object store.
///
/// Read methods have default implementations that delegate to
/// [`StoreAccess::base`]; mutating methods are required, so a logged
/// backend cannot accidentally inherit an unlogged path.
pub trait StoreAccess {
    // -- Backing store ---------------------------------------------------

    /// Read view of the underlying in-memory store.
    fn base(&self) -> &Store;

    /// Point a closure at freshly compiled code: set its transient
    /// `code` index, environment and recorded bindings *without* bumping
    /// its content version (the PTML and binding values are unchanged, so
    /// cached optimization products observing it stay valid). Not logged:
    /// a durable backend marks the record dirty so the next checkpoint
    /// writes it, and a crash before then is healed by the relink every
    /// open performs.
    fn set_transient_code(
        &mut self,
        oid: Oid,
        code: u32,
        env: Vec<SVal>,
        bindings: Vec<(String, SVal)>,
    ) -> Result<(), StoreError>;

    // -- Mutations (logged on a durable backend) -------------------------

    /// Allocate an object; returns its OID.
    fn alloc(&mut self, obj: Object) -> Result<Oid, StoreError>;

    /// Replace an object wholesale.
    fn set(&mut self, oid: Oid, obj: Object) -> Result<(), StoreError>;

    /// Tombstone an object (the OID is never reused).
    fn free_obj(&mut self, oid: Oid) -> Result<(), StoreError>;

    /// Mutate an object in place. The closure runs on the live object
    /// (content version bumped once); a durable backend logs the full
    /// post-image, so replay advances the version identically.
    fn mutate(
        &mut self,
        oid: Oid,
        f: &mut dyn FnMut(&mut Object) -> Result<(), StoreError>,
    ) -> Result<(), StoreError>;

    /// Bind a persistent root name to an OID.
    fn set_root(&mut self, name: &str, oid: Oid) -> Result<(), StoreError>;

    /// Unbind a persistent root; returns the OID it pointed at.
    fn remove_root(&mut self, name: &str) -> Result<Option<Oid>, StoreError>;

    /// Attach a derived attribute to an object.
    fn set_attr(&mut self, oid: Oid, key: &str, value: i64) -> Result<(), StoreError>;

    /// Remove a derived attribute; returns the previous value. The
    /// transaction layer uses it to roll back a `set_attr` that created
    /// the key.
    fn remove_attr(&mut self, oid: Oid, key: &str) -> Result<Option<i64>, StoreError>;

    /// Array element update (`[:=]` primitive).
    fn array_set(&mut self, oid: Oid, index: i64, value: SVal) -> Result<(), StoreError>;

    /// Byte array update (`b[:=]` primitive).
    fn bytes_set(&mut self, oid: Oid, index: i64, value: u8) -> Result<(), StoreError>;

    /// Garbage-collect; a durable backend logs one free per reclaimed
    /// object so the collection survives recovery.
    fn collect(&mut self, extra_roots: &[Oid]) -> Result<GcStats, StoreError>;

    /// Commit everything since the previous commit. `true` when durably
    /// synced on return; the plain store trivially reports `true`.
    fn commit(&mut self) -> Result<bool, StoreError>;

    /// Consolidate on-disk state (flush dirty pages, truncate the log).
    /// A no-op on the plain store.
    fn checkpoint(&mut self) -> Result<(), StoreError>;

    // -- Transactions ------------------------------------------------------
    //
    // Hooks the transaction layer (crates/txn) drives. A logged backend
    // stamps and marks records in its WAL; the plain store ignores
    // stamping and treats markers as ordinary commits, so the transaction
    // machinery runs unchanged (minus durability) over `S = Store`.

    /// Stamp subsequent logged mutations as belonging to transaction
    /// `stamp.txn` (`clr` flags compensating rollback records). `None`
    /// returns to unstamped autocommit logging. No-op on a plain store.
    fn txn_stamp(&mut self, _stamp: Option<TxnStamp>) {}

    /// Append a transaction resolution marker — commit (`committed`) or
    /// abort — for `txn`, then make it durable through the normal commit
    /// path. Returns the commit's sync status. Defaults to a plain
    /// commit on backends without a log.
    fn txn_marker(&mut self, _txn: u64, _committed: bool) -> Result<bool, StoreError> {
        self.commit()
    }

    /// Pin the log against consolidation: while at least one pin is
    /// held, a logged backend must not checkpoint (truncating the log
    /// would durably apply still-open transactions and discard their
    /// undo records). The transaction layer pins at `begin` and unpins
    /// after the resolution marker. No-op on a plain store.
    fn txn_pin(&mut self) {}

    /// Release one pin taken by [`StoreAccess::txn_pin`].
    fn txn_unpin(&mut self) {}

    // -- Optimization cache ----------------------------------------------
    //
    // Cache traffic is derived data (checkpoints always carry the whole
    // cache), so a durable backend neither logs nor dirty-tracks it.

    /// Look up a cached optimization product, revalidating versions.
    fn cache_lookup(&mut self, key: CacheKey) -> Option<CacheEntry>;

    /// Insert (or replace) a cached optimization product.
    fn cache_insert(&mut self, key: CacheKey, entry: CacheEntry);

    // -- Reads (defaults over `base()`) ----------------------------------

    /// Fetch an object.
    fn get(&self, oid: Oid) -> Result<&Object, StoreError> {
        self.base().get(oid)
    }

    /// Array element access (`[]` primitive).
    fn array_get(&self, oid: Oid, index: i64) -> Result<SVal, StoreError> {
        self.base().array_get(oid, index)
    }

    /// Byte array access (`b[]` primitive).
    fn bytes_get(&self, oid: Oid, index: i64) -> Result<u8, StoreError> {
        self.base().bytes_get(oid, index)
    }

    /// Length of an array / vector / byte array / tuple / relation.
    fn size_of(&self, oid: Oid) -> Result<usize, StoreError> {
        self.base().size_of(oid)
    }

    /// Look up a persistent root.
    fn root(&self, name: &str) -> Option<Oid> {
        self.base().root(name)
    }

    /// Read a derived attribute.
    fn attr(&self, oid: Oid, key: &str) -> Option<i64> {
        self.base().attr(oid, key)
    }

    /// The content version of an object's slot.
    fn version(&self, oid: Oid) -> u64 {
        self.base().version(oid)
    }

    /// `Some(version)` when the OID denotes a live object.
    fn live_version(&self, oid: Oid) -> Option<u64> {
        self.base().live_version(oid)
    }

    /// Number of object slots ever allocated (including tombstones).
    fn len(&self) -> usize {
        self.base().len()
    }

    /// `true` if the store holds no objects.
    fn is_empty(&self) -> bool {
        self.base().is_empty()
    }

    /// Number of live (non-collected) objects.
    fn live(&self) -> usize {
        self.base().live()
    }

    /// Aggregate statistics over all live objects.
    fn stats(&self) -> StoreStats {
        self.base().stats()
    }
}

impl StoreAccess for Store {
    fn base(&self) -> &Store {
        self
    }

    fn set_transient_code(
        &mut self,
        oid: Oid,
        code: u32,
        env: Vec<SVal>,
        bindings: Vec<(String, SVal)>,
    ) -> Result<(), StoreError> {
        Store::set_transient_code(self, oid, code, env, bindings)
    }

    fn alloc(&mut self, obj: Object) -> Result<Oid, StoreError> {
        Ok(Store::alloc(self, obj))
    }

    fn set(&mut self, oid: Oid, obj: Object) -> Result<(), StoreError> {
        Store::set(self, oid, obj)
    }

    fn free_obj(&mut self, oid: Oid) -> Result<(), StoreError> {
        self.free(oid);
        Ok(())
    }

    fn mutate(
        &mut self,
        oid: Oid,
        f: &mut dyn FnMut(&mut Object) -> Result<(), StoreError>,
    ) -> Result<(), StoreError> {
        f(self.get_mut(oid)?)
    }

    fn set_root(&mut self, name: &str, oid: Oid) -> Result<(), StoreError> {
        Store::set_root(self, name, oid);
        Ok(())
    }

    fn remove_root(&mut self, name: &str) -> Result<Option<Oid>, StoreError> {
        Ok(Store::remove_root(self, name))
    }

    fn set_attr(&mut self, oid: Oid, key: &str, value: i64) -> Result<(), StoreError> {
        Store::set_attr(self, oid, key, value);
        Ok(())
    }

    fn remove_attr(&mut self, oid: Oid, key: &str) -> Result<Option<i64>, StoreError> {
        Ok(Store::remove_attr(self, oid, key))
    }

    fn array_set(&mut self, oid: Oid, index: i64, value: SVal) -> Result<(), StoreError> {
        Store::array_set(self, oid, index, value)
    }

    fn bytes_set(&mut self, oid: Oid, index: i64, value: u8) -> Result<(), StoreError> {
        Store::bytes_set(self, oid, index, value)
    }

    fn collect(&mut self, extra_roots: &[Oid]) -> Result<GcStats, StoreError> {
        Ok(gc::collect(self, extra_roots))
    }

    fn commit(&mut self) -> Result<bool, StoreError> {
        Ok(true)
    }

    fn checkpoint(&mut self) -> Result<(), StoreError> {
        Ok(())
    }

    fn cache_lookup(&mut self, key: CacheKey) -> Option<CacheEntry> {
        Store::cache_lookup(self, key)
    }

    fn cache_insert(&mut self, key: CacheKey, entry: CacheEntry) {
        Store::cache_insert(self, key, entry)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn as_dyn(s: &mut Store) -> &mut dyn StoreAccess {
        s
    }

    #[test]
    fn plain_store_routes_through_the_seam() {
        let mut store = Store::new();
        let s = as_dyn(&mut store);
        let a = s
            .alloc(Object::Array(vec![SVal::Int(1), SVal::Int(2)]))
            .unwrap();
        s.array_set(a, 0, SVal::Int(9)).unwrap();
        assert_eq!(s.array_get(a, 0).unwrap(), SVal::Int(9));
        s.set_root("main", a).unwrap();
        assert_eq!(s.root("main"), Some(a));
        s.set_attr(a, "cost", 7).unwrap();
        assert_eq!(s.attr(a, "cost"), Some(7));
        s.mutate(a, &mut |o| {
            if let Object::Array(v) = o {
                v.push(SVal::Int(3));
            }
            Ok(())
        })
        .unwrap();
        assert_eq!(s.size_of(a).unwrap(), 3);
        assert!(s.commit().unwrap());
        s.checkpoint().unwrap();
        let b = s.alloc(Object::ByteArray(vec![0; 4])).unwrap();
        s.bytes_set(b, 1, 0xcd).unwrap();
        assert_eq!(s.bytes_get(b, 1).unwrap(), 0xcd);
        let stats = s.collect(&[]).unwrap();
        assert_eq!(stats.freed, 1, "b is unreachable from the roots");
        assert_eq!(s.live(), 1);
    }

    #[test]
    fn typed_errors_pass_through_unchanged() {
        let mut store = Store::new();
        let s = as_dyn(&mut store);
        let v = s.alloc(Object::Vector(vec![SVal::Int(1)])).unwrap();
        assert!(matches!(
            s.array_set(v, 0, SVal::Int(2)),
            Err(StoreError::Immutable(_))
        ));
        assert!(matches!(
            s.mutate(Oid(99), &mut |_| Ok(())),
            Err(StoreError::Dangling(_))
        ));
    }
}
