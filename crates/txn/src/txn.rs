//! The transaction manager: undo-buffered, lock-guarded mutation over
//! any [`StoreAccess`] backend.
//!
//! A [`Txn`] is an id plus an undo list. Mutations go through a
//! [`TxnView`], which (1) takes the key's exclusive lock with a
//! *non-blocking* acquire — a conflict surfaces as
//! [`StoreError::Busy`], aborting the VM run so the caller can wait
//! outside whatever critical section the store lives in — (2) computes
//! the undo record against the pre-state with the same helpers recovery
//! uses, (3) performs the operation with the backend stamped
//! `TxnOp{txn}`, and (4) pushes the undo entry.
//!
//! Abort replays the undo list in reverse through the same logged entry
//! points, stamped as compensating records (`clr`), so a crash at any
//! point — mid-transaction, mid-abort, around the resolution marker —
//! recovers byte-identically: `tml-store`'s recovery replays the
//! committed prefix and rolls losers back with exactly these records.
//!
//! Commit appends a `TxnCommit` marker and runs the backend's normal
//! group-commit path; locks release only after resolution (strict 2PL).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use tml_core::Oid;
use tml_store::access::TxnStamp;
use tml_store::cache::{CacheEntry, CacheKey};
use tml_store::failpoint;
use tml_store::gc::GcStats;
use tml_store::wal::{
    undo_for_alloc, undo_for_remove_attr, undo_for_remove_root, undo_for_set, undo_for_set_attr,
    undo_for_set_root, WalRecord,
};
use tml_store::{Object, SVal, Store, StoreAccess, StoreError};

use crate::lock::{hash3, LockError, LockOptions, LockTable};

/// Lock key of an object: its OID index (top bit clear — OIDs are
/// sequential allocations, nowhere near 2^63).
pub fn oid_key(oid: Oid) -> u64 {
    oid.0 & !(1 << 63)
}

/// Lock key of a persistent root name: a hash with the top bit set, so
/// root locks can never collide with OID locks. Two names hashing
/// together merely over-serialize — never under-lock.
pub fn root_key(name: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in name.as_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h | (1 << 63)
}

/// Transaction-layer tuning.
#[derive(Debug, Clone, Copy, Default)]
pub struct TxnOptions {
    /// Blocking-acquisition behavior for waits done outside the VM.
    pub lock: LockOptions,
}

/// One open transaction: an id and the undo records accumulated so far
/// (most recent last).
#[derive(Debug)]
pub struct Txn {
    id: u64,
    undo: Vec<WalRecord>,
    started: Instant,
}

impl Txn {
    /// The transaction id (also its WAL stamp and lock-table identity).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Number of undo records buffered (== logged forward mutations).
    pub fn ops(&self) -> usize {
        self.undo.len()
    }

    /// A rollback point for partial rollback ([`TxnManager::rollback_to`]).
    pub fn savepoint(&self) -> usize {
        self.undo.len()
    }
}

/// Hands out transaction ids and owns the lock table. One per store.
#[derive(Debug)]
pub struct TxnManager {
    next: AtomicU64,
    locks: Arc<LockTable>,
    opts: TxnOptions,
}

impl Default for TxnManager {
    fn default() -> Self {
        TxnManager::new(TxnOptions::default())
    }
}

impl TxnManager {
    /// A fresh manager with its own lock table. Ids start at 1; recovery
    /// heals the log whenever loser records exist, so a restarted
    /// manager's ids cannot collide with unresolved ones.
    pub fn new(opts: TxnOptions) -> TxnManager {
        TxnManager {
            next: AtomicU64::new(1),
            locks: Arc::new(LockTable::new()),
            opts,
        }
    }

    /// The shared lock table (for blocking waits outside a [`TxnView`]).
    pub fn locks(&self) -> &Arc<LockTable> {
        &self.locks
    }

    /// The configured lock options.
    pub fn lock_options(&self) -> &LockOptions {
        &self.opts.lock
    }

    /// Open a transaction: allocate an id and pin the backend's log so a
    /// concurrent commit cannot checkpoint the undo trail away.
    pub fn begin<S: StoreAccess + ?Sized>(&self, store: &mut S) -> Txn {
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        store.txn_pin();
        if tml_trace::enabled() {
            tml_trace::count("txn.begins", 1);
            tml_trace::record(tml_trace::Event::Txn {
                op: "begin",
                txn: id,
                n: 0,
                micros: 0,
            });
        }
        Txn {
            id,
            undo: Vec::new(),
            started: Instant::now(),
        }
    }

    /// Commit: append the `TxnCommit` marker, run the backend's normal
    /// group-commit path, release locks. The `txn.commit` failpoint
    /// (keyed by txn id) fires *before* the marker — a crash there loses
    /// the whole transaction, never half of it.
    ///
    /// A commit that fails there, with no marker appended, rolls the
    /// undo list back first, as [`TxnManager::abort`] does, and returns
    /// its own error: the locks must not release work that never
    /// committed, or other transactions would read it and a later
    /// checkpoint would make it durable. No abort marker is written
    /// either, so the log reads as a crash at that point would leave it;
    /// recovery finds the compensation already logged. (Once
    /// `txn_marker` itself fails the marker may be durable, or the
    /// backend refuses all further writes until it is reopened; either
    /// way nothing is undone in memory.)
    pub fn commit<S: StoreAccess + ?Sized>(
        &self,
        store: &mut S,
        mut txn: Txn,
    ) -> Result<bool, StoreError> {
        store.txn_stamp(None);
        let marked = match failpoint::fail_io("txn.commit", txn.id) {
            Ok(()) => store.txn_marker(txn.id, true),
            Err(e) => {
                let _ = self.rollback_to(store, &mut txn, 0);
                Err(StoreError::Io(e.to_string()))
            }
        };
        store.txn_unpin();
        self.locks.release_all(txn.id);
        let synced = marked?;
        if tml_trace::enabled() {
            tml_trace::count("txn.commits", 1);
            tml_trace::record(tml_trace::Event::Txn {
                op: "commit",
                txn: txn.id,
                n: txn.undo.len() as u64,
                micros: (txn.started.elapsed().as_micros()).min(u128::from(u64::MAX)) as u64,
            });
        }
        Ok(synced)
    }

    /// Abort: roll the undo list back through the logged entry points
    /// (compensating records), append the `TxnAbort` marker, release
    /// locks. The `txn.abort` failpoint fires per undo step, so the
    /// fault matrix exercises partial compensation trails.
    pub fn abort<S: StoreAccess + ?Sized>(
        &self,
        store: &mut S,
        mut txn: Txn,
    ) -> Result<(), StoreError> {
        let n = txn.undo.len() as u64;
        let rolled = self
            .rollback_to(store, &mut txn, 0)
            .and_then(|()| store.txn_marker(txn.id, false).map(|_| ()));
        store.txn_unpin();
        self.locks.release_all(txn.id);
        rolled?;
        if tml_trace::enabled() {
            tml_trace::count("txn.aborts", 1);
            tml_trace::record(tml_trace::Event::Txn {
                op: "abort",
                txn: txn.id,
                n,
                micros: (txn.started.elapsed().as_micros()).min(u128::from(u64::MAX)) as u64,
            });
        }
        Ok(())
    }

    /// Roll back to a savepoint: undo (and pop) records past `sp`, most
    /// recent first, each applied through the seam stamped as a
    /// compensating record. Locks stay held — the transaction is still
    /// open and may retry.
    pub fn rollback_to<S: StoreAccess + ?Sized>(
        &self,
        store: &mut S,
        txn: &mut Txn,
        sp: usize,
    ) -> Result<(), StoreError> {
        while txn.undo.len() > sp {
            failpoint::fail_io("txn.abort", txn.id).map_err(|e| StoreError::Io(e.to_string()))?;
            let rec = txn.undo.last().cloned().expect("len > sp >= 0");
            store.txn_stamp(Some(TxnStamp {
                txn: txn.id,
                clr: true,
            }));
            let r = apply_undo(store, &rec);
            store.txn_stamp(None);
            r?;
            txn.undo.pop();
        }
        Ok(())
    }

    /// Block until `key` is grantable to `txn` (used by executors after
    /// a [`StoreError::Busy`], *outside* their store critical section),
    /// with the configured timeout/backoff. Maps lock failures to the
    /// typed abort the caller propagates.
    pub fn wait_for(&self, txn: &Txn, key: u64, exclusive: bool) -> Result<(), StoreError> {
        self.locks
            .acquire_with_retry(txn.id, key, exclusive, &self.opts.lock)
            .map_err(|e| lock_to_store(txn.id, e))
    }
}

/// Map a lock failure to the store-level error the VM and session
/// layers understand.
pub fn lock_to_store(txn: u64, e: LockError) -> StoreError {
    match e {
        LockError::Busy { holder, exclusive } => StoreError::Busy {
            key: 0,
            holder,
            exclusive,
        },
        LockError::Timeout => StoreError::Aborted {
            txn,
            reason: "lock timeout",
        },
        LockError::Deadlock => StoreError::Aborted {
            txn,
            reason: "deadlock victim",
        },
        LockError::Injected => StoreError::Aborted {
            txn,
            reason: "injected lock fault",
        },
    }
}

/// Apply one undo record through the seam (logged as a CLR by the
/// enclosing stamp). Only inverse-op variants appear in undo lists.
fn apply_undo<S: StoreAccess + ?Sized>(store: &mut S, rec: &WalRecord) -> Result<(), StoreError> {
    match rec {
        WalRecord::Free { oid } => store.free_obj(*oid),
        WalRecord::Set { oid, obj } => store.set(*oid, obj.clone()),
        WalRecord::SetRoot { name, oid } => store.set_root(name, *oid),
        WalRecord::RemoveRoot { name } => store.remove_root(name).map(|_| ()),
        WalRecord::SetAttr { oid, key, value } => store.set_attr(*oid, key, *value),
        WalRecord::RemoveAttr { oid, key } => store.remove_attr(*oid, key).map(|_| ()),
        other => Err(StoreError::Io(format!(
            "malformed undo record: {}",
            other.kind_name()
        ))),
    }
}

/// A transactional view over a store backend: locks + undo + stamping
/// around every mutation. Implements [`StoreAccess`], so the VM, the
/// session loader and the reflective optimizer run over it unchanged.
///
/// Reads (`get`, `array_get`, …) take shared try-locks; `root()` and
/// `attr()` return bare `Option`s and stay read-committed (no channel
/// for a conflict — documented degradation, bounded by the enclosing
/// request retry). `free_obj`, `collect` and `checkpoint` are refused
/// inside a transaction: a tombstoned OID cannot be resurrected through
/// the seam, so freeing is not undoable.
pub struct TxnView<'a, S: StoreAccess + ?Sized> {
    store: &'a mut S,
    txn: &'a mut Txn,
    locks: &'a LockTable,
}

impl<'a, S: StoreAccess + ?Sized> TxnView<'a, S> {
    /// Wrap `store` for mutations by `txn`.
    pub fn new(store: &'a mut S, txn: &'a mut Txn, locks: &'a LockTable) -> TxnView<'a, S> {
        TxnView { store, txn, locks }
    }

    fn lock(&self, key: u64, exclusive: bool) -> Result<(), StoreError> {
        match self.locks.try_acquire(self.txn.id, key, exclusive) {
            Ok(()) => Ok(()),
            Err(LockError::Busy { holder, exclusive }) => Err(StoreError::Busy {
                key,
                holder,
                exclusive,
            }),
            Err(e) => Err(lock_to_store(self.txn.id, e)),
        }
    }

    /// Run `f` with the backend stamped as a forward op of this txn,
    /// then push `undo` on success.
    fn logged<T>(
        &mut self,
        undo: Option<WalRecord>,
        f: impl FnOnce(&mut S) -> Result<T, StoreError>,
    ) -> Result<T, StoreError> {
        self.store.txn_stamp(Some(TxnStamp {
            txn: self.txn.id,
            clr: false,
        }));
        let r = f(self.store);
        self.store.txn_stamp(None);
        let v = r?;
        if let Some(u) = undo {
            self.txn.undo.push(u);
        }
        Ok(v)
    }
}

impl<S: StoreAccess + ?Sized> StoreAccess for TxnView<'_, S> {
    fn base(&self) -> &Store {
        self.store.base()
    }

    fn alloc(&mut self, obj: Object) -> Result<Oid, StoreError> {
        let oid = self.logged(None, |s| s.alloc(obj))?;
        self.txn.undo.push(undo_for_alloc(oid));
        // A fresh OID is invisible to other transactions until a root or
        // container publishes it, and publishing needs their lock — but
        // lock it anyway so every undo-listed OID is provably ours. The
        // undo entry is pushed first: even a failed grab must leave the
        // allocation rollback-able.
        self.lock(oid_key(oid), true)?;
        Ok(oid)
    }

    fn set(&mut self, oid: Oid, obj: Object) -> Result<(), StoreError> {
        self.lock(oid_key(oid), true)?;
        let undo = undo_for_set(self.store.base(), oid)?;
        self.logged(Some(undo), |s| s.set(oid, obj))
    }

    fn free_obj(&mut self, _oid: Oid) -> Result<(), StoreError> {
        // A tombstone cannot be resurrected through the seam, so a freed
        // object would be unrecoverable on abort. GC runs outside
        // transactions (the server does it between requests).
        Err(StoreError::Io(
            "free inside a transaction is not undoable".into(),
        ))
    }

    fn mutate(
        &mut self,
        oid: Oid,
        f: &mut dyn FnMut(&mut Object) -> Result<(), StoreError>,
    ) -> Result<(), StoreError> {
        self.lock(oid_key(oid), true)?;
        let undo = undo_for_set(self.store.base(), oid)?;
        self.logged(Some(undo), |s| s.mutate(oid, f))
    }

    fn set_root(&mut self, name: &str, oid: Oid) -> Result<(), StoreError> {
        self.lock(root_key(name), true)?;
        let undo = undo_for_set_root(self.store.base(), name);
        self.logged(Some(undo), |s| s.set_root(name, oid))
    }

    fn remove_root(&mut self, name: &str) -> Result<Option<Oid>, StoreError> {
        self.lock(root_key(name), true)?;
        let undo = undo_for_remove_root(self.store.base(), name);
        self.logged(undo, |s| s.remove_root(name))
    }

    fn set_attr(&mut self, oid: Oid, key: &str, value: i64) -> Result<(), StoreError> {
        self.lock(oid_key(oid), true)?;
        let undo = undo_for_set_attr(self.store.base(), oid, key);
        self.logged(Some(undo), |s| s.set_attr(oid, key, value))
    }

    fn remove_attr(&mut self, oid: Oid, key: &str) -> Result<Option<i64>, StoreError> {
        self.lock(oid_key(oid), true)?;
        let undo = undo_for_remove_attr(self.store.base(), oid, key);
        self.logged(undo, |s| s.remove_attr(oid, key))
    }

    fn array_set(&mut self, oid: Oid, index: i64, value: SVal) -> Result<(), StoreError> {
        self.lock(oid_key(oid), true)?;
        let undo = undo_for_set(self.store.base(), oid)?;
        self.logged(Some(undo), |s| s.array_set(oid, index, value))
    }

    fn bytes_set(&mut self, oid: Oid, index: i64, value: u8) -> Result<(), StoreError> {
        self.lock(oid_key(oid), true)?;
        let undo = undo_for_set(self.store.base(), oid)?;
        self.logged(Some(undo), |s| s.bytes_set(oid, index, value))
    }

    fn collect(&mut self, _extra_roots: &[Oid]) -> Result<GcStats, StoreError> {
        Err(StoreError::Io(
            "garbage collection inside a transaction".into(),
        ))
    }

    fn commit(&mut self) -> Result<bool, StoreError> {
        // Durability points are the transaction markers; an inner commit
        // (e.g. module-load autosave) is deferred to resolution.
        Ok(false)
    }

    fn checkpoint(&mut self) -> Result<(), StoreError> {
        Err(StoreError::Io("checkpoint inside a transaction".into()))
    }

    fn cache_lookup(&mut self, key: CacheKey) -> Option<CacheEntry> {
        // Cache entries are derived data: not locked, not undone.
        self.store.cache_lookup(key)
    }

    fn cache_insert(&mut self, key: CacheKey, entry: CacheEntry) {
        self.store.cache_insert(key, entry)
    }

    // -- Reads: shared try-locks where a Result channel exists ----------

    fn get(&self, oid: Oid) -> Result<&Object, StoreError> {
        self.lock(oid_key(oid), false)?;
        self.store.get(oid)
    }

    fn array_get(&self, oid: Oid, index: i64) -> Result<SVal, StoreError> {
        self.lock(oid_key(oid), false)?;
        self.store.array_get(oid, index)
    }

    fn bytes_get(&self, oid: Oid, index: i64) -> Result<u8, StoreError> {
        self.lock(oid_key(oid), false)?;
        self.store.bytes_get(oid, index)
    }

    fn size_of(&self, oid: Oid) -> Result<usize, StoreError> {
        self.lock(oid_key(oid), false)?;
        self.store.size_of(oid)
    }
}

/// Deterministic per-(txn, key) jitter — re-exported for tests that want
/// to reproduce the backoff schedule.
pub fn jitter(txn: u64, key: u64, attempt: u32) -> u64 {
    hash3(txn, key, u64::from(attempt))
}
