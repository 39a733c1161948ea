//! The durable store: a [`Store`] whose mutations are write-ahead logged,
//! with periodic checkpoints onto paged object storage.
//!
//! This is the persistence architecture ROADMAP item 1 called for, now in
//! its paged form: the on-disk image is a small **TYCAT2 catalog**
//! ([`crate::paged`]) addressing object records on slotted pages, so a
//! checkpoint flushes only the records dirtied since the previous one
//! plus one atomic catalog write — not the whole image. Individual
//! mutations still cost only an appended redo record plus a
//! (group-committed) fsync.
//!
//! ## Commit protocol
//!
//! Every mutating method applies the change to the in-memory [`Store`],
//! marks the touched object dirty, and appends a redo record carrying the
//! full post-image. [`commit`] appends a `Commit` marker and syncs per
//! the [`SyncPolicy`]. Redo records replay through the *same* store entry
//! points the original mutations used, so version counters advance
//! identically — which is what makes recovery byte-identical
//! (`snapshot::to_bytes` re-serializes the recovered store to exactly the
//! bytes of the lost one).
//!
//! ## The store-access seam
//!
//! [`DurableStore`] implements [`StoreAccess`], the narrow trait the
//! session, VM host hooks, optimizer and query externs mutate through.
//! The inherent methods keep their `std::io::Result` shape for direct
//! callers; the trait impl carries the same logic with typed
//! [`StoreError`]s, so VM semantics (bounds → TML exception, …) are
//! identical on both backends. Every write through the seam is logged.
//!
//! ## Recovery
//!
//! [`DurableStore::open`]: reconstruct the store from the TYCAT2 catalog
//! and its page file ([`paged::open_catalog`]'s primary → backup → tmp
//! chain), then scan the log and decide:
//!
//! * the loaded catalog's file identity matches the log header → replay
//!   the committed prefix (marking replayed objects dirty so the next
//!   checkpoint persists them), resume appending after it;
//! * mismatch or unreadable header → the log cannot be trusted on this
//!   base: discard it and write a fresh catalog to heal the on-disk state.
//!
//! The identity check is what makes the checkpoint crash windows safe: a
//! crash *before* the catalog rename leaves the old catalog (matching log
//! → replay) whose pages are untouched — checkpoints write records into
//! fresh pages only — while a crash *after* the rename but before the log
//! reset leaves the new catalog (stale log → discard, and every logged
//! mutation is already inside it). Either way no committed mutation is
//! lost — the seeded failpoint matrices in `tests/wal_recovery.rs` and
//! `tests/paged_recovery.rs` drive a crash into every site and assert
//! exactly that.
//!
//! [`commit`]: DurableStore::commit

use crate::access::{StoreAccess, TxnStamp};
use crate::buffer::BufferStats;
use crate::cache::{CacheEntry, CacheKey};
use crate::gc::{self, GcStats};
use crate::object::Object;
use crate::paged::{self, ImageIdentity, PageStats, PagedHeap, RecoverySource};
use crate::store::{Store, StoreError};
use crate::sval::SVal;
use crate::wal::{wal_path, SyncPolicy, Wal, WalRecord};
use crate::{failpoint, StoreStats};
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use tml_core::Oid;

/// Tuning for a [`DurableStore`].
#[derive(Debug, Clone, Copy)]
pub struct DurableOptions {
    /// When commits fsync the log.
    pub sync: SyncPolicy,
    /// Take a checkpoint automatically every this many commits
    /// (0 = only on explicit [`DurableStore::checkpoint`] calls).
    pub checkpoint_every: u64,
}

impl Default for DurableOptions {
    fn default() -> DurableOptions {
        DurableOptions {
            sync: SyncPolicy::Always,
            checkpoint_every: 0,
        }
    }
}

/// What [`DurableStore::open`] did to reconstruct the store.
#[derive(Debug)]
pub struct OpenReport {
    /// Which catalog file the checkpoint image was recovered from.
    pub source: RecoverySource,
    /// Redo records replayed from the log's committed prefix.
    pub redo_records: u64,
    /// Commit markers replayed.
    pub redo_commits: u64,
    /// Log records discarded: the uncommitted/torn suffix, or the whole
    /// log when it was stale for the recovered image.
    pub discarded_records: u64,
    /// The log tail was torn (recovery truncated it).
    pub torn_tail: bool,
    /// The whole log was discarded as stale (its header named a different
    /// checkpoint image than the one recovery loaded).
    pub stale_log: bool,
    /// Loser transactions — in flight at the crash, inside the committed
    /// prefix but without a resolution marker — rolled back during
    /// replay.
    pub losers_undone: u64,
    /// Compensating undo steps applied to roll those losers back.
    pub loser_records: u64,
}

/// A write-ahead-logged [`Store`] bound to an image path, checkpointing
/// onto paged object storage.
#[derive(Debug)]
pub struct DurableStore {
    store: Store,
    wal: Wal,
    heap: PagedHeap,
    path: PathBuf,
    opts: DurableOptions,
    commits_since_checkpoint: u64,
    wedged: bool,
    /// Objects mutated (or replayed) since the last successful
    /// checkpoint; exactly these records are flushed by the next one.
    dirty: BTreeSet<Oid>,
    /// A generation rewrite (compaction) began but its catalog never
    /// landed: the next checkpoint must rewrite everything.
    force_full: bool,
    /// Transaction stamp for subsequent logged mutations (the txn layer
    /// sets it around each operation it routes through the seam).
    stamp: Option<TxnStamp>,
    /// Open transactions pinning the log. While pinned, checkpoints are
    /// refused/deferred: truncating the log would durably apply
    /// uncommitted operations with no undo records left to roll them
    /// back. GC is refused for the same reason (it could free objects a
    /// rollback still needs).
    txn_pins: u64,
}

fn path_key(path: &Path) -> u64 {
    crate::cache::hash_bytes(path.as_os_str().as_encoded_bytes())
}

fn io_to_store(e: std::io::Error) -> StoreError {
    StoreError::Io(e.to_string())
}

fn store_to_io(e: StoreError) -> std::io::Error {
    match e {
        StoreError::Io(msg) => std::io::Error::other(msg),
        e => std::io::Error::new(std::io::ErrorKind::InvalidInput, e),
    }
}

/// Replay one redo record against a store, through the same entry points
/// the original mutation used (so version counters advance identically).
fn apply(store: &mut Store, rec: &WalRecord) -> Result<(), StoreError> {
    match rec {
        WalRecord::Alloc { oid, obj } => {
            let got = store.alloc(obj.clone());
            debug_assert_eq!(got, *oid, "redo allocation order diverged");
            Ok(())
        }
        WalRecord::Set { oid, obj } => store.set(*oid, obj.clone()),
        WalRecord::Free { oid } => {
            store.free(*oid);
            Ok(())
        }
        WalRecord::SetRoot { name, oid } => {
            store.set_root(name.clone(), *oid);
            Ok(())
        }
        WalRecord::RemoveRoot { name } => {
            store.remove_root(name);
            Ok(())
        }
        WalRecord::SetAttr { oid, key, value } => {
            store.set_attr(*oid, key.clone(), *value);
            Ok(())
        }
        WalRecord::RemoveAttr { oid, key } => {
            store.remove_attr(*oid, key);
            Ok(())
        }
        WalRecord::Commit => Ok(()),
        // Transaction wrappers: the inner mutation applies identically;
        // winner/loser bookkeeping happens in `replay_committed`.
        WalRecord::TxnOp { op, .. } => apply(store, op),
        WalRecord::TxnCommit { .. } | WalRecord::TxnAbort { .. } => Ok(()),
    }
}

/// The object a redo record touches (for dirty tracking on replay).
fn touched_oid(rec: &WalRecord) -> Option<Oid> {
    match rec {
        WalRecord::Alloc { oid, .. } | WalRecord::Set { oid, .. } | WalRecord::Free { oid } => {
            Some(*oid)
        }
        WalRecord::TxnOp { op, .. } => touched_oid(op),
        _ => None,
    }
}

/// Outcome of a txn-aware replay of a log's committed prefix.
#[derive(Debug, Default)]
struct Replay {
    redo_records: u64,
    redo_commits: u64,
    dirty: BTreeSet<Oid>,
    last_lsn: u64,
    losers: Vec<u64>,
    loser_records: u64,
}

/// Replay the committed prefix of `scan` onto `store`, ARIES-style.
///
/// Forward pass: every record applies through the same entry points the
/// original mutation used. For a forward `TxnOp` the matching undo is
/// computed against the pre-state and pushed on the transaction's undo
/// list; a compensating (`clr`) record instead retires the list's last
/// entry — CLRs are logged in exact reverse undo order at runtime, so a
/// crash mid-rollback resumes where the rollback stopped. `TxnCommit` /
/// `TxnAbort` resolve the transaction.
///
/// After the pass, unresolved (loser) transactions are rolled back by
/// applying their remaining undo lists in reverse — exactly the state a
/// runtime abort would have produced, which is what makes recovery
/// byte-identical to the committed-transaction prefix.
fn replay_committed(store: &mut Store, scan: &crate::wal::LogScan) -> std::io::Result<Replay> {
    let fail = |lsn: u64, e: StoreError| {
        std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("wal redo failed at lsn {lsn}: {e}"),
        )
    };
    let mut out = Replay::default();
    let mut active: std::collections::BTreeMap<u64, Vec<WalRecord>> =
        std::collections::BTreeMap::new();
    for (lsn, rec) in &scan.records[..scan.committed] {
        match rec {
            WalRecord::TxnOp { txn, clr, op } => {
                if *clr {
                    apply(store, op).map_err(|e| fail(*lsn, e))?;
                    if let Some(undo) = active.get_mut(txn) {
                        undo.pop();
                    }
                } else {
                    let undo = op.undo_against(store).map_err(|e| fail(*lsn, e))?;
                    apply(store, op).map_err(|e| fail(*lsn, e))?;
                    let list = active.entry(*txn).or_default();
                    if let Some(u) = undo {
                        list.push(u);
                    }
                }
                if let Some(oid) = touched_oid(op) {
                    out.dirty.insert(oid);
                }
            }
            WalRecord::TxnCommit { txn } | WalRecord::TxnAbort { txn } => {
                active.remove(txn);
            }
            _ => {
                apply(store, rec).map_err(|e| fail(*lsn, e))?;
                if let Some(oid) = touched_oid(rec) {
                    out.dirty.insert(oid);
                }
            }
        }
        out.redo_records += 1;
        if *rec == WalRecord::Commit {
            out.redo_commits += 1;
        }
        out.last_lsn = *lsn;
    }
    // Ascending txn id: open transactions hold disjoint locks, so their
    // rollbacks commute and any fixed order is deterministic.
    for (txn, undo) in active {
        for rec in undo.iter().rev() {
            apply(store, rec).map_err(|e| fail(0, e))?;
            if let Some(oid) = touched_oid(rec) {
                out.dirty.insert(oid);
            }
            out.loser_records += 1;
        }
        if tml_trace::enabled() {
            tml_trace::count("txn.recovered_aborts", 1);
            tml_trace::record(tml_trace::Event::Txn {
                op: "recover-abort",
                txn,
                n: undo.len() as u64,
                micros: 0,
            });
        }
        out.losers.push(txn);
    }
    Ok(out)
}

impl DurableStore {
    /// Create a fresh durable store at `path`: writes an empty catalog,
    /// an empty page file and an empty log.
    pub fn create(path: impl AsRef<Path>, opts: DurableOptions) -> std::io::Result<DurableStore> {
        DurableStore::from_store(Store::new(), path, opts)
    }

    /// Adopt an existing in-memory store, checkpointing it to `path`
    /// immediately so the on-disk state starts consistent. Any image
    /// already at `path` is replaced.
    pub fn from_store(
        store: Store,
        path: impl AsRef<Path>,
        opts: DurableOptions,
    ) -> std::io::Result<DurableStore> {
        let path = path.as_ref().to_path_buf();
        let mut heap = PagedHeap::create(&path)?;
        write_all_records(&mut heap, &store)?;
        heap.flush()?;
        let identity = heap.save_catalog(&store)?;
        let wal = Wal::create(wal_path(&path), identity)?.with_policy(opts.sync);
        Ok(DurableStore::assemble(store, wal, heap, path, opts))
    }

    fn assemble(
        store: Store,
        wal: Wal,
        heap: PagedHeap,
        path: PathBuf,
        opts: DurableOptions,
    ) -> DurableStore {
        DurableStore {
            store,
            wal,
            heap,
            path,
            opts,
            commits_since_checkpoint: 0,
            wedged: false,
            dirty: BTreeSet::new(),
            force_full: false,
            stamp: None,
            txn_pins: 0,
        }
    }

    /// Open the durable store at `path`: recover the catalog and page file,
    /// replay the log's committed prefix, and resume. Fails with
    /// `InvalidData` when no catalog sibling decodes.
    pub fn open(
        path: impl AsRef<Path>,
        opts: DurableOptions,
    ) -> std::io::Result<(DurableStore, OpenReport)> {
        let path = path.as_ref().to_path_buf();
        let t0 = if tml_trace::enabled() {
            tml_trace::global().clock().now_ns()
        } else {
            0
        };
        let paged::OpenedCatalog {
            mut heap,
            mut store,
            identity,
            source,
        } = paged::open_catalog(&path)?.ok_or_else(|| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                "image unrecoverable: no decodable catalog",
            )
        })?;
        let wpath = wal_path(&path);
        let scan = Wal::scan(&wpath)?;
        let mut report = OpenReport {
            source,
            redo_records: 0,
            redo_commits: 0,
            discarded_records: 0,
            torn_tail: scan.torn_tail,
            stale_log: false,
            losers_undone: 0,
            loser_records: 0,
        };
        if scan.exists && scan.base == Some(identity) {
            let replay = replay_committed(&mut store, &scan)?;
            report.redo_records = replay.redo_records;
            report.redo_commits = replay.redo_commits;
            report.losers_undone = replay.losers.len() as u64;
            report.loser_records = replay.loser_records;
            report.discarded_records = (scan.records.len() - scan.committed) as u64;
            if tml_trace::enabled() {
                tml_trace::count("store.wal.redo_records", report.redo_records);
                tml_trace::count("store.wal.redo_discarded", report.discarded_records);
                let rec = tml_trace::global();
                tml_trace::record(tml_trace::Event::Wal {
                    op: "redo",
                    lsn: replay.last_lsn,
                    bytes: scan.committed_end,
                    records: report.redo_records,
                    micros: rec.clock().now_ns().saturating_sub(t0) / 1_000,
                });
            }
            let wal = Wal::resume(&wpath, &scan)?.with_policy(opts.sync);
            let mut ds = DurableStore::assemble(store, wal, heap, path, opts);
            ds.commits_since_checkpoint = report.redo_commits;
            ds.dirty = replay.dirty;
            if report.losers_undone > 0 {
                // Heal: the loser rollback happened in memory only. A
                // checkpoint consolidates it and empties the log, so the
                // unresolved transaction ids cannot collide with ids a
                // restarted transaction manager hands out, and a re-crash
                // before any new mutation recovers from a clean image.
                ds.checkpoint()?;
            } else {
                ds.maybe_auto_checkpoint()?;
            }
            return Ok((ds, report));
        }
        // No usable log: stale for this catalog, headerless, or absent.
        // The pages already hold every record the catalog references, so
        // healing is just a fresh catalog at the primary path (normalizing
        // a backup/tmp source) plus an empty log bound to it.
        report.stale_log = scan.exists && scan.base != Some(identity);
        report.discarded_records = scan.records.len() as u64;
        trace_discard(&scan, report.discarded_records, t0);
        let identity = heap.save_catalog(&store)?;
        let wal = Wal::create(&wpath, identity)?.with_policy(opts.sync);
        Ok((DurableStore::assemble(store, wal, heap, path, opts), report))
    }

    /// The image path this store persists to.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Read view of the underlying store.
    pub fn store(&self) -> &Store {
        &self.store
    }

    /// Consume the wrapper, keeping the in-memory store (no checkpoint).
    pub fn into_store(self) -> Store {
        self.store
    }

    /// Statistics of the underlying store.
    pub fn stats(&self) -> StoreStats {
        self.store.stats()
    }

    /// Log-side totals since open.
    pub fn wal_stats(&self) -> crate::wal::WalStats {
        self.wal.stats()
    }

    /// Page-side footprint of the paged heap.
    pub fn page_stats(&self) -> PageStats {
        self.heap.stats()
    }

    /// Cumulative buffer-pool counters (across compactions).
    pub fn buffer_stats(&self) -> BufferStats {
        self.heap.buffer_stats()
    }

    /// Objects currently dirty (to be flushed by the next checkpoint).
    pub fn dirty_records(&self) -> usize {
        self.dirty.len()
    }

    /// Publish `store.page.*` / `store.buffer.*` gauges to the global
    /// trace recorder (next to [`Store::publish_counters`]).
    pub fn publish_page_counters(&self) {
        if !tml_trace::enabled() {
            return;
        }
        let g = tml_trace::global();
        let p = self.heap.stats();
        g.counter("store.page.gen").set(p.gen);
        g.counter("store.page.pages").set(p.pages);
        g.counter("store.page.records").set(p.dir_entries);
        g.counter("store.page.chains").set(p.chains);
        g.counter("store.page.live_bytes").set(p.live_bytes);
        g.counter("store.page.dead_bytes").set(p.dead_bytes);
        g.counter("store.page.dirty").set(self.dirty.len() as u64);
        let b = self.buffer_stats();
        g.counter("store.buffer.resident").set(p.resident);
        g.counter("store.buffer.hits").set(b.hits);
        g.counter("store.buffer.misses").set(b.misses);
        g.counter("store.buffer.evictions").set(b.evictions);
        g.counter("store.buffer.writebacks").set(b.writebacks);
    }

    /// `true` once an append failed: in-memory and durable state may have
    /// diverged, so further logged mutations are refused. Reopen to heal.
    pub fn is_wedged(&self) -> bool {
        self.wedged
    }

    fn guard(&self) -> std::io::Result<()> {
        if self.wedged {
            return Err(std::io::Error::other(
                "durable store is wedged after an append failure; reopen to recover",
            ));
        }
        Ok(())
    }

    fn log(&mut self, rec: WalRecord) -> std::io::Result<()> {
        // An active transaction stamp wraps the record so recovery can
        // tell winners from losers; unstamped records stay byte-identical
        // to the pre-transaction format.
        let rec = match self.stamp {
            Some(s) => WalRecord::TxnOp {
                txn: s.txn,
                clr: s.clr,
                op: Box::new(rec),
            },
            None => rec,
        };
        match self.wal.append(&rec) {
            Ok(_) => Ok(()),
            Err(e) => {
                self.wedged = true;
                Err(e)
            }
        }
    }

    fn guard_s(&self) -> Result<(), StoreError> {
        self.guard().map_err(io_to_store)
    }

    fn log_s(&mut self, rec: WalRecord) -> Result<(), StoreError> {
        self.log(rec).map_err(io_to_store)
    }

    // -- Logged mutations (typed-error core; the pub inherent methods and
    //    the StoreAccess impl both delegate here) ------------------------

    fn do_alloc(&mut self, obj: Object) -> Result<Oid, StoreError> {
        self.guard_s()?;
        let oid = self.store.alloc(obj.clone());
        self.dirty.insert(oid);
        self.log_s(WalRecord::Alloc { oid, obj })?;
        Ok(oid)
    }

    fn do_set(&mut self, oid: Oid, obj: Object) -> Result<(), StoreError> {
        self.guard_s()?;
        self.store.set(oid, obj.clone())?;
        self.dirty.insert(oid);
        self.log_s(WalRecord::Set { oid, obj })
    }

    fn do_free(&mut self, oid: Oid) -> Result<(), StoreError> {
        self.guard_s()?;
        self.store.free(oid);
        self.dirty.insert(oid);
        self.log_s(WalRecord::Free { oid })
    }

    fn do_set_root(&mut self, name: &str, oid: Oid) -> Result<(), StoreError> {
        self.guard_s()?;
        self.store.set_root(name.to_string(), oid);
        self.log_s(WalRecord::SetRoot {
            name: name.to_string(),
            oid,
        })
    }

    fn do_remove_root(&mut self, name: &str) -> Result<Option<Oid>, StoreError> {
        self.guard_s()?;
        let prev = self.store.remove_root(name);
        self.log_s(WalRecord::RemoveRoot {
            name: name.to_string(),
        })?;
        Ok(prev)
    }

    fn do_set_attr(&mut self, oid: Oid, key: &str, value: i64) -> Result<(), StoreError> {
        self.guard_s()?;
        self.store.set_attr(oid, key.to_string(), value);
        self.log_s(WalRecord::SetAttr {
            oid,
            key: key.to_string(),
            value,
        })
    }

    fn do_remove_attr(&mut self, oid: Oid, key: &str) -> Result<Option<i64>, StoreError> {
        self.guard_s()?;
        let prev = self.store.remove_attr(oid, key);
        self.log_s(WalRecord::RemoveAttr {
            oid,
            key: key.to_string(),
        })?;
        Ok(prev)
    }

    /// Log the full post-image of an in-place mutation (replay's `Set`
    /// bumps the version exactly once, matching the original `get_mut`).
    fn log_post_image(&mut self, oid: Oid) -> Result<(), StoreError> {
        let obj = self.store.get(oid)?.clone();
        self.dirty.insert(oid);
        self.log_s(WalRecord::Set { oid, obj })
    }

    fn do_array_set(&mut self, oid: Oid, index: i64, value: SVal) -> Result<(), StoreError> {
        self.guard_s()?;
        self.store.array_set(oid, index, value)?;
        self.log_post_image(oid)
    }

    fn do_bytes_set(&mut self, oid: Oid, index: i64, value: u8) -> Result<(), StoreError> {
        self.guard_s()?;
        self.store.bytes_set(oid, index, value)?;
        self.log_post_image(oid)
    }

    fn do_mutate(
        &mut self,
        oid: Oid,
        f: &mut dyn FnMut(&mut Object) -> Result<(), StoreError>,
    ) -> Result<(), StoreError> {
        self.guard_s()?;
        let result = f(self.store.get_mut(oid)?);
        // Log the post-image even when the closure reports failure: it ran
        // on the live object, so memory and log must not diverge.
        self.log_post_image(oid)?;
        result
    }

    fn do_collect(&mut self, extra_roots: &[Oid]) -> Result<GcStats, StoreError> {
        self.guard_s()?;
        if self.txn_pins > 0 {
            // GC could reclaim objects an open transaction allocated (not
            // yet reachable from a root) — its rollback would then undo a
            // free'd slot. Collection is an autocommit/quiesced operation.
            return Err(StoreError::Io(
                "garbage collection with open transactions".into(),
            ));
        }
        let live_before: Vec<Oid> = self.store.iter().map(|(oid, _)| oid).collect();
        let stats = gc::collect(&mut self.store, extra_roots);
        for oid in live_before {
            if self.store.get(oid).is_err() {
                self.dirty.insert(oid);
                self.log_s(WalRecord::Free { oid })?;
            }
        }
        Ok(stats)
    }

    // -- Public io-flavored surface (pre-seam callers, CLI, tests) -------

    /// Allocate an object (logged).
    pub fn alloc(&mut self, obj: Object) -> std::io::Result<Oid> {
        self.do_alloc(obj).map_err(store_to_io)
    }

    /// Overwrite an object (logged).
    pub fn set(&mut self, oid: Oid, obj: Object) -> std::io::Result<()> {
        self.do_set(oid, obj).map_err(store_to_io)
    }

    /// Free an object (logged).
    pub fn free(&mut self, oid: Oid) -> std::io::Result<()> {
        self.do_free(oid).map_err(store_to_io)
    }

    /// Set a named root (logged).
    pub fn set_root(&mut self, name: &str, oid: Oid) -> std::io::Result<()> {
        self.do_set_root(name, oid).map_err(store_to_io)
    }

    /// Remove a named root (logged).
    pub fn remove_root(&mut self, name: &str) -> std::io::Result<()> {
        self.do_remove_root(name).map(|_| ()).map_err(store_to_io)
    }

    /// Set a derived attribute (logged).
    pub fn set_attr(&mut self, oid: Oid, key: &str, value: i64) -> std::io::Result<()> {
        self.do_set_attr(oid, key, value).map_err(store_to_io)
    }

    /// In-place array store (logged as a full post-image `Set`).
    pub fn array_set(&mut self, oid: Oid, index: i64, value: SVal) -> std::io::Result<()> {
        self.do_array_set(oid, index, value).map_err(store_to_io)
    }

    /// In-place byte store (logged as a full post-image `Set`).
    pub fn bytes_set(&mut self, oid: Oid, index: i64, value: u8) -> std::io::Result<()> {
        self.do_bytes_set(oid, index, value).map_err(store_to_io)
    }

    /// Garbage-collect through the logged interface: runs [`gc::collect`]
    /// on the in-memory store and logs one `Free` per reclaimed object.
    pub fn collect(&mut self, extra_roots: &[Oid]) -> std::io::Result<GcStats> {
        self.do_collect(extra_roots).map_err(store_to_io)
    }

    /// Commit everything logged since the previous commit. Returns `true`
    /// when the commit is durably synced on return (see [`SyncPolicy`]).
    /// May take an automatic checkpoint (per `checkpoint_every`).
    pub fn commit(&mut self) -> std::io::Result<bool> {
        self.guard()?;
        let synced = match self.wal.commit() {
            Ok(s) => s,
            Err(e) => {
                self.wedged = true;
                return Err(e);
            }
        };
        self.commits_since_checkpoint += 1;
        self.maybe_auto_checkpoint()?;
        Ok(synced)
    }

    fn maybe_auto_checkpoint(&mut self) -> std::io::Result<()> {
        if self.opts.checkpoint_every > 0
            && self.commits_since_checkpoint >= self.opts.checkpoint_every
            // Deferred while transactions are open: truncating the log
            // would durably apply uncommitted ops with no undo records
            // left. `commits_since_checkpoint` keeps accumulating, so the
            // first unpinned commit takes the checkpoint.
            && self.txn_pins == 0
        {
            self.checkpoint()?;
        }
        Ok(())
    }

    /// Take a checkpoint: flush the dirty object records into fresh
    /// slotted pages, atomically replace the catalog, and truncate the
    /// log. Crash windows:
    ///
    /// * before/inside the page flush or catalog save — the old catalog
    ///   survives (or is recoverable via its backup/tmp) and its pages
    ///   were never touched (records go to fresh pages only), so its
    ///   identity still matches the untouched log and recovery replays as
    ///   if no checkpoint ran;
    /// * after the save, before/inside the log reset — the new catalog is
    ///   in place and the log is stale for it, so recovery discards the
    ///   log; every logged mutation is already inside the new catalog.
    ///
    /// A failed checkpoint keeps the dirty set, so a retry (or the next
    /// auto-checkpoint) flushes everything still pending.
    pub fn checkpoint(&mut self) -> std::io::Result<()> {
        self.guard()?;
        if self.txn_pins > 0 {
            return Err(std::io::Error::other(
                "checkpoint with open transactions would lose their undo records",
            ));
        }
        failpoint::fail_io("wal.checkpoint", path_key(&self.path))?;
        let _s = tml_trace::span!("store.wal.checkpoint");
        let t0 = if tml_trace::enabled() {
            tml_trace::global().clock().now_ns()
        } else {
            0
        };
        // Unsynced log tail first: the image we are about to write must
        // not be *ahead* of the log while the old image is still current.
        self.wal.flush(true)?;
        let identity = self.flush_pages()?;
        self.wal.reset(identity)?;
        self.dirty.clear();
        self.commits_since_checkpoint = 0;
        if tml_trace::enabled() {
            tml_trace::count("store.wal.checkpoints", 1);
            let rec = tml_trace::global();
            tml_trace::record(tml_trace::Event::Wal {
                op: "checkpoint",
                lsn: 0,
                bytes: identity.len,
                records: 0,
                micros: rec.clock().now_ns().saturating_sub(t0) / 1_000,
            });
        }
        Ok(())
    }

    /// Write the pending records to fresh pages and save the catalog.
    /// Full flush when a compaction is pending/triggered; dirty-set flush
    /// otherwise.
    fn flush_pages(&mut self) -> std::io::Result<ImageIdentity> {
        if self.heap.should_compact() {
            self.heap.begin_new_generation()?;
            // From here until a catalog lands, the heap directory is
            // incomplete: remember that a retry must also rewrite all.
            self.force_full = true;
        }
        if self.force_full {
            write_all_records(&mut self.heap, &self.store)?;
        } else {
            let (heap, store) = (&mut self.heap, &self.store);
            for &oid in &self.dirty {
                match store.get(oid) {
                    Ok(obj) => {
                        let rec = PagedHeap::encode_record(obj);
                        with_pool_retry(|| heap.write_record(oid, &rec))?;
                    }
                    Err(_) => heap.remove_record(oid),
                }
            }
        }
        let heap = &mut self.heap;
        with_pool_retry(|| heap.flush())?;
        let (heap, store) = (&mut self.heap, &self.store);
        let identity = with_pool_retry(|| heap.save_catalog(store))?;
        self.force_full = false;
        Ok(identity)
    }

    /// Flush and sync the log, then checkpoint. Call before dropping when
    /// the store should land fully consolidated on disk.
    pub fn close(mut self) -> std::io::Result<()> {
        self.checkpoint()
    }
}

/// Write every slot of `store` into the heap (live → record, tombstone
/// or never-allocated → removal).
fn write_all_records(heap: &mut PagedHeap, store: &Store) -> std::io::Result<()> {
    for ix in 0..store.len() {
        let oid = Oid(ix as u64 + 1);
        match store.get(oid) {
            Ok(obj) => {
                let rec = PagedHeap::encode_record(obj);
                with_pool_retry(|| heap.write_record(oid, &rec))?;
            }
            Err(_) => heap.remove_record(oid),
        }
    }
    Ok(())
}

/// Bounded retry for transient buffer-pool exhaustion. The pool reports
/// `WouldBlock` when every frame is pinned; rather than surface that to
/// callers (who have no sensible response mid-commit), back off briefly
/// and retry — pins are short-lived, held only across single-record
/// encode/decode. After the retry budget, the final attempt's error
/// propagates unchanged.
fn with_pool_retry<T>(mut f: impl FnMut() -> std::io::Result<T>) -> std::io::Result<T> {
    const RETRIES: u32 = 8;
    let mut delay_us = 50u64;
    for _ in 0..RETRIES {
        match f() {
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                if tml_trace::enabled() {
                    tml_trace::count("store.buffer.would_block", 1);
                }
                std::thread::sleep(std::time::Duration::from_micros(delay_us));
                delay_us = (delay_us * 2).min(5_000);
            }
            r => return r,
        }
    }
    f()
}

fn trace_discard(scan: &crate::wal::LogScan, discarded: u64, t0: u64) {
    if tml_trace::enabled() && scan.exists {
        tml_trace::count("store.wal.redo_discarded", discarded);
        let rec = tml_trace::global();
        tml_trace::record(tml_trace::Event::Wal {
            op: "discard",
            lsn: scan.next_lsn.saturating_sub(1),
            bytes: scan.file_bytes,
            records: discarded,
            micros: rec.clock().now_ns().saturating_sub(t0) / 1_000,
        });
    }
}

impl StoreAccess for DurableStore {
    fn base(&self) -> &Store {
        &self.store
    }

    fn alloc(&mut self, obj: Object) -> Result<Oid, StoreError> {
        self.do_alloc(obj)
    }

    fn set(&mut self, oid: Oid, obj: Object) -> Result<(), StoreError> {
        self.do_set(oid, obj)
    }

    fn free_obj(&mut self, oid: Oid) -> Result<(), StoreError> {
        self.do_free(oid)
    }

    fn mutate(
        &mut self,
        oid: Oid,
        f: &mut dyn FnMut(&mut Object) -> Result<(), StoreError>,
    ) -> Result<(), StoreError> {
        self.do_mutate(oid, f)
    }

    fn set_root(&mut self, name: &str, oid: Oid) -> Result<(), StoreError> {
        self.do_set_root(name, oid)
    }

    fn remove_root(&mut self, name: &str) -> Result<Option<Oid>, StoreError> {
        self.do_remove_root(name)
    }

    fn set_attr(&mut self, oid: Oid, key: &str, value: i64) -> Result<(), StoreError> {
        self.do_set_attr(oid, key, value)
    }

    fn remove_attr(&mut self, oid: Oid, key: &str) -> Result<Option<i64>, StoreError> {
        self.do_remove_attr(oid, key)
    }

    fn array_set(&mut self, oid: Oid, index: i64, value: SVal) -> Result<(), StoreError> {
        self.do_array_set(oid, index, value)
    }

    fn bytes_set(&mut self, oid: Oid, index: i64, value: u8) -> Result<(), StoreError> {
        self.do_bytes_set(oid, index, value)
    }

    fn collect(&mut self, extra_roots: &[Oid]) -> Result<GcStats, StoreError> {
        self.do_collect(extra_roots)
    }

    fn commit(&mut self) -> Result<bool, StoreError> {
        DurableStore::commit(self).map_err(io_to_store)
    }

    fn checkpoint(&mut self) -> Result<(), StoreError> {
        DurableStore::checkpoint(self).map_err(io_to_store)
    }

    fn txn_stamp(&mut self, stamp: Option<TxnStamp>) {
        self.stamp = stamp;
    }

    fn txn_marker(&mut self, txn: u64, committed: bool) -> Result<bool, StoreError> {
        // Markers are never themselves wrapped: clear any stamp first,
        // then append and run the normal group-commit path so the plain
        // `Commit` record remains the durability horizon.
        self.stamp = None;
        self.guard_s()?;
        self.log_s(if committed {
            WalRecord::TxnCommit { txn }
        } else {
            WalRecord::TxnAbort { txn }
        })?;
        DurableStore::commit(self).map_err(io_to_store)
    }

    fn txn_pin(&mut self) {
        self.txn_pins += 1;
    }

    fn txn_unpin(&mut self) {
        self.txn_pins = self.txn_pins.saturating_sub(1);
    }

    fn cache_lookup(&mut self, key: CacheKey) -> Option<CacheEntry> {
        // Cache traffic is derived data, fully captured by every catalog
        // save, so it is neither logged nor dirty-tracked.
        self.store.cache_lookup(key)
    }

    fn cache_insert(&mut self, key: CacheKey, entry: CacheEntry) {
        self.store.cache_insert(key, entry)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("tml_store_durable_test");
        std::fs::create_dir_all(&dir).unwrap();
        let p = dir.join(name);
        for suffix in ["", ".bak", ".tmp", ".wal"] {
            let mut q = p.as_os_str().to_os_string();
            q.push(suffix);
            std::fs::remove_file(PathBuf::from(q)).ok();
        }
        for gen in 0..16 {
            let mut q = p.as_os_str().to_os_string();
            q.push(format!(".p{gen}"));
            std::fs::remove_file(PathBuf::from(q)).ok();
        }
        p
    }

    fn obj(n: i64) -> Object {
        Object::Array(vec![SVal::Int(n)])
    }

    #[test]
    fn mutations_survive_reopen_without_checkpoint() {
        let path = tmp("basic.tys");
        let mut ds = DurableStore::create(&path, DurableOptions::default()).unwrap();
        let a = ds.alloc(obj(1)).unwrap();
        ds.set_root("main", a).unwrap();
        ds.commit().unwrap();
        let b = ds.alloc(obj(2)).unwrap();
        ds.set(b, obj(20)).unwrap();
        ds.set_attr(b, "cost", 9).unwrap();
        ds.commit().unwrap();
        let expected = snapshot::to_bytes(&ds.store);
        drop(ds); // crash: no close, no checkpoint
        let (back, report) = DurableStore::open(&path, DurableOptions::default()).unwrap();
        assert_eq!(report.source, RecoverySource::Primary);
        assert_eq!(report.redo_commits, 2);
        assert!(!report.stale_log);
        assert_eq!(snapshot::to_bytes(&back.store), expected);
        assert_eq!(back.store().root("main"), Some(a));
        assert_eq!(back.store().attr(b, "cost"), Some(9));
    }

    #[test]
    fn uncommitted_suffix_is_discarded_on_reopen() {
        let path = tmp("uncommitted.tys");
        let mut ds = DurableStore::create(&path, DurableOptions::default()).unwrap();
        let a = ds.alloc(obj(1)).unwrap();
        ds.commit().unwrap();
        let committed = snapshot::to_bytes(&ds.store);
        // Logged but never committed; force the bytes to disk so only
        // the missing Commit marker separates them from durability.
        ds.alloc(obj(2)).unwrap();
        ds.free(a).unwrap();
        ds.wal.flush(true).unwrap();
        drop(ds);
        let (back, report) = DurableStore::open(&path, DurableOptions::default()).unwrap();
        assert_eq!(report.redo_commits, 1);
        assert_eq!(report.discarded_records, 2);
        assert_eq!(snapshot::to_bytes(&back.store), committed);
    }

    #[test]
    fn checkpoint_truncates_log_and_reopen_needs_no_redo() {
        let path = tmp("checkpoint.tys");
        let mut ds = DurableStore::create(&path, DurableOptions::default()).unwrap();
        for i in 0..10 {
            ds.alloc(obj(i)).unwrap();
            ds.commit().unwrap();
        }
        ds.checkpoint().unwrap();
        let expected = snapshot::to_bytes(&ds.store);
        let scan = Wal::scan(wal_path(&path)).unwrap();
        assert!(scan.records.is_empty(), "checkpoint emptied the log");
        drop(ds);
        let (back, report) = DurableStore::open(&path, DurableOptions::default()).unwrap();
        assert_eq!(report.redo_records, 0);
        assert_eq!(snapshot::to_bytes(&back.store), expected);
    }

    #[test]
    fn checkpoints_flush_only_the_dirty_records() {
        let path = tmp("dirty.tys");
        let mut ds = DurableStore::create(&path, DurableOptions::default()).unwrap();
        let mut oids = Vec::new();
        for i in 0..50 {
            oids.push(ds.alloc(obj(i)).unwrap());
        }
        ds.commit().unwrap();
        assert_eq!(ds.dirty_records(), 50);
        ds.checkpoint().unwrap();
        assert_eq!(ds.dirty_records(), 0);
        let pages_after_full = ds.page_stats().pages;
        // Touch one object: the next checkpoint rewrites one record.
        ds.set(oids[7], obj(700)).unwrap();
        ds.commit().unwrap();
        assert_eq!(ds.dirty_records(), 1);
        ds.checkpoint().unwrap();
        let stats = ds.page_stats();
        assert_eq!(
            stats.pages,
            pages_after_full + 1,
            "an incremental checkpoint appends one fresh page, not a rewrite"
        );
        let expected = snapshot::to_bytes(&ds.store);
        drop(ds);
        let (back, report) = DurableStore::open(&path, DurableOptions::default()).unwrap();
        assert_eq!(report.redo_records, 0);
        assert_eq!(snapshot::to_bytes(&back.store), expected);
    }

    #[test]
    fn auto_checkpoint_fires_every_n_commits() {
        let path = tmp("auto.tys");
        let opts = DurableOptions {
            sync: SyncPolicy::Always,
            checkpoint_every: 3,
        };
        let mut ds = DurableStore::create(&path, opts).unwrap();
        for i in 0..7 {
            ds.alloc(obj(i)).unwrap();
            ds.commit().unwrap();
        }
        // 7 commits → checkpoints after the 3rd and 6th; one commit since.
        let scan = Wal::scan(wal_path(&path)).unwrap();
        assert_eq!(scan.commits, 1);
        drop(ds);
        let (back, report) = DurableStore::open(&path, opts).unwrap();
        assert_eq!(report.redo_commits, 1);
        assert_eq!(back.store().live(), 7);
    }

    #[test]
    fn stale_log_is_discarded_not_replayed() {
        let path = tmp("stale.tys");
        let mut ds = DurableStore::create(&path, DurableOptions::default()).unwrap();
        let a = ds.alloc(obj(1)).unwrap();
        ds.commit().unwrap();
        drop(ds);
        // Rewrite the catalog out-of-band, leaving the log in place: its
        // header now names a catalog that no longer exists.
        let mut s = Store::new();
        s.alloc(obj(99));
        let mut heap = PagedHeap::create(&path).unwrap();
        write_all_records(&mut heap, &s).unwrap();
        heap.flush().unwrap();
        heap.save_catalog(&s).unwrap();
        drop(heap);
        let (back, report) = DurableStore::open(&path, DurableOptions::default()).unwrap();
        assert!(report.stale_log);
        assert_eq!(report.redo_records, 0);
        assert_eq!(report.discarded_records, 2);
        assert_eq!(
            back.store().get(a).unwrap(),
            &obj(99),
            "the out-of-band image wins; the stale log never replays onto it"
        );
    }

    #[test]
    fn gc_through_the_log_survives_reopen() {
        let path = tmp("gc.tys");
        let mut ds = DurableStore::create(&path, DurableOptions::default()).unwrap();
        let keep = ds.alloc(obj(1)).unwrap();
        let _garbage = ds.alloc(obj(2)).unwrap();
        let _more = ds.alloc(obj(3)).unwrap();
        ds.set_root("keep", keep).unwrap();
        ds.commit().unwrap();
        let stats = ds.collect(&[]).unwrap();
        assert_eq!(stats.freed, 2);
        ds.commit().unwrap();
        let expected = snapshot::to_bytes(&ds.store);
        drop(ds);
        let (back, _) = DurableStore::open(&path, DurableOptions::default()).unwrap();
        assert_eq!(snapshot::to_bytes(&back.store), expected);
        assert_eq!(back.store().live(), 1);
    }

    #[test]
    fn append_failure_wedges_until_reopen() {
        use crate::failpoint::{Action, FailSpec, ScopedFailpoints};
        let path = tmp("wedged.tys");
        let mut ds = DurableStore::create(&path, DurableOptions::default()).unwrap();
        ds.alloc(obj(1)).unwrap();
        ds.commit().unwrap();
        // Key the spec to this store's log so concurrent tests passing
        // through wal.append are untouched.
        let wal_key = crate::cache::hash_bytes(wal_path(&path).as_os_str().as_encoded_bytes());
        let _fp =
            ScopedFailpoints::new(&[("wal.append", FailSpec::always(Action::Io).for_key(wal_key))]);
        assert!(ds.alloc(obj(2)).is_err());
        assert!(ds.is_wedged());
        assert!(ds.commit().is_err(), "wedged store refuses commits");
        drop(_fp);
        drop(ds);
        let (back, report) = DurableStore::open(&path, DurableOptions::default()).unwrap();
        assert_eq!(report.redo_commits, 1);
        assert_eq!(back.store().live(), 1, "the failed alloc never committed");
    }

    #[test]
    fn cache_contents_survive_checkpoint_and_reopen() {
        use crate::cache::{CacheEntry, CacheKey};
        let path = tmp("cache.tys");
        let mut ds = DurableStore::create(&path, DurableOptions::default()).unwrap();
        let a = ds.alloc(obj(1)).unwrap();
        ds.commit().unwrap();
        let key = CacheKey {
            ptml_hash: 11,
            binding_sig: 22,
        };
        StoreAccess::cache_insert(
            &mut ds,
            key,
            CacheEntry {
                observed: vec![(a, 0)],
                ptml: vec![1, 2],
                captures: vec![],
                size_before: 10,
                size_after: 4,
                inlined: 1,
                tick: 0,
            },
        );
        // Cache state is unlogged (it is derived data) but the checkpoint
        // catalog captures it.
        ds.checkpoint().unwrap();
        drop(ds);
        let (mut back, _) = DurableStore::open(&path, DurableOptions::default()).unwrap();
        assert!(StoreAccess::cache_lookup(&mut back, key).is_some());
    }

    #[test]
    fn recreating_an_image_leaves_no_stale_catalog_to_fall_back_to() {
        let path = tmp("recreate.tys");
        // Image A: root `a` -> [1], closed (so its catalog has a backup).
        let mut ds = DurableStore::create(&path, DurableOptions::default()).unwrap();
        let a = ds.alloc(obj(1)).unwrap();
        ds.set_root("a", a).unwrap();
        ds.commit().unwrap();
        ds.close().unwrap();
        // Store B at the same path, dropped without a second checkpoint.
        let mut b = Store::new();
        let oid = b.alloc(obj(2));
        b.set_root("b", oid);
        drop(DurableStore::from_store(b, &path, DurableOptions::default()).unwrap());
        // One flipped byte in B's primary catalog.
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        // A's catalogs indexed the destroyed generation: falling back to
        // one would yield root `a` pointing at B's record — a store that
        // never existed. The only honest answer is "unrecoverable".
        match DurableStore::open(&path, DurableOptions::default()) {
            Err(e) => assert_eq!(e.kind(), std::io::ErrorKind::InvalidData, "{e}"),
            Ok((back, report)) => panic!(
                "opened a phantom store from {:?}: roots {:?}",
                report.source,
                back.store().roots().collect::<Vec<_>>()
            ),
        }
    }
}
