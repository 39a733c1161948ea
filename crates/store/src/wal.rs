//! The write-ahead log: append-only, CRC-framed, LSN-stamped mutation
//! records with group commit.
//!
//! The store persists incrementally: mutations append redo records to
//! `<image>.wal`, and a periodic *checkpoint* writes the dirty records to
//! pages plus a fresh catalog and truncates the log ([`crate::durable`]).
//! Recovery loads the catalog (through the primary → backup → tmp chain
//! of [`crate::paged::open_catalog`]) and replays the log's committed
//! prefix.
//!
//! ## File layout
//!
//! The log is laid out in [`PAGE_SIZE`] pages (see [`crate::page`]):
//!
//! ```text
//! page 0         header: magic "TYWAL1", pad u16,
//!                base image length u64 LE, base image CRC-32 u32 LE,
//!                rest zero
//! page 1..       record stream (records span pages freely)
//! ```
//!
//! The header names the **base image identity** — byte length and whole-
//! file CRC of the checkpoint catalog this log extends. Recovery compares it
//! against the image it actually loaded; a mismatch means the log is stale
//! (it belongs to a previous checkpoint, whose image already subsumes it)
//! and it is discarded, never replayed onto the wrong base.
//!
//! ## Record framing
//!
//! ```text
//! len u32 LE | body | crc32(body) u32 LE      len = body length, > 0
//! body = varint LSN, kind u8, payload
//! ```
//!
//! A zero `len` is never a record: it marks the end of the written stream
//! within the current page. The scan then skips to the next page boundary
//! and continues — see below — so zero padding is unambiguous.
//!
//! ## Group commit and the padding rule
//!
//! Full pages are written to the OS as they fill; the partial tail page
//! lives in memory until a flush. [`Wal::commit`] appends a `Commit`
//! record and then syncs according to the [`SyncPolicy`]: every commit
//! (`Always`), every Nth commit (`GroupCommit`), or never. After every
//! *synced* flush the log advances to a fresh page, leaving zero padding.
//! The point of the padding: **synced bytes are never rewritten**, so a
//! torn rewrite of the tail page can only damage records of the commit
//! group currently in flight, never an already-durable commit. That is
//! the whole crash-safety argument, and the `wal.flush` failpoint tears
//! real tail pages in CI to hold it to account.
//!
//! ## Scanning
//!
//! [`Wal::scan`] reads the file and walks the stream in memory,
//! validating each frame's CRC and LSN monotonicity. The committed
//! prefix ends at the last valid `Commit` record; anything between there
//! and the first invalid frame is an uncommitted (or torn) suffix, which
//! recovery discards and appends later overwrite.

use crate::crc::crc32;
use crate::failpoint::{self, Action};
use crate::object::Object;
use crate::page::{Page, PageFile, PageId, PAGE_SIZE};
use crate::paged::ImageIdentity;
use crate::snapshot;
use crate::store::{Store, StoreError};
use crate::varint::{put_i64, put_str, put_u64, DecodeError, Reader};
use std::path::{Path, PathBuf};
use tml_core::Oid;

const WAL_MAGIC: &[u8; 6] = b"TYWAL1";
/// Upper bound on one record body; larger lengths mark the frame torn.
const MAX_FRAME: u64 = 1 << 28;

const REC_ALLOC: u8 = 0;
const REC_SET: u8 = 1;
const REC_FREE: u8 = 2;
const REC_SET_ROOT: u8 = 3;
const REC_REMOVE_ROOT: u8 = 4;
const REC_SET_ATTR: u8 = 5;
const REC_COMMIT: u8 = 6;
const REC_TXN_OP: u8 = 7;
const REC_TXN_COMMIT: u8 = 8;
const REC_TXN_ABORT: u8 = 9;
const REC_REMOVE_ATTR: u8 = 10;

/// The sibling `<image>.wal` of an image path.
pub fn wal_path(image: impl AsRef<Path>) -> PathBuf {
    let mut p = image.as_ref().as_os_str().to_os_string();
    p.push(".wal");
    p.into()
}

fn path_key(path: &Path) -> u64 {
    crate::cache::hash_bytes(path.as_os_str().as_encoded_bytes())
}

fn page_ceil(off: u64) -> u64 {
    off.div_ceil(PAGE_SIZE as u64) * PAGE_SIZE as u64
}

/// When the log fsyncs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyncPolicy {
    /// fsync on every commit: nothing acknowledged is ever lost.
    Always,
    /// Coalesce: fsync once every N commits. A crash can lose up to the
    /// last N-1 acknowledged-but-unsynced commits — the classic group-
    /// commit throughput trade.
    GroupCommit(u32),
    /// Never fsync (the OS flushes when it pleases). Fastest, weakest.
    Never,
}

/// One logged mutation. `Alloc`/`Set` carry full object post-images in
/// the snapshot encoding, so redo needs no knowledge of the mutation that
/// produced them.
#[derive(Debug, Clone, PartialEq)]
pub enum WalRecord {
    /// An object was allocated at `oid`.
    Alloc {
        /// The allocated OID (redo asserts it matches the store's next).
        oid: Oid,
        /// The object as allocated.
        obj: Object,
    },
    /// The object at `oid` was overwritten (post-image).
    Set {
        /// Target OID.
        oid: Oid,
        /// The full object after the mutation.
        obj: Object,
    },
    /// The object at `oid` was freed.
    Free {
        /// Freed OID.
        oid: Oid,
    },
    /// A named root was set.
    SetRoot {
        /// Root name.
        name: String,
        /// Target OID.
        oid: Oid,
    },
    /// A named root was removed.
    RemoveRoot {
        /// Root name.
        name: String,
    },
    /// A derived attribute was set.
    SetAttr {
        /// Target OID.
        oid: Oid,
        /// Attribute key.
        key: String,
        /// Attribute value.
        value: i64,
    },
    /// A derived attribute was removed (the rollback image of `SetAttr`
    /// on a previously absent key).
    RemoveAttr {
        /// Target OID.
        oid: Oid,
        /// Attribute key.
        key: String,
    },
    /// Commit marker: everything since the previous marker is atomic.
    Commit,
    /// A mutation performed inside transaction `txn`. The inner record is
    /// one of the plain mutation kinds above — never another `TxnOp` or a
    /// marker. `clr` flags a *compensating* record: an undo step written
    /// by a runtime rollback, which recovery matches against the
    /// transaction's in-memory undo list (ARIES-style).
    TxnOp {
        /// Owning transaction id.
        txn: u64,
        /// Compensating (rollback) record rather than a forward mutation.
        clr: bool,
        /// The wrapped mutation.
        op: Box<WalRecord>,
    },
    /// Transaction `txn` committed: all of its `TxnOp`s are winners.
    TxnCommit {
        /// Committing transaction id.
        txn: u64,
    },
    /// Transaction `txn` finished rolling back: all of its `TxnOp`s have
    /// matching compensations and the transaction is fully undone.
    TxnAbort {
        /// Aborted transaction id.
        txn: u64,
    },
}

impl WalRecord {
    /// Short tag for diagnostics.
    pub fn kind_name(&self) -> &'static str {
        match self {
            WalRecord::Alloc { .. } => "alloc",
            WalRecord::Set { .. } => "set",
            WalRecord::Free { .. } => "free",
            WalRecord::SetRoot { .. } => "set-root",
            WalRecord::RemoveRoot { .. } => "remove-root",
            WalRecord::SetAttr { .. } => "set-attr",
            WalRecord::RemoveAttr { .. } => "remove-attr",
            WalRecord::Commit => "commit",
            WalRecord::TxnOp { .. } => "txn-op",
            WalRecord::TxnCommit { .. } => "txn-commit",
            WalRecord::TxnAbort { .. } => "txn-abort",
        }
    }

    /// The undo record for applying `self` against the *current* state of
    /// `store` (so it must be computed before the forward mutation).
    ///
    /// `None` means there is nothing to undo: root/attr removals of
    /// absent entries, markers, and `Free` — object frees are forbidden
    /// inside transactions precisely because a tombstone cannot be
    /// resurrected through the logged entry points.
    pub fn undo_against(&self, store: &Store) -> Result<Option<WalRecord>, StoreError> {
        Ok(match self {
            WalRecord::Alloc { oid, .. } => Some(undo_for_alloc(*oid)),
            WalRecord::Set { oid, .. } => Some(undo_for_set(store, *oid)?),
            WalRecord::SetRoot { name, .. } => Some(undo_for_set_root(store, name)),
            WalRecord::RemoveRoot { name } => undo_for_remove_root(store, name),
            WalRecord::SetAttr { oid, key, .. } => Some(undo_for_set_attr(store, *oid, key)),
            WalRecord::RemoveAttr { oid, key } => undo_for_remove_attr(store, *oid, key),
            WalRecord::Free { .. }
            | WalRecord::Commit
            | WalRecord::TxnOp { .. }
            | WalRecord::TxnCommit { .. }
            | WalRecord::TxnAbort { .. } => None,
        })
    }
}

/// Undo for an allocation: free the slot (it becomes a tombstone, exactly
/// as a runtime rollback leaves it).
pub fn undo_for_alloc(oid: Oid) -> WalRecord {
    WalRecord::Free { oid }
}

/// Undo for a whole-object overwrite (or in-place mutation) of `oid`: the
/// full pre-image. Must be captured *before* the mutation.
pub fn undo_for_set(store: &Store, oid: Oid) -> Result<WalRecord, StoreError> {
    Ok(WalRecord::Set {
        oid,
        obj: store.get(oid)?.clone(),
    })
}

/// Undo for setting root `name`: restore the previous binding, or remove
/// the root if it did not exist.
pub fn undo_for_set_root(store: &Store, name: &str) -> WalRecord {
    match store.root(name) {
        Some(prev) => WalRecord::SetRoot {
            name: name.to_string(),
            oid: prev,
        },
        None => WalRecord::RemoveRoot {
            name: name.to_string(),
        },
    }
}

/// Undo for removing root `name`: restore the previous binding, nothing
/// if the root was already absent.
pub fn undo_for_remove_root(store: &Store, name: &str) -> Option<WalRecord> {
    store.root(name).map(|prev| WalRecord::SetRoot {
        name: name.to_string(),
        oid: prev,
    })
}

/// Undo for setting attribute `key` on `oid`: restore the previous value,
/// or remove the attribute if it was absent.
pub fn undo_for_set_attr(store: &Store, oid: Oid, key: &str) -> WalRecord {
    match store.attr(oid, key) {
        Some(prev) => WalRecord::SetAttr {
            oid,
            key: key.to_string(),
            value: prev,
        },
        None => WalRecord::RemoveAttr {
            oid,
            key: key.to_string(),
        },
    }
}

/// Undo for removing attribute `key` on `oid`: restore the previous
/// value, nothing if it was already absent.
pub fn undo_for_remove_attr(store: &Store, oid: Oid, key: &str) -> Option<WalRecord> {
    store.attr(oid, key).map(|prev| WalRecord::SetAttr {
        oid,
        key: key.to_string(),
        value: prev,
    })
}

fn encode_op(body: &mut Vec<u8>, rec: &WalRecord) {
    match rec {
        WalRecord::Alloc { oid, obj } => {
            body.push(REC_ALLOC);
            put_u64(body, oid.0);
            snapshot::put_object(body, obj);
        }
        WalRecord::Set { oid, obj } => {
            body.push(REC_SET);
            put_u64(body, oid.0);
            snapshot::put_object(body, obj);
        }
        WalRecord::Free { oid } => {
            body.push(REC_FREE);
            put_u64(body, oid.0);
        }
        WalRecord::SetRoot { name, oid } => {
            body.push(REC_SET_ROOT);
            put_str(body, name);
            put_u64(body, oid.0);
        }
        WalRecord::RemoveRoot { name } => {
            body.push(REC_REMOVE_ROOT);
            put_str(body, name);
        }
        WalRecord::SetAttr { oid, key, value } => {
            body.push(REC_SET_ATTR);
            put_u64(body, oid.0);
            put_str(body, key);
            put_i64(body, *value);
        }
        WalRecord::RemoveAttr { oid, key } => {
            body.push(REC_REMOVE_ATTR);
            put_u64(body, oid.0);
            put_str(body, key);
        }
        WalRecord::Commit => body.push(REC_COMMIT),
        WalRecord::TxnOp { txn, clr, op } => {
            body.push(REC_TXN_OP);
            put_u64(body, *txn);
            body.push(u8::from(*clr));
            encode_op(body, op);
        }
        WalRecord::TxnCommit { txn } => {
            body.push(REC_TXN_COMMIT);
            put_u64(body, *txn);
        }
        WalRecord::TxnAbort { txn } => {
            body.push(REC_TXN_ABORT);
            put_u64(body, *txn);
        }
    }
}

fn encode_body(lsn: u64, rec: &WalRecord) -> Vec<u8> {
    let mut body = Vec::new();
    put_u64(&mut body, lsn);
    encode_op(&mut body, rec);
    body
}

/// Decode one record. `top` is false inside a `TxnOp` wrapper, where only
/// plain mutation kinds are legal — nesting and markers are rejected, so
/// adversarial bytes cannot recurse unboundedly.
fn decode_op(r: &mut Reader, top: bool) -> Result<WalRecord, DecodeError> {
    let tag = r.byte()?;
    if !top
        && matches!(
            tag,
            REC_COMMIT | REC_TXN_OP | REC_TXN_COMMIT | REC_TXN_ABORT
        )
    {
        return Err(DecodeError::BadTag(tag));
    }
    Ok(match tag {
        REC_ALLOC => WalRecord::Alloc {
            oid: Oid(r.u64()?),
            obj: snapshot::get_object(r)?,
        },
        REC_SET => WalRecord::Set {
            oid: Oid(r.u64()?),
            obj: snapshot::get_object(r)?,
        },
        REC_FREE => WalRecord::Free { oid: Oid(r.u64()?) },
        REC_SET_ROOT => WalRecord::SetRoot {
            name: r.str()?.to_string(),
            oid: Oid(r.u64()?),
        },
        REC_REMOVE_ROOT => WalRecord::RemoveRoot {
            name: r.str()?.to_string(),
        },
        REC_SET_ATTR => WalRecord::SetAttr {
            oid: Oid(r.u64()?),
            key: r.str()?.to_string(),
            value: r.i64()?,
        },
        REC_REMOVE_ATTR => WalRecord::RemoveAttr {
            oid: Oid(r.u64()?),
            key: r.str()?.to_string(),
        },
        REC_COMMIT => WalRecord::Commit,
        REC_TXN_OP => WalRecord::TxnOp {
            txn: r.u64()?,
            clr: r.byte()? != 0,
            op: Box::new(decode_op(r, false)?),
        },
        REC_TXN_COMMIT => WalRecord::TxnCommit { txn: r.u64()? },
        REC_TXN_ABORT => WalRecord::TxnAbort { txn: r.u64()? },
        t => return Err(DecodeError::BadTag(t)),
    })
}

fn decode_body(body: &[u8]) -> Result<(u64, WalRecord), DecodeError> {
    let mut r = Reader::new(body);
    let lsn = r.u64()?;
    let rec = decode_op(&mut r, true)?;
    if !r.is_at_end() {
        return Err(DecodeError::Truncated);
    }
    Ok((lsn, rec))
}

fn frame(lsn: u64, rec: &WalRecord) -> Vec<u8> {
    let body = encode_body(lsn, rec);
    let mut out = Vec::with_capacity(body.len() + 8);
    out.extend_from_slice(&(body.len() as u32).to_le_bytes());
    out.extend_from_slice(&body);
    out.extend_from_slice(&crc32(&body).to_le_bytes());
    out
}

fn header_page(base: ImageIdentity) -> Page {
    let mut p = Page::new();
    let b = p.bytes_mut();
    b[..6].copy_from_slice(WAL_MAGIC);
    b[8..16].copy_from_slice(&base.len.to_le_bytes());
    b[16..20].copy_from_slice(&base.crc.to_le_bytes());
    p
}

fn parse_header(page: &Page) -> Option<ImageIdentity> {
    let b = page.bytes();
    if &b[..6] != WAL_MAGIC {
        return None;
    }
    Some(ImageIdentity {
        len: u64::from_le_bytes(b[8..16].try_into().ok()?),
        crc: u32::from_le_bytes(b[16..20].try_into().ok()?),
    })
}

/// The result of walking a log file: every decodable record, where the
/// committed prefix ends, and what state the tail was in.
#[derive(Debug, PartialEq)]
pub struct LogScan {
    /// Whether a log file existed at all.
    pub exists: bool,
    /// The base image identity from the header; `None` when the header is
    /// missing or unreadable (the log is then unusable).
    pub base: Option<ImageIdentity>,
    /// All validly framed records, in LSN order.
    pub records: Vec<(u64, WalRecord)>,
    /// Number of leading `records` that are covered by a `Commit` marker
    /// (the redo set; the marker itself is included in the count).
    pub committed: usize,
    /// File offset one past the last committed record's frame.
    pub committed_end: u64,
    /// The LSN to stamp on the next appended record.
    pub next_lsn: u64,
    /// `Commit` markers seen in the committed prefix.
    pub commits: u64,
    /// The stream ended on garbage (bad CRC, bad frame, non-zero padding)
    /// rather than clean zeros or EOF. Recovery truncates this tail;
    /// `tmlc fsck` reports it.
    pub torn_tail: bool,
    /// Total log file size in bytes.
    pub file_bytes: u64,
}

impl LogScan {
    fn empty() -> LogScan {
        LogScan {
            exists: false,
            base: None,
            records: Vec::new(),
            committed: 0,
            committed_end: PAGE_SIZE as u64,
            next_lsn: 1,
            commits: 0,
            torn_tail: false,
            file_bytes: 0,
        }
    }
}

/// Walk a whole log file held in memory: the header page, then the
/// record stream. Never panics, whatever the bytes.
fn scan_bytes(bytes: &[u8]) -> LogScan {
    let mut out = LogScan::empty();
    out.exists = true;
    out.file_bytes = bytes.len() as u64;
    if bytes.is_empty() {
        return out;
    }
    out.base = parse_header(&Page::from_bytes(bytes));
    if out.base.is_none() {
        // No trustworthy header: nothing in the stream can be used.
        out.torn_tail = true;
        return out;
    }
    // Pages past EOF read as zeros: pad the stream to a page multiple.
    let mut stream = bytes[PAGE_SIZE.min(bytes.len())..].to_vec();
    stream.resize(stream.len().next_multiple_of(PAGE_SIZE), 0);
    scan_stream(&stream, &mut out);
    out
}

/// Walk the record stream. `stream` is the file contents from page 1 on,
/// zero-padded to a page multiple. Never panics, whatever the bytes.
fn scan_stream(stream: &[u8], out: &mut LogScan) {
    let page = PAGE_SIZE as u64;
    let mut off = 0u64;
    let mut last_lsn = 0u64;
    loop {
        let at = off as usize;
        if at + 4 > stream.len() {
            break; // clean end at EOF
        }
        let len = u64::from(u32::from_le_bytes(stream[at..at + 4].try_into().unwrap()));
        if len == 0 {
            // Zeros: padding up to the next page boundary, or the end of
            // the stream. A zero length at a page start is the end (fresh
            // pages always begin with a record frame).
            if off.is_multiple_of(page) {
                if stream[at..].iter().any(|&b| b != 0) {
                    out.torn_tail = true;
                }
                break;
            }
            let next = page_ceil(off + 1);
            let pad_end = (next as usize).min(stream.len());
            if stream[at..pad_end].iter().any(|&b| b != 0) {
                out.torn_tail = true;
                break;
            }
            if next as usize >= stream.len() {
                break;
            }
            off = next;
            continue;
        }
        if len > MAX_FRAME || at + 4 + len as usize + 4 > stream.len() {
            out.torn_tail = true;
            break;
        }
        let body = &stream[at + 4..at + 4 + len as usize];
        let stored = u32::from_le_bytes(
            stream[at + 4 + len as usize..at + 8 + len as usize]
                .try_into()
                .unwrap(),
        );
        if stored != crc32(body) {
            out.torn_tail = true;
            break;
        }
        let Ok((lsn, rec)) = decode_body(body) else {
            out.torn_tail = true;
            break;
        };
        if lsn <= last_lsn {
            out.torn_tail = true;
            break;
        }
        last_lsn = lsn;
        off += 4 + len + 4;
        let is_commit = rec == WalRecord::Commit;
        out.records.push((lsn, rec));
        if is_commit {
            out.committed = out.records.len();
            out.committed_end = PAGE_SIZE as u64 + off;
            out.commits += 1;
        }
    }
    out.next_lsn = out
        .records
        .get(out.committed.wrapping_sub(1))
        .map_or(1, |(lsn, _)| lsn + 1);
}

/// Running totals the log reports to `tmlc info` via trace gauges.
#[derive(Debug, Clone, Copy, Default)]
pub struct WalStats {
    /// Records appended (commit markers included).
    pub appends: u64,
    /// Bytes of framed records appended.
    pub append_bytes: u64,
    /// Commit markers appended.
    pub commits: u64,
    /// Tail-page flushes.
    pub flushes: u64,
    /// fsyncs issued.
    pub syncs: u64,
}

/// An open write-ahead log positioned for appending.
#[derive(Debug)]
pub struct Wal {
    file: PageFile,
    key: u64,
    policy: SyncPolicy,
    /// File offset where the next appended byte lands.
    end: u64,
    /// In-memory image of the (partial) tail page.
    cur: Page,
    next_lsn: u64,
    unsynced_commits: u32,
    stats: WalStats,
}

impl Wal {
    /// Create (or reset) the log at `path`, recording `base` as the
    /// checkpoint image identity it extends. Truncates any previous
    /// contents; syncs the header before returning.
    pub fn create(path: impl AsRef<Path>, base: ImageIdentity) -> std::io::Result<Wal> {
        let path = path.as_ref();
        let key = path_key(path);
        let mut file = PageFile::open(path)?;
        file.set_len(0)?;
        file.write_page(PageId(0), &header_page(base))?;
        file.sync()?;
        Ok(Wal {
            file,
            key,
            policy: SyncPolicy::Always,
            end: PAGE_SIZE as u64,
            cur: Page::new(),
            next_lsn: 1,
            unsynced_commits: 0,
            stats: WalStats::default(),
        })
    }

    /// Reopen the log for appending after a [`Wal::scan`]: truncates the
    /// uncommitted/torn suffix and positions at a fresh page past the
    /// committed prefix.
    pub fn resume(path: impl AsRef<Path>, scan: &LogScan) -> std::io::Result<Wal> {
        let path = path.as_ref();
        let key = path_key(path);
        let mut file = PageFile::open(path)?;
        // Drop the discarded suffix physically so the next scan is clean;
        // appends resume on the next page boundary (never rewriting a
        // synced byte), with the gap reading back as zero padding.
        file.set_len(scan.committed_end)?;
        file.sync()?;
        Ok(Wal {
            file,
            key,
            policy: SyncPolicy::Always,
            end: page_ceil(scan.committed_end),
            cur: Page::new(),
            next_lsn: scan.next_lsn,
            unsynced_commits: 0,
            stats: WalStats::default(),
        })
    }

    /// Set the commit sync policy.
    pub fn with_policy(mut self, policy: SyncPolicy) -> Wal {
        self.policy = policy;
        self
    }

    /// Walk the log at `path`. Missing file → an empty scan with
    /// `exists: false`. IO errors reading the file do propagate; corrupt
    /// *contents* never error and never panic — they end the scan.
    pub fn scan(path: impl AsRef<Path>) -> std::io::Result<LogScan> {
        let path = path.as_ref();
        if !path.exists() {
            return Ok(LogScan::empty());
        }
        let out = scan_bytes(&std::fs::read(path)?);
        if tml_trace::enabled() {
            tml_trace::count("store.wal.scans", 1);
            tml_trace::count("store.wal.scan_bytes", out.file_bytes);
        }
        Ok(out)
    }

    /// The LSN the next appended record will carry.
    pub fn next_lsn(&self) -> u64 {
        self.next_lsn
    }

    /// File offset of the next appended byte (header page included).
    pub fn end_offset(&self) -> u64 {
        self.end
    }

    /// Totals since this handle was opened.
    pub fn stats(&self) -> WalStats {
        self.stats
    }

    /// Append one record. Full pages stream to the OS as they fill; the
    /// record is *not* durable until a synced flush (see [`Wal::commit`]).
    /// Returns the record's LSN.
    pub fn append(&mut self, rec: &WalRecord) -> std::io::Result<u64> {
        failpoint::fail_io("wal.append", self.key)?;
        // Appends are too hot for span events; they feed the latency
        // histogram directly (and only when tracing is on).
        let t0 = if tml_trace::enabled() {
            tml_trace::global().clock().now_ns()
        } else {
            0
        };
        let lsn = self.next_lsn;
        let bytes = frame(lsn, rec);
        let mut rest: &[u8] = &bytes;
        while !rest.is_empty() {
            let off = (self.end % PAGE_SIZE as u64) as usize;
            let n = (PAGE_SIZE - off).min(rest.len());
            self.cur.bytes_mut()[off..off + n].copy_from_slice(&rest[..n]);
            rest = &rest[n..];
            self.end += n as u64;
            if self.end.is_multiple_of(PAGE_SIZE as u64) {
                // Page filled: push it to the OS and start a fresh one.
                let id = PageId(self.end / PAGE_SIZE as u64 - 1);
                self.file.write_page(id, &self.cur)?;
                self.cur = Page::new();
            }
        }
        self.next_lsn += 1;
        self.stats.appends += 1;
        self.stats.append_bytes += bytes.len() as u64;
        if tml_trace::enabled() {
            tml_trace::count("store.wal.appends", 1);
            tml_trace::count("store.wal.append_bytes", bytes.len() as u64);
            let rec = tml_trace::global();
            rec.record_ns("store.wal.append", rec.clock().now_ns().saturating_sub(t0));
        }
        Ok(lsn)
    }

    /// Append a `Commit` marker and sync according to policy. Returns
    /// `true` when the commit is durable on return (synced), `false` when
    /// it rides a later group-commit flush.
    pub fn commit(&mut self) -> std::io::Result<bool> {
        self.append(&WalRecord::Commit)?;
        self.stats.commits += 1;
        self.unsynced_commits += 1;
        if tml_trace::enabled() {
            tml_trace::count("store.wal.commits", 1);
        }
        let sync = match self.policy {
            SyncPolicy::Always => true,
            SyncPolicy::GroupCommit(n) => self.unsynced_commits >= n.max(1),
            SyncPolicy::Never => false,
        };
        if sync {
            let _s = tml_trace::span!("store.wal.commit_flush");
            self.flush(true)?;
            Ok(true)
        } else if self.policy == SyncPolicy::Never {
            // Push bytes to the OS without paying for an fsync.
            self.flush(false)?;
            Ok(false)
        } else {
            Ok(false)
        }
    }

    /// Write the partial tail page to the OS and optionally fsync. After
    /// a synced flush the log advances to a fresh page (the padding rule:
    /// synced bytes are never rewritten).
    ///
    /// The `wal.flush` failpoint injects real torn writes here: the page
    /// image that reaches the disk is truncated or bit-flipped while the
    /// in-memory state stays intact, exactly like a kernel tearing a
    /// write under power loss.
    pub fn flush(&mut self, sync: bool) -> std::io::Result<()> {
        let t0 = if tml_trace::enabled() {
            tml_trace::global().clock().now_ns()
        } else {
            0
        };
        let tail = (self.end % PAGE_SIZE as u64) as usize;
        if tail != 0 {
            let id = PageId(self.end / PAGE_SIZE as u64);
            match failpoint::check("wal.flush", self.key) {
                Some((Action::Io, _)) => {
                    return Err(std::io::Error::other(
                        "failpoint wal.flush: injected IO error",
                    ));
                }
                Some((action, seed)) => {
                    let mut bytes = self.cur.bytes()[..].to_vec();
                    failpoint::apply_corruption(action, seed, &mut bytes);
                    self.file.write_page_prefix(id, &bytes)?;
                }
                None => self.file.write_page(id, &self.cur)?,
            }
        }
        self.stats.flushes += 1;
        if tml_trace::enabled() {
            tml_trace::count("store.wal.flushes", 1);
        }
        if sync {
            self.file.sync()?;
            self.stats.syncs += 1;
            let group = u64::from(self.unsynced_commits);
            self.unsynced_commits = 0;
            if tail != 0 {
                // Advance to a fresh page; the tail of the synced page
                // stays zero on disk and scans as padding.
                self.end = page_ceil(self.end);
                self.cur = Page::new();
            }
            if tml_trace::enabled() {
                tml_trace::count("store.wal.syncs", 1);
                let rec = tml_trace::global();
                tml_trace::record(tml_trace::Event::Wal {
                    op: "flush",
                    lsn: self.next_lsn.saturating_sub(1),
                    bytes: self.end,
                    records: group,
                    micros: rec.clock().now_ns().saturating_sub(t0) / 1_000,
                });
            }
        }
        Ok(())
    }

    /// Truncate everything and restart the log over a new checkpoint
    /// image. Any crash window inside the reset leaves an invalid or
    /// empty header, which recovery treats as "no log" — correct, because
    /// the checkpoint image already contains every logged mutation.
    pub fn reset(&mut self, base: ImageIdentity) -> std::io::Result<()> {
        self.file.set_len(0)?;
        self.file.write_page(PageId(0), &header_page(base))?;
        self.file.sync()?;
        self.end = PAGE_SIZE as u64;
        self.cur = Page::new();
        self.next_lsn = 1;
        self.unsynced_commits = 0;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sval::SVal;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("tml_store_wal_test");
        std::fs::create_dir_all(&dir).unwrap();
        let p = dir.join(name);
        std::fs::remove_file(&p).ok();
        p
    }

    fn base() -> ImageIdentity {
        ImageIdentity { len: 123, crc: 456 }
    }

    fn obj(n: i64) -> Object {
        Object::Array(vec![SVal::Int(n)])
    }

    #[test]
    fn record_bodies_roundtrip() {
        let recs = [
            WalRecord::Alloc {
                oid: Oid(3),
                obj: obj(7),
            },
            WalRecord::Set {
                oid: Oid(9),
                obj: Object::ByteArray(vec![1, 2, 3]),
            },
            WalRecord::Free { oid: Oid(2) },
            WalRecord::SetRoot {
                name: "main".into(),
                oid: Oid(5),
            },
            WalRecord::RemoveRoot { name: "old".into() },
            WalRecord::SetAttr {
                oid: Oid(4),
                key: "cost".into(),
                value: -17,
            },
            WalRecord::RemoveAttr {
                oid: Oid(4),
                key: "cost".into(),
            },
            WalRecord::Commit,
            WalRecord::TxnOp {
                txn: 12,
                clr: false,
                op: Box::new(WalRecord::Set {
                    oid: Oid(9),
                    obj: obj(3),
                }),
            },
            WalRecord::TxnOp {
                txn: 12,
                clr: true,
                op: Box::new(WalRecord::RemoveRoot { name: "r".into() }),
            },
            WalRecord::TxnCommit { txn: 12 },
            WalRecord::TxnAbort { txn: 13 },
        ];
        for (i, rec) in recs.iter().enumerate() {
            let body = encode_body(i as u64 + 1, rec);
            let (lsn, back) = decode_body(&body).unwrap();
            assert_eq!(lsn, i as u64 + 1);
            assert_eq!(&back, rec);
        }
    }

    #[test]
    fn nested_txn_wrappers_are_rejected() {
        // A TxnOp may only wrap a plain mutation: markers and further
        // wrappers are illegal bytes, not recursion fuel.
        for inner in [
            WalRecord::Commit,
            WalRecord::TxnCommit { txn: 1 },
            WalRecord::TxnOp {
                txn: 1,
                clr: false,
                op: Box::new(WalRecord::Free { oid: Oid(1) }),
            },
        ] {
            let bad = WalRecord::TxnOp {
                txn: 2,
                clr: false,
                op: Box::new(inner),
            };
            let body = encode_body(1, &bad);
            assert!(matches!(decode_body(&body), Err(DecodeError::BadTag(_))));
        }
    }

    #[test]
    fn undo_records_invert_their_forward_ops() {
        use crate::store::Store;
        let mut s = Store::new();
        let a = s.alloc(obj(1));
        s.set_root("r", a);
        s.set_attr(a, "cost", 5);

        // Set: undo is the full pre-image.
        let fwd = WalRecord::Set {
            oid: a,
            obj: obj(2),
        };
        let undo = fwd.undo_against(&s).unwrap().unwrap();
        assert_eq!(
            undo,
            WalRecord::Set {
                oid: a,
                obj: obj(1)
            }
        );

        // SetRoot over an existing binding restores it; over a fresh name
        // it removes the root.
        let fwd = WalRecord::SetRoot {
            name: "r".into(),
            oid: Oid(99),
        };
        assert_eq!(
            fwd.undo_against(&s).unwrap().unwrap(),
            WalRecord::SetRoot {
                name: "r".into(),
                oid: a
            }
        );
        let fwd = WalRecord::SetRoot {
            name: "fresh".into(),
            oid: Oid(99),
        };
        assert_eq!(
            fwd.undo_against(&s).unwrap().unwrap(),
            WalRecord::RemoveRoot {
                name: "fresh".into()
            }
        );

        // Attr set/remove mirror the root rules.
        let fwd = WalRecord::SetAttr {
            oid: a,
            key: "cost".into(),
            value: 9,
        };
        assert_eq!(
            fwd.undo_against(&s).unwrap().unwrap(),
            WalRecord::SetAttr {
                oid: a,
                key: "cost".into(),
                value: 5
            }
        );
        let fwd = WalRecord::SetAttr {
            oid: a,
            key: "new".into(),
            value: 9,
        };
        assert_eq!(
            fwd.undo_against(&s).unwrap().unwrap(),
            WalRecord::RemoveAttr {
                oid: a,
                key: "new".into()
            }
        );
        let fwd = WalRecord::RemoveAttr {
            oid: a,
            key: "absent".into(),
        };
        assert_eq!(fwd.undo_against(&s).unwrap(), None);

        // Alloc undoes to a tombstoning free; frees themselves have no
        // undo (they are banned inside transactions).
        let fwd = WalRecord::Alloc {
            oid: Oid(7),
            obj: obj(0),
        };
        assert_eq!(
            fwd.undo_against(&s).unwrap().unwrap(),
            WalRecord::Free { oid: Oid(7) }
        );
        assert_eq!(WalRecord::Free { oid: a }.undo_against(&s).unwrap(), None);
    }

    #[test]
    fn append_scan_roundtrip_with_commit_prefix() {
        let path = tmp("roundtrip.wal");
        let mut wal = Wal::create(&path, base()).unwrap();
        wal.append(&WalRecord::Alloc {
            oid: Oid(1),
            obj: obj(1),
        })
        .unwrap();
        wal.append(&WalRecord::SetRoot {
            name: "r".into(),
            oid: Oid(1),
        })
        .unwrap();
        assert!(wal.commit().unwrap());
        // Uncommitted suffix: appended but never committed.
        wal.append(&WalRecord::Free { oid: Oid(1) }).unwrap();
        wal.flush(true).unwrap();
        let scan = Wal::scan(&path).unwrap();
        assert_eq!(scan.base, Some(base()));
        assert_eq!(scan.records.len(), 4);
        assert_eq!(scan.committed, 3, "prefix ends at the commit marker");
        assert_eq!(scan.commits, 1);
        assert!(!scan.torn_tail);
        assert_eq!(scan.next_lsn, 4);
    }

    #[test]
    fn large_records_span_pages() {
        let path = tmp("span.wal");
        let mut wal = Wal::create(&path, base()).unwrap();
        let big = Object::ByteArray((0..3 * PAGE_SIZE).map(|i| i as u8).collect());
        for i in 0..4 {
            wal.append(&WalRecord::Set {
                oid: Oid(i),
                obj: big.clone(),
            })
            .unwrap();
            wal.commit().unwrap();
        }
        let scan = Wal::scan(&path).unwrap();
        assert_eq!(scan.committed, 8);
        assert!(!scan.torn_tail);
        let back = scan
            .records
            .iter()
            .find_map(|(_, r)| match r {
                WalRecord::Set { oid, obj } if *oid == Oid(2) => Some(obj.clone()),
                _ => None,
            })
            .unwrap();
        assert_eq!(back, big);
    }

    #[test]
    fn resume_continues_after_committed_prefix() {
        let path = tmp("resume.wal");
        let mut wal = Wal::create(&path, base()).unwrap();
        wal.append(&WalRecord::Alloc {
            oid: Oid(1),
            obj: obj(1),
        })
        .unwrap();
        wal.commit().unwrap();
        drop(wal);
        let scan = Wal::scan(&path).unwrap();
        let mut wal = Wal::resume(&path, &scan).unwrap();
        assert_eq!(wal.next_lsn(), scan.next_lsn);
        wal.append(&WalRecord::SetRoot {
            name: "r".into(),
            oid: Oid(1),
        })
        .unwrap();
        wal.commit().unwrap();
        let scan2 = Wal::scan(&path).unwrap();
        assert_eq!(scan2.committed, 4);
        assert_eq!(scan2.commits, 2);
        assert!(!scan2.torn_tail);
    }

    #[test]
    fn torn_tail_is_detected_and_resume_truncates_it() {
        let path = tmp("torn.wal");
        let mut wal = Wal::create(&path, base()).unwrap();
        wal.append(&WalRecord::Alloc {
            oid: Oid(1),
            obj: obj(1),
        })
        .unwrap();
        wal.commit().unwrap();
        let committed_len = std::fs::metadata(&path).unwrap().len();
        drop(wal);
        // A torn append: frame header promising more bytes than exist.
        use std::io::Write;
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(&path)
            .unwrap();
        // The committed page was padded; garbage starts on the next page.
        f.write_all(&vec![
            0u8;
            (page_ceil(committed_len) - committed_len) as usize
        ])
        .unwrap();
        f.write_all(&500u32.to_le_bytes()).unwrap();
        f.write_all(&[0xab; 20]).unwrap();
        drop(f);
        let scan = Wal::scan(&path).unwrap();
        assert!(scan.torn_tail);
        assert_eq!(scan.committed, 2, "committed prefix unaffected");
        let mut wal = Wal::resume(&path, &scan).unwrap();
        wal.append(&WalRecord::Free { oid: Oid(1) }).unwrap();
        wal.commit().unwrap();
        let scan2 = Wal::scan(&path).unwrap();
        assert!(!scan2.torn_tail, "resume truncated the torn tail");
        assert_eq!(scan2.committed, 4);
    }

    #[test]
    fn group_commit_syncs_every_nth() {
        let path = tmp("group.wal");
        let mut wal = Wal::create(&path, base())
            .unwrap()
            .with_policy(SyncPolicy::GroupCommit(3));
        let mut synced = Vec::new();
        for i in 0..7 {
            wal.append(&WalRecord::Free { oid: Oid(i) }).unwrap();
            synced.push(wal.commit().unwrap());
        }
        assert_eq!(
            synced,
            vec![false, false, true, false, false, true, false],
            "every third commit syncs"
        );
        assert_eq!(wal.stats().syncs, 2);
        assert_eq!(wal.stats().commits, 7);
    }

    #[test]
    fn reset_truncates_and_rewrites_header() {
        let path = tmp("reset.wal");
        let mut wal = Wal::create(&path, base()).unwrap();
        for i in 0..10 {
            wal.append(&WalRecord::Free { oid: Oid(i) }).unwrap();
            wal.commit().unwrap();
        }
        let new_base = ImageIdentity { len: 777, crc: 888 };
        wal.reset(new_base).unwrap();
        let scan = Wal::scan(&path).unwrap();
        assert_eq!(scan.base, Some(new_base));
        assert!(scan.records.is_empty());
        assert_eq!(scan.file_bytes, PAGE_SIZE as u64);
        assert_eq!(wal.next_lsn(), 1);
    }

    #[test]
    fn scan_of_missing_or_headerless_file_is_sane() {
        let missing = tmp("missing.wal");
        let scan = Wal::scan(&missing).unwrap();
        assert!(!scan.exists);
        assert!(scan.base.is_none());
        let garbage = tmp("garbage.wal");
        std::fs::write(&garbage, b"not a wal at all").unwrap();
        let scan = Wal::scan(&garbage).unwrap();
        assert!(scan.exists);
        assert!(scan.base.is_none());
        assert!(scan.torn_tail);
    }

    #[test]
    fn every_byte_corruption_of_a_segment_never_panics() {
        // The corruption sweep the snapshot format gets, applied to a log
        // segment: flip every byte, truncate at every length. The scan
        // must never panic and the committed prefix must never exceed
        // what the intact log held.
        let path = tmp("sweep.wal");
        let mut wal = Wal::create(&path, base()).unwrap();
        for i in 0..6 {
            wal.append(&WalRecord::Alloc {
                oid: Oid(i + 1),
                obj: obj(i as i64),
            })
            .unwrap();
            if i % 2 == 1 {
                wal.commit().unwrap();
            }
        }
        wal.flush(true).unwrap();
        drop(wal);
        let pristine = std::fs::read(&path).unwrap();
        let full = Wal::scan(&path).unwrap();
        assert_eq!(full, scan_bytes(&pristine));
        assert_eq!(full.commits, 3);
        // The sweep runs in memory; one damaged file checks that the file
        // path scans exactly the same bytes.
        let sweep = tmp("sweep_victim.wal");
        let mut damaged = pristine.clone();
        damaged[PAGE_SIZE + 10] ^= 0xff;
        std::fs::write(&sweep, &damaged).unwrap();
        assert_eq!(Wal::scan(&sweep).unwrap(), scan_bytes(&damaged));
        for pos in 0..pristine.len() {
            let mut bytes = pristine.clone();
            bytes[pos] ^= 0xff;
            let scan = scan_bytes(&bytes);
            assert!(
                scan.committed <= full.committed,
                "flip at {pos} grew the committed prefix"
            );
        }
        for cut in 0..pristine.len() {
            let scan = scan_bytes(&pristine[..cut]);
            assert!(scan.committed <= full.committed);
        }
    }
}
