//! Paged object storage for the durable store: object records on slotted
//! pages behind the buffer pool, addressed by a small catalog file.
//!
//! This is the one on-disk image format. The image path holds a **TYCAT2
//! catalog** — the OID → page
//! location directory plus the store's small sections (roots, attributes,
//! versions, optimization cache) — while object bytes live on 4 KiB
//! slotted pages in a sibling *generation file* `<image>.p<gen>`. A
//! checkpoint therefore writes only the records that changed since the
//! last one (the dirty set) plus one small catalog, instead of
//! re-serializing the whole world.
//!
//! A TYCAT1 catalog (the format before cache entries stopped carrying
//! compiled code) still opens, with an empty optimization cache: the
//! cache is derived data, and the next optimization refills it.
//!
//! ## Record layout
//!
//! A record is exactly the TYSTO3 object encoding
//! ([`snapshot::put_object`]). Records up to [`INLINE_MAX`] bytes live in
//! a slotted page ([`Page::insert_record`]); larger records spill into an
//! **overflow chain** of whole pages, each laid out as
//!
//! ```text
//! | next page id u64 LE | payload (PAGE_SIZE - 8 bytes) |
//! ```
//!
//! with `u64::MAX` terminating the chain.
//!
//! ## Crash safety: fresh pages only
//!
//! The load-bearing invariant: **a checkpoint writes records only into
//! pages the current on-disk catalog does not reference** (page ids at or
//! past the catalog's `next_page` watermark). Superseded locations become
//! dead space instead of being rewritten, so a crash mid-checkpoint can
//! never damage a page the old catalog — still the authoritative one
//! until its atomic replacement — points into.
//!
//! ## The catalog writer
//!
//! The catalog is the only store file written whole, and
//! `write_bytes_atomic` writes it crash-safely: write `<image>.tmp`,
//! fsync, rotate the previous catalog to `<image>.bak`, rename, fsync the
//! directory. Every step carries a `catalog.save.*` failpoint site keyed
//! by the image path. A crash at any step leaves a decodable catalog at
//! the primary path, at `.bak`, or — between the rotation and the rename —
//! complete at `.tmp`; [`open_catalog`] tries them in that order (the
//! one recovery chain, [`RecoverySource`]). The catalog's file identity
//! ([`ImageIdentity`]) is what the WAL header binds to.
//!
//! Dead space is reclaimed by **generation compaction**: when it
//! outweighs the live bytes, the checkpoint rewrites every live record
//! into `<image>.p<gen+1>` and the old generation file is deleted after
//! the new catalog lands.

use crate::attr::AttrTable;
use crate::buffer::{BufferPool, BufferStats};
use crate::cache::OptCache;
use crate::crc::{crc32, Crc32};
use crate::failpoint;
use crate::object::Object;
use crate::page::{PageFile, PageId, PAGE_SIZE};
use crate::snapshot;
use crate::store::Store;
use crate::varint::{put_u64, DecodeError, Reader};
use std::collections::BTreeMap;
use std::io::Write;
use std::path::{Path, PathBuf};
use tml_core::Oid;

const MAGIC: &[u8; 6] = b"TYCAT2";

/// Largest record stored inline in a slotted page (one fresh page minus
/// the page header and one slot entry); larger records chain.
pub const INLINE_MAX: usize = PAGE_SIZE - 8;

/// Payload bytes per overflow-chain page (the first 8 hold the next id).
const CHAIN_PAYLOAD: usize = PAGE_SIZE - 8;

/// Buffer-pool frames. Deliberately modest so large checkpoints actually
/// exercise eviction and write-back.
const POOL_CAP: usize = 64;

/// Compaction trigger: dead bytes must exceed both this floor and the
/// live bytes before a checkpoint rewrites the generation.
const COMPACT_MIN_DEAD: u64 = 256 * 1024;

/// Where an object's record lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Location {
    /// A slotted record within one page.
    Inline { page: u64, slot: u16, len: u32 },
    /// An overflow chain starting at `first`, holding `len` record bytes.
    Chain { first: u64, len: u64 },
}

impl Location {
    fn len(&self) -> u64 {
        match self {
            Location::Inline { len, .. } => *len as u64,
            Location::Chain { len, .. } => *len,
        }
    }
}

/// Page-side footprint counters (reported by `tmlc info` / `tmlc fsck`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PageStats {
    /// Current generation number.
    pub gen: u64,
    /// Pages allocated in the current generation (the fresh-page watermark).
    pub pages: u64,
    /// Objects with a page-resident record.
    pub dir_entries: u64,
    /// Objects whose record spills into an overflow chain.
    pub chains: u64,
    /// Bytes of record data the catalog references.
    pub live_bytes: u64,
    /// Bytes written to the generation file no longer referenced.
    pub dead_bytes: u64,
    /// Buffer-pool frames currently resident.
    pub resident: u64,
}

/// The paged object heap: one generation file of slotted pages behind a
/// buffer pool, plus the OID directory destined for the catalog.
#[derive(Debug)]
pub struct PagedHeap {
    path: PathBuf,
    key: u64,
    file: PageFile,
    pool: BufferPool,
    prior_pool_stats: BufferStats,
    dir: BTreeMap<Oid, Location>,
    gen: u64,
    next_page: u64,
    /// The page currently being filled with inline records (this
    /// checkpoint only; reset at flush so catalog-referenced pages are
    /// never appended to).
    fill: Option<u64>,
    live_bytes: u64,
    dead_bytes: u64,
}

fn gen_path(path: &Path, gen: u64) -> PathBuf {
    sibling(path, &format!(".p{gen}"))
}

fn path_key(path: &Path) -> u64 {
    crate::cache::hash_bytes(path.as_os_str().as_encoded_bytes())
}

/// Best-effort removal of generation files other than `keep` (all of
/// them when `keep` is `None`): strays left by a crashed compaction or a
/// superseded store.
fn remove_stray_gens(path: &Path, keep: Option<u64>) {
    let Some(parent) = path.parent() else { return };
    let Some(stem) = path.file_name().and_then(|n| n.to_str()) else {
        return;
    };
    let dir = if parent.as_os_str().is_empty() {
        Path::new(".")
    } else {
        parent
    };
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    let prefix = format!("{stem}.p");
    for entry in entries.flatten() {
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let Some(digits) = name.strip_prefix(&prefix) else {
            continue;
        };
        match digits.parse::<u64>() {
            Ok(g) if Some(g) == keep => {}
            Ok(_) => {
                std::fs::remove_file(entry.path()).ok();
            }
            Err(_) => {}
        }
    }
}

/// The catalog format version `bytes` start with: 2 for the current
/// TYCAT2, 1 for a TYCAT1 catalog, `None` when they are no catalog.
pub fn catalog_version(bytes: &[u8]) -> Option<u8> {
    match bytes.get(..MAGIC.len())? {
        b"TYCAT2" => Some(2),
        b"TYCAT1" => Some(1),
        _ => None,
    }
}

/// `true` when the file at `path` starts with a catalog magic.
pub fn is_catalog_file(path: impl AsRef<Path>) -> bool {
    use std::io::Read;
    let mut magic = [0u8; 6];
    match std::fs::File::open(path.as_ref()) {
        Ok(mut f) => f.read_exact(&mut magic).is_ok() && catalog_version(&magic).is_some(),
        Err(_) => false,
    }
}

/// The sibling `<path>.tmp` the atomic catalog write goes through before
/// the final rename — the recovery chain's last fallback.
pub fn tmp_path(path: impl AsRef<Path>) -> PathBuf {
    sibling(path.as_ref(), ".tmp")
}

/// The rolling backup of the previous catalog.
pub fn backup_path(path: impl AsRef<Path>) -> PathBuf {
    sibling(path.as_ref(), ".bak")
}

fn sibling(path: &Path, suffix: &str) -> PathBuf {
    let mut p = path.as_os_str().to_os_string();
    p.push(suffix);
    p.into()
}

/// Identity of a catalog file: byte length plus the CRC-32 of every file
/// byte (trailer included). The WAL header records the identity of the
/// catalog it extends, so recovery can tell a log that belongs to the
/// current catalog from a stale pre-checkpoint one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ImageIdentity {
    /// File length in bytes.
    pub len: u64,
    /// CRC-32 (IEEE) over all file bytes.
    pub crc: u32,
}

/// Identity of a catalog byte buffer (what the saved file will contain).
pub fn identity_of(bytes: &[u8]) -> ImageIdentity {
    ImageIdentity {
        len: bytes.len() as u64,
        crc: crc32(bytes),
    }
}

/// Which file [`open_catalog`] decoded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecoverySource {
    /// The primary catalog decoded cleanly.
    Primary,
    /// The primary was unreadable; the rolling `.bak` decoded cleanly.
    Backup,
    /// Neither primary nor backup decoded, but an interrupted save left a
    /// complete catalog at `<path>.tmp` (crash between the backup
    /// rotation and the final rename).
    Tmp,
}

impl RecoverySource {
    /// Stable lower-case name for reports and trace events.
    pub fn name(self) -> &'static str {
        match self {
            RecoverySource::Primary => "primary",
            RecoverySource::Backup => "backup",
            RecoverySource::Tmp => "tmp",
        }
    }
}

/// The crash-safe atomic write protocol of the catalog: corrupt-injection
/// on the bytes, write to `<path>.tmp`, fsync, rotate any existing file to
/// `<path>.bak`, rename, best-effort directory fsync. Every step carries a
/// `catalog.save.*` failpoint site keyed by the destination path.
fn write_bytes_atomic(mut bytes: Vec<u8>, path: &Path) -> std::io::Result<ImageIdentity> {
    let key = path_key(path);
    if failpoint::armed() {
        // A torn or bit-rotted write: the catalog lands corrupt on disk
        // even though every syscall "succeeds".
        failpoint::corrupt("catalog.save.bytes", key, &mut bytes);
    }
    let identity = identity_of(&bytes);
    let tmp = tmp_path(path);
    failpoint::fail_io("catalog.save.write", key)?;
    let mut f = std::fs::File::create(&tmp)?;
    f.write_all(&bytes)?;
    failpoint::fail_io("catalog.save.fsync", key)?;
    f.sync_all()?;
    drop(f);
    if path.exists() {
        failpoint::fail_io("catalog.save.backup", key)?;
        std::fs::rename(path, backup_path(path))?;
    }
    // Between here and the rename the new catalog exists only at
    // `<path>.tmp` (complete and fsynced — recovery falls back to it)
    // while the previous good one is intact at `<path>.bak`.
    failpoint::fail_io("catalog.save.rename", key)?;
    std::fs::rename(&tmp, path)?;
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        // Durability of the rename itself; not all platforms/filesystems
        // support fsync on directories, so failure is tolerated — but not
        // silently: a failed directory fsync means the rename may not
        // survive a power cut, which operators need to see.
        let synced = failpoint::fail_io("catalog.save.dirsync", key)
            .and_then(|()| std::fs::File::open(dir))
            .and_then(|d| d.sync_all());
        if let Err(e) = synced {
            if tml_trace::enabled() {
                tml_trace::count("store.catalog.dirsync_failures", 1);
                tml_trace::record(tml_trace::Event::DurabilityRisk {
                    site: "catalog.save.dirsync",
                    detail: e.to_string(),
                });
            }
        }
    }
    Ok(identity)
}

/// Read a catalog file through the `catalog.load.*` failpoint sites.
fn read_image(path: &Path) -> std::io::Result<Vec<u8>> {
    let key = path_key(path);
    failpoint::fail_io("catalog.load.read", key)?;
    let mut bytes = std::fs::read(path)?;
    if failpoint::armed() {
        failpoint::corrupt("catalog.load.bytes", key, &mut bytes);
    }
    Ok(bytes)
}

/// A decoded catalog, before the page file is consulted.
struct Catalog {
    identity: ImageIdentity,
    gen: u64,
    next_page: u64,
    /// Live records in ascending OID order.
    dir: Vec<(Oid, Location)>,
    live_bytes: u64,
    dead_bytes: u64,
    roots: BTreeMap<String, Oid>,
    attrs: AttrTable,
    /// One per slot: the slot count, checked and bounded by the bytes.
    versions: Vec<u64>,
    cache: OptCache,
}

/// Decode a catalog in one pass over its bytes. The CRC pass over the
/// body continues over the trailer into the file's [`ImageIdentity`].
/// The directory must list OIDs in `1..=slots` in strictly ascending
/// order, as the encoder writes it, and is kept as that sorted run; an
/// OID out of range is [`DecodeError::BadIndex`], a repeat or an
/// inversion [`DecodeError::Order`], and a slot count other than the
/// version count [`DecodeError::Frame`].
fn decode_catalog(bytes: &[u8]) -> Result<Catalog, DecodeError> {
    let magic = bytes.get(..MAGIC.len()).ok_or(DecodeError::Truncated)?;
    let version = catalog_version(magic).ok_or(DecodeError::BadMagic)?;
    let body_len = bytes.len().checked_sub(4).ok_or(DecodeError::Truncated)?;
    if body_len < MAGIC.len() {
        return Err(DecodeError::Truncated);
    }
    let (body, trailer) = bytes.split_at(body_len);
    let stored = u32::from_le_bytes(trailer.try_into().map_err(|_| DecodeError::Truncated)?);
    let mut crc = Crc32::new();
    crc.update(body);
    let computed = crc.finish();
    if stored != computed {
        return Err(DecodeError::BadCrc { stored, computed });
    }
    crc.update(trailer);
    let identity = ImageIdentity {
        len: bytes.len() as u64,
        crc: crc.finish(),
    };
    let mut r = Reader::new(body);
    r.bytes(MAGIC.len())?;
    let gen = r.u64()?;
    let next_page = r.u64()?;
    let slots = r.u64()?;
    let ndir = r.len()?;
    // Each entry takes at least four bytes.
    let mut dir = Vec::with_capacity(ndir.min(r.remaining() / 4));
    for _ in 0..ndir {
        let oid = r.u64()?;
        if oid == 0 || oid > slots {
            return Err(DecodeError::BadIndex(oid));
        }
        if dir.last().is_some_and(|&(Oid(prev), _)| oid <= prev) {
            return Err(DecodeError::Order(oid));
        }
        let (loc, end) = match r.byte()? {
            0 => {
                let page = r.u64()?;
                let slot = narrow(r.u64()?)?;
                let len = narrow(r.u64()?)?;
                (Location::Inline { page, slot, len }, page.checked_add(1))
            }
            1 => {
                let first = r.u64()?;
                let len = r.u64()?;
                let npages = len.div_ceil(CHAIN_PAYLOAD as u64);
                (Location::Chain { first, len }, first.checked_add(npages))
            }
            t => return Err(DecodeError::BadTag(t)),
        };
        // Every page a record names lies below the watermark, which
        // `rebuild` checks against the page file's length.
        if end.is_none_or(|end| end > next_page) {
            return Err(DecodeError::BadIndex(oid));
        }
        dir.push((Oid(oid), loc));
    }
    let live_bytes = r.u64()?;
    let dead_bytes = r.u64()?;
    let roots = snapshot::get_roots(&mut r)?;
    let attrs = AttrTable::decode(&mut r)?;
    let at = r.position();
    let versions = snapshot::get_versions(&mut r)?;
    if versions.len() as u64 != slots {
        return Err(DecodeError::Frame {
            offset: at,
            declared: usize::try_from(slots).unwrap_or(usize::MAX),
            used: versions.len(),
        });
    }
    // TYCAT1's cache section, the last one, also holds compiled code:
    // open with an empty cache instead.
    let cache = if version == 1 {
        OptCache::default()
    } else {
        snapshot::get_cache(&mut r)?
    };
    if version > 1 && !r.is_at_end() {
        return Err(DecodeError::Truncated);
    }
    Ok(Catalog {
        identity,
        gen,
        next_page,
        dir,
        live_bytes,
        dead_bytes,
        roots,
        attrs,
        versions,
        cache,
    })
}

/// A catalog field read as a narrower integer, out of range an error.
fn narrow<T: TryFrom<u64>>(n: u64) -> Result<T, DecodeError> {
    T::try_from(n).map_err(|_| DecodeError::BadIndex(n))
}

/// A catalog-addressed store reconstructed from disk.
pub struct OpenedCatalog {
    /// The heap, positioned to append fresh pages after the catalog's
    /// watermark.
    pub heap: PagedHeap,
    /// The fully rebuilt in-memory store.
    pub store: Store,
    /// Identity of the catalog file bytes that were decoded (what the WAL
    /// header must match).
    pub identity: ImageIdentity,
    /// Which file yielded the catalog.
    pub source: RecoverySource,
}

/// Open the paged image at `path`: decode the catalog (falling back to
/// its `.bak` and `.tmp` siblings), then rebuild the store from the page
/// file. Returns `Ok(None)` when no decodable catalog exists at any of
/// the three paths. A fallback past the primary is recorded on the trace
/// (`Event::Recovery`).
pub fn open_catalog(path: &Path) -> std::io::Result<Option<OpenedCatalog>> {
    let t0 = if tml_trace::enabled() {
        tml_trace::global().clock().now_ns()
    } else {
        0
    };
    let candidates = [
        (path.to_path_buf(), RecoverySource::Primary),
        (backup_path(path), RecoverySource::Backup),
        (tmp_path(path), RecoverySource::Tmp),
    ];
    for (file, source) in candidates {
        let Ok(bytes) = read_image(&file) else {
            continue;
        };
        let Ok(cat) = decode_catalog(&bytes) else {
            continue;
        };
        let identity = cat.identity;
        // Damaged pages under this catalog: try the next source.
        let Ok((heap, store)) = rebuild(path, cat) else {
            continue;
        };
        if source != RecoverySource::Primary && tml_trace::enabled() {
            tml_trace::count("store.catalog.recoveries", 1);
            let rec = tml_trace::global();
            tml_trace::record(tml_trace::Event::Recovery {
                source: source.name(),
                micros: rec.clock().now_ns().saturating_sub(t0) / 1_000,
            });
        }
        return Ok(Some(OpenedCatalog {
            heap,
            store,
            identity,
            source,
        }));
    }
    Ok(None)
}

/// Materialize a store from a decoded catalog plus its generation file:
/// one walk of the directory in OID order, each record decoded where it
/// lies, dead slots for the OIDs between.
fn rebuild(path: &Path, cat: Catalog) -> std::io::Result<(PagedHeap, Store)> {
    let mut file = PageFile::open(gen_path(path, cat.gen))?;
    // Bounds every record length in the directory by the file's bytes.
    if cat.next_page > file.pages()? {
        return Err(bad_data(format!(
            "catalog watermark {} is past the page file",
            cat.next_page
        )));
    }
    let mut pool = BufferPool::new(POOL_CAP);
    let mut store = Store::new();
    for &(oid, loc) in &cat.dir {
        store.push_dead(oid.0 as usize - 1 - store.len());
        let obj = read_record(&mut pool, &mut file, oid, loc, |rec| {
            decode_record(oid, rec)
        })??;
        store.alloc(obj);
    }
    store.push_dead(cat.versions.len() - store.len());
    store.set_root_table(cat.roots);
    store.set_attr_table(cat.attrs);
    store.set_versions(&cat.versions);
    *store.cache_mut() = cat.cache;
    let heap = PagedHeap {
        path: path.to_path_buf(),
        key: path_key(path),
        file,
        pool,
        prior_pool_stats: BufferStats::default(),
        // Bulk-built from the sorted run.
        dir: cat.dir.into_iter().collect(),
        gen: cat.gen,
        next_page: cat.next_page,
        fill: None,
        live_bytes: cat.live_bytes,
        dead_bytes: cat.dead_bytes,
    };
    Ok((heap, store))
}

fn bad_data(what: String) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, what)
}

/// Decode one record, which must be exactly one object.
fn decode_record(oid: Oid, rec: &[u8]) -> std::io::Result<Object> {
    let mut r = Reader::new(rec);
    let obj =
        snapshot::get_object(&mut r).map_err(|e| bad_data(format!("bad record for {oid}: {e}")))?;
    if !r.is_at_end() {
        return Err(bad_data(format!("trailing bytes in record for {oid}")));
    }
    Ok(obj)
}

/// Hand the bytes of `oid`'s record at `loc` to `f`: an inline record as
/// the slice of its pinned page, an overflow chain assembled into one
/// buffer first.
fn read_record<T>(
    pool: &mut BufferPool,
    file: &mut PageFile,
    oid: Oid,
    loc: Location,
    f: impl FnOnce(&[u8]) -> T,
) -> std::io::Result<T> {
    match loc {
        Location::Inline { page, slot, len } => {
            let ix = pool.pin(file, PageId(page))?;
            let out = match pool.page(ix).record(slot) {
                Some(r) if r.len() == len as usize => Ok(f(r)),
                Some(r) => Err(bad_data(format!(
                    "record for {oid} is {} bytes, catalog says {len}",
                    r.len()
                ))),
                None => Err(bad_data(format!("missing slotted record for {oid}"))),
            };
            pool.unpin(ix);
            out
        }
        Location::Chain { first, len } => {
            let mut out = Vec::with_capacity(len as usize);
            let mut id = first;
            let mut remaining = len as usize;
            let mut hops = (len as usize).div_ceil(CHAIN_PAYLOAD) + 1;
            while remaining > 0 {
                hops = hops
                    .checked_sub(1)
                    .ok_or_else(|| bad_data(format!("overflow chain for {oid} cycles")))?;
                if id == u64::MAX {
                    return Err(bad_data(format!("overflow chain for {oid} ends early")));
                }
                let ix = pool.pin(file, PageId(id))?;
                let bytes = pool.page(ix).bytes();
                let next = u64::from_le_bytes(bytes[..8].try_into().expect("8 bytes"));
                let take = remaining.min(CHAIN_PAYLOAD);
                out.extend_from_slice(&bytes[8..8 + take]);
                pool.unpin(ix);
                remaining -= take;
                id = next;
            }
            Ok(f(&out))
        }
    }
}

impl PagedHeap {
    /// A fresh, empty heap for `path`: generation 0, every pre-existing
    /// generation file *and* catalog (primary, `.bak`, `.tmp`) removed. A
    /// surviving catalog would index the destroyed generation, so a later
    /// fallback to it would resurrect a store that never existed.
    pub fn create(path: &Path) -> std::io::Result<PagedHeap> {
        for stale in [path.to_path_buf(), backup_path(path), tmp_path(path)] {
            match std::fs::remove_file(&stale) {
                Err(e) if e.kind() != std::io::ErrorKind::NotFound => return Err(e),
                _ => {}
            }
        }
        remove_stray_gens(path, None);
        let mut file = PageFile::open(gen_path(path, 0))?;
        file.set_len(0)?;
        Ok(PagedHeap {
            path: path.to_path_buf(),
            key: path_key(path),
            file,
            pool: BufferPool::new(POOL_CAP),
            prior_pool_stats: BufferStats::default(),
            dir: BTreeMap::new(),
            gen: 0,
            next_page: 0,
            fill: None,
            live_bytes: 0,
            dead_bytes: 0,
        })
    }

    /// Page-side footprint counters.
    pub fn stats(&self) -> PageStats {
        PageStats {
            gen: self.gen,
            pages: self.next_page,
            dir_entries: self.dir.len() as u64,
            chains: self
                .dir
                .values()
                .filter(|l| matches!(l, Location::Chain { .. }))
                .count() as u64,
            live_bytes: self.live_bytes,
            dead_bytes: self.dead_bytes,
            resident: self.pool.resident() as u64,
        }
    }

    /// Cumulative buffer-pool counters (across compactions).
    pub fn buffer_stats(&self) -> BufferStats {
        let a = self.prior_pool_stats;
        let b = self.pool.stats();
        BufferStats {
            hits: a.hits + b.hits,
            misses: a.misses + b.misses,
            evictions: a.evictions + b.evictions,
            writebacks: a.writebacks + b.writebacks,
        }
    }

    /// `true` when the next checkpoint should rewrite the generation to
    /// reclaim dead space.
    pub fn should_compact(&self) -> bool {
        self.dead_bytes > COMPACT_MIN_DEAD && self.dead_bytes > self.live_bytes
    }

    /// Switch to a fresh generation file: the caller must rewrite every
    /// live record before saving the catalog. The old generation file is
    /// deleted only after the new catalog lands ([`PagedHeap::save_catalog`]).
    pub fn begin_new_generation(&mut self) -> std::io::Result<()> {
        self.gen += 1;
        let mut file = PageFile::open(gen_path(&self.path, self.gen))?;
        file.set_len(0)?;
        self.file = file;
        let retired = self.pool.stats();
        self.prior_pool_stats = BufferStats {
            hits: self.prior_pool_stats.hits + retired.hits,
            misses: self.prior_pool_stats.misses + retired.misses,
            evictions: self.prior_pool_stats.evictions + retired.evictions,
            writebacks: self.prior_pool_stats.writebacks + retired.writebacks,
        };
        self.pool = BufferPool::new(POOL_CAP);
        self.dir.clear();
        self.next_page = 0;
        self.fill = None;
        self.live_bytes = 0;
        self.dead_bytes = 0;
        Ok(())
    }

    /// Drop `oid`'s record from the directory (its bytes become dead
    /// space). A no-op for OIDs without a record.
    pub fn remove_record(&mut self, oid: Oid) {
        if let Some(loc) = self.dir.remove(&oid) {
            let n = loc.len();
            self.live_bytes = self.live_bytes.saturating_sub(n);
            self.dead_bytes += n;
        }
    }

    /// Write (or supersede) `oid`'s record. The bytes land in fresh pages
    /// only; the previous location, if any, becomes dead space.
    pub fn write_record(&mut self, oid: Oid, rec: &[u8]) -> std::io::Result<()> {
        self.remove_record(oid);
        let loc = if rec.len() <= INLINE_MAX {
            failpoint::fail_io("page.write", self.key)?;
            let (page, slot) = self.insert_inline(rec)?;
            Location::Inline {
                page,
                slot,
                len: rec.len() as u32,
            }
        } else {
            failpoint::fail_io("page.chain", self.key)?;
            let first = self.write_chain(rec)?;
            Location::Chain {
                first,
                len: rec.len() as u64,
            }
        };
        self.live_bytes += rec.len() as u64;
        self.dir.insert(oid, loc);
        Ok(())
    }

    fn insert_inline(&mut self, rec: &[u8]) -> std::io::Result<(u64, u16)> {
        if let Some(fid) = self.fill {
            let ix = self.pool.pin(&mut self.file, PageId(fid))?;
            let slot = self.pool.page_mut(ix).insert_record(rec);
            self.pool.unpin(ix);
            if let Some(slot) = slot {
                return Ok((fid, slot));
            }
        }
        let fid = self.next_page;
        self.next_page += 1;
        self.fill = Some(fid);
        let ix = self.pool.pin(&mut self.file, PageId(fid))?;
        let page = self.pool.page_mut(ix);
        page.format();
        let slot = page
            .insert_record(rec)
            .expect("a fresh page holds any inline record");
        self.pool.unpin(ix);
        Ok((fid, slot))
    }

    fn write_chain(&mut self, rec: &[u8]) -> std::io::Result<u64> {
        let npages = rec.len().div_ceil(CHAIN_PAYLOAD) as u64;
        let first = self.next_page;
        self.next_page += npages;
        for (i, chunk) in rec.chunks(CHAIN_PAYLOAD).enumerate() {
            let id = first + i as u64;
            let next = if (i as u64) < npages - 1 {
                id + 1
            } else {
                u64::MAX
            };
            let ix = self.pool.pin(&mut self.file, PageId(id))?;
            let bytes = self.pool.page_mut(ix).bytes_mut();
            bytes.fill(0);
            bytes[..8].copy_from_slice(&next.to_le_bytes());
            bytes[8..8 + chunk.len()].copy_from_slice(chunk);
            self.pool.unpin(ix);
        }
        Ok(first)
    }

    /// Write every dirty frame back and fsync the generation file. Resets
    /// the fill page: once the catalog references a page, it is never
    /// appended to again.
    pub fn flush(&mut self) -> std::io::Result<()> {
        failpoint::fail_io("page.flush", self.key)?;
        self.pool.flush_all(&mut self.file)?;
        self.file.sync()?;
        self.fill = None;
        Ok(())
    }

    /// Atomically write the catalog for the current directory plus the
    /// store's small sections; on success, stray generation files (e.g.
    /// the pre-compaction one) are removed.
    pub fn save_catalog(&mut self, store: &Store) -> std::io::Result<ImageIdentity> {
        let bytes = self.catalog_bytes(store);
        let identity = write_bytes_atomic(bytes, &self.path)?;
        remove_stray_gens(&self.path, Some(self.gen));
        Ok(identity)
    }

    fn catalog_bytes(&self, store: &Store) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(MAGIC);
        put_u64(&mut out, self.gen);
        put_u64(&mut out, self.next_page);
        put_u64(&mut out, store.len() as u64);
        put_u64(&mut out, self.dir.len() as u64);
        for (oid, loc) in &self.dir {
            put_u64(&mut out, oid.0);
            match loc {
                Location::Inline { page, slot, len } => {
                    out.push(0);
                    put_u64(&mut out, *page);
                    put_u64(&mut out, *slot as u64);
                    put_u64(&mut out, *len as u64);
                }
                Location::Chain { first, len } => {
                    out.push(1);
                    put_u64(&mut out, *first);
                    put_u64(&mut out, *len);
                }
            }
        }
        put_u64(&mut out, self.live_bytes);
        put_u64(&mut out, self.dead_bytes);
        snapshot::put_roots(&mut out, store);
        store.attr_table().encode(&mut out);
        snapshot::put_versions(&mut out, store.len(), store.versions());
        snapshot::put_cache(&mut out, store.cache());
        let crc = crc32(&out);
        out.extend_from_slice(&crc.to_le_bytes());
        out
    }

    /// Encode one object as its record bytes.
    pub fn encode_record(obj: &Object) -> Vec<u8> {
        let mut rec = Vec::new();
        snapshot::put_object(&mut rec, obj);
        rec
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sval::SVal;
    use crate::varint::put_str;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("tml_store_paged_test");
        std::fs::create_dir_all(&dir).unwrap();
        let p = dir.join(name);
        for suffix in ["", ".bak", ".tmp", ".wal"] {
            let mut q = p.as_os_str().to_os_string();
            q.push(suffix);
            std::fs::remove_file(PathBuf::from(q)).ok();
        }
        remove_stray_gens(&p, None);
        p
    }

    fn store_with(objs: &[Object]) -> Store {
        let mut s = Store::new();
        for o in objs {
            s.alloc(o.clone());
        }
        s
    }

    fn checkpoint_all(heap: &mut PagedHeap, store: &Store) -> ImageIdentity {
        for (oid, obj) in store.iter() {
            heap.write_record(oid, &PagedHeap::encode_record(obj))
                .unwrap();
        }
        heap.flush().unwrap();
        heap.save_catalog(store).unwrap()
    }

    #[test]
    fn catalog_roundtrip_with_inline_and_chained_records() {
        let path = tmp("roundtrip.tyc");
        let mut store = store_with(&[
            Object::Array(vec![SVal::Int(1), SVal::Str("hello".into())]),
            Object::ByteArray(vec![0xab; 3 * PAGE_SIZE]), // overflow chain
            Object::ByteArray(vec![0x11; 16]),
        ]);
        store.set_root("main", Oid(1));
        store.set_attr(Oid(2), "cost", 9);
        let mut heap = PagedHeap::create(&path).unwrap();
        checkpoint_all(&mut heap, &store);
        assert!(is_catalog_file(&path));
        let opened = open_catalog(&path).unwrap().expect("catalog decodes");
        assert_eq!(opened.source, RecoverySource::Primary);
        assert_eq!(
            snapshot::to_bytes(&opened.store),
            snapshot::to_bytes(&store),
            "paged roundtrip must be byte-identical"
        );
        let stats = opened.heap.stats();
        assert_eq!(stats.dir_entries, 3);
        assert_eq!(stats.chains, 1);
        assert!(stats.pages >= 4, "inline page + 3-page chain");
    }

    #[test]
    fn tycat1_catalog_opens_intact_with_an_empty_cache() {
        use crate::cache::{CacheEntry, CacheKey};
        let path = tmp("tycat1.tyc");
        let mut store = store_with(&[
            Object::Array(vec![SVal::Int(1)]),
            Object::Ptml(vec![3, 1, 4]),
            Object::ByteArray(vec![0x5a; 2 * PAGE_SIZE]),
        ]);
        store.set_root("main", Oid(1));
        store.set_attr(Oid(2), "tier.calls", 41);
        store.get_mut(Oid(1)).unwrap(); // bump a version
        let key = CacheKey {
            ptml_hash: 9,
            binding_sig: 8,
        };
        let entry = CacheEntry::new(
            vec![(Oid(1), 1)],
            vec![7, 7],
            vec![("k".into(), Some(SVal::Ref(Oid(3))))],
        );
        store.cache_insert(key, entry.clone());
        let mut heap = PagedHeap::create(&path).unwrap();
        checkpoint_all(&mut heap, &store);

        // Rewrite the catalog as TYCAT1: the same sections, except that
        // each cache entry also carries a compiled-code string after its
        // PTML.
        let v2 = std::fs::read(&path).unwrap();
        let mut cache_v2 = Vec::new();
        snapshot::put_cache(&mut cache_v2, store.cache());
        let body = &v2[..v2.len() - 4];
        assert!(body.ends_with(&cache_v2), "the cache is the last section");
        let mut v1 = body[..body.len() - cache_v2.len()].to_vec();
        v1[..MAGIC.len()].copy_from_slice(b"TYCAT1");
        let stats = store.cache_stats();
        for n in [64, stats.hits, stats.misses, 0, 0, stats.inserts, 1] {
            put_u64(&mut v1, n);
        }
        put_u64(&mut v1, key.ptml_hash);
        put_u64(&mut v1, key.binding_sig);
        put_u64(&mut v1, 1);
        put_u64(&mut v1, 1);
        put_u64(&mut v1, 1);
        crate::varint::put_bytes(&mut v1, &entry.ptml);
        crate::varint::put_bytes(&mut v1, b"compiled code");
        put_u64(&mut v1, 1);
        put_str(&mut v1, "k");
        v1.push(1);
        snapshot::put_sval(&mut v1, &SVal::Ref(Oid(3)));
        for n in [0, 0, 0] {
            put_u64(&mut v1, n);
        }
        let crc = crc32(&v1);
        v1.extend_from_slice(&crc.to_le_bytes());
        std::fs::write(&path, &v1).unwrap();

        assert!(is_catalog_file(&path));
        assert_eq!(catalog_version(&v1), Some(1));
        assert_eq!(catalog_version(&v2), Some(2));
        let opened = open_catalog(&path).unwrap().expect("TYCAT1 decodes");
        assert_eq!(opened.source, RecoverySource::Primary);
        assert!(opened.store.cache().is_empty());
        assert_eq!(opened.store.version(Oid(1)), 1);
        let mut expected = store.clone();
        *expected.cache_mut() = OptCache::default();
        assert_eq!(
            snapshot::to_bytes(&opened.store),
            snapshot::to_bytes(&expected),
            "objects, roots, attributes and versions intact"
        );
    }

    #[test]
    fn superseded_records_become_dead_space_and_compaction_reclaims() {
        let path = tmp("compact.tyc");
        let mut store = store_with(&[Object::ByteArray(vec![0u8; 2048])]);
        let mut heap = PagedHeap::create(&path).unwrap();
        checkpoint_all(&mut heap, &store);
        assert_eq!(heap.stats().dead_bytes, 0);
        // Rewrite the record many times: every version but the last is dead.
        for round in 0..300 {
            *store.get_mut(Oid(1)).unwrap() = Object::ByteArray(vec![round as u8; 2048]);
            heap.write_record(
                Oid(1),
                &PagedHeap::encode_record(store.get(Oid(1)).unwrap()),
            )
            .unwrap();
            heap.flush().unwrap();
            heap.save_catalog(&store).unwrap();
        }
        assert!(heap.should_compact(), "dead space must pile up");
        let old_gen = gen_path(&path, heap.stats().gen);
        heap.begin_new_generation().unwrap();
        checkpoint_all(&mut heap, &store);
        let stats = heap.stats();
        assert_eq!(stats.dead_bytes, 0);
        assert_eq!(stats.gen, 1);
        assert!(!old_gen.exists(), "old generation file deleted");
        let opened = open_catalog(&path).unwrap().expect("compacted catalog");
        assert_eq!(
            snapshot::to_bytes(&opened.store),
            snapshot::to_bytes(&store)
        );
    }

    #[test]
    fn tombstones_and_empty_dirs_survive() {
        let path = tmp("tombstone.tyc");
        let mut store = store_with(&[
            Object::Array(vec![SVal::Int(1)]),
            Object::Array(vec![SVal::Int(2)]),
        ]);
        store.free(Oid(1));
        let mut heap = PagedHeap::create(&path).unwrap();
        checkpoint_all(&mut heap, &store);
        let opened = open_catalog(&path).unwrap().unwrap();
        assert_eq!(opened.store.len(), 2);
        assert_eq!(opened.store.live(), 1);
        assert_eq!(
            snapshot::to_bytes(&opened.store),
            snapshot::to_bytes(&store)
        );
    }

    #[test]
    fn corrupt_catalog_falls_back_to_backup() {
        let path = tmp("fallback.tyc");
        let store = store_with(&[Object::Array(vec![SVal::Int(7)])]);
        let mut heap = PagedHeap::create(&path).unwrap();
        checkpoint_all(&mut heap, &store);
        // A second checkpoint rotates the first catalog to .bak.
        checkpoint_all(&mut heap, &store);
        // Smash the primary catalog.
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xff;
        std::fs::write(&path, &bytes).unwrap();
        let opened = open_catalog(&path).unwrap().expect("backup catalog");
        assert_eq!(opened.source, RecoverySource::Backup);
        assert_eq!(
            snapshot::to_bytes(&opened.store),
            snapshot::to_bytes(&store)
        );
    }

    #[test]
    fn reopened_catalog_saves_byte_identical() {
        let path = tmp("identical.tyc");
        let mut store = store_with(&[
            Object::Array(vec![SVal::Int(1)]),
            Object::ByteArray(vec![0x5a; INLINE_MAX + 100]), // chained
            Object::Array(vec![SVal::Str("dead".into())]),
            Object::Ptml(vec![1, 2, 3]),
            Object::Array(vec![SVal::Ref(Oid(2))]),
        ]);
        store.free(Oid(3));
        store.set_root("main", Oid(1));
        store.set_root("blob", Oid(2));
        for (oid, key, v) in [
            (1, "tier.calls", 7),
            (1, "optimized", 1),
            (1, "size_before", 40),
            (4, "degraded", 1),
            (5, "size_after", 3),
            (5, "inlined", 2),
        ] {
            store.set_attr(Oid(oid), key, v);
        }
        let mut heap = PagedHeap::create(&path).unwrap();
        checkpoint_all(&mut heap, &store);
        assert_eq!(heap.stats().chains, 1);
        let on_disk = std::fs::read(&path).unwrap();

        let mut opened = open_catalog(&path).unwrap().unwrap();
        assert_eq!(opened.identity, identity_of(&on_disk));
        assert_eq!(opened.store.live(), 4);
        opened.heap.save_catalog(&opened.store).unwrap();
        assert_eq!(
            std::fs::read(&path).unwrap(),
            on_disk,
            "no mutation, same bytes"
        );

        let keys: Vec<&str> = opened.store.attrs_of(Oid(1)).map(|(k, _)| k).collect();
        assert_eq!(keys, ["optimized", "size_before", "tier.calls"]);
        // Removing an OID's last key drops its row: the catalog encodes
        // as if the attribute had never been set.
        assert_eq!(opened.store.remove_attr(Oid(4), "degraded"), Some(1));
        assert_eq!(opened.store.attrs_of(Oid(4)).count(), 0);
        store.remove_attr(Oid(4), "degraded");
        let mut fresh = store.clone();
        fresh.set_attr_table(Default::default());
        for (oid, key, v) in [
            (1, "optimized", 1),
            (1, "size_before", 40),
            (1, "tier.calls", 7),
        ]
        .into_iter()
        .chain([(5, "inlined", 2), (5, "size_after", 3)])
        {
            fresh.set_attr(Oid(oid), key, v);
        }
        assert_eq!(
            opened.heap.catalog_bytes(&opened.store),
            opened.heap.catalog_bytes(&fresh)
        );
    }

    /// A catalog written by hand over `heap`'s page file, with its own
    /// slot count, directory and version count, and a valid CRC.
    fn forged_catalog(heap: &PagedHeap, slots: u64, dir: &[(u64, Location)], nver: u64) -> Vec<u8> {
        let mut out = MAGIC.to_vec();
        put_u64(&mut out, heap.gen);
        put_u64(&mut out, heap.next_page);
        put_u64(&mut out, slots);
        put_u64(&mut out, dir.len() as u64);
        for (oid, loc) in dir {
            put_u64(&mut out, *oid);
            match *loc {
                Location::Inline { page, slot, len } => {
                    out.push(0);
                    put_u64(&mut out, page);
                    put_u64(&mut out, slot as u64);
                    put_u64(&mut out, len as u64);
                }
                Location::Chain { first, len } => {
                    out.push(1);
                    put_u64(&mut out, first);
                    put_u64(&mut out, len);
                }
            }
        }
        put_u64(&mut out, heap.live_bytes);
        put_u64(&mut out, heap.dead_bytes);
        put_u64(&mut out, 0); // roots
        put_u64(&mut out, 0); // attributes
        snapshot::put_versions(&mut out, nver as usize, vec![0; nver as usize]);
        snapshot::put_cache(&mut out, &OptCache::default());
        let crc = crc32(&out);
        out.extend_from_slice(&crc.to_le_bytes());
        out
    }

    #[test]
    fn forged_directories_fall_back_to_the_backup() {
        let path = tmp("forged.tyc");
        let store = store_with(&[
            Object::Array(vec![SVal::Int(1)]),
            Object::Array(vec![SVal::Int(2)]),
        ]);
        let mut heap = PagedHeap::create(&path).unwrap();
        checkpoint_all(&mut heap, &store);
        checkpoint_all(&mut heap, &store); // the first catalog is now `.bak`
        let (one, two) = (heap.dir[&Oid(1)], heap.dir[&Oid(2)]);
        let huge_chain = Location::Chain {
            first: 0,
            len: u64::MAX / 2,
        };
        let cases = [
            ("oid 0", 2, vec![(0, one), (1, one), (2, two)], 2),
            (
                "oid past the slots",
                2,
                vec![(1, one), (2, two), (3, two)],
                2,
            ),
            ("repeated oid", 2, vec![(1, one), (2, two), (2, one)], 2),
            ("descending oids", 2, vec![(2, two), (1, one)], 2),
            (
                "slots past the versions",
                1_000_002,
                vec![(1, one), (2, two)],
                2,
            ),
            (
                "chain past the page file",
                2,
                vec![(1, one), (2, huge_chain)],
                2,
            ),
        ];
        let good = forged_catalog(&heap, 2, &[(1, one), (2, two)], 2);
        assert!(
            decode_catalog(&good).is_ok(),
            "the forger writes valid catalogs"
        );
        for (what, slots, dir, nver) in cases {
            let bytes = forged_catalog(&heap, slots, &dir, nver);
            assert!(decode_catalog(&bytes).is_err(), "{what}");
            std::fs::write(&path, &bytes).unwrap();
            let opened = open_catalog(&path).unwrap().expect("backup decodes");
            assert_eq!(opened.source, RecoverySource::Backup, "{what}");
            assert_eq!(
                snapshot::to_bytes(&opened.store),
                snapshot::to_bytes(&store)
            );
        }
    }

    #[test]
    fn non_catalog_file_is_reported_as_none() {
        let path = tmp("legacy.tyc");
        let store = store_with(&[Object::Array(vec![SVal::Int(1)])]);
        std::fs::write(&path, snapshot::to_bytes(&store)).unwrap();
        assert!(!is_catalog_file(&path));
        assert!(open_catalog(&path).unwrap().is_none());
    }

    #[test]
    fn save_is_atomic_and_rotates_backup() {
        let path = tmp("atomic.tyc");
        let s1 = store_with(&[Object::Array(vec![SVal::Int(1)])]);
        let mut heap = PagedHeap::create(&path).unwrap();
        checkpoint_all(&mut heap, &s1);
        assert!(path.exists());
        assert!(!backup_path(&path).exists(), "no backup on first save");
        assert!(!tmp_path(&path).exists(), "tmp renamed away");
        let mut s2 = s1.clone();
        s2.set_root("extra", Oid(1));
        checkpoint_all(&mut heap, &s2);
        assert!(backup_path(&path).exists(), "second save rotates backup");
        let opened = open_catalog(&path).unwrap().unwrap();
        assert_eq!(opened.store.root("extra"), Some(Oid(1)));
        std::fs::remove_file(&path).unwrap();
        let bak = open_catalog(&path).unwrap().unwrap();
        assert_eq!(bak.source, RecoverySource::Backup);
        assert_eq!(
            bak.store.root("extra"),
            None,
            "backup is the previous catalog"
        );
    }

    #[test]
    fn crash_between_write_and_rename_leaves_previous_catalog_loadable() {
        use crate::failpoint::{Action, FailSpec, ScopedFailpoints};
        let path = tmp("crash.tyc");
        let good = store_with(&[Object::Array(vec![SVal::Int(1)])]);
        let mut heap = PagedHeap::create(&path).unwrap();
        checkpoint_all(&mut heap, &good);
        let mut newer = good.clone();
        newer.set_root("newer", Oid(1));
        {
            // A crash after the temp file is durable but before the final
            // rename, for this path only.
            let _fp = ScopedFailpoints::new(&[(
                "catalog.save.rename",
                FailSpec::always(Action::Io).for_key(path_key(&path)),
            )]);
            let err = heap.save_catalog(&newer).unwrap_err();
            assert!(err.to_string().contains("failpoint"));
        }
        // The new catalog never reached `path`; the rotation already moved
        // the previous one to the backup, which wins over the newer tmp.
        assert!(!path.exists());
        let opened = open_catalog(&path).unwrap().unwrap();
        assert_eq!(opened.source, RecoverySource::Backup);
        assert_eq!(snapshot::to_bytes(&opened.store), snapshot::to_bytes(&good));
    }

    #[test]
    fn crash_on_first_save_rename_recovers_from_tmp() {
        use crate::failpoint::{Action, FailSpec, ScopedFailpoints};
        let path = tmp("first.tyc");
        let s = store_with(&[Object::Array(vec![SVal::Int(3)])]);
        let mut heap = PagedHeap::create(&path).unwrap();
        {
            // First-ever save: no previous catalog and no backup, so a
            // crash before the rename leaves the only copy at `.tmp`.
            let _fp = ScopedFailpoints::new(&[(
                "catalog.save.rename",
                FailSpec::always(Action::Io).for_key(path_key(&path)),
            )]);
            for (oid, obj) in s.iter() {
                heap.write_record(oid, &PagedHeap::encode_record(obj))
                    .unwrap();
            }
            heap.flush().unwrap();
            assert!(heap.save_catalog(&s).is_err());
        }
        assert!(!path.exists());
        let opened = open_catalog(&path).unwrap().unwrap();
        assert_eq!(opened.source, RecoverySource::Tmp);
        assert_eq!(snapshot::to_bytes(&opened.store), snapshot::to_bytes(&s));
    }

    #[test]
    fn dir_fsync_failure_is_survivable_and_traced() {
        use crate::failpoint::{Action, FailSpec, ScopedFailpoints};
        let path = tmp("dirsync.tyc");
        let s = store_with(&[Object::Array(vec![SVal::Int(4)])]);
        let mut heap = PagedHeap::create(&path).unwrap();
        tml_trace::global().set_enabled(true);
        {
            let _fp = ScopedFailpoints::new(&[(
                "catalog.save.dirsync",
                FailSpec::always(Action::Io).for_key(path_key(&path)),
            )]);
            // The data and the rename both succeeded; only the directory
            // fsync failed. That is a durability risk, not an error.
            checkpoint_all(&mut heap, &s);
        }
        tml_trace::global().set_enabled(false);
        let opened = open_catalog(&path).unwrap().unwrap();
        assert_eq!(opened.source, RecoverySource::Primary);
        let risk = tml_trace::global().events().into_iter().any(|e| {
            matches!(
                e.event,
                tml_trace::Event::DurabilityRisk {
                    site: "catalog.save.dirsync",
                    ..
                }
            )
        });
        assert!(risk, "dir-fsync failure must be visible on the trace");
    }
}
