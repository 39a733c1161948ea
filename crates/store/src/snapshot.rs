//! The canonical in-memory encoding of a whole [`Store`] (TYSTO3), and
//! the object/value/cache codec every persistent record shares.
//!
//! Nothing here touches a file: the on-disk image is the paged TYCAT2
//! catalog ([`crate::paged`]), whose page records and WAL records carry
//! objects in `put_object`'s encoding. [`to_bytes`] / [`from_bytes`]
//! serialize the whole store — objects, roots, attributes, versions and
//! the optimization cache — as one byte string, which is how recovery is
//! checked to be byte-identical and how tests compare stores.
//!
//! A closure record holds its R-value bindings and its PTML reference and
//! nothing else: no code-table index, no environment. A session
//! compiles its code from PTML at its first call and links it into the
//! session's code table — exactly the paper's architecture, where the
//! persistent encoding of the code is the TML tree, not the machine code.
//! Records an older writer wrote under tag 4 (with an index and
//! an environment) still decode, to the same shape.
//!
//! ```text
//! magic "TYSTO3"                                  6 bytes
//! slot count                                      varint
//! per slot: 0            (tombstone)              1 byte
//!        or 1, frame-len, object bytes            framed record
//! roots    : count, (name, oid)*
//! attrs    : count, (oid, count, (key, i64)*)*
//! versions : count, u64*
//! cache    : cap, stats, count, entry*
//! crc32    : IEEE CRC-32 of everything above      4 bytes LE
//! ```

use crate::attr::AttrTable;
use crate::cache::{CacheEntry, CacheKey, CacheStats, OptCache};
use crate::crc::crc32;
use crate::object::{ClosureObj, IndexKey, IndexObj, ModuleObj, Object, Relation};
use crate::store::Store;
use crate::sval::SVal;
use crate::varint::{put_bytes, put_i64, put_str, put_u64, DecodeError, Reader};
use std::collections::BTreeMap;
use tml_core::Oid;

const MAGIC: &[u8; 6] = b"TYSTO3";

const OBJ_ARRAY: u8 = 0;
const OBJ_VECTOR: u8 = 1;
const OBJ_BYTEARRAY: u8 = 2;
const OBJ_TUPLE: u8 = 3;
/// Decode-only: a closure record that also carried a code-table index
/// and a copy of its environment.
const OBJ_CLOSURE_V1: u8 = 4;
const OBJ_PTML: u8 = 5;
const OBJ_MODULE: u8 = 6;
const OBJ_RELATION: u8 = 7;
const OBJ_INDEX: u8 = 8;
const OBJ_CLOSURE: u8 = 9;

const VAL_UNIT: u8 = 0;
const VAL_BOOL: u8 = 1;
const VAL_INT: u8 = 2;
const VAL_REAL: u8 = 3;
const VAL_CHAR: u8 = 4;
const VAL_STR: u8 = 5;
const VAL_REF: u8 = 6;

const KEY_BOOL: u8 = 0;
const KEY_INT: u8 = 1;
const KEY_CHAR: u8 = 2;
const KEY_STR: u8 = 3;

/// Serialize the store to TYSTO3 bytes (framed objects, CRC trailer).
pub fn to_bytes(store: &Store) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(MAGIC);
    put_u64(&mut out, store.len() as u64);
    let mut frame = Vec::new();
    for slot in store.slots() {
        match slot {
            Some(obj) => {
                out.push(1);
                frame.clear();
                put_object(&mut frame, obj);
                put_u64(&mut out, frame.len() as u64);
                out.extend_from_slice(&frame);
            }
            // Tombstoned slot: OIDs are stable, so dead slots persist too.
            None => out.push(0),
        }
    }
    put_roots(&mut out, store);
    store.attr_table().encode(&mut out);
    put_versions(&mut out, store.versions());
    put_cache(&mut out, store.cache());
    let crc = crc32(&out);
    out.extend_from_slice(&crc.to_le_bytes());
    out
}

/// Deserialize a store from TYSTO3 bytes, validating the CRC trailer
/// before trusting a single byte of the body.
pub fn from_bytes(bytes: &[u8]) -> Result<Store, DecodeError> {
    let magic = bytes.get(..MAGIC.len()).ok_or(DecodeError::Truncated)?;
    if magic != MAGIC {
        return Err(if magic.starts_with(b"TYSTO") {
            // Another (or corrupt) version byte: report it distinctly.
            DecodeError::BadVersion(magic[5].wrapping_sub(b'0'))
        } else {
            DecodeError::BadMagic
        });
    }
    let body_len = bytes.len().checked_sub(4).ok_or(DecodeError::Truncated)?;
    if body_len < MAGIC.len() {
        return Err(DecodeError::Truncated);
    }
    let stored = u32::from_le_bytes(
        bytes[body_len..]
            .try_into()
            .map_err(|_| DecodeError::Truncated)?,
    );
    let computed = crc32(&bytes[..body_len]);
    if stored != computed {
        return Err(DecodeError::BadCrc { stored, computed });
    }
    let mut r = Reader::new(&bytes[..body_len]);
    r.bytes(MAGIC.len())?;
    let mut store = Store::new();
    let nobjs = r.len()?;
    for _ in 0..nobjs {
        match r.byte()? {
            0 => store.push_slot(None),
            1 => {
                let declared = r.len()?;
                let offset = r.position();
                let obj = get_object(&mut r)?;
                let used = r.position() - offset;
                if used != declared {
                    return Err(DecodeError::Frame {
                        offset,
                        declared,
                        used,
                    });
                }
                store.push_slot(Some(obj));
            }
            t => return Err(DecodeError::BadTag(t)),
        }
    }
    store.set_root_table(get_roots(&mut r)?);
    store.set_attr_table(AttrTable::decode(&mut r)?);
    store.set_versions(get_versions(&mut r)?);
    *store.cache_mut() = get_cache(&mut r)?;
    if !r.is_at_end() {
        return Err(DecodeError::Truncated);
    }
    Ok(store)
}

pub(crate) fn put_roots(out: &mut Vec<u8>, store: &Store) {
    put_u64(out, store.roots().len() as u64);
    for (name, oid) in store.roots() {
        put_str(out, name);
        put_u64(out, oid.0);
    }
}

/// Read the roots section. It is written in name order, so the map is
/// bulk-built from the sorted run (a repeated name keeps its last OID).
pub(crate) fn get_roots(r: &mut Reader<'_>) -> Result<BTreeMap<String, Oid>, DecodeError> {
    let n = r.len()?;
    // Each root takes at least two bytes.
    let mut roots = Vec::with_capacity(n.min(r.remaining() / 2));
    for _ in 0..n {
        let name = r.str()?.to_string();
        roots.push((name, Oid(r.u64()?)));
    }
    Ok(roots.into_iter().collect())
}

pub(crate) fn put_versions(out: &mut Vec<u8>, versions: &[u64]) {
    put_u64(out, versions.len() as u64);
    for &v in versions {
        put_u64(out, v);
    }
}

pub(crate) fn get_versions(r: &mut Reader<'_>) -> Result<Vec<u64>, DecodeError> {
    let n = r.len()?;
    let mut versions = Vec::with_capacity(n.min(4096));
    for _ in 0..n {
        versions.push(r.u64()?);
    }
    Ok(versions)
}

pub(crate) fn put_cache(out: &mut Vec<u8>, cache: &OptCache) {
    put_u64(out, cache.cap() as u64);
    let stats = cache.stats();
    put_u64(out, stats.hits);
    put_u64(out, stats.misses);
    put_u64(out, stats.invalidations);
    put_u64(out, stats.evictions);
    put_u64(out, stats.inserts);
    put_u64(out, cache.len() as u64);
    for (key, e) in cache.iter() {
        put_u64(out, key.ptml_hash);
        put_u64(out, key.binding_sig);
        put_u64(out, e.observed.len() as u64);
        for (oid, ver) in &e.observed {
            put_u64(out, oid.0);
            put_u64(out, *ver);
        }
        put_bytes(out, &e.ptml);
        put_u64(out, e.captures.len() as u64);
        for (name, fallback) in &e.captures {
            put_str(out, name);
            match fallback {
                Some(v) => {
                    out.push(1);
                    put_sval(out, v);
                }
                None => out.push(0),
            }
        }
        put_u64(out, e.size_before);
        put_u64(out, e.size_after);
        put_u64(out, e.inlined);
    }
}

pub(crate) fn get_cache(r: &mut Reader<'_>) -> Result<OptCache, DecodeError> {
    let mut cache = OptCache::default();
    let cap = r.len()?.max(1);
    let stats = CacheStats {
        hits: r.u64()?,
        misses: r.u64()?,
        invalidations: r.u64()?,
        evictions: r.u64()?,
        inserts: r.u64()?,
    };
    let nentries = r.len()?;
    let mut entries = BTreeMap::new();
    // Insertion order of a BTreeMap iteration is key order, so assigning
    // ticks sequentially keeps encode(decode(x)) == encode(x).
    for tick in 0..nentries {
        let key = CacheKey {
            ptml_hash: r.u64()?,
            binding_sig: r.u64()?,
        };
        let nobs = r.len()?;
        let mut observed = Vec::with_capacity(nobs.min(4096));
        for _ in 0..nobs {
            let oid = Oid(r.u64()?);
            let ver = r.u64()?;
            observed.push((oid, ver));
        }
        let ptml = r.byte_string()?.to_vec();
        let ncaps = r.len()?;
        let mut captures = Vec::with_capacity(ncaps.min(1024));
        for _ in 0..ncaps {
            let name = r.str()?.to_string();
            let fallback = if r.byte()? != 0 {
                Some(get_sval(r)?)
            } else {
                None
            };
            captures.push((name, fallback));
        }
        let size_before = r.u64()?;
        let size_after = r.u64()?;
        let inlined = r.u64()?;
        entries.insert(
            key,
            CacheEntry {
                observed,
                ptml,
                captures,
                size_before,
                size_after,
                inlined,
                tick: tick as u64,
            },
        );
    }
    cache.tick = nentries as u64;
    cache.entries = entries;
    cache.stats = stats;
    cache.set_cap(cap);
    Ok(cache)
}

/// Encode one [`SVal`] in the snapshot's value format.
pub(crate) fn put_sval(out: &mut Vec<u8>, v: &SVal) {
    match v {
        SVal::Unit => out.push(VAL_UNIT),
        SVal::Bool(b) => {
            out.push(VAL_BOOL);
            out.push(u8::from(*b));
        }
        SVal::Int(n) => {
            out.push(VAL_INT);
            put_i64(out, *n);
        }
        SVal::Real(x) => {
            out.push(VAL_REAL);
            out.extend_from_slice(&x.to_le_bytes());
        }
        SVal::Char(c) => {
            out.push(VAL_CHAR);
            out.push(*c);
        }
        SVal::Str(s) => {
            out.push(VAL_STR);
            put_str(out, s);
        }
        SVal::Ref(o) => {
            out.push(VAL_REF);
            put_u64(out, o.0);
        }
    }
}

/// Decode one [`SVal`] written by [`put_sval`].
pub(crate) fn get_sval(r: &mut Reader<'_>) -> Result<SVal, DecodeError> {
    Ok(match r.byte()? {
        VAL_UNIT => SVal::Unit,
        VAL_BOOL => SVal::Bool(r.byte()? != 0),
        VAL_INT => SVal::Int(r.i64()?),
        VAL_REAL => {
            let raw: [u8; 8] = r.bytes(8)?.try_into().map_err(|_| DecodeError::Truncated)?;
            SVal::Real(f64::from_le_bytes(raw))
        }
        VAL_CHAR => SVal::Char(r.byte()?),
        VAL_STR => SVal::Str(r.str()?.into()),
        VAL_REF => SVal::Ref(Oid(r.u64()?)),
        t => return Err(DecodeError::BadTag(t)),
    })
}

fn put_svals(out: &mut Vec<u8>, vs: &[SVal]) {
    put_u64(out, vs.len() as u64);
    for v in vs {
        put_sval(out, v);
    }
}

fn get_svals(r: &mut Reader<'_>) -> Result<Vec<SVal>, DecodeError> {
    let n = r.len()?;
    let mut vs = Vec::with_capacity(n.min(4096));
    for _ in 0..n {
        vs.push(get_sval(r)?);
    }
    Ok(vs)
}

/// Encode one heap object in the snapshot's record format. `pub(crate)`
/// because WAL records carry object post-images in the same encoding.
pub(crate) fn put_object(out: &mut Vec<u8>, obj: &Object) {
    match obj {
        Object::Array(v) => {
            out.push(OBJ_ARRAY);
            put_svals(out, v);
        }
        Object::Vector(v) => {
            out.push(OBJ_VECTOR);
            put_svals(out, v);
        }
        Object::ByteArray(b) => {
            out.push(OBJ_BYTEARRAY);
            put_u64(out, b.len() as u64);
            out.extend_from_slice(b);
        }
        Object::Tuple(v) => {
            out.push(OBJ_TUPLE);
            put_svals(out, v);
        }
        Object::Closure(c) => {
            out.push(OBJ_CLOSURE);
            put_u64(out, c.bindings.len() as u64);
            for (name, val) in &c.bindings {
                put_str(out, name);
                put_sval(out, val);
            }
            match c.ptml {
                Some(o) => {
                    out.push(1);
                    put_u64(out, o.0);
                }
                None => out.push(0),
            }
        }
        Object::Ptml(b) => {
            out.push(OBJ_PTML);
            put_u64(out, b.len() as u64);
            out.extend_from_slice(b);
        }
        Object::Module(m) => {
            out.push(OBJ_MODULE);
            put_str(out, &m.name);
            put_u64(out, m.exports.len() as u64);
            for (name, val) in &m.exports {
                put_str(out, name);
                put_sval(out, val);
            }
        }
        Object::Relation(rel) => {
            out.push(OBJ_RELATION);
            put_u64(out, rel.schema.len() as u64);
            for c in &rel.schema {
                put_str(out, c);
            }
            put_u64(out, rel.rows.len() as u64);
            for row in &rel.rows {
                for v in row {
                    put_sval(out, v);
                }
            }
        }
        Object::Index(ix) => {
            out.push(OBJ_INDEX);
            put_u64(out, ix.relation.0);
            put_u64(out, ix.column as u64);
            put_u64(out, ix.entries.len() as u64);
            for (key, rows) in &ix.entries {
                put_key(out, key);
                put_u64(out, rows.len() as u64);
                for &row in rows {
                    put_u64(out, row as u64);
                }
            }
        }
    }
}

/// The body of a closure record: bindings, then the PTML reference.
fn get_closure(r: &mut Reader<'_>) -> Result<ClosureObj, DecodeError> {
    let nbind = r.len()?;
    let mut bindings = Vec::with_capacity(nbind.min(1024));
    for _ in 0..nbind {
        let name = r.str()?.to_string();
        let val = get_sval(r)?;
        bindings.push((name, val));
    }
    let ptml = if r.byte()? != 0 {
        Some(Oid(r.u64()?))
    } else {
        None
    };
    Ok(ClosureObj { bindings, ptml })
}

fn put_key(out: &mut Vec<u8>, key: &IndexKey) {
    match key {
        IndexKey::Bool(b) => {
            out.push(KEY_BOOL);
            out.push(u8::from(*b));
        }
        IndexKey::Int(n) => {
            out.push(KEY_INT);
            put_i64(out, *n);
        }
        IndexKey::Char(c) => {
            out.push(KEY_CHAR);
            out.push(*c);
        }
        IndexKey::Str(s) => {
            out.push(KEY_STR);
            put_str(out, s);
        }
    }
}

fn get_key(r: &mut Reader<'_>) -> Result<IndexKey, DecodeError> {
    Ok(match r.byte()? {
        KEY_BOOL => IndexKey::Bool(r.byte()? != 0),
        KEY_INT => IndexKey::Int(r.i64()?),
        KEY_CHAR => IndexKey::Char(r.byte()?),
        KEY_STR => IndexKey::Str(r.str()?.to_string()),
        t => return Err(DecodeError::BadTag(t)),
    })
}

/// Decode one heap object written by [`put_object`].
pub(crate) fn get_object(r: &mut Reader<'_>) -> Result<Object, DecodeError> {
    Ok(match r.byte()? {
        OBJ_ARRAY => Object::Array(get_svals(r)?),
        OBJ_VECTOR => Object::Vector(get_svals(r)?),
        OBJ_BYTEARRAY => {
            let n = r.len()?;
            Object::ByteArray(r.bytes(n)?.to_vec())
        }
        OBJ_TUPLE => Object::Tuple(get_svals(r)?),
        OBJ_CLOSURE => Object::Closure(get_closure(r)?),
        OBJ_CLOSURE_V1 => {
            r.u64()?; // the writing session's code-table index
            let env = get_svals(r)?;
            let mut c = get_closure(r)?;
            // Without PTML the environment is the only copy of what the
            // closure references: keep it, by position, for the collector.
            if c.ptml.is_none() && c.bindings.is_empty() {
                c = ClosureObj::positional(&env);
            }
            Object::Closure(c)
        }
        OBJ_PTML => {
            let n = r.len()?;
            Object::Ptml(r.bytes(n)?.to_vec())
        }
        OBJ_MODULE => {
            let name = r.str()?.to_string();
            let n = r.len()?;
            let mut exports = BTreeMap::new();
            for _ in 0..n {
                let k = r.str()?.to_string();
                let v = get_sval(r)?;
                exports.insert(k, v);
            }
            Object::Module(ModuleObj { name, exports })
        }
        OBJ_RELATION => {
            let ncols = r.len()?;
            let mut schema = Vec::with_capacity(ncols.min(256));
            for _ in 0..ncols {
                schema.push(r.str()?.to_string());
            }
            let nrows = r.len()?;
            let mut rows = Vec::with_capacity(nrows.min(4096));
            for _ in 0..nrows {
                let mut row = Vec::with_capacity(ncols);
                for _ in 0..ncols {
                    row.push(get_sval(r)?);
                }
                rows.push(row);
            }
            Object::Relation(Relation { schema, rows })
        }
        OBJ_INDEX => {
            let relation = Oid(r.u64()?);
            let column = r.len()?;
            let nkeys = r.len()?;
            let mut entries = BTreeMap::new();
            for _ in 0..nkeys {
                let key = get_key(r)?;
                let nrows = r.len()?;
                let mut rows = Vec::with_capacity(nrows.min(4096));
                for _ in 0..nrows {
                    rows.push(r.len()?);
                }
                entries.insert(key, rows);
            }
            Object::Index(IndexObj {
                relation,
                column,
                entries,
            })
        }
        t => return Err(DecodeError::BadTag(t)),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_store() -> Store {
        let mut s = Store::new();
        let arr = s.alloc(Object::Array(vec![SVal::Int(1), SVal::from("two")]));
        s.alloc(Object::Vector(vec![SVal::Real(1.5), SVal::Unit]));
        s.alloc(Object::ByteArray(vec![1, 2, 3]));
        let ptml = s.alloc(Object::Ptml(vec![9, 9, 9]));
        s.alloc(Object::Closure(ClosureObj {
            bindings: vec![
                ("complex".into(), SVal::Ref(arr)),
                ("sqrt".into(), SVal::Int(0)),
            ],
            ptml: Some(ptml),
        }));
        let mut m = ModuleObj {
            name: "complex".into(),
            exports: BTreeMap::new(),
        };
        m.exports.insert("x".into(), SVal::Ref(arr));
        s.alloc(Object::Module(m));
        let mut rel = Relation::new(vec!["id".into(), "name".into()]);
        rel.insert(vec![SVal::Int(1), SVal::from("ada")]);
        rel.insert(vec![SVal::Int(2), SVal::from("bob")]);
        let rel_oid = s.alloc(Object::Relation(rel));
        let mut ix = IndexObj {
            relation: rel_oid,
            column: 0,
            entries: BTreeMap::new(),
        };
        ix.entries.insert(IndexKey::Int(1), vec![0]);
        ix.entries.insert(IndexKey::Int(2), vec![1]);
        s.alloc(Object::Index(ix));
        s.alloc(Object::Tuple(vec![SVal::Char(b'x'), SVal::Bool(true)]));
        s.set_root("main", arr);
        s.set_root("db", rel_oid);
        s.set_attr(ptml, "cost", 42);
        s.set_attr(ptml, "savings", -3);
        s
    }

    /// A closure record as the previous writer framed it (tag 4): code
    /// index 7, environment `[<oid 1>]`, binding `x = <oid 1>` and PTML
    /// object 2. Nothing writes this form any more; images on disk hold it.
    #[rustfmt::skip]
    const LEGACY_CLOSURE_RECORD: &[u8] = &[
        OBJ_CLOSURE_V1,
        7,                          // code index
        1, VAL_REF, 1,              // env: [<oid 1>]
        1, 1, b'x', VAL_REF, 1,     // bindings: x = <oid 1>
        1, 2,                       // ptml: <oid 2>
    ];

    /// A run-time closure in the tag-4 form: code index 300, environment
    /// `[<oid 1>, 5]`, no bindings, no PTML.
    #[rustfmt::skip]
    const LEGACY_RUN_TIME_RECORD: &[u8] = &[
        OBJ_CLOSURE_V1,
        0xac, 0x02,                 // code index 300
        2, VAL_REF, 1, VAL_INT, 10, // env: [<oid 1>, 5]
        0,                          // no bindings
        0,                          // no ptml
    ];

    fn decode_record(bytes: &[u8]) -> Object {
        let mut r = Reader::new(bytes);
        let obj = get_object(&mut r).unwrap();
        assert!(r.is_empty(), "record not consumed");
        obj
    }

    #[test]
    fn legacy_closure_records_decode_to_bindings_and_ptml() {
        let with_ptml = ClosureObj {
            bindings: vec![("x".into(), SVal::Ref(Oid(1)))],
            ptml: Some(Oid(2)),
        };
        assert_eq!(
            decode_record(LEGACY_CLOSURE_RECORD),
            Object::Closure(with_ptml.clone())
        );
        // Re-encoding writes the current tag, without index or env.
        let mut out = Vec::new();
        put_object(&mut out, &Object::Closure(with_ptml.clone()));
        assert_eq!(
            out,
            [&[OBJ_CLOSURE][..], &LEGACY_CLOSURE_RECORD[5..]].concat()
        );
        assert_eq!(decode_record(&out), Object::Closure(with_ptml));

        // Without PTML the environment is kept, by position.
        assert_eq!(
            decode_record(LEGACY_RUN_TIME_RECORD),
            Object::Closure(ClosureObj::positional(&[SVal::Ref(Oid(1)), SVal::Int(5)]))
        );
    }

    #[test]
    fn a_legacy_run_time_closure_keeps_its_environment_alive() {
        let mut s = Store::new();
        assert_eq!(s.alloc(Object::Tuple(vec![])), Oid(1));
        let unreferenced = s.alloc(Object::Tuple(vec![]));
        let clo = s.alloc(decode_record(LEGACY_RUN_TIME_RECORD));
        s.set_root("f", clo);
        let stats = crate::gc::collect(&mut s, &[]);
        assert_eq!(stats.freed, 1);
        assert!(s.get(Oid(1)).is_ok(), "the env's object was collected");
        assert!(s.get(unreferenced).is_err());
    }

    #[test]
    fn zero_length_payloads_roundtrip() {
        // Empty byte arrays, PTML blobs, arrays and strings exercise the
        // zero-length varint payload paths.
        let mut s = Store::new();
        let ba = s.alloc(Object::ByteArray(Vec::new()));
        let ptml = s.alloc(Object::Ptml(Vec::new()));
        let arr = s.alloc(Object::Array(vec![SVal::from("")]));
        s.set_root("b", ba);
        let bytes = to_bytes(&s);
        let loaded = from_bytes(&bytes).unwrap();
        assert_eq!(loaded.get(ba).unwrap(), &Object::ByteArray(Vec::new()));
        assert_eq!(loaded.get(ptml).unwrap(), &Object::Ptml(Vec::new()));
        assert_eq!(
            loaded.get(arr).unwrap(),
            &Object::Array(vec![SVal::from("")])
        );
        assert_eq!(loaded.root("b"), Some(ba));
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let s = sample_store();
        let bytes = to_bytes(&s);
        let loaded = from_bytes(&bytes).unwrap();
        assert_eq!(loaded.len(), s.len());
        for ((_, a), (_, b)) in s.iter().zip(loaded.iter()) {
            assert_eq!(a, b);
        }
        assert_eq!(loaded.root("main"), s.root("main"));
        assert_eq!(loaded.root("db"), s.root("db"));
        assert_eq!(loaded.attr(Oid(4), "cost"), Some(42));
        assert_eq!(loaded.attr(Oid(4), "savings"), Some(-3));
    }

    #[test]
    fn empty_store_roundtrips() {
        let s = Store::new();
        let loaded = from_bytes(&to_bytes(&s)).unwrap();
        assert!(loaded.is_empty());
    }

    #[test]
    fn corrupt_magic_rejected() {
        assert!(matches!(from_bytes(b"NOTAST0"), Err(DecodeError::BadMagic)));
    }

    #[test]
    fn truncation_rejected() {
        let bytes = to_bytes(&sample_store());
        for cut in [bytes.len() - 1, bytes.len() / 2, 7] {
            assert!(from_bytes(&bytes[..cut]).is_err(), "cut {cut} accepted");
        }
    }

    #[test]
    fn versions_and_cache_roundtrip() {
        let mut s = sample_store();
        s.get_mut(Oid(1)).unwrap(); // bump a version
        s.get_mut(Oid(1)).unwrap();
        s.get_mut(Oid(3)).unwrap();
        let key = CacheKey {
            ptml_hash: 0xfeed,
            binding_sig: 0xbeef,
        };
        s.cache_insert(
            key,
            CacheEntry {
                observed: vec![(Oid(1), 2), (Oid(4), 0)],
                ptml: vec![7, 7],
                captures: vec![
                    ("real.sqrt".into(), Some(SVal::Ref(Oid(5)))),
                    ("k".into(), None),
                ],
                size_before: 40,
                size_after: 12,
                inlined: 3,
                tick: 0,
            },
        );
        let _ = s.cache_lookup(key); // accumulate some stats
        let loaded = from_bytes(&to_bytes(&s)).unwrap();
        assert_eq!(loaded.version(Oid(1)), 2);
        assert_eq!(loaded.version(Oid(3)), 1);
        assert_eq!(loaded.version(Oid(2)), 0);
        assert_eq!(loaded.cache().len(), 1);
        assert_eq!(loaded.cache_stats(), s.cache_stats());
        let (k, e) = loaded.cache().iter().next().unwrap();
        assert_eq!(*k, key);
        assert_eq!(e.ptml, vec![7, 7]);
        assert_eq!(e.captures.len(), 2);
        assert_eq!(e.observed, vec![(Oid(1), 2), (Oid(4), 0)]);
        // A hit against the reloaded store still validates.
        let mut loaded = loaded;
        assert!(loaded.cache_lookup(key).is_some());
    }

    #[test]
    fn reencode_is_byte_identical_with_cache_sections() {
        let mut s = sample_store();
        s.cache_insert(
            CacheKey {
                ptml_hash: 1,
                binding_sig: 2,
            },
            CacheEntry {
                observed: vec![(Oid(1), 0)],
                ptml: vec![1],
                captures: vec![],
                size_before: 1,
                size_after: 1,
                inlined: 0,
                tick: 0,
            },
        );
        let bytes = to_bytes(&s);
        let reencoded = to_bytes(&from_bytes(&bytes).unwrap());
        assert_eq!(bytes, reencoded);
    }

    #[test]
    fn trailing_garbage_rejected() {
        let mut bytes = to_bytes(&sample_store());
        bytes.push(0xff);
        // Extra bytes shift the CRC trailer, so the checksum catches it.
        assert!(matches!(
            from_bytes(&bytes),
            Err(DecodeError::BadCrc { .. })
        ));
    }

    #[test]
    fn current_format_is_v3_with_valid_crc() {
        let bytes = to_bytes(&sample_store());
        assert_eq!(&bytes[..6], MAGIC);
        let body = &bytes[..bytes.len() - 4];
        let stored = u32::from_le_bytes(bytes[bytes.len() - 4..].try_into().unwrap());
        assert_eq!(stored, crc32(body));
    }

    #[test]
    fn unknown_future_version_reported_distinctly() {
        assert!(matches!(
            from_bytes(b"TYSTO9xxxx"),
            Err(DecodeError::BadVersion(9))
        ));
    }

    #[test]
    fn every_bit_flip_is_detected() {
        // With the CRC trailer, *any* single-bit flip anywhere in the image
        // (including the trailer itself) must be rejected.
        let bytes = to_bytes(&sample_store());
        for pos in 0..bytes.len() {
            let mut m = bytes.clone();
            m[pos] ^= 0x01;
            assert!(from_bytes(&m).is_err(), "flip at {pos} accepted");
        }
    }
}
