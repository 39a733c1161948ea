//! The derived-attribute table: small integer facts about objects
//! (`optimized`, `size_before`, `tier.calls`, …) keyed by OID and name.
//!
//! A store uses a handful of distinct attribute names across thousands of
//! objects, so each name is held once, in the table's key set, and every
//! row shares it by reference count. Decoding a row or setting an
//! attribute under a known name allocates no string, and a lookup
//! allocates nothing. A row is a `Vec` sorted by key, so iteration, and
//! with it the encoded bytes, stay in key order.

use crate::varint::{put_i64, put_str, put_u64, DecodeError, Reader};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use tml_core::Oid;

/// One object's attributes: sorted by key, keys unique, never empty.
type Row = Vec<(Arc<str>, i64)>;

/// Attributes by OID, over one shared set of key names.
#[derive(Debug, Clone, Default)]
pub(crate) struct AttrTable {
    /// Every name ever set or decoded. Names are few and never freed.
    keys: BTreeSet<Arc<str>>,
    rows: BTreeMap<Oid, Row>,
}

/// The shared copy of `key`, allocated on its first use only.
fn intern(keys: &mut BTreeSet<Arc<str>>, key: &str) -> Arc<str> {
    if let Some(k) = keys.get(key) {
        return k.clone();
    }
    let k: Arc<str> = key.into();
    keys.insert(k.clone());
    k
}

fn find(row: &Row, key: &str) -> Result<usize, usize> {
    row.binary_search_by(|(k, _)| (**k).cmp(key))
}

impl AttrTable {
    pub(crate) fn get(&self, oid: Oid, key: &str) -> Option<i64> {
        let row = self.rows.get(&oid)?;
        find(row, key).ok().map(|i| row[i].1)
    }

    pub(crate) fn set(&mut self, oid: Oid, key: &str, value: i64) {
        let row = self.rows.entry(oid).or_default();
        match find(row, key) {
            Ok(i) => row[i].1 = value,
            Err(i) => row.insert(i, (intern(&mut self.keys, key), value)),
        }
    }

    /// Remove one attribute; a row left empty is dropped, so the table
    /// keeps the shape `set` produces (encoding byte-determinism).
    pub(crate) fn remove(&mut self, oid: Oid, key: &str) -> Option<i64> {
        let row = self.rows.get_mut(&oid)?;
        let prev = find(row, key).ok().map(|i| row.remove(i).1);
        if row.is_empty() {
            self.rows.remove(&oid);
        }
        prev
    }

    /// Drop every attribute of `oid`.
    pub(crate) fn remove_oid(&mut self, oid: Oid) {
        self.rows.remove(&oid);
    }

    /// `oid`'s attributes in key order.
    pub(crate) fn of(&self, oid: Oid) -> impl Iterator<Item = (&str, i64)> {
        self.rows
            .get(&oid)
            .into_iter()
            .flat_map(|row| row.iter().map(|(k, v)| (&**k, *v)))
    }

    /// Append the attribute section: row count, then per row in OID
    /// order its OID, key count and `(key, value)` pairs in key order.
    pub(crate) fn encode(&self, out: &mut Vec<u8>) {
        put_u64(out, self.rows.len() as u64);
        for (oid, row) in &self.rows {
            put_u64(out, oid.0);
            put_u64(out, row.len() as u64);
            for (k, v) in row {
                put_str(out, k);
                put_i64(out, *v);
            }
        }
    }

    /// Read a section written by [`AttrTable::encode`]. Rows must come in
    /// ascending OID order and keys in ascending order within a row, as
    /// the encoder writes them; a repeat or an inversion is
    /// [`DecodeError::Order`]. The OID map is built in one pass from that
    /// sorted run. An empty row (never written) is skipped.
    pub(crate) fn decode(r: &mut Reader<'_>) -> Result<AttrTable, DecodeError> {
        let mut keys = BTreeSet::new();
        let nrows = r.len()?;
        // A row takes at least two bytes, and so does a pair.
        let mut rows: Vec<(Oid, Row)> = Vec::with_capacity(nrows.min(r.remaining() / 2));
        for _ in 0..nrows {
            let oid = Oid(r.u64()?);
            if rows.last().is_some_and(|(prev, _)| *prev >= oid) {
                return Err(DecodeError::Order(oid.0));
            }
            let nkv = r.len()?;
            let mut row: Row = Vec::with_capacity(nkv.min(r.remaining() / 2));
            for ix in 0..nkv {
                let k = r.str()?;
                let v = r.i64()?;
                if row.last().is_some_and(|(prev, _)| **prev >= *k) {
                    return Err(DecodeError::Order(ix as u64));
                }
                row.push((intern(&mut keys, k), v));
            }
            if !row.is_empty() {
                rows.push((oid, row));
            }
        }
        Ok(AttrTable {
            keys,
            rows: rows.into_iter().collect(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(t: &AttrTable) -> AttrTable {
        let mut bytes = Vec::new();
        t.encode(&mut bytes);
        let mut r = Reader::new(&bytes);
        let back = AttrTable::decode(&mut r).unwrap();
        assert!(r.is_at_end());
        back
    }

    #[test]
    fn keys_are_shared_and_rows_stay_sorted() {
        let mut t = AttrTable::default();
        for oid in 1..=3 {
            t.set(Oid(oid), "size_before", 10);
            t.set(Oid(oid), "optimized", 1);
            t.set(Oid(oid), "tier.calls", oid as i64);
        }
        assert_eq!(t.keys.len(), 3, "one copy per name");
        let a = &t.rows[&Oid(1)][0].0;
        let b = &t.rows[&Oid(3)][0].0;
        assert!(Arc::ptr_eq(a, b));
        let order: Vec<&str> = t.of(Oid(2)).map(|(k, _)| k).collect();
        assert_eq!(order, ["optimized", "size_before", "tier.calls"]);
        let back = roundtrip(&t);
        assert_eq!(back.keys.len(), 3, "decoding interns too");
        assert_eq!(back.get(Oid(3), "tier.calls"), Some(3));
        let (mut x, mut y) = (Vec::new(), Vec::new());
        t.encode(&mut x);
        back.encode(&mut y);
        assert_eq!(x, y);
    }

    #[test]
    fn unordered_rows_and_keys_are_rejected() {
        let mut bytes = Vec::new();
        put_u64(&mut bytes, 2);
        for oid in [5, 5] {
            put_u64(&mut bytes, oid);
            put_u64(&mut bytes, 1);
            put_str(&mut bytes, "k");
            put_i64(&mut bytes, 1);
        }
        let err = AttrTable::decode(&mut Reader::new(&bytes)).unwrap_err();
        assert_eq!(err, DecodeError::Order(5));

        let mut bytes = Vec::new();
        put_u64(&mut bytes, 1);
        put_u64(&mut bytes, 1);
        put_u64(&mut bytes, 2);
        for k in ["b", "a"] {
            put_str(&mut bytes, k);
            put_i64(&mut bytes, 0);
        }
        let err = AttrTable::decode(&mut Reader::new(&bytes)).unwrap_err();
        assert_eq!(err, DecodeError::Order(1));
    }
}
