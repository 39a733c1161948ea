//! Relation/workload generation and index construction.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tml_store::object::{IndexKey, IndexObj};
use tml_store::{Object, Oid, Relation, SVal, Store, StoreAccess, StoreError};

/// A small deterministic relation with schema `id, value, flag`:
/// `id = i`, `value = i*10 mod (10*modulus)`, `flag = i mod 2 == 0`.
pub fn sample_relation(store: &mut Store, rows: usize, modulus: i64) -> Oid {
    let mut rel = Relation::new(vec!["id".into(), "value".into(), "flag".into()]);
    for i in 0..rows {
        let i = i as i64;
        rel.insert(vec![
            SVal::Int(i),
            SVal::Int((i * 10) % (10 * modulus)),
            SVal::Bool(i % 2 == 0),
        ]);
    }
    store.alloc(Object::Relation(rel))
}

/// A pseudo-random relation for benchmarks: schema `id, a, b`, with `a`
/// uniform in `0..a_card` and `b` uniform in `0..b_card`.
pub fn random_relation(store: &mut Store, rows: usize, a_card: i64, b_card: i64, seed: u64) -> Oid {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut rel = Relation::new(vec!["id".into(), "a".into(), "b".into()]);
    for i in 0..rows {
        rel.insert(vec![
            SVal::Int(i as i64),
            SVal::Int(rng.gen_range(0..a_card.max(1))),
            SVal::Int(rng.gen_range(0..b_card.max(1))),
        ]);
    }
    store.alloc(Object::Relation(rel))
}

/// Build a secondary index over `col` of the relation at `rel`. Takes the
/// store through the access seam so index construction is logged on
/// durable backends.
pub fn build_index(store: &mut dyn StoreAccess, rel: Oid, col: usize) -> Result<Oid, StoreError> {
    let relation = store.base().expect(rel, "relation", |o| match o {
        Object::Relation(r) => Some(r.clone()),
        _ => None,
    })?;
    let mut ix = IndexObj {
        relation: rel,
        column: col,
        entries: Default::default(),
    };
    for (i, row) in relation.rows.iter().enumerate() {
        if let Some(key) = row.get(col).and_then(IndexKey::from_sval) {
            ix.entries.entry(key).or_default().push(i);
        }
    }
    store.alloc(Object::Index(ix))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_covers_all_rows() {
        let mut store = Store::new();
        let rel = sample_relation(&mut store, 40, 4);
        let ix_oid = build_index(&mut store, rel, 1).unwrap();
        let Object::Index(ix) = store.get(ix_oid).unwrap() else {
            panic!()
        };
        let total: usize = ix.entries.values().map(Vec::len).sum();
        assert_eq!(total, 40);
        assert_eq!(ix.column, 1);
        assert_eq!(ix.relation, rel);
    }

    #[test]
    fn index_facts_match_column() {
        use tml_core::prim::IndexFacts;
        let mut store = Store::new();
        let rel = sample_relation(&mut store, 10, 4);
        let ix = build_index(&mut store, rel, 1).unwrap();
        assert_eq!(store.index_on(rel, 1), Some(ix));
        assert_eq!(store.index_on(rel, 0), None);
        assert_eq!(store.index_on(Oid(999), 1), None);
    }

    #[test]
    fn random_relation_is_deterministic_per_seed() {
        let mut s1 = Store::new();
        let mut s2 = Store::new();
        let a = random_relation(&mut s1, 20, 5, 9, 42);
        let b = random_relation(&mut s2, 20, 5, 9, 42);
        assert_eq!(s1.get(a).unwrap(), s2.get(b).unwrap());
    }

    #[test]
    fn indexing_non_relation_fails() {
        let mut store = Store::new();
        let arr = store.alloc(Object::Array(vec![]));
        assert!(build_index(&mut store, arr, 0).is_err());
    }
}
