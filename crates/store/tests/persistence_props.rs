//! Property tests for the persistence layer: arbitrary stores must
//! round-trip losslessly through the snapshot codec, and arbitrary TML
//! terms through the PTML codec.

use proptest::prelude::*;
use tml_core::Oid;
use tml_store::object::{ClosureObj, IndexKey, IndexObj, ModuleObj, Object, Relation};
use tml_store::{snapshot, SVal, Store};

fn sval_strategy() -> impl Strategy<Value = SVal> {
    prop_oneof![
        Just(SVal::Unit),
        any::<bool>().prop_map(SVal::Bool),
        any::<i64>().prop_map(SVal::Int),
        any::<f64>().prop_map(SVal::Real),
        any::<u8>().prop_map(SVal::Char),
        "[a-z]{0,12}".prop_map(|s| SVal::Str(s.into())),
        (0u64..100).prop_map(|o| SVal::Ref(Oid(o))),
    ]
}

fn svals() -> impl Strategy<Value = Vec<SVal>> {
    proptest::collection::vec(sval_strategy(), 0..6)
}

fn object_strategy() -> impl Strategy<Value = Object> {
    prop_oneof![
        svals().prop_map(Object::Array),
        svals().prop_map(Object::Vector),
        svals().prop_map(Object::Tuple),
        proptest::collection::vec(any::<u8>(), 0..32).prop_map(Object::ByteArray),
        proptest::collection::vec(any::<u8>(), 0..32).prop_map(Object::Ptml),
        (
            proptest::collection::vec(("[a-z.]{0,10}", sval_strategy()), 0..4),
            0u64..64,
        )
            .prop_map(|(bindings, ptml)| {
                Object::Closure(ClosureObj {
                    bindings,
                    ptml: (ptml > 0).then_some(Oid(ptml)),
                })
            }),
        (
            "[a-z]{1,8}",
            proptest::collection::btree_map("[a-z]{1,6}", sval_strategy(), 0..4)
        )
            .prop_map(|(name, exports)| Object::Module(ModuleObj { name, exports })),
        (1usize..4, 0usize..5).prop_map(|(cols, rows)| {
            let mut rel = Relation::new((0..cols).map(|i| format!("c{i}")).collect());
            for r in 0..rows {
                rel.insert(
                    (0..cols)
                        .map(|c| SVal::Int((r * cols + c) as i64))
                        .collect(),
                );
            }
            Object::Relation(rel)
        }),
        (0u64..50, 0usize..3).prop_map(|(rel, col)| {
            let mut entries = std::collections::BTreeMap::new();
            entries.insert(IndexKey::Int(1), vec![0, 2]);
            entries.insert(IndexKey::Str("k".into()), vec![1]);
            Object::Index(IndexObj {
                relation: Oid(rel),
                column: col,
                entries,
            })
        }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn snapshot_roundtrips_arbitrary_stores(
        objects in proptest::collection::vec(object_strategy(), 0..20),
        roots in proptest::collection::vec(("[a-z]{1,8}", 1u64..30), 0..4),
        attrs in proptest::collection::vec((1u64..30, "[a-z]{1,6}", any::<i64>()), 0..6),
        tombstones in proptest::collection::vec(1u64..20, 0..4),
    ) {
        let mut store = Store::new();
        let n = objects.len();
        for obj in objects {
            store.alloc(obj);
        }
        for (name, oid) in roots {
            store.set_root(name, Oid(oid));
        }
        for (oid, key, value) in attrs {
            store.set_attr(Oid(oid), key, value);
        }
        // Tombstone a few slots through the GC entry point: collect with
        // every slot rooted except the victims is fiddly, so tombstone by
        // collecting a store whose roots exclude them — instead simply use
        // gc with explicit roots for all but the victims.
        let victims: std::collections::HashSet<u64> =
            tombstones.into_iter().filter(|t| *t as usize <= n).collect();
        if !victims.is_empty() {
            let keep: Vec<Oid> = (1..=n as u64)
                .filter(|i| !victims.contains(i))
                .map(Oid)
                .collect();
            // Only keep-alive via extra roots; named roots may resurrect
            // some victims, which is fine — we only need *some* tombstones
            // sometimes, and the round-trip must hold either way.
            let _ = tml_store::gc::collect(&mut store, &keep);
        }

        let bytes = snapshot::to_bytes(&store);
        let loaded = snapshot::from_bytes(&bytes).unwrap();

        prop_assert_eq!(loaded.len(), store.len());
        prop_assert_eq!(loaded.live(), store.live());
        prop_assert_eq!(loaded.stats(), store.stats());
        for (oid, obj) in store.iter() {
            prop_assert_eq!(loaded.get(oid).unwrap(), obj);
        }
        let a: Vec<_> = store.roots().map(|(n, o)| (n.to_string(), o)).collect();
        let b: Vec<_> = loaded.roots().map(|(n, o)| (n.to_string(), o)).collect();
        prop_assert_eq!(a, b);
        // A second encode is byte-identical (canonical form).
        prop_assert_eq!(bytes, snapshot::to_bytes(&loaded));
    }

    #[test]
    fn truncated_snapshots_never_panic(
        objects in proptest::collection::vec(object_strategy(), 1..8),
        cut_frac in 0.0f64..1.0,
    ) {
        let mut store = Store::new();
        for obj in objects {
            store.alloc(obj);
        }
        let bytes = snapshot::to_bytes(&store);
        let cut = ((bytes.len() as f64) * cut_frac) as usize;
        // Must return an error or a valid store — never panic.
        let _ = snapshot::from_bytes(&bytes[..cut.min(bytes.len().saturating_sub(1))]);
    }
}
