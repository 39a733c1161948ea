//! Corruption robustness: no byte flip or truncation of the TYSTO3 store
//! encoding or of a TYCAT2 catalog may panic the decoder, and a damaged
//! catalog is never trusted — the open falls back to the previous
//! checkpoint's `.bak` or reports nothing decodable.

use std::path::Path;
use tml_store::object::{ClosureObj, ModuleObj, Object, Relation};
use tml_store::{paged, snapshot, DurableOptions, DurableStore, RecoverySource, SVal, Store};

/// A small but representative store: every object kind, roots, attrs,
/// versions and a cache-bearing tail would be overkill — what matters is
/// several framed records plus the root/attr tail sections.
fn sample_store() -> Store {
    let mut store = Store::new();
    let t = store.alloc(Object::Tuple(vec![SVal::Int(3), SVal::Real(4.0)]));
    let bytes = store.alloc(Object::ByteArray(vec![1, 2, 3, 4, 5]));
    let ptml = store.alloc(Object::Ptml(vec![0xde, 0xad, 0xbe, 0xef]));
    let clo = store.alloc(Object::Closure(ClosureObj {
        code: 7,
        env: vec![SVal::Ref(t)],
        bindings: vec![("x".into(), SVal::Ref(t)), ("k".into(), SVal::Int(9))],
        ptml: Some(ptml),
    }));
    let mut rel = Relation::new(vec!["a".into(), "b".into()]);
    rel.insert(vec![SVal::Int(1), SVal::Str("one".into())]);
    rel.insert(vec![SVal::Int(2), SVal::Str("two".into())]);
    let rel = store.alloc(Object::Relation(rel));
    let module = store.alloc(Object::Module(ModuleObj {
        name: "m".into(),
        exports: [("f".to_string(), SVal::Ref(clo))].into_iter().collect(),
    }));
    store.set_root("m", module);
    store.set_root("rel", rel);
    store.set_root("blob", bytes);
    store.set_attr(clo, "optimized", 1);
    store
}

#[test]
fn every_single_byte_flip_is_rejected_without_panicking() {
    let image = snapshot::to_bytes(&sample_store());
    for i in 0..image.len() {
        for bit in [0x01u8, 0x80, 0xff] {
            let mut corrupt = image.clone();
            corrupt[i] ^= bit;
            let r = snapshot::from_bytes(&corrupt);
            assert!(
                r.is_err(),
                "flip of byte {i} (mask {bit:#04x}) not detected"
            );
        }
    }
}

#[test]
fn every_truncation_is_rejected_without_panicking() {
    let image = snapshot::to_bytes(&sample_store());
    for len in 0..image.len() {
        let r = snapshot::from_bytes(&image[..len]);
        assert!(r.is_err(), "truncation to {len} bytes not detected");
    }
}

/// Every damaged variant of `primary` written at `path` must open from
/// the `.bak` as exactly `previous` when `fallback` holds, or not at all
/// otherwise — and never from the primary.
fn assert_catalog_damage_is_contained(path: &Path, primary: &[u8], fallback: Option<&[u8]>) {
    let check = |what: String, damaged: &[u8]| {
        std::fs::write(path, damaged).unwrap();
        match paged::open_catalog(path) {
            Ok(Some(opened)) => {
                assert_eq!(opened.source, RecoverySource::Backup, "{what}");
                assert_eq!(
                    Some(snapshot::to_bytes(&opened.store).as_slice()),
                    fallback,
                    "{what}: backup must be the previous checkpoint"
                );
            }
            Ok(None) => assert!(fallback.is_none(), "{what}: backup not used"),
            Err(e) => panic!("{what}: {e}"),
        }
    };
    for i in 0..primary.len() {
        for bit in 0..8 {
            let mut damaged = primary.to_vec();
            damaged[i] ^= 1 << bit;
            check(format!("flip of byte {i} bit {bit}"), &damaged);
        }
    }
    for len in 0..primary.len() {
        check(format!("truncation to {len} bytes"), &primary[..len]);
    }
}

#[test]
fn every_catalog_flip_and_truncation_falls_back_or_fails_cleanly() {
    let dir = std::env::temp_dir().join(format!("tml_catalog_sweep_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("sweep.tys");
    let previous = sample_store();
    let previous_bytes = snapshot::to_bytes(&previous);
    // Checkpoint 1 is `previous`; checkpoint 2 adds one object and root,
    // rotating checkpoint 1's catalog to `.bak`.
    let mut ds = DurableStore::from_store(previous, &path, DurableOptions::default()).unwrap();
    let extra = ds.alloc(Object::ByteArray(vec![9; 40])).unwrap();
    ds.set_root("extra", extra).unwrap();
    ds.commit().unwrap();
    ds.checkpoint().unwrap();
    drop(ds);
    let primary = std::fs::read(&path).unwrap();
    assert!(primary.starts_with(b"TYCAT2"));

    assert_catalog_damage_is_contained(&path, &primary, Some(&previous_bytes));
    std::fs::remove_file(paged::backup_path(&path)).unwrap();
    assert_catalog_damage_is_contained(&path, &primary, None);
    std::fs::remove_dir_all(&dir).ok();
}
