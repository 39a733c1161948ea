//! Deterministic fault-injection matrix over the catalog save/load
//! failpoint sites, driven through `DurableStore` checkpoints and
//! `paged::open_catalog`. Every scenario runs under a fixed seed set — or the
//! single seed given via `TML_FAULT_SEED` (CI sweeps a matrix of values) —
//! so any failure replays exactly.

use std::path::Path;
use tml_store::failpoint::{Action, FailSpec, ScopedFailpoints};
use tml_store::object::{ClosureObj, Object};
use tml_store::{paged, snapshot};
use tml_store::{DurableOptions, DurableStore, RecoverySource, SVal, Store};

fn seeds() -> Vec<u64> {
    match std::env::var("TML_FAULT_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
    {
        Some(s) => vec![s],
        None => vec![1, 2, 3, 0xC0FFEE],
    }
}

fn sample_store(tag: i64) -> Store {
    let mut store = Store::new();
    let t = store.alloc(Object::Tuple(vec![SVal::Int(tag), SVal::Str("x".into())]));
    let p = store.alloc(Object::Ptml(vec![1, 2, 3]));
    let c = store.alloc(Object::Closure(ClosureObj {
        bindings: vec![("t".into(), SVal::Ref(t))],
        ptml: Some(p),
    }));
    store.set_root("main", c);
    store
}

fn tmpdir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("tml_fault_{}_{}", name, std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// The hash key the catalog failpoint sites use for this image path, so
/// armed faults never leak into other tests' catalog traffic.
fn key_of(path: &Path) -> u64 {
    tml_store::cache::hash_bytes(path.as_os_str().as_encoded_bytes())
}

/// Write `store` as a fresh image at `path` and close it: the closing
/// checkpoint rotates the first catalog to `.bak`, so primary and backup
/// both describe `store`.
fn write_closed(store: Store, path: &Path) {
    DurableStore::from_store(store, path, DurableOptions::default())
        .unwrap()
        .close()
        .unwrap();
}

fn open_catalog(path: &Path) -> paged::OpenedCatalog {
    paged::open_catalog(path)
        .unwrap()
        .expect("a catalog sibling decodes")
}

#[test]
fn injected_io_errors_never_lose_the_previous_image() {
    let dir = tmpdir("io");
    let path = dir.join("io.tys");
    let reference = snapshot::to_bytes(&sample_store(7));

    for site in [
        "catalog.save.write",
        "catalog.save.fsync",
        "catalog.save.backup",
        "catalog.save.rename",
    ] {
        write_closed(sample_store(7), &path);
        let (mut ds, _) = DurableStore::open(&path, DurableOptions::default()).unwrap();
        let t = ds.alloc(Object::Tuple(vec![SVal::Int(8)])).unwrap();
        ds.set_root("main", t).unwrap();
        ds.commit().unwrap();
        let _fp =
            ScopedFailpoints::new(&[(site, FailSpec::always(Action::Io).for_key(key_of(&path)))]);
        let err = ds.checkpoint();
        assert!(err.is_err(), "{site}: injected IO error must surface");
        drop(_fp);
        drop(ds);
        // The crash window left either the old primary or its backup
        // decodable, with the pre-checkpoint contents.
        let opened = open_catalog(&path);
        assert_eq!(snapshot::to_bytes(&opened.store), reference, "{site}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn corrupted_writes_fall_back_to_the_backup_for_every_seed() {
    for seed in seeds() {
        let dir = tmpdir(&format!("flip{seed}"));
        let path = dir.join("flip.tys");
        let good = sample_store(7);
        let reference = snapshot::to_bytes(&good);
        let mut ds = DurableStore::from_store(good, &path, DurableOptions::default()).unwrap();
        {
            let _fp = ScopedFailpoints::new(&[(
                "catalog.save.bytes",
                FailSpec::always(Action::FlipBits(4))
                    .for_key(key_of(&path))
                    .with_seed(seed),
            )]);
            // The corrupt catalog lands at the primary path; the good one
            // rotates to .bak.
            ds.checkpoint().unwrap();
        }
        drop(ds);
        let opened = open_catalog(&path);
        assert_ne!(
            opened.source,
            RecoverySource::Primary,
            "seed {seed}: corruption must be detected"
        );
        assert_eq!(
            snapshot::to_bytes(&opened.store),
            reference,
            "seed {seed}: backup must restore the previous catalog"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn short_writes_fall_back_or_fail_cleanly_for_every_seed() {
    for (seed, permille) in seeds().into_iter().zip([950u32, 700, 400, 60]) {
        let dir = tmpdir(&format!("short{seed}"));
        let path = dir.join("short.tys");
        {
            let _fp = ScopedFailpoints::new(&[(
                "catalog.save.bytes",
                FailSpec::always(Action::ShortWrite(permille))
                    .for_key(key_of(&path))
                    .with_seed(seed),
            )]);
            drop(
                DurableStore::from_store(sample_store(9), &path, DurableOptions::default())
                    .unwrap(),
            );
        }
        // No backup exists (the first catalog was already truncated): the
        // open is a clean error — never a panic, never a store decoded
        // from a truncated primary.
        match DurableStore::open(&path, DurableOptions::default()) {
            Ok((_, report)) => panic!("permille {permille}: opened from {:?}", report.source),
            Err(e) => assert_eq!(e.kind(), std::io::ErrorKind::InvalidData, "{e}"),
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn read_side_corruption_is_caught_by_the_crc_for_every_seed() {
    for seed in seeds() {
        let dir = tmpdir(&format!("read{seed}"));
        let path = dir.join("read.tys");
        let good = sample_store(11);
        let reference = snapshot::to_bytes(&good);
        write_closed(good, &path); // both primary and .bak good

        let _fp = ScopedFailpoints::new(&[(
            "catalog.load.bytes",
            FailSpec::always(Action::FlipBits(1))
                .for_key(key_of(&path))
                .with_seed(seed),
        )]);
        // The fault is keyed to the primary path, so the backup read is
        // clean: the open must land there with the full contents.
        let opened = open_catalog(&path);
        assert_eq!(opened.source, RecoverySource::Backup, "seed {seed}");
        assert_eq!(snapshot::to_bytes(&opened.store), reference, "seed {seed}");
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn ptml_decode_corruption_errors_instead_of_panicking() {
    use tml_core::term::{Abs, App, Value};
    use tml_core::Ctx;
    let mut ctx = Ctx::new();
    let x = ctx.names.fresh("x");
    let k = ctx.names.fresh("k");
    let abs = Abs::new(vec![x, k], App::new(Value::Var(k), vec![Value::Var(x)]));
    let bytes = tml_store::ptml::encode_abs(&ctx, &abs);
    assert!(tml_store::ptml::decode_abs(&mut ctx, &bytes).is_ok());

    for seed in seeds() {
        let _fp = ScopedFailpoints::new(&[(
            "ptml.decode",
            FailSpec::always(Action::FlipBits(6)).with_seed(seed),
        )]);
        // Flipping six bits may or may not leave a decodable term, but the
        // decoder must return — Ok or Err — without panicking.
        let _ = tml_store::ptml::decode_abs(&mut ctx, &bytes);
    }
}

#[test]
fn sticky_vs_once_specs_behave_as_documented() {
    let dir = tmpdir("once");
    let path = dir.join("once.tys");
    let good = sample_store(13);
    let _fp = ScopedFailpoints::new(&[(
        "catalog.save.write",
        FailSpec::always(Action::Io).for_key(key_of(&path)).once(),
    )]);
    let opts = DurableOptions::default();
    assert!(
        DurableStore::from_store(good.clone(), &path, opts).is_err(),
        "first save must fail"
    );
    assert!(
        DurableStore::from_store(good, &path, opts).is_ok(),
        "one-shot spec must clear"
    );
    let loaded = open_catalog(&path).store;
    let main = loaded.root("main").expect("root survives");
    assert!(matches!(loaded.get(main), Ok(Object::Closure(_))));
    std::fs::remove_dir_all(&dir).ok();
}
