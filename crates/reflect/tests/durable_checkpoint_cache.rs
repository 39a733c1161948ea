//! The optimizer's derived-attribute cache across WAL checkpoints.
//!
//! The paper's optimizer attaches derived attributes (costs, savings,
//! cached optimized code) to closures, and those become part of the
//! persistent system state. Under the durable store the cache is
//! *unlogged derived data*: mutations never append cache records to the
//! log, but every checkpoint image captures the cache wholesale — so a
//! crash after a checkpoint recovers the cache as of that checkpoint,
//! while redo replays only the logged object mutations on top.

use tml_lang::{Session, SessionConfig};
use tml_reflect::{optimize_named, ReflectOptions};
use tml_store::durable::{DurableOptions, DurableStore};
use tml_store::{Object, SVal, StoreAccess};

const SRC: &str = "
module complex export new, x, y
let new(a: Real, b: Real): Tuple = tuple(a, b)
let x(c: Tuple): Real = c.0
let y(c: Tuple): Real = c.1
end
module geom export abs, dot
let abs(c: Tuple): Real =
  real.sqrt(complex.x(c) * complex.x(c) + complex.y(c) * complex.y(c))
let dot(a: Tuple, b: Tuple): Real =
  complex.x(a) * complex.x(b) + complex.y(a) * complex.y(b)
end";

fn tmpdir() -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("tml_reflect_durable_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn optimizer_cache_survives_checkpoints_and_crash_recovery() {
    let mut s = Session::new(SessionConfig::default()).unwrap();
    s.load_str(SRC).unwrap();
    let opts = ReflectOptions::default();
    optimize_named(&mut s, "geom.abs", &opts).unwrap();
    optimize_named(&mut s, "geom.dot", &opts).unwrap();
    let ncache = s.store.cache().len();
    assert!(ncache >= 2, "expected cached products, got {ncache}");

    // Adopting the session store is itself a checkpoint: the image (cache
    // included) is written before any mutation is logged.
    let dir = tmpdir();
    let path = dir.join("db.tys");
    let mut ds = DurableStore::from_store(s.store, &path, DurableOptions::default()).unwrap();

    // Mutate and commit, then crash without a checkpoint: recovery must
    // redo the logged mutations *and* keep the checkpointed cache.
    let oid = ds.alloc(Object::Array(vec![SVal::Int(42)])).unwrap();
    ds.set_root("extra", oid).unwrap();
    ds.commit().unwrap();
    drop(ds);

    let (mut ds, report) = DurableStore::open(&path, DurableOptions::default()).unwrap();
    assert_eq!(report.redo_records, 3, "alloc + set_root + commit marker");
    assert!(!report.stale_log);
    assert_eq!(
        ds.store().cache().len(),
        ncache,
        "checkpointed cache entries must survive crash recovery"
    );
    assert_eq!(
        ds.store().get(oid).unwrap(),
        &Object::Array(vec![SVal::Int(42)]),
        "redone mutation visible alongside the recovered cache"
    );
    // A surviving entry revalidates: its observed versions were captured
    // by the checkpoint and the redone mutations did not touch them.
    let key = *ds.store().cache().iter().next().unwrap().0;
    assert!(
        StoreAccess::cache_lookup(&mut ds, key).is_some(),
        "recovered cache entry must still be a hit"
    );

    // Across an explicit checkpoint the log empties but the cache rides
    // the new image.
    ds.checkpoint().unwrap();
    drop(ds);
    let (ds, report) = DurableStore::open(&path, DurableOptions::default()).unwrap();
    assert_eq!(report.redo_records, 0, "checkpoint left nothing to redo");
    assert_eq!(ds.store().cache().len(), ncache);
    std::fs::remove_dir_all(&dir).ok();
}
