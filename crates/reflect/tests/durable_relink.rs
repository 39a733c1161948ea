//! Relinking a durable image: a closure record holds only PTML and
//! bindings, and its code lives in the session's code table, so
//! `relink_image_code` reads the store and writes nothing to it. After
//! open and relink nothing is dirty or logged, a checkpoint right after
//! writes no record, and a crash at any point loses nothing, because
//! every open relinks again.

use tml_core::Registry;
use tml_lang::{Session, SessionConfig};
use tml_reflect::{relink_image_code, session_from_access_with};
use tml_store::durable::{DurableOptions, DurableStore};
use tml_store::snapshot;
use tml_vm::RVal;

const SRC: &str = "
module complex export new, x, y
let new(a: Real, b: Real): Tuple = tuple(a, b)
let x(c: Tuple): Real = c.0
let y(c: Tuple): Real = c.1
end
module geom export abs
let abs(c: Tuple): Real =
  real.sqrt(complex.x(c) * complex.x(c) + complex.y(c) * complex.y(c))
end";

fn image(name: &str) -> (std::path::PathBuf, std::path::PathBuf) {
    let dir = std::env::temp_dir().join(format!("tml_relink_{name}_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("world.tys");
    let mut s = Session::new(SessionConfig::default()).unwrap();
    s.load_str(SRC).unwrap();
    DurableStore::from_store(s.store, &path, DurableOptions::default())
        .unwrap()
        .close()
        .unwrap();
    (dir, path)
}

fn relinked(path: &std::path::Path) -> (Session<DurableStore>, usize) {
    let (ds, report) = DurableStore::open(path, DurableOptions::default()).unwrap();
    assert_eq!(report.redo_records, 0, "relink writes nothing to the log");
    assert_eq!(ds.dirty_records(), 0);
    let mut s = session_from_access_with(ds, SessionConfig::default(), Registry::standard());
    let relink = relink_image_code(&mut s).unwrap();
    assert_eq!(relink.skipped, 0, "{relink:?}");
    (s, relink.relinked)
}

fn check_abs(s: &mut Session<DurableStore>) {
    let c = s
        .call("complex.new", vec![RVal::Real(3.0), RVal::Real(4.0)])
        .unwrap()
        .result;
    assert_eq!(s.call("geom.abs", vec![c]).unwrap().result, RVal::Real(5.0));
}

#[test]
fn relink_writes_nothing() {
    let (dir, path) = image("clean");
    let (mut s, relinked) = relinked(&path);
    assert!(relinked > 0);
    assert_eq!(s.store.dirty_records(), 0, "relink dirties no record");
    assert_eq!(s.store.wal_stats().appends, 0, "relink logs nothing");
    let expected = snapshot::to_bytes(s.store.store());
    let pages = s.store.page_stats();
    s.store.checkpoint().unwrap();
    let after = s.store.page_stats();
    assert_eq!(
        (after.pages, after.live_bytes, after.dead_bytes),
        (pages.pages, pages.live_bytes, pages.dead_bytes),
        "the checkpoint rewrote records"
    );
    drop(s);

    // Reopened without relinking, the image is the one it was.
    let (back, report) = DurableStore::open(&path, DurableOptions::default()).unwrap();
    assert_eq!(report.redo_records, 0);
    assert_eq!(snapshot::to_bytes(back.store()), expected);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_crash_before_the_checkpoint_is_healed_by_the_next_relink() {
    let (dir, path) = image("crash");
    let (mut s, _) = relinked(&path);
    check_abs(&mut s);
    drop(s); // crash: the links die with the session
    let (mut s, relinked) = relinked(&path);
    assert!(relinked > 0);
    check_abs(&mut s);
    std::fs::remove_dir_all(&dir).ok();
}

/// An image written before closure records dropped their code index and
/// environment: `fib` (`main.main`) and the stdlib, saved by
/// `tmlc snapshot`, every closure under the old object tag 4. It opens
/// through the paged catalog, relinks from PTML and runs.
#[test]
fn an_image_with_old_closure_records_relinks_and_runs() {
    let dir = std::env::temp_dir().join(format!("tml_relink_v1_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("fib.img");
    let data = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/data");
    for ext in ["", ".p0", ".wal"] {
        std::fs::copy(
            data.join(format!("closure_v1.img{ext}")),
            dir.join(format!("fib.img{ext}")),
        )
        .unwrap();
    }
    let (ds, _) = DurableStore::open(&path, DurableOptions::default()).unwrap();
    let mut s = session_from_access_with(ds, SessionConfig::default(), Registry::standard());
    let relink = relink_image_code(&mut s).unwrap();
    assert_eq!((relink.relinked, relink.skipped), (37, 0), "{relink:?}");
    let fib = s.call("main.main", vec![RVal::Int(10)]).unwrap();
    assert_eq!(fib.result, RVal::Int(55));
    std::fs::remove_dir_all(&dir).ok();
}
