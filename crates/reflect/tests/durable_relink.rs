//! Relinking a durable image: code-table indices are transient, so
//! `relink_image_code` writes them through the unlogged
//! `StoreAccess::set_transient_code` seam. On a `DurableStore` that marks
//! exactly the relinked closures dirty — the next checkpoint writes those
//! records and nothing else — and a crash before that checkpoint loses
//! nothing, because every open relinks again.

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
fn relink_dirties_exactly_the_relinked_closures() {
    let (dir, path) = image("dirty");
    let (mut s, relinked) = relinked(&path);
    let live = s.store.store().live();
    assert!(relinked > 0);
    assert_eq!(s.store.dirty_records(), relinked);
    assert!(relinked < live, "{relinked} closures of {live} objects");
    let expected = snapshot::to_bytes(s.store.store());
    s.store.checkpoint().unwrap();
    assert_eq!(s.store.dirty_records(), 0);
    drop(s);

    // Reopened without relinking, the image holds the relinked records.
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
    drop(s); // crash: the relinked code indices never reach disk
    let (mut s, relinked) = relinked(&path);
    assert!(relinked > 0);
    check_abs(&mut s);
    std::fs::remove_dir_all(&dir).ok();
}
