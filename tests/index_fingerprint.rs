//! With query primitives installed, the store's index structures are an
//! input to every reflective optimization, so they are part of every cache
//! key. Fingerprinting them scans the whole store; that scan must happen
//! once per `optimize_all` / `optimize_value` call, not once per target.
//!
//! This binary holds a single test because it enables the process-wide
//! trace recorder to read the `reflect.index_fingerprint` counter.

use tycoon::lang::stanford::suite;
use tycoon::lang::{Session, SessionConfig};
use tycoon::query::QuerySession;
use tycoon::reflect::{optimize_all, optimize_named, ReflectOptions};
use tycoon::store::{Object, Relation, SVal};

fn fingerprints() -> u64 {
    tycoon::trace::counter("reflect.index_fingerprint").get()
}

#[test]
fn index_fingerprint_is_computed_once_per_call() {
    let mut s = Session::new(SessionConfig::default()).unwrap();
    s.enable_queries().unwrap();
    for p in suite() {
        s.load_str(p.src).unwrap();
    }
    let mut rel = Relation::new(vec!["id".into(), "k".into()]);
    rel.insert(vec![SVal::Int(1), SVal::Int(2)]);
    let rel = s.store.alloc(Object::Relation(rel));
    tycoon::query::data::build_index(&mut s.store, rel, 1).unwrap();

    let rec = tycoon::trace::global();
    rec.set_enabled(true);
    let before = fingerprints();
    let report = optimize_all(&mut s, &ReflectOptions::default()).unwrap();
    let after_all = fingerprints();
    optimize_named(&mut s, "fib.main", &ReflectOptions::default()).unwrap();
    let after_one = fingerprints();
    rec.set_enabled(false);

    assert!(report.functions > 50, "{report:?}");
    assert_eq!(
        after_all - before,
        1,
        "once for {} targets",
        report.functions
    );
    assert_eq!(after_one - after_all, 1);
}
