//! Closure groups — the mutually recursive procedures of a `Y` that does
//! not compile to loops — are transient values: they reach the store only
//! when a member escapes into it.

use std::path::PathBuf;
use tycoon::core::parse::parse_app;
use tycoon::core::Registry;
use tycoon::lang::stanford::SIEVE;
use tycoon::lang::{Session, SessionConfig};
use tycoon::store::wal::wal_path;
use tycoon::store::{DurableOptions, DurableStore, Wal, WalRecord};
use tycoon::vm::RVal;

#[test]
fn member_returned_by_one_call_is_callable_in_the_next() {
    let mut s = Session::new(SessionConfig::default()).unwrap();
    // A procedure returning `even` of an even/odd group.
    let src = "(halt proc(ce cc) (Y proc(^c0 ^even ^odd ^c) (c \
        cont() (cc even) \
        proc(n ce2 cc2) (= n 0 cont() (cc2 1) cont() (- n 1 ce2 cont(m) (odd m ce2 cc2))) \
        proc(n ce2 cc2) (= n 0 cont() (cc2 0) cont() (- n 1 ce2 cont(m) (even m ce2 cc2))))))";
    let parsed = parse_app(&mut s.ctx, src).unwrap();
    let block = s.vm.compile_program(&s.ctx, &parsed.app).unwrap();
    let make = s.vm.run_program(&mut s.store, block, 1_000).unwrap().result;
    let objects = s.store.len();

    let even = s.call_value(make, vec![]).unwrap().result;
    assert!(matches!(even, RVal::Group(..)), "{even:?}");
    s.collect_garbage().unwrap();
    for (n, want) in [(9, 0), (10, 1)] {
        let r = s.call_value(even.clone(), vec![RVal::Int(n)]).unwrap();
        assert_eq!(r.result, RVal::Int(want), "even({n})");
    }
    assert_eq!(s.store.len(), objects, "no call allocated a store object");
}

/// A fresh image path under the system temp directory.
fn image(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tml_closure_groups_{}_{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir.join("img")
}

#[test]
fn durable_call_running_escaping_loops_logs_no_closures() {
    // Library-lowered, unoptimized sieve: its loop continuations escape
    // into library calls, so every loop entry runs a closure group.
    let img = image("sieve");
    let ds = DurableStore::create(&img, DurableOptions::default()).unwrap();
    let mut s = Session::on_store(ds, SessionConfig::default(), Registry::standard()).unwrap();
    s.load_str(SIEVE).unwrap();
    s.store.commit().unwrap();
    s.store.checkpoint().unwrap();

    let out = s.call("sieve.main", vec![RVal::Int(100)]).unwrap();
    assert_eq!(out.result, RVal::Int(25));
    assert!(out.stats.closures > 0);
    s.store.commit().unwrap();

    let scan = Wal::scan(wal_path(&img)).unwrap();
    let allocs: Vec<&'static str> = scan.records[..scan.committed]
        .iter()
        .filter_map(|(_, rec)| match rec {
            WalRecord::Alloc { obj, .. } => Some(obj.kind()),
            _ => None,
        })
        .collect();
    // The flags array and the `var` cells: 1 + 1 + one per prime.
    assert_eq!(allocs, ["array"; 27], "only arrays are logged");
    drop(s);
    let _ = std::fs::remove_dir_all(img.parent().unwrap());
}
