//! Closure groups — the mutually recursive procedures of a `Y` that does
//! not compile to loops — are transient values: they reach the store only
//! when a member escapes into it.

use std::path::PathBuf;
use tycoon::core::parse::parse_app;
use tycoon::core::Registry;
use tycoon::lang::stanford::{suite, SIEVE};
use tycoon::lang::{Session, SessionConfig};
use tycoon::reflect::{relink_image_code, session_from_access_with};
use tycoon::store::wal::wal_path;
use tycoon::store::{DurableOptions, DurableStore, Object, Oid, SVal, StoreAccess, Wal, WalRecord};
use tycoon::vm::machine::VmError;
use tycoon::vm::{Machine, RVal};

/// A procedure returning `even` of an even/odd group.
const MAKE_EVEN: &str = "(halt proc(ce cc) (Y proc(^c0 ^even ^odd ^c) (c \
    cont() (cc even) \
    proc(n ce2 cc2) (= n 0 cont() (cc2 1) cont() (- n 1 ce2 cont(m) (odd m ce2 cc2))) \
    proc(n ce2 cc2) (= n 0 cont() (cc2 0) cont() (- n 1 ce2 cont(m) (even m ce2 cc2))))))";

/// Compile and run a raw TML program in `s`, returning its result.
fn run_tml<S: StoreAccess>(s: &mut Session<S>, src: &str) -> RVal {
    let parsed = parse_app(&mut s.ctx, src).unwrap();
    let block = s.vm.compile_program(&s.ctx, &parsed.app).unwrap();
    s.vm.run_program(&mut s.store, block, 1_000).unwrap().result
}

#[test]
fn member_returned_by_one_call_is_callable_in_the_next() {
    let mut s = Session::new(SessionConfig::default()).unwrap();
    let make = run_tml(&mut s, MAKE_EVEN);
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

/// Call a stored closure on the machine directly, keeping its error typed.
fn call_stored<S: StoreAccess>(
    s: &mut Session<S>,
    oid: Oid,
    args: Vec<RVal>,
) -> Result<RVal, VmError> {
    let mut m = Machine::new(&s.vm.code, &s.vm.externs, &mut s.store, 1_000_000);
    match m.call_value_checked(RVal::Ref(oid), args)? {
        Ok(v) => Ok(v),
        Err(exc) => panic!("unexpected exception {exc:?}"),
    }
}

#[test]
fn closures_persisted_without_ptml_trap_after_reopen() {
    // A raw-TML lambda and a loop-group member are run-time closures:
    // persisting them links them in this session only and stores no PTML.
    let img = image("unlinked");
    let ds = DurableStore::create(&img, DurableOptions::default()).unwrap();
    let mut s = Session::on_store(ds, SessionConfig::default(), Registry::standard()).unwrap();
    let lam = run_tml(&mut s, "(halt proc(x ce cc) (+ x 1 ce cc))");
    let make = run_tml(&mut s, MAKE_EVEN);
    let even = s.call_value(make, vec![]).unwrap().result;
    let mut stored = Vec::new();
    for (name, v) in [("lam", lam), ("even", even)] {
        let SVal::Ref(oid) = v.persist(&mut s.store, &s.vm.code).unwrap() else {
            panic!("{name} did not persist as a reference")
        };
        s.store.set_root(name, oid).unwrap();
        let Ok(Object::Closure(c)) = s.store.base().get(oid) else {
            panic!("{name} is not a stored closure")
        };
        assert!(c.ptml.is_none(), "{name} carries PTML");
        stored.push((oid, s.vm.code.linked_block(oid).expect("linked")));
    }
    let (lam, even) = (stored[0].0, stored[1].0);
    assert_eq!(
        call_stored(&mut s, lam, vec![RVal::Int(41)]).unwrap(),
        RVal::Int(42)
    );
    assert_eq!(
        call_stored(&mut s, even, vec![RVal::Int(10)]).unwrap(),
        RVal::Int(1)
    );
    s.store.commit().unwrap();
    s.store.close().unwrap();

    let (ds, _) = DurableStore::open(&img, DurableOptions::default()).unwrap();
    let mut s = session_from_access_with(ds, SessionConfig::default(), Registry::standard());
    let report = relink_image_code(&mut s).unwrap();
    assert_eq!(report.skipped, 0, "{report:?}");
    let unlinked = |s: &mut Session<DurableStore>| {
        for (oid, arg) in [(lam, 41), (even, 10)] {
            match call_stored(s, oid, vec![RVal::Int(arg)]) {
                Err(VmError::Trap(msg)) => assert!(msg.contains("persisted without PTML"), "{msg}"),
                other => panic!("{oid}: {other:?}"),
            }
        }
    };
    unlinked(&mut s);
    // Load modules until every block the closures were linked to in the
    // first session is a block of this one: the calls must still trap,
    // not run that block.
    let in_range = |s: &Session<DurableStore>| {
        stored
            .iter()
            .all(|&(_, code)| (code as usize) < s.vm.code.len())
    };
    for p in suite() {
        if in_range(&s) {
            break;
        }
        s.load_str(p.src).unwrap();
    }
    assert!(in_range(&s));
    unlinked(&mut s);
    drop(s);
    let _ = std::fs::remove_dir_all(img.parent().unwrap());
}
