//! Degraded-mode whole-world optimization: a panicking, diverging or
//! corrupt target is skipped — recorded on the trace — while the rest of
//! the world commits as if the failed target had not been selected.
//! Image relink likewise survives corrupt PTML.
//!
//! Several tests arm a process-wide `Panic` failpoint, so every test in
//! this binary holds the `ScopedFailpoints` lock (armed or not): none can
//! run inside another's fault window.

use tycoon::lang::{Session, SessionConfig};
use tycoon::reflect::{
    optimize_all, optimize_named, relink_image_code, session_from_store, OnError, ReflectError,
    ReflectOptions,
};
use tycoon::store::failpoint::{Action, FailSpec, ScopedFailpoints};
use tycoon::store::{snapshot, DurableStore, Object, SVal, StoreAccess};
use tycoon::trace::Event;
use tycoon::vm::RVal;

const SRC: &str = "
module complex export new, x, y
let new(a: Real, b: Real): Tuple = tuple(a, b)
let x(c: Tuple): Real = c.0
let y(c: Tuple): Real = c.1
end
module geom export abs
let abs(c: Tuple): Real =
  real.sqrt(complex.x(c) * complex.x(c) + complex.y(c) * complex.y(c))
end
module m export fib
let fib(n: Int): Int = if n < 2 then n else fib(n - 1) + fib(n - 2) end
end";

fn session() -> Session {
    let mut s = Session::new(SessionConfig::default()).unwrap();
    s.load_str(SRC).unwrap();
    s
}

fn oid_of(s: &Session, name: &str) -> u64 {
    let Some(SVal::Ref(oid)) = s.globals.get(name) else {
        panic!("{name} is not a closure-valued global");
    };
    oid.0
}

fn check_world(s: &mut Session) {
    let c = s
        .call("complex.new", vec![RVal::Real(3.0), RVal::Real(4.0)])
        .unwrap()
        .result;
    assert_eq!(s.call("geom.abs", vec![c]).unwrap().result, RVal::Real(5.0));
    assert_eq!(
        s.call("m.fib", vec![RVal::Int(10)]).unwrap().result,
        RVal::Int(55)
    );
}

#[test]
fn panicking_target_is_skipped_and_the_rest_commits_identically() {
    // Session construction is deterministic, so the target's OID is the
    // same in the probe session and the optimized one.
    let target = oid_of(&session(), "geom.abs");
    let _fp = ScopedFailpoints::new(&[(
        "reflect.prepare",
        FailSpec::always(Action::Panic).for_key(target),
    )]);

    let rec = tycoon::trace::global();
    rec.clear();
    rec.set_capacity(1 << 16);
    rec.set_enabled(true);
    let mut s = session();
    let report = optimize_all(&mut s, &ReflectOptions::default()).unwrap();
    rec.set_enabled(false);

    assert_eq!(report.skipped, 1, "{report:?}");
    assert!(
        report.functions > 0,
        "other targets must still optimize: {report:?}"
    );
    // The skipped function is still its unoptimized self — bound and
    // correct — while every other global function was replaced by its
    // optimized closure.
    assert_eq!(oid_of(&s, "geom.abs"), target);
    for (name, val) in &s.globals {
        let SVal::Ref(oid) = val else { continue };
        if let Ok(Object::Closure(c)) = s.store.get(*oid) {
            let optimized = s.store.attr(*oid, "optimized") == Some(1);
            assert_eq!(optimized, c.ptml.is_some() && name != "geom.abs", "{name}");
        }
    }
    check_world(&mut s);

    // The run reported the skip on the trace, attributed to the target.
    // (Filter on the reason: concurrently running tests in this binary may
    // record their own fuel/decode skips on the shared recorder.)
    let skips: Vec<_> = rec
        .events()
        .into_iter()
        .filter_map(|sample| match sample.event {
            Event::DegradedSkip {
                function,
                oid,
                reason: "panic",
                ..
            } => Some((function, oid)),
            _ => None,
        })
        .collect();
    assert_eq!(skips.len(), 1, "{skips:?}");
    for (function, oid) in skips {
        assert_eq!(function, "geom.abs");
        assert_eq!(oid, target);
    }
    assert!(rec.counter("reflect.degraded").get() >= 1);
}

#[test]
fn abort_policy_propagates_injected_failures() {
    let target = oid_of(&session(), "geom.abs");
    let _fp = ScopedFailpoints::new(&[(
        "reflect.prepare",
        FailSpec::always(Action::Io).for_key(target),
    )]);
    let mut s = session();
    let err = optimize_all(
        &mut s,
        &ReflectOptions {
            on_error: OnError::Abort,
            ..Default::default()
        },
    );
    assert!(
        matches!(err, Err(ReflectError::BadPtml(_))),
        "abort mode must surface the failure: {err:?}"
    );
}

#[test]
fn fuel_budget_skips_expensive_targets_but_commits_the_world() {
    let _fp = ScopedFailpoints::new(&[]);
    let mut s = session();
    let report = optimize_all(
        &mut s,
        &ReflectOptions {
            fuel: Some(0),
            ..Default::default()
        },
    )
    .unwrap();
    assert!(report.skipped > 0, "{report:?}");
    check_world(&mut s);
}

#[test]
fn fuel_exhaustion_surfaces_as_a_typed_error_in_abort_mode() {
    let _fp = ScopedFailpoints::new(&[]);
    let mut s = session();
    let err = optimize_named(
        &mut s,
        "geom.abs",
        &ReflectOptions {
            fuel: Some(0),
            on_error: OnError::Abort,
            ..Default::default()
        },
    );
    assert!(
        matches!(err, Err(ReflectError::Fuel { budget: 0, .. })),
        "{err:?}"
    );
}

#[test]
fn fuel_participates_in_the_cache_key() {
    let _fp = ScopedFailpoints::new(&[]);
    let mut s = session();
    let generous = ReflectOptions {
        fuel: Some(1_000_000),
        ..Default::default()
    };
    let _ = optimize_named(&mut s, "geom.abs", &generous).unwrap();
    let unlimited = ReflectOptions::default();
    let _ = optimize_named(&mut s, "geom.abs", &unlimited).unwrap();
    let stats = s.store.cache_stats();
    assert_eq!(stats.hits, 0, "{stats:?}");
    assert_eq!(stats.inserts, 2, "{stats:?}");
}

#[test]
fn relink_skips_closures_with_corrupt_ptml_and_marks_them_degraded() {
    let _fp = ScopedFailpoints::new(&[]);
    let s = session();
    let bytes = snapshot::to_bytes(&s.store);
    drop(s);

    let store = snapshot::from_bytes(&bytes).unwrap();
    let mut s2 = session_from_store(store, SessionConfig::default());
    let Some(SVal::Ref(victim)) = s2.globals.get("geom.abs").cloned() else {
        panic!()
    };
    let ptml_oid = match s2.store.get(victim) {
        Ok(Object::Closure(c)) => c.ptml.unwrap(),
        other => panic!("{other:?}"),
    };
    match s2.store.get_mut(ptml_oid) {
        Ok(Object::Ptml(b)) => {
            b.clear();
            b.extend_from_slice(b"not ptml at all");
        }
        other => panic!("{other:?}"),
    }

    let report = relink_image_code(&mut s2).unwrap();
    assert_eq!(report.skipped, 1, "{report:?}");
    assert!(report.relinked > 0, "{report:?}");
    assert_eq!(s2.store.attr(victim, "degraded"), Some(1));
    // Everything else relinked and runs.
    let c = s2
        .call("complex.new", vec![RVal::Real(3.0), RVal::Real(4.0)])
        .unwrap()
        .result;
    assert_eq!(
        s2.call("complex.x", vec![c]).unwrap().result,
        RVal::Real(3.0)
    );
    assert_eq!(
        s2.call("m.fib", vec![RVal::Int(10)]).unwrap().result,
        RVal::Int(55)
    );
}

#[test]
fn degraded_image_boots_after_its_ptml_blob_is_freed() {
    // End-to-end: a closure's PTML blob is gone from a reopened image, the
    // closure relinks as degraded, and the rest of the image runs.
    let _fp = ScopedFailpoints::new(&[]);
    let dir = std::env::temp_dir().join(format!("tml_degraded_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("world.tys");

    let mut s = session();
    let Some(SVal::Ref(victim)) = s.globals.get("geom.abs").cloned() else {
        panic!()
    };
    let ptml_oid = match s.store.get(victim) {
        Ok(Object::Closure(c)) => c.ptml.unwrap(),
        other => panic!("{other:?}"),
    };
    DurableStore::from_store(std::mem::take(&mut s.store), &path, Default::default())
        .unwrap()
        .close()
        .unwrap();
    drop(s);

    let (ds, _) = DurableStore::open(&path, Default::default()).unwrap();
    let mut store = ds.into_store();
    // The blob is freed in memory before relinking: the closure's PTML
    // reference now dangles, which relink must skip, not trip over.
    store.free_obj(ptml_oid).unwrap();
    let mut s2 = session_from_store(store, SessionConfig::default());
    let relink = relink_image_code(&mut s2).unwrap();
    assert_eq!(relink.skipped, 1, "{relink:?}");
    assert!(relink.relinked > 0, "{relink:?}");
    assert_eq!(s2.store.attr(victim, "degraded"), Some(1));
    let c = s2
        .call("complex.new", vec![RVal::Real(3.0), RVal::Real(4.0)])
        .unwrap()
        .result;
    assert_eq!(
        s2.call("complex.x", vec![c.clone()]).unwrap().result,
        RVal::Real(3.0)
    );
    // The degraded closure has no code in this session: calling it
    // traps.
    let err = s2.call("geom.abs", vec![c]).unwrap_err().to_string();
    assert!(err.contains("its PTML did not relink"), "{err}");
    std::fs::remove_dir_all(&dir).ok();
}
