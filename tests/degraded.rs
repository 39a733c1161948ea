//! Degraded-mode whole-world optimization: a panicking, diverging or
//! corrupt target is skipped — recorded on the trace — while the rest of
//! the world commits as if the failed target had not been selected.
//! An image open likewise survives corrupt PTML, and a closure whose PTML
//! fails to link is a typed trap at its call.
//!
//! Several tests arm a process-wide `Panic` failpoint, so every test in
//! this binary holds the `ScopedFailpoints` lock (armed or not): none can
//! run inside another's fault window.

use tycoon::core::parse::parse_app;
use tycoon::core::prim::PrimCost;
use tycoon::core::{Ctx, PrimAttrs, PrimDef, Signature, Value};
use tycoon::lang::{Session, SessionConfig};
use tycoon::reflect::{
    optimize_all, optimize_named, relink_image_code, session_from_store, OnError, ReflectError,
    ReflectOptions,
};
use tycoon::store::failpoint::{Action, FailSpec, ScopedFailpoints};
use tycoon::store::ptml::{decode_abs, encode_abs};
use tycoon::store::varint::DecodeError;
use tycoon::store::{snapshot, ClosureObj, DurableStore, Object, Oid, SVal, StoreAccess};
use tycoon::trace::Event;
use tycoon::vm::machine::VmError;
use tycoon::vm::{Machine, RVal};

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

/// `proc(x ce cc) (pushHandler cont(e) (ce e) cont() (cc x))` as PTML,
/// encoded under a registry that still provides `pushHandler`.
fn handler_stack_blob() -> Vec<u8> {
    let mut ctx = Ctx::new();
    ctx.prims.register(PrimDef {
        name: "pushHandler".to_string(),
        signature: Signature::exact(0, 2),
        attrs: PrimAttrs::default(),
        fold: None,
        rewrite: None,
        validate: None,
        cost: PrimCost::Const(2),
        codegen: None,
    });
    let src = "(cont(f) (halt 0) proc(x ce cc) (pushHandler cont(e) (ce e) cont() (cc x)))";
    let parsed = parse_app(&mut ctx, src).unwrap();
    let Value::Abs(abs) = &parsed.app.args[0] else {
        panic!("{:?}", parsed.app);
    };
    encode_abs(&ctx, abs)
}

/// Call `oid` through a machine that links stored closures on their
/// first call, keeping machine errors typed.
fn call_linking(s: &mut Session, oid: Oid, args: Vec<RVal>) -> Result<RVal, VmError> {
    let mut m = Machine::new(&s.vm.code, &s.vm.externs, &mut s.store, 1_000_000)
        .linking(&mut s.ctx, &s.globals);
    match m.call_value_checked(RVal::Ref(oid), args)? {
        Ok(v) => Ok(v),
        Err(exc) => panic!("unexpected exception {exc:?}"),
    }
}

#[test]
fn a_closure_that_fails_to_link_traps_at_its_call() {
    // Two damages the open-time check cannot see, because it reads only
    // the PTML header: a body cut short behind a sound header, and a
    // capture with neither a recorded binding nor a global. And a blob
    // from before the handler-stack primitives were retired, which the
    // check does see: it names `pushHandler`, which the standard registry
    // no longer provides. Each is a typed trap naming the closure at its
    // first call; nothing panics, and the rest of the session keeps
    // running.
    let _fp = ScopedFailpoints::new(&[]);
    let s = session();
    let bytes = snapshot::to_bytes(&s.store);
    drop(s);
    let mut s2 = session_from_store(
        snapshot::from_bytes(&bytes).unwrap(),
        SessionConfig::default(),
    );
    let closure_of = |s: &Session, name: &str| match s.globals.get(name) {
        Some(SVal::Ref(o)) => *o,
        other => panic!("{name}: {other:?}"),
    };
    let (fib, abs) = (closure_of(&s2, "m.fib"), closure_of(&s2, "geom.abs"));
    let fib_ptml = match s2.store.get(fib) {
        Ok(Object::Closure(c)) => c.ptml.unwrap(),
        other => panic!("{other:?}"),
    };
    match s2.store.get_mut(fib_ptml) {
        Ok(Object::Ptml(b)) => b.truncate(b.len() - 1),
        other => panic!("{other:?}"),
    }
    match s2.store.get_mut(abs) {
        Ok(Object::Closure(c)) => c.bindings.retain(|(n, _)| n != "complex.x"),
        other => panic!("{other:?}"),
    }
    s2.globals.remove("complex.x");
    let old_blob = handler_stack_blob();
    match decode_abs(&mut s2.ctx, &old_blob) {
        Err(DecodeError::UnknownPrim(name)) => assert_eq!(name, "pushHandler"),
        other => panic!("{other:?}"),
    }
    let old_ptml = s2.store.alloc(Object::Ptml(old_blob));
    let old = s2.store.alloc(Object::Closure(ClosureObj {
        bindings: Vec::new(),
        ptml: Some(old_ptml),
    }));

    let report = relink_image_code(&mut s2).unwrap();
    assert_eq!(report.skipped, 1, "only the old blob's header: {report:?}");
    assert_eq!(s2.store.attr(old, "degraded"), Some(1));
    assert_eq!(s2.store.attr(fib, "degraded"), None);
    let blocks = s2.vm.code.len();
    for (oid, arg, why) in [
        (fib, RVal::Int(10), "PTML does not decode"),
        (abs, RVal::Unit, "unresolved binding complex.x"),
        (old, RVal::Int(1), "unknown primitive"),
    ] {
        for _ in 0..2 {
            match call_linking(&mut s2, oid, vec![arg.clone()]) {
                Err(VmError::Trap(msg)) => {
                    assert!(msg.contains(&oid.to_string()), "{msg}");
                    assert!(msg.contains(why), "{msg}");
                }
                other => panic!("{oid}: {other:?}"),
            }
        }
        assert_eq!(s2.vm.code.link_calls(oid), 0, "{oid} stays unlinked");
    }
    assert_eq!(s2.vm.code.len(), blocks, "a failed link compiles nothing");
    let err = s2
        .call("m.fib", vec![RVal::Int(10)])
        .unwrap_err()
        .to_string();
    assert!(err.contains("its PTML did not relink"), "{err}");
    // Everything else links and runs.
    let c = s2
        .call("complex.new", vec![RVal::Real(3.0), RVal::Real(4.0)])
        .unwrap()
        .result;
    assert_eq!(
        s2.call("complex.y", vec![c]).unwrap().result,
        RVal::Real(4.0)
    );
    assert_eq!(
        s2.call("int.max", vec![RVal::Int(2), RVal::Int(9)])
            .unwrap()
            .result,
        RVal::Int(9)
    );
}

#[test]
fn an_unresolved_capture_adds_no_names_however_often_it_is_called() {
    // `geom.abs` loses its recorded `complex.x` binding and the global is
    // gone: every call fails to link. The link resolves the captures from
    // the PTML var table before decoding the body, so a failed call
    // creates no variables in the session's name table.
    let _fp = ScopedFailpoints::new(&[]);
    let s = session();
    let bytes = snapshot::to_bytes(&s.store);
    drop(s);
    let mut s2 = session_from_store(
        snapshot::from_bytes(&bytes).unwrap(),
        SessionConfig::default(),
    );
    let abs = Oid(oid_of(&s2, "geom.abs"));
    match s2.store.get_mut(abs) {
        Ok(Object::Closure(c)) => c.bindings.retain(|(n, _)| n != "complex.x"),
        other => panic!("{other:?}"),
    }
    s2.globals.remove("complex.x");
    let mut after_first = None;
    for call in 0..100 {
        match call_linking(&mut s2, abs, vec![RVal::Unit]) {
            Err(VmError::Trap(msg)) => {
                assert!(msg.contains(&abs.to_string()), "{msg}");
                assert!(msg.contains("unresolved binding complex.x"), "{msg}");
            }
            other => panic!("call {call}: {other:?}"),
        }
        let names = s2.ctx.names.len();
        assert_eq!(*after_first.get_or_insert(names), names, "call {call}");
    }
    assert_eq!(s2.vm.code.link_calls(abs), 0);
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
