//! A reopened image serves optimization-cache hits from PTML alone.
//!
//! The cache keeps no bytecode: a hit in a session that has not linked
//! the product yet links its optimized PTML. That must still skip the
//! optimizer entirely, and the linked code must behave exactly like a
//! fresh optimization. This file holds a single test because it watches
//! the process-wide trace recorder for rule firings.

use tml_core::Registry;
use tml_lang::{Session, SessionConfig};
use tml_reflect::{optimize_named, relink_image_code, session_from_access_with, ReflectOptions};
use tml_store::durable::{DurableOptions, DurableStore};
use tml_trace::Event;
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

/// Rule firings the optimizer reports while `f` runs.
fn rule_firings<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let rec = tml_trace::global();
    rec.clear();
    rec.set_capacity(1 << 16);
    rec.set_enabled(true);
    let out = f();
    rec.set_enabled(false);
    let firings = rec
        .drain()
        .iter()
        .filter(|s| matches!(s.event, Event::RuleFired { .. }))
        .count();
    (out, firings)
}

#[test]
fn a_hit_after_reopen_runs_no_optimizer_and_matches_a_fresh_product() {
    let dir = std::env::temp_dir().join(format!("tml_cache_reopen_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("world.tys");
    let opts = ReflectOptions::default();

    let mut s = Session::new(SessionConfig::default()).unwrap();
    s.load_str(SRC).unwrap();
    optimize_named(&mut s, "geom.abs", &opts).unwrap();
    assert_eq!(s.store.cache().len(), 1);
    DurableStore::from_store(s.store, &path, DurableOptions::default())
        .unwrap()
        .close()
        .unwrap();

    let (ds, _) = DurableStore::open(&path, DurableOptions::default()).unwrap();
    let mut s = session_from_access_with(ds, SessionConfig::default(), Registry::standard());
    assert_eq!(relink_image_code(&mut s).unwrap().skipped, 0);
    let before = s.store.store().cache_stats();
    let (warm, firings) = rule_firings(|| optimize_named(&mut s, "geom.abs", &opts).unwrap());
    let after = s.store.store().cache_stats();
    assert_eq!(firings, 0, "a cache hit must not run the optimizer");
    assert_eq!(after.hits, before.hits + 1, "{after:?}");
    assert_eq!(after.misses, before.misses, "{after:?}");

    let fresh_opts = ReflectOptions {
        use_cache: false,
        ..Default::default()
    };
    let (fresh, firings) =
        rule_firings(|| optimize_named(&mut s, "geom.abs", &fresh_opts).unwrap());
    assert!(firings > 0, "a fresh optimization fires rules");

    let c = s
        .call("complex.new", vec![RVal::Real(3.0), RVal::Real(4.0)])
        .unwrap()
        .result;
    let w = s
        .call_value(RVal::from_sval(&warm), vec![c.clone()])
        .unwrap();
    let f = s.call_value(RVal::from_sval(&fresh), vec![c]).unwrap();
    assert_eq!(w.result, RVal::Real(5.0));
    assert_eq!(w.result, f.result);
    assert_eq!(w.stats.instrs, f.stats.instrs);
    assert_eq!(w.stats.calls, f.stats.calls);
    std::fs::remove_dir_all(&dir).ok();
}
