//! The tier promotion/deopt lifecycle over the library path.
//!
//! Three properties the tiering design hinges on:
//!
//! 1. A deopt restores the pre-optimization PTML **byte-identically**
//!    from the provenance record — promotion never touches the old
//!    blob, it only re-anchors it under a `tier.prev.<oid>` root.
//! 2. Hotness survives checkpoint/reopen: `persist_counters` writes
//!    lifetime call counts into the TYCAT2 attr section and
//!    `relink_image_code` seeds the fresh code table from them.
//! 3. A session mid-call keeps executing the code object it pinned at
//!    entry (the machine clones the closure record on invocation),
//!    while the next call through the OID picks up the new tier.
//!
//! The tests pin `tier.skip` on the helper closures so exactly one
//! closure (`geom.abs`) is ever a promotion candidate — the sampler's
//! multi-candidate behavior is the server soak's concern, not this
//! lifecycle test's.

use std::rc::Rc;

use tml_core::{Oid, Registry};
use tml_lang::{Session, SessionConfig};
use tml_reflect::tier::{self, TickReport, TierEngine, TierOptions, TierTotals};
use tml_store::durable::{DurableOptions, DurableStore};
use tml_store::{ClosureObj, Object, SVal, StoreAccess};
use tml_vm::rval::TransientClosure;
use tml_vm::{RVal, TIER_BASELINE, TIER_HOT};

/// The paper's §4.1 complex/abs example — enough cross-module calls for
/// the escalated tier to show a measurable win.
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

fn session() -> Session {
    let mut s = Session::new(SessionConfig::default()).unwrap();
    s.load_str(SRC).unwrap();
    // Keep everything but `geom.abs` out of the candidate pool (the
    // accessors and the stdlib closures get called at least as often),
    // so every tick report below is deterministic.
    let abs = closure_oid(&s, "geom.abs");
    let others: Vec<Oid> = s
        .store
        .iter()
        .filter_map(|(oid, obj)| (matches!(obj, Object::Closure(_)) && oid != abs).then_some(oid))
        .collect();
    for oid in others {
        s.store.set_attr(oid, "tier.skip", 1);
    }
    s
}

fn closure_oid<S: StoreAccess>(s: &Session<S>, name: &str) -> Oid {
    let SVal::Ref(oid) = *s.global(name).expect("global bound") else {
        panic!("expected closure global for {name}");
    };
    oid
}

fn closure<S: StoreAccess>(s: &Session<S>, oid: Oid) -> ClosureObj {
    let Object::Closure(c) = s.store.get(oid).expect("closure object") else {
        panic!("expected closure at {oid}");
    };
    c.clone()
}

fn ptml_bytes(s: &Session, ptml: Oid) -> Vec<u8> {
    let Object::Ptml(b) = s.store.get(ptml).expect("ptml object") else {
        panic!("expected ptml at {ptml}");
    };
    b.clone()
}

fn opts(threshold: u64) -> TierOptions {
    TierOptions {
        threshold,
        ..TierOptions::default()
    }
}

#[test]
fn promotion_then_deopt_restores_ptml_byte_identically() {
    let mut s = session();
    let oid = closure_oid(&s, "geom.abs");
    let before = closure(&s, oid);
    let orig_ptml = before.ptml.expect("baseline ptml attached");
    let orig_bytes = ptml_bytes(&s, orig_ptml);

    let c = s
        .call("complex.new", vec![RVal::Real(3.0), RVal::Real(4.0)])
        .unwrap()
        .result;
    let baseline = s.call("geom.abs", vec![c.clone()]).unwrap();
    assert_eq!(baseline.result, RVal::Real(5.0));

    let mut engine = TierEngine::new(opts(3));
    // One call so far: below threshold, the sampler must stay quiet.
    let report = tier::tick(&mut engine, &mut s).unwrap();
    assert_eq!(report, TickReport::default(), "cold closure promoted");

    for _ in 0..3 {
        s.call("geom.abs", vec![c.clone()]).unwrap();
    }
    let report = tier::tick(&mut engine, &mut s).unwrap();
    assert_eq!(report.promoted, 1, "hot closure must be promoted");
    assert_eq!(s.store.attr(oid, "tier"), Some(i64::from(TIER_HOT)));
    assert!(
        s.store.root(&tier::prev_root(oid)).is_some(),
        "provenance root recorded"
    );
    let hot = s.call("geom.abs", vec![c.clone()]).unwrap();
    assert_eq!(hot.result, RVal::Real(5.0));
    assert!(
        hot.stats.instrs < baseline.stats.instrs,
        "hot tier must beat baseline: {} vs {}",
        hot.stats.instrs,
        baseline.stats.instrs
    );
    let swapped = closure(&s, oid);
    assert_ne!(swapped.ptml, Some(orig_ptml), "hot ptml is a fresh blob");
    assert_eq!(tier::totals(&s.store).swaps, 1);

    // A steady-state tick finds nothing to do.
    let report = tier::tick(&mut engine, &mut s).unwrap();
    assert_eq!(report, TickReport::default());

    // Invalidate a specialization assumption: mutate one of the observed
    // dependencies (a callee the hot product inlined through). Raising
    // the threshold keeps the freshly deopted closure from immediately
    // re-promoting in the same tick.
    let dep = closure_oid(&s, "complex.x");
    assert_ne!(dep, oid);
    s.store.mutate(dep, &mut |_| Ok(())).unwrap();
    engine.opts.threshold = u64::MAX;

    let report = tier::tick(&mut engine, &mut s).unwrap();
    assert_eq!(report.deopted, 1, "broken assumption must deopt");
    assert_eq!(report.promoted, 0);
    let after = closure(&s, oid);
    assert_eq!(
        after.ptml,
        Some(orig_ptml),
        "deopt restores the original PTML reference"
    );
    assert_eq!(
        ptml_bytes(&s, orig_ptml),
        orig_bytes,
        "pre-optimization PTML restored byte-identically"
    );
    assert_eq!(s.store.attr(oid, "tier"), Some(i64::from(TIER_BASELINE)));
    assert!(
        s.store.root(&tier::prev_root(oid)).is_none(),
        "provenance root released on deopt"
    );
    assert_eq!(
        tier::totals(&s.store),
        TierTotals {
            swaps: 1,
            deopts: 1
        }
    );

    let restored = s.call("geom.abs", vec![c]).unwrap();
    assert_eq!(
        restored.result,
        RVal::Real(5.0),
        "deopted closure still runs"
    );
}

#[test]
fn pinned_midcall_code_survives_a_hot_swap() {
    let mut s = session();
    let oid = closure_oid(&s, "geom.abs");
    let before = closure(&s, oid);
    // A session mid-call holds exactly this: the code block + environment
    // cloned off the closure record at invocation time.
    let pinned = RVal::Clo(Rc::new(TransientClosure {
        code: before.code,
        env: before.env.iter().map(RVal::from_sval).collect(),
    }));

    let c = s
        .call("complex.new", vec![RVal::Real(3.0), RVal::Real(4.0)])
        .unwrap()
        .result;
    let baseline = s.call("geom.abs", vec![c.clone()]).unwrap();

    let mut engine = TierEngine::new(opts(1));
    let report = tier::tick(&mut engine, &mut s).unwrap();
    assert_eq!(report.promoted, 1);

    // The pinned code object still runs, at the old cost …
    let old = s.call_value(pinned, vec![c.clone()]).unwrap();
    assert_eq!(old.result, RVal::Real(5.0));
    assert_eq!(
        old.stats.instrs, baseline.stats.instrs,
        "pinned call executes the pre-swap code"
    );
    // … while the next call through the OID picks up the hot tier.
    let new = s.call("geom.abs", vec![c]).unwrap();
    assert_eq!(new.result, RVal::Real(5.0));
    assert!(
        new.stats.instrs < old.stats.instrs,
        "post-swap call must run the hot code: {} vs {}",
        new.stats.instrs,
        old.stats.instrs
    );
}

#[test]
fn counters_and_tier_survive_checkpoint_and_reopen() {
    let dir = std::env::temp_dir().join(format!(
        "tml_tier_persist_{}_{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("db.tys");

    let mut s = session();
    let c = s
        .call("complex.new", vec![RVal::Real(3.0), RVal::Real(4.0)])
        .unwrap()
        .result;
    for _ in 0..5 {
        s.call("geom.abs", vec![c.clone()]).unwrap();
    }
    let mut engine = TierEngine::new(opts(5));
    let report = tier::tick(&mut engine, &mut s).unwrap();
    assert_eq!(report.promoted, 1);
    let oid = closure_oid(&s, "geom.abs");

    // Adopt into a durable image, then rebuild a session over it the way
    // the server does (relink recompiles fresh code blocks from PTML).
    let ds = DurableStore::from_store(s.store, &path, DurableOptions::default()).unwrap();
    let mut dsess =
        tml_reflect::session_from_access_with(ds, SessionConfig::default(), Registry::standard());
    tml_reflect::relink_image_code(&mut dsess).unwrap();
    let c2 = dsess
        .call("complex.new", vec![RVal::Real(3.0), RVal::Real(4.0)])
        .unwrap()
        .result;
    for _ in 0..7 {
        dsess.call("geom.abs", vec![c2.clone()]).unwrap();
    }
    let written = tier::persist_counters(&mut dsess).unwrap();
    assert!(written > 0, "expected persisted counters, wrote {written}");
    dsess.store.checkpoint().unwrap();
    let persisted = dsess.store.attr(oid, "tier.calls").unwrap();
    assert!(persisted >= 7, "lifetime count persisted, got {persisted}");
    drop(dsess);

    // Reopen: the attr section rides the TYCAT2 catalog, and relink seeds
    // the fresh code table from it.
    let (ds2, report) = DurableStore::open(&path, DurableOptions::default()).unwrap();
    assert!(!report.stale_log);
    let mut reopened =
        tml_reflect::session_from_access_with(ds2, SessionConfig::default(), Registry::standard());
    tml_reflect::relink_image_code(&mut reopened).unwrap();
    let clo = closure(&reopened, oid);
    assert_eq!(
        reopened.vm.code.calls(clo.code) as i64,
        persisted,
        "reopened code table seeded from tier.calls"
    );
    assert_eq!(
        reopened.store.attr(oid, "tier"),
        Some(i64::from(TIER_HOT)),
        "tier attribute survives reopen"
    );
    assert_eq!(
        reopened.vm.code.tier(clo.code),
        TIER_HOT,
        "relinked block tagged hot"
    );
    // The promoted closure still answers correctly after reopen.
    let c3 = reopened
        .call("complex.new", vec![RVal::Real(3.0), RVal::Real(4.0)])
        .unwrap()
        .result;
    let r = reopened.call("geom.abs", vec![c3]).unwrap();
    assert_eq!(r.result, RVal::Real(5.0));
    std::fs::remove_dir_all(&dir).ok();
}
