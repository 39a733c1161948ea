//! The tier promotion/deopt lifecycle over the library path.
//!
//! Three properties the tiering design hinges on:
//!
//! 1. A deopt restores the pre-optimization PTML **byte-identically**
//!    from the provenance record — promotion never touches the old
//!    blob, it only re-anchors it under a `tier.prev.<oid>` root.
//! 2. Hotness survives checkpoint/reopen: `persist_counters` writes
//!    lifetime call counts into the TYCAT2 attr section, and the link a
//!    reopened session makes at a closure's first call starts its count
//!    from them.
//! 3. A session mid-call keeps executing the code object it pinned at
//!    entry (the machine takes the closure's code-table link on
//!    invocation), while the next call through the OID picks up the new
//!    tier.
//!
//! The tests pin `tier.skip` on the helper closures so exactly one
//! closure (`geom.abs`) is ever a promotion candidate — the sampler's
//! multi-candidate behavior is the server soak's concern, not this
//! lifecycle test's.

use tml_core::{Oid, Registry};
use tml_lang::{Session, SessionConfig};
use tml_reflect::tier::{
    self, TickReport, TierEngine, TierOptions, TierTotals, TIER_BASELINE, TIER_HOT,
};
use tml_store::durable::{DurableOptions, DurableStore};
use tml_store::gc::GcStats;
use tml_store::store::CHUNK_SLOTS;
use tml_store::{CacheEntry, CacheKey, ClosureObj, Object, SVal, Store, StoreAccess, StoreError};
use tml_vm::RVal;

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
    only_abs_is_a_candidate(&mut s);
    s
}

/// Load [`SRC`] and keep everything but `geom.abs` out of the candidate
/// pool (the accessors and the stdlib closures get called at least as
/// often), so every tick report is deterministic.
fn only_abs_is_a_candidate<S: StoreAccess>(s: &mut Session<S>) {
    s.load_str(SRC).unwrap();
    let abs = closure_oid(s, "geom.abs");
    let others: Vec<Oid> = s
        .store
        .base()
        .iter()
        .filter_map(|(oid, obj)| (matches!(obj, Object::Closure(_)) && oid != abs).then_some(oid))
        .collect();
    for oid in others {
        s.store.set_attr(oid, "tier.skip", 1).unwrap();
    }
}

fn closure_oid<S: StoreAccess>(s: &Session<S>, name: &str) -> Oid {
    let SVal::Ref(oid) = *s.global(name).expect("global bound") else {
        panic!("expected closure global for {name}");
    };
    oid
}

fn closure<S: StoreAccess>(s: &Session<S>, oid: Oid) -> ClosureObj {
    let Object::Closure(c) = s.store.base().get(oid).expect("closure object") else {
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
    let c = s
        .call("complex.new", vec![RVal::Real(3.0), RVal::Real(4.0)])
        .unwrap()
        .result;
    let baseline = s.call("geom.abs", vec![c.clone()]).unwrap();
    // A session mid-call holds exactly this: the code block + environment
    // the closure was linked to at invocation time.
    let pinned = RVal::Clo(s.vm.code.linked(oid).expect("linked"));

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

    // Reopen: the attr section rides the TYCAT2 catalog, and the link
    // made at the closure's first call starts from it.
    let (ds2, report) = DurableStore::open(&path, DurableOptions::default()).unwrap();
    assert!(!report.stale_log);
    let mut reopened =
        tml_reflect::session_from_access_with(ds2, SessionConfig::default(), Registry::standard());
    tml_reflect::relink_image_code(&mut reopened).unwrap();
    assert_eq!(
        reopened.vm.code.link_calls(oid),
        0,
        "not linked before a call"
    );
    assert_eq!(
        reopened.store.attr(oid, "tier"),
        Some(i64::from(TIER_HOT)),
        "tier attribute survives reopen"
    );
    // The promoted closure still answers correctly after reopen.
    let c3 = reopened
        .call("complex.new", vec![RVal::Real(3.0), RVal::Real(4.0)])
        .unwrap()
        .result;
    let r = reopened.call("geom.abs", vec![c3]).unwrap();
    assert_eq!(r.result, RVal::Real(5.0));
    assert_eq!(
        reopened.vm.code.link_calls(oid) as i64,
        persisted + 1,
        "first-call link seeded from tier.calls"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn persisting_counters_leaves_closures_not_called_since_reopen_alone() {
    let dir = std::env::temp_dir().join(format!(
        "tml_tier_unlinked_{}_{:?}",
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
    for _ in 0..3 {
        s.call("geom.abs", vec![c.clone()]).unwrap();
    }
    tier::persist_counters(&mut s).unwrap();
    let (abs, new) = (closure_oid(&s, "geom.abs"), closure_oid(&s, "complex.new"));
    assert_eq!(s.store.attr(abs, "tier.calls"), Some(3));
    assert_eq!(s.store.attr(new, "tier.calls"), Some(1));
    DurableStore::from_store(s.store, &path, DurableOptions::default())
        .unwrap()
        .close()
        .unwrap();

    let (ds, _) = DurableStore::open(&path, DurableOptions::default()).unwrap();
    let mut s =
        tml_reflect::session_from_access_with(ds, SessionConfig::default(), Registry::standard());
    tml_reflect::relink_image_code(&mut s).unwrap();
    s.call("complex.new", vec![RVal::Real(1.0), RVal::Real(2.0)])
        .unwrap();
    assert_eq!(tier::persist_counters(&mut s).unwrap(), 1);
    assert_eq!(s.store.attr(new, "tier.calls"), Some(2), "count carried on");
    assert_eq!(s.vm.code.link_calls(abs), 0, "geom.abs was not called");
    assert_eq!(
        s.store.attr(abs, "tier.calls"),
        Some(3),
        "attribute untouched"
    );
    drop(s);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn calls_between_prepare_and_link_stay_in_the_lifetime_count() {
    let mut s = session();
    let oid = closure_oid(&s, "geom.abs");
    let c = s
        .call("complex.new", vec![RVal::Real(3.0), RVal::Real(4.0)])
        .unwrap()
        .result;
    let calls = |s: &mut Session, n: u64| {
        for _ in 0..n {
            s.call("geom.abs", vec![c.clone()]).unwrap();
        }
    };
    calls(&mut s, 2);
    let p = tier::prepare_promotion(&mut s, oid, &opts(1)).unwrap();
    calls(&mut s, 3);
    tier::apply_promotion(&mut s.store, &p).unwrap();
    p.link(&s.vm.code);
    assert_eq!(s.vm.code.link_calls(oid), 5, "promotion keeps every call");
    calls(&mut s, 1);

    let d = tier::prepare_deopt(&mut s, oid).unwrap();
    calls(&mut s, 4);
    tier::apply_deopt(&mut s.store, &d).unwrap();
    d.link(&s.vm.code);
    assert_eq!(s.vm.code.link_calls(oid), 10, "deopt keeps every call");
    assert_eq!(s.vm.code.linked_block(oid), Some(d.block));
}

/// A plain store that refuses to mutate one object, standing in for a
/// swap whose write fails.
struct Refusing {
    store: Store,
    refuse: Option<Oid>,
}

impl StoreAccess for Refusing {
    fn base(&self) -> &Store {
        &self.store
    }
    fn alloc(&mut self, obj: Object) -> Result<Oid, StoreError> {
        StoreAccess::alloc(&mut self.store, obj)
    }
    fn set(&mut self, oid: Oid, obj: Object) -> Result<(), StoreError> {
        StoreAccess::set(&mut self.store, oid, obj)
    }
    fn free_obj(&mut self, oid: Oid) -> Result<(), StoreError> {
        StoreAccess::free_obj(&mut self.store, oid)
    }
    fn mutate(
        &mut self,
        oid: Oid,
        f: &mut dyn FnMut(&mut Object) -> Result<(), StoreError>,
    ) -> Result<(), StoreError> {
        if self.refuse == Some(oid) {
            return Err(StoreError::Io("refused".into()));
        }
        StoreAccess::mutate(&mut self.store, oid, f)
    }
    fn set_root(&mut self, name: &str, oid: Oid) -> Result<(), StoreError> {
        StoreAccess::set_root(&mut self.store, name, oid)
    }
    fn remove_root(&mut self, name: &str) -> Result<Option<Oid>, StoreError> {
        StoreAccess::remove_root(&mut self.store, name)
    }
    fn set_attr(&mut self, oid: Oid, key: &str, value: i64) -> Result<(), StoreError> {
        StoreAccess::set_attr(&mut self.store, oid, key, value)
    }
    fn remove_attr(&mut self, oid: Oid, key: &str) -> Result<Option<i64>, StoreError> {
        StoreAccess::remove_attr(&mut self.store, oid, key)
    }
    fn array_set(&mut self, oid: Oid, index: i64, value: SVal) -> Result<(), StoreError> {
        StoreAccess::array_set(&mut self.store, oid, index, value)
    }
    fn bytes_set(&mut self, oid: Oid, index: i64, value: u8) -> Result<(), StoreError> {
        StoreAccess::bytes_set(&mut self.store, oid, index, value)
    }
    fn collect(&mut self, extra_roots: &[Oid]) -> Result<GcStats, StoreError> {
        StoreAccess::collect(&mut self.store, extra_roots)
    }
    fn commit(&mut self) -> Result<bool, StoreError> {
        StoreAccess::commit(&mut self.store)
    }
    fn checkpoint(&mut self) -> Result<(), StoreError> {
        StoreAccess::checkpoint(&mut self.store)
    }
    fn cache_lookup(&mut self, key: CacheKey) -> Option<CacheEntry> {
        StoreAccess::cache_lookup(&mut self.store, key)
    }
    fn cache_insert(&mut self, key: CacheKey, entry: CacheEntry) {
        StoreAccess::cache_insert(&mut self.store, key, entry)
    }
}

#[test]
fn a_failed_swap_leaves_the_closure_on_its_baseline_block_and_ptml() {
    let store = Refusing {
        store: Store::new(),
        refuse: None,
    };
    let mut s = Session::on_store(store, SessionConfig::default(), Registry::standard()).unwrap();
    only_abs_is_a_candidate(&mut s);
    let oid = closure_oid(&s, "geom.abs");
    let ptml = closure(&s, oid).ptml;
    let c = s
        .call("complex.new", vec![RVal::Real(3.0), RVal::Real(4.0)])
        .unwrap()
        .result;
    let baseline = s.call("geom.abs", vec![c.clone()]).unwrap();
    let block = s.vm.code.linked_block(oid).expect("linked");

    // The swap's closure write fails: the tick reports it, and the
    // closure keeps its block, its PTML and its answer.
    s.store.refuse = Some(oid);
    let mut engine = TierEngine::new(opts(1));
    assert!(tier::tick(&mut engine, &mut s).is_err());
    assert_eq!(s.vm.code.linked_block(oid), Some(block));
    assert_eq!(closure(&s, oid).ptml, ptml);
    assert_eq!(s.store.attr(oid, "tier"), None);
    let again = s.call("geom.abs", vec![c.clone()]).unwrap();
    assert_eq!(again.result, baseline.result);
    assert_eq!(
        again.stats.instrs, baseline.stats.instrs,
        "baseline code ran"
    );

    // Once the write goes through, the next tick promotes and links.
    s.store.refuse = None;
    assert_eq!(tier::tick(&mut engine, &mut s).unwrap().promoted, 1);
    assert_ne!(s.vm.code.linked_block(oid), Some(block));
    let hot = s.call("geom.abs", vec![c]).unwrap();
    assert_eq!(hot.result, baseline.result);
    assert!(hot.stats.instrs < baseline.stats.instrs);
}

#[test]
fn an_assumption_on_an_object_whose_chunk_dropped_is_violated() {
    // Two hot closures with hand-made provenance records: `geom.abs`
    // assumes a data object that is then collected along with its whole
    // chunk of the slot table, `complex.x` one that stays live. A dead
    // slot reads version 0, the version the dead object was observed at,
    // so only the liveness-aware check reports the violation.
    let mut s = session();
    let (abs, x) = (closure_oid(&s, "geom.abs"), closure_oid(&s, "complex.x"));
    while !s.store.len().is_multiple_of(CHUNK_SLOTS) {
        s.store.alloc(Object::Array(vec![]));
    }
    let dep = s.store.alloc(Object::Array(vec![SVal::Int(1)]));
    for _ in 1..CHUNK_SLOTS {
        s.store.alloc(Object::Array(vec![]));
    }
    let hot = |s: &mut Session, oid: Oid, dep: Oid, ver: u64| {
        let prev = closure(s, oid).ptml.expect("ptml");
        let prov = s.store.alloc(Object::Tuple(vec![
            SVal::Ref(prev),
            SVal::Int(0),
            SVal::Int(1),
            SVal::Int(dep.0 as i64),
            SVal::Int(ver as i64),
        ]));
        s.store.set_root(tier::prev_root(oid), prov);
        s.store.set_attr(oid, "tier", i64::from(TIER_HOT));
    };
    hot(&mut s, abs, dep, 0);
    let ver = s.store.version(abs);
    hot(&mut s, x, abs, ver);
    assert!(s.store.get(dep).is_ok());
    let resident = s.store.resident_chunks();
    s.collect_garbage().unwrap();
    assert_eq!(s.store.get(dep), Err(StoreError::Dangling(dep)));
    assert_eq!(
        s.store.resident_chunks(),
        resident - 1,
        "the dep's chunk dropped"
    );
    assert_eq!(s.store.version(dep), 0);
    assert_eq!(TierEngine::new(opts(1)).violations(&s), vec![abs]);
}
