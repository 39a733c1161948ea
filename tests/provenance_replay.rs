//! Replay soundness of the optimizer provenance log (ISSUE: the logged
//! rule sequence, applied to the unoptimized term, must reproduce the
//! optimized term byte for byte in the persistent encoding).

use tycoon::core::term::Abs;
use tycoon::lang::Session;
use tycoon::opt::{record_abs, replay_abs, OptOptions};
use tycoon::reflect::{relink_image_code, session_from_store, ReflectOptions, TermBuilder};
use tycoon::store::ptml::encode_abs;
use tycoon::store::{snapshot, SVal};
use tycoon::trace::Event;
use tycoon::vm::RVal;

/// The paper's §4.1 complex/geom (E2) example.
const COMPLEX_SRC: &str = "
module complex export new, x, y
let new(a: Real, b: Real): Tuple = tuple(a, b)
let x(c: Tuple): Real = c.0
let y(c: Tuple): Real = c.1
end
module geom export abs
let abs(c: Tuple): Real =
  real.sqrt(complex.x(c) * complex.x(c) + complex.y(c) * complex.y(c))
end";

/// Reconstruct geom.abs as a bindings-wrapped TML term, exactly as the
/// reflective optimizer sees it.
fn geom_abs_term(s: &mut Session) -> Abs {
    let SVal::Ref(oid) = s.globals.get("geom.abs").cloned().unwrap() else {
        panic!("geom.abs is not a closure")
    };
    let mut tb = TermBuilder::new(&mut s.ctx, &s.store);
    tb.build(oid, ReflectOptions::default().inline_depth)
        .unwrap()
}

#[test]
fn replay_reproduces_optimized_term_byte_for_byte() {
    let mut s = Session::default_session().unwrap();
    s.load_str(COMPLEX_SRC).unwrap();
    let abs = geom_abs_term(&mut s);
    let opts = OptOptions::default();

    let (recorded, stats, log) = record_abs(&mut s.ctx, abs.clone(), &opts, None);
    assert!(stats.inlined > 0, "E2 must inline the accessor calls");
    assert!(
        log.iter().any(|e| matches!(e, Event::RuleFired { .. })),
        "log must contain rule firings"
    );
    assert!(
        log.iter()
            .any(|e| matches!(e, Event::ExpandDecision { .. })),
        "log must contain expand decisions"
    );

    let (replayed, rstats) = replay_abs(&mut s.ctx, abs, &opts, None, &log).unwrap();
    assert_eq!(stats.total_reductions(), rstats.total_reductions());
    assert_eq!(
        encode_abs(&s.ctx, &recorded),
        encode_abs(&s.ctx, &replayed),
        "replayed PTML must be byte-identical"
    );
}

#[test]
fn tampered_log_is_rejected() {
    let mut s = Session::default_session().unwrap();
    s.load_str(COMPLEX_SRC).unwrap();
    let abs = geom_abs_term(&mut s);
    let opts = OptOptions::default();
    let (_, _, mut log) = record_abs(&mut s.ctx, abs.clone(), &opts, None);

    // Flip the rule name of the first firing: the lockstep check must
    // report a mismatch rather than silently diverge.
    let ix = log
        .iter()
        .position(|e| matches!(e, Event::RuleFired { .. }))
        .unwrap();
    if let Event::RuleFired { rule, .. } = &mut log[ix] {
        *rule = if *rule == "subst" { "remove" } else { "subst" };
    }
    assert!(replay_abs(&mut s.ctx, abs, &opts, None, &log).is_err());
}

#[test]
fn truncated_log_is_rejected() {
    let mut s = Session::default_session().unwrap();
    s.load_str(COMPLEX_SRC).unwrap();
    let abs = geom_abs_term(&mut s);
    let opts = OptOptions::default();
    let (_, _, mut log) = record_abs(&mut s.ctx, abs.clone(), &opts, None);
    log.truncate(log.len() / 2);
    assert!(replay_abs(&mut s.ctx, abs, &opts, None, &log).is_err());
}

#[test]
fn per_round_stats_track_the_reduce_expand_alternation() {
    let mut s = Session::default_session().unwrap();
    s.load_str(COMPLEX_SRC).unwrap();
    let abs = geom_abs_term(&mut s);
    let (_, stats, _) = record_abs(&mut s.ctx, abs, &OptOptions::default(), None);
    assert_eq!(
        stats.per_round.len(),
        stats.rounds as usize,
        "one RoundStats per driver round"
    );
    // §5 termination argument: every recorded round makes progress
    // (reductions or inlinings), and numbering is 1-based and dense.
    for (i, r) in stats.per_round.iter().enumerate() {
        assert_eq!(r.round, i as u32 + 1);
        assert!(r.reductions > 0 || r.inlined > 0, "idle round {r:?}");
    }
}

#[test]
fn image_relink_restores_a_runnable_session() {
    // The tmlc profile/explain path for .tys inputs: persist a session,
    // reload the store, relink every PTML closure, call through it.
    let mut s = Session::default_session().unwrap();
    s.load_str(COMPLEX_SRC).unwrap();
    let bytes = snapshot::to_bytes(&s.store);
    drop(s);

    let store = snapshot::from_bytes(&bytes).unwrap();
    let mut s2 = session_from_store(store, Default::default());
    let relink = relink_image_code(&mut s2).unwrap();
    assert!(relink.relinked > 0);
    assert_eq!(relink.skipped, 0);
    let c = s2
        .call("complex.new", vec![RVal::Real(3.0), RVal::Real(4.0)])
        .unwrap()
        .result;
    let r = s2.call("geom.abs", vec![c]).unwrap();
    assert_eq!(r.result, RVal::Real(5.0));
}
