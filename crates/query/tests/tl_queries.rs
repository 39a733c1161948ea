//! End-to-end embedded queries: TL source with `select … from … where` /
//! `exists … in …` syntax, executed through the full pipeline and
//! reflectively optimized — the query rules ride the query primitives into
//! the one optimizer loop (the paper's §4.2 scenario, realized from the
//! source language down).

use tml_core::prim::IndexFacts;
use tml_lang::ast::Type;
use tml_lang::{Session, SessionConfig};
use tml_query::integrated::reflect_options_with_queries;
use tml_query::{firings, QuerySession};
use tml_reflect::{optimize_named, ReflectOptions, TermBuilder};
use tml_store::ptml::encode_abs;
use tml_store::{Object, Relation, SVal};
use tml_vm::RVal;

const DB_SRC: &str = "
module db export setup, adults, actives, both, ids, anyflag, nonempty, risky_both, guarded
-- schema: (id, value, flag)
let setup(n: Int): Rel =
  let r = rel.make(3) in
  (for i = 0 upto n - 1 do
     rel.insert(r, tuple(i, i * 10 % 50, i % 2 == 0))
   end;
   r)

-- a view: rows with value > 20
let adults(r: Rel): Rel = select x from x in r where x.1 > 20

-- a view over the view: flagged adults (σp(σq(R)) once inlined)
let both(r: Rel): Rel = select y from y in adults(r) where y.2 == true

let actives(r: Rel): Rel = select x from x in r where x.2 == true

-- projection: the ids of the adults
let ids(r: Rel): Rel = select x.0 from x in r where x.1 > 20

let anyflag(r: Rel): Bool = exists x in r where x.2 == true
let nonempty(r: Rel): Bool = exists x in r where true

-- a view whose predicate raises on the row with id 7, and a view over it
let risky(r: Rel): Rel = select x from x in r where (if x.0 == 7 then raise 77 else x.1 > 20 end)
let risky_both(r: Rel): Rel = select y from y in risky(r) where y.2 == true
let guarded(r: Rel): Int = try rel.count(risky_both(r)) handle e -> 0 - e end
end";

fn session() -> Session {
    let mut s = Session::new(SessionConfig::default()).unwrap();
    s.enable_queries().unwrap();
    s.load_str(DB_SRC).unwrap();
    s
}

fn setup_rel(s: &mut Session, n: i64) -> RVal {
    s.call("db.setup", vec![RVal::Int(n)]).unwrap().result
}

fn count(s: &mut Session, rel: RVal) -> i64 {
    match s.call("rel.count", vec![rel]).unwrap().result {
        RVal::Int(n) => n,
        other => panic!("expected count, got {other:?}"),
    }
}

/// Ground truth mirror of `db.setup`'s data.
fn expected_rows(n: i64) -> Vec<(i64, i64, bool)> {
    (0..n).map(|i| (i, i * 10 % 50, i % 2 == 0)).collect()
}

#[test]
fn embedded_select_filters() {
    let mut s = session();
    let r = setup_rel(&mut s, 40);
    let adults = s.call("db.adults", vec![r]).unwrap().result;
    let got = count(&mut s, adults);
    let want = expected_rows(40).iter().filter(|(_, v, _)| *v > 20).count() as i64;
    assert_eq!(got, want);
}

#[test]
fn view_over_view_composes() {
    let mut s = session();
    let r = setup_rel(&mut s, 40);
    let both = s.call("db.both", vec![r]).unwrap().result;
    let got = count(&mut s, both);
    let want = expected_rows(40)
        .iter()
        .filter(|(_, v, f)| *v > 20 && *f)
        .count() as i64;
    assert_eq!(got, want);
}

#[test]
fn embedded_projection() {
    let mut s = session();
    let r = setup_rel(&mut s, 25);
    let ids = s.call("db.ids", vec![r]).unwrap().result;
    let got = count(&mut s, ids);
    let want = expected_rows(25).iter().filter(|(_, v, _)| *v > 20).count() as i64;
    assert_eq!(got, want);
}

#[test]
fn embedded_exists() {
    let mut s = session();
    let r = setup_rel(&mut s, 10);
    let any = s.call("db.anyflag", vec![r.clone()]).unwrap().result;
    assert_eq!(any, RVal::Bool(true));
    let empty = setup_rel(&mut s, 0);
    let any = s.call("db.anyflag", vec![empty.clone()]).unwrap().result;
    assert_eq!(any, RVal::Bool(false));
    let ne = s.call("db.nonempty", vec![empty]).unwrap().result;
    assert_eq!(ne, RVal::Bool(false));
    let ne = s.call("db.nonempty", vec![r]).unwrap().result;
    assert_eq!(ne, RVal::Bool(true));
}

/// Figure 4 end-to-end: reflective optimization of `db.both` expands the
/// `adults` view (program optimizer), exposing nested selections that the
/// query rewriter merges — one scan instead of two, identical results.
#[test]
fn reflective_integrated_optimization_merges_views() {
    let mut s = session();
    let r = setup_rel(&mut s, 60);

    let plain = s.call("db.both", vec![r.clone()]).unwrap();
    let plain_count = count(&mut s, plain.result.clone());

    let optimized = optimize_named(&mut s, "db.both", &reflect_options_with_queries()).unwrap();
    let fast = s.call_value(RVal::from_sval(&optimized), vec![r]).unwrap();
    let fast_count = count(&mut s, fast.result.clone());

    assert_eq!(plain_count, fast_count);
    // The merged plan performs one scan (60 predicate calls) instead of a
    // scan plus a re-scan of the intermediate relation — strictly fewer
    // transfers.
    assert!(
        fast.stats.calls < plain.stats.calls,
        "merged {} vs naive {} transfers",
        fast.stats.calls,
        plain.stats.calls
    );
}

/// The query rules follow the query primitives, not an option: default
/// reflective options on a query-enabled session merge `db.both`'s views
/// too, and a single-select view keeps its result.
#[test]
fn default_reflect_options_apply_the_query_rules() {
    let mut s = session();
    let r = setup_rel(&mut s, 30);
    let plain = s.call("db.adults", vec![r.clone()]).unwrap();
    let optimized = optimize_named(&mut s, "db.adults", &ReflectOptions::default()).unwrap();
    let fast = s
        .call_value(RVal::from_sval(&optimized), vec![r.clone()])
        .unwrap();
    assert_eq!(
        count(&mut s, plain.result.clone()),
        count(&mut s, fast.result.clone())
    );

    let plain = s.call("db.both", vec![r.clone()]).unwrap();
    let optimized = optimize_named(&mut s, "db.both", &ReflectOptions::default()).unwrap();
    let fast = s.call_value(RVal::from_sval(&optimized), vec![r]).unwrap();
    assert_eq!(
        count(&mut s, plain.result.clone()),
        count(&mut s, fast.result.clone())
    );
    assert!(fast.stats.calls < plain.stats.calls);
}

/// A view whose predicate can raise: the reflectively optimized query
/// (views expanded, selections merged) hands the exception to the same
/// handler with the same value as the unoptimized call.
#[test]
fn raising_view_predicate_survives_reflective_optimization() {
    let mut s = session();
    let optimized = optimize_named(&mut s, "db.guarded", &ReflectOptions::default()).unwrap();
    for n in [5, 40] {
        let r = setup_rel(&mut s, n);
        let plain = s.call("db.guarded", vec![r.clone()]).unwrap().result;
        let fast = s
            .call_value(RVal::from_sval(&optimized), vec![r])
            .unwrap()
            .result;
        assert_eq!(plain, fast, "n = {n}");
        let want = if n > 7 {
            -77
        } else {
            expected_rows(n)
                .iter()
                .filter(|(_, v, f)| *v > 20 && *f)
                .count() as i64
        };
        assert_eq!(plain, RVal::Int(want), "n = {n}");
    }
}

/// Query rewrites are part of the provenance log: recording the
/// optimization of `db.both` logs the merge-select firing, and replaying
/// the log re-derives the same optimized term byte for byte.
#[test]
fn merge_select_is_recorded_and_replays() {
    let mut s = session();
    let Some(SVal::Ref(oid)) = s.globals.get("db.both").cloned() else {
        panic!("db.both is a closure");
    };
    let opts = ReflectOptions::default();
    let abs = TermBuilder::new(&mut s.ctx, &s.store)
        .build(oid, opts.inline_depth)
        .unwrap();
    let facts = Some(&s.store as &dyn IndexFacts);
    let (recorded, stats, log) = tml_opt::record_abs(&mut s.ctx, abs.clone(), &opts.opt, facts);
    assert_eq!(firings(&log, "merge-select"), 1, "{log:?}");
    assert_eq!(stats.rewrites, 1);
    let (replayed, _) = tml_opt::replay_abs(&mut s.ctx, abs, &opts.opt, facts, &log).unwrap();
    assert_eq!(encode_abs(&s.ctx, &recorded), encode_abs(&s.ctx, &replayed));
}

/// E10 + cache: repeated reflective optimization of the same query function
/// is answered from the store's optimization cache, and the key covers the
/// store's index structures — creating an index afterwards produces a fresh
/// product instead of a stale hit.
#[test]
fn query_plan_cache_hits_and_index_creation_changes_the_key() {
    let mut s = session();
    let r = setup_rel(&mut s, 20);
    let opts = reflect_options_with_queries();

    let cold = optimize_named(&mut s, "db.adults", &opts).unwrap();
    let m0 = s.store.cache_stats();
    let warm = optimize_named(&mut s, "db.adults", &opts).unwrap();
    let m1 = s.store.cache_stats();
    assert_eq!(m1.hits, m0.hits + 1, "{m1:?}");
    assert_eq!(m1.inserts, m0.inserts, "{m1:?}");

    // Both products compute the same relation.
    let cold_rel = s
        .call_value(RVal::from_sval(&cold), vec![r.clone()])
        .unwrap()
        .result;
    let warm_rel = s
        .call_value(RVal::from_sval(&warm), vec![r.clone()])
        .unwrap()
        .result;
    let want = count(&mut s, cold_rel);
    let got = count(&mut s, warm_rel);
    assert_eq!(want, got);

    // Index the filtered column (x.1): the index fingerprint folds into
    // the key, so the next optimization is a miss, not a (stale) hit.
    let RVal::Ref(rel_oid) = r else {
        panic!("expected relation oid, got {r:?}")
    };
    tml_query::data::build_index(&mut s.store, rel_oid, 1).unwrap();
    let indexed = optimize_named(&mut s, "db.adults", &opts).unwrap();
    let m2 = s.store.cache_stats();
    assert_eq!(m2.hits, m1.hits, "index creation must not hit: {m2:?}");
    assert_eq!(m2.inserts, m1.inserts + 1, "{m2:?}");
    let indexed_rel = s
        .call_value(RVal::from_sval(&indexed), vec![r])
        .unwrap()
        .result;
    let got = count(&mut s, indexed_rel);
    assert_eq!(want, got);
}

#[test]
fn rel_module_roundtrip() {
    let mut s = session();
    let r = setup_rel(&mut s, 5);
    assert_eq!(count(&mut s, r.clone()), 5);
    let empty = s.call("rel.empty", vec![r]).unwrap().result;
    assert_eq!(empty, RVal::Bool(false));
}

#[test]
fn select_requires_rel_range() {
    let mut s = Session::new(SessionConfig::default()).unwrap();
    s.enable_queries().unwrap();
    let bad = "module m export f\n\
               let f(a: Int): Rel = select x from x in a where true\n\
               end";
    assert!(s.load_str(bad).is_err(), "Int range must be rejected");
}

#[test]
fn queries_without_enable_queries_fail_cleanly() {
    let mut s = Session::new(SessionConfig::default()).unwrap();
    // Query prims not installed: loading must fail with a compile error,
    // not a panic.
    let src = "module m export f\n\
               let f(r: Rel): Rel = select x from x in r where true\n\
               end";
    assert!(s.load_str(src).is_err());
}

/// The five `query_scan` query shapes over `db.big(id, a, b)` and
/// `db.small(id, k)`, plus a predicate whose row escapes into an array.
const SCAN_SRC: &str = "
module q export merge_select, view_project, exists_probe, semi_join, index_select, escape
let hi(r: Rel): Rel = select x from x in r where x.1 > 3
let merge_select(u: Int): Rel = select y from y in hi(db.big) where y.2 < 7
let view_project(u: Int): Rel = select y.0 from y in hi(db.big)
let exists_probe(u: Int): Bool = exists x in db.big where x.1 * 1000 + x.2 == 0 - 1
let semi_join(u: Int): Rel =
  select x from x in db.big where (exists y in db.small where y.1 == x.2)
let index_select(u: Int): Rel = select x from x in db.big where x.1 == 2
let escape(u: Int): Int =
  let a = array.make(1, 0) in
  rel.count(select x from x in db.big where (array.set(a, 0, x); true))
end";

/// `query.rows.persisted` explains each row that reached the store: the
/// `query_scan` queries, reflectively optimized as the benchmark runs
/// them, persist none; a predicate that stores its row persists each one.
#[test]
fn only_escaping_rows_are_persisted() {
    let mut s = Session::new(SessionConfig::default()).unwrap();
    s.enable_queries().unwrap();
    let rel = |schema: &[&str], rows: Vec<Vec<i64>>| {
        let mut r = Relation::new(schema.iter().map(|c| c.to_string()).collect());
        for row in rows {
            r.insert(row.into_iter().map(SVal::Int).collect());
        }
        Object::Relation(r)
    };
    let big_rows: Vec<Vec<i64>> = (0..40).map(|i| vec![i, i % 6, i % 10]).collect();
    let big = s.store.alloc(rel(&["id", "a", "b"], big_rows));
    let small = s
        .store
        .alloc(rel(&["id", "k"], (0..5).map(|i| vec![i, 2 * i]).collect()));
    tml_query::data::build_index(&mut s.store, big, 1).unwrap();
    for (name, oid) in [("db.big", big), ("db.small", small)] {
        s.globals.insert(name.into(), SVal::Ref(oid));
        s.types.insert(name, Type::Rel);
    }
    s.load_str(SCAN_SRC).unwrap();
    let queries: Vec<RVal> = [
        "merge_select",
        "view_project",
        "exists_probe",
        "semi_join",
        "index_select",
    ]
    .iter()
    .map(|f| {
        let opt = optimize_named(&mut s, &format!("q.{f}"), &reflect_options_with_queries());
        RVal::from_sval(&opt.unwrap())
    })
    .collect();

    let rec = tml_trace::global();
    let persisted = || rec.counter("query.rows.persisted").get();
    rec.set_enabled(true);
    let before = persisted();
    let plans = rec.counter("query.plan.index").get();
    for q in &queries {
        s.call_value(q.clone(), vec![RVal::Int(0)]).unwrap();
    }
    let scans = persisted() - before;
    let indexed = rec.counter("query.plan.index").get() - plans;
    let escaped = s.call("q.escape", vec![RVal::Int(0)]).unwrap().result;
    let after_escape = persisted() - before;
    rec.set_enabled(false);

    assert_eq!(indexed, 1, "index_select runs on the index");
    assert_eq!(scans, 0, "the query_scan queries persist no row");
    assert_eq!(escaped, RVal::Int(40));
    assert_eq!(after_escape, 40, "each stored row is persisted once");
}
