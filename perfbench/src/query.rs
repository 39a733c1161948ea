//! `query_scan`: §4.2 queries as TL functions over seeded relations,
//! reflectively optimized at set-up with the query rewriter interleaved
//! (`reflect_options_with_queries`) and then run in a fixed order. Every
//! query's result is compared with a plain-Rust evaluation over the
//! generated rows; the store's garbage is collected after every pass.

use crate::common::{median, ms, Latencies, Metrics, Rng, Tally};
use crate::layers::{self, SpanTotals};
use crate::Workload;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};
use tml_lang::ast::Type;
use tml_lang::{Session, SessionConfig};
use tml_query::integrated::reflect_options_with_queries;
use tml_query::QuerySession;
use tml_reflect::optimize_named;
use tml_store::{Object, Relation, SVal};
use tml_trace::span;
use tml_vm::RVal;

/// Rows of the large relation `db.big(id, a, b)`.
const BIG_ROWS: usize = 2000;
/// Rows of the small relation `db.small(id, k)`.
const SMALL_ROWS: usize = 60;
/// `a` is uniform in `0..A_CARD` (the indexed column).
const A_CARD: u64 = 40;
/// `b` and `k` are uniform in `0..B_CARD` (the semi-join column).
const B_CARD: u64 = 300;

/// The query kinds, in execution order.
const KINDS: [&str; 5] = [
    "merge_select",
    "view_project",
    "exists",
    "semi_join",
    "index_select",
];
/// The TL function of each kind (`exists` is a keyword).
const FUNCTIONS: [&str; 5] = [
    "merge_select",
    "view_project",
    "exists_probe",
    "semi_join",
    "index_select",
];

/// What a query returns: the rows of a relation (as a sorted bag) or a
/// truth value.
#[derive(Debug, PartialEq)]
enum Answer {
    Rows(Vec<Vec<i64>>),
    Bool(bool),
}

struct Data {
    big: Vec<[i64; 3]>,
    small: Vec<[i64; 2]>,
    /// `merge_select`/`view_project` view: `a > k1`; `merge_select` adds `b < k2`.
    k1: i64,
    k2: i64,
    /// `exists` probes `a * 1000 + b == k3`, which no row satisfies.
    k3: i64,
    /// `index_select`: `a == k4`.
    k4: i64,
}

impl Data {
    fn generate(seed: u64) -> Data {
        let mut rng = Rng::new(seed);
        let big = (0..BIG_ROWS as i64)
            .map(|id| [id, rng.below(A_CARD) as i64, rng.below(B_CARD) as i64])
            .collect();
        let small = (0..SMALL_ROWS as i64)
            .map(|id| [id, rng.below(B_CARD) as i64])
            .collect();
        Data {
            big,
            small,
            k1: (A_CARD / 4 + rng.below(A_CARD / 2)) as i64,
            k2: (B_CARD / 4 + rng.below(B_CARD / 2)) as i64,
            k3: -1 - rng.below(1000) as i64,
            k4: rng.below(A_CARD) as i64,
        }
    }

    fn source(&self) -> String {
        let Data { k1, k2, k3, k4, .. } = self;
        format!(
            "module q export merge_select, view_project, exists_probe, semi_join, index_select\n\
             let hi(r: Rel): Rel = select x from x in r where x.1 > {k1}\n\
             let merge_select(u: Int): Rel = select y from y in hi(db.big) where y.2 < {k2}\n\
             let view_project(u: Int): Rel = select y.0 from y in hi(db.big)\n\
             let exists_probe(u: Int): Bool = exists x in db.big where x.1 * 1000 + x.2 == 0 - {}\n\
             let semi_join(u: Int): Rel =\n\
             \x20 select x from x in db.big where (exists y in db.small where y.1 == x.2)\n\
             let index_select(u: Int): Rel = select x from x in db.big where x.1 == {k4}\n\
             end\n",
            -k3
        )
    }

    /// The reference answer of every kind, evaluated over the rows.
    fn answers(&self) -> Vec<Answer> {
        let rows = |f: &dyn Fn(&[i64; 3]) -> bool| -> Answer {
            let mut v: Vec<Vec<i64>> = self
                .big
                .iter()
                .filter(|r| f(r))
                .map(|r| r.to_vec())
                .collect();
            v.sort();
            Answer::Rows(v)
        };
        let mut ids: Vec<Vec<i64>> = self
            .big
            .iter()
            .filter(|r| r[1] > self.k1)
            .map(|r| vec![r[0]])
            .collect();
        ids.sort();
        vec![
            rows(&|r| r[1] > self.k1 && r[2] < self.k2),
            Answer::Rows(ids),
            Answer::Bool(self.big.iter().any(|r| r[1] * 1000 + r[2] == self.k3)),
            rows(&|r| self.small.iter().any(|s| s[1] == r[2])),
            rows(&|r| r[1] == self.k4),
        ]
    }
}

fn relation(schema: &[&str], rows: impl Iterator<Item = Vec<i64>>) -> Object {
    let mut rel = Relation::new(schema.iter().map(|c| c.to_string()).collect());
    for row in rows {
        rel.insert(row.into_iter().map(SVal::Int).collect());
    }
    Object::Relation(rel)
}

/// Read a query result back from the store.
fn answer(sess: &Session, v: &RVal) -> Result<Answer, String> {
    match v {
        RVal::Bool(b) => Ok(Answer::Bool(*b)),
        RVal::Ref(oid) => match sess.store.get(*oid) {
            Ok(Object::Relation(r)) => {
                let mut rows = r
                    .rows
                    .iter()
                    .map(|row| {
                        row.iter()
                            .map(|c| match c {
                                SVal::Int(i) => Ok(*i),
                                other => Err(format!("non-integer cell {other:?}")),
                            })
                            .collect::<Result<Vec<i64>, String>>()
                    })
                    .collect::<Result<Vec<_>, String>>()?;
                rows.sort();
                Ok(Answer::Rows(rows))
            }
            other => Err(format!("expected a relation, got {other:?}")),
        },
        other => Err(format!("unexpected result {other:?}")),
    }
}

#[derive(Default)]
struct Totals {
    passes: u64,
    calls: u64,
    rows_out: u64,
    objects: u64,
    rows_scanned: u64,
    gc_ms: f64,
    gc_freed: u64,
    exec_ms: BTreeMap<&'static str, Vec<f64>>,
    plan_scan: u64,
    plan_index: u64,
}

pub struct QueryScan {
    sess: Session,
    /// Optimized query closures, in `KINDS` order.
    queries: Vec<RVal>,
    answers: Vec<Answer>,
    /// Rows of `db.big` each scan visits; the index plan visits only the
    /// rows it returns.
    big_rows: u64,
    rewrites: u64,
    totals: Totals,
}

impl Workload for QueryScan {
    fn setup(seed: u64) -> Result<Self, String> {
        let data = Data::generate(seed);
        let mut sess = Session::new(SessionConfig::default()).map_err(|e| e.to_string())?;
        sess.enable_queries().map_err(|e| e.to_string())?;
        let big = sess.store.alloc(relation(
            &["id", "a", "b"],
            data.big.iter().map(|r| r.to_vec()),
        ));
        let small = sess.store.alloc(relation(
            &["id", "k"],
            data.small.iter().map(|r| r.to_vec()),
        ));
        let index =
            tml_query::data::build_index(&mut sess.store, big, 1).map_err(|e| e.to_string())?;
        // Everything the host holds lives under a root: the collector
        // frees whatever is reachable only from host values.
        for (name, oid) in [
            ("db.big", big),
            ("db.small", small),
            ("db.big.index", index),
        ] {
            sess.store.set_root(name, oid);
        }
        for (name, oid) in [("db.big", big), ("db.small", small)] {
            sess.globals.insert(name.into(), SVal::Ref(oid));
            sess.types.insert(name, Type::Rel);
        }
        {
            let _s = span!("bench.lang.load");
            sess.load_str(&data.source())
                .map_err(|e| format!("load: {e}"))?;
        }
        let rewrites_before = layers::counter_prefix_sum("query.rewrite.");
        let mut queries = Vec::new();
        for (kind, function) in KINDS.iter().zip(FUNCTIONS) {
            let optimized = {
                let _s = span!("bench.reflect.optimize");
                optimize_named(
                    &mut sess,
                    &format!("q.{function}"),
                    &reflect_options_with_queries(),
                )
                .map_err(|e| format!("optimize q.{function}: {e}"))?
            };
            let SVal::Ref(oid) = optimized else {
                return Err(format!("q.{kind} optimized to {optimized:?}"));
            };
            let root = format!("bench.optimized.{kind}");
            sess.store.set_root(&root, oid);
            sess.globals.insert(root, optimized.clone());
            queries.push(RVal::from_sval(&optimized));
        }
        let mut w = QueryScan {
            sess,
            queries,
            answers: data.answers(),
            big_rows: data.big.len() as u64,
            rewrites: layers::counter_prefix_sum("query.rewrite.") - rewrites_before,
            totals: Totals::default(),
        };
        // One pass at set-up: checks every query before anything is timed.
        let mut tally = Tally::default();
        w.pass(&mut Latencies::default(), &mut tally, false);
        match tally.first_error {
            Some(e) => Err(e),
            None => Ok(w),
        }
    }

    fn measure(
        &mut self,
        window: Duration,
        lat: &mut Latencies,
        tally: &mut Tally,
        mut spans: Option<&mut SpanTotals>,
    ) {
        let start = Instant::now();
        while start.elapsed() < window {
            self.pass(lat, tally, spans.is_some());
            if let Some(s) = spans.as_deref_mut() {
                s.absorb();
            }
        }
    }

    fn layer_metrics(&self, setup: &SpanTotals, _window: &SpanTotals, out: &mut Metrics) {
        let t = &self.totals;
        let passes = t.passes.max(1) as f64;
        let mut set = |name: &str, v: f64| out.get_mut(name).expect("declared metric").0 = v;
        for (kind, v) in &t.exec_ms {
            set(&format!("query.exec_ms.{kind}"), median(v));
        }
        set(
            "query.pred_calls_per_row_out",
            t.calls as f64 / t.rows_out.max(1) as f64,
        );
        set(
            "query.objects_per_row_scanned",
            t.objects as f64 / t.rows_scanned.max(1) as f64,
        );
        set("query.rewrites", self.rewrites as f64);
        set("query.plan.scan", t.plan_scan as f64 / passes);
        set("query.plan.index", t.plan_index as f64 / passes);
        set("store.gc_ms", t.gc_ms / passes);
        set("store.gc.freed_per_pass", t.gc_freed as f64 / passes);
        // Set-up: the queries' reflective optimization.
        set("opt.reduce_ms", setup.self_ms("opt.reduce_pass"));
        set("opt.expand_ms", setup.self_ms("opt.expand_pass"));
        set("vm.compile_ms", setup.self_ms("vm.compile"));
    }
}

impl QueryScan {
    /// Run every query once, check it, then collect garbage.
    fn pass(&mut self, lat: &mut Latencies, tally: &mut Tally, traced: bool) {
        let plans = (
            layers::counter("query.plan.scan"),
            layers::counter("query.plan.index"),
        );
        for (i, kind) in KINDS.iter().enumerate() {
            let slots = self.sess.store.len();
            let t = Instant::now();
            let out = {
                let _s = span!("bench.query.exec");
                self.sess
                    .call_value(self.queries[i].clone(), vec![RVal::Int(0)])
            };
            let took = ms(t.elapsed());
            lat.record(kind, took);
            let checked = out.map_err(|e| e.to_string()).and_then(|r| {
                let got = answer(&self.sess, &r.result)?;
                if got != self.answers[i] {
                    return Err(format!("{kind}: result differs from the reference"));
                }
                if traced {
                    let t = &mut self.totals;
                    t.calls += r.stats.calls;
                    t.rows_out += match &got {
                        Answer::Rows(rows) => rows.len() as u64,
                        Answer::Bool(_) => 1,
                    };
                    t.rows_scanned += match (kind, &got) {
                        (&"index_select", Answer::Rows(rows)) => rows.len() as u64,
                        _ => self.big_rows,
                    };
                    t.objects += (self.sess.store.len() - slots) as u64;
                    t.exec_ms.entry(kind).or_default().push(took);
                }
                Ok(())
            });
            tally.note(checked.map_err(|e| format!("{kind}: {e}")));
        }
        let started = Instant::now();
        let gc = {
            let _s = span!("bench.store.gc");
            self.sess.collect_garbage()
        };
        match gc {
            Ok(g) if traced => {
                let t = &mut self.totals;
                t.passes += 1;
                t.gc_ms += ms(started.elapsed());
                t.gc_freed += g.freed as u64;
                t.plan_scan += layers::counter("query.plan.scan") - plans.0;
                t.plan_index += layers::counter("query.plan.index") - plans.1;
            }
            Ok(_) => {}
            Err(e) => tally.fail(format!("collect_garbage: {e}")),
        }
    }
}
