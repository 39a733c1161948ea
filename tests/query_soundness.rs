//! Query rewrite soundness over randomized relations and predicate chains:
//! every plan the optimizer produces — with the §4.2 rules riding the
//! query primitives — must return the same result as the naive plan,
//! including which exception handler fires when a predicate raises.

use proptest::prelude::*;
use tycoon::core::wellformed::check_app;
use tycoon::core::{App, Ctx, Lit};
use tycoon::opt::{record, OptOptions};
use tycoon::query::{self, firings, select_chain, Pred};
use tycoon::store::{Object, Relation, SVal, Store};
use tycoon::vm::{Machine, RVal, Vm};

fn run_count(ctx: &Ctx, vm: &mut Vm, store: &mut Store, app: &App) -> i64 {
    let block = vm.compile_program(ctx, app).expect("closed program");
    let mut machine = Machine::new(&vm.code, &vm.externs, store, 100_000_000);
    match machine
        .run(block, Vec::new(), Vec::new())
        .expect("runs")
        .result
    {
        RVal::Int(n) => n,
        other => panic!("expected count, got {other:?}"),
    }
}

fn query_ctx() -> (Ctx, Vm) {
    let mut ctx = Ctx::new();
    let mut vm = Vm::new();
    query::install(&mut ctx, &mut vm);
    (ctx, vm)
}

fn parse(ctx: &mut Ctx, src: &str) -> App {
    let app = tycoon::core::parse::parse_app(ctx, src)
        .expect("parses")
        .app;
    check_app(ctx, &app).expect("well-formed input");
    app
}

fn pred_strategy() -> impl Strategy<Value = Pred> {
    prop_oneof![
        (0usize..3, -5i64..55).prop_map(|(c, k)| Pred::ColEq(c, Lit::Int(k))),
        (0usize..3, -5i64..105).prop_map(|(c, k)| Pred::ColLt(c, k)),
        Just(Pred::True),
    ]
}

/// A selection predicate that may raise, rendered as TML with binders
/// suffixed by the select's position.
#[derive(Debug, Clone)]
enum RPred {
    /// `row[col] < k`; a column past the schema's three raises.
    ColLt(usize, i64),
    /// Raises through its exception continuation where `row[col] == k`.
    RaiseIf(usize, i64),
    /// Always true.
    True,
}

impl RPred {
    fn render(&self, i: usize) -> String {
        match self {
            RPred::ColLt(c, k) => format!(
                "proc(x{i} ce{i} cc{i}) ([] x{i} {c} ce{i} cont(t{i}) \
                 (< t{i} {k} cont()(cc{i} true) cont()(cc{i} false)))"
            ),
            RPred::RaiseIf(c, k) => format!(
                "proc(x{i} ce{i} cc{i}) ([] x{i} {c} ce{i} cont(t{i}) \
                 (= t{i} {k} cont()(ce{i} {}) cont()(cc{i} true)))",
                500 + i
            ),
            RPred::True => format!("proc(x{i} ce{i} cc{i}) (cc{i} true)"),
        }
    }
}

fn rpred_strategy() -> impl Strategy<Value = RPred> {
    prop_oneof![
        (0usize..5, 0i64..105).prop_map(|(c, k)| RPred::ColLt(c, k)),
        (0usize..3, 0i64..50).prop_map(|(c, k)| RPred::RaiseIf(c, k)),
        Just(RPred::True),
    ]
}

/// The naive nested plan, counted: `(select p₀ R h₀ cont(r₀) (select p₁
/// r₀ h₁ …))`, where `handler(i)` renders select `i`'s exception handler.
fn raising_chain(
    rel: tycoon::core::Oid,
    preds: &[RPred],
    handler: impl Fn(usize) -> String,
) -> String {
    let mut src = format!("(count r{} cont(ec)(halt ec) cont(n)(halt n))", preds.len());
    for (i, p) in preds.iter().enumerate().rev() {
        let range = if i == 0 {
            format!("<oid {:#x}>", rel.0)
        } else {
            format!("r{i}")
        };
        src = format!(
            "(select {} {range} {} cont(r{}) {src})",
            p.render(i),
            handler(i),
            i + 1
        );
    }
    src
}

/// Run the naive and the optimized plan of `src`; both must agree, and
/// the optimized term must be well-formed. Returns the answer and the
/// number of merge-select firings.
fn naive_vs_optimized(
    rows: usize,
    seed: u64,
    src: impl Fn(tycoon::core::Oid) -> String,
) -> (i64, i64, usize) {
    let (mut ctx, mut vm) = query_ctx();
    let mut store = Store::new();
    let rel = query::data::random_relation(&mut store, rows, 50, 100, seed);
    let naive = parse(&mut ctx, &src(rel));
    let (optimized, _, log) = record(&mut ctx, naive.clone(), &OptOptions::default(), None);
    check_app(&ctx, &optimized).expect("optimized term is well-formed");
    let a = run_count(&ctx, &mut vm, &mut store, &naive);
    let b = run_count(&ctx, &mut vm, &mut store, &optimized);
    (a, b, firings(&log, "merge-select"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn merged_plans_equal_naive_plans(
        seed in 0u64..1_000,
        rows in 1usize..200,
        preds in proptest::collection::vec(pred_strategy(), 1..4),
    ) {
        let (mut ctx, mut vm) = query_ctx();
        let mut store = Store::new();
        let rel = query::data::random_relation(&mut store, rows, 50, 100, seed);

        let naive = select_chain(&mut ctx, rel, &preds);
        let (fused, stats, log) = record(&mut ctx, naive.clone(), &OptOptions::default(), None);
        check_app(&ctx, &fused).expect("optimized term is well-formed");
        // select_chain gives every select an α-equivalent handler, so the
        // whole chain merges into one scan.
        prop_assert_eq!(firings(&log, "merge-select"), preds.len() - 1);
        prop_assert_eq!(stats.rewrites as usize, preds.len() - 1);

        let a = run_count(&ctx, &mut vm, &mut store, &naive);
        let b = run_count(&ctx, &mut vm, &mut store, &fused);
        prop_assert_eq!(a, b);
    }

    /// Every select has its own handler, each halting with a different
    /// code: the plans must agree on the count or on which handler fired.
    /// Distinct handlers block merge-select.
    #[test]
    fn raising_predicates_reach_their_own_handlers(
        seed in 0u64..1_000,
        rows in 1usize..120,
        preds in proptest::collection::vec(rpred_strategy(), 1..4),
    ) {
        let (a, b, merged) = naive_vs_optimized(rows, seed, |rel| {
            raising_chain(rel, &preds, |i| format!("cont(e{i})(halt {})", 1000 + i))
        });
        prop_assert_eq!(a, b);
        prop_assert_eq!(merged, 0);
    }

    /// α-equivalent handlers (ignoring the exception value) let the chain
    /// merge even though predicates raise: whether the query raises does
    /// not depend on the merge.
    #[test]
    fn raising_predicates_with_one_handler_merge_soundly(
        seed in 0u64..1_000,
        rows in 1usize..120,
        preds in proptest::collection::vec(rpred_strategy(), 1..4),
    ) {
        let (a, b, merged) = naive_vs_optimized(rows, seed, |rel| {
            raising_chain(rel, &preds, |i| format!("cont(e{i})(halt 999)"))
        });
        prop_assert_eq!(a, b);
        prop_assert_eq!(merged, preds.len() - 1);
    }

    #[test]
    fn index_plans_equal_scan_plans(
        seed in 0u64..1_000,
        rows in 1usize..300,
        key in -5i64..55,
    ) {
        let (mut ctx, mut vm) = query_ctx();
        let mut store = Store::new();
        let rel = query::data::random_relation(&mut store, rows, 50, 100, seed);
        query::data::build_index(&mut store, rel, 1).expect("index builds");

        let scan = select_chain(&mut ctx, rel, &[Pred::ColEq(1, Lit::Int(key))]);
        let (indexed, _, log) = record(&mut ctx, scan.clone(), &OptOptions::default(), Some(&store));
        prop_assert_eq!(firings(&log, "index-select"), 1);
        check_app(&ctx, &indexed).expect("optimized term is well-formed");

        let a = run_count(&ctx, &mut vm, &mut store, &scan);
        let b = run_count(&ctx, &mut vm, &mut store, &indexed);
        prop_assert_eq!(a, b);
    }

    #[test]
    fn trivial_exists_equivalent(
        seed in 0u64..1_000,
        rows in 0usize..100,
        verdict in any::<bool>(),
    ) {
        let (mut ctx, mut vm) = query_ctx();
        let mut store = Store::new();
        let rel = query::data::random_relation(&mut store, rows, 10, 10, seed);

        // Predicate ignores the range variable; answers `verdict`.
        let src = format!(
            "(exists proc(x ce cc) (cc {verdict}) <oid {:#x}> cont(e)(halt e) cont(b)(halt b))",
            rel.0
        );
        let scan = parse(&mut ctx, &src);
        let (rewritten, _, log) = record(&mut ctx, scan.clone(), &OptOptions::default(), None);
        prop_assert_eq!(firings(&log, "trivial-exists"), 1);
        check_app(&ctx, &rewritten).expect("optimized term is well-formed");

        let run_bool = |ctx: &Ctx, vm: &mut Vm, store: &mut Store, app: &App| {
            let block = vm.compile_program(ctx, app).expect("compiles");
            let mut m = Machine::new(&vm.code, &vm.externs, store, 100_000_000);
            match m.run(block, Vec::new(), Vec::new()).expect("runs").result {
                RVal::Bool(b) => b,
                other => panic!("expected bool, got {other:?}"),
            }
        };
        let a = run_bool(&ctx, &mut vm, &mut store, &scan);
        let b = run_bool(&ctx, &mut vm, &mut store, &rewritten);
        prop_assert_eq!(a, b);
        // Ground truth: ∃x∈R: verdict ≡ verdict ∧ R ≠ ∅.
        prop_assert_eq!(a, verdict && rows > 0);
    }
}

/// Regression: merge-select used to drop the inner select's exception
/// handler, so after merging the inner predicate's exception reached the
/// outer handler (111) instead of its own (222).
#[test]
fn merge_select_keeps_the_inner_exception_handler() {
    let (mut ctx, mut vm) = query_ctx();
    let mut store = Store::new();
    let rel = query::data::sample_relation(&mut store, 5, 5);
    let src = format!(
        "(select proc(x ce cc)(cc true) <oid {:#x}> cont(e)(halt 111) cont(tmp) \
           (select proc(y ce2 cc2)(ce2 \"boom\") tmp cont(e2)(halt 222) cont(r) \
             (count r cont(e3)(halt e3) cont(n)(halt n))))",
        rel.0
    );
    let naive = parse(&mut ctx, &src);
    let (optimized, _) = tycoon::opt::optimize(&mut ctx, naive.clone(), &OptOptions::default());
    check_app(&ctx, &optimized).unwrap();
    assert_eq!(run_count(&ctx, &mut vm, &mut store, &naive), 222);
    assert_eq!(run_count(&ctx, &mut vm, &mut store, &optimized), 222);
}

/// A cell of a generated relation. Keys mix kinds on purpose: `=` never
/// equates an `Int` with a `Real`, compares reals by bit pattern (so
/// `0.0` and `-0.0` differ and a NaN equals itself) and references by
/// OID.
#[derive(Debug, Clone)]
enum Cell {
    Int(i64),
    Real(f64),
    Str(&'static str),
    /// One of two tuples allocated up front.
    Ref(usize),
}

/// The reals generated: both zeros and both NaN signs.
const REALS: [f64; 5] = [1.0, 0.0, -0.0, f64::NAN, -f64::NAN];

fn cell_strategy() -> impl Strategy<Value = Cell> {
    (0usize..13).prop_map(|k| match k {
        0..=3 => Cell::Int(k as i64),
        4..=8 => Cell::Real(REALS[k - 4]),
        9 | 10 => Cell::Str(["a", "b"][k - 9]),
        _ => Cell::Ref(k - 11),
    })
}

/// A relation: its width and up to nine rows (each cut to the width).
fn rows_strategy() -> impl Strategy<Value = (usize, Vec<Vec<Cell>>)> {
    (
        1usize..4,
        proptest::collection::vec(proptest::collection::vec(cell_strategy(), 3..4), 0..10),
    )
        .prop_map(|(width, mut rows)| {
            for row in &mut rows {
                row.truncate(width);
            }
            (width, rows)
        })
}

/// What surrounds the semi-join's comparison: the shape the rule
/// rewrites, or one it must leave alone.
#[derive(Debug, Clone, Copy)]
enum Inner {
    /// The rewritable shape.
    Eq,
    /// An effect (a write to a scratch array) before the comparison.
    Effect,
    /// A raise where the comparison fails.
    Raise,
    /// `<>` in place of `=`.
    Ne,
    /// A second use of `x`: another conjunct on its first column.
    XTwice,
}

fn inner_strategy() -> impl Strategy<Value = Inner> {
    (0u8..10).prop_map(|k| match k {
        6 => Inner::Effect,
        7 => Inner::Raise,
        8 => Inner::Ne,
        9 => Inner::XTwice,
        _ => Inner::Eq,
    })
}

/// `select x from x in R where exists y in S where y.J == x.I`, as the
/// front end and optimizer leave it, with the loads in either order and
/// the `=` operands either way round.
#[derive(Debug)]
struct SemiJoin {
    r: String,
    s: String,
    i: i64,
    j: i64,
    inner: Inner,
    y_first: bool,
    swap: bool,
    /// An array the `Effect` variant writes to.
    scratch: String,
}

impl SemiJoin {
    /// The query; the normal continuation halts with the result relation,
    /// the handler with the exception value.
    fn render(&self) -> String {
        let SemiJoin { i, j, scratch, .. } = self;
        let (a, b) = if self.swap {
            ("t2", "t1")
        } else {
            ("t1", "t2")
        };
        let test = match self.inner {
            Inner::Ne => format!("(<> {a} {b} cont()(ccy true) cont()(ccy false))"),
            Inner::Raise => format!("(= {a} {b} cont()(ccy true) cont()(cey 7))"),
            _ => format!("(= {a} {b} cont()(ccy true) cont()(ccy false))"),
        };
        let test = match self.inner {
            Inner::Effect => format!("([:=] {scratch} 0 t1 cey cont(u) {test})"),
            Inner::XTwice => {
                format!("([] x 0 cey cont(t3) (= t3 1 cont() {test} cont()(ccy false)))")
            }
            _ => test,
        };
        let y_load = |k: &str| format!("([] y {j} cey cont(t1) {k})");
        let x_load = |k: &str| format!("([] x {i} cey cont(t2) {k})");
        let body = if self.y_first {
            y_load(&x_load(&test))
        } else {
            x_load(&y_load(&test))
        };
        format!(
            "(select proc(x cex ccx) (exists proc(y cey ccy) {body} {} cex ccx) \
               {} cont(e)(halt e) cont(res)(halt res))",
            self.s, self.r
        )
    }
}

fn oid_lit(oid: tycoon::core::Oid) -> String {
    format!("<oid {:#x}>", oid.0)
}

/// The outcome of a query run: a result relation's schema and rows (in
/// order, reals by bit pattern), or the value that reached the handler.
#[derive(Debug, PartialEq)]
enum Outcome {
    Rows(Vec<String>, Vec<Vec<String>>),
    Raised(RVal),
}

fn shown(v: &SVal) -> String {
    match v {
        SVal::Real(x) => format!("real {:#x}", x.to_bits()),
        other => format!("{other:?}"),
    }
}

fn run_outcome(ctx: &Ctx, vm: &mut Vm, store: &mut Store, app: &App) -> (Outcome, u64) {
    let block = vm.compile_program(ctx, app).expect("closed program");
    let mut machine = Machine::new(&vm.code, &vm.externs, store, 100_000_000);
    let out = machine.run(block, Vec::new(), Vec::new()).expect("runs");
    drop(machine);
    let outcome = match out.result {
        RVal::Ref(oid) => match store.get(oid) {
            Ok(Object::Relation(r)) => Outcome::Rows(
                r.schema.clone(),
                r.rows
                    .iter()
                    .map(|row| row.iter().map(shown).collect())
                    .collect(),
            ),
            other => panic!("expected a relation, got {other:?}"),
        },
        v => Outcome::Raised(v),
    };
    (outcome, out.stats.calls)
}

fn relation_of(
    store: &mut Store,
    width: usize,
    rows: &[Vec<Cell>],
    refs: &[tycoon::core::Oid],
) -> tycoon::core::Oid {
    let mut rel = Relation::new((0..width).map(|c| format!("c{c}")).collect());
    for row in rows {
        rel.insert(
            row.iter()
                .map(|c| match c {
                    Cell::Int(n) => SVal::Int(*n),
                    Cell::Real(x) => SVal::Real(*x),
                    Cell::Str(s) => SVal::Str((*s).into()),
                    Cell::Ref(k) => SVal::Ref(refs[*k]),
                })
                .collect(),
        );
    }
    store.alloc(Object::Relation(rel))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// The semi-join plan against the nested loop it replaces: the same
    /// rows in the same order, or the same exception value at the same
    /// handler — over duplicate and mixed-kind keys, empty sides, `S = R`,
    /// columns outside a schema and an `S` that is no relation. The rule
    /// fires exactly on the rewritable shape, and every rewritten term is
    /// well-formed.
    #[test]
    fn semi_join_plans_equal_nested_loops(
        (r_width, r_rows) in rows_strategy(),
        (s_width, s_rows) in rows_strategy(),
        i in 0i64..4,
        j in 0i64..4,
        s_kind in (0u8..8).prop_map(|k| k.saturating_sub(5)),
        inner in inner_strategy(),
        y_first in any::<bool>(),
        swap in any::<bool>(),
    ) {
        let (mut ctx, mut vm) = query_ctx();
        let mut store = Store::new();
        let refs = [
            store.alloc(Object::Tuple(vec![SVal::Int(1)])),
            store.alloc(Object::Tuple(vec![SVal::Int(1)])),
        ];
        let scratch = store.alloc(Object::Array(vec![SVal::Unit]));
        let r = relation_of(&mut store, r_width, &r_rows, &refs);
        // S: its own relation, R itself, or a tuple (no relation).
        let s = match s_kind {
            0 => relation_of(&mut store, s_width, &s_rows, &refs),
            1 => r,
            _ => refs[0],
        };
        let query = SemiJoin {
            r: oid_lit(r),
            s: oid_lit(s),
            i,
            j,
            inner,
            y_first,
            swap,
            scratch: oid_lit(scratch),
        };
        let nested = parse(&mut ctx, &query.render());
        let (rewritten, _, log) = record(&mut ctx, nested.clone(), &OptOptions::default(), None);
        check_app(&ctx, &rewritten).expect("optimized term is well-formed");
        let fires = matches!(inner, Inner::Eq);
        prop_assert_eq!(firings(&log, "semi-join"), usize::from(fires));

        let (a, _) = run_outcome(&ctx, &mut vm, &mut store, &nested);
        let (b, calls) = run_outcome(&ctx, &mut vm, &mut store, &rewritten);
        prop_assert_eq!(&a, &b);
        // The hash plan calls no predicate; the carried nested loop runs
        // exactly where it raises.
        if fires {
            prop_assert_eq!(calls == 0, matches!(a, Outcome::Rows(..)));
        }
    }
}
