//! Query rewrite soundness over randomized relations and predicate chains:
//! every plan the optimizer produces — with the §4.2 rules riding the
//! query primitives — must return the same result as the naive plan,
//! including which exception handler fires when a predicate raises.

use proptest::prelude::*;
use tycoon::core::wellformed::check_app;
use tycoon::core::{App, Ctx, Lit};
use tycoon::opt::{record, OptOptions};
use tycoon::query::{self, firings, select_chain, Pred};
use tycoon::store::Store;
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
