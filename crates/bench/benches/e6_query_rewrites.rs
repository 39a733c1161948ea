//! Experiment E6: the §4.2 algebraic query rewrites.
//!
//! **Merge-select** — σp(σq(R)) ≡ σ(p∧q)(R). The naive nested plan scans
//! twice (the second pass over the intermediate relation), materializes
//! the intermediate relation, and its cost depends on conjunct *order*;
//! the merged plan (after the program optimizer fuses the composite
//! predicate, "the resulting TML tree will be further reduced and
//! optimized using any other applicable rewrite rule") scans once and is
//! order-independent.
//!
//! **Trivial-exists** — ∃x∈R: p ≡ p ∧ R≠∅ when `|p|ₓ = 0`: an O(|R|)
//! scan becomes an O(1) emptiness test.
//!
//! **Semi-join** — σ(∃y∈S: y.j = x.i)(R) when `|S|ₓ = 0`: the nested loop
//! of |R|·|S| predicate calls becomes one hash set of `S.j` probed once
//! per row of `R`, with no predicate call at all.

use std::time::Instant;
use tml_bench::ms;
use tml_core::{Ctx, Lit};
use tml_opt::{record, OptOptions};
use tml_query::{self as query, firings, select_chain, Pred};
use tml_store::{Object, SVal, Store};
use tml_vm::{Machine, RVal, Vm};

fn run(ctx: &Ctx, vm: &mut Vm, store: &mut Store, app: &tml_core::App) -> (i64, u64, f64) {
    let block = vm.compile_program(ctx, app).expect("closed program");
    let t = Instant::now();
    let mut machine = Machine::new(&vm.code, &vm.externs, store, u64::MAX);
    let out = machine.run(block, Vec::new(), Vec::new()).expect("runs");
    let dt = t.elapsed().as_secs_f64();
    match out.result {
        RVal::Int(n) => (n, out.stats.instrs + out.stats.calls, dt),
        RVal::Bool(b) => (i64::from(b), out.stats.instrs + out.stats.calls, dt),
        other => panic!("unexpected result {other:?}"),
    }
}

fn main() {
    // Selectivities: a=3 matches ~2% (a ∈ 0..50); b<90 matches ~90%.
    let selective = Pred::ColEq(1, Lit::Int(3));
    let unselective = Pred::ColLt(2, 90);

    println!("E6 — merge-select: σp(σq(R)) vs σ(p∧q)(R), both conjunct orders");
    println!("(work = instructions + transfers; sel = 2% conjunct first, unsel = 90% first)\n");
    println!(
        "{:<8} {:>8} | {:>11} {:>11} {:>7} | {:>11} {:>11} {:>7}",
        "rows", "matches", "naive sel", "merged sel", "ratio", "naive uns", "merged uns", "ratio"
    );
    println!("{}", "-".repeat(92));
    for rows in [100usize, 1_000, 10_000, 50_000] {
        let mut ctx = Ctx::new();
        let mut vm = Vm::new();
        query::install(&mut ctx, &mut vm);
        let mut store = Store::new();
        let rel = query::data::random_relation(&mut store, rows, 50, 100, 7);

        let mut row = Vec::new();
        for order in [
            [selective.clone(), unselective.clone()],
            [unselective.clone(), selective.clone()],
        ] {
            let naive = select_chain(&mut ctx, rel, &order);
            // Merge-select fires inside the optimizer's loop, and "the
            // resulting TML tree will be further reduced and optimized using
            // any other applicable rewrite rule" — the composite predicate
            // is fused by the same run.
            let (merged, _, log) = record(&mut ctx, naive.clone(), &OptOptions::default(), None);
            assert_eq!(firings(&log, "merge-select"), 1);
            let (n1, w_naive, _) = run(&ctx, &mut vm, &mut store, &naive);
            let (n2, w_merged, _) = run(&ctx, &mut vm, &mut store, &merged);
            assert_eq!(n1, n2, "rewrite changed the result");
            row.push((n1, w_naive, w_merged));
        }
        assert_eq!(row[0].0, row[1].0);
        println!(
            "{:<8} {:>8} | {:>11} {:>11} {:>6.2}x | {:>11} {:>11} {:>6.2}x",
            rows,
            row[0].0,
            row[0].1,
            row[0].2,
            row[0].1 as f64 / row[0].2 as f64,
            row[1].1,
            row[1].2,
            row[1].1 as f64 / row[1].2 as f64,
        );
    }

    println!("\nE6b — trivial-exists: ∃x∈R:p (|p|ₓ=0) vs p ∧ R≠∅\n");
    println!(
        "{:<9} {:>12} {:>14} {:>8} {:>10} {:>10}",
        "rows", "scan work", "rewritten work", "ratio", "scan ms", "rw ms"
    );
    println!("{}", "-".repeat(68));
    for rows in [100usize, 1_000, 10_000] {
        let mut ctx = Ctx::new();
        let mut vm = Vm::new();
        query::install(&mut ctx, &mut vm);
        let mut store = Store::new();
        let rel = query::data::random_relation(&mut store, rows, 10, 100, 7);

        // A predicate that ignores its range variable and evaluates to
        // false, forcing the original plan into a full scan.
        let src = format!(
            "(exists proc(x ce cc) (cc false) <oid {:#x}> cont(e)(halt e) cont(b)(halt b))",
            rel.0
        );
        let parsed = tml_core::parse::parse_app(&mut ctx, &src).expect("parses");
        let scan = parsed.app;
        let (rewritten, _, log) = record(&mut ctx, scan.clone(), &OptOptions::default(), None);
        assert_eq!(firings(&log, "trivial-exists"), 1);

        let (b1, w1, t1) = run(&ctx, &mut vm, &mut store, &scan);
        let (b2, w2, t2) = run(&ctx, &mut vm, &mut store, &rewritten);
        assert_eq!(b1, b2, "rewrite changed the result");
        println!(
            "{:<9} {:>12} {:>14} {:>7.0}x {:>10} {:>10}",
            rows,
            w1,
            w2,
            w1 as f64 / w2 as f64,
            ms(t1),
            ms(t2)
        );
    }
    println!("\nE6c — semi-join: σ(∃y∈S: y.2 = x.2)(R), |S| = 60\n");
    println!(
        "{:<9} {:>8} {:>12} {:>12} {:>10} {:>10}",
        "rows", "matches", "loop calls", "hash calls", "loop ms", "hash ms"
    );
    println!("{}", "-".repeat(66));
    for rows in [500usize, 2_000, 10_000] {
        let mut ctx = Ctx::new();
        let mut vm = Vm::new();
        query::install(&mut ctx, &mut vm);
        let mut store = Store::new();
        let r = query::data::random_relation(&mut store, rows, 40, 300, 7);
        let s = query::data::random_relation(&mut store, 60, 40, 300, 11);
        let src = format!(
            "(select proc(x cex ccx) \
               (exists proc(y cey ccy) ([] y 2 cey cont(t1) ([] x 2 cey cont(t2) \
                  (= t1 t2 cont()(ccy true) cont()(ccy false)))) \
                 <oid {:#x}> cex ccx) \
               <oid {:#x}> cont(e)(halt e) cont(r)(halt r))",
            s.0, r.0
        );
        let nested = tml_core::parse::parse_app(&mut ctx, &src)
            .expect("parses")
            .app;
        let (hashed, _, log) = record(&mut ctx, nested.clone(), &OptOptions::default(), None);
        assert_eq!(firings(&log, "semi-join"), 1);

        let (loop_rows, loop_calls, t1) = run_rows(&ctx, &mut vm, &mut store, &nested);
        let (hash_rows, hash_calls, t2) = run_rows(&ctx, &mut vm, &mut store, &hashed);
        assert_eq!(loop_rows, hash_rows, "rewrite changed the result");
        assert!(
            hash_calls * 10 <= loop_calls,
            "{hash_calls} predicate calls against {loop_calls}"
        );
        println!(
            "{:<9} {:>8} {:>12} {:>12} {:>10} {:>10}",
            rows,
            loop_rows.len(),
            loop_calls,
            hash_calls,
            ms(t1),
            ms(t2)
        );
    }
    println!(
        "\nMerge-select makes the plan order-independent and at least as good as\n\
         the best hand ordering; trivial-exists wins by O(|R|); semi-join by\n\
         O(|S|) predicate calls per row. Results identical."
    );
}

/// Run a query whose normal continuation halts with a relation; returns
/// its rows, the predicate calls (machine re-entries) and the wall time.
fn run_rows(
    ctx: &Ctx,
    vm: &mut Vm,
    store: &mut Store,
    app: &tml_core::App,
) -> (Vec<Vec<SVal>>, u64, f64) {
    let block = vm.compile_program(ctx, app).expect("closed program");
    let t = Instant::now();
    let mut machine = Machine::new(&vm.code, &vm.externs, store, u64::MAX);
    let out = machine.run(block, Vec::new(), Vec::new()).expect("runs");
    let dt = t.elapsed().as_secs_f64();
    drop(machine);
    let RVal::Ref(oid) = out.result else {
        panic!("unexpected result {:?}", out.result);
    };
    match store.get(oid) {
        Ok(Object::Relation(rel)) => (rel.rows.clone(), out.stats.calls, dt),
        other => panic!("expected a relation, got {other:?}"),
    }
}
