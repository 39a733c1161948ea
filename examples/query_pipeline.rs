//! §4.2: embedded queries as TML terms, algebraic rewriting, and runtime
//! index exploitation.
//!
//! The SQL statement `select * from Rel x where x.a = 3 and x.b < 40`
//! translates 1:1 into nested `select` operators; merge-select fuses them;
//! with an index on column `a` — a fact the store hands the optimizer at
//! runtime — index-select replaces the scan with an index lookup. Both
//! rules ride the query primitives into the one optimizer loop.
//!
//! ```sh
//! cargo run --example query_pipeline
//! ```

use tycoon::core::pretty::print_app;
use tycoon::core::{Ctx, Lit};
use tycoon::opt::{record, OptOptions};
use tycoon::query::{self, firings, select_chain, Pred};
use tycoon::store::Store;
use tycoon::vm::{Machine, Vm};

fn run(ctx: &Ctx, vm: &mut Vm, store: &mut Store, app: &tycoon::core::App) -> (i64, u64) {
    let block = vm.compile_program(ctx, app).expect("closed query program");
    let mut machine = Machine::new(&vm.code, &vm.externs, store, 100_000_000);
    let out = machine
        .run(block, Vec::new(), Vec::new())
        .expect("query runs");
    match out.result {
        tycoon::vm::RVal::Int(n) => (n, out.stats.instrs + out.stats.calls * 3),
        other => panic!("expected count, got {other:?}"),
    }
}

fn main() {
    let mut ctx = Ctx::new();
    let mut vm = Vm::new();
    query::install(&mut ctx, &mut vm);

    let mut store = Store::new();
    let rel = query::data::random_relation(&mut store, 5_000, 10, 100, 42);
    println!("relation: 5000 rows, schema (id, a, b)\n");

    // The naive front-end translation: one select per conjunct.
    let naive = select_chain(
        &mut ctx,
        rel,
        &[Pred::ColEq(1, Lit::Int(3)), Pred::ColLt(2, 40)],
    );
    println!(
        "== naive nested selections ==\n{}\n",
        print_app(&ctx, &naive)
    );

    let (count, work) = run(&ctx, &mut vm, &mut store, &naive);
    println!("naive:            count={count}  work≈{work}");

    // Compile-time algebraic optimization: merge-select fuses the scans.
    let opts = OptOptions::default();
    let (merged, _, log) = record(&mut ctx, naive.clone(), &opts, None);
    println!(
        "\n== after merge-select (σp(σq(R)) ≡ σp∧q(R)) ==\n{}\n",
        print_app(&ctx, &merged)
    );
    println!(
        "rewrites: merge-select={} trivial-exists={} index-select={}",
        firings(&log, "merge-select"),
        firings(&log, "trivial-exists"),
        firings(&log, "index-select")
    );
    let (count2, work2) = run(&ctx, &mut vm, &mut store, &merged);
    println!("merged:           count={count2}  work≈{work2}");
    assert_eq!(count, count2);

    // Runtime optimization: with an index on column a, the equality
    // selection becomes an index lookup — knowledge only available at
    // runtime, which is why Tycoon delays query optimization (paper §4.2).
    query::data::build_index(&mut store, rel, 1).expect("relation indexes");
    let (indexed, _, log) = record(&mut ctx, naive, &opts, Some(&store));
    println!(
        "\n== after runtime index-select ==\n{}\n",
        print_app(&ctx, &indexed)
    );
    assert_eq!(firings(&log, "index-select"), 1);
    let (count3, work3) = run(&ctx, &mut vm, &mut store, &indexed);
    println!("index + residual: count={count3}  work≈{work3}");
    assert_eq!(count, count3);

    println!(
        "\nwork ratio naive/merged = {:.2},  naive/indexed = {:.2}",
        work as f64 / work2 as f64,
        work as f64 / work3 as f64
    );
}
