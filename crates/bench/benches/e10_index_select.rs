//! Experiment E10: index-aware runtime query optimization.
//!
//! "In general, since the optimization of query expressions depends on
//! runtime bindings (for example, knowledge about index structures), we
//! have to delay query optimizations until runtime" (paper §4.2). This
//! harness measures the same column-equality selection compiled (a) at
//! "compile time" without store bindings (a scan) and (b) at runtime with
//! the store visible (an index lookup), across relation sizes — showing
//! both the growing win and that results are identical.

use std::time::Instant;
use tml_bench::ms;
use tml_core::{Ctx, Lit};
use tml_opt::{record, OptOptions};
use tml_query::{self as query, firings, select_chain, Pred};
use tml_store::Store;
use tml_vm::{Machine, RVal, Vm};

fn run(ctx: &Ctx, vm: &mut Vm, store: &mut Store, app: &tml_core::App) -> (i64, u64, f64) {
    let block = vm.compile_program(ctx, app).expect("closed program");
    let t = Instant::now();
    let mut machine = Machine::new(&vm.code, &vm.externs, store, u64::MAX);
    let out = machine.run(block, Vec::new(), Vec::new()).expect("runs");
    let dt = t.elapsed().as_secs_f64();
    match out.result {
        RVal::Int(n) => (n, out.stats.instrs + out.stats.calls, dt),
        other => panic!("unexpected result {other:?}"),
    }
}

fn main() {
    println!("E10 — runtime index exploitation: scan vs idxselect\n");
    println!(
        "{:<9} {:>9} {:>12} {:>12} {:>9} {:>10} {:>10}",
        "rows", "matches", "scan work", "index work", "ratio", "scan ms", "index ms"
    );
    println!("{}", "-".repeat(78));
    for rows in [100usize, 1_000, 10_000, 100_000] {
        let mut ctx = Ctx::new();
        let mut vm = Vm::new();
        query::install(&mut ctx, &mut vm);
        let mut store = Store::new();
        let rel = query::data::random_relation(&mut store, rows, 50, 100, 11);
        query::data::build_index(&mut store, rel, 1).expect("index builds");

        let naive = select_chain(&mut ctx, rel, &[Pred::ColEq(1, Lit::Int(7))]);

        // Compile-time optimization: no index facts, rewrite cannot fire.
        let opts = OptOptions::default();
        let (compile_time, _, log) = record(&mut ctx, naive.clone(), &opts, None);
        assert_eq!(firings(&log, "index-select"), 0);

        // Runtime optimization: the store's index facts are an input.
        let (runtime, _, log) = record(&mut ctx, naive, &opts, Some(&store));
        assert_eq!(firings(&log, "index-select"), 1);

        let (n1, w1, t1) = run(&ctx, &mut vm, &mut store, &compile_time);
        let (n2, w2, t2) = run(&ctx, &mut vm, &mut store, &runtime);
        assert_eq!(n1, n2, "index plan changed the result");
        println!(
            "{:<9} {:>9} {:>12} {:>12} {:>8.1}x {:>10} {:>10}",
            rows,
            n1,
            w1,
            w2,
            w1 as f64 / w2 as f64,
            ms(t1),
            ms(t2)
        );
    }
    println!(
        "\nThe scan plan is O(|R|) predicate invocations; the index plan is one\n\
         B-tree lookup plus O(matches) row copies — the ratio grows linearly."
    );
}
