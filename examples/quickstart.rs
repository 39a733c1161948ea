//! Quickstart: build a TML term, optimize it, compile it, run it.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use tycoon::core::pretty::print_app;
use tycoon::core::{Builder, Ctx, Value};
use tycoon::opt::{optimize, OptOptions};
use tycoon::store::Store;
use tycoon::vm::Vm;

fn main() {
    // 1. A TML context: name table + the standard primitive set (fig. 2).
    let mut ctx = Ctx::new();

    // 2. Build a CPS term with the builder: define a procedure
    //    inc = proc(x ce cc)(+ x 1 ce cc), call it twice, halt with the
    //    result. In concrete syntax:
    //    (cont(inc) (inc 40 ce cont(t) (inc t ce2 cont(u) (halt u))) proc…)
    let mut b = Builder::new(&mut ctx);
    let x = b.var("x");
    let inc = b.proc_abs(vec![x], |b, ce, cc| {
        b.primapp(
            "+",
            vec![Value::Var(x), b.int(1), Value::Var(ce), Value::Var(cc)],
        )
    });
    let f = b.var("inc");
    let ce1 = b.halt_on_error();
    let body = b.call(Value::Var(f), vec![b.int(40)], ce1, |b, t| {
        let ce2 = b.halt_on_error();
        b.call(Value::Var(f), vec![Value::Var(t)], ce2, |b, u| {
            b.halt(Value::Var(u))
        })
    });
    let program = b.let_(f, inc, body);

    println!(
        "== TML before optimization ==\n{}\n",
        print_app(&ctx, &program)
    );

    // 3. Optimize: the expansion pass inlines `inc` at both call sites, the
    //    reduction pass folds both additions (subst/remove/fold — paper §3).
    let (optimized, stats) = optimize(&mut ctx, program.clone(), &OptOptions::default());
    println!(
        "== TML after optimization ==\n{}\n",
        print_app(&ctx, &optimized)
    );
    println!(
        "rules: {} reductions, {} inlines, size {} -> {}\n",
        stats.total_reductions(),
        stats.inlined,
        stats.size_before,
        stats.size_after
    );

    // 4. Compile both versions to abstract machine code and run them.
    let mut store = Store::new();
    for (label, app) in [("unoptimized", &program), ("optimized", &optimized)] {
        let vm = Vm::new();
        let block = vm.compile_program(&ctx, app).expect("closed program");
        let out = vm
            .run_program(&mut store, block, 1_000_000)
            .expect("program runs");
        println!(
            "{label:>12}: result={:?}  instructions={}  calls={}  closures={}",
            out.result, out.stats.instrs, out.stats.calls, out.stats.closures
        );
    }
}
