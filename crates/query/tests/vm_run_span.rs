//! One `vm.run` span per run: a query predicate re-entering the machine
//! once per row is part of the run that called `select`, not a run of its
//! own. Its own test binary, because the trace recorder is process-global.

use tml_core::parse::Parser;
use tml_core::subst::subst_app;
use tml_core::term::Value;
use tml_core::Lit;
use tml_lang::Session;
use tml_query::data::sample_relation;
use tml_query::QuerySession;
use tml_vm::RVal;

#[test]
fn a_select_over_five_rows_is_one_vm_run() {
    let mut s = Session::default_session().unwrap();
    s.enable_queries().unwrap();
    let rel = sample_relation(&mut s.store, 5, 7);
    let rel_var = s.ctx.names.fresh("Rel");
    let src = "(select proc(x ce cc) ([] x 0 ce cont(v) (> v 1 cont()(cc true) cont()(cc false))) \
               Rel cont(e)(halt e) cont(r) (count r cont(e2)(halt e2) cont(n)(halt n)))";
    let mut app = Parser::new(&mut s.ctx, src)
        .bind("Rel", rel_var)
        .parse_top()
        .unwrap()
        .app;
    subst_app(&mut app, rel_var, &Value::Lit(Lit::Oid(rel)));
    let block = s.vm.compile_program(&s.ctx, &app).unwrap();

    let rec = tml_trace::global();
    rec.set_enabled(true);
    rec.hist("vm.run").clear();
    let out = s.vm.run_program(&mut s.store, block, 100_000).unwrap();
    let runs = rec.hist("vm.run").count();
    rec.hist("vm.run").clear();
    let called = s.call("int.add", vec![RVal::Int(2), RVal::Int(3)]).unwrap();
    let calls = rec.hist("vm.run").count();
    rec.set_enabled(false);

    // Rows 2, 3 and 4 pass; the predicate ran once per row.
    assert_eq!(out.result, RVal::Int(3));
    assert_eq!(out.stats.calls, 10, "5 predicate calls and their 5 returns");
    assert_eq!(runs, 1, "Vm::run_program of a select");
    assert_eq!(called.result, RVal::Int(5));
    assert_eq!(calls, 1, "Session::call");
}
