//! What a query predicate may do with the row it receives. A row behaves
//! as a store tuple in every respect a program can observe: it can be
//! stored, returned, compared, mutated through any alias, raised,
//! inserted into a relation and captured by a nested query, and an
//! operator scans the rows its relation held when it was entered even if
//! the predicate appends to that relation.
//!
//! The programs are TML over `Rel`, the sample relation `(id, value,
//! flag)` with `value = id * 10 mod 70` and `flag = id even`.

use tml_core::parse::Parser;
use tml_core::subst::subst_app;
use tml_core::term::Value;
use tml_core::Lit;
use tml_lang::Session;
use tml_query::data::sample_relation;
use tml_query::QuerySession;
use tml_store::{Object, Oid, SVal};
use tml_vm::RVal;

const ROWS: usize = 10;

fn session() -> (Session, Oid) {
    let mut s = Session::default_session().unwrap();
    s.enable_queries().unwrap();
    let rel = sample_relation(&mut s.store, ROWS, 7);
    (s, rel)
}

/// Compile and run `src` with `Rel` bound to `rel`.
fn run(s: &mut Session, rel: Oid, src: &str) -> RVal {
    let rel_var = s.ctx.names.fresh("Rel");
    let mut app = Parser::new(&mut s.ctx, src)
        .bind("Rel", rel_var)
        .parse_top()
        .unwrap()
        .app;
    subst_app(&mut app, rel_var, &Value::Lit(Lit::Oid(rel)));
    let block = s.vm.compile_program(&s.ctx, &app).unwrap();
    s.vm.run_program(&mut s.store, block, 10_000_000)
        .unwrap()
        .result
}

fn int(v: RVal) -> i64 {
    match v {
        RVal::Int(n) => n,
        other => panic!("expected an int, got {other:?}"),
    }
}

fn rows(s: &Session, rel: Oid) -> Vec<Vec<SVal>> {
    match s.store.get(rel) {
        Ok(Object::Relation(r)) => r.rows.clone(),
        other => panic!("expected a relation, got {other:?}"),
    }
}

fn sample_row(id: i64) -> Vec<SVal> {
    vec![
        SVal::Int(id),
        SVal::Int(id * 10 % 70),
        SVal::Bool(id % 2 == 0),
    ]
}

#[test]
fn a_row_stored_into_an_array_is_that_row() {
    let (mut s, rel) = session();
    // Row 3 goes into arr[0]; read back through the array, it is the
    // same object as the predicate's row, holds its fields and has its
    // width.
    let src = "(new 4 0 cont(arr) \
        (select proc(x ce cc) ([] x 0 ce cont(id) (= id 3 \
            cont() ([:=] arr 0 x ce cont(u) ([] arr 0 ce cont(y) \
                (= x y cont() (cc true) cont() (cc false)))) \
            cont() (cc false))) \
          Rel cont(e)(halt e) \
          cont(r) (count r cont(e)(halt e) cont(n) \
            ([] arr 0 cont(e)(halt e) cont(t) \
              ([] t 1 cont(e)(halt e) cont(v) \
                (size t cont(w) \
                  (* n 1000 cont(e)(halt e) cont(a) \
                    (* w 100 cont(e)(halt e) cont(b) \
                      (+ a b cont(e)(halt e) cont(c) \
                        (+ c v cont(e)(halt e) cont(d) (halt d)))))))))))";
    assert_eq!(int(run(&mut s, rel, src)), 1000 + 300 + 30);
}

#[test]
fn project_returns_rows_as_tuples() {
    let (mut s, rel) = session();
    let out = run(
        &mut s,
        rel,
        "(project proc(x ce cc) (cc x) Rel cont(e)(halt e) cont(r)(halt r))",
    );
    let RVal::Ref(out) = out else {
        panic!("expected a relation, got {out:?}")
    };
    let got = rows(&s, out);
    assert_eq!(got.len(), ROWS);
    let mut oids = Vec::new();
    for (id, row) in got.iter().enumerate() {
        let [SVal::Ref(t)] = row[..] else {
            panic!("expected one tuple column, got {row:?}")
        };
        match s.store.get(t) {
            Ok(Object::Tuple(slots)) => assert_eq!(slots, &sample_row(id as i64)),
            other => panic!("expected a tuple, got {other:?}"),
        }
        oids.push(t);
    }
    oids.dedup();
    assert_eq!(oids.len(), ROWS, "one tuple per row");
}

#[test]
fn a_row_is_identical_to_itself_and_to_no_other_row() {
    let (mut s, rel) = session();
    // Per row: `x == x` counts 1, `x == prev` (the previous row, kept in
    // an array) counts 100; prev := x after the comparison.
    let src = "(new 2 0 cont(acc) (new 1 0 cont(prev) \
        (select proc(x ce cc) \
            ([] prev 0 ce cont(p) ([] acc 0 ce cont(a) \
              (= x x \
                cont() (+ a 1 ce cont(a1) (= x p \
                  cont() (+ a1 100 ce cont(a2) ([:=] acc 0 a2 ce cont(u) ([:=] prev 0 x ce cont(u2) (cc true)))) \
                  cont() ([:=] acc 0 a1 ce cont(u) ([:=] prev 0 x ce cont(u2) (cc true))))) \
                cont() (cc false)))) \
          Rel cont(e)(halt e) \
          cont(r) ([] acc 0 cont(e)(halt e) cont(n)(halt n)))))";
    assert_eq!(int(run(&mut s, rel, src)), ROWS as i64);

    // A self-join pairs every row with every row; no pair is identical.
    let src = "(join proc(a b ce cc) (= a b cont() (cc true) cont() (cc false)) \
                 Rel Rel cont(e)(halt e) \
                 cont(r) (count r cont(e)(halt e) cont(n)(halt n)))";
    assert_eq!(int(run(&mut s, rel, src)), 0);
}

#[test]
fn a_write_to_a_row_is_seen_through_every_alias() {
    let (mut s, rel) = session();
    // x[1] := 999 and read back through the array alias; alias[2] := 7
    // and read back through x. Counts the rows where both reads agree.
    let src = "(new 1 0 cont(arr) \
        (select proc(x ce cc) \
            ([:=] arr 0 x ce cont(u) ([:=] x 1 999 ce cont(u2) \
              ([] arr 0 ce cont(t) ([] t 1 ce cont(v) \
                ([:=] t 2 7 ce cont(u3) ([] x 2 ce cont(w) \
                  (= v 999 cont() (= w 7 cont() (cc true) cont() (cc false)) \
                           cont() (cc false)))))))) \
          Rel cont(e)(halt e) cont(r)(halt r)))";
    let out = run(&mut s, rel, src);
    let RVal::Ref(out) = out else {
        panic!("expected a relation, got {out:?}")
    };
    // Every row passed, and the result holds the rows as scanned: the
    // writes went to the rows' tuples, not to the relation.
    let want: Vec<_> = (0..ROWS as i64).map(sample_row).collect();
    assert_eq!(rows(&s, out), want);
    assert_eq!(rows(&s, rel), want);

    // A write before any alias exists is read back through the row.
    let src = "(select proc(x ce cc) ([:=] x 0 -5 ce cont(u) ([] x 0 ce cont(v) \
                   (= v -5 cont() (cc true) cont() (cc false)))) \
                 Rel cont(e)(halt e) \
                 cont(r) (count r cont(e)(halt e) cont(n)(halt n)))";
    assert_eq!(int(run(&mut s, rel, src)), ROWS as i64);
}

#[test]
fn a_raised_row_reaches_the_handler_intact() {
    let (mut s, rel) = session();
    // The predicate raises row 2 through its exception continuation; the
    // handler stores it, reads it back and compares it with the stored
    // copy.
    let src = "(new 1 0 cont(arr) \
        (select proc(x ce cc) ([] x 0 ce cont(id) (= id 2 cont() (ce x) cont() (cc false))) \
          Rel \
          cont(e) ([:=] arr 0 e cont(ee)(halt -3) cont(u) \
            ([] arr 0 cont(ee)(halt -4) cont(t) (= t e \
              cont() ([] e 1 cont(ee)(halt -1) cont(v) \
                (size e cont(w) (* w 100 cont(ee)(halt -5) cont(a) \
                  (+ a v cont(ee)(halt -6) cont(b) (halt b))))) \
              cont() (halt -7)))) \
          cont(r)(halt -2)))";
    assert_eq!(int(run(&mut s, rel, src)), 300 + 20);
}

#[test]
fn a_row_inserted_into_another_relation_copies_its_fields() {
    let (mut s, rel) = session();
    let src = "(mkrel 3 cont(e)(halt e) cont(out) \
        (select proc(x ce cc) ([] x 2 ce cont(f) (btest f \
              cont() (rinsert out x ce cont(u) (cc true)) \
              cont() (cc false))) \
          Rel cont(e)(halt e) cont(r)(halt out)))";
    let out = run(&mut s, rel, src);
    let RVal::Ref(out) = out else {
        panic!("expected a relation, got {out:?}")
    };
    let want: Vec<_> = (0..ROWS as i64).step_by(2).map(sample_row).collect();
    assert_eq!(rows(&s, out), want);

    // A row that was written to inserts its tuple's current fields.
    let src = "(mkrel 3 cont(e)(halt e) cont(out) \
        (select proc(x ce cc) ([:=] x 1 -1 ce cont(u) (rinsert out x ce cont(u2) (cc true))) \
          Rel cont(e)(halt e) cont(r)(halt out)))";
    let out = run(&mut s, rel, src);
    let RVal::Ref(out) = out else {
        panic!("expected a relation, got {out:?}")
    };
    let want: Vec<_> = (0..ROWS as i64)
        .map(|id| vec![SVal::Int(id), SVal::Int(-1), SVal::Bool(id % 2 == 0)])
        .collect();
    assert_eq!(rows(&s, out), want);
}

#[test]
fn a_nested_exists_sees_the_outer_row() {
    let (mut s, rel) = session();
    // Rows whose value occurs in another row (ids 0-2 and 7-9). The inner
    // predicate also stores the outer row; after the inner scan the outer
    // predicate finds it is still the same object.
    let src = "(new 1 0 cont(arr) \
        (select proc(x ce cc) \
            (exists proc(y ce2 cc2) \
                ([:=] arr 0 x ce2 cont(u) \
                  ([] y 1 ce2 cont(vy) ([] x 1 ce2 cont(vx) (= vx vy \
                    cont() ([] y 0 ce2 cont(iy) ([] x 0 ce2 cont(ix) \
                      (= ix iy cont() (cc2 false) cont() (cc2 true)))) \
                    cont() (cc2 false))))) \
              Rel ce \
              cont(found) ([] arr 0 ce cont(t) (= t x \
                cont() (cc found) \
                cont() (ce -1)))) \
          Rel cont(e)(halt e) \
          cont(r) (count r cont(e)(halt e) cont(n)(halt n))))";
    assert_eq!(int(run(&mut s, rel, src)), 6);
}

#[test]
fn operators_scan_the_rows_present_when_entered() {
    let (mut s, rel) = session();
    // The predicate appends its own row to the relation it scans: the
    // scan covers the original rows only, and every append lands.
    let src = "(select proc(x ce cc) (rinsert Rel x ce cont(u) (cc true)) \
          Rel cont(e)(halt e) \
          cont(r) (count r cont(e)(halt e) cont(n) \
            (count Rel cont(e)(halt e) cont(m) \
              (* n 1000 cont(e)(halt e) cont(a) (+ a m cont(e)(halt e) cont(b)(halt b))))))";
    assert_eq!(
        int(run(&mut s, rel, src)),
        ROWS as i64 * 1000 + 2 * ROWS as i64
    );
    let all = rows(&s, rel);
    assert_eq!(all[..ROWS], all[ROWS..]);

    // The same for exists (no row matches), project and join.
    let (mut s, rel) = session();
    let src = "(exists proc(x ce cc) (rinsert Rel x ce cont(u) (cc false)) \
          Rel cont(e)(halt e) \
          cont(b) (count Rel cont(e)(halt e) cont(m)(halt m)))";
    assert_eq!(int(run(&mut s, rel, src)), 2 * ROWS as i64);
    let src = "(project proc(x ce cc) (rinsert Rel x ce cont(u) (cc 0)) \
          Rel cont(e)(halt e) \
          cont(r) (count r cont(e)(halt e) cont(n) \
            (count Rel cont(e)(halt e) cont(m) \
              (* n 1000 cont(e)(halt e) cont(a) (+ a m cont(e)(halt e) cont(b)(halt b))))))";
    assert_eq!(
        int(run(&mut s, rel, src)),
        2 * ROWS as i64 * 1000 + 4 * ROWS as i64
    );
    let (mut s, rel) = session();
    let src = "(join proc(a b ce cc) (rinsert Rel b ce cont(u) (cc true)) \
          Rel Rel cont(e)(halt e) \
          cont(r) (count r cont(e)(halt e) cont(n)(halt n)))";
    assert_eq!(int(run(&mut s, rel, src)), (ROWS * ROWS) as i64);
    assert_eq!(rows(&s, rel).len(), ROWS + ROWS * ROWS);
}
