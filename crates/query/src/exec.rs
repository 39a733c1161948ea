//! Machine implementations of the query primitives.
//!
//! Each is an extension primitive ([`tml_vm::host::ExternFn`]) that may
//! re-enter the machine to evaluate predicate/target closures — the
//! integrated execution model where "programming language variables,
//! function and method calls … appear in the select and where clauses".
//!
//! Operators read their source relations in place: a [`Scan`] fetches one
//! row per iteration from the store, and a predicate receives it as a
//! transient row ([`RVal::Row`]) that reaches the store only if it
//! escapes. Only result relations are allocated, holding copies of the
//! rows they return.

use std::rc::Rc;
use tml_store::object::IndexKey;
use tml_store::{Object, Oid, Relation, SVal, MAX_OBJECT_LEN};
use tml_vm::host::{ExternTable, HostCtx};
use tml_vm::{RVal, TransientRow};

const ERR_TYPE: &str = "type";

fn type_err() -> RVal {
    RVal::Str(ERR_TYPE.into())
}

/// Store failures (e.g. an IO error from a durable backend) surface as TML
/// exception values carrying the error text.
fn store_exc(e: tml_store::StoreError) -> RVal {
    RVal::Str(format!("store: {e}").into())
}

/// A relation read in place. Rows are only ever appended (`rinsert`), so
/// the first `len` rows, counted when the operator was entered, are the
/// snapshot it scans even if a predicate inserts into the relation.
struct Scan {
    oid: Oid,
    len: usize,
    /// The current row, refilled in place while it does not escape.
    row: Rc<TransientRow>,
}

impl Scan {
    fn open(ctx: &mut dyn HostCtx, v: &RVal) -> Result<Scan, RVal> {
        let RVal::Ref(oid) = *v else {
            return Err(type_err());
        };
        match ctx.store().get(oid) {
            Ok(Object::Relation(r)) => Ok(Scan {
                oid,
                len: r.len(),
                row: Rc::new(TransientRow::new(Vec::new())),
            }),
            _ => Err(type_err()),
        }
    }

    fn schema(&self, ctx: &mut dyn HostCtx) -> Result<Vec<String>, RVal> {
        match ctx.store().get(self.oid) {
            Ok(Object::Relation(r)) => Ok(r.schema.clone()),
            _ => Err(type_err()),
        }
    }

    /// Make row `i` the current row and return it as a predicate argument.
    fn load(&mut self, ctx: &mut dyn HostCtx, i: usize) -> Result<RVal, RVal> {
        match ctx.store().get(self.oid) {
            Ok(Object::Relation(r)) if i < r.len() => {
                TransientRow::refill(&mut self.row, &r.rows[i])
            }
            _ => return Err(type_err()),
        }
        Ok(RVal::Row(self.row.clone()))
    }

    /// The current row as scanned: a write to it went to its tuple.
    fn fields(&self) -> &[SVal] {
        self.row.slots()
    }
}

fn as_bool(v: RVal) -> Result<bool, RVal> {
    match v {
        RVal::Bool(b) => Ok(b),
        _ => Err(type_err()),
    }
}

fn alloc_rel(ctx: &mut dyn HostCtx, rel: Relation) -> Result<RVal, RVal> {
    let oid = ctx
        .store()
        .alloc(Object::Relation(rel))
        .map_err(store_exc)?;
    Ok(RVal::Ref(oid))
}

/// Record the access path an executing query actually took: one
/// `query.plan.<plan>` counter bump plus a
/// [`tml_trace::Event::PlanChosen`] ring event. No-op while tracing is
/// off.
fn trace_plan(plan: &'static str, target: Option<u64>) {
    if !tml_trace::enabled() {
        return;
    }
    tml_trace::count(&format!("query.plan.{plan}"), 1);
    tml_trace::record(tml_trace::Event::PlanChosen { plan, target });
}

/// Register all query extern implementations.
pub fn install_externs(t: &mut ExternTable) {
    t.register("select", |ctx, args| {
        let pred = &args[0];
        let mut src = Scan::open(ctx, &args[1])?;
        trace_plan("scan", Some(src.oid.0));
        let mut out = Relation::new(src.schema(ctx)?);
        for i in 0..src.len {
            let tup = src.load(ctx, i)?;
            if as_bool(ctx.call(pred.clone(), vec![tup])?)? {
                out.insert(src.fields().to_vec());
            }
        }
        alloc_rel(ctx, out)
    });

    t.register("project", |ctx, args| {
        let target = &args[0];
        let mut src = Scan::open(ctx, &args[1])?;
        let mut out = Relation::new(vec!["value".to_string()]);
        for i in 0..src.len {
            let tup = src.load(ctx, i)?;
            let v = ctx.call(target.clone(), vec![tup])?;
            let sval = ctx.persist(&v).map_err(|_| type_err())?;
            out.insert(vec![sval]);
        }
        alloc_rel(ctx, out)
    });

    t.register("join", |ctx, args| {
        let pred = &args[0];
        let mut left = Scan::open(ctx, &args[1])?;
        let mut right = Scan::open(ctx, &args[2])?;
        let mut schema = left.schema(ctx)?;
        schema.extend(right.schema(ctx)?.iter().map(|c| format!("r.{c}")));
        let mut out = Relation::new(schema);
        for i in 0..left.len {
            // One row per left row, shared by all of its pairs.
            let lt = left.load(ctx, i)?;
            for j in 0..right.len {
                let rt = right.load(ctx, j)?;
                if as_bool(ctx.call(pred.clone(), vec![lt.clone(), rt])?)? {
                    let mut joined = left.fields().to_vec();
                    joined.extend_from_slice(right.fields());
                    out.insert(joined);
                }
            }
        }
        alloc_rel(ctx, out)
    });

    t.register("exists", |ctx, args| {
        let pred = &args[0];
        let mut src = Scan::open(ctx, &args[1])?;
        for i in 0..src.len {
            let tup = src.load(ctx, i)?;
            if as_bool(ctx.call(pred.clone(), vec![tup])?)? {
                return Ok(RVal::Bool(true));
            }
        }
        Ok(RVal::Bool(false))
    });

    t.register("empty", |ctx, args| {
        let src = Scan::open(ctx, &args[0])?;
        Ok(RVal::Bool(src.len == 0))
    });

    t.register("count", |ctx, args| {
        let src = Scan::open(ctx, &args[0])?;
        Ok(RVal::Int(src.len as i64))
    });

    t.register("and", |_ctx, args| {
        Ok(RVal::Bool(
            as_bool(args[0].clone())? && as_bool(args[1].clone())?,
        ))
    });
    t.register("or", |_ctx, args| {
        Ok(RVal::Bool(
            as_bool(args[0].clone())? || as_bool(args[1].clone())?,
        ))
    });
    t.register("not", |_ctx, args| {
        Ok(RVal::Bool(!as_bool(args[0].clone())?))
    });

    t.register("rinsert", |ctx, args| {
        let RVal::Ref(rel_oid) = args[0] else {
            return Err(type_err());
        };
        let row = match &args[1] {
            RVal::Row(r) if r.oid().is_none() => r.slots().to_vec(),
            v => {
                let tup_oid = match v {
                    RVal::Ref(o) => *o,
                    RVal::Row(r) => r.persist(ctx.store()).map_err(store_exc)?,
                    _ => return Err(type_err()),
                };
                match ctx.store().get(tup_oid) {
                    Ok(Object::Tuple(slots))
                    | Ok(Object::Array(slots))
                    | Ok(Object::Vector(slots)) => slots.clone(),
                    _ => return Err(type_err()),
                }
            }
        };
        match ctx.store().get(rel_oid) {
            Ok(Object::Relation(r)) if row.len() == r.schema.len() => {}
            _ => return Err(type_err()),
        }
        ctx.store()
            .mutate(rel_oid, &mut |obj| {
                if let Object::Relation(r) = obj {
                    r.insert(row.clone());
                }
                Ok(())
            })
            .map_err(store_exc)?;
        Ok(RVal::Unit)
    });

    t.register("mkrel", |ctx, args| {
        let RVal::Int(n) = args[0] else {
            return Err(type_err());
        };
        let n = usize::try_from(n).map_err(|_| type_err())?;
        if n > MAX_OBJECT_LEN {
            return Err(type_err());
        }
        let schema = (0..n).map(|i| format!("c{i}")).collect();
        alloc_rel(ctx, Relation::new(schema))
    });

    t.register("mkindex", |ctx, args| {
        let RVal::Ref(rel_oid) = args[0] else {
            return Err(type_err());
        };
        let RVal::Int(col) = args[1] else {
            return Err(type_err());
        };
        let col = usize::try_from(col).map_err(|_| type_err())?;
        let oid = crate::data::build_index(ctx.store(), rel_oid, col).map_err(|_| type_err())?;
        Ok(RVal::Ref(oid))
    });

    t.register("idxselect", |ctx, args| {
        let RVal::Ref(ix_oid) = args[0] else {
            return Err(type_err());
        };
        trace_plan("index", Some(ix_oid.0));
        let key = ctx
            .persist(&args[1])
            .ok()
            .as_ref()
            .and_then(IndexKey::from_sval)
            .ok_or_else(type_err)?;
        // Copy only the matched rows out of the indexed relation.
        let store = &*ctx.store();
        let Ok(Object::Index(ix)) = store.get(ix_oid) else {
            return Err(type_err());
        };
        let Ok(Object::Relation(src)) = store.get(ix.relation) else {
            return Err(type_err());
        };
        let mut out = Relation::new(src.schema.clone());
        for &i in ix.entries.get(&key).into_iter().flatten() {
            if let Some(row) = src.rows.get(i) {
                out.insert(row.clone());
            }
        }
        alloc_rel(ctx, out)
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::sample_relation;
    use tml_core::parse::Parser;
    use tml_lang::Session;
    use tml_store::Oid;
    use tml_vm::Machine;

    /// Run a TML query program (text) against a session with queries
    /// enabled and a sample relation bound to the name `Rel`.
    fn run_query(src: &str, nrows: i64) -> (RVal, Session) {
        use crate::QuerySession;
        let mut s = Session::default_session().unwrap();
        s.enable_queries().unwrap();
        let rel = sample_relation(&mut s.store, nrows as usize, 7);
        let rel_var = s.ctx.names.fresh("Rel");
        let parsed = Parser::new(&mut s.ctx, src)
            .bind("Rel", rel_var)
            .parse_top()
            .unwrap();
        // Bind Rel by substitution with the literal OID.
        let mut app = parsed.app;
        tml_core::subst::subst_app(
            &mut app,
            rel_var,
            &tml_core::term::Value::Lit(tml_core::Lit::Oid(rel)),
        );
        let block = s.vm.compile_program(&s.ctx, &app).unwrap();
        let mut machine = Machine::new(&s.vm.code, &s.vm.externs, &mut s.store, 10_000_000);
        let out = machine.run(block, Vec::new(), Vec::new()).unwrap();
        drop(machine);
        (out.result, s)
    }

    #[test]
    fn count_and_empty() {
        let (r, _) = run_query("(count Rel cont(e)(halt e) cont(n)(halt n))", 10);
        assert_eq!(r, RVal::Int(10));
        let (r, _) = run_query("(empty Rel cont(e)(halt e) cont(b)(halt b))", 10);
        assert_eq!(r, RVal::Bool(false));
    }

    #[test]
    fn select_filters_rows() {
        // Column 1 (value) is i*10 % 70: select value = 30.
        let src =
            "(select proc(x ce cc) ([] x 1 ce cont(v) (= v 30 cont()(cc true) cont()(cc false))) \
                    Rel cont(e)(halt e) cont(r) (count r cont(e2)(halt e2) cont(n)(halt n)))";
        let (r, _) = run_query(src, 70);
        assert_eq!(r, RVal::Int(10));
    }

    #[test]
    fn project_maps_rows() {
        let src = "(project proc(x ce cc) ([] x 0 ce cc) \
                    Rel cont(e)(halt e) cont(r) (count r cont(e2)(halt e2) cont(n)(halt n)))";
        let (r, _) = run_query(src, 12);
        assert_eq!(r, RVal::Int(12));
    }

    #[test]
    fn exists_short_circuits() {
        let src =
            "(exists proc(x ce cc) ([] x 0 ce cont(v) (= v 3 cont()(cc true) cont()(cc false))) \
                    Rel cont(e)(halt e) cont(b)(halt b))";
        let (r, _) = run_query(src, 10);
        assert_eq!(r, RVal::Bool(true));
        let (r, _) = run_query(src, 2);
        assert_eq!(r, RVal::Bool(false));
    }

    #[test]
    fn join_pairs_matching_rows() {
        // Join Rel with itself on column 0 equality: n matching pairs.
        let src = "(join proc(a b ce cc) \
                      ([] a 0 ce cont(va) ([] b 0 ce cont(vb) \
                        (= va vb cont()(cc true) cont()(cc false)))) \
                    Rel Rel cont(e)(halt e) cont(r) \
                    (count r cont(e2)(halt e2) cont(n)(halt n)))";
        let (r, _) = run_query(src, 8);
        assert_eq!(r, RVal::Int(8));
    }

    #[test]
    fn boolean_connectives() {
        let (r, _) = run_query(
            "(and true false cont(e)(halt e) cont(b) \
               (or b true cont(e2)(halt e2) cont(c) \
                 (not c cont(e3)(halt e3) cont(d)(halt d))))",
            1,
        );
        assert_eq!(r, RVal::Bool(false));
    }

    #[test]
    fn rinsert_and_mkrel() {
        let src = "(mkrel 2 cont(e)(halt e) cont(r) \
                     (vector 1 2 cont(t) \
                       (rinsert r t cont(e2)(halt e2) cont(u) \
                         (count r cont(e3)(halt e3) cont(n)(halt n)))))";
        let (r, _) = run_query(src, 1);
        assert_eq!(r, RVal::Int(1));
    }

    #[test]
    fn mkrel_above_the_object_limit_is_a_type_error() {
        // Checked before the schema is built.
        let src = format!(
            "(mkrel {} cont(e)(halt e) cont(r)(halt 0))",
            MAX_OBJECT_LEN + 1
        );
        let (r, _) = run_query(&src, 1);
        assert_eq!(r, RVal::Str("type".into()));
        let (r, _) = run_query("(mkrel 4 cont(e)(halt e) cont(r)(halt 0))", 1);
        assert_eq!(r, RVal::Int(0));
    }

    #[test]
    fn index_select_equals_scan_select() {
        let scan =
            "(select proc(x ce cc) ([] x 1 ce cont(v) (= v 30 cont()(cc true) cont()(cc false))) \
                     Rel cont(e)(halt e) cont(r) (count r cont(e2)(halt e2) cont(n)(halt n)))";
        let (scan_n, _) = run_query(scan, 70);
        let indexed = "(mkindex Rel 1 cont(e)(halt e) cont(ix) \
                         (idxselect ix 30 cont(e2)(halt e2) cont(r) \
                           (count r cont(e3)(halt e3) cont(n)(halt n))))";
        let (idx_n, _) = run_query(indexed, 70);
        assert_eq!(scan_n, idx_n);
    }

    #[test]
    fn type_errors_flow_to_exception_continuation() {
        // Selecting over a non-relation (an integer) must hit ce.
        let src = "(select proc(x ce cc) (cc true) 42 cont(e)(halt e) cont(r)(halt 0))";
        let (r, _) = run_query(src, 1);
        assert_eq!(r, RVal::Str("type".into()));
    }

    #[test]
    fn predicate_exceptions_propagate() {
        // The predicate raises through its exception continuation.
        let src = "(select proc(x ce cc) (ce \"boom\") Rel cont(e)(halt e) cont(r)(halt 0))";
        let (r, _) = run_query(src, 3);
        assert_eq!(r, RVal::Str("boom".into()));
    }

    #[test]
    fn sample_relation_schema() {
        let mut s = tml_store::Store::new();
        let oid = sample_relation(&mut s, 5, 3);
        let Object::Relation(r) = s.get(oid).unwrap() else {
            panic!()
        };
        assert_eq!(r.schema, vec!["id", "value", "flag"]);
        assert_eq!(r.len(), 5);
        assert_ne!(oid, Oid::NULL);
    }
}
