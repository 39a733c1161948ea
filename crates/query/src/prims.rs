//! Query primitive definitions for the optimizer side.
//!
//! These follow the extension convention `(prim val₁ … valₙ cₑ c꜀)` so the
//! VM compiles them to generic `CallPrim` dispatch; the optimizer sees
//! their signatures, effect classes and fold functions through the same
//! [`PrimTable`] as the figure-2 primitives (paper §2.3 adaptability).
//! `select` and `exists` also carry the §4.2 algebraic rewrites, "expressed
//! quite naturally in CPS" with the `|E|_v` occurrence conditions of §3 as
//! scoping preconditions: [`select_rule`] (index-select, semi-join,
//! merge-select) and [`exists_rule`] (trivial-exists).
//! [`register_prims`] is the package's [`Registry`] entry point; the
//! table-level [`install_prims`] remains for enabling the package on an
//! already-built context mid-session.

use tml_core::alpha::alpha_eq;
use tml_core::census::occurrences_in_app;
use tml_core::prim::{
    EffectClass, FoldOutcome, IndexFacts, PrimAttrs, PrimCost, PrimDef, PrimTable, RewriteFn,
    Signature,
};
use tml_core::term::{Abs, App, Value};
use tml_core::{Ctx, Lit, Oid, Registry, VarId};

const PURE: PrimAttrs = PrimAttrs {
    effects: EffectClass::Pure,
    commutative: false,
    no_fold: false,
};
const PURE_COMM: PrimAttrs = PrimAttrs {
    effects: EffectClass::Pure,
    commutative: true,
    no_fold: false,
};
const READS: PrimAttrs = PrimAttrs {
    effects: EffectClass::Reads,
    commutative: false,
    no_fold: false,
};
const WRITES: PrimAttrs = PrimAttrs {
    effects: EffectClass::Writes,
    commutative: false,
    no_fold: false,
};

fn def(
    name: &str,
    vals: usize,
    attrs: PrimAttrs,
    fold: Option<tml_core::prim::FoldFn>,
    cost: u32,
) -> PrimDef {
    PrimDef {
        name: name.to_string(),
        signature: Signature::exact(vals, 2),
        attrs,
        fold,
        rewrite: None,
        validate: None,
        cost: PrimCost::Const(cost),
        codegen: None,
    }
}

fn with_rule(def: PrimDef, rule: RewriteFn) -> PrimDef {
    PrimDef {
        rewrite: Some(rule),
        ..def
    }
}

fn defs() -> [PrimDef; 14] {
    [
        // (select pred rel ce cc) → filtered relation
        with_rule(def("select", 2, READS, None, 50), select_rule),
        // (project target rel ce cc) → projected relation
        def("project", 2, READS, None, 50),
        // (join pred rel1 rel2 ce cc) → joined relation
        def("join", 3, READS, None, 200),
        // (exists pred rel ce cc) → Bool
        with_rule(def("exists", 2, READS, None, 30), exists_rule),
        // (empty rel ce cc) → Bool
        def("empty", 1, READS, None, 3),
        // (count rel ce cc) → Int
        def("count", 1, READS, None, 3),
        // Boolean connectives on reified booleans.
        def("and", 2, PURE_COMM, Some(fold_and), 1),
        def("or", 2, PURE_COMM, Some(fold_or), 1),
        def("not", 1, PURE, Some(fold_not), 1),
        // (rinsert rel tuple ce cc) → Unit
        def("rinsert", 2, WRITES, None, 10),
        // (mkrel ncols ce cc) → empty relation
        def("mkrel", 1, READS, None, 10),
        // (idxselect index key ce cc) → relation of matching rows
        def("idxselect", 2, READS, None, 8),
        // (mkindex rel col ce cc) → index
        def("mkindex", 2, READS, None, 100),
        // (semijoin pred R S i j ce cc) → the rows of R whose column i
        // equals column j of some row of S; `pred` is the nested loop.
        def("semijoin", 5, READS, None, 60),
    ]
}

/// Register the query primitives on a [`Registry`] under construction —
/// the package's installer for `Registry::with(register_prims)`.
/// Idempotent: names already present keep their ids.
pub fn register_prims(reg: &mut Registry) {
    for d in defs() {
        reg.ensure(d);
    }
}

/// Register the query primitives on an already-built table (enabling the
/// package mid-session). Names already present are skipped, so several
/// subsystems can install on the same table.
pub fn install_prims(table: &mut PrimTable) {
    for d in defs() {
        if table.lookup(&d.name).is_none() {
            table.register(d);
        }
    }
}

fn bool2(app: &App) -> Option<(bool, bool)> {
    match (&app.args[0], &app.args[1]) {
        (Value::Lit(Lit::Bool(a)), Value::Lit(Lit::Bool(b))) => Some((*a, *b)),
        _ => None,
    }
}

fn cc_of(app: &App) -> &Value {
    &app.args[app.args.len() - 1]
}

fn to_cc(app: &App, lit: Lit) -> FoldOutcome {
    FoldOutcome::Replaced(App::new(cc_of(app).clone(), vec![Value::Lit(lit)]))
}

/// `true` when `x` can hold a boolean at run time: a variable, or a
/// boolean literal. The short-circuit identities may only fire under this
/// guard — an ill-typed constant operand must reach the machine (and its
/// type exception) unchanged.
fn may_be_bool(x: &Value) -> bool {
    matches!(x, Value::Var(_) | Value::Lit(Lit::Bool(_)))
}

fn fold_and(app: &App) -> FoldOutcome {
    if let Some((a, b)) = bool2(app) {
        return to_cc(app, Lit::Bool(a && b));
    }
    // Identities: true∧x = x, false∧x = false (and symmetrically).
    match (&app.args[0], &app.args[1]) {
        (Value::Lit(Lit::Bool(true)), x) | (x, Value::Lit(Lit::Bool(true))) if may_be_bool(x) => {
            FoldOutcome::Replaced(App::new(cc_of(app).clone(), vec![x.clone()]))
        }
        (Value::Lit(Lit::Bool(false)), x) | (x, Value::Lit(Lit::Bool(false))) if may_be_bool(x) => {
            to_cc(app, Lit::Bool(false))
        }
        _ => FoldOutcome::Unchanged,
    }
}

fn fold_or(app: &App) -> FoldOutcome {
    if let Some((a, b)) = bool2(app) {
        return to_cc(app, Lit::Bool(a || b));
    }
    match (&app.args[0], &app.args[1]) {
        (Value::Lit(Lit::Bool(false)), x) | (x, Value::Lit(Lit::Bool(false))) if may_be_bool(x) => {
            FoldOutcome::Replaced(App::new(cc_of(app).clone(), vec![x.clone()]))
        }
        (Value::Lit(Lit::Bool(true)), x) | (x, Value::Lit(Lit::Bool(true))) if may_be_bool(x) => {
            to_cc(app, Lit::Bool(true))
        }
        _ => FoldOutcome::Unchanged,
    }
}

fn fold_not(app: &App) -> FoldOutcome {
    match &app.args[0] {
        Value::Lit(Lit::Bool(b)) => to_cc(app, Lit::Bool(!b)),
        _ => FoldOutcome::Unchanged,
    }
}

/// Record a query-rewrite firing on the global trace recorder: one
/// `query.rewrite.<rule>` counter bump plus a
/// [`tml_trace::Event::QueryRewrite`] ring event. No-op while tracing is
/// off.
fn trace_rewrite(rule: &'static str, relation: Option<Oid>, index: Option<Oid>) -> &'static str {
    if tml_trace::enabled() {
        tml_trace::count(&format!("query.rewrite.{rule}"), 1);
        tml_trace::record(tml_trace::Event::QueryRewrite {
            rule,
            relation: relation.map(|o| o.0),
            index: index.map(|o| o.0),
        });
    }
    rule
}

/// Firings of query rule `rule` (`merge-select`, `index-select`,
/// `semi-join`, `trivial-exists`) in an optimizer provenance log, as
/// recorded by `tml_opt::record`.
pub fn firings(log: &[tml_trace::Event], rule: &str) -> usize {
    log.iter()
        .filter(|e| matches!(e, tml_trace::Event::RuleFired { rule: r, .. } if *r == rule))
        .count()
}

/// The rewrite hook of `select`: index-select, else semi-join, else
/// merge-select. Index-select goes first: merging an equality conjunct
/// into a composite predicate would hide it from the index matcher, and
/// a merged predicate would likewise hide a correlated `exists`.
pub fn select_rule(
    app: &mut App,
    ctx: &mut Ctx,
    facts: Option<&dyn IndexFacts>,
) -> Option<&'static str> {
    if app.args.len() != 4 {
        return None;
    }
    if let Some((rel, ix)) = facts.and_then(|f| index_select(app, ctx, f)) {
        return Some(trace_rewrite("index-select", Some(rel), Some(ix)));
    }
    if semi_join(app, ctx) {
        let rel = match app.args[1] {
            Value::Lit(Lit::Oid(r)) => Some(r),
            _ => None,
        };
        return Some(trace_rewrite("semi-join", rel, None));
    }
    merge_select(app, ctx).then(|| trace_rewrite("merge-select", None, None))
}

/// The rewrite hook of `exists`: trivial-exists.
pub fn exists_rule(
    app: &mut App,
    ctx: &mut Ctx,
    _facts: Option<&dyn IndexFacts>,
) -> Option<&'static str> {
    (app.args.len() == 4 && trivial_exists(app, ctx))
        .then(|| trace_rewrite("trivial-exists", None, None))
}

/// σp(σq(R)) ≡ σ(p∧q)(R) — the paper's `merge-select`:
///
/// ```text
/// (select q R ce cont(tempRel)
///    (select p tempRel ce' cc))
/// → (select λ(x cex ccx)(q x cex cont(b)
///        (btest b cont()(p x cex ccx) cont()(ccx false)))
///      R ce cc)
/// ```
///
/// Preconditions: `tempRel` is used exactly once (as the inner select's
/// range), and `ce'` is `ce` — the same variable or an α-equivalent
/// abstraction. The `select` primitive hands a predicate's exception to
/// the select's own handler, so after merging `p`'s exceptions reach `ce`;
/// with a different `ce'` that would change which handler runs. (When
/// both predicates raise, on different rows, the merged plan may report
/// the other row's exception to that same handler: it interleaves the two
/// scans.)
fn merge_select(app: &mut App, ctx: &mut Ctx) -> bool {
    // The normal continuation must be cont(tempRel)(select p tempRel ce' …).
    let Value::Abs(cont) = &app.args[3] else {
        return false;
    };
    let [temp_rel] = cont.params.as_slice() else {
        return false;
    };
    let temp_rel = *temp_rel;
    let inner = &cont.body;
    if inner.func != app.func || inner.args.len() != 4 {
        return false;
    }
    if inner.args[1].as_var() != Some(temp_rel) || !alpha_eq(&inner.args[2], &app.args[2]) {
        return false;
    }
    if occurrences_in_app(inner, temp_rel) != 1 {
        return false;
    }
    let Some(btest) = ctx.prims.lookup("btest") else {
        return false;
    };

    // Deconstruct (own the pieces).
    let Value::Abs(cont) = std::mem::replace(&mut app.args[3], Value::Lit(Lit::Unit)) else {
        unreachable!("matched above");
    };
    let cont = std::sync::Arc::try_unwrap(cont).unwrap_or_else(|a| (*a).clone());
    let mut inner = cont.body;
    let q = std::mem::replace(&mut app.args[0], Value::Lit(Lit::Unit));
    let p = std::mem::replace(&mut inner.args[0], Value::Lit(Lit::Unit));
    let cc = std::mem::replace(&mut inner.args[3], Value::Lit(Lit::Unit));

    // Composite predicate λ(x cex ccx)(q x cex cont(b)(btest b …)).
    let x = ctx.names.fresh("x");
    let cex = ctx.names.fresh_cont("cex");
    let ccx = ctx.names.fresh_cont("ccx");
    let b = ctx.names.fresh("b");
    let p_branch = Abs::new(
        vec![],
        App::new(p, vec![Value::Var(x), Value::Var(cex), Value::Var(ccx)]),
    );
    let false_branch = Abs::new(
        vec![],
        App::new(Value::Var(ccx), vec![Value::Lit(Lit::Bool(false))]),
    );
    let test = App::new(
        Value::Prim(btest),
        vec![
            Value::Var(b),
            Value::from(p_branch),
            Value::from(false_branch),
        ],
    );
    let q_call = App::new(
        q,
        vec![
            Value::Var(x),
            Value::Var(cex),
            Value::from(Abs::new(vec![b], test)),
        ],
    );
    app.args[0] = Value::from(Abs::new(vec![x, cex, ccx], q_call));
    app.args[3] = cc;
    true
}

/// ∃x∈R: p ≡ p ∧ (R ≠ ∅) when `|p|ₓ = 0` — the paper's
/// `trivial-exists`:
///
/// ```text
/// (exists λ(x cex ccx) p  R ce cc)
/// → (λ(x cex ccx) p  unit ce cont(t1)
///      (empty R ce cont(t2)
///        (not t2 ce cont(t3)
///          (and t1 t3 ce cc))))
/// ```
fn trivial_exists(app: &mut App, ctx: &mut Ctx) -> bool {
    let Value::Abs(pred) = &app.args[0] else {
        return false;
    };
    match pred.params.as_slice() {
        [x, _, _] if occurrences_in_app(&pred.body, *x) == 0 => {}
        _ => return false,
    }
    let (Some(empty), Some(not), Some(and)) = (
        ctx.prims.lookup("empty"),
        ctx.prims.lookup("not"),
        ctx.prims.lookup("and"),
    ) else {
        return false;
    };

    let pred = std::mem::replace(&mut app.args[0], Value::Lit(Lit::Unit));
    let r = app.args[1].clone();
    let cc = app.args[3].clone();
    // `ce` is referenced four times in the result. If it is an inline
    // abstraction, bind it to a fresh continuation variable first (the
    // unique binding rule forbids duplicating binders).
    let (ce, ce_binding) = match &app.args[2] {
        Value::Var(_) => (app.args[2].clone(), None),
        other => {
            let h = ctx.names.fresh_cont("h");
            (Value::Var(h), Some((h, other.clone())))
        }
    };

    let t1 = ctx.names.fresh("t1");
    let t2 = ctx.names.fresh("t2");
    let t3 = ctx.names.fresh("t3");
    let and_app = App::new(
        Value::Prim(and),
        vec![Value::Var(t1), Value::Var(t3), ce.clone(), cc],
    );
    let not_app = App::new(
        Value::Prim(not),
        vec![
            Value::Var(t2),
            ce.clone(),
            Value::from(Abs::new(vec![t3], and_app)),
        ],
    );
    let empty_app = App::new(
        Value::Prim(empty),
        vec![r, ce.clone(), Value::from(Abs::new(vec![t2], not_app))],
    );
    let rewritten = App::new(
        pred,
        vec![
            Value::Lit(Lit::Unit),
            ce,
            Value::from(Abs::new(vec![t1], empty_app)),
        ],
    );
    *app = match ce_binding {
        None => rewritten,
        Some((h, ce_val)) => App::new(Value::from(Abs::new(vec![h], rewritten)), vec![ce_val]),
    };
    true
}

/// Decorrelate an `exists` that equates a column of its range variable
/// with a column of the outer row — the `semi-join` rule:
///
/// ```text
/// (select λ(x cex ccx)
///           (exists λ(y cey ccy)([] y J cey cont(t1)([] x I cey cont(t2)
///                                  (= t1 t2 cont()(ccy true) cont()(ccy false))))
///                   S cex ccx)
///         R ce cc)
/// → (semijoin λ(x cex ccx)(exists …) R S I J ce cc)
/// ```
///
/// The two `[]` may come in either order and the `=` operands either way
/// round. Preconditions, checked by matching every position of the
/// predicate exactly: `x`, `y`, `cey` and `ccy` occur only where shown,
/// the `exists` hands off to the predicate's own `cex`/`ccx`, and `S` is
/// a literal OID or a variable bound outside the predicate (`|S|ₓ = 0`,
/// so one set built from `S` serves every row of `R`). Anything else —
/// effects, other conjuncts, `<>`, a raise — leaves the term alone. The
/// executor probes a hash set of `S.J` with `R.I` and keeps each row of
/// `R` at most once, in order, however many rows of `S` match it: the
/// bag semantics of the nested loop. It runs the carried predicate
/// wherever the loop could raise, so exceptions are unchanged.
fn semi_join(app: &mut App, ctx: &Ctx) -> bool {
    let Some((s, i, j)) = match_semi_join(&app.args[0], ctx) else {
        return false;
    };
    let Some(semijoin) = ctx.prims.lookup("semijoin") else {
        return false;
    };
    let mut args = std::mem::take(&mut app.args);
    let cc = args.pop().expect("four arguments");
    let ce = args.pop().expect("four arguments");
    args.extend([s, Value::Lit(Lit::Int(i)), Value::Lit(Lit::Int(j)), ce, cc]);
    *app = App::new(Value::Prim(semijoin), args);
    true
}

/// Match the predicate of [`semi_join`]. Returns `(S, I, J)`.
fn match_semi_join(pred: &Value, ctx: &Ctx) -> Option<(Value, i64, i64)> {
    let Value::Abs(pred) = pred else {
        return None;
    };
    let [x, cex, ccx] = pred.params.as_slice() else {
        return None;
    };
    let body = &pred.body;
    if body.func.as_prim() != ctx.prims.lookup("exists") {
        return None;
    }
    let [Value::Abs(inner), s, ce, cc] = body.args.as_slice() else {
        return None;
    };
    if ce.as_var() != Some(*cex) || cc.as_var() != Some(*ccx) {
        return None;
    }
    match s {
        Value::Lit(Lit::Oid(_)) => {}
        Value::Var(v) if ![*x, *cex, *ccx].contains(v) => {}
        _ => return None,
    }
    let [y, cey, ccy] = inner.params.as_slice() else {
        return None;
    };
    let (a, col_a, t_a, rest) = match_load(&inner.body, *cey, ctx)?;
    let (b, col_b, t_b, eq) = match_load(rest, *cey, ctx)?;
    let (i, j) = if (a, b) == (*y, *x) {
        (col_b, col_a)
    } else if (a, b) == (*x, *y) {
        (col_a, col_b)
    } else {
        return None;
    };
    if eq.func.as_prim() != ctx.prims.lookup("=") || t_a == t_b {
        return None;
    }
    let [l, r, yes, no] = eq.args.as_slice() else {
        return None;
    };
    let operands = (l.as_var(), r.as_var());
    if operands != (Some(t_a), Some(t_b)) && operands != (Some(t_b), Some(t_a)) {
        return None;
    }
    (delivers(yes, *ccy, true) && delivers(no, *ccy, false)).then(|| (s.clone(), i, j))
}

/// Match `([] v COL ce cont(t) next)`: a column load of variable `v` that
/// hands a bounds exception to `ce`. Returns `(v, COL, t, next)`.
fn match_load<'a>(app: &'a App, ce: VarId, ctx: &Ctx) -> Option<(VarId, i64, VarId, &'a App)> {
    if app.func.as_prim() != ctx.prims.lookup("[]") {
        return None;
    }
    let [Value::Var(v), Value::Lit(Lit::Int(col)), h, Value::Abs(k)] = app.args.as_slice() else {
        return None;
    };
    let [t] = k.params.as_slice() else {
        return None;
    };
    (h.as_var() == Some(ce)).then_some((*v, *col, *t, &k.body))
}

/// `true` when `v` is `cont()(k b)`: a branch delivering the boolean `b`
/// to the continuation `k`.
fn delivers(v: &Value, k: VarId, b: bool) -> bool {
    let Value::Abs(a) = v else { return false };
    a.params.is_empty()
        && a.body.func.as_var() == Some(k)
        && a.body.args == [Value::Lit(Lit::Bool(b))]
}

/// Replace a column-equality selection over an indexed base relation
/// with an index lookup. Runtime-only: needs the store's index facts.
/// Returns the relation and index on success.
///
/// ```text
/// (select λ(x cex ccx)([] x COL ce' cont(t)(= t K (ccx true) (ccx false)))
///    <oid R> ce cc)
/// → (idxselect <oid IX> K ce cc)      when IX indexes R on COL
/// ```
fn index_select(app: &mut App, ctx: &Ctx, facts: &dyn IndexFacts) -> Option<(Oid, Oid)> {
    let Value::Lit(Lit::Oid(rel)) = app.args[1] else {
        return None;
    };
    let (col, key) = match_eq_pred(&app.args[0], ctx)?;
    let ix = facts.index_on(rel, col)?;
    let idxselect = ctx.prims.lookup("idxselect")?;
    let ce = app.args[2].clone();
    let cc = app.args[3].clone();
    *app = App::new(
        Value::Prim(idxselect),
        vec![Value::Lit(Lit::Oid(ix)), Value::Lit(key), ce, cc],
    );
    Some((rel, ix))
}

/// Match `λ(x cex ccx)([] x COL _ cont(t)(= t K (ccx true)(ccx false)))`
/// (or with the equality operands swapped). Returns `(COL, K)`.
fn match_eq_pred(pred: &Value, ctx: &Ctx) -> Option<(usize, Lit)> {
    let Value::Abs(pred) = pred else {
        return None;
    };
    let [x, _cex, ccx] = pred.params.as_slice() else {
        return None;
    };
    let body = &pred.body;
    if body.func.as_prim() != ctx.prims.lookup("[]") || body.args.len() != 4 {
        return None;
    }
    if body.args[0].as_var() != Some(*x) {
        return None;
    }
    let Value::Lit(Lit::Int(col)) = body.args[1] else {
        return None;
    };
    let col = usize::try_from(col).ok()?;
    let Value::Abs(k) = &body.args[3] else {
        return None;
    };
    let [t] = k.params.as_slice() else {
        return None;
    };
    let eq = &k.body;
    if eq.func.as_prim() != ctx.prims.lookup("=") || eq.args.len() != 4 {
        return None;
    }
    let key = match (&eq.args[0], &eq.args[1]) {
        (v, Value::Lit(k)) if v.as_var() == Some(*t) => k.clone(),
        (Value::Lit(k), v) if v.as_var() == Some(*t) => k.clone(),
        _ => return None,
    };
    // Branches must deliver the boolean to ccx.
    if !delivers(&eq.args[2], *ccx, true) || !delivers(&eq.args[3], *ccx, false) {
        return None;
    }
    Some((col, key))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx() -> Ctx {
        let mut c = Ctx::new();
        install_prims(&mut c.prims);
        c
    }

    #[test]
    fn all_query_prims_registered() {
        let c = ctx();
        for name in [
            "select",
            "project",
            "join",
            "exists",
            "empty",
            "count",
            "and",
            "or",
            "not",
            "rinsert",
            "mkrel",
            "idxselect",
            "mkindex",
            "semijoin",
        ] {
            assert!(c.prims.lookup(name).is_some(), "missing {name}");
        }
    }

    #[test]
    fn install_is_idempotent() {
        let mut c = ctx();
        install_prims(&mut c.prims); // second install must not panic
    }

    #[test]
    fn fold_and_identities() {
        let mut c = ctx();
        let and = c.prims.lookup("and").unwrap();
        let x = Value::Var(c.names.fresh("x"));
        let ce = Value::Var(c.names.fresh_cont("ce"));
        let cc = Value::Var(c.names.fresh_cont("cc"));
        let fold = c.prims.def(and).fold.unwrap();

        let t = App::new(
            Value::Prim(and),
            vec![
                Value::Lit(Lit::Bool(true)),
                x.clone(),
                ce.clone(),
                cc.clone(),
            ],
        );
        assert_eq!(
            fold(&t),
            FoldOutcome::Replaced(App::new(cc.clone(), vec![x.clone()]))
        );
        let f = App::new(
            Value::Prim(and),
            vec![x.clone(), Value::Lit(Lit::Bool(false)), ce, cc.clone()],
        );
        assert_eq!(
            fold(&f),
            FoldOutcome::Replaced(App::new(cc, vec![Value::Lit(Lit::Bool(false))]))
        );
    }

    #[test]
    fn fold_not_literal() {
        let mut c = ctx();
        let not = c.prims.lookup("not").unwrap();
        let ce = Value::Var(c.names.fresh_cont("ce"));
        let cc = Value::Var(c.names.fresh_cont("cc"));
        let fold = c.prims.def(not).fold.unwrap();
        let app = App::new(
            Value::Prim(not),
            vec![Value::Lit(Lit::Bool(false)), ce, cc.clone()],
        );
        assert_eq!(
            fold(&app),
            FoldOutcome::Replaced(App::new(cc, vec![Value::Lit(Lit::Bool(true))]))
        );
    }

    #[test]
    fn fold_or_identities() {
        let mut c = ctx();
        let or = c.prims.lookup("or").unwrap();
        let x = Value::Var(c.names.fresh("x"));
        let ce = Value::Var(c.names.fresh_cont("ce"));
        let cc = Value::Var(c.names.fresh_cont("cc"));
        let fold = c.prims.def(or).fold.unwrap();
        let t = App::new(
            Value::Prim(or),
            vec![x.clone(), Value::Lit(Lit::Bool(true)), ce, cc.clone()],
        );
        assert_eq!(
            fold(&t),
            FoldOutcome::Replaced(App::new(cc, vec![Value::Lit(Lit::Bool(true))]))
        );
    }
}

#[cfg(test)]
mod rule_tests {
    use super::*;
    use crate::builder::{count_halt, select_chain, Pred};
    use crate::data::{build_index, sample_relation};
    use tml_core::parse::parse_app;
    use tml_core::pretty::print_app;
    use tml_core::wellformed::check_app;
    use tml_opt::{record, OptOptions, OptStats};
    use tml_trace::Event;

    fn qctx() -> Ctx {
        let mut ctx = Ctx::new();
        crate::prims::install_prims(&mut ctx.prims);
        ctx
    }

    /// Optimize `app` (query rules ride along) and check the result.
    fn opt(ctx: &mut Ctx, app: App, facts: Option<&dyn IndexFacts>) -> (App, OptStats, Vec<Event>) {
        let (out, stats, log) = record(ctx, app, &OptOptions::default(), facts);
        check_app(ctx, &out).unwrap();
        (out, stats, log)
    }

    fn parsed(ctx: &mut Ctx, src: &str) -> App {
        let app = parse_app(ctx, src).unwrap().app;
        check_app(ctx, &app).unwrap();
        app
    }

    #[test]
    fn merge_select_fires_on_nested_selects() {
        let mut ctx = qctx();
        let app = select_chain(
            &mut ctx,
            Oid(7),
            &[
                Pred::ColEq(1, Lit::Int(30)),
                Pred::ColEq(2, Lit::Bool(true)),
            ],
        );
        let (out, stats, log) = opt(&mut ctx, app, None);
        assert_eq!(firings(&log, "merge-select"), 1);
        assert_eq!(stats.rewrites, 1);
        // Only one select remains.
        let printed = print_app(&ctx, &out);
        assert_eq!(printed.matches("select").count(), 1, "{printed}");
    }

    #[test]
    fn merge_select_cascades_over_three_levels() {
        let mut ctx = qctx();
        let app = select_chain(
            &mut ctx,
            Oid(7),
            &[
                Pred::ColEq(0, Lit::Int(1)),
                Pred::ColEq(1, Lit::Int(2)),
                Pred::ColEq(2, Lit::Int(3)),
            ],
        );
        let (out, _, log) = opt(&mut ctx, app, None);
        assert_eq!(firings(&log, "merge-select"), 2);
        let printed = print_app(&ctx, &out);
        assert_eq!(printed.matches("select").count(), 1, "{printed}");
    }

    #[test]
    fn merge_select_respects_multiple_uses_of_temp() {
        // tempRel used twice (also as the count argument): must NOT merge.
        let mut ctx = qctx();
        let app = parsed(
            &mut ctx,
            "(cont(^e1) (select p Rel e1 cont(tmp) \
               (select q tmp e1 cont(r) \
                  (count tmp e1 cont(n) (halt n)))) \
             cont(e)(halt e))",
        );
        let (_, _, log) = opt(&mut ctx, app, None);
        assert_eq!(firings(&log, "merge-select"), 0);
    }

    #[test]
    fn merge_select_requires_the_same_exception_handler() {
        let mut ctx = qctx();
        // Distinct handler variables: the inner predicate's exceptions
        // must keep reaching e2.
        let app = parsed(
            &mut ctx,
            "(cont(f) (halt f) \
             proc(rel e1 e2) (select p rel e1 cont(tmp) (select q tmp e2 cont(r) (halt r))))",
        );
        let (_, _, log) = opt(&mut ctx, app, None);
        assert_eq!(firings(&log, "merge-select"), 0);
        // Distinct handler abstractions.
        let app = parsed(
            &mut ctx,
            "(select p Rel cont(a)(halt 1) cont(tmp) \
               (select q tmp cont(b)(halt 2) cont(r) (halt r)))",
        );
        let (_, _, log) = opt(&mut ctx, app, None);
        assert_eq!(firings(&log, "merge-select"), 0);
        // α-equivalent handler abstractions merge.
        let app = parsed(
            &mut ctx,
            "(select p Rel cont(a)(halt a) cont(tmp) \
               (select q tmp cont(b)(halt b) cont(r) (halt r)))",
        );
        let (_, _, log) = opt(&mut ctx, app, None);
        assert_eq!(firings(&log, "merge-select"), 1);
    }

    #[test]
    fn trivial_exists_fires_when_pred_ignores_range_var() {
        let mut ctx = qctx();
        // ∃x∈R: flag — where the predicate ignores x entirely.
        let app = parsed(
            &mut ctx,
            "(exists proc(x ce cc) (cc true) Rel cont(e)(halt e) cont(b) (halt b))",
        );
        let (out, _, log) = opt(&mut ctx, app, None);
        assert_eq!(firings(&log, "trivial-exists"), 1);
        let printed = print_app(&ctx, &out);
        assert!(printed.contains("empty"), "{printed}");
        assert!(!printed.contains("exists"), "{printed}");
    }

    #[test]
    fn trivial_exists_blocked_when_pred_uses_range_var() {
        let mut ctx = qctx();
        let app = parsed(
            &mut ctx,
            "(exists proc(x ce cc) ([] x 0 ce cont(v) (= v 3 cont()(cc true) cont()(cc false))) \
                    Rel cont(e)(halt e) cont(b) (halt b))",
        );
        let (_, _, log) = opt(&mut ctx, app, None);
        assert_eq!(firings(&log, "trivial-exists"), 0);
    }

    #[test]
    fn index_select_requires_index_facts_and_index() {
        let mut ctx = qctx();
        let mut store = tml_store::Store::new();
        let rel = sample_relation(&mut store, 50, 5);
        let app = select_chain(&mut ctx, rel, &[Pred::ColEq(1, Lit::Int(30))]);

        // Compile time (no index facts): no rewrite.
        let (_, _, log) = opt(&mut ctx, app.clone(), None);
        assert_eq!(firings(&log, "index-select"), 0);

        // With the store's facts but no index: no rewrite.
        let (_, _, log) = opt(&mut ctx, app.clone(), Some(&store));
        assert_eq!(firings(&log, "index-select"), 0);

        // With an index on the right column: rewrite fires.
        build_index(&mut store, rel, 1).unwrap();
        let (out, _, log) = opt(&mut ctx, app, Some(&store));
        assert_eq!(firings(&log, "index-select"), 1);
        let printed = print_app(&ctx, &out);
        assert!(printed.contains("idxselect"), "{printed}");
        assert!(!printed.contains("(select"), "{printed}");
    }

    #[test]
    fn index_on_wrong_column_does_not_fire() {
        let mut ctx = qctx();
        let mut store = tml_store::Store::new();
        let rel = sample_relation(&mut store, 20, 5);
        build_index(&mut store, rel, 0).unwrap();
        let app = select_chain(&mut ctx, rel, &[Pred::ColEq(1, Lit::Int(30))]);
        let (_, _, log) = opt(&mut ctx, app, Some(&store));
        assert_eq!(firings(&log, "index-select"), 0);
    }

    /// Index-select goes first, so the equality conjunct becomes an index
    /// lookup instead of disappearing into a merged predicate.
    #[test]
    fn index_select_wins_over_merging() {
        let mut ctx = qctx();
        let mut store = tml_store::Store::new();
        let rel = sample_relation(&mut store, 30, 3);
        build_index(&mut store, rel, 1).unwrap();
        let app = select_chain(
            &mut ctx,
            rel,
            &[Pred::ColEq(1, Lit::Int(10)), Pred::ColLt(0, 20)],
        );
        let (_, _, log) = opt(&mut ctx, app, Some(&store));
        assert_eq!(firings(&log, "index-select"), 1);
        assert_eq!(firings(&log, "merge-select"), 0);
    }

    /// The §4.2 showcase: a *view* (a function wrapping a selection) is
    /// inlined by the expansion pass, exposing nested selects that
    /// merge-select then fuses — optimization across the abstraction
    /// barrier between view definition and query, in one loop.
    #[test]
    fn view_expansion_enables_merge_select() {
        let mut ctx = qctx();
        // view = proc(r ce cc)(select q r ce cc) — "active customers".
        // query = (view Rel ce cont(r1)(select p r1 ce cont(r2)(count …)))
        let app = parsed(
            &mut ctx,
            "(cont(view) \
             (view Rel cont(e1)(halt e1) cont(r1) \
               (select proc(x cex ccx) ([] x 0 cex cont(t) (= t 1 cont()(ccx true) cont()(ccx false))) \
                 r1 cont(e2)(halt e2) cont(r2) \
                 (count r2 cont(e3)(halt e3) cont(n)(halt n)))) \
             proc(r ce cc) \
               (select proc(y cey ccy) ([] y 2 cey cont(u) (= u true cont()(ccy true) cont()(ccy false))) \
                 r ce cc))",
        );
        let (out, stats, log) = opt(&mut ctx, app, None);
        assert!(
            stats.inlined >= 1 || stats.total_reductions() > stats.rewrites,
            "{stats:?}"
        );
        assert_eq!(firings(&log, "merge-select"), 1, "{stats:?}");
        let printed = print_app(&ctx, &out);
        assert_eq!(printed.matches("select").count(), 1, "{printed}");
    }

    /// A round that fired a rule never ends the loop, even with expansion
    /// off: the merged predicate is reduced in a further round.
    #[test]
    fn rule_firings_are_always_reduced_again() {
        let mut ctx = qctx();
        let app = select_chain(
            &mut ctx,
            Oid(7),
            &[Pred::ColEq(0, Lit::Int(1)), Pred::ColLt(1, 2)],
        );
        let opts = OptOptions {
            rules: tml_opt::RuleSet::REDUCE_ONLY,
            ..Default::default()
        };
        let (_, stats, log) = record(&mut ctx, app, &opts, None);
        assert_eq!(firings(&log, "merge-select"), 1);
        assert_eq!(stats.rounds, 2, "{stats:?}");
        assert!(stats.per_round[1].reductions > 0, "{stats:?}");
    }

    /// The first application headed by primitive `name`, in pre-order.
    fn find<'a>(ctx: &Ctx, app: &'a App, name: &str) -> Option<&'a App> {
        if app.func.as_prim() == ctx.prims.lookup(name) {
            return Some(app);
        }
        std::iter::once(&app.func)
            .chain(&app.args)
            .find_map(|v| match v {
                Value::Abs(a) => find(ctx, &a.body, name),
                _ => None,
            })
    }

    /// The semi-join query as the TL front end and the optimizer leave
    /// it: `select x from x in R where exists y in S where y.1 == x.2`,
    /// with the inner body (the two loads and the comparison) supplied.
    fn semi_join_src(inner: &str, s: &str, handoff: &str) -> String {
        format!(
            "(cont(^S2) (select proc(x cex ccx) \
               (exists proc(y cey ccy) {inner} {s} {handoff}) \
               Rel cont(e)(halt e) cont(r)(halt r)) \
             cont(e9)(halt e9))"
        )
    }

    const Y_THEN_X: &str = "([] y 1 cey cont(t1) ([] x 2 cey cont(t2) \
        (= t1 t2 cont()(ccy true) cont()(ccy false))))";

    #[test]
    fn semi_join_fires_on_the_optimized_shape_and_its_variants() {
        let x_then_y = "([] x 2 cey cont(t2) ([] y 1 cey cont(t1) \
            (= t1 t2 cont()(ccy true) cont()(ccy false))))";
        let swapped = "([] y 1 cey cont(t1) ([] x 2 cey cont(t2) \
            (= t2 t1 cont()(ccy true) cont()(ccy false))))";
        let both = "([] x 2 cey cont(t2) ([] y 1 cey cont(t1) \
            (= t2 t1 cont()(ccy true) cont()(ccy false))))";
        for inner in [Y_THEN_X, x_then_y, swapped, both] {
            for s in ["Small", "<oid 0x59>"] {
                let mut ctx = qctx();
                let app = parsed(&mut ctx, &semi_join_src(inner, s, "cex ccx"));
                let (out, stats, log) = opt(&mut ctx, app, None);
                assert_eq!(firings(&log, "semi-join"), 1, "{inner} over {s}");
                assert_eq!(stats.rewrites, 1);
                let printed = print_app(&ctx, &out);
                assert!(!printed.contains("(select"), "{printed}");
                // The predicate, R, S, then the outer and inner column.
                let sj = find(&ctx, &out, "semijoin").expect("a semijoin");
                let shown = |v: &Value| tml_core::pretty::print_value(&ctx, v);
                assert!(shown(&sj.args[1]).starts_with("Rel"), "{printed}");
                let s_shown = if s == "Small" {
                    "Small"
                } else {
                    "<oid 0x00000059>"
                };
                assert!(shown(&sj.args[2]).starts_with(s_shown), "{printed}");
                assert_eq!(
                    sj.args[3..5],
                    [Value::Lit(Lit::Int(2)), Value::Lit(Lit::Int(1))]
                );
            }
        }
    }

    #[test]
    fn semi_join_declines_every_near_miss() {
        let eq_tail = "(= t1 t2 cont()(ccy true) cont()(ccy false))";
        let loads = |tail: &str| format!("([] y 1 cey cont(t1) ([] x 2 cey cont(t2) {tail}))");
        let cases = [
            // `<>`: an anti-join, not a semi-join.
            (
                loads("(<> t1 t2 cont()(ccy true) cont()(ccy false))"),
                "Small",
                "cex ccx",
            ),
            // The branches swapped: also `<>`.
            (
                loads("(= t1 t2 cont()(ccy false) cont()(ccy true))"),
                "Small",
                "cex ccx",
            ),
            // A raise on a mismatch.
            (
                loads("(= t1 t2 cont()(ccy true) cont()(cey 7))"),
                "Small",
                "cex ccx",
            ),
            // An effect before the comparison.
            (
                format!("([:=] G 0 1 cey cont(u) {})", loads(eq_tail)),
                "Small",
                "cex ccx",
            ),
            // A second conjunct on `x`.
            (
                loads(&format!(
                    "([] x 0 cey cont(t3) (= t3 5 cont() {eq_tail} cont()(ccy false)))"
                )),
                "Small",
                "cex ccx",
            ),
            // `x` as the range of the `exists`.
            (loads(eq_tail), "x", "cex ccx"),
            // Both loads from `y`.
            (
                format!("([] y 1 cey cont(t1) ([] y 2 cey cont(t2) {eq_tail}))"),
                "Small",
                "cex ccx",
            ),
            // A load that raises to the outer handler.
            (
                format!("([] y 1 cex cont(t1) ([] x 2 cey cont(t2) {eq_tail}))"),
                "Small",
                "cex ccx",
            ),
            // The `exists` hands its exceptions elsewhere.
            (loads(eq_tail), "Small", "S2 ccx"),
            // A non-literal column.
            (
                format!("([] y K cey cont(t1) ([] x 2 cey cont(t2) {eq_tail}))"),
                "Small",
                "cex ccx",
            ),
        ];
        for (inner, s, handoff) in &cases {
            let mut ctx = qctx();
            let app = parsed(&mut ctx, &semi_join_src(inner, s, handoff));
            let (out, _, log) = opt(&mut ctx, app, None);
            assert_eq!(
                firings(&log, "semi-join"),
                0,
                "{inner} over {s} to {handoff}"
            );
            assert!(!print_app(&ctx, &out).contains("semijoin"));
        }
    }

    /// Index-select still wins on an equality over an indexed relation;
    /// semi-join never looks at a predicate without an `exists`.
    #[test]
    fn semi_join_leaves_plain_selections_alone() {
        let mut ctx = qctx();
        let app = select_chain(&mut ctx, Oid(7), &[Pred::ColEq(1, Lit::Int(30))]);
        let (_, _, log) = opt(&mut ctx, app, None);
        assert_eq!(firings(&log, "semi-join"), 0);
    }

    #[test]
    fn boolean_folds_cooperate_with_rewrites() {
        let mut ctx = qctx();
        // (and true b …) folds through the program optimizer's fold rule.
        let app = parsed(&mut ctx, "(and true false cont(e)(halt e) cont(b)(halt b))");
        let (out, _, _) = opt(&mut ctx, app, None);
        assert_eq!(print_app(&ctx, &out), "(halt false)");
    }

    #[test]
    fn plain_programs_take_no_rewrites() {
        let mut ctx = qctx();
        let app = count_halt(&mut ctx, Value::Lit(Lit::Oid(Oid(1))));
        let (_, stats, _) = opt(&mut ctx, app, None);
        assert_eq!(stats.rewrites, 0);
        assert_eq!(stats.rounds, 1);
    }

    #[test]
    fn count_halt_shape() {
        let mut ctx = qctx();
        let app = count_halt(&mut ctx, Value::Lit(Lit::Oid(Oid(3))));
        check_app(&ctx, &app).unwrap();
        assert!(print_app(&ctx, &app).contains("count"));
    }
}
