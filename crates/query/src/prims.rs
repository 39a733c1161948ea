//! Query primitive definitions for the optimizer side.
//!
//! These follow the extension convention `(prim val₁ … valₙ cₑ c꜀)` so the
//! VM compiles them to generic `CallPrim` dispatch; the optimizer sees
//! their signatures, effect classes and fold functions through the same
//! [`PrimTable`] as the figure-2 primitives (paper §2.3 adaptability).
//! `select` and `exists` also carry the §4.2 algebraic rewrites, "expressed
//! quite naturally in CPS" with the `|E|_v` occurrence conditions of §3 as
//! scoping preconditions: [`select_rule`] (index-select, merge-select) and
//! [`exists_rule`] (trivial-exists).
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
use tml_core::{Ctx, Lit, Oid, Registry};

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

fn defs() -> [PrimDef; 13] {
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
/// `trivial-exists`) in an optimizer provenance log, as recorded by
/// `tml_opt::record`.
pub fn firings(log: &[tml_trace::Event], rule: &str) -> usize {
    log.iter()
        .filter(|e| matches!(e, tml_trace::Event::RuleFired { rule: r, .. } if *r == rule))
        .count()
}

/// The rewrite hook of `select`: index-select, else merge-select.
/// Index-select goes first: merging an equality conjunct into a composite
/// predicate would hide it from the index matcher.
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
    let is_branch = |v: &Value, expect: bool| -> bool {
        let Value::Abs(a) = v else { return false };
        a.params.is_empty()
            && a.body.func.as_var() == Some(*ccx)
            && a.body.args == vec![Value::Lit(Lit::Bool(expect))]
    };
    if !is_branch(&eq.args[2], true) || !is_branch(&eq.args[3], false) {
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
