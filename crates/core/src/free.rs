//! Free variable analysis (paper §1, "common tasks").
//!
//! "Does a variable appear in a query predicate? Does a procedure depend on
//! global variables? ... Which base relations appear inside an integrity
//! constraint?" — all of these reduce to free-variable analysis on TML
//! terms. The reflective optimizer uses it to determine the R-value
//! bindings it must fetch from a closure record, and the query optimizer
//! uses it for scoping preconditions such as the `trivial-exists` rule's
//! `|p|_x = 0`.
//!
//! Results are **sorted by variable id and deduplicated** — a canonical set
//! representation that is deterministic across runs (no hash-set iteration
//! order involved) and binary-searchable by callers. The analysis is
//! compositional: nested abstractions contribute their cached free-variable
//! summaries (see [`Abs::free_vars`]), so a query over a tree whose
//! abstractions are warm costs only the direct occurrences at each level.

use crate::ident::VarId;
use crate::term::{Abs, App, Value};

/// The free variables of an application, sorted by id and deduplicated.
///
/// Direct variable occurrences at this level cannot be bound here (binder
/// scope is confined to the body of the binding abstraction), and nested
/// abstractions already exclude their own parameters from their cached
/// summaries, so no bound-set bookkeeping is needed.
pub fn free_vars_app(app: &App) -> Vec<VarId> {
    let mut free = Vec::new();
    collect_app(app, &mut free);
    free.sort_unstable();
    free.dedup();
    free
}

/// The free variables of an abstraction (its parameters are bound), sorted
/// by id and deduplicated. A copy of the abstraction's cached summary.
pub fn free_vars_abs(abs: &Abs) -> Vec<VarId> {
    abs.free_vars().to_vec()
}

/// `true` if `app` is closed (has no free variables).
pub fn is_closed_app(app: &App) -> bool {
    !app_has_free(app)
}

fn app_has_free(app: &App) -> bool {
    value_has_free(&app.func) || app.args.iter().any(value_has_free)
}

fn value_has_free(val: &Value) -> bool {
    match val {
        Value::Var(_) => true,
        Value::Lit(_) | Value::Prim(_) => false,
        Value::Abs(a) => !a.free_vars().is_empty(),
    }
}

fn collect_app(app: &App, free: &mut Vec<VarId>) {
    collect_value(&app.func, free);
    for a in &app.args {
        collect_value(a, free);
    }
}

fn collect_value(val: &Value, free: &mut Vec<VarId>) {
    match val {
        Value::Var(v) => free.push(*v),
        Value::Lit(_) | Value::Prim(_) => {}
        Value::Abs(a) => free.extend_from_slice(a.free_vars()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ident::NameTable;

    #[test]
    fn bound_params_are_not_free() {
        let mut names = NameTable::new();
        let x = names.fresh("x");
        let abs = Abs::new(vec![x], App::new(Value::Var(x), vec![]));
        assert!(free_vars_abs(&abs).is_empty());
    }

    #[test]
    fn unbound_vars_are_free_sorted_and_deduped() {
        let mut names = NameTable::new();
        let x = names.fresh("x");
        let g = names.fresh("g");
        let h = names.fresh("h");
        let abs = Abs::new(
            vec![x],
            App::new(
                Value::Var(h),
                vec![Value::Var(g), Value::Var(x), Value::Var(g)],
            ),
        );
        // h occurs first in the term, but results are sorted by id.
        assert_eq!(free_vars_abs(&abs), vec![g, h]);
    }

    #[test]
    fn nested_scopes() {
        let mut names = NameTable::new();
        let x = names.fresh("x");
        let y = names.fresh("y");
        let z = names.fresh("z");
        // λ(x) ((λ(y) (y x z)) x)  — z free
        let inner = Abs::new(
            vec![y],
            App::new(Value::Var(y), vec![Value::Var(x), Value::Var(z)]),
        );
        let outer = Abs::new(vec![x], App::new(Value::from(inner), vec![Value::Var(x)]));
        assert_eq!(free_vars_abs(&outer), vec![z]);
    }

    #[test]
    fn closed_term_detection() {
        let mut names = NameTable::new();
        let x = names.fresh("x");
        let abs = Abs::new(vec![x], App::new(Value::Var(x), vec![Value::int(1)]));
        let app = App::new(Value::from(abs), vec![Value::int(2)]);
        assert!(is_closed_app(&app));
    }

    #[test]
    fn free_vars_of_plain_app() {
        let mut names = NameTable::new();
        let f = names.fresh("f");
        let a = names.fresh("a");
        let app = App::new(Value::Var(f), vec![Value::Var(a), Value::Var(f)]);
        assert_eq!(free_vars_app(&app), vec![f, a]);
    }

    #[test]
    fn results_deterministic_across_tree_shapes() {
        // Many free variables through several nesting levels: the result
        // must be the sorted, deduplicated union.
        let mut names = NameTable::new();
        let vars: Vec<VarId> = (0..8).map(|i| names.fresh(format!("g{i}"))).collect();
        let x = names.fresh("x");
        let inner = Abs::new(
            vec![x],
            App::new(
                Value::Var(vars[7]),
                vec![Value::Var(vars[3]), Value::Var(vars[7]), Value::Var(x)],
            ),
        );
        let app = App::new(
            Value::Var(vars[5]),
            vec![
                Value::from(inner),
                Value::Var(vars[1]),
                Value::Var(vars[5]),
                Value::Var(vars[0]),
            ],
        );
        let got = free_vars_app(&app);
        assert_eq!(got, vec![vars[0], vars[1], vars[3], vars[5], vars[7]]);
        let mut sorted = got.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(got, sorted, "result is already sorted and deduped");
    }
}
