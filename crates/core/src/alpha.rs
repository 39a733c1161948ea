//! α-conversion: maintaining the unique binding rule.
//!
//! The unique binding rule (paper §2.2, constraint 4) is established during
//! TML code generation and must be preserved by every transformation. The
//! only transformation that duplicates binders is the expansion pass when it
//! inlines an abstraction at more than one call site (or keeps the original
//! binding alive); [`alpha_copy_abs`] produces a copy whose every binder is
//! replaced by a fresh identifier. [`alpha_eq`] is the matching equality:
//! two values that differ only in the names of their binders.

use crate::ident::{NameTable, VarId};
use crate::term::{Abs, App, Value};
use std::collections::HashMap;

/// Clone `abs`, renaming every binder inside it (including its own
/// parameters) to fresh identifiers from `names`. Free variables are left
/// untouched. The result can be spliced anywhere in a tree without
/// violating the unique binding rule.
pub fn alpha_copy_abs(abs: &Abs, names: &mut NameTable) -> Abs {
    let mut map = HashMap::new();
    copy_abs(abs, names, &mut map)
}

fn copy_abs(abs: &Abs, names: &mut NameTable, map: &mut HashMap<VarId, VarId>) -> Abs {
    let params: Vec<VarId> = abs
        .params
        .iter()
        .map(|&p| {
            let fresh = names.fresh_like(p);
            map.insert(p, fresh);
            fresh
        })
        .collect();
    let body = copy_app(&abs.body, names, map);
    Abs::new(params, body)
}

fn copy_app(app: &App, names: &mut NameTable, map: &mut HashMap<VarId, VarId>) -> App {
    App {
        func: copy_value(&app.func, names, map),
        args: app.args.iter().map(|a| copy_value(a, names, map)).collect(),
    }
}

fn copy_value(val: &Value, names: &mut NameTable, map: &mut HashMap<VarId, VarId>) -> Value {
    match val {
        Value::Var(v) => Value::Var(map.get(v).copied().unwrap_or(*v)),
        Value::Lit(l) => Value::Lit(l.clone()),
        Value::Prim(p) => Value::Prim(*p),
        Value::Abs(a) => Value::from(copy_abs(a, names, map)),
    }
}

/// α-equivalence: `a` and `b` are equal up to a consistent renaming of
/// their binders. Free variables must be identical. Rewrite rules use this
/// to recognise that two separately bound continuations (say, the exception
/// handlers of two nested operators) behave the same.
pub fn alpha_eq(a: &Value, b: &Value) -> bool {
    eq_value(a, b, &mut Vec::new())
}

/// `bound` pairs the binders of `a` with those of `b`: a bound variable
/// only ever equals its counterpart, never a free one.
fn eq_value(a: &Value, b: &Value, bound: &mut Vec<(VarId, VarId)>) -> bool {
    match (a, b) {
        (Value::Var(x), Value::Var(y)) => match bound.iter().find(|(p, q)| p == x || q == y) {
            Some((p, q)) => p == x && q == y,
            None => x == y,
        },
        (Value::Lit(x), Value::Lit(y)) => x == y,
        (Value::Prim(x), Value::Prim(y)) => x == y,
        (Value::Abs(x), Value::Abs(y)) => {
            bound.extend(x.params.iter().copied().zip(y.params.iter().copied()));
            let (f, g) = (&x.body, &y.body);
            x.params.len() == y.params.len()
                && f.args.len() == g.args.len()
                && std::iter::once((&f.func, &g.func))
                    .chain(f.args.iter().zip(&g.args))
                    .all(|(u, v)| eq_value(u, v, bound))
        }
        _ => false,
    }
}

/// Check the unique binding rule over a whole application: every binder
/// occurs in exactly one formal parameter list. Returns the offending
/// variable on failure.
pub fn check_unique_binding(app: &App) -> Result<(), VarId> {
    check_unique_binding_of(app.binders())
}

/// Check a pre-collected binder list for duplicates (used by
/// [`crate::wellformed::check_abs`], which prepends an abstraction's own
/// parameters to its body's binders).
pub fn check_unique_binding_of(binders: Vec<VarId>) -> Result<(), VarId> {
    let mut seen = std::collections::HashSet::with_capacity(binders.len());
    for b in binders {
        if !seen.insert(b) {
            return Err(b);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ident::NameTable;

    /// Build λ(x)(x y) — y free.
    fn sample(names: &mut NameTable) -> (Abs, VarId, VarId) {
        let x = names.fresh("x");
        let y = names.fresh("y");
        let abs = Abs::new(vec![x], App::new(Value::Var(x), vec![Value::Var(y)]));
        (abs, x, y)
    }

    #[test]
    fn alpha_eq_ignores_binder_names_only() {
        let mut names = NameTable::new();
        let (abs, _, y) = sample(&mut names);
        let copy = alpha_copy_abs(&abs, &mut names);
        assert!(alpha_eq(&Value::from(abs.clone()), &Value::from(copy)));
        // A different free variable is a different value.
        let z = names.fresh("z");
        let other = Abs::new(
            vec![abs.params[0]],
            App::new(Value::Var(abs.params[0]), vec![Value::Var(z)]),
        );
        assert!(!alpha_eq(&Value::from(abs.clone()), &Value::from(other)));
        assert!(alpha_eq(&Value::Var(y), &Value::Var(y)));
        assert!(!alpha_eq(&Value::Var(y), &Value::Var(z)));
        // λ(x)(x y) is not λ(x)(y x).
        let swapped = Abs::new(
            vec![abs.params[0]],
            App::new(Value::Var(y), vec![Value::Var(abs.params[0])]),
        );
        assert!(!alpha_eq(&Value::from(abs), &Value::from(swapped)));
    }

    #[test]
    fn copy_renames_binders() {
        let mut names = NameTable::new();
        let (abs, x, _) = sample(&mut names);
        let copy = alpha_copy_abs(&abs, &mut names);
        assert_ne!(copy.params[0], x);
        // The bound occurrence follows the rename.
        assert_eq!(copy.body.func, Value::Var(copy.params[0]));
    }

    #[test]
    fn copy_preserves_free_variables() {
        let mut names = NameTable::new();
        let (abs, _, y) = sample(&mut names);
        let copy = alpha_copy_abs(&abs, &mut names);
        assert_eq!(copy.body.args, vec![Value::Var(y)]);
    }

    #[test]
    fn copy_preserves_cont_classification() {
        let mut names = NameTable::new();
        let k = names.fresh_cont("cc");
        let abs = Abs::new(vec![k], App::new(Value::Var(k), vec![]));
        let copy = alpha_copy_abs(&abs, &mut names);
        assert!(names.is_cont(copy.params[0]));
    }

    #[test]
    fn original_plus_copy_satisfy_unique_binding() {
        let mut names = NameTable::new();
        let (abs, _, _) = sample(&mut names);
        let copy = alpha_copy_abs(&abs, &mut names);
        let both = App::new(Value::from(abs), vec![Value::from(copy)]);
        assert!(check_unique_binding(&both).is_ok());
    }

    #[test]
    fn check_unique_binding_detects_violation() {
        let mut names = NameTable::new();
        let x = names.fresh("x");
        // λ(x)(λ(x) app val) — the paper's explicit counterexample.
        let inner = Abs::new(vec![x], App::new(Value::int(1), vec![]));
        let outer = Abs::new(vec![x], App::new(Value::from(inner), vec![Value::int(2)]));
        let app = App::new(Value::from(outer), vec![Value::int(3)]);
        assert_eq!(check_unique_binding(&app), Err(x));
    }

    #[test]
    fn nested_binders_all_renamed() {
        let mut names = NameTable::new();
        let x = names.fresh("x");
        let k = names.fresh_cont("k");
        let inner = Abs::new(vec![k], App::new(Value::Var(k), vec![Value::Var(x)]));
        let outer = Abs::new(vec![x], App::new(Value::from(inner), vec![]));
        let copy = alpha_copy_abs(&outer, &mut names);
        let mut binders = vec![copy.params[0]];
        binders.extend(copy.body.binders());
        assert!(!binders.contains(&x));
        assert!(!binders.contains(&k));
        assert_eq!(binders.len(), 2);
    }
}
