//! The TML term representation (paper §2.2, figure 1).
//!
//! The abstract syntax is minimal:
//!
//! ```text
//! val  ::=  lit  |  v  |  prim  |  λ(v₁ … vₙ) app
//! app  ::=  (val₀ val₁ … valₙ)
//! ```
//!
//! The body of an abstraction must be an application, and the actual
//! parameters of an application must be *values* — never nested
//! applications. This syntactic restriction is what makes every rewrite rule
//! of §3 sound in the presence of side effects and non-termination: values
//! cannot contain pending primitive calls.
//!
//! ## Sharing and copy-on-write
//!
//! Abstractions are held behind [`std::sync::Arc`], ATerm-style: moving or
//! duplicating a value is a reference-count bump, never a deep clone. All
//! *mutation* of an abstraction goes through [`Abs::make_mut`] (or the
//! invalidating accessors [`Abs::body_mut`] / [`Abs::params_mut`]), which
//! clones the node only when it is actually shared and drops the node's
//! cached summary. Each [`Abs`] lazily caches a summary of its subtree —
//! node count, sorted free variables and binder range — that is trusted
//! as long as the node has not been mutated through the COW discipline.
//! Pointer identity (`Arc::ptr_eq`) is therefore a sound witness that a
//! subtree is physically unchanged, which the optimizer exploits.

use crate::ident::{NameTable, VarId};
use crate::lit::Lit;
use crate::prim::PrimId;
use std::sync::{Arc, OnceLock};

/// A TML *value*: the only things that may appear as actual parameters.
#[derive(Clone, Eq)]
pub enum Value {
    /// A literal constant.
    Lit(Lit),
    /// A variable occurrence.
    Var(VarId),
    /// A primitive procedure (only meaningful in functional position,
    /// although the grammar permits it anywhere).
    Prim(PrimId),
    /// A λ-abstraction, shared copy-on-write.
    Abs(Arc<Abs>),
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (Value::Lit(a), Value::Lit(b)) => a == b,
            (Value::Var(a), Value::Var(b)) => a == b,
            (Value::Prim(a), Value::Prim(b)) => a == b,
            // Pointer identity short-circuits the structural comparison:
            // physically shared subtrees are trivially equal.
            (Value::Abs(a), Value::Abs(b)) => Arc::ptr_eq(a, b) || a == b,
            _ => false,
        }
    }
}

impl Value {
    /// Integer literal shorthand.
    pub fn int(n: i64) -> Value {
        Value::Lit(Lit::Int(n))
    }

    /// `true` if the value is an abstraction (used by the `subst` rule's
    /// precondition `valᵢ ∉ Abs ∨ |app|ᵥ = 1`).
    pub fn is_abs(&self) -> bool {
        matches!(self, Value::Abs(_))
    }

    /// The abstraction payload, if any.
    pub fn as_abs(&self) -> Option<&Abs> {
        match self {
            Value::Abs(a) => Some(a),
            _ => None,
        }
    }

    /// The shared abstraction handle, if any (no unsharing).
    pub fn as_abs_arc(&self) -> Option<&Arc<Abs>> {
        match self {
            Value::Abs(a) => Some(a),
            _ => None,
        }
    }

    /// The variable id, if this value is a variable occurrence.
    pub fn as_var(&self) -> Option<VarId> {
        match self {
            Value::Var(v) => Some(*v),
            _ => None,
        }
    }

    /// The literal payload, if any.
    pub fn as_lit(&self) -> Option<&Lit> {
        match self {
            Value::Lit(l) => Some(l),
            _ => None,
        }
    }

    /// The primitive id, if this value names a primitive.
    pub fn as_prim(&self) -> Option<PrimId> {
        match self {
            Value::Prim(p) => Some(*p),
            _ => None,
        }
    }

    /// Number of nodes in this value (literals, variables and primitives
    /// count 1; abstractions count 1 plus their body). Abstraction sizes
    /// come from the cached subtree summary.
    pub fn size(&self) -> usize {
        match self {
            Value::Lit(_) | Value::Var(_) | Value::Prim(_) => 1,
            Value::Abs(a) => a.size(),
        }
    }

    /// `true` if `self` and `other` are physically the same abstraction
    /// node (always `false` for non-abstractions).
    pub fn ptr_eq(&self, other: &Value) -> bool {
        match (self, other) {
            (Value::Abs(a), Value::Abs(b)) => Arc::ptr_eq(a, b),
            _ => false,
        }
    }
}

impl std::fmt::Debug for Value {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Value::Lit(l) => write!(f, "{l:?}"),
            Value::Var(v) => write!(f, "{v:?}"),
            Value::Prim(p) => write!(f, "{p:?}"),
            Value::Abs(a) => write!(f, "{a:?}"),
        }
    }
}

impl From<Lit> for Value {
    fn from(l: Lit) -> Self {
        Value::Lit(l)
    }
}
impl From<VarId> for Value {
    fn from(v: VarId) -> Self {
        Value::Var(v)
    }
}
impl From<Abs> for Value {
    fn from(a: Abs) -> Self {
        Value::Abs(Arc::new(a))
    }
}
impl From<Arc<Abs>> for Value {
    fn from(a: Arc<Abs>) -> Self {
        Value::Abs(a)
    }
}
impl From<PrimId> for Value {
    fn from(p: PrimId) -> Self {
        Value::Prim(p)
    }
}

/// The syntactic classification of an abstraction (paper §2.2):
///
/// * a **continuation** (`cont(v₁ … vₙ) app`) takes no continuation
///   parameters;
/// * a **procedure** (`proc(v₁ … vₙ cₑ c꜀) app`) takes continuation
///   parameters — first-class procs take exactly two: the exception
///   continuation and the normal continuation.
///
/// Both have the same internal representation and semantics (λ-abstractions);
/// the distinction is derived purely from the parameter list.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AbsKind {
    /// No continuation parameters.
    Cont,
    /// At least one continuation parameter.
    Proc,
}

/// Cached, lazily computed facts about an abstraction's subtree. Valid as
/// long as the node is only mutated through the COW discipline
/// ([`Abs::make_mut`] and the invalidating accessors), which drops the
/// summary on every mutable access.
#[derive(Debug, Clone)]
struct AbsSummary {
    /// Number of nodes in the subtree (1 for the abstraction itself plus
    /// its body).
    size: usize,
    /// Free variables of the subtree (parameters bound), sorted by id and
    /// deduplicated — a deterministic set representation.
    free: Vec<VarId>,
    /// Smallest and largest binder id in the subtree (own parameters plus
    /// every nested binder); `(u32::MAX, 0)` when the subtree binds
    /// nothing. An O(1) conservative answer to "could `v`'s binder be in
    /// here?" — a textual occurrence of `v` is either free in the subtree
    /// or sits under its unique binder inside it, so `!free && !in-range`
    /// proves absence.
    bmin: u32,
    bmax: u32,
}

/// A λ-abstraction. The body must be an application.
///
/// The `params` and `body` fields stay public for *reading*; mutation of a
/// node whose summary may already be cached must go through
/// [`Abs::make_mut`], [`Abs::body_mut`] or [`Abs::params_mut`] so the
/// summary is invalidated (see the module docs on the COW discipline).
pub struct Abs {
    /// Formal parameter list. Each parameter is bound exactly once in the
    /// whole tree (unique binding rule).
    pub params: Vec<VarId>,
    /// The body application.
    pub body: App,
    /// Cached subtree summary; dropped on every COW mutation.
    summary: OnceLock<AbsSummary>,
}

impl Clone for Abs {
    fn clone(&self) -> Self {
        Abs {
            params: self.params.clone(),
            body: self.body.clone(),
            // The summary is a pure function of params + body, so carrying
            // it over is sound; make_mut drops it before any mutation.
            summary: self.summary.clone(),
        }
    }
}

impl PartialEq for Abs {
    fn eq(&self, other: &Self) -> bool {
        self.params == other.params && self.body == other.body
    }
}

impl Eq for Abs {}

impl Abs {
    /// Create an abstraction.
    pub fn new(params: Vec<VarId>, body: App) -> Abs {
        Abs {
            params,
            body,
            summary: OnceLock::new(),
        }
    }

    /// COW entry point: a mutable reference to the abstraction behind
    /// `this`, cloning the node first if it is shared (children stay
    /// shared — the clone is one level deep). The cached summary is
    /// dropped either way, so summaries can never go stale through this
    /// path. Share/copy traffic is reported to `tml-trace` when enabled.
    pub fn make_mut(this: &mut Arc<Abs>) -> &mut Abs {
        if tml_trace::enabled() {
            if Arc::strong_count(this) > 1 {
                tml_trace::count("term.cow.copy", 1);
            } else {
                tml_trace::count("term.cow.inplace", 1);
            }
        }
        let node = Arc::make_mut(this);
        node.summary.take();
        node
    }

    /// Mutable body access on an owned/unshared node, invalidating the
    /// cached summary.
    pub fn body_mut(&mut self) -> &mut App {
        self.summary.take();
        &mut self.body
    }

    /// Mutable parameter-list access on an owned/unshared node,
    /// invalidating the cached summary.
    pub fn params_mut(&mut self) -> &mut Vec<VarId> {
        self.summary.take();
        &mut self.params
    }

    /// Replace the body, invalidating the cached summary.
    pub fn set_body(&mut self, body: App) {
        self.summary.take();
        self.body = body;
    }

    fn summary(&self) -> &AbsSummary {
        self.summary.get_or_init(|| {
            // Compose from the children's cached summaries: O(direct nodes)
            // per level, O(n) for a whole cold tree.
            let size = 1 + self.body.size();
            let mut free = Vec::new();
            let mut range = (u32::MAX, 0u32);
            collect_free_app(&self.body, &mut free, &mut range);
            free.sort_unstable();
            free.dedup();
            free.retain(|v| !self.params.contains(v));
            for p in &self.params {
                range.0 = range.0.min(p.0);
                range.1 = range.1.max(p.0);
            }
            AbsSummary {
                size,
                free,
                bmin: range.0,
                bmax: range.1,
            }
        })
    }

    /// Number of nodes in this subtree (the abstraction itself plus its
    /// body), from the cached summary.
    pub fn size(&self) -> usize {
        self.summary().size
    }

    /// The free variables of this subtree (parameters bound), sorted by id
    /// and deduplicated, from the cached summary.
    pub fn free_vars(&self) -> &[VarId] {
        &self.summary().free
    }

    /// `true` if `v` occurs free in this subtree — a binary search over
    /// the cached summary, used by the substitution fast path to skip
    /// physically unchanged subtrees.
    pub fn contains_free(&self, v: VarId) -> bool {
        self.summary().free.binary_search(&v).is_ok()
    }

    /// `true` if a textual occurrence of `v` *may* exist in this subtree.
    /// Exact when `v` is free; conservative (binder-id range check) when
    /// `v`'s binder could sit inside the subtree. `false` proves absence:
    /// an occurrence is either free here, or bound under its unique binder
    /// here — and the binder range covers the latter.
    pub fn may_occur(&self, v: VarId) -> bool {
        let s = self.summary();
        (s.bmin <= v.0 && v.0 <= s.bmax) || s.free.binary_search(&v).is_ok()
    }

    /// Derive the proc/cont classification from the parameter list
    /// (requires the name table to know which parameters are continuation
    /// variables).
    pub fn kind(&self, names: &NameTable) -> AbsKind {
        if self.params.iter().any(|&p| names.is_cont(p)) {
            AbsKind::Proc
        } else {
            AbsKind::Cont
        }
    }

    /// Number of formal parameters.
    pub fn arity(&self) -> usize {
        self.params.len()
    }
}

/// Free-variable and binder-range collection for the summary: direct
/// variable occurrences plus the *cached* free sets and binder ranges of
/// nested abstractions. Compositional — each abstraction level subtracts
/// its own parameters (and adds them to the binder range).
fn collect_free_app(app: &App, out: &mut Vec<VarId>, range: &mut (u32, u32)) {
    collect_free_value(&app.func, out, range);
    for a in &app.args {
        collect_free_value(a, out, range);
    }
}

fn collect_free_value(v: &Value, out: &mut Vec<VarId>, range: &mut (u32, u32)) {
    match v {
        Value::Var(x) => out.push(*x),
        Value::Lit(_) | Value::Prim(_) => {}
        Value::Abs(a) => {
            out.extend_from_slice(a.free_vars());
            let s = a.summary();
            range.0 = range.0.min(s.bmin);
            range.1 = range.1.max(s.bmax);
        }
    }
}

impl std::fmt::Debug for Abs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "λ{:?} {:?}", self.params, self.body)
    }
}

/// An application `(val₀ val₁ … valₙ)`.
///
/// `val₀` must, at runtime, evaluate to an abstraction (or be a primitive)
/// expecting exactly the given arguments — constraint 1 of §2.2, enforced
/// statically by front ends and checked by [`crate::wellformed`].
#[derive(Clone, PartialEq, Eq)]
pub struct App {
    /// The functional position `val₀`.
    pub func: Value,
    /// Actual parameters `val₁ … valₙ`.
    pub args: Vec<Value>,
}

impl App {
    /// Create an application.
    pub fn new(func: impl Into<Value>, args: Vec<Value>) -> App {
        App {
            func: func.into(),
            args,
        }
    }

    /// Number of nodes in this application, counting the functional
    /// position, every argument, and nested abstraction bodies. This is the
    /// "size of the TML tree" that every reduction rule strictly decreases
    /// (the paper's termination argument for the reduction pass). Nested
    /// abstraction sizes come from their cached summaries.
    pub fn size(&self) -> usize {
        self.func.size() + self.args.iter().map(Value::size).sum::<usize>()
    }

    /// Visit this application and every nested application (pre-order).
    pub fn walk(&self, f: &mut impl FnMut(&App)) {
        f(self);
        if let Value::Abs(a) = &self.func {
            a.body.walk(f);
        }
        for arg in &self.args {
            if let Value::Abs(a) = arg {
                a.body.walk(f);
            }
        }
    }

    /// Visit every value in this subtree (pre-order: functional position
    /// first, then arguments; descends into abstraction bodies).
    pub fn walk_values(&self, f: &mut impl FnMut(&Value)) {
        fn visit_value(v: &Value, f: &mut impl FnMut(&Value)) {
            f(v);
            if let Value::Abs(a) = v {
                visit_app(&a.body, f);
            }
        }
        fn visit_app(app: &App, f: &mut impl FnMut(&Value)) {
            visit_value(&app.func, f);
            for arg in &app.args {
                visit_value(arg, f);
            }
        }
        visit_app(self, f);
    }

    /// Collect every binder (formal parameter) in this subtree.
    pub fn binders(&self) -> Vec<VarId> {
        let mut out = Vec::new();
        self.walk_values(&mut |v| {
            if let Value::Abs(a) = v {
                out.extend_from_slice(&a.params);
            }
        });
        out
    }
}

impl std::fmt::Debug for App {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "({:?}", self.func)?;
        for a in &self.args {
            write!(f, " {a:?}")?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lit::Lit;

    fn dummy_app() -> App {
        App::new(Value::Var(VarId(0)), vec![Value::int(1), Value::int(2)])
    }

    #[test]
    fn size_counts_every_node() {
        let app = dummy_app();
        assert_eq!(app.size(), 3);
        let abs = Abs::new(vec![VarId(1)], app);
        let outer = App::new(Value::from(abs), vec![Value::int(7)]);
        // abs node + 3 body nodes + 1 literal arg
        assert_eq!(outer.size(), 5);
    }

    #[test]
    fn kind_derivation() {
        let mut names = NameTable::new();
        let x = names.fresh("x");
        let cc = names.fresh_cont("cc");
        let body = App::new(Value::Var(x), vec![]);
        let cont = Abs::new(vec![x], body.clone());
        assert_eq!(cont.kind(&names), AbsKind::Cont);
        let proc = Abs::new(vec![x, cc], body);
        assert_eq!(proc.kind(&names), AbsKind::Proc);
    }

    #[test]
    fn walk_visits_nested_apps() {
        let mut names = NameTable::new();
        let x = names.fresh("x");
        let inner = App::new(Value::Var(x), vec![]);
        let abs = Abs::new(vec![x], inner);
        let outer = App::new(Value::from(abs), vec![Value::Lit(Lit::Unit)]);
        let mut n = 0;
        outer.walk(&mut |_| n += 1);
        assert_eq!(n, 2);
    }

    #[test]
    fn binders_collects_params() {
        let mut names = NameTable::new();
        let x = names.fresh("x");
        let y = names.fresh("y");
        let inner = App::new(Value::Var(x), vec![Value::Var(y)]);
        let abs = Abs::new(vec![x, y], inner);
        let outer = App::new(Value::from(abs), vec![Value::int(1), Value::int(2)]);
        assert_eq!(outer.binders(), vec![x, y]);
    }

    #[test]
    fn accessors() {
        let v = Value::int(3);
        assert_eq!(v.as_lit(), Some(&Lit::Int(3)));
        assert!(v.as_var().is_none());
        assert!(!v.is_abs());
        let a = Value::from(Abs::new(vec![], dummy_app()));
        assert!(a.is_abs());
        assert!(a.as_abs().is_some());
    }

    #[test]
    fn clone_is_shallow_and_ptr_eq_detects_sharing() {
        let abs = Value::from(Abs::new(vec![VarId(9)], dummy_app()));
        let copy = abs.clone();
        assert!(abs.ptr_eq(&copy));
        assert_eq!(abs, copy);
        // A structurally equal but distinct node is == but not ptr_eq.
        let other = Value::from(Abs::new(vec![VarId(9)], dummy_app()));
        assert!(!abs.ptr_eq(&other));
        assert_eq!(abs, other);
    }

    #[test]
    fn make_mut_unshares_and_invalidates() {
        let mut a = Arc::new(Abs::new(vec![VarId(3)], dummy_app()));
        let b = a.clone();
        assert_eq!(a.size(), 4); // summary cached on the shared node
        let m = Abs::make_mut(&mut a);
        m.body.args.push(Value::int(5));
        assert!(!Arc::ptr_eq(&a, &b), "shared node must be cloned");
        assert_eq!(a.size(), 5, "summary recomputed after mutation");
        assert_eq!(b.size(), 4, "the other handle is untouched");
    }

    #[test]
    fn summary_invalidation_through_accessors() {
        let mut abs = Abs::new(vec![], dummy_app());
        assert_eq!(abs.size(), 4);
        abs.body_mut().args.push(Value::int(9));
        assert_eq!(abs.size(), 5);
        abs.set_body(App::new(Value::int(1), vec![]));
        assert_eq!(abs.size(), 2);
        abs.params_mut().push(VarId(7));
        assert_eq!(abs.arity(), 1);
    }

    #[test]
    fn cached_free_vars_sorted_and_deduped() {
        let mut names = NameTable::new();
        let x = names.fresh("x");
        let g = names.fresh("g");
        let h = names.fresh("h");
        let abs = Abs::new(
            vec![x],
            App::new(
                Value::Var(h),
                vec![Value::Var(g), Value::Var(x), Value::Var(h)],
            ),
        );
        // Sorted by id (g before h), deduped, parameter excluded.
        assert_eq!(abs.free_vars(), &[g, h]);
        assert!(abs.contains_free(g));
        assert!(!abs.contains_free(x));
    }

    #[test]
    fn equality_is_structural_with_or_without_cached_summaries() {
        let a = Abs::new(vec![VarId(1)], dummy_app());
        let b = Abs::new(vec![VarId(1)], dummy_app());
        let c = Abs::new(vec![VarId(2)], dummy_app());
        assert_eq!(a, b);
        assert_ne!(a, c);
        // Caching a summary on one side changes nothing.
        assert_eq!((a.size(), c.size()), (4, 4));
        assert_eq!(a, b);
        assert_ne!(a, c);
    }
}
