//! Primitive procedures (paper §2.3).
//!
//! In TML, most of the "real work" needed to implement source language
//! semantics is factored out into primitive procedures which are *not part
//! of the intermediate language itself*. New primitives can be registered at
//! back-end compile time by providing:
//!
//! 1. a **target-code generation hook** ([`PrimDef::codegen`]) emitting
//!    through the narrow [`crate::emit::EmitCtx`] interface; primitives
//!    without one compile to the machine's generic `call-prim`
//!    instruction and execute through the host-function table,
//! 2. a **meta-evaluation function** used by the optimizer's `fold` rule
//!    ([`PrimDef::fold`]),
//! 3. a **runtime cost estimator** measured in abstract machine
//!    instructions ([`PrimDef::cost`]), and
//! 4. a collection of **optimizer attributes** — side-effect class,
//!    commutativity, rule-enable flags ([`PrimAttrs`]) — each with a
//!    worst-case default, and
//! 5. an optional **rewrite rule** ([`PrimDef::rewrite`]) that may allocate
//!    fresh names and consult the store's index structures ([`IndexFacts`])
//!    — how `tml-query`'s §4.2 rules reach the optimizer.
//!
//! By definition each primitive calls exactly one of its continuation
//! arguments tail-recursively, passing the result of its computation.

use crate::emit::CodegenFn;
use crate::lit::Oid;
use crate::term::App;
use crate::Ctx;
use std::collections::HashMap;
use std::fmt;

/// A dense identifier for a primitive procedure, indexing a [`PrimTable`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PrimId(pub u32);

impl PrimId {
    /// Index into the owning [`PrimTable`].
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for PrimId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

/// Side-effect classification in the spirit of Gifford/Lucassen effect
/// classes (paper §2.3, attribute 4). The default is the worst case.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum EffectClass {
    /// No observable effect; calls may be folded, removed and reordered.
    Pure,
    /// Reads the hidden store; may be removed if the result is unused, but
    /// not reordered across writes.
    Reads,
    /// Writes the hidden store (or performs I/O); must be preserved.
    #[default]
    Writes,
}

/// Arity constraint on the value or continuation arguments of a primitive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Arity {
    /// Exactly `n` arguments.
    Exact(usize),
    /// `n` or more arguments (variadic primitives such as `array`).
    AtLeast(usize),
}

impl Arity {
    /// Check a concrete argument count against the constraint.
    pub fn admits(self, n: usize) -> bool {
        match self {
            Arity::Exact(k) => n == k,
            Arity::AtLeast(k) => n >= k,
        }
    }
}

/// The calling convention of a primitive: how many value arguments it takes
/// and how many continuations it dispatches to.
///
/// Applications of primitives lay their arguments out as
/// `(prim val₁ … valₙ c₁ … cₘ)`: all value arguments first, then all
/// continuations. Primitives with an irregular layout (`==`, `Y`) install a
/// custom validator instead ([`PrimDef::validate`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Signature {
    /// Constraint on the number of value arguments.
    pub vals: Arity,
    /// Constraint on the number of continuation arguments.
    pub conts: Arity,
}

impl Signature {
    /// Fixed signature: exactly `vals` value arguments, `conts`
    /// continuations.
    pub const fn exact(vals: usize, conts: usize) -> Signature {
        Signature {
            vals: Arity::Exact(vals),
            conts: Arity::Exact(conts),
        }
    }

    /// Variadic signature: at least `vals` value arguments, exactly `conts`
    /// continuations.
    pub const fn variadic(vals: usize, conts: usize) -> Signature {
        Signature {
            vals: Arity::AtLeast(vals),
            conts: Arity::Exact(conts),
        }
    }
}

/// Optimizer attributes of a primitive (paper §2.3, item 4).
///
/// "There is a default value for any of these attributes, representing the
/// worst possible case (i.e., no further information available) for the
/// optimizer."
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PrimAttrs {
    /// Side-effect class; default [`EffectClass::Writes`] (worst case).
    pub effects: EffectClass,
    /// `true` if the first two value arguments commute.
    pub commutative: bool,
    /// Set to disable the `fold` rule for this primitive even if a fold
    /// function is present (rule-enable flag).
    pub no_fold: bool,
}

/// Result of meta-evaluating a primitive application (the `fold` rule).
#[derive(Debug, Clone, PartialEq)]
pub enum FoldOutcome {
    /// The evaluation function "simply returns the original call".
    Unchanged,
    /// The call reduces to a simpler application, typically the invocation
    /// of one continuation on the computed result: `(+ 1 2 cₑ c꜀) → (c꜀ 3)`.
    Replaced(App),
}

/// Meta-evaluation hook: given an application whose functional position is
/// this primitive, attempt constant folding / branch elimination.
pub type FoldFn = fn(&App) -> FoldOutcome;

/// What the store tells the optimizer about its index structures — the
/// runtime binding that makes index-aware query rules possible (paper
/// §4.2). It is an *input* to optimization: absent at compile time, and
/// read-only.
pub trait IndexFacts {
    /// The index object over column `col` of relation `rel`, if any.
    fn index_on(&self, rel: Oid, col: usize) -> Option<Oid>;
}

/// Rewrite-rule hook: rewrite an application of this primitive in place
/// (fresh binders from the context, index facts `None` at compile time)
/// and return the rule's name, or leave it untouched and return `None`.
/// Every firing must remove one application of a rule-carrying primitive:
/// that is the optimizer's termination measure.
pub type RewriteFn = fn(&mut App, &mut Ctx, Option<&dyn IndexFacts>) -> Option<&'static str>;

/// Custom well-formedness validator for primitives with irregular argument
/// layouts (`==` case analysis, the `Y` fixpoint combinator).
pub type ValidateFn = fn(&App) -> Result<(), String>;

/// Cost estimator: the number of instructions needed to implement a given
/// call on an idealized abstract machine.
#[derive(Clone, Copy)]
pub enum PrimCost {
    /// A constant per-call cost.
    Const(u32),
    /// Cost depends on the call shape (e.g. `array` costs per element).
    Fn(fn(&App) -> u32),
}

impl fmt::Debug for PrimCost {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PrimCost::Const(c) => write!(f, "Const({c})"),
            PrimCost::Fn(_) => write!(f, "Fn(..)"),
        }
    }
}

/// The definition of one primitive procedure.
#[derive(Clone)]
pub struct PrimDef {
    /// The primitive's name as it appears in printed TML (`+`, `[]`,
    /// `ccall`, `select`, ...). Names are unique within a table and
    /// are the stable identity used by the PTML persistent encoding.
    pub name: String,
    /// Calling convention.
    pub signature: Signature,
    /// Optimizer attributes.
    pub attrs: PrimAttrs,
    /// Meta-evaluation (constant folding) hook, if any.
    pub fold: Option<FoldFn>,
    /// Algebraic rewrite rule, if any.
    pub rewrite: Option<RewriteFn>,
    /// Custom argument-layout validator, if the plain [`Signature`] check is
    /// insufficient.
    pub validate: Option<ValidateFn>,
    /// Abstract-machine cost of one call.
    pub cost: PrimCost,
    /// Inline lowering hook. `None` means the back end compiles
    /// applications to its generic `call-prim` instruction, resolved
    /// against the host-function table at run time under the standard
    /// `(vals… ce cc)` convention.
    pub codegen: Option<CodegenFn>,
}

impl PrimDef {
    /// Attach an inline lowering hook, builder-style.
    pub fn with_codegen(mut self, f: CodegenFn) -> PrimDef {
        self.codegen = Some(f);
        self
    }

    /// Estimate the cost of `app` (a call to this primitive).
    pub fn cost_of(&self, app: &App) -> u32 {
        match self.cost {
            PrimCost::Const(c) => c,
            PrimCost::Fn(f) => f(app),
        }
    }
}

impl fmt::Debug for PrimDef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PrimDef")
            .field("name", &self.name)
            .field("signature", &self.signature)
            .field("attrs", &self.attrs)
            .field("fold", &self.fold.is_some())
            .field("rewrite", &self.rewrite.is_some())
            .field("cost", &self.cost)
            .field("codegen", &self.codegen.is_some())
            .finish()
    }
}

/// Error of [`PrimTable::try_register`]: the name is already taken.
/// Primitive names are the stable persistent identity of operations, so
/// redefinition is never allowed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DuplicatePrim(pub String);

impl fmt::Display for DuplicatePrim {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "primitive {:?} registered twice", self.0)
    }
}

impl std::error::Error for DuplicatePrim {}

/// The extensible registry of primitive procedures.
///
/// "It is possible to add new primitive procedures in order to meet the
/// specific needs of more specialized source languages (e.g., supporting
/// multiple bulk data types)" — `tml-query` registers its `select`,
/// `project`, ... primitives into the same table through this interface.
#[derive(Debug, Clone, Default)]
pub struct PrimTable {
    defs: Vec<PrimDef>,
    by_name: HashMap<String, PrimId>,
}

impl PrimTable {
    /// Create an empty table.
    pub fn new() -> Self {
        PrimTable::default()
    }

    /// Number of registered primitives.
    pub fn len(&self) -> usize {
        self.defs.len()
    }

    /// `true` if no primitive is registered.
    pub fn is_empty(&self) -> bool {
        self.defs.is_empty()
    }

    /// Register a primitive. Returns its id.
    ///
    /// # Panics
    /// Panics if a primitive with the same name is already registered —
    /// primitive names are the stable persistent identity of operations and
    /// silently redefining one would corrupt PTML round-trips. Use
    /// [`PrimTable::try_register`] for a recoverable error instead.
    pub fn register(&mut self, def: PrimDef) -> PrimId {
        match self.try_register(def) {
            Ok(id) => id,
            Err(e) => panic!("primitive {:?} registered twice", e.0),
        }
    }

    /// Register a primitive, reporting a duplicate name as a typed error
    /// instead of panicking.
    pub fn try_register(&mut self, def: PrimDef) -> Result<PrimId, DuplicatePrim> {
        if self.by_name.contains_key(&def.name) {
            return Err(DuplicatePrim(def.name));
        }
        let id = PrimId(u32::try_from(self.defs.len()).expect("prim id space exhausted"));
        self.by_name.insert(def.name.clone(), id);
        self.defs.push(def);
        Ok(id)
    }

    /// `true` if any registered primitive carries a rewrite rule.
    pub fn has_rewrites(&self) -> bool {
        self.defs.iter().any(|d| d.rewrite.is_some())
    }

    /// Look up a primitive by name.
    pub fn lookup(&self, name: &str) -> Option<PrimId> {
        self.by_name.get(name).copied()
    }

    /// The definition of `id`.
    ///
    /// # Panics
    /// Panics if `id` was not created by this table.
    pub fn def(&self, id: PrimId) -> &PrimDef {
        &self.defs[id.index()]
    }

    /// The name of `id`.
    pub fn name(&self, id: PrimId) -> &str {
        &self.defs[id.index()].name
    }

    /// Iterate over all `(id, def)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (PrimId, &PrimDef)> {
        self.defs
            .iter()
            .enumerate()
            .map(|(i, d)| (PrimId(i as u32), d))
    }

    /// Validate an application of primitive `id`: checks the signature (or
    /// runs the custom validator). `conts` must be the number of trailing
    /// arguments that are continuations (as classified by the caller).
    pub fn check_app(&self, id: PrimId, app: &App, conts: usize) -> Result<(), String> {
        let def = self.def(id);
        if let Some(v) = def.validate {
            return v(app);
        }
        let vals = app.args.len().saturating_sub(conts);
        if !def.signature.vals.admits(vals) {
            return Err(format!(
                "primitive {} applied to {} value argument(s), signature requires {:?}",
                def.name, vals, def.signature.vals
            ));
        }
        if !def.signature.conts.admits(conts) {
            return Err(format!(
                "primitive {} applied to {} continuation(s), signature requires {:?}",
                def.name, conts, def.signature.conts
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::term::Value;

    fn dummy(name: &str, sig: Signature) -> PrimDef {
        PrimDef {
            name: name.to_string(),
            signature: sig,
            attrs: PrimAttrs::default(),
            fold: None,
            rewrite: None,
            validate: None,
            cost: PrimCost::Const(1),
            codegen: None,
        }
    }

    #[test]
    fn register_and_lookup() {
        let mut t = PrimTable::new();
        let id = t.register(dummy("+", Signature::exact(2, 2)));
        assert_eq!(t.lookup("+"), Some(id));
        assert_eq!(t.name(id), "+");
        assert!(t.lookup("-").is_none());
    }

    #[test]
    #[should_panic(expected = "registered twice")]
    fn duplicate_registration_panics() {
        let mut t = PrimTable::new();
        t.register(dummy("+", Signature::exact(2, 2)));
        t.register(dummy("+", Signature::exact(2, 2)));
    }

    #[test]
    fn duplicate_registration_is_a_typed_error() {
        let mut t = PrimTable::new();
        let id = t.try_register(dummy("+", Signature::exact(2, 2))).unwrap();
        let err = t
            .try_register(dummy("+", Signature::exact(0, 1)))
            .unwrap_err();
        assert_eq!(err, DuplicatePrim("+".to_string()));
        assert!(err.to_string().contains("registered twice"));
        // The failed registration must not disturb the table.
        assert_eq!(t.len(), 1);
        assert_eq!(t.lookup("+"), Some(id));
        assert_eq!(t.def(id).signature, Signature::exact(2, 2));
    }

    #[test]
    fn arity_admits() {
        assert!(Arity::Exact(2).admits(2));
        assert!(!Arity::Exact(2).admits(3));
        assert!(Arity::AtLeast(1).admits(5));
        assert!(!Arity::AtLeast(1).admits(0));
    }

    #[test]
    fn default_attrs_are_worst_case() {
        let a = PrimAttrs::default();
        assert_eq!(a.effects, EffectClass::Writes);
        assert!(!a.commutative);
    }

    #[test]
    fn check_app_signature() {
        let mut t = PrimTable::new();
        let id = t.register(dummy("+", Signature::exact(2, 2)));
        let ok = App::new(Value::Prim(id), vec![Value::int(1); 4]);
        assert!(t.check_app(id, &ok, 2).is_ok());
        let bad = App::new(Value::Prim(id), vec![Value::int(1); 3]);
        assert!(t.check_app(id, &bad, 2).is_err());
    }

    #[test]
    fn variadic_signature() {
        let mut t = PrimTable::new();
        let id = t.register(dummy("array", Signature::variadic(0, 1)));
        for n in 0..4 {
            let mut args = vec![Value::int(0); n];
            args.push(Value::int(9)); // stands in for the continuation
            let app = App::new(Value::Prim(id), args);
            assert!(t.check_app(id, &app, 1).is_ok(), "n={n}");
        }
    }

    #[test]
    fn cost_of_const_and_fn() {
        let mut d = dummy("x", Signature::exact(0, 1));
        let app = App::new(Value::Lit(crate::lit::Lit::Unit), vec![]);
        assert_eq!(d.cost_of(&app), 1);
        d.cost = PrimCost::Fn(|a| 10 + a.args.len() as u32);
        assert_eq!(d.cost_of(&app), 10);
    }
}
