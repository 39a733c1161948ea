//! # tml-query — integrated program and query optimization (paper §4.2)
//!
//! "Whenever the program optimizer encounters an embedded query construct
//! …, it invokes the query optimizer on the respective TML subtree … .
//! Similarly, the query optimizer invokes the program optimizer to analyze
//! and optimize nested programming language expressions which appear in
//! query constructs."
//!
//! Queries are ordinary TML terms over *query primitives* registered into
//! the same extensible primitive table as the figure-2 set ([`prims`]):
//! `select`, `project`, `join`, `exists`, `empty`, `and`, `or`, `not`,
//! `count`, `rinsert`, `idxselect`, `semijoin`. Their execution semantics are
//! extension primitives of the abstract machine ([`exec`]) which re-enter
//! the machine to evaluate predicate and target closures.
//!
//! The algebraic rules of §4.2 are TML tree rewrites, registered as the
//! rewrite hooks of the `select` and `exists` primitives ([`prims`]):
//!
//! * **merge-select** (on `select`) — σp(σq(R)) ≡ σ(p∧q)(R), when both
//!   selects hand exceptions to the same handler;
//! * **index-select** (on `select`, tried first) — a runtime rule
//!   replacing a column-equality selection over an indexed base relation
//!   with an index lookup (possible precisely because optimization is
//!   delayed until runtime, when the store's index facts are an input);
//! * **semi-join** (on `select`, tried second) — σ(∃y∈S: y.j = x.i)(R) ≡
//!   `semijoin(R, S, i, j)` when `|S|ₓ = 0` and the `exists` compares
//!   nothing else: the nested loop becomes one hash set of `S.j` probed
//!   per row of `R`, keeping the predicate for the cases where the loop
//!   would raise;
//! * **trivial-exists** (on `exists`) — ∃x∈R: p ≡ p ∧ R≠∅ when `|p|ₓ = 0`.
//!
//! Wherever the query prims are installed, `tml-opt`'s driver runs the
//! rules in its one loop (see its crate doc for the termination measure),
//! so inlining a view function exposes nested selections for merge-select,
//! and each rewrite's output is further reduced.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod builder;
pub mod data;
pub mod exec;
pub mod integrated;
pub mod prims;

pub use builder::{select_chain, Pred};
pub use prims::firings;

use tml_core::Ctx;
use tml_vm::Vm;

/// Install the query primitive definitions (optimizer side) and their
/// machine implementations (execution side).
pub fn install(ctx: &mut Ctx, vm: &mut Vm) {
    prims::install_prims(&mut ctx.prims);
    exec::install_externs(&mut vm.externs);
}

/// The `rel` standard-library module: relation bulk operations exposed to
/// TL programs (the embedded `select`/`exists` query syntax compiles to
/// the query primitives directly; everything else goes through here).
pub const REL_SRC: &str = r#"
module rel export count, empty, make, insert, index
let count(r: Rel): Int = prim "count"(r)
let empty(r: Rel): Bool = prim "empty"(r)
let make(ncols: Int): Rel = prim "mkrel"(ncols)
let insert(r: Rel, t: Tuple): Unit = prim "rinsert"(r, t)
let index(r: Rel, col: Int): Dyn = prim "mkindex"(r, col)
end
"#;

/// A session extension trait wiring the query subsystem into a
/// [`tml_lang::Session`].
pub trait QuerySession {
    /// Register query primitives and externs, and load the `rel` module.
    /// TL modules using the embedded `select … from … where` syntax (or
    /// the `rel` library) must be loaded *after* this call.
    fn enable_queries(&mut self) -> Result<(), tml_lang::LangError>;
}

impl QuerySession for tml_lang::Session {
    fn enable_queries(&mut self) -> Result<(), tml_lang::LangError> {
        install(&mut self.ctx, &mut self.vm);
        if !self.modules.iter().any(|m| m == "rel") {
            self.load_str(REL_SRC)?;
        }
        Ok(())
    }
}
