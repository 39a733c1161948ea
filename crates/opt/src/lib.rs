//! # tml-opt — analysis and rewriting of TML intermediate representations
//!
//! Implements §3 of the paper: the generic TML rewrite rules and the
//! two-pass optimizer built from them.
//!
//! * The **reduction pass** ([`reduce`]) applies the eight core rewrite
//!   rules — `subst`, `remove`, `reduce`, `η-reduce`, `fold`, `case-subst`,
//!   `Y-remove`, `Y-reduce` — until no more rules are applicable.
//!   Termination is guaranteed because each rule (except the idempotent
//!   `case-subst`) strictly reduces the size of the TML tree.
//! * The **expansion pass** ([`expand`]) substitutes bound λ-abstractions
//!   at the positions where they are applied — procedure inlining in
//!   compiler terms, view expansion in database terms — guided by a
//!   heuristic cost model similar to Appel's.
//! * The **rule pass** applies the rewrite rules that primitives carry in
//!   the prim table ([`tml_core::prim::RewriteFn`]) — the §4.2 query rules
//!   merge-select, trivial-exists, index-select and semi-join registered by
//!   `tml-query`. Index-aware rules read the store's index structures, an
//!   *input* to optimization ([`optimize_traced`]) absent at compile time.
//! * The **driver** ([`driver`]) is the one optimizer loop. Each round
//!   reduces to fixpoint, runs the rule pass (skipped entirely when no
//!   primitive carries a rule), then expands; to guarantee termination
//!   "even in obscure cases, a penalty is accumulated at each round of the
//!   reduction/expansion phases" and expansion stops when the penalty (or
//!   the round bound) reaches its limit. A round that fired a rule never
//!   ends the loop, so a rewrite's output is always reduced again.
//!
//! **Termination.** Every rule firing removes one application of a
//! rule-carrying primitive (`select`/`exists`: merge-select turns two
//! selects into one, index-select a select into `idxselect`, semi-join a
//! select into `semijoin`, trivial-exists drops the `exists`), no
//! reduction rule adds one, and
//! expansion — the only step that can copy one — is bounded by the
//! penalty and the round limit. Past that bound, every further round must
//! fire a rule, so the pair (query-operator count, tree size) decreases
//! lexicographically from round to round until the loop stops.
//!
//! Many well-known standard program optimizations — constant and copy
//! propagation, dead-code elimination, procedure inlining, loop unrolling —
//! are special cases of these general λ-calculus transformations.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod driver;
pub mod expand;
pub mod provenance;
pub mod reduce;
pub mod stats;

pub use driver::{optimize, optimize_abs, optimize_abs_traced, optimize_traced};
pub use provenance::{record, record_abs, replay, replay_abs, ReplayError};
pub use stats::{OptOptions, OptStats, RoundStats, RuleSet};
