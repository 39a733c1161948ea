//! # tml-reflect — reflective dynamic optimization (paper §4.1, figure 3)
//!
//! "Since the compiler (and, therefore, the optimizer) is an integral part
//! of the Tycoon persistent programming environment, it is not difficult to
//! call the Tycoon compiler at runtime. … At runtime, it is possible to map
//! PTML back into TML, re-invoke the optimizer and code-generator, link the
//! newly-generated code into the running program, and execute it."
//!
//! The "trick" to eliminate abstraction barriers is (1) to wait until link
//! or execution time, when all the bindings between the contributing parts
//! of a persistent application are established, and (2) to keep
//! sufficiently abstract code (PTML) and binding information (the R-value
//! bindings in every closure record) until that point.
//!
//! This crate implements both reflective entry points:
//!
//! * [`optimize_value`] — the paper's `reflect.optimize(abs)`: produce a
//!   *new*, faster procedure value equivalent to the original, with the
//!   bodies of its (transitively reachable) callees inlined across module
//!   boundaries;
//! * [`optimize_all`] — whole-world dynamic optimization: every loaded
//!   function is rebuilt against the current runtime bindings, and the
//!   global environment, module records and mutual references are relinked
//!   to the optimized closures. This is the configuration behind the
//!   paper's "more than doubles the execution speed" result (E2).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod tier;

use std::collections::{BTreeSet, HashMap, HashSet};
use std::panic::{catch_unwind, AssertUnwindSafe};
use tml_core::subst::subst_many;
use tml_core::term::{Abs, App, Value};
use tml_core::{Ctx, Oid, VarId};
use tml_lang::types::TypeEnv;
use tml_lang::{Session, SessionConfig};
use tml_opt::{optimize_abs_traced, OptOptions, OptStats};
use tml_store::cache::{binding_signature, hash_bytes, SigHasher};
use tml_store::ptml::{decode_abs, encode_abs};
use tml_store::{CacheEntry, CacheKey, ClosureObj, Object, SVal, Store, StoreAccess};
use tml_trace::Sink;
use tml_vm::{CodeTable, LinkedProduct, Vm};

/// What [`optimize_all`] does when optimizing a *single* target fails —
/// its PTML fails to decode, the optimizer panics, or the fuel budget runs
/// out.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OnError {
    /// Degraded mode (the default): log a structured
    /// [`tml_trace::Event::DegradedSkip`], keep the unoptimized closure,
    /// and commit the rest of the world exactly as if the failed target had
    /// not been selected. One bad function never blocks whole-world
    /// optimization.
    #[default]
    Skip,
    /// Propagate the first failure (panics resume unwinding). Single-value
    /// entry points ([`optimize_value`], [`optimize_named`]) always behave
    /// this way — the caller asked for that specific value.
    Abort,
}

/// Options for reflective optimization.
#[derive(Debug, Clone, Copy)]
pub struct ReflectOptions {
    /// How deep to resolve closure-valued bindings into inline TML (the
    /// transitive-reachability cutoff).
    pub inline_depth: u32,
    /// Options for the underlying two-pass optimizer. Rewrite rules that
    /// primitives carry (the §4.2 query rules) run inside it, against the
    /// store's index facts.
    pub opt: OptOptions,
    /// Consult (and populate) the store's persistent reflective-optimization
    /// cache: repeated optimizations of the same PTML against unchanged
    /// bindings link the memoized optimized PTML instead of re-running the
    /// rebuild and the optimizer. A session links each product once and
    /// gives every later hit a fresh copy of that entry block.
    pub use_cache: bool,
    /// Upper bound on optimizer work per target, measured in rewrite steps
    /// (rule firings, query rewrites included, + inlinings), checked when
    /// the optimizer stops. A target whose optimization ran past the
    /// budget is not committed: in degraded mode it is skipped (reason
    /// `fuel`), otherwise [`ReflectError::Fuel`] is returned. `None` (the
    /// default) means unlimited. The budget participates in the cache key:
    /// a product compiled under a large budget is never served to a run
    /// whose budget could not have produced it.
    pub fuel: Option<u64>,
    /// Per-target failure policy for [`optimize_all`]; see [`OnError`].
    pub on_error: OnError,
    /// Execution tier the product is compiled for (`0` = baseline,
    /// `1` = hot). The tier participates in the cache key: a tier-1
    /// product compiled under escalated budgets and observed-binding
    /// specialization is never served to a baseline request, and vice
    /// versa.
    pub tier: u8,
}

impl Default for ReflectOptions {
    fn default() -> Self {
        ReflectOptions {
            inline_depth: 3,
            opt: OptOptions::default(),
            use_cache: true,
            fuel: None,
            on_error: OnError::default(),
            tier: 0,
        }
    }
}

/// Errors during reflective optimization.
#[derive(Debug, Clone)]
pub enum ReflectError {
    /// The value is not a procedure closure.
    NotAClosure(String),
    /// The closure carries no PTML attachment.
    NoPtml(Oid),
    /// PTML decoding failed (corrupt store).
    BadPtml(String),
    /// A persisted term references a primitive by a name the loading
    /// registry does not provide (an extension package not installed in
    /// this session). Distinct from [`ReflectError::BadPtml`]: the blob is
    /// intact, the primitive world is just narrower than the writer's.
    UnknownPrim(String),
    /// Recompilation failed.
    Compile(String),
    /// A residual binding could not be re-resolved at link time.
    Unresolved(String),
    /// A store access failed.
    Store(String),
    /// The per-target fuel budget was exceeded before optimization
    /// converged (a diverging or runaway rewriter).
    Fuel {
        /// Rewrite steps spent when the budget check fired.
        spent: u64,
        /// The configured [`ReflectOptions::fuel`] budget.
        budget: u64,
    },
    /// Optimization of the target panicked (caught in degraded mode; the
    /// payload's display form is preserved).
    Panicked(String),
}

impl std::fmt::Display for ReflectError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReflectError::NotAClosure(k) => write!(f, "cannot optimize a {k} value"),
            ReflectError::NoPtml(o) => write!(f, "{o} has no PTML attachment"),
            ReflectError::BadPtml(m) => write!(f, "corrupt PTML: {m}"),
            ReflectError::UnknownPrim(n) => {
                write!(f, "primitive {n:?} is not in the loading registry")
            }
            ReflectError::Compile(m) => write!(f, "recompilation failed: {m}"),
            ReflectError::Unresolved(n) => write!(f, "unresolved residual binding {n}"),
            ReflectError::Store(m) => write!(f, "store error: {m}"),
            ReflectError::Fuel { spent, budget } => {
                write!(
                    f,
                    "optimization fuel exhausted: {spent} steps > budget {budget}"
                )
            }
            ReflectError::Panicked(m) => write!(f, "optimization panicked: {m}"),
        }
    }
}

impl std::error::Error for ReflectError {}

/// Report from [`optimize_all`].
#[derive(Debug, Clone, Default)]
pub struct OptimizeAllReport {
    /// Functions reoptimized.
    pub functions: usize,
    /// Total TML nodes before optimization.
    pub size_before: usize,
    /// Total TML nodes after optimization.
    pub size_after: usize,
    /// Total call sites inlined.
    pub inlined: u64,
    /// Total reduction-rule firings (summed over every per-function
    /// [`OptStats`]); cache hits restore sizes but not rule counts, so this
    /// only reflects functions actually re-optimized this run.
    pub reductions: u64,
    /// Targets skipped in degraded mode ([`OnError::Skip`]): their
    /// optimization panicked, exhausted its fuel budget, or their PTML was
    /// corrupt. The unoptimized closures remain live and unchanged.
    pub skipped: usize,
}

/// Reconstruct, from PTML and R-value bindings, the TML term of the paper's
/// §4.1 listing: the procedure body wrapped in λ-bindings for its free
/// variables. Closure-valued bindings are resolved to their own TML (up to
/// `depth`); data bindings become literals; bindings that cannot or should
/// not be inlined (recursion cycles, depth exhaustion, missing PTML) stay
/// *free* and are reported as residuals so the caller can relink them.
pub struct TermBuilder<'a> {
    ctx: &'a mut Ctx,
    store: &'a Store,
    /// Canonical variable for each residual free name.
    pub residuals: Vec<(String, VarId)>,
    /// The binding value observed for each residual name (absent when the
    /// source closure recorded no binding for it).
    pub residual_values: HashMap<String, SVal>,
    /// Every store object consulted while building the term: the source
    /// closures and PTML blobs (transitively) plus every `Ref` binding
    /// target. Mutation or collection of any of these invalidates a cached
    /// optimization product derived from this build.
    pub deps: BTreeSet<Oid>,
    residual_ix: HashMap<String, VarId>,
    visiting: HashSet<Oid>,
}

impl<'a> TermBuilder<'a> {
    /// Create a builder.
    pub fn new(ctx: &'a mut Ctx, store: &'a Store) -> Self {
        TermBuilder {
            ctx,
            store,
            residuals: Vec::new(),
            residual_values: HashMap::new(),
            deps: BTreeSet::new(),
            residual_ix: HashMap::new(),
            visiting: HashSet::new(),
        }
    }

    fn closure(&self, oid: Oid) -> Result<&'a ClosureObj, ReflectError> {
        match self.store.get(oid) {
            Ok(Object::Closure(c)) => Ok(c),
            Ok(other) => Err(ReflectError::NotAClosure(other.kind().to_string())),
            Err(e) => Err(ReflectError::Store(e.to_string())),
        }
    }

    fn has_inlinable_ptml(&self, oid: Oid) -> bool {
        matches!(
            self.store.get(oid),
            Ok(Object::Closure(c)) if c.ptml.is_some()
        )
    }

    fn keep_residual(&mut self, name: &str, var: VarId, renames: &mut Vec<(VarId, Value)>) {
        match self.residual_ix.get(name) {
            Some(&canonical) if canonical != var => {
                renames.push((var, Value::Var(canonical)));
            }
            Some(_) => {}
            None => {
                self.residual_ix.insert(name.to_string(), var);
                self.residuals.push((name.to_string(), var));
            }
        }
    }

    /// Build the bindings-wrapped TML term for the closure at `oid`.
    pub fn build(&mut self, oid: Oid, depth: u32) -> Result<Abs, ReflectError> {
        let clo = self.closure(oid)?;
        let ptml_oid = clo.ptml.ok_or(ReflectError::NoPtml(oid))?;
        self.deps.insert(oid);
        self.deps.insert(ptml_oid);
        let (mut abs, frees) =
            decode_abs(self.ctx, ptml_blob(self.store, ptml_oid)?).map_err(decode_err)?;
        let by_name: HashMap<&str, &SVal> =
            clo.bindings.iter().map(|(n, v)| (n.as_str(), v)).collect();

        self.visiting.insert(oid);
        let mut bind_vars: Vec<VarId> = Vec::new();
        let mut bind_vals: Vec<Value> = Vec::new();
        let mut renames: Vec<(VarId, Value)> = Vec::new();
        let mut result = Ok(());
        for (name, var) in &frees {
            let Some(sval) = by_name.get(name.as_str()) else {
                // No recorded binding (shouldn't happen for linker output);
                // keep it free.
                self.keep_residual(name, *var, &mut renames);
                continue;
            };
            if let SVal::Ref(target) = sval {
                // Even bindings that end up residual or literal were
                // consulted: cached products depend on them.
                self.deps.insert(*target);
            }
            match sval {
                SVal::Ref(target)
                    if depth > 0
                        && !self.visiting.contains(target)
                        && self.has_inlinable_ptml(*target) =>
                {
                    match self.build(*target, depth - 1) {
                        Ok(inner) => {
                            bind_vars.push(*var);
                            bind_vals.push(Value::from(inner));
                        }
                        Err(e) => {
                            result = Err(e);
                            break;
                        }
                    }
                }
                SVal::Ref(target) if self.is_closure(*target) => {
                    // Recursion cycle, depth exhaustion, or PTML-less code:
                    // keep the call through the binding, to be relinked.
                    self.residual_values
                        .entry(name.clone())
                        .or_insert_with(|| (*sval).clone());
                    self.keep_residual(name, *var, &mut renames);
                }
                other => {
                    // Plain data (module records, constants): re-establish
                    // the R-value binding as a literal, enabling constant
                    // folding — the paper's §4.1 listing.
                    bind_vars.push(*var);
                    bind_vals.push(Value::Lit(other.to_lit()));
                }
            }
        }
        self.visiting.remove(&oid);
        result?;

        if !renames.is_empty() {
            subst_many(&mut abs.body, &renames);
        }
        if bind_vars.is_empty() {
            return Ok(abs);
        }
        let body = App::new(Value::from(Abs::new(bind_vars, abs.body)), bind_vals);
        Ok(Abs::new(abs.params, body))
    }

    fn is_closure(&self, oid: Oid) -> bool {
        matches!(self.store.get(oid), Ok(Object::Closure(_)))
    }
}

/// Record a reflective-cache consultation on the global trace recorder:
/// one `reflect.cache.<outcome>` counter bump plus a
/// [`tml_trace::Event::ReflectConsult`] ring event. No-op while tracing is
/// off.
fn trace_consult(name: Option<&str>, oid: Oid, outcome: &'static str) {
    if !tml_trace::enabled() {
        return;
    }
    tml_trace::count(&format!("reflect.cache.{outcome}"), 1);
    tml_trace::record(tml_trace::Event::ReflectConsult {
        function: name.unwrap_or("<anonymous>").to_string(),
        oid: oid.0,
        outcome,
    });
}

/// One reoptimized function, before relinking.
struct Rebuilt {
    name: Option<String>,
    old_oid: Oid,
    block: u32,
    /// Residual captures: name plus the binding value observed in the
    /// source closure (the fallback if no better resolution exists).
    captures: Vec<(String, Option<SVal>)>,
    ptml: Oid,
    stats: OptStats,
    /// Store versions of every object consulted by the build, ascending
    /// OID order — the tier promoter records these as the specialization
    /// assumptions behind a hot-swap (any change triggers deopt).
    observed: Vec<(Oid, u64)>,
}

/// Fold the optimization configuration into the cache signature: the same
/// PTML/bindings pair optimized under different options — or with and
/// without rule-carrying primitives — is a different product.
fn options_fingerprint(options: &ReflectOptions, has_rules: bool) -> u64 {
    let o = &options.opt;
    let r = &o.rules;
    let rule_bits = [
        r.subst,
        r.remove,
        r.reduce,
        r.eta_reduce,
        r.fold,
        r.case_subst,
        r.y_remove,
        r.y_reduce,
        r.expand,
    ]
    .iter()
    .fold(0u64, |acc, &b| (acc << 1) | u64::from(b));
    let mut h = SigHasher::new();
    h.write_u64(u64::from(options.inline_depth))
        .write_u64(u64::from(o.inline_limit))
        .write_u64(o.penalty_limit)
        .write_u64(u64::from(o.max_rounds))
        .write_u64(rule_bits)
        .write_u64(u64::from(has_rules))
        .write_u64(u64::from(options.fuel.is_some()))
        .write_u64(options.fuel.unwrap_or(0))
        .write_u64(u64::from(options.tier));
    h.finish()
}

/// Map a per-target failure to the closed `DegradedSkip` reason vocabulary.
fn skip_reason(err: &ReflectError) -> &'static str {
    match err {
        ReflectError::Panicked(_) => "panic",
        ReflectError::Fuel { .. } => "fuel",
        ReflectError::UnknownPrim(_) => "unknown-prim",
        _ => "decode",
    }
}

/// Classify a PTML decode failure, keeping the unknown-primitive case
/// typed (it must survive to the degraded-skip classification instead of
/// dissolving into a `BadPtml` string).
fn decode_err(e: tml_store::varint::DecodeError) -> ReflectError {
    match e {
        tml_store::varint::DecodeError::UnknownPrim(name) => ReflectError::UnknownPrim(name),
        other => ReflectError::BadPtml(other.to_string()),
    }
}

/// The PTML blob stored at `oid`.
fn ptml_blob(store: &Store, oid: Oid) -> Result<&[u8], ReflectError> {
    match store.get(oid) {
        Ok(Object::Ptml(b)) => Ok(b),
        Ok(other) => Err(ReflectError::BadPtml(format!("{} object", other.kind()))),
        Err(e) => Err(ReflectError::Store(e.to_string())),
    }
}

/// Code linked from PTML by [`link_ptml`].
#[derive(Debug)]
pub struct Linked<T> {
    /// The compiled entry block in the session's code table.
    pub block: u32,
    /// One resolved capture per environment slot, in slot order, under
    /// its free-variable name. With `T = SVal` these are the closure's
    /// R-value bindings, and their values are its environment.
    pub captures: Vec<(String, T)>,
}

impl Linked<SVal> {
    /// The closure environment: the capture values in slot order.
    pub fn env(&self) -> impl Iterator<Item = &SVal> {
        self.captures.iter().map(|(_, v)| v)
    }
}

/// The one PTML linker: decode `bytes`, compile the procedure into the
/// session's code table, and resolve each capture by its free-variable
/// name through `resolve` (which also sees the session's globals). PTML is
/// the only persistent form of code (paper §2.2), so every persisted
/// procedure reaches the machine this way: image relink, optimization
/// products, cache hits, tier deopt and shipped code.
pub fn link_ptml<S: StoreAccess, T>(
    session: &mut Session<S>,
    bytes: &[u8],
    mut resolve: impl FnMut(&str, &HashMap<String, SVal>) -> Result<T, ReflectError>,
) -> Result<Linked<T>, ReflectError> {
    let (abs, frees) = decode_abs(&mut session.ctx, bytes).map_err(decode_err)?;
    let compiled = session
        .vm
        .compile_proc(&session.ctx, &abs)
        .map_err(|e| ReflectError::Compile(e.to_string()))?;
    let names: HashMap<VarId, String> = frees.into_iter().map(|(n, v)| (v, n)).collect();
    let captures = compiled
        .captures
        .iter()
        .map(|v| {
            let name = names.get(v).ok_or_else(|| {
                ReflectError::Compile(format!(
                    "capture {} is not a recorded binding",
                    session.ctx.names.display(*v)
                ))
            })?;
            Ok((name.clone(), resolve(name, &session.globals)?))
        })
        .collect::<Result<_, ReflectError>>()?;
    Ok(Linked {
        block: compiled.block,
        captures,
    })
}

/// The capture resolver for persisted closures: a capture keeps its
/// recorded binding, or else takes the current global of its name.
pub fn recorded_or_global(
    recorded: &[(String, SVal)],
) -> impl FnMut(&str, &HashMap<String, SVal>) -> Result<SVal, ReflectError> + '_ {
    move |name, globals| {
        recorded
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v)
            .or_else(|| globals.get(name))
            .cloned()
            .ok_or_else(|| ReflectError::Unresolved(name.to_string()))
    }
}

/// Render a caught panic payload for the trace log.
fn panic_detail(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// Record one degraded-mode skip: a `reflect.degraded` counter bump plus a
/// structured [`tml_trace::Event::DegradedSkip`] carrying the failure
/// classification and (truncated) detail.
fn record_skip(name: Option<&str>, oid: Oid, err: &ReflectError) {
    if !tml_trace::enabled() {
        return;
    }
    let mut detail = err.to_string();
    if detail.len() > 200 {
        let mut cut = 200;
        while !detail.is_char_boundary(cut) {
            cut -= 1;
        }
        detail.truncate(cut);
    }
    tml_trace::count("reflect.degraded", 1);
    tml_trace::record(tml_trace::Event::DegradedSkip {
        function: name.unwrap_or("<anonymous>").to_string(),
        oid: oid.0,
        reason: skip_reason(err),
        detail,
    });
}

/// What every cache key of one reflective call shares beyond the term and
/// its bindings, computed once per call: the options fingerprint and, when
/// primitives carry rewrite rules (index-select reads the store's indexes),
/// a fingerprint of every index (creating or dropping one changes the key)
/// whose OIDs become dependencies of every product (mutating one voids it).
struct KeyInputs {
    sig: u64,
    index_deps: BTreeSet<Oid>,
}

impl KeyInputs {
    fn of(ctx: &Ctx, store: &Store, options: &ReflectOptions) -> KeyInputs {
        let has_rules = ctx.prims.has_rewrites();
        let mut sig = options_fingerprint(options, has_rules);
        let mut index_deps = BTreeSet::new();
        if has_rules {
            if tml_trace::enabled() {
                tml_trace::count("reflect.index_fingerprint", 1);
            }
            let mut h = SigHasher::new();
            for (oid, obj) in store.iter() {
                if let Object::Index(ix) = obj {
                    index_deps.insert(oid);
                    h.write_u64(oid.0)
                        .write_u64(ix.relation.0)
                        .write_u64(ix.column as u64);
                }
            }
            sig ^= h.finish();
        }
        KeyInputs { sig, index_deps }
    }
}

/// Derive the cache key for one rebuild target. Read-only on the store;
/// the returned dependency set holds the index OIDs folded into the key.
///
/// Key derivation (DESIGN.md §4): content hash of the source PTML blob,
/// plus a signature of the R-value bindings and the call's
/// [`KeyInputs`]. Validity of a hit is checked separately against the
/// observed store versions recorded in the entry. The hash is taken over
/// the *stored* blob, so keying never re-encodes the term.
fn derive_key(
    store: &Store,
    oid: Oid,
    inputs: &KeyInputs,
) -> Result<(CacheKey, BTreeSet<Oid>), ReflectError> {
    let clo = match store.get(oid) {
        Ok(Object::Closure(c)) => c,
        Ok(other) => return Err(ReflectError::NotAClosure(other.kind().to_string())),
        Err(e) => return Err(ReflectError::Store(e.to_string())),
    };
    let bytes = ptml_blob(store, clo.ptml.ok_or(ReflectError::NoPtml(oid))?)?;
    Ok((
        CacheKey {
            ptml_hash: hash_bytes(bytes),
            binding_sig: binding_signature(&clo.bindings) ^ inputs.sig,
        },
        inputs.index_deps.clone(),
    ))
}

/// Remember a cache product linked into the session's code table, so
/// that later hits copy its entry block instead of linking again.
fn memoize<T>(vm: &mut Vm, key: CacheKey, ptml: &[u8], linked: &Linked<T>) {
    let product = LinkedProduct {
        ptml_hash: hash_bytes(ptml),
        block: linked.block,
        captures: linked.captures.iter().map(|(n, _)| n.clone()).collect(),
    };
    vm.linked.insert(key, product);
}

/// Try to satisfy a rebuild from the persistent cache: no term rebuild,
/// no optimizer. A product this session already linked serves the hit
/// with a fresh copy of its entry block (own call counter and tier tag);
/// otherwise — the first hit after a reopen, or an entry replaced since —
/// its PTML goes through [`link_ptml`]. An entry that does not link
/// (corrupt image) returns `None` so the caller recomputes; the
/// subsequent insert overwrites the entry.
fn try_cached<S: StoreAccess>(
    session: &mut Session<S>,
    oid: Oid,
    name: &Option<String>,
    key: CacheKey,
) -> Option<Rebuilt> {
    let entry = session.store.cache_lookup(key)?;
    let fallback = |n: &str, _: &HashMap<String, SVal>| {
        let found = entry.captures.iter().find(|(c, _)| c == n);
        found
            .map(|(_, v)| v.clone())
            .ok_or_else(|| ReflectError::Unresolved(n.to_string()))
    };
    let linked = match session.vm.linked.get(&key) {
        Some(p) if p.ptml_hash == hash_bytes(&entry.ptml) => {
            let captures = p
                .captures
                .iter()
                .map(|n| Ok((n.clone(), fallback(n, &session.globals)?)));
            let captures = captures.collect::<Result<_, ReflectError>>().ok()?;
            let block = session.vm.code.duplicate(p.block);
            Linked { block, captures }
        }
        _ => {
            let linked = link_ptml(session, &entry.ptml, fallback).ok()?;
            memoize(&mut session.vm, key, &entry.ptml, &linked);
            linked
        }
    };
    trace_consult(name.as_deref(), oid, "hit");
    let ptml = session.store.alloc(Object::Ptml(entry.ptml)).ok()?;
    let stats = OptStats {
        size_before: entry.size_before as usize,
        size_after: entry.size_after as usize,
        inlined: entry.inlined,
        ..OptStats::default()
    };
    Some(Rebuilt {
        name: name.clone(),
        old_oid: oid,
        block: linked.block,
        captures: linked.captures,
        ptml,
        stats,
        observed: entry.observed,
    })
}

/// Rebuild one target: serve it from the cache, or build its
/// bindings-wrapped term, optimize it, encode the product and link it.
fn rebuild<S: StoreAccess>(
    session: &mut Session<S>,
    oid: Oid,
    name: Option<String>,
    options: &ReflectOptions,
    inputs: &KeyInputs,
) -> Result<Rebuilt, ReflectError> {
    let (key, mut deps) = derive_key(session.store.base(), oid, inputs)?;
    if options.use_cache {
        if let Some(hit) = try_cached(session, oid, &name, key) {
            return Ok(hit);
        }
    }
    trace_consult(
        name.as_deref(),
        oid,
        if options.use_cache { "miss" } else { "bypass" },
    );
    // Everything below is the cache-miss cost: re-derive, re-optimize and
    // re-link the procedure. Its histogram is the price of invalidation.
    let _s = tml_trace::span!("reflect.cache.miss_fill");
    // Deterministic fault injection for the degraded-mode tests: arming
    // `reflect.prepare` keyed by a target's OID makes exactly that target
    // fail (or panic, under `Action::Panic`).
    if tml_store::failpoint::armed()
        && tml_store::failpoint::check("reflect.prepare", oid.0).is_some()
    {
        return Err(ReflectError::BadPtml(format!(
            "failpoint reflect.prepare: injected failure for {oid}"
        )));
    }
    let (abs, residuals, residual_values) = {
        let mut tb = TermBuilder::new(&mut session.ctx, session.store.base());
        let abs = tb.build(oid, options.inline_depth)?;
        deps.extend(tb.deps);
        (abs, tb.residuals, tb.residual_values)
    };
    // The optimizer runs against the store's index facts; the fuel budget
    // is checked once it stops.
    let (optimized, stats) = optimize_abs_traced(
        &mut session.ctx,
        abs,
        &options.opt,
        Some(session.store.base()),
        &mut Sink::global(),
    );
    let budget = options.fuel.unwrap_or(u64::MAX);
    let spent = stats.total_reductions() + stats.inlined;
    if spent > budget {
        return Err(ReflectError::Fuel { spent, budget });
    }
    let bytes = encode_abs(&session.ctx, &optimized);
    let ptml = session
        .store
        .alloc(Object::Ptml(bytes.clone()))
        .map_err(|e| ReflectError::Store(e.to_string()))?;
    let linked = link_ptml(session, &bytes, |n, _| {
        if !residuals.iter().any(|(r, _)| r == n) {
            return Err(ReflectError::Compile(format!(
                "capture {n} is not a residual binding"
            )));
        }
        Ok(residual_values.get(n).cloned())
    })?;
    // The observed versions are read *after* the build so any concurrent
    // mutation would already be reflected.
    let observed: Vec<(Oid, u64)> = deps
        .iter()
        .map(|&d| (d, session.store.version(d)))
        .collect();
    if options.use_cache {
        memoize(&mut session.vm, key, &bytes, &linked);
        let entry = CacheEntry::new(observed.clone(), bytes, linked.captures.clone()).with_attrs(
            stats.size_before as u64,
            stats.size_after as u64,
            stats.inlined,
        );
        session.store.cache_insert(key, entry);
    }
    Ok(Rebuilt {
        name,
        old_oid: oid,
        block: linked.block,
        captures: linked.captures,
        ptml,
        stats,
        observed,
    })
}

/// One [`optimize_all`] target under the failure policy: `Ok(Some)` on
/// success, `Ok(None)` when the target was skipped in degraded mode (the
/// skip has been recorded), `Err` only under [`OnError::Abort`]. Panics
/// during the rebuild are caught and classified in degraded mode; with
/// `Abort` they unwind as before.
fn rebuild_or_skip<S: StoreAccess>(
    session: &mut Session<S>,
    oid: Oid,
    name: Option<String>,
    options: &ReflectOptions,
    inputs: &KeyInputs,
) -> Result<Option<Rebuilt>, ReflectError> {
    if options.on_error == OnError::Abort {
        return rebuild(session, oid, name, options, inputs).map(Some);
    }
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        rebuild(session, oid, name.clone(), options, inputs)
    }))
    .unwrap_or_else(|payload| Err(ReflectError::Panicked(panic_detail(payload))));
    match outcome {
        Ok(r) => Ok(Some(r)),
        Err(e) => {
            record_skip(name.as_deref(), oid, &e);
            Ok(None)
        }
    }
}

/// Store a rebuilt procedure as a new closure, resolving its residual
/// captures through `resolve`, and link it into `code`.
fn finish_closure<S: StoreAccess>(
    store: &mut S,
    code: &CodeTable,
    rebuilt: &Rebuilt,
    resolve: impl Fn(&str, Option<&SVal>) -> Option<SVal>,
) -> Result<Oid, ReflectError> {
    let store_err = |e: tml_store::StoreError| ReflectError::Store(e.to_string());
    let mut bindings = Vec::with_capacity(rebuilt.captures.len());
    for (name, fallback) in &rebuilt.captures {
        let val = resolve(name, fallback.as_ref())
            .ok_or_else(|| ReflectError::Unresolved(name.clone()))?;
        bindings.push((name.clone(), val));
    }
    let oid = store
        .alloc(Object::Closure(ClosureObj {
            bindings: bindings.clone(),
            ptml: Some(rebuilt.ptml),
        }))
        .map_err(store_err)?;
    // Derived attributes become part of the persistent system state
    // ("costs, savings, ..." — paper §4.1).
    store.set_attr(oid, "optimized", 1).map_err(store_err)?;
    store
        .set_attr(oid, "size_before", rebuilt.stats.size_before as i64)
        .map_err(store_err)?;
    store
        .set_attr(oid, "size_after", rebuilt.stats.size_after as i64)
        .map_err(store_err)?;
    store
        .set_attr(oid, "inlined", rebuilt.stats.inlined as i64)
        .map_err(store_err)?;
    code.link(oid, rebuilt.block, bindings.iter().map(|(_, v)| v));
    Ok(oid)
}

/// The paper's `reflect.optimize`: produce a new procedure value
/// equivalent to `value` but optimized against the current runtime
/// bindings. The original is left untouched.
pub fn optimize_value<S: StoreAccess>(
    session: &mut Session<S>,
    value: &SVal,
    options: &ReflectOptions,
) -> Result<SVal, ReflectError> {
    let SVal::Ref(oid) = value else {
        return Err(ReflectError::NotAClosure(value.kind().to_string()));
    };
    let inputs = KeyInputs::of(&session.ctx, session.store.base(), options);
    let rebuilt = rebuild(session, *oid, None, options, &inputs)?;
    let globals = std::mem::take(&mut session.globals);
    let out = finish_closure(
        &mut session.store,
        &session.vm.code,
        &rebuilt,
        |name, fallback| globals.get(name).cloned().or_else(|| fallback.cloned()),
    );
    session.globals = globals;
    Ok(SVal::Ref(out?))
}

/// Optimize a function known under a qualified global name; returns the
/// new value without replacing the global binding.
pub fn optimize_named<S: StoreAccess>(
    session: &mut Session<S>,
    name: &str,
    options: &ReflectOptions,
) -> Result<SVal, ReflectError> {
    let val = session
        .globals
        .get(name)
        .cloned()
        .ok_or_else(|| ReflectError::Unresolved(name.to_string()))?;
    optimize_value(session, &val, options)
}

/// Whole-world dynamic optimization: rebuild every globally bound function
/// against the current bindings and relink the global environment, module
/// records and the optimized functions' mutual references to the new
/// closures.
pub fn optimize_all<S: StoreAccess>(
    session: &mut Session<S>,
    options: &ReflectOptions,
) -> Result<OptimizeAllReport, ReflectError> {
    let _s = tml_trace::span!("opt.optimize_all");
    // Collect every optimizable closure in the store (linker-produced code
    // carries PTML; transient runtime closures do not). Already-optimized
    // results of earlier runs are skipped.
    let mut global_names: HashMap<Oid, String> = HashMap::new();
    for (name, val) in &session.globals {
        if let SVal::Ref(oid) = val {
            global_names.entry(*oid).or_insert_with(|| name.clone());
        }
    }
    let mut targets: Vec<Oid> = session
        .store
        .base()
        .iter()
        .filter_map(|(oid, obj)| match obj {
            Object::Closure(c)
                if c.ptml.is_some() && session.store.attr(oid, "optimized") != Some(1) =>
            {
                Some(oid)
            }
            _ => None,
        })
        .collect();
    // Store iteration order is already ascending, but the committed image
    // (OID allocation, cache order) should not depend on that detail.
    targets.sort_unstable_by_key(|o| o.0);

    let inputs = KeyInputs::of(&session.ctx, session.store.base(), options);
    let mut rebuilt = Vec::with_capacity(targets.len());
    let mut skipped = 0usize;
    for &oid in &targets {
        let name = global_names.get(&oid).cloned();
        match rebuild_or_skip(session, oid, name, options, &inputs)? {
            Some(r) => rebuilt.push(r),
            None => skipped += 1,
        }
    }
    let mut report = OptimizeAllReport {
        skipped,
        ..OptimizeAllReport::default()
    };
    for r in &rebuilt {
        report.functions += 1;
        report.size_before += r.stats.size_before;
        report.size_after += r.stats.size_after;
        report.inlined += r.stats.inlined;
        report.reductions += r.stats.total_reductions();
    }

    // Phase 1: allocate the optimized closures with empty bindings so
    // mutual references can point at the *optimized* versions.
    let store_err = |e: tml_store::StoreError| ReflectError::Store(e.to_string());
    let mut optimized_by_oid: HashMap<Oid, Oid> = HashMap::new();
    let mut oids = Vec::with_capacity(rebuilt.len());
    for r in &rebuilt {
        let oid = session
            .store
            .alloc(Object::Closure(ClosureObj {
                bindings: Vec::new(),
                ptml: Some(r.ptml),
            }))
            .map_err(store_err)?;
        optimized_by_oid.insert(r.old_oid, oid);
        oids.push(oid);
    }
    // Phase 2: resolve residual bindings: a binding pointing at a closure
    // we also optimized is relinked to the optimized version; otherwise the
    // originally observed value is kept. Each closure is linked to its
    // block once its bindings are recorded.
    let relink = |val: &SVal| -> SVal {
        match val {
            SVal::Ref(o) => match optimized_by_oid.get(o) {
                Some(n) => SVal::Ref(*n),
                None => val.clone(),
            },
            other => other.clone(),
        }
    };
    for (r, &oid) in rebuilt.iter().zip(&oids) {
        let mut bindings = Vec::with_capacity(r.captures.len());
        for (name, fallback) in &r.captures {
            let val = match fallback {
                Some(v) => relink(v),
                None => session
                    .globals
                    .get(name)
                    .map(relink)
                    .ok_or_else(|| ReflectError::Unresolved(name.clone()))?,
            };
            bindings.push((name.clone(), val));
        }
        session
            .store
            .mutate(oid, &mut |obj| {
                match obj {
                    Object::Closure(c) => c.bindings = bindings.clone(),
                    _ => unreachable!("just allocated"),
                }
                Ok(())
            })
            .map_err(store_err)?;
        session
            .vm
            .code
            .link(oid, r.block, bindings.iter().map(|(_, v)| v));
        session
            .store
            .set_attr(oid, "optimized", 1)
            .map_err(store_err)?;
        session
            .store
            .set_attr(oid, "size_before", r.stats.size_before as i64)
            .map_err(store_err)?;
        session
            .store
            .set_attr(oid, "size_after", r.stats.size_after as i64)
            .map_err(store_err)?;
    }

    // Relink the global environment and module export records.
    let mut relinked: u64 = 0;
    for (r, &oid) in rebuilt.iter().zip(&oids) {
        let Some(name) = r.name.as_deref() else {
            continue;
        };
        session.globals.insert(name.to_string(), SVal::Ref(oid));
        relinked += 1;
        if let Some((module, export)) = name.split_once('.') {
            if let Some(mod_oid) = session.store.root(module) {
                let mut patched = false;
                session
                    .store
                    .mutate(mod_oid, &mut |obj| {
                        if let Object::Module(m) = obj {
                            if let Some(slot) = m.exports.get_mut(export) {
                                *slot = SVal::Ref(oid);
                                patched = true;
                            }
                        }
                        Ok(())
                    })
                    .map_err(store_err)?;
                if patched {
                    relinked += 1;
                }
            }
        }
    }
    if tml_trace::enabled() {
        tml_trace::count("reflect.relinked", relinked);
        tml_trace::record(tml_trace::Event::Relink {
            rebuilt: report.functions as u64,
            relinked,
        });
    }
    Ok(report)
}

/// Reconstruct a runnable [`Session`] around a store loaded from an
/// image. Images persist objects, roots and R-value bindings but no
/// executable code — the persistent representation of
/// code is PTML (paper §2.2) — so after construction every PTML-carrying
/// closure must be recompiled and linked with [`relink_image_code`].
/// Callers needing extension primitives (e.g. the query externs) should
/// install them into the returned session *before* relinking, so decoding
/// resolves them.
pub fn session_from_store(store: Store, config: SessionConfig) -> Session {
    session_from_store_with(store, config, tml_core::Registry::standard())
}

/// [`session_from_store`] over an explicit primitive [`tml_core::Registry`]
/// — the image loads against exactly the primitives the registry provides.
/// PTML terms referencing a primitive outside it degrade to typed skips
/// during [`relink_image_code`] instead of failing the load.
pub fn session_from_store_with(
    store: Store,
    config: SessionConfig,
    registry: tml_core::Registry,
) -> Session {
    session_from_access_with(store, config, registry)
}

/// [`session_from_store_with`] over any store backend behind the access
/// seam — pass a [`tml_store::DurableStore`] to reconstruct a durable
/// session from an opened (and possibly crash-recovered) image. Only the
/// read surface is touched here, and by the follow-up
/// [`relink_image_code`], which links the regenerated code into the
/// session's code table.
pub fn session_from_access_with<S: StoreAccess>(
    store: S,
    config: SessionConfig,
    registry: tml_core::Registry,
) -> Session<S> {
    let mut globals: HashMap<String, SVal> = HashMap::new();
    let mut modules: Vec<String> = Vec::new();
    for (name, oid) in store.base().roots() {
        if let Ok(Object::Module(m)) = store.base().get(oid) {
            globals.insert(name.to_string(), SVal::Ref(oid));
            for (export, val) in &m.exports {
                globals.insert(format!("{name}.{export}"), val.clone());
            }
            modules.push(name.to_string());
        }
    }
    Session {
        ctx: Ctx::from_registry(registry),
        vm: Vm::new(),
        store,
        types: TypeEnv::new(),
        globals,
        config,
        modules,
    }
}

/// Report from [`relink_image_code`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RelinkReport {
    /// Closures whose code was regenerated from PTML.
    pub relinked: usize,
    /// Closures left without executable code because their PTML blob was
    /// missing or corrupt (or a persisted binding could not be resolved).
    /// Each is marked with the persistent attribute `degraded = 1` and
    /// reported via [`tml_trace::Event::DegradedSkip`]; calling such a
    /// closure traps, but the rest of the image loads and runs.
    pub skipped: usize,
}

/// Recompile every PTML-carrying closure in the session's store against
/// the session's (fresh) code table and link it there, with the
/// environment derived from its persisted R-value bindings. OIDs are
/// stable across images, so binding values — including mutual
/// references between closures — remain valid as-is; only the links are
/// regenerated, and the store is not written.
///
/// A closure whose PTML is unreadable — the blob object is gone, or its
/// bytes fail to decode — is *skipped*, not fatal: it stays unlinked,
/// gets the `degraded = 1` attribute, and is counted in
/// [`RelinkReport::skipped`]. Image boot is thereby total on any store
/// that decodes. A closure persisted without PTML (a run-time closure
/// stored by `RVal::persist`) stays unlinked too, and is counted by the
/// `reflect.relink.no_ptml` trace counter. Calling either is a typed
/// trap.
pub fn relink_image_code<S: StoreAccess>(
    session: &mut Session<S>,
) -> Result<RelinkReport, ReflectError> {
    let _s = tml_trace::span!("reflect.relink");
    let targets: Vec<_> = session
        .store
        .base()
        .iter()
        .filter_map(|(oid, obj)| match obj {
            Object::Closure(c) => Some((oid, c.ptml, c.bindings.clone())),
            _ => None,
        })
        .collect();
    let mut names: HashMap<Oid, String> = HashMap::new();
    for (name, val) in &session.globals {
        if let SVal::Ref(o) = val {
            names.entry(*o).or_insert_with(|| name.clone());
        }
    }
    let mut report = RelinkReport::default();
    for (oid, ptml_oid, recorded) in targets {
        let Some(ptml_oid) = ptml_oid else {
            // Persisted from a run-time closure: no PTML to relink from.
            tml_trace::count("reflect.relink.no_ptml", 1);
            continue;
        };
        let bytes = ptml_blob(session.store.base(), ptml_oid).map(<[u8]>::to_vec);
        let linked = bytes.and_then(|b| link_ptml(session, &b, recorded_or_global(&recorded)));
        let linked = match linked {
            Ok(l) => l,
            Err(err) => {
                if matches!(err, ReflectError::UnknownPrim(_)) {
                    tml_trace::count("reflect.relink.unknown_prim", 1);
                }
                record_skip(names.get(&oid).map(String::as_str), oid, &err);
                let _ = session.store.set_attr(oid, "degraded", 1);
                report.skipped += 1;
                continue;
            }
        };
        session.vm.code.link(oid, linked.block, linked.env());
        // Code links are transient, but hotness is not: re-seed the
        // fresh block's invocation counter and tier tag from the
        // persisted `tier.calls` / `tier` attributes (written by
        // `tier::persist_counters` and the hot-swap path), so a restart
        // neither forgets which closures are hot nor resets the climb
        // toward the promotion threshold.
        if let Some(calls) = session.store.attr(oid, "tier.calls") {
            if calls > 0 {
                session.vm.code.seed_calls(linked.block, calls as u64);
            }
        }
        if session.store.attr(oid, "tier") == Some(i64::from(tml_vm::TIER_HOT)) {
            session.vm.code.set_tier(linked.block, tml_vm::TIER_HOT);
        }
        report.relinked += 1;
    }
    if tml_trace::enabled() {
        tml_trace::count("reflect.relinked", report.relinked as u64);
        tml_trace::record(tml_trace::Event::Relink {
            rebuilt: 0,
            relinked: report.relinked as u64,
        });
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tml_vm::RVal;

    fn session() -> Session {
        Session::new(SessionConfig::default()).unwrap()
    }

    /// The paper's §4.1 complex/abs example.
    const COMPLEX_SRC: &str = "
module complex export new, x, y
let new(a: Real, b: Real): Tuple = tuple(a, b)
let x(c: Tuple): Real = c.0
let y(c: Tuple): Real = c.1
end
module geom export abs
let abs(c: Tuple): Real =
  real.sqrt(complex.x(c) * complex.x(c) + complex.y(c) * complex.y(c))
end";

    #[test]
    fn optimized_abs_is_equivalent_and_faster() {
        let mut s = session();
        s.load_str(COMPLEX_SRC).unwrap();
        let c = s
            .call("complex.new", vec![RVal::Real(3.0), RVal::Real(4.0)])
            .unwrap()
            .result;

        let plain = s.call("geom.abs", vec![c.clone()]).unwrap();
        assert_eq!(plain.result, RVal::Real(5.0));

        let optimized = optimize_named(&mut s, "geom.abs", &ReflectOptions::default()).unwrap();
        let fast = s.call_value(RVal::from_sval(&optimized), vec![c]).unwrap();
        assert_eq!(fast.result, RVal::Real(5.0));
        assert!(
            fast.stats.instrs < plain.stats.instrs,
            "optimized {} vs plain {} instructions",
            fast.stats.instrs,
            plain.stats.instrs
        );
        // The accessor calls must be gone: at most the sqrt library call
        // remains (depth-limited residuals).
        assert!(
            fast.stats.calls < plain.stats.calls,
            "optimized {} vs plain {} calls",
            fast.stats.calls,
            plain.stats.calls
        );
    }

    #[test]
    fn original_function_is_untouched() {
        let mut s = session();
        s.load_str(COMPLEX_SRC).unwrap();
        let before = s.globals.get("geom.abs").cloned().unwrap();
        let _ = optimize_named(&mut s, "geom.abs", &ReflectOptions::default()).unwrap();
        assert_eq!(s.globals.get("geom.abs"), Some(&before));
    }

    #[test]
    fn derived_attributes_attached() {
        let mut s = session();
        s.load_str(COMPLEX_SRC).unwrap();
        let v = optimize_named(&mut s, "geom.abs", &ReflectOptions::default()).unwrap();
        let SVal::Ref(oid) = v else { panic!() };
        assert_eq!(s.store.attr(oid, "optimized"), Some(1));
        let before = s.store.attr(oid, "size_before").unwrap();
        let after = s.store.attr(oid, "size_after").unwrap();
        assert!(after <= before, "{after} vs {before}");
    }

    #[test]
    fn optimizing_non_closures_fails() {
        let mut s = session();
        let err = optimize_value(&mut s, &SVal::Int(3), &ReflectOptions::default());
        assert!(matches!(err, Err(ReflectError::NotAClosure(_))));
        let module_oid = s.store.root("int").unwrap();
        let err = optimize_value(&mut s, &SVal::Ref(module_oid), &ReflectOptions::default());
        assert!(matches!(err, Err(ReflectError::NotAClosure(_))));
    }

    #[test]
    fn ptml_less_closures_are_rejected() {
        let mut s = Session::new(SessionConfig {
            attach_ptml: false,
            ..Default::default()
        })
        .unwrap();
        let v = s.globals.get("int.add").cloned().unwrap();
        let err = optimize_value(&mut s, &v, &ReflectOptions::default());
        assert!(matches!(err, Err(ReflectError::NoPtml(_))));
    }

    #[test]
    fn recursive_functions_survive_whole_world_optimization() {
        let mut s = session();
        s.load_str(
            "module m export fib\n\
             let fib(n: Int): Int = if n < 2 then n else fib(n - 1) + fib(n - 2) end\n\
             end",
        )
        .unwrap();
        let slow = s.call("m.fib", vec![RVal::Int(14)]).unwrap();
        let report = optimize_all(&mut s, &ReflectOptions::default()).unwrap();
        assert!(report.functions > 0);
        let fast = s.call("m.fib", vec![RVal::Int(14)]).unwrap();
        assert_eq!(slow.result, fast.result);
        assert!(
            fast.stats.instrs * 2 < slow.stats.instrs,
            "dynamic optimization must at least halve instructions: {} vs {}",
            fast.stats.instrs,
            slow.stats.instrs
        );
    }

    #[test]
    fn optimize_all_relinks_module_records() {
        let mut s = session();
        let before = {
            let Some(SVal::Ref(m)) = s.globals.get("int").cloned() else {
                panic!()
            };
            let Object::Module(rec) = s.store.get(m).unwrap() else {
                panic!()
            };
            rec.exports.get("add").cloned().unwrap()
        };
        optimize_all(&mut s, &ReflectOptions::default()).unwrap();
        let m = s.store.root("int").unwrap();
        let Object::Module(rec) = s.store.get(m).unwrap() else {
            panic!()
        };
        let after = rec.exports.get("add").cloned().unwrap();
        assert_ne!(before, after, "module record must point at the new closure");
        assert_eq!(s.globals.get("int.add"), Some(&after));
    }

    #[test]
    fn mutual_recursion_relinks_to_optimized_versions() {
        let mut s = session();
        s.load_str(
            "module m export even, odd\n\
             let even(n: Int): Int = if n == 0 then 1 else odd(n - 1) end\n\
             let odd(n: Int): Int = if n == 0 then 0 else even(n - 1) end\n\
             end",
        )
        .unwrap();
        optimize_all(&mut s, &ReflectOptions::default()).unwrap();
        let r = s.call("m.even", vec![RVal::Int(30)]).unwrap();
        assert_eq!(r.result, RVal::Int(1));
        // After relinking, m.even's residual bindings must point at
        // optimized closures (attribute present).
        let SVal::Ref(oid) = s.globals.get("m.even").unwrap() else {
            panic!()
        };
        let Object::Closure(c) = s.store.get(*oid).unwrap() else {
            panic!()
        };
        for (name, val) in &c.bindings {
            if let SVal::Ref(dep) = val {
                assert_eq!(
                    s.store.attr(*dep, "optimized"),
                    Some(1),
                    "binding {name} not relinked"
                );
            }
        }
    }

    fn closure_ptml(s: &Session, v: &SVal) -> Vec<u8> {
        let SVal::Ref(o) = v else { panic!("not a ref") };
        let Ok(Object::Closure(c)) = s.store.get(*o) else {
            panic!("not a closure")
        };
        let Ok(Object::Ptml(b)) = s.store.get(c.ptml.unwrap()) else {
            panic!("no ptml")
        };
        b.clone()
    }

    #[test]
    fn cache_hit_is_equivalent_to_fresh_optimization() {
        let mut s = session();
        s.load_str(COMPLEX_SRC).unwrap();
        let opts = ReflectOptions::default();
        let cold = optimize_named(&mut s, "geom.abs", &opts).unwrap();
        let m0 = s.store.cache_stats();
        assert_eq!((m0.hits, m0.inserts), (0, 1), "{m0:?}");
        let warm = optimize_named(&mut s, "geom.abs", &opts).unwrap();
        let m1 = s.store.cache_stats();
        assert_eq!((m1.hits, m1.inserts), (1, 1), "{m1:?}");
        // The memoized product is byte-identical PTML…
        assert_eq!(closure_ptml(&s, &cold), closure_ptml(&s, &warm));
        // …and behaves identically at identical cost.
        let c = s
            .call("complex.new", vec![RVal::Real(3.0), RVal::Real(4.0)])
            .unwrap()
            .result;
        let r_cold = s
            .call_value(RVal::from_sval(&cold), vec![c.clone()])
            .unwrap();
        let r_warm = s.call_value(RVal::from_sval(&warm), vec![c]).unwrap();
        assert_eq!(r_cold.result, RVal::Real(5.0));
        assert_eq!(r_warm.result, RVal::Real(5.0));
        assert_eq!(r_cold.stats.instrs, r_warm.stats.instrs);
        assert_eq!(r_cold.stats.calls, r_warm.stats.calls);
    }

    #[test]
    fn mutating_a_dependency_invalidates_the_cached_product() {
        let mut s = session();
        s.load_str(COMPLEX_SRC).unwrap();
        let opts = ReflectOptions::default();
        let _ = optimize_named(&mut s, "geom.abs", &opts).unwrap();
        // Touch a transitively inlined callee: the mutable borrow bumps its
        // version (the store's conservative mutation witness).
        let SVal::Ref(callee) = s.globals.get("complex.x").cloned().unwrap() else {
            panic!()
        };
        let _ = s.store.get_mut(callee).unwrap();
        let before = s.store.cache_stats();
        let again = optimize_named(&mut s, "geom.abs", &opts).unwrap();
        let after = s.store.cache_stats();
        assert_eq!(
            after.invalidations,
            before.invalidations + 1,
            "stale entry must be invalidated, not served: {after:?}"
        );
        assert_eq!(after.hits, before.hits, "no stale hit");
        assert_eq!(after.inserts, before.inserts + 1, "product re-memoized");
        // The reoptimized procedure is still correct.
        let c = s
            .call("complex.new", vec![RVal::Real(3.0), RVal::Real(4.0)])
            .unwrap()
            .result;
        let r = s.call_value(RVal::from_sval(&again), vec![c]).unwrap();
        assert_eq!(r.result, RVal::Real(5.0));
    }

    fn closure_code(s: &Session, v: &SVal) -> u32 {
        let SVal::Ref(o) = v else { panic!("not a ref") };
        s.vm.code.linked_block(*o).expect("linked closure")
    }

    fn abs_of_3_4(s: &mut Session, f: &SVal) -> RVal {
        let c = s
            .call("complex.new", vec![RVal::Real(3.0), RVal::Real(4.0)])
            .unwrap()
            .result;
        s.call_value(RVal::from_sval(f), vec![c]).unwrap().result
    }

    #[test]
    fn a_hit_after_an_in_place_mutation_links_the_new_product() {
        let mut s = session();
        s.load_str(COMPLEX_SRC).unwrap();
        let opts = ReflectOptions::default();
        let _ = optimize_named(&mut s, "geom.abs", &opts).unwrap();
        let old = optimize_named(&mut s, "geom.abs", &opts).unwrap();
        assert_eq!(abs_of_3_4(&mut s, &old), RVal::Real(5.0));
        // Mutate an inlined callee in place: `complex.x` becomes `y`.
        let oid = |s: &Session, n: &str| match s.globals.get(n) {
            Some(SVal::Ref(o)) => *o,
            other => panic!("{n}: {other:?}"),
        };
        let (x, y) = (oid(&s, "complex.x"), oid(&s, "complex.y"));
        *s.store.get_mut(x).unwrap() = s.store.get(y).unwrap().clone();
        let new = optimize_named(&mut s, "geom.abs", &opts).unwrap();
        let m = s.store.cache_stats();
        assert_eq!((m.invalidations, m.inserts), (1, 2), "{m:?}");
        assert_ne!(closure_ptml(&s, &old), closure_ptml(&s, &new));
        let hit = optimize_named(&mut s, "geom.abs", &opts).unwrap();
        assert_eq!(s.store.cache_stats().hits, m.hits + 1);
        assert_eq!(closure_ptml(&s, &hit), closure_ptml(&s, &new));
        let expected = RVal::Real(32f64.sqrt());
        assert_eq!(abs_of_3_4(&mut s, &new), expected);
        assert_eq!(abs_of_3_4(&mut s, &hit), expected, "no stale block");
    }

    #[test]
    fn closures_linked_from_one_product_count_calls_separately() {
        let mut s = session();
        s.load_str(COMPLEX_SRC).unwrap();
        let opts = ReflectOptions::default();
        let products: Vec<SVal> = (0..3)
            .map(|_| optimize_named(&mut s, "geom.abs", &opts).unwrap())
            .collect();
        assert_eq!(s.store.cache_stats().hits, 2);
        let blocks: Vec<u32> = products.iter().map(|p| closure_code(&s, p)).collect();
        assert!(
            blocks[0] != blocks[1] && blocks[1] != blocks[2] && blocks[0] != blocks[2],
            "{blocks:?}"
        );
        for _ in 0..3 {
            abs_of_3_4(&mut s, &products[1]);
        }
        abs_of_3_4(&mut s, &products[2]);
        let calls: Vec<u64> = blocks.iter().map(|&b| s.vm.code.calls(b)).collect();
        assert_eq!(calls, vec![0, 3, 1]);
    }

    #[test]
    fn an_entry_that_does_not_link_is_recomputed_and_overwritten() {
        let mut s = session();
        s.load_str(COMPLEX_SRC).unwrap();
        let opts = ReflectOptions::default();
        let good = optimize_named(&mut s, "geom.abs", &opts).unwrap();
        let (key, entry) = s
            .store
            .cache()
            .iter()
            .map(|(k, e)| (*k, e.clone()))
            .next()
            .unwrap();
        let bad = CacheEntry::new(entry.observed.clone(), vec![0xff; 8], entry.captures);
        s.store.cache_insert(key, bad);
        let before = s.store.cache_stats();
        let again = optimize_named(&mut s, "geom.abs", &opts).unwrap();
        let after = s.store.cache_stats();
        assert_eq!(after.inserts, before.inserts + 1, "recomputed: {after:?}");
        assert_eq!(abs_of_3_4(&mut s, &again), RVal::Real(5.0));
        assert_eq!(closure_ptml(&s, &again), closure_ptml(&s, &good));
        assert_eq!(s.store.cache().iter().next().unwrap().1.ptml, entry.ptml);
        let _ = optimize_named(&mut s, "geom.abs", &opts).unwrap();
        assert_eq!(s.store.cache_stats().hits, after.hits + 1, "hits again");
    }

    #[test]
    fn disabling_the_cache_bypasses_it() {
        let mut s = session();
        s.load_str(COMPLEX_SRC).unwrap();
        let opts = ReflectOptions {
            use_cache: false,
            ..Default::default()
        };
        let _ = optimize_named(&mut s, "geom.abs", &opts).unwrap();
        let _ = optimize_named(&mut s, "geom.abs", &opts).unwrap();
        let m = s.store.cache_stats();
        assert_eq!(m, Default::default(), "{m:?}");
        assert!(s.store.cache().is_empty());
    }

    #[test]
    fn different_options_are_different_products() {
        let mut s = session();
        s.load_str(COMPLEX_SRC).unwrap();
        let _ = optimize_named(&mut s, "geom.abs", &ReflectOptions::default()).unwrap();
        let shallow = ReflectOptions {
            inline_depth: 0,
            ..Default::default()
        };
        let _ = optimize_named(&mut s, "geom.abs", &shallow).unwrap();
        let m = s.store.cache_stats();
        assert_eq!(m.hits, 0, "{m:?}");
        assert_eq!(m.inserts, 2, "{m:?}");
        assert_eq!(s.store.cache().len(), 2);
    }

    #[test]
    fn term_builder_reports_residuals() {
        let mut s = session();
        s.load_str(COMPLEX_SRC).unwrap();
        let SVal::Ref(oid) = s.globals.get("geom.abs").cloned().unwrap() else {
            panic!()
        };
        let mut tb = TermBuilder::new(&mut s.ctx, &s.store);
        // Depth 0: nothing is inlined; all callee bindings stay residual.
        let abs = tb.build(oid, 0).unwrap();
        let names: Vec<&str> = tb.residuals.iter().map(|(n, _)| n.as_str()).collect();
        assert!(names.contains(&"complex.x"), "{names:?}");
        assert!(names.contains(&"real.sqrt"), "{names:?}");
        tml_core::wellformed::check_abs(&s.ctx, &abs).unwrap();
    }

    #[test]
    fn deep_inlining_eliminates_residuals() {
        let mut s = session();
        s.load_str(COMPLEX_SRC).unwrap();
        let SVal::Ref(oid) = s.globals.get("geom.abs").cloned().unwrap() else {
            panic!()
        };
        let mut tb = TermBuilder::new(&mut s.ctx, &s.store);
        let abs = tb.build(oid, 3).unwrap();
        // complex.x / real.mul etc. are all inlined; no residuals remain
        // (their bodies are prim-only).
        assert!(tb.residuals.is_empty(), "{:?}", tb.residuals);
        tml_core::wellformed::check_abs(&s.ctx, &abs).unwrap();
    }
}
