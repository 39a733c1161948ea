//! The reduction pass: the paper's eight core rewrite rules (§3).
//!
//! "During the reduction pass, a number of generic rewrite rules are applied
//! to the TML tree until no more rules are applicable. Termination is
//! guaranteed because each of the rewrite rules reduces the size of the TML
//! tree if it is applied."
//!
//! The pass keeps a whole-tree occurrence [`Census`] (the paper's `|E|_v`),
//! rebuilt once per sweep and *incremented* when a substitution duplicates a
//! variable. Incremental updates are applied only in the increasing
//! direction: a stale overcount merely postpones a rewrite to the next
//! sweep, whereas an undercount could break the unique binding rule.
//!
//! ## Physically-unchanged subtree skipping
//!
//! Abstractions are shared copy-on-write (`Arc<Abs>`), so a subtree that
//! went through a full sweep without a single rule firing is *provably
//! quiescent*: every rule precondition is subtree-local (binder occurrence
//! counts are confined by scoping, fold/eta/Y shapes are structural), and
//! every mutation anywhere in the tree goes through `Arc::make_mut`, which
//! replaces the pointer. Later sweeps therefore skip subtrees whose `Arc`
//! address is in the clean map — a keepalive clone pins each registered
//! allocation so an address can never be recycled by a different node. To
//! keep provenance byte-identical, a skipped subtree advances the pre-order
//! node counter by its recorded application count (it would have emitted no
//! events anyway — that is what made it clean).

use crate::stats::{OptStats, RuleSet};
use std::collections::HashMap;
use std::sync::Arc;
use tml_core::census::occurrences_in_value;
use tml_core::prim::FoldOutcome;
use tml_core::prims_std::split_case;
use tml_core::subst::subst_app;
use tml_core::term::{Abs, App, Value};
use tml_core::{Census, Ctx, VarId};
use tml_trace::{Event, Sink};

/// Apply the reduction rules to `app` until no more rules are applicable.
/// Returns `true` if anything changed. Every rule firing emits one
/// [`Event::RuleFired`] to `sink` carrying the rule name, its anchor
/// (bound variable or primitive, where one exists), the pre-order node
/// index the sweep was visiting, and the term-size delta.
pub fn reduce_to_fixpoint(
    ctx: &Ctx,
    app: &mut App,
    rules: RuleSet,
    stats: &mut OptStats,
    sink: &mut Sink,
) -> bool {
    let mut any = false;
    // Quiescent-subtree map, persisted across sweeps of this fixpoint run.
    let mut clean: HashMap<usize, CleanEntry> = HashMap::new();
    // Hard safety bound; the size argument guarantees far fewer sweeps.
    for _ in 0..10_000 {
        let mut sweep = Sweep {
            ctx,
            rules,
            census: Census::of_app(app, ctx.names.len()),
            stats,
            changed: false,
            sink,
            node: 0,
            fired: 0,
            pending: None,
            clean: &mut clean,
        };
        sweep.walk(app);
        if !sweep.changed {
            return any;
        }
        any = true;
    }
    debug_assert!(false, "reduction pass failed to reach a fixpoint");
    any
}

/// A subtree known to be quiescent under the active rule set.
struct CleanEntry {
    /// Pins the allocation so the map key (its address) stays unambiguous.
    _keepalive: Arc<Abs>,
    /// Number of applications in the subtree's body — how far a sweep's
    /// pre-order node counter must advance when the subtree is skipped.
    napps: u64,
}

struct Sweep<'a, 'b> {
    ctx: &'a Ctx,
    rules: RuleSet,
    census: Census,
    stats: &'a mut OptStats,
    changed: bool,
    sink: &'a mut Sink<'b>,
    /// Pre-order index of the node being visited (restarts each sweep).
    node: u64,
    /// Rule firings so far this sweep (for quiescence detection).
    fired: u64,
    /// Set by a rule method when it fires and tracing is active; consumed
    /// by `walk` to label the emitted event.
    pending: Option<(&'static str, String)>,
    /// Quiescent subtrees by `Arc` address, shared across sweeps.
    clean: &'a mut HashMap<usize, CleanEntry>,
}

impl Sweep<'_, '_> {
    /// Label the rewrite that is about to be reported. Only does work when
    /// the sink is active, so the disabled path never allocates.
    fn note(&mut self, rule: &'static str, site: Option<VarId>) {
        if self.sink.active() {
            let site = site.map(|v| self.ctx.names.display(v)).unwrap_or_default();
            self.pending = Some((rule, site));
        }
    }

    fn walk(&mut self, app: &mut App) {
        self.node += 1;
        let node = self.node;
        // Apply rules at this node until quiescent, then recurse.
        let mut case_done = false;
        loop {
            let before = if self.sink.active() {
                app.size() as i64
            } else {
                0
            };
            if self.try_node(app, &mut case_done) {
                self.changed = true;
                self.fired += 1;
                if self.sink.active() {
                    let (rule, site) = self.pending.take().unwrap_or(("?", String::new()));
                    self.sink.emit(Event::RuleFired {
                        rule,
                        site,
                        node,
                        size_delta: app.size() as i64 - before,
                    });
                }
                continue;
            }
            break;
        }
        self.descend(&mut app.func);
        for arg in &mut app.args {
            self.descend(arg);
        }
    }

    /// Walk into an abstraction child — unless its `Arc` address is in the
    /// clean map, in which case the whole subtree is skipped (the node
    /// counter still advances as if it had been visited, so provenance
    /// event indices are identical with and without the skip).
    fn descend(&mut self, slot: &mut Value) {
        let Value::Abs(arc) = slot else {
            return;
        };
        if let Some(entry) = self.clean.get(&(Arc::as_ptr(arc) as usize)) {
            self.node += entry.napps;
            if tml_trace::enabled() {
                tml_trace::count("opt.reduce.subtree_skipped", 1);
            }
            return;
        }
        let node_before = self.node;
        let fired_before = self.fired;
        let abs = Abs::make_mut(arc);
        self.walk(&mut abs.body);
        if self.fired == fired_before {
            // Zero firings while visiting the whole subtree: quiescent.
            self.clean.insert(
                Arc::as_ptr(arc) as usize,
                CleanEntry {
                    _keepalive: arc.clone(),
                    napps: self.node - node_before,
                },
            );
        }
    }

    fn try_node(&mut self, app: &mut App, case_done: &mut bool) -> bool {
        if self.try_reduce(app) {
            return true;
        }
        if self.try_subst_remove(app) {
            return true;
        }
        if self.try_eta(app) {
            return true;
        }
        if let Some(prim) = app.func.as_prim() {
            let def = self.ctx.prims.def(prim);
            if self.rules.fold && !def.attrs.no_fold {
                if let Some(fold) = def.fold {
                    if let FoldOutcome::Replaced(new_app) = fold(app) {
                        // Guard the paper's termination argument: accept a
                        // fold only if it strictly shrinks the tree.
                        if new_app.size() < app.size() {
                            if self.sink.active() {
                                self.pending = Some(("fold", def.name.clone()));
                            }
                            *app = new_app;
                            self.stats.fold += 1;
                            *case_done = false;
                            return true;
                        }
                    }
                }
            }
            if def.name == "==" && self.rules.case_subst && !*case_done {
                *case_done = true;
                if self.try_case_subst(app) {
                    return true;
                }
            }
            if def.name == "Y" && (self.rules.y_remove || self.rules.y_reduce) {
                return self.try_y(app);
            }
        }
        false
    }

    /// `reduce`: `(λ() app) → app`.
    fn try_reduce(&mut self, app: &mut App) -> bool {
        if !self.rules.reduce {
            return false;
        }
        let Value::Abs(arc) = &mut app.func else {
            return false;
        };
        if !arc.params.is_empty() || !app.args.is_empty() {
            return false;
        }
        let body = std::mem::replace(
            Abs::make_mut(arc).body_mut(),
            App::new(Value::Lit(tml_core::Lit::Unit), vec![]),
        );
        *app = body;
        self.stats.reduce += 1;
        self.note("reduce", None);
        true
    }

    /// `subst` + `remove` on a direct application of an abstraction.
    ///
    /// The paper states the two rules separately: `subst` copies the bound
    /// value to every occurrence (requiring `|app|_v = 1` when the value is
    /// an abstraction), after which the binding is dead and `remove` strikes
    /// it out. We apply them in that fixed pairing.
    fn try_subst_remove(&mut self, app: &mut App) -> bool {
        let Value::Abs(arc) = &mut app.func else {
            return false;
        };
        if arc.params.len() != app.args.len() {
            // Ill-formed (or partially rewritten) — leave untouched.
            return false;
        }
        for i in 0..arc.params.len() {
            let v = arc.params[i];
            let count = self.census.count(v);
            if count == 0 {
                if self.rules.remove {
                    // remove: strike out the dead binding and its value.
                    Abs::make_mut(arc).params_mut().remove(i);
                    app.args.remove(i);
                    self.stats.remove += 1;
                    self.note("remove", Some(v));
                    return true;
                }
                continue;
            }
            if !self.rules.subst {
                continue;
            }
            let arg_is_abs = app.args[i].is_abs();
            if arg_is_abs && count != 1 {
                continue; // expansion pass territory
            }
            // subst: replace every occurrence of v by the value.
            let val = app.args[i].clone();
            let abs = Abs::make_mut(arc);
            let k = subst_app(&mut abs.body, v, &val);
            debug_assert!(k > 0, "census said {count} occurrences, found none");
            if let Value::Var(w) = &val {
                self.census.bump(*w, k);
            }
            self.census.clear(v);
            self.stats.subst += 1;
            // The binding is now dead; apply remove immediately.
            abs.params.remove(i);
            app.args.remove(i);
            self.stats.remove += 1;
            self.note("subst", Some(v));
            return true;
        }
        false
    }

    /// `η-reduce`: `λ(v₁…vₙ)(val v₁…vₙ) → val` when no `vᵢ` occurs in
    /// `val`. Applied to abstractions in value positions of this node.
    fn try_eta(&mut self, app: &mut App) -> bool {
        if !self.rules.eta_reduce {
            return false;
        }
        // Never η-reduce the functional position of a direct application:
        // the binding structure there is subst/remove territory.
        for arg in &mut app.args {
            if let Some(new_val) = eta_target(arg) {
                *arg = new_val;
                self.stats.eta_reduce += 1;
                self.note("eta-reduce", None);
                return true;
            }
        }
        false
    }

    /// `case-subst`: substitute the scrutinee variable with the tag value
    /// inside the corresponding branch.
    fn try_case_subst(&mut self, app: &mut App) -> bool {
        let Some((scrutinee, tags, _, _)) = split_case(&app.args) else {
            return false;
        };
        let Value::Var(v) = scrutinee else {
            return false;
        };
        let v = *v;
        let n = tags.len();
        let tags: Vec<Value> = tags.to_vec();
        let mut replaced = 0;
        for (j, tag) in tags.iter().enumerate() {
            let branch_index = 1 + n + j;
            if let Value::Abs(branch) = &mut app.args[branch_index] {
                // The scrutinee is bound outside the branch, so the cached
                // summary answers "any occurrence?" exactly — skip the
                // branch (preserving its sharing) when there is none.
                if !branch.may_occur(v) {
                    continue;
                }
                let k = subst_app(&mut Abs::make_mut(branch).body, v, tag);
                if k > 0 {
                    if let Value::Var(w) = tag {
                        self.census.bump(*w, k);
                    }
                    replaced += k;
                }
            }
        }
        if replaced > 0 {
            self.stats.case_subst += 1;
            self.note("case-subst", Some(v));
            true
        } else {
            false
        }
    }

    /// `Y-remove` and `Y-reduce` on `(Y λ(c₀ v₁…vₙ c)(c entry abs₁…absₙ))`.
    fn try_y(&mut self, app: &mut App) -> bool {
        let Some(Value::Abs(yabs)) = app.args.first().cloned() else {
            return false;
        };
        // Validate the canonical shape before rewriting.
        let nparams = yabs.params.len();
        if nparams < 2 || yabs.body.args.len() != nparams - 1 {
            return false;
        }
        let ret = *yabs.params.last().expect("nparams >= 2");
        if yabs.body.func.as_var() != Some(ret) {
            return false;
        }

        // Y-reduce: no recursive procedures left and the entry does not
        // restart itself through c₀.
        if self.rules.y_reduce && nparams == 2 {
            let c0 = yabs.params[0];
            let entry = &yabs.body.args[0];
            if occurrences_in_value(entry, c0) == 0 {
                if let Value::Abs(entry_abs) = entry {
                    if entry_abs.params.is_empty() {
                        *app = entry_abs.body.clone();
                        self.stats.y_reduce += 1;
                        self.note("y-reduce", None);
                        return true;
                    }
                }
            }
        }

        // Y-remove: strike out a recursive binding referenced neither from
        // the entry nor from the *other* recursive bodies.
        if self.rules.y_remove && nparams > 2 {
            let n = nparams - 2; // number of recursive bindings
            for i in 1..=n {
                let vi = yabs.params[i];
                let referenced = yabs
                    .body
                    .args
                    .iter()
                    .enumerate()
                    .any(|(j, val)| j != i && occurrences_in_value(val, vi) > 0);
                if !referenced {
                    let Value::Abs(yabs_arc) = &mut app.args[0] else {
                        unreachable!("checked above");
                    };
                    let yabs_mut = Abs::make_mut(yabs_arc);
                    yabs_mut.params.remove(i);
                    yabs_mut.body.args.remove(i);
                    self.stats.y_remove += 1;
                    self.note("y-remove", Some(vi));
                    return true;
                }
            }
        }
        false
    }
}

/// If `val` is an η-reducible abstraction, return its replacement.
fn eta_target(val: &Value) -> Option<Value> {
    let Value::Abs(abs) = val else {
        return None;
    };
    if abs.params.is_empty() {
        return None;
    }
    if abs.body.args.len() != abs.params.len() {
        return None;
    }
    for (p, a) in abs.params.iter().zip(&abs.body.args) {
        if a.as_var() != Some(*p) {
            return None;
        }
    }
    // Primitive targets are excluded: primitives are not abstractions and
    // carry their own calling conventions, so `cont(e)(halt e) → halt`
    // would turn a continuation value into a primitive value. (The paper's
    // rule ranges over `val`, but its prims never appear as values.)
    if abs.body.func.as_prim().is_some() {
        return None;
    }
    // Precondition ∀i |val|_{vᵢ} = 0: the target must not capture the
    // parameters it drops.
    for p in &abs.params {
        if occurrences_in_value(&abs.body.func, *p) > 0 {
            return None;
        }
    }
    Some(abs.body.func.clone())
}

#[cfg(test)]
mod tests {
    use super::*;
    use tml_core::parse::parse_app;
    use tml_core::pretty::print_app;
    use tml_core::wellformed::check_app;

    fn run(src: &str) -> (Ctx, App, OptStats) {
        let mut ctx = Ctx::new();
        let parsed = parse_app(&mut ctx, src).unwrap();
        let mut app = parsed.app;
        let mut stats = OptStats::default();
        reduce_to_fixpoint(
            &ctx,
            &mut app,
            RuleSet::REDUCE_ONLY,
            &mut stats,
            &mut Sink::global(),
        );
        (ctx, app, stats)
    }

    #[test]
    fn subst_propagates_constants() {
        // (cont(x) (halt x) 13) → (halt 13)
        let (ctx, app, stats) = run("(cont(x) (halt x) 13)");
        assert_eq!(print_app(&ctx, &app), "(halt 13)");
        assert_eq!(stats.subst, 1);
        assert_eq!(stats.remove, 1);
    }

    #[test]
    fn remove_strikes_dead_bindings() {
        let (ctx, app, stats) = run("(cont(x y) (halt x) 1 2)");
        assert_eq!(print_app(&ctx, &app), "(halt 1)");
        assert_eq!(stats.remove, 2); // y removed, x subst+removed
    }

    #[test]
    fn reduce_removes_empty_abstractions() {
        let (ctx, app, stats) = run("(cont() (halt 5))");
        assert_eq!(print_app(&ctx, &app), "(halt 5)");
        assert_eq!(stats.reduce, 1);
    }

    #[test]
    fn fold_add_chain() {
        // (+ 1 2 cont(e)(halt e) cont(t)(+ t 4 cont(e2)(halt e2) cont(u)(halt u)))
        let src = "(+ 1 2 cont(e) (halt e) cont(t) (+ t 4 cont(e2) (halt e2) cont(u) (halt u)))";
        let (ctx, app, stats) = run(src);
        assert_eq!(print_app(&ctx, &app), "(halt 7)");
        assert!(stats.fold >= 2);
    }

    #[test]
    fn fold_case_paper_example() {
        let src = "(== 2 1 2 3 cont() (halt 10) cont() (halt 20) cont() (halt 30))";
        let (ctx, app, _) = run(src);
        assert_eq!(print_app(&ctx, &app), "(halt 20)");
    }

    #[test]
    fn case_subst_specializes_branches() {
        // Scrutinee x is a free variable; each branch sees x replaced by
        // its tag.
        let src = "(cont(x) (== x 1 2 cont() (halt x) cont() (halt x)) y)";
        let mut ctx = Ctx::new();
        let parsed = parse_app(&mut ctx, src).unwrap();
        let mut app = parsed.app;
        let mut stats = OptStats::default();
        reduce_to_fixpoint(
            &ctx,
            &mut app,
            RuleSet::REDUCE_ONLY,
            &mut stats,
            &mut Sink::global(),
        );
        let printed = print_app(&ctx, &app);
        assert!(printed.contains("(halt 1)"), "{printed}");
        assert!(printed.contains("(halt 2)"), "{printed}");
        assert!(stats.case_subst >= 1);
    }

    #[test]
    fn eta_reduce_unwraps_trivial_conts() {
        // (+ 1 x ce cont(t)(k t)) — the wrapper continuation is η-reducible.
        let src = "(+ 1 x cont(e) (halt e) cont(t) (k t))";
        let (ctx, app, stats) = run(src);
        assert_eq!(stats.eta_reduce, 1);
        let printed = print_app(&ctx, &app);
        assert!(
            printed.ends_with("k_2)") || printed.contains(" k_"),
            "{printed}"
        );
    }

    #[test]
    fn eta_respects_capture_precondition() {
        // cont(t)(t t) must NOT η-reduce (target references the param).
        let src = "(+ 1 x cont(e) (halt e) cont(t) (t t))";
        let (_, _, stats) = run(src);
        assert_eq!(stats.eta_reduce, 0);
    }

    #[test]
    fn y_remove_strikes_unreferenced_procs() {
        // Two "recursive" procs; the second is never referenced.
        let src = "(Y proc(^c0 ^f ^g ^c) (c \
                      cont() (f 1) \
                      cont(i) (halt i) \
                      cont(j) (halt j)))";
        let (_, app, stats) = run(src);
        assert_eq!(stats.y_remove, 1);
        // After removal the Y application retains only f.
        let yabs = app.args[0].as_abs().unwrap();
        assert_eq!(yabs.params.len(), 3);
    }

    #[test]
    fn y_reduce_eliminates_empty_fixpoints() {
        let src = "(Y proc(^c0 ^c) (c cont() (halt 42)))";
        let (ctx, app, stats) = run(src);
        assert_eq!(stats.y_reduce, 1);
        assert_eq!(print_app(&ctx, &app), "(halt 42)");
    }

    #[test]
    fn y_remove_then_reduce_cascade() {
        // An unused loop disappears entirely.
        let src = "(Y proc(^c0 ^f ^c) (c \
                      cont() (halt 7) \
                      cont(i) (f i)))";
        let (ctx, app, stats) = run(src);
        assert_eq!(stats.y_remove, 1);
        assert_eq!(stats.y_reduce, 1);
        assert_eq!(print_app(&ctx, &app), "(halt 7)");
    }

    #[test]
    fn self_recursive_proc_is_removed_when_externally_dead() {
        // f references only itself; the entry never calls it.
        let src = "(Y proc(^c0 ^f ^c) (c \
                      cont() (halt 1) \
                      cont(i) (f i)))";
        let (_, _, stats) = run(src);
        assert_eq!(stats.y_remove, 1);
    }

    #[test]
    fn live_loop_is_preserved() {
        // The paper's for-loop: entry calls f, f recurses — nothing to remove.
        let src = "(Y proc(^c0 ^f ^c) (c \
                      cont() (f 1) \
                      cont(i) (> i 10 cont() (halt i) cont() (+ i 1 cont(e)(halt e) cont(t) (f t)))))";
        let mut ctx = Ctx::new();
        let parsed = parse_app(&mut ctx, src).unwrap();
        let mut app = parsed.app;
        let mut stats = OptStats::default();
        reduce_to_fixpoint(
            &ctx,
            &mut app,
            RuleSet::REDUCE_ONLY,
            &mut stats,
            &mut Sink::global(),
        );
        assert_eq!(stats.y_remove, 0);
        assert_eq!(stats.y_reduce, 0);
        check_app(&ctx, &app).unwrap();
    }

    #[test]
    fn reduction_preserves_well_formedness_on_random_programs() {
        use tml_core::gen::{gen_program, GenConfig};
        for seed in 0..40 {
            let (ctx, mut app) = gen_program(seed, GenConfig::default());
            let mut stats = OptStats::default();
            reduce_to_fixpoint(
                &ctx,
                &mut app,
                RuleSet::REDUCE_ONLY,
                &mut stats,
                &mut Sink::global(),
            );
            check_app(&ctx, &app).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        }
    }

    #[test]
    fn reduction_never_grows_random_programs() {
        use tml_core::gen::{gen_program, GenConfig};
        for seed in 0..40 {
            let (ctx, mut app) = gen_program(seed, GenConfig::default());
            let before = app.size();
            let mut stats = OptStats::default();
            reduce_to_fixpoint(
                &ctx,
                &mut app,
                RuleSet::REDUCE_ONLY,
                &mut stats,
                &mut Sink::global(),
            );
            assert!(app.size() <= before, "seed {seed} grew the tree");
        }
    }

    #[test]
    fn disabled_rules_do_not_fire() {
        let mut ctx = Ctx::new();
        let parsed = parse_app(&mut ctx, "(cont(x) (halt x) 13)").unwrap();
        let mut app = parsed.app;
        let mut stats = OptStats::default();
        let changed = reduce_to_fixpoint(
            &ctx,
            &mut app,
            RuleSet::NONE,
            &mut stats,
            &mut Sink::global(),
        );
        assert!(!changed);
        assert_eq!(stats.total_reductions(), 0);
    }
}
