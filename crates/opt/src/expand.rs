//! The expansion pass: procedure inlining / view expansion (paper §3).
//!
//! "The subsequent expansion pass tries to substitute bound λ-abstractions
//! (procedures or continuations) at the positions where they are applied.
//! … The decision whether a given use of a bound abstraction is to be
//! substituted is based on a heuristic cost model similar to the one
//! described by [Appel 1992]."
//!
//! The pass looks at direct applications `(λ(…vᵢ…) body …absᵢ…)` binding an
//! abstraction that is *applied* somewhere in `body`. The reduction pass
//! already handles the used-exactly-once case through `subst`; expansion
//! covers multi-use bindings, replacing each *call-site* occurrence with an
//! α-renamed copy when the body is cheap enough. The duplicated tree size
//! is reported to the driver, which accumulates it as the termination
//! penalty.

use crate::stats::OptOptions;
use tml_core::alpha::alpha_copy_abs;
use tml_core::cost::cost_value;
use tml_core::term::{Abs, App, Value};
use tml_core::{Census, Ctx, VarId};
use tml_trace::{Event, Sink};

/// Result of one expansion pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExpandOutcome {
    /// Call sites inlined.
    pub inlined: u64,
    /// Total tree growth (nodes duplicated), the driver's penalty currency.
    pub growth: u64,
}

/// Run one expansion pass over `app`. Every multi-use bound abstraction
/// considered for inlining emits one [`Event::ExpandDecision`] to `sink`,
/// recording the cost/limit comparison of the Appel-style heuristic and
/// the growth actually charged to the penalty budget.
pub fn expand_pass(
    ctx: &mut Ctx,
    app: &mut App,
    opts: &OptOptions,
    sink: &mut Sink,
) -> ExpandOutcome {
    let census = Census::of_app(app, ctx.names.len());
    // Sharing-preserving fast path: the driver alternates reduce/expand
    // until expansion yields nothing, so the final pass of every round trip
    // is a no-op. Detect that with a read-only scan — if no direct
    // application anywhere binds a multi-use abstraction, the mutable walk
    // (which unshares every node it descends through) is skipped entirely
    // and the tree keeps all its physical sharing.
    if !has_candidate(app, &census) {
        if tml_trace::enabled() {
            tml_trace::count("opt.expand.noop_pass_skipped", 1);
        }
        return ExpandOutcome::default();
    }
    let mut out = ExpandOutcome::default();
    walk(ctx, app, opts, &census, &mut out, sink);
    out
}

/// `true` if some direct application in the tree binds an abstraction used
/// more than once — the precondition (ignoring the cost model) for any
/// expansion work. Read-only, so no subtree is unshared.
fn has_candidate(app: &App, census: &Census) -> bool {
    if let Value::Abs(f) = &app.func {
        if f.params.len() == app.args.len()
            && f.params
                .iter()
                .zip(&app.args)
                .any(|(&v, arg)| arg.is_abs() && census.count(v) >= 2)
        {
            return true;
        }
        if has_candidate(&f.body, census) {
            return true;
        }
    }
    for arg in &app.args {
        if let Value::Abs(a) = arg {
            if has_candidate(&a.body, census) {
                return true;
            }
        }
    }
    false
}

fn walk(
    ctx: &mut Ctx,
    app: &mut App,
    opts: &OptOptions,
    census: &Census,
    out: &mut ExpandOutcome,
    sink: &mut Sink,
) {
    // Recurse first so inner bindings are considered before outer ones; the
    // cost of an outer body then already reflects inner decisions.
    if let Value::Abs(a) = &mut app.func {
        walk(ctx, &mut Abs::make_mut(a).body, opts, census, out, sink);
    }
    for arg in &mut app.args {
        if let Value::Abs(a) = arg {
            walk(ctx, &mut Abs::make_mut(a).body, opts, census, out, sink);
        }
    }

    // Direct application binding abstractions used more than once.
    let Value::Abs(_) = &app.func else {
        return;
    };
    let nparams = app.func.as_abs().map(|a| a.params.len()).unwrap_or(0);
    if nparams != app.args.len() {
        return;
    }
    for i in 0..nparams {
        let v = app.func.as_abs().expect("checked").params[i];
        if census.count(v) < 2 {
            continue; // dead or handled by the reduction pass
        }
        if !app.args[i].is_abs() {
            continue;
        }
        let body_cost = cost_value(ctx, &app.args[i]);
        if body_cost > opts.inline_limit {
            if sink.active() {
                sink.emit(Event::ExpandDecision {
                    site: ctx.names.display(v),
                    cost: u64::from(body_cost),
                    limit: u64::from(opts.inline_limit),
                    taken: false,
                    growth: 0,
                });
            }
            continue;
        }
        // The template is taken by shared handle — no copy is made until a
        // call site is actually replaced (and then an α-renamed one).
        let template = app.args[i].as_abs_arc().expect("checked is_abs").clone();
        let Value::Abs(fabs) = &mut app.func else {
            unreachable!("checked above")
        };
        let growth_before = out.growth;
        let n = inline_call_sites(&mut Abs::make_mut(fabs).body, v, &template, ctx, out);
        if sink.active() {
            sink.emit(Event::ExpandDecision {
                site: ctx.names.display(v),
                cost: u64::from(body_cost),
                limit: u64::from(opts.inline_limit),
                taken: n > 0,
                growth: out.growth - growth_before,
            });
        }
    }
}

/// Replace every application `(v …)` in `app` (where `v` is in functional
/// position) with an α-renamed copy of `template`. Returns the number of
/// call sites replaced.
fn inline_call_sites(
    app: &mut App,
    v: VarId,
    template: &Abs,
    ctx: &mut Ctx,
    out: &mut ExpandOutcome,
) -> u64 {
    let mut n = 0;
    if app.func.as_var() == Some(v) && app.args.len() == template.params.len() {
        let copy = alpha_copy_abs(template, &mut ctx.names);
        out.growth += 1 + copy.body.size() as u64;
        out.inlined += 1;
        n += 1;
        app.func = Value::from(copy);
        // Do not descend into the fresh copy: its own call sites (if the
        // template referenced v, which scoping forbids) cannot mention v.
    } else if let Value::Abs(a) = &mut app.func {
        // `v` is bound outside this subtree, so the cached free set is an
        // exact occurrence test — skip (sharing intact) when absent.
        if a.contains_free(v) {
            n += inline_call_sites(&mut Abs::make_mut(a).body, v, template, ctx, out);
        }
    }
    for arg in &mut app.args {
        if let Value::Abs(a) = arg {
            if a.contains_free(v) {
                n += inline_call_sites(&mut Abs::make_mut(a).body, v, template, ctx, out);
            }
        }
    }
    n
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::{OptStats, RuleSet};
    use tml_core::parse::parse_app;
    use tml_core::pretty::print_app;
    use tml_core::wellformed::check_app;

    fn expand_src(src: &str, opts: &OptOptions) -> (Ctx, App, ExpandOutcome) {
        let mut ctx = Ctx::new();
        let parsed = parse_app(&mut ctx, src).unwrap();
        let mut app = parsed.app;
        let out = expand_pass(&mut ctx, &mut app, opts, &mut Sink::global());
        (ctx, app, out)
    }

    /// A procedure called twice gets inlined at both call sites.
    const TWO_CALLS: &str = "(cont(f) \
        (f 1 cont(e1) (halt e1) cont(t) \
            (f t cont(e2) (halt e2) cont(u) (halt u))) \
        proc(x ce cc) (+ x 1 ce cc))";

    #[test]
    fn inlines_multi_use_procedures() {
        let (ctx, app, out) = expand_src(TWO_CALLS, &OptOptions::default());
        assert_eq!(out.inlined, 2);
        assert!(out.growth > 0);
        check_app(&ctx, &app).unwrap();
    }

    #[test]
    fn expansion_enables_reduction_to_constant() {
        let (ctx, mut app, _) = expand_src(TWO_CALLS, &OptOptions::default());
        let mut stats = OptStats::default();
        crate::reduce::reduce_to_fixpoint(
            &ctx,
            &mut app,
            RuleSet::REDUCE_ONLY,
            &mut stats,
            &mut Sink::global(),
        );
        assert_eq!(print_app(&ctx, &app), "(halt 3)");
    }

    #[test]
    fn inline_limit_blocks_large_bodies() {
        let opts = OptOptions {
            inline_limit: 0,
            ..Default::default()
        };
        let (_, _, out) = expand_src(TWO_CALLS, &opts);
        assert_eq!(out.inlined, 0);
        assert_eq!(out.growth, 0);
    }

    #[test]
    fn single_use_bindings_left_to_reduction() {
        let src = "(cont(f) (f 1 cont(e) (halt e) cont(t) (halt t)) \
                    proc(x ce cc) (+ x 1 ce cc))";
        let (_, _, out) = expand_src(src, &OptOptions::default());
        assert_eq!(out.inlined, 0);
    }

    #[test]
    fn non_call_occurrences_not_inlined() {
        // f is passed as an argument (escapes) and also called once; the
        // argument occurrence must stay a variable.
        let src = "(cont(f) \
            (g f cont(e1) (halt e1) cont(t) \
                (f t cont(e2) (halt e2) cont(u) (halt u))) \
            proc(x ce cc) (+ x 1 ce cc))";
        let (ctx, app, out) = expand_src(src, &OptOptions::default());
        assert_eq!(out.inlined, 1);
        // The binding must survive (f still referenced as an argument).
        let printed = print_app(&ctx, &app);
        assert!(printed.contains("f_0"), "{printed}");
    }

    #[test]
    fn inlined_copies_are_alpha_renamed() {
        let (ctx, app, _) = expand_src(TWO_CALLS, &OptOptions::default());
        tml_core::alpha::check_unique_binding(&app)
            .map_err(|v| ctx.names.display(v))
            .unwrap();
    }
}
