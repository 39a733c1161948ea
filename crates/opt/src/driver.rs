//! The optimizer driver: alternating reduction and expansion (paper §3).
//!
//! "When one or more abstractions are substituted during the expansion
//! pass, there usually is the opportunity to perform more reductions on the
//! TML tree …, so each expansion pass is followed by a reduction pass.
//! Likewise, the reduction pass may reveal new opportunities to perform
//! expansions, so the two passes are applied repeatedly until no more
//! changes are made to the TML tree. To guarantee the termination of this
//! process even in obscure cases, a penalty is accumulated at each round of
//! the reduction/expansion phases. The optimization process stops when this
//! penalty reaches a certain limit."
//!
//! When primitives carry rewrite rules, each round also runs one rule pass
//! between reduce-to-fixpoint and expansion; the round and penalty bounds
//! only stop expansion, never a round that fired a rule (see the crate doc).

use crate::expand::expand_pass;
use crate::reduce::reduce_to_fixpoint;
use crate::stats::{OptOptions, OptStats, RoundStats};
use tml_core::prim::IndexFacts;
use tml_core::term::{Abs, App, Value};
use tml_core::Ctx;
use tml_trace::{Event, Sink};

/// Optimize a TML application. Returns the optimized tree and statistics.
/// Provenance events go to the global trace recorder when it is enabled.
/// No index facts are available: this is compile-time optimization.
pub fn optimize(ctx: &mut Ctx, app: App, opts: &OptOptions) -> (App, OptStats) {
    optimize_traced(ctx, app, opts, None, &mut Sink::global())
}

/// [`optimize`] with optional index facts (runtime optimization, where
/// index-aware rewrite rules may fire) and an explicit provenance sink.
/// The event stream is deterministic for a given input term, options and
/// facts, which is what makes [`crate::provenance::replay`] possible.
pub fn optimize_traced(
    ctx: &mut Ctx,
    mut app: App,
    opts: &OptOptions,
    facts: Option<&dyn IndexFacts>,
    sink: &mut Sink,
) -> (App, OptStats) {
    let _opt_span = tml_trace::span!("opt.optimize");
    let mut stats = OptStats {
        size_before: app.size(),
        ..Default::default()
    };
    // Sessions without rule-carrying primitives skip the rule pass.
    let has_rules = ctx.prims.has_rewrites();
    let stop_reason;
    loop {
        let _round_span = tml_trace::span!("opt.round");
        let red_before = stats.total_reductions();
        {
            let _s = tml_trace::span!("opt.reduce_pass");
            reduce_to_fixpoint(ctx, &mut app, opts.rules, &mut stats, sink);
        }
        stats.rounds += 1;
        let rewrites = if has_rules {
            let _s = tml_trace::span!("opt.rule_pass");
            rule_pass(ctx, &mut app, facts, sink, &mut 0)
        } else {
            0
        };
        stats.rewrites += rewrites;
        let mut round = RoundStats {
            round: stats.rounds,
            reductions: stats.total_reductions() - red_before - rewrites,
            inlined: 0,
            growth: 0,
        };
        let bound = if !opts.rules.expand {
            Some("expand-disabled")
        } else if stats.rounds >= opts.max_rounds {
            Some("max-rounds")
        } else if stats.penalty >= opts.penalty_limit {
            Some("penalty-limit")
        } else {
            None
        };
        if let Some(reason) = bound {
            finish_round(&mut stats, round, &app, sink);
            if rewrites == 0 {
                stop_reason = reason;
                break;
            }
            continue;
        }
        let outcome = {
            let _s = tml_trace::span!("opt.expand_pass");
            expand_pass(ctx, &mut app, opts, sink)
        };
        round.inlined = outcome.inlined;
        round.growth = outcome.growth;
        if outcome.inlined > 0 {
            stats.inlined += outcome.inlined;
            stats.penalty += outcome.growth;
        }
        finish_round(&mut stats, round, &app, sink);
        if outcome.inlined == 0 && rewrites == 0 {
            stop_reason = "fixpoint";
            break;
        }
    }
    if sink.active() {
        sink.emit(Event::OptStop {
            reason: stop_reason,
            rounds: stats.rounds,
            penalty: stats.penalty,
            penalty_limit: opts.penalty_limit,
        });
    }
    stats.size_after = app.size();
    (app, stats)
}

/// One top-down pass of the primitive-carried rewrite rules: at each
/// application headed by a rule-carrying primitive the rule is retried
/// until it declines, then the walk descends into the result. Each firing
/// emits one [`Event::RuleFired`] named after the rule and anchored at the
/// primitive, so rule firings take part in provenance replay. `node`
/// counts applications in pre-order; returns the number of firings.
fn rule_pass(
    ctx: &mut Ctx,
    app: &mut App,
    facts: Option<&dyn IndexFacts>,
    sink: &mut Sink,
    node: &mut u64,
) -> u64 {
    *node += 1;
    let mut fired = 0;
    while let Some(prim) = app.func.as_prim() {
        let Some(rule) = ctx.prims.def(prim).rewrite else {
            break;
        };
        let before = if sink.active() { app.size() as i64 } else { 0 };
        let Some(name) = rule(app, ctx, facts) else {
            break;
        };
        fired += 1;
        if sink.active() {
            sink.emit(Event::RuleFired {
                rule: name,
                site: ctx.prims.name(prim).to_string(),
                node: *node,
                size_delta: app.size() as i64 - before,
            });
        }
    }
    for v in std::iter::once(&mut app.func).chain(&mut app.args) {
        if let Value::Abs(a) = v {
            fired += rule_pass(ctx, &mut Abs::make_mut(a).body, facts, sink, node);
        }
    }
    fired
}

fn finish_round(stats: &mut OptStats, round: RoundStats, app: &App, sink: &mut Sink) {
    if sink.active() {
        sink.emit(Event::OptRound {
            round: round.round,
            reductions: round.reductions,
            inlined: round.inlined,
            penalty: stats.penalty,
            size: app.size() as u64,
        });
    }
    stats.per_round.push(round);
}

/// Optimize the body of an abstraction (a compiled procedure), keeping its
/// parameter list. This is the entry point used by the reflective dynamic
/// optimizer, whose units of work are procedures fetched from the store.
pub fn optimize_abs(ctx: &mut Ctx, abs: Abs, opts: &OptOptions) -> (Abs, OptStats) {
    optimize_abs_traced(ctx, abs, opts, None, &mut Sink::global())
}

/// [`optimize_abs`] with optional index facts and an explicit provenance
/// sink.
pub fn optimize_abs_traced(
    ctx: &mut Ctx,
    abs: Abs,
    opts: &OptOptions,
    facts: Option<&dyn IndexFacts>,
    sink: &mut Sink,
) -> (Abs, OptStats) {
    let (body, stats) = optimize_traced(ctx, abs.body, opts, facts, sink);
    (Abs::new(abs.params, body), stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::RuleSet;
    use tml_core::parse::parse_app;
    use tml_core::pretty::print_app;
    use tml_core::wellformed::check_app;

    fn opt(src: &str, opts: &OptOptions) -> (Ctx, App, OptStats) {
        let mut ctx = Ctx::new();
        let parsed = parse_app(&mut ctx, src).unwrap();
        let (app, stats) = optimize(&mut ctx, parsed.app, opts);
        (ctx, app, stats)
    }

    #[test]
    fn full_pipeline_collapses_to_constant() {
        // Inline a procedure at two sites, fold both additions, and
        // propagate the result.
        let src = "(cont(f) \
            (f 10 cont(e1) (halt e1) cont(t) \
                (f t cont(e2) (halt e2) cont(u) (halt u))) \
            proc(x ce cc) (+ x 1 ce cc))";
        let (ctx, app, stats) = opt(src, &OptOptions::default());
        assert_eq!(print_app(&ctx, &app), "(halt 12)");
        assert!(stats.inlined >= 2);
        assert!(stats.rounds >= 2);
        assert!(stats.size_after < stats.size_before);
    }

    #[test]
    fn loop_unrolling_emerges_from_the_general_rules() {
        // for i = 1 upto 3 accumulate: with a constant bound the whole loop
        // folds away. This is the paper's point: loop unrolling is "just a
        // special case of these general λ-calculus transformations" — here
        // the Y-bound loop head is not inlined (it is recursive), but the
        // entry call folds step by step when the head is small enough to
        // inline at its single external call site… in this simple shape the
        // loop survives; we only check semantics-preserving shrinkage.
        let src = "(Y proc(^c0 ^f ^c) (c \
            cont() (f 1) \
            cont(i) (> i 3 cont() (halt i) cont() \
                (+ i 1 cont(e)(halt e) cont(t) (f t)))))";
        let (ctx, app, stats) = opt(src, &OptOptions::default());
        check_app(&ctx, &app).unwrap();
        assert!(stats.size_after <= stats.size_before);
    }

    #[test]
    fn penalty_limit_bounds_the_process() {
        let src = "(cont(f) \
            (f 10 cont(e1) (halt e1) cont(t) \
                (f t cont(e2) (halt e2) cont(u) (halt u))) \
            proc(x ce cc) (+ x 1 ce cc))";
        let opts = OptOptions {
            penalty_limit: 0,
            ..Default::default()
        };
        let (_, _, stats) = opt(src, &opts);
        // With a zero penalty budget only the first reduction round runs.
        assert_eq!(stats.rounds, 1);
        assert_eq!(stats.inlined, 0);
    }

    #[test]
    fn max_rounds_bounds_the_process() {
        let src = "(halt 1)";
        let opts = OptOptions {
            max_rounds: 1,
            ..Default::default()
        };
        let (_, _, stats) = opt(src, &opts);
        assert_eq!(stats.rounds, 1);
    }

    #[test]
    fn identity_ruleset_is_identity() {
        let src = "(cont(x) (halt x) 13)";
        let opts = OptOptions {
            rules: RuleSet::NONE,
            ..Default::default()
        };
        let (ctx, app, stats) = opt(src, &opts);
        assert_eq!(print_app(&ctx, &app), "(cont(x_0) (halt x_0) 13)");
        assert_eq!(stats.total_reductions(), 0);
        assert_eq!(stats.size_before, stats.size_after);
    }

    #[test]
    fn optimize_abs_keeps_parameters() {
        let mut ctx = Ctx::new();
        let parsed =
            parse_app(&mut ctx, "(cont(q) (+ 1 2 cont(e)(halt e) cont(t)(q t)) k)").unwrap();
        let abs = parsed.app.func.as_abs().unwrap().clone();
        let (opt_abs, _) = optimize_abs(&mut ctx, abs, &OptOptions::default());
        assert_eq!(opt_abs.params.len(), 1);
        let printed = tml_core::pretty::print_abs(&ctx, &opt_abs);
        assert!(printed.contains("(q_0 3)"), "{printed}");
    }

    #[test]
    fn optimizer_is_idempotent_on_its_output() {
        use tml_core::gen::{gen_program, GenConfig};
        for seed in 0..20 {
            let (mut ctx, app) = gen_program(seed, GenConfig::default());
            let (once, _) = optimize(&mut ctx, app, &OptOptions::default());
            let (twice, stats) = optimize(&mut ctx, once.clone(), &OptOptions::default());
            assert_eq!(once, twice, "seed {seed} not idempotent");
            assert_eq!(stats.inlined, 0);
        }
    }

    #[test]
    fn optimizer_preserves_well_formedness_on_random_programs() {
        use tml_core::gen::{gen_program, GenConfig};
        for seed in 0..40 {
            let (mut ctx, app) = gen_program(
                seed,
                GenConfig {
                    steps: 20,
                    ..Default::default()
                },
            );
            let (out, _) = optimize(&mut ctx, app, &OptOptions::default());
            check_app(&ctx, &out).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        }
    }

    #[test]
    fn stats_sizes_recorded() {
        let (_, _, stats) = opt("(cont(x) (halt x) 13)", &OptOptions::default());
        assert_eq!(stats.size_before, 4);
        assert_eq!(stats.size_after, 2);
    }
}
