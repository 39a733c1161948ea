//! Random well-formed TML program generator.
//!
//! Produces closed, terminating, deterministic programs over the pure
//! integer fragment (literal bindings, arithmetic with exception
//! continuations, comparisons, `==` case analysis, direct applications and
//! first-class procedure calls). Used by the property tests of `tml-opt`
//! and `tml-vm` to check that optimization preserves evaluation results,
//! preserves well-formedness, and terminates. [`gen_state_program`] adds
//! `var` cells, join points and counting loops.

use crate::ident::VarId;
use crate::lit::Lit;
use crate::term::{Abs, App, Value};
use crate::Ctx;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Configuration for the generator.
#[derive(Debug, Clone, Copy)]
pub struct GenConfig {
    /// Approximate number of binding/branching steps.
    pub steps: usize,
    /// Inclusive range of integer literals.
    pub lit_range: (i64, i64),
}

impl Default for GenConfig {
    fn default() -> Self {
        GenConfig {
            steps: 12,
            lit_range: (-100, 100),
        }
    }
}

/// Generate a closed program `(… (halt result))` from `seed`.
///
/// The returned context contains the standard primitives; the program is
/// guaranteed well-formed (checked by a debug assertion) and terminates on
/// the abstract machine.
pub fn gen_program(seed: u64, config: GenConfig) -> (Ctx, App) {
    let mut ctx = Ctx::new();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut g = Gen {
        ctx: &mut ctx,
        rng: &mut rng,
        config,
        twin: false,
    };
    let app = g.gen_app(config.steps, &mut Vec::new());
    debug_assert!(
        crate::wellformed::check_app(&ctx, &app).is_ok(),
        "generator produced ill-formed program"
    );
    (ctx, app)
}

/// Generate a closed program that also keeps state in `var` cells and
/// joins control flow through continuation parameters: the shapes a
/// back end can keep in frame slots and labels. Cells are created, read
/// and written, also inside counting loops; join points have the shape
/// `(proc(^k) … (k a) … (k b)) cont(t) …`.
///
/// With `twin`, the same seed gives the same program except that every
/// cell is also stored into a tuple and every invocation of a join
/// continuation goes through a first-class identity procedure instead:
/// the cell and the continuation escape. Both compute the same result.
pub fn gen_state_program(seed: u64, config: GenConfig, twin: bool) -> (Ctx, App) {
    let mut ctx = Ctx::new();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut g = Gen {
        ctx: &mut ctx,
        rng: &mut rng,
        config,
        twin,
    };
    let app = g.state_app(config.steps, &mut Scope::default());
    debug_assert!(
        crate::wellformed::check_app(&ctx, &app).is_ok(),
        "generator produced ill-formed program"
    );
    (ctx, app)
}

struct Gen<'a> {
    ctx: &'a mut Ctx,
    rng: &'a mut StdRng,
    config: GenConfig,
    /// [`gen_state_program`]'s escaping variant; consumes no randomness.
    twin: bool,
}

/// What is in scope for [`Gen::state_app`].
#[derive(Default)]
struct Scope {
    /// Integer-valued variables.
    env: Vec<VarId>,
    cells: Vec<VarId>,
    /// The join continuation leaves return to; `None` halts.
    ret: Option<VarId>,
    /// Enclosing loop bodies.
    loops: usize,
}

impl Gen<'_> {
    fn lit(&mut self) -> Value {
        let (lo, hi) = self.config.lit_range;
        Value::Lit(Lit::Int(self.rng.gen_range(lo..=hi)))
    }

    /// A value usable in argument position: a literal, or a bound variable.
    fn value(&mut self, env: &[VarId]) -> Value {
        if !env.is_empty() && self.rng.gen_bool(0.6) {
            Value::Var(env[self.rng.gen_range(0..env.len())])
        } else {
            self.lit()
        }
    }

    fn prim(&self, name: &str) -> Value {
        Value::Prim(self.ctx.prims.lookup(name).expect("standard prim"))
    }

    /// `cont(e)(halt e)` — exception continuation halting with the value.
    fn halting_ce(&mut self) -> Value {
        let e = self.ctx.names.fresh("exc");
        Value::from(Abs::new(
            vec![e],
            App::new(self.prim("halt"), vec![Value::Var(e)]),
        ))
    }

    fn gen_app(&mut self, budget: usize, env: &mut Vec<VarId>) -> App {
        if budget == 0 {
            let v = self.value(env);
            return App::new(self.prim("halt"), vec![v]);
        }
        match self.rng.gen_range(0..100) {
            // Bind a literal through a direct application.
            0..=24 => {
                let x = self.ctx.names.fresh("x");
                let val = self.lit();
                env.push(x);
                let body = self.gen_app(budget - 1, env);
                env.pop();
                App::new(Value::from(Abs::new(vec![x], body)), vec![val])
            }
            // Arithmetic with a halting exception continuation.
            25..=54 => {
                let op = ["+", "-", "*", "/", "%"][self.rng.gen_range(0..5usize)];
                let a = self.value(env);
                let b = self.value(env);
                let ce = self.halting_ce();
                let t = self.ctx.names.fresh("t");
                env.push(t);
                let rest = self.gen_app(budget - 1, env);
                env.pop();
                let cc = Value::from(Abs::new(vec![t], rest));
                App::new(self.prim(op), vec![a, b, ce, cc])
            }
            // Two-way comparison branch (budget split between arms).
            55..=74 => {
                let op = ["<", ">", "<=", ">=", "=", "<>"][self.rng.gen_range(0..6usize)];
                let a = self.value(env);
                let b = self.value(env);
                let half = budget / 2;
                let then_app = self.gen_app(half, env);
                let else_app = self.gen_app(budget - 1 - half, env);
                App::new(
                    self.prim(op),
                    vec![
                        a,
                        b,
                        Value::from(Abs::new(vec![], then_app)),
                        Value::from(Abs::new(vec![], else_app)),
                    ],
                )
            }
            // == case analysis with two tags and an else branch.
            75..=89 => {
                let v = self.value(env);
                let t1 = self.lit();
                let t2 = self.lit();
                let third = budget.saturating_sub(1) / 3;
                let b1 = self.gen_app(third, env);
                let b2 = self.gen_app(third, env);
                let belse = self.gen_app(budget - 1 - 2 * third, env);
                App::new(
                    self.prim("=="),
                    vec![
                        v,
                        t1,
                        t2,
                        Value::from(Abs::new(vec![], b1)),
                        Value::from(Abs::new(vec![], b2)),
                        Value::from(Abs::new(vec![], belse)),
                    ],
                )
            }
            // Define and immediately call a first-class procedure.
            _ => {
                let p = self.ctx.names.fresh("p");
                let x = self.ctx.names.fresh("a");
                let ce_p = self.ctx.names.fresh_cont("ce");
                let cc_p = self.ctx.names.fresh_cont("cc");
                // Body: (+ x 1 ce cc)
                let body = App::new(
                    self.prim("+"),
                    vec![
                        Value::Var(x),
                        Value::Lit(Lit::Int(1)),
                        Value::Var(ce_p),
                        Value::Var(cc_p),
                    ],
                );
                let procv = Value::from(Abs::new(vec![x, ce_p, cc_p], body));
                let arg = self.value(env);
                let ce = self.halting_ce();
                let t = self.ctx.names.fresh("t");
                env.push(t);
                let rest = self.gen_app(budget - 1, env);
                env.pop();
                let cc = Value::from(Abs::new(vec![t], rest));
                let call = App::new(Value::Var(p), vec![arg, ce, cc]);
                App::new(Value::from(Abs::new(vec![p], call)), vec![procv])
            }
        }
    }
}

impl Gen<'_> {
    fn state_app(&mut self, budget: usize, s: &mut Scope) -> App {
        if budget == 0 {
            let v = self.value(&s.env);
            return self.leave(s.ret, v);
        }
        let pick = self.rng.gen_range(0..100);
        let cell = |g: &mut Self, s: &Scope| s.cells[g.rng.gen_range(0..s.cells.len())];
        match pick {
            // (new 1 v cont(c) …)
            0..=14 => {
                let v = self.value(&s.env);
                let c = self.ctx.names.fresh("cell");
                s.cells.push(c);
                let mut body = self.state_app(budget - 1, s);
                s.cells.pop();
                if self.twin {
                    let tup = self.ctx.names.fresh("tup");
                    body = App::new(
                        self.prim("array"),
                        vec![Value::Var(c), Value::from(Abs::new(vec![tup], body))],
                    );
                }
                App::new(
                    self.prim("new"),
                    vec![Value::int(1), v, Value::from(Abs::new(vec![c], body))],
                )
            }
            // ([] c 0 ce cont(t) …)
            15..=34 if !s.cells.is_empty() => {
                let c = cell(self, s);
                let t = self.ctx.names.fresh("t");
                s.env.push(t);
                let rest = self.state_app(budget - 1, s);
                s.env.pop();
                let ce = self.halting_ce();
                App::new(
                    self.prim("[]"),
                    vec![
                        Value::Var(c),
                        Value::int(0),
                        ce,
                        Value::from(Abs::new(vec![t], rest)),
                    ],
                )
            }
            // ([:=] c 0 v ce cont(u) …)
            35..=49 if !s.cells.is_empty() => {
                let c = cell(self, s);
                let v = self.value(&s.env);
                let u = self.ctx.names.fresh("u");
                let rest = self.state_app(budget - 1, s);
                let ce = self.halting_ce();
                App::new(
                    self.prim("[:=]"),
                    vec![
                        Value::Var(c),
                        Value::int(0),
                        v,
                        ce,
                        Value::from(Abs::new(vec![u], rest)),
                    ],
                )
            }
            // A join point: (proc(^k) … (k v) …) cont(t) …
            50..=64 => {
                let k = self.ctx.names.fresh_cont("k");
                let t = self.ctx.names.fresh("t");
                let half = budget / 2;
                let outer = s.ret.replace(k);
                let body = self.state_app(half, s);
                s.ret = outer;
                s.env.push(t);
                let rest = self.state_app(budget - 1 - half, s);
                s.env.pop();
                App::new(
                    Value::from(Abs::new(vec![k], body)),
                    vec![Value::from(Abs::new(vec![t], rest))],
                )
            }
            // for i = 0 upto n - 1: the body joins the increment.
            65..=74 if s.loops < 2 => self.state_loop(budget, s),
            // Arithmetic, as in gen_app; its result goes straight to the
            // join continuation when that is all that is left.
            75..=89 => {
                let op = ["+", "-", "*", "/", "%"][self.rng.gen_range(0..5usize)];
                let a = self.value(&s.env);
                let b = self.value(&s.env);
                let cc = match s.ret {
                    Some(k) if budget == 1 => Value::Var(k),
                    _ => {
                        let t = self.ctx.names.fresh("t");
                        s.env.push(t);
                        let rest = self.state_app(budget - 1, s);
                        s.env.pop();
                        Value::from(Abs::new(vec![t], rest))
                    }
                };
                let ce = self.halting_ce();
                App::new(self.prim(op), vec![a, b, ce, cc])
            }
            // A two-way branch; both arms leave the same way.
            _ => {
                let a = self.value(&s.env);
                let b = self.value(&s.env);
                let half = budget / 2;
                let then_app = self.state_app(half, s);
                let else_app = self.state_app(budget - 1 - half, s);
                App::new(
                    self.prim("<"),
                    vec![
                        a,
                        b,
                        Value::from(Abs::new(vec![], then_app)),
                        Value::from(Abs::new(vec![], else_app)),
                    ],
                )
            }
        }
    }

    /// `(Y proc(^c0 ^loop ^c) (c cont() (loop 0) cont(i)
    ///    (< i n cont() ((proc(^step) body) cont(_) (+ i 1 ce loop))
    ///             cont() exit)))`
    fn state_loop(&mut self, budget: usize, s: &mut Scope) -> App {
        let n = self.rng.gen_range(1..=4);
        let c0 = self.ctx.names.fresh_cont("c0");
        let lp = self.ctx.names.fresh_cont("loop");
        let ret = self.ctx.names.fresh_cont("c");
        let i = self.ctx.names.fresh("i");
        let step = self.ctx.names.fresh_cont("step");
        let done = self.ctx.names.fresh("t");
        let half = budget / 2;
        let outer = s.ret.replace(step);
        s.env.push(i);
        s.loops += 1;
        let body = self.state_app(half, s);
        s.loops -= 1;
        s.env.pop();
        s.ret = outer;
        let exit = self.state_app(budget - 1 - half, s);
        let ce = self.halting_ce();
        let next = App::new(
            self.prim("+"),
            vec![Value::Var(i), Value::int(1), ce, Value::Var(lp)],
        );
        let iter = App::new(
            Value::from(Abs::new(vec![step], body)),
            vec![Value::from(Abs::new(vec![done], next))],
        );
        let head = App::new(
            self.prim("<"),
            vec![
                Value::Var(i),
                Value::int(n),
                Value::from(Abs::new(vec![], iter)),
                Value::from(Abs::new(vec![], exit)),
            ],
        );
        let entry = Abs::new(vec![], App::new(Value::Var(lp), vec![Value::int(0)]));
        let y = Abs::new(
            vec![c0, lp, ret],
            App::new(
                Value::Var(ret),
                vec![Value::from(entry), Value::from(Abs::new(vec![i], head))],
            ),
        );
        App::new(self.prim("Y"), vec![Value::from(y)])
    }

    /// Leave with `v`: halt, or invoke the join continuation — in the twin
    /// through `(cont(id) (id v ce k)) proc(x ^ce ^cc) (cc x)`.
    fn leave(&mut self, ret: Option<VarId>, v: Value) -> App {
        let Some(k) = ret else {
            return App::new(self.prim("halt"), vec![v]);
        };
        if !self.twin {
            return App::new(Value::Var(k), vec![v]);
        }
        let id = self.ctx.names.fresh("id");
        let x = self.ctx.names.fresh("x");
        let ce = self.ctx.names.fresh_cont("ce");
        let cc = self.ctx.names.fresh_cont("cc");
        let idp = Abs::new(
            vec![x, ce, cc],
            App::new(Value::Var(cc), vec![Value::Var(x)]),
        );
        let call = App::new(Value::Var(id), vec![v, self.halting_ce(), Value::Var(k)]);
        App::new(
            Value::from(Abs::new(vec![id], call)),
            vec![Value::from(idp)],
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wellformed::check_app;

    #[test]
    fn generated_programs_are_well_formed() {
        for seed in 0..50 {
            let (ctx, app) = gen_program(seed, GenConfig::default());
            check_app(&ctx, &app).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        }
    }

    #[test]
    fn generated_programs_are_closed() {
        for seed in 0..20 {
            let (_, app) = gen_program(seed, GenConfig::default());
            assert!(
                crate::free::is_closed_app(&app),
                "seed {seed} produced open program"
            );
        }
    }

    #[test]
    fn state_programs_and_twins_are_well_formed_and_closed() {
        for seed in 0..100 {
            for twin in [false, true] {
                let (ctx, app) = gen_state_program(seed, GenConfig::default(), twin);
                check_app(&ctx, &app).unwrap_or_else(|e| panic!("seed {seed}/{twin}: {e}"));
                assert!(crate::free::is_closed_app(&app), "seed {seed}/{twin}");
            }
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let (_, a) = gen_program(42, GenConfig::default());
        let (_, b) = gen_program(42, GenConfig::default());
        assert_eq!(a, b);
    }

    #[test]
    fn bigger_budgets_give_bigger_programs() {
        let small = gen_program(
            7,
            GenConfig {
                steps: 2,
                ..Default::default()
            },
        )
        .1;
        let large = gen_program(
            7,
            GenConfig {
                steps: 40,
                ..Default::default()
            },
        )
        .1;
        assert!(large.size() > small.size());
    }
}
