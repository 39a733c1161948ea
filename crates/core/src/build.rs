//! A programmatic builder for CPS terms.
//!
//! Writing TML by hand quickly becomes tedious; front ends and tests use
//! this builder to construct well-formed terms without repeating the
//! boilerplate of fresh-variable generation and continuation plumbing.

use crate::ident::VarId;
use crate::lit::Lit;
use crate::term::{Abs, App, Value};
use crate::Ctx;

/// Builder over a mutable context.
pub struct Builder<'a> {
    /// The underlying context (name and primitive tables).
    pub ctx: &'a mut Ctx,
}

impl<'a> Builder<'a> {
    /// Create a builder.
    pub fn new(ctx: &'a mut Ctx) -> Self {
        Builder { ctx }
    }

    /// Fresh value variable.
    pub fn var(&mut self, base: &str) -> VarId {
        self.ctx.names.fresh(base)
    }

    /// Fresh continuation variable.
    pub fn kvar(&mut self, base: &str) -> VarId {
        self.ctx.names.fresh_cont(base)
    }

    /// Look up a primitive by name.
    ///
    /// # Panics
    /// Panics if the primitive is unknown — builders are used with a fully
    /// populated context.
    pub fn prim(&self, name: &str) -> Value {
        Value::Prim(
            self.ctx
                .prims
                .lookup(name)
                .unwrap_or_else(|| panic!("unknown primitive {name:?}")),
        )
    }

    /// `(prim args…)` — apply a primitive.
    pub fn primapp(&self, name: &str, args: Vec<Value>) -> App {
        App::new(self.prim(name), args)
    }

    /// `cont(params…) body` — a continuation abstraction.
    pub fn cont(&self, params: Vec<VarId>, body: App) -> Value {
        Value::from(Abs::new(params, body))
    }

    /// `proc(params… ce cc) body` built from the body-producing closure,
    /// which receives the fresh exception and normal continuation
    /// variables. Returns the abstraction value.
    pub fn proc_abs(
        &mut self,
        params: Vec<VarId>,
        make_body: impl FnOnce(&mut Builder<'_>, VarId, VarId) -> App,
    ) -> Value {
        let ce = self.kvar("ce");
        let cc = self.kvar("cc");
        let body = make_body(&mut Builder { ctx: self.ctx }, ce, cc);
        let mut all = params;
        all.push(ce);
        all.push(cc);
        Value::from(Abs::new(all, body))
    }

    /// `let v = val in body` — the CPS encoding `(cont(v) body val)`.
    pub fn let_(&self, v: VarId, val: Value, body: App) -> App {
        App::new(self.cont(vec![v], body), vec![val])
    }

    /// `(halt v)` — terminate the program with a result.
    pub fn halt(&self, v: Value) -> App {
        self.primapp("halt", vec![v])
    }

    /// An exception continuation that halts with the exception value —
    /// handy as a top-level `ce`.
    pub fn halt_on_error(&mut self) -> Value {
        let e = self.var("exc");
        let body = self.halt(Value::Var(e));
        self.cont(vec![e], body)
    }

    /// Arithmetic step: `(op a b ce cont(t) rest)` where `rest` is built
    /// with the fresh result variable `t`.
    pub fn arith(
        &mut self,
        op: &str,
        a: Value,
        b: Value,
        ce: Value,
        rest: impl FnOnce(&mut Builder<'_>, VarId) -> App,
    ) -> App {
        let t = self.var("t");
        let body = rest(&mut Builder { ctx: self.ctx }, t);
        let k = self.cont(vec![t], body);
        self.primapp(op, vec![a, b, ce, k])
    }

    /// Branch step: `(op a b cont() then cont() else)`.
    pub fn branch(&self, op: &str, a: Value, b: Value, then_app: App, else_app: App) -> App {
        let t = self.cont(vec![], then_app);
        let e = self.cont(vec![], else_app);
        self.primapp(op, vec![a, b, t, e])
    }

    /// Call a first-class procedure: `(f args… ce cont(t) rest)`.
    pub fn call(
        &mut self,
        f: Value,
        mut args: Vec<Value>,
        ce: Value,
        rest: impl FnOnce(&mut Builder<'_>, VarId) -> App,
    ) -> App {
        let t = self.var("t");
        let body = rest(&mut Builder { ctx: self.ctx }, t);
        let k = self.cont(vec![t], body);
        args.push(ce);
        args.push(k);
        App::new(f, args)
    }

    /// Integer literal value.
    pub fn int(&self, n: i64) -> Value {
        Value::Lit(Lit::Int(n))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wellformed::check_app;

    #[test]
    fn let_builds_direct_application() {
        let mut ctx = Ctx::new();
        let mut b = Builder::new(&mut ctx);
        let x = b.var("x");
        let body = b.halt(Value::Var(x));
        let app = b.let_(x, b.int(13), body);
        check_app(&ctx, &app).unwrap();
        assert_eq!(app.args, vec![Value::int(13)]);
    }

    #[test]
    fn arith_chain_is_well_formed() {
        let mut ctx = Ctx::new();
        let mut b = Builder::new(&mut ctx);
        let ce = b.halt_on_error();
        let app = b.arith("+", b.int(1), b.int(2), ce, |b, t| {
            let ce2 = b.halt_on_error();
            b.arith("*", Value::Var(t), b.int(3), ce2, |b, u| {
                b.halt(Value::Var(u))
            })
        });
        check_app(&ctx, &app).unwrap();
    }

    #[test]
    fn branch_is_well_formed() {
        let mut ctx = Ctx::new();
        let b = Builder::new(&mut ctx);
        let then_app = b.halt(b.int(1));
        let else_app = b.halt(b.int(0));
        let app = b.branch("<", b.int(3), b.int(4), then_app, else_app);
        check_app(&ctx, &app).unwrap();
    }

    #[test]
    fn proc_and_call() {
        let mut ctx = Ctx::new();
        let mut b = Builder::new(&mut ctx);
        // proc(x ce cc) (+ x 1 ce cc)
        let x = b.var("x");
        let inc = b.proc_abs(vec![x], |b, ce, cc| {
            b.primapp(
                "+",
                vec![Value::Var(x), b.int(1), Value::Var(ce), Value::Var(cc)],
            )
        });
        let f = b.var("f");
        let ce = b.halt_on_error();
        let call = b.call(Value::Var(f), vec![b.int(41)], ce, |b, t| {
            b.halt(Value::Var(t))
        });
        let app = b.let_(f, inc, call);
        check_app(&ctx, &app).unwrap();
    }

    #[test]
    #[should_panic(expected = "unknown primitive")]
    fn unknown_prim_panics() {
        let mut ctx = Ctx::empty();
        let b = Builder::new(&mut ctx);
        let _ = b.prim("definitely-not-a-prim");
    }
}
