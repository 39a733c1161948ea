//! TML → bytecode compilation.
//!
//! Every abstraction used as a *value* compiles to its own
//! [`CodeBlock`] whose environment layout is the abstraction's free
//! variables in first-occurrence order. Abstractions appearing *inline*
//! compile to straight-line code and labels within the enclosing block,
//! with no closure and no transfer:
//!
//! * the functional position of a direct application;
//! * a continuation argument a primitive's hook compiles through
//!   `value_cont`/`branch_cont`;
//! * a **join point**, the abstraction bound to a continuation parameter
//!   of a direct application, `(proc(^k) … (k a) … (k b)) cont(t) …`:
//!   placed under a label after the body, so `(k v)` becomes moves plus a
//!   jump;
//! * the members of a `Y` fixpoint: loops.
//!
//! A `var` cell `(new 1 v cont(c) …)` whose every use is `([] c 0 …)` or
//! `([:=] c 0 v …)` is **promoted** to a frame slot: a read is one move
//! out, a write one move in. All of this holds only while the binder
//! never leaves the block, which one pre-pass per procedure ([`plan`])
//! decides before any code is emitted: a binder falls back to a closure
//! (a store array for a cell) when it is used as a value, invoked with
//! another arity, or used inside an abstraction compiled as a closure —
//! including one kept inline by a binder that fell back, so fallback
//! propagates to a fixpoint. The per-call cost difference between inline
//! and closure code is exactly what the paper's dynamic optimization
//! removes. Malformed or oversized input (decoded persistent code
//! included) fails with a typed [`CompileError`], never a panic.
//!
//! A continuation that leaves its block without escaping (rule 3) is a
//! **return frame** on the machine's control stack, not a heap closure
//! ([`Instr::Push`]):
//!
//! * the continuation abstraction passed as a call's `c꜀`, with a fresh
//!   `cₑ` as its exception landing pad in the same frame;
//! * a join point that falls back, pushed where it is bound, unless its
//!   scope can be left through a label or loop bound outside it (the
//!   frame would never be popped): the pre-pass reports those as *leaky*.
//!
//! A continuation used any other way (a handler, a loop that falls back,
//! a leaky join point) is a heap closure as before.

use crate::instr::{self, CodeBlock, CodeTable, ContRef, GroupCap, Instr, Src};
use std::sync::Arc;
use tml_core::emit::{CellOp, ContId, EmitCtx, EmitError, MachOp, Operand, Reg};
use tml_core::free::free_vars_abs;
use tml_core::prim::Arity;
use tml_core::term::{Abs, AbsKind, App, Value};
use tml_core::{Ctx, Lit, VarId};
use tml_store::SVal;

/// Compilation errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CompileError {
    /// A variable is not in scope (ill-formed input).
    Unbound(String),
    /// A primitive appeared in a value position.
    PrimAsValue(String),
    /// A primitive application has an unsupported shape.
    BadShape(String),
    /// A program expected to be closed has free variables.
    OpenProgram(String),
    /// A primitive has neither an inline code-generation hook nor the
    /// generic `(vals… ce cc)` calling convention: the registry in scope
    /// does not know how to compile it.
    UnknownPrim {
        /// The primitive's registered name.
        name: String,
        /// Call site: enclosing block and instruction offset.
        site: String,
    },
    /// A block needs more than the 65,535 frame slots, parameters or
    /// pool entries a 16-bit operand can address.
    TooLarge(String),
    /// Internal compiler invariant breached (a bug, or compilation of a
    /// decoded term the validators did not reject). Reported as an error
    /// rather than a panic so corrupted persistent code cannot take the
    /// host down.
    Internal(String),
}

impl std::fmt::Display for CompileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CompileError::Unbound(v) => write!(f, "unbound variable {v}"),
            CompileError::PrimAsValue(p) => write!(f, "primitive {p} used as a value"),
            CompileError::BadShape(m) => write!(f, "unsupported primitive application: {m}"),
            CompileError::OpenProgram(v) => write!(f, "program has free variable {v}"),
            CompileError::UnknownPrim { name, site } => {
                write!(f, "unknown primitive {name} at {site}")
            }
            CompileError::TooLarge(b) => write!(f, "block {b} exceeds 65,535 slots"),
            CompileError::Internal(m) => write!(f, "internal compiler error: {m}"),
        }
    }
}

impl std::error::Error for CompileError {}

/// A compiled procedure: its block and the capture order (free variables)
/// the caller must supply as the closure environment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompiledProc {
    /// The code block.
    pub block: u32,
    /// Free variables, in environment order.
    pub captures: Vec<VarId>,
}

type IdMap<V> = instr::IdMap<VarId, V>;
type IdSet = instr::IdSet<VarId>;

/// Variable location within a block.
#[derive(Debug, Clone, Copy)]
enum Loc {
    Slot(u16),
    Env(u16),
    /// A constant-pool entry (the unit a promoted cell write passes on).
    Const(u16),
    /// A join point or `Y` member compiled as a label: invoking it moves
    /// the arguments into its parameter slots and jumps.
    Label(usize),
    /// A promoted cell: the frame slot holding its contents.
    Cell(u16),
}

/// Compile the procedure `abs` into `code` (see
/// [`Compiler::compile_proc`]), timed as the `vm.compile` span.
pub fn compile_proc(ctx: &Ctx, code: &CodeTable, abs: &Abs) -> Result<CompiledProc, CompileError> {
    let _s = tml_trace::span!("vm.compile");
    Compiler::new(ctx, code).compile_proc(abs)
}

/// The TML-to-bytecode compiler.
pub struct Compiler<'a> {
    ctx: &'a Ctx,
    code: &'a CodeTable,
    /// Recycled continuation-handle buffer for [`Emitter`]: codegen hooks
    /// run once per primitive application, and reusing one allocation
    /// across them keeps the hook path as cheap as the old hard-wired
    /// dispatch. Taken on hook entry, cleared and returned on exit
    /// (nested hooks — a closure continuation containing primitives —
    /// simply find it empty and allocate their own).
    pend_pool: Vec<Pend>,
    /// The binders [`plan`] keeps in their block.
    inline: IdSet,
    /// Join points whose scope [`plan`] found may be left without
    /// invoking them: these fall back to closures, not frames.
    leaky: IdSet,
}

impl<'a> Compiler<'a> {
    /// Create a compiler appending to `code`.
    pub fn new(ctx: &'a Ctx, code: &'a CodeTable) -> Self {
        Compiler {
            ctx,
            code,
            pend_pool: Vec::new(),
            inline: IdSet::default(),
            leaky: IdSet::default(),
        }
    }

    /// Compile a procedure. Its free variables become the closure captures.
    pub fn compile_proc(&mut self, abs: &Abs) -> Result<CompiledProc, CompileError> {
        (self.inline, self.leaky) = plan(self.ctx, &abs.body);
        let captures = free_vars_abs(abs);
        let block = self.compile_block(abs, &captures, "proc")?;
        Ok(CompiledProc { block, captures })
    }

    fn compile_block(
        &mut self,
        abs: &Abs,
        captures: &[VarId],
        name: &str,
    ) -> Result<u32, CompileError> {
        let name = format!("{name}/{}", self.code.len());
        let nparams =
            u16::try_from(abs.params.len()).map_err(|_| CompileError::TooLarge(name.clone()))?;
        let mut b = Block {
            out: CodeBlock {
                name,
                nparams,
                ..Default::default()
            },
            next_slot: 0,
            overflow: false,
            locs: IdMap::default(),
            labels: Vec::new(),
            label_params: Vec::new(),
            jumps: Vec::new(),
        };
        for (i, &v) in captures.iter().enumerate() {
            let e = b.index(i);
            b.locs.insert(v, Loc::Env(e));
        }
        for &p in &abs.params {
            let s = b.fresh_slot();
            b.locs.insert(p, Loc::Slot(s));
        }
        self.compile_app(&mut b, &abs.body)?;
        Ok(self.code.push(b.finish()?))
    }

    fn compile_app(&mut self, b: &mut Block, app: &App) -> Result<(), CompileError> {
        match &app.func {
            Value::Abs(abs) => self.compile_direct(b, abs, &app.args),
            Value::Var(_) => {
                let args = self.call_args(b, &app.args)?;
                self.transfer(b, &app.func, args)
            }
            Value::Prim(p) => self.compile_prim(b, *p, app),
            Value::Lit(l) => Err(CompileError::BadShape(format!(
                "literal {l:?} in functional position"
            ))),
        }
    }

    /// Direct application: bind arguments to fresh slots and fall through
    /// into the body — no call, no closure. A join point's abstraction is
    /// placed under its label after the body.
    fn compile_direct(
        &mut self,
        b: &mut Block,
        abs: &Abs,
        args: &[Value],
    ) -> Result<(), CompileError> {
        if abs.params.len() != args.len() {
            return Err(CompileError::BadShape(format!(
                "direct application of arity {} to {} arguments",
                abs.params.len(),
                args.len()
            )));
        }
        let mut joins = Vec::new();
        for (&p, a) in abs.params.iter().zip(args) {
            let loc = match a {
                Value::Abs(k) if self.inline.contains(&p) => {
                    let id = b.new_label(k.params.len());
                    joins.push((id, k.as_ref()));
                    Loc::Label(id)
                }
                _ => {
                    let src = match a {
                        // A join point used outside its block, whose scope
                        // is left only through it (or by unwinding below
                        // it): a frame under the code of its scope.
                        Value::Abs(k)
                            if self.ctx.names.is_cont(p)
                                && k.kind(&self.ctx.names) == AbsKind::Cont
                                && !self.leaky.contains(&p) =>
                        {
                            tml_trace::count("vm.compile.join_frames", 1);
                            self.push_frame(b, &[Arc::clone(k)])?[0]
                        }
                        _ => {
                            if matches!(a, Value::Abs(_)) && self.ctx.names.is_cont(p) {
                                tml_trace::count("vm.compile.join_closures", 1);
                            }
                            self.resolve(b, a)?
                        }
                    };
                    let s = b.fresh_slot();
                    b.emit(Instr::Mov { dst: s, src });
                    Loc::Slot(s)
                }
            };
            b.locs.insert(p, loc);
        }
        self.compile_app(b, &abs.body)?;
        for (id, k) in joins {
            tml_trace::count("vm.compile.join_points", 1);
            self.place(b, id, k)?;
        }
        Ok(())
    }

    /// Place label `id` here and compile `abs`'s body under it, its
    /// parameters bound to the label's slots.
    fn place(&mut self, b: &mut Block, id: usize, abs: &Abs) -> Result<(), CompileError> {
        // A jump here from the instruction just before falls through.
        if b.jumps.last() == Some(&(b.out.instrs.len().wrapping_sub(1), None, id)) {
            b.jumps.pop();
            b.out.instrs.pop();
        }
        b.labels[id] = Some(b.out.instrs.len() as u32);
        for (&p, &s) in abs.params.iter().zip(&b.label_params[id]) {
            b.locs.insert(p, Loc::Slot(s));
        }
        self.compile_app(b, &abs.body)
    }

    /// Operands for a call's arguments. A continuation abstraction as the
    /// last argument (`c꜀`) becomes an exit of a return frame pushed just
    /// before the call, not a heap closure; one as `cₑ` rides in the same
    /// frame as its landing pad. Both exit blocks take the union of their
    /// free variables as captures.
    fn call_args(&mut self, b: &mut Block, args: &[Value]) -> Result<Vec<Src>, CompileError> {
        let ctx = self.ctx;
        let names = &ctx.names;
        let exit = move |v: Option<&Value>| match v {
            Some(Value::Abs(k)) if k.kind(names) == AbsKind::Cont => Some(Arc::clone(k)),
            _ => None,
        };
        let n = args.len();
        let Some(cc) = exit(args.last()) else {
            return args.iter().map(|a| self.resolve(b, a)).collect();
        };
        let ce = n.checked_sub(2).and_then(|i| exit(args.get(i)));
        let values = n - 1 - usize::from(ce.is_some());
        let mut srcs = args[..values]
            .iter()
            .map(|a| self.resolve(b, a))
            .collect::<Result<Vec<_>, _>>()?;
        let exits: Vec<Arc<Abs>> = ce.into_iter().chain([cc]).collect();
        srcs.extend(self.push_frame(b, &exits)?);
        Ok(srcs)
    }

    /// Push one return frame whose exits are `exits` (in argument order;
    /// the frame lists the last, the normal return, first), compiled with
    /// the union of their free variables as captures. Returns the slots
    /// holding the exits' stack continuations, in argument order.
    fn push_frame(&mut self, b: &mut Block, exits: &[Arc<Abs>]) -> Result<Vec<Src>, CompileError> {
        let mut captures = exits[0].free_vars().to_vec();
        for k in &exits[1..] {
            for &v in k.free_vars() {
                if !captures.contains(&v) {
                    captures.push(v);
                }
            }
        }
        let cap_srcs = captures
            .iter()
            .map(|&c| self.resolve(b, &Value::Var(c)))
            .collect::<Result<Vec<_>, _>>()?;
        let mut frame = Vec::with_capacity(exits.len());
        let mut srcs = Vec::with_capacity(exits.len());
        for k in exits {
            let block = self.compile_block(k, &captures, "ret")?;
            let dst = b.fresh_slot();
            srcs.push(Src::Slot(dst));
            frame.push((block, dst));
        }
        frame.reverse();
        b.emit(Instr::Push {
            exits: frame.into_boxed_slice(),
            captures: cap_srcs.into_boxed_slice(),
        });
        Ok(srcs)
    }

    /// Transfer control to `target` with `args`: moves plus a jump for a
    /// label, a closure call otherwise.
    fn transfer(
        &mut self,
        b: &mut Block,
        target: &Value,
        args: Vec<Src>,
    ) -> Result<(), CompileError> {
        if let Value::Var(x) = target {
            if let Some(Loc::Label(id)) = b.locs.get(x).copied() {
                return b.jump(id, args);
            }
        }
        let target = self.resolve(b, target)?;
        b.emit(Instr::Call {
            target,
            args: args.into_boxed_slice(),
        });
        Ok(())
    }

    /// Resolve a value to an operand, emitting closure creation as needed.
    fn resolve(&mut self, b: &mut Block, v: &Value) -> Result<Src, CompileError> {
        match v {
            Value::Lit(l) => Ok(b.const_src(lit_to_sval(l))),
            Value::Var(x) => match b.locs.get(x) {
                Some(Loc::Slot(s)) => Ok(Src::Slot(*s)),
                Some(Loc::Env(e)) => Ok(Src::Env(*e)),
                Some(Loc::Const(c)) => Ok(Src::Const(*c)),
                // The pre-pass keeps a binder in the block only when it is
                // never a value; a hook that resolves an argument
                // differently in the pre-pass lands here.
                Some(Loc::Label(_) | Loc::Cell(_)) => Err(CompileError::Internal(format!(
                    "{} is compiled into its block but used as a value",
                    self.ctx.names.display(*x)
                ))),
                None => Err(CompileError::Unbound(self.ctx.names.display(*x))),
            },
            Value::Prim(p) => Err(CompileError::PrimAsValue(
                self.ctx.prims.name(*p).to_string(),
            )),
            Value::Abs(abs) => {
                let captures = free_vars_abs(abs);
                let cap_srcs: Vec<Src> = captures
                    .iter()
                    .map(|&c| self.resolve(b, &Value::Var(c)))
                    .collect::<Result<_, _>>()?;
                let block = self.compile_block(abs, &captures, "clo")?;
                let dst = b.fresh_slot();
                b.emit(Instr::Close {
                    dst,
                    code: block,
                    captures: cap_srcs.into_boxed_slice(),
                    cont: abs.kind(&self.ctx.names) == AbsKind::Cont,
                });
                Ok(Src::Slot(dst))
            }
        }
    }

    // -- Continuation plumbing ----------------------------------------------

    /// Compile a continuation argument of a primitive. `dst` is the
    /// register the primitive writes its result (or exception value) to,
    /// `None` for a nullary branch continuation. Besides inline
    /// abstractions, a continuation may be a label: it compiles to a jump
    /// stub moving `dst` into the label's parameter slot.
    fn cont(
        &mut self,
        b: &mut Block,
        cont: &Value,
        dst: Option<u16>,
    ) -> Result<Pend, CompileError> {
        match cont {
            Value::Abs(abs) if dst.is_some() || abs.params.is_empty() => {
                match (abs.params.as_slice(), dst) {
                    ([], _) => {}
                    ([p], Some(d)) => {
                        b.locs.insert(*p, Loc::Slot(d));
                    }
                    (ps, _) => {
                        return Err(CompileError::BadShape(format!(
                            "primitive continuation with {} parameters",
                            ps.len()
                        )))
                    }
                }
                Ok(Pend::Inline(Arc::clone(abs)))
            }
            Value::Var(x) => match b.locs.get(x) {
                Some(&Loc::Label(label)) if b.label_params[label].len() == dst.iter().len() => {
                    Ok(Pend::Stub { label, arg: dst })
                }
                Some(Loc::Label(_)) => Err(CompileError::Internal(format!(
                    "label {} has the wrong arity for this continuation",
                    self.ctx.names.display(*x)
                ))),
                _ => Ok(Pend::Closure(self.resolve(b, cont)?)),
            },
            _ => Ok(Pend::Closure(self.resolve(b, cont)?)),
        }
    }

    /// Emit `instr`, whose continuation fields hold indices into `pend`,
    /// then compile the inline continuations and jump stubs in the
    /// instruction's edge order.
    fn finish(
        &mut self,
        b: &mut Block,
        mut instr: Instr,
        pend: &[Pend],
    ) -> Result<(), CompileError> {
        let mut edges = Vec::new();
        while let Some(r) = instr.edge_mut(edges.len()) {
            let p = match *r {
                ContRef::Label(i) => pend.get(i as usize).cloned(),
                ContRef::Closure(_) => None,
            };
            let p =
                p.ok_or_else(|| CompileError::BadShape("invalid continuation handle".into()))?;
            if let Pend::Closure(src) = p {
                *r = ContRef::Closure(src);
            }
            edges.push(p);
        }
        // A label taking the result, when no other edge reads the result
        // register (closures receive the value, not the register): write
        // the result straight into the label's parameter and jump from the
        // instruction itself, with no stub.
        let mut labels = edges.iter_mut().filter(|p| !matches!(p, Pend::Closure(_)));
        if let (Some(Pend::Stub { label, arg }), None) = (labels.next(), labels.next()) {
            if let (Some(d), [param], Some(dst)) =
                (*arg, b.label_params[*label].as_slice(), instr.dst_mut())
            {
                if *dst == d {
                    *dst = *param;
                    *arg = None;
                }
            }
        }
        let at = b.out.instrs.len();
        b.emit(instr);
        for (e, p) in edges.into_iter().enumerate() {
            let here = ContRef::Label(b.out.instrs.len() as u32);
            match p {
                Pend::Closure(_) => {}
                Pend::Inline(abs) => {
                    b.set_edge(at, e, here);
                    self.compile_app(b, &abs.body)?;
                }
                Pend::Stub { label, arg: None } => b.jumps.push((at, Some(e), label)),
                Pend::Stub {
                    label,
                    arg: Some(d),
                } => {
                    b.set_edge(at, e, here);
                    b.jump(label, vec![Src::Slot(d)])?;
                }
            }
        }
        Ok(())
    }

    // -- Primitive dispatch --------------------------------------------------

    /// Compile a primitive application through the registry: the prim's
    /// registered [`tml_core::emit::CodegenFn`] hook emits inline machine
    /// code through an [`Emitter`]; prims without a hook fall back to the
    /// generic [`Instr::CallPrim`] dispatch under the standard
    /// `(vals… ce cc)` convention, resolved by name against the machine's
    /// host-function table at run time.
    fn compile_prim(
        &mut self,
        b: &mut Block,
        prim: tml_core::PrimId,
        app: &App,
    ) -> Result<(), CompileError> {
        let def = self.ctx.prims.def(prim);
        let conts = def.signature.conts;
        let n = app.args.len();

        if let Some(hook) = def.codegen {
            tml_trace::count("vm.prim.inline", 1);
            let pend = std::mem::take(&mut self.pend_pool);
            let mut e = Emitter {
                comp: self,
                b,
                pend,
                host_err: None,
            };
            let hooked = hook(&mut e, app);
            let host_err = e.host_err.take();
            let mut pend = e.pend;
            pend.clear();
            self.pend_pool = pend;
            return match hooked {
                Ok(()) => Ok(()),
                Err(EmitError::Host) => Err(host_err.unwrap_or_else(|| {
                    CompileError::Internal(format!(
                        "{}: hook lost its error",
                        self.ctx.prims.name(prim)
                    ))
                })),
                Err(EmitError::BadShape(m)) => Err(CompileError::BadShape(format!(
                    "{}: {m}",
                    self.ctx.prims.name(prim)
                ))),
            };
        }

        // Generic fallback: standard (vals… ce cc) convention.
        if conts == Arity::Exact(2) && n >= 2 {
            tml_trace::count("vm.prim.callprim", 1);
            let name = def.name.clone();
            return self.compile_callprim(
                b,
                &name,
                &app.args[..n - 2],
                &app.args[n - 2],
                &app.args[n - 1],
            );
        }
        Err(CompileError::UnknownPrim {
            name: self.ctx.prims.name(prim).to_string(),
            site: format!("{}@{}", b.out.name, b.out.instrs.len()),
        })
    }

    fn compile_callprim(
        &mut self,
        b: &mut Block,
        name: &str,
        vals: &[Value],
        ce: &Value,
        cc: &Value,
    ) -> Result<(), CompileError> {
        let args: Vec<Src> = vals
            .iter()
            .map(|a| self.resolve(b, a))
            .collect::<Result<_, _>>()?;
        let prim_ix = b.prim_ix(name);
        let dst = b.fresh_slot();
        let pend = [self.cont(b, ce, Some(dst))?, self.cont(b, cc, Some(dst))?];
        let instr = Instr::CallPrim {
            prim: prim_ix,
            dst,
            args: args.into_boxed_slice(),
            on_err: ContRef::Label(0),
            on_ok: ContRef::Label(1),
        };
        self.finish(b, instr, &pend)
    }

    /// Compile `(Y λ(c₀ v₁…vₙ c)(c entry abs₁…absₙ))`: as intra-block loops
    /// when the pre-pass kept the group, else as a closure group.
    fn compile_y(&mut self, b: &mut Block, app: &App) -> Result<(), CompileError> {
        let mut y = Fixpoint::parse(app)?;
        // Anything restarting the loop through c₀ makes the entry a member.
        let c0_used = y
            .bodies()
            .any(|a| tml_core::census::occurrences_in_app(&a.body, y.c0) > 0);
        if c0_used {
            y.members.push((y.c0, y.entry));
        }
        if self.inline.contains(&y.c0) {
            // A label and parameter slots per member, bound before any
            // body is compiled so mutual and forward references resolve.
            let ids: Vec<usize> = y
                .members
                .iter()
                .map(|&(v, abs)| {
                    let id = b.new_label(abs.params.len());
                    b.locs.insert(v, Loc::Label(id));
                    id
                })
                .collect();
            match (c0_used, ids.last()) {
                // The entry is itself a member; start by jumping to it.
                (true, Some(&entry)) => b.jump(entry, Vec::new())?,
                _ => self.compile_app(b, &y.entry.body)?,
            }
            for (id, &(_, abs)) in ids.into_iter().zip(&y.members) {
                self.place(b, id, abs)?;
            }
            return Ok(());
        }
        let mut dsts = Vec::with_capacity(y.members.len());
        for &(v, _) in &y.members {
            let s = b.fresh_slot();
            b.locs.insert(v, Loc::Slot(s));
            dsts.push(s);
        }
        // Compile each member block; classify captures as group members or
        // external operands.
        let member_vars: Vec<VarId> = y.members.iter().map(|&(v, _)| v).collect();
        let mut parts = Vec::with_capacity(y.members.len());
        for &(_, abs) in &y.members {
            let captures = free_vars_abs(abs);
            let mut caps = Vec::with_capacity(captures.len());
            for &cvar in &captures {
                if let Some(j) = member_vars.iter().position(|&m| m == cvar) {
                    caps.push(GroupCap::Member(b.index(j)));
                } else {
                    caps.push(GroupCap::Ext(self.resolve(b, &Value::Var(cvar))?));
                }
            }
            let block = self.compile_block(abs, &captures, "rec")?;
            parts.push((block, caps.into_boxed_slice()));
        }
        let names = &self.ctx.names;
        b.emit(Instr::CloseGroup {
            dsts: dsts.into_boxed_slice(),
            parts: parts.into_boxed_slice(),
            cont: y.members.iter().all(|m| m.1.kind(names) == AbsKind::Cont),
        });
        if c0_used {
            // Invoke the entry through its closure.
            let c0_src = self.resolve(b, &Value::Var(y.c0))?;
            b.emit(Instr::Call {
                target: c0_src,
                args: Box::new([]),
            });
            Ok(())
        } else {
            // Fall through into the entry body.
            self.compile_app(b, &y.entry.body)
        }
    }

    /// Compile a cell operation on a promoted cell. `Ok(false)` leaves the
    /// application to the hook's store-array lowering.
    fn compile_cell(&mut self, b: &mut Block, op: CellOp, app: &App) -> Result<bool, CompileError> {
        let Some((cell, value, cont)) = cell_site(op, app) else {
            return Ok(false);
        };
        let slot = match (op, b.locs.get(&cell)) {
            (CellOp::New, _) => {
                if !self.inline.contains(&cell) {
                    tml_trace::count("vm.compile.cells_boxed", 1);
                    return Ok(false);
                }
                tml_trace::count("vm.compile.cells_promoted", 1);
                b.fresh_slot()
            }
            (_, Some(Loc::Cell(s))) => *s,
            _ => return Ok(false),
        };
        if let Some(v) = value {
            let src = self.resolve(b, v)?;
            b.emit(Instr::Mov { dst: slot, src });
        }
        // A read passes a copy of the slot, since the next write changes
        // it; a write passes unit, a constant bound without a move.
        let arg = match op {
            CellOp::New => None,
            CellOp::Get => Some(Src::Slot(slot)),
            CellOp::Set => Some(b.const_src(SVal::Unit)),
        };
        match (cont, arg) {
            (Value::Abs(k), None) => {
                b.locs.insert(cell, Loc::Cell(slot));
                self.compile_app(b, &k.body)?;
            }
            (Value::Abs(k), Some(src)) => {
                if let [p] = k.params[..] {
                    let loc = match src {
                        Src::Const(c) => Loc::Const(c),
                        _ => {
                            let t = b.fresh_slot();
                            b.emit(Instr::Mov { dst: t, src });
                            Loc::Slot(t)
                        }
                    };
                    b.locs.insert(p, loc);
                }
                self.compile_app(b, &k.body)?;
            }
            (_, arg) => self.transfer(b, cont, arg.into_iter().collect())?,
        }
        Ok(true)
    }
}

/// The parts of a [`CellOp`]-shaped application: the cell variable (the
/// binder of `(new 1 v cont(c) …)`, or the `c` of `([] c 0 ce cc)` and
/// `([:=] c 0 v ce cc)`), the value stored (`v`), and the continuation
/// (`new`'s binding abstraction, `cc`). `None` for any other shape.
fn cell_site(op: CellOp, app: &App) -> Option<(VarId, Option<&Value>, &Value)> {
    match (op, app.args.as_slice()) {
        (CellOp::New, [Value::Lit(Lit::Int(1)), v, k @ Value::Abs(a)]) => match a.params[..] {
            [c] => Some((c, Some(v), k)),
            _ => None,
        },
        (CellOp::Get, [Value::Var(c), Value::Lit(Lit::Int(0)), _, cc]) => Some((*c, None, cc)),
        (CellOp::Set, [Value::Var(c), Value::Lit(Lit::Int(0)), v, _, cc]) => {
            Some((*c, Some(v), cc))
        }
        _ => None,
    }
}

/// `(Y λ(c₀ v₁…vₙ c)(c entry abs₁…absₙ))`, taken apart.
struct Fixpoint<'t> {
    c0: VarId,
    entry: &'t Abs,
    /// The recursive bindings.
    members: Vec<(VarId, &'t Abs)>,
}

impl<'t> Fixpoint<'t> {
    fn parse(app: &'t App) -> Result<Fixpoint<'t>, CompileError> {
        let err = |m: &str| CompileError::BadShape(format!("Y: {m}"));
        let [Value::Abs(yabs)] = app.args.as_slice() else {
            return Err(err("expected a single abstraction argument"));
        };
        let nparams = yabs.params.len();
        if nparams < 2 || yabs.body.args.len() != nparams - 1 {
            return Err(err("malformed fixpoint shape"));
        }
        let c0 = yabs.params[0];
        if yabs.body.func.as_var() != Some(yabs.params[nparams - 1]) {
            return Err(err("body must return through the last parameter"));
        }
        let Value::Abs(entry) = &yabs.body.args[0] else {
            return Err(err("entry must be an abstraction"));
        };
        if !entry.params.is_empty() {
            return Err(err("entry continuation must take no parameters"));
        }
        let members = yabs.params[1..nparams - 1]
            .iter()
            .zip(&yabs.body.args[1..])
            .map(|(&v, a)| match a {
                Value::Abs(a) => Ok((v, a.as_ref())),
                _ => Err(err("recursive bindings must be abstractions")),
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Fixpoint { c0, entry, members })
    }

    /// The entry and the recursive bindings.
    fn bodies(&self) -> impl Iterator<Item = &'t Abs> + '_ {
        std::iter::once(self.entry).chain(self.members.iter().map(|m| m.1))
    }
}

// -- The pre-pass -----------------------------------------------------------

/// Decide, in one walk over a procedure body, which candidate binders
/// stay in their block: join points (continuation parameters of a direct
/// application bound to an abstraction), `Y` groups (keyed by c₀) and
/// `var` cells. Closure bodies are walked too; their binders are decided
/// against their own block. A primitive application is walked by running
/// its codegen hook with the walker as the [`EmitCtx`], so each argument
/// is classified exactly as code generation compiles it.
fn plan(ctx: &Ctx, body: &App) -> (IdSet, IdSet) {
    let mut s = Scan {
        ctx,
        regions: Vec::new(),
        cands: IdMap::default(),
        deps: IdMap::default(),
        escapes: Vec::new(),
        scopes: Vec::new(),
        leaky: IdSet::default(),
    };
    s.app(body);
    // A binder that falls back turns the abstractions it kept inline into
    // closures; every candidate used there from outside falls back too.
    let mut keep: IdSet = s.cands.values().map(|c| c.key).collect();
    while let Some(k) = s.escapes.pop() {
        if keep.remove(&k) {
            s.escapes.extend(s.deps.remove(&k).unwrap_or_default());
        }
    }
    (keep, s.leaky)
}

/// A candidate binder: the binder whose fate it shares (itself, or a `Y`
/// member's c₀), the regions open where it is bound, its label arity
/// (`None` for a cell) and the number of candidates bound before it.
#[derive(Clone, Copy)]
struct Cand {
    key: VarId,
    depth: usize,
    arity: Option<usize>,
    seq: usize,
}

/// How an occurrence of a variable is compiled.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Use {
    Value,
    Call(usize),
    ValueCont,
    BranchCont,
    Cell,
}

struct Scan<'c> {
    ctx: &'c Ctx,
    /// Abstractions between the root and the walk's position that compile
    /// to blocks of their own: always (`None`), or when the binder keyed
    /// `Some(k)` falls back.
    regions: Vec<Option<VarId>>,
    cands: IdMap<Cand>,
    /// Key → keys that fall back when it does.
    deps: IdMap<Vec<VarId>>,
    /// Keys found to fall back, not yet propagated.
    escapes: Vec<VarId>,
    /// The join points whose scope the walk is in, innermost last: each
    /// with its `seq` and the least `seq` of a label candidate used in
    /// its scope so far (passed to the enclosing scope when it closes).
    scopes: Vec<(VarId, usize, usize)>,
    /// Join points whose scope transfers to a label or loop bound outside
    /// it, and so may be left without invoking them.
    leaky: IdSet,
}

impl Scan<'_> {
    fn bind(&mut self, v: VarId, key: VarId, arity: Option<usize>) {
        let depth = self.regions.len();
        let seq = self.cands.len();
        self.cands.insert(
            v,
            Cand {
                key,
                depth,
                arity,
                seq,
            },
        );
    }

    fn use_var(&mut self, v: VarId, how: Use) {
        let Some(c) = self.cands.get(&v).copied() else {
            return;
        };
        if let (Some(_), Some(scope)) = (c.arity, self.scopes.last_mut()) {
            scope.2 = scope.2.min(c.seq);
        }
        let fits = match (c.arity, how) {
            (Some(n), Use::Call(m)) => n == m,
            (Some(n), Use::ValueCont) => n == 1,
            (Some(n), Use::BranchCont) => n == 0,
            (None, Use::Cell) => true,
            _ => false,
        };
        if !fits {
            self.escapes.push(c.key);
            return;
        }
        for r in &self.regions[c.depth..] {
            match *r {
                None => {
                    self.escapes.push(c.key);
                    return;
                }
                Some(k) if k != c.key => self.deps.entry(k).or_default().push(c.key),
                Some(_) => {}
            }
        }
    }

    fn inside(&mut self, region: Option<VarId>, body: &App) {
        self.regions.push(region);
        self.app(body);
        self.regions.pop();
    }

    fn value(&mut self, v: &Value) {
        match v {
            Value::Var(x) => self.use_var(*x, Use::Value),
            Value::Abs(a) => self.inside(None, &a.body),
            Value::Lit(_) | Value::Prim(_) => {}
        }
    }

    fn cont(&mut self, v: &Value, how: Use) {
        match v {
            Value::Var(x) => self.use_var(*x, how),
            // A branch continuation with parameters compiles as a closure.
            Value::Abs(a) if how == Use::ValueCont || a.params.is_empty() => self.app(&a.body),
            _ => self.value(v),
        }
    }

    fn app(&mut self, app: &App) {
        match &app.func {
            Value::Abs(f) => {
                let open = self.scopes.len();
                for (&p, a) in f.params.iter().zip(&app.args) {
                    match a {
                        Value::Abs(k) if self.ctx.names.is_cont(p) => {
                            let seq = self.cands.len();
                            self.bind(p, p, Some(k.params.len()));
                            self.inside(Some(p), &k.body);
                            self.scopes.push((p, seq, usize::MAX));
                        }
                        _ => self.value(a),
                    }
                }
                self.app(&f.body);
                while self.scopes.len() > open {
                    let Some((k, seq, used)) = self.scopes.pop() else {
                        break;
                    };
                    if used < seq {
                        self.leaky.insert(k);
                    }
                    if let Some(outer) = self.scopes.last_mut() {
                        outer.2 = outer.2.min(used);
                    }
                }
            }
            Value::Var(x) => {
                self.use_var(*x, Use::Call(app.args.len()));
                app.args.iter().for_each(|a| self.value(a));
            }
            Value::Prim(p) => {
                let def = self.ctx.prims.def(*p);
                let n = app.args.len();
                match def.codegen {
                    // A hook failing on this shape fails again at codegen.
                    Some(hook) => drop(hook(self, app)),
                    // The generic `(vals… ce cc)` convention.
                    None if def.signature.conts == Arity::Exact(2) && n >= 2 => {
                        app.args[..n - 2].iter().for_each(|a| self.value(a));
                        let conts = &app.args[n - 2..];
                        conts.iter().for_each(|k| self.cont(k, Use::ValueCont));
                    }
                    None => {}
                }
            }
            Value::Lit(_) => {}
        }
    }
}

impl EmitCtx for Scan<'_> {
    fn fresh_reg(&mut self) -> Reg {
        0
    }

    fn operand(&mut self, v: &Value) -> Result<Operand, EmitError> {
        self.value(v);
        Ok(Operand::Reg(0))
    }

    fn value_cont(&mut self, cont: &Value, _: Reg) -> Result<ContId, EmitError> {
        self.cont(cont, Use::ValueCont);
        Ok(ContId(0))
    }

    fn branch_cont(&mut self, cont: &Value) -> Result<ContId, EmitError> {
        self.cont(cont, Use::BranchCont);
        Ok(ContId(0))
    }

    fn emit(&mut self, _: MachOp) -> Result<(), EmitError> {
        Ok(())
    }

    fn fixpoint(&mut self, app: &App) -> Result<(), EmitError> {
        // A malformed fixpoint fails at code generation.
        // The entry is walked as a member, which it is when c₀ restarts it.
        if let Ok(y) = Fixpoint::parse(app) {
            self.bind(y.c0, y.c0, Some(0));
            for &(v, abs) in &y.members {
                self.bind(v, y.c0, Some(abs.params.len()));
            }
            for abs in y.bodies() {
                self.inside(Some(y.c0), &abs.body);
            }
        }
        Ok(())
    }

    fn cell(&mut self, op: CellOp, app: &App) -> Result<bool, EmitError> {
        let Some((c, value, _)) = cell_site(op, app) else {
            return Ok(false);
        };
        if op == CellOp::New {
            // The hook goes on to walk its operands and continuation.
            self.bind(c, c, None);
            return Ok(false);
        }
        self.use_var(c, Use::Cell);
        value.into_iter().for_each(|v| self.value(v));
        let conts = &app.args[app.args.len() - 2..];
        conts.iter().for_each(|k| self.cont(k, Use::ValueCont));
        Ok(true)
    }
}

// -- The EmitCtx bridge -----------------------------------------------------

/// A compiled continuation argument of a primitive: for a hook, held
/// until its `emit` consumes the [`ContId`] handle.
#[derive(Clone)]
enum Pend {
    /// Continuation is a runtime value.
    Closure(Src),
    /// Inline abstraction: compile its body at the patched label.
    Inline(Arc<Abs>),
    /// Label continuation: a stub moving `arg` (the result register, when
    /// the label reads its value) into the label's parameter and jumping;
    /// without `arg`, the label itself.
    Stub { label: usize, arg: Option<u16> },
}

/// The compiler's implementation of the narrow [`EmitCtx`] interface
/// primitive codegen hooks program against. It exposes register
/// allocation, operand resolution, continuation compilation and opcode
/// emission, while keeping the block/label machinery private.
///
/// Errors from the underlying compiler (unbound variables, oversized
/// blocks, …) are stashed in `host_err` and surfaced to the hook as the
/// opaque [`EmitError::Host`]; `compile_prim` unpacks the real error
/// afterwards, so it crosses the hook boundary losslessly.
struct Emitter<'e, 'a> {
    comp: &'e mut Compiler<'a>,
    b: &'e mut Block,
    pend: Vec<Pend>,
    host_err: Option<CompileError>,
}

impl Emitter<'_, '_> {
    fn fail<T>(&mut self, e: CompileError) -> Result<T, EmitError> {
        self.host_err = Some(e);
        Err(EmitError::Host)
    }

    fn push(&mut self, p: Result<Pend, CompileError>) -> Result<ContId, EmitError> {
        match p {
            Ok(p) => {
                self.pend.push(p);
                Ok(ContId((self.pend.len() - 1) as u32))
            }
            Err(e) => self.fail(e),
        }
    }
}

fn src(o: Operand) -> Src {
    match o {
        Operand::Reg(r) => Src::Slot(r),
        Operand::Capture(e) => Src::Env(e),
        Operand::Const(c) => Src::Const(c),
    }
}

impl EmitCtx for Emitter<'_, '_> {
    fn fresh_reg(&mut self) -> Reg {
        self.b.fresh_slot()
    }

    fn operand(&mut self, v: &Value) -> Result<Operand, EmitError> {
        match self.comp.resolve(&mut *self.b, v) {
            Ok(Src::Slot(s)) => Ok(Operand::Reg(s)),
            Ok(Src::Env(e)) => Ok(Operand::Capture(e)),
            Ok(Src::Const(c)) => Ok(Operand::Const(c)),
            Err(e) => self.fail(e),
        }
    }

    fn value_cont(&mut self, cont: &Value, dst: Reg) -> Result<ContId, EmitError> {
        let p = self.comp.cont(&mut *self.b, cont, Some(dst));
        self.push(p)
    }

    fn branch_cont(&mut self, cont: &Value) -> Result<ContId, EmitError> {
        let p = self.comp.cont(&mut *self.b, cont, None);
        self.push(p)
    }

    fn emit(&mut self, op: MachOp) -> Result<(), EmitError> {
        // Lower the portable MachOp to the concrete instruction; its
        // continuation fields carry the hook's handles into `finish`.
        let k = |id: ContId| ContRef::Label(id.0);
        let instr = match op {
            MachOp::Arith {
                op,
                dst,
                a,
                b,
                on_err,
                on_ok,
            } => Instr::Arith {
                op,
                dst,
                a: src(a),
                b: src(b),
                on_err: k(on_err),
                on_ok: k(on_ok),
            },
            MachOp::Branch {
                op,
                a,
                b,
                then_,
                else_,
            } => Instr::Branch {
                op,
                a: src(a),
                b: src(b),
                then_: k(then_),
                else_: k(else_),
            },
            MachOp::Bit {
                op,
                dst,
                a,
                b,
                on_ok,
            } => Instr::Bit {
                op,
                dst,
                a: src(a),
                b: src(b),
                on_ok: k(on_ok),
            },
            MachOp::Conv { op, dst, a, on_ok } => Instr::Conv {
                op,
                dst,
                a: src(a),
                on_ok: k(on_ok),
            },
            MachOp::BTest { a, then_, else_ } => Instr::BTest {
                a: src(a),
                then_: k(then_),
                else_: k(else_),
            },
            MachOp::Switch {
                scrut,
                tags,
                targets,
                default,
            } => Instr::Switch {
                scrut: src(scrut),
                tags: tags.into_iter().map(src).collect(),
                targets: targets.into_iter().map(k).collect(),
                default: default.map(k),
            },
            MachOp::Alloc {
                kind,
                dst,
                args,
                on_ok,
            } => Instr::Alloc {
                kind,
                dst,
                args: args.into_iter().map(src).collect(),
                on_ok: k(on_ok),
            },
            MachOp::Idx {
                byte,
                dst,
                arr,
                index,
                on_err,
                on_ok,
            } => Instr::Idx {
                byte,
                dst,
                arr: src(arr),
                index: src(index),
                on_err: k(on_err),
                on_ok: k(on_ok),
            },
            MachOp::IdxSet {
                byte,
                dst,
                arr,
                index,
                value,
                on_err,
                on_ok,
            } => Instr::IdxSet {
                byte,
                dst,
                arr: src(arr),
                index: src(index),
                value: src(value),
                on_err: k(on_err),
                on_ok: k(on_ok),
            },
            MachOp::Size { dst, arr, on_ok } => Instr::Size {
                dst,
                arr: src(arr),
                on_ok: k(on_ok),
            },
            MachOp::MoveBlk {
                byte,
                dst,
                args,
                on_err,
                on_ok,
            } => Instr::MoveBlk {
                byte,
                dst,
                args: Box::new(args.map(src)),
                on_err: k(on_err),
                on_ok: k(on_ok),
            },
            MachOp::Host {
                name,
                dst,
                args,
                on_err,
                on_ok,
            } => Instr::Extern {
                name: self.b.extern_ix(&name),
                dst,
                args: args.into_iter().map(src).collect(),
                on_err: k(on_err),
                on_ok: k(on_ok),
            },
            MachOp::Halt { value } => Instr::Halt { src: src(value) },
            MachOp::Print { dst, value, on_ok } => Instr::Print {
                dst,
                src: src(value),
                on_ok: k(on_ok),
            },
        };
        match self.comp.finish(self.b, instr, &self.pend) {
            Ok(()) => Ok(()),
            Err(e) => self.fail(e),
        }
    }

    fn fixpoint(&mut self, app: &App) -> Result<(), EmitError> {
        match self.comp.compile_y(&mut *self.b, app) {
            Ok(()) => Ok(()),
            Err(e) => self.fail(e),
        }
    }

    fn cell(&mut self, op: CellOp, app: &App) -> Result<bool, EmitError> {
        match self.comp.compile_cell(&mut *self.b, op, app) {
            Ok(done) => Ok(done),
            Err(e) => self.fail(e),
        }
    }
}

fn lit_to_sval(l: &Lit) -> SVal {
    SVal::from_lit(l)
}

struct Block {
    out: CodeBlock,
    next_slot: u16,
    /// Set when the block outgrows 16-bit slot or pool indices; reported
    /// by [`Block::finish`].
    overflow: bool,
    locs: IdMap<Loc>,
    /// Label table: id → instruction index (filled as bodies are placed)
    /// and each label's parameter slots.
    labels: Vec<Option<u32>>,
    label_params: Vec<Vec<u16>>,
    /// Control transfers awaiting a label: `(instr, edge, label id)`, the
    /// edge `None` for a `Jump`.
    jumps: Vec<(usize, Option<usize>, usize)>,
}

impl Block {
    fn fresh_slot(&mut self) -> u16 {
        let s = self.next_slot;
        match s.checked_add(1) {
            Some(n) => self.next_slot = n,
            None => self.overflow = true,
        }
        s
    }

    /// A 16-bit operand index for `i`.
    fn index(&mut self, i: usize) -> u16 {
        u16::try_from(i).unwrap_or_else(|_| {
            self.overflow = true;
            u16::MAX
        })
    }

    fn emit(&mut self, i: Instr) {
        self.out.instrs.push(i);
    }

    /// A new, not yet placed label taking `n` parameters.
    fn new_label(&mut self, n: usize) -> usize {
        let params = (0..n).map(|_| self.fresh_slot()).collect();
        self.labels.push(None);
        self.label_params.push(params);
        self.labels.len() - 1
    }

    /// Invoke label `id`: move `srcs` into its parameter slots and jump.
    fn jump(&mut self, id: usize, srcs: Vec<Src>) -> Result<(), CompileError> {
        let params = self.label_params[id].clone();
        if params.len() != srcs.len() {
            return Err(CompileError::Internal(format!(
                "label of arity {} invoked with {} arguments",
                params.len(),
                srcs.len()
            )));
        }
        // A source reading one of the target parameter slots would be
        // clobbered by an earlier move; stage those through temporaries.
        let staged: Vec<Src> = srcs
            .into_iter()
            .map(|s| match s {
                Src::Slot(i) if params.contains(&i) => {
                    let t = self.fresh_slot();
                    self.emit(Instr::Mov { dst: t, src: s });
                    Src::Slot(t)
                }
                s => s,
            })
            .collect();
        for (&dst, src) in params.iter().zip(staged) {
            self.emit(Instr::Mov { dst, src });
        }
        self.jumps.push((self.out.instrs.len(), None, id));
        self.emit(Instr::Jump { target: u32::MAX });
        Ok(())
    }

    /// Point edge `e` of instruction `at` at `to`.
    fn set_edge(&mut self, at: usize, e: usize, to: ContRef) {
        if let Some(r) = self.out.instrs[at].edge_mut(e) {
            *r = to;
        }
    }

    /// Resolve all pending jumps and hand out the finished block.
    fn finish(mut self) -> Result<CodeBlock, CompileError> {
        if self.overflow {
            return Err(CompileError::TooLarge(self.out.name));
        }
        for (ix, edge, label) in std::mem::take(&mut self.jumps) {
            let Some(target) = self.labels.get(label).copied().flatten() else {
                return Err(CompileError::Internal(format!(
                    "{}: label {label} left unresolved",
                    self.out.name
                )));
            };
            match edge {
                None => self.out.instrs[ix] = Instr::Jump { target },
                Some(e) => self.set_edge(ix, e, ContRef::Label(target)),
            }
        }
        self.out.nslots = self.next_slot;
        Ok(self.out)
    }

    fn const_src(&mut self, v: SVal) -> Src {
        // Small pools: linear dedup is fine and keeps blocks compact.
        if let Some(ix) = self.out.consts.iter().position(|c| c == &v) {
            return Src::Const(ix as u16);
        }
        let ix = self.index(self.out.consts.len());
        self.out.consts.push(v);
        Src::Const(ix)
    }

    fn extern_ix(&mut self, name: &str) -> u16 {
        if let Some(ix) = self.out.extern_names.iter().position(|n| n == name) {
            return ix as u16;
        }
        let ix = self.index(self.out.extern_names.len());
        self.out.extern_names.push(name.to_string());
        ix
    }

    fn prim_ix(&mut self, name: &str) -> u16 {
        if let Some(ix) = self.out.prim_names.iter().position(|n| n == name) {
            return ix as u16;
        }
        let ix = self.index(self.out.prim_names.len());
        self.out.prim_names.push(name.to_string());
        ix
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tml_core::parse::parse_app;

    fn compile(src: &str) -> Result<(CodeTable, u32), CompileError> {
        let mut ctx = Ctx::new();
        let parsed = parse_app(&mut ctx, src).unwrap();
        let code = CodeTable::new();
        let abs = Abs::new(vec![], parsed.app);
        let block = Compiler::new(&ctx, &code).compile_proc(&abs)?.block;
        Ok((code, block))
    }

    /// Compile and run a closed program.
    fn run(src: &str) -> (crate::RVal, crate::ExecStats) {
        let mut ctx = Ctx::new();
        let parsed = parse_app(&mut ctx, src).unwrap();
        let vm = crate::Vm::new();
        let block = vm.compile_program(&ctx, &parsed.app).unwrap();
        let mut store = tml_store::Store::new();
        let out = vm.run_program(&mut store, block, 100_000).unwrap();
        assert_eq!(store.len(), 0, "the program allocated store objects");
        (out.result, out.stats)
    }

    fn count(code: &CodeTable, block: u32, f: fn(&Instr) -> bool) -> usize {
        code.block(block).instrs.iter().filter(|i| f(i)).count()
    }

    /// Regression: a block with more parameters than 16-bit slots can
    /// address — here a direct application decoded from persistent code —
    /// is a typed error, not a panic.
    #[test]
    fn oversized_decoded_blocks_are_typed_errors() {
        use tml_store::ptml::{decode_app, encode_app};
        let mut ctx = Ctx::new();
        let params: Vec<VarId> = (0..70_000).map(|_| ctx.names.fresh("x")).collect();
        let halt = Value::Prim(ctx.prims.lookup("halt").unwrap());
        let body = App::new(halt, vec![Value::Var(params[0])]);
        let app = App::new(
            Value::from(Abs::new(params, body)),
            vec![Value::int(1); 70_000],
        );
        let bytes = encode_app(&ctx, &app);
        let mut ctx2 = Ctx::new();
        let (decoded, _) = decode_app(&mut ctx2, &bytes).unwrap();
        let err = crate::Vm::new()
            .compile_program(&ctx2, &decoded)
            .unwrap_err();
        assert!(matches!(err, CompileError::TooLarge(_)), "{err:?}");
    }

    #[test]
    fn join_points_compile_to_labels() {
        // The shape every inlined comparison leaves behind.
        let src = "(proc(^cc) (< 1 2 cont() (cc true) cont() (cc false)) \
                   cont(t) (btest t cont() (halt 10) cont() (halt 20)))";
        let (code, block) = compile(src).unwrap();
        assert_eq!(count(&code, block, |i| matches!(i, Instr::Close { .. })), 0);
        assert_eq!(count(&code, block, |i| matches!(i, Instr::Call { .. })), 0);
        let (result, stats) = run(src);
        assert!(result.identical(&crate::RVal::Int(10)));
        assert_eq!((stats.calls, stats.closures), (0, 0));
    }

    #[test]
    fn a_join_point_passed_as_a_value_leaves_its_block() {
        // k escapes into a first-class call; so does the cell its
        // abstraction reads, which that abstraction's frame captures.
        let src = "(new 1 5 cont(c) \
                     (proc(^k) (cont(id) (id 7 cont(e) (halt e) k) \
                                 proc(x ^ce ^cc) (cc x)) \
                      cont(t) ([] c 0 cont(e) (halt e) cont(v) (+ t v cont(e) (halt e) \
                                                               cont(r) (halt r)))))";
        // Closures: the identity procedure and its `ce`; k is a frame.
        let (code, block) = compile(src).unwrap();
        assert_eq!(count(&code, block, |i| matches!(i, Instr::Close { .. })), 2);
        assert_eq!(count(&code, block, |i| matches!(i, Instr::Push { .. })), 1);
        assert_eq!(count(&code, block, |i| matches!(i, Instr::Alloc { .. })), 1);
        let mut ctx = Ctx::new();
        let parsed = parse_app(&mut ctx, src).unwrap();
        let vm = crate::Vm::new();
        let block = vm.compile_program(&ctx, &parsed.app).unwrap();
        let out = vm
            .run_program(&mut tml_store::Store::new(), block, 1000)
            .unwrap();
        assert!(out.result.identical(&crate::RVal::Int(12)));
    }

    #[test]
    fn var_cells_live_in_frame_slots() {
        let src = "(new 1 5 cont(c) \
                     ([:=] c 0 7 cont(e) (halt e) cont(u) \
                       ([] c 0 cont(e) (halt e) cont(v) \
                         ([:=] c 0 9 cont(e) (halt e) cont(u2) (halt v)))))";
        let (code, block) = compile(src).unwrap();
        let b = code.block(block);
        assert!(
            b.instrs
                .iter()
                .all(|i| matches!(i, Instr::Mov { .. } | Instr::Halt { .. })),
            "{:?}",
            b.instrs
        );
        // The read copies the slot: the later write does not reach v.
        let (result, stats) = run(src);
        assert!(result.identical(&crate::RVal::Int(7)));
        assert_eq!(stats.instrs, 5);
    }

    #[test]
    fn loop_back_edges_keep_a_parameter_the_exception_path_reads() {
        // The division's result goes straight into f's parameter slot only
        // when no other edge lands in the block: here the exception path
        // reads i, the value that slot holds.
        let src = "(Y proc(^c0 ^f ^c) (c \
                     cont() (f 7) \
                     cont(i) (- i 3 cont(e) (halt e) cont(d) \
                               (/ 12 d cont(e) (halt i) f))))";
        let (result, _) = run(src);
        assert!(result.identical(&crate::RVal::Int(3)), "{result:?}");
    }

    /// Regression: a corrupted PTML blob (bit flips, truncations) must
    /// surface as a `DecodeError` or `CompileError`, never a panic — the
    /// store may hand the compiler arbitrary persisted bytes.
    #[test]
    fn corrupted_ptml_blobs_error_instead_of_panicking() {
        use tml_store::ptml::{decode_abs, encode_abs};
        let mut ctx = Ctx::new();
        let src = "(cont(f) \
            (f 3 cont(e)(halt e) cont(t) \
              (== 1 t 2 cont()(halt 1) cont()(halt 2) cont()(halt t))) \
            proc(x ce cc) (* x 2 ce cc))";
        let parsed = parse_app(&mut ctx, src).unwrap();
        let abs = Abs::new(Vec::new(), parsed.app);
        let bytes = encode_abs(&ctx, &abs);
        let try_compile = |blob: &[u8]| {
            let mut ctx2 = Ctx::new();
            if let Ok((a, _)) = decode_abs(&mut ctx2, blob) {
                let code = CodeTable::new();
                let _ = Compiler::new(&ctx2, &code).compile_proc(&a);
            }
        };
        for cut in 0..bytes.len() {
            try_compile(&bytes[..cut]);
        }
        for pos in 0..bytes.len() {
            for flip in [0x01u8, 0x80, 0xff] {
                let mut m = bytes.clone();
                m[pos] ^= flip;
                try_compile(&m);
            }
        }
    }

    #[test]
    fn constant_halt_compiles_small() {
        let (code, block) = compile("(halt 42)").unwrap();
        let b = code.block(block);
        assert_eq!(b.instrs.len(), 1);
        assert!(matches!(b.instrs[0], Instr::Halt { .. }));
    }

    #[test]
    fn direct_application_emits_no_call() {
        let (code, block) = compile("(cont(x) (halt x) 13)").unwrap();
        let b = code.block(block);
        assert!(
            !b.instrs.iter().any(|i| matches!(i, Instr::Call { .. })),
            "{:?}",
            b.instrs
        );
    }

    #[test]
    fn inline_arith_cont_falls_through() {
        let (code, block) = compile("(+ 1 2 cont(e) (halt e) cont(t) (halt t))").unwrap();
        let b = code.block(block);
        // One Arith, two Halts (ok body then err body), no Call, no Close.
        assert!(b.instrs.iter().any(|i| matches!(i, Instr::Arith { .. })));
        assert!(!b.instrs.iter().any(|i| matches!(i, Instr::Close { .. })));
        let Instr::Arith { on_ok, on_err, .. } = &b.instrs[0] else {
            panic!()
        };
        assert!(matches!(on_ok, ContRef::Label(l) if *l != u32::MAX));
        assert!(matches!(on_err, ContRef::Label(l) if *l != u32::MAX));
    }

    #[test]
    fn proc_values_become_closures() {
        let (code, block) =
            compile("(cont(f) (f 1 cont(e)(halt e) cont(t)(halt t)) proc(x ce cc) (+ x 1 ce cc))")
                .unwrap();
        let b = code.block(block);
        assert!(b.instrs.iter().any(|i| matches!(i, Instr::Close { .. })));
        assert!(b.instrs.iter().any(|i| matches!(i, Instr::Call { .. })));
    }

    #[test]
    fn y_loops_compile_to_jumps() {
        // A non-escaping fixpoint becomes intra-block jumps: no closure
        // group, no calls, one backward jump per recursive invocation.
        let (code, block) = compile(
            "(Y proc(^c0 ^f ^c) (c \
                cont() (f 1) \
                cont(i) (> i 3 cont() (halt i) cont() (f i))))",
        )
        .unwrap();
        let b = code.block(block);
        assert!(
            !b.instrs
                .iter()
                .any(|i| matches!(i, Instr::CloseGroup { .. })),
            "{:?}",
            b.instrs
        );
        assert!(!b.instrs.iter().any(|i| matches!(i, Instr::Call { .. })));
        assert!(b.instrs.iter().any(|i| matches!(i, Instr::Jump { .. })));
        // Every jump target must be patched.
        for i in &b.instrs {
            if let Instr::Jump { target } = i {
                assert_ne!(*target, u32::MAX, "unpatched loop jump");
            }
        }
    }

    #[test]
    fn escaping_y_falls_back_to_close_group() {
        // The recursive binding f is passed as a *value* to g: loop
        // compilation must abort and the closure group take over.
        let (code, block) = compile(
            "(Y proc(^c0 ^f ^c) (c \
                cont() (g f cont(e)(halt e) cont(t)(halt t)) \
                cont(i) (f i)))",
        )
        .unwrap();
        let b = code.block(block);
        assert!(
            b.instrs
                .iter()
                .any(|i| matches!(i, Instr::CloseGroup { .. })),
            "{:?}",
            b.instrs
        );
    }

    #[test]
    fn free_variables_become_captures() {
        // compile_proc treats free variables as closure captures.
        let mut ctx = Ctx::new();
        let parsed = parse_app(&mut ctx, "(halt outer)").unwrap();
        let code = CodeTable::new();
        let abs = Abs::new(vec![], parsed.app);
        let compiled = Compiler::new(&ctx, &code).compile_proc(&abs).unwrap();
        assert_eq!(compiled.captures.len(), 1);
        assert_eq!(ctx.names.display(compiled.captures[0]), "outer_0");
    }

    #[test]
    fn open_programs_rejected() {
        let mut ctx = Ctx::new();
        let parsed = parse_app(&mut ctx, "(halt nosuch)").unwrap();
        let vm = crate::Vm::new();
        let err = vm.compile_program(&ctx, &parsed.app).unwrap_err();
        assert!(matches!(err, CompileError::OpenProgram(v) if v.starts_with("nosuch")));
    }

    #[test]
    fn prim_as_value_rejected() {
        let err = compile("(halt +)").unwrap_err();
        assert!(matches!(err, CompileError::PrimAsValue(p) if p == "+"));
    }

    #[test]
    fn const_pool_deduplicates() {
        let (code, block) = compile("(+ 7 7 cont(e)(halt 7) cont(t)(halt 7))").unwrap();
        let b = code.block(block);
        assert_eq!(b.consts.iter().filter(|c| **c == SVal::Int(7)).count(), 1);
    }

    #[test]
    fn unknown_prim_without_convention_rejected() {
        // `halt` misused with two args hits the arity check.
        let err = compile("(halt 1 2)").unwrap_err();
        assert!(matches!(err, CompileError::BadShape(_)));
    }

    #[test]
    fn switch_with_default_compiles() {
        let (code, block) =
            compile("(== 2 1 2 cont() (halt 10) cont() (halt 20) cont() (halt 99))").unwrap();
        let b = code.block(block);
        let sw = b
            .instrs
            .iter()
            .find(|i| matches!(i, Instr::Switch { .. }))
            .unwrap();
        let Instr::Switch {
            tags,
            targets,
            default,
            ..
        } = sw
        else {
            panic!()
        };
        assert_eq!(tags.len(), 2);
        assert_eq!(targets.len(), 2);
        assert!(default.is_some());
    }
}
