//! The CPS abstract machine.
//!
//! Machine state is the current activation (registers + environment), a
//! control stack of return frames (`stack.rs`), the exception-handler
//! stack and the store. All control transfer is tail transfer, and a
//! transfer allocates nothing: registers and environments are recycled
//! buffers, and a non-tail call's return continuation is a frame, not a
//! heap closure. Where a stack continuation, or a continuation closure
//! holding one, must outlive the stack (a procedure or closure group
//! captures it, the store or an extern receives it, a run returns it),
//! `Machine::capture` copies it to the heap.
//! Execution statistics (instructions, calls, heap closures, frames,
//! exceptions) are deterministic and serve as the primary benchmark
//! metric alongside wall-clock time.

use crate::host::{ExternTable, HostCtx};
use crate::instr::{
    AllocKind, ArithOp, BitOp, CmpOp, CodeBlock, CodeTable, ContRef, ConvOp, GroupCap, Instr, Src,
    NATIVE_ERR_BLOCK, NATIVE_OK_BLOCK,
};
use crate::rval::{Capture, ClosureGroup, RVal, StackCont, TransientClosure};
use crate::stack::{Stack, NO_EXIT};
use std::collections::BTreeMap;
use std::rc::Rc;
use std::time::Instant;
use tml_core::prims_std::{
    ERR_BOUNDS, ERR_NO_CCALL, ERR_NO_PRIM, ERR_OVERFLOW, ERR_TYPE, ERR_ZERO_DIVIDE,
};
use tml_core::Oid;
use tml_store::{Object, SVal, Store, StoreAccess, StoreError, MAX_OBJECT_LEN};

/// Deterministic execution counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Instructions executed.
    pub instrs: u64,
    /// Closure transfers (`Call` and continuation invocations).
    pub calls: u64,
    /// Heap closures allocated (transient and persistent).
    pub closures: u64,
    /// Return frames pushed on the control stack.
    pub frames: u64,
    /// Exceptions raised (explicitly or by failing primitives).
    pub exceptions: u64,
}

/// Per-run profile collected when the trace recorder is enabled at
/// machine construction. Counts are accumulated locally (no atomics in
/// the dispatch loop) and published to the trace registry when the
/// machine is dropped: `vm.op.<opcode>`, `vm.prim.<extern>`,
/// `vm.block.<name>#<id>` (hot-closure ranking) and `vm.wall_micros`.
#[derive(Debug)]
pub struct VmProfile {
    /// Executed-instruction count per opcode label.
    pub opcodes: BTreeMap<&'static str, u64>,
    /// Calls per extension primitive.
    pub externs: BTreeMap<String, u64>,
    /// Invocations per code block (transient and persistent closures).
    pub block_calls: BTreeMap<u32, u64>,
    /// When profiling started.
    pub started: Instant,
}

impl VmProfile {
    fn new() -> Self {
        VmProfile {
            opcodes: BTreeMap::new(),
            externs: BTreeMap::new(),
            block_calls: BTreeMap::new(),
            started: Instant::now(),
        }
    }
}

/// A finished execution.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// The `halt` value.
    pub result: RVal,
    /// Counters.
    pub stats: ExecStats,
    /// Lines produced by the `print` primitive.
    pub output: Vec<String>,
}

/// Machine errors (distinct from TML-level exceptions, which flow through
/// exception continuations and handlers).
#[derive(Debug, Clone)]
pub enum VmError {
    /// `raise` with an empty handler stack.
    Unhandled(RVal),
    /// A dynamic type error or malformed transfer (ill-typed input).
    Trap(String),
    /// The fuel budget was exhausted.
    OutOfFuel,
    /// A store operation failed structurally.
    Store(StoreError),
    /// The enclosing transaction cannot continue: a lock conflict
    /// ([`StoreError::Busy`]) or a typed abort ([`StoreError::Aborted`],
    /// deadlock victim / timeout / injected fault). Deliberately not a
    /// TML-catchable exception — the transaction layer must see it to
    /// roll back and retry, so it bypasses handler continuations.
    Aborted(StoreError),
}

impl std::fmt::Display for VmError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            VmError::Unhandled(v) => write!(f, "unhandled exception: {v:?}"),
            VmError::Trap(m) => write!(f, "machine trap: {m}"),
            VmError::OutOfFuel => write!(f, "fuel exhausted"),
            VmError::Store(e) => write!(f, "store error: {e}"),
            VmError::Aborted(e) => write!(f, "transaction aborted: {e}"),
        }
    }
}

impl std::error::Error for VmError {}

impl From<StoreError> for VmError {
    fn from(e: StoreError) -> Self {
        match e {
            StoreError::Busy { .. } | StoreError::Aborted { .. } => VmError::Aborted(e),
            _ => VmError::Store(e),
        }
    }
}

/// Exception handlers the machine will hold at once. A program that pushes
/// handlers in an unbounded loop would otherwise grow `handlers` without
/// limit; well-nested programs stay orders of magnitude below this.
const MAX_HANDLER_DEPTH: usize = 100_000;

/// Nesting limit for native re-entry ([`Machine::call_value`]): each level
/// is a Rust stack frame through an extension primitive, so unbounded
/// mutual recursion between TML code and externs would overflow the host
/// stack instead of trapping.
const MAX_NATIVE_DEPTH: usize = 64;

enum Flow {
    /// Keep stepping (pc already updated).
    Next,
    /// `halt` executed.
    Done(RVal),
    /// A `NativeRet` sentinel executed (nested call finished).
    Native { ok: bool, value: RVal },
}

/// The machine, generic over the store-access seam: `S = Store` (the
/// default) runs on the plain in-memory heap, `S = DurableStore` logs
/// every mutation the program makes.
pub struct Machine<'a, S: StoreAccess = Store> {
    code: &'a CodeTable,
    externs: &'a ExternTable,
    store: &'a mut S,
    frame: Vec<RVal>,
    /// The next transfer's arguments; swapped in as its frame.
    next: Vec<RVal>,
    /// The current closure when it is transient: `Src::Env` reads its
    /// captures in place. `None` means the captures are in `env`.
    env_clo: Option<Rc<TransientClosure>>,
    env: Vec<RVal>,
    /// Empty buffers for extern arguments and for the frames and
    /// environments of native re-entry.
    spare: Vec<Vec<RVal>>,
    /// The exception and normal return continuations of native re-entry.
    native_conts: [RVal; 2],
    stack: Stack,
    handlers: Vec<RVal>,
    /// The current block.
    blk: &'a CodeBlock,
    pc: u32,
    fuel: u64,
    /// Native nesting: `run` and each [`Machine::call_value`] in progress.
    native_depth: usize,
    /// Counters (public so harnesses can read incrementally).
    pub stats: ExecStats,
    output: Vec<String>,
    /// Present only when tracing was enabled at construction; `None` keeps
    /// the dispatch loop at a single branch of overhead.
    profile: Option<Box<VmProfile>>,
}

impl<'a, S: StoreAccess> Machine<'a, S> {
    /// Create a machine with a fuel budget (instructions).
    pub fn new(code: &'a CodeTable, externs: &'a ExternTable, store: &'a mut S, fuel: u64) -> Self {
        Machine {
            code,
            externs,
            store,
            frame: Vec::new(),
            next: Vec::new(),
            env_clo: None,
            env: Vec::new(),
            spare: Vec::new(),
            native_conts: [NATIVE_ERR_BLOCK, NATIVE_OK_BLOCK].map(|code| {
                RVal::Clo(Rc::new(TransientClosure {
                    code,
                    env: Vec::new(),
                    frame: None,
                    holds_frames: false,
                }))
            }),
            stack: Stack::default(),
            handlers: Vec::new(),
            blk: code.block(NATIVE_OK_BLOCK),
            pc: 0,
            fuel,
            native_depth: 0,
            stats: ExecStats::default(),
            output: Vec::new(),
            profile: tml_trace::enabled().then(|| Box::new(VmProfile::new())),
        }
    }

    /// Publish the collected profile (if any) to the global trace
    /// registry. Called automatically on drop; idempotent because the
    /// profile is consumed.
    pub fn publish_trace(&mut self) {
        let Some(p) = self.profile.take() else {
            return;
        };
        let g = tml_trace::global();
        g.counter("vm.runs").inc();
        g.counter("vm.instrs").add(self.stats.instrs);
        g.counter("vm.calls").add(self.stats.calls);
        g.counter("vm.closures").add(self.stats.closures);
        g.counter("vm.frames").add(self.stats.frames);
        g.counter("vm.exceptions").add(self.stats.exceptions);
        let micros = p.started.elapsed().as_micros().min(u128::from(u64::MAX)) as u64;
        g.counter("vm.wall_micros").add(micros);
        for (key, n) in &p.opcodes {
            g.counter(&format!("vm.op.{key}")).add(*n);
        }
        for (name, n) in &p.externs {
            g.counter(&format!("vm.prim.{name}")).add(*n);
        }
        for (block, n) in &p.block_calls {
            let name = &self.code.block(*block).name;
            g.counter(&format!("vm.block.{name}#{block}")).add(*n);
        }
    }

    /// Run `block` with the given environment and arguments until `halt`.
    pub fn run(&mut self, block: u32, env: Vec<RVal>, args: Vec<RVal>) -> Result<Outcome, VmError> {
        let _s = tml_trace::span!("vm.run");
        // A run is one native level: externs re-entering through
        // `call_value_checked` are frames of this run, not new runs.
        self.native_depth += 1;
        self.env = env;
        self.env_clo = None;
        self.next = args;
        let stop = self.enter(block).and_then(|()| self.drive());
        self.native_depth -= 1;
        match stop? {
            Flow::Done(result) => Ok(Outcome {
                result,
                stats: self.stats,
                output: std::mem::take(&mut self.output),
            }),
            _ => Err(VmError::Trap("stray native return sentinel".into())),
        }
    }

    /// Step until `halt` or a native-return sentinel.
    fn drive(&mut self) -> Result<Flow, VmError> {
        loop {
            match self.step()? {
                Flow::Next => {}
                stop => return Ok(stop),
            }
        }
    }

    /// Call a TML procedure value from native code: the machine pushes
    /// native-return continuations `(… cₑ c꜀)` and runs until one fires.
    /// `Ok` carries the normal result, `Err` the exception value. Used by
    /// extension primitives (query predicates) and by embedding crates.
    pub fn call_value(&mut self, target: RVal, args: Vec<RVal>) -> Result<RVal, RVal> {
        match self.call_value_checked(target, args) {
            Ok(r) => r,
            // Machine-level failures surface as TML exceptions to the
            // caller's exception continuation.
            Err(e) => Err(RVal::Str(format!("vm:{e}").into())),
        }
    }

    /// [`Machine::call_value`] without the machine-error flattening: the
    /// outer `Err` carries machine-level failures (traps, fuel,
    /// [`VmError::Aborted`]) typed, the inner result is the TML-level
    /// ok/exception outcome. Embedders that must distinguish a
    /// transaction abort from an ordinary exception (the session layer,
    /// the server executor) call this directly.
    pub fn call_value_checked(
        &mut self,
        target: RVal,
        args: Vec<RVal>,
    ) -> Result<Result<RVal, RVal>, VmError> {
        if self.native_depth >= MAX_NATIVE_DEPTH {
            // Each nesting level is a real Rust stack frame; trap before
            // the host stack overflows (which no handler could catch).
            return Ok(Err(RVal::Str(
                format!("vm:machine trap: native call nesting exceeds {MAX_NATIVE_DEPTH}").into(),
            )));
        }
        // Only the outermost native call gets a span: nested call_values
        // are frames of the same logical run, not separate operations.
        let _s = if self.native_depth == 0 {
            Some(tml_trace::span!("vm.run"))
        } else {
            None
        };
        self.native_depth += 1;
        let saved_blk = self.blk;
        let saved_pc = self.pc;
        let saved_clo = self.env_clo.take();
        let frame = self.spare.pop().unwrap_or_default();
        let saved_frame = std::mem::replace(&mut self.frame, frame);
        let env = self.spare.pop().unwrap_or_default();
        let saved_env = std::mem::replace(&mut self.env, env);
        let depth = self.stack.depth();
        let saved_base = std::mem::replace(&mut self.stack.base, depth);

        self.next.extend(args);
        self.next.extend(self.native_conts.iter().cloned());
        let stop = self.invoke(target).and_then(|()| self.drive());

        self.blk = saved_blk;
        self.pc = saved_pc;
        self.env_clo = saved_clo;
        self.next.clear();
        let frame = std::mem::replace(&mut self.frame, saved_frame);
        self.recycle(frame);
        let env = std::mem::replace(&mut self.env, saved_env);
        self.recycle(env);
        self.stack.unwind(self.stack.base);
        self.stack.base = saved_base;
        self.native_depth -= 1;

        match stop? {
            Flow::Native { ok, value } => Ok(if ok { Ok(value) } else { Err(value) }),
            _ => Err(VmError::Trap("halt during nested native call".into())),
        }
    }

    /// Keep an emptied buffer for the next native re-entry.
    fn recycle(&mut self, mut buf: Vec<RVal>) {
        buf.clear();
        if self.spare.len() < 2 * MAX_NATIVE_DEPTH {
            self.spare.push(buf);
        }
    }

    /// Machine output lines so far.
    pub fn output(&self) -> &[String] {
        &self.output
    }

    /// Start `block` with the arguments in `next`, which becomes the
    /// frame; the old frame becomes the next transfer's buffer.
    #[inline]
    fn enter(&mut self, block: u32) -> Result<(), VmError> {
        if block as usize >= self.code.len() {
            return Err(VmError::Trap(format!(
                "call of closure with dangling code index {block}"
            )));
        }
        let blk = self.code.block(block);
        if self.next.len() != blk.nparams as usize {
            return Err(VmError::Trap(format!(
                "block {} expects {} argument(s), got {}",
                blk.name,
                blk.nparams,
                self.next.len()
            )));
        }
        std::mem::swap(&mut self.frame, &mut self.next);
        // Not `resize`: writing the constant directly keeps a transfer
        // free of a per-slot `RVal::clone`.
        let n = self.frame.len();
        self.frame
            .extend((n..blk.nslots as usize).map(|_| RVal::Unit));
        self.next.clear();
        self.blk = blk;
        self.pc = 0;
        Ok(())
    }

    #[inline]
    fn resolve(&self, src: Src) -> RVal {
        match src {
            Src::Slot(i) => self.frame[i as usize].clone(),
            Src::Env(i) => match &self.env_clo {
                Some(c) => c.env[i as usize].clone(),
                None => self.env[i as usize].clone(),
            },
            Src::Const(i) => RVal::from_sval(&self.blk.consts[i as usize]),
        }
    }

    /// Transfer to `target` with the arguments already in `next`.
    #[inline]
    fn invoke(&mut self, target: RVal) -> Result<(), VmError> {
        self.stats.calls += 1;
        self.env.clear();
        let target = match target {
            RVal::Row(_) => self.stored(target)?,
            target => target,
        };
        let code = match target {
            RVal::Cont(k) => {
                self.env_clo = None;
                self.stack.pop(k, &mut self.env)?
            }
            RVal::Clo(c) => {
                if let Some(d) = c.frame {
                    self.stack.unwind(d as usize);
                }
                let code = c.code;
                self.env_clo = Some(c);
                code
            }
            RVal::Group(g, j) => {
                if let Some(d) = g.frame {
                    self.stack.unwind(d as usize);
                }
                let (code, caps) = &g.members[j as usize];
                self.env.extend(caps.iter().map(|cap| match cap {
                    Capture::Val(v) => v.clone(),
                    Capture::Member(k) => RVal::Group(g.clone(), *k),
                }));
                self.env_clo = None;
                *code
            }
            RVal::Ref(oid) => {
                self.store.base().expect(oid, "closure", |o| match o {
                    Object::Closure(_) => Some(()),
                    _ => None,
                })?;
                let c = self.code.linked_call(oid).ok_or_else(|| {
                    VmError::Trap(format!(
                        "call of closure {oid} with no code in this session: it was \
                         persisted without PTML, or its PTML did not relink"
                    ))
                })?;
                if let Some(d) = c.frame {
                    self.stack.unwind(d as usize);
                }
                let code = c.code;
                self.env_clo = Some(c);
                code
            }
            other => {
                return Err(VmError::Trap(format!(
                    "call of non-procedure value of kind {}",
                    other.kind()
                )))
            }
        };
        if let Some(p) = self.profile.as_deref_mut() {
            *p.block_calls.entry(code).or_insert(0) += 1;
        }
        self.enter(code)
    }

    /// `v` fit to outlive the control stack: a stack continuation, or a
    /// continuation closure or group holding one, becomes a heap copy
    /// ([`Stack::lift`]); anything else is `v` itself.
    #[inline]
    fn capture(&mut self, v: RVal) -> Result<RVal, VmError> {
        if !v.holds_frames() {
            return Ok(v);
        }
        let (v, made) = self.stack.lift(v)?;
        self.stats.closures += made;
        Ok(v)
    }

    /// `v` with a transient row replaced by its store tuple (persisted on
    /// the spot), for paths that only handle store references.
    fn stored(&mut self, v: RVal) -> Result<RVal, VmError> {
        Ok(match v {
            RVal::Row(r) => RVal::Ref(r.persist(self.store)?),
            v => v,
        })
    }

    /// Continue on a value-producing path: write `value` to `dst` and
    /// transfer to `cont` (labels expect the value in `dst`; closures
    /// receive it as their argument).
    #[inline]
    fn continue_value(&mut self, cont: &ContRef, dst: u16, value: RVal) -> Result<Flow, VmError> {
        match cont {
            ContRef::Label(l) => {
                self.frame[dst as usize] = value;
                self.pc = *l;
                Ok(Flow::Next)
            }
            ContRef::Closure(src) => {
                let target = self.resolve(*src);
                self.next.push(value);
                self.invoke(target)?;
                Ok(Flow::Next)
            }
        }
    }

    /// Continue on a branch path (no value).
    #[inline]
    fn continue_branch(&mut self, cont: &ContRef) -> Result<Flow, VmError> {
        match cont {
            ContRef::Label(l) => {
                self.pc = *l;
                Ok(Flow::Next)
            }
            ContRef::Closure(src) => {
                let target = self.resolve(*src);
                self.invoke(target)?;
                Ok(Flow::Next)
            }
        }
    }

    fn exception(&mut self, on_err: &ContRef, dst: u16, value: RVal) -> Result<Flow, VmError> {
        self.stats.exceptions += 1;
        self.continue_value(on_err, dst, value)
    }

    /// A heap closure over `code`. A procedure holds heap copies of the
    /// stack continuations it captures; a continuation holds them as they
    /// are and remembers the stack depth it returns to.
    #[inline(never)]
    fn close(&mut self, code: u32, captures: &[Src], cont: bool) -> Result<RVal, VmError> {
        let mut env = Vec::with_capacity(captures.len());
        for s in captures {
            let v = self.resolve(*s);
            env.push(if cont { v } else { self.capture(v)? });
        }
        self.stats.closures += 1;
        let frame = cont.then_some(self.stack.depth() as u32);
        let holds_frames = cont && env.iter().any(RVal::holds_frames);
        Ok(RVal::Clo(Rc::new(TransientClosure {
            code,
            env,
            frame,
            holds_frames,
        })))
    }

    /// A transient closure group: members reach each other by index, and
    /// the store sees the group only if a member escapes into it.
    #[inline(never)]
    fn close_group(
        &mut self,
        parts: &[(u32, Box<[GroupCap]>)],
        cont: bool,
    ) -> Result<Rc<ClosureGroup>, VmError> {
        let mut members = Vec::with_capacity(parts.len());
        for (code, caps) in parts {
            let mut env = Vec::with_capacity(caps.len());
            for cap in caps.iter() {
                env.push(match cap {
                    GroupCap::Ext(src) if cont => Capture::Val(self.resolve(*src)),
                    GroupCap::Ext(src) => Capture::Val(self.capture(self.resolve(*src))?),
                    GroupCap::Member(j) => Capture::Member(*j),
                });
            }
            members.push((*code, env.into_boxed_slice()));
        }
        self.stats.closures += parts.len() as u64;
        let frame = cont.then_some(self.stack.depth() as u32);
        Ok(Rc::new(ClosureGroup::new(
            members.into_boxed_slice(),
            frame,
        )))
    }

    /// Push a return frame with `exits` and `captures`; each exit's stack
    /// continuation goes to its slot.
    #[inline]
    fn push(&mut self, exits: &[(u32, u16)], captures: &[Src]) {
        let mut caps = self.stack.buffer();
        caps.extend(captures.iter().map(|s| self.resolve(*s)));
        let mut blocks = [NO_EXIT; 2];
        blocks.iter_mut().zip(exits).for_each(|(b, e)| *b = e.0);
        let k = self.stack.push(blocks, caps);
        for (exit, &(_, dst)) in exits.iter().enumerate().take(2) {
            self.frame[dst as usize] = RVal::Cont(StackCont {
                exit: exit as u8,
                ..k
            });
        }
        self.stats.frames += 1;
    }

    #[inline(always)]
    fn step(&mut self) -> Result<Flow, VmError> {
        if self.fuel == 0 {
            return Err(VmError::OutOfFuel);
        }
        self.fuel -= 1;
        self.stats.instrs += 1;

        let blk = self.blk;
        let Some(instr) = blk.instrs.get(self.pc as usize) else {
            return Err(VmError::Trap(format!(
                "pc {} past end of block {}",
                self.pc, blk.name
            )));
        };
        // `instr` borrows from `code`, not `self`; state mutation is free.
        if let Some(p) = self.profile.as_deref_mut() {
            *p.opcodes.entry(instr.profile_key()).or_insert(0) += 1;
        }
        match instr {
            Instr::Mov { dst, src } => {
                let v = self.resolve(*src);
                self.frame[*dst as usize] = v;
                self.pc += 1;
                Ok(Flow::Next)
            }
            Instr::Close {
                dst,
                code,
                captures,
                cont,
            } => {
                let clo = self.close(*code, captures, *cont)?;
                self.frame[*dst as usize] = clo;
                self.pc += 1;
                Ok(Flow::Next)
            }
            Instr::Push { exits, captures } => {
                self.push(exits, captures);
                self.pc += 1;
                Ok(Flow::Next)
            }
            Instr::CloseGroup { dsts, parts, cont } => {
                let group = self.close_group(parts, *cont)?;
                for (j, dst) in dsts.iter().enumerate() {
                    self.frame[*dst as usize] = RVal::Group(group.clone(), j as u16);
                }
                self.pc += 1;
                Ok(Flow::Next)
            }
            Instr::Arith {
                op,
                dst,
                a,
                b,
                on_err,
                on_ok,
            } => {
                let x = self.resolve(*a);
                let y = self.resolve(*b);
                match arith(*op, &x, &y) {
                    Ok(v) => self.continue_value(on_ok, *dst, v),
                    Err(e) => self.exception(on_err, *dst, e),
                }
            }
            Instr::Branch {
                op,
                a,
                b,
                then_,
                else_,
            } => {
                let x = self.resolve(*a);
                let y = self.resolve(*b);
                match compare(*op, &x, &y) {
                    Ok(true) => self.continue_branch(then_),
                    Ok(false) => self.continue_branch(else_),
                    Err(m) => Err(VmError::Trap(m)),
                }
            }
            Instr::Bit {
                op,
                dst,
                a,
                b,
                on_ok,
            } => {
                let x = self.resolve(*a);
                let y = self.resolve(*b);
                match (x.as_int(), y.as_int()) {
                    (Some(x), Some(y)) => {
                        let r = match op {
                            BitOp::Shl => x.wrapping_shl(y as u32 & 63),
                            BitOp::Shr => x.wrapping_shr(y as u32 & 63),
                            BitOp::And => x & y,
                            BitOp::Or => x | y,
                            BitOp::Xor => x ^ y,
                        };
                        self.continue_value(on_ok, *dst, RVal::Int(r))
                    }
                    _ => Err(VmError::Trap("bit operation on non-integers".into())),
                }
            }
            Instr::Conv { op, dst, a, on_ok } => {
                let x = self.resolve(*a);
                let v = match (op, &x) {
                    (ConvOp::CharToInt, RVal::Char(c)) => RVal::Int(i64::from(*c)),
                    (ConvOp::IntToChar, RVal::Int(n)) => RVal::Char(*n as u8),
                    (ConvOp::IntToReal, RVal::Int(n)) => RVal::Real(*n as f64),
                    (ConvOp::RealToInt, RVal::Real(x)) => RVal::Int(x.trunc() as i64),
                    (ConvOp::FSqrt, RVal::Real(x)) => RVal::Real(x.sqrt()),
                    _ => return Err(VmError::Trap(format!("conversion {op:?} on {}", x.kind()))),
                };
                self.continue_value(on_ok, *dst, v)
            }
            Instr::BTest { a, then_, else_ } => match self.resolve(*a) {
                RVal::Bool(true) => self.continue_branch(then_),
                RVal::Bool(false) => self.continue_branch(else_),
                other => Err(VmError::Trap(format!("btest on {}", other.kind()))),
            },
            Instr::Switch {
                scrut,
                tags,
                targets,
                default,
            } => {
                let v = self.resolve(*scrut);
                for (tag, target) in tags.iter().zip(targets.iter()) {
                    let t = self.resolve(*tag);
                    if v.identical(&t) {
                        return self.continue_branch(target);
                    }
                }
                match default {
                    Some(d) => self.continue_branch(d),
                    None => Err(VmError::Trap("case analysis fell through".into())),
                }
            }
            Instr::Alloc {
                kind,
                dst,
                args,
                on_ok,
            } => {
                let obj = match kind {
                    AllocKind::Array | AllocKind::Vector => {
                        let mut slots = Vec::with_capacity(args.len());
                        for a in args.iter() {
                            let v = self.capture(self.resolve(*a))?;
                            slots.push(v.persist(self.store, self.code)?);
                        }
                        if matches!(kind, AllocKind::Array) {
                            Object::Array(slots)
                        } else {
                            Object::Vector(slots)
                        }
                    }
                    AllocKind::New => {
                        let count = self
                            .resolve(args[0])
                            .as_int()
                            .ok_or_else(|| VmError::Trap("new: non-integer size".into()))?;
                        let count = usize::try_from(count)
                            .map_err(|_| VmError::Trap("new: negative size".into()))?;
                        check_len("new", count)?;
                        let init = self.capture(self.resolve(args[1]))?;
                        let init = init.persist(self.store, self.code)?;
                        Object::Array(vec![init; count])
                    }
                    AllocKind::BNew => {
                        let count = self
                            .resolve(args[0])
                            .as_int()
                            .ok_or_else(|| VmError::Trap("bnew: non-integer size".into()))?;
                        let count = usize::try_from(count)
                            .map_err(|_| VmError::Trap("bnew: negative size".into()))?;
                        check_len("bnew", count)?;
                        let init = match self.resolve(args[1]) {
                            RVal::Char(c) => c,
                            RVal::Int(n) => n as u8,
                            other => {
                                return Err(VmError::Trap(format!(
                                    "bnew: bad fill of kind {}",
                                    other.kind()
                                )))
                            }
                        };
                        Object::ByteArray(vec![init; count])
                    }
                };
                let oid = self.store.alloc(obj)?;
                self.continue_value(on_ok, *dst, RVal::Ref(oid))
            }
            Instr::Idx {
                byte,
                dst,
                arr,
                index,
                on_err,
                on_ok,
            } => {
                let (oid, i) = match (self.resolve(*arr), self.resolve(*index)) {
                    (RVal::Ref(o), RVal::Int(i)) => (o, i),
                    // A row not yet persisted is read in place; once it
                    // has an OID the store tuple is the row.
                    (RVal::Row(r), RVal::Int(i)) if !*byte && r.oid().is_none() => {
                        return match usize::try_from(i).ok().and_then(|i| r.slots().get(i)) {
                            Some(v) => self.continue_value(on_ok, *dst, RVal::from_sval(v)),
                            None => self.exception(on_err, *dst, RVal::Str(ERR_BOUNDS.into())),
                        };
                    }
                    (RVal::Row(r), RVal::Int(i)) => (r.persist(self.store)?, i),
                    (a, b) => {
                        return Err(VmError::Trap(format!(
                            "index load on {} with {}",
                            a.kind(),
                            b.kind()
                        )))
                    }
                };
                let loaded = if *byte {
                    self.store.bytes_get(oid, i).map(RVal::Char)
                } else {
                    self.store.array_get(oid, i).map(|v| RVal::from_sval(&v))
                };
                match loaded {
                    Ok(v) => self.continue_value(on_ok, *dst, v),
                    Err(StoreError::Bounds { .. }) => {
                        self.exception(on_err, *dst, RVal::Str(ERR_BOUNDS.into()))
                    }
                    Err(e) => Err(e.into()),
                }
            }
            Instr::IdxSet {
                byte,
                dst,
                arr,
                index,
                value,
                on_err,
                on_ok,
            } => {
                let (oid, i) = match (self.resolve(*arr), self.resolve(*index)) {
                    (RVal::Ref(o), RVal::Int(i)) => (o, i),
                    // A write to a row persists it: every alias then reads
                    // the store tuple.
                    (RVal::Row(r), RVal::Int(i)) => (r.persist(self.store)?, i),
                    (a, b) => {
                        return Err(VmError::Trap(format!(
                            "index store on {} with {}",
                            a.kind(),
                            b.kind()
                        )))
                    }
                };
                let v = self.resolve(*value);
                let stored = if *byte {
                    let byte_val = match v {
                        RVal::Char(c) => c,
                        RVal::Int(n) => n as u8,
                        other => {
                            return Err(VmError::Trap(format!("byte store of {}", other.kind())))
                        }
                    };
                    self.store.bytes_set(oid, i, byte_val)
                } else {
                    let sval = self.capture(v)?.persist(self.store, self.code)?;
                    self.store.array_set(oid, i, sval)
                };
                match stored {
                    Ok(()) => self.continue_value(on_ok, *dst, RVal::Unit),
                    Err(StoreError::Bounds { .. }) => {
                        self.exception(on_err, *dst, RVal::Str(ERR_BOUNDS.into()))
                    }
                    Err(StoreError::Immutable(_)) => {
                        self.exception(on_err, *dst, RVal::Str(ERR_TYPE.into()))
                    }
                    Err(e) => Err(e.into()),
                }
            }
            Instr::Size { dst, arr, on_ok } => {
                let n = match self.resolve(*arr) {
                    RVal::Ref(o) => self.store.size_of(o)?,
                    // A tuple's width never changes: the row's own suffices.
                    RVal::Row(r) => r.slots().len(),
                    other => return Err(VmError::Trap(format!("size of {}", other.kind()))),
                };
                self.continue_value(on_ok, *dst, RVal::Int(n as i64))
            }
            Instr::MoveBlk {
                byte,
                dst,
                args,
                on_err,
                on_ok,
            } => {
                let mut vals = Vec::with_capacity(args.len());
                for src in args.iter() {
                    let v = self.resolve(*src);
                    vals.push(self.stored(v)?);
                }
                match self.move_block(*byte, &vals)? {
                    Ok(_) => self.continue_value(on_ok, *dst, RVal::Unit),
                    Err(e) => self.exception(on_err, *dst, e),
                }
            }
            Instr::Extern {
                name,
                dst,
                args,
                on_err,
                on_ok,
            } => {
                let fname = &blk.extern_names[*name as usize];
                self.host_call(fname, ERR_NO_CCALL, *dst, args, on_err, on_ok)
            }
            Instr::CallPrim {
                prim,
                dst,
                args,
                on_err,
                on_ok,
            } => {
                let pname = &blk.prim_names[*prim as usize];
                self.host_call(pname, ERR_NO_PRIM, *dst, args, on_err, on_ok)
            }
            Instr::PushHandler { handler, on_ok } => {
                if self.handlers.len() >= MAX_HANDLER_DEPTH {
                    return Err(VmError::Trap(format!(
                        "handler stack exceeds {MAX_HANDLER_DEPTH} entries"
                    )));
                }
                let h = self.resolve(*handler);
                self.handlers.push(h);
                self.continue_branch(on_ok)
            }
            Instr::PopHandler { on_ok } => {
                if self.handlers.pop().is_none() {
                    return Err(VmError::Trap("popHandler on empty handler stack".into()));
                }
                self.continue_branch(on_ok)
            }
            Instr::Raise { src } => {
                let v = self.resolve(*src);
                self.stats.exceptions += 1;
                match self.handlers.pop() {
                    Some(h) => {
                        self.next.push(v);
                        self.invoke(h)?;
                        Ok(Flow::Next)
                    }
                    None => Err(VmError::Unhandled(v)),
                }
            }
            Instr::Call { target, args } => {
                let t = self.resolve(*target);
                for src in args.iter() {
                    let v = self.resolve(*src);
                    self.next.push(v);
                }
                self.invoke(t)?;
                Ok(Flow::Next)
            }
            Instr::Jump { target } => {
                self.pc = *target;
                Ok(Flow::Next)
            }
            Instr::Halt { src } => Ok(Flow::Done(self.capture(self.resolve(*src))?)),
            Instr::Print { dst, src, on_ok } => {
                let v = self.resolve(*src);
                let v = self.stored(v)?;
                self.output.push(format!("{v:?}"));
                self.continue_value(on_ok, *dst, RVal::Unit)
            }
            Instr::NativeRet { ok } => Ok(Flow::Native {
                ok: *ok,
                value: self.capture(self.frame.first().cloned().unwrap_or(RVal::Unit))?,
            }),
        }
    }

    /// Call the extension primitive registered under `name` (`missing`
    /// tags the exception when none is).
    fn host_call(
        &mut self,
        name: &str,
        missing: &str,
        dst: u16,
        args: &[Src],
        on_err: &ContRef,
        on_ok: &ContRef,
    ) -> Result<Flow, VmError> {
        if let Some(p) = self.profile.as_deref_mut() {
            match p.externs.get_mut(name) {
                Some(n) => *n += 1,
                None => {
                    p.externs.insert(name.to_string(), 1);
                }
            }
        }
        let Some(f) = self.externs.lookup(name) else {
            return self.exception(on_err, dst, RVal::Str(format!("{missing}:{name}").into()));
        };
        let mut vals = self.spare.pop().unwrap_or_default();
        for s in args {
            match self.capture(self.resolve(*s)) {
                Ok(v) => vals.push(v),
                Err(e) => {
                    self.recycle(vals);
                    return Err(e);
                }
            }
        }
        let r = f(self, &vals);
        self.recycle(vals);
        match r {
            Ok(v) => self.continue_value(on_ok, dst, v),
            Err(e) => self.exception(on_err, dst, e),
        }
    }

    /// Block move. The outer `Result` carries machine-level failures (an
    /// IO error from a durable backend); the inner one carries TML
    /// exceptions (bounds, type) for the exception continuation. Validates
    /// through reads first, then copies through one logged `mutate`.
    fn move_block(&mut self, byte: bool, vals: &[RVal]) -> Result<Result<RVal, RVal>, VmError> {
        let get_ref = |v: &RVal| v.as_ref_oid_or_err();
        let get_ix = |v: &RVal| v.as_int().ok_or_else(|| RVal::Str(ERR_TYPE.into()));
        let parsed = (|| {
            let dst = get_ref(&vals[0])?;
            let dst_off = get_ix(&vals[1])?;
            let src = get_ref(&vals[2])?;
            let src_off = get_ix(&vals[3])?;
            let len = get_ix(&vals[4])?;
            match (
                usize::try_from(dst_off),
                usize::try_from(src_off),
                usize::try_from(len),
            ) {
                (Ok(a), Ok(b), Ok(c)) => Ok((dst, src, a, b, c)),
                _ => Err(RVal::Str(ERR_BOUNDS.into())),
            }
        })();
        let (dst, src, dst_off, src_off, len) = match parsed {
            Ok(t) => t,
            Err(e) => return Ok(Err(e)),
        };
        if byte {
            let src_bytes = match self.store.base().get(src) {
                Ok(Object::ByteArray(b)) => b.clone(),
                _ => return Ok(Err(RVal::Str(ERR_TYPE.into()))),
            };
            if src_off + len > src_bytes.len() {
                return Ok(Err(RVal::Str(ERR_BOUNDS.into())));
            }
            match self.store.base().get(dst) {
                Ok(Object::ByteArray(d)) => {
                    if dst_off + len > d.len() {
                        return Ok(Err(RVal::Str(ERR_BOUNDS.into())));
                    }
                }
                _ => return Ok(Err(RVal::Str(ERR_TYPE.into()))),
            }
            self.store.mutate(dst, &mut |obj| {
                if let Object::ByteArray(d) = obj {
                    d[dst_off..dst_off + len].copy_from_slice(&src_bytes[src_off..src_off + len]);
                }
                Ok(())
            })?;
            Ok(Ok(RVal::Unit))
        } else {
            let src_slots = match self.store.base().get(src) {
                Ok(Object::Array(v)) | Ok(Object::Vector(v)) => v.clone(),
                _ => return Ok(Err(RVal::Str(ERR_TYPE.into()))),
            };
            if src_off + len > src_slots.len() {
                return Ok(Err(RVal::Str(ERR_BOUNDS.into())));
            }
            match self.store.base().get(dst) {
                Ok(Object::Array(d)) => {
                    if dst_off + len > d.len() {
                        return Ok(Err(RVal::Str(ERR_BOUNDS.into())));
                    }
                }
                _ => return Ok(Err(RVal::Str(ERR_TYPE.into()))),
            }
            self.store.mutate(dst, &mut |obj| {
                if let Object::Array(d) = obj {
                    d[dst_off..dst_off + len].clone_from_slice(&src_slots[src_off..src_off + len]);
                }
                Ok(())
            })?;
            Ok(Ok(RVal::Unit))
        }
    }
}

impl<S: StoreAccess> Drop for Machine<'_, S> {
    fn drop(&mut self) {
        // Publishes only when a profile was collected (tracing enabled at
        // construction); the common case is a no-op.
        self.publish_trace();
    }
}

impl RVal {
    fn as_ref_oid_or_err(&self) -> Result<Oid, RVal> {
        match self {
            RVal::Ref(o) => Ok(*o),
            _ => Err(RVal::Str(ERR_TYPE.into())),
        }
    }
}

impl<S: StoreAccess> HostCtx for Machine<'_, S> {
    fn store(&mut self) -> &mut dyn StoreAccess {
        self.store
    }

    fn persist(&mut self, v: &RVal) -> Result<SVal, StoreError> {
        // A stale stack continuation stays one, which `persist` refuses.
        let v = self.capture(v.clone()).unwrap_or_else(|_| v.clone());
        v.persist(self.store, self.code)
    }

    fn call(&mut self, target: RVal, args: Vec<RVal>) -> Result<RVal, RVal> {
        self.call_value(target, args)
    }

    fn emit(&mut self, line: String) {
        self.output.push(line);
    }
}

/// Refuse an allocation above [`MAX_OBJECT_LEN`] before making it.
fn check_len(prim: &str, count: usize) -> Result<(), VmError> {
    if count > MAX_OBJECT_LEN {
        return Err(VmError::Trap(format!(
            "{prim}: size {count} exceeds the object limit of {MAX_OBJECT_LEN}"
        )));
    }
    Ok(())
}

fn int_operands(x: &RVal, y: &RVal) -> Result<(i64, i64), RVal> {
    match (x.as_int(), y.as_int()) {
        (Some(a), Some(b)) => Ok((a, b)),
        _ => Err(RVal::Str(ERR_TYPE.into())),
    }
}

fn real_operands(x: &RVal, y: &RVal) -> Result<(f64, f64), RVal> {
    match (x.as_real(), y.as_real()) {
        (Some(a), Some(b)) => Ok((a, b)),
        _ => Err(RVal::Str(ERR_TYPE.into())),
    }
}

fn checked(r: Option<i64>) -> Result<RVal, RVal> {
    r.map(RVal::Int)
        .ok_or_else(|| RVal::Str(ERR_OVERFLOW.into()))
}

fn nonzero(b: i64) -> Result<i64, RVal> {
    if b == 0 {
        Err(RVal::Str(ERR_ZERO_DIVIDE.into()))
    } else {
        Ok(b)
    }
}

fn arith(op: ArithOp, x: &RVal, y: &RVal) -> Result<RVal, RVal> {
    match op {
        ArithOp::Add => int_operands(x, y).and_then(|(a, b)| checked(a.checked_add(b))),
        ArithOp::Sub => int_operands(x, y).and_then(|(a, b)| checked(a.checked_sub(b))),
        ArithOp::Mul => int_operands(x, y).and_then(|(a, b)| checked(a.checked_mul(b))),
        ArithOp::Div => {
            let (a, b) = int_operands(x, y)?;
            checked(a.checked_div(nonzero(b)?))
        }
        ArithOp::Mod => {
            let (a, b) = int_operands(x, y)?;
            checked(a.checked_rem(nonzero(b)?))
        }
        ArithOp::FAdd => real_operands(x, y).map(|(a, b)| RVal::Real(a + b)),
        ArithOp::FSub => real_operands(x, y).map(|(a, b)| RVal::Real(a - b)),
        ArithOp::FMul => real_operands(x, y).map(|(a, b)| RVal::Real(a * b)),
        ArithOp::FDiv => real_operands(x, y).map(|(a, b)| RVal::Real(a / b)),
    }
}

fn compare(op: CmpOp, x: &RVal, y: &RVal) -> Result<bool, String> {
    let int_pair = || match (x.as_int(), y.as_int()) {
        (Some(a), Some(b)) => Ok((a, b)),
        _ => Err(format!(
            "integer comparison of {} and {}",
            x.kind(),
            y.kind()
        )),
    };
    let real_pair = || match (x.as_real(), y.as_real()) {
        (Some(a), Some(b)) => Ok((a, b)),
        _ => Err(format!("real comparison of {} and {}", x.kind(), y.kind())),
    };
    match op {
        CmpOp::Lt => int_pair().map(|(a, b)| a < b),
        CmpOp::Gt => int_pair().map(|(a, b)| a > b),
        CmpOp::Le => int_pair().map(|(a, b)| a <= b),
        CmpOp::Ge => int_pair().map(|(a, b)| a >= b),
        // `=`/`<>` extend to object identity on non-integers.
        CmpOp::Eq => Ok(match (x.as_int(), y.as_int()) {
            (Some(a), Some(b)) => a == b,
            _ => x.identical(y),
        }),
        CmpOp::Ne => Ok(match (x.as_int(), y.as_int()) {
            (Some(a), Some(b)) => a != b,
            _ => !x.identical(y),
        }),
        CmpOp::FLt => real_pair().map(|(a, b)| a < b),
        CmpOp::FLe => real_pair().map(|(a, b)| a <= b),
        CmpOp::FEq => real_pair().map(|(a, b)| a == b),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rval::TransientRow;
    use crate::Vm;
    use tml_core::parse::parse_app;
    use tml_core::Ctx;
    use tml_store::SVal;

    fn run(src: &str) -> Result<Outcome, VmError> {
        let mut ctx = Ctx::new();
        let parsed = parse_app(&mut ctx, src).unwrap();
        let mut vm = Vm::new();
        let block = vm.compile_program(&ctx, &parsed.app).unwrap();
        let mut store = Store::new();
        vm.run_program(&mut store, block, 1_000_000)
    }

    #[test]
    fn a_stored_continuation_drops_the_frames_it_abandons() {
        // `p` lands in the store with the loop it closes over and `g`'s
        // return continuation. Called through the store after `g`
        // returned, the loop returns through that continuation, which
        // drops the frame of `p`'s own call.
        let src = "(new 1 0 cont(a) \
           (cont(g) (g 5 cont(e) (halt -1) cont(r) \
              ([] a 0 cont(e) (halt -2) cont(p) \
                (= r 6 cont() (p 7 cont(e) (halt -3) cont(z) (halt -4)) \
                       cont() (halt r)))) \
            proc(x ^ce ^cc) (Y proc(^c0 ^loop ^c) (c cont() (loop x) \
              cont(i) (= i 5 \
                cont() ([:=] a 0 proc(y ^ce2 ^cc2) (loop y) ce cont(u) (cc 6)) \
                cont() (cc i))))))";
        let mut ctx = Ctx::new();
        let parsed = parse_app(&mut ctx, src).unwrap();
        let mut vm = Vm::new();
        let block = vm.compile_program(&ctx, &parsed.app).unwrap();
        let mut store = Store::new();
        let mut m = Machine::new(&vm.code, &vm.externs, &mut store, 100_000);
        let out = m.run(block, Vec::new(), Vec::new()).unwrap();
        assert_eq!(out.result.as_int(), Some(7));
        assert_eq!(m.stack.depth(), 0);
    }

    fn run_int(src: &str) -> i64 {
        match run(src).unwrap().result {
            RVal::Int(n) => n,
            other => panic!("expected int, got {other:?}"),
        }
    }

    #[test]
    fn halt_constant() {
        assert_eq!(run_int("(halt 42)"), 42);
    }

    #[test]
    fn direct_binding() {
        assert_eq!(run_int("(cont(x) (halt x) 13)"), 13);
    }

    #[test]
    fn arithmetic_and_conts() {
        assert_eq!(
            run_int("(+ 1 2 cont(e)(halt -1) cont(t) (* t 7 cont(e2)(halt -2) cont(u)(halt u)))"),
            21
        );
    }

    #[test]
    fn division_by_zero_goes_to_ce() {
        let out = run("(/ 1 0 cont(e)(halt e) cont(t)(halt t))").unwrap();
        assert_eq!(out.result, RVal::Str(ERR_ZERO_DIVIDE.into()));
        assert_eq!(out.stats.exceptions, 1);
    }

    #[test]
    fn overflow_goes_to_ce() {
        let out = run(&format!(
            "(+ {} 1 cont(e)(halt e) cont(t)(halt t))",
            i64::MAX
        ))
        .unwrap();
        assert_eq!(out.result, RVal::Str(ERR_OVERFLOW.into()));
    }

    #[test]
    fn comparison_branches() {
        assert_eq!(run_int("(< 1 2 cont()(halt 1) cont()(halt 0))"), 1);
        assert_eq!(run_int("(>= 1 2 cont()(halt 1) cont()(halt 0))"), 0);
    }

    #[test]
    fn procedure_call_through_closure() {
        let src = "(cont(f) (f 41 cont(e)(halt -1) cont(t)(halt t)) \
                    proc(x ce cc) (+ x 1 ce cc))";
        assert_eq!(run_int(src), 42);
    }

    #[test]
    fn paper_for_loop_sums() {
        // for i = 1 upto 10 accumulating in an array slot; result 10 when
        // the loop exits (the paper's figure computes f(i) per iteration —
        // here we just count).
        let src = "(Y proc(^c0 ^for ^c) (c \
                     cont() (for 1) \
                     cont(i) (> i 10 \
                        cont() (halt i) \
                        cont() (+ i 1 cont(e)(halt -1) cont(t) (for t)))))";
        assert_eq!(run_int(src), 11);
    }

    #[test]
    fn mutual_recursion_via_y() {
        // even/odd: even(8) = 1
        let src = "(Y proc(^c0 ^even ^odd ^c) (c \
            cont() (even 8) \
            cont(n) (= n 0 cont() (halt 1) cont() (- n 1 cont(e)(halt -1) cont(m) (odd m))) \
            cont(n) (= n 0 cont() (halt 0) cont() (- n 1 cont(e)(halt -1) cont(m) (even m)))))";
        assert_eq!(run_int(src), 1);
    }

    #[test]
    fn arrays_alloc_get_set() {
        let src = "(array 10 20 30 cont(a) \
                     ([:=] a 1 99 cont(e)(halt -1) cont(u) \
                       ([] a 1 cont(e2)(halt -2) cont(v) (halt v))))";
        assert_eq!(run_int(src), 99);
    }

    #[test]
    fn array_bounds_exception() {
        let src = "(array 1 cont(a) ([] a 5 cont(e)(halt e) cont(v)(halt v)))";
        let out = run(src).unwrap();
        assert_eq!(out.result, RVal::Str(ERR_BOUNDS.into()));
    }

    #[test]
    fn vector_immutable() {
        let src = "(vector 1 cont(a) ([:=] a 0 9 cont(e)(halt e) cont(u)(halt 0)))";
        let out = run(src).unwrap();
        assert_eq!(out.result, RVal::Str(ERR_TYPE.into()));
    }

    #[test]
    fn byte_arrays() {
        let src = "(bnew 4 0 cont(a) \
                     (b[:=] a 2 'x' cont(e)(halt -1) cont(u) \
                       (b[] a 2 cont(e2)(halt -2) cont(v) \
                         (char2int v cont(n) (halt n)))))";
        assert_eq!(run_int(src), 120);
    }

    #[test]
    fn size_and_move() {
        let src = "(array 1 2 3 cont(a) \
                    (new 3 0 cont(b) \
                      (move b 0 a 0 3 cont(e)(halt -1) cont(u) \
                        ([] b 2 cont(e2)(halt -2) cont(v) (halt v)))))";
        assert_eq!(run_int(src), 3);
    }

    #[test]
    fn case_analysis_switch() {
        let src = "(cont(x) (== x 1 2 3 cont()(halt 10) cont()(halt 20) cont()(halt 30)) 2)";
        assert_eq!(run_int(src), 20);
        let with_default = "(cont(x) (== x 1 2 cont()(halt 10) cont()(halt 20) cont()(halt 99)) 7)";
        assert_eq!(run_int(with_default), 99);
    }

    #[test]
    fn handler_stack() {
        let src = "(pushHandler cont(e) (halt e) cont() (raise 77))";
        assert_eq!(run_int(src), 77);
    }

    #[test]
    fn unhandled_raise_errors() {
        match run("(raise 5)") {
            Err(VmError::Unhandled(RVal::Int(5))) => {}
            other => panic!("expected unhandled, got {other:?}"),
        }
    }

    #[test]
    fn pop_handler_restores_outer() {
        let src = "(pushHandler cont(e) (halt 1) cont() \
                     (pushHandler cont(e2) (halt 2) cont() \
                       (popHandler cont() (raise 0))))";
        assert_eq!(run_int(src), 1);
    }

    #[test]
    fn real_arithmetic_and_sqrt() {
        let src = "(f* 3.0 4.0 cont(e)(halt -1) cont(a) \
                     (f+ a 13.0 cont(e2)(halt -2) cont(b) \
                       (fsqrt b cont(e3)(halt -3) cont(r) \
                         (r2i r cont(n) (halt n)))))";
        assert_eq!(run_int(src), 5);
    }

    #[test]
    fn print_collects_output() {
        let src = "(print 7 cont(u) (print \"hi\" cont(u2) (halt 0)))";
        let out = run(src).unwrap();
        assert_eq!(out.output, vec!["7", "\"hi\""]);
    }

    #[test]
    fn fuel_limit_enforced() {
        let src = "(Y proc(^c0 ^f ^c) (c cont() (f 0) cont(i) (f i)))";
        let mut ctx = Ctx::new();
        let parsed = parse_app(&mut ctx, src).unwrap();
        let mut vm = Vm::new();
        let block = vm.compile_program(&ctx, &parsed.app).unwrap();
        let mut store = Store::new();
        match vm.run_program(&mut store, block, 10_000) {
            Err(VmError::OutOfFuel) => {}
            other => panic!("expected out of fuel, got {other:?}"),
        }
    }

    #[test]
    fn deep_recursion_is_constant_stack() {
        // A 100_000-deep recursive countdown: all control transfer is
        // tail transfer, so the host stack stays flat and the program
        // completes within its fuel budget instead of overflowing.
        let src = "(Y proc(^c0 ^f ^c) (c \
            cont() (f 100000) \
            cont(i) (= i 0 \
               cont() (halt 77) \
               cont() (- i 1 cont(e)(halt -1) cont(m) (f m)))))";
        assert_eq!(run_int(src), 77);
    }

    #[test]
    fn handler_flood_traps_with_typed_error() {
        // A loop that pushes a handler per iteration without ever popping:
        // the machine must trap (typed) at the handler-depth guard rail
        // rather than grow the handler stack until memory runs out.
        let src = "(Y proc(^c0 ^loop ^c) (c \
            cont() (loop 0) \
            cont(i) (pushHandler cont(e)(halt e) cont() (loop i))))";
        match run(src) {
            Err(VmError::Trap(m)) => assert!(m.contains("handler stack exceeds"), "{m}"),
            other => panic!("expected handler-depth trap, got {other:?}"),
        }
    }

    #[test]
    fn native_nesting_traps_before_host_stack_overflows() {
        // An extern that re-enters the machine on a procedure which ccalls
        // the extern again: unbounded TML↔native mutual recursion. Each
        // level is a real Rust frame, so the machine traps at the nesting
        // guard and the error unwinds through the exception continuations.
        let src = "(cont(p) (ccall \"deep\" p cont(e)(halt e) cont(t)(halt t)) \
                    proc(x ce cc) (ccall \"deep\" x ce cc))";
        let mut ctx = Ctx::new();
        let parsed = parse_app(&mut ctx, src).unwrap();
        let mut vm = Vm::new();
        vm.externs.register("deep", |ctx, args| {
            ctx.call(args[0].clone(), vec![args[0].clone()])
        });
        let block = vm.compile_program(&ctx, &parsed.app).unwrap();
        let mut store = Store::new();
        let out = vm.run_program(&mut store, block, 1_000_000).unwrap();
        match out.result {
            RVal::Str(s) => assert!(s.contains("native call nesting"), "{s}"),
            other => panic!("expected nesting-trap exception value, got {other:?}"),
        }
    }

    #[test]
    fn stats_count_calls_and_closures() {
        let src = "(cont(f) (f 1 cont(e)(halt -1) cont(t)(halt t)) \
                    proc(x ce cc) (+ x 1 ce cc))";
        let out = run(src).unwrap();
        assert!(out.stats.calls >= 2); // proc call + cc invocation
                                       // The proc is a heap closure, the return continuation a frame.
        assert_eq!((out.stats.closures, out.stats.frames), (1, 1));
        assert!(out.stats.instrs > 0);
    }

    #[test]
    fn switch_with_variable_tags() {
        // Tags may be variables; identity is decided at runtime.
        let src = "(cont(a b) \
            (== 5 a b cont()(halt 1) cont()(halt 2) cont()(halt 3)) \
            9 5)";
        assert_eq!(run_int(src), 2);
    }

    #[test]
    fn switch_without_default_traps_on_no_match() {
        let src = "(== 9 1 2 cont()(halt 1) cont()(halt 2))";
        match run(src) {
            Err(VmError::Trap(m)) => assert!(m.contains("fell through"), "{m}"),
            other => panic!("expected trap, got {other:?}"),
        }
    }

    #[test]
    fn first_class_procedures_persist_into_the_store() {
        // Store a procedure in an array, read it back later, call it —
        // the transient closure is persisted on write and callable through
        // its OID (the paper's first-class persistent procedures).
        let src = "(cont(f) \
            (array f cont(a) \
              ([] a 0 cont(e)(halt -1) cont(g) \
                (g 20 cont(e2)(halt -2) cont(t) (halt t)))) \
            proc(x ce cc) (* x 2 ce cc))";
        assert_eq!(run_int(src), 40);
    }

    #[test]
    fn handler_survives_across_procedure_calls() {
        // pushHandler installs a machine-level handler; a raise inside a
        // callee unwinds to it even though the callee never saw it.
        let src = "(cont(f) \
            (pushHandler cont(e) (halt e) cont() \
              (f 1 cont(e2)(halt -1) cont(t)(halt t))) \
            proc(x ce cc) (raise 55))";
        assert_eq!(run_int(src), 55);
    }

    #[test]
    fn extern_primitives_execute() {
        let mut ctx = Ctx::new();
        ctx.prims.register(tml_core::PrimDef {
            name: "host.double".into(),
            signature: tml_core::Signature::exact(1, 2),
            attrs: Default::default(),
            fold: None,
            rewrite: None,
            validate: None,
            cost: tml_core::prim::PrimCost::Const(5),
            codegen: None,
        });
        let parsed = parse_app(
            &mut ctx,
            "(host.double 21 cont(e)(halt -1) cont(t)(halt t))",
        )
        .unwrap();
        let mut vm = Vm::new();
        vm.externs.register("host.double", |_ctx, args| {
            Ok(RVal::Int(args[0].as_int().unwrap() * 2))
        });
        let block = vm.compile_program(&ctx, &parsed.app).unwrap();
        let mut store = Store::new();
        let out = vm.run_program(&mut store, block, 100_000).unwrap();
        assert_eq!(out.result, RVal::Int(42));
    }

    /// Run `src` with the extern `host.row` producing the row `(1, 2, 3)`:
    /// a transient row, or with `tuple` the same values as a store tuple.
    fn run_with_row(src: &str, tuple: bool) -> (Result<Outcome, VmError>, Store) {
        let mut ctx = Ctx::new();
        ctx.prims.register(tml_core::PrimDef {
            name: "host.row".into(),
            signature: tml_core::Signature::exact(0, 2),
            attrs: Default::default(),
            fold: None,
            rewrite: None,
            validate: None,
            cost: tml_core::prim::PrimCost::Const(5),
            codegen: None,
        });
        let parsed = parse_app(&mut ctx, src).unwrap();
        let mut vm = Vm::new();
        vm.externs.register("host.row", move |ctx, _| {
            let slots = vec![SVal::Int(1), SVal::Int(2), SVal::Int(3)];
            if tuple {
                let oid = ctx.store().alloc(Object::Tuple(slots)).unwrap();
                Ok(RVal::Ref(oid))
            } else {
                Ok(RVal::Row(Rc::new(TransientRow::new(slots))))
            }
        });
        let block = vm.compile_program(&ctx, &parsed.app).unwrap();
        let mut store = Store::new();
        let out = vm.run_program(&mut store, block, 100_000);
        (out, store)
    }

    #[test]
    fn rows_are_read_in_place() {
        let src = "(host.row cont(e)(halt -1) cont(r) \
                     ([] r 1 cont(e)(halt e) cont(a) (size r cont(n) \
                       (* a 10 cont(e)(halt e) cont(b) (+ b n cont(e)(halt e) cont(c)(halt c))))))";
        let (out, store) = run_with_row(src, false);
        assert_eq!(out.unwrap().result, RVal::Int(23));
        assert!(store.is_empty(), "reads allocate nothing");
    }

    #[test]
    fn rows_behave_as_store_tuples() {
        let probes = [
            // A write persists the row once; the stored alias sees it.
            "(host.row cont(e)(halt -1) cont(r) (array r cont(a) \
               ([:=] r 0 9 cont(e)(halt e) cont(u) ([] a 0 cont(e)(halt e) cont(t) \
                 ([] t 0 cont(e)(halt e) cont(v) ([] r 0 cont(e)(halt e) cont(w) \
                   (= t r cont() (+ v w cont(e)(halt e) cont(x)(halt x)) cont() (halt -2))))))))",
            "(host.row cont(e)(halt -1) cont(r) ([] r 3 cont(e)(halt e) cont(v)(halt v)))",
            "(host.row cont(e)(halt -1) cont(r) ([:=] r -1 0 cont(e)(halt e) cont(v)(halt v)))",
            "(host.row cont(e)(halt -1) cont(r) (new 3 0 cont(a) \
               (move a 0 r 0 3 cont(e)(halt e) cont(u)(halt 0))))",
            "(host.row cont(e)(halt -1) cont(r) (b[] r 0 cont(e)(halt e) cont(v)(halt v)))",
            "(host.row cont(e)(halt -1) cont(r) (r 1 cont(e)(halt e) cont(v)(halt v)))",
            "(host.row cont(e)(halt -1) cont(r) (print r cont(u) (halt 0)))",
            "(host.row cont(e)(halt -1) cont(r) (== r r cont() (halt 1) cont() (halt 0)))",
        ];
        for src in probes {
            // A persisted row takes the OID the tuple was given, so even
            // messages naming the object agree.
            let show = |tuple| match run_with_row(src, tuple).0 {
                Ok(o) => format!("{:?} {:?}", o.result, o.output),
                Err(e) => e.to_string(),
            };
            assert_eq!(show(false), show(true), "{src}");
        }
        let (out, store) = run_with_row(probes[0], false);
        assert_eq!(out.unwrap().result, RVal::Int(18));
        assert_eq!(store.len(), 2, "the array and the row's one tuple");
    }

    #[test]
    fn allocations_above_the_object_limit_trap() {
        // Checked before allocating: nothing is built at any of these sizes.
        let over = MAX_OBJECT_LEN + 1;
        for src in [
            format!("(new {over} 0 cont(a) (halt 0))"),
            format!("(bnew {over} 0 cont(a) (halt 0))"),
            format!("(new {} 0 cont(a) (halt 0))", i64::MAX),
        ] {
            match run(&src) {
                Err(VmError::Trap(m)) => assert!(m.contains("exceeds the object limit"), "{m}"),
                other => panic!("{src}: expected a trap, got {other:?}"),
            }
        }
        assert_eq!(run_int("(new 3 7 cont(a) (size a cont(n) (halt n)))"), 3);
    }

    #[test]
    fn extern_can_reenter_machine() {
        // host.apply calls its closure argument with 5.
        let mut ctx = Ctx::new();
        ctx.prims.register(tml_core::PrimDef {
            name: "host.apply".into(),
            signature: tml_core::Signature::exact(2, 2),
            attrs: Default::default(),
            fold: None,
            rewrite: None,
            validate: None,
            cost: tml_core::prim::PrimCost::Const(5),
            codegen: None,
        });
        let src = "(cont(f) (host.apply f 5 cont(e)(halt -1) cont(t)(halt t)) \
                    proc(x ce cc) (* x x ce cc))";
        let parsed = parse_app(&mut ctx, src).unwrap();
        let mut vm = Vm::new();
        vm.externs.register("host.apply", |ctx, args| {
            let f = args[0].clone();
            let x = args[1].clone();
            ctx.call(f, vec![x])
        });
        let block = vm.compile_program(&ctx, &parsed.app).unwrap();
        let mut store = Store::new();
        let out = vm.run_program(&mut store, block, 100_000).unwrap();
        assert_eq!(out.result, RVal::Int(25));
    }

    #[test]
    fn missing_extern_is_an_exception() {
        let mut ctx = Ctx::new();
        ctx.prims.register(tml_core::PrimDef {
            name: "host.nope".into(),
            signature: tml_core::Signature::exact(0, 2),
            attrs: Default::default(),
            fold: None,
            rewrite: None,
            validate: None,
            cost: tml_core::prim::PrimCost::Const(5),
            codegen: None,
        });
        let parsed = parse_app(&mut ctx, "(host.nope cont(e)(halt e) cont(t)(halt 0))").unwrap();
        let mut vm = Vm::new();
        let block = vm.compile_program(&ctx, &parsed.app).unwrap();
        let mut store = Store::new();
        let out = vm.run_program(&mut store, block, 100_000).unwrap();
        match out.result {
            RVal::Str(s) => assert!(s.contains("unknown-prim")),
            other => panic!("expected exception string, got {other:?}"),
        }
    }

    #[test]
    fn non_tail_recursion_through_loop_labels() {
        // Factorial: the recursive call is NOT a tail call — its return
        // continuation is a closure capturing the current n. Loop
        // compilation turns the recursion into a label jump reusing the
        // frame; the captured closure must still see the old n.
        let src = "(Y proc(^c0 ^fact ^c) (c \
            cont() (fact 10 cont(e)(halt -1) cont(r)(halt r)) \
            proc(n ce cc) \
              (< n 2 \
                cont() (cc 1) \
                cont() (- n 1 ce cont(m) \
                  (fact m ce cont(t) (* n t ce cc))))))";
        assert_eq!(run_int(src), 3_628_800);
    }

    #[test]
    fn eta_reduced_loop_continuations_jump() {
        // After η-reduction a loop head appears directly as a primitive's
        // continuation value: (+ i 1 ce for). The compiler must emit a
        // jump stub, not a closure.
        let src = "(Y proc(^c0 ^for ^c) (c \
            cont() (for 0) \
            cont(i) (> i 5000 \
               cont() (halt i) \
               cont() (+ i 1 cont(e)(halt -1) for))))";
        let mut ctx = Ctx::new();
        let parsed = parse_app(&mut ctx, src).unwrap();
        let mut vm = Vm::new();
        let block = vm.compile_program(&ctx, &parsed.app).unwrap();
        let mut store = Store::new();
        let out = vm.run_program(&mut store, block, 10_000_000).unwrap();
        assert_eq!(out.result, RVal::Int(5001));
        // Whole loop runs with zero closure transfers.
        assert_eq!(
            out.stats.calls, 0,
            "loop must not allocate or call closures"
        );
        assert_eq!(out.stats.closures, 0);
    }

    /// `even`/`odd` as an escaping closure group: the program text, with
    /// `ENTRY` replaced by the entry continuation's body.
    fn even_odd(entry: &str) -> String {
        format!(
            "(cont(apply) (Y proc(^c0 ^even ^odd ^c) (c \
               cont() {entry} \
               proc(n ce cc) (= n 0 cont() (cc 1) cont() (- n 1 ce cont(m) (odd m ce cc))) \
               proc(n ce cc) (= n 0 cont() (cc 0) cont() (- n 1 ce cont(m) (even m ce cc))))) \
             proc(f x ce cc) (f x ce cc))"
        )
    }

    fn run_in(store: &mut Store, src: &str) -> (Vm, Outcome) {
        let mut ctx = Ctx::new();
        let parsed = parse_app(&mut ctx, src).unwrap();
        let mut vm = Vm::new();
        let block = vm.compile_program(&ctx, &parsed.app).unwrap();
        let out = vm.run_program(store, block, 1_000_000).unwrap();
        (vm, out)
    }

    #[test]
    fn closure_group_members_call_each_other_off_the_store() {
        // `even` escapes into `apply`, so the fixpoint is a closure group;
        // calling through it recurses 9 levels across both members
        // without a single store object.
        let mut store = Store::new();
        let (_, out) = run_in(
            &mut store,
            &even_odd("(apply even 9 cont(e)(halt -1) cont(r)(halt r))"),
        );
        assert_eq!(out.result, RVal::Int(0));
        assert!(store.is_empty(), "{} store objects", store.len());
    }

    #[test]
    fn returned_member_is_callable_in_a_later_run() {
        let mut store = Store::new();
        let (vm, out) = run_in(&mut store, &even_odd("(halt even)"));
        assert!(matches!(out.result, RVal::Group(..)), "{:?}", out.result);
        let mut m = Machine::new(&vm.code, &vm.externs, &mut store, 1_000_000);
        assert_eq!(
            m.call_value(out.result.clone(), vec![RVal::Int(9)]),
            Ok(RVal::Int(0))
        );
        assert_eq!(
            m.call_value(out.result, vec![RVal::Int(10)]),
            Ok(RVal::Int(1))
        );
        drop(m);
        assert!(store.is_empty());
    }

    #[test]
    fn stored_member_persists_its_group_once() {
        // Store `even` into two array slots, read both back and call one:
        // the persisted copy still recurses through `odd`. Both slots hold
        // the same OID, and that OID is `==` to the transient member.
        let entry = "(array even even cont(a) \
            ([] a 0 cont(e)(halt -1) cont(g) \
              ([] a 1 cont(e)(halt -1) cont(h) \
                (g 7 cont(e)(halt -2) cont(r) \
                  (= g even \
                    cont() (= g h cont() (+ r 11 cont(e)(halt -3) cont(t)(halt t)) cont() (halt -4)) \
                    cont() (halt -5))))))";
        let mut store = Store::new();
        let (_, out) = run_in(&mut store, &even_odd(entry));
        assert_eq!(out.result, RVal::Int(11));
        let kinds: Vec<&str> = store.iter().map(|(_, o)| o.kind()).collect();
        assert_eq!(kinds, ["closure", "closure", "array"]);
    }

    #[test]
    fn member_identity_survives_persisting() {
        let mut store = Store::new();
        let (vm, out) = run_in(&mut store, &even_odd("(halt even)"));
        let RVal::Group(g, j) = &out.result else {
            panic!("expected a group member, got {:?}", out.result);
        };
        let odd = RVal::Group(g.clone(), 1 - j);
        assert!(!out.result.identical(&odd));
        assert!(g.oids().is_none());
        let stored = out.result.persist(&mut store, &vm.code).unwrap();
        let again = out.result.persist(&mut store, &vm.code).unwrap();
        assert_eq!(stored, again);
        assert_eq!(store.len(), 2, "one closure per member, once");
        let stored = RVal::from_sval(&stored);
        assert!(out.result.identical(&stored) && stored.identical(&out.result));
        assert!(!odd.identical(&stored));
        assert!(RVal::from_sval(&odd.persist(&mut store, &vm.code).unwrap()).identical(&odd));
        assert_eq!(store.len(), 2);
    }

    #[test]
    fn a_stored_closure_runs_only_while_linked_and_live() {
        let mut store = Store::new();
        let (vm, out) = run_in(&mut store, "(halt proc(x ce cc) (+ x 1 ce cc))");
        let SVal::Ref(oid) = out.result.persist(&mut store, &vm.code).unwrap() else {
            panic!("a closure persists as a reference")
        };
        let call = |store: &mut Store, code: &CodeTable, oid| {
            Machine::new(code, &vm.externs, store, 1_000)
                .call_value_checked(RVal::Ref(oid), vec![RVal::Int(41)])
        };
        assert_eq!(call(&mut store, &vm.code, oid).unwrap(), Ok(RVal::Int(42)));
        // Another session's code table holds no link for it.
        assert!(matches!(
            call(&mut store, &CodeTable::new(), oid),
            Err(VmError::Trap(m)) if m.contains("no code in this session")
        ));
        // A non-closure object, or the closure once freed, traps typed
        // whatever the link table holds.
        let arr = store.alloc(Object::Array(vec![]));
        assert!(matches!(
            call(&mut store, &vm.code, arr),
            Err(VmError::Store(StoreError::WrongKind { .. }))
        ));
        StoreAccess::free_obj(&mut store, oid).unwrap();
        assert!(matches!(
            call(&mut store, &vm.code, oid),
            Err(VmError::Store(StoreError::Dangling(_)))
        ));
    }

    #[test]
    fn exceptions_inside_members_reach_their_handlers() {
        // A zero division at the bottom of the recursion takes the `ce`
        // threaded through every member call.
        let divide = "(cont(apply) (Y proc(^c0 ^f ^c) (c \
              cont() (apply f 3 cont(e)(halt e) cont(r)(halt -1)) \
              proc(n ce cc) (= n 0 cont() (/ 1 n ce cc) \
                 cont() (- n 1 ce cont(m) (f m ce cont(t) (cc t)))))) \
            proc(g x ce cc) (g x ce cc))";
        let out = run(divide).unwrap();
        assert_eq!(out.result, RVal::Str(ERR_ZERO_DIVIDE.into()));
        // A raise at the bottom unwinds to the handler pushed before the
        // group was entered.
        let raise = "(cont(apply) (Y proc(^c0 ^f ^c) (c \
              cont() (pushHandler cont(x) (+ x 1 cont(e)(halt -1) cont(t)(halt t)) \
                cont() (apply f 3 cont(e)(halt -2) cont(r)(halt -3))) \
              proc(n ce cc) (= n 0 cont() (raise 41) \
                 cont() (- n 1 ce cont(m) (f m ce cont(t) (cc t)))))) \
            proc(g x ce cc) (g x ce cc))";
        assert_eq!(run_int(raise), 42);
    }

    #[test]
    fn random_programs_execute_after_parsing() {
        use tml_core::gen::{gen_program, GenConfig};
        for seed in 0..30 {
            let (ctx, app) = gen_program(seed, GenConfig::default());
            let mut vm = Vm::new();
            let block = vm.compile_program(&ctx, &app).unwrap();
            let mut store = Store::new();
            let out = vm.run_program(&mut store, block, 1_000_000);
            assert!(out.is_ok(), "seed {seed}: {:?}", out.err());
        }
    }

    /// The optimizer must preserve evaluation results (the central
    /// correctness property tying `tml-opt` to the machine).
    #[test]
    fn optimization_preserves_results_on_random_programs() {
        use tml_core::gen::{gen_program, GenConfig};
        use tml_opt::{optimize, OptOptions};
        for seed in 0..60 {
            let (mut ctx, app) = gen_program(seed, GenConfig::default());
            let mut vm = Vm::new();
            let block = vm.compile_program(&ctx, &app).unwrap();
            let mut store = Store::new();
            let before = vm.run_program(&mut store, block, 2_000_000).unwrap();

            let (opt_app, _) = optimize(&mut ctx, app, &OptOptions::default());
            let mut vm2 = Vm::new();
            let block2 = vm2.compile_program(&ctx, &opt_app).unwrap();
            let mut store2 = Store::new();
            let after = vm2.run_program(&mut store2, block2, 2_000_000).unwrap();

            assert!(
                before.result.identical(&after.result),
                "seed {seed}: {:?} vs {:?}",
                before.result,
                after.result
            );
            assert!(
                after.stats.instrs <= before.stats.instrs,
                "seed {seed}: optimization made the program slower \
                 ({} -> {} instructions)",
                before.stats.instrs,
                after.stats.instrs
            );
        }
    }
}
