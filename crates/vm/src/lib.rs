//! # tml-vm — the Tycoon abstract machine
//!
//! The paper's back end generates code for "efficient (stack based)
//! procedure calls … on stock hardware"; the measurable effect of its
//! optimizations, however, is architecture-independent: dynamic (link- or
//! run-time) optimization more than doubles execution speed because calls
//! through dynamically bound library procedures are inlined away. This
//! crate reproduces that cost structure with a **CPS bytecode machine**:
//!
//! * every TML abstraction compiles to a [`instr::CodeBlock`];
//! * continuation abstractions appearing inline in primitive calls and
//!   direct applications are compiled *into the enclosing block* (no
//!   closure, no call) — so when the optimizer inlines a library procedure
//!   and the reduction rules fuse its body into the caller, whole
//!   call/closure chains disappear from the generated code; so are join
//!   points, loops and `var` cells that never leave their block (labels,
//!   jumps and frame slots; see [`compile`]);
//! * abstractions used as values become heap closures; calls through
//!   variables become closure transfers ([`instr::Instr::Call`]);
//! * since TML is CPS, every transfer is a tail transfer, and the
//!   machine state is a single frame, an environment, and the
//!   exception-handler stack — plus a control stack: a non-tail call's
//!   return continuation, which TML never lets escape, is a frame pushed
//!   by [`instr::Instr::Push`] rather than a heap closure.
//!
//! The machine counts instructions, calls, closure allocations and
//! frames deterministically ([`machine::ExecStats`]) — the metric the benchmark
//! harness reports alongside wall-clock time.
//!
//! Extension primitives (e.g. the query primitives of `tml-query`) execute
//! through the [`host::ExternFn`] interface, which can re-enter the machine
//! to evaluate TML closures (query predicates, target expressions).
//!
//! Bytecode is transient: a [`CodeTable`] lives and dies with its session
//! and is never serialized. The persistent form of code is PTML (paper
//! §2.2); `tml-reflect` links it into a session's table on image open,
//! on optimization-cache hits and on deopt, and keeps the cache products
//! it already linked in [`Vm::linked`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::or_fun_call)]

pub mod compile;
pub mod disasm;
pub mod host;
pub mod instr;
pub mod machine;
pub mod rval;
mod stack;

pub use compile::{CompileError, CompiledProc, Compiler};
pub use host::{ExternFn, ExternTable};
pub use instr::{CodeBlock, CodeTable, Instr};
pub use machine::{ExecStats, Machine, Outcome, VmError, VmProfile};
pub use rval::{RVal, TransientRow};

use std::collections::HashMap;
use tml_core::term::{Abs, App};
use tml_core::Ctx;
use tml_store::{CacheKey, StoreAccess};

/// A convenience façade bundling a code table and extern registry.
#[derive(Default)]
pub struct Vm {
    /// Compiled code blocks.
    pub code: CodeTable,
    /// Extension primitives.
    pub externs: ExternTable,
    /// Optimization-cache products already linked into [`Vm::code`], by
    /// cache key. Transient like the table itself: never persisted.
    pub linked: HashMap<CacheKey, LinkedProduct>,
}

/// One optimization-cache product linked into a session's code table.
#[derive(Debug, Clone)]
pub struct LinkedProduct {
    /// Hash of the optimized PTML the block was compiled from; a cache
    /// entry with other PTML is not served by this block.
    pub ptml_hash: u64,
    /// The entry block, which every further hit links as is.
    pub block: u32,
    /// The capture names, in environment order.
    pub captures: Vec<String>,
}

impl Vm {
    /// Create an empty VM.
    pub fn new() -> Vm {
        Vm::default()
    }

    /// Compile a closed program (top-level application) to a code block.
    pub fn compile_program(&mut self, ctx: &Ctx, app: &App) -> Result<u32, CompileError> {
        let _s = tml_trace::span!("vm.compile");
        let abs = Abs::new(Vec::new(), app.clone());
        let compiled = Compiler::new(ctx, &mut self.code).compile_proc(&abs)?;
        if let Some(free) = compiled.captures.first() {
            return Err(CompileError::OpenProgram(ctx.names.display(*free)));
        }
        Ok(compiled.block)
    }

    /// Compile a procedure; its free variables become the closure captures
    /// (in the returned order).
    pub fn compile_proc(&mut self, ctx: &Ctx, abs: &Abs) -> Result<CompiledProc, CompileError> {
        let _s = tml_trace::span!("vm.compile");
        Compiler::new(ctx, &mut self.code).compile_proc(abs)
    }

    /// Run a compiled program to completion. Generic over the
    /// store-access seam: pass a `Store` for an ephemeral run or a
    /// `DurableStore` to WAL-log everything the program does.
    pub fn run_program<S: StoreAccess>(
        &self,
        store: &mut S,
        block: u32,
        fuel: u64,
    ) -> Result<Outcome, VmError> {
        let mut m = Machine::new(&self.code, &self.externs, store, fuel);
        m.run(block, Vec::new(), Vec::new())
    }
}
