//! The bytecode instruction set and code table.
//!
//! Blocks are straight-line instruction vectors with intra-block jump
//! targets (inline continuations compile to labels). All control transfer
//! is tail transfer: `Call`, `Halt`, `Raise` and the branch instructions
//! never return.

use std::cell::RefCell;
use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};
use std::rc::Rc;

use tml_core::Oid;
use tml_store::SVal;

use crate::rval::{RVal, TransientClosure};

/// An operand source.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Src {
    /// A frame slot of the current activation.
    Slot(u16),
    /// A captured environment slot of the current closure.
    Env(u16),
    /// A literal from the block's constant pool.
    Const(u16),
}

/// A capture operand of a [`Instr::CloseGroup`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GroupCap {
    /// An ordinary operand from the creating activation.
    Ext(Src),
    /// The `j`-th closure of the group itself (mutual recursion).
    Member(u16),
}

/// Where a primitive's continuation goes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ContRef {
    /// An inline continuation: jump to `target` (the result, if any, has
    /// already been written to the instruction's `dst`).
    Label(u32),
    /// A continuation value: invoke it with the produced values.
    Closure(Src),
}

// The operator enums are the canonical ones primitive codegen hooks use;
// they live with the emit interface in `tml-core` and are re-exported
// here for the instruction set.
pub use tml_core::emit::{AllocKind, ArithOp, BitOp, CmpOp, ConvOp};

/// One instruction.
#[derive(Debug, Clone, PartialEq)]
pub enum Instr {
    /// `frame[dst] = src`.
    Mov {
        /// Destination slot.
        dst: u16,
        /// Source operand.
        src: Src,
    },
    /// Create a closure over `code` capturing `captures`.
    Close {
        /// Destination slot.
        dst: u16,
        /// Code block of the closure.
        code: u32,
        /// Captured operands, in the block's environment order.
        captures: Box<[Src]>,
        /// `true` for a continuation: it may hold stack continuations,
        /// and invoking it returns to the stack depth it was made at. A
        /// procedure holds heap copies of the continuations it captures.
        cont: bool,
    },
    /// Push a return frame on the machine's control stack: the blocks of
    /// continuation abstractions (its exits: a call's `c꜀` and fresh
    /// `cₑ`, or a join point) and their shared captures. Each exit's
    /// stack continuation goes to its slot.
    Push {
        /// `(block, destination slot)` per exit: the normal return, then
        /// the exception landing pad when the call's `cₑ` is fresh too.
        exits: Box<[(u32, u16)]>,
        /// Captured operands, in the exit blocks' environment order.
        captures: Box<[Src]>,
    },
    /// Create a group of mutually recursive closures (the `Y` combinator).
    /// The machine materializes the group as one transient
    /// [`crate::rval::ClosureGroup`]; [`GroupCap::Member`] references stay
    /// indices into it, and the group is persisted only if a member
    /// escapes into the store.
    CloseGroup {
        /// Destination slots, one per closure.
        dsts: Box<[u16]>,
        /// `(code block, captures)` per closure.
        parts: Box<[(u32, Box<[GroupCap]>)]>,
        /// `true` when every member is a continuation (a loop): the group
        /// may hold stack continuations and returns to the stack depth
        /// it was made at, as [`Instr::Close`] of a continuation does.
        cont: bool,
    },
    /// Arithmetic: `frame[dst] = a ⊕ b`, or divert to `on_err` with an
    /// exception value on overflow / division by zero.
    Arith {
        /// Operator.
        op: ArithOp,
        /// Destination slot for the result (success path) — the exception
        /// value is also written here when `on_err` is a label.
        dst: u16,
        /// Left operand.
        a: Src,
        /// Right operand.
        b: Src,
        /// Exception continuation.
        on_err: ContRef,
        /// Normal continuation.
        on_ok: ContRef,
    },
    /// Two-way comparison branch.
    Branch {
        /// Operator.
        op: CmpOp,
        /// Left operand.
        a: Src,
        /// Right operand.
        b: Src,
        /// Taken when the comparison holds.
        then_: ContRef,
        /// Taken otherwise.
        else_: ContRef,
    },
    /// Bit operation (cannot fail): result to `dst`, continue with `on_ok`.
    Bit {
        /// Operator.
        op: BitOp,
        /// Destination slot.
        dst: u16,
        /// Left operand.
        a: Src,
        /// Right operand.
        b: Src,
        /// Continuation.
        on_ok: ContRef,
    },
    /// Unary conversion: result to `dst`, continue with `on_ok`.
    Conv {
        /// Operator.
        op: ConvOp,
        /// Destination slot.
        dst: u16,
        /// Operand.
        a: Src,
        /// Continuation.
        on_ok: ContRef,
    },
    /// Dispatch on a reified boolean.
    BTest {
        /// The boolean operand.
        a: Src,
        /// Taken on `true`.
        then_: ContRef,
        /// Taken on `false`.
        else_: ContRef,
    },
    /// `==` case analysis on object identity.
    Switch {
        /// Scrutinee.
        scrut: Src,
        /// Case tags.
        tags: Box<[Src]>,
        /// Branch per tag.
        targets: Box<[ContRef]>,
        /// Optional else branch; a missing else on no match traps.
        default: Option<ContRef>,
    },
    /// Allocate an object; reference to `dst`, continue with `on_ok`.
    Alloc {
        /// What to allocate.
        kind: AllocKind,
        /// Destination slot.
        dst: u16,
        /// Element/size operands.
        args: Box<[Src]>,
        /// Continuation.
        on_ok: ContRef,
    },
    /// Indexed load (`[]` / `b[]`).
    Idx {
        /// `true` for byte arrays.
        byte: bool,
        /// Destination slot.
        dst: u16,
        /// The array reference.
        arr: Src,
        /// The index.
        index: Src,
        /// Exception continuation (bounds).
        on_err: ContRef,
        /// Normal continuation.
        on_ok: ContRef,
    },
    /// Indexed store (`[:=]` / `b[:=]`).
    IdxSet {
        /// `true` for byte arrays.
        byte: bool,
        /// Slot receiving the unit result (or the exception value).
        dst: u16,
        /// The array reference.
        arr: Src,
        /// The index.
        index: Src,
        /// The stored value.
        value: Src,
        /// Exception continuation (bounds / immutability).
        on_err: ContRef,
        /// Normal continuation.
        on_ok: ContRef,
    },
    /// `size` of an array / byte array / relation.
    Size {
        /// Destination slot.
        dst: u16,
        /// The object reference.
        arr: Src,
        /// Continuation.
        on_ok: ContRef,
    },
    /// Block move between arrays (`move` / `bmove`):
    /// `dst_arr[dst_off..dst_off+len] = src_arr[src_off..src_off+len]`.
    MoveBlk {
        /// `true` for byte arrays.
        byte: bool,
        /// Slot receiving the unit result (or the exception value).
        dst: u16,
        /// `[dst_arr, dst_off, src_arr, src_off, len]`.
        args: Box<[Src; 5]>,
        /// Exception continuation.
        on_err: ContRef,
        /// Normal continuation.
        on_ok: ContRef,
    },
    /// Call an extension primitive registered in the
    /// [`crate::host::ExternTable`] (also used for `ccall`).
    Extern {
        /// Index into the block's extern-name pool.
        name: u16,
        /// Destination slot for the result (or exception value).
        dst: u16,
        /// Value operands.
        args: Box<[Src]>,
        /// Exception continuation.
        on_err: ContRef,
        /// Normal continuation.
        on_ok: ContRef,
    },
    /// Call a primitive procedure that has no inline lowering: the generic
    /// fallback dispatch under the standard `(vals… ce cc)` convention.
    /// The primitive is identified *by name* (stable across persistence)
    /// and resolved against the machine's host-function table
    /// ([`crate::host::ExternTable`]) at execution time.
    CallPrim {
        /// Index into the block's prim-name pool.
        prim: u16,
        /// Destination slot for the result (or exception value).
        dst: u16,
        /// Value operands.
        args: Box<[Src]>,
        /// Exception continuation.
        on_err: ContRef,
        /// Normal continuation.
        on_ok: ContRef,
    },
    /// Install a new exception handler, continue with `on_ok`.
    PushHandler {
        /// The handler continuation (materialized as a closure).
        handler: Src,
        /// Continuation.
        on_ok: ContRef,
    },
    /// Remove the topmost handler, continue with `on_ok`.
    PopHandler {
        /// Continuation.
        on_ok: ContRef,
    },
    /// Raise an exception through the handler stack.
    Raise {
        /// The exception value.
        src: Src,
    },
    /// Invoke a closure (tail transfer).
    Call {
        /// The closure.
        target: Src,
        /// Arguments, copied into the callee's fresh frame.
        args: Box<[Src]>,
    },
    /// Unconditional intra-block jump.
    Jump {
        /// Target instruction index.
        target: u32,
    },
    /// Stop the machine with a result.
    Halt {
        /// The result value.
        src: Src,
    },
    /// Append the operand to the machine's output channel (`print`).
    Print {
        /// Slot receiving the unit result.
        dst: u16,
        /// The printed value.
        src: Src,
        /// Continuation (receives unit).
        on_ok: ContRef,
    },
    /// Sentinel terminating a nested native call (see
    /// [`crate::machine::Machine::call_value`]). `ok` distinguishes the
    /// normal from the exceptional return path.
    NativeRet {
        /// `true` on the normal path.
        ok: bool,
    },
}

impl Instr {
    /// Continuation edge `e`, in the order the compiler lays out inline
    /// targets: ok before err, then before else, cases before the default.
    pub(crate) fn edge_mut(&mut self, e: usize) -> Option<&mut ContRef> {
        match self {
            Instr::Arith { on_ok, on_err, .. }
            | Instr::Idx { on_ok, on_err, .. }
            | Instr::IdxSet { on_ok, on_err, .. }
            | Instr::MoveBlk { on_ok, on_err, .. }
            | Instr::Extern { on_ok, on_err, .. }
            | Instr::CallPrim { on_ok, on_err, .. } => [on_ok, on_err].into_iter().nth(e),
            Instr::Branch { then_, else_, .. } | Instr::BTest { then_, else_, .. } => {
                [then_, else_].into_iter().nth(e)
            }
            Instr::Bit { on_ok, .. }
            | Instr::Conv { on_ok, .. }
            | Instr::Alloc { on_ok, .. }
            | Instr::Size { on_ok, .. }
            | Instr::PushHandler { on_ok, .. }
            | Instr::PopHandler { on_ok }
            | Instr::Print { on_ok, .. } => (e == 0).then_some(on_ok),
            Instr::Switch {
                targets, default, ..
            } => targets.iter_mut().chain(default).nth(e),
            _ => None,
        }
    }

    /// The register the instruction writes its result to, if any.
    pub(crate) fn dst_mut(&mut self) -> Option<&mut u16> {
        match self {
            Instr::Arith { dst, .. }
            | Instr::Bit { dst, .. }
            | Instr::Conv { dst, .. }
            | Instr::Alloc { dst, .. }
            | Instr::Idx { dst, .. }
            | Instr::IdxSet { dst, .. }
            | Instr::Size { dst, .. }
            | Instr::MoveBlk { dst, .. }
            | Instr::Extern { dst, .. }
            | Instr::CallPrim { dst, .. }
            | Instr::Print { dst, .. } => Some(dst),
            _ => None,
        }
    }

    /// Stable opcode label for the trace profile (`vm.op.<key>` counters).
    /// Arithmetic, comparison, bit and conversion instructions include the
    /// sub-operator so per-primitive cost shows up in `tmlc profile`.
    pub fn profile_key(&self) -> &'static str {
        match self {
            Instr::Mov { .. } => "mov",
            Instr::Close { .. } => "close",
            Instr::Push { .. } => "push",
            Instr::CloseGroup { .. } => "close-group",
            Instr::Arith { op, .. } => match op {
                ArithOp::Add => "arith.add",
                ArithOp::Sub => "arith.sub",
                ArithOp::Mul => "arith.mul",
                ArithOp::Div => "arith.div",
                ArithOp::Mod => "arith.mod",
                ArithOp::FAdd => "arith.fadd",
                ArithOp::FSub => "arith.fsub",
                ArithOp::FMul => "arith.fmul",
                ArithOp::FDiv => "arith.fdiv",
            },
            Instr::Branch { op, .. } => match op {
                CmpOp::Lt => "branch.lt",
                CmpOp::Gt => "branch.gt",
                CmpOp::Le => "branch.le",
                CmpOp::Ge => "branch.ge",
                CmpOp::Eq => "branch.eq",
                CmpOp::Ne => "branch.ne",
                CmpOp::FLt => "branch.flt",
                CmpOp::FLe => "branch.fle",
                CmpOp::FEq => "branch.feq",
            },
            Instr::Bit { op, .. } => match op {
                BitOp::Shl => "bit.shl",
                BitOp::Shr => "bit.shr",
                BitOp::And => "bit.and",
                BitOp::Or => "bit.or",
                BitOp::Xor => "bit.xor",
            },
            Instr::Conv { op, .. } => match op {
                ConvOp::CharToInt => "conv.char-to-int",
                ConvOp::IntToChar => "conv.int-to-char",
                ConvOp::IntToReal => "conv.int-to-real",
                ConvOp::RealToInt => "conv.real-to-int",
                ConvOp::FSqrt => "conv.fsqrt",
            },
            Instr::BTest { .. } => "btest",
            Instr::Switch { .. } => "switch",
            Instr::Alloc { .. } => "alloc",
            Instr::Idx { .. } => "idx",
            Instr::IdxSet { .. } => "idx-set",
            Instr::Size { .. } => "size",
            Instr::MoveBlk { .. } => "move-blk",
            Instr::Extern { .. } => "extern",
            Instr::CallPrim { .. } => "call-prim",
            Instr::PushHandler { .. } => "push-handler",
            Instr::PopHandler { .. } => "pop-handler",
            Instr::Raise { .. } => "raise",
            Instr::Call { .. } => "call",
            Instr::Jump { .. } => "jump",
            Instr::Halt { .. } => "halt",
            Instr::Print { .. } => "print",
            Instr::NativeRet { .. } => "native-ret",
        }
    }

    /// Approximate encoded size in bytes, used by the E3 code-size
    /// experiment (1 opcode byte + 3 bytes per operand word).
    pub fn encoded_size(&self) -> usize {
        fn cont(c: &ContRef) -> usize {
            match c {
                ContRef::Label(_) => 4,
                ContRef::Closure(_) => 3,
            }
        }
        1 + match self {
            Instr::Mov { .. } => 5,
            Instr::Close { captures, .. } => 6 + 3 * captures.len(),
            Instr::Push { exits, captures } => 6 * exits.len() + 3 * captures.len(),
            Instr::CloseGroup { dsts, parts, .. } => {
                2 * dsts.len()
                    + parts
                        .iter()
                        .map(|(_, caps)| 4 + 3 * caps.len())
                        .sum::<usize>()
            }
            Instr::Arith { on_err, on_ok, .. } => 8 + cont(on_err) + cont(on_ok),
            Instr::Branch { then_, else_, .. } => 7 + cont(then_) + cont(else_),
            Instr::Bit { on_ok, .. } => 8 + cont(on_ok),
            Instr::Conv { on_ok, .. } => 5 + cont(on_ok),
            Instr::BTest { then_, else_, .. } => 3 + cont(then_) + cont(else_),
            Instr::Switch {
                tags,
                targets,
                default,
                ..
            } => {
                3 + 3 * tags.len()
                    + targets.iter().map(cont).sum::<usize>()
                    + default.as_ref().map(cont).unwrap_or(0)
            }
            Instr::Alloc { args, on_ok, .. } => 3 + 3 * args.len() + cont(on_ok),
            Instr::Idx { on_err, on_ok, .. } => 8 + cont(on_err) + cont(on_ok),
            Instr::IdxSet { on_err, on_ok, .. } => 11 + cont(on_err) + cont(on_ok),
            Instr::Size { on_ok, .. } => 5 + cont(on_ok),
            Instr::MoveBlk { on_err, on_ok, .. } => 17 + cont(on_err) + cont(on_ok),
            Instr::Extern {
                args,
                on_err,
                on_ok,
                ..
            } => 4 + 3 * args.len() + cont(on_err) + cont(on_ok),
            Instr::CallPrim {
                args,
                on_err,
                on_ok,
                ..
            } => 4 + 3 * args.len() + cont(on_err) + cont(on_ok),
            Instr::PushHandler { on_ok, .. } => 3 + cont(on_ok),
            Instr::PopHandler { on_ok } => cont(on_ok),
            Instr::Raise { .. } => 3,
            Instr::Call { args, .. } => 3 + 3 * args.len(),
            Instr::Jump { .. } => 4,
            Instr::Halt { .. } => 3,
            Instr::Print { on_ok, .. } => 3 + cont(on_ok),
            Instr::NativeRet { .. } => 1,
        }
    }
}

/// A compiled code block.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CodeBlock {
    /// Human-readable label (for diagnostics and disassembly).
    pub name: String,
    /// Number of formal parameters (filled by the caller).
    pub nparams: u16,
    /// Frame size in slots.
    pub nslots: u16,
    /// The instructions.
    pub instrs: Vec<Instr>,
    /// Constant pool.
    pub consts: Vec<SVal>,
    /// Extern-name pool (`ccall` host functions).
    pub extern_names: Vec<String>,
    /// Prim-name pool: primitives dispatched through the generic
    /// [`Instr::CallPrim`] fallback, identified by their stable
    /// registry name.
    pub prim_names: Vec<String>,
}

impl CodeBlock {
    /// Approximate encoded byte size of this block (instructions plus
    /// constant pool), the "executable code size" of experiment E3.
    pub fn byte_size(&self) -> usize {
        let pool: usize = self
            .consts
            .iter()
            .map(|c| match c {
                SVal::Str(s) => 2 + s.len(),
                _ => 9,
            })
            .sum();
        let names: usize = self
            .extern_names
            .iter()
            .chain(self.prim_names.iter())
            .map(|n| 2 + n.len())
            .sum();
        8 + pool + names + self.instrs.iter().map(Instr::encoded_size).sum::<usize>()
    }
}

/// The code table: all compiled blocks of a program/session, and the
/// links of the session's stored closures to them.
///
/// Indices [`NATIVE_OK_BLOCK`] and [`NATIVE_ERR_BLOCK`] are reserved for
/// the sentinel continuations used by native re-entry
/// ([`crate::machine::Machine::call_value`]); they are installed by
/// [`CodeTable::new`].
///
/// A stored closure record holds only PTML and R-value bindings; its
/// code in this session is its entry in the link table: the block it was
/// compiled to and the environment derived from its bindings. Every site
/// that compiles a stored closure links its OID ([`CodeTable::link`]);
/// a call of an unlinked OID is a typed trap.
#[derive(Debug, Clone)]
pub struct CodeTable {
    blocks: Vec<CodeBlock>,
    /// Stored closures' code, by OID, with each closure's lifetime call
    /// count (the tier engine's hotness). A `RefCell` because the machine
    /// counts calls and links the closures it persists through its shared
    /// `&CodeTable`; sessions are single-threaded (`!Send`).
    links: RefCell<IdMap<Oid, (Rc<TransientClosure>, u64)>>,
}

/// Maps keyed by dense ids ([`Oid`]s, `VarId`s): one multiplication per
/// hash. The ids come from the store's and the name table's counters, not
/// from input, so nothing can aim collisions at them.
pub(crate) type IdMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;
/// The set form of [`IdMap`].
pub(crate) type IdSet<K> = HashSet<K, BuildHasherDefault<IdHasher>>;

/// The hasher of [`IdMap`]: Fibonacci hashing of the id.
#[derive(Default)]
pub(crate) struct IdHasher(u64);

impl Hasher for IdHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        bytes
            .iter()
            .for_each(|&b| self.write_u64(u64::from(b) ^ self.0));
    }

    fn write_u32(&mut self, n: u32) {
        self.write_u64(u64::from(n));
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = n.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
}

/// The sentinel block terminating a native call's normal path.
pub const NATIVE_OK_BLOCK: u32 = 0;
/// The sentinel block terminating a native call's exceptional path.
pub const NATIVE_ERR_BLOCK: u32 = 1;

impl Default for CodeTable {
    fn default() -> Self {
        CodeTable::new()
    }
}

impl CodeTable {
    /// Create a table holding only the two native-return sentinel blocks.
    pub fn new() -> CodeTable {
        let mut t = CodeTable {
            blocks: Vec::new(),
            links: RefCell::default(),
        };
        t.push(CodeBlock {
            name: "<native-ok>".into(),
            nparams: 1,
            nslots: 1,
            instrs: vec![Instr::NativeRet { ok: true }],
            ..Default::default()
        });
        t.push(CodeBlock {
            name: "<native-err>".into(),
            nparams: 1,
            nslots: 1,
            instrs: vec![Instr::NativeRet { ok: false }],
            ..Default::default()
        });
        t
    }

    /// Add a block; returns its index.
    pub fn push(&mut self, block: CodeBlock) -> u32 {
        self.blocks.push(block);
        self.blocks.len() as u32 - 1
    }

    /// Link the stored closure `oid` to `block`, with its environment:
    /// the values of its bindings in slot order. Replaces an earlier link
    /// of the same OID but keeps its call count; a machine already
    /// running the old code finishes on it.
    pub fn link<'v>(&self, oid: Oid, block: u32, env: impl IntoIterator<Item = &'v SVal>) {
        self.link_counted(oid, block, env, 0);
    }

    /// [`CodeTable::link`], starting the call count of an OID not linked
    /// yet at `calls` (a count an earlier session persisted).
    pub fn link_counted<'v>(
        &self,
        oid: Oid,
        block: u32,
        env: impl IntoIterator<Item = &'v SVal>,
        calls: u64,
    ) {
        self.link_at(oid, block, env, calls, None);
    }

    /// [`CodeTable::link`] of a closure persisted in this session, which
    /// keeps the stack depth a continuation returns to
    /// ([`TransientClosure::frame`]).
    pub(crate) fn link_frame<'v>(
        &self,
        oid: Oid,
        block: u32,
        env: impl IntoIterator<Item = &'v SVal>,
        frame: Option<u32>,
    ) {
        self.link_at(oid, block, env, 0, frame);
    }

    fn link_at<'v>(
        &self,
        oid: Oid,
        block: u32,
        env: impl IntoIterator<Item = &'v SVal>,
        calls: u64,
        frame: Option<u32>,
    ) {
        let env = env.into_iter().map(RVal::from_sval).collect();
        let clo = Rc::new(TransientClosure {
            code: block,
            env,
            frame,
            holds_frames: false,
        });
        let mut links = self.links.borrow_mut();
        let link = links.entry(oid).or_insert_with(|| (Rc::clone(&clo), calls));
        link.0 = clo;
    }

    /// The code `oid` is linked to, counting one call of it. Saturating
    /// so a pathological loop cannot wrap back to cold.
    pub(crate) fn linked_call(&self, oid: Oid) -> Option<Rc<TransientClosure>> {
        let mut links = self.links.borrow_mut();
        let (clo, calls) = links.get_mut(&oid)?;
        *calls = calls.saturating_add(1);
        Some(Rc::clone(clo))
    }

    /// Lifetime call count of the stored closure `oid` (zero when it is
    /// not linked).
    pub fn link_calls(&self, oid: Oid) -> u64 {
        self.links.borrow().get(&oid).map_or(0, |l| l.1)
    }

    /// Every linked OID with its lifetime call count, in OID order.
    pub fn link_counts(&self) -> Vec<(Oid, u64)> {
        let mut v: Vec<(Oid, u64)> = self.links.borrow().iter().map(|(o, l)| (*o, l.1)).collect();
        v.sort_unstable_by_key(|(o, _)| o.0);
        v
    }

    /// The code and environment `oid` is linked to in this session.
    pub fn linked(&self, oid: Oid) -> Option<Rc<TransientClosure>> {
        self.links.borrow().get(&oid).map(|l| Rc::clone(&l.0))
    }

    /// The block `oid` is linked to in this session.
    pub fn linked_block(&self, oid: Oid) -> Option<u32> {
        self.links.borrow().get(&oid).map(|l| l.0.code)
    }

    /// Fetch a block.
    pub fn block(&self, ix: u32) -> &CodeBlock {
        &self.blocks[ix as usize]
    }

    /// Number of blocks.
    pub fn len(&self) -> usize {
        self.blocks.len()
    }

    /// `true` when no block was compiled yet.
    pub fn is_empty(&self) -> bool {
        self.blocks.is_empty()
    }

    /// Total approximate encoded size of all blocks.
    pub fn byte_size(&self) -> usize {
        self.blocks.iter().map(CodeBlock::byte_size).sum()
    }

    /// Iterate over `(index, block)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (u32, &CodeBlock)> {
        self.blocks.iter().enumerate().map(|(i, b)| (i as u32, b))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn code_table_push_and_fetch() {
        let mut t = CodeTable::new();
        let base = t.len();
        let a = t.push(CodeBlock {
            name: "a".into(),
            ..Default::default()
        });
        let b = t.push(CodeBlock {
            name: "b".into(),
            ..Default::default()
        });
        assert_ne!(a, b);
        assert_eq!(t.block(b).name, "b");
        assert_eq!(t.len(), base + 2);
    }

    #[test]
    fn native_sentinels_installed() {
        let t = CodeTable::new();
        assert!(matches!(
            t.block(NATIVE_OK_BLOCK).instrs[0],
            Instr::NativeRet { ok: true }
        ));
        assert!(matches!(
            t.block(NATIVE_ERR_BLOCK).instrs[0],
            Instr::NativeRet { ok: false }
        ));
    }

    #[test]
    fn encoded_sizes_positive_and_scale() {
        let mov = Instr::Mov {
            dst: 0,
            src: Src::Slot(1),
        };
        let call2 = Instr::Call {
            target: Src::Slot(0),
            args: vec![Src::Slot(1), Src::Slot(2)].into_boxed_slice(),
        };
        let call0 = Instr::Call {
            target: Src::Slot(0),
            args: Box::new([]),
        };
        assert!(mov.encoded_size() > 0);
        assert!(call2.encoded_size() > call0.encoded_size());
    }

    #[test]
    fn block_size_includes_pool() {
        let empty = CodeBlock::default();
        let mut with_pool = CodeBlock::default();
        with_pool.consts.push(SVal::Str("hello world".into()));
        assert!(with_pool.byte_size() > empty.byte_size());
    }
}
