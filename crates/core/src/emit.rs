//! The primitive code-generation interface (paper §2.3, item 1).
//!
//! A primitive's lowering to abstract-machine code is part of its
//! *registered definition* ([`crate::PrimDef::codegen`]), not of the
//! back end: the bytecode compiler in `tml-vm` consults the table for
//! every primitive application and calls the hook, so a primitive added
//! through the public [`crate::Registry`] API compiles exactly like a
//! built-in one. Hooks emit through the narrow [`EmitCtx`] interface —
//! register allocation, operand resolution, continuation compilation
//! and opcode emission — and never see the host compiler's internals.
//!
//! The operator enums here ([`ArithOp`], [`CmpOp`], [`BitOp`],
//! [`ConvOp`], [`AllocKind`]) are the *canonical* definitions; `tml-vm`
//! re-exports them for its instruction set.

use crate::term::{App, Value};

/// Integer/real arithmetic operators (two value operands, may fail).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)]
pub enum ArithOp {
    Add,
    Sub,
    Mul,
    Div,
    Mod,
    FAdd,
    FSub,
    FMul,
    FDiv,
}

/// Comparison operators (two-way branch).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)]
pub enum CmpOp {
    Lt,
    Gt,
    Le,
    Ge,
    Eq,
    Ne,
    FLt,
    FLe,
    FEq,
}

/// Bit operators (two value operands, never fail).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)]
pub enum BitOp {
    Shl,
    Shr,
    And,
    Or,
    Xor,
}

/// Unary conversions (never fail).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)]
pub enum ConvOp {
    CharToInt,
    IntToChar,
    IntToReal,
    RealToInt,
    FSqrt,
}

/// Allocation kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AllocKind {
    /// Mutable object array from listed elements (`array`).
    Array,
    /// Immutable object array from listed elements (`vector`).
    Vector,
    /// Mutable object array of `args[0]` slots initialized to `args[1]`
    /// (`new`).
    New,
    /// Byte array of `args[0]` bytes initialized to `args[1]` (`bnew`).
    BNew,
}

/// The three operations on a one-slot mutable cell — the lowering of a
/// source-language `var` — that a host compiler may keep in a frame
/// register instead of a store array (see [`EmitCtx::cell`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CellOp {
    /// `(new 1 v cont(c) …)`: bind `c` to a fresh cell holding `v`.
    New,
    /// `([] c 0 ce cc)`: read the cell.
    Get,
    /// `([:=] c 0 v ce cc)`: write the cell; `cc` receives unit.
    Set,
}

/// A frame register of the idealized abstract machine. Registers are
/// allocated by the host compiler via [`EmitCtx::fresh_reg`] and hold one
/// value each.
pub type Reg = u16;

/// A resolved operand: where a value argument lives at run time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Operand {
    /// A frame register of the current activation.
    Reg(u16),
    /// A captured environment slot of the current closure.
    Capture(u16),
    /// An entry of the block's constant pool.
    Const(u16),
}

/// An opaque handle to a compiled continuation argument, obtained from
/// [`EmitCtx::value_cont`] / [`EmitCtx::branch_cont`] and consumed by the
/// continuation fields of a [`MachOp`]. A handle not referenced by any
/// emitted op (e.g. the unused exception continuation of an operation
/// that cannot fail) is legal and compiles to nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ContId(pub u32);

/// Errors a codegen hook can report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EmitError {
    /// The application's shape does not match what the hook supports.
    /// The host prefixes the message with the primitive's name.
    BadShape(String),
    /// An [`EmitCtx`] call failed; the host compiler has recorded the
    /// underlying error and recovers it when the hook unwinds. Hooks must
    /// propagate this value unchanged (use `?`).
    Host,
}

/// One semantic operation of the idealized abstract machine. Mirrors the
/// `tml-vm` instruction set at the level a primitive's lowering needs:
/// operands are resolved [`Operand`]s and control-flow edges are
/// [`ContId`] continuation handles.
#[derive(Debug, Clone, PartialEq)]
pub enum MachOp {
    /// Fallible binary arithmetic; result (or exception value) to `dst`.
    Arith {
        /// Operator.
        op: ArithOp,
        /// Destination register.
        dst: Reg,
        /// Left operand.
        a: Operand,
        /// Right operand.
        b: Operand,
        /// Exception continuation.
        on_err: ContId,
        /// Normal continuation.
        on_ok: ContId,
    },
    /// Two-way comparison branch.
    Branch {
        /// Operator.
        op: CmpOp,
        /// Left operand.
        a: Operand,
        /// Right operand.
        b: Operand,
        /// Taken when the comparison holds.
        then_: ContId,
        /// Taken otherwise.
        else_: ContId,
    },
    /// Bit operation (cannot fail); result to `dst`.
    Bit {
        /// Operator.
        op: BitOp,
        /// Destination register.
        dst: Reg,
        /// Left operand.
        a: Operand,
        /// Right operand.
        b: Operand,
        /// Continuation.
        on_ok: ContId,
    },
    /// Unary conversion; result to `dst`.
    Conv {
        /// Operator.
        op: ConvOp,
        /// Destination register.
        dst: Reg,
        /// Operand.
        a: Operand,
        /// Continuation.
        on_ok: ContId,
    },
    /// Dispatch on a reified boolean.
    BTest {
        /// The boolean operand.
        a: Operand,
        /// Taken on `true`.
        then_: ContId,
        /// Taken on `false`.
        else_: ContId,
    },
    /// Case analysis on object identity (`==`).
    Switch {
        /// Scrutinee.
        scrut: Operand,
        /// Case tags.
        tags: Vec<Operand>,
        /// Branch per tag.
        targets: Vec<ContId>,
        /// Optional else branch; a missing else on no match traps.
        default: Option<ContId>,
    },
    /// Allocate an object; reference to `dst`.
    Alloc {
        /// What to allocate.
        kind: AllocKind,
        /// Destination register.
        dst: Reg,
        /// Element/size operands.
        args: Vec<Operand>,
        /// Continuation.
        on_ok: ContId,
    },
    /// Indexed load; result (or exception value) to `dst`.
    Idx {
        /// `true` for byte arrays.
        byte: bool,
        /// Destination register.
        dst: Reg,
        /// The array reference.
        arr: Operand,
        /// The index.
        index: Operand,
        /// Exception continuation (bounds).
        on_err: ContId,
        /// Normal continuation.
        on_ok: ContId,
    },
    /// Indexed store; unit result (or exception value) to `dst`.
    IdxSet {
        /// `true` for byte arrays.
        byte: bool,
        /// Destination register.
        dst: Reg,
        /// The array reference.
        arr: Operand,
        /// The index.
        index: Operand,
        /// The stored value.
        value: Operand,
        /// Exception continuation (bounds / immutability).
        on_err: ContId,
        /// Normal continuation.
        on_ok: ContId,
    },
    /// `size` of an array / byte array / relation.
    Size {
        /// Destination register.
        dst: Reg,
        /// The object reference.
        arr: Operand,
        /// Continuation.
        on_ok: ContId,
    },
    /// Block move between arrays; unit result (or exception value) to
    /// `dst`. `args` is `[dst_arr, dst_off, src_arr, src_off, len]`.
    MoveBlk {
        /// `true` for byte arrays.
        byte: bool,
        /// Destination register.
        dst: Reg,
        /// `[dst_arr, dst_off, src_arr, src_off, len]`.
        args: [Operand; 5],
        /// Exception continuation.
        on_err: ContId,
        /// Normal continuation.
        on_ok: ContId,
    },
    /// Call a host function registered in the machine's extern table by
    /// name (the lowering of `ccall`); result (or exception value) to
    /// `dst`.
    Host {
        /// The host-function name.
        name: String,
        /// Destination register.
        dst: Reg,
        /// Value operands.
        args: Vec<Operand>,
        /// Exception continuation.
        on_err: ContId,
        /// Normal continuation.
        on_ok: ContId,
    },
    /// Stop the machine with a result (no continuation).
    Halt {
        /// The result value.
        value: Operand,
    },
    /// Append the operand to the machine's output channel.
    Print {
        /// Register receiving the unit result.
        dst: Reg,
        /// The printed value.
        value: Operand,
        /// Continuation.
        on_ok: ContId,
    },
}

/// The narrow interface a codegen hook emits through. Implemented by the
/// bytecode compiler in `tml-vm`; the hook never sees the compiler
/// itself.
///
/// Protocol: resolve operands and continuations first (in argument
/// order — operand resolution may itself emit code, e.g. closure
/// creation), then [`emit`](EmitCtx::emit) the operation(s) consuming
/// them. Each [`ContId`] may be consumed by at most one emitted op.
///
/// `tml-vm` also runs every hook once more, in a pre-pass, against an
/// `EmitCtx` that emits nothing and only follows the arguments the hook
/// resolves as operands and as continuations; that decides which
/// continuations and `var` cells can stay in the enclosing block. A hook
/// must therefore treat an application's arguments the same way every
/// time it sees it.
pub trait EmitCtx {
    /// Allocate a fresh frame register.
    fn fresh_reg(&mut self) -> Reg;

    /// Resolve a value argument to an operand. May emit code (closure
    /// creation for abstraction values).
    fn operand(&mut self, v: &Value) -> Result<Operand, EmitError>;

    /// Compile a continuation that receives one value in `dst` (or, for
    /// nullary continuations, none). The result (or exception value)
    /// must be written to `dst` by the op consuming the handle.
    fn value_cont(&mut self, cont: &Value, dst: Reg) -> Result<ContId, EmitError>;

    /// Compile a zero-argument branch continuation.
    fn branch_cont(&mut self, cont: &Value) -> Result<ContId, EmitError>;

    /// Emit one machine operation, consuming its continuation handles.
    fn emit(&mut self, op: MachOp) -> Result<(), EmitError>;

    /// Compile `app` as the `Y` fixpoint binding form (intra-block loops
    /// with a closure-group fallback). `Y` is a binding construct, not an
    /// opcode; only its hook should call this.
    fn fixpoint(&mut self, app: &App) -> Result<(), EmitError>;

    /// Offer a cell operation (`app` has the [`CellOp`] shape) to the
    /// host. `Ok(true)`: the host compiled the whole application itself,
    /// because it keeps this cell in a frame register. `Ok(false)`: the
    /// hook lowers it as the store-array operation it also is.
    fn cell(&mut self, op: CellOp, app: &App) -> Result<bool, EmitError>;
}

/// A primitive's code-generation hook: lower one application (whose
/// functional position is this primitive) through the [`EmitCtx`].
pub type CodegenFn = fn(&mut dyn EmitCtx, &App) -> Result<(), EmitError>;
