//! The standard primitive set of the paper's figure 2.
//!
//! These are the primitives used "for the compilation of a fully-fledged
//! imperative, algorithmically-complete polymorphic programming language":
//! integer arithmetic and comparison, bit operations, character conversion,
//! object and byte arrays, the `==` object-identity case analysis, the `Y`
//! fixpoint combinator, block moves and foreign calls. Figure 2's three
//! exception-handler primitives are not registered: every procedure takes
//! an exception continuation `cₑ`, so a handler is a `cₑ` binder and a raise
//! is `(cₑ v)`, and a dynamic handler stack would be a second mechanism for
//! the same thing. We add real-number arithmetic (`f+`, `f*`, `fsqrt`, ...)
//! — needed by the paper's own §4.1 `complex`/`abs` worked example — plus
//! `halt` (the top-level continuation), `btest` (dispatch on a reified
//! boolean) and `print` (I/O for the examples).
//!
//! ## Calling conventions
//!
//! * arithmetic `(p a b cₑ c꜀)` — exception continuation first, normal
//!   continuation last; `(+ 1 2 cₑ c꜀)` folds to `(c꜀ 3)`;
//! * comparisons `(p a b c_true c_false)` — two-way branch;
//! * `(== v tag₁…tagₙ c₁…cₙ [cₙ₊₁])` — case analysis on object identity
//!   with optional else branch;
//! * `(Y λ(c₀ v₁…vₙ c) (c entry abs₁…absₙ))` — the body must immediately
//!   return the n+1 mutually recursive abstractions to `Y` through `c`.
//!
//! ## Exception values
//!
//! Primitives signal failures by invoking their exception continuation with
//! one of the string literals below; the abstract machine uses the same
//! constants so that folding a call at compile time and executing it at
//! runtime are observationally identical.

use crate::emit::{
    AllocKind, ArithOp, BitOp, CellOp, CmpOp, ConvOp, EmitCtx, EmitError, MachOp, Operand,
};
use crate::lit::Lit;
use crate::prim::{
    Arity, EffectClass, FoldOutcome, PrimAttrs, PrimCost, PrimDef, PrimTable, Signature,
};
use crate::term::{App, Value};

/// Exception value raised on integer overflow.
pub const ERR_OVERFLOW: &str = "overflow";
/// Exception value raised on division or modulus by zero.
pub const ERR_ZERO_DIVIDE: &str = "zero-divide";
/// Exception value raised on out-of-bounds array access.
pub const ERR_BOUNDS: &str = "bounds";
/// Exception value raised on a dynamic type error.
pub const ERR_TYPE: &str = "type";
/// Exception value raised by `ccall` when the host function is unknown.
pub const ERR_NO_CCALL: &str = "unknown-ccall";
/// Exception value raised by the generic `call-prim` dispatch when the
/// executing machine's host-function table has no binding for the
/// primitive's name.
pub const ERR_NO_PRIM: &str = "unknown-prim";

const PURE: PrimAttrs = PrimAttrs {
    effects: EffectClass::Pure,
    commutative: false,
    no_fold: false,
};
const PURE_COMM: PrimAttrs = PrimAttrs {
    effects: EffectClass::Pure,
    commutative: true,
    no_fold: false,
};
const READS: PrimAttrs = PrimAttrs {
    effects: EffectClass::Reads,
    commutative: false,
    no_fold: false,
};
const WRITES: PrimAttrs = PrimAttrs {
    effects: EffectClass::Writes,
    commutative: false,
    no_fold: false,
};

fn def(
    name: &str,
    signature: Signature,
    attrs: PrimAttrs,
    fold: Option<crate::prim::FoldFn>,
    cost: PrimCost,
) -> PrimDef {
    PrimDef {
        name: name.to_string(),
        signature,
        attrs,
        fold,
        rewrite: None,
        validate: None,
        cost,
        codegen: None,
    }
}

/// Install the standard primitives into `table`.
///
/// Idempotence is *not* provided: installing twice panics (duplicate
/// names), matching [`PrimTable::register`]'s contract.
pub fn install(table: &mut PrimTable) {
    // Integer arithmetic: (p val1 val2 ce cc).
    table.register(
        def(
            "+",
            Signature::exact(2, 2),
            PURE_COMM,
            Some(fold_add),
            PrimCost::Const(1),
        )
        .with_codegen(|e, a| cg_arith(e, a, ArithOp::Add)),
    );
    table.register(
        def(
            "-",
            Signature::exact(2, 2),
            PURE,
            Some(fold_sub),
            PrimCost::Const(1),
        )
        .with_codegen(|e, a| cg_arith(e, a, ArithOp::Sub)),
    );
    table.register(
        def(
            "*",
            Signature::exact(2, 2),
            PURE_COMM,
            Some(fold_mul),
            PrimCost::Const(2),
        )
        .with_codegen(|e, a| cg_arith(e, a, ArithOp::Mul)),
    );
    table.register(
        def(
            "/",
            Signature::exact(2, 2),
            PURE,
            Some(fold_div),
            PrimCost::Const(3),
        )
        .with_codegen(|e, a| cg_arith(e, a, ArithOp::Div)),
    );
    table.register(
        def(
            "%",
            Signature::exact(2, 2),
            PURE,
            Some(fold_mod),
            PrimCost::Const(3),
        )
        .with_codegen(|e, a| cg_arith(e, a, ArithOp::Mod)),
    );

    // Integer comparison: (p val1 val2 c_true c_false).
    table.register(
        def(
            "<",
            Signature::exact(2, 2),
            PURE,
            Some(|a| fold_icmp(a, |x, y| x < y)),
            PrimCost::Const(1),
        )
        .with_codegen(|e, a| cg_cmp(e, a, CmpOp::Lt)),
    );
    table.register(
        def(
            ">",
            Signature::exact(2, 2),
            PURE,
            Some(|a| fold_icmp(a, |x, y| x > y)),
            PrimCost::Const(1),
        )
        .with_codegen(|e, a| cg_cmp(e, a, CmpOp::Gt)),
    );
    table.register(
        def(
            "<=",
            Signature::exact(2, 2),
            PURE,
            Some(|a| fold_icmp(a, |x, y| x <= y)),
            PrimCost::Const(1),
        )
        .with_codegen(|e, a| cg_cmp(e, a, CmpOp::Le)),
    );
    table.register(
        def(
            ">=",
            Signature::exact(2, 2),
            PURE,
            Some(|a| fold_icmp(a, |x, y| x >= y)),
            PrimCost::Const(1),
        )
        .with_codegen(|e, a| cg_cmp(e, a, CmpOp::Ge)),
    );
    table.register(
        def(
            "=",
            Signature::exact(2, 2),
            PURE_COMM,
            Some(|a| fold_icmp(a, |x, y| x == y)),
            PrimCost::Const(1),
        )
        .with_codegen(|e, a| cg_cmp(e, a, CmpOp::Eq)),
    );
    table.register(
        def(
            "<>",
            Signature::exact(2, 2),
            PURE_COMM,
            Some(|a| fold_icmp(a, |x, y| x != y)),
            PrimCost::Const(1),
        )
        .with_codegen(|e, a| cg_cmp(e, a, CmpOp::Ne)),
    );

    // Bit operations: (p val1 val2 c).
    table.register(
        def(
            "<<",
            Signature::exact(2, 1),
            PURE,
            Some(|a| fold_bit(a, |x, y| x.wrapping_shl(y as u32 & 63))),
            PrimCost::Const(1),
        )
        .with_codegen(|e, a| cg_bit(e, a, BitOp::Shl)),
    );
    table.register(
        def(
            ">>",
            Signature::exact(2, 1),
            PURE,
            Some(|a| fold_bit(a, |x, y| x.wrapping_shr(y as u32 & 63))),
            PrimCost::Const(1),
        )
        .with_codegen(|e, a| cg_bit(e, a, BitOp::Shr)),
    );
    table.register(
        def(
            "&",
            Signature::exact(2, 1),
            PURE_COMM,
            Some(|a| fold_bit(a, |x, y| x & y)),
            PrimCost::Const(1),
        )
        .with_codegen(|e, a| cg_bit(e, a, BitOp::And)),
    );
    table.register(
        def(
            "|",
            Signature::exact(2, 1),
            PURE_COMM,
            Some(|a| fold_bit(a, |x, y| x | y)),
            PrimCost::Const(1),
        )
        .with_codegen(|e, a| cg_bit(e, a, BitOp::Or)),
    );
    table.register(
        def(
            "^",
            Signature::exact(2, 1),
            PURE_COMM,
            Some(|a| fold_bit(a, |x, y| x ^ y)),
            PrimCost::Const(1),
        )
        .with_codegen(|e, a| cg_bit(e, a, BitOp::Xor)),
    );

    // Real arithmetic (needed for the paper's §4.1 abs example).
    table.register(
        def(
            "f+",
            Signature::exact(2, 2),
            PURE_COMM,
            Some(|a| fold_farith(a, |x, y| x + y)),
            PrimCost::Const(2),
        )
        .with_codegen(|e, a| cg_arith(e, a, ArithOp::FAdd)),
    );
    table.register(
        def(
            "f-",
            Signature::exact(2, 2),
            PURE,
            Some(|a| fold_farith(a, |x, y| x - y)),
            PrimCost::Const(2),
        )
        .with_codegen(|e, a| cg_arith(e, a, ArithOp::FSub)),
    );
    table.register(
        def(
            "f*",
            Signature::exact(2, 2),
            PURE_COMM,
            Some(|a| fold_farith(a, |x, y| x * y)),
            PrimCost::Const(2),
        )
        .with_codegen(|e, a| cg_arith(e, a, ArithOp::FMul)),
    );
    table.register(
        def(
            "f/",
            Signature::exact(2, 2),
            PURE,
            Some(|a| fold_farith(a, |x, y| x / y)),
            PrimCost::Const(4),
        )
        .with_codegen(|e, a| cg_arith(e, a, ArithOp::FDiv)),
    );
    table.register(
        def(
            "fsqrt",
            Signature::exact(1, 2),
            PURE,
            Some(fold_fsqrt),
            PrimCost::Const(6),
        )
        .with_codegen(cg_fsqrt),
    );
    table.register(
        def(
            "f<",
            Signature::exact(2, 2),
            PURE,
            Some(|a| fold_fcmp(a, |x, y| x < y)),
            PrimCost::Const(2),
        )
        .with_codegen(|e, a| cg_cmp(e, a, CmpOp::FLt)),
    );
    table.register(
        def(
            "f<=",
            Signature::exact(2, 2),
            PURE,
            Some(|a| fold_fcmp(a, |x, y| x <= y)),
            PrimCost::Const(2),
        )
        .with_codegen(|e, a| cg_cmp(e, a, CmpOp::FLe)),
    );
    table.register(
        def(
            "f=",
            Signature::exact(2, 2),
            PURE,
            Some(|a| fold_fcmp(a, |x, y| x == y)),
            PrimCost::Const(2),
        )
        .with_codegen(|e, a| cg_cmp(e, a, CmpOp::FEq)),
    );
    table.register(
        def(
            "i2r",
            Signature::exact(1, 1),
            PURE,
            Some(fold_i2r),
            PrimCost::Const(1),
        )
        .with_codegen(|e, a| cg_conv(e, a, ConvOp::IntToReal)),
    );
    table.register(
        def(
            "r2i",
            Signature::exact(1, 1),
            PURE,
            Some(fold_r2i),
            PrimCost::Const(1),
        )
        .with_codegen(|e, a| cg_conv(e, a, ConvOp::RealToInt)),
    );

    // Character conversion: (char2int val c), (int2char val c).
    table.register(
        def(
            "char2int",
            Signature::exact(1, 1),
            PURE,
            Some(fold_char2int),
            PrimCost::Const(1),
        )
        .with_codegen(|e, a| cg_conv(e, a, ConvOp::CharToInt)),
    );
    table.register(
        def(
            "int2char",
            Signature::exact(1, 1),
            PURE,
            Some(fold_int2char),
            PrimCost::Const(1),
        )
        .with_codegen(|e, a| cg_conv(e, a, ConvOp::IntToChar)),
    );

    // Object arrays.
    table.register(
        def(
            "array",
            Signature::variadic(0, 1),
            READS,
            None,
            PrimCost::Fn(|a| 2 + a.args.len() as u32),
        )
        .with_codegen(|e, a| cg_alloc_list(e, a, AllocKind::Array)),
    );
    table.register(
        def(
            "vector",
            Signature::variadic(0, 1),
            READS,
            None,
            PrimCost::Fn(|a| 2 + a.args.len() as u32),
        )
        .with_codegen(|e, a| cg_alloc_list(e, a, AllocKind::Vector)),
    );
    table.register(
        def(
            "new",
            Signature::exact(2, 1),
            READS,
            None,
            PrimCost::Const(4),
        )
        .with_codegen(|e, a| cg_alloc_fill(e, a, AllocKind::New)),
    );
    table.register(
        def(
            "[]",
            Signature::exact(2, 2),
            READS,
            None,
            PrimCost::Const(2),
        )
        .with_codegen(|e, a| cg_idx(e, a, false)),
    );
    table.register(
        def(
            "[:=]",
            Signature::exact(3, 2),
            WRITES,
            None,
            PrimCost::Const(2),
        )
        .with_codegen(|e, a| cg_idx_set(e, a, false)),
    );

    // Byte arrays.
    table.register(
        def(
            "bnew",
            Signature::exact(2, 1),
            READS,
            None,
            PrimCost::Const(4),
        )
        .with_codegen(|e, a| cg_alloc_fill(e, a, AllocKind::BNew)),
    );
    table.register(
        def(
            "b[]",
            Signature::exact(2, 2),
            READS,
            None,
            PrimCost::Const(2),
        )
        .with_codegen(|e, a| cg_idx(e, a, true)),
    );
    table.register(
        def(
            "b[:=]",
            Signature::exact(3, 2),
            WRITES,
            None,
            PrimCost::Const(2),
        )
        .with_codegen(|e, a| cg_idx_set(e, a, true)),
    );

    // Case analysis on object identity (optional else branch).
    table.register(PrimDef {
        name: "==".to_string(),
        signature: Signature {
            vals: Arity::AtLeast(2),
            conts: Arity::AtLeast(1),
        },
        attrs: PURE,
        fold: Some(fold_case),
        rewrite: None,
        validate: Some(validate_case),
        cost: PrimCost::Fn(|a| 1 + (a.args.len() / 2) as u32),
        codegen: Some(cg_case),
    });

    // Boolean dispatch on a reified boolean value.
    table.register(
        def(
            "btest",
            Signature::exact(1, 2),
            PURE,
            Some(fold_btest),
            PrimCost::Const(1),
        )
        .with_codegen(cg_btest),
    );

    // The Y fixpoint combinator (mutually recursive bindings).
    table.register(PrimDef {
        name: "Y".to_string(),
        signature: Signature::exact(1, 0),
        attrs: PURE,
        fold: None,
        rewrite: None,
        validate: Some(validate_y),
        cost: PrimCost::Const(3),
        codegen: Some(cg_y),
    });

    // Array/byte-array size and block moves.
    table.register(
        def(
            "size",
            Signature::exact(1, 1),
            READS,
            None,
            PrimCost::Const(1),
        )
        .with_codegen(cg_size),
    );
    table.register(
        def(
            "move",
            Signature::exact(5, 2),
            WRITES,
            None,
            PrimCost::Const(8),
        )
        .with_codegen(|e, a| cg_move(e, a, false)),
    );
    table.register(
        def(
            "bmove",
            Signature::exact(5, 2),
            WRITES,
            None,
            PrimCost::Const(8),
        )
        .with_codegen(|e, a| cg_move(e, a, true)),
    );

    // Foreign (host) function call: (ccall name val... ce cc).
    table.register(
        def(
            "ccall",
            Signature::variadic(1, 2),
            WRITES,
            None,
            PrimCost::Const(20),
        )
        .with_codegen(cg_ccall),
    );

    // Top-level termination and diagnostics.
    table.register(
        def(
            "halt",
            Signature::exact(1, 0),
            WRITES,
            None,
            PrimCost::Const(1),
        )
        .with_codegen(cg_halt),
    );
    table.register(
        def(
            "print",
            Signature::exact(1, 1),
            WRITES,
            None,
            PrimCost::Const(10),
        )
        .with_codegen(cg_print),
    );
}

// ---------------------------------------------------------------------------
// Codegen hooks: lowering to the idealized abstract machine (paper §2.3,
// item 1). Each hook resolves its operands and continuations in argument
// order, then emits the operation consuming them; the host compiler in
// `tml-vm` supplies the [`EmitCtx`].
// ---------------------------------------------------------------------------

fn shape(msg: &str) -> EmitError {
    EmitError::BadShape(msg.to_string())
}

fn cg_arith(e: &mut dyn EmitCtx, app: &App, op: ArithOp) -> Result<(), EmitError> {
    let [a, b, ce, cc] = app.args.as_slice() else {
        return Err(shape("expected (a b ce cc)"));
    };
    let a = e.operand(a)?;
    let b = e.operand(b)?;
    let dst = e.fresh_reg();
    let on_err = e.value_cont(ce, dst)?;
    let on_ok = e.value_cont(cc, dst)?;
    e.emit(MachOp::Arith {
        op,
        dst,
        a,
        b,
        on_err,
        on_ok,
    })
}

fn cg_fsqrt(e: &mut dyn EmitCtx, app: &App) -> Result<(), EmitError> {
    let [a, ce, cc] = app.args.as_slice() else {
        return Err(shape("expected (a ce cc)"));
    };
    let a = e.operand(a)?;
    let dst = e.fresh_reg();
    // fsqrt cannot fail dynamically (NaN propagates), so the exception
    // continuation is resolved but left unconsumed.
    let _ = e.value_cont(ce, dst)?;
    let on_ok = e.value_cont(cc, dst)?;
    e.emit(MachOp::Conv {
        op: ConvOp::FSqrt,
        dst,
        a,
        on_ok,
    })
}

fn cg_cmp(e: &mut dyn EmitCtx, app: &App, op: CmpOp) -> Result<(), EmitError> {
    let [a, b, ct, cf] = app.args.as_slice() else {
        return Err(shape("expected (a b c_true c_false)"));
    };
    let a = e.operand(a)?;
    let b = e.operand(b)?;
    let then_ = e.branch_cont(ct)?;
    let else_ = e.branch_cont(cf)?;
    e.emit(MachOp::Branch {
        op,
        a,
        b,
        then_,
        else_,
    })
}

fn cg_bit(e: &mut dyn EmitCtx, app: &App, op: BitOp) -> Result<(), EmitError> {
    let [a, b, c] = app.args.as_slice() else {
        return Err(shape("expected (a b c)"));
    };
    let a = e.operand(a)?;
    let b = e.operand(b)?;
    let dst = e.fresh_reg();
    let on_ok = e.value_cont(c, dst)?;
    e.emit(MachOp::Bit {
        op,
        dst,
        a,
        b,
        on_ok,
    })
}

fn cg_conv(e: &mut dyn EmitCtx, app: &App, op: ConvOp) -> Result<(), EmitError> {
    let [a, c] = app.args.as_slice() else {
        return Err(shape("expected (a c)"));
    };
    let a = e.operand(a)?;
    let dst = e.fresh_reg();
    let on_ok = e.value_cont(c, dst)?;
    e.emit(MachOp::Conv { op, dst, a, on_ok })
}

fn cg_alloc_list(e: &mut dyn EmitCtx, app: &App, kind: AllocKind) -> Result<(), EmitError> {
    let n = app.args.len();
    if n < 1 {
        return Err(shape("missing continuation"));
    }
    let args = app.args[..n - 1]
        .iter()
        .map(|a| e.operand(a))
        .collect::<Result<Vec<_>, _>>()?;
    let dst = e.fresh_reg();
    let on_ok = e.value_cont(&app.args[n - 1], dst)?;
    e.emit(MachOp::Alloc {
        kind,
        dst,
        args,
        on_ok,
    })
}

fn cg_alloc_fill(e: &mut dyn EmitCtx, app: &App, kind: AllocKind) -> Result<(), EmitError> {
    if kind == AllocKind::New && e.cell(CellOp::New, app)? {
        return Ok(());
    }
    let [count, init, c] = app.args.as_slice() else {
        return Err(shape("expected (count init c)"));
    };
    let count = e.operand(count)?;
    let init = e.operand(init)?;
    let dst = e.fresh_reg();
    let on_ok = e.value_cont(c, dst)?;
    e.emit(MachOp::Alloc {
        kind,
        dst,
        args: vec![count, init],
        on_ok,
    })
}

fn cg_idx(e: &mut dyn EmitCtx, app: &App, byte: bool) -> Result<(), EmitError> {
    if !byte && e.cell(CellOp::Get, app)? {
        return Ok(());
    }
    let [arr, index, ce, cc] = app.args.as_slice() else {
        return Err(shape("expected (arr i ce cc)"));
    };
    let arr = e.operand(arr)?;
    let index = e.operand(index)?;
    let dst = e.fresh_reg();
    let on_err = e.value_cont(ce, dst)?;
    let on_ok = e.value_cont(cc, dst)?;
    e.emit(MachOp::Idx {
        byte,
        dst,
        arr,
        index,
        on_err,
        on_ok,
    })
}

fn cg_idx_set(e: &mut dyn EmitCtx, app: &App, byte: bool) -> Result<(), EmitError> {
    if !byte && e.cell(CellOp::Set, app)? {
        return Ok(());
    }
    let [arr, index, value, ce, cc] = app.args.as_slice() else {
        return Err(shape("expected (arr i v ce cc)"));
    };
    let arr = e.operand(arr)?;
    let index = e.operand(index)?;
    let value = e.operand(value)?;
    let dst = e.fresh_reg();
    let on_err = e.value_cont(ce, dst)?;
    let on_ok = e.value_cont(cc, dst)?;
    e.emit(MachOp::IdxSet {
        byte,
        dst,
        arr,
        index,
        value,
        on_err,
        on_ok,
    })
}

fn cg_size(e: &mut dyn EmitCtx, app: &App) -> Result<(), EmitError> {
    let [arr, c] = app.args.as_slice() else {
        return Err(shape("expected (arr c)"));
    };
    let arr = e.operand(arr)?;
    let dst = e.fresh_reg();
    let on_ok = e.value_cont(c, dst)?;
    e.emit(MachOp::Size { dst, arr, on_ok })
}

fn cg_move(e: &mut dyn EmitCtx, app: &App, byte: bool) -> Result<(), EmitError> {
    if app.args.len() != 7 {
        return Err(shape("expected (dst dstoff src srcoff len ce cc)"));
    }
    let mut args = [Operand::Reg(0); 5];
    for (i, slot) in args.iter_mut().enumerate() {
        *slot = e.operand(&app.args[i])?;
    }
    let dst = e.fresh_reg();
    let on_err = e.value_cont(&app.args[5], dst)?;
    let on_ok = e.value_cont(&app.args[6], dst)?;
    e.emit(MachOp::MoveBlk {
        byte,
        dst,
        args,
        on_err,
        on_ok,
    })
}

fn cg_case(e: &mut dyn EmitCtx, app: &App) -> Result<(), EmitError> {
    let Some((scrut, tags, branches, default)) = split_case(&app.args) else {
        return Err(shape("malformed case analysis"));
    };
    let scrut = e.operand(scrut)?;
    let tags = tags
        .iter()
        .map(|t| e.operand(t))
        .collect::<Result<Vec<_>, _>>()?;
    let mut targets = Vec::with_capacity(branches.len());
    for br in branches {
        targets.push(e.branch_cont(br)?);
    }
    let default = match default {
        Some(d) => Some(e.branch_cont(d)?),
        None => None,
    };
    e.emit(MachOp::Switch {
        scrut,
        tags,
        targets,
        default,
    })
}

fn cg_btest(e: &mut dyn EmitCtx, app: &App) -> Result<(), EmitError> {
    let [a, ct, cf] = app.args.as_slice() else {
        return Err(shape("expected (v c_true c_false)"));
    };
    let a = e.operand(a)?;
    let then_ = e.branch_cont(ct)?;
    let else_ = e.branch_cont(cf)?;
    e.emit(MachOp::BTest { a, then_, else_ })
}

fn cg_y(e: &mut dyn EmitCtx, app: &App) -> Result<(), EmitError> {
    // Y is a binding form, not an opcode: the host compiles it as
    // intra-block loops with a closure-group fallback.
    e.fixpoint(app)
}

fn cg_ccall(e: &mut dyn EmitCtx, app: &App) -> Result<(), EmitError> {
    let n = app.args.len();
    if n < 3 {
        return Err(shape("expected (name args... ce cc)"));
    }
    let Value::Lit(Lit::Str(fname)) = &app.args[0] else {
        return Err(shape("ccall function name must be a string literal"));
    };
    let args = app.args[1..n - 2]
        .iter()
        .map(|a| e.operand(a))
        .collect::<Result<Vec<_>, _>>()?;
    let dst = e.fresh_reg();
    let on_err = e.value_cont(&app.args[n - 2], dst)?;
    let on_ok = e.value_cont(&app.args[n - 1], dst)?;
    e.emit(MachOp::Host {
        name: fname.to_string(),
        dst,
        args,
        on_err,
        on_ok,
    })
}

fn cg_halt(e: &mut dyn EmitCtx, app: &App) -> Result<(), EmitError> {
    let [v] = app.args.as_slice() else {
        return Err(shape("expected (v)"));
    };
    let value = e.operand(v)?;
    e.emit(MachOp::Halt { value })
}

fn cg_print(e: &mut dyn EmitCtx, app: &App) -> Result<(), EmitError> {
    let [v, c] = app.args.as_slice() else {
        return Err(shape("expected (v c)"));
    };
    let value = e.operand(v)?;
    let dst = e.fresh_reg();
    let on_ok = e.value_cont(c, dst)?;
    e.emit(MachOp::Print { dst, value, on_ok })
}

// ---------------------------------------------------------------------------
// Fold (meta-evaluation) functions.
// ---------------------------------------------------------------------------

/// `(c꜀ result)` — invoke the normal continuation with a value.
fn to_cont(cont: &Value, result: Lit) -> FoldOutcome {
    FoldOutcome::Replaced(App::new(cont.clone(), vec![Value::Lit(result)]))
}

/// `(c)` — invoke a branch continuation with no arguments.
fn to_branch(cont: &Value) -> FoldOutcome {
    FoldOutcome::Replaced(App::new(cont.clone(), vec![]))
}

fn int2(app: &App) -> Option<(i64, i64)> {
    match (&app.args[0], &app.args[1]) {
        (Value::Lit(Lit::Int(a)), Value::Lit(Lit::Int(b))) => Some((*a, *b)),
        _ => None,
    }
}

fn real2(app: &App) -> Option<(f64, f64)> {
    match (&app.args[0], &app.args[1]) {
        (Value::Lit(Lit::Real(a)), Value::Lit(Lit::Real(b))) => Some((a.get(), b.get())),
        _ => None,
    }
}

/// Arithmetic layout: `args = [a, b, ce, cc]`.
fn arith_conts(app: &App) -> (&Value, &Value) {
    (&app.args[2], &app.args[3])
}

fn fold_checked(app: &App, result: Option<i64>, err: &str) -> FoldOutcome {
    let (ce, cc) = arith_conts(app);
    match result {
        Some(r) => to_cont(cc, Lit::Int(r)),
        None => to_cont(ce, Lit::str(err)),
    }
}

/// `true` when `x` can hold an integer at run time: a variable, or an
/// integer literal. The algebraic identities (`x + 0`, `x * 1`, …) may
/// only fire under this guard — an ill-typed constant operand must reach
/// the machine (and its type exception) unchanged, or folding would turn
/// a failing program into a succeeding one.
fn may_be_int(x: &Value) -> bool {
    match x {
        Value::Var(_) => true,
        Value::Lit(l) => l.as_int().is_some(),
        _ => false,
    }
}

fn fold_add(app: &App) -> FoldOutcome {
    if let Some((a, b)) = int2(app) {
        return fold_checked(app, a.checked_add(b), ERR_OVERFLOW);
    }
    // Algebraic identities: x + 0 = 0 + x = x.
    let (_, cc) = arith_conts(app);
    match (&app.args[0], &app.args[1]) {
        (x, Value::Lit(Lit::Int(0))) | (Value::Lit(Lit::Int(0)), x) if may_be_int(x) => {
            FoldOutcome::Replaced(App::new(cc.clone(), vec![x.clone()]))
        }
        _ => FoldOutcome::Unchanged,
    }
}

fn fold_sub(app: &App) -> FoldOutcome {
    if let Some((a, b)) = int2(app) {
        return fold_checked(app, a.checked_sub(b), ERR_OVERFLOW);
    }
    let (_, cc) = arith_conts(app);
    match (&app.args[0], &app.args[1]) {
        (x, Value::Lit(Lit::Int(0))) if may_be_int(x) => {
            FoldOutcome::Replaced(App::new(cc.clone(), vec![x.clone()]))
        }
        _ => FoldOutcome::Unchanged,
    }
}

fn fold_mul(app: &App) -> FoldOutcome {
    if let Some((a, b)) = int2(app) {
        return fold_checked(app, a.checked_mul(b), ERR_OVERFLOW);
    }
    let (_, cc) = arith_conts(app);
    match (&app.args[0], &app.args[1]) {
        (x, Value::Lit(Lit::Int(1))) | (Value::Lit(Lit::Int(1)), x) if may_be_int(x) => {
            FoldOutcome::Replaced(App::new(cc.clone(), vec![x.clone()]))
        }
        // x * 0 = 0 is sound under the guard: an integer-typed x cannot
        // make the multiplication fail.
        (x, Value::Lit(Lit::Int(0))) | (Value::Lit(Lit::Int(0)), x) if may_be_int(x) => {
            to_cont(cc, Lit::Int(0))
        }
        _ => FoldOutcome::Unchanged,
    }
}

fn fold_div(app: &App) -> FoldOutcome {
    if let Some((a, b)) = int2(app) {
        let (ce, _) = arith_conts(app);
        if b == 0 {
            return to_cont(ce, Lit::str(ERR_ZERO_DIVIDE));
        }
        return fold_checked(app, a.checked_div(b), ERR_OVERFLOW);
    }
    let (_, cc) = arith_conts(app);
    match (&app.args[0], &app.args[1]) {
        (x, Value::Lit(Lit::Int(1))) if may_be_int(x) => {
            FoldOutcome::Replaced(App::new(cc.clone(), vec![x.clone()]))
        }
        _ => FoldOutcome::Unchanged,
    }
}

fn fold_mod(app: &App) -> FoldOutcome {
    if let Some((a, b)) = int2(app) {
        let (ce, _) = arith_conts(app);
        if b == 0 {
            return to_cont(ce, Lit::str(ERR_ZERO_DIVIDE));
        }
        return fold_checked(app, a.checked_rem(b), ERR_OVERFLOW);
    }
    FoldOutcome::Unchanged
}

/// Comparison layout: `args = [a, b, c_true, c_false]`.
fn fold_icmp(app: &App, op: fn(i64, i64) -> bool) -> FoldOutcome {
    match int2(app) {
        Some((a, b)) => {
            let branch = if op(a, b) { &app.args[2] } else { &app.args[3] };
            to_branch(branch)
        }
        None => FoldOutcome::Unchanged,
    }
}

fn fold_fcmp(app: &App, op: fn(f64, f64) -> bool) -> FoldOutcome {
    match real2(app) {
        Some((a, b)) => {
            let branch = if op(a, b) { &app.args[2] } else { &app.args[3] };
            to_branch(branch)
        }
        None => FoldOutcome::Unchanged,
    }
}

/// Bit operation layout: `args = [a, b, c]`.
fn fold_bit(app: &App, op: fn(i64, i64) -> i64) -> FoldOutcome {
    match int2(app) {
        Some((a, b)) => to_cont(&app.args[2], Lit::Int(op(a, b))),
        None => FoldOutcome::Unchanged,
    }
}

fn fold_farith(app: &App, op: fn(f64, f64) -> f64) -> FoldOutcome {
    match real2(app) {
        Some((a, b)) => {
            let (_, cc) = arith_conts(app);
            to_cont(cc, Lit::real(op(a, b)))
        }
        None => FoldOutcome::Unchanged,
    }
}

fn fold_fsqrt(app: &App) -> FoldOutcome {
    match &app.args[0] {
        Value::Lit(Lit::Real(r)) => to_cont(&app.args[2], Lit::real(r.get().sqrt())),
        _ => FoldOutcome::Unchanged,
    }
}

fn fold_i2r(app: &App) -> FoldOutcome {
    match &app.args[0] {
        Value::Lit(Lit::Int(n)) => to_cont(&app.args[1], Lit::real(*n as f64)),
        _ => FoldOutcome::Unchanged,
    }
}

fn fold_r2i(app: &App) -> FoldOutcome {
    match &app.args[0] {
        Value::Lit(Lit::Real(r)) if r.get().is_finite() => {
            to_cont(&app.args[1], Lit::Int(r.get().trunc() as i64))
        }
        _ => FoldOutcome::Unchanged,
    }
}

fn fold_char2int(app: &App) -> FoldOutcome {
    match &app.args[0] {
        Value::Lit(Lit::Char(c)) => to_cont(&app.args[1], Lit::Int(i64::from(*c))),
        _ => FoldOutcome::Unchanged,
    }
}

fn fold_int2char(app: &App) -> FoldOutcome {
    match &app.args[0] {
        // Conversion wraps modulo 256, mirroring the abstract machine.
        Value::Lit(Lit::Int(n)) => to_cont(&app.args[1], Lit::Char(*n as u8)),
        _ => FoldOutcome::Unchanged,
    }
}

fn fold_btest(app: &App) -> FoldOutcome {
    match &app.args[0] {
        Value::Lit(Lit::Bool(b)) => to_branch(if *b { &app.args[1] } else { &app.args[2] }),
        _ => FoldOutcome::Unchanged,
    }
}

/// The decomposed parts of a `==` case analysis:
/// `(scrutinee, tags, branches, else)`.
pub type CaseParts<'a> = (&'a Value, &'a [Value], &'a [Value], Option<&'a Value>);

/// Split a `(== v tag₁…tagₙ c₁…cₙ [cₙ₊₁])` argument vector into
/// `(scrutinee, tags, branches, else)`; the layout is determined by parity
/// (odd total count: no else, even: else present).
pub fn split_case(args: &[Value]) -> Option<CaseParts<'_>> {
    if args.len() < 3 {
        return None;
    }
    let has_else = args.len().is_multiple_of(2);
    let n = (args.len() - 1 - usize::from(has_else)) / 2;
    if n == 0 {
        return None;
    }
    let scrutinee = &args[0];
    let tags = &args[1..1 + n];
    let branches = &args[1 + n..1 + 2 * n];
    let else_branch = if has_else { args.last() } else { None };
    Some((scrutinee, tags, branches, else_branch))
}

fn validate_case(app: &App) -> Result<(), String> {
    match split_case(&app.args) {
        Some((_, tags, _, _)) => {
            for t in tags {
                if t.is_abs() {
                    return Err("== case tags must be literals or variables".to_string());
                }
            }
            Ok(())
        }
        None => Err(format!(
            "== expects (v tag1..tagn c1..cn [celse]) with n >= 1, got {} argument(s)",
            app.args.len()
        )),
    }
}

/// The paper's `fold ==` example: `(== 2 1 2 3 c₁ c₂ c₃) → (c₂)`.
fn fold_case(app: &App) -> FoldOutcome {
    let Some((scrutinee, tags, branches, else_branch)) = split_case(&app.args) else {
        return FoldOutcome::Unchanged;
    };
    let Value::Lit(sc) = scrutinee else {
        return FoldOutcome::Unchanged;
    };
    let mut all_lit = true;
    for (tag, branch) in tags.iter().zip(branches) {
        match tag {
            Value::Lit(t) => {
                if sc.identical(t) {
                    return to_branch(branch);
                }
            }
            _ => all_lit = false,
        }
    }
    // No tag matched. If every tag was a literal we know the else branch
    // (when present) is taken; otherwise a variable tag might still match at
    // runtime.
    match (all_lit, else_branch) {
        (true, Some(e)) => to_branch(e),
        _ => FoldOutcome::Unchanged,
    }
}

/// Validate `(Y λ(c₀ v₁…vₙ c) (c entry abs₁…absₙ))`.
fn validate_y(app: &App) -> Result<(), String> {
    if app.args.len() != 1 {
        return Err(format!(
            "Y expects one abstraction argument, got {}",
            app.args.len()
        ));
    }
    let Value::Abs(abs) = &app.args[0] else {
        return Err("Y's argument must be an abstraction".to_string());
    };
    if abs.params.len() < 2 {
        return Err("Y's abstraction must take at least (c0 c)".to_string());
    }
    let ret = *abs.params.last().expect("len >= 2");
    match abs.body.func.as_var() {
        Some(v) if v == ret => {}
        _ => {
            return Err("Y's abstraction body must immediately invoke its last parameter".into());
        }
    }
    let expected = abs.params.len() - 1;
    if abs.body.args.len() != expected {
        return Err(format!(
            "Y's abstraction must return {} abstraction(s), got {}",
            expected,
            abs.body.args.len()
        ));
    }
    for v in &abs.body.args {
        if !v.is_abs() {
            return Err("Y's return values must all be abstractions".to_string());
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ident::NameTable;
    use crate::term::Abs;
    use crate::Ctx;

    fn app_of(ctx: &Ctx, prim: &str, args: Vec<Value>) -> App {
        App::new(Value::Prim(ctx.prims.lookup(prim).unwrap()), args)
    }

    fn fold(ctx: &Ctx, app: &App) -> FoldOutcome {
        let id = app.func.as_prim().unwrap();
        (ctx.prims.def(id).fold.unwrap())(app)
    }

    fn cc(names: &mut NameTable) -> Value {
        Value::Var(names.fresh_cont("cc"))
    }

    /// The paper's example: `(+ 1 2 cₑ c꜀) → (c꜀ 3)`.
    #[test]
    fn fold_add_paper_example() {
        let mut ctx = Ctx::new();
        let ce = cc(&mut ctx.names);
        let k = cc(&mut ctx.names);
        let app = app_of(&ctx, "+", vec![Value::int(1), Value::int(2), ce, k.clone()]);
        let out = fold(&ctx, &app);
        assert_eq!(out, FoldOutcome::Replaced(App::new(k, vec![Value::int(3)])));
    }

    #[test]
    fn fold_add_overflow_goes_to_exception_cont() {
        let mut ctx = Ctx::new();
        let ce = cc(&mut ctx.names);
        let k = cc(&mut ctx.names);
        let app = app_of(
            &ctx,
            "+",
            vec![Value::int(i64::MAX), Value::int(1), ce.clone(), k],
        );
        match fold(&ctx, &app) {
            FoldOutcome::Replaced(r) => {
                assert_eq!(r.func, ce);
                assert_eq!(r.args, vec![Value::Lit(Lit::str(ERR_OVERFLOW))]);
            }
            other => panic!("expected replacement, got {other:?}"),
        }
    }

    #[test]
    fn fold_add_identity() {
        let mut ctx = Ctx::new();
        let x = Value::Var(ctx.names.fresh("x"));
        let ce = cc(&mut ctx.names);
        let k = cc(&mut ctx.names);
        let app = app_of(&ctx, "+", vec![x.clone(), Value::int(0), ce, k.clone()]);
        assert_eq!(
            fold(&ctx, &app),
            FoldOutcome::Replaced(App::new(k, vec![x]))
        );
    }

    #[test]
    fn fold_mul_by_zero_and_one() {
        let mut ctx = Ctx::new();
        let x = Value::Var(ctx.names.fresh("x"));
        let ce = cc(&mut ctx.names);
        let k = cc(&mut ctx.names);
        let by0 = app_of(
            &ctx,
            "*",
            vec![x.clone(), Value::int(0), ce.clone(), k.clone()],
        );
        assert_eq!(
            fold(&ctx, &by0),
            FoldOutcome::Replaced(App::new(k.clone(), vec![Value::int(0)]))
        );
        let by1 = app_of(&ctx, "*", vec![x.clone(), Value::int(1), ce, k.clone()]);
        assert_eq!(
            fold(&ctx, &by1),
            FoldOutcome::Replaced(App::new(k, vec![x]))
        );
    }

    #[test]
    fn fold_div_by_zero() {
        let mut ctx = Ctx::new();
        let ce = cc(&mut ctx.names);
        let k = cc(&mut ctx.names);
        let app = app_of(&ctx, "/", vec![Value::int(7), Value::int(0), ce.clone(), k]);
        match fold(&ctx, &app) {
            FoldOutcome::Replaced(r) => {
                assert_eq!(r.func, ce);
                assert_eq!(r.args, vec![Value::Lit(Lit::str(ERR_ZERO_DIVIDE))]);
            }
            other => panic!("expected replacement, got {other:?}"),
        }
    }

    #[test]
    fn fold_cmp_picks_branch() {
        let mut ctx = Ctx::new();
        let t = cc(&mut ctx.names);
        let f = cc(&mut ctx.names);
        let t2 = cc(&mut ctx.names);
        let lt = app_of(
            &ctx,
            "<",
            vec![Value::int(1), Value::int(2), t.clone(), f.clone()],
        );
        assert_eq!(fold(&ctx, &lt), FoldOutcome::Replaced(App::new(t, vec![])));
        let ge = app_of(
            &ctx,
            ">=",
            vec![Value::int(1), Value::int(2), t2, f.clone()],
        );
        assert_eq!(fold(&ctx, &ge), FoldOutcome::Replaced(App::new(f, vec![])));
    }

    #[test]
    fn fold_unknown_args_unchanged() {
        let mut ctx = Ctx::new();
        let x = Value::Var(ctx.names.fresh("x"));
        let ce = cc(&mut ctx.names);
        let k = cc(&mut ctx.names);
        let app = app_of(&ctx, "+", vec![x, Value::int(2), ce, k]);
        assert_eq!(fold(&ctx, &app), FoldOutcome::Unchanged);
    }

    /// The paper's example: `(== 2 1 2 3 c₁ c₂ c₃) → (c₂)`.
    #[test]
    fn fold_case_paper_example() {
        let mut ctx = Ctx::new();
        let c1 = cc(&mut ctx.names);
        let c2 = cc(&mut ctx.names);
        let c3 = cc(&mut ctx.names);
        let app = app_of(
            &ctx,
            "==",
            vec![
                Value::int(2),
                Value::int(1),
                Value::int(2),
                Value::int(3),
                c1,
                c2.clone(),
                c3,
            ],
        );
        assert_eq!(
            fold(&ctx, &app),
            FoldOutcome::Replaced(App::new(c2, vec![]))
        );
    }

    #[test]
    fn fold_case_falls_to_else() {
        let mut ctx = Ctx::new();
        let c1 = cc(&mut ctx.names);
        let celse = cc(&mut ctx.names);
        let app = app_of(
            &ctx,
            "==",
            vec![Value::int(9), Value::int(1), c1, celse.clone()],
        );
        assert_eq!(
            fold(&ctx, &app),
            FoldOutcome::Replaced(App::new(celse, vec![]))
        );
    }

    #[test]
    fn fold_case_variable_tag_blocks() {
        let mut ctx = Ctx::new();
        let v = Value::Var(ctx.names.fresh("v"));
        let c1 = cc(&mut ctx.names);
        let celse = cc(&mut ctx.names);
        // Scrutinee literal 9, tag is a variable: may match at runtime.
        let app = app_of(&ctx, "==", vec![Value::int(9), v, c1, celse]);
        assert_eq!(fold(&ctx, &app), FoldOutcome::Unchanged);
    }

    #[test]
    fn split_case_layouts() {
        let args = vec![Value::int(0), Value::int(1), Value::int(10)];
        let (s, tags, branches, e) = split_case(&args).unwrap();
        assert_eq!(s, &Value::int(0));
        assert_eq!(tags.len(), 1);
        assert_eq!(branches.len(), 1);
        assert!(e.is_none());

        let args = vec![Value::int(0), Value::int(1), Value::int(10), Value::int(99)];
        let (_, tags, branches, e) = split_case(&args).unwrap();
        assert_eq!(tags.len(), 1);
        assert_eq!(branches.len(), 1);
        assert!(e.is_some());

        assert!(split_case(&[Value::int(0)]).is_none());
    }

    #[test]
    fn validate_y_accepts_loop_shape() {
        // (Y λ(c0 for c) (c cont() body  cont(i) body))
        let mut ctx = Ctx::new();
        let c0 = ctx.names.fresh_cont("c0");
        let f = ctx.names.fresh_cont("for");
        let c = ctx.names.fresh_cont("c");
        let i = ctx.names.fresh("i");
        let entry = Abs::new(vec![], App::new(Value::Var(f), vec![Value::int(1)]));
        let head = Abs::new(vec![i], App::new(Value::Var(c0), vec![]));
        let y_abs = Abs::new(
            vec![c0, f, c],
            App::new(Value::Var(c), vec![Value::from(entry), Value::from(head)]),
        );
        let y = app_of(&ctx, "Y", vec![Value::from(y_abs)]);
        let id = ctx.prims.lookup("Y").unwrap();
        assert!(ctx.prims.check_app(id, &y, 0).is_ok());
    }

    #[test]
    fn validate_y_rejects_bad_shapes() {
        let ctx = Ctx::new();
        let id = ctx.prims.lookup("Y").unwrap();
        let not_abs = app_of(&ctx, "Y", vec![Value::int(1)]);
        assert!(ctx.prims.check_app(id, &not_abs, 0).is_err());
        let no_args = app_of(&ctx, "Y", vec![]);
        assert!(ctx.prims.check_app(id, &no_args, 0).is_err());
    }

    #[test]
    fn fold_char_roundtrip() {
        let mut ctx = Ctx::new();
        let k = cc(&mut ctx.names);
        let c2i = app_of(
            &ctx,
            "char2int",
            vec![Value::Lit(Lit::Char(b'a')), k.clone()],
        );
        assert_eq!(
            fold(&ctx, &c2i),
            FoldOutcome::Replaced(App::new(k.clone(), vec![Value::int(97)]))
        );
        let i2c = app_of(&ctx, "int2char", vec![Value::int(97), k.clone()]);
        assert_eq!(
            fold(&ctx, &i2c),
            FoldOutcome::Replaced(App::new(k, vec![Value::Lit(Lit::Char(b'a'))]))
        );
    }

    #[test]
    fn fold_real_arith_and_sqrt() {
        let mut ctx = Ctx::new();
        let ce = cc(&mut ctx.names);
        let k = cc(&mut ctx.names);
        let add = app_of(
            &ctx,
            "f+",
            vec![
                Value::Lit(Lit::real(1.5)),
                Value::Lit(Lit::real(2.5)),
                ce.clone(),
                k.clone(),
            ],
        );
        assert_eq!(
            fold(&ctx, &add),
            FoldOutcome::Replaced(App::new(k.clone(), vec![Value::Lit(Lit::real(4.0))]))
        );
        let sq = app_of(
            &ctx,
            "fsqrt",
            vec![Value::Lit(Lit::real(25.0)), ce, k.clone()],
        );
        assert_eq!(
            fold(&ctx, &sq),
            FoldOutcome::Replaced(App::new(k, vec![Value::Lit(Lit::real(5.0))]))
        );
    }

    #[test]
    fn fold_btest() {
        let mut ctx = Ctx::new();
        let t = cc(&mut ctx.names);
        let f = cc(&mut ctx.names);
        let app = app_of(
            &ctx,
            "btest",
            vec![Value::Lit(Lit::Bool(false)), t, f.clone()],
        );
        assert_eq!(fold(&ctx, &app), FoldOutcome::Replaced(App::new(f, vec![])));
    }

    #[test]
    fn figure2_coverage() {
        // Every primitive named in the paper's figure 2 must be registered,
        // except the handler-stack trio the `cₑ` convention subsumes.
        let ctx = Ctx::new();
        for name in [
            "+", "-", "*", "/", "%", "<", ">", "<=", ">=", "<<", ">>", "&", "|", "^", "char2int",
            "int2char", "array", "vector", "new", "[]", "[:=]", "b[]", "b[:=]", "==", "Y", "size",
            "move", "bmove", "ccall",
        ] {
            assert!(
                ctx.prims.lookup(name).is_some(),
                "figure 2 prim {name} missing"
            );
        }
    }
}
