//! The PTML linker: persistent code into a session's code table.
//!
//! PTML is the only persistent form of code (paper §2.2): "at runtime,
//! it is possible to map PTML back into TML, re-invoke the optimizer and
//! code-generator, link the newly-generated code into the running
//! program, and execute it." [`link_ptml`] is that mapping, and every
//! persisted procedure reaches the machine through it. A stored closure
//! (loaded from source, made by the optimizer or a cache hit, or read
//! from an image) gets its code one way, [`link_stored`], on its first
//! call ([`crate::Machine::linking`]). Only the sites that must check a
//! link before they commit call [`link_ptml`] themselves: tier promotion
//! and deopt, and code shipped to a server.

use std::collections::HashMap;

use tml_core::{Ctx, Oid, VarId};
use tml_store::ptml::{decode_abs, free_names};
use tml_store::varint::DecodeError;
use tml_store::{Object, SVal, Store};

use crate::compile::{compile_proc, CompileError};
use crate::instr::CodeTable;

/// Why PTML did not link.
#[derive(Debug, Clone)]
pub enum LinkError {
    /// The blob does not decode (corrupt, or it names a primitive the
    /// session's registry does not provide:
    /// [`DecodeError::UnknownPrim`]).
    Decode(DecodeError),
    /// The decoded procedure does not compile.
    Compile(CompileError),
    /// A capture has neither a recorded binding nor a global of its name.
    Unresolved(String),
}

impl std::fmt::Display for LinkError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LinkError::Decode(e) => write!(f, "PTML does not decode: {e}"),
            LinkError::Compile(e) => write!(f, "recompilation failed: {e}"),
            LinkError::Unresolved(n) => write!(f, "unresolved binding {n}"),
        }
    }
}

impl std::error::Error for LinkError {}

/// Code linked from PTML by [`link_ptml`].
#[derive(Debug)]
pub struct Linked {
    /// The compiled entry block in the session's code table.
    pub block: u32,
    /// One resolved capture per environment slot, in slot order, under
    /// its free-variable name: the closure's R-value bindings, whose
    /// values are its environment.
    pub captures: Vec<(String, SVal)>,
}

impl Linked {
    /// The closure environment: the capture values in slot order.
    pub fn env(&self) -> impl Iterator<Item = &SVal> {
        self.captures.iter().map(|(_, v)| v)
    }
}

/// The one PTML linker: resolve each free variable of `bytes` by its
/// name through `resolve`, then decode the blob and compile the procedure
/// into `code`, its captures in environment order. A capture that does
/// not resolve fails the link before the body is decoded, so a failed
/// link adds no names to `ctx` and compiles nothing.
pub fn link_ptml(
    ctx: &mut Ctx,
    code: &CodeTable,
    bytes: &[u8],
    resolve: impl FnMut(&str) -> Result<SVal, LinkError>,
) -> Result<Linked, LinkError> {
    let names = free_names(ctx, bytes).map_err(LinkError::Decode)?;
    let values: Vec<SVal> = names
        .iter()
        .copied()
        .map(resolve)
        .collect::<Result<_, _>>()?;
    let (abs, frees) = decode_abs(ctx, bytes).map_err(LinkError::Decode)?;
    // The decoder reads the same free list, unless a fault injected into
    // its input changed it.
    if let Some(i) = (0..frees.len().max(names.len()))
        .find(|&i| frees.get(i).map(|(n, _)| n.as_str()) != names.get(i).copied())
    {
        return Err(LinkError::Decode(DecodeError::BadIndex(i as u64)));
    }
    let mut resolved: HashMap<VarId, (String, SVal)> = frees
        .into_iter()
        .zip(values)
        .map(|((name, v), value)| (v, (name, value)))
        .collect();
    let compiled = compile_proc(ctx, code, &abs).map_err(LinkError::Compile)?;
    let captures = compiled
        .captures
        .iter()
        .map(|v| {
            resolved.remove(v).ok_or_else(|| {
                LinkError::Compile(CompileError::Unbound(format!(
                    "capture {} is not a recorded binding",
                    ctx.names.display(*v)
                )))
            })
        })
        .collect::<Result<_, LinkError>>()?;
    Ok(Linked {
        block: compiled.block,
        captures,
    })
}

/// Link the stored closure `oid` into `code` from its PTML, decoded into
/// `ctx`: a capture keeps its recorded binding, or else takes the global
/// of its name in `globals`, and the link's call count starts at the
/// closure's persisted `tier.calls` attribute. On failure, returns the
/// trap message of a call of `oid`. A body that does not decode or
/// compile fails the same way every time, so `code` remembers it and a
/// later link decodes and compiles nothing; an unresolved capture may
/// resolve once its global is defined.
pub fn link_stored(
    ctx: &mut Ctx,
    code: &CodeTable,
    store: &Store,
    globals: &HashMap<String, SVal>,
    oid: Oid,
) -> Result<(), String> {
    if let Some(why) = code.link_failure(oid) {
        return Err(why.to_string());
    }
    let no_code = |why: &dyn std::fmt::Display| {
        format!("call of closure {oid} with no code in this session: {why}")
    };
    let _s = tml_trace::span!("vm.link");
    let Ok(Object::Closure(c)) = store.get(oid) else {
        return Err(no_code(&"it is not a stored closure"));
    };
    let Some(ptml) = c.ptml else {
        return Err(no_code(&"it was persisted without PTML"));
    };
    let Ok(Object::Ptml(bytes)) = store.get(ptml) else {
        return Err(no_code(&format_args!(
            "its PTML did not relink: blob {ptml} is gone"
        )));
    };
    match link_ptml(ctx, code, bytes, recorded_or_global(&c.bindings, globals)) {
        Ok(linked) => {
            let calls = persisted_calls(store, oid);
            code.link_counted(oid, linked.block, linked.env(), calls);
            Ok(())
        }
        Err(e) => {
            let why = no_code(&format_args!("its PTML did not relink: {e}"));
            if !matches!(e, LinkError::Unresolved(_)) {
                code.link_failed(oid, &why);
            }
            Err(why)
        }
    }
}

/// The store attribute holding a closure's lifetime call count, as an
/// earlier session persisted it.
pub const CALLS_ATTR: &str = "tier.calls";

/// The call count an earlier session persisted for the closure `oid`:
/// where a link made in this session starts counting.
pub fn persisted_calls(store: &Store, oid: Oid) -> u64 {
    store.attr(oid, CALLS_ATTR).unwrap_or(0).max(0) as u64
}

/// The capture resolver for persisted closures: a capture keeps its
/// recorded binding, or else takes the current global of its name.
pub fn recorded_or_global<'r>(
    recorded: &'r [(String, SVal)],
    globals: &'r HashMap<String, SVal>,
) -> impl FnMut(&str) -> Result<SVal, LinkError> + 'r {
    move |name| {
        recorded
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v)
            .or_else(|| globals.get(name))
            .cloned()
            .ok_or_else(|| LinkError::Unresolved(name.to_string()))
    }
}
