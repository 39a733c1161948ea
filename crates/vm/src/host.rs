//! Extension primitives and host functions.
//!
//! The paper's §2.3: "it is possible to add new primitive procedures in
//! order to meet the specific needs of more specialized source languages
//! (e.g., supporting multiple bulk data types …). The easiest way to
//! support such complex instructions in TML is to define new primitives
//! which are mapped directly to corresponding abstract machine instructions
//! during target code generation."
//!
//! Extension primitives follow the standard procedure calling convention
//! `(prim val₁ … valₙ cₑ c꜀)` and compile to the [`crate::Instr::Extern`]
//! instruction. Their implementations receive a [`HostCtx`], which exposes
//! the store and — crucially for the query primitives — the ability to
//! *re-enter the machine* to evaluate TML closures (selection predicates,
//! projection targets). The `ccall` figure-2 primitive routes through the
//! same table.

use crate::rval::RVal;
use std::collections::HashMap;
use std::rc::Rc;
use tml_store::{SVal, StoreAccess, StoreError};

/// Callbacks available to extension primitives.
pub trait HostCtx {
    /// The persistent object store, behind the store-access seam: on a
    /// durable backend every mutation made here is WAL-logged. Read-only
    /// callers can drop to the raw store via [`StoreAccess::base`].
    fn store(&mut self) -> &mut dyn StoreAccess;
    /// Lower a value to a store value, persisting (and linking into the
    /// session's code table) the transient closures it holds.
    fn persist(&mut self, v: &RVal) -> Result<SVal, StoreError>;
    /// Call a TML procedure value (closure) with the given arguments,
    /// running the machine until the procedure invokes its normal
    /// continuation (`Ok`) or its exception continuation (`Err`).
    fn call(&mut self, target: RVal, args: Vec<RVal>) -> Result<RVal, RVal>;
    /// Append a line to the machine's output channel.
    fn emit(&mut self, line: String);
}

/// An extension primitive implementation. `Err` values are exception
/// values delivered to the call's exception continuation.
pub type ExternFn = Rc<dyn Fn(&mut dyn HostCtx, &[RVal]) -> Result<RVal, RVal>>;

/// Registry of extension primitives by name.
#[derive(Default, Clone)]
pub struct ExternTable {
    fns: HashMap<String, ExternFn>,
}

impl ExternTable {
    /// Create an empty table.
    pub fn new() -> ExternTable {
        ExternTable::default()
    }

    /// Register an implementation. Replaces any previous one of the same
    /// name (useful for tests that stub primitives).
    pub fn register(
        &mut self,
        name: impl Into<String>,
        f: impl Fn(&mut dyn HostCtx, &[RVal]) -> Result<RVal, RVal> + 'static,
    ) {
        self.fns.insert(name.into(), Rc::new(f));
    }

    /// Look up an implementation.
    pub fn lookup(&self, name: &str) -> Option<ExternFn> {
        self.fns.get(name).cloned()
    }

    /// Number of registered functions.
    pub fn len(&self) -> usize {
        self.fns.len()
    }

    /// `true` if no function is registered.
    pub fn is_empty(&self) -> bool {
        self.fns.is_empty()
    }
}

impl std::fmt::Debug for ExternTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut names: Vec<&str> = self.fns.keys().map(String::as_str).collect();
        names.sort_unstable();
        f.debug_struct("ExternTable").field("fns", &names).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_and_lookup() {
        let mut t = ExternTable::new();
        t.register("host.add", |_ctx, args| {
            let a = args[0].as_int().ok_or_else(|| RVal::Str("type".into()))?;
            let b = args[1].as_int().ok_or_else(|| RVal::Str("type".into()))?;
            Ok(RVal::Int(a + b))
        });
        assert!(t.lookup("host.add").is_some());
        assert!(t.lookup("missing").is_none());
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn replacing_is_allowed() {
        let mut t = ExternTable::new();
        t.register("f", |_, _| Ok(RVal::Int(1)));
        t.register("f", |_, _| Ok(RVal::Int(2)));
        assert_eq!(t.len(), 1);
    }
}
