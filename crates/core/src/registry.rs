//! The single construction path for primitive tables.
//!
//! Every layer that needs a primitive world — the language session, the
//! image loader in `tml-reflect`, the `tmlc` driver, the tests — builds
//! it through one [`Registry`]: start from [`Registry::standard`] (or
//! [`Registry::empty`]), layer extension packages on top (e.g.
//! `tml-query`'s relational primitives), register project-local
//! primitives through the public API, and hand the result to
//! [`crate::Ctx::from_registry`]. Because the registry is the *only*
//! extension point the compiler, optimizer, persistent encoding and
//! machine consult, a primitive registered here behaves exactly like a
//! built-in one in every layer.

use crate::prim::{DuplicatePrim, PrimDef, PrimId, PrimTable};
use crate::prims_std;

/// Builder for a [`PrimTable`] shared by all pipeline layers.
#[derive(Debug, Clone)]
pub struct Registry {
    table: PrimTable,
}

impl Registry {
    /// An empty registry with no primitives at all.
    pub fn empty() -> Registry {
        Registry {
            table: PrimTable::new(),
        }
    }

    /// A registry pre-populated with the standard primitives
    /// ([`crate::prims_std`]): arithmetic, comparisons, data access,
    /// exceptions, the `Y` fixpoint, `ccall`, ...
    pub fn standard() -> Registry {
        let mut table = PrimTable::new();
        prims_std::install(&mut table);
        Registry { table }
    }

    /// Register a primitive, failing on a duplicate name.
    pub fn register(&mut self, def: PrimDef) -> Result<PrimId, DuplicatePrim> {
        self.table.try_register(def)
    }

    /// Register a primitive if its name is not already taken; returns the
    /// id either way. This is the idempotent layering entry extension
    /// packages use, so enabling a package twice (or on top of a registry
    /// that already carries it) is harmless.
    pub fn ensure(&mut self, def: PrimDef) -> PrimId {
        match self.table.lookup(&def.name) {
            Some(id) => id,
            None => self.table.register(def),
        }
    }

    /// Apply an installer function (an extension package's `register`
    /// entry point), builder-style.
    pub fn with(mut self, install: impl FnOnce(&mut Registry)) -> Registry {
        install(&mut self);
        self
    }

    /// Read access to the table built so far.
    pub fn table(&self) -> &PrimTable {
        &self.table
    }

    /// Finish building.
    pub fn build(self) -> PrimTable {
        self.table
    }
}

impl Default for Registry {
    /// The standard world — what [`crate::Ctx::new`] uses.
    fn default() -> Registry {
        Registry::standard()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prim::{PrimAttrs, PrimCost, Signature};

    fn dummy(name: &str) -> PrimDef {
        PrimDef {
            name: name.to_string(),
            signature: Signature::exact(1, 2),
            attrs: PrimAttrs::default(),
            fold: None,
            rewrite: None,
            validate: None,
            cost: PrimCost::Const(1),
            codegen: None,
        }
    }

    #[test]
    fn standard_has_the_stdlib_prims() {
        let r = Registry::standard();
        for n in ["+", "Y", "ccall", "halt", "=="] {
            assert!(r.table().lookup(n).is_some(), "missing {n}");
        }
    }

    #[test]
    fn register_rejects_duplicates_ensure_tolerates_them() {
        let mut r = Registry::empty();
        let id = r.register(dummy("frob")).unwrap();
        assert!(r.register(dummy("frob")).is_err());
        assert_eq!(r.ensure(dummy("frob")), id);
        assert_eq!(r.table().len(), 1);
    }

    #[test]
    fn with_applies_installers_in_order() {
        let t = Registry::empty()
            .with(|r| {
                r.ensure(dummy("a"));
            })
            .with(|r| {
                r.ensure(dummy("a"));
                r.ensure(dummy("b"));
            })
            .build();
        assert_eq!(t.len(), 2);
        assert!(t.lookup("a").is_some() && t.lookup("b").is_some());
    }
}
