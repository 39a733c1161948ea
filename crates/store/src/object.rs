//! Heap objects: the complex values living behind OIDs.

use crate::sval::SVal;
use std::collections::BTreeMap;
use tml_core::Oid;

/// The most slots, or bytes for a byte array, that one object a program
/// allocates may hold; relation schemas count their columns against it
/// too. `new`, `bnew` and `mkrel` each build an object of a requested
/// size in a single instruction, so fuel does not bound them: they check
/// this cap before they allocate and fail typed above it (a machine trap
/// for `new`/`bnew`, a `type` exception for `mkrel`). At 4 Mi slots an
/// array stays below 100 MiB.
pub const MAX_OBJECT_LEN: usize = 1 << 22;

/// A compiled procedure in the store.
///
/// "For each exported source code function f in a compilation unit, the
/// compiler back end augments the generated code for f with a reference to
/// a compact persistent representation of the TML tree (Persistent TML,
/// PTML) for f." The closure also records the R-value bindings of its free
/// (global) variables — the `[identifier, OID]` pairs the reflective
/// optimizer re-establishes as λ-bindings (§4.1).
#[derive(Debug, Clone, PartialEq)]
pub struct ClosureObj {
    /// Index into the abstract machine's code table. Transient: images
    /// keep the value but the code table must be relinked (regenerated from
    /// PTML) after loading.
    pub code: u32,
    /// Captured environment slots (lexical closure record).
    pub env: Vec<SVal>,
    /// The R-value bindings of the procedure's free variables, in the order
    /// the PTML encoding lists them: `(identifier, value)` pairs.
    pub bindings: Vec<(String, SVal)>,
    /// PTML attachment: an OID of an [`Object::Ptml`] byte object, if the
    /// compiler kept the intermediate representation.
    pub ptml: Option<Oid>,
}

/// A module record: the runtime value of a first-class Tycoon module.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ModuleObj {
    /// Module name (e.g. `complex`).
    pub name: String,
    /// Exported bindings, by export name.
    pub exports: BTreeMap<String, SVal>,
}

/// A relation (bulk data): a schema plus a bag of rows. Used by the
/// `tml-query` crate; stored here so relations persist like any object.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Relation {
    /// Column names.
    pub schema: Vec<String>,
    /// Rows; every row has `schema.len()` fields.
    pub rows: Vec<Vec<SVal>>,
}

impl Relation {
    /// Create an empty relation with the given schema.
    pub fn new(schema: Vec<String>) -> Relation {
        Relation {
            schema,
            rows: Vec::new(),
        }
    }

    /// Index of a column by name.
    pub fn column(&self, name: &str) -> Option<usize> {
        self.schema.iter().position(|c| c == name)
    }

    /// Append a row.
    ///
    /// # Panics
    /// Panics if the row width does not match the schema.
    pub fn insert(&mut self, row: Vec<SVal>) {
        assert_eq!(
            row.len(),
            self.schema.len(),
            "row width {} does not match schema width {}",
            row.len(),
            self.schema.len()
        );
        self.rows.push(row);
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// `true` if the relation has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }
}

/// An ordered index key. Only orderable immediates can be indexed.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub enum IndexKey {
    /// Boolean key.
    Bool(bool),
    /// Integer key.
    Int(i64),
    /// Character key.
    Char(u8),
    /// String key.
    Str(String),
}

impl IndexKey {
    /// Build a key from a store value, if it is indexable.
    pub fn from_sval(v: &SVal) -> Option<IndexKey> {
        match v {
            SVal::Bool(b) => Some(IndexKey::Bool(*b)),
            SVal::Int(n) => Some(IndexKey::Int(*n)),
            SVal::Char(c) => Some(IndexKey::Char(*c)),
            SVal::Str(s) => Some(IndexKey::Str(s.to_string())),
            _ => None,
        }
    }
}

/// A secondary index over one column of a relation.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct IndexObj {
    /// The indexed relation.
    pub relation: Oid,
    /// The indexed column.
    pub column: usize,
    /// Key → row indices.
    pub entries: BTreeMap<IndexKey, Vec<usize>>,
}

/// A heap object.
#[derive(Debug, Clone, PartialEq)]
pub enum Object {
    /// A mutable object array (`array`, `new` primitives).
    Array(Vec<SVal>),
    /// An immutable object array (`vector` primitive).
    Vector(Vec<SVal>),
    /// A mutable byte array (`bnew` primitive).
    ByteArray(Vec<u8>),
    /// A record/tuple value (ADT representations, e.g. complex numbers).
    Tuple(Vec<SVal>),
    /// A compiled procedure.
    Closure(ClosureObj),
    /// An encoded TML tree (see [`crate::ptml`]).
    Ptml(Vec<u8>),
    /// A first-class module record.
    Module(ModuleObj),
    /// A relation.
    Relation(Relation),
    /// A secondary index.
    Index(IndexObj),
}

impl Object {
    /// A short kind tag for diagnostics and snapshot encoding.
    pub fn kind(&self) -> &'static str {
        match self {
            Object::Array(_) => "array",
            Object::Vector(_) => "vector",
            Object::ByteArray(_) => "bytearray",
            Object::Tuple(_) => "tuple",
            Object::Closure(_) => "closure",
            Object::Ptml(_) => "ptml",
            Object::Module(_) => "module",
            Object::Relation(_) => "relation",
            Object::Index(_) => "index",
        }
    }

    /// Approximate persistent size in bytes (slot-based accounting used by
    /// the E3 code-size experiment and the store statistics).
    pub fn byte_size(&self) -> usize {
        const SLOT: usize = 8;
        match self {
            Object::Array(v) | Object::Vector(v) | Object::Tuple(v) => v.len() * SLOT + SLOT,
            Object::ByteArray(b) => b.len() + SLOT,
            Object::Closure(c) => {
                SLOT * 3
                    + c.env.len() * SLOT
                    + c.bindings
                        .iter()
                        .map(|(n, _)| n.len() + SLOT)
                        .sum::<usize>()
            }
            Object::Ptml(b) => b.len() + SLOT,
            Object::Module(m) => {
                m.name.len() + m.exports.keys().map(|n| n.len() + SLOT).sum::<usize>() + SLOT
            }
            Object::Relation(r) => {
                r.schema.iter().map(|s| s.len()).sum::<usize>()
                    + r.rows.len() * r.schema.len().max(1) * SLOT
                    + SLOT
            }
            Object::Index(ix) => ix.entries.len() * 2 * SLOT + SLOT,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relation_insert_and_lookup() {
        let mut r = Relation::new(vec!["id".into(), "name".into()]);
        r.insert(vec![SVal::Int(1), SVal::from("ada")]);
        r.insert(vec![SVal::Int(2), SVal::from("bob")]);
        assert_eq!(r.len(), 2);
        assert_eq!(r.column("name"), Some(1));
        assert_eq!(r.column("nope"), None);
        assert!(!r.is_empty());
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn relation_rejects_ragged_rows() {
        let mut r = Relation::new(vec!["id".into()]);
        r.insert(vec![SVal::Int(1), SVal::Int(2)]);
    }

    #[test]
    fn index_keys_order() {
        assert!(IndexKey::Int(1) < IndexKey::Int(2));
        assert!(IndexKey::from_sval(&SVal::Real(1.0)).is_none());
        assert_eq!(IndexKey::from_sval(&SVal::Int(5)), Some(IndexKey::Int(5)));
    }

    #[test]
    fn byte_sizes_scale() {
        let small = Object::Array(vec![SVal::Int(0); 2]);
        let big = Object::Array(vec![SVal::Int(0); 200]);
        assert!(big.byte_size() > small.byte_size());
        let ptml = Object::Ptml(vec![0u8; 100]);
        assert_eq!(ptml.byte_size(), 108);
    }

    #[test]
    fn kinds() {
        assert_eq!(Object::Tuple(vec![]).kind(), "tuple");
        assert_eq!(Object::Module(ModuleObj::default()).kind(), "module");
    }
}
