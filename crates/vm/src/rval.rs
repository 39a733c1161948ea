//! Runtime values.
//!
//! The machine computes with [`RVal`]: the store's immediate values plus
//! *transient closures* — continuation and procedure closures created
//! during execution that have not (yet) been persisted. A closure group
//! (the mutually recursive procedures of one `Y` that did not compile to
//! loops) is transient too: one shared [`ClosureGroup`] whose members
//! refer to each other by index, so the group holds no reference cycle.
//! Writing a transient closure or group member into a store object
//! persists it on the fly, so first-class procedures can flow into
//! arrays, tuples and module records exactly as the paper's first-class
//! modules require. A group is persisted whole, once: every store
//! reference to one group instance is the same OID.
//!
//! A *transient row* ([`TransientRow`]) is the row a query operator hands
//! to a predicate or projection target: the row's values, copied out of
//! the relation without touching the store. `[]` and `size` read it in
//! place. It becomes a store tuple only when it escapes — written into a
//! store object, returned through `project`, mutated with `[:=]` — and,
//! like a group, it is persisted once: every escape of one row yields the
//! same OID, and from then on the store tuple is the row, so all aliases
//! observe a write to it.

use crate::instr::CodeTable;
use std::cell::OnceCell;
use std::rc::Rc;
use std::sync::Arc;
use tml_core::Oid;
use tml_store::{ClosureObj, Object, SVal, StoreAccess, StoreError};

/// A transient (not yet persistent) closure.
#[derive(Debug, Clone, PartialEq)]
pub struct TransientClosure {
    /// Code block index.
    pub code: u32,
    /// Captured environment.
    pub env: Vec<RVal>,
    /// For a continuation: the control-stack depth it returns to.
    /// Invoking it first drops every frame at or above that depth, as
    /// returning through a stack frame does. `None` for procedures.
    pub frame: Option<u32>,
    /// `true` when the environment holds a stack continuation, itself or
    /// through a continuation closure or group: only a continuation made
    /// on the stack can. Such a closure is lifted to the heap
    /// (`Stack::lift`) before a procedure, the store or an extern gets it.
    pub holds_frames: bool,
}

impl Drop for TransientClosure {
    /// Unlink the closures only this one holds one at a time, so that a
    /// long chain (each continuation capturing the one below it) is
    /// dropped in a loop, not in one host stack frame per link.
    fn drop(&mut self) {
        let mut work = std::mem::take(&mut self.env);
        while let Some(v) = work.pop() {
            if let RVal::Clo(c) = v {
                if let Some(mut c) = Rc::into_inner(c) {
                    work.append(&mut c.env);
                }
            }
        }
    }
}

/// A continuation whose frame is on the machine's control stack: the
/// frame's depth, the generation it was pushed with, and which of its
/// exits (`0` normal, `1` exception) it names. Only the machine that
/// pushed the frame can use it, and only while the frame is live.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StackCont {
    /// Index of the frame on the control stack.
    pub depth: u32,
    /// The frame's push number; a later frame at the same depth has
    /// another.
    pub gen: u64,
    /// The exit taken: `0` the normal return, `1` the exception path.
    pub exit: u8,
}

/// One captured value of a [`ClosureGroup`] member.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Capture {
    /// An ordinary value from the creating activation.
    Val(RVal),
    /// The `j`-th member of the same group.
    Member(u16),
}

/// A transient group of mutually recursive closures.
#[derive(Debug, PartialEq)]
pub struct ClosureGroup {
    /// `(code block, captures)` per member, in `CloseGroup` order.
    pub(crate) members: Box<[(u32, Box<[Capture]>)]>,
    /// Store OIDs of the members, set when the group is first persisted.
    persisted: OnceCell<Box<[Oid]>>,
    /// For a group of continuations (a loop): the control-stack depth it
    /// returns to, as [`TransientClosure::frame`].
    pub(crate) frame: Option<u32>,
    /// As [`TransientClosure::holds_frames`], for any member.
    pub(crate) holds_frames: bool,
}

impl ClosureGroup {
    /// A group not yet persisted.
    pub(crate) fn new(members: Box<[(u32, Box<[Capture]>)]>, frame: Option<u32>) -> ClosureGroup {
        let holds_frames = members
            .iter()
            .flat_map(|m| m.1.iter())
            .any(|c| matches!(c, Capture::Val(v) if v.holds_frames()));
        ClosureGroup {
            members,
            persisted: OnceCell::new(),
            frame,
            holds_frames,
        }
    }

    /// The members' OIDs, if the group has been persisted.
    pub fn oids(&self) -> Option<&[Oid]> {
        self.persisted.get().map(|o| &o[..])
    }

    /// Persist the whole group (once): allocate one store closure per
    /// member with placeholder member captures, then backpatch them with
    /// one `set` per closure, so a durable backend logs the fully-patched
    /// post-image. Each member is linked into `code` after its backpatch.
    fn persist<S: StoreAccess + ?Sized>(
        &self,
        store: &mut S,
        code: &CodeTable,
    ) -> Result<&[Oid], StoreError> {
        if let Some(oids) = self.oids() {
            return Ok(oids);
        }
        let mut envs = Vec::with_capacity(self.members.len());
        let mut oids = Vec::with_capacity(self.members.len());
        for (_, caps) in self.members.iter() {
            let mut env = Vec::with_capacity(caps.len());
            for cap in caps.iter() {
                env.push(match cap {
                    Capture::Val(v) => v.persist(store, code)?,
                    Capture::Member(_) => SVal::Ref(Oid::NULL),
                });
            }
            oids.push(store.alloc(Object::Closure(ClosureObj::positional(&env)))?);
            envs.push(env);
        }
        for (((block, caps), oid), env) in self.members.iter().zip(&oids).zip(&mut envs) {
            if caps.iter().any(|c| matches!(c, Capture::Member(_))) {
                for (slot, cap) in env.iter_mut().zip(caps.iter()) {
                    if let Capture::Member(j) = cap {
                        *slot = SVal::Ref(oids[*j as usize]);
                    }
                }
                store.set(*oid, Object::Closure(ClosureObj::positional(env)))?;
            }
            code.link_frame(*oid, *block, &*env, self.frame);
        }
        Ok(self.persisted.get_or_init(|| oids.into()))
    }
}

/// A transient relation row (see the module doc).
#[derive(Debug, PartialEq)]
pub struct TransientRow {
    slots: Vec<SVal>,
    /// The store tuple's OID, set when the row is first persisted.
    persisted: OnceCell<Oid>,
}

impl TransientRow {
    /// A row holding `slots`, not yet persisted.
    pub fn new(slots: Vec<SVal>) -> TransientRow {
        TransientRow {
            slots,
            persisted: OnceCell::new(),
        }
    }

    /// Make `row` a fresh unpersisted row holding `values`, reusing its
    /// buffer when nothing else refers to it (the previous row did not
    /// escape the predicate it was passed to).
    pub fn refill(row: &mut Rc<TransientRow>, values: &[SVal]) {
        match Rc::get_mut(row) {
            Some(r) => {
                r.slots.clear();
                r.slots.extend_from_slice(values);
                r.persisted = OnceCell::new();
            }
            None => *row = Rc::new(TransientRow::new(values.to_vec())),
        }
    }

    /// The values the row was created with. Once the row is persisted the
    /// store tuple ([`TransientRow::oid`]) is the row: read it there.
    pub fn slots(&self) -> &[SVal] {
        &self.slots
    }

    /// The store tuple's OID, if the row has been persisted.
    pub fn oid(&self) -> Option<Oid> {
        self.persisted.get().copied()
    }

    /// Persist the row (once) as a store tuple.
    pub fn persist<S: StoreAccess + ?Sized>(&self, store: &mut S) -> Result<Oid, StoreError> {
        if let Some(oid) = self.oid() {
            return Ok(oid);
        }
        let oid = store.alloc(Object::Tuple(self.slots.clone()))?;
        tml_trace::count("query.rows.persisted", 1);
        Ok(*self.persisted.get_or_init(|| oid))
    }
}

/// A runtime value.
#[derive(Clone, PartialEq)]
pub enum RVal {
    /// The unit value.
    Unit,
    /// A boolean.
    Bool(bool),
    /// A 64-bit integer.
    Int(i64),
    /// A 64-bit real.
    Real(f64),
    /// A byte/character.
    Char(u8),
    /// An immutable string.
    Str(Arc<str>),
    /// A reference to a store object (including persistent closures).
    Ref(Oid),
    /// A transient closure.
    Clo(Rc<TransientClosure>),
    /// Member `j` of a transient closure group.
    Group(Rc<ClosureGroup>, u16),
    /// A transient relation row.
    Row(Rc<TransientRow>),
    /// A return continuation living on the machine's control stack.
    Cont(StackCont),
}

impl RVal {
    /// `true` for a stack continuation and for a continuation closure or
    /// group holding one: a value that must be lifted to the heap before
    /// it can outlive the control stack.
    #[inline]
    pub(crate) fn holds_frames(&self) -> bool {
        match self {
            RVal::Cont(_) => true,
            RVal::Clo(c) => c.holds_frames,
            RVal::Group(g, _) => g.holds_frames,
            _ => false,
        }
    }

    /// Lift a store value.
    pub fn from_sval(v: &SVal) -> RVal {
        match v {
            SVal::Unit => RVal::Unit,
            SVal::Bool(b) => RVal::Bool(*b),
            SVal::Int(n) => RVal::Int(*n),
            SVal::Real(x) => RVal::Real(*x),
            SVal::Char(c) => RVal::Char(*c),
            SVal::Str(s) => RVal::Str(s.clone()),
            SVal::Ref(o) => RVal::Ref(*o),
        }
    }

    /// Lower to a store value, persisting transient closures into `store`
    /// on the way (recursively through their environments; a group member
    /// persists its whole group once) and linking each into `code`, the
    /// session's code table. Generic over the store-access seam, so
    /// persisting through a durable store logs each closure allocation.
    ///
    /// A run-time closure has no PTML: its record keeps its environment
    /// as positional bindings (so the collector reaches them), and it is
    /// callable only in the session that linked it.
    pub fn persist<S: StoreAccess + ?Sized>(
        &self,
        store: &mut S,
        code: &CodeTable,
    ) -> Result<SVal, StoreError> {
        Ok(match self {
            RVal::Unit => SVal::Unit,
            RVal::Bool(b) => SVal::Bool(*b),
            RVal::Int(n) => SVal::Int(*n),
            RVal::Real(x) => SVal::Real(*x),
            RVal::Char(c) => SVal::Char(*c),
            RVal::Str(s) => SVal::Str(s.clone()),
            RVal::Ref(o) => SVal::Ref(*o),
            RVal::Clo(c) => {
                let mut env = Vec::with_capacity(c.env.len());
                for v in &c.env {
                    env.push(v.persist(store, code)?);
                }
                let oid = store.alloc(Object::Closure(ClosureObj::positional(&env)))?;
                code.link_frame(oid, c.code, &env, c.frame);
                SVal::Ref(oid)
            }
            RVal::Group(g, j) => SVal::Ref(g.persist(store, code)?[*j as usize]),
            RVal::Row(r) => SVal::Ref(r.persist(store)?),
            // The machine copies a stack continuation to the heap before
            // anything can persist it; one reaching here escaped that.
            RVal::Cont(_) => {
                return Err(StoreError::WrongKind {
                    oid: Oid::NULL,
                    expected: "persistable value",
                    found: "stack continuation",
                })
            }
        })
    }

    /// Object identity (`==` primitive semantics). A group member or a
    /// row is identical to its persisted copy.
    pub fn identical(&self, other: &RVal) -> bool {
        match (self, other) {
            (RVal::Unit, RVal::Unit) => true,
            (RVal::Bool(a), RVal::Bool(b)) => a == b,
            (RVal::Int(a), RVal::Int(b)) => a == b,
            (RVal::Real(a), RVal::Real(b)) => a.to_bits() == b.to_bits(),
            (RVal::Char(a), RVal::Char(b)) => a == b,
            (RVal::Str(a), RVal::Str(b)) => a == b,
            (RVal::Ref(a), RVal::Ref(b)) => a == b,
            (RVal::Clo(a), RVal::Clo(b)) => Rc::ptr_eq(a, b),
            (RVal::Group(a, i), RVal::Group(b, j)) => Rc::ptr_eq(a, b) && i == j,
            (RVal::Group(g, j), RVal::Ref(o)) | (RVal::Ref(o), RVal::Group(g, j)) => {
                g.oids().is_some_and(|oids| oids[*j as usize] == *o)
            }
            (RVal::Row(a), RVal::Row(b)) => Rc::ptr_eq(a, b),
            (RVal::Cont(a), RVal::Cont(b)) => a == b,
            (RVal::Row(r), RVal::Ref(o)) | (RVal::Ref(o), RVal::Row(r)) => r.oid() == Some(*o),
            _ => false,
        }
    }

    /// The integer payload, if any.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            RVal::Int(n) => Some(*n),
            _ => None,
        }
    }

    /// The real payload, if any.
    pub fn as_real(&self) -> Option<f64> {
        match self {
            RVal::Real(x) => Some(*x),
            _ => None,
        }
    }

    /// A short kind tag for diagnostics.
    pub fn kind(&self) -> &'static str {
        match self {
            RVal::Unit => "unit",
            RVal::Bool(_) => "bool",
            RVal::Int(_) => "int",
            RVal::Real(_) => "real",
            RVal::Char(_) => "char",
            RVal::Str(_) => "string",
            RVal::Ref(_) | RVal::Row(_) => "ref",
            RVal::Clo(_) | RVal::Group(..) | RVal::Cont(_) => "closure",
        }
    }
}

impl std::fmt::Debug for RVal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RVal::Unit => write!(f, "unit"),
            RVal::Bool(b) => write!(f, "{b}"),
            RVal::Int(n) => write!(f, "{n}"),
            RVal::Real(x) => write!(f, "{x:?}"),
            RVal::Char(c) => write!(f, "'{}'", char::from(*c).escape_default()),
            RVal::Str(s) => write!(f, "{s:?}"),
            RVal::Ref(o) => write!(f, "{o}"),
            RVal::Clo(c) => write!(f, "<closure #{}>", c.code),
            RVal::Group(g, j) => write!(f, "<closure #{}>", g.members[*j as usize].0),
            RVal::Cont(k) => write!(f, "<continuation @{}>", k.depth),
            RVal::Row(r) => match r.oid() {
                Some(o) => write!(f, "{o}"),
                None => write!(f, "<row {:?}>", r.slots),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tml_store::Store;

    #[test]
    fn sval_roundtrip_for_immediates() {
        let mut store = Store::new();
        for v in [
            RVal::Unit,
            RVal::Bool(true),
            RVal::Int(-9),
            RVal::Real(2.25),
            RVal::Char(b'a'),
            RVal::Str("s".into()),
            RVal::Ref(Oid(4)),
        ] {
            let s = v.persist(&mut store, &CodeTable::new()).unwrap();
            assert!(RVal::from_sval(&s).identical(&v));
        }
        assert!(store.is_empty(), "immediates must not allocate");
    }

    #[test]
    fn persisting_closures_allocates() {
        let mut store = Store::new();
        let clo = RVal::Clo(Rc::new(TransientClosure {
            code: 3,
            env: vec![
                RVal::Int(1),
                RVal::Clo(Rc::new(TransientClosure {
                    code: 4,
                    env: vec![],
                    frame: None,
                    holds_frames: false,
                })),
            ],
            frame: None,
            holds_frames: false,
        }));
        let code = CodeTable::new();
        let s = clo.persist(&mut store, &code).unwrap();
        assert_eq!(store.len(), 2); // inner + outer
        let oid = match s {
            SVal::Ref(o) => o,
            other => panic!("expected ref, got {other:?}"),
        };
        let obj = store.get(oid).unwrap();
        match obj {
            Object::Closure(c) => {
                assert_eq!(c.ptml, None);
                assert_eq!(c.bindings.len(), 2, "the environment, by position");
                assert_eq!(c.bindings[0], (String::new(), SVal::Int(1)));
            }
            other => panic!("expected closure, got {other:?}"),
        }
        let linked = code.linked(oid).expect("linked on persist");
        assert_eq!((linked.code, linked.env.len()), (3, 2));
    }

    #[test]
    fn closure_identity_is_pointer_identity() {
        let a = Rc::new(TransientClosure {
            code: 1,
            env: vec![],
            frame: None,
            holds_frames: false,
        });
        let v1 = RVal::Clo(a.clone());
        let v2 = RVal::Clo(a);
        let v3 = RVal::Clo(Rc::new(TransientClosure {
            code: 1,
            env: vec![],
            frame: None,
            holds_frames: false,
        }));
        assert!(v1.identical(&v2));
        assert!(!v1.identical(&v3));
    }

    #[test]
    fn a_row_persists_once_and_is_identical_to_its_tuple() {
        let mut store = Store::new();
        let row = Rc::new(TransientRow::new(vec![SVal::Int(1), SVal::Bool(true)]));
        let v = RVal::Row(row.clone());
        assert_eq!(format!("{v:?}"), "<row [1, true]>");
        assert!(v.identical(&RVal::Row(row.clone())));
        assert!(!v.identical(&RVal::Row(Rc::new(TransientRow::new(vec![])))));
        let first = v.persist(&mut store, &CodeTable::new()).unwrap();
        assert_eq!(v.persist(&mut store, &CodeTable::new()).unwrap(), first);
        assert_eq!(store.len(), 1);
        let SVal::Ref(oid) = first else {
            panic!("expected a ref, got {first:?}")
        };
        assert_eq!(
            store.get(oid).unwrap(),
            &Object::Tuple(vec![SVal::Int(1), SVal::Bool(true)])
        );
        assert!(v.identical(&RVal::Ref(oid)) && RVal::Ref(oid).identical(&v));
        assert_eq!(format!("{v:?}"), format!("{oid}"));
        assert_eq!(v.kind(), "ref");
    }

    #[test]
    fn refill_reuses_a_row_nothing_else_holds() {
        let mut store = Store::new();
        let mut row = Rc::new(TransientRow::new(vec![SVal::Int(1)]));
        RVal::Row(row.clone())
            .persist(&mut store, &CodeTable::new())
            .unwrap();
        let before = Rc::as_ptr(&row);
        TransientRow::refill(&mut row, &[SVal::Int(2)]);
        assert_eq!(Rc::as_ptr(&row), before);
        assert_eq!((row.slots(), row.oid()), (&[SVal::Int(2)][..], None));
        // An escaped row keeps its values; the next one is new.
        let escaped = row.clone();
        TransientRow::refill(&mut row, &[SVal::Int(3)]);
        assert!(!Rc::ptr_eq(&row, &escaped));
        assert_eq!(escaped.slots(), &[SVal::Int(2)]);
    }

    #[test]
    fn kinds() {
        assert_eq!(RVal::Int(1).kind(), "int");
        assert_eq!(
            RVal::Clo(Rc::new(TransientClosure {
                code: 0,
                env: vec![],
                frame: None,
                holds_frames: false,
            }))
            .kind(),
            "closure"
        );
    }
}
