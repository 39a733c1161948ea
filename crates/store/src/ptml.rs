//! PTML: the compact persistent encoding of TML trees.
//!
//! "For each exported source code function *f* in a compilation unit, the
//! compiler back end augments the generated code for *f* with a reference
//! to a compact persistent representation of the TML tree (Persistent TML,
//! PTML) for *f*. At runtime, it is possible to map PTML back into TML,
//! re-invoke the optimizer and code-generator, link the newly-generated
//! code into the running program, and execute it."
//!
//! "The mapping from PTML back to TML also returns the set of R-value
//! bindings (\[identifier, OID\] pairs) established at runtime" — here,
//! [`decode_abs`] returns the *free variables* of the encoded term in a
//! stable order; the caller (the reflective optimizer in `tml-reflect`)
//! pairs them with the values recorded in the closure record.
//!
//! ## Format
//!
//! ```text
//! magic "PTML2"
//! prim table   : count, names (UTF-8)          -- stable identity is the name
//! var table    : count, (base name, cont flag)
//! free list    : count, var-table indices      -- R-value binding order
//! param list   : count, var-table indices      -- the procedure's formals
//! body         : app
//! app          : value, argc, value*
//! value        : tag … (unit/bool/int/real/char/str/oid/var/prim/abs;
//!                 backref is read, never written)
//! ```
//!
//! ## Plain trees
//!
//! The encoder writes every abstraction in full, in one pre-order walk;
//! the var and prim tables list identifiers in the order that walk first
//! meets them (free variables first). A subtree used twice — physically
//! shared through its `Arc`, or equal in content — is written twice.
//!
//! Images written before the encoder dropped sharing may hold a `backref`
//! tag plus the pre-order sequence number of an earlier, completed
//! abstraction in the same blob. The decoder and [`scan_oids`] still read
//! it, so those images relink and the GC still sees the OID literals in
//! their code; the decoder materializes a back-reference as an `Arc`
//! clone and rejects a forward or unfinished one as corrupt.

use crate::varint::{put_i64, put_str, put_u64, DecodeError, Reader};
use std::collections::HashMap;
use std::sync::Arc;
use tml_core::term::{Abs, App, Value};
use tml_core::{Ctx, Lit, Oid, PrimId, VarId};

const MAGIC: &[u8; 5] = b"PTML2";

const TAG_UNIT: u8 = 0;
const TAG_BOOL: u8 = 1;
const TAG_INT: u8 = 2;
const TAG_REAL: u8 = 3;
const TAG_CHAR: u8 = 4;
const TAG_STR: u8 = 5;
const TAG_OID: u8 = 6;
const TAG_VAR: u8 = 7;
const TAG_PRIM: u8 = 8;
const TAG_ABS: u8 = 9;
/// Written only by older share-aware encoders; still read (module docs).
const TAG_BACKREF: u8 = 10;

/// Maximum abstraction-nesting depth the decoder and scanner accept.
/// Hostile bytes can otherwise drive the recursive decoder into a stack
/// overflow, which `catch_unwind` cannot contain. Debug-build frames for
/// the recursive decode run to several KiB, so the limit is sized with an
/// ~8x margin against the default 2 MiB worker-thread stack (empirically,
/// overflow sets in somewhere past depth 256). CPS nesting in the programs
/// this system compiles stays well below this.
const MAX_DEPTH: usize = 128;

/// Encode a procedure (abstraction) into PTML2 bytes, as a plain tree in
/// one pre-order walk.
pub fn encode_abs(ctx: &Ctx, abs: &Abs) -> Vec<u8> {
    let mut enc = Encoder::new(ctx);
    // Register free variables first so their order is the stable R-value
    // binding order; binders and primitives are registered as the walk
    // reaches them. The cached summary already holds the sorted free set.
    let free = abs.free_vars();
    for &v in free {
        enc.var_index(v);
    }
    let free_count = free.len();

    let mut body = Vec::new();
    enc.put_abs(&mut body, abs);

    // Assemble: header, prim table, var table, free list, body.
    let mut out = Vec::with_capacity(body.len() + 64);
    out.extend_from_slice(MAGIC);
    put_u64(&mut out, enc.prims.len() as u64);
    for name in &enc.prims {
        put_str(&mut out, name);
    }
    put_u64(&mut out, enc.vars.len() as u64);
    for &v in &enc.vars {
        let info = ctx.names.info(v);
        put_str(&mut out, &info.base);
        out.push(u8::from(info.is_cont));
    }
    put_u64(&mut out, free_count as u64);
    for i in 0..free_count {
        put_u64(&mut out, i as u64); // free vars were registered first
    }
    out.extend_from_slice(&body);
    if crate::failpoint::armed() {
        crate::failpoint::corrupt("ptml.encode", 0, &mut out);
    }
    out
}

/// Encode a whole program (application) into PTML bytes by wrapping it in a
/// parameterless abstraction. The wrap is cheap: cloning an [`App`] only
/// bumps the reference counts of its immediate children.
pub fn encode_app(ctx: &Ctx, app: &App) -> Vec<u8> {
    encode_abs(ctx, &Abs::new(Vec::new(), app.clone()))
}

/// Decode PTML bytes back into a TML abstraction. Fresh variables are
/// created in `ctx` for every encoded identifier. Returns the abstraction
/// and its free variables `(name, var)` in R-value binding order.
pub fn decode_abs(ctx: &mut Ctx, bytes: &[u8]) -> Result<(Abs, Vec<(String, VarId)>), DecodeError> {
    if crate::failpoint::armed() {
        let mut owned = bytes.to_vec();
        if crate::failpoint::corrupt("ptml.decode", 0, &mut owned) {
            return decode_abs_inner(ctx, &owned);
        }
    }
    decode_abs_inner(ctx, bytes)
}

fn decode_abs_inner(
    ctx: &mut Ctx,
    bytes: &[u8],
) -> Result<(Abs, Vec<(String, VarId)>), DecodeError> {
    let mut r = Reader::new(bytes);
    let prims = read_header(&mut r, ctx)?;
    // Var table: create fresh identifiers.
    let nvars = r.len()?;
    // Each var-table entry takes at least two bytes.
    let mut vars = Vec::with_capacity(nvars.min(r.remaining() / 2));
    for _ in 0..nvars {
        let base = r.str()?.to_string();
        let is_cont = r.byte()? != 0;
        let v = if is_cont {
            ctx.names.fresh_cont(base.clone())
        } else {
            ctx.names.fresh(base.clone())
        };
        vars.push((base, v));
    }
    // Free list.
    let nfree = r.len()?;
    let mut free = Vec::with_capacity(nfree.min(r.remaining()));
    for _ in 0..nfree {
        let i = r.len()?;
        let (base, v) = vars.get(i).ok_or(DecodeError::BadIndex(i as u64))?;
        free.push((base.clone(), *v));
    }
    // Body value (must be an abstraction).
    let mut dec = Decoder {
        prims,
        vars,
        slots: Vec::new(),
        depth: 0,
    };
    let val = dec.value(&mut r)?;
    if !r.is_at_end() {
        return Err(DecodeError::Truncated);
    }
    match val {
        Value::Abs(a) => Ok((Arc::try_unwrap(a).unwrap_or_else(|a| (*a).clone()), free)),
        _ => Err(DecodeError::BadTag(TAG_ABS)),
    }
}

/// Read the magic and the prim table, resolving each primitive name in
/// `ctx`'s registry.
fn read_header(r: &mut Reader<'_>, ctx: &Ctx) -> Result<Vec<PrimId>, DecodeError> {
    if r.bytes(MAGIC.len())? != MAGIC {
        return Err(DecodeError::BadMagic);
    }
    let nprims = r.len()?;
    let mut prims = Vec::with_capacity(nprims.min(r.remaining()));
    for _ in 0..nprims {
        let name = r.str()?;
        let id = ctx
            .prims
            .lookup(name)
            .ok_or_else(|| DecodeError::UnknownPrim(name.to_string()))?;
        prims.push(id);
    }
    Ok(prims)
}

/// Check the header of a PTML blob without decoding its body: the magic
/// is there and `ctx`'s registry knows every primitive the blob names.
/// A blob that passes may still fail [`decode_abs`] on its body.
pub fn check_header(ctx: &Ctx, bytes: &[u8]) -> Result<(), DecodeError> {
    read_header(&mut Reader::new(bytes), ctx).map(drop)
}

/// The free-variable names of a PTML blob in R-value binding order — the
/// names [`decode_abs`] returns — read from the header, var table and
/// free list alone: no body decode, no variables created in `ctx`. Like
/// `decode_abs`, fails on an unknown primitive first.
pub fn free_names<'b>(ctx: &Ctx, bytes: &'b [u8]) -> Result<Vec<&'b str>, DecodeError> {
    let mut r = Reader::new(bytes);
    read_header(&mut r, ctx)?;
    let nvars = r.len()?;
    // Each var-table entry takes at least two bytes.
    let mut names = Vec::with_capacity(nvars.min(r.remaining() / 2));
    for _ in 0..nvars {
        names.push(r.str()?);
        r.byte()?;
    }
    let nfree = r.len()?;
    (0..nfree)
        .map(|_| {
            let i = r.len()?;
            names.get(i).copied().ok_or(DecodeError::BadIndex(i as u64))
        })
        .collect()
}

/// Decode a whole program encoded by [`encode_app`].
pub fn decode_app(ctx: &mut Ctx, bytes: &[u8]) -> Result<(App, Vec<(String, VarId)>), DecodeError> {
    let (abs, free) = decode_abs(ctx, bytes)?;
    Ok((abs.body, free))
}

/// Collect every OID literal embedded in a PTML blob *without* decoding
/// into a context (no primitive table needed). Used by the garbage
/// collector: code can reference data, so OID literals inside PTML keep
/// their targets alive.
pub fn scan_oids(bytes: &[u8]) -> Result<Vec<Oid>, DecodeError> {
    let mut r = Reader::new(bytes);
    if r.bytes(MAGIC.len())? != MAGIC {
        return Err(DecodeError::BadMagic);
    }
    let mut oids = Vec::new();
    let nprims = r.len()?;
    for _ in 0..nprims {
        r.str()?;
    }
    let nvars = r.len()?;
    for _ in 0..nvars {
        r.str()?;
        r.byte()?;
    }
    let nfree = r.len()?;
    for _ in 0..nfree {
        r.len()?;
    }
    scan_value(&mut r, &mut oids, 0)?;
    if !r.is_at_end() {
        return Err(DecodeError::Truncated);
    }
    Ok(oids)
}

fn scan_value(r: &mut Reader<'_>, oids: &mut Vec<Oid>, depth: usize) -> Result<(), DecodeError> {
    if depth >= MAX_DEPTH {
        return Err(DecodeError::TooDeep { limit: MAX_DEPTH });
    }
    match r.byte()? {
        TAG_UNIT => {}
        TAG_BOOL | TAG_CHAR => {
            r.byte()?;
        }
        TAG_INT => {
            r.i64()?;
        }
        TAG_REAL => {
            r.bytes(8)?;
        }
        TAG_STR => {
            r.byte_string()?;
        }
        TAG_OID => oids.push(Oid(r.u64()?)),
        TAG_VAR | TAG_PRIM => {
            r.u64()?;
        }
        TAG_ABS => {
            let nparams = r.len()?;
            for _ in 0..nparams {
                r.len()?;
            }
            scan_app(r, oids, depth + 1)?;
        }
        TAG_BACKREF => {
            // The referenced subtree was already scanned where it was
            // first emitted; the GC only needs set membership.
            r.u64()?;
        }
        t => return Err(DecodeError::BadTag(t)),
    }
    Ok(())
}

fn scan_app(r: &mut Reader<'_>, oids: &mut Vec<Oid>, depth: usize) -> Result<(), DecodeError> {
    scan_value(r, oids, depth)?;
    let argc = r.len()?;
    for _ in 0..argc {
        scan_value(r, oids, depth)?;
    }
    Ok(())
}

struct Encoder<'a> {
    ctx: &'a Ctx,
    prims: Vec<String>,
    prim_ix: HashMap<PrimId, u64>,
    vars: Vec<VarId>,
    var_ix: HashMap<VarId, u64>,
}

impl<'a> Encoder<'a> {
    fn new(ctx: &'a Ctx) -> Self {
        Encoder {
            ctx,
            prims: Vec::new(),
            prim_ix: HashMap::new(),
            vars: Vec::new(),
            var_ix: HashMap::new(),
        }
    }

    fn var_index(&mut self, v: VarId) -> u64 {
        if let Some(&i) = self.var_ix.get(&v) {
            return i;
        }
        let i = self.vars.len() as u64;
        self.vars.push(v);
        self.var_ix.insert(v, i);
        i
    }

    fn prim_index(&mut self, p: PrimId) -> u64 {
        if let Some(&i) = self.prim_ix.get(&p) {
            return i;
        }
        let i = self.prims.len() as u64;
        self.prims.push(self.ctx.prims.name(p).to_string());
        self.prim_ix.insert(p, i);
        i
    }

    fn put_value(&mut self, out: &mut Vec<u8>, v: &Value) {
        match v {
            Value::Lit(Lit::Unit) => out.push(TAG_UNIT),
            Value::Lit(Lit::Bool(b)) => {
                out.push(TAG_BOOL);
                out.push(u8::from(*b));
            }
            Value::Lit(Lit::Int(n)) => {
                out.push(TAG_INT);
                put_i64(out, *n);
            }
            Value::Lit(Lit::Real(r)) => {
                out.push(TAG_REAL);
                out.extend_from_slice(&r.get().to_le_bytes());
            }
            Value::Lit(Lit::Char(c)) => {
                out.push(TAG_CHAR);
                out.push(*c);
            }
            Value::Lit(Lit::Str(s)) => {
                out.push(TAG_STR);
                put_str(out, s);
            }
            Value::Lit(Lit::Oid(o)) => {
                out.push(TAG_OID);
                put_u64(out, o.0);
            }
            Value::Var(x) => {
                out.push(TAG_VAR);
                let i = self.var_index(*x);
                put_u64(out, i);
            }
            Value::Prim(p) => {
                out.push(TAG_PRIM);
                let i = self.prim_index(*p);
                put_u64(out, i);
            }
            Value::Abs(a) => self.put_abs(out, a),
        }
    }

    fn put_abs(&mut self, out: &mut Vec<u8>, a: &Abs) {
        out.push(TAG_ABS);
        put_u64(out, a.params.len() as u64);
        for &p in &a.params {
            let i = self.var_index(p);
            put_u64(out, i);
        }
        self.put_value(out, &a.body.func);
        put_u64(out, a.body.args.len() as u64);
        for v in &a.body.args {
            self.put_value(out, v);
        }
    }
}

struct Decoder {
    prims: Vec<PrimId>,
    vars: Vec<(String, VarId)>,
    /// One slot per decoded abstraction, in pre-order (the sequence
    /// numbering of a legacy `backref`). A slot is reserved (`None`) when
    /// its `TAG_ABS` is first read and filled once the subtree completes,
    /// so a back-reference to a still-open ancestor is detectable as
    /// corrupt.
    slots: Vec<Option<Arc<Abs>>>,
    /// Current abstraction-nesting depth, bounded by [`MAX_DEPTH`] so
    /// hostile bytes cannot overflow the decoder's stack.
    depth: usize,
}

impl Decoder {
    fn value(&mut self, r: &mut Reader<'_>) -> Result<Value, DecodeError> {
        Ok(match r.byte()? {
            TAG_UNIT => Value::Lit(Lit::Unit),
            TAG_BOOL => Value::Lit(Lit::Bool(r.byte()? != 0)),
            TAG_INT => Value::Lit(Lit::Int(r.i64()?)),
            TAG_REAL => {
                let raw: [u8; 8] = r.bytes(8)?.try_into().map_err(|_| DecodeError::Truncated)?;
                Value::Lit(Lit::real(f64::from_le_bytes(raw)))
            }
            TAG_CHAR => Value::Lit(Lit::Char(r.byte()?)),
            TAG_STR => Value::Lit(Lit::str(r.str()?)),
            TAG_OID => Value::Lit(Lit::Oid(Oid(r.u64()?))),
            TAG_VAR => {
                let i = r.len()?;
                let (_, v) = self.vars.get(i).ok_or(DecodeError::BadIndex(i as u64))?;
                Value::Var(*v)
            }
            TAG_PRIM => {
                let i = r.len()?;
                let p = self.prims.get(i).ok_or(DecodeError::BadIndex(i as u64))?;
                Value::Prim(*p)
            }
            TAG_ABS => {
                if self.depth >= MAX_DEPTH {
                    return Err(DecodeError::TooDeep { limit: MAX_DEPTH });
                }
                self.depth += 1;
                let slot = self.slots.len();
                self.slots.push(None);
                let nparams = r.len()?;
                let mut params = Vec::with_capacity(nparams.min(1024));
                for _ in 0..nparams {
                    let i = r.len()?;
                    let (_, v) = self.vars.get(i).ok_or(DecodeError::BadIndex(i as u64))?;
                    params.push(*v);
                }
                let body = self.app(r)?;
                self.depth -= 1;
                let arc = Arc::new(Abs::new(params, body));
                self.slots[slot] = Some(arc.clone());
                Value::Abs(arc)
            }
            TAG_BACKREF => {
                let i = r.len()?;
                let arc = self
                    .slots
                    .get(i)
                    .and_then(|s| s.clone())
                    .ok_or(DecodeError::BadIndex(i as u64))?;
                Value::Abs(arc)
            }
            t => return Err(DecodeError::BadTag(t)),
        })
    }

    fn app(&mut self, r: &mut Reader<'_>) -> Result<App, DecodeError> {
        let func = self.value(r)?;
        let argc = r.len()?;
        let mut args = Vec::with_capacity(argc.min(1024));
        for _ in 0..argc {
            args.push(self.value(r)?);
        }
        Ok(App { func, args })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tml_core::parse::parse_app;
    use tml_core::pretty::print_app;

    fn roundtrip(src: &str) -> (Ctx, App, App, Vec<(String, VarId)>) {
        let mut ctx = Ctx::new();
        let parsed = parse_app(&mut ctx, src).unwrap();
        let bytes = encode_app(&ctx, &parsed.app);
        let (decoded, free) = decode_app(&mut ctx, &bytes).unwrap();
        (ctx, parsed.app, decoded, free)
    }

    #[test]
    fn roundtrip_preserves_structure() {
        let (ctx, orig, decoded, _) =
            roundtrip("(cont(x) (+ x 1 cont(e)(halt e) cont(t)(halt t)) 13)");
        assert_eq!(orig.size(), decoded.size());
        // α-equivalent: printing differs only in unique numbers.
        let a = print_app(&ctx, &orig);
        let b = print_app(&ctx, &decoded);
        let strip = |s: &str| {
            s.chars()
                .filter(|c| !c.is_ascii_digit() && *c != '_')
                .collect::<String>()
        };
        // Literals are digits too, so compare shapes loosely plus sizes.
        assert_eq!(strip(&a).len(), strip(&b).len());
    }

    #[test]
    fn all_literal_kinds_roundtrip() {
        let src = r#"(cont(a b c d e f g) (halt a) unit true -7 2.5 'q' "str" <oid 0xbeef>)"#;
        let (_, orig, decoded, _) = roundtrip(src);
        assert_eq!(orig.args, decoded.args);
    }

    #[test]
    fn free_variables_reported_in_order() {
        let (ctx, _, _, free) = roundtrip("(f g f h)");
        let names: Vec<&str> = free.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, vec!["f", "g", "h"]);
        for (_, v) in &free {
            assert!(!ctx.names.is_cont(*v));
        }
    }

    #[test]
    fn cont_flags_survive() {
        let mut ctx = Ctx::new();
        let parsed = parse_app(&mut ctx, "(proc(t ce cc) (cc t) 1 a b)").unwrap();
        let bytes = encode_app(&ctx, &parsed.app);
        let (decoded, _) = decode_app(&mut ctx, &bytes).unwrap();
        let abs = decoded.func.as_abs().unwrap();
        assert!(!ctx.names.is_cont(abs.params[0]));
        assert!(ctx.names.is_cont(abs.params[1]));
        assert!(ctx.names.is_cont(abs.params[2]));
    }

    #[test]
    fn decoded_terms_are_well_formed() {
        use tml_core::gen::{gen_program, GenConfig};
        for seed in 0..25 {
            let (mut ctx, app) = gen_program(seed, GenConfig::default());
            let bytes = encode_app(&ctx, &app);
            let (decoded, _) = decode_app(&mut ctx, &bytes).unwrap();
            tml_core::wellformed::check_app(&ctx, &decoded)
                .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            assert_eq!(app.size(), decoded.size());
        }
    }

    #[test]
    fn encoding_is_compact() {
        // A few dozen nodes should encode in well under 4 bytes per node.
        use tml_core::gen::{gen_program, GenConfig};
        let (ctx, app) = gen_program(
            3,
            GenConfig {
                steps: 30,
                ..Default::default()
            },
        );
        let bytes = encode_app(&ctx, &app);
        assert!(
            bytes.len() < app.size() * 8,
            "{} bytes for {} nodes",
            bytes.len(),
            app.size()
        );
    }

    #[test]
    fn bad_magic_rejected() {
        let mut ctx = Ctx::new();
        // A well-formed body under the retired flat format's magic is
        // rejected like any foreign blob; under the current magic it decodes.
        let body = b"\x00\x00\x00\x09\x00\x00\x00";
        let legacy = [&b"PTML1"[..], body].concat();
        for bytes in [&b"NOPE!xxxx"[..], &legacy] {
            assert_eq!(decode_app(&mut ctx, bytes), Err(DecodeError::BadMagic));
            assert_eq!(scan_oids(bytes), Err(DecodeError::BadMagic));
        }
        assert!(decode_app(&mut ctx, &[&MAGIC[..], body].concat()).is_ok());
    }

    /// `(f cont() (halt <oid 0x2a>) cont() (halt <oid 0x2a>))` as the
    /// share-aware encoder wrote it: the second continuation is a `backref`
    /// (tag 10) to the first, which holds the OID literal. Captured from
    /// that encoder; nothing writes this form any more, but images on disk
    /// still hold it.
    #[rustfmt::skip]
    const LEGACY_BACKREF_BLOB: &[u8] = &[
        b'P', b'T', b'M', b'L', b'2', // magic
        1, 4, b'h', b'a', b'l', b't', // prims: halt
        1, 1, b'f', 0, // vars: f (not a continuation)
        1, 0, // free list: f
        TAG_ABS, 0, TAG_VAR, 0, 2, // λ() (f …2 args…)
        TAG_ABS, 0, TAG_PRIM, 0, 1, TAG_OID, 42, // cont() (halt <oid 0x2a>)
        TAG_BACKREF, 1, // the same continuation again
    ];

    #[test]
    fn legacy_backref_blob_decodes_scans_and_keeps_its_oid_alive() {
        use crate::{gc, Object, Store};
        use tml_core::alpha::alpha_eq;

        let mut ctx = Ctx::new();
        let src = parse_app(
            &mut ctx,
            "(f cont() (halt <oid 0x2a>) cont() (halt <oid 0x2a>))",
        )
        .unwrap();
        let f = src.app.func.as_var().unwrap();
        let (decoded, free) = decode_app(&mut ctx, LEGACY_BACKREF_BLOB).unwrap();
        tml_core::wellformed::check_app(&ctx, &decoded).unwrap();
        assert!(
            decoded.args[0].ptr_eq(&decoded.args[1]),
            "backref is shared"
        );
        assert_eq!(free.len(), 1);
        let closed = |v: VarId, app: &App| Value::from(Abs::new(vec![v], app.clone()));
        assert!(alpha_eq(&closed(f, &src.app), &closed(free[0].1, &decoded)));
        // Re-encoding writes the shared continuation out in full.
        let (shared, backref) = LEGACY_BACKREF_BLOB.split_at(LEGACY_BACKREF_BLOB.len() - 2);
        assert_eq!(backref, [TAG_BACKREF, 1]);
        let cont = [TAG_ABS, 0, TAG_PRIM, 0, 1, TAG_OID, 42];
        assert_eq!(encode_app(&ctx, &decoded), [shared, &cont].concat());

        assert_eq!(scan_oids(LEGACY_BACKREF_BLOB), Ok(vec![Oid(42)]));

        // The blob is the only reference to object 42: the GC keeps it and
        // collects the unreferenced objects around it.
        let mut store = Store::new();
        for _ in 1..42 {
            store.alloc(Object::Tuple(vec![]));
        }
        assert_eq!(store.alloc(Object::Tuple(vec![])), Oid(42));
        let blob = store.alloc(Object::Ptml(LEGACY_BACKREF_BLOB.to_vec()));
        store.set_root("code", blob);
        let stats = gc::collect(&mut store, &[]);
        assert_eq!(stats.freed, 41);
        assert!(
            store.get(Oid(42)).is_ok(),
            "object named only by the blob was collected"
        );
    }

    #[test]
    fn truncation_rejected() {
        let mut ctx = Ctx::new();
        let parsed = parse_app(&mut ctx, "(halt 12345)").unwrap();
        let bytes = encode_app(&ctx, &parsed.app);
        for cut in [bytes.len() - 1, bytes.len() / 2, MAGIC.len()] {
            assert!(
                decode_app(&mut ctx, &bytes[..cut]).is_err(),
                "cut at {cut} accepted"
            );
        }
    }

    #[test]
    fn unknown_prim_rejected() {
        // Encode with a context that has an extra primitive, decode with a
        // context lacking it.
        let mut ctx = Ctx::new();
        ctx.prims.register(tml_core::PrimDef {
            name: "mystery".into(),
            signature: tml_core::Signature::exact(0, 1),
            attrs: Default::default(),
            fold: None,
            rewrite: None,
            validate: None,
            cost: tml_core::prim::PrimCost::Const(1),
            codegen: None,
        });
        let parsed = parse_app(&mut ctx, "(mystery k)").unwrap();
        let bytes = encode_app(&ctx, &parsed.app);
        let mut plain = Ctx::new();
        assert_eq!(
            decode_app(&mut plain, &bytes),
            Err(DecodeError::UnknownPrim("mystery".into()))
        );
    }

    #[test]
    fn table_counts_past_the_blob_fail_typed_without_allocating() {
        let mut ctx = Ctx::new();
        let parsed = parse_app(&mut ctx, "(halt 1)").unwrap();
        let good = encode_app(&ctx, &parsed.app);
        // Forge each table count in turn (prims, vars, free list) to a
        // length no allocation can hold.
        let mut at = MAGIC.len();
        for table in 0..3 {
            let mut r = Reader::new(&good[at..]);
            let n = r.len().unwrap();
            let mut forged = good[..at].to_vec();
            put_u64(&mut forged, u64::MAX >> 1);
            forged.extend_from_slice(&good[at + r.position()..]);
            assert!(decode_app(&mut ctx, &forged).is_err(), "table {table}");
            assert!(free_names(&ctx, &forged).is_err(), "table {table}");
            if table == 2 {
                break;
            }
            // Skip this table to reach the next count.
            let mut r = Reader::new(&good[at..]);
            r.len().unwrap();
            for _ in 0..n {
                r.str().unwrap();
                if table == 1 {
                    r.byte().unwrap();
                }
            }
            at += r.position();
        }
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut ctx = Ctx::new();
        let parsed = parse_app(&mut ctx, "(halt 1)").unwrap();
        let mut bytes = encode_app(&ctx, &parsed.app);
        bytes.push(0);
        assert_eq!(decode_app(&mut ctx, &bytes), Err(DecodeError::Truncated));
    }

    /// A hostile blob nesting abstractions far past any real program must
    /// hit the depth guard — a typed error, not a decoder stack overflow
    /// (which no `catch_unwind` could contain).
    #[test]
    fn depth_bomb_rejected_not_overflowed() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(MAGIC);
        put_u64(&mut bytes, 0); // prims
        put_u64(&mut bytes, 0); // vars
        put_u64(&mut bytes, 0); // free list
        for _ in 0..100_000 {
            bytes.push(TAG_ABS);
            bytes.push(0); // no params; body's func is the next abs
        }
        let mut ctx = Ctx::new();
        assert_eq!(
            decode_app(&mut ctx, &bytes),
            Err(DecodeError::TooDeep { limit: MAX_DEPTH })
        );
        assert_eq!(
            scan_oids(&bytes),
            Err(DecodeError::TooDeep { limit: MAX_DEPTH })
        );
    }

    /// Exhaustive truncation and bit-flip sweep: the decoder and the GC's
    /// OID scanner read persisted bytes, so a corrupted blob must produce
    /// an error (or, for a lucky flip, a decodable other term) — never a
    /// panic.
    #[test]
    fn corrupted_blobs_never_panic_decoder_or_scanner() {
        let mut ctx = Ctx::new();
        let parsed = parse_app(
            &mut ctx,
            "(cont(x) (+ x 1 cont(e)(halt e) cont(t)(halt t)) -9223372036854775807)",
        )
        .unwrap();
        let bytes = encode_app(&ctx, &parsed.app);
        for cut in 0..bytes.len() {
            let mut c = Ctx::new();
            assert!(
                decode_app(&mut c, &bytes[..cut]).is_err(),
                "truncation at {cut} accepted"
            );
            let _ = scan_oids(&bytes[..cut]);
        }
        for pos in 0..bytes.len() {
            for flip in [0x01u8, 0x80, 0xff] {
                let mut m = bytes.clone();
                m[pos] ^= flip;
                let mut c = Ctx::new();
                let _ = decode_app(&mut c, &m);
                let _ = scan_oids(&m);
            }
        }
    }
}
