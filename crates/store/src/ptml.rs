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
//! value        : tag … (unit/bool/int/real/char/str/oid/var/prim/abs/backref)
//! ```
//!
//! ## Shared subtrees
//!
//! Every `abs` node carries an implicit sequence number (pre-order
//! emission order, starting at 0). A subtree that is physically shared
//! (`Arc` pointer identity) or structurally identical (same structural
//! hash, verified by deep comparison — identical variable ids included) to
//! an already-emitted abstraction is encoded as a `backref` tag plus the
//! earlier abstraction's sequence number instead of being re-emitted. The
//! decoder keeps one slot per decoded abstraction and materializes
//! back-references as `Arc` clones, so sharing survives the round trip. A
//! back-reference may only point at a *completed* earlier abstraction (an
//! ancestor still being decoded is strictly larger than any of its
//! subtrees, so neither pointer nor content dedup can ever produce one);
//! the decoder rejects forward or unfinished references as corrupt.

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
const TAG_BACKREF: u8 = 10;

/// Maximum abstraction-nesting depth the decoder and scanner accept.
/// Hostile bytes can otherwise drive the recursive decoder into a stack
/// overflow, which `catch_unwind` cannot contain. Debug-build frames for
/// the recursive decode run to several KiB, so the limit is sized with an
/// ~8x margin against the default 2 MiB worker-thread stack (empirically,
/// overflow sets in somewhere past depth 256). CPS nesting in the programs
/// this system compiles stays well below this.
const MAX_DEPTH: usize = 128;

/// Encode a procedure (abstraction) into share-aware PTML2 bytes: each
/// distinct shared subtree is emitted once and back-referenced thereafter.
pub fn encode_abs(ctx: &Ctx, abs: &Abs) -> Vec<u8> {
    let mut enc = Encoder::new(ctx);
    // Register free variables first so their order is the stable R-value
    // binding order, then the binders in traversal order. The cached
    // summary already holds the sorted free set — no tree walk needed.
    let free = abs.free_vars();
    for &v in free {
        enc.var_index(v);
    }
    let free_count = free.len();
    enc.collect_binders(abs);

    let mut body = Vec::new();
    enc.put_abs_raw(&mut body, abs);

    if tml_trace::enabled() {
        tml_trace::count("store.ptml.share.backrefs", enc.backrefs);
        tml_trace::count("store.ptml.share.saved_bytes", enc.saved_bytes);
    }

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
    if r.bytes(MAGIC.len())? != MAGIC {
        return Err(DecodeError::BadMagic);
    }
    // Prim table.
    let nprims = r.len()?;
    let mut prims = Vec::with_capacity(nprims);
    for _ in 0..nprims {
        let name = r.str()?.to_string();
        let id = ctx
            .prims
            .lookup(&name)
            .ok_or(DecodeError::UnknownPrim(name))?;
        prims.push(id);
    }
    // Var table: create fresh identifiers.
    let nvars = r.len()?;
    let mut vars = Vec::with_capacity(nvars);
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
    let mut free = Vec::with_capacity(nfree);
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
    /// Abs sequence counter (pre-order emission order).
    next_seq: u64,
    /// Emitted byte length per sequence number (filled at completion),
    /// for the saved-bytes accounting.
    seq_len: Vec<usize>,
    /// Already-emitted abstractions by pointer. The `Arc` clones in
    /// `content` keep every registered allocation alive, so a raw address
    /// can never be reused by a different node while encoding.
    ptr_seq: HashMap<usize, u64>,
    /// Already-emitted abstractions by structural hash, for content dedup
    /// (deep equality verified on candidate hit).
    content: HashMap<u64, Vec<(u64, Arc<Abs>)>>,
    backrefs: u64,
    saved_bytes: u64,
}

impl<'a> Encoder<'a> {
    fn new(ctx: &'a Ctx) -> Self {
        Encoder {
            ctx,
            prims: Vec::new(),
            prim_ix: HashMap::new(),
            vars: Vec::new(),
            var_ix: HashMap::new(),
            next_seq: 0,
            seq_len: Vec::new(),
            ptr_seq: HashMap::new(),
            content: HashMap::new(),
            backrefs: 0,
            saved_bytes: 0,
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

    /// Pre-register every binder so the var table is complete before the
    /// body is emitted (indices must be stable).
    fn collect_binders(&mut self, abs: &Abs) {
        for &p in &abs.params {
            self.var_index(p);
        }
        self.collect_app(&abs.body);
    }

    fn collect_app(&mut self, app: &App) {
        self.collect_value(&app.func);
        for a in &app.args {
            self.collect_value(a);
        }
    }

    fn collect_value(&mut self, v: &Value) {
        match v {
            Value::Abs(a) => self.collect_binders(a),
            Value::Prim(p) => {
                self.prim_index(*p);
            }
            Value::Var(x) => {
                self.var_index(*x);
            }
            Value::Lit(_) => {}
        }
    }

    fn put_value_payload(&mut self, out: &mut Vec<u8>, v: &Value) {
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
            Value::Abs(a) => self.put_abs_value(out, a),
        }
    }

    /// Emit an abstraction reached through its shared handle: a back
    /// reference when the node (by pointer, then by content) was already
    /// emitted, the full subtree otherwise.
    fn put_abs_value(&mut self, out: &mut Vec<u8>, a: &Arc<Abs>) {
        let key = Arc::as_ptr(a) as usize;
        if let Some(&seq) = self.ptr_seq.get(&key) {
            self.put_backref(out, seq);
            return;
        }
        let h = a.struct_hash();
        if let Some(cands) = self.content.get(&h) {
            if let Some(&(seq, _)) = cands.iter().find(|(_, c)| **c == **a) {
                self.ptr_seq.insert(key, seq);
                self.put_backref(out, seq);
                return;
            }
        }
        // First emission: register before descending so the sequence
        // numbering is pre-order (matching the decoder's slot order).
        let seq = self.put_abs_raw(out, a);
        self.ptr_seq.insert(key, seq);
        self.content.entry(h).or_default().push((seq, a.clone()));
    }

    /// Emit an abstraction subtree in full, assigning it the next sequence
    /// number. Returns the assigned sequence number.
    fn put_abs_raw(&mut self, out: &mut Vec<u8>, a: &Abs) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.seq_len.push(0);
        let start = out.len();
        out.push(TAG_ABS);
        put_u64(out, a.params.len() as u64);
        for &p in &a.params {
            let i = self.var_index(p);
            put_u64(out, i);
        }
        self.put_app(out, &a.body);
        self.seq_len[seq as usize] = out.len() - start;
        seq
    }

    fn put_backref(&mut self, out: &mut Vec<u8>, seq: u64) {
        let start = out.len();
        out.push(TAG_BACKREF);
        put_u64(out, seq);
        self.backrefs += 1;
        let full = self.seq_len[seq as usize];
        self.saved_bytes += full.saturating_sub(out.len() - start) as u64;
    }

    fn put_app(&mut self, out: &mut Vec<u8>, app: &App) {
        self.put_value_payload(out, &app.func);
        put_u64(out, app.args.len() as u64);
        for a in &app.args {
            self.put_value_payload(out, a);
        }
    }
}

struct Decoder {
    prims: Vec<PrimId>,
    vars: Vec<(String, VarId)>,
    /// One slot per decoded abstraction, in pre-order (matching the
    /// encoder's sequence numbering). A slot is reserved (`None`) when its
    /// `TAG_ABS` is first read and filled once the subtree completes, so a
    /// back-reference to a still-open ancestor is detectable as corrupt.
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
