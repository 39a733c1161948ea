//! PTML is written as plain trees: every abstraction is emitted in full,
//! including one that is physically shared, and the decoder turns the blob
//! back into the same term.

use std::sync::Arc;
use tycoon::core::alpha::alpha_eq;
use tycoon::core::gen::{gen_program, GenConfig};
use tycoon::core::parse::parse_app;
use tycoon::core::term::{Abs, App, Value};
use tycoon::core::wellformed::check_abs;
use tycoon::core::{Ctx, VarId};
use tycoon::store::ptml::{decode_abs, encode_abs};

// PTML2 value tags (`tml_store::ptml` module docs); `TAG_BACKREF` is
// written only by older share-aware encoders.
const TAG_OID: u8 = 6;
const TAG_VAR: u8 = 7;
const TAG_PRIM: u8 = 8;
const TAG_ABS: u8 = 9;
const TAG_BACKREF: u8 = 10;

/// `abs` closed over `free` (in binding order), so that α-equivalence can
/// match the free variables of two terms positionally.
fn closed(abs: &Abs, free: Vec<VarId>) -> Value {
    Value::from(Abs::new(free, App::new(abs.clone(), vec![])))
}

/// Encode `abs`, decode it back, and check the result is well-formed,
/// α-equal to `abs` and reports the same free-variable names in order.
/// Returns the bytes.
fn roundtrip(ctx: &mut Ctx, abs: &Abs, what: &str) -> Vec<u8> {
    let bytes = encode_abs(ctx, abs);
    assert!(bytes.starts_with(b"PTML2"), "{what}");
    let (decoded, free) = decode_abs(ctx, &bytes).expect("decodes");
    check_abs(ctx, &decoded).unwrap();
    let original = closed(abs, abs.free_vars().to_vec());
    let roundtrip = closed(&decoded, free.iter().map(|&(_, v)| v).collect());
    assert!(alpha_eq(&original, &roundtrip), "{what}");
    let names: Vec<String> = abs
        .free_vars()
        .iter()
        .map(|&v| ctx.names.info(v).base.clone())
        .collect();
    let decoded_names: Vec<String> = free.into_iter().map(|(n, _)| n).collect();
    assert_eq!(names, decoded_names, "{what}");
    bytes
}

#[test]
fn blobs_roundtrip_to_alpha_equal_terms() {
    for seed in 0..60u64 {
        let (mut ctx, app) = gen_program(seed, GenConfig::default());
        roundtrip(&mut ctx, &Abs::new(vec![], app), &format!("seed {seed}"));
    }
}

#[test]
fn a_physically_shared_subtree_is_written_in_full() {
    let mut ctx = Ctx::new();
    let parsed = parse_app(&mut ctx, "(f cont() (halt <oid 0x2a>))").unwrap();
    let shared: Arc<Abs> = parsed.app.args[0].as_abs_arc().unwrap().clone();
    let app = App::new(
        parsed.app.func.clone(),
        vec![Value::Abs(shared.clone()), Value::Abs(shared)],
    );
    assert!(app.args[0].ptr_eq(&app.args[1]));
    let abs = Abs::new(vec![], app);
    let bytes = roundtrip(&mut ctx, &abs, "shared");
    // Header: magic, prims [halt], vars [f], free list [f].
    let header: &[u8] = b"PTML2\x01\x04halt\x01\x01f\x00\x01\x00";
    assert_eq!(&bytes[..header.len()], header);
    // The body, tag by tag: λ() (f k k), then k = cont() (halt <oid 42>)
    // twice in full. No tag position holds a back-reference.
    let app = [TAG_ABS, 0, TAG_VAR, 0, 2];
    let cont = [TAG_ABS, 0, TAG_PRIM, 0, 1, TAG_OID, 42];
    assert_eq!(&bytes[header.len()..], [&app[..], &cont, &cont].concat());
    assert!(![app[0], app[2], cont[0], cont[2], cont[5]].contains(&TAG_BACKREF));
}
