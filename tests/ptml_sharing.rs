//! The PTML back-reference codec: the share-aware encoder emits each
//! distinct shared subtree once and back-references it thereafter, and the
//! decoder turns the blob back into the same term.

use tycoon::core::alpha::alpha_eq;
use tycoon::core::gen::{gen_program, GenConfig};
use tycoon::core::term::{Abs, App, Value};
use tycoon::core::wellformed::check_abs;
use tycoon::core::VarId;
use tycoon::store::ptml::{decode_abs, encode_abs};

/// `abs` closed over `free` (in binding order), so that α-equivalence can
/// match the free variables of two terms positionally.
fn closed(abs: &Abs, free: Vec<VarId>) -> Value {
    Value::from(Abs::new(free, App::new(abs.clone(), vec![])))
}

#[test]
fn shared_blobs_roundtrip_to_alpha_equal_terms() {
    for seed in 0..60u64 {
        let (mut ctx, app) = gen_program(seed, GenConfig::default());
        let abs = Abs::new(vec![], app);
        let shared = encode_abs(&ctx, &abs);
        assert!(shared.starts_with(b"PTML2"), "seed {seed}");
        let (decoded, free) = decode_abs(&mut ctx, &shared).expect("shared decodes");
        check_abs(&ctx, &decoded).unwrap();
        let original = closed(&abs, abs.free_vars().to_vec());
        let roundtrip = closed(&decoded, free.iter().map(|&(_, v)| v).collect());
        assert!(alpha_eq(&original, &roundtrip), "seed {seed}");
        let names: Vec<String> = abs
            .free_vars()
            .iter()
            .map(|&v| ctx.names.info(v).base.clone())
            .collect();
        let decoded_names: Vec<String> = free.into_iter().map(|(n, _)| n).collect();
        assert_eq!(names, decoded_names, "seed {seed}");
    }
}
