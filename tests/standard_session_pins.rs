//! Programs without query primitives optimize exactly as they did before
//! the query rules joined the optimizer loop: on a `Registry::standard()`
//! session the rule pass never runs, so the optimized PTML of every
//! Stanford program and stdlib closure, and the provenance stream of every
//! closure's optimization, hash to values pinned from the last build that
//! ran a separate query rewriter.

use tycoon::lang::stanford::suite;
use tycoon::lang::{Session, SessionConfig};
use tycoon::opt::{record_abs, OptOptions};
use tycoon::reflect::{optimize_all, ReflectOptions, TermBuilder};
use tycoon::store::{Object, Oid};

/// FNV-1a, folded over successive byte strings.
fn fnv(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// The stdlib plus every Stanford program, on the standard registry.
fn world() -> Session {
    let mut s = Session::new(SessionConfig::default()).unwrap();
    for p in suite() {
        s.load_str(p.src).unwrap();
    }
    s
}

/// Closures carrying PTML, in OID order.
fn ptml_closures(s: &Session) -> Vec<Oid> {
    s.store
        .iter()
        .filter_map(|(oid, obj)| match obj {
            Object::Closure(c) if c.ptml.is_some() => Some(oid),
            _ => None,
        })
        .collect()
}

#[test]
fn optimize_all_ptml_is_unchanged() {
    let mut s = world();
    let before = ptml_closures(&s);
    optimize_all(&mut s, &ReflectOptions::default()).unwrap();
    let mut h = FNV_OFFSET;
    let mut n = 0;
    for oid in ptml_closures(&s) {
        if before.contains(&oid) {
            continue;
        }
        let Ok(Object::Closure(c)) = s.store.get(oid) else {
            unreachable!()
        };
        let Ok(Object::Ptml(bytes)) = s.store.get(c.ptml.unwrap()) else {
            panic!("{oid} has no PTML blob");
        };
        h = fnv(h, bytes);
        n += 1;
    }
    assert_eq!(n, before.len());
    assert_eq!((n, h), (PTML_CLOSURES, PTML_HASH), "{h:#x}");
}

#[test]
fn record_abs_provenance_is_unchanged() {
    let mut s = world();
    let opts = ReflectOptions::default();
    let mut h = FNV_OFFSET;
    let mut events = 0;
    for oid in ptml_closures(&s) {
        let abs = TermBuilder::new(&mut s.ctx, &s.store)
            .build(oid, opts.inline_depth)
            .unwrap();
        let (_, _, log) = record_abs(&mut s.ctx, abs, &OptOptions::default(), None);
        for e in &log {
            h = fnv(h, format!("{e:?}").as_bytes());
        }
        events += log.len();
    }
    assert_eq!((events, h), (PROVENANCE_EVENTS, PROVENANCE_HASH), "{h:#x}");
}

// Pinned at the last commit with a separate query rewriter. The PTML hash
// was re-pinned once, when the encoder stopped writing back-references:
// 6 of these 57 blobs had held 8 of them, and those 6 are now written as
// plain trees (72 bytes longer in total); the other 51 are byte-identical.
const PTML_CLOSURES: usize = 57;
const PTML_HASH: u64 = 0xa86c_85a2_7ab4_b3f6;
const PROVENANCE_EVENTS: usize = 2269;
const PROVENANCE_HASH: u64 = 0x45e4_13e6_cf3b_8041;
