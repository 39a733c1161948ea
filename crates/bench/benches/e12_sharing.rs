//! Experiment E12: shared-subtree terms.
//!
//! The Arc/COW term representation lets the optimizer skip quiescent
//! regions by pointer identity. This harness optimizes the Stanford suite
//! as one traced world, reports the COW and skip counters and the PTML
//! size (written as plain trees), and checks that every optimized blob
//! decodes to a well-formed term.

use tml_core::wellformed::check_abs;
use tml_lang::stanford::suite;
use tml_lang::{Session, SessionConfig};
use tml_reflect::{optimize_all, ReflectOptions};
use tml_store::ptml::decode_abs;
use tml_store::Object;

fn main() {
    let mut s = Session::new(SessionConfig::default()).expect("session");
    for p in suite() {
        s.load_str(p.src).expect("loads");
    }
    let rec = tml_trace::global();
    rec.clear();
    rec.set_enabled(true);
    let report = optimize_all(&mut s, &ReflectOptions::default()).expect("optimize_all");
    rec.set_enabled(false);
    let counters = rec.registry().snapshot();
    let counter = |name: &str| {
        counters
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0, |(_, v)| *v)
    };

    let blobs: Vec<Vec<u8>> = s
        .store
        .iter()
        .filter_map(|(_, obj)| match obj {
            Object::Ptml(b) => Some(b.clone()),
            _ => None,
        })
        .collect();
    let bytes: usize = blobs.iter().map(Vec::len).sum();
    for b in &blobs {
        let (abs, _) = decode_abs(&mut s.ctx, b).expect("decodes");
        check_abs(&s.ctx, &abs).expect("well-formed");
    }

    println!("E12 — shared subtrees\n");
    println!(
        "world: {} function(s), size {} -> {} nodes, {} inlined, {} reduction(s)",
        report.functions, report.size_before, report.size_after, report.inlined, report.reductions
    );
    println!(
        "PTML blobs            : {} ({bytes} bytes, all decode well-formed)",
        blobs.len()
    );
    println!(
        "COW                   : {} in-place, {} copies",
        counter("term.cow.inplace"),
        counter("term.cow.copy")
    );
    println!(
        "optimizer skips       : {} quiescent subtrees, {} no-op expand passes",
        counter("opt.reduce.subtree_skipped"),
        counter("opt.expand.noop_pass_skipped")
    );
}
