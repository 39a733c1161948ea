//! The bytecode compiler explains its decisions: how many join points
//! became labels, control-stack frames or closures, and how many `var`
//! cells moved into frame slots or stayed store arrays. Pinned for two Stanford programs
//! whose optimized closures are linked after `optimize_all`. (One test per binary: the trace
//! recorder is process-global.)

use tycoon::lang::stanford::suite;
use tycoon::lang::{Session, SessionConfig};
use tycoon::reflect::{optimize_all, ReflectOptions};
use tycoon::store::Oid;
use tycoon::vm::link_stored;

const COUNTERS: [&str; 5] = [
    "vm.compile.join_points",
    "vm.compile.join_frames",
    "vm.compile.join_closures",
    "vm.compile.cells_promoted",
    "vm.compile.cells_boxed",
];

/// `(program, [join points, join frames, join closures, cells promoted,
/// cells boxed])`.
const PINNED: [(&str, [u64; 5]); 2] = [("mandel", [2, 0, 0, 4, 0]), ("quick", [10, 1, 0, 3, 2])];

#[test]
fn compile_decisions_are_pinned() {
    let rec = tycoon::trace::global();
    for (name, want) in PINNED {
        let p = suite().into_iter().find(|p| p.name == name).unwrap();
        let mut s = Session::new(SessionConfig::default()).unwrap();
        s.load_str(p.src).unwrap();
        rec.clear();
        rec.set_enabled(true);
        optimize_all(&mut s, &ReflectOptions::default()).unwrap();
        // Optimizing compiles nothing: link each optimized closure, as
        // its first call would.
        let optimized: Vec<Oid> = s
            .store
            .iter()
            .map(|(oid, _)| oid)
            .filter(|&oid| s.store.attr(oid, "optimized") == Some(1))
            .collect();
        for oid in optimized {
            link_stored(&mut s.ctx, &s.vm.code, &s.store, &s.globals, oid).unwrap();
        }
        rec.set_enabled(false);
        let got: Vec<u64> = COUNTERS.iter().map(|c| rec.counter(c).get()).collect();
        assert_eq!(got, want, "{name}: {COUNTERS:?}");
    }
}
