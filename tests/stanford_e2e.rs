//! End-to-end Stanford suite assertions binding the E1/E2 claims into the
//! test suite (at small problem sizes, instruction-count metric).

use tycoon::lang::stanford::suite;
use tycoon::lang::types::LowerMode;
use tycoon::lang::{OptMode, Session, SessionConfig};
use tycoon::reflect::{optimize_all, optimize_named, ReflectOptions};
use tycoon::store::Object;
use tycoon::vm::RVal;

fn run(
    src: &str,
    entry: &str,
    n: i64,
    lower: LowerMode,
    opt: OptMode,
    dynamic: bool,
) -> (i64, u64) {
    let mut s = Session::new(SessionConfig {
        lower,
        opt,
        ..Default::default()
    })
    .unwrap();
    s.load_str(src).unwrap();
    if dynamic {
        optimize_all(&mut s, &ReflectOptions::default()).unwrap();
    }
    let out = s.call(entry, vec![RVal::Int(n)]).unwrap();
    match out.result {
        RVal::Int(v) => (v, out.stats.instrs),
        other => panic!("non-integer checksum {other:?}"),
    }
}

#[test]
fn all_configurations_compute_identical_checksums() {
    for p in suite() {
        let (golden, _) = run(
            p.src,
            p.entry,
            p.test_n,
            LowerMode::Direct,
            OptMode::None,
            false,
        );
        for lower in [LowerMode::Direct, LowerMode::Library] {
            for opt in [OptMode::None, OptMode::Local] {
                for dynamic in [false, true] {
                    let (got, _) = run(p.src, p.entry, p.test_n, lower, opt, dynamic);
                    assert_eq!(got, golden, "{} {lower:?}/{opt:?}/dyn={dynamic}", p.name);
                }
            }
        }
    }
}

#[test]
fn loading_and_optimizing_compile_nothing() {
    // A stored closure gets its code one way: linked from its PTML on its
    // first call. Loading, whole-world and single-value optimization and
    // cache hits compile nothing.
    let p = suite().into_iter().find(|p| p.name == "quick").unwrap();
    let mut s = Session::new(SessionConfig::default()).unwrap();
    s.load_str(p.src).unwrap();
    let opts = ReflectOptions::default();
    optimize_all(&mut s, &opts).unwrap();
    for _ in 0..2 {
        optimize_named(&mut s, p.entry, &opts).unwrap();
    }
    assert!(s.store.cache_stats().hits > 0, "a second optimize hits");
    assert_eq!(s.vm.code.len(), 2, "only the native-return blocks");
    assert!(s.vm.code.link_counts().is_empty());

    let closures = s
        .store
        .iter()
        .filter(|(_, o)| matches!(o, Object::Closure(_)))
        .count();
    let first = s.call(p.entry, vec![RVal::Int(p.test_n)]).unwrap();
    let linked = s.vm.code.link_counts().len();
    assert_eq!(first.stats.linked, linked as u64);
    assert!(linked > 0 && linked < closures, "{linked} of {closures}");
    let blocks = s.vm.code.len();
    let second = s.call(p.entry, vec![RVal::Int(p.test_n)]).unwrap();
    assert_eq!(second.stats.linked, 0);
    assert_eq!(s.vm.code.len(), blocks);
    assert_eq!(first.result, second.result);
}

#[test]
fn one_optimized_world_holding_every_program_returns_each_checksum() {
    // All ten programs optimized together in one session, so bindings and
    // cache entries of one program are in scope while the others rebuild.
    let mut s = Session::new(SessionConfig::default()).unwrap();
    for p in suite() {
        s.load_str(p.src).unwrap();
    }
    let report = optimize_all(&mut s, &ReflectOptions::default()).unwrap();
    assert!(report.functions > 1, "{report:?}");
    assert_eq!(report.skipped, 0, "{report:?}");
    for p in suite() {
        // Programs with a -1 sentinel are checked against their own
        // unoptimized direct-lowered session.
        let expected = if p.test_expected >= 0 {
            p.test_expected
        } else {
            let (golden, _) = run(
                p.src,
                p.entry,
                p.test_n,
                LowerMode::Direct,
                OptMode::None,
                false,
            );
            golden
        };
        let out = s.call(p.entry, vec![RVal::Int(p.test_n)]).unwrap();
        assert_eq!(out.result, RVal::Int(expected), "{}", p.name);
    }
}

#[test]
fn e1_local_optimization_is_insignificant() {
    // Library mode; local optimization must change instruction counts by
    // less than 25% on every program (the paper: "no significant speedup").
    for p in suite() {
        let (_, base) = run(
            p.src,
            p.entry,
            p.test_n,
            LowerMode::Library,
            OptMode::None,
            false,
        );
        let (_, local) = run(
            p.src,
            p.entry,
            p.test_n,
            LowerMode::Library,
            OptMode::Local,
            false,
        );
        let speedup = base as f64 / local as f64;
        assert!(
            (0.95..1.25).contains(&speedup),
            "{}: local speedup {speedup:.2} outside the 'insignificant' band",
            p.name
        );
    }
}

#[test]
fn e2_dynamic_optimization_reduces_instructions_substantially() {
    // Every program must improve by at least 1.3x in instruction count and
    // the suite by at least 1.7x on average (wall-clock gains are larger;
    // see the e1_e2_stanford bench).
    let mut ratios = Vec::new();
    for p in suite() {
        let (_, base) = run(
            p.src,
            p.entry,
            p.test_n,
            LowerMode::Library,
            OptMode::None,
            false,
        );
        let (_, dynamic) = run(
            p.src,
            p.entry,
            p.test_n,
            LowerMode::Library,
            OptMode::None,
            true,
        );
        let speedup = base as f64 / dynamic as f64;
        assert!(
            speedup > 1.3,
            "{}: dynamic speedup only {speedup:.2}",
            p.name
        );
        ratios.push(speedup.ln());
    }
    let geomean = (ratios.iter().sum::<f64>() / ratios.len() as f64).exp();
    assert!(
        geomean > 1.7,
        "suite-wide dynamic speedup only {geomean:.2} (instructions)"
    );
}

#[test]
fn dynamic_optimization_approaches_direct_prims() {
    // The dynamically optimized library configuration should land close to
    // the direct-primitive lowering (the information-theoretic optimum for
    // this experiment): within 1.35x on every program.
    for p in suite() {
        let (_, direct) = run(
            p.src,
            p.entry,
            p.test_n,
            LowerMode::Direct,
            OptMode::None,
            false,
        );
        let (_, dynamic) = run(
            p.src,
            p.entry,
            p.test_n,
            LowerMode::Library,
            OptMode::None,
            true,
        );
        let gap = dynamic as f64 / direct as f64;
        assert!(
            gap < 1.35,
            "{}: dynamically optimized code is {gap:.2}x the direct-prim lowering",
            p.name
        );
    }
}

/// The work of one call of each program at its benchmark size, in the
/// `base` (library-lowered, unoptimized) and `dyn` (`optimize_all`)
/// sessions: `(program, session, [instrs, calls, closures, frames,
/// exceptions], arrays allocated)`. `closures` counts heap closures,
/// `frames` return frames pushed on the control stack; their sum is the
/// closures a call made before return continuations moved to the stack.
/// Closure groups are transient, so a call allocates no store closures;
/// every other allocation is an array.
const PINNED_WORK: &[(&str, &str, [u64; 5], usize)] = &[
    ("fib", "base", [96148, 54345, 0, 25081, 0], 0),
    ("sieve", "base", [91531, 39164, 304, 17355, 0], 305),
    ("towers", "base", [118770, 69624, 0, 32763, 0], 1),
    ("bubble", "base", [206763, 112194, 121, 54166, 0], 2),
    ("quick", "base", [205766, 90327, 3799, 42359, 0], 1066),
    ("queens", "base", [92473, 47968, 512, 23707, 0], 515),
    ("intmm", "base", [183657, 107043, 344, 50271, 0], 327),
    ("perm", "base", [60645, 35617, 1238, 15747, 0], 2),
    ("tree", "base", [89534, 47395, 1, 23096, 0], 402),
    ("mandel", "base", [846005, 368608, 27035, 172386, 0], 4801),
    ("fib", "dyn", [41803, 16722, 0, 8360, 0], 0),
    ("sieve", "dyn", [56365, 2, 0, 0, 0], 1),
    ("towers", "dyn", [65529, 12288, 0, 4096, 0], 1),
    ("bubble", "dyn", [83548, 2, 0, 0, 0], 1),
    ("quick", "dyn", [114851, 1599, 0, 533, 0], 533),
    ("queens", "dyn", [38492, 5200, 512, 551, 0], 515),
    ("intmm", "dyn", [75925, 2, 0, 0, 0], 3),
    ("perm", "dyn", [29456, 5870, 1237, 1956, 0], 2),
    ("tree", "dyn", [55641, 12980, 1, 8118, 0], 402),
    ("mandel", "dyn", [435166, 2, 0, 0, 0], 0),
];

/// One measured call: a [`PINNED_WORK`] row with the store objects the
/// call allocated, by kind.
type Measured = (
    &'static str,
    &'static str,
    [u64; 5],
    Vec<(&'static str, usize)>,
);

/// Run every program at its benchmark size in both sessions, in suite
/// order.
fn measure_work() -> Vec<Measured> {
    let load = || {
        let mut s = Session::new(SessionConfig::default()).unwrap();
        for p in suite() {
            s.load_str(p.src).unwrap();
        }
        s
    };
    let base = load();
    let mut dynamic = load();
    optimize_all(&mut dynamic, &ReflectOptions::default()).unwrap();
    let mut out = Vec::new();
    for (mode, mut s) in [("base", base), ("dyn", dynamic)] {
        for p in suite() {
            // OIDs are never reused, so the call's objects are the new ones.
            let before = s.store.len() as u64;
            let r = s.call(p.entry, vec![RVal::Int(p.bench_n)]).unwrap();
            let mut objects = std::collections::BTreeMap::new();
            for (_, obj) in s.store.iter().filter(|(oid, _)| oid.0 > before) {
                *objects.entry(obj.kind()).or_insert(0) += 1;
            }
            let st = r.stats;
            let work = [st.instrs, st.calls, st.closures, st.frames, st.exceptions];
            out.push((p.name, mode, work, objects.into_iter().collect()));
        }
    }
    out
}

#[test]
fn work_per_call_is_pinned() {
    // A change to the machine's call path must show as time, never as
    // different work or different store traffic.
    let got = measure_work();
    assert_eq!(got.len(), PINNED_WORK.len());
    for ((name, mode, work, objects), (p_name, p_mode, p_work, p_arrays)) in
        got.iter().zip(PINNED_WORK)
    {
        assert_eq!((name, mode), (p_name, p_mode));
        assert_eq!(
            work, p_work,
            "{mode}.{name}: [instrs, calls, closures, frames, exceptions]"
        );
        let arrays: Vec<(&str, usize)> = (*p_arrays > 0)
            .then_some(("array", *p_arrays))
            .into_iter()
            .collect();
        assert_eq!(
            objects, &arrays,
            "{mode}.{name}: store objects allocated by kind"
        );
    }
}
