//! Experiment E11: the persistent reflective-optimization cache.
//!
//! The paper attaches derived attributes to generated code "to speed up
//! repeated optimizations of (shared) functions" (§4.1). This benchmark
//! measures that speedup on the §4.1 `geom.abs` example: a *cold*
//! `reflect.optimize` runs the full PTML decode → rebuild → optimize →
//! encode pipeline; a *warm* one finds the memoized product in the store
//! cache, checks its PTML's free list and body structure, and allocates
//! the new closure. Neither compiles: each closure is linked from its
//! PTML on its first call.

use std::time::Instant;
use tml_bench::ms;
use tml_lang::Session;
use tml_reflect::{optimize_named, ReflectOptions};
use tml_vm::RVal;

const COMPLEX_SRC: &str = "
module complex export new, x, y
let new(a: Real, b: Real): Tuple = tuple(a, b)
let x(c: Tuple): Real = c.0
let y(c: Tuple): Real = c.1
end
module geom export abs
let abs(c: Tuple): Real =
  real.sqrt(complex.x(c) * complex.x(c) + complex.y(c) * complex.y(c))
end";

fn main() {
    let mut s = Session::default_session().expect("session");
    s.load_str(COMPLEX_SRC).expect("loads");
    let c = s
        .call("complex.new", vec![RVal::Real(3.0), RVal::Real(4.0)])
        .expect("new")
        .result;

    let cold_opts = ReflectOptions {
        use_cache: false,
        ..Default::default()
    };
    let warm_opts = ReflectOptions::default();
    let reps = 100;
    // Timings here are microseconds per invocation, so take the best of
    // several timed rounds (after an untimed warmup round) to keep the
    // measurement stable under scheduler noise.
    let rounds = 5;
    let time = |s: &mut Session, opts: &ReflectOptions| -> f64 {
        let mut best = f64::INFINITY;
        for round in 0..=rounds {
            let t = Instant::now();
            for _ in 0..reps {
                let v = optimize_named(s, "geom.abs", opts).expect("optimize");
                std::hint::black_box(v);
            }
            if round > 0 {
                best = best.min(t.elapsed().as_secs_f64() / reps as f64);
            }
        }
        best
    };

    // Cold: the full reflective pipeline, every time.
    let cold = time(&mut s, &cold_opts);

    // Warm: prime the cache once, then reuse the memoized product.
    let cached = optimize_named(&mut s, "geom.abs", &warm_opts).expect("prime");
    let warm = time(&mut s, &warm_opts);
    let stats = s.store.cache_stats();

    // Correctness: the cached product is indistinguishable from a fresh
    // optimization — same result, same dynamic cost.
    let fresh = optimize_named(&mut s, "geom.abs", &cold_opts).expect("fresh");
    let a = s
        .call_value(RVal::from_sval(&cached), vec![c.clone()])
        .expect("cached runs");
    let b = s
        .call_value(RVal::from_sval(&fresh), vec![c])
        .expect("fresh runs");
    assert_eq!(a.result, RVal::Real(5.0));
    assert_eq!(a.result, b.result);
    assert_eq!(a.stats.instrs, b.stats.instrs, "cached ≠ fresh cost");

    println!("E11 — persistent reflective-optimization cache (§4.1 abs)\n");
    println!("cold reflect.optimize : {:>10} per invocation", ms(cold));
    println!("warm reflect.optimize : {:>10} per invocation", ms(warm));
    println!("speedup               : {:.1}x", cold / warm);
    println!(
        "cache: {} hits, {} misses, {} inserts, {} invalidations, {} evictions",
        stats.hits, stats.misses, stats.inserts, stats.invalidations, stats.evictions
    );
    assert!(stats.hits >= reps, "warm loop must hit: {stats:?}");
    assert!(
        cold / warm >= 5.0,
        "expected the warm path to be at least 5x faster, got {:.2}x",
        cold / warm
    );
}
