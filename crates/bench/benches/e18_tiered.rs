//! Experiment E18: tiered execution on a skewed workload.
//!
//! The tiering thesis: when a few closures take almost all the calls, a
//! background re-optimizer that promotes exactly those closures to an
//! escalated tier (deeper inlining, relaxed growth budgets,
//! observed-binding specialization) beats running everything on the
//! baseline tier — *including* the time spent optimizing, because the
//! optimization cost is paid once per hot closure while the savings
//! accrue per call.
//!
//! Workload: `FUNCS` distinct cross-module closures; 5% of them (the
//! "hot set") receive 95% of `CALLS_PER_ROUND * ROUNDS` calls, the rest
//! share the remainder — the skew the ISSUE prescribes. The tiered run
//! interleaves a `tier::tick` between rounds, exactly like the server's
//! background thread interleaves ticks between requests.
//!
//! With `--check` the bench exits non-zero unless
//!  - tiered wall time beats the baseline-only run,
//!  - both runs produce bit-identical result streams,
//!  - every closure's lifetime call count, read from its code-table
//!    link, equals the calls the schedule made to it (promotion keeps
//!    the count), and
//!  - a deopt round-trip restores a promoted closure's pre-optimization
//!    PTML byte-identically from its provenance record.

use std::collections::BTreeMap;
use std::time::Instant;

use tml_bench::ms;
use tml_core::Oid;
use tml_lang::Session;
use tml_reflect::tier::{self, TierEngine, TierOptions, TIER_HOT};
use tml_store::{Object, SVal};
use tml_vm::RVal;

/// Total distinct workload closures; `HOT` of them (5%) take 95% of
/// the calls.
const FUNCS: usize = 40;
const HOT: usize = 2;
const ROUNDS: usize = 12;
const CALLS_PER_ROUND: usize = 2000;
/// Promotion threshold: above any cold closure's lifetime count, well
/// below a hot closure's first-round count.
const THRESHOLD: u64 = 200;

/// The workload module: every `f{k}` is the §4.1 `geom.abs` shape (two
/// cross-module accessor calls per operand — real inlining fodder) with
/// a distinct constant so the functions stay distinguishable.
fn workload_src() -> String {
    let mut src = String::from(
        "module complex export new, x, y\n\
         let new(a: Real, b: Real): Tuple = tuple(a, b)\n\
         let x(c: Tuple): Real = c.0\n\
         let y(c: Tuple): Real = c.1\n\
         end\n\
         module work export ",
    );
    src.push_str(
        &(0..FUNCS)
            .map(|k| format!("f{k}"))
            .collect::<Vec<_>>()
            .join(", "),
    );
    src.push('\n');
    for k in 0..FUNCS {
        src.push_str(&format!(
            "let f{k}(c: Tuple): Real =\n\
             \x20 real.sqrt(complex.x(c) * complex.x(c) + complex.y(c) * complex.y(c)) + {k}.0\n"
        ));
    }
    src.push_str("end");
    src
}

/// Deterministic call schedule: index into the function table per call.
/// 95% of draws land on the hot set, uniformly; the rest spread over the
/// cold set. Plain LCG — both runs replay the identical sequence.
fn schedule() -> Vec<usize> {
    let mut state = 0x2545_f491_4f6c_dd1du64;
    let mut lcg = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        state >> 33
    };
    (0..ROUNDS * CALLS_PER_ROUND)
        .map(|_| {
            let r = lcg();
            if r % 100 < 95 {
                (r / 100) as usize % HOT
            } else {
                HOT + (r / 100) as usize % (FUNCS - HOT)
            }
        })
        .collect()
}

fn fresh_session() -> Session {
    let mut s = Session::default_session().expect("session");
    s.load_str(&workload_src()).expect("workload loads");
    s
}

/// Run the full schedule, optionally ticking the tier engine between
/// rounds. Returns (wall seconds, result bit-stream, instructions).
fn run(s: &mut Session, engine: Option<&mut TierEngine>) -> (f64, Vec<u64>, u64) {
    let sched = schedule();
    let c = s
        .call("complex.new", vec![RVal::Real(3.0), RVal::Real(4.0)])
        .expect("operand")
        .result;
    let mut results = Vec::with_capacity(sched.len());
    let mut instrs = 0u64;
    let mut engine = engine;
    let t = Instant::now();
    for round in 0..ROUNDS {
        for &k in &sched[round * CALLS_PER_ROUND..(round + 1) * CALLS_PER_ROUND] {
            let out = s
                .call(&format!("work.f{k}"), vec![c.clone()])
                .expect("call");
            let RVal::Real(v) = out.result else {
                panic!("expected real result");
            };
            results.push(v.to_bits());
            instrs += out.stats.instrs;
        }
        if let Some(engine) = engine.as_deref_mut() {
            tier::tick(engine, s).expect("tick");
        }
    }
    (t.elapsed().as_secs_f64(), results, instrs)
}

fn closure_oid(s: &Session, name: &str) -> Oid {
    let SVal::Ref(oid) = *s.global(name).expect("global") else {
        panic!("expected closure global for {name}");
    };
    oid
}

fn ptml_of(s: &Session, oid: Oid) -> (Oid, Vec<u8>) {
    let Object::Closure(c) = s.store.get(oid).expect("closure") else {
        panic!("expected closure");
    };
    let p = c.ptml.expect("ptml attached");
    let Object::Ptml(b) = s.store.get(p).expect("ptml") else {
        panic!("expected ptml");
    };
    (p, b.clone())
}

fn main() {
    let check = std::env::args().any(|a| a == "--check");
    println!("E18 — tiered execution on a skewed workload\n");
    println!(
        "{FUNCS} closures, hot set {HOT} (5%) takes 95% of {} calls, \
         threshold {THRESHOLD}, tick per {CALLS_PER_ROUND}-call round\n",
        ROUNDS * CALLS_PER_ROUND
    );

    // Baseline: every call runs the as-compiled tier.
    let mut base_s = fresh_session();
    let (base_t, base_results, base_instrs) = run(&mut base_s, None);

    // Tiered: the engine samples and hot-swaps between rounds. The
    // optimization work is inside the timed region — the win must pay
    // for its own compilation.
    let mut tier_s = fresh_session();
    // Capture every pre-optimization PTML for the provenance check.
    let orig: BTreeMap<usize, (Oid, Vec<u8>)> = (0..FUNCS)
        .map(|k| {
            (
                k,
                ptml_of(&tier_s, closure_oid(&tier_s, &format!("work.f{k}"))),
            )
        })
        .collect();
    let mut engine = TierEngine::new(TierOptions {
        threshold: THRESHOLD,
        ..TierOptions::default()
    });
    let (tier_t, tier_results, tier_instrs) = run(&mut tier_s, Some(&mut engine));
    let totals = tier::totals(&tier_s.store);

    let hot_promoted = (0..HOT)
        .map(|k| closure_oid(&tier_s, &format!("work.f{k}")))
        .filter(|&oid| tier_s.store.attr(oid, "tier") == Some(i64::from(TIER_HOT)))
        .count();
    let cold_promoted = (HOT..FUNCS)
        .map(|k| closure_oid(&tier_s, &format!("work.f{k}")))
        .filter(|&oid| tier_s.store.attr(oid, "tier") == Some(i64::from(TIER_HOT)))
        .count();

    let mut scheduled = vec![0u64; FUNCS];
    for k in schedule() {
        scheduled[k] += 1;
    }
    let miscounted: Vec<usize> = (0..FUNCS)
        .filter(|&k| {
            let oid = closure_oid(&tier_s, &format!("work.f{k}"));
            tier_s.vm.code.link_calls(oid) != scheduled[k]
        })
        .collect();

    // Deopt round-trip: demote a promoted hot closure and require the
    // byte-identical pre-optimization PTML back.
    let f0 = closure_oid(&tier_s, "work.f0");
    let deopt_ok = if tier_s.store.attr(f0, "tier") == Some(i64::from(TIER_HOT)) {
        let d = tier::prepare_deopt(&mut tier_s, f0).expect("prepare deopt");
        tier::apply_deopt(&mut tier_s.store, &d).expect("apply deopt");
        let (restored_oid, restored_bytes) = ptml_of(&tier_s, f0);
        let (orig_oid, orig_bytes) = &orig[&0];
        restored_oid == *orig_oid && restored_bytes == *orig_bytes
    } else {
        false
    };

    let identical = base_results == tier_results;
    println!(
        "baseline (no tiering) : {:>10}  ({base_instrs} instrs)",
        ms(base_t)
    );
    println!(
        "tiered                : {:>10}  ({tier_instrs} instrs)",
        ms(tier_t)
    );
    println!(
        "speedup               : {:.2}x wall, {:.2}x instrs",
        base_t / tier_t,
        base_instrs as f64 / tier_instrs as f64
    );
    println!(
        "swaps {} / deopts {}; hot set promoted {hot_promoted}/{HOT}, \
         cold closures promoted {cold_promoted}/{}",
        totals.swaps,
        totals.deopts,
        FUNCS - HOT
    );
    println!(
        "results bit-identical : {identical} ({} calls)",
        base_results.len()
    );
    println!("deopt PTML roundtrip  : byte-identical = {deopt_ok}");
    println!("lifetime call counts  : miscounted closures {miscounted:?}");

    if check {
        let ok = identical
            && deopt_ok
            && miscounted.is_empty()
            && tier_t < base_t
            && hot_promoted == HOT
            && cold_promoted == 0
            && tier_instrs < base_instrs;
        if ok {
            println!("\ncheck passed: tiered beats baseline with identical results");
        } else {
            println!("\ncheck FAILED");
            std::process::exit(1);
        }
    }
}
