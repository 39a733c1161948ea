//! Experiments E1 and E2 (paper §6): the Stanford suite under
//!
//! * baseline — library lowering, no optimization;
//! * local-opt — plus compile-time local optimization (E1: the paper
//!   reports *no significant speedup*);
//! * dynamic-opt — plus whole-world reflective runtime optimization (E2:
//!   the paper reports *more than doubles the execution speed*).
//!
//! Reported per program: instruction counts (deterministic) and wall time
//! (best of 5), plus geometric means across the suite. Also reported, and
//! checked: the heap closures and control-stack frames one call of every
//! program makes, per session.

use tml_bench::{geomean, measure, ms, Config};
use tml_lang::stanford::suite;

/// Heap closures one call of every program made, per session, while
/// return continuations were heap closures (before the control stack).
/// A session may now make at most a tenth of that.
const HEAP_CLOSURES_BEFORE: [(&str, u64); 2] = [("base", 490_285), ("dyn", 25_364)];

fn main() {
    println!("E1/E2 — Stanford suite under the three §6 configurations\n");
    println!(
        "{:<8} | {:>12} {:>12} {:>12} | {:>9} {:>9} | {:>9} {:>9} {:>9}",
        "program",
        "base instr",
        "local instr",
        "dyn instr",
        "E1 x",
        "E2 x",
        "base ms",
        "local ms",
        "dyn ms"
    );
    println!("{}", "-".repeat(110));

    let mut e1_instr = Vec::new();
    let mut e2_instr = Vec::new();
    let mut e1_time = Vec::new();
    let mut e2_time = Vec::new();
    // (heap closures, frames) per session: base, dyn.
    let mut work = [(0, 0); 2];

    for p in suite() {
        let n = p.bench_n;
        let base = measure(Config::Baseline, p.src, p.entry, n, 5);
        let local = measure(Config::Local, p.src, p.entry, n, 5);
        let dynamic = measure(Config::Dynamic, p.src, p.entry, n, 5);
        assert_eq!(base.checksum, local.checksum, "{}", p.name);
        assert_eq!(base.checksum, dynamic.checksum, "{}", p.name);

        let e1x = base.instrs as f64 / local.instrs as f64;
        let e2x = base.instrs as f64 / dynamic.instrs as f64;
        println!(
            "{:<8} | {:>12} {:>12} {:>12} | {:>8.2}x {:>8.2}x | {:>9} {:>9} {:>9}",
            p.name,
            base.instrs,
            local.instrs,
            dynamic.instrs,
            e1x,
            e2x,
            ms(base.seconds),
            ms(local.seconds),
            ms(dynamic.seconds)
        );
        e1_instr.push(e1x);
        e2_instr.push(e2x);
        e1_time.push(base.seconds / local.seconds);
        e2_time.push(base.seconds / dynamic.seconds);
        for (w, m) in work.iter_mut().zip([base, dynamic]) {
            w.0 += m.closures;
            w.1 += m.frames;
        }
    }

    println!("{}", "-".repeat(110));
    println!(
        "geomean speedup (instructions): local {:.2}x   dynamic {:.2}x",
        geomean(&e1_instr),
        geomean(&e2_instr)
    );
    println!(
        "geomean speedup (wall clock)  : local {:.2}x   dynamic {:.2}x",
        geomean(&e1_time),
        geomean(&e2_time)
    );
    for ((session, before), (closures, frames)) in HEAP_CLOSURES_BEFORE.into_iter().zip(work) {
        println!(
            "{session:<4} one call of each program: {closures} heap closures \
             ({before} before the control stack), {frames} frames"
        );
        assert!(
            closures * 10 <= before,
            "{session}: {closures} heap closures per suite call, more than a tenth of {before}"
        );
    }
    println!(
        "\npaper §6: local optimization — \"no significant speedup\"; dynamic optimization —\n\
         \"more than doubles the execution speed of the standard benchmarks\"."
    );
}
