//! Experiment E13: compile-time primitive dispatch cost.
//!
//! The compiler lowers every primitive application through its
//! registered [`tml_core::PrimDef`] codegen hook (with a generic
//! `call-prim` fallback) instead of a hardcoded name match. This bench
//! verifies the table-driven dispatch is within noise of the old
//! string-match compile by measuring:
//!
//!   1. end-to-end module load (parse → CPS → optimize → compile) of the
//!      Stanford suite, and
//!   2. raw `compile_proc` throughput over generated prim-heavy CPS
//!      terms, which isolates `compile_prim` dispatch.

use std::time::Instant;
use tml_core::gen::{gen_program, GenConfig};
use tml_core::term::Abs;
use tml_lang::stanford::suite;
use tml_lang::{Session, SessionConfig};
use tml_vm::instr::CodeTable;
use tml_vm::Compiler;

fn bench_session_load(iters: usize) -> f64 {
    // Warm-up.
    let mut s = Session::new(SessionConfig::default()).expect("session");
    for p in suite() {
        s.load_str(p.src).expect("loads");
    }
    let t0 = Instant::now();
    for _ in 0..iters {
        let mut s = Session::new(SessionConfig::default()).expect("session");
        for p in suite() {
            s.load_str(p.src).expect("loads");
        }
    }
    t0.elapsed().as_secs_f64() / iters as f64
}

fn bench_compile_proc(steps: usize, iters: usize) -> (usize, f64) {
    let (ctx, app) = gen_program(
        7,
        GenConfig {
            steps,
            ..Default::default()
        },
    );
    let size = app.size();
    let abs = Abs::new(Vec::new(), app);
    // Warm-up + sanity.
    let code = CodeTable::new();
    Compiler::new(&ctx, &code)
        .compile_proc(&abs)
        .expect("generated term compiles");
    let t0 = Instant::now();
    for _ in 0..iters {
        let code = CodeTable::new();
        Compiler::new(&ctx, &code)
            .compile_proc(&abs)
            .expect("generated term compiles");
    }
    (size, t0.elapsed().as_secs_f64() / iters as f64)
}

fn main() {
    println!("E13 — primitive dispatch cost in the compiler\n");

    let per_load = bench_session_load(20);
    println!(
        "session load (stdlib + stanford suite): {:>6.2} ms/iter",
        per_load * 1e3
    );

    println!("\ncompile_proc over generated prim-heavy terms:");
    println!(
        "{:<12} {:>10} {:>14} {:>14}",
        "steps", "nodes", "µs/term", "nodes/ms"
    );
    for steps in [10usize, 40, 160, 640] {
        let (size, per) = bench_compile_proc(steps, 200);
        println!(
            "{:<12} {:>10} {:>14.1} {:>14.0}",
            steps,
            size,
            per * 1e6,
            size as f64 / (per * 1e3)
        );
    }
}
