//! The paper's §6 evaluation harness: the Stanford suite at three
//! optimization levels (experiments E1 and E2) plus code-size accounting
//! (experiment E3).
//!
//! * **baseline** — library lowering (the Tycoon configuration: every
//!   operator is a dynamically bound library call), no optimization;
//! * **local** — the same, plus compile-time local optimization of each
//!   function in isolation (paper: "do not yield a significant speedup");
//! * **dynamic** — whole-world reflective optimization at runtime
//!   (paper: "more than doubles the execution speed").
//!
//! ```sh
//! cargo run --release --example stanford_suite [n-scale]
//! ```

use tycoon::lang::stanford::suite;
use tycoon::lang::types::LowerMode;
use tycoon::lang::{OptMode, Session, SessionConfig};
use tycoon::reflect::{optimize_all, ReflectOptions};
use tycoon::vm::RVal;

struct Row {
    baseline: u64,
    local: u64,
    dynamic: u64,
    checksum: i64,
}

fn run_mode(
    src: &str,
    entry: &str,
    n: i64,
    opt: OptMode,
    dynamic: bool,
) -> (i64, u64, usize, usize) {
    let mut s = Session::new(SessionConfig {
        lower: LowerMode::Library,
        opt,
        ..Default::default()
    })
    .expect("session");
    s.load_str(src).expect("program loads");
    if dynamic {
        optimize_all(&mut s, &ReflectOptions::default()).expect("dynamic optimization");
    }
    let out = s.call(entry, vec![RVal::Int(n)]).expect("program runs");
    let result = match out.result {
        RVal::Int(v) => v,
        other => panic!("non-integer checksum {other:?}"),
    };
    (result, out.stats.instrs, s.code_bytes(), s.ptml_bytes())
}

fn main() {
    let scale: i64 = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(0);

    println!("Stanford suite, abstract machine instructions per program");
    println!("(library lowering; smaller is better)\n");
    println!(
        "{:<8} {:>14} {:>14} {:>14} {:>9} {:>9}",
        "program", "baseline", "local-opt", "dynamic-opt", "local x", "dyn x"
    );

    let mut rows = Vec::new();
    for p in suite() {
        let n = p.test_n + scale;
        let (c0, base, _, _) = run_mode(p.src, p.entry, n, OptMode::None, false);
        let (c1, local, _, _) = run_mode(p.src, p.entry, n, OptMode::Local, false);
        let (c2, dynamic, _, _) = run_mode(p.src, p.entry, n, OptMode::None, true);
        assert_eq!(c0, c1, "{}: local optimization changed the result", p.name);
        assert_eq!(
            c0, c2,
            "{}: dynamic optimization changed the result",
            p.name
        );
        println!(
            "{:<8} {:>14} {:>14} {:>14} {:>8.2}x {:>8.2}x",
            p.name,
            base,
            local,
            dynamic,
            base as f64 / local as f64,
            base as f64 / dynamic as f64,
        );
        rows.push(Row {
            baseline: base,
            local,
            dynamic,
            checksum: c0,
        });
    }

    let geo = |f: fn(&Row) -> f64| -> f64 {
        (rows.iter().map(|r| f(r).ln()).sum::<f64>() / rows.len() as f64).exp()
    };
    let local_speedup = geo(|r| r.baseline as f64 / r.local as f64);
    let dynamic_speedup = geo(|r| r.baseline as f64 / r.dynamic as f64);
    println!(
        "\ngeometric-mean speedup: local {:.2}x (paper: 'no significant speedup'),",
        local_speedup
    );
    println!(
        "                        dynamic {:.2}x (paper: 'more than doubles the execution speed')",
        dynamic_speedup
    );

    // E3: persistent code size with and without PTML attachments, from
    // one session once every closure is linked.
    let (mut code, mut ptml) = (0usize, 0usize);
    for p in suite() {
        let mut s = Session::new(SessionConfig::default()).expect("session");
        s.load_str(p.src).expect("loads");
        s.link_all().expect("every closure links");
        code += s.code_bytes();
        ptml += s.ptml_bytes();
    }
    println!(
        "\npersistent code size across the suite: {} bytes without PTML, {} with \
         ({} bytes of PTML) — ratio {:.2}x (paper: 'the code size doubles', 1.2MB vs 600kB)",
        code,
        code + ptml,
        ptml,
        (code + ptml) as f64 / code as f64
    );

    let _ = rows.iter().map(|r| r.checksum).sum::<i64>();
}
