//! Shared measurement utilities for the experiment benches.
//!
//! Every experiment harness reports two metrics per configuration:
//! deterministic abstract-machine instruction counts (low variance, the
//! metric of choice per the perf-book's advice on wall-time noise) and
//! best-of-N wall-clock time.

use std::time::Instant;
use tml_lang::types::LowerMode;
use tml_lang::{OptMode, Session, SessionConfig};
use tml_reflect::{optimize_all, ReflectOptions};
use tml_vm::RVal;

/// One measured configuration.
#[derive(Debug, Clone, Copy)]
pub struct Measurement {
    /// Checksum returned by the program (for cross-mode assertions).
    pub checksum: i64,
    /// Abstract machine instructions executed.
    pub instrs: u64,
    /// Closure transfers.
    pub calls: u64,
    /// Heap closures allocated.
    pub closures: u64,
    /// Return frames pushed on the machine's control stack.
    pub frames: u64,
    /// Best-of-N wall-clock seconds.
    pub seconds: f64,
}

/// The three §6 configurations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Config {
    /// Library lowering, no optimization.
    Baseline,
    /// Library lowering + local compile-time optimization (E1).
    Local,
    /// Library lowering + whole-world dynamic optimization (E2).
    Dynamic,
}

/// Build a session for a configuration and load `src`.
pub fn session_for(config: Config, src: &str) -> Session {
    let opt = match config {
        Config::Local => OptMode::Local,
        _ => OptMode::None,
    };
    let mut s = Session::new(SessionConfig {
        lower: LowerMode::Library,
        opt,
        ..Default::default()
    })
    .expect("session");
    s.load_str(src).expect("program loads");
    if config == Config::Dynamic {
        optimize_all(&mut s, &ReflectOptions::default()).expect("dynamic optimization");
    }
    s
}

/// Run `entry(n)` under `config`, returning the measurement (best of
/// `reps` wall-clock runs; counters from the last run).
pub fn measure(config: Config, src: &str, entry: &str, n: i64, reps: u32) -> Measurement {
    let mut s = session_for(config, src);
    let mut best = f64::MAX;
    let mut last = None;
    for _ in 0..reps.max(1) {
        let t = Instant::now();
        let out = s.call(entry, vec![RVal::Int(n)]).expect("program runs");
        let dt = t.elapsed().as_secs_f64();
        if dt < best {
            best = dt;
        }
        last = Some(out);
    }
    let out = last.expect("at least one rep");
    let checksum = match out.result {
        RVal::Int(v) => v,
        other => panic!("non-integer checksum {other:?}"),
    };
    Measurement {
        checksum,
        instrs: out.stats.instrs,
        calls: out.stats.calls,
        closures: out.stats.closures,
        frames: out.stats.frames,
        seconds: best,
    }
}

/// Geometric mean of ratios (1.0 for an empty slice).
pub fn geomean(ratios: &[f64]) -> f64 {
    (ratios.iter().map(|r| r.ln()).sum::<f64>() / ratios.len().max(1) as f64).exp()
}

/// Pretty milliseconds.
pub fn ms(s: f64) -> String {
    format!("{:.2}ms", s * 1e3)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tml_lang::stanford::FIB;

    #[test]
    fn measure_is_consistent_across_configs() {
        let a = measure(Config::Baseline, FIB, "fib.main", 10, 1);
        let b = measure(Config::Local, FIB, "fib.main", 10, 1);
        let c = measure(Config::Dynamic, FIB, "fib.main", 10, 1);
        assert_eq!(a.checksum, b.checksum);
        assert_eq!(a.checksum, c.checksum);
        assert!(c.instrs < a.instrs);
    }

    #[test]
    fn geomean_basics() {
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-9);
        assert_eq!(geomean(&[]), 1.0);
    }
}
