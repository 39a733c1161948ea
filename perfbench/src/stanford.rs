//! `stanford_run`: execution only. The ten Stanford programs run at their
//! benchmark size in two sessions built at set-up: one whole-world
//! optimized (`optimize_all`, loop-heavy after inlining) and one
//! library-lowered and unoptimized (call-heavy; the code cold closures
//! run under tiering). A round calls every program once in each session,
//! in a seeded order, then collects both sessions' garbage.

use crate::common::{median, ms, Latencies, Metrics, Rng, Tally};
use crate::layers::SpanTotals;
use crate::{reference, Workload};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};
use tml_lang::stanford::{suite, StanfordProgram};
use tml_lang::{Session, SessionConfig};
use tml_reflect::{optimize_all, OptimizeAllReport, ReflectOptions};
use tml_trace::span;
use tml_vm::RVal;

const MODES: [&str; 2] = ["dyn", "base"];

/// Figures from traced rounds.
#[derive(Default)]
struct Totals {
    rounds: u64,
    instrs: [u64; 2],
    calls: [u64; 2],
    run_ms: f64,
    gc_passes: u64,
    gc_ms: f64,
    gc_freed: u64,
    /// Traced call times by `<mode>.<program>`.
    call_ms: BTreeMap<String, Vec<f64>>,
}

pub struct StanfordRun {
    /// The programs in this seed's call order, with their reference
    /// results at `bench_n`.
    programs: Vec<(StanfordProgram, i64)>,
    sessions: [Session; 2],
    report: OptimizeAllReport,
    totals: Totals,
}

fn load_suite(programs: &[(StanfordProgram, i64)]) -> Result<Session, String> {
    let mut s = Session::new(SessionConfig::default()).map_err(|e| e.to_string())?;
    for (p, _) in programs {
        let _s = span!("bench.lang.load");
        s.load_str(p.src).map_err(|e| format!("{}: {e}", p.name))?;
    }
    Ok(s)
}

impl Workload for StanfordRun {
    fn setup(seed: u64) -> Result<Self, String> {
        let mut programs: Vec<(StanfordProgram, i64)> = suite()
            .into_iter()
            .map(|p| {
                let want = reference::stanford(p.name, p.bench_n).ok_or("no reference")?;
                Ok((p, want))
            })
            .collect::<Result<_, String>>()?;
        Rng::new(seed).shuffle(&mut programs);
        let mut dynamic = load_suite(&programs)?;
        let report = {
            let _s = span!("bench.reflect.optimize_all");
            optimize_all(&mut dynamic, &ReflectOptions::default()).map_err(|e| e.to_string())?
        };
        if report.skipped > 0 {
            return Err(format!("optimize_all skipped {} targets", report.skipped));
        }
        let baseline = load_suite(&programs)?;
        let mut w = StanfordRun {
            programs,
            sessions: [dynamic, baseline],
            report,
            totals: Totals::default(),
        };
        // One round at set-up: checks both sessions and warms the allocator.
        let mut tally = Tally::default();
        w.round(&mut Latencies::default(), &mut tally, false);
        match tally.first_error {
            Some(e) => Err(e),
            None => Ok(w),
        }
    }

    fn measure(
        &mut self,
        window: Duration,
        lat: &mut Latencies,
        tally: &mut Tally,
        mut spans: Option<&mut SpanTotals>,
    ) {
        let start = Instant::now();
        while start.elapsed() < window {
            self.round(lat, tally, spans.is_some());
            if let Some(s) = spans.as_deref_mut() {
                s.absorb();
            }
        }
    }

    fn layer_metrics(&self, setup: &SpanTotals, _window: &SpanTotals, out: &mut Metrics) {
        let t = &self.totals;
        let r = &self.report;
        let per_round = |v: u64| v as f64 / t.rounds.max(1) as f64;
        let mut set = |name: &str, v: f64| out.get_mut(name).expect("declared metric").0 = v;
        // Set-up optimization of the dynamic session: the code quality the
        // `dyn` rows run.
        set("opt.reduce_ms", setup.self_ms("opt.reduce_pass"));
        set("opt.expand_ms", setup.self_ms("opt.expand_pass"));
        set("opt.rule_firings", r.reductions as f64);
        set("opt.inlined", r.inlined as f64);
        set(
            "opt.nodes_out_per_in",
            r.size_after as f64 / r.size_before.max(1) as f64,
        );
        set(
            "reflect.optimize_all_ms",
            setup.incl_ms("bench.reflect.optimize_all"),
        );
        for (kind, v) in &t.call_ms {
            set(&format!("vm.run_ms.{kind}"), median(v));
        }
        set("vm.instrs.dyn", per_round(t.instrs[0]));
        set("vm.instrs.base", per_round(t.instrs[1]));
        set("vm.calls.dyn", per_round(t.calls[0]));
        set("vm.calls.base", per_round(t.calls[1]));
        let instrs = (t.instrs[0] + t.instrs[1]).max(1) as f64;
        set("vm.ns_per_instr", t.run_ms * 1e6 / instrs);
        set("store.gc_ms", t.gc_ms / t.gc_passes.max(1) as f64);
        set(
            "store.gc.freed_per_pass",
            t.gc_freed as f64 / t.gc_passes.max(1) as f64,
        );
    }
}

impl StanfordRun {
    /// Call every program once per session, then collect garbage.
    fn round(&mut self, lat: &mut Latencies, tally: &mut Tally, traced: bool) {
        for (p, want) in &self.programs {
            for (m, mode) in MODES.iter().enumerate() {
                let t = Instant::now();
                let out = {
                    let _s = span!("bench.vm.call");
                    self.sessions[m].call(p.entry, vec![RVal::Int(p.bench_n)])
                };
                let took = ms(t.elapsed());
                let kind = format!("{mode}.{}", p.name);
                lat.record(&kind, took);
                tally.note(match out {
                    Ok(r) if r.result == RVal::Int(*want) => {
                        if traced {
                            let t = &mut self.totals;
                            t.instrs[m] += r.stats.instrs;
                            t.calls[m] += r.stats.calls;
                            t.run_ms += took;
                            t.call_ms.entry(kind).or_default().push(took);
                        }
                        Ok(())
                    }
                    Ok(r) => Err(format!("{kind}: {:?}, reference {want}", r.result)),
                    Err(e) => Err(format!("{kind}: {e}")),
                });
            }
        }
        for s in &mut self.sessions {
            let t = Instant::now();
            let gc = {
                let _s = span!("bench.store.gc");
                s.collect_garbage()
            };
            match gc {
                Ok(g) if traced => {
                    self.totals.gc_passes += 1;
                    self.totals.gc_ms += ms(t.elapsed());
                    self.totals.gc_freed += g.freed as u64;
                }
                Ok(_) => {}
                Err(e) => tally.fail(format!("collect_garbage: {e}")),
            }
        }
        if traced {
            self.totals.rounds += 1;
        }
    }
}
