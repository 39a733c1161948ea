//! `world_build`: the cold compile path, TL source to a reopened,
//! relinked durable image.
//!
//! Every operation builds a fresh image: the standard library, the ten
//! Stanford programs and `PAIRS` seeded module pairs in the §4.1
//! `geom.abs` shape (a record module with a constructor and accessors, and
//! a user module calling them across the module barrier). That is about
//! 1,400 closures and 80 pages, more than the 64-entry optimization cache
//! and the 64-frame buffer pool hold. The image is then whole-world optimized,
//! committed, checkpointed, reopened and relinked, and every program is
//! run at its test size against `reference`.

use crate::common::{ms, Latencies, Metrics, Rng, Tally, WorkDir};
use crate::layers::SpanTotals;
use crate::{reference, Workload};
use std::path::Path;
use std::time::{Duration, Instant};
use tml_core::{Ctx, Registry};
use tml_lang::stanford::{suite, StanfordProgram};
use tml_lang::types::{check_module, TypeEnv};
use tml_lang::{Session, SessionConfig};
use tml_reflect::{optimize_all, relink_image_code, session_from_access_with, ReflectOptions};
use tml_store::{BufferStats, CacheStats, DurableOptions, DurableStore};
use tml_trace::span;
use tml_vm::RVal;

/// Module pairs per world (five closures each).
const PAIRS: usize = 240;

/// One seeded record/user module pair: `use{g}.h(n) = n * c2 + n + n + c1`.
struct Pair {
    c1: i64,
    c2: i64,
    c3: i64,
    /// The argument `h` is checked at.
    arg: i64,
}

impl Pair {
    fn source(&self, g: usize) -> String {
        let Pair { c1, c2, c3, .. } = self;
        format!(
            "module rec{g} export mk, fa, fb\n\
             let mk(a: Int, b: Int): Tuple = tuple(a, b)\n\
             let fa(r: Tuple): Int = r.0\n\
             let fb(r: Tuple): Int = r.1\n\
             end\n\
             module use{g} export f, h\n\
             let f(n: Int): Int = rec{g}.fa(rec{g}.mk(n, {c1})) * {c2} + rec{g}.fb(rec{g}.mk({c3}, n))\n\
             let h(n: Int): Int = f(n) + rec{g}.fb(rec{g}.mk(n, n + {c1}))\n\
             end\n"
        )
    }

    fn expected(&self) -> i64 {
        let n = self.arg;
        n * self.c2 + n + n + self.c1
    }
}

/// Per-world figures the traced run turns into layer metrics.
#[derive(Default)]
struct Totals {
    worlds: u64,
    reductions: u64,
    inlined: u64,
    size_before: u64,
    size_after: u64,
    cache: CacheStats,
    buffer: BufferStats,
    ptml_bytes: u64,
    code_bytes: u64,
}

pub struct WorldBuild {
    programs: Vec<StanfordProgram>,
    pairs: Vec<Pair>,
    /// The user source loaded into every world, after the standard library.
    source: String,
    work: WorkDir,
    totals: Totals,
}

impl Workload for WorldBuild {
    fn setup(seed: u64) -> Result<Self, String> {
        let mut rng = Rng::new(seed);
        let programs = suite();
        let pairs: Vec<Pair> = (0..PAIRS)
            .map(|_| Pair {
                c1: 1 + rng.below(1000) as i64,
                c2: 1 + rng.below(100) as i64,
                c3: rng.below(1000) as i64,
                arg: rng.below(10_000) as i64,
            })
            .collect();
        let mut source: String = programs.iter().map(|p| format!("{}\n", p.src)).collect();
        for (g, p) in pairs.iter().enumerate() {
            source.push_str(&p.source(g));
        }
        let mut w = WorldBuild {
            programs,
            pairs,
            source,
            work: WorkDir::new("world_build")?,
            totals: Totals::default(),
        };
        // One world at set-up warms the page cache, the allocator and lazy
        // statics, and checks the inputs before anything is timed.
        w.world(&mut Latencies::default(), false)?;
        Ok(w)
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
            tally.note(self.world(lat, spans.is_some()));
            if let Some(s) = spans.as_deref_mut() {
                tally.note(self.lang_phases());
                s.absorb();
            }
        }
    }

    fn layer_metrics(&self, _setup: &SpanTotals, spans: &SpanTotals, out: &mut Metrics) {
        let t = &self.totals;
        let per = |v: f64| v / t.worlds.max(1) as f64;
        let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
        let mut set = |name: &str, v: f64| out.get_mut(name).expect("declared metric").0 = v;
        set("lang.load_ms", per(spans.self_ms("bench.lang.load")));
        set("lang.parse_ms", per(spans.self_ms("bench.lang.parse")));
        set("lang.check_ms", per(spans.self_ms("bench.lang.check")));
        set("lang.cps_ms", per(spans.self_ms("bench.lang.cps")));
        set("opt.reduce_ms", per(spans.self_ms("opt.reduce_pass")));
        set("opt.expand_ms", per(spans.self_ms("opt.expand_pass")));
        set("opt.rule_firings", per(t.reductions as f64));
        set("opt.inlined", per(t.inlined as f64));
        set("opt.nodes_out_per_in", ratio(t.size_after, t.size_before));
        set(
            "reflect.optimize_all_ms",
            per(spans.incl_ms("bench.reflect.optimize_all")),
        );
        set(
            "reflect.cache.hit_ratio",
            ratio(t.cache.hits, t.cache.hits + t.cache.misses),
        );
        set("reflect.cache.evictions", per(t.cache.evictions as f64));
        set(
            "reflect.relink_ms",
            per(spans.incl_ms("bench.reflect.relink")),
        );
        set("store.open_ms", per(spans.incl_ms("bench.store.open")));
        set(
            "store.buffer.hit_ratio",
            ratio(t.buffer.hits, t.buffer.hits + t.buffer.misses),
        );
        set("vm.compile_ms", per(spans.self_ms("vm.compile")));
        set("store.commit_ms", per(spans.incl_ms("bench.store.commit")));
        set(
            "store.checkpoint_ms",
            per(spans.incl_ms("bench.store.checkpoint")),
        );
        set(
            "store.ptml_per_code_bytes",
            ratio(t.ptml_bytes, t.code_bytes),
        );
    }
}

impl WorldBuild {
    /// Build, reopen and check one world in a fresh directory.
    fn world(&mut self, lat: &mut Latencies, traced: bool) -> Result<(), String> {
        let dir = self.work.path().join("world");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
        let image = dir.join("world.img");
        let result = self.build_and_check(&image, lat, traced);
        let _ = std::fs::remove_dir_all(&dir);
        result
    }

    fn build_and_check(
        &mut self,
        image: &Path,
        lat: &mut Latencies,
        traced: bool,
    ) -> Result<(), String> {
        let config = SessionConfig::default();
        let t = Instant::now();
        let store = {
            let _s = span!("bench.store.create");
            DurableStore::create(image, DurableOptions::default())
                .map_err(|e| format!("create: {e}"))?
        };
        let mut sess = {
            let _s = span!("bench.lang.load");
            Session::on_store(store, config, Registry::standard())
                .map_err(|e| format!("stdlib: {e}"))?
        };
        {
            let _s = span!("bench.lang.load");
            sess.load_str(&self.source)
                .map_err(|e| format!("load: {e}"))?;
        }
        let report = {
            let _s = span!("bench.reflect.optimize_all");
            optimize_all(&mut sess, &ReflectOptions::default())
                .map_err(|e| format!("optimize_all: {e}"))?
        };
        {
            let _s = span!("bench.store.commit");
            sess.store.commit().map_err(|e| format!("commit: {e}"))?;
        }
        {
            let _s = span!("bench.store.checkpoint");
            sess.store
                .checkpoint()
                .map_err(|e| format!("checkpoint: {e}"))?;
        }
        lat.record("build", ms(t.elapsed()));

        let cache = sess.store.store().cache_stats();
        let (ptml_bytes, code_bytes) = (sess.ptml_bytes(), sess.code_bytes());
        drop(sess);

        let t = Instant::now();
        let (store, _) = {
            let _s = span!("bench.store.open");
            DurableStore::open(image, DurableOptions::default())
                .map_err(|e| format!("open: {e}"))?
        };
        let mut sess = session_from_access_with(store, config, Registry::standard());
        let relink = {
            let _s = span!("bench.reflect.relink");
            relink_image_code(&mut sess).map_err(|e| format!("relink: {e}"))?
        };
        lat.record("reopen", ms(t.elapsed()));

        if report.skipped > 0 || relink.skipped > 0 {
            return Err(format!(
                "{} targets skipped by optimize_all, {} by relink",
                report.skipped, relink.skipped
            ));
        }
        if traced {
            let t = &mut self.totals;
            t.worlds += 1;
            t.reductions += report.reductions;
            t.inlined += report.inlined;
            t.size_before += report.size_before as u64;
            t.size_after += report.size_after as u64;
            t.cache.hits += cache.hits;
            t.cache.misses += cache.misses;
            t.cache.evictions += cache.evictions;
            let b = sess.store.buffer_stats();
            t.buffer.hits += b.hits;
            t.buffer.misses += b.misses;
            t.ptml_bytes += ptml_bytes as u64;
            t.code_bytes += code_bytes as u64;
        }

        let mut check = |entry: &str, arg: i64, want: i64| -> Result<(), String> {
            match sess.call(entry, vec![RVal::Int(arg)]) {
                Ok(r) if r.result == RVal::Int(want) => Ok(()),
                Ok(r) => Err(format!("{entry}({arg}) = {:?}, reference {want}", r.result)),
                Err(e) => Err(format!("{entry}({arg}): {e}")),
            }
        };
        for p in &self.programs {
            let want = reference::stanford(p.name, p.test_n).ok_or("no reference")?;
            check(p.entry, p.test_n, want)?;
        }
        for (g, p) in self.pairs.iter().enumerate() {
            check(&format!("use{g}.h"), p.arg, p.expected())?;
        }
        Ok(())
    }

    /// The front end's public phases on the same modules `load_str`
    /// compiles, timed beside the build: parse, check/lower, CPS.
    fn lang_phases(&self) -> Result<(), String> {
        let mut env = TypeEnv::new();
        let mut ctx = Ctx::from_registry(Registry::standard());
        for src in [tml_lang::stdlib::STDLIB_SRC, self.source.as_str()] {
            let modules = {
                let _s = span!("bench.lang.parse");
                tml_lang::parser::parse_program(src).map_err(|e| format!("parse: {e}"))?
            };
            for module in &modules {
                let (lowered, exports) = {
                    let _s = span!("bench.lang.check");
                    check_module(&env, module, SessionConfig::default().lower)
                        .map_err(|e| format!("check {}: {e}", module.name))?
                };
                {
                    let _s = span!("bench.lang.cps");
                    for fun in &lowered.funs {
                        tml_lang::cps::convert_fun(&mut ctx, fun)
                            .map_err(|e| format!("cps {}.{}: {e}", module.name, fun.name))?;
                    }
                }
                env.insert(module.name.clone(), tml_lang::ast::Type::Dyn);
                for (name, ty) in exports {
                    env.insert(name, ty);
                }
            }
        }
        Ok(())
    }
}
