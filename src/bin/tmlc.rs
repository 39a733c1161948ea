//! `tmlc` — the Tycoon/TML command line.
//!
//! ```text
//! tmlc run <file.tl> --entry mod.fn [--arg N]... [options]   run a TL program
//! tmlc tml <file.tl> [--fn mod.fn] [options]                 print TML terms
//! tmlc code <file.tl> [options]                              disassemble bytecode
//! tmlc eval '<tml s-expression>'                             run a raw TML program
//! tmlc snapshot <file.tl> -o <image>                         persist a compiled image
//! tmlc info <image> [--json]                                 inspect a store image
//! tmlc profile <input> <mod.fn> [--arg N]... [--json]        run under the tracer
//! tmlc stats <input> [mod.fn] [--arg N]...                   latency percentiles per subsystem
//! tmlc explain <input> <mod.fn> [--json] [--verify]          optimizer provenance log
//! tmlc opt <input> [options]                                 whole-world optimization report
//! tmlc fsck <image> [--repair -o <out>]                      validate (and repair) an image
//! tmlc serve <image> [--addr host:port] [options]            multi-session transaction server
//! tmlc prims [--json]                                        list the primitive registry
//!
//! There is one image format: the paged durable image — a TYCAT2 catalog
//! at the image path, object records in `<image>.p<gen>`, and a
//! write-ahead log in `<image>.wal` — written by `snapshot`, by
//! `fsck --repair` and by `--durable` sessions. `profile`, `explain`,
//! `opt`, `stats` and `run` accept either a TL source file or an image
//! (recognised by content, opened through full recovery — catalog, page
//! file and write-ahead-log redo — with every PTML closure relinked). A
//! damaged primary catalog falls back to its `.bak`, then its `.tmp`.
//! `fsck` checks the catalog's magic/CRC and every page record, walks
//! every OID reference and decodes every closure's PTML, printing a JSON
//! report; with `--repair` it writes the recovered store to `-o` as a
//! fresh image.
//!
//! options:
//!   --mode library|direct     operator lowering (default library)
//!   --opt none|local          static optimization (default none)
//!   --dynamic                 whole-world reflective optimization before running
//!   --durable <path>          run/opt/profile/stats: back the session with the
//!                             write-ahead-logged paged store at <path> (created
//!                             on first use); every mutation is logged, and the
//!                             command ends with a commit + checkpoint
//!   --stats                   print machine counters
//!   --json                    emit the trace JSON schema instead of text
//!   --top N                   rows per profile table (default 10)
//!   --verify                  explain: replay the provenance log and compare PTML
//!   --repair                  fsck: write the recovered image to -o <out>
//!   --spans                   profile: print the recorded span tree
//!   --hist                    profile: print latency histograms (p50/p90/p99/max)
//!   --chrome <out.json>       profile/stats: write Chrome tracing JSON (chrome://tracing)
//!   --flame <out.folded>      profile/stats: write collapsed stacks (flamegraph.pl input)
//!   --runs N                  stats: entry-point invocations to sample (default 10)
//!   --addr host:port          serve: bind address (default 127.0.0.1:7170; :0 for ephemeral)
//!   --max-conns N             serve: refuse connections beyond N with a typed busy error
//!   --lock-ms N               serve: lock acquisition timeout in milliseconds
//!   --conn-timeout-ms N       serve: per-connection idle read timeout (default 30000)
//!   --tier-threshold N        serve: promote a closure to the hot tier after N calls
//!                             (default 1000)
//!   --tier-interval-ms N      serve: background re-optimizer sampling interval (default 25)
//!   --tier-off                serve: disable background tier re-optimization
//! ```

use std::process::ExitCode;
use tycoon::core::Registry;
use tycoon::lang::types::LowerMode;
use tycoon::lang::{OptMode, Session, SessionConfig};
use tycoon::reflect::{
    optimize_all, optimize_named, relink_image_code, session_from_access_with,
    session_from_store_with, ReflectOptions, TermBuilder,
};
use tycoon::store::ptml::{decode_abs, encode_abs};
use tycoon::store::{gc, paged, wal, DurableStore, Object, RecoverySource, SVal, StoreAccess};
use tycoon::trace;
use tycoon::trace::Event;
use tycoon::vm::RVal;

struct Options {
    mode: LowerMode,
    opt: OptMode,
    dynamic: bool,
    durable: Option<String>,
    stats: bool,
    json: bool,
    verify: bool,
    repair: bool,
    top: usize,
    spans: bool,
    hist: bool,
    chrome: Option<String>,
    flame: Option<String>,
    runs: u64,
    entry: Option<String>,
    args: Vec<i64>,
    output: Option<String>,
    target_fn: Option<String>,
    addr: Option<String>,
    max_conns: usize,
    lock_ms: Option<u64>,
    conn_timeout_ms: u64,
    tier_threshold: u64,
    tier_interval_ms: u64,
    tier_off: bool,
    positional: Vec<String>,
}

fn parse_args(mut args: std::env::Args) -> Result<(String, Options), String> {
    let _ = args.next(); // program name
    let command = args.next().ok_or("missing command")?;
    let mut o = Options {
        mode: LowerMode::Library,
        opt: OptMode::None,
        dynamic: false,
        durable: None,
        stats: false,
        json: false,
        verify: false,
        repair: false,
        top: 10,
        spans: false,
        hist: false,
        chrome: None,
        flame: None,
        runs: 10,
        entry: None,
        args: Vec::new(),
        output: None,
        target_fn: None,
        addr: None,
        max_conns: 64,
        lock_ms: None,
        conn_timeout_ms: 30_000,
        tier_threshold: 1000,
        tier_interval_ms: 25,
        tier_off: false,
        positional: Vec::new(),
    };
    let mut it = args;
    while let Some(a) = it.next() {
        match a.as_str() {
            "--mode" => {
                o.mode = match it.next().as_deref() {
                    Some("library") => LowerMode::Library,
                    Some("direct") => LowerMode::Direct,
                    other => return Err(format!("bad --mode {other:?}")),
                }
            }
            "--opt" => {
                o.opt = match it.next().as_deref() {
                    Some("none") => OptMode::None,
                    Some("local") => OptMode::Local,
                    other => return Err(format!("bad --opt {other:?}")),
                }
            }
            "--dynamic" => o.dynamic = true,
            "--durable" => o.durable = Some(it.next().ok_or("--durable needs a path")?),
            "--stats" => o.stats = true,
            "--spans" => o.spans = true,
            "--hist" => o.hist = true,
            "--chrome" => o.chrome = Some(it.next().ok_or("--chrome needs a path")?),
            "--flame" => o.flame = Some(it.next().ok_or("--flame needs a path")?),
            "--runs" => {
                let v = it.next().ok_or("--runs needs a value")?;
                o.runs = v.parse().map_err(|e| format!("bad --runs: {e}"))?;
            }
            "--json" => o.json = true,
            "--verify" => o.verify = true,
            "--repair" => o.repair = true,
            "--top" => {
                let v = it.next().ok_or("--top needs a value")?;
                o.top = v.parse().map_err(|e| format!("bad --top: {e}"))?;
            }
            "--entry" => o.entry = Some(it.next().ok_or("--entry needs a value")?),
            "--addr" => o.addr = Some(it.next().ok_or("--addr needs host:port")?),
            "--max-conns" => {
                let v = it.next().ok_or("--max-conns needs a value")?;
                o.max_conns = v.parse().map_err(|e| format!("bad --max-conns: {e}"))?;
            }
            "--lock-ms" => {
                let v = it.next().ok_or("--lock-ms needs a value")?;
                o.lock_ms = Some(v.parse().map_err(|e| format!("bad --lock-ms: {e}"))?);
            }
            "--conn-timeout-ms" => {
                let v = it.next().ok_or("--conn-timeout-ms needs a value")?;
                o.conn_timeout_ms = v
                    .parse()
                    .map_err(|e| format!("bad --conn-timeout-ms: {e}"))?;
            }
            "--tier-threshold" => {
                let v = it.next().ok_or("--tier-threshold needs a value")?;
                o.tier_threshold = v
                    .parse()
                    .map_err(|e| format!("bad --tier-threshold: {e}"))?;
            }
            "--tier-interval-ms" => {
                let v = it.next().ok_or("--tier-interval-ms needs a value")?;
                o.tier_interval_ms = v
                    .parse()
                    .map_err(|e| format!("bad --tier-interval-ms: {e}"))?;
            }
            "--tier-off" => o.tier_off = true,
            "--fn" => o.target_fn = Some(it.next().ok_or("--fn needs a value")?),
            "-o" | "--output" => o.output = Some(it.next().ok_or("-o needs a value")?),
            "--arg" => {
                let v = it.next().ok_or("--arg needs a value")?;
                o.args
                    .push(v.parse().map_err(|e| format!("bad --arg: {e}"))?);
            }
            other if other.starts_with("--") => return Err(format!("unknown option {other}")),
            other => o.positional.push(other.to_string()),
        }
    }
    Ok((command, o))
}

fn build_session(o: &Options, src: &str) -> Result<Session, String> {
    let mut s = Session::new(SessionConfig {
        lower: o.mode,
        opt: o.opt,
        ..Default::default()
    })
    .map_err(|e| e.to_string())?;
    s.load_str(src).map_err(|e| e.to_string())?;
    if o.dynamic {
        optimize_all(&mut s, &ReflectOptions::default()).map_err(|e| e.to_string())?;
    }
    Ok(s)
}

fn read_source(o: &Options) -> Result<String, String> {
    let path = o.positional.first().ok_or("missing input file")?;
    std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))
}

/// The full primitive world the `tmlc` driver operates in: the standard
/// set plus the query extension, built through the one shared
/// [`Registry`] path.
fn driver_registry() -> Registry {
    Registry::standard().with(tycoon::query::prims::register_prims)
}

/// Narrate what [`DurableStore::open`] had to do to reconstruct the store
/// (shared by `--durable` sessions and read-only loads of paged images).
fn report_open(path: &str, report: &tycoon::store::OpenReport) {
    if report.source != RecoverySource::Primary {
        eprintln!(
            "tmlc: {path}: image damaged, loaded from {}",
            report.source.name()
        );
    }
    if report.redo_records > 0 {
        eprintln!(
            "tmlc: {path}: replayed {} logged record(s) across {} commit(s)",
            report.redo_records, report.redo_commits
        );
    }
}

/// Build a runnable session around a recovered image: install the query
/// externs, recompile and relink every closure from its PTML, and run the
/// optional whole-world optimization pass.
fn image_session(o: &Options, path: &str, store: tycoon::store::Store) -> Result<Session, String> {
    let mut s = session_from_store_with(store, SessionConfig::default(), driver_registry());
    tycoon::query::exec::install_externs(&mut s.vm.externs);
    let relink = relink_image_code(&mut s).map_err(|e| e.to_string())?;
    if relink.skipped > 0 {
        eprintln!(
            "tmlc: {path}: {} closure(s) left degraded (unreadable PTML)",
            relink.skipped
        );
    }
    if o.dynamic {
        optimize_all(&mut s, &ReflectOptions::default()).map_err(|e| e.to_string())?;
    }
    Ok(s)
}

/// Load either a TL source file or a persisted store image into a
/// runnable session. Images carry no executable code (the persistent
/// representation of code is PTML), so every closure is recompiled and
/// relinked in place; the session is built over the driver registry so
/// decoding resolves the query primitives. Images are recognised by
/// content and opened through full recovery (catalog + write-ahead-log
/// redo), then dropped to a plain in-memory session for these read-only
/// commands — pass `--durable` to keep writing to them.
fn load_input(o: &Options) -> Result<Session, String> {
    let path = o.positional.first().ok_or("missing input file")?;
    if paged::is_catalog_file(path) {
        let (ds, report) =
            DurableStore::open(path, Default::default()).map_err(|e| format!("{path}: {e}"))?;
        report_open(path, &report);
        image_session(o, path, ds.into_store())
    } else {
        let src = read_source(o)?;
        build_session(o, &src)
    }
}

/// Open (or create) the write-ahead-logged paged store at `path` and build
/// a session over it: every mutation the command performs — module loads,
/// reflective optimization, VM allocation — goes through the store-access
/// seam and is redo-logged before it is applied. A positional `.tl` source
/// is loaded on top of whatever the image holds (modules the image already
/// carries are skipped); other positionals (the image path itself, entry
/// names) are left to the command.
fn durable_session(o: &Options, path: &str) -> Result<Session<DurableStore>, String> {
    let config = SessionConfig {
        lower: o.mode,
        opt: o.opt,
        ..Default::default()
    };
    let mut s = if std::path::Path::new(path).exists() {
        let (ds, report) =
            DurableStore::open(path, Default::default()).map_err(|e| format!("{path}: {e}"))?;
        report_open(path, &report);
        let mut s = session_from_access_with(ds, config, driver_registry());
        tycoon::query::exec::install_externs(&mut s.vm.externs);
        let relink = relink_image_code(&mut s).map_err(|e| e.to_string())?;
        if relink.skipped > 0 {
            eprintln!(
                "tmlc: {path}: {} closure(s) left degraded (unreadable PTML)",
                relink.skipped
            );
        }
        // An image whose creating command failed before its first commit
        // recovers as an empty store; give it the standard library like a
        // fresh one (logged through the seam, so it persists this time).
        if s.global("int.add").is_none() {
            s.load_str(tycoon::lang::stdlib::STDLIB_SRC)
                .map_err(|e| e.to_string())?;
        }
        s
    } else {
        let ds =
            DurableStore::create(path, Default::default()).map_err(|e| format!("{path}: {e}"))?;
        let mut s = Session::on_store(ds, config, driver_registry()).map_err(|e| e.to_string())?;
        tycoon::query::exec::install_externs(&mut s.vm.externs);
        s
    };
    if let Some(src_path) = o.positional.first().filter(|p| p.ends_with(".tl")) {
        let src = std::fs::read_to_string(src_path).map_err(|e| format!("{src_path}: {e}"))?;
        match s.load_str(&src) {
            Ok(()) => {}
            // Re-running a program against its own image: the modules are
            // already persistent, the relinked closures are current.
            Err(tycoon::lang::LangError::DuplicateModule(_)) => {}
            Err(e) => return Err(e.to_string()),
        }
    }
    if o.dynamic {
        optimize_all(&mut s, &ReflectOptions::default()).map_err(|e| e.to_string())?;
    }
    Ok(s)
}

/// The durable epilogue for every `--durable` command: make the session's
/// outstanding mutations a committed log prefix, then checkpoint the dirty
/// pages into the catalog.
fn seal_durable(s: &mut Session<DurableStore>) -> Result<(), String> {
    s.store.commit().map_err(|e| format!("commit: {e}"))?;
    s.store
        .checkpoint()
        .map_err(|e| format!("checkpoint: {e}"))?;
    Ok(())
}

fn guess_entry<S: StoreAccess>(s: &Session<S>, o: &Options) -> Result<String, String> {
    if let Some(e) = &o.entry {
        return Ok(e.clone());
    }
    // Default: the last loaded module's `main`.
    let last = s
        .modules
        .iter()
        .rev()
        .find(|m| s.global(&format!("{m}.main")).is_some())
        .ok_or("no entry point; pass --entry mod.fn")?;
    Ok(format!("{last}.main"))
}

/// `tmlc opt <input>`: run whole-world reflective optimization over a TL
/// source file or an image and report what it did.
fn cmd_opt(o: &Options) -> Result<(), String> {
    if let Some(path) = o.durable.clone() {
        let mut s = durable_session(o, &path)?;
        opt_report(&mut s)?;
        return seal_durable(&mut s);
    }
    let mut s = load_input(o)?;
    opt_report(&mut s)
}

fn opt_report<S: StoreAccess>(s: &mut Session<S>) -> Result<(), String> {
    let report = optimize_all(s, &ReflectOptions::default()).map_err(|e| e.to_string())?;
    println!(
        "optimized {} function(s): size {} -> {} nodes, {} call site(s) inlined, {} reduction(s)",
        report.functions, report.size_before, report.size_after, report.inlined, report.reductions
    );
    if report.skipped > 0 {
        println!(
            "skipped {} target(s) in degraded mode (see trace for details)",
            report.skipped
        );
    }
    Ok(())
}

fn cmd_run(o: &Options) -> Result<(), String> {
    if let Some(path) = o.durable.clone() {
        let mut s = durable_session(o, &path)?;
        run_entry(&mut s, o)?;
        return seal_durable(&mut s);
    }
    let mut s = load_input(o)?;
    run_entry(&mut s, o)
}

fn run_entry<S: StoreAccess>(s: &mut Session<S>, o: &Options) -> Result<(), String> {
    let entry = guess_entry(s, o)?;
    let args: Vec<RVal> = o.args.iter().map(|n| RVal::Int(*n)).collect();
    let out = s.call(&entry, args).map_err(|e| e.to_string())?;
    for line in &out.output {
        println!("{line}");
    }
    println!("{:?}", out.result);
    if o.stats {
        eprintln!(
            "instructions={} calls={} closures={} frames={} exceptions={}",
            out.stats.instrs,
            out.stats.calls,
            out.stats.closures,
            out.stats.frames,
            out.stats.exceptions
        );
    }
    Ok(())
}

fn cmd_tml(o: &Options) -> Result<(), String> {
    let src = read_source(o)?;
    let mut s = build_session(o, &src)?;
    let mut names: Vec<String> = match &o.target_fn {
        Some(f) => vec![f.clone()],
        None => {
            let mut v: Vec<String> = s
                .globals
                .keys()
                .filter(|n| n.contains('.') && !is_stdlib(n))
                .cloned()
                .collect();
            v.sort();
            v
        }
    };
    if names.is_empty() {
        names = s.globals.keys().cloned().collect();
        names.sort();
    }
    for name in names {
        let Some(SVal::Ref(oid)) = s.globals.get(&name).cloned() else {
            continue;
        };
        let abs = {
            let mut tb = TermBuilder::new(&mut s.ctx, &s.store);
            match tb.build(oid, 0) {
                Ok(a) => a,
                Err(e) => return Err(format!("{name}: {e}")),
            }
        };
        println!("; {name}");
        println!("{}\n", tycoon::core::pretty::print_abs(&s.ctx, &abs));
    }
    Ok(())
}

fn is_stdlib(name: &str) -> bool {
    ["int.", "real.", "array.", "char.", "io."]
        .iter()
        .any(|p| name.starts_with(p))
}

fn cmd_code(o: &Options) -> Result<(), String> {
    let src = read_source(o)?;
    let s = build_session(o, &src)?;
    print!("{}", tycoon::vm::disasm::table(&s.vm.code));
    Ok(())
}

fn cmd_eval(o: &Options) -> Result<(), String> {
    let text = o.positional.first().ok_or("missing TML expression")?;
    let mut ctx = tycoon::core::Ctx::new();
    let parsed = tycoon::core::parse::parse_app(&mut ctx, text).map_err(|e| e.to_string())?;
    let mut app = parsed.app;
    if o.opt == OptMode::Local {
        let (optimized, _) =
            tycoon::opt::optimize(&mut ctx, app, &tycoon::opt::OptOptions::default());
        app = optimized;
    }
    let mut vm = tycoon::vm::Vm::new();
    let block = vm.compile_program(&ctx, &app).map_err(|e| e.to_string())?;
    let mut store = tycoon::store::Store::new();
    let out = vm
        .run_program(&mut store, block, 1_000_000_000)
        .map_err(|e| e.to_string())?;
    for line in &out.output {
        println!("{line}");
    }
    println!("{:?}", out.result);
    if o.stats {
        eprintln!(
            "instructions={} calls={} closures={} frames={}",
            out.stats.instrs, out.stats.calls, out.stats.closures, out.stats.frames
        );
    }
    Ok(())
}

/// `tmlc snapshot <file.tl> -o <image>`: compile (and optionally
/// optimize) a program and write its store as a fresh paged image,
/// replacing any image at that path. The closing checkpoint leaves the
/// catalog's previous generation as its `.bak`, so one damaged catalog
/// byte is recoverable.
fn cmd_snapshot(o: &Options) -> Result<(), String> {
    let src = read_source(o)?;
    let mut s = build_session(o, &src)?;
    let path = o.output.clone().ok_or("missing -o <image>")?;
    let st = s.store.stats();
    write_image(std::mem::take(&mut s.store), &path).map_err(|e| format!("{path}: {e}"))?;
    println!(
        "wrote {path}: {} objects, {} bytes ({} bytes PTML, {} closures)",
        st.objects, st.bytes, st.ptml_bytes, st.closures
    );
    Ok(())
}

/// Write `store` as a fresh paged image at `path`, closed with a
/// checkpoint.
fn write_image(store: tycoon::store::Store, path: &str) -> std::io::Result<()> {
    DurableStore::from_store(store, path, Default::default())?.close()
}

/// Print every registry counter under the given prefixes (all when empty),
/// sorted by name — the single text reporting path shared by `info` and
/// `profile`.
fn print_counters(prefixes: &[&str]) {
    for (name, value) in trace::global().registry().snapshot() {
        if prefixes.is_empty() || prefixes.iter().any(|p| name.starts_with(p)) {
            println!("  {name:<36} {value}");
        }
    }
}

/// Top-`n` counters under a prefix, sorted by value descending; the prefix
/// is stripped from the returned names.
fn top_counters(prefix: &str, n: usize) -> Vec<(String, u64)> {
    let mut rows: Vec<(String, u64)> = trace::global()
        .registry()
        .snapshot_prefix(prefix)
        .into_iter()
        .map(|(name, v)| (name[prefix.len()..].to_string(), v))
        .collect();
    rows.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    rows.truncate(n);
    rows
}

fn cmd_info(o: &Options) -> Result<(), String> {
    let path = o.positional.first().ok_or("missing image file")?;
    let rec = trace::global();
    rec.clear();
    // Decode the catalog and rebuild the store from the page file,
    // without touching the write-ahead log (info is read-only; the log is
    // reported below from its own scan).
    let opened = paged::open_catalog(std::path::Path::new(path))
        .map_err(|e| format!("{path}: {e}"))?
        .ok_or_else(|| {
            format!("{path}: image unrecoverable (run `tmlc fsck {path}` for a report)")
        })?;
    if opened.source != RecoverySource::Primary {
        eprintln!(
            "tmlc: {path}: catalog damaged, loaded from {}",
            opened.source.name()
        );
    }
    let p = opened.heap.stats();
    let b = opened.heap.buffer_stats();
    rec.counter("store.page.gen").set(p.gen);
    rec.counter("store.page.pages").set(p.pages);
    rec.counter("store.page.records").set(p.dir_entries);
    rec.counter("store.page.chains").set(p.chains);
    rec.counter("store.page.live_bytes").set(p.live_bytes);
    rec.counter("store.page.dead_bytes").set(p.dead_bytes);
    rec.counter("store.buffer.resident").set(p.resident);
    rec.counter("store.buffer.hits").set(b.hits);
    rec.counter("store.buffer.misses").set(b.misses);
    rec.counter("store.buffer.evictions").set(b.evictions);
    rec.counter("store.buffer.writebacks").set(b.writebacks);
    let identity = opened.identity;
    let store = opened.store;
    // All reporting goes through the counter registry: footprint and cache
    // totals as gauges, object population per kind.
    store.publish_counters();
    for (_, obj) in store.iter() {
        rec.counter(&format!("store.kind.{}", obj.kind())).inc();
    }
    // Tier section: per-tier closure counts plus the persisted swap/deopt
    // totals (the `tier.stats` root survives checkpoints).
    tycoon::reflect::tier::publish_gauges(&store, None);
    // Log stats, when a write-ahead log sits next to the image. `stale`
    // means the log was written against a different base image and redo
    // would be skipped on open.
    let scan = wal::Wal::scan(wal::wal_path(path)).map_err(|e| format!("{path}.wal: {e}"))?;
    if scan.exists {
        let stale = scan.base != Some(identity);
        rec.counter("store.wal.log_bytes").add(scan.file_bytes);
        rec.counter("store.wal.log_records")
            .add(scan.records.len() as u64);
        rec.counter("store.wal.log_committed")
            .add(scan.committed as u64);
        rec.counter("store.wal.log_commits").add(scan.commits);
        rec.counter("store.wal.log_torn_tail")
            .add(u64::from(scan.torn_tail));
        rec.counter("store.wal.log_stale").add(u64::from(stale));
        // Transaction population of the log: forward ops vs compensation
        // records, terminal markers, and transactions still open at the
        // tail (losers a reopen will roll back).
        let mut ops = 0u64;
        let mut clrs = 0u64;
        let mut commits = 0u64;
        let mut aborts = 0u64;
        let mut open: std::collections::BTreeSet<u64> = Default::default();
        for (_, r) in &scan.records {
            match r {
                wal::WalRecord::TxnOp { txn, clr, .. } => {
                    if *clr {
                        clrs += 1;
                    } else {
                        ops += 1;
                    }
                    open.insert(*txn);
                }
                wal::WalRecord::TxnCommit { txn } => {
                    commits += 1;
                    open.remove(txn);
                }
                wal::WalRecord::TxnAbort { txn } => {
                    aborts += 1;
                    open.remove(txn);
                }
                _ => {}
            }
        }
        rec.counter("txn.log_ops").set(ops);
        rec.counter("txn.log_clrs").set(clrs);
        rec.counter("txn.log_commits").set(commits);
        rec.counter("txn.log_aborts").set(aborts);
        rec.counter("txn.log_open").set(open.len() as u64);
    }
    if o.json {
        println!("{}", rec.to_json());
        return Ok(());
    }
    println!("{path}:");
    println!("roots:");
    for (name, oid) in store.roots() {
        let kind = store.get(oid).map(|ob| ob.kind()).unwrap_or("dangling");
        println!("  {name:<20} {oid}  ({kind})");
    }
    println!("store:");
    print_counters(&["store.", "txn.", "reflect.tier."]);
    Ok(())
}

/// Write the recorded span tree to `--chrome` / `--flame` targets, if any
/// were requested. Shared by `profile` and `stats`.
fn write_exports(o: &Options) -> Result<(), String> {
    let rec = trace::global();
    if o.chrome.is_some() || o.flame.is_some() {
        let samples = rec.events();
        if let Some(path) = &o.chrome {
            std::fs::write(path, trace::export::chrome_json(&samples))
                .map_err(|e| format!("{path}: {e}"))?;
            eprintln!("tmlc: wrote Chrome trace to {path} (load in chrome://tracing)");
        }
        if let Some(path) = &o.flame {
            std::fs::write(path, trace::export::flame_folded(&samples))
                .map_err(|e| format!("{path}: {e}"))?;
            eprintln!("tmlc: wrote collapsed stacks to {path} (feed to flamegraph.pl)");
        }
    }
    Ok(())
}

/// Human scale for a nanosecond duration.
fn fmt_ns(ns: u64) -> String {
    if ns < 1_000 {
        format!("{ns}ns")
    } else if ns < 1_000_000 {
        format!("{:.1}us", ns as f64 / 1_000.0)
    } else if ns < 1_000_000_000 {
        format!("{:.2}ms", ns as f64 / 1_000_000.0)
    } else {
        format!("{:.2}s", ns as f64 / 1_000_000_000.0)
    }
}

/// Print the latency-histogram table (every histogram whose name starts
/// with one of `prefixes`; all when empty).
fn print_hist_table(prefixes: &[&str]) {
    let rows = trace::global().hist_snapshot();
    println!(
        "  {:<28} {:>8} {:>9} {:>9} {:>9} {:>9} {:>10}",
        "name", "count", "p50", "p90", "p99", "max", "total"
    );
    for (name, h) in rows {
        if !(prefixes.is_empty() || prefixes.iter().any(|p| name.starts_with(p))) {
            continue;
        }
        println!(
            "  {:<28} {:>8} {:>9} {:>9} {:>9} {:>9} {:>10}",
            name,
            h.count,
            fmt_ns(h.p50),
            fmt_ns(h.p90),
            fmt_ns(h.p99),
            fmt_ns(h.max),
            fmt_ns(h.sum)
        );
    }
}

/// Print the recorded spans as an indented tree (roots in start order).
/// Spans whose parents were lost to ring wraparound print as roots.
fn print_span_tree(samples: &[trace::Sample]) {
    struct Node {
        name: &'static str,
        parent: u64,
        thread: u64,
        start_ns: u64,
        dur_ns: u64,
    }
    let mut nodes: std::collections::BTreeMap<u64, Node> = Default::default();
    let mut kids: std::collections::BTreeMap<u64, Vec<u64>> = Default::default();
    for s in samples {
        if let Event::Span {
            name,
            id,
            parent,
            thread,
            start_ns,
            dur_ns,
        } = s.event
        {
            nodes.insert(
                id,
                Node {
                    name,
                    parent,
                    thread,
                    start_ns,
                    dur_ns,
                },
            );
        }
    }
    for (id, n) in &nodes {
        if nodes.contains_key(&n.parent) {
            kids.entry(n.parent).or_default().push(*id);
        }
    }
    let mut roots: Vec<u64> = nodes
        .iter()
        .filter(|(_, n)| !nodes.contains_key(&n.parent))
        .map(|(id, _)| *id)
        .collect();
    roots.sort_by_key(|id| (nodes[id].start_ns, *id));
    for c in kids.values_mut() {
        c.sort_by_key(|id| (nodes[id].start_ns, *id));
    }
    // Iterative DFS (children were pushed in start order, so pop reversed).
    let mut stack: Vec<(u64, usize)> = roots.into_iter().rev().map(|id| (id, 0)).collect();
    while let Some((id, depth)) = stack.pop() {
        let n = &nodes[&id];
        println!(
            "  {:indent$}{} {} [thread {}]",
            "",
            n.name,
            fmt_ns(n.dur_ns),
            n.thread,
            indent = depth * 2
        );
        if let Some(children) = kids.get(&id) {
            for &c in children.iter().rev() {
                stack.push((c, depth + 1));
            }
        }
    }
}

/// The measured body of `profile`: one entry-point call plus a counter
/// publish, over whichever store backend the command selected.
fn profile_call<S: StoreAccess>(
    s: &mut Session<S>,
    fname: &str,
    o: &Options,
) -> Result<tycoon::lang::session::CallResult, String> {
    let args: Vec<RVal> = o.args.iter().map(|n| RVal::Int(*n)).collect();
    let out = s.call(fname, args).map_err(|e| e.to_string())?;
    s.store.base().publish_counters();
    Ok(out)
}

fn cmd_profile(o: &Options) -> Result<(), String> {
    let fname = o
        .positional
        .get(1)
        .cloned()
        .or_else(|| o.entry.clone())
        .ok_or("missing function name: tmlc profile <input> <mod.fn>")?;
    let rec = trace::global();
    rec.clear();
    rec.set_capacity(1 << 16);
    rec.set_enabled(true);
    let out = if let Some(path) = o.durable.clone() {
        let mut s = durable_session(o, &path)?;
        let out = profile_call(&mut s, &fname, o)?;
        s.store.publish_page_counters();
        seal_durable(&mut s)?;
        out
    } else {
        let mut s = load_input(o)?;
        profile_call(&mut s, &fname, o)?
    };
    rec.set_enabled(false);
    write_exports(o)?;
    if o.json {
        println!("{}", rec.to_json());
        return Ok(());
    }
    println!("profile {fname} => {:?}", out.result);
    println!(
        "  instructions {}  calls {}  closures {}  wall {}us",
        rec.counter("vm.instrs").get(),
        rec.counter("vm.calls").get(),
        rec.counter("vm.closures").get(),
        rec.counter("vm.wall_micros").get(),
    );
    println!("opcodes (top {}):", o.top);
    for (name, n) in top_counters("vm.op.", o.top) {
        println!("  {name:<24} {n}");
    }
    let prims = top_counters("vm.prim.", o.top);
    if !prims.is_empty() {
        println!("primitives (top {}):", o.top);
        for (name, n) in prims {
            println!("  {name:<24} {n}");
        }
    }
    println!("hot closures (top {}):", o.top);
    for (name, n) in top_counters("vm.block.", o.top) {
        println!("  {name:<24} {n}");
    }
    println!("store:");
    print_counters(&["store.", "query.", "reflect."]);
    if o.hist {
        println!("latency histograms:");
        print_hist_table(&[]);
    }
    if o.spans {
        println!("spans:");
        print_span_tree(&rec.events());
    }
    Ok(())
}

/// `tmlc stats <input> [mod.fn] [--arg N] [--runs N]`: exercise every
/// instrumented subsystem — whole-world optimization (opt + reflect),
/// repeated entry-point runs (vm), and a WAL commit/checkpoint cycle on a
/// scratch durable store — then report the latency histograms as a
/// per-subsystem time-breakdown table with percentiles.
/// The measured body of `stats`: a cache-bypassing whole-world
/// optimization pass (opt + reflect) followed by repeated entry-point
/// calls (vm), over whichever store backend the command selected.
fn stats_exercise<S: StoreAccess>(
    s: &mut Session<S>,
    o: &Options,
) -> Result<(String, Option<RVal>), String> {
    let fname = match o.positional.get(1) {
        Some(f) => f.clone(),
        None => guess_entry(s, o)?,
    };
    let ropts = ReflectOptions {
        use_cache: false,
        ..Default::default()
    };
    optimize_all(s, &ropts).map_err(|e| e.to_string())?;
    let args: Vec<RVal> = o.args.iter().map(|n| RVal::Int(*n)).collect();
    let mut result = None;
    for _ in 0..o.runs.max(1) {
        let out = s.call(&fname, args.clone()).map_err(|e| e.to_string())?;
        result = Some(out.result);
    }
    Ok((fname, result))
}

fn cmd_stats(o: &Options) -> Result<(), String> {
    let rec = trace::global();
    rec.clear();
    rec.set_capacity(1 << 16);
    rec.set_enabled(true);
    let (fname, result) = if let Some(path) = o.durable.clone() {
        let mut s = durable_session(o, &path)?;
        let r = stats_exercise(&mut s, o)?;
        s.store.publish_page_counters();
        tycoon::reflect::tier::publish_gauges(&s.store, None);
        seal_durable(&mut s)?;
        r
    } else {
        let mut s = load_input(o)?;
        let r = stats_exercise(&mut s, o)?;
        tycoon::reflect::tier::publish_gauges(&s.store, None);
        r
    };
    // Store/WAL path: a commit + checkpoint cycle on a scratch store.
    let dir = std::env::temp_dir().join(format!("tmlc_stats_{}", std::process::id()));
    std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
    let image = dir.join("scratch.tys");
    let wal_err = |e: std::io::Error| format!("stats wal workload: {e}");
    {
        let mut ds =
            tycoon::store::DurableStore::create(&image, Default::default()).map_err(wal_err)?;
        for i in 0..16i64 {
            let oid = ds
                .alloc(Object::Tuple(vec![SVal::Int(i), SVal::Int(i * i)]))
                .map_err(wal_err)?;
            ds.set_root(&format!("stats.{i}"), oid).map_err(wal_err)?;
            ds.commit().map_err(wal_err)?;
        }
        ds.checkpoint().map_err(wal_err)?;
        // Transaction path on the same scratch store: a committed writer,
        // an aborted one, and a contended lock handoff, so the `txn.*`
        // counters, `lock.wait` histogram and lock-table gauges report
        // real numbers.
        let txn_err = |e: tycoon::store::StoreError| format!("stats txn workload: {e}");
        let mgr = tycoon::txn::TxnManager::new(Default::default());
        let target = ds
            .alloc(Object::Tuple(vec![SVal::Int(0)]))
            .map_err(wal_err)?;
        ds.commit().map_err(wal_err)?;
        let mut t1 = mgr.begin(&mut ds);
        {
            let locks = std::sync::Arc::clone(mgr.locks());
            let mut view = tycoon::txn::TxnView::new(&mut ds, &mut t1, &locks);
            view.set(target, Object::Tuple(vec![SVal::Int(1)]))
                .map_err(txn_err)?;
        }
        // A second thread waits for the same key while t1 holds it.
        let locks = std::sync::Arc::clone(mgr.locks());
        let key = tycoon::txn::oid_key(target);
        let waiter = std::thread::spawn(move || {
            locks.acquire_with_retry(u64::MAX, key, true, &Default::default())
        });
        std::thread::sleep(std::time::Duration::from_millis(2));
        mgr.commit(&mut ds, t1).map_err(txn_err)?;
        waiter
            .join()
            .expect("stats lock waiter")
            .map_err(|e| format!("stats lock workload: {e}"))?;
        mgr.locks().release_all(u64::MAX);
        let mut t2 = mgr.begin(&mut ds);
        {
            let locks = std::sync::Arc::clone(mgr.locks());
            let mut view = tycoon::txn::TxnView::new(&mut ds, &mut t2, &locks);
            view.set(target, Object::Tuple(vec![SVal::Int(2)]))
                .map_err(txn_err)?;
        }
        mgr.abort(&mut ds, t2).map_err(txn_err)?;
        let s = mgr.locks().stats();
        rec.counter("lock.table.keys").set(s.keys);
        rec.counter("lock.table.holders").set(s.holders);
        rec.counter("lock.table.waiters").set(s.waiters);
    }
    std::fs::remove_dir_all(&dir).ok();
    rec.set_enabled(false);
    write_exports(o)?;
    if o.json {
        println!("{}", rec.to_json());
        return Ok(());
    }
    if let Some(r) = result {
        println!("stats {fname} => {r:?} ({} run(s))", o.runs.max(1));
    }
    // Per-subsystem totals from the top-level name segment.
    let hists = rec.hist_snapshot();
    let mut by_subsystem: std::collections::BTreeMap<String, u64> = Default::default();
    for (name, h) in &hists {
        let subsystem = name.split('.').next().unwrap_or(name).to_string();
        *by_subsystem.entry(subsystem).or_insert(0) += h.sum;
    }
    let grand: u64 = by_subsystem.values().sum();
    println!("time by subsystem:");
    for (subsystem, ns) in &by_subsystem {
        println!(
            "  {:<12} {:>10}  {:>5.1}%",
            subsystem,
            fmt_ns(*ns),
            if grand == 0 {
                0.0
            } else {
                100.0 * *ns as f64 / grand as f64
            }
        );
    }
    println!("latency histograms:");
    print_hist_table(&[]);
    if o.spans {
        println!("spans:");
        print_span_tree(&rec.events());
    }
    Ok(())
}

/// Render one trace event as a provenance log line.
fn explain_line(e: &Event) -> String {
    match e {
        Event::RuleFired {
            rule,
            site,
            node,
            size_delta,
        } => format!("rule {rule:<12} @{site} (node {node}, size {size_delta:+})"),
        Event::ExpandDecision {
            site,
            cost,
            limit,
            taken,
            growth,
        } => {
            let verdict = if *taken { "inline" } else { "reject" };
            format!("expand {verdict:<6} {site} (cost {cost}, limit {limit}, growth {growth})")
        }
        Event::OptRound {
            round,
            reductions,
            inlined,
            penalty,
            size,
        } => format!(
            "round {round}: {reductions} reductions, {inlined} inlined, penalty {penalty}, size {size}"
        ),
        Event::OptStop {
            reason,
            rounds,
            penalty,
            penalty_limit,
        } => format!(
            "stop after {rounds} round(s): {reason} (penalty {penalty}/{penalty_limit})"
        ),
        Event::ReflectConsult {
            function,
            oid,
            outcome,
        } => format!("reflect {function} (oid {oid}): cache {outcome}"),
        Event::QueryRewrite {
            rule,
            relation,
            index,
        } => match (relation, index) {
            (Some(r), Some(ix)) => format!("query rewrite {rule} (relation {r}, index {ix})"),
            _ => format!("query rewrite {rule}"),
        },
        Event::DegradedSkip {
            function,
            oid,
            reason,
            detail,
        } => format!("degraded skip {function} (oid {oid}): {reason}: {detail}"),
        Event::Wal {
            op,
            lsn,
            bytes,
            records,
            micros,
        } => format!("wal {op} (lsn {lsn}, {records} record(s), {bytes} byte(s), {micros}us)"),
        Event::DurabilityRisk { site, detail } => {
            format!("durability risk at {site}: {detail}")
        }
        Event::Recovery { source, micros } => format!("recovery from {source} in {micros}us"),
        Event::Span {
            name,
            id,
            parent,
            thread,
            dur_ns,
            ..
        } => format!("span {name} ({}) [id {id}, parent {parent}, thread {thread}]", fmt_ns(*dur_ns)),
        other => format!("{} event", other.kind()),
    }
}

fn cmd_explain(o: &Options) -> Result<(), String> {
    let fname = o
        .positional
        .get(1)
        .cloned()
        .or_else(|| o.entry.clone())
        .ok_or("missing function name: tmlc explain <input> <mod.fn>")?;
    let rec = trace::global();
    rec.clear();
    rec.set_capacity(1 << 16);
    rec.set_enabled(true);
    let mut s = load_input(o)?;
    // Bypass the memo cache so the full derivation is re-run and logged.
    let opts = ReflectOptions {
        use_cache: false,
        ..Default::default()
    };
    optimize_named(&mut s, &fname, &opts).map_err(|e| e.to_string())?;
    rec.set_enabled(false);
    if o.json {
        println!("{}", rec.to_json());
    } else {
        let samples = rec.events();
        println!("explain {fname}: {} events", samples.len());
        if rec.dropped() > 0 {
            println!("  (ring overflow: {} events dropped)", rec.dropped());
        }
        for sample in &samples {
            println!("  {}", explain_line(&sample.event));
        }
    }
    if o.verify {
        verify_replay(&mut s, &fname, &opts)?;
    }
    Ok(())
}

/// Replay soundness check: re-derive the optimized term by recording a
/// provenance log and replaying it, then compare the two products'
/// persistent encodings byte for byte.
fn verify_replay(s: &mut Session, fname: &str, opts: &ReflectOptions) -> Result<(), String> {
    let Some(SVal::Ref(oid)) = s.globals.get(fname).cloned() else {
        return Err(format!("verify: {fname} is not a closure-valued global"));
    };
    let abs = {
        let mut tb = TermBuilder::new(&mut s.ctx, &s.store);
        tb.build(oid, opts.inline_depth)
            .map_err(|e| format!("verify: {e}"))?
    };
    // Same index facts as the reflective optimization: the store's.
    let facts = Some(&s.store as &dyn tycoon::core::prim::IndexFacts);
    let (recorded, _, log) = tycoon::opt::record_abs(&mut s.ctx, abs.clone(), &opts.opt, facts);
    let (replayed, _) = tycoon::opt::replay_abs(&mut s.ctx, abs, &opts.opt, facts, &log)
        .map_err(|e| format!("verify: replay diverged: {e}"))?;
    let a = encode_abs(&s.ctx, &recorded);
    let b = encode_abs(&s.ctx, &replayed);
    if a == b {
        println!(
            "verify: replay of {} logged rules reproduces the optimized term ({} bytes PTML)",
            log.len(),
            a.len()
        );
        Ok(())
    } else {
        Err(format!(
            "verify: replayed PTML differs ({} vs {} bytes)",
            a.len(),
            b.len()
        ))
    }
}

/// Minimal JSON string escaping for the fsck report (quotes, backslashes
/// and control characters; everything else passes through as UTF-8).
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// `tmlc fsck <image> [--repair -o <out>]`: offline integrity check of
/// an image. Decodes the catalog (magic, CRC-32 trailer) and every page
/// record it addresses, then walks every OID edge looking for dangling
/// references and dangling roots, and decodes every closure's PTML
/// attachment. When a write-ahead log sits next to the image it is walked
/// too: record/commit counts, torn tails and stale (wrong-base) logs are
/// reported. Prints a JSON report; exits nonzero when any problem is
/// found — including a primary catalog that only loads through its
/// `.bak`/`.tmp` sibling. With `--repair`, full durable recovery (catalog
/// chain + committed log prefix) runs and the result is written to `-o`
/// as a fresh image.
fn cmd_fsck(o: &Options) -> Result<(), String> {
    let path = o.positional.first().ok_or("missing image file")?;
    let bytes = std::fs::read(path).map_err(|e| format!("{path}: {e}"))?;
    // Formats 4 and 5 are the paged TYCAT1 and TYCAT2 catalogs; anything
    // else is not an image (0), though a good sibling may still recover it.
    let format = paged::catalog_version(&bytes).map_or(0, |v| 3 + v);
    let mut pages: Option<String> = None;
    let mut catalog_identity: Option<tycoon::store::ImageIdentity> = None;
    let mut degraded = false;
    let decoded: Result<tycoon::store::Store, String> =
        match paged::open_catalog(std::path::Path::new(path)) {
            Ok(Some(opened)) => {
                let p = opened.heap.stats();
                pages = Some(format!(
                    "{{\"generation\": {}, \"pages\": {}, \"records\": {}, \"chains\": {}, \
                     \"live_bytes\": {}, \"dead_bytes\": {}, \"source\": {}}}",
                    p.gen,
                    p.pages,
                    p.dir_entries,
                    p.chains,
                    p.live_bytes,
                    p.dead_bytes,
                    json_str(opened.source.name())
                ));
                catalog_identity = Some(opened.identity);
                degraded = opened.source != RecoverySource::Primary;
                Ok(opened.store)
            }
            Ok(None) => Err("unreadable catalog (no decodable sibling)".to_string()),
            Err(e) => Err(e.to_string()),
        };
    let mut dangling_refs: Vec<(u64, u64)> = Vec::new();
    let mut dangling_roots: Vec<String> = Vec::new();
    let mut corrupt_ptml: Vec<(u64, String)> = Vec::new();
    let (objects, roots) = match &decoded {
        Ok(store) => {
            for (oid, obj) in store.iter() {
                for r in gc::object_refs(obj) {
                    if store.get(r).is_err() {
                        dangling_refs.push((oid.0, r.0));
                    }
                }
            }
            for (name, oid) in store.roots() {
                if store.get(oid).is_err() {
                    dangling_roots.push(name.to_string());
                }
            }
            // PTML well-formedness, closure by closure. Decoding needs the
            // full primitive vocabulary, including the query extension.
            let mut ctx = tycoon::core::Ctx::new();
            let mut vm = tycoon::vm::Vm::new();
            tycoon::query::install(&mut ctx, &mut vm);
            for (oid, obj) in store.iter() {
                let Object::Closure(c) = obj else { continue };
                let Some(ptml_oid) = c.ptml else { continue };
                match store.get(ptml_oid) {
                    Ok(Object::Ptml(b)) => {
                        if let Err(e) = decode_abs(&mut ctx, b) {
                            corrupt_ptml.push((oid.0, e.to_string()));
                        }
                    }
                    Ok(other) => {
                        corrupt_ptml.push((oid.0, format!("ptml slot holds a {}", other.kind())))
                    }
                    Err(e) => corrupt_ptml.push((oid.0, e.to_string())),
                }
            }
            (store.iter().count(), store.roots().count())
        }
        Err(_) => (0, 0),
    };
    // Walk the write-ahead log sitting next to the image, if any. A torn
    // tail or uncommitted suffix is a normal crash artifact (recovery
    // truncates it), so it is reported but does not fail the check; a log
    // whose header no longer matches the image is stale and would be
    // discarded on open.
    let log = wal::Wal::scan(wal::wal_path(path)).map_err(|e| format!("{path}.wal: {e}"))?;
    let image_identity = catalog_identity.unwrap_or_else(|| paged::identity_of(&bytes));
    let log_stale = log.exists && log.base != Some(image_identity);

    // A catalog that only decoded via its backup/tmp sibling is damaged
    // even though it loaded: the primary needs repair.
    let ok = decoded.is_ok()
        && !degraded
        && dangling_refs.is_empty()
        && dangling_roots.is_empty()
        && corrupt_ptml.is_empty();

    let mut repaired: Option<(RecoverySource, String)> = None;
    if o.repair && !ok {
        let out = o.output.clone().ok_or("fsck --repair needs -o <out>")?;
        let (ds, report) = DurableStore::open(path, Default::default())
            .map_err(|e| format!("repair failed: {e}"))?;
        write_image(ds.into_store(), &out).map_err(|e| format!("repair: {out}: {e}"))?;
        repaired = Some((report.source, out));
    }

    let mut j = String::new();
    j.push_str("{\n");
    j.push_str(&format!("  \"path\": {},\n", json_str(path)));
    j.push_str(&format!("  \"bytes\": {},\n", bytes.len()));
    j.push_str(&format!("  \"format\": {format},\n"));
    match &decoded {
        Ok(_) => j.push_str("  \"decode\": \"ok\",\n"),
        Err(e) => j.push_str(&format!("  \"decode\": {},\n", json_str(&e.to_string()))),
    }
    j.push_str(&format!("  \"objects\": {objects},\n"));
    j.push_str(&format!("  \"roots\": {roots},\n"));
    j.push_str("  \"dangling_refs\": [");
    for (i, (from, to)) in dangling_refs.iter().enumerate() {
        if i > 0 {
            j.push_str(", ");
        }
        j.push_str(&format!("{{\"from\": {from}, \"to\": {to}}}"));
    }
    j.push_str("],\n");
    j.push_str("  \"dangling_roots\": [");
    for (i, name) in dangling_roots.iter().enumerate() {
        if i > 0 {
            j.push_str(", ");
        }
        j.push_str(&json_str(name));
    }
    j.push_str("],\n");
    j.push_str("  \"corrupt_ptml\": [");
    for (i, (oid, err)) in corrupt_ptml.iter().enumerate() {
        if i > 0 {
            j.push_str(", ");
        }
        j.push_str(&format!("{{\"oid\": {oid}, \"error\": {}}}", json_str(err)));
    }
    j.push_str("],\n");
    match &pages {
        Some(p) => j.push_str(&format!("  \"pages\": {p},\n")),
        None => j.push_str("  \"pages\": null,\n"),
    }
    if log.exists {
        j.push_str(&format!(
            "  \"wal\": {{\"bytes\": {}, \"records\": {}, \"committed\": {}, \"commits\": {}, \"uncommitted\": {}, \"torn_tail\": {}, \"stale\": {}}},\n",
            log.file_bytes,
            log.records.len(),
            log.committed,
            log.commits,
            log.records.len() - log.committed,
            log.torn_tail,
            log_stale
        ));
    } else {
        j.push_str("  \"wal\": null,\n");
    }
    match &repaired {
        Some((source, out)) => {
            j.push_str(&format!(
                "  \"repair\": {{\"source\": {}, \"output\": {}}},\n",
                json_str(source.name()),
                json_str(out)
            ));
        }
        None => j.push_str("  \"repair\": null,\n"),
    }
    j.push_str(&format!("  \"ok\": {ok}\n"));
    j.push('}');
    println!("{j}");
    if ok || repaired.is_some() {
        Ok(())
    } else {
        Err(format!("{path}: image has integrity problems"))
    }
}

/// `tmlc prims [--json]`: list every primitive in the driver registry —
/// name, value/continuation arity, effect class, cost and which hooks
/// (inline codegen, constant fold) the definition provides. Primitives
/// without a codegen hook compile to the generic `call-prim` dispatch.
fn cmd_prims(o: &Options) -> Result<(), String> {
    use tycoon::core::prim::{Arity, EffectClass, PrimCost};
    let arity = |a: Arity| match a {
        Arity::Exact(n) => format!("{n}"),
        Arity::AtLeast(n) => format!("{n}+"),
    };
    let effects = |e: EffectClass| match e {
        EffectClass::Pure => "pure",
        EffectClass::Reads => "reads",
        EffectClass::Writes => "writes",
    };
    let registry = driver_registry();
    let mut defs: Vec<_> = registry.table().iter().map(|(_, d)| d).collect();
    defs.sort_by(|a, b| a.name.cmp(&b.name));
    if o.json {
        let mut j = String::from("[\n");
        for (i, d) in defs.iter().enumerate() {
            if i > 0 {
                j.push_str(",\n");
            }
            let cost = match d.cost {
                PrimCost::Const(c) => format!("{c}"),
                PrimCost::Fn(_) => "\"dynamic\"".to_string(),
            };
            j.push_str(&format!(
                "  {{\"name\": {}, \"vals\": {}, \"conts\": {}, \"effects\": {}, \
                 \"commutative\": {}, \"cost\": {}, \"codegen\": {}, \"fold\": {}, \
                 \"rewrite\": {}}}",
                json_str(&d.name),
                json_str(&arity(d.signature.vals)),
                json_str(&arity(d.signature.conts)),
                json_str(effects(d.attrs.effects)),
                d.attrs.commutative,
                cost,
                d.codegen.is_some(),
                d.fold.is_some(),
                d.rewrite.is_some(),
            ));
        }
        j.push_str("\n]");
        println!("{j}");
        return Ok(());
    }
    println!(
        "{:<10} {:>4} {:>5}  {:<6} {:>5}  hooks",
        "name", "vals", "conts", "effect", "cost"
    );
    for d in defs {
        let cost = match d.cost {
            PrimCost::Const(c) => format!("{c}"),
            PrimCost::Fn(_) => "dyn".to_string(),
        };
        let mut hooks = Vec::new();
        if d.codegen.is_some() {
            hooks.push("codegen");
        }
        if d.fold.is_some() {
            hooks.push("fold");
        }
        if hooks.is_empty() {
            hooks.push("call-prim");
        }
        if d.rewrite.is_some() {
            hooks.push("rewrite");
        }
        println!(
            "{:<10} {:>4} {:>5}  {:<6} {:>5}  {}",
            d.name,
            arity(d.signature.vals),
            arity(d.signature.conts),
            effects(d.attrs.effects),
            cost,
            hooks.join("+")
        );
    }
    Ok(())
}

/// `tmlc serve <image> [--addr host:port]`: run the multi-session
/// transaction server over a durable image. The image is created on
/// first use; a positional `.tl` source (with the image behind
/// `--durable`) seeds it with modules before the socket opens. Blocks
/// until a client sends `Shutdown`; the drain aborts open transactions,
/// commits and checkpoints, then a final counter report is printed.
fn cmd_serve(o: &Options) -> Result<(), String> {
    let path = match &o.durable {
        Some(p) => p.clone(),
        None => o
            .positional
            .iter()
            .find(|p| !p.ends_with(".tl"))
            .cloned()
            .ok_or("serve needs an image path (positional or --durable <path>)")?,
    };
    let rec = trace::global();
    rec.clear();
    rec.set_capacity(1 << 16);
    rec.set_enabled(true);
    let sess = durable_session(o, &path)?;
    let mut lock = tycoon::txn::LockOptions::default();
    if let Some(ms) = o.lock_ms {
        lock.timeout = std::time::Duration::from_millis(ms);
    }
    // Tiered execution is on by default for served sessions; `--tier-off`
    // pins every closure to the baseline tier.
    let tier = (!o.tier_off).then_some(tycoon::txn::TierSettings {
        threshold: o.tier_threshold,
        interval: std::time::Duration::from_millis(o.tier_interval_ms),
    });
    let server = tycoon::txn::Server::bind(tycoon::txn::ServerOptions {
        addr: o.addr.clone().unwrap_or_else(|| "127.0.0.1:7170".into()),
        max_conns: o.max_conns,
        conn_timeout: std::time::Duration::from_millis(o.conn_timeout_ms),
        lock,
        tier,
    })
    .map_err(|e| format!("bind: {e}"))?;
    // The soak harness (and shell scripts) parse this line for the port.
    println!("tmlc: serving {path} on {}", server.local_addr());
    use std::io::Write as _;
    std::io::stdout().flush().ok();
    server.run(sess).map_err(|e| format!("serve: {e}"))?;
    rec.set_enabled(false);
    if o.json {
        println!("{}", rec.to_json());
    } else {
        println!("tmlc: server stopped");
        print_counters(&["txn.", "lock.", "store.", "reflect.tier."]);
        if o.hist {
            print_hist_table(&["lock.", "serve.", "store."]);
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    let (command, options) = match parse_args(std::env::args()) {
        Ok(x) => x,
        Err(e) => {
            eprintln!(
                "tmlc: {e}\n\nusage: tmlc run|tml|code|eval|snapshot|info|profile|stats|explain|opt|fsck|serve|prims ..."
            );
            return ExitCode::FAILURE;
        }
    };
    let result = match command.as_str() {
        "run" => cmd_run(&options),
        "tml" => cmd_tml(&options),
        "code" => cmd_code(&options),
        "eval" => cmd_eval(&options),
        "snapshot" => cmd_snapshot(&options),
        "info" => cmd_info(&options),
        "profile" => cmd_profile(&options),
        "stats" => cmd_stats(&options),
        "explain" => cmd_explain(&options),
        "opt" => cmd_opt(&options),
        "fsck" => cmd_fsck(&options),
        "serve" => cmd_serve(&options),
        "prims" => cmd_prims(&options),
        other => Err(format!("unknown command {other}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("tmlc: {e}");
            ExitCode::FAILURE
        }
    }
}
