//! One benchmark for the compile path and the request path.
//!
//! ```sh
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload world_build --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Each workload drives the repository's crates in-process through their
//! public functions, checks every output against an independent
//! reference, and prints one JSON result as the last line of standard
//! output. `--trace 0` reports the end-to-end metrics; `--trace 1`
//! alternates untraced and traced slices of the window and reports the
//! per-layer metrics (see `README.md`).

mod common;
mod layers;
mod query;
mod reference;
mod serve;
mod stanford;
mod world;

use common::{peak_rss_mb, print_result, repeat_setup, Args, Latencies, Metrics, Tally};
use layers::SpanTotals;
use std::time::Duration;

/// One workload: a set-up, a measured window, and what it contributes to
/// the per-layer report.
pub trait Workload: Sized {
    /// Build the workload's state from its seed.
    fn setup(seed: u64) -> Result<Self, String>;

    /// Run operations for `window`, recording each operation's latency by
    /// kind and counting attempts and failures. With `spans` the window is
    /// traced: the ring is drained into it after every operation and the
    /// workload accumulates its layer figures. May be called repeatedly.
    fn measure(
        &mut self,
        window: Duration,
        lat: &mut Latencies,
        tally: &mut Tally,
        spans: Option<&mut SpanTotals>,
    );

    /// End-of-run checks that need the whole run (for example the final
    /// account balances). Stops every thread the workload started.
    fn finish(&mut self, _tally: &mut Tally) -> Result<(), String> {
        Ok(())
    }

    /// Fill in this workload's per-layer metrics from the spans of the
    /// traced set-up and of the traced slices of the window.
    fn layer_metrics(&self, setup: &SpanTotals, window: &SpanTotals, out: &mut Metrics);
}

fn end_to_end<W: Workload>(args: &Args) -> Result<(Tally, Metrics), String> {
    layers::reset(false);
    let (mut w, setup_s) = repeat_setup(|| W::setup(args.seed))?;
    let mut lat = Latencies::default();
    let mut tally = Tally::default();
    w.measure(
        Duration::from_secs_f64(args.seconds),
        &mut lat,
        &mut tally,
        None,
    );
    w.finish(&mut tally)?;
    let mut m = Metrics::new();
    m.insert("setup_s".into(), (setup_s, "s"));
    m.insert("peak_rss_mb".into(), (peak_rss_mb(), "MB"));
    m.insert(
        "latency_p75_ms".into(),
        (lat.geomean_percentile(0.75), "ms"),
    );
    m.insert("latency_p90_ms".into(), (lat.geomean_percentile(0.9), "ms"));
    Ok((tally, m))
}

/// Untraced/traced slice pairs in a traced run.
const SLICES: u32 = 4;

fn per_layer<W: Workload>(args: &Args) -> Result<(Tally, Metrics), String> {
    let slice = Duration::from_secs_f64(args.seconds / f64::from(2 * SLICES));
    let mut tally = Tally::default();
    // Set-up is traced too, so layer work done there (whole-world
    // optimization, query rewrites) is seen.
    layers::reset(true);
    let mut setup = SpanTotals::default();
    let mut w = W::setup(args.seed)?;
    setup.absorb();
    let mut spans = SpanTotals::default();
    // Untraced and traced slices alternate on the same state, so drift
    // over the run (a growing store, a warming cache) affects both alike.
    let (mut untraced, mut traced) = (Latencies::default(), Latencies::default());
    for _ in 0..SLICES {
        layers::recorder().set_enabled(false);
        w.measure(slice, &mut untraced, &mut tally, None);
        layers::recorder().set_enabled(true);
        w.measure(slice, &mut traced, &mut tally, Some(&mut spans));
    }
    w.finish(&mut tally)?;
    spans.absorb();
    layers::recorder().set_enabled(false);
    let mut m: Metrics = layers::PER_LAYER
        .iter()
        .map(|&(name, unit)| (name.to_string(), (0.0, unit)))
        .collect();
    w.layer_metrics(&setup, &spans, &mut m);
    drop(w);

    let overhead =
        (traced.geomean_percentile(0.75) / untraced.geomean_percentile(0.75) - 1.0) * 100.0;
    m.insert("trace.overhead_pct".into(), (overhead, "%"));
    let dropped = layers::dropped();
    m.insert("trace.ring.dropped".into(), (dropped as f64, "count"));
    if dropped > 0 {
        tally.fail(format!("trace ring dropped {dropped} events"));
    }
    Ok((tally, m))
}

fn run<W: Workload>(args: &Args) -> Result<(Tally, Metrics), String> {
    if args.trace {
        per_layer::<W>(args)
    } else {
        end_to_end::<W>(args)
    }
}

fn main() {
    let args = match Args::parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let result = match args.workload.as_str() {
        "world_build" => run::<world::WorldBuild>(&args),
        "stanford_run" => run::<stanford::StanfordRun>(&args),
        "query_scan" => run::<query::QueryScan>(&args),
        "serve_mix" => run::<serve::ServeMix>(&args),
        other => Err(format!("unknown workload {other}")),
    };
    match result {
        Ok((tally, metrics)) => print_result(&tally, &metrics),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}
