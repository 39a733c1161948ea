//! Shared plumbing: arguments, the seeded generator, sample statistics,
//! the result line and the scratch directory.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Command-line arguments: `--workload <name> --seed <n> --seconds <s> --trace <0|1>`.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl Args {
    pub fn parse() -> Result<Args, String> {
        let mut workload = None;
        let mut seed = None;
        let mut seconds = None;
        let mut trace = None;
        let mut it = std::env::args().skip(1);
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
            match flag.as_str() {
                "--workload" => workload = Some(value),
                "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
                "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad(&"expected 0 or 1")),
                    })
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        let seconds = seconds.unwrap_or(10.0);
        if !(seconds > 0.0 && seconds <= 600.0) {
            return Err(format!("--seconds {seconds} out of range"));
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.unwrap_or(1),
            seconds,
            trace: trace.unwrap_or(false),
        })
    }
}

/// SplitMix64: small, seedable, and identical on every platform.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5EED_BE4C_0DE5_F00D)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// A seeded Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            v.swap(i, j);
        }
    }
}

/// Nearest-rank percentile of an ascending slice (`p` in `[0, 1]`).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// Latency samples (milliseconds) grouped by operation kind.
#[derive(Default)]
pub struct Latencies {
    by_kind: BTreeMap<String, Vec<f64>>,
}

impl Latencies {
    pub fn record(&mut self, kind: &str, ms: f64) {
        self.by_kind.entry(kind.to_string()).or_default().push(ms);
    }

    pub fn count(&self) -> usize {
        self.by_kind.values().map(Vec::len).sum()
    }

    pub fn kind(&self, kind: &str) -> &[f64] {
        self.by_kind.get(kind).map_or(&[], Vec::as_slice)
    }

    /// Geometric mean over kinds of each kind's `p`-th percentile.
    pub fn geomean_percentile(&self, p: f64) -> f64 {
        let per_kind: Vec<f64> = self
            .by_kind
            .values()
            .map(|v| {
                let mut v = v.clone();
                v.sort_by(f64::total_cmp);
                percentile(&v, p)
            })
            .collect();
        geomean(&per_kind)
    }
}

/// Operations attempted and failed, plus the reason for the first failure.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub first_error: Option<String>,
}

impl Tally {
    /// Count one operation; `Err` (an exception, an error response or a
    /// reference mismatch) counts as failed.
    pub fn note(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = outcome {
            self.fail(e);
        }
    }

    pub fn fail(&mut self, e: String) {
        self.failed += 1;
        if self.first_error.is_none() {
            eprintln!("perfbench: operation failed: {e}");
            self.first_error = Some(e);
        }
    }

    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        if self.first_error.is_none() {
            self.first_error = other.first_error;
        }
    }
}

/// Metric name → (value, unit), in insertion order of the BTreeMap key.
pub type Metrics = BTreeMap<String, (f64, &'static str)>;

/// Print the result line, the last line of standard output. The run is
/// correct when no operation failed.
pub fn print_result(tally: &Tally, metrics: &Metrics) {
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        tally.failed == 0,
        tally.attempted,
        tally.failed
    );
    for (i, (name, (value, unit))) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        // `{:?}` prints the shortest representation that reads back to
        // the same f64, so no measured digit is lost.
        let value = if value.is_finite() { *value } else { 0.0 };
        out.push_str(&format!(
            "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        ));
    }
    out.push_str("}}");
    println!("{out}");
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Run `setup` at least `MIN_SETUPS` times and until `SETUP_BUDGET` has
/// passed (at most `MAX_SETUPS`), returning the last state and the median
/// set-up time in seconds. Each earlier state is dropped before the next
/// set-up starts, so they never overlap.
pub fn repeat_setup<T>(mut setup: impl FnMut() -> Result<T, String>) -> Result<(T, f64), String> {
    const MIN_SETUPS: usize = 5;
    const MAX_SETUPS: usize = 25;
    const SETUP_BUDGET: Duration = Duration::from_secs(2);
    let started = Instant::now();
    let mut times = Vec::new();
    let mut last = None;
    while times.len() < MIN_SETUPS || (times.len() < MAX_SETUPS && started.elapsed() < SETUP_BUDGET)
    {
        drop(last.take());
        let t = Instant::now();
        last = Some(setup()?);
        times.push(t.elapsed().as_secs_f64());
    }
    Ok((last.expect("at least one set-up"), median(&times)))
}

/// A scratch directory under the current directory (the checkout),
/// removed again on drop.
pub struct WorkDir(PathBuf);

impl WorkDir {
    pub fn new(tag: &str) -> Result<WorkDir, String> {
        let dir = PathBuf::from(".perfbench_work").join(format!("{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(WorkDir(dir))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Leave the parent behind only if another run still uses it.
        let _ = std::fs::remove_dir(".perfbench_work");
    }
}
