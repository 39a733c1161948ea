//! Deterministic fault injection at named sites.
//!
//! Durability code is exercised by failures that almost never happen in
//! development: a crash between the temp-file write and the rename, a torn
//! page, a flipped bit in a PTML blob. This module lets tests and
//! operators *schedule* those failures at named sites in the catalog
//! save/load path, the PTML codec and the cache persistence path, driven
//! by deterministic seeds so every injected failure replays exactly.
//!
//! ## Arming
//!
//! Failpoints are compiled in unconditionally but cost a single relaxed
//! atomic load while disarmed. They are armed either programmatically
//! ([`arm`], usually through the RAII [`ScopedFailpoints`] in tests) or
//! from the environment: setting
//!
//! ```text
//! TML_FAILPOINTS="catalog.save.rename=io;ptml.decode=flip2@7"
//! ```
//!
//! arms an IO error at the rename site and a deterministic 2-bit
//! corruption (seed 7) of every decoded PTML blob. The grammar per entry
//! is `site=action[:afterN][#keyK][@seedS]` with actions `io`,
//! `short<permille>`, `flip<bits>` and `panic`.
//!
//! ## Sites
//!
//! | site                        | effect of triggering                    |
//! |-----------------------------|-----------------------------------------|
//! | `catalog.save.write`        | temp-file write fails (IO error)         |
//! | `catalog.save.fsync`        | fsync of the temp file fails             |
//! | `catalog.save.backup`       | rotation of the previous catalog fails   |
//! | `catalog.save.rename`       | crash between write and rename           |
//! | `catalog.save.bytes`        | short write / bit flips in the catalog   |
//! | `catalog.load.read`         | catalog read fails (IO error)            |
//! | `catalog.load.bytes`        | short read / bit flips in the catalog    |
//! | `catalog.save.dirsync`      | directory fsync after the rename fails   |
//! | `ptml.encode`               | corrupt bytes leaving the encoder        |
//! | `ptml.decode`               | corrupt bytes entering the decoder       |
//! | `cache.persist`             | corrupt bytes in a cached code segment   |
//! | `reflect.prepare`           | panic inside one optimization job        |
//! | `wal.append`                | appending a log record fails (IO error)  |
//! | `wal.flush`                 | log flush fails / tears the flushed page |
//! | `wal.checkpoint`            | crash at the start of a checkpoint       |
//! | `page.write`                | writing an inline object record fails    |
//! | `page.chain`                | writing an overflow-chain record fails   |
//! | `page.flush`                | flushing dirty pages at checkpoint fails |
//! | `txn.commit`                | crash before the txn-commit marker lands |
//! | `txn.abort`                 | crash mid-rollback (partial CLR trail)   |
//! | `lock.acquire`              | lock acquisition fails (injected abort)  |
//! | `serve.read`                | reading a request frame fails (IO error) |
//! | `serve.write`               | writing a response frame fails           |
//!
//! Sites are matched by exact name. A hit may carry a *key* (an OID, a
//! path hash) so a spec can target one object or file without perturbing
//! concurrent tests that pass through the same site.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard, Once, OnceLock, PoisonError};

/// What happens when a failpoint triggers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Action {
    /// Return an injected `std::io::Error` (kind `Other`).
    Io,
    /// Truncate a byte buffer to the given permille of its length
    /// (simulates a torn / short write).
    ShortWrite(u32),
    /// Flip the given number of bits at seed-derived positions.
    FlipBits(u32),
    /// Panic with a message naming the site.
    Panic,
}

/// A scheduled failure at one site.
#[derive(Debug, Clone, Copy)]
pub struct FailSpec {
    /// What to inject.
    pub action: Action,
    /// Skip this many matching hits before triggering (0 = first hit).
    pub after: u64,
    /// Only hits carrying exactly this key match; `None` matches any hit.
    pub key: Option<u64>,
    /// Seed for the deterministic corruption stream (bit positions).
    pub seed: u64,
    /// Keep triggering after the first time (`false` = one-shot).
    pub sticky: bool,
}

impl FailSpec {
    /// A spec that triggers on every matching hit.
    pub fn always(action: Action) -> FailSpec {
        FailSpec {
            action,
            after: 0,
            key: None,
            seed: 0,
            sticky: true,
        }
    }

    /// Restrict the spec to hits carrying `key`.
    pub fn for_key(mut self, key: u64) -> FailSpec {
        self.key = Some(key);
        self
    }

    /// Trigger only once, on the first matching hit.
    pub fn once(mut self) -> FailSpec {
        self.sticky = false;
        self
    }

    /// Set the deterministic corruption seed.
    pub fn with_seed(mut self, seed: u64) -> FailSpec {
        self.seed = seed;
        self
    }
}

struct FailState {
    spec: FailSpec,
    hits: u64,
    fired: bool,
}

static ARMED: AtomicBool = AtomicBool::new(false);
static ENV_INIT: Once = Once::new();

fn registry() -> &'static Mutex<HashMap<String, FailState>> {
    static REGISTRY: OnceLock<Mutex<HashMap<String, FailState>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(HashMap::new()))
}

/// Lock the registry, recovering from poisoning. A `Panic`-action failpoint
/// caught by degraded-mode `catch_unwind` (or any panicking test thread)
/// must not turn every later failpoint call into a second panic: the map
/// holds plain data whose invariants hold between statements, so the
/// poisoned guard is safe to adopt.
fn reg_lock() -> MutexGuard<'static, HashMap<String, FailState>> {
    registry().lock().unwrap_or_else(PoisonError::into_inner)
}

/// The big test lock: failpoints are process-global, so tests that arm
/// them serialize on this mutex (via [`ScopedFailpoints`]).
fn test_lock() -> &'static Mutex<()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
}

fn init_from_env() {
    ENV_INIT.call_once(|| {
        if let Ok(val) = std::env::var("TML_FAILPOINTS") {
            for entry in val.split(';').filter(|e| !e.trim().is_empty()) {
                match parse_entry(entry.trim()) {
                    Some((site, spec)) => arm(&site, spec),
                    None => eprintln!("tml-store: ignoring bad TML_FAILPOINTS entry {entry:?}"),
                }
            }
        }
    });
}

/// Parse one `site=action[:afterN][#keyK][@seedS]` entry.
fn parse_entry(entry: &str) -> Option<(String, FailSpec)> {
    let (site, rest) = entry.split_once('=')?;
    let mut spec = FailSpec::always(Action::Io);
    let mut action = rest;
    for (marker, field) in [(":", 0usize), ("#", 1), ("@", 2)] {
        if let Some(ix) = action.find(marker) {
            let (head, tail) = action.split_at(ix);
            let digits: String = tail[1..]
                .chars()
                .take_while(|c| c.is_ascii_digit())
                .collect();
            let n: u64 = digits.parse().ok()?;
            match field {
                0 => spec.after = n,
                1 => spec.key = Some(n),
                _ => spec.seed = n,
            }
            let remainder = &tail[1 + digits.len()..];
            action = Box::leak(format!("{head}{remainder}").into_boxed_str());
        }
    }
    spec.action = match action {
        "io" => Action::Io,
        "panic" => Action::Panic,
        a if a.starts_with("short") => Action::ShortWrite(a[5..].parse().ok()?),
        a if a.starts_with("flip") => Action::FlipBits(a[4..].parse().ok()?),
        _ => return None,
    };
    Some((site.to_string(), spec))
}

/// `true` when any failpoint is armed (one relaxed load — the whole cost
/// on the production path).
#[inline]
pub fn armed() -> bool {
    init_from_env();
    ARMED.load(Ordering::Relaxed)
}

/// Arm a failpoint at `site`. Replaces any existing spec for the site.
pub fn arm(site: &str, spec: FailSpec) {
    let mut reg = reg_lock();
    reg.insert(
        site.to_string(),
        FailState {
            spec,
            hits: 0,
            fired: false,
        },
    );
    ARMED.store(true, Ordering::Relaxed);
}

/// Disarm one site.
pub fn disarm(site: &str) {
    let mut reg = reg_lock();
    reg.remove(site);
    if reg.is_empty() {
        ARMED.store(false, Ordering::Relaxed);
    }
}

/// Disarm every site.
pub fn disarm_all() {
    let mut reg = reg_lock();
    reg.clear();
    ARMED.store(false, Ordering::Relaxed);
}

/// Evaluate a hit at `site` carrying `key`. Returns the action to inject
/// when the site triggers. Records the trigger on the trace recorder.
/// `Action::Panic` panics here, so call sites cannot forget to honor it.
pub fn check(site: &str, key: u64) -> Option<(Action, u64)> {
    if !armed() {
        return None;
    }
    let action = {
        let mut reg = reg_lock();
        let state = reg.get_mut(site)?;
        if let Some(k) = state.spec.key {
            if k != key {
                return None;
            }
        }
        if state.fired && !state.spec.sticky {
            return None;
        }
        let hit = state.hits;
        state.hits += 1;
        if hit < state.spec.after {
            return None;
        }
        state.fired = true;
        (state.spec.action, state.spec.seed)
    };
    if tml_trace::enabled() {
        tml_trace::count(&format!("store.failpoint.{site}"), 1);
    }
    if action.0 == Action::Panic {
        panic!("failpoint {site} (key {key}): injected panic");
    }
    Some(action)
}

/// IO-path helper: `Err` with an injected error when `site` triggers.
pub fn fail_io(site: &str, key: u64) -> std::io::Result<()> {
    match check(site, key) {
        Some((Action::Io, _))
        | Some((Action::ShortWrite(_), _))
        | Some((Action::FlipBits(_), _)) => Err(std::io::Error::other(format!(
            "failpoint {site}: injected IO error"
        ))),
        _ => Ok(()),
    }
}

/// Byte-stream helper: apply a scheduled short write or bit flips to
/// `bytes` in place. Returns `true` when the buffer was corrupted. The
/// corruption positions derive from the spec's seed and the buffer length
/// only, so a given (spec, input) pair always corrupts identically.
pub fn corrupt(site: &str, key: u64, bytes: &mut Vec<u8>) -> bool {
    match check(site, key) {
        Some((action, seed)) => apply_corruption(action, seed, bytes),
        None => false,
    }
}

/// Apply one corruption action to a buffer in place; returns `true` only
/// when the buffer actually changed. A `ShortWrite` permille is clamped to
/// 1000, so a spec of `short1000` (or more) keeps the whole buffer and
/// reports no corruption — fault-matrix accounting must not count a
/// truncation that truncated nothing. `Io` and `Panic` actions never touch
/// byte buffers.
pub fn apply_corruption(action: Action, seed: u64, bytes: &mut Vec<u8>) -> bool {
    match action {
        Action::ShortWrite(permille) => {
            let keep = (bytes.len() as u64 * u64::from(permille.min(1000)) / 1000) as usize;
            if keep >= bytes.len() {
                return false;
            }
            bytes.truncate(keep);
            true
        }
        Action::FlipBits(n) => {
            if bytes.is_empty() || n == 0 {
                return false;
            }
            let mut rng = Xorshift::new(seed ^ 0x9e37_79b9_7f4a_7c15);
            for _ in 0..n {
                let bit = (rng.next() % (bytes.len() as u64 * 8)) as usize;
                bytes[bit / 8] ^= 1 << (bit % 8);
            }
            true
        }
        Action::Io | Action::Panic => false,
    }
}

/// A deterministic xorshift64* stream for corruption positions.
struct Xorshift(u64);

impl Xorshift {
    fn new(seed: u64) -> Xorshift {
        Xorshift(seed | 1)
    }

    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }
}

/// RAII guard for tests: takes the process-global failpoint lock, arms the
/// given specs, and disarms everything on drop. Tests that inject faults
/// create one of these so concurrent tests in the same binary never see a
/// half-armed registry.
pub struct ScopedFailpoints {
    _guard: MutexGuard<'static, ()>,
}

impl ScopedFailpoints {
    /// Take the lock and arm `specs`.
    pub fn new(specs: &[(&str, FailSpec)]) -> ScopedFailpoints {
        // A previous test may have panicked (deliberately, for Action::Panic)
        // while holding the guard; the lock content is unit, so poisoning
        // carries no risk.
        let guard = match test_lock().lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        };
        disarm_all();
        for (site, spec) in specs {
            arm(site, *spec);
        }
        ScopedFailpoints { _guard: guard }
    }
}

impl Drop for ScopedFailpoints {
    fn drop(&mut self) {
        disarm_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disarmed_is_free_and_silent() {
        let _fp = ScopedFailpoints::new(&[]);
        assert!(check("nowhere", 0).is_none());
        assert!(fail_io("nowhere", 0).is_ok());
        let mut b = vec![1, 2, 3];
        assert!(!corrupt("nowhere", 0, &mut b));
        assert_eq!(b, vec![1, 2, 3]);
    }

    #[test]
    fn key_and_after_filtering() {
        let _fp = ScopedFailpoints::new(&[(
            "t.site",
            FailSpec {
                action: Action::Io,
                after: 1,
                key: Some(42),
                seed: 0,
                sticky: true,
            },
        )]);
        assert!(check("t.site", 7).is_none(), "wrong key never matches");
        assert!(check("t.site", 42).is_none(), "first matching hit skipped");
        assert!(check("t.site", 42).is_some(), "second matching hit fires");
        assert!(check("t.site", 42).is_some(), "sticky keeps firing");
    }

    #[test]
    fn one_shot_fires_once() {
        let _fp = ScopedFailpoints::new(&[("t.once", FailSpec::always(Action::Io).once())]);
        assert!(check("t.once", 0).is_some());
        assert!(check("t.once", 0).is_none());
    }

    #[test]
    fn corruption_is_deterministic() {
        let base: Vec<u8> = (0..64).collect();
        let run = |seed| {
            let _fp = ScopedFailpoints::new(&[(
                "t.flip",
                FailSpec::always(Action::FlipBits(3)).with_seed(seed),
            )]);
            let mut b = base.clone();
            assert!(corrupt("t.flip", 0, &mut b));
            b
        };
        assert_eq!(run(7), run(7), "same seed, same corruption");
        assert_ne!(run(7), run(8), "different seed, different corruption");
        assert_ne!(run(7), base, "corruption changed the bytes");
    }

    #[test]
    fn short_write_truncates() {
        let _fp = ScopedFailpoints::new(&[("t.short", FailSpec::always(Action::ShortWrite(500)))]);
        let mut b: Vec<u8> = (0..100).collect();
        assert!(corrupt("t.short", 0, &mut b));
        assert_eq!(b.len(), 50);
        assert_eq!(b[..], (0..50).collect::<Vec<u8>>()[..]);
    }

    #[test]
    fn short_write_that_truncates_nothing_reports_no_corruption() {
        let _fp = ScopedFailpoints::new(&[
            // Permille >= 1000 keeps every byte: not a corruption.
            ("t.noop", FailSpec::always(Action::ShortWrite(1000))),
            // Over-unit permille exercises the clamp.
            ("t.over", FailSpec::always(Action::ShortWrite(2500))),
            // An empty buffer has nothing to truncate.
            ("t.empty", FailSpec::always(Action::ShortWrite(500))),
        ]);
        let mut b: Vec<u8> = (0..10).collect();
        assert!(!corrupt("t.noop", 0, &mut b));
        assert_eq!(b.len(), 10, "buffer unchanged");
        let mut b: Vec<u8> = (0..10).collect();
        assert!(!corrupt("t.over", 0, &mut b));
        assert_eq!(b.len(), 10);
        let mut b: Vec<u8> = Vec::new();
        assert!(!corrupt("t.empty", 0, &mut b));
    }

    #[test]
    fn poisoned_registry_recovers_instead_of_panicking() {
        let _fp = ScopedFailpoints::new(&[]);
        // Poison the registry mutex by panicking while holding it, as a
        // Panic-action failpoint caught by catch_unwind can do.
        let _ = std::panic::catch_unwind(|| {
            let _guard = registry().lock().unwrap();
            panic!("poison the registry");
        });
        assert!(registry().lock().is_err(), "registry is poisoned");
        // Every entry point must keep working on the poisoned mutex.
        arm("t.poison", FailSpec::always(Action::Io));
        assert!(check("t.poison", 0).is_some());
        disarm("t.poison");
        assert!(check("t.poison", 0).is_none());
        disarm_all();
    }

    #[test]
    fn env_grammar_parses() {
        let (site, spec) = parse_entry("catalog.save.rename=io:2#9@13").unwrap();
        assert_eq!(site, "catalog.save.rename");
        assert_eq!(spec.action, Action::Io);
        assert_eq!(spec.after, 2);
        assert_eq!(spec.key, Some(9));
        assert_eq!(spec.seed, 13);
        let (_, spec) = parse_entry("ptml.decode=flip4@7").unwrap();
        assert_eq!(spec.action, Action::FlipBits(4));
        assert_eq!(spec.seed, 7);
        let (_, spec) = parse_entry("x=short250").unwrap();
        assert_eq!(spec.action, Action::ShortWrite(250));
        assert!(parse_entry("nonsense").is_none());
        assert!(parse_entry("x=explode").is_none());
    }

    #[test]
    #[should_panic(expected = "injected panic")]
    fn panic_action_panics_at_check() {
        let _fp = ScopedFailpoints::new(&[("t.panic", FailSpec::always(Action::Panic))]);
        let _ = check("t.panic", 0);
    }
}
