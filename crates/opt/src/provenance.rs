//! Provenance replay: check that a logged rewrite sequence really is the
//! derivation of an optimized term.
//!
//! The optimizer is deterministic: given the same input term and options
//! it visits nodes in the same order and fires the same rules, so its
//! provenance event stream is a faithful, replayable trace of the
//! derivation. `replay` re-runs the optimizer over the unoptimized term in
//! lockstep with a previously recorded log, failing on the first
//! divergence, and returns the re-derived term. Callers then compare the
//! result against the originally optimized term (byte-for-byte, via the
//! PTML encoding) to establish that the log explains exactly how the
//! optimized form was produced — the audit story of rewrite-verification
//! systems, applied to the paper's §3 rule set.

use crate::driver::optimize_traced;
use crate::stats::{OptOptions, OptStats};
use tml_core::prim::IndexFacts;
use tml_core::term::{Abs, App};
use tml_core::Ctx;
use tml_trace::{Event, Sink};

/// Why a replay did not match its log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReplayError {
    /// The re-derivation produced an event the log does not have at this
    /// position (or the log ran out).
    Mismatch {
        /// Index into the provenance subsequence of the log.
        index: usize,
        /// The logged event at that index, if any.
        expected: Option<Box<Event>>,
        /// The event the re-derivation produced.
        got: Box<Event>,
    },
    /// The re-derivation ended before consuming the whole log.
    Incomplete {
        /// Provenance events in the log.
        expected: usize,
        /// Events actually re-derived.
        got: usize,
    },
}

impl std::fmt::Display for ReplayError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReplayError::Mismatch {
                index,
                expected,
                got,
            } => write!(
                f,
                "replay diverged at provenance event {index}: expected {expected:?}, got {got:?}"
            ),
            ReplayError::Incomplete { expected, got } => write!(
                f,
                "replay consumed only {got} of {expected} logged provenance events"
            ),
        }
    }
}

impl std::error::Error for ReplayError {}

/// Display names carry the unique-binding counter (`x_8`); a replay
/// allocates fresh counters for its α-copies, so site anchors are compared
/// by base name. Everything else — rule, node index, size delta, costs —
/// must match exactly.
fn site_base(site: &str) -> &str {
    match site.rfind('_') {
        Some(i) if site[i + 1..].chars().all(|c| c.is_ascii_digit()) => &site[..i],
        _ => site,
    }
}

fn events_match(want: &Event, got: &Event) -> bool {
    let anchored = |e: &Event| {
        let mut e = e.clone();
        if let Event::RuleFired { site, .. } | Event::ExpandDecision { site, .. } = &mut e {
            *site = site_base(site).to_string();
        }
        e
    };
    anchored(want) == anchored(got)
}

struct Lockstep<'a> {
    expected: Vec<&'a Event>,
    index: usize,
    error: Option<ReplayError>,
}

impl Lockstep<'_> {
    fn new(log: &[Event]) -> Lockstep<'_> {
        Lockstep {
            // Non-provenance events (cache ops, GC phases…) may be
            // interleaved in a drained trace; only the deterministic
            // optimizer subset takes part in the lockstep.
            expected: log.iter().filter(|e| e.is_provenance()).collect(),
            index: 0,
            error: None,
        }
    }

    fn check(&mut self, got: &Event) {
        if self.error.is_some() {
            return;
        }
        match self.expected.get(self.index) {
            Some(want) if events_match(want, got) => self.index += 1,
            want => {
                self.error = Some(ReplayError::Mismatch {
                    index: self.index,
                    expected: want.map(|e| Box::new((*e).clone())),
                    got: Box::new(got.clone()),
                });
            }
        }
    }

    fn finish(self) -> Result<(), ReplayError> {
        if let Some(e) = self.error {
            return Err(e);
        }
        if self.index != self.expected.len() {
            return Err(ReplayError::Incomplete {
                expected: self.expected.len(),
                got: self.index,
            });
        }
        Ok(())
    }
}

/// Re-derive the optimization of `app` in lockstep with `log`. Returns the
/// re-derived optimized term (and stats) only if every provenance event
/// matches the log exactly and the log is fully consumed. `facts` must be
/// the index facts the log was recorded against.
pub fn replay(
    ctx: &mut Ctx,
    app: App,
    opts: &OptOptions,
    facts: Option<&dyn IndexFacts>,
    log: &[Event],
) -> Result<(App, OptStats), ReplayError> {
    let mut lockstep = Lockstep::new(log);
    let result = {
        let mut check = |e: &Event| lockstep.check(e);
        optimize_traced(ctx, app, opts, facts, &mut Sink::collect(&mut check))
    };
    lockstep.finish()?;
    Ok(result)
}

/// [`replay`] over a procedure body (the reflective optimizer's unit of
/// work), keeping its parameter list.
pub fn replay_abs(
    ctx: &mut Ctx,
    abs: Abs,
    opts: &OptOptions,
    facts: Option<&dyn IndexFacts>,
    log: &[Event],
) -> Result<(Abs, OptStats), ReplayError> {
    let (body, stats) = replay(ctx, abs.body, opts, facts, log)?;
    Ok((Abs::new(abs.params, body), stats))
}

/// Record the provenance log of optimizing `app`. Convenience wrapper used
/// by tests and `tmlc explain --verify`.
pub fn record(
    ctx: &mut Ctx,
    app: App,
    opts: &OptOptions,
    facts: Option<&dyn IndexFacts>,
) -> (App, OptStats, Vec<Event>) {
    let mut log = Vec::new();
    let (out, stats) = {
        let mut collect = |e: &Event| log.push(e.clone());
        optimize_traced(ctx, app, opts, facts, &mut Sink::collect(&mut collect))
    };
    (out, stats, log)
}

/// [`record`] over a procedure body.
pub fn record_abs(
    ctx: &mut Ctx,
    abs: Abs,
    opts: &OptOptions,
    facts: Option<&dyn IndexFacts>,
) -> (Abs, OptStats, Vec<Event>) {
    let (body, stats, log) = record(ctx, abs.body, opts, facts);
    (Abs::new(abs.params, body), stats, log)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tml_core::parse::parse_app;

    const SRC: &str = "(cont(f) \
        (f 10 cont(e1) (halt e1) cont(t) \
            (f t cont(e2) (halt e2) cont(u) (halt u))) \
        proc(x ce cc) (+ x 1 ce cc))";

    #[test]
    fn replay_matches_recorded_log() {
        let mut ctx = Ctx::new();
        let parsed = parse_app(&mut ctx, SRC).unwrap();
        let unopt = parsed.app;
        let opts = OptOptions::default();
        let (optimized, _, log) = record(&mut ctx, unopt.clone(), &opts, None);
        assert!(log.iter().any(|e| matches!(e, Event::RuleFired { .. })));
        assert!(log
            .iter()
            .any(|e| matches!(e, Event::ExpandDecision { .. })));
        let (replayed, _) = replay(&mut ctx, unopt, &opts, None, &log).unwrap();
        // α-renaming is part of the derivation, so fresh names differ; the
        // tree shape must match exactly. (Byte-for-byte PTML equality is
        // checked in the integration test, where terms share a context.)
        assert_eq!(optimized.size(), replayed.size());
    }

    #[test]
    fn tampered_log_is_rejected() {
        let mut ctx = Ctx::new();
        let parsed = parse_app(&mut ctx, SRC).unwrap();
        let unopt = parsed.app;
        let opts = OptOptions::default();
        let (_, _, mut log) = record(&mut ctx, unopt.clone(), &opts, None);
        // Forge the first rule event's rule name.
        let pos = log
            .iter()
            .position(|e| matches!(e, Event::RuleFired { .. }))
            .unwrap();
        if let Event::RuleFired { rule, .. } = &mut log[pos] {
            *rule = "eta-reduce";
        }
        let err = replay(&mut ctx, unopt, &opts, None, &log).unwrap_err();
        assert!(matches!(err, ReplayError::Mismatch { .. }));
    }

    #[test]
    fn truncated_log_is_rejected() {
        let mut ctx = Ctx::new();
        let parsed = parse_app(&mut ctx, SRC).unwrap();
        let unopt = parsed.app;
        let opts = OptOptions::default();
        let (_, _, mut log) = record(&mut ctx, unopt.clone(), &opts, None);
        log.truncate(log.len() / 2);
        assert!(replay(&mut ctx, unopt, &opts, None, &log).is_err());
    }
}
