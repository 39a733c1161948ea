//! The lock table: strict two-phase locking over store OIDs and root
//! names.
//!
//! Lock keys are plain `u64`s — an OID's index, or a hashed root name
//! with the top bit set (see [`crate::txn::root_key`]). Each key has a
//! set of holders (many shared, or one exclusive) and a FIFO wait
//! queue; upgrades (shared → exclusive by the sole holder) happen in
//! place, and an upgrader that must wait jumps to the front of the
//! queue.
//!
//! ## Deadlock handling
//!
//! A transaction entering a wait runs wait-for-graph cycle detection:
//! edges go from each waiting transaction to the *conflicting* holders
//! of — and conflicting waiters ahead of it on — its awaited key.
//! (A shared waiter queued behind another shared waiter is not an
//! edge: `promote` grants consecutive compatible waiters in one wave,
//! so only mode conflicts actually block.) Detection repeats, skipping
//! already-chosen victims, until no cycle through the enqueuer
//! remains; each cycle's *youngest* member (highest txn id) wakes with
//! [`LockError::Deadlock`], which the transaction layer converts into a
//! typed abort the session can transparently retry. Timeouts are the
//! backstop for anything detection misses.
//!
//! ## Fairness
//!
//! [`LockTable::try_acquire`] declines a grantable shared lock when the
//! queue is non-empty, so a stream of readers cannot starve a waiting
//! writer. Re-entrant requests by an existing holder are always granted.

use std::collections::{BTreeMap, HashSet, VecDeque};
use std::sync::{Condvar, Mutex, OnceLock};
use std::time::{Duration, Instant};

use tml_store::failpoint;

/// Process-wide jitter seed from `TML_JITTER_SEED`, read once. When set,
/// every jittered backoff schedule in this process — lock-retry sleeps
/// here, client transaction-retry pauses — derives from the seed instead
/// of per-run state (the client's ephemeral port), so a soak or stress
/// run's interleaving can be reproduced exactly in CI by exporting the
/// same seed. Unset (`None`) preserves the historical schedules.
pub(crate) fn jitter_seed() -> Option<u64> {
    static SEED: OnceLock<Option<u64>> = OnceLock::new();
    *SEED.get_or_init(|| {
        std::env::var("TML_JITTER_SEED")
            .ok()
            .and_then(|s| s.trim().parse().ok())
    })
}

/// Requested/held access mode for one lock key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LockMode {
    /// Shared: many readers.
    Shared,
    /// Exclusive: one writer.
    Exclusive,
}

/// Tuning for blocking acquisition.
#[derive(Debug, Clone, Copy)]
pub struct LockOptions {
    /// How long one blocking [`LockTable::acquire`] waits before
    /// reporting [`LockError::Timeout`].
    pub timeout: Duration,
    /// Extra attempts [`LockTable::acquire_with_retry`] makes after the
    /// first timeout.
    pub retries: u32,
    /// Base backoff between retry attempts; doubles per attempt, with
    /// deterministic jitter derived from `(txn, key, attempt)`.
    pub backoff: Duration,
}

impl Default for LockOptions {
    fn default() -> Self {
        LockOptions {
            timeout: Duration::from_millis(1000),
            retries: 3,
            backoff: Duration::from_millis(10),
        }
    }
}

/// Why a lock was not granted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LockError {
    /// Non-blocking attempt conflicted; `holder` is one current holder
    /// (or queue-front waiter) standing in the way.
    Busy {
        /// A transaction currently holding (or queued ahead on) the key.
        holder: u64,
        /// Whether the *request* was for exclusive access.
        exclusive: bool,
    },
    /// A blocking wait exceeded its timeout.
    Timeout,
    /// The waiter was chosen as a deadlock victim.
    Deadlock,
    /// The `lock.acquire` failpoint fired (fault injection).
    Injected,
}

impl std::fmt::Display for LockError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LockError::Busy { holder, exclusive } => write!(
                f,
                "lock busy (held by txn {holder}, {} requested)",
                if *exclusive { "exclusive" } else { "shared" }
            ),
            LockError::Timeout => write!(f, "lock wait timed out"),
            LockError::Deadlock => write!(f, "deadlock victim"),
            LockError::Injected => write!(f, "injected lock fault"),
        }
    }
}

impl std::error::Error for LockError {}

/// Point-in-time occupancy of the table (the `tmlc info`/`stats` gauge).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LockStats {
    /// Keys with at least one holder or waiter.
    pub keys: u64,
    /// Granted (txn, key) pairs.
    pub holders: u64,
    /// Queued waiters across all keys.
    pub waiters: u64,
}

#[derive(Debug, Clone, Copy)]
struct Waiter {
    txn: u64,
    exclusive: bool,
}

#[derive(Debug, Default)]
struct Entry {
    holders: Vec<(u64, LockMode)>,
    waiters: VecDeque<Waiter>,
}

impl Entry {
    fn holds(&self, txn: u64, exclusive: bool) -> bool {
        self.holders
            .iter()
            .any(|&(t, m)| t == txn && (!exclusive || m == LockMode::Exclusive))
    }

    /// Whether `txn` could be granted `exclusive` access right now,
    /// ignoring the queue.
    fn compatible(&self, txn: u64, exclusive: bool) -> bool {
        if exclusive {
            self.holders.iter().all(|&(t, _)| t == txn)
        } else {
            self.holders
                .iter()
                .all(|&(t, m)| t == txn || m == LockMode::Shared)
        }
    }

    fn grant(&mut self, txn: u64, exclusive: bool) {
        if let Some(h) = self.holders.iter_mut().find(|(t, _)| *t == txn) {
            if exclusive {
                h.1 = LockMode::Exclusive;
            }
        } else {
            self.holders.push((
                txn,
                if exclusive {
                    LockMode::Exclusive
                } else {
                    LockMode::Shared
                },
            ));
        }
    }
}

#[derive(Debug, Default)]
struct State {
    entries: BTreeMap<u64, Entry>,
    /// Waiting transaction → the single (key, exclusive) it waits on.
    waits: BTreeMap<u64, (u64, bool)>,
    /// Transactions chosen as deadlock victims, pending their wake-up.
    victims: HashSet<u64>,
}

impl State {
    /// Grant-wave from the front of `key`'s queue: grant consecutive
    /// compatible waiters, stop at the first that must keep waiting.
    fn promote(&mut self, key: u64) {
        let Some(e) = self.entries.get_mut(&key) else {
            return;
        };
        while let Some(&w) = e.waiters.front() {
            if !e.compatible(w.txn, w.exclusive) {
                break;
            }
            e.waiters.pop_front();
            e.grant(w.txn, w.exclusive);
            self.waits.remove(&w.txn);
        }
        if e.holders.is_empty() && e.waiters.is_empty() {
            self.entries.remove(&key);
        }
    }

    /// Everything `w` (waiting on `key` with mode `excl`) actually
    /// waits for: the key's *conflicting* holders plus the
    /// *conflicting* waiters queued ahead of it. Compatible neighbours
    /// (shared next to shared) are not edges — `promote` grants them in
    /// the same wave, so they never block each other.
    fn edges_of(&self, w: u64, excl: bool, key: u64, out: &mut Vec<u64>) {
        out.clear();
        let Some(e) = self.entries.get(&key) else {
            return;
        };
        out.extend(
            e.holders
                .iter()
                .filter(|&&(t, m)| t != w && (excl || m == LockMode::Exclusive))
                .map(|&(t, _)| t),
        );
        for q in &e.waiters {
            if q.txn == w {
                break;
            }
            if q.exclusive || excl {
                out.push(q.txn);
            }
        }
    }

    /// Find a wait-for cycle through `start`, returning its members.
    /// Transactions already marked as victims are treated as gone —
    /// their locks are about to be released.
    fn find_cycle(&self, start: u64) -> Option<Vec<u64>> {
        // DFS over the wait-for graph. Nodes are waiting transactions;
        // a txn waits on at most one key, so the graph is small and a
        // cycle through `start` can only appear when `start` enters a
        // wait — which is exactly when this runs.
        let mut path = vec![start];
        let mut frontier: Vec<Vec<u64>> = Vec::new();
        let mut edges = Vec::new();
        let &(key, excl) = self.waits.get(&start)?;
        self.edges_of(start, excl, key, &mut edges);
        frontier.push(edges.clone());
        while let Some(next) = frontier.last_mut() {
            let Some(node) = next.pop() else {
                frontier.pop();
                path.pop();
                continue;
            };
            if node == start {
                return Some(path.clone());
            }
            if path.contains(&node) || self.victims.contains(&node) {
                continue; // already on the path, or already condemned
            }
            let Some(&(k, x)) = self.waits.get(&node) else {
                continue; // not waiting: no outgoing edges
            };
            path.push(node);
            self.edges_of(node, x, k, &mut edges);
            frontier.push(edges.clone());
        }
        None
    }

    /// Break every wait-for cycle through `txn`, marking each cycle's
    /// youngest member as a victim. Returns `true` when `txn` itself
    /// was condemned (the caller reports [`LockError::Deadlock`]
    /// directly instead of waiting).
    fn resolve_deadlocks(&mut self, txn: u64) -> bool {
        while let Some(cycle) = self.find_cycle(txn) {
            let victim = cycle.iter().copied().max().unwrap_or(txn);
            if tml_trace::enabled() {
                tml_trace::count("lock.deadlocks", 1);
                tml_trace::record(tml_trace::Event::Txn {
                    op: "deadlock",
                    txn: victim,
                    n: cycle.len() as u64,
                    micros: 0,
                });
            }
            if victim == txn {
                return true;
            }
            self.victims.insert(victim);
        }
        false
    }

    fn remove_waiter(&mut self, txn: u64, key: u64) {
        if let Some(e) = self.entries.get_mut(&key) {
            e.waiters.retain(|w| w.txn != txn);
            if e.holders.is_empty() && e.waiters.is_empty() {
                self.entries.remove(&key);
            } else {
                self.promote(key);
            }
        }
        self.waits.remove(&txn);
    }
}

/// The shared lock table. One instance serves every transaction of a
/// store; all methods take `&self` and are thread-safe.
#[derive(Debug, Default)]
pub struct LockTable {
    state: Mutex<State>,
    cv: Condvar,
}

impl LockTable {
    /// A fresh, empty table.
    pub fn new() -> LockTable {
        LockTable::default()
    }

    /// Non-blocking acquisition. Grants re-entrant requests and
    /// uncontended (or share-compatible, queue-empty) requests; anything
    /// else returns [`LockError::Busy`] with one blocking holder, so the
    /// caller can wait *outside* whatever critical section it runs in.
    pub fn try_acquire(&self, txn: u64, key: u64, exclusive: bool) -> Result<(), LockError> {
        if failpoint::check("lock.acquire", key).is_some() {
            return Err(LockError::Injected);
        }
        let mut s = self.state.lock().unwrap();
        let e = s.entries.entry(key).or_default();
        if e.holds(txn, exclusive) {
            return Ok(());
        }
        let blocked_by_queue = !e.waiters.is_empty() && !e.holders.iter().any(|&(t, _)| t == txn);
        if !blocked_by_queue && e.compatible(txn, exclusive) {
            e.grant(txn, exclusive);
            return Ok(());
        }
        let holder = e
            .holders
            .iter()
            .map(|&(t, _)| t)
            .find(|&t| t != txn)
            .or_else(|| e.waiters.front().map(|w| w.txn))
            .unwrap_or(0);
        if e.holders.is_empty() && e.waiters.is_empty() {
            s.entries.remove(&key);
        }
        Err(LockError::Busy { holder, exclusive })
    }

    /// Blocking acquisition with deadlock detection and a timeout.
    pub fn acquire(
        &self,
        txn: u64,
        key: u64,
        exclusive: bool,
        timeout: Duration,
    ) -> Result<(), LockError> {
        match self.try_acquire(txn, key, exclusive) {
            Ok(()) => return Ok(()),
            Err(LockError::Injected) => return Err(LockError::Injected),
            Err(_) => {}
        }
        let started = Instant::now();
        let mut s = self.state.lock().unwrap();
        // Register the wait. An upgrader (already holds shared) jumps the
        // queue: it cannot give way without releasing what it holds.
        let e = s.entries.entry(key).or_default();
        let upgrading = e.holders.iter().any(|&(t, _)| t == txn);
        let w = Waiter { txn, exclusive };
        if upgrading {
            e.waiters.push_front(w);
        } else {
            e.waiters.push_back(w);
        }
        s.waits.insert(txn, (key, exclusive));
        if tml_trace::enabled() {
            tml_trace::count("lock.waits", 1);
        }
        if s.resolve_deadlocks(txn) {
            s.remove_waiter(txn, key);
            self.cv.notify_all();
            return Err(LockError::Deadlock);
        }
        if !s.victims.is_empty() {
            self.cv.notify_all();
        }
        loop {
            s.promote(key);
            let granted = s.entries.get(&key).is_some_and(|e| e.holds(txn, exclusive));
            if granted {
                self.record_wait(started);
                self.cv.notify_all();
                return Ok(());
            }
            if s.victims.remove(&txn) {
                s.remove_waiter(txn, key);
                self.record_wait(started);
                self.cv.notify_all();
                return Err(LockError::Deadlock);
            }
            let elapsed = started.elapsed();
            if elapsed >= timeout {
                s.remove_waiter(txn, key);
                self.record_wait(started);
                self.cv.notify_all();
                if tml_trace::enabled() {
                    tml_trace::count("lock.timeouts", 1);
                }
                return Err(LockError::Timeout);
            }
            let (next, _) = self.cv.wait_timeout(s, timeout - elapsed).unwrap();
            s = next;
        }
    }

    /// [`LockTable::acquire`] wrapped in `opts.retries` extra attempts
    /// with jittered exponential backoff between timeouts. Deadlock and
    /// injected faults propagate immediately — retrying a deadlock
    /// victim without releasing its locks cannot make progress.
    pub fn acquire_with_retry(
        &self,
        txn: u64,
        key: u64,
        exclusive: bool,
        opts: &LockOptions,
    ) -> Result<(), LockError> {
        let mut attempt = 0u32;
        loop {
            match self.acquire(txn, key, exclusive, opts.timeout) {
                Err(LockError::Timeout) if attempt < opts.retries => {
                    let base = opts.backoff.saturating_mul(1 << attempt.min(10));
                    let seed = jitter_seed().unwrap_or(0);
                    let jitter_ns = hash3(txn ^ seed, key, u64::from(attempt))
                        % opts.backoff.as_nanos().max(1) as u64;
                    std::thread::sleep(base + Duration::from_nanos(jitter_ns));
                    attempt += 1;
                }
                r => return r,
            }
        }
    }

    /// Drop every lock and queued wait of `txn` (end of transaction),
    /// promoting each affected queue. Returns the number of keys
    /// released.
    pub fn release_all(&self, txn: u64) -> usize {
        let mut s = self.state.lock().unwrap();
        let affected: Vec<u64> = s
            .entries
            .iter()
            .filter(|(_, e)| {
                e.holders.iter().any(|&(t, _)| t == txn) || e.waiters.iter().any(|w| w.txn == txn)
            })
            .map(|(&k, _)| k)
            .collect();
        let mut released = 0;
        for &k in &affected {
            let e = s.entries.get_mut(&k).unwrap();
            let before = e.holders.len();
            e.holders.retain(|&(t, _)| t != txn);
            released += before - e.holders.len();
            e.waiters.retain(|w| w.txn != txn);
            if e.holders.is_empty() && e.waiters.is_empty() {
                s.entries.remove(&k);
            } else {
                s.promote(k);
            }
        }
        s.waits.remove(&txn);
        s.victims.remove(&txn);
        if !affected.is_empty() {
            self.cv.notify_all();
        }
        released
    }

    /// Current occupancy (for `tmlc info --json` and `tmlc stats`).
    pub fn stats(&self) -> LockStats {
        let s = self.state.lock().unwrap();
        LockStats {
            keys: s.entries.len() as u64,
            holders: s.entries.values().map(|e| e.holders.len() as u64).sum(),
            waiters: s.entries.values().map(|e| e.waiters.len() as u64).sum(),
        }
    }

    fn record_wait(&self, started: Instant) {
        if tml_trace::enabled() {
            tml_trace::global().record_ns(
                "lock.wait",
                started.elapsed().as_nanos().min(u64::MAX as u128) as u64,
            );
        }
    }
}

/// FNV-1a over three words — the deterministic jitter source (no RNG
/// state, so fault-matrix runs stay reproducible).
pub(crate) fn hash3(a: u64, b: u64, c: u64) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for w in [a, b, c] {
        for byte in w.to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    const T: Duration = Duration::from_millis(50);

    #[test]
    fn shared_locks_coexist_exclusive_does_not() {
        let lt = LockTable::new();
        lt.try_acquire(1, 7, false).unwrap();
        lt.try_acquire(2, 7, false).unwrap();
        assert_eq!(
            lt.try_acquire(3, 7, true),
            Err(LockError::Busy {
                holder: 1,
                exclusive: true
            })
        );
        assert_eq!(lt.release_all(1), 1);
        assert_eq!(lt.release_all(2), 1);
        lt.try_acquire(3, 7, true).unwrap();
        assert!(matches!(
            lt.try_acquire(1, 7, false),
            Err(LockError::Busy { .. })
        ));
    }

    #[test]
    fn reentrant_and_upgrade_in_place() {
        let lt = LockTable::new();
        lt.try_acquire(1, 9, false).unwrap();
        lt.try_acquire(1, 9, false).unwrap();
        // Sole holder: shared → exclusive upgrades in place.
        lt.try_acquire(1, 9, true).unwrap();
        lt.try_acquire(1, 9, false).unwrap(); // shared under own exclusive
        assert!(matches!(
            lt.try_acquire(2, 9, false),
            Err(LockError::Busy { .. })
        ));
        // With a second shared holder the upgrade must wait.
        lt.release_all(1);
        lt.try_acquire(1, 9, false).unwrap();
        lt.try_acquire(2, 9, false).unwrap();
        assert!(matches!(
            lt.try_acquire(1, 9, true),
            Err(LockError::Busy { .. })
        ));
    }

    #[test]
    fn fifo_a_waiting_writer_blocks_new_readers() {
        let lt = Arc::new(LockTable::new());
        lt.try_acquire(1, 3, false).unwrap();
        let lt2 = Arc::clone(&lt);
        let writer = std::thread::spawn(move || lt2.acquire(2, 3, true, Duration::from_secs(5)));
        // Wait until the writer is queued.
        while lt.stats().waiters == 0 {
            std::thread::yield_now();
        }
        // A new reader must not overtake the queued writer.
        assert!(matches!(
            lt.try_acquire(4, 3, false),
            Err(LockError::Busy { .. })
        ));
        lt.release_all(1);
        writer.join().unwrap().unwrap();
        assert!(matches!(
            lt.try_acquire(4, 3, false),
            Err(LockError::Busy { .. })
        ));
        lt.release_all(2);
        lt.try_acquire(4, 3, false).unwrap();
    }

    #[test]
    fn timeout_fires_and_leaves_a_clean_queue() {
        let lt = LockTable::new();
        lt.try_acquire(1, 5, true).unwrap();
        let t0 = Instant::now();
        assert_eq!(lt.acquire(2, 5, true, T), Err(LockError::Timeout));
        assert!(t0.elapsed() >= T);
        assert_eq!(lt.stats().waiters, 0);
        lt.release_all(1);
        lt.try_acquire(2, 5, true).unwrap();
    }

    #[test]
    fn deadlock_picks_the_youngest_victim() {
        let lt = Arc::new(LockTable::new());
        lt.try_acquire(1, 100, true).unwrap();
        lt.try_acquire(2, 200, true).unwrap();
        let lt2 = Arc::clone(&lt);
        // Txn 1 (older) waits for key 200 held by txn 2.
        let older = std::thread::spawn(move || lt2.acquire(1, 200, true, Duration::from_secs(10)));
        while lt.stats().waiters == 0 {
            std::thread::yield_now();
        }
        // Txn 2 closing the cycle is the youngest: it gets the abort.
        assert_eq!(
            lt.acquire(2, 100, true, Duration::from_secs(10)),
            Err(LockError::Deadlock)
        );
        lt.release_all(2);
        older.join().unwrap().unwrap();
        lt.release_all(1);
    }

    #[test]
    fn injected_fault_surfaces_as_injected() {
        // The failpoint is process-wide and the other tests here do not
        // take its lock: key it to a lock key no other test uses.
        const KEY: u64 = 0xFA17;
        let _fp = tml_store::failpoint::ScopedFailpoints::new(&[(
            "lock.acquire",
            tml_store::failpoint::FailSpec::always(tml_store::failpoint::Action::Io).for_key(KEY),
        )]);
        let lt = LockTable::new();
        assert_eq!(lt.try_acquire(1, KEY, true), Err(LockError::Injected));
        assert_eq!(
            lt.acquire(1, KEY, true, Duration::from_millis(10)),
            Err(LockError::Injected)
        );
    }

    #[test]
    fn deadlock_victim_comes_from_the_cycle_not_the_queue() {
        let lt = Arc::new(LockTable::new());
        lt.try_acquire(1, 10, true).unwrap();
        lt.try_acquire(2, 20, true).unwrap();
        // Bystander: youngest txn id, holds nothing, queued shared
        // behind holder 1.
        let lt9 = Arc::clone(&lt);
        let bystander =
            std::thread::spawn(move || lt9.acquire(9, 10, false, Duration::from_secs(10)));
        while lt.stats().waiters < 1 {
            std::thread::yield_now();
        }
        let lt2 = Arc::clone(&lt);
        let inner = std::thread::spawn(move || {
            let r = lt2.acquire(2, 10, false, Duration::from_secs(10));
            lt2.release_all(2);
            r
        });
        while lt.stats().waiters < 2 {
            std::thread::yield_now();
        }
        // 1 closes the 1 <-> 2 cycle. Its youngest member is 2; txn 9,
        // younger still but outside the cycle (shared behind shared is
        // not a wait-for edge), must not be condemned in its place.
        lt.acquire(1, 20, false, Duration::from_secs(10)).unwrap();
        assert_eq!(inner.join().unwrap(), Err(LockError::Deadlock));
        lt.release_all(1);
        bystander.join().unwrap().unwrap();
        lt.release_all(9);
    }

    #[test]
    fn retry_with_backoff_eventually_wins() {
        let lt = Arc::new(LockTable::new());
        lt.try_acquire(1, 6, true).unwrap();
        let lt2 = Arc::clone(&lt);
        let holder = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(120));
            lt2.release_all(1);
        });
        let opts = LockOptions {
            timeout: Duration::from_millis(40),
            retries: 8,
            backoff: Duration::from_millis(5),
        };
        lt.acquire_with_retry(2, 6, true, &opts).unwrap();
        holder.join().unwrap();
    }
}
