//! Crash-recovery matrix for the transaction layer.
//!
//! The contract under test: after a crash at any point of the
//! transaction lifecycle — mid-transaction, before the commit marker,
//! mid-rollback — reopening the image recovers **byte-identically** the
//! state an explicit, successful resolution of the same transactions
//! would have produced: committed transactions present, losers rolled
//! back (at recovery time, through the same undo records), version
//! counters and all.
//!
//! Crash points come from the seeded failpoint matrix (`txn.commit`,
//! `txn.abort`, `lock.acquire`; `TML_FAULT_SEED` varies the scripts in
//! CI) plus plain mid-flight drops. Every scenario is deterministic.
//!
//! Several tests arm process-wide failpoints (`txn.abort` among them), so
//! every test in this binary holds the `ScopedFailpoints` lock for its
//! whole body (armed or not) and arms its faults under it: none can run
//! inside another's fault window.

use std::path::{Path, PathBuf};

use tml_core::Oid;
use tml_store::failpoint::{self, Action, FailSpec, ScopedFailpoints};
use tml_store::{snapshot, DurableOptions, DurableStore, Object, SVal, StoreAccess, StoreError};
use tml_txn::txn::oid_key;
use tml_txn::{Client, ErrCode, ServerOptions, TxnManager, TxnOptions, TxnView, Value};

mod common;

const SLOTS: usize = 6;

/// A function worth promoting: `geom.abs` calls three small helpers.
const GEOM_SRC: &str = "
module complex export new, x, y
let new(a: Real, b: Real): Tuple = tuple(a, b)
let x(c: Tuple): Real = c.0
let y(c: Tuple): Real = c.1
end
module geom export abs
let abs(c: Tuple): Real =
  real.sqrt(complex.x(c) * complex.x(c) + complex.y(c) * complex.y(c))
end";

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tml_txnrec_{}_{}", name, std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn fault_seed(default: u64) -> u64 {
    std::env::var("TML_FAULT_SEED")
        .ok()
        .and_then(|s| s.parse::<u64>().ok())
        .unwrap_or(default)
}

/// A fresh image with `SLOTS` int-tuple objects rooted `slot{i}`,
/// checkpointed so recovery replays only transaction traffic.
fn setup(path: &Path) -> (DurableStore, Vec<Oid>) {
    let mut d = DurableStore::create(path, DurableOptions::default()).unwrap();
    let slots: Vec<Oid> = (0..SLOTS)
        .map(|i| {
            let oid = d.alloc(Object::Tuple(vec![SVal::Int(0)])).unwrap();
            d.set_root(&format!("slot{i}"), oid).unwrap();
            oid
        })
        .collect();
    d.commit().unwrap();
    d.checkpoint().unwrap();
    (d, slots)
}

fn put(
    mgr: &TxnManager,
    d: &mut DurableStore,
    txn: &mut tml_txn::Txn,
    oid: Oid,
    v: i64,
) -> Result<(), StoreError> {
    let locks = std::sync::Arc::clone(mgr.locks());
    let mut view = TxnView::new(d, txn, &locks);
    view.set(oid, Object::Tuple(vec![SVal::Int(v)]))
}

fn recovered(path: &Path) -> (Vec<u8>, tml_store::durable::OpenReport) {
    let (d, report) = DurableStore::open(path, DurableOptions::default()).unwrap();
    (snapshot::to_bytes(d.store()), report)
}

fn slot_value(path: &Path, i: usize) -> i64 {
    let (d, _) = DurableStore::open(path, DurableOptions::default()).unwrap();
    let oid = StoreAccess::root(&d, &format!("slot{i}")).unwrap();
    let Object::Tuple(items) = d.get(oid).unwrap() else {
        panic!("expected tuple");
    };
    let SVal::Int(v) = items[0] else {
        panic!("expected int")
    };
    v
}

/// Two interleaved transactions; one commits, the other is in flight at
/// the crash. Recovery must equal the reference run in which the loser
/// was explicitly aborted at the same point — byte-for-byte.
#[test]
fn interleaved_loser_recovers_byte_identical_to_explicit_abort() {
    // The seed varies how much of the loser's work is in the committed
    // prefix (1..=3 ops), so CI's seed matrix walks distinct scripts.
    let _fp = ScopedFailpoints::new(&[]);
    let loser_ops = 1 + (fault_seed(0) % 3) as i64;

    let run = |explicit_abort: bool| -> (PathBuf, PathBuf) {
        let dir = tmpdir(if explicit_abort { "ref" } else { "crash" });
        let path = dir.join("db.img");
        let (mut d, slots) = setup(&path);
        let mgr = TxnManager::new(TxnOptions::default());
        let mut t1 = mgr.begin(&mut d);
        let mut t2 = mgr.begin(&mut d);

        put(&mgr, &mut d, &mut t1, slots[0], 10).unwrap();
        for k in 0..loser_ops {
            put(&mgr, &mut d, &mut t2, slots[1 + k as usize], 100 + k).unwrap();
        }
        put(&mgr, &mut d, &mut t1, slots[4], 40).unwrap();
        // t1's commit marker lands after every t2 op, putting t2's whole
        // trail inside the committed prefix.
        mgr.commit(&mut d, t1).unwrap();

        if explicit_abort {
            mgr.abort(&mut d, t2).unwrap();
        }
        drop(d); // crash (or clean close — both end here)
        (dir, path)
    };

    let (crash_dir, crash_path) = run(false);
    let (ref_dir, ref_path) = run(true);

    let (crash_bytes, crash_report) = recovered(&crash_path);
    let (ref_bytes, ref_report) = recovered(&ref_path);
    assert_eq!(crash_report.losers_undone, 1, "t2 is a loser");
    assert_eq!(crash_report.loser_records, loser_ops as u64);
    assert_eq!(ref_report.losers_undone, 0, "reference resolved cleanly");
    assert_eq!(
        crash_bytes, ref_bytes,
        "recovery must equal the explicit-abort run byte-for-byte"
    );

    // Recovery healed the log; a second open replays nothing and agrees.
    let (again, report2) = recovered(&crash_path);
    assert_eq!(
        report2.losers_undone, 0,
        "heal checkpoint consumed the loser"
    );
    assert_eq!(again, crash_bytes, "recovery is idempotent");

    assert_eq!(slot_value(&crash_path, 0), 10);
    assert_eq!(slot_value(&crash_path, 1), 0, "loser work rolled back");
    assert_eq!(slot_value(&crash_path, 4), 40);

    std::fs::remove_dir_all(&crash_dir).ok();
    std::fs::remove_dir_all(&ref_dir).ok();
}

/// The `txn.commit` failpoint fires before the marker: the transaction's
/// work is never acknowledged. The failed commit rolls it back in memory
/// before releasing its locks, logging the compensation but no marker,
/// and a later committed transaction pushes that whole trail into the
/// committed prefix. Recovery finds a loser with nothing left to undo
/// and ends exactly where a run that aborted it outright does.
#[test]
fn crash_before_commit_marker_loses_the_whole_txn() {
    let _fp = ScopedFailpoints::new(&[]);
    let run = |inject: bool| -> (PathBuf, PathBuf) {
        let dir = tmpdir(if inject { "cmt_crash" } else { "cmt_ref" });
        let path = dir.join("db.img");
        let (mut d, slots) = setup(&path);
        let mgr = TxnManager::new(TxnOptions::default());

        let mut t1 = mgr.begin(&mut d);
        put(&mgr, &mut d, &mut t1, slots[0], 7).unwrap();
        put(&mgr, &mut d, &mut t1, slots[1], 8).unwrap();
        if inject {
            failpoint::arm("txn.commit", FailSpec::always(Action::Io).for_key(t1.id()));
            let err = mgr.commit(&mut d, t1).expect_err("injected commit failure");
            assert!(matches!(err, StoreError::Io(_)), "typed failure: {err}");
            failpoint::disarm_all();
            for &oid in &slots[..2] {
                let Object::Tuple(items) = d.get(oid).unwrap() else {
                    panic!("expected tuple");
                };
                assert_eq!(items[0], SVal::Int(0), "failed commit rolled back");
            }
            assert_eq!(mgr.locks().stats().holders, 0, "locks released");
        } else {
            mgr.abort(&mut d, t1).unwrap();
        }

        // An unrelated transaction commits afterwards; its marker makes
        // the loser's forward records durable parts of the prefix.
        let mut t2 = mgr.begin(&mut d);
        put(&mgr, &mut d, &mut t2, slots[2], 9).unwrap();
        mgr.commit(&mut d, t2).unwrap();
        drop(d); // crash
        (dir, path)
    };

    let (crash_dir, crash_path) = run(true);
    let (ref_dir, ref_path) = run(false);

    let (crash_bytes, crash_report) = recovered(&crash_path);
    let (ref_bytes, _) = recovered(&ref_path);
    assert_eq!(crash_report.losers_undone, 1);
    assert_eq!(
        crash_report.loser_records, 0,
        "compensated when the commit failed"
    );
    assert_eq!(
        crash_bytes, ref_bytes,
        "unacknowledged commit must recover like an abort"
    );
    assert_eq!(slot_value(&crash_path, 0), 0);
    assert_eq!(slot_value(&crash_path, 1), 0);
    assert_eq!(slot_value(&crash_path, 2), 9);

    std::fs::remove_dir_all(&crash_dir).ok();
    std::fs::remove_dir_all(&ref_dir).ok();
}

/// The `txn.abort` failpoint fires mid-rollback, leaving a partial
/// compensation trail in the log. Recovery picks up where the abort
/// stopped: replayed CLRs pop their undo entries, the rest are undone at
/// recovery time — converging on exactly the fully-aborted state.
#[test]
fn crash_mid_rollback_completes_the_abort_on_recovery() {
    let _fp = ScopedFailpoints::new(&[]);
    // Fail after 0, 1 or 2 CLRs depending on the CI seed.
    let clrs_before_crash = fault_seed(1) % 3;

    let run = |inject: bool| -> (PathBuf, PathBuf) {
        let tag = if inject { "abt_crash" } else { "abt_ref" };
        let dir = tmpdir(&format!("{tag}_{clrs_before_crash}"));
        let path = dir.join("db.img");
        let (mut d, slots) = setup(&path);
        let mgr = TxnManager::new(TxnOptions::default());

        let mut t1 = mgr.begin(&mut d);
        put(&mgr, &mut d, &mut t1, slots[0], 70).unwrap();
        put(&mgr, &mut d, &mut t1, slots[1], 71).unwrap();
        put(&mgr, &mut d, &mut t1, slots[2], 72).unwrap();
        if inject {
            let mut spec = FailSpec::always(Action::Io).for_key(t1.id());
            spec.after = clrs_before_crash;
            failpoint::arm("txn.abort", spec);
            mgr.abort(&mut d, t1).expect_err("injected abort failure");
            failpoint::disarm_all();
        } else {
            mgr.abort(&mut d, t1).unwrap();
        }

        let mut t2 = mgr.begin(&mut d);
        put(&mgr, &mut d, &mut t2, slots[3], 73).unwrap();
        mgr.commit(&mut d, t2).unwrap();
        drop(d); // crash
        (dir, path)
    };

    let (crash_dir, crash_path) = run(true);
    let (ref_dir, ref_path) = run(false);

    let (crash_bytes, crash_report) = recovered(&crash_path);
    let (ref_bytes, _) = recovered(&ref_path);
    assert_eq!(crash_report.losers_undone, 1);
    assert_eq!(
        crash_report.loser_records,
        3 - clrs_before_crash,
        "recovery undoes exactly the steps the crashed abort did not log"
    );
    assert_eq!(
        crash_bytes, ref_bytes,
        "partial compensation trail must converge on the aborted state"
    );
    for i in 0..3 {
        assert_eq!(slot_value(&crash_path, i), 0, "slot{i} rolled back");
    }
    assert_eq!(slot_value(&crash_path, 3), 73);

    std::fs::remove_dir_all(&crash_dir).ok();
    std::fs::remove_dir_all(&ref_dir).ok();
}

/// A crash during a tier hot-swap. The promotion's store mutations ride
/// an ordinary transaction, so a crash before its commit marker makes
/// the swap a loser: recovery must restore the closure, its PTML
/// reference and the tier bookkeeping byte-identically to a run that
/// explicitly aborted the swap — the promoted code simply never
/// happened.
#[test]
fn crash_during_tier_swap_recovers_the_pre_swap_closure() {
    use tml_core::Registry;
    use tml_lang::{Session, SessionConfig};
    use tml_reflect::tier::{self, TierOptions};

    let _fp = ScopedFailpoints::new(&[]);
    // The seed picks the crash point: even = the process dies with the
    // swap transaction still in flight, odd = the `txn.commit` failpoint
    // fires before the marker.
    let fail_commit = fault_seed(1) % 2 == 1;

    #[derive(PartialEq, Clone, Copy)]
    enum Mode {
        Crash,
        ExplicitAbort,
    }

    let run = |mode: Mode| -> (PathBuf, PathBuf, Oid, Oid) {
        let tag = match mode {
            Mode::Crash => "swap_crash",
            Mode::ExplicitAbort => "swap_ref",
        };
        let dir = tmpdir(tag);
        let path = dir.join("db.img");
        let ds = DurableStore::create(&path, DurableOptions::default()).unwrap();
        let mut sess = Session::on_store(ds, SessionConfig::default(), Registry::standard())
            .expect("durable session");
        sess.load_str(GEOM_SRC).unwrap();
        sess.store.commit().unwrap();
        sess.store.checkpoint().unwrap();

        let SVal::Ref(oid) = *sess.global("geom.abs").unwrap() else {
            panic!("expected closure global");
        };
        let Object::Closure(clo) = sess.store.get(oid).unwrap() else {
            panic!("expected closure");
        };
        let orig_ptml = clo.ptml.unwrap();

        let p = tier::prepare_promotion(&mut sess, oid, &TierOptions::default()).unwrap();
        let mgr = TxnManager::new(TxnOptions::default());
        let mut t = mgr.begin(&mut sess.store);
        {
            let locks = std::sync::Arc::clone(mgr.locks());
            let mut view = TxnView::new(&mut sess.store, &mut t, &locks);
            tier::apply_promotion(&mut view, &p).unwrap();
        }
        match mode {
            Mode::Crash if fail_commit => {
                failpoint::arm("txn.commit", FailSpec::always(Action::Io).for_key(t.id()));
                let err = mgr
                    .commit(&mut sess.store, t)
                    .expect_err("injected commit failure");
                assert!(matches!(err, StoreError::Io(_)), "typed failure: {err}");
                failpoint::disarm_all();
            }
            Mode::Crash => drop(t), // still in flight at the crash
            Mode::ExplicitAbort => mgr.abort(&mut sess.store, t).unwrap(),
        }

        // An unrelated committed mutation pushes the swap's trail into
        // the committed prefix.
        let extra = sess.store.alloc(Object::Tuple(vec![SVal::Int(9)])).unwrap();
        sess.store.set_root("bystander", extra).unwrap();
        sess.store.commit().unwrap();
        drop(sess); // crash
        (dir, path, oid, orig_ptml)
    };

    let (crash_dir, crash_path, oid, orig_ptml) = run(Mode::Crash);
    let (ref_dir, ref_path, ref_oid, ref_ptml) = run(Mode::ExplicitAbort);
    assert_eq!(oid, ref_oid, "deterministic setup");
    assert_eq!(orig_ptml, ref_ptml);

    let (crash_bytes, crash_report) = recovered(&crash_path);
    let (ref_bytes, ref_report) = recovered(&ref_path);
    assert_eq!(crash_report.losers_undone, 1, "the swap txn is a loser");
    assert_eq!(ref_report.losers_undone, 0, "reference resolved cleanly");
    assert_eq!(
        crash_bytes, ref_bytes,
        "crashed swap must recover byte-identically to an aborted swap"
    );

    // The closure is exactly its pre-swap self.
    let (d, _) = DurableStore::open(&crash_path, DurableOptions::default()).unwrap();
    let Object::Closure(clo) = d.get(oid).unwrap() else {
        panic!("expected closure");
    };
    assert_eq!(clo.ptml, Some(orig_ptml), "pre-swap PTML reference intact");
    assert_eq!(d.attr(oid, "tier"), None, "tier attribute rolled back");
    assert_eq!(
        StoreAccess::root(&d, &tier::prev_root(oid)),
        None,
        "no provenance root survives the rollback"
    );
    assert_eq!(tier::totals(&d).swaps, 0, "totals rolled back");
    drop(d);

    std::fs::remove_dir_all(&crash_dir).ok();
    std::fs::remove_dir_all(&ref_dir).ok();
}

/// An injected lock-acquisition fault surfaces as a typed abort; the
/// transaction rolls back cleanly and the lock table ends empty.
#[test]
fn injected_lock_fault_aborts_cleanly() {
    let _fp = ScopedFailpoints::new(&[]);
    let dir = tmpdir("lockfault");
    let path = dir.join("db.img");
    let (mut d, slots) = setup(&path);
    let mgr = TxnManager::new(TxnOptions::default());

    let mut t1 = mgr.begin(&mut d);
    put(&mgr, &mut d, &mut t1, slots[0], 5).unwrap();
    failpoint::arm(
        "lock.acquire",
        FailSpec::always(Action::Io).for_key(oid_key(slots[1])),
    );
    let err = put(&mgr, &mut d, &mut t1, slots[1], 6).expect_err("injected lock fault");
    failpoint::disarm_all();
    assert!(
        matches!(err, StoreError::Aborted { .. }),
        "typed, retryable abort: {err}"
    );
    mgr.abort(&mut d, t1).unwrap();

    let stats = mgr.locks().stats();
    assert_eq!(stats.holders, 0, "no locks survive the abort");
    assert_eq!(stats.waiters, 0);
    for (i, &oid) in slots.iter().enumerate() {
        let Object::Tuple(items) = d.get(oid).unwrap() else {
            panic!("expected tuple");
        };
        assert_eq!(items[0], SVal::Int(0), "slot{i} back to pre-txn state");
    }
    drop(d);
    std::fs::remove_dir_all(&dir).ok();
}

/// Transactions pin the log: auto-checkpoints defer and explicit
/// checkpoints are refused while a transaction is open, so an undo trail
/// can never be consolidated away mid-flight.
#[test]
fn open_transactions_block_checkpoints() {
    let _fp = ScopedFailpoints::new(&[]);
    let dir = tmpdir("pin");
    let path = dir.join("db.img");
    let (mut d, slots) = setup(&path);
    let mgr = TxnManager::new(TxnOptions::default());

    let mut t1 = mgr.begin(&mut d);
    put(&mgr, &mut d, &mut t1, slots[0], 1).unwrap();
    assert!(
        d.checkpoint().is_err(),
        "checkpoint must refuse while a transaction is open"
    );
    mgr.commit(&mut d, t1).unwrap();
    d.checkpoint().expect("checkpoint fine after resolution");
    drop(d);
    std::fs::remove_dir_all(&dir).ok();
}

/// A tier swap whose commit fails before its marker (the `txn.commit`
/// failpoint) is rolled back at once: the closure keeps its baseline
/// link, PTML and attributes in memory, and closing the image — which
/// checkpoints — cannot make the swap durable.
#[test]
fn a_promotion_whose_commit_fails_is_rolled_back() {
    use tml_core::Registry;
    use tml_lang::{Session, SessionConfig};
    use tml_reflect::tier::{self, TierOptions};

    let _fp = ScopedFailpoints::new(&[]);
    let dir = tmpdir("promote_fail");
    let path = dir.join("db.img");
    let ds = DurableStore::create(&path, DurableOptions::default()).unwrap();
    let mut sess = Session::on_store(ds, SessionConfig::default(), Registry::standard()).unwrap();
    sess.load_str(GEOM_SRC).unwrap();
    sess.store.commit().unwrap();
    let SVal::Ref(oid) = *sess.global("geom.abs").unwrap() else {
        panic!("expected closure global");
    };
    let ptml_of = |store: &DurableStore| match store.get(oid) {
        Ok(Object::Closure(c)) => c.ptml,
        other => panic!("{other:?}"),
    };
    let (block, ptml) = (sess.vm.code.linked_block(oid), ptml_of(&sess.store));

    let p = tier::prepare_promotion(&mut sess, oid, &TierOptions::default()).unwrap();
    let mgr = TxnManager::new(TxnOptions::default());
    failpoint::arm("txn.commit", FailSpec::always(Action::Io));
    let err = tml_txn::server::promote(&mut sess, &mgr, &p).expect_err("injected commit failure");
    failpoint::disarm_all();
    assert!(matches!(err, StoreError::Io(_)), "typed failure: {err}");

    assert_eq!(sess.vm.code.linked_block(oid), block, "baseline link");
    assert_eq!(ptml_of(&sess.store), ptml, "baseline PTML in memory");
    assert_eq!(sess.store.attr(oid, "tier"), None);
    assert_eq!(StoreAccess::root(&sess.store, &tier::prev_root(oid)), None);
    assert_eq!(tier::totals(&sess.store).swaps, 0);
    assert_eq!(mgr.locks().stats().holders, 0, "locks released");
    sess.store.checkpoint().unwrap(); // close
    drop(sess);

    let (d, _) = DurableStore::open(&path, DurableOptions::default()).unwrap();
    assert_eq!(ptml_of(&d), ptml, "baseline PTML after reopen");
    assert_eq!(d.attr(oid, "tier"), None, "no tier attribute");
    assert_eq!(StoreAccess::root(&d, &tier::prev_root(oid)), None);
    assert_eq!(tier::totals(&d).swaps, 0, "no swap recorded");
    drop(d);
    std::fs::remove_dir_all(&dir).ok();
}

/// A client transaction whose commit fails before its marker leaves
/// nothing behind: the next transaction reads the old value, a closure
/// it shipped is no longer bound, and after shutdown (which checkpoints)
/// the reopened image holds none of its writes.
#[test]
fn a_client_commit_that_fails_leaves_no_write() {
    let _fp = ScopedFailpoints::new(&[]);
    let dir = common::TempDir::new("cmt_client");
    let server = common::start_server(
        &dir.image(),
        ServerOptions {
            addr: "127.0.0.1:0".into(),
            ..ServerOptions::default()
        },
    );
    let ptml = common::author_bump_ptml();
    let mut c = Client::connect(server.addr).expect("connect");
    c.ship("work.bump", &ptml).expect("ship");

    failpoint::arm("txn.commit", FailSpec::always(Action::Io));
    let failed = c.transact(0, |c| {
        c.ship("work.extra", &ptml)?;
        c.call("work.bump", &[Value::Int(0), Value::Int(5)])
    });
    failpoint::disarm_all();
    let err = failed.expect_err("injected commit failure");
    assert!(err.to_string().contains("commit failed"), "{err}");

    let unbound = c.call("work.extra", &[Value::Int(1), Value::Int(1)]);
    assert!(
        matches!(
            unbound,
            Err(tml_txn::client::ClientError::Server {
                code: ErrCode::Unresolved,
                ..
            })
        ),
        "the shipped closure went with its transaction: {unbound:?}"
    );
    let v = c
        .call("work.bump", &[Value::Int(0), Value::Int(1)])
        .expect("bump");
    assert_eq!(v, Value::Int(1), "the failed write is gone");
    c.shutdown().expect("shutdown");
    server.join().expect("server ran clean");

    assert_eq!(common::read_slots(&dir.image())[0], 1);
    let (ds, _) = DurableStore::open(dir.image(), DurableOptions::default()).expect("reopen");
    assert_eq!(StoreAccess::root(&ds, "work.extra"), None);
}
