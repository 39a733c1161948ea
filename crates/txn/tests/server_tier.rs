//! End-to-end tiered execution against a live server: the background
//! re-optimizer thread samples the shipped closure's invocation
//! counters, hot-swaps it mid-workload inside its own transaction, and
//! the client never observes anything but correct results. After
//! shutdown the image records the swap (totals root, tier attributes,
//! persisted counters).

mod common;

use std::time::Duration;

use common::{author_bump_ptml, read_slots, start_server, TempDir};
use tml_core::Registry;
use tml_lang::{Session, SessionConfig};
use tml_reflect::tier::{self, TierOptions};
use tml_store::{DurableOptions, DurableStore, Object, SVal, StoreAccess, StoreError};
use tml_txn::server::promote;
use tml_txn::{Client, ServerOptions, TierSettings, TxnManager, TxnOptions, TxnView, Value};
use tml_vm::RVal;

fn opts() -> ServerOptions {
    ServerOptions {
        addr: "127.0.0.1:0".into(),
        tier: Some(TierSettings {
            threshold: 8,
            interval: Duration::from_millis(10),
        }),
        ..ServerOptions::default()
    }
}

#[test]
fn background_reoptimizer_swaps_a_hot_closure_mid_workload() {
    let dir = TempDir::new("tier");
    let server = start_server(&dir.image(), opts());
    let mut c = Client::connect(server.addr).expect("connect");
    let ptml = author_bump_ptml();
    c.ship("work.bump", &ptml).expect("ship");

    // Drive the closure past the threshold. Each call is its own
    // autocommit transaction, so the executor is free to run ticks
    // between requests.
    let mut expect = 0i64;
    for k in 0..20 {
        expect += k;
        let v = c
            .call("work.bump", &[Value::Int(0), Value::Int(k)])
            .expect("bump");
        assert_eq!(v, Value::Int(expect), "pre-swap call {k}");
    }
    // Several tick intervals: the sampler sees the hot closure and the
    // swap transaction commits while the session idles.
    std::thread::sleep(Duration::from_millis(200));

    // Post-swap calls land on the promoted closure — same answers.
    for k in 0..10 {
        expect += k;
        let v = c
            .call("work.bump", &[Value::Int(0), Value::Int(k)])
            .expect("bump");
        assert_eq!(v, Value::Int(expect), "post-swap call {k}");
    }
    c.bye().expect("bye");

    let mut c = Client::connect(server.addr).expect("reconnect");
    c.shutdown().expect("shutdown");
    server.join().expect("server ran clean");

    // The committed image records the tier activity: at least one swap
    // (the closure's deps include the bumped array, so later ticks may
    // legitimately deopt and re-promote — totals only grow).
    let (ds, report) = DurableStore::open(dir.image(), DurableOptions::default()).expect("reopen");
    assert!(!report.stale_log);
    assert!(
        tier::totals(&ds).swaps >= 1,
        "expected at least one hot-swap, totals = {:?}",
        tier::totals(&ds)
    );
    let clo = StoreAccess::root(&ds, "work.bump").expect("shipped root");
    assert!(
        matches!(ds.get(clo), Ok(Object::Closure(_))),
        "work.bump is still a closure"
    );
    assert!(
        ds.attr(clo, "tier.calls").unwrap_or(0) > 0,
        "invocation counters persisted at shutdown"
    );

    // And the data is exactly what the calls produced.
    let slots = read_slots(&dir.image());
    assert_eq!(slots[0], expect, "slot sum survives the swaps");
}

/// With tiering disabled (the library default), the same workload
/// records no tier activity at all.
#[test]
fn tier_off_leaves_no_tier_state() {
    let dir = TempDir::new("tieroff");
    let server = start_server(
        &dir.image(),
        ServerOptions {
            addr: "127.0.0.1:0".into(),
            ..ServerOptions::default()
        },
    );
    let mut c = Client::connect(server.addr).expect("connect");
    c.ship("work.bump", &author_bump_ptml()).expect("ship");
    for k in 0..20 {
        c.call("work.bump", &[Value::Int(1), Value::Int(k)])
            .expect("bump");
    }
    std::thread::sleep(Duration::from_millis(50));
    c.shutdown().expect("shutdown");
    server.join().expect("server ran clean");

    let (ds, _) = DurableStore::open(dir.image(), DurableOptions::default()).expect("reopen");
    assert_eq!(
        tier::totals(&ds),
        tier::TierTotals::default(),
        "no swaps without a tier engine"
    );
    let clo = StoreAccess::root(&ds, "work.bump").expect("shipped root");
    assert_eq!(ds.attr(clo, "tier"), None);
    // Counters still persist — hotness must survive even if the engine
    // is only enabled on a later start.
    assert!(ds.attr(clo, "tier.calls").unwrap_or(0) >= 20);
}

/// The server's swap step links the hot block only after the swap's
/// transaction commits. A swap that cannot take the closure's lock (a
/// client transaction holds it) aborts, and the closure keeps its
/// baseline block and PTML: the next call runs the same code.
#[test]
fn a_swap_blocked_by_a_client_lock_leaves_the_baseline_code() {
    let dir = TempDir::new("tierlock");
    let ds = DurableStore::create(dir.image(), DurableOptions::default()).expect("create");
    let mut sess = Session::on_store(ds, SessionConfig::default(), Registry::standard()).unwrap();
    sess.load_str(
        "module complex export new, x, y\n\
         let new(a: Real, b: Real): Tuple = tuple(a, b)\n\
         let x(c: Tuple): Real = c.0\n\
         let y(c: Tuple): Real = c.1\n\
         end\n\
         module geom export abs\n\
         let abs(c: Tuple): Real =\n\
           real.sqrt(complex.x(c) * complex.x(c) + complex.y(c) * complex.y(c))\n\
         end",
    )
    .unwrap();
    sess.store.commit().unwrap();
    let SVal::Ref(oid) = *sess.global("geom.abs").unwrap() else {
        panic!("geom.abs is not a closure");
    };
    let ptml_of = |sess: &Session<DurableStore>| match sess.store.get(oid) {
        Ok(Object::Closure(c)) => c.ptml,
        other => panic!("{other:?}"),
    };
    let c = sess
        .call("complex.new", vec![RVal::Real(3.0), RVal::Real(4.0)])
        .unwrap()
        .result;
    let baseline = sess.call("geom.abs", vec![c.clone()]).unwrap();
    let (block, ptml) = (sess.vm.code.linked_block(oid), ptml_of(&sess));

    let mgr = TxnManager::new(TxnOptions::default());
    let p = tier::prepare_promotion(&mut sess, oid, &TierOptions::default()).unwrap();
    let mut client = mgr.begin(&mut sess.store);
    TxnView::new(&mut sess.store, &mut client, mgr.locks())
        .get(oid)
        .expect("client reads the closure");
    let err = promote(&mut sess, &mgr, &p).expect_err("the client holds the lock");
    assert!(matches!(err, StoreError::Busy { .. }), "{err}");
    mgr.abort(&mut sess.store, client).unwrap();

    assert_eq!(sess.vm.code.linked_block(oid), block, "link moved");
    assert_eq!(ptml_of(&sess), ptml, "swap not rolled back");
    assert_eq!(sess.store.attr(oid, "tier"), None);
    let again = sess.call("geom.abs", vec![c.clone()]).unwrap();
    assert_eq!(again.result, baseline.result);
    assert_eq!(
        again.stats.instrs, baseline.stats.instrs,
        "baseline code ran"
    );

    // With the lock free, the same promotion commits and links.
    promote(&mut sess, &mgr, &p).unwrap();
    assert_eq!(sess.vm.code.linked_block(oid), Some(p.block));
    assert_eq!(ptml_of(&sess), Some(p.ptml));
    let hot = sess.call("geom.abs", vec![c]).unwrap();
    assert_eq!(hot.result, baseline.result);
    assert!(hot.stats.instrs < baseline.stats.instrs);
}
