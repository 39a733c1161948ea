//! End-to-end server tests: ship → relink → execute inside transactions,
//! explicit commit/abort semantics, optimize, graceful shutdown, and
//! durability of exactly the committed work.

mod common;

use common::{author_bump_ptml, read_slots, start_server, start_server_with, TempDir};
use tml_store::{ClosureObj, Object, SVal};
use tml_txn::client::ClientError;
use tml_txn::wire::{ErrCode, Value};
use tml_txn::{Client, ServerOptions};

fn opts() -> ServerOptions {
    ServerOptions {
        addr: "127.0.0.1:0".into(),
        ..ServerOptions::default()
    }
}

#[test]
fn ship_call_commit_abort_and_shutdown() {
    let dir = TempDir::new("basic");
    let server = start_server(&dir.image(), opts());
    let ptml = author_bump_ptml();

    let mut c = Client::connect(server.addr).expect("connect");
    c.ping().expect("ping");

    // Ship installs the function durably (autocommit transaction).
    c.ship("work.bump", &ptml).expect("ship");

    // Autocommit call: effect survives.
    let v = c
        .call("work.bump", &[Value::Int(0), Value::Int(5)])
        .expect("bump");
    assert_eq!(v, Value::Int(5));

    // Explicit transaction, committed: effect survives.
    c.begin().expect("begin");
    let v = c
        .call("work.bump", &[Value::Int(0), Value::Int(2)])
        .expect("bump in txn");
    assert_eq!(v, Value::Int(7));
    c.commit().expect("commit");

    // Explicit transaction, aborted: effect rolled back.
    c.begin().expect("begin");
    let v = c
        .call("work.bump", &[Value::Int(0), Value::Int(100)])
        .expect("bump in doomed txn");
    assert_eq!(v, Value::Int(107));
    c.abort().expect("abort");
    let v = c
        .call("work.bump", &[Value::Int(0), Value::Int(0)])
        .expect("read back");
    assert_eq!(v, Value::Int(7), "aborted bump must not stick");

    // Unknown global is a typed error, not a dead session.
    let e = c.call("no.such", &[]).expect_err("unknown global");
    assert!(matches!(
        e,
        tml_txn::client::ClientError::Server {
            code: ErrCode::Unresolved,
            ..
        }
    ));
    c.ping().expect("session still alive");

    // Server-side reflective optimization of the shipped function.
    c.optimize("work.bump").expect("optimize");
    let v = c
        .call("work.bump", &[Value::Int(1), Value::Int(3)])
        .expect("optimized bump");
    assert_eq!(v, Value::Int(3));

    c.bye().expect("bye");

    // Graceful shutdown drains and checkpoints.
    let mut c = Client::connect(server.addr).expect("connect for shutdown");
    c.shutdown().expect("shutdown");
    server.join().expect("clean server exit");

    // The committed state — and nothing else — is on disk.
    let slots = read_slots(&dir.image());
    assert_eq!(slots[0], 7);
    assert_eq!(slots[1], 3);
    assert!(slots[2..].iter().all(|&v| v == 0));
}

#[test]
fn a_call_of_a_closure_that_cannot_link_is_an_error_response() {
    // A stored closure whose PTML body is cut short behind a sound header
    // links at its first call, which fails: the call gets an error
    // response naming the closure, and the connection carries on.
    let dir = TempDir::new("nolink");
    let mut broken = author_bump_ptml();
    broken.truncate(broken.len() - 1);
    let (tx, rx) = std::sync::mpsc::channel();
    let server = start_server_with(&dir.image(), opts(), move |sess| {
        let ptml = sess.store.alloc(Object::Ptml(broken)).expect("blob");
        let clo = sess
            .store
            .alloc(Object::Closure(ClosureObj {
                bindings: Vec::new(),
                ptml: Some(ptml),
            }))
            .expect("closure");
        sess.store.commit().expect("commit");
        sess.globals.insert("work.broken".into(), SVal::Ref(clo));
        tx.send(clo).expect("report the closure");
    });
    let clo = rx.recv().expect("closure installed");

    let mut c = Client::connect(server.addr).expect("connect");
    c.ship("work.bump", &author_bump_ptml()).expect("ship");
    for bumped in 1..=2 {
        match c.call("work.broken", &[Value::Int(0), Value::Int(1)]) {
            Err(ClientError::Server {
                code: ErrCode::Server,
                msg,
            }) => {
                assert!(msg.contains(&clo.to_string()), "{msg}");
                assert!(msg.contains("its PTML did not relink"), "{msg}");
            }
            other => panic!("{other:?}"),
        }
        let v = c
            .call("work.bump", &[Value::Int(0), Value::Int(1)])
            .expect("the next request succeeds");
        assert_eq!(v, Value::Int(bumped));
    }
    c.shutdown().expect("shutdown");
    server.join().expect("clean exit");
    assert_eq!(read_slots(&dir.image())[0], 2);
}

#[test]
fn transaction_protocol_errors_are_typed() {
    let dir = TempDir::new("proto");
    let server = start_server(&dir.image(), opts());

    let mut c = Client::connect(server.addr).expect("connect");
    // Commit/abort without a transaction.
    for r in [c.commit(), c.abort()] {
        let e = r.expect_err("no txn open");
        assert!(matches!(
            e,
            tml_txn::client::ClientError::Server {
                code: ErrCode::Proto,
                ..
            }
        ));
    }
    // Double begin.
    c.begin().expect("begin");
    let e = c.begin().expect_err("nested begin");
    assert!(matches!(
        e,
        tml_txn::client::ClientError::Server {
            code: ErrCode::Proto,
            ..
        }
    ));
    // Optimize inside a transaction is refused.
    let e = c.optimize("work.bump").expect_err("optimize in txn");
    assert!(matches!(
        e,
        tml_txn::client::ClientError::Server {
            code: ErrCode::Proto,
            ..
        }
    ));
    c.abort().expect("abort");

    // A session that disconnects mid-transaction is rolled back.
    let ptml = author_bump_ptml();
    c.ship("work.bump", &ptml).expect("ship");
    {
        let mut dropper = Client::connect(server.addr).expect("connect");
        dropper.begin().expect("begin");
        dropper
            .call("work.bump", &[Value::Int(4), Value::Int(9)])
            .expect("bump");
        // Drop without commit: the server aborts on EOF.
    }
    // Give the server a beat to process the disconnect.
    std::thread::sleep(std::time::Duration::from_millis(100));
    let v = c
        .call("work.bump", &[Value::Int(4), Value::Int(0)])
        .expect("read back");
    assert_eq!(v, Value::Int(0), "disconnected txn must roll back");

    let mut c2 = Client::connect(server.addr).expect("connect");
    c2.shutdown().expect("shutdown");
    server.join().expect("clean exit");
}

#[test]
fn concurrent_sessions_serialize_on_the_same_slot() {
    let dir = TempDir::new("concurrent");
    let server = start_server(&dir.image(), opts());
    let ptml = author_bump_ptml();
    {
        let mut c = Client::connect(server.addr).expect("connect");
        c.ship("work.bump", &ptml).expect("ship");
        c.bye().ok();
    }

    const WRITERS: usize = 4;
    const PER: i64 = 10;
    let addr = server.addr;
    let handles: Vec<_> = (0..WRITERS)
        .map(|_| {
            std::thread::spawn(move || {
                let mut c = Client::connect(addr).expect("connect");
                let mut acked = 0i64;
                for _ in 0..PER {
                    c.transact(16, |c| c.call("work.bump", &[Value::Int(2), Value::Int(1)]))
                        .expect("bump eventually commits");
                    acked += 1;
                }
                c.bye().ok();
                acked
            })
        })
        .collect();
    let total: i64 = handles.into_iter().map(|h| h.join().expect("writer")).sum();
    assert_eq!(total, WRITERS as i64 * PER);

    let mut c = Client::connect(addr).expect("connect");
    let v = c
        .call("work.bump", &[Value::Int(2), Value::Int(0)])
        .expect("read");
    assert_eq!(v, Value::Int(total), "no lost updates");
    c.shutdown().expect("shutdown");
    server.join().expect("clean exit");

    assert_eq!(read_slots(&dir.image())[2], total);
}
