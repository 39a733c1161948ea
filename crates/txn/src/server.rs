//! `tml-server`: N concurrent sessions over TCP against one durable
//! store.
//!
//! ## Execution model
//!
//! The `Session` is not `Send` (extension primitives are `Rc` closures),
//! so the server runs a single *executor* on the calling thread that
//! owns the session, and one lightweight thread per connection that only
//! does frame IO and lock waits. Connection threads send decoded
//! requests over a channel; the executor runs each inside the
//! connection's transaction over a [`TxnView`] and replies.
//!
//! Lock conflicts never block the executor: a [`StoreError::Busy`]
//! aborts the VM run, the executor rolls back to the request's
//! savepoint and tells the connection thread *which key* to wait for.
//! The connection thread blocks on the lock table (timeout, jittered
//! exponential backoff, deadlock detection) **outside** the executor,
//! then resends the request — the lock is already granted to its
//! transaction, so the retry proceeds. Deadlock victims and timeouts
//! get a typed `Aborted` response; the client can transparently retry
//! the whole transaction.
//!
//! ## Robustness
//!
//! Per-connection read timeouts bound idle sessions; connections past
//! `max_conns` are refused with a typed busy error (backpressure); a
//! graceful shutdown (the `Shutdown` request) stops the acceptor,
//! severs idle connections, drains in-flight requests, aborts
//! still-open transactions and checkpoints the store. The
//! `serve.read`/`serve.write` failpoints sever sessions at frame
//! boundaries for the fault matrix; an abandoned transaction is rolled
//! back exactly like an aborted one.

use std::collections::HashMap;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, Sender, SyncSender};
use std::sync::{mpsc, Arc, Mutex};
use std::time::Duration;

use tml_lang::Session;
use tml_reflect::tier::{self, TierEngine, TierOptions};
use tml_reflect::{link_ptml, optimize_value, recorded_or_global, ReflectError, ReflectOptions};
use tml_store::{ClosureObj, DurableStore, Object, SVal, StoreAccess, StoreError};
use tml_vm::{Machine, RVal, VmError};

use crate::lock::LockOptions;
use crate::txn::{Txn, TxnManager, TxnOptions, TxnView};
use crate::wire::{
    self, decode_request, encode_response, read_frame, write_frame, ErrCode, Request, Response,
    Value,
};

/// Server tuning.
#[derive(Debug, Clone)]
pub struct ServerOptions {
    /// Bind address (`127.0.0.1:0` for an ephemeral port).
    pub addr: String,
    /// Accepted connections beyond this are refused with a busy error.
    pub max_conns: usize,
    /// Per-connection read timeout (idle sessions are dropped and their
    /// transactions aborted).
    pub conn_timeout: Duration,
    /// Lock acquisition behavior for conflict waits.
    pub lock: LockOptions,
    /// Background tier re-optimization; `None` serves baseline code
    /// only. The library default is off — `tmlc serve` turns it on
    /// unless `--tier-off` is given.
    pub tier: Option<TierSettings>,
}

/// Background re-optimizer configuration for [`ServerOptions`].
#[derive(Debug, Clone, Copy)]
pub struct TierSettings {
    /// Invocation count at which a closure is promoted to the hot tier.
    pub threshold: u64,
    /// How often the re-optimizer samples the counters.
    pub interval: Duration,
}

impl Default for TierSettings {
    fn default() -> Self {
        TierSettings {
            threshold: 1000,
            interval: Duration::from_millis(25),
        }
    }
}

impl Default for ServerOptions {
    fn default() -> Self {
        ServerOptions {
            addr: "127.0.0.1:0".into(),
            max_conns: 64,
            conn_timeout: Duration::from_secs(30),
            lock: LockOptions::default(),
            tier: None,
        }
    }
}

/// What the executor tells a connection thread to do next.
enum Reply {
    /// Final response: forward to the client.
    Done(Response),
    /// The request hit a lock conflict: wait for `key` (mode per
    /// `exclusive`) as transaction `txn`, then resend the request.
    Wait { txn: u64, key: u64, exclusive: bool },
}

/// Work items the executor drains from its single channel.
enum Op {
    /// A decoded client request from a connection thread.
    Client {
        conn: u64,
        req: Request,
        /// `None` for fire-and-forget cleanup (connection closed).
        reply: Option<SyncSender<Reply>>,
    },
    /// The background ticker asking for one re-optimizer pass. Running
    /// ticks on the executor keeps the session single-threaded: swaps
    /// interleave with client requests at request granularity, never
    /// inside one.
    TierTick,
}

/// Per-connection transaction state, owned by the executor.
#[derive(Default)]
struct ConnState {
    txn: Option<Txn>,
    /// `true` when the client opened the transaction with `Begin` (it
    /// ends only on its `Commit`/`Abort`); `false` for per-request
    /// autocommit transactions.
    explicit: bool,
    /// Globals installed by `Ship` inside the open transaction, with
    /// their previous values — undone on abort.
    pending_globals: Vec<(String, Option<SVal>)>,
}

/// The multi-session transaction server.
pub struct Server {
    listener: TcpListener,
    addr: SocketAddr,
    opts: ServerOptions,
    shutdown: Arc<AtomicBool>,
}

impl Server {
    /// Bind the listening socket (the address is final after this — use
    /// [`Server::local_addr`] before [`Server::run`]).
    pub fn bind(opts: ServerOptions) -> io::Result<Server> {
        let listener = TcpListener::bind(&opts.addr)?;
        let addr = listener.local_addr()?;
        Ok(Server {
            listener,
            addr,
            opts,
            shutdown: Arc::new(AtomicBool::new(false)),
        })
    }

    /// The bound address.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// A flag that stops the accept loop when set (the `Shutdown`
    /// request sets it too).
    pub fn shutdown_flag(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.shutdown)
    }

    /// Serve until shutdown. Blocks the calling thread (it becomes the
    /// executor). On return the store is drained: open transactions
    /// aborted, a final commit + checkpoint taken.
    pub fn run(self, mut sess: Session<DurableStore>) -> io::Result<()> {
        let mgr = Arc::new(TxnManager::new(TxnOptions {
            lock: self.opts.lock,
        }));
        let (tx, rx): (Sender<Op>, Receiver<Op>) = mpsc::channel();
        let shutdown = Arc::clone(&self.shutdown);
        let conns: Arc<Mutex<HashMap<u64, TcpStream>>> = Arc::new(Mutex::new(HashMap::new()));
        let active = Arc::new(AtomicUsize::new(0));
        let next_conn = Arc::new(AtomicU64::new(1));

        // Background re-optimizer: a ticker thread that only sends
        // `TierTick` marks; the engine itself runs on the executor.
        let mut engine = self.opts.tier.map(|t| {
            TierEngine::new(TierOptions {
                threshold: t.threshold,
                ..TierOptions::default()
            })
        });
        let ticker = self.opts.tier.map(|t| {
            let tx = tx.clone();
            let shutdown = Arc::clone(&shutdown);
            std::thread::spawn(move || {
                while !shutdown.load(Ordering::SeqCst) {
                    let mut slept = Duration::ZERO;
                    while slept < t.interval && !shutdown.load(Ordering::SeqCst) {
                        let step = Duration::from_millis(5).min(t.interval - slept);
                        std::thread::sleep(step);
                        slept += step;
                    }
                    if shutdown.load(Ordering::SeqCst) || tx.send(Op::TierTick).is_err() {
                        break;
                    }
                }
            })
        });

        self.listener.set_nonblocking(true)?;
        let listener = self.listener.try_clone()?;
        let accept_opts = self.opts.clone();
        let accept_mgr = Arc::clone(&mgr);
        let accept_shutdown = Arc::clone(&shutdown);
        let accept_conns = Arc::clone(&conns);
        let acceptor = std::thread::spawn(move || {
            accept_loop(
                listener,
                accept_opts,
                accept_mgr,
                tx,
                accept_shutdown,
                accept_conns,
                active,
                next_conn,
            );
        });

        // Executor: single-threaded ownership of the session.
        let mut states: HashMap<u64, ConnState> = HashMap::new();
        while let Ok(op) = rx.recv() {
            match op {
                Op::Client { conn, req, reply } => {
                    let state = states.entry(conn).or_default();
                    match reply {
                        Some(reply) => {
                            let r = execute(&mut sess, &mgr, state, conn, &req, &conns, &shutdown);
                            // A dead connection thread is fine; its cleanup
                            // op already rolled the transaction back.
                            let _ = reply.send(r);
                        }
                        None => {
                            // Connection closed: roll back whatever it
                            // left open.
                            let _ = abort_conn(&mut sess, &mgr, state);
                            states.remove(&conn);
                        }
                    }
                }
                Op::TierTick => {
                    if let Some(engine) = engine.as_mut() {
                        tier_tick(&mut sess, &mgr, engine);
                    }
                }
            }
            publish_lock_gauges(&mgr);
        }
        // All senders gone: acceptor and ticker exited and every
        // connection drained.
        acceptor.join().expect("acceptor panicked");
        if let Some(t) = ticker {
            t.join().expect("ticker panicked");
        }
        for (_, mut state) in states.drain() {
            let _ = abort_conn(&mut sess, &mgr, &mut state);
        }
        // Hotness must survive the restart: write the lifetime call
        // counters into the catalog's attr section before the final
        // checkpoint seals it.
        tier::persist_counters(&mut sess).map_err(|e| io::Error::other(e.to_string()))?;
        sess.store.commit()?;
        sess.store.checkpoint()?;
        publish_lock_gauges(&mgr);
        publish_store_gauges(&sess, engine.as_ref().map(|e| &e.opts));
        Ok(())
    }
}

/// One executor-side re-optimizer tick: first deopt every hot closure
/// whose specialization assumptions broke, then promote the hottest
/// above-threshold candidates. Each swap runs in its own transaction
/// over a [`TxnView`], so it takes the closure's exclusive lock (a
/// conflict with a client transaction skips the swap — retried on a
/// later tick), is WAL-logged, and rolls back if the server crashes
/// mid-swap.
fn tier_tick(sess: &mut Session<DurableStore>, mgr: &TxnManager, engine: &mut TierEngine) {
    for oid in engine.violations(sess) {
        let Ok(d) = tier::prepare_deopt(sess, oid) else {
            continue;
        };
        if swap_txn(sess, mgr, |view| tier::apply_deopt(view, &d)).is_ok() {
            d.link(&sess.vm.code);
            engine.note_deopted(oid);
        }
    }
    for (oid, _calls) in engine.sample(sess) {
        match tier::prepare_promotion(sess, oid, &engine.opts) {
            Ok(p) => {
                if promote(sess, mgr, &p).is_ok() {
                    engine.note_promoted(&p);
                }
            }
            Err(_) => {
                // A target the escalated pipeline cannot rebuild stays
                // at baseline and is never reconsidered.
                let _ = sess.store.set_attr(oid, "tier.skip", 1);
            }
        }
    }
}

/// Hot-swap a prepared promotion as the re-optimizer does: in its own
/// transaction, linking the hot block only once that transaction has
/// committed. On failure the closure keeps its baseline block and PTML.
pub fn promote(
    sess: &mut Session<DurableStore>,
    mgr: &TxnManager,
    p: &tier::Promotion,
) -> Result<(), StoreError> {
    swap_txn(sess, mgr, |view| tier::apply_promotion(view, p))?;
    p.link(&sess.vm.code);
    Ok(())
}

/// Run one tier swap in its own transaction: commit on success, abort
/// (undoing any partial mutation) on failure.
fn swap_txn(
    sess: &mut Session<DurableStore>,
    mgr: &TxnManager,
    body: impl FnOnce(&mut TxnView<'_, DurableStore>) -> Result<(), StoreError>,
) -> Result<(), StoreError> {
    let mut txn = mgr.begin(&mut sess.store);
    let r = {
        let mut view = TxnView::new(&mut sess.store, &mut txn, mgr.locks());
        body(&mut view)
    };
    match r {
        Ok(()) => mgr.commit(&mut sess.store, txn).map(|_| ()),
        Err(e) => {
            let _ = mgr.abort(&mut sess.store, txn);
            Err(e)
        }
    }
}

/// Final-stats gauges for the store side: optimization-cache traffic
/// plus the tier section (`tmlc serve --json` reports these alongside
/// the lock-table block).
fn publish_store_gauges(sess: &Session<DurableStore>, tier_opts: Option<&TierOptions>) {
    if !tml_trace::enabled() {
        return;
    }
    let rec = tml_trace::global();
    let c = sess.store.base().cache_stats();
    rec.counter("store.opt_cache.entries")
        .set(sess.store.base().cache().len() as u64);
    rec.counter("store.opt_cache.hits").set(c.hits);
    rec.counter("store.opt_cache.misses").set(c.misses);
    rec.counter("store.opt_cache.inserts").set(c.inserts);
    rec.counter("store.opt_cache.invalidations")
        .set(c.invalidations);
    rec.counter("store.opt_cache.evictions").set(c.evictions);
    tier::publish_gauges(&sess.store, tier_opts);
}

/// Live lock-table occupancy (plus high-water marks) as trace gauges,
/// for `tmlc stats` / `tmlc info --json` style reporting. Cheap no-op
/// when tracing is off.
fn publish_lock_gauges(mgr: &TxnManager) {
    if !tml_trace::enabled() {
        return;
    }
    let s = mgr.locks().stats();
    let rec = tml_trace::global();
    rec.counter("lock.table.keys").set(s.keys);
    rec.counter("lock.table.holders").set(s.holders);
    rec.counter("lock.table.waiters").set(s.waiters);
    let peak = rec.counter("lock.table.peak_holders");
    if s.holders > peak.get() {
        peak.set(s.holders);
    }
    let peak = rec.counter("lock.table.peak_waiters");
    if s.waiters > peak.get() {
        peak.set(s.waiters);
    }
}

#[allow(clippy::too_many_arguments)]
fn accept_loop(
    listener: TcpListener,
    opts: ServerOptions,
    mgr: Arc<TxnManager>,
    tx: Sender<Op>,
    shutdown: Arc<AtomicBool>,
    conns: Arc<Mutex<HashMap<u64, TcpStream>>>,
    active: Arc<AtomicUsize>,
    next_conn: Arc<AtomicU64>,
) {
    while !shutdown.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                if active.load(Ordering::SeqCst) >= opts.max_conns {
                    // Backpressure: refuse with a typed busy error.
                    let mut s = stream;
                    let _ = write_frame(
                        &mut s,
                        0,
                        &encode_response(&Response::Err {
                            code: ErrCode::Server,
                            msg: "server at connection capacity".into(),
                        }),
                    );
                    continue;
                }
                let conn = next_conn.fetch_add(1, Ordering::Relaxed);
                let _ = stream.set_read_timeout(Some(opts.conn_timeout));
                let _ = stream.set_nodelay(true);
                if let Ok(clone) = stream.try_clone() {
                    conns.lock().unwrap().insert(conn, clone);
                }
                active.fetch_add(1, Ordering::SeqCst);
                let tx = tx.clone();
                let mgr = Arc::clone(&mgr);
                let shutdown = Arc::clone(&shutdown);
                let active = Arc::clone(&active);
                let reg = Arc::clone(&conns);
                let lock_opts = opts.lock;
                std::thread::spawn(move || {
                    serve_conn(stream, conn, tx, mgr, lock_opts, shutdown);
                    reg.lock().unwrap().remove(&conn);
                    active.fetch_sub(1, Ordering::SeqCst);
                });
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(_) => break,
        }
    }
    drop(tx); // executor drains and finalizes once all conn senders drop
}

fn serve_conn(
    mut stream: TcpStream,
    conn: u64,
    tx: Sender<Op>,
    mgr: Arc<TxnManager>,
    lock_opts: LockOptions,
    shutdown: Arc<AtomicBool>,
) {
    // The read loop ends on EOF, timeout, severed stream or an
    // injected fault — all the same to the cleanup below.
    while let Ok(frame) = read_frame(&mut stream, conn) {
        let req = match decode_request(&frame) {
            Ok(r) => r,
            Err(e) => {
                let _ = respond(
                    &mut stream,
                    conn,
                    &Response::Err {
                        code: ErrCode::Proto,
                        msg: e.to_string(),
                    },
                );
                break;
            }
        };
        let closing = matches!(req, Request::Bye | Request::Shutdown);
        let rsp = run_request(&tx, &mgr, &lock_opts, conn, req);
        if respond(&mut stream, conn, &rsp).is_err() {
            break;
        }
        if closing || shutdown.load(Ordering::SeqCst) {
            break;
        }
    }
    // Fire-and-forget cleanup: the executor aborts anything still open.
    let _ = tx.send(Op::Client {
        conn,
        req: Request::Abort,
        reply: None,
    });
}

/// One request round-trip with the executor, waiting out lock conflicts
/// on this thread (never inside the executor).
fn run_request(
    tx: &Sender<Op>,
    mgr: &TxnManager,
    lock_opts: &LockOptions,
    conn: u64,
    req: Request,
) -> Response {
    loop {
        let (rtx, rrx) = mpsc::sync_channel(1);
        if tx
            .send(Op::Client {
                conn,
                req: req.clone(),
                reply: Some(rtx),
            })
            .is_err()
        {
            return Response::Err {
                code: ErrCode::Server,
                msg: "server shutting down".into(),
            };
        }
        match rrx.recv() {
            Ok(Reply::Done(rsp)) => return rsp,
            Ok(Reply::Wait {
                txn,
                key,
                exclusive,
            }) => {
                match mgr
                    .locks()
                    .acquire_with_retry(txn, key, exclusive, lock_opts)
                {
                    Ok(()) => continue, // lock granted to our txn: resend
                    Err(e) => {
                        // Deadlock victim or timed out: abort the whole
                        // transaction, report a retryable typed error.
                        let (atx, arx) = mpsc::sync_channel(1);
                        let _ = tx.send(Op::Client {
                            conn,
                            req: Request::Abort,
                            reply: Some(atx),
                        });
                        let _ = arx.recv();
                        return Response::Err {
                            code: ErrCode::Aborted,
                            msg: format!("transaction {txn} aborted: {e}"),
                        };
                    }
                }
            }
            Err(_) => {
                return Response::Err {
                    code: ErrCode::Server,
                    msg: "executor gone".into(),
                }
            }
        }
    }
}

fn respond(stream: &mut TcpStream, conn: u64, rsp: &Response) -> Result<(), wire::WireError> {
    write_frame(stream, conn, &encode_response(rsp))
}

fn err(code: ErrCode, msg: impl Into<String>) -> Reply {
    Reply::Done(Response::Err {
        code,
        msg: msg.into(),
    })
}

/// Executor-side dispatch of one request (single-threaded over the
/// session).
#[allow(clippy::too_many_arguments)]
fn execute(
    sess: &mut Session<DurableStore>,
    mgr: &TxnManager,
    state: &mut ConnState,
    conn: u64,
    req: &Request,
    conns: &Mutex<HashMap<u64, TcpStream>>,
    shutdown: &AtomicBool,
) -> Reply {
    match req {
        Request::Ping => Reply::Done(Response::Ok),
        Request::Begin => {
            if state.txn.is_some() {
                return err(ErrCode::Proto, "transaction already open");
            }
            state.txn = Some(mgr.begin(&mut sess.store));
            state.explicit = true;
            Reply::Done(Response::Ok)
        }
        Request::Commit => {
            let Some(txn) = state.txn.take() else {
                return err(ErrCode::Proto, "no open transaction");
            };
            state.explicit = false;
            state.pending_globals.clear();
            match mgr.commit(&mut sess.store, txn) {
                Ok(_) => Reply::Done(Response::Ok),
                Err(e) => err(ErrCode::Server, format!("commit failed: {e}")),
            }
        }
        Request::Abort => {
            if state.txn.is_none() {
                return err(ErrCode::Proto, "no open transaction");
            }
            match abort_conn(sess, mgr, state) {
                Ok(()) => Reply::Done(Response::Ok),
                Err(e) => err(ErrCode::Server, format!("abort failed: {e}")),
            }
        }
        Request::Ship { name, ptml } => with_txn(sess, mgr, state, |sess, mgr, state| {
            ship(sess, mgr, state, name, ptml)
        }),
        Request::Call { name, args } => with_txn(sess, mgr, state, |sess, mgr, state| {
            call(sess, mgr, state, name, args)
        }),
        Request::Optimize { name } => {
            if state.txn.is_some() {
                return err(ErrCode::Proto, "optimize inside a transaction");
            }
            let Some(target) = sess.globals.get(name).cloned() else {
                return err(ErrCode::Unresolved, format!("unknown global {name}"));
            };
            match optimize_value(sess, &target, &ReflectOptions::default()) {
                Ok(_) => match sess.store.commit() {
                    Ok(_) => Reply::Done(Response::Ok),
                    Err(e) => err(ErrCode::Server, e.to_string()),
                },
                Err(e) => err(ErrCode::Server, format!("optimize failed: {e}")),
            }
        }
        Request::Bye => {
            let _ = abort_conn(sess, mgr, state);
            Reply::Done(Response::Bye)
        }
        Request::Shutdown => {
            let _ = abort_conn(sess, mgr, state);
            shutdown.store(true, Ordering::SeqCst);
            // Sever the read side of every *other* session so the drain
            // cannot hang on a silent client. Write sides stay open:
            // requests already in flight (queued behind this one on the
            // executor channel) still get their responses, and this
            // session still gets its `Bye`.
            for (&id, s) in conns.lock().unwrap().iter() {
                if id != conn {
                    let _ = s.shutdown(std::net::Shutdown::Read);
                }
            }
            Reply::Done(Response::Bye)
        }
    }
}

/// Abort `state`'s transaction if open, restoring shipped globals.
fn abort_conn(
    sess: &mut Session<DurableStore>,
    mgr: &TxnManager,
    state: &mut ConnState,
) -> Result<(), StoreError> {
    let Some(txn) = state.txn.take() else {
        return Ok(());
    };
    state.explicit = false;
    for (name, prev) in state.pending_globals.drain(..).rev() {
        match prev {
            Some(v) => sess.globals.insert(name, v),
            None => sess.globals.remove(&name),
        };
    }
    mgr.abort(&mut sess.store, txn)
}

/// The per-request transaction envelope: reuse the open transaction or
/// wrap the request in an autocommit one; on `Busy` roll back to the
/// request savepoint and hand the key to the connection thread.
fn with_txn(
    sess: &mut Session<DurableStore>,
    mgr: &TxnManager,
    state: &mut ConnState,
    body: impl FnOnce(&mut Session<DurableStore>, &TxnManager, &mut ConnState) -> Result<Response, Fail>,
) -> Reply {
    if state.txn.is_none() {
        state.txn = Some(mgr.begin(&mut sess.store));
        state.explicit = false;
    }
    let auto = !state.explicit;
    let sp = state.txn.as_ref().expect("just ensured").savepoint();
    match body(sess, mgr, state) {
        Ok(rsp) => {
            if auto {
                let txn = state.txn.take().expect("open");
                state.pending_globals.clear();
                if let Err(e) = mgr.commit(&mut sess.store, txn) {
                    return err(ErrCode::Server, format!("commit failed: {e}"));
                }
            }
            Reply::Done(rsp)
        }
        Err(fail) => {
            let txn_id = state.txn.as_ref().expect("open").id();
            match fail {
                Fail::Busy { key, exclusive } => {
                    let txn = state.txn.as_mut().expect("open");
                    if let Err(e) = mgr.rollback_to(&mut sess.store, txn, sp) {
                        let _ = abort_conn(sess, mgr, state);
                        return err(ErrCode::Server, format!("rollback failed: {e}"));
                    }
                    Reply::Wait {
                        txn: txn_id,
                        key,
                        exclusive,
                    }
                }
                Fail::Aborted(e) => {
                    let msg = format!("transaction {txn_id} aborted: {e}");
                    let _ = abort_conn(sess, mgr, state);
                    err(ErrCode::Aborted, msg)
                }
                Fail::Report { code, msg } => {
                    // Undo this request's effects; an explicit
                    // transaction stays open for the client to decide.
                    let txn = state.txn.as_mut().expect("open");
                    if let Err(e) = mgr.rollback_to(&mut sess.store, txn, sp) {
                        let _ = abort_conn(sess, mgr, state);
                        return err(ErrCode::Server, format!("rollback failed: {e}"));
                    }
                    if auto {
                        let _ = abort_conn(sess, mgr, state);
                    }
                    err(code, msg)
                }
            }
        }
    }
}

/// Why a request body failed (pre-envelope).
enum Fail {
    /// Lock conflict: wait for this key outside, then retry the request.
    Busy {
        /// Lock key to wait for.
        key: u64,
        /// Requested mode.
        exclusive: bool,
    },
    /// Typed abort (deadlock victim, timeout, injected fault).
    Aborted(StoreError),
    /// Plain failure to report to the client.
    Report {
        /// Error category.
        code: ErrCode,
        /// Detail.
        msg: String,
    },
}

impl Fail {
    fn from_store(e: StoreError) -> Fail {
        match e {
            StoreError::Busy { key, exclusive, .. } => Fail::Busy { key, exclusive },
            e @ StoreError::Aborted { .. } => Fail::Aborted(e),
            e => Fail::Report {
                code: ErrCode::Server,
                msg: e.to_string(),
            },
        }
    }
}

fn rval_to_value(v: &RVal) -> Value {
    match v {
        RVal::Unit => Value::Unit,
        RVal::Bool(b) => Value::Bool(*b),
        RVal::Int(n) => Value::Int(*n),
        RVal::Str(s) => Value::Str(s.to_string()),
        other => Value::Str(format!("{other:?}")),
    }
}

fn value_to_rval(v: &Value) -> RVal {
    match v {
        Value::Unit => RVal::Unit,
        Value::Bool(b) => RVal::Bool(*b),
        Value::Int(n) => RVal::Int(*n),
        Value::Str(s) => RVal::Str(s.as_str().into()),
    }
}

/// Run a call inside the connection's transaction.
fn call(
    sess: &mut Session<DurableStore>,
    mgr: &TxnManager,
    state: &mut ConnState,
    name: &str,
    args: &[Value],
) -> Result<Response, Fail> {
    let Some(target) = sess.globals.get(name).cloned() else {
        return Err(Fail::Report {
            code: ErrCode::Unresolved,
            msg: format!("unknown global {name}"),
        });
    };
    let rargs: Vec<RVal> = args.iter().map(value_to_rval).collect();
    let txn = state.txn.as_mut().expect("with_txn ensured");
    let mut view = TxnView::new(&mut sess.store, txn, mgr.locks());
    let mut machine = Machine::new(&sess.vm.code, &sess.vm.externs, &mut view, sess.config.fuel);
    match machine.call_value_checked(RVal::from_sval(&target), rargs) {
        Ok(Ok(v)) => Ok(Response::Val(rval_to_value(&v))),
        Ok(Err(exc)) => Err(Fail::Report {
            code: ErrCode::Exception,
            msg: format!("{exc:?}"),
        }),
        Err(VmError::Aborted(e)) => Err(Fail::from_store(e)),
        Err(e) => Err(Fail::Report {
            code: ErrCode::Server,
            msg: e.to_string(),
        }),
    }
}

/// Install shipped PTML: link it (decode, recompile, rebind free
/// identifiers against the server's globals), and persist PTML + closure
/// + root through the transaction view (all logged, all undoable).
fn ship(
    sess: &mut Session<DurableStore>,
    mgr: &TxnManager,
    state: &mut ConnState,
    name: &str,
    ptml: &[u8],
) -> Result<Response, Fail> {
    let linked = link_ptml(sess, ptml, recorded_or_global(&[])).map_err(|e| {
        let code = match e {
            ReflectError::BadPtml(_) | ReflectError::UnknownPrim(_) => ErrCode::Proto,
            ReflectError::Unresolved(_) => ErrCode::Unresolved,
            _ => ErrCode::Server,
        };
        let msg = format!("cannot install {name}: {e}");
        Fail::Report { code, msg }
    })?;
    let txn = state.txn.as_mut().expect("with_txn ensured");
    let mut view = TxnView::new(&mut sess.store, txn, mgr.locks());
    let install = (|| -> Result<tml_core::Oid, StoreError> {
        let ptml_oid = view.alloc(Object::Ptml(ptml.to_vec()))?;
        let clo = view.alloc(Object::Closure(ClosureObj {
            bindings: linked.captures.clone(),
            ptml: Some(ptml_oid),
        }))?;
        view.set_root(name, clo)?;
        Ok(clo)
    })();
    let clo = install.map_err(Fail::from_store)?;
    // Linked at once, so the rest of the transaction can call it; an
    // abort frees the closure, and a call of a freed closure traps.
    sess.vm.code.link(clo, linked.block, linked.env());
    let prev = sess.globals.insert(name.to_string(), SVal::Ref(clo));
    state.pending_globals.push((name.to_string(), prev));
    Ok(Response::Ok)
}
