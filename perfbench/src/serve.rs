//! `serve_mix`: the request path. An in-process `Server` runs over a
//! durable image with the tier engine at `tmlc serve` defaults
//! (threshold 1000, 25 ms). `ACCOUNTS` accounts are separate objects, so
//! locks are per account. A closed loop of `CLIENTS` connections, each
//! waiting for its reply, draws zipfian keys (θ = 0.99): 90 % read-only
//! autocommit `Call`s, 10 % two-account transfers through
//! `Client::transact`.
//!
//! Commits write the log to the OS without an fsync (`SyncPolicy::Never`).
//! The image lives in the working directory, and on a shared ext4 disk
//! (2-vCPU VM) identical 10 s runs with the default `SyncPolicy::Always`
//! ranged from 3.0k to 7.4k operations per second, every commit growing
//! the log by a page. Device flush latency is therefore out of scope: the
//! commit path up to the OS write is measured, and commit records and log
//! writes are counted (`store.wal.commits_per_op` is the fsyncs per
//! operation the default policy would issue).
//!
//! At the end the server is shut down, the image is reopened, and every
//! account must equal its initial balance plus its acknowledged deltas,
//! with the total conserved.

use crate::common::{median, ms, Latencies, Metrics, Rng, Tally, WorkDir};
use crate::layers::{self, SpanTotals};
use crate::Workload;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use tml_core::Registry;
use tml_lang::ast::Type;
use tml_lang::{Session, SessionConfig};
use tml_store::{DurableOptions, DurableStore, Object, SVal, SyncPolicy};
use tml_trace::span;
use tml_txn::client::ClientError;
use tml_txn::wire::{self, Request, Response, Value};
use tml_txn::{Client, Server, ServerOptions, TierSettings};

const ACCOUNTS: usize = 1000;
/// Connections in the closed loop; each waits for its reply.
const CLIENTS: usize = 2;
const READ_SHARE: f64 = 0.9;
const ZIPF_THETA: f64 = 0.99;
/// Whole-transaction retries `Client::transact` may spend on aborts.
const RETRIES: u32 = 64;
/// Operations per client at set-up, before anything is timed: enough
/// calls of both bank functions to cross the tier threshold.
const WARMUP_OPS: usize = 4000;
/// Requests of each client kept for the wire-codec measurement.
const WIRE_SAMPLE: usize = 4096;

const BANK_SRC: &str = "
module bank export get, add
let get(i: Int): Int = array.get(array.get(db.accts, i), 0)
let add(i: Int, d: Int): Int =
  let a = array.get(db.accts, i) in
  (array.set(a, 0, array.get(a, 0) + d); array.get(a, 0))
end";

/// Zipfian key sampler over a seeded permutation of the accounts, so the
/// hot accounts differ from seed to seed.
struct Zipf {
    cdf: Vec<f64>,
    keys: Vec<usize>,
}

impl Zipf {
    fn new(n: usize, theta: f64, rng: &mut Rng) -> Zipf {
        let weights: Vec<f64> = (1..=n).map(|r| 1.0 / (r as f64).powf(theta)).collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        let cdf = weights
            .iter()
            .map(|w| {
                acc += w / total;
                acc
            })
            .collect();
        let mut keys: Vec<usize> = (0..n).collect();
        rng.shuffle(&mut keys);
        Zipf { cdf, keys }
    }

    fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        let rank = self
            .cdf
            .partition_point(|&c| c < u)
            .min(self.keys.len() - 1);
        self.keys[rank]
    }
}

/// What one client thread brings back.
#[derive(Default)]
struct ClientRun {
    lat: Latencies,
    tally: Tally,
    /// Acknowledged balance deltas per account.
    acked: Vec<i64>,
    begin_ms: Vec<f64>,
    call_ms: Vec<f64>,
    commit_ms: Vec<f64>,
    requests: Vec<Request>,
}

/// Counter and histogram readings around the traced window.
#[derive(Default)]
struct Window {
    ops: u64,
    client_ms: f64,
    commits: u64,
    flushes: u64,
    append_bytes: u64,
    lock_waits: u64,
    deadlocks: u64,
    aborts: u64,
    busy_ns: u64,
}

fn busy_ns() -> u64 {
    ["vm.run", "lock.wait"]
        .iter()
        .map(|h| layers::hist(h).1)
        .sum()
}

fn readings() -> Window {
    Window {
        commits: layers::counter("store.wal.commits"),
        flushes: layers::counter("store.wal.flushes"),
        append_bytes: layers::counter("store.wal.append_bytes"),
        lock_waits: layers::counter("lock.waits"),
        deadlocks: layers::counter("lock.deadlocks"),
        aborts: layers::counter("txn.aborts"),
        busy_ns: busy_ns(),
        ..Window::default()
    }
}

pub struct ServeMix {
    seed: u64,
    /// Holds the image; removed on drop, after the server has stopped.
    _work: WorkDir,
    image: PathBuf,
    addr: SocketAddr,
    server: Option<JoinHandle<Result<(), String>>>,
    initial: Vec<i64>,
    acked: Vec<i64>,
    zipf: Zipf,
    window: Window,
    begin_ms: Vec<f64>,
    call_ms: Vec<f64>,
    commit_ms: Vec<f64>,
    requests: Vec<Request>,
    swaps: u64,
    /// Client batches started so far; varies each batch's key sequence.
    drives: u64,
}

/// Build the image and serve it; runs on the server thread because a
/// session is not `Send`.
fn serve(
    image: PathBuf,
    initial: Vec<i64>,
    ready: mpsc::Sender<Result<SocketAddr, String>>,
) -> Result<(), String> {
    let built = (|| -> Result<(Session<DurableStore>, Server), String> {
        let err = |e: std::io::Error| e.to_string();
        let store = DurableStore::create(
            &image,
            DurableOptions {
                sync: SyncPolicy::Never,
                ..DurableOptions::default()
            },
        )
        .map_err(err)?;
        let mut sess = Session::on_store(store, SessionConfig::default(), Registry::standard())
            .map_err(|e| e.to_string())?;
        let mut accounts = Vec::with_capacity(initial.len());
        for &b in &initial {
            let oid = sess
                .store
                .alloc(Object::Array(vec![SVal::Int(b)]))
                .map_err(err)?;
            accounts.push(SVal::Ref(oid));
        }
        let dir = sess.store.alloc(Object::Array(accounts)).map_err(err)?;
        sess.store.set_root("db.accts", dir).map_err(err)?;
        sess.globals.insert("db.accts".into(), SVal::Ref(dir));
        sess.types.insert("db.accts", Type::Array);
        sess.load_str(BANK_SRC).map_err(|e| e.to_string())?;
        sess.store.commit().map_err(err)?;
        sess.store.checkpoint().map_err(err)?;
        let server = Server::bind(ServerOptions {
            tier: Some(TierSettings::default()),
            ..ServerOptions::default()
        })
        .map_err(err)?;
        Ok((sess, server))
    })();
    match built {
        Ok((sess, server)) => {
            let _ = ready.send(Ok(server.local_addr()));
            server.run(sess).map_err(|e| format!("server: {e}"))
        }
        Err(e) => {
            let _ = ready.send(Err(e.clone()));
            Err(e)
        }
    }
}

fn call_int(c: &mut Client, name: &str, args: &[Value]) -> Result<i64, ClientError> {
    match c.call(name, args)? {
        Value::Int(v) => Ok(v),
        other => Err(ClientError::Unexpected(format!(
            "{name} returned {other:?}"
        ))),
    }
}

/// One closed-loop client until `deadline` or after `ops` operations.
fn client(
    addr: SocketAddr,
    zipf: &Zipf,
    seed: u64,
    deadline: Option<Instant>,
    ops: Option<usize>,
    traced: bool,
) -> ClientRun {
    let mut run = ClientRun {
        acked: vec![0; ACCOUNTS],
        ..ClientRun::default()
    };
    let mut rng = Rng::new(seed);
    let mut c = match Client::connect(addr) {
        Ok(c) => c,
        Err(e) => {
            run.tally.note(Err(format!("connect: {e}")));
            return run;
        }
    };
    while deadline.is_none_or(|d| Instant::now() < d) && ops.is_none_or(|n| run.lat.count() < n) {
        if rng.unit() < READ_SHARE {
            let k = zipf.sample(&mut rng);
            if traced && run.requests.len() < WIRE_SAMPLE {
                run.requests.push(Request::Call {
                    name: "bank.get".into(),
                    args: vec![Value::Int(k as i64)],
                });
            }
            let t = Instant::now();
            let out = {
                let _s = span!("bench.txn.read");
                call_int(&mut c, "bank.get", &[Value::Int(k as i64)])
            };
            run.lat.record("read", ms(t.elapsed()));
            run.tally
                .note(out.map(drop).map_err(|e| format!("read {k}: {e}")));
            continue;
        }
        let src = zipf.sample(&mut rng);
        let mut dst = zipf.sample(&mut rng);
        while dst == src {
            dst = zipf.sample(&mut rng);
        }
        let d = 1 + rng.below(100) as i64;
        let t = Instant::now();
        let mut first_body: Option<Instant> = None;
        let mut body_end = t;
        let mut calls = Vec::new();
        let out = {
            let _s = span!("bench.txn.transfer");
            c.transact(RETRIES, |c| {
                first_body.get_or_insert_with(Instant::now);
                calls.clear();
                for (k, delta) in [(src, -d), (dst, d)] {
                    let t = Instant::now();
                    call_int(c, "bank.add", &[Value::Int(k as i64), Value::Int(delta)])?;
                    calls.push(ms(t.elapsed()));
                }
                body_end = Instant::now();
                Ok(())
            })
        };
        run.lat.record("txn", ms(t.elapsed()));
        match out {
            Ok(()) => {
                run.acked[src] -= d;
                run.acked[dst] += d;
                run.tally.note(Ok(()));
                if traced {
                    if let Some(b) = first_body {
                        run.begin_ms.push(ms(b - t));
                    }
                    run.commit_ms.push(ms(body_end.elapsed()));
                    run.call_ms.extend(&calls);
                    if run.requests.len() < WIRE_SAMPLE {
                        run.requests.push(Request::Begin);
                        for (k, delta) in [(src, -d), (dst, d)] {
                            run.requests.push(Request::Call {
                                name: "bank.add".into(),
                                args: vec![Value::Int(k as i64), Value::Int(delta)],
                            });
                        }
                        run.requests.push(Request::Commit);
                    }
                }
            }
            Err(e) => run.tally.note(Err(format!("transfer {src}->{dst}: {e}"))),
        }
    }
    let _ = c.bye();
    run
}

impl ServeMix {
    /// Shut the server down and join its thread.
    fn stop(&mut self) -> Result<(), String> {
        let Some(handle) = self.server.take() else {
            return Ok(());
        };
        let asked = Client::connect(self.addr).and_then(|mut c| c.shutdown());
        let joined = handle
            .join()
            .map_err(|_| "server thread panicked".to_string())?;
        asked.map_err(|e| format!("shutdown: {e}"))?;
        joined
    }

    /// Run the clients for `window` or `ops` operations each.
    fn drive(
        &mut self,
        window: Option<Duration>,
        ops: Option<usize>,
        lat: &mut Latencies,
        tally: &mut Tally,
        spans: Option<&mut SpanTotals>,
    ) {
        let traced = spans.is_some();
        let before = readings();
        let start = Instant::now();
        let deadline = window.map(|w| start + w);
        self.drives += 1;
        let mut spans = spans;
        let runs: Vec<ClientRun> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..CLIENTS)
                .map(|i| {
                    let (addr, zipf) = (self.addr, &self.zipf);
                    let seed = Rng::new(self.seed ^ (self.drives << 8) ^ i as u64).next_u64();
                    s.spawn(move || client(addr, zipf, seed, deadline, ops, traced))
                })
                .collect();
            // Drain the ring while the clients run, so it never wraps.
            if let Some(spans) = spans.as_deref_mut() {
                while handles.iter().any(|h| !h.is_finished()) {
                    std::thread::sleep(Duration::from_millis(20));
                    spans.absorb();
                }
            }
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread panicked"))
                .collect()
        });
        let after = readings();
        for run in runs {
            for kind in ["read", "txn"] {
                for &v in run.lat.kind(kind) {
                    lat.record(kind, v);
                    if traced {
                        self.window.client_ms += v;
                    }
                }
            }
            if traced {
                self.window.ops += run.lat.count() as u64;
            }
            for (a, d) in self.acked.iter_mut().zip(&run.acked) {
                *a += d;
            }
            tally.merge(run.tally);
            self.begin_ms.extend(run.begin_ms);
            self.call_ms.extend(run.call_ms);
            self.commit_ms.extend(run.commit_ms);
            self.requests.extend(run.requests);
        }
        if let Some(s) = spans {
            s.absorb();
        }
        if traced {
            let w = &mut self.window;
            w.commits += after.commits - before.commits;
            w.flushes += after.flushes - before.flushes;
            w.append_bytes += after.append_bytes - before.append_bytes;
            w.lock_waits += after.lock_waits - before.lock_waits;
            w.deadlocks += after.deadlocks - before.deadlocks;
            w.aborts += after.aborts - before.aborts;
            w.busy_ns += after.busy_ns - before.busy_ns;
        }
    }
}

impl Drop for ServeMix {
    fn drop(&mut self) {
        let _ = self.stop();
    }
}

impl Workload for ServeMix {
    fn setup(seed: u64) -> Result<Self, String> {
        // Retry back-off jitter follows the seed, so schedules repeat.
        std::env::set_var("TML_JITTER_SEED", seed.to_string());
        let mut rng = Rng::new(seed);
        let initial: Vec<i64> = (0..ACCOUNTS)
            .map(|_| 1000 + rng.below(1000) as i64)
            .collect();
        let zipf = Zipf::new(ACCOUNTS, ZIPF_THETA, &mut rng);
        let work = WorkDir::new("serve_mix")?;
        let image = work.path().join("bank.img");
        let (tx, rx) = mpsc::channel();
        let server = {
            let (image, initial) = (image.clone(), initial.clone());
            std::thread::spawn(move || serve(image, initial, tx))
        };
        let addr = match rx.recv() {
            Ok(Ok(addr)) => addr,
            Ok(Err(e)) => {
                let _ = server.join();
                return Err(format!("server set-up: {e}"));
            }
            Err(_) => {
                let _ = server.join();
                return Err("server thread ended during set-up".into());
            }
        };
        let mut w = ServeMix {
            seed,
            _work: work,
            image,
            addr,
            server: Some(server),
            initial,
            acked: vec![0; ACCOUNTS],
            zipf,
            window: Window::default(),
            begin_ms: Vec::new(),
            call_ms: Vec::new(),
            commit_ms: Vec::new(),
            requests: Vec::new(),
            swaps: 0,
            drives: 0,
        };
        // Warm-up: enough calls for the tier engine to promote the hot
        // closures, so the measured window runs in its steady state.
        let mut tally = Tally::default();
        w.drive(
            None,
            Some(WARMUP_OPS),
            &mut Latencies::default(),
            &mut tally,
            None,
        );
        match tally.first_error {
            Some(e) => Err(e),
            None => Ok(w),
        }
    }

    fn measure(
        &mut self,
        window: Duration,
        lat: &mut Latencies,
        tally: &mut Tally,
        spans: Option<&mut SpanTotals>,
    ) {
        self.drive(Some(window), None, lat, tally, spans);
    }

    fn finish(&mut self, tally: &mut Tally) -> Result<(), String> {
        self.stop()?;
        let (store, _) = DurableStore::open(&self.image, DurableOptions::default())
            .map_err(|e| format!("reopen: {e}"))?;
        self.swaps = tml_reflect::tier::totals(&store).swaps;
        let base = store.store();
        let dir = base.root("db.accts").ok_or("db.accts root missing")?;
        let Ok(Object::Array(accounts)) = base.get(dir) else {
            return Err("db.accts is not an array".into());
        };
        let mut total = 0;
        for (k, account) in accounts.iter().enumerate() {
            let balance = match account {
                SVal::Ref(oid) => match base.get(*oid) {
                    Ok(Object::Array(cell)) => match cell.first() {
                        Some(SVal::Int(v)) => Some(*v),
                        _ => None,
                    },
                    _ => None,
                },
                _ => None,
            };
            let want = self.initial[k] + self.acked[k];
            tally.note(match balance {
                Some(v) if v == want => Ok(()),
                other => Err(format!("account {k}: {other:?}, acknowledged {want}")),
            });
            total += balance.unwrap_or(0);
        }
        let initial: i64 = self.initial.iter().sum();
        tally.note(if total == initial && accounts.len() == ACCOUNTS {
            Ok(())
        } else {
            Err(format!(
                "total {total} over {} accounts, initial {initial}",
                accounts.len()
            ))
        });
        Ok(())
    }

    fn layer_metrics(&self, _setup: &SpanTotals, _window: &SpanTotals, out: &mut Metrics) {
        let w = &self.window;
        let per = |v: u64, n: u64| v as f64 / n.max(1) as f64;
        let mut set = |name: &str, v: f64| out.get_mut(name).expect("declared metric").0 = v;
        set("store.wal.commits_per_op", per(w.commits, w.ops));
        set("store.wal.flushes_per_op", per(w.flushes, w.ops));
        set("store.wal.append_bytes_per_op", per(w.append_bytes, w.ops));
        set("txn.client.begin_ms", median(&self.begin_ms));
        set("txn.client.call_ms", median(&self.call_ms));
        set("txn.client.commit_ms", median(&self.commit_ms));
        set("txn.wire_ns_per_req", wire_ns_per_request(&self.requests));
        let client_ns = w.client_ms * 1e6;
        if client_ns > 0.0 {
            set(
                "txn.client_wait_share",
                (client_ns - w.busy_ns as f64).max(0.0) / client_ns,
            );
        }
        set("txn.lock.waits_per_txn", per(w.lock_waits, w.ops));
        set(
            "txn.lock.wait_p99_ms",
            layers::hist("lock.wait").2 as f64 / 1e6,
        );
        set("txn.deadlocks", w.deadlocks as f64);
        set("txn.aborts_per_txn", per(w.aborts, w.ops));
        set("reflect.tier.swaps", self.swaps as f64);
        let (n, sum, _) = layers::hist("tier.promote");
        set("reflect.tier.promote_ms", per(sum, n) / 1e6);
    }
}

/// Encode and decode every recorded request and a value response for
/// each, as the server and client do per round trip; nanoseconds per
/// request.
fn wire_ns_per_request(requests: &[Request]) -> f64 {
    if requests.is_empty() {
        return 0.0;
    }
    let response = Response::Val(Value::Int(1));
    let t = Instant::now();
    for req in requests {
        let frame = wire::encode_request(std::hint::black_box(req));
        let decoded = wire::decode_request(&frame);
        let reply = wire::encode_response(&response);
        let back = wire::decode_response(&reply);
        let _ = std::hint::black_box((decoded, back));
    }
    t.elapsed().as_nanos() as f64 / requests.len() as f64
}
