//! Shared scaffolding for the server/transaction integration tests: a
//! client-authored PTML payload that bumps a shared persistent array,
//! and a server running on its own thread against a durable image.

// Each test binary uses a different subset of these helpers.
#![allow(dead_code)]

use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use tml_core::Registry;
use tml_lang::ast::Type;
use tml_lang::{Session, SessionConfig};
use tml_store::{DurableOptions, DurableStore, Object, SVal, StoreAccess};
use tml_txn::{Client, Server, ServerOptions};

/// Number of counter slots in the shared `db.slots` array.
pub const SLOTS: usize = 16;

/// A temp dir that cleans up after itself.
pub struct TempDir(pub PathBuf);

impl TempDir {
    pub fn new(tag: &str) -> TempDir {
        let dir = std::env::temp_dir().join(format!(
            "tml_txn_{tag}_{}_{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).expect("tmpdir");
        TempDir(dir)
    }

    pub fn image(&self) -> PathBuf {
        self.0.join("server.img")
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}

/// Author `work.bump(i, d)` on a throwaway client session and return its
/// PTML bytes. The function reads and writes `db.slots` — a free
/// identifier the server resolves against its own globals at ship time.
pub fn author_bump_ptml() -> Vec<u8> {
    let mut client = Session::default_session().expect("client session");
    let arr = client.store.alloc(Object::Array(vec![SVal::Int(0); SLOTS]));
    client.globals.insert("db.slots".into(), SVal::Ref(arr));
    client.types.insert("db.slots", Type::Array);
    client
        .load_str(
            "module work export bump\n\
             let bump(i: Int, d: Int): Int =\n\
               (array.set(db.slots, i, array.get(db.slots, i) + d);\n\
                array.get(db.slots, i))\n\
             end",
        )
        .expect("bump compiles");
    extract_ptml(&client, "work.bump")
}

/// Number of independent single-cell arrays (`db.s0`..`db.s3`) used by
/// the stress tests to create multi-key lock conflicts.
pub const CELLS: usize = 4;

/// Author `work.bump0`..`work.bump{CELLS-1}` — one bump function per
/// independent cell array, so transactions touching two cells in
/// opposite orders genuinely deadlock. Returns `(name, ptml)` pairs.
pub fn author_cell_ptmls() -> Vec<(String, Vec<u8>)> {
    let mut client = Session::default_session().expect("client session");
    let mut src = String::from("module work export ");
    src.push_str(
        &(0..CELLS)
            .map(|k| format!("bump{k}"))
            .collect::<Vec<_>>()
            .join(", "),
    );
    src.push('\n');
    for k in 0..CELLS {
        let arr = client.store.alloc(Object::Array(vec![SVal::Int(0)]));
        client.globals.insert(format!("db.s{k}"), SVal::Ref(arr));
        client.types.insert(format!("db.s{k}"), Type::Array);
        src.push_str(&format!(
            "let bump{k}(d: Int): Int =\n\
             \x20 (array.set(db.s{k}, 0, array.get(db.s{k}, 0) + d);\n\
             \x20  array.get(db.s{k}, 0))\n"
        ));
    }
    src.push_str("end");
    client.load_str(&src).expect("cell module compiles");
    (0..CELLS)
        .map(|k| {
            let name = format!("work.bump{k}");
            let ptml = extract_ptml(&client, &name);
            (name, ptml)
        })
        .collect()
}

/// Pull the PTML bytes off a compiled global's closure.
pub fn extract_ptml(client: &Session, name: &str) -> Vec<u8> {
    let SVal::Ref(oid) = *client.global(name).expect("global bound") else {
        panic!("expected closure global");
    };
    let Object::Closure(clo) = client.store.get(oid).expect("closure") else {
        panic!("expected closure object");
    };
    let ptml_oid = clo.ptml.expect("PTML attached");
    let Object::Ptml(bytes) = client.store.get(ptml_oid).expect("ptml") else {
        panic!("expected ptml object");
    };
    bytes.clone()
}

/// Create (or reopen) a durable session with the `db.slots` array
/// installed as a root and a global.
pub fn server_session(image: &Path) -> Session<DurableStore> {
    if image.exists() {
        let (ds, _report) = DurableStore::open(image, DurableOptions::default()).expect("reopen");
        let mut sess = tml_reflect::session_from_access_with(
            ds,
            SessionConfig::default(),
            Registry::standard(),
        );
        tml_reflect::relink_image_code(&mut sess).expect("relink");
        let slots = StoreAccess::root(&sess.store, "db.slots").expect("slots root survives");
        sess.globals.insert("db.slots".into(), SVal::Ref(slots));
        for k in 0..CELLS {
            let cell = StoreAccess::root(&sess.store, &format!("db.s{k}")).expect("cell root");
            sess.globals.insert(format!("db.s{k}"), SVal::Ref(cell));
        }
        sess
    } else {
        let ds = DurableStore::create(image, DurableOptions::default()).expect("create");
        let mut sess = Session::on_store(ds, SessionConfig::default(), Registry::standard())
            .expect("server session");
        let slots = sess
            .store
            .alloc(Object::Array(vec![SVal::Int(0); SLOTS]))
            .expect("slots array");
        sess.store.set_root("db.slots", slots).expect("slots root");
        for k in 0..CELLS {
            let cell = sess
                .store
                .alloc(Object::Array(vec![SVal::Int(0)]))
                .expect("cell array");
            sess.store
                .set_root(&format!("db.s{k}"), cell)
                .expect("cell root");
            sess.globals.insert(format!("db.s{k}"), SVal::Ref(cell));
        }
        sess.store.commit().expect("commit setup");
        sess.globals.insert("db.slots".into(), SVal::Ref(slots));
        sess
    }
}

/// A server on its own thread; `join` returns `run`'s result.
pub struct TestServer {
    pub addr: SocketAddr,
    handle: JoinHandle<std::io::Result<()>>,
}

impl TestServer {
    pub fn join(self) -> std::io::Result<()> {
        self.handle.join().expect("server thread panicked")
    }
}

/// Bind, then build the (non-`Send`) session inside the server thread.
pub fn start_server(image: &Path, opts: ServerOptions) -> TestServer {
    start_server_with(image, opts, |_| {})
}

/// [`start_server`], with `prepare` run on the session before serving.
pub fn start_server_with(
    image: &Path,
    opts: ServerOptions,
    prepare: impl FnOnce(&mut Session<DurableStore>) + Send + 'static,
) -> TestServer {
    let server = Server::bind(opts).expect("bind");
    let addr = server.local_addr();
    let image = image.to_path_buf();
    let handle = std::thread::spawn(move || {
        let mut sess = server_session(&image);
        prepare(&mut sess);
        server.run(sess)
    });
    // Wait for the accept loop.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        match Client::connect(addr) {
            Ok(mut c) => {
                c.ping().expect("ping");
                c.bye().ok();
                break;
            }
            Err(_) if Instant::now() < deadline => std::thread::sleep(Duration::from_millis(10)),
            Err(e) => panic!("server never came up: {e}"),
        }
    }
    TestServer { addr, handle }
}

/// Read cell `k` (`db.s{k}`) straight off a durable image.
pub fn read_cell(image: &Path, k: usize) -> i64 {
    let (ds, _) = DurableStore::open(image, DurableOptions::default()).expect("reopen");
    let root = StoreAccess::root(&ds, &format!("db.s{k}")).expect("cell root");
    let Object::Array(vals) = ds.get(root).expect("cell object") else {
        panic!("expected array");
    };
    match vals[0] {
        SVal::Int(n) => n,
        ref other => panic!("expected int cell, got {other:?}"),
    }
}

/// Read the committed contents of `db.slots` straight off a durable
/// image (no session, no server).
pub fn read_slots(image: &Path) -> Vec<i64> {
    let (ds, report) = DurableStore::open(image, DurableOptions::default()).expect("reopen");
    assert!(!report.stale_log, "log matches the image");
    let root = StoreAccess::root(&ds, "db.slots").expect("slots root");
    let Object::Array(vals) = ds.get(root).expect("slots object") else {
        panic!("expected array");
    };
    vals.iter()
        .map(|v| match v {
            SVal::Int(n) => *n,
            other => panic!("expected int slot, got {other:?}"),
        })
        .collect()
}
