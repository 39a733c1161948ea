//! Persistence round trip (figure 3), on the durable mutation path:
//! compile → mutate through the store-access seam (every change
//! write-ahead-logged) → commit → reopen in a new process image → execute
//! (each function recompiled from PTML and linked at its first call) →
//! checkpoint into paged storage.
//!
//! The executable code table is transient; the *persistent* representation
//! of code is PTML plus the recorded R-value bindings, exactly as in the
//! paper's architecture. Durability comes from the seam: the session, the
//! VM and the reflective optimizer all mutate the store through
//! `StoreAccess`, so a `DurableStore` backend logs everything — the first
//! reopen below recovers from the log alone, before any checkpoint wrote
//! a page.
//!
//! ```sh
//! cargo run --example persistent_store
//! ```

use tycoon::core::Registry;
use tycoon::lang::{Session, SessionConfig};
use tycoon::reflect::{optimize_all, relink_image_code, session_from_access_with, ReflectOptions};
use tycoon::store::{DurableOptions, DurableStore, Object, SVal};
use tycoon::vm::RVal;

fn main() {
    let dir = std::env::temp_dir().join(format!("tycoon_demo_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("tmpdir");
    let path = dir.join("accounts.img");

    // --- Session 1: build state on a durable store, commit, "crash". ------
    let store = DurableStore::create(&path, DurableOptions::default()).expect("create");
    let mut s1 =
        Session::on_store(store, SessionConfig::default(), Registry::standard()).expect("session");
    s1.load_str(
        "
module acct export balance, deposit
let balance(a: Array): Dyn = array.get(a, 0)
let deposit(a: Array, n: Int): Dyn =
  (array.set(a, 0, array.get(a, 0) + n); array.get(a, 0))
end",
    )
    .expect("module loads");
    // Persistent data: an account array, registered as a store root. The
    // allocation and the root binding are redo-logged like everything else.
    let account = s1
        .store
        .alloc(Object::Array(vec![SVal::Int(100)]))
        .expect("alloc");
    s1.store.set_root("the-account", account).expect("root");

    let r = s1
        .call("acct.deposit", vec![RVal::Ref(account), RVal::Int(42)])
        .expect("deposit runs");
    println!("session 1: deposit(42) -> {:?}", r.result);

    optimize_all(&mut s1, &ReflectOptions::default()).expect("dynamic optimization");
    let stats = s1.store.stats();
    println!(
        "session 1: store holds {} objects, {} bytes ({} bytes PTML, {} closures)",
        stats.objects, stats.bytes, stats.ptml_bytes, stats.closures
    );
    // Commit only — no checkpoint. The paged image on disk is still empty;
    // the write-ahead log is the sole record of this session.
    s1.store.commit().expect("commit");
    println!(
        "session 1: committed; {} record(s) dirty, image at {}",
        s1.store.dirty_records(),
        path.display()
    );
    drop(s1); // crash: no checkpoint, no close

    // --- Session 2: recover from the log, link from PTML, compute. -------
    let (store, report) = DurableStore::open(&path, DurableOptions::default()).expect("open");
    println!(
        "\nsession 2: recovered {} logged record(s) across {} commit(s)",
        report.redo_records, report.redo_commits
    );
    let mut s2 = session_from_access_with(store, SessionConfig::default(), Registry::standard());
    // The image holds no code: check every function's persistent TML
    // representation; each is rebuilt and linked at its first call.
    let relink = relink_image_code(&mut s2).expect("relink");
    println!(
        "session 2: checked the PTML of {} closure(s) ({} skipped)",
        relink.relinked, relink.skipped
    );
    let account = s2.store.store().root("the-account").expect("root survives");

    let r = s2
        .call("acct.deposit", vec![RVal::Ref(account), RVal::Int(8)])
        .expect("deposit runs after recovery");
    println!("session 2: deposit(8) -> {:?} (expected 150)", r.result);
    assert_eq!(r.result, RVal::Int(150));
    println!(
        "session 2: the deposit linked {} closure(s) from PTML",
        r.stats.linked
    );

    // Consolidate: commit the new deposit, checkpoint the dirty records
    // into paged storage, truncating the log.
    s2.store.commit().expect("commit");
    s2.store.checkpoint().expect("checkpoint");
    let pages = s2.store.page_stats();
    println!(
        "session 2: checkpointed generation {} — {} page(s), {} record(s), {} chained",
        pages.gen, pages.pages, pages.dir_entries, pages.chains
    );
    drop(s2);

    // --- Session 3: the checkpointed image alone carries the state. -------
    let (store, report) = DurableStore::open(&path, DurableOptions::default()).expect("reopen");
    assert_eq!(report.redo_records, 0, "checkpoint consolidated the log");
    let balance = match store
        .store()
        .get(store.store().root("the-account").expect("root"))
        .expect("account object")
    {
        Object::Array(items) => items[0].clone(),
        other => panic!("expected array, found {}", other.kind()),
    };
    println!("session 3: balance read from paged image: {balance:?}");
    assert_eq!(balance, SVal::Int(150));

    std::fs::remove_dir_all(&dir).ok();
    println!("\nround trip complete: code and data recovered from the durable image.");
}
