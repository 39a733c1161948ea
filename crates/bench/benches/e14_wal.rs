//! Experiment E14: the cost of durability — whole-image snapshots vs the
//! write-ahead log.
//!
//! Before the WAL, the only way to make a mutation durable was to rewrite
//! the entire store image (encode, write a temp file, fsync, rename).
//! The durable store instead appends a redo record per mutation and
//! fsyncs per [`SyncPolicy`] — group commit amortizes the sync across a
//! window of commits, and a periodic checkpoint folds the log back into
//! the image.
//!
//! Measured here, over a store pre-seeded with `OBJECTS` objects:
//!
//!   1. baseline — mutate a plain [`Store`], write the whole image
//!      (`snapshot::to_bytes` → temp file → fsync → rename) every
//!      `SNAP_EVERY` writes (durability cadence: 100 writes);
//!   2. WAL, group commit — [`DurableStore`] with
//!      `SyncPolicy::GroupCommit(64)` (durability cadence: 64 commits);
//!   3. WAL, sync-per-commit — `SyncPolicy::Always`, the worst case
//!      (measured over fewer mutations, reported per-op);
//!   4. crash recovery — reopen after dropping the group-commit store
//!      without a checkpoint: image load + full redo of the log.

use std::io::Write;
use std::path::Path;
use std::time::Instant;
use tml_core::Oid;
use tml_store::durable::{DurableOptions, DurableStore};
use tml_store::object::Object;
use tml_store::snapshot;
use tml_store::wal::SyncPolicy;
use tml_store::Store;

const OBJECTS: usize = 100_000;
const MUTATIONS: usize = 10_000;
const SNAP_EVERY: usize = 100;
const GROUP: u32 = 64;

fn lcg(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *state >> 33
}

fn seeded() -> (Store, Vec<Oid>) {
    let mut store = Store::new();
    let mut oids = Vec::with_capacity(OBJECTS);
    for i in 0..OBJECTS {
        oids.push(store.alloc(Object::ByteArray(vec![(i % 251) as u8; 16])));
    }
    store.set_root("first", oids[0]);
    (store, oids)
}

fn payload(m: usize) -> Object {
    Object::ByteArray(vec![(m % 251) as u8; 16])
}

/// The pre-WAL durability step: the whole store encoded and written
/// atomically (temp file, fsync, rename).
fn save_whole_image(store: &Store, path: &Path) {
    let tmp = path.with_extension("tmp");
    let mut f = std::fs::File::create(&tmp).unwrap();
    f.write_all(&snapshot::to_bytes(store)).unwrap();
    f.sync_all().unwrap();
    std::fs::rename(&tmp, path).unwrap();
}

/// Snapshot-per-N-writes: the pre-WAL durability story.
fn bench_snapshot_baseline(dir: &Path) -> f64 {
    let (mut store, oids) = seeded();
    let path = dir.join("base.tys");
    save_whole_image(&store, &path);
    let mut rng = 0xE14u64;
    let t0 = Instant::now();
    for m in 0..MUTATIONS {
        let oid = oids[lcg(&mut rng) as usize % oids.len()];
        store.set(oid, payload(m)).unwrap();
        if (m + 1) % SNAP_EVERY == 0 {
            save_whole_image(&store, &path);
        }
    }
    t0.elapsed().as_secs_f64()
}

/// WAL mutation loop; returns seconds for `muts` logged-and-committed
/// mutations under `sync`.
fn bench_wal(dir: &std::path::Path, sync: SyncPolicy, tag: &str, muts: usize) -> f64 {
    let (store, oids) = seeded();
    let path = dir.join(format!("wal_{tag}.tys"));
    let mut ds = DurableStore::from_store(
        store,
        &path,
        DurableOptions {
            sync,
            checkpoint_every: 0,
        },
    )
    .unwrap();
    let mut rng = 0xE14u64;
    let t0 = Instant::now();
    for m in 0..muts {
        let oid = oids[lcg(&mut rng) as usize % oids.len()];
        ds.set(oid, payload(m)).unwrap();
        ds.commit().unwrap();
    }
    let dt = t0.elapsed().as_secs_f64();
    drop(ds); // crash-stop: leave the log for the recovery measurement
    dt
}

fn main() {
    println!("E14 — mutation durability: snapshot-per-{SNAP_EVERY}-writes vs WAL\n");
    println!("store: {OBJECTS} objects, mutations: {MUTATIONS} random overwrites\n");
    let dir = std::env::temp_dir().join(format!("tml_bench_e14_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();

    let base = bench_snapshot_baseline(&dir);
    println!(
        "snapshot every {SNAP_EVERY} writes:   {:>8.2} ms total  {:>8.2} us/mutation",
        base * 1e3,
        base * 1e6 / MUTATIONS as f64
    );

    let group = bench_wal(&dir, SyncPolicy::GroupCommit(GROUP), "group", MUTATIONS);
    println!(
        "wal group commit ({GROUP:>3}):      {:>8.2} ms total  {:>8.2} us/mutation",
        group * 1e3,
        group * 1e6 / MUTATIONS as f64
    );

    let always_muts = MUTATIONS / 10;
    let always = bench_wal(&dir, SyncPolicy::Always, "always", always_muts);
    println!(
        "wal sync per commit:          {:>8.2} ms total  {:>8.2} us/mutation  ({always_muts} mutations)",
        always * 1e3,
        always * 1e6 / always_muts as f64
    );

    // Crash recovery of the group-commit run: image load + redo.
    let t0 = Instant::now();
    let (ds, report) = DurableStore::open(
        dir.join("wal_group.tys"),
        DurableOptions {
            sync: SyncPolicy::GroupCommit(GROUP),
            checkpoint_every: 0,
        },
    )
    .unwrap();
    let reopen = t0.elapsed().as_secs_f64();
    println!(
        "crash recovery (redo {:>5} records): {:>8.2} ms",
        report.redo_records,
        reopen * 1e3
    );
    let t0 = Instant::now();
    let mut ds = ds;
    ds.checkpoint().unwrap();
    println!(
        "checkpoint (fold log into image):    {:>8.2} ms",
        t0.elapsed().as_secs_f64() * 1e3
    );

    println!(
        "\nspeedup, group-commit WAL over snapshot-per-{SNAP_EVERY}-writes: {:.1}x",
        base / group
    );
    std::fs::remove_dir_all(&dir).ok();
}
