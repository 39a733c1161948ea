//! Experiment E16: incremental dirty-page checkpoints vs whole-image
//! saves.
//!
//! E14 moved the per-mutation cost onto the write-ahead log, but every
//! checkpoint still re-serialized and rewrote the whole world. With paged
//! storage (DESIGN.md §14) a checkpoint
//! writes only the *dirty record set* into fresh slotted pages plus one
//! small catalog, so its cost tracks how much changed, not how much
//! exists.
//!
//! Measured here, over a store of `OBJECTS` objects of `PAYLOAD` bytes
//! each: the time of one
//! whole-image save (the pre-paged checkpoint: `snapshot::to_bytes` →
//! temp file → fsync → rename), against one
//! `DurableStore::checkpoint()` after dirtying 0.1% / 1% / 5% / 10% of
//! the objects through the `StoreAccess` seam. Each ratio runs on a
//! fresh image so dead-byte accumulation and compaction cannot bleed
//! between measurements.
//!
//! With `--check` the bench exits non-zero unless every dirty ratio
//! ≤ 10% checkpoints faster than the whole-image save (the CI guard for
//! the incremental claim).

use std::io::Write;
use std::path::Path;
use std::time::Instant;
use tml_core::Oid;
use tml_store::durable::{DurableOptions, DurableStore};
use tml_store::object::Object;
use tml_store::snapshot;
use tml_store::Store;

const OBJECTS: usize = 100_000;
const PAYLOAD: usize = 128;
const RATIOS: [f64; 4] = [0.001, 0.01, 0.05, 0.10];

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
        oids.push(store.alloc(Object::ByteArray(vec![(i % 251) as u8; PAYLOAD])));
    }
    store.set_root("first", oids[0]);
    (store, oids)
}

fn payload(m: usize) -> Object {
    Object::ByteArray(vec![(m % 251) as u8; PAYLOAD])
}

/// Whole-image save of the seeded store: what a checkpoint cost before
/// paged storage existed.
fn bench_whole_image(dir: &Path) -> f64 {
    let (store, _) = seeded();
    let path = dir.join("whole.tys");
    let tmp = dir.join("whole.tys.tmp");
    let t0 = Instant::now();
    let mut f = std::fs::File::create(&tmp).unwrap();
    f.write_all(&snapshot::to_bytes(&store)).unwrap();
    f.sync_all().unwrap();
    std::fs::rename(&tmp, &path).unwrap();
    t0.elapsed().as_secs_f64()
}

/// Incremental checkpoint after dirtying `ratio` of the objects: seed a
/// fresh paged image, take the baseline full checkpoint, mutate through
/// the seam, then time the dirty-set checkpoint alone.
fn bench_incremental(dir: &Path, ratio: f64) -> (usize, f64) {
    let (store, oids) = seeded();
    let path = dir.join(format!("inc_{}.img", (ratio * 1000.0) as u64));
    let mut ds = DurableStore::from_store(store, &path, DurableOptions::default()).unwrap();
    ds.commit().unwrap();
    ds.checkpoint().unwrap(); // baseline: every record reaches a page
    let dirty = ((OBJECTS as f64) * ratio).round() as usize;
    let mut rng = 0xE16u64 ^ (ratio.to_bits());
    let mut touched = std::collections::BTreeSet::new();
    while touched.len() < dirty {
        let oid = oids[lcg(&mut rng) as usize % oids.len()];
        if touched.insert(oid) {
            ds.set(oid, payload(touched.len())).unwrap();
        }
    }
    ds.commit().unwrap();
    assert_eq!(ds.dirty_records() as usize, dirty);
    let t0 = Instant::now();
    ds.checkpoint().unwrap();
    (dirty, t0.elapsed().as_secs_f64())
}

fn main() {
    let check = std::env::args().any(|a| a == "--check");
    println!("E16 — incremental dirty-page checkpoints vs whole-image saves\n");
    println!("store: {OBJECTS} objects; checkpoint after dirtying a fraction through the seam\n");
    let dir = std::env::temp_dir().join(format!("tml_bench_e16_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();

    let whole = bench_whole_image(&dir);
    println!(
        "whole-image save:                    {:>8.2} ms   (the pre-paged checkpoint)\n",
        whole * 1e3
    );

    let mut ok = true;
    for ratio in RATIOS {
        let (dirty, incr) = bench_incremental(&dir, ratio);
        let speedup = whole / incr;
        println!(
            "dirty {:>5.1}% ({dirty:>6} records):   {:>8.2} ms   {speedup:>6.1}x vs whole image",
            ratio * 100.0,
            incr * 1e3
        );
        if incr >= whole {
            ok = false;
        }
    }

    std::fs::remove_dir_all(&dir).ok();
    if check {
        if ok {
            println!("\ncheck passed: every dirty ratio <= 10% beats the whole-image save");
        } else {
            println!(
                "\ncheck FAILED: an incremental checkpoint was no faster than a whole-image save"
            );
            std::process::exit(1);
        }
    }
}
