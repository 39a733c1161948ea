//! Crash-recovery matrix over the paged-checkpoint failpoint sites, plus
//! the seam-coverage contract.
//!
//! Two properties are under test:
//!
//! 1. **No committed mutation is lost to a paged checkpoint crash.** A
//!    crash at any `page.write` / `page.chain` / `page.flush` /
//!    `wal.checkpoint` / `catalog.save.*` site — including mid-flush with
//!    some dirty pages already on disk, and mid-compaction — leaves either
//!    the old catalog (whose identity still matches the log, so redo
//!    replays) or the new one (stale log, safely discarded). Recovery is
//!    byte-identical to the state at the last acknowledged commit.
//!
//! 2. **No mutation path bypasses logging.** Driving a `DurableStore`
//!    exclusively through `&mut dyn StoreAccess` — every mutating method
//!    of the seam — then crashing at an armed failpoint recovers exactly
//!    the acknowledged-commit prefix. If any seam method mutated the store
//!    without logging, the byte comparison would diverge.
//!
//! Every scenario is deterministic: failure sites, hit counts and seeds
//! are fixed (or taken from `TML_FAULT_SEED`, which CI sweeps), so any
//! failure replays exactly.

use std::path::{Path, PathBuf};
use tml_core::Oid;
use tml_store::cache::{CacheEntry, CacheKey};
use tml_store::durable::{DurableOptions, DurableStore};
use tml_store::failpoint::{Action, FailSpec, ScopedFailpoints};
use tml_store::object::Object;
use tml_store::{snapshot, SVal, StoreAccess};

/// Scripted mutations per run.
const OPS: u64 = 12;

/// Bigger than one slotted page's inline capacity, so every run exercises
/// the overflow-chain writer.
const CHAIN_BYTES: usize = 9000;

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tml_pagedrec_{}_{}", name, std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// The key every `page.*`, `wal.checkpoint` and `catalog.save.*` site
/// carries for this image path. Keyed specs keep armed faults away from
/// other tests' stores running in parallel.
fn image_key(path: &Path) -> u64 {
    tml_store::cache::hash_bytes(path.as_os_str().as_encoded_bytes())
}

fn log_key(path: &Path) -> u64 {
    image_key(&tml_store::wal::wal_path(path))
}

fn fault_seed(default: u64) -> u64 {
    std::env::var("TML_FAULT_SEED")
        .ok()
        .and_then(|s| s.parse::<u64>().ok())
        .unwrap_or(default)
}

/// One step of the deterministic mutation script. Op 1 allocates an
/// overflow-chained ByteArray that is never touched again, so every
/// dirty-record flush after it includes a chain write; the small-record
/// population covers allocation, overwrite, derived attributes and frees.
fn script_op(d: &mut DurableStore, smalls: &mut Vec<Oid>, i: u64) -> std::io::Result<()> {
    match i % 5 {
        0 => {
            let oid = d.alloc(Object::ByteArray(vec![i as u8; 16 + i as usize]))?;
            d.set_root(&format!("r{i}"), oid)?;
            smalls.push(oid);
        }
        1 => {
            let oid = d.alloc(Object::ByteArray(vec![0xcc ^ i as u8; CHAIN_BYTES]))?;
            d.set_root(&format!("big{i}"), oid)?;
        }
        2 => d.set(smalls[0], Object::Tuple(vec![SVal::Int(i as i64)]))?,
        3 => d.set_attr(smalls[0], "cost", i as i64)?,
        _ => {
            let oid = d.alloc(Object::ByteArray(vec![0xdd; 24]))?;
            smalls.push(oid);
            let victim = smalls.remove(smalls.len() - 2);
            d.free(victim)?;
        }
    }
    Ok(())
}

/// Run the full script against a pristine durable store (no faults),
/// checkpointing after `ckpt_at` commits, and return the byte image of the
/// store after each commit: `snaps[i]` is the state with exactly `i`
/// committed operations.
fn reference_snapshots(dir: &Path, ckpt_at: u64) -> Vec<Vec<u8>> {
    let path = dir.join("ref.img");
    let mut d = DurableStore::create(&path, DurableOptions::default()).unwrap();
    let mut oids = Vec::new();
    let mut snaps = vec![snapshot::to_bytes(d.store())];
    for i in 0..OPS {
        script_op(&mut d, &mut oids, i).unwrap();
        d.commit().unwrap();
        if i + 1 == ckpt_at {
            d.checkpoint().unwrap();
        }
        snaps.push(snapshot::to_bytes(d.store()));
    }
    drop(d);
    snaps
}

fn recovered_bytes(path: &Path) -> Vec<u8> {
    let (d, _) = DurableStore::open(path, DurableOptions::default()).unwrap();
    snapshot::to_bytes(d.store())
}

/// First half of the crash-matrix workload: six script ops plus pad
/// records — three extra overflow chains and three extra inline records —
/// so the faulted checkpoint emits enough `page.write` / `page.chain`
/// events to honor every seed-shifted `after` count.
fn matrix_phase1(d: &mut DurableStore, smalls: &mut Vec<Oid>) -> std::io::Result<()> {
    for i in 0..6 {
        script_op(d, smalls, i)?;
        d.commit()?;
    }
    for k in 0u8..3 {
        let big = d.alloc(Object::ByteArray(vec![0xee ^ k; CHAIN_BYTES]))?;
        d.set_root(&format!("padbig{k}"), big)?;
        let small = d.alloc(Object::ByteArray(vec![0xab; 32 + k as usize]))?;
        d.set_root(&format!("padsmall{k}"), small)?;
        d.commit()?;
    }
    Ok(())
}

/// Second half: the remaining script ops, committed after the torn
/// checkpoint to prove the store keeps working.
fn matrix_phase2(d: &mut DurableStore, smalls: &mut Vec<Oid>) -> std::io::Result<()> {
    for i in 6..OPS {
        script_op(d, smalls, i)?;
        d.commit()?;
    }
    Ok(())
}

/// Crashes anywhere inside a paged checkpoint — while a dirty page is
/// written, while an overflow chain is linked, at the final page-file
/// flush, or inside the catalog save — lose no committed mutation: the
/// store survives the failed checkpoint, keeps committing, and recovery
/// after the crash is byte-identical to the full committed history.
#[test]
fn paged_checkpoint_crash_windows_lose_no_committed_mutation() {
    let shift = fault_seed(0) % 3;
    let cases = [
        ("page.write", 0u64),
        ("page.write", 1 + shift),
        ("page.chain", 0),
        ("page.chain", shift),
        ("page.flush", 0),
        ("wal.checkpoint", 0),
        ("catalog.save.write", 0),
        ("catalog.save.fsync", 0),
        ("catalog.save.backup", 0),
        ("catalog.save.rename", 0),
    ];
    for (site, after) in cases {
        let dir = tmpdir(&format!("ckpt_{}_{after}", site.replace('.', "_")));
        // Expected: the identical mutation sequence replayed faultlessly
        // (a failed checkpoint must not perturb store state, so the
        // checkpoint-free reference is byte-comparable).
        let expect = {
            let mut r =
                DurableStore::create(dir.join("ref.img"), DurableOptions::default()).unwrap();
            let mut smalls = Vec::new();
            matrix_phase1(&mut r, &mut smalls).unwrap();
            matrix_phase2(&mut r, &mut smalls).unwrap();
            snapshot::to_bytes(r.store())
        };
        let path = dir.join("db.img");
        let mut d = DurableStore::create(&path, DurableOptions::default()).unwrap();
        let mut oids = Vec::new();
        matrix_phase1(&mut d, &mut oids).unwrap();
        {
            let mut spec = FailSpec::always(Action::Io).for_key(image_key(&path));
            spec.after = after;
            let fp = ScopedFailpoints::new(&[(site, spec)]);
            let err = d.checkpoint();
            drop(fp);
            assert!(
                err.is_err(),
                "{site} after {after}: injected failure must surface"
            );
        }
        // A failed paged checkpoint neither wedges the store nor loses the
        // log; later commits and the final recovery see everything.
        assert!(!d.is_wedged(), "{site} after {after}");
        matrix_phase2(&mut d, &mut oids).unwrap();
        drop(d); // crash
        assert_eq!(
            recovered_bytes(&path),
            expect,
            "{site} after {after}: full committed history must survive the torn checkpoint"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// A checkpoint that fails mid-flush *after* a successful earlier
/// checkpoint: the old catalog still names the page state it was saved
/// against, the log holds everything since, and recovery replays onto it.
/// The partially flushed dirty pages written before the crash are fresh
/// pages the old catalog never references, so they are invisible.
#[test]
fn mid_flush_crash_after_earlier_checkpoint_recovers_committed_state() {
    for after in [0u64, 1, 2] {
        let dir = tmpdir(&format!("midflush_{after}"));
        let snaps = reference_snapshots(&dir, 4);
        let path = dir.join("db.img");
        let mut d = DurableStore::create(&path, DurableOptions::default()).unwrap();
        let mut oids = Vec::new();
        for i in 0..4 {
            script_op(&mut d, &mut oids, i).unwrap();
            d.commit().unwrap();
        }
        d.checkpoint().unwrap();
        for i in 4..OPS {
            script_op(&mut d, &mut oids, i).unwrap();
            d.commit().unwrap();
        }
        {
            let mut spec = FailSpec::always(Action::Io).for_key(image_key(&path));
            spec.after = after;
            let fp = ScopedFailpoints::new(&[("page.write", spec)]);
            let err = d.checkpoint();
            drop(fp);
            assert!(err.is_err(), "after {after}: injected failure must surface");
        }
        drop(d); // crash with a half-flushed second checkpoint
        assert_eq!(
            recovered_bytes(&path),
            snaps[OPS as usize],
            "after {after}: committed history must survive a half-flushed checkpoint"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// Generation compaction (triggered by a high dead-byte ratio) that
/// crashes while copying records into the new generation file must fall
/// back cleanly: the old generation and catalog stay authoritative.
#[test]
fn compaction_crash_keeps_the_old_generation_authoritative() {
    let dir = tmpdir("compact");
    let path = dir.join("db.img");
    let mut d = DurableStore::create(&path, DurableOptions::default()).unwrap();
    // Build up dead space past the compaction threshold: overwrite a band
    // of inline-sized records, checkpointing each round so every version
    // reaches the page file and its predecessor turns dead. Compaction is
    // checked *before* a checkpoint flushes, so the first checkpoint after
    // the threshold is crossed is the one that compacts.
    let oids: Vec<Oid> = (0..8)
        .map(|i| {
            let oid = d.alloc(Object::ByteArray(vec![i; 2000])).unwrap();
            d.set_root(&format!("o{i}"), oid).unwrap();
            oid
        })
        .collect();
    d.commit().unwrap();
    d.checkpoint().unwrap();
    let mut round = 0u8;
    loop {
        let stats = d.page_stats();
        if stats.dead_bytes > 256 * 1024 && stats.dead_bytes > stats.live_bytes {
            break;
        }
        round = round.wrapping_add(1);
        for oid in &oids {
            d.set(*oid, Object::ByteArray(vec![round; 2000])).unwrap();
        }
        d.commit().unwrap();
        d.checkpoint().unwrap();
        assert!(round < 100, "dead bytes never crossed the threshold");
    }
    let expect = snapshot::to_bytes(d.store());
    {
        // The next checkpoint wants to compact; make the copy die partway.
        let mut spec = FailSpec::always(Action::Io).for_key(image_key(&path));
        spec.after = 2;
        let fp = ScopedFailpoints::new(&[("page.write", spec)]);
        let err = d.checkpoint();
        drop(fp);
        assert!(err.is_err(), "compaction copy must hit the injected fault");
    }
    drop(d); // crash
    assert_eq!(
        recovered_bytes(&path),
        expect,
        "committed history must survive a crashed compaction"
    );
    // And the store must still be fully usable (checkpoint included).
    let (mut d, _) = DurableStore::open(&path, DurableOptions::default()).unwrap();
    d.set(oids[0], Object::ByteArray(vec![0xee; 100])).unwrap();
    d.commit().unwrap();
    d.checkpoint().unwrap();
    let expect = snapshot::to_bytes(d.store());
    drop(d);
    assert_eq!(recovered_bytes(&path), expect);
    std::fs::remove_dir_all(&dir).ok();
}

/// Drive a `DurableStore` exclusively through `&mut dyn StoreAccess` —
/// every mutating method of the seam, including garbage collection and a
/// checkpoint — then crash at an armed log failpoint. Recovery must be
/// byte-identical to the state at the last acknowledged commit: if any
/// seam method mutated the store without logging, the recovered bytes
/// would diverge from the live snapshot taken at that commit.
#[test]
fn no_seam_method_bypasses_logging() {
    for crash_after in [0u64, 2, 5, 9] {
        let dir = tmpdir(&format!("seam_{crash_after}"));
        let path = dir.join("db.img");
        let mut d = DurableStore::create(&path, DurableOptions::default()).unwrap();

        // Phase A (checkpointed): one pass over every mutating seam method.
        {
            let s: &mut dyn StoreAccess = &mut d;
            let a = s
                .alloc(Object::Array(vec![SVal::Int(1), SVal::Int(2)]))
                .unwrap();
            let b = s.alloc(Object::ByteArray(vec![7; CHAIN_BYTES])).unwrap();
            let garbage = s.alloc(Object::Tuple(vec![SVal::Int(99)])).unwrap();
            s.set_root("a", a).unwrap();
            s.set_root("b", b).unwrap();
            s.set_root("gone", garbage).unwrap();
            s.set(garbage, Object::Tuple(vec![SVal::Int(100)])).unwrap();
            s.set_attr(a, "rank", 3).unwrap();
            s.array_set(a, 1, SVal::Int(20)).unwrap();
            s.bytes_set(b, 0, 0x5a).unwrap();
            s.mutate(a, &mut |obj| {
                if let Object::Array(items) = obj {
                    items.push(SVal::Int(30));
                }
                Ok(())
            })
            .unwrap();
            s.remove_root("gone").unwrap();
            s.free_obj(garbage).unwrap();
            let unreachable = s.alloc(Object::ByteArray(vec![1; 64])).unwrap();
            assert!(unreachable.0 > 0);
            let gc = s.collect(&[]).unwrap();
            assert!(gc.freed >= 1, "the unrooted alloc must be collected");
            s.cache_insert(
                CacheKey {
                    ptml_hash: 42,
                    binding_sig: 7,
                },
                CacheEntry::new(vec![(a, 1)], vec![1, 2, 3], vec![]),
            );
            s.commit().unwrap();
            s.checkpoint().unwrap();
        }

        // Phase B: more seam mutations, one commit each, crashing at the
        // armed `wal.append` site. `expected` tracks the live bytes at the
        // last acknowledged commit.
        let mut expected = snapshot::to_bytes(d.store());
        let mut spec = FailSpec::always(Action::Io).for_key(log_key(&path));
        spec.after = crash_after;
        let fp = ScopedFailpoints::new(&[("wal.append", spec)]);
        fn step(d: &mut DurableStore, i: i64) -> Result<(), tml_store::StoreError> {
            let s: &mut dyn StoreAccess = d;
            let t = s.alloc(Object::Tuple(vec![SVal::Int(i)]))?;
            s.set_root(&format!("t{i}"), t)?;
            let a = s.base().root("a").unwrap();
            s.array_set(a, 0, SVal::Int(i))?;
            s.commit()?;
            Ok(())
        }
        for i in 0..6i64 {
            match step(&mut d, i) {
                Ok(()) => expected = snapshot::to_bytes(d.store()),
                Err(_) => break,
            }
        }
        drop(fp);
        drop(d); // crash
        assert_eq!(
            recovered_bytes(&path),
            expected,
            "crash_after {crash_after}: recovery must match the last acknowledged commit exactly"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// Garbage collection routed through the seam is redo-logged like any
/// other mutation: frees from a committed `collect` survive a crash, and
/// a crash *during* the commit that covers the collect loses the whole
/// collect (never half of it).
#[test]
fn gc_through_the_seam_survives_recovery() {
    let dir = tmpdir("gc");
    let path = dir.join("db.img");
    let mut d = DurableStore::create(&path, DurableOptions::default()).unwrap();
    let keep = d.alloc(Object::ByteArray(vec![1; CHAIN_BYTES])).unwrap();
    d.set_root("keep", keep).unwrap();
    let mut victims = Vec::new();
    for i in 0..8u8 {
        victims.push(d.alloc(Object::ByteArray(vec![i; 500])).unwrap());
    }
    d.commit().unwrap();
    d.checkpoint().unwrap();

    let gc = {
        let s: &mut dyn StoreAccess = &mut d;
        s.collect(&[]).unwrap()
    };
    assert_eq!(gc.freed, victims.len());
    d.commit().unwrap();
    let expect = snapshot::to_bytes(d.store());
    drop(d); // crash: the collect lives only in the log

    assert_eq!(
        recovered_bytes(&path),
        expect,
        "committed GC frees must survive recovery"
    );
    let (d, _) = DurableStore::open(&path, DurableOptions::default()).unwrap();
    for v in &victims {
        assert!(
            d.store().get(*v).is_err(),
            "{v} must stay freed after recovery"
        );
    }
    assert!(d.store().get(keep).is_ok());
    drop(d);
    std::fs::remove_dir_all(&dir).ok();
}
