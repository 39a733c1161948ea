//! Crash-recovery matrix over the write-ahead-log failpoint sites.
//!
//! The durability contract under test: **a crash at any `wal.*` or
//! `catalog.save.*` site loses no committed mutation**, and recovery
//! reconstructs a *byte-identical* committed prefix — `snapshot::to_bytes`
//! of the recovered store equals the bytes of the store as it stood at
//! some commit boundary at or after the last genuinely synced commit.
//!
//! Every scenario is deterministic: failure sites, hit counts and
//! corruption seeds are fixed (or taken from `TML_FAULT_SEED`, which CI
//! sweeps), so any failure replays exactly.

use std::path::{Path, PathBuf};
use tml_core::Oid;
use tml_store::durable::{DurableOptions, DurableStore};
use tml_store::failpoint::{Action, FailSpec, ScopedFailpoints};
use tml_store::object::Object;
use tml_store::wal;
use tml_store::{paged, snapshot};

/// Scripted mutations per run.
const OPS: u64 = 10;

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tml_walrec_{}_{}", name, std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// The key the `catalog.save.*` and `wal.checkpoint` sites carry for this
/// image path. Keyed specs keep armed faults away from the other tests'
/// stores running in parallel.
fn image_key(path: &Path) -> u64 {
    tml_store::cache::hash_bytes(path.as_os_str().as_encoded_bytes())
}

/// The key the `wal.append` / `wal.flush` sites carry (the log path).
fn log_key(path: &Path) -> u64 {
    image_key(&wal::wal_path(path))
}

fn payload(i: u64, tag: u8) -> Object {
    Object::ByteArray(vec![tag; 8 + (i as usize % 5)])
}

/// One step of the deterministic mutation script: allocations, root
/// updates, overwrites, derived attributes and frees, all through the
/// logged interface.
fn script_op(d: &mut DurableStore, oids: &mut Vec<Oid>, i: u64) -> std::io::Result<()> {
    match i % 4 {
        0 => {
            let oid = d.alloc(payload(i, 0xa0))?;
            d.set_root(&format!("r{i}"), oid)?;
            oids.push(oid);
        }
        1 => d.set(*oids.last().unwrap(), payload(i, 0xb1))?,
        2 => d.set_attr(*oids.last().unwrap(), "cost", i as i64)?,
        _ => {
            let oid = d.alloc(payload(i, 0xc2))?;
            oids.push(oid);
            let victim = oids.remove(oids.len() - 2);
            d.free(victim)?;
        }
    }
    Ok(())
}

/// Run the full script against a pristine durable store (no faults) and
/// return the byte image of the store after each commit: `snaps[i]` is the
/// state with exactly `i` committed operations.
fn reference_snapshots(dir: &Path) -> Vec<Vec<u8>> {
    let path = dir.join("ref.tys");
    let mut d = DurableStore::create(&path, DurableOptions::default()).unwrap();
    let mut oids = Vec::new();
    let mut snaps = vec![snapshot::to_bytes(d.store())];
    for i in 0..OPS {
        script_op(&mut d, &mut oids, i).unwrap();
        d.commit().unwrap();
        snaps.push(snapshot::to_bytes(d.store()));
    }
    drop(d);
    snaps
}

/// Run the script against `path` with whatever faults are armed; stop at
/// the first injected error ("the crash"). Returns the number of
/// operations whose commit returned `Ok` before the stop.
fn faulted_run(path: &Path) -> usize {
    let mut d = DurableStore::create(path, DurableOptions::default()).unwrap();
    let mut oids = Vec::new();
    let mut committed = 0;
    for i in 0..OPS {
        if script_op(&mut d, &mut oids, i).is_err() {
            break;
        }
        match d.commit() {
            Ok(_) => committed += 1,
            Err(_) => break,
        }
    }
    // Crash: drop without close(), leaving the log as the only record of
    // everything since the initial (empty) checkpoint.
    drop(d);
    committed
}

fn recovered_bytes(path: &Path) -> Vec<u8> {
    let (d, _) = DurableStore::open(path, DurableOptions::default()).unwrap();
    snapshot::to_bytes(d.store())
}

/// Injected IO errors at append/flush time surface to the caller, so the
/// recovery contract is exact: the reopened store holds precisely the
/// operations whose commits returned `Ok`.
#[test]
fn injected_io_errors_recover_exactly_the_acknowledged_commits() {
    let cases = [
        ("wal.append", 0u64),
        ("wal.append", 3),
        ("wal.append", 11),
        ("wal.flush", 0),
        ("wal.flush", 2),
        ("wal.flush", 6),
    ];
    for (site, after) in cases {
        let dir = tmpdir(&format!("io_{}_{after}", site.replace('.', "_")));
        let snaps = reference_snapshots(&dir);
        let path = dir.join("db.tys");
        let mut spec = FailSpec::always(Action::Io).for_key(log_key(&path));
        spec.after = after;
        let fp = ScopedFailpoints::new(&[(site, spec)]);
        let committed = faulted_run(&path);
        drop(fp);
        assert!(
            committed < OPS as usize,
            "{site} after {after}: the fault must actually fire"
        );
        assert_eq!(
            recovered_bytes(&path),
            snaps[committed],
            "{site} after {after}: recovery must be byte-identical to the \
             state at the last acknowledged commit ({committed} ops)"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// Torn flushes — the page image reaching disk is truncated or bit-flipped
/// while fsync "succeeds" — may silently lose in-flight commit groups, but
/// never a commit synced *before* the first tear: pages behind a synced
/// flush are never rewritten, so recovery lands on a committed prefix no
/// shorter than the last clean commit.
#[test]
fn torn_flushes_recover_a_committed_prefix_no_shorter_than_the_last_clean_sync() {
    let seed_override = std::env::var("TML_FAULT_SEED")
        .ok()
        .and_then(|s| s.parse::<u64>().ok());
    let cases = [
        (Action::ShortWrite(0), 0u64, 1u64),
        (Action::ShortWrite(0), 4, 2),
        (Action::ShortWrite(100), 2, 3),
        (Action::ShortWrite(600), 1, 4),
        (Action::FlipBits(1), 0, 5),
        (Action::FlipBits(3), 3, 6),
        (Action::FlipBits(8), 5, 0xC0FFEE),
    ];
    for (ix, (action, after, seed)) in cases.into_iter().enumerate() {
        let seed = seed_override.unwrap_or(seed);
        let dir = tmpdir(&format!("torn_{ix}_{seed}"));
        let snaps = reference_snapshots(&dir);
        let path = dir.join("db.tys");
        let mut spec = FailSpec::always(action)
            .for_key(log_key(&path))
            .with_seed(seed);
        spec.after = after;
        let fp = ScopedFailpoints::new(&[("wal.flush", spec)]);
        let committed = faulted_run(&path);
        drop(fp);
        // Lying fsyncs do not surface as errors: the script runs to the end.
        assert_eq!(committed, OPS as usize, "case {ix}");
        let got = recovered_bytes(&path);
        let pos = snaps.iter().position(|s| *s == got);
        let pos = pos.unwrap_or_else(|| {
            panic!("case {ix} (seed {seed}): recovered state is not any committed prefix")
        });
        assert!(
            pos as u64 >= after,
            "case {ix} (seed {seed}): recovered prefix {pos} lost a commit \
             synced before the first torn flush ({after})"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// Crashes anywhere inside a checkpoint — at its start, inside the image
/// save's write/fsync/backup-rotation/rename, after it — leave either the
/// old image (whose identity still matches the log, so redo replays) or
/// the new image (stale log, safely discarded because the image already
/// holds every logged mutation). Either way nothing committed is lost, and
/// the store keeps accepting mutations after the failed checkpoint.
#[test]
fn checkpoint_crash_windows_lose_no_committed_mutation() {
    for site in [
        "wal.checkpoint",
        "catalog.save.write",
        "catalog.save.fsync",
        "catalog.save.backup",
        "catalog.save.rename",
    ] {
        let dir = tmpdir(&format!("ckpt_{}", site.replace('.', "_")));
        let snaps = reference_snapshots(&dir);
        let path = dir.join("db.tys");
        let mut d = DurableStore::create(&path, DurableOptions::default()).unwrap();
        let mut oids = Vec::new();
        for i in 0..5 {
            script_op(&mut d, &mut oids, i).unwrap();
            d.commit().unwrap();
        }
        {
            let fp = ScopedFailpoints::new(&[(
                site,
                FailSpec::always(Action::Io).for_key(image_key(&path)),
            )]);
            let err = d.checkpoint();
            assert!(err.is_err(), "{site}: injected failure must surface");
            drop(fp);
        }
        // A failed checkpoint neither wedges the store nor loses the log.
        assert!(!d.is_wedged(), "{site}");
        for i in 5..OPS {
            script_op(&mut d, &mut oids, i).unwrap();
            d.commit().unwrap();
        }
        drop(d); // crash
        assert_eq!(
            recovered_bytes(&path),
            snaps[OPS as usize],
            "{site}: full committed history must survive the torn checkpoint"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// End-to-end corruption sweep: flip bytes across the whole log file (and
/// truncate it at many lengths); every damaged variant must open without a
/// panic and yield *some* committed prefix of the original history.
#[test]
fn corrupted_or_truncated_log_never_panics_and_yields_a_committed_prefix() {
    let dir = tmpdir("sweep");
    let snaps = reference_snapshots(&dir);
    let path = dir.join("db.tys");
    let committed = faulted_run(&path); // no faults armed: full run
    assert_eq!(committed, OPS as usize);

    let wpath = wal::wal_path(&path);
    let log0 = std::fs::read(&wpath).unwrap();
    let img0 = std::fs::read(&path).unwrap();
    assert!(
        log0.len() > 8 * 4096,
        "sweep needs a multi-page log, got {} bytes",
        log0.len()
    );
    // Opening heals the on-disk pair (truncates tails, may re-checkpoint),
    // so every iteration restores the crash-time state first.
    let restore = |log: &[u8]| {
        std::fs::write(&wpath, log).unwrap();
        std::fs::write(&path, &img0).unwrap();
        std::fs::remove_file(paged::backup_path(&path)).ok();
        std::fs::remove_file(paged::tmp_path(&path)).ok();
    };

    let mut tried = 0;
    for pos in (0..log0.len()).step_by(97) {
        let mut bytes = log0.clone();
        bytes[pos] ^= 0xff;
        restore(&bytes);
        let got = recovered_bytes(&path);
        assert!(
            snaps.contains(&got),
            "flip at byte {pos} recovered a state that is no committed prefix"
        );
        tried += 1;
    }
    for len in (0..log0.len()).step_by(511) {
        restore(&log0[..len]);
        let got = recovered_bytes(&path);
        assert!(
            snaps.contains(&got),
            "truncation to {len} bytes recovered a non-prefix state"
        );
        tried += 1;
    }
    assert!(tried > 400, "sweep degenerated to {tried} cases");
    std::fs::remove_dir_all(&dir).ok();
}
