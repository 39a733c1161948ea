//! The chunked slot table: a store's memory and collection work follow its
//! live set, not every OID it ever allocated.
//!
//! OIDs are never reused, so a store that allocates and frees at a steady
//! rate hands out OIDs without end. Its slot table is a directory of
//! chunks of `CHUNK_SLOTS` OIDs, and a chunk whose OIDs are all handed out
//! and whose objects are all dead is dropped. These tests pin the bound
//! (resident chunks and mark bitmaps never outgrow the live set), that a
//! reference into a dropped chunk stays a dangling reference, that state
//! derived from a freed object goes stale, and that images of a store with
//! dropped chunks (snapshot, catalog, log replay) hold the same objects
//! and re-encode to the same bytes.

use std::path::PathBuf;
use tml_core::Oid;
use tml_store::durable::{DurableOptions, DurableStore};
use tml_store::gc::collect;
use tml_store::paged::{open_catalog, PagedHeap};
use tml_store::store::CHUNK_SLOTS;
use tml_store::{snapshot, CacheEntry, CacheKey, Object, SVal, Store, StoreError};

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tml_slots_{}_{}", name, std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn int_array(i: usize) -> Object {
    Object::Array(vec![SVal::Int(i as i64)])
}

/// Allocate garbage until the next OID starts a fresh chunk.
fn align_to_chunk(s: &mut Store) {
    while !s.len().is_multiple_of(CHUNK_SLOTS) {
        s.alloc(int_array(0));
    }
}

/// A store whose first chunks are dropped, with live objects on both
/// sides of them, mutated versions, attributes and roots.
fn store_with_dropped_chunks() -> Store {
    let mut s = Store::new();
    let keep = s.alloc(Object::Array(vec![]));
    s.set_root("keep", keep);
    s.set_attr(keep, "cost", 3);
    align_to_chunk(&mut s);
    // Two chunks that die entirely, one object of which carries an
    // attribute and a bumped version before it dies.
    let doomed = s.alloc(int_array(1));
    s.get_mut(doomed).unwrap();
    s.set_attr(doomed, "cost", 9);
    for i in 0..2 * CHUNK_SLOTS - 1 {
        s.alloc(int_array(i));
    }
    let late = s.alloc(Object::Tuple(vec![
        SVal::Ref(keep),
        SVal::Str("late".into()),
    ]));
    s.array_set(late, 0, SVal::Ref(keep)).unwrap();
    s.set_root("late", late);
    s.alloc(int_array(7));
    collect(&mut s, &[]);
    assert_eq!(s.resident_chunks(), 2, "the first and the tail chunk");
    assert_eq!(s.live(), 2);
    s
}

#[test]
fn a_million_batched_alloc_free_cycles_keep_memory_bounded_by_the_live_set() {
    const BATCH: usize = 1_000;
    const BATCHES: usize = 1_000;
    const KEPT: usize = 8;
    let mut s = Store::new();
    let table = s.alloc(Object::Array(vec![SVal::Unit; KEPT]));
    s.set_root("table", table);
    let mut max_resident = 0;
    for b in 0..BATCHES {
        let mut last = Oid::NULL;
        for i in 0..BATCH {
            last = s.alloc(int_array(i));
        }
        // One object per batch outlives it, replacing the oldest kept one.
        s.array_set(table, (b % KEPT) as i64, SVal::Ref(last))
            .unwrap();
        let stats = collect(&mut s, &[]);
        let live = s.live();
        assert!(live <= KEPT + 1, "batch {b}: {live} live");
        assert_eq!(stats.freed, stats.before - stats.after);
        // A resident chunk holds a live object or is the one still
        // handing out OIDs; a mark bitmap is only made for a chunk
        // holding a marked, hence live, object.
        assert!(
            s.resident_chunks() <= live + 1,
            "batch {b}: {} chunks for {live} live objects",
            s.resident_chunks()
        );
        assert!(stats.mark_chunks <= live, "batch {b}: {stats:?}");
        max_resident = max_resident.max(s.resident_chunks());
    }
    assert_eq!(s.len(), 1 + BATCH * BATCHES);
    assert!(max_resident <= KEPT + 2, "{max_resident} chunks resident");
    assert_eq!(s.iter().count(), s.live());
    assert_eq!(s.stats().objects, s.live());
}

#[test]
fn a_ref_into_a_dropped_chunk_is_dangling() {
    let mut s = Store::new();
    let first = s.alloc(int_array(0));
    for i in 1..CHUNK_SLOTS {
        s.alloc(int_array(i));
    }
    let holder = s.alloc(Object::Array(vec![SVal::Ref(first)]));
    let resident = s.resident_chunks();
    // The holder lets go of its reference: the whole first chunk dies.
    s.set_root("holder", holder);
    s.array_set(holder, 0, SVal::Unit).unwrap();
    collect(&mut s, &[]);
    assert_eq!(resident, 2);
    assert_eq!(s.resident_chunks(), 1, "the full, dead first chunk dropped");
    for oid in [first, Oid(CHUNK_SLOTS as u64)] {
        assert_eq!(s.get(oid), Err(StoreError::Dangling(oid)));
        assert_eq!(s.live_version(oid), None);
        assert_eq!(s.version(oid), 0);
        assert_eq!(s.array_get(oid, 0), Err(StoreError::Dangling(oid)));
        assert_eq!(s.get_mut(oid).err(), Some(StoreError::Dangling(oid)));
    }
    // The dropped range is never handed out again.
    let next = s.alloc(int_array(0));
    assert_eq!(next, Oid(CHUNK_SLOTS as u64 + 2));
    assert_eq!(s.get(first), Err(StoreError::Dangling(first)));
}

#[test]
fn an_opt_cache_entry_that_observed_a_freed_object_is_stale_after_its_chunk_drops() {
    let mut s = Store::new();
    align_to_chunk(&mut s);
    let dep = s.alloc(int_array(1));
    let entry = |observed| CacheEntry::new(observed, vec![1, 2, 3], vec![]);
    let key = |h| CacheKey {
        ptml_hash: h,
        binding_sig: 0,
    };
    s.cache_insert(key(1), entry(vec![(dep, s.version(dep))]));
    for i in 0..CHUNK_SLOTS {
        s.alloc(int_array(i));
    }
    let stats = collect(&mut s, &[]);
    assert_eq!(s.resident_chunks(), 1);
    assert_eq!(stats.cache_dropped, 1, "the sweep drops the stale entry");
    // A dead slot reads version 0, the version `dep` was observed at: only
    // a liveness-aware check sees that the entry is stale.
    assert_eq!(s.version(dep), 0);
    s.cache_insert(key(2), entry(vec![(dep, 0)]));
    let invalidations = s.cache_stats().invalidations;
    assert!(s.cache_lookup(key(2)).is_none());
    assert_eq!(s.cache_stats().invalidations, invalidations + 1);
    assert_eq!(s.cache().len(), 0);
}

#[test]
fn a_snapshot_with_dropped_chunks_round_trips_byte_identically() {
    let s = store_with_dropped_chunks();
    let bytes = snapshot::to_bytes(&s);
    let loaded = snapshot::from_bytes(&bytes).unwrap();
    assert_eq!(loaded.len(), s.len());
    assert_eq!(loaded.resident_chunks(), s.resident_chunks());
    assert!(loaded.iter().eq(s.iter()), "same live objects");
    for (oid, _) in s.iter() {
        assert_eq!(loaded.live_version(oid), s.live_version(oid));
        assert_eq!(
            loaded.attrs_of(oid).collect::<Vec<_>>(),
            s.attrs_of(oid).collect::<Vec<_>>()
        );
    }
    assert_eq!(snapshot::to_bytes(&loaded), bytes);
}

#[test]
fn a_catalog_with_dropped_chunks_round_trips_byte_identically() {
    let dir = tmpdir("catalog");
    let path = dir.join("img.tyc");
    let s = store_with_dropped_chunks();
    let mut heap = PagedHeap::create(&path).unwrap();
    for (oid, obj) in s.iter() {
        heap.write_record(oid, &PagedHeap::encode_record(obj))
            .unwrap();
    }
    heap.flush().unwrap();
    heap.save_catalog(&s).unwrap();
    let on_disk = std::fs::read(&path).unwrap();

    let mut opened = open_catalog(&path).unwrap().expect("catalog decodes");
    assert_eq!(opened.store.resident_chunks(), s.resident_chunks());
    assert!(opened.store.iter().eq(s.iter()), "same live objects");
    assert_eq!(snapshot::to_bytes(&opened.store), snapshot::to_bytes(&s));
    opened.heap.save_catalog(&opened.store).unwrap();
    assert_eq!(std::fs::read(&path).unwrap(), on_disk, "same catalog bytes");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn log_replay_drops_the_same_chunks() {
    let dir = tmpdir("replay");
    let path = dir.join("img.tyc");
    let mut d = DurableStore::create(&path, DurableOptions::default()).unwrap();
    let keep = d.alloc(Object::Array(vec![])).unwrap();
    d.set_root("keep", keep).unwrap();
    for i in 0..3 * CHUNK_SLOTS {
        let oid = d.alloc(int_array(i)).unwrap();
        if i % 700 == 0 {
            d.set_attr(oid, "cost", i as i64).unwrap();
        }
    }
    let late = d.alloc(Object::Array(vec![SVal::Ref(keep)])).unwrap();
    d.set_root("late", late).unwrap();
    d.array_set(late, 0, SVal::Int(4)).unwrap();
    d.collect(&[]).unwrap();
    d.commit().unwrap();
    let want = snapshot::to_bytes(d.store());
    let resident = d.store().resident_chunks();
    assert_eq!(resident, 2, "the first and the tail chunk");
    drop(d); // no checkpoint: reopening replays the log

    let (d, report) = DurableStore::open(&path, DurableOptions::default()).unwrap();
    assert!(report.redo_records > 0);
    assert_eq!(d.store().resident_chunks(), resident);
    assert_eq!(
        snapshot::to_bytes(d.store()),
        want,
        "byte-identical recovery"
    );
    d.close().unwrap();
    let (d, _) = DurableStore::open(&path, DurableOptions::default()).unwrap();
    assert_eq!(d.store().resident_chunks(), resident);
    assert_eq!(
        snapshot::to_bytes(d.store()),
        want,
        "and from the checkpoint"
    );
    drop(d);
    std::fs::remove_dir_all(&dir).ok();
}
