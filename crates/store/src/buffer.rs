//! A buffer manager: a fixed pool of in-memory page frames over a
//! [`PageFile`], with pin counts and LRU eviction.
//!
//! Readers pin the page they need ([`BufferPool::pin`]), work on the
//! returned frame, and unpin it when done. A miss loads the page into a
//! free frame, evicting the least-recently-used *unpinned* frame when the
//! pool is full (writing it back first if dirty). Pinned frames are never
//! evicted; if every frame is pinned the pool refuses the request rather
//! than blocking — single-threaded callers that hit this have a pin leak,
//! and the multi-session server will layer waiting on top.

use crate::page::{Page, PageFile, PageId};
use std::collections::HashMap;

/// Running counters for buffer-pool behaviour (reported by `tmlc info`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BufferStats {
    /// Pin requests satisfied from a resident frame.
    pub hits: u64,
    /// Pin requests that had to read the page from disk.
    pub misses: u64,
    /// Frames evicted to make room.
    pub evictions: u64,
    /// Dirty frames written back (at eviction or flush).
    pub writebacks: u64,
}

#[derive(Debug)]
struct Frame {
    id: PageId,
    page: Page,
    pins: u32,
    dirty: bool,
    last_used: u64,
}

/// A fixed-capacity pool of page frames over one [`PageFile`].
#[derive(Debug)]
pub struct BufferPool {
    frames: Vec<Frame>,
    map: HashMap<PageId, usize>,
    cap: usize,
    tick: u64,
    stats: BufferStats,
    /// The frame the last successful pin returned. Records are read and
    /// written in page order, so most pins repeat it and skip the hash
    /// lookup. Invalidated (set past the frames) whenever a miss starts
    /// to reassign a frame.
    last: usize,
}

impl BufferPool {
    /// A pool holding at most `cap` frames (minimum 1).
    pub fn new(cap: usize) -> BufferPool {
        let cap = cap.max(1);
        BufferPool {
            frames: Vec::with_capacity(cap),
            map: HashMap::new(),
            cap,
            tick: 0,
            stats: BufferStats::default(),
            last: usize::MAX,
        }
    }

    /// Behaviour counters so far.
    pub fn stats(&self) -> BufferStats {
        self.stats
    }

    /// Number of resident frames.
    pub fn resident(&self) -> usize {
        self.frames.len()
    }

    fn touch(&mut self, ix: usize) {
        self.tick += 1;
        self.frames[ix].last_used = self.tick;
    }

    /// Pin `id`, loading it from `file` on a miss. Returns the frame
    /// index for [`BufferPool::page`] / [`BufferPool::page_mut`]. Fails
    /// with `WouldBlock` when every frame is pinned.
    pub fn pin(&mut self, file: &mut PageFile, id: PageId) -> std::io::Result<usize> {
        let hit = match self.frames.get(self.last) {
            Some(f) if f.id == id => Some(self.last),
            _ => self.map.get(&id).copied(),
        };
        if let Some(ix) = hit {
            self.stats.hits += 1;
            self.frames[ix].pins += 1;
            self.touch(ix);
            self.last = ix;
            return Ok(ix);
        }
        self.stats.misses += 1;
        self.last = usize::MAX;
        let ix = if self.frames.len() < self.cap {
            self.frames.push(Frame {
                id,
                page: Page::new(),
                pins: 0,
                dirty: false,
                last_used: 0,
            });
            self.frames.len() - 1
        } else {
            let victim = self
                .frames
                .iter()
                .enumerate()
                .filter(|(_, f)| f.pins == 0)
                .min_by_key(|(_, f)| f.last_used)
                .map(|(ix, _)| ix)
                .ok_or_else(|| {
                    std::io::Error::new(
                        std::io::ErrorKind::WouldBlock,
                        "buffer pool exhausted: every frame is pinned",
                    )
                })?;
            self.evict(file, victim)?;
            victim
        };
        file.read_page(id, &mut self.frames[ix].page)?;
        self.frames[ix].id = id;
        self.frames[ix].pins = 1;
        self.frames[ix].dirty = false;
        self.map.insert(id, ix);
        self.touch(ix);
        self.last = ix;
        Ok(ix)
    }

    fn evict(&mut self, file: &mut PageFile, ix: usize) -> std::io::Result<()> {
        // Hot path under pool pressure: feed the latency histogram
        // directly, no span event per eviction.
        let t0 = if tml_trace::enabled() {
            tml_trace::global().clock().now_ns()
        } else {
            0
        };
        if self.frames[ix].dirty {
            file.write_page(self.frames[ix].id, &self.frames[ix].page)?;
            self.stats.writebacks += 1;
        }
        self.map.remove(&self.frames[ix].id);
        self.stats.evictions += 1;
        if tml_trace::enabled() {
            let rec = tml_trace::global();
            rec.record_ns(
                "store.buffer.evict",
                rec.clock().now_ns().saturating_sub(t0),
            );
        }
        Ok(())
    }

    /// Read view of a pinned frame.
    pub fn page(&self, ix: usize) -> &Page {
        &self.frames[ix].page
    }

    /// Write view of a pinned frame; marks it dirty.
    pub fn page_mut(&mut self, ix: usize) -> &mut Page {
        self.frames[ix].dirty = true;
        &mut self.frames[ix].page
    }

    /// Release one pin on the frame.
    ///
    /// # Panics
    /// Panics on unpinning a frame with no pins (a bookkeeping bug).
    pub fn unpin(&mut self, ix: usize) {
        assert!(self.frames[ix].pins > 0, "unpin of an unpinned frame");
        self.frames[ix].pins -= 1;
    }

    /// Write every dirty frame back to `file` (no fsync; the caller owns
    /// durability policy).
    pub fn flush_all(&mut self, file: &mut PageFile) -> std::io::Result<()> {
        for f in &mut self.frames {
            if f.dirty {
                file.write_page(f.id, &f.page)?;
                f.dirty = false;
                self.stats.writebacks += 1;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::page::PAGE_SIZE;

    fn scratch_file(name: &str, pages: u64) -> PageFile {
        let dir = std::env::temp_dir().join("tml_store_buffer_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name);
        std::fs::remove_file(&path).ok();
        let mut pf = PageFile::open(&path).unwrap();
        for i in 0..pages {
            let mut p = Page::new();
            p.bytes_mut()[0] = i as u8;
            pf.write_page(PageId(i), &p).unwrap();
        }
        pf
    }

    #[test]
    fn hit_miss_and_lru_eviction() {
        let mut pf = scratch_file("lru.bin", 4);
        let mut pool = BufferPool::new(2);
        let a = pool.pin(&mut pf, PageId(0)).unwrap();
        assert_eq!(pool.page(a).bytes()[0], 0);
        pool.unpin(a);
        let b = pool.pin(&mut pf, PageId(1)).unwrap();
        pool.unpin(b);
        // Page 0 again: still resident, a hit.
        let a2 = pool.pin(&mut pf, PageId(0)).unwrap();
        pool.unpin(a2);
        assert_eq!(pool.stats().hits, 1);
        // Pool is full; page 2 evicts the LRU frame (page 1).
        let c = pool.pin(&mut pf, PageId(2)).unwrap();
        assert_eq!(pool.page(c).bytes()[0], 2);
        pool.unpin(c);
        assert_eq!(pool.stats().evictions, 1);
        // Page 1 must re-read (miss), page 0 may or may not be resident.
        let before = pool.stats().misses;
        let d = pool.pin(&mut pf, PageId(1)).unwrap();
        pool.unpin(d);
        assert_eq!(pool.stats().misses, before + 1);
    }

    #[test]
    fn pinned_frames_are_not_evicted() {
        let mut pf = scratch_file("pinned.bin", 3);
        let mut pool = BufferPool::new(2);
        let a = pool.pin(&mut pf, PageId(0)).unwrap();
        let b = pool.pin(&mut pf, PageId(1)).unwrap();
        // Both frames pinned: a third pin cannot be served.
        let err = pool.pin(&mut pf, PageId(2)).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::WouldBlock);
        pool.unpin(b);
        // Now the unpinned frame is evictable.
        let c = pool.pin(&mut pf, PageId(2)).unwrap();
        assert_eq!(pool.page(c).bytes()[0], 2);
        assert_eq!(pool.page(a).bytes()[0], 0, "pinned page stayed put");
        pool.unpin(a);
        pool.unpin(c);
    }

    #[test]
    fn dirty_pages_write_back_on_eviction_and_flush() {
        let mut pf = scratch_file("dirty.bin", 3);
        let mut pool = BufferPool::new(1);
        let a = pool.pin(&mut pf, PageId(0)).unwrap();
        pool.page_mut(a).bytes_mut()[100] = 0x5a;
        pool.unpin(a);
        // Eviction must write the dirty frame back.
        let b = pool.pin(&mut pf, PageId(1)).unwrap();
        pool.page_mut(b).bytes_mut()[PAGE_SIZE - 1] = 0xa5;
        pool.unpin(b);
        assert_eq!(pool.stats().writebacks, 1);
        pool.flush_all(&mut pf).unwrap();
        assert_eq!(pool.stats().writebacks, 2);
        let c = pool.pin(&mut pf, PageId(0)).unwrap();
        assert_eq!(pool.page(c).bytes()[100], 0x5a);
        pool.unpin(c);
    }

    #[test]
    #[should_panic(expected = "unpin of an unpinned frame")]
    fn double_unpin_is_a_bug() {
        let mut pf = scratch_file("double.bin", 1);
        let mut pool = BufferPool::new(1);
        let a = pool.pin(&mut pf, PageId(0)).unwrap();
        pool.unpin(a);
        pool.unpin(a);
    }
}
