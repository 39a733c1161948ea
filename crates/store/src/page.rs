//! Fixed-size pages and positioned page IO.
//!
//! The durable store's on-disk structures (today the write-ahead log, and
//! the shared buffer cache the multi-session server will need next) are
//! laid out in fixed [`PAGE_SIZE`] pages, SimpleDB-style: a [`PageFile`]
//! does positioned whole-page reads and writes, and a [`Page`] is the
//! in-memory image of one disk page.
//!
//! A page offers two views:
//!
//! * a **raw** byte view ([`Page::bytes`], [`Page::bytes_mut`]) — the WAL
//!   treats its pages as a contiguous byte stream that records span
//!   freely, so the log needs nothing more than raw pages;
//! * a **slotted** record view ([`Page::insert_record`],
//!   [`Page::record`]) — a classic slotted-page layout (slot directory
//!   growing from the front, record bodies packed from the back) used for
//!   page-resident object records ([`crate::paged`]), behind the shared
//!   buffer pool.
//!
//! ```text
//! slotted page:
//! | nslots u16 | free_end u16 | (off u16, len u16)* ...gap... records |
//! 0            2              4                                  4096
//! ```

use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::Path;

/// Size of every disk page in bytes.
pub const PAGE_SIZE: usize = 4096;

const HDR: usize = 4; // nslots u16 + free_end u16
const SLOT: usize = 4; // off u16 + len u16

/// Identifies one page in a [`PageFile`] (page index, not a byte offset).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PageId(pub u64);

impl PageId {
    /// The byte offset of this page in its file.
    pub fn byte_offset(self) -> u64 {
        self.0 * PAGE_SIZE as u64
    }
}

/// The in-memory image of one disk page.
#[derive(Clone)]
pub struct Page {
    data: Box<[u8; PAGE_SIZE]>,
}

impl std::fmt::Debug for Page {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Page")
            .field("nslots", &self.nslots())
            .field("free_space", &self.free_space())
            .finish()
    }
}

impl Default for Page {
    fn default() -> Self {
        Page::new()
    }
}

impl Page {
    /// A zero-filled page. In the slotted view, zeroes mean "no slots and
    /// `free_end == 0`"; [`Page::format`] must run before inserting.
    pub fn new() -> Page {
        Page {
            data: Box::new([0u8; PAGE_SIZE]),
        }
    }

    /// A page initialized from raw bytes (short input is zero-padded).
    pub fn from_bytes(bytes: &[u8]) -> Page {
        let mut p = Page::new();
        let n = bytes.len().min(PAGE_SIZE);
        p.data[..n].copy_from_slice(&bytes[..n]);
        p
    }

    /// Raw read view of the full page.
    pub fn bytes(&self) -> &[u8; PAGE_SIZE] {
        &self.data
    }

    /// Raw write view of the full page.
    pub fn bytes_mut(&mut self) -> &mut [u8; PAGE_SIZE] {
        &mut self.data
    }

    fn get_u16(&self, at: usize) -> u16 {
        u16::from_le_bytes([self.data[at], self.data[at + 1]])
    }

    fn put_u16(&mut self, at: usize, v: u16) {
        self.data[at..at + 2].copy_from_slice(&v.to_le_bytes());
    }

    /// Initialize the slotted-record layout (empties the page).
    pub fn format(&mut self) {
        self.data.fill(0);
        self.put_u16(0, 0);
        self.put_u16(2, PAGE_SIZE as u16);
    }

    /// Number of record slots in the slotted view.
    pub fn nslots(&self) -> u16 {
        self.get_u16(0)
    }

    /// Bytes still available for one more record (slot entry included).
    /// 0 for a page never [`Page::format`]ted.
    pub fn free_space(&self) -> usize {
        let free_end = self.get_u16(2) as usize;
        let dir_end = HDR + self.nslots() as usize * SLOT;
        free_end.saturating_sub(dir_end).saturating_sub(SLOT)
    }

    /// Append a record to the slotted view. Returns its slot number, or
    /// `None` when the record (plus its slot entry) does not fit.
    pub fn insert_record(&mut self, rec: &[u8]) -> Option<u16> {
        if rec.len() > self.free_space() {
            return None;
        }
        let slot = self.nslots();
        let free_end = self.get_u16(2) as usize;
        let off = free_end - rec.len();
        self.data[off..free_end].copy_from_slice(rec);
        let entry = HDR + slot as usize * SLOT;
        self.put_u16(entry, off as u16);
        self.put_u16(entry + 2, rec.len() as u16);
        self.put_u16(0, slot + 1);
        self.put_u16(2, off as u16);
        Some(slot)
    }

    /// Read a record from the slotted view.
    pub fn record(&self, slot: u16) -> Option<&[u8]> {
        if slot >= self.nslots() {
            return None;
        }
        let entry = HDR + slot as usize * SLOT;
        let off = self.get_u16(entry) as usize;
        let len = self.get_u16(entry + 2) as usize;
        if off + len > PAGE_SIZE {
            return None;
        }
        Some(&self.data[off..off + len])
    }
}

/// Positioned whole-page IO over one file.
#[derive(Debug)]
pub struct PageFile {
    file: File,
}

impl PageFile {
    /// Open (creating if missing) a page file for read/write.
    pub fn open(path: impl AsRef<Path>) -> std::io::Result<PageFile> {
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)?;
        Ok(PageFile { file })
    }

    /// Read one page. Bytes past EOF read as zero, so the tail page of a
    /// file whose last write was torn still loads.
    pub fn read_page(&mut self, id: PageId, page: &mut Page) -> std::io::Result<()> {
        self.file.seek(SeekFrom::Start(id.byte_offset()))?;
        let buf = page.bytes_mut();
        buf.fill(0);
        let mut filled = 0;
        while filled < PAGE_SIZE {
            match self.file.read(&mut buf[filled..])? {
                0 => break,
                n => filled += n,
            }
        }
        Ok(())
    }

    /// Write one full page at its slot.
    pub fn write_page(&mut self, id: PageId, page: &Page) -> std::io::Result<()> {
        self.file.seek(SeekFrom::Start(id.byte_offset()))?;
        self.file.write_all(page.bytes())
    }

    /// Write an arbitrary prefix of a page — used by fault injection to
    /// lay down a deliberately torn page image.
    pub fn write_page_prefix(&mut self, id: PageId, bytes: &[u8]) -> std::io::Result<()> {
        self.file.seek(SeekFrom::Start(id.byte_offset()))?;
        self.file.write_all(&bytes[..bytes.len().min(PAGE_SIZE)])
    }

    /// Pages the file holds, a torn tail page counted whole.
    pub fn pages(&self) -> std::io::Result<u64> {
        Ok(self.file.metadata()?.len().div_ceil(PAGE_SIZE as u64))
    }

    /// Truncate the file to `len` bytes.
    pub fn set_len(&mut self, len: u64) -> std::io::Result<()> {
        self.file.set_len(len)
    }

    /// fsync.
    pub fn sync(&mut self) -> std::io::Result<()> {
        self.file.sync_all()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slotted_insert_and_read_back() {
        let mut p = Page::new();
        p.format();
        let a = p.insert_record(b"alpha").unwrap();
        let b = p.insert_record(b"beta").unwrap();
        assert_eq!(p.record(a), Some(&b"alpha"[..]));
        assert_eq!(p.record(b), Some(&b"beta"[..]));
        assert_eq!(p.nslots(), 2);
        assert_eq!(p.record(2), None);
    }

    #[test]
    fn page_fills_up_and_rejects_overflow() {
        let mut p = Page::new();
        p.format();
        let rec = [7u8; 100];
        let mut inserted = 0;
        while p.insert_record(&rec).is_some() {
            inserted += 1;
        }
        // 100 bytes + 4-byte slot entry per record within 4092 usable.
        assert!(inserted >= 38, "only {inserted} records fit");
        assert!(p.free_space() < rec.len());
        // Small records still fit in the remaining gap.
        assert!(p.insert_record(&[1u8; 8]).is_some());
    }

    #[test]
    fn unformatted_page_accepts_nothing() {
        let mut p = Page::new();
        assert_eq!(p.free_space(), 0);
        assert!(p.insert_record(b"x").is_none());
    }

    #[test]
    fn slotted_layout_survives_raw_roundtrip() {
        let mut p = Page::new();
        p.format();
        p.insert_record(b"persisted").unwrap();
        let copy = Page::from_bytes(p.bytes().as_slice());
        assert_eq!(copy.record(0), Some(&b"persisted"[..]));
    }

    #[test]
    fn page_file_roundtrip_and_partial_tail() {
        let dir = std::env::temp_dir().join("tml_store_pagefile_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("pages.bin");
        std::fs::remove_file(&path).ok();
        let mut pf = PageFile::open(&path).unwrap();
        let mut p0 = Page::new();
        p0.bytes_mut()[0] = 0xaa;
        p0.bytes_mut()[PAGE_SIZE - 1] = 0xbb;
        pf.write_page(PageId(0), &p0).unwrap();
        // A torn write: only 10 bytes of page 1 reach the disk.
        pf.write_page_prefix(PageId(1), &[0xcc; 10]).unwrap();
        let len = std::fs::metadata(&path).unwrap().len();
        assert_eq!(len, PAGE_SIZE as u64 + 10, "a partial last page");
        let mut back = Page::new();
        pf.read_page(PageId(0), &mut back).unwrap();
        assert_eq!(back.bytes()[0], 0xaa);
        assert_eq!(back.bytes()[PAGE_SIZE - 1], 0xbb);
        pf.read_page(PageId(1), &mut back).unwrap();
        assert_eq!(back.bytes()[9], 0xcc);
        assert_eq!(back.bytes()[10], 0, "past-EOF bytes read as zero");
        pf.read_page(PageId(5), &mut back).unwrap();
        assert!(back.bytes().iter().all(|&b| b == 0));
        std::fs::remove_file(&path).ok();
    }
}
