//! # tml-store — the persistent Tycoon object store
//!
//! The paper's architecture (§4, figure 3) rests on a persistent object
//! store that holds *both* data (tables, indices, ADT values, module
//! records) and *code* (compiled procedures together with their compact
//! persistent TML representation, **PTML**).
//!
//! This crate provides:
//!
//! * [`SVal`] — the uniform immediate value representation shared by the
//!   abstract machine and the store (complex values are [`Oid`]
//!   references);
//! * [`Object`] / [`Store`] — the OID-addressed object heap with named
//!   roots, closures carrying PTML attachments and R-value bindings, and a
//!   derived-attribute cache ("to speed up repeated optimizations of
//!   (shared) functions, the optimizer attaches several derived attributes
//!   (costs, savings, …) to the generated code which also become part of
//!   the persistent system state");
//! * [`ptml`] — the compact binary encoding of TML trees (experiment E3
//!   measures its size against the executable code size);
//! * [`snapshot`] — the canonical whole-store byte encoding and the
//!   object/value codec every persistent record shares;
//! * [`gc`] — mark-and-sweep collection with stable OIDs (tombstones);
//! * [`wal`] / [`page`] / [`buffer`] / [`durable`] — a write-ahead log
//!   over fixed-size pages with a pinned buffer pool, and the
//!   [`DurableStore`] wrapper that combines log-first mutation with
//!   periodic checkpoints onto paged storage ([`paged`], the one on-disk
//!   image format) and redo recovery.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod access;
mod attr;
pub mod buffer;
pub mod cache;
pub mod crc;
pub mod durable;
pub mod failpoint;
pub mod gc;
pub mod object;
pub mod page;
pub mod paged;
pub mod ptml;
pub mod snapshot;
pub mod store;
pub mod sval;
pub mod varint;
pub mod wal;

pub use access::StoreAccess;
pub use buffer::{BufferPool, BufferStats};
pub use cache::{CacheEntry, CacheKey, CacheStats, OptCache};
pub use crc::crc32;
pub use durable::{DurableOptions, DurableStore, OpenReport};
pub use object::{ClosureObj, ModuleObj, Object, Relation, MAX_OBJECT_LEN};
pub use page::{Page, PageFile, PageId, PAGE_SIZE};
pub use paged::{ImageIdentity, PageStats, PagedHeap, RecoverySource};
pub use store::{Store, StoreError, StoreStats};
pub use sval::SVal;
pub use tml_core::Oid;
pub use wal::{LogScan, SyncPolicy, Wal, WalRecord, WalStats};
