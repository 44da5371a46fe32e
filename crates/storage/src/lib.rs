//! # vbx-storage — the database substrate
//!
//! The paper assumes a relational DBMS underneath the VB-tree. This crate
//! provides that substrate, built from scratch:
//!
//! * [`value`] — column types and values with a canonical byte encoding
//!   (the encoding hashed by formula (1));
//! * [`schema`] — schemas carrying database/table/attribute names, which
//!   namespace every attribute digest;
//! * [`mod@tuple`] — tuples with exact wire sizes (communication-cost
//!   accounting);
//! * [`table`] — primary-key-ordered heap tables;
//! * [`wal`] and [`checkpoint`] — the checksummed write-ahead log and
//!   the flat, CRC-protected checkpoint image the durable central
//!   writes through a [`Vfs`];
//! * [`geometry`] — the `|B|/|K|/|P|/|D|` node-capacity parameters of
//!   Table 1 and the fan-out arithmetic of formulas (6)–(7);
//! * [`workload`] — the synthetic tables and selectivity-driven range
//!   queries used throughout the paper's evaluation.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod checkpoint;
pub mod geometry;
pub mod schema;
pub mod table;
pub mod tuple;
pub mod value;
pub mod vfs;
pub mod wal;
pub mod workload;

pub use checkpoint::{CheckpointBuilder, CheckpointError, CheckpointReader};
pub use geometry::Geometry;
pub use schema::{AttributeInputs, ColumnDef, Schema};
pub use table::Table;
pub use tuple::Tuple;
pub use value::{ColumnType, Value};
pub use vfs::{DiskVfs, FailPoint, FailpointFs, MemVfs, Vfs};
pub use wal::{crc32, Wal, WalScan, WalTail};

/// Errors produced by the storage layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StorageError {
    /// A tuple's shape does not match its schema.
    SchemaMismatch(String),
    /// Duplicate primary key on insert.
    DuplicateKey(u64),
    /// Primary key not present.
    KeyNotFound(u64),
    /// Malformed serialized data.
    Corrupt(String),
    /// A filesystem operation failed (or the process was killed by a
    /// fault-injection point — see [`vfs::FailpointFs`]).
    Io(String),
}

impl core::fmt::Display for StorageError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            StorageError::SchemaMismatch(m) => write!(f, "schema mismatch: {m}"),
            StorageError::DuplicateKey(k) => write!(f, "duplicate primary key {k}"),
            StorageError::KeyNotFound(k) => write!(f, "primary key {k} not found"),
            StorageError::Corrupt(m) => write!(f, "corrupt data: {m}"),
            StorageError::Io(m) => write!(f, "io error: {m}"),
        }
    }
}

impl std::error::Error for StorageError {}
