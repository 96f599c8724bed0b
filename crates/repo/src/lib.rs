//! Persistent workload repository for OptImatch knowledge bases.
//!
//! A repository is a single append-only binary file storing, per QEP:
//! the interned RDF graph produced by the transform (Algorithm 1 of the
//! OptImatch paper), the parsed plan, the source filename, and any
//! ground-truth labels. Opening a repository skips the plan parse and
//! RDF transform entirely, giving warm-start sessions; every record is
//! guarded by a CRC-32 so silent on-disk corruption is detected, named,
//! and — in the lenient mode — skipped rather than fatal.
//!
//! This crate owns only the storage layer (format, checksums, record
//! codec). [`frame`] is the header and frame layout the repository
//! shares with the match-history sidecar in `optimatch-core`. It depends on `optimatch-qep` and `optimatch-rdf` for the
//! payload types; session integration (repository-backed
//! `OptImatch::open`) lives in `optimatch-core`.

pub mod crc;
pub mod error;
pub mod frame;
pub mod record;
pub mod store;
pub mod vfs;
pub mod wire;

pub use error::RepoError;
pub use record::RepoRecord;
pub use store::{
    is_repo_file, LenientRepo, RecoveredAppend, RepoStats, RepoWriter, Repository, SkippedRecord,
    VerifyReport, FORMAT_VERSION, MAGIC,
};
