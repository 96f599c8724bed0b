//! The on-disk repository format and its readers/writers.
//!
//! ```text
//! ┌────────────────────────────────────────────────────────────┐
//! │ header (16 B): "OPTIREPO" · version u8 · append flag u8    │
//! │                · 6 reserved zeros                          │
//! ├────────────────────────────────────────────────────────────┤
//! │ record 0: "QR" · payload_len u32 · crc32 u32 · payload     │
//! │ record 1: …                                                │
//! ├────────────────────────────────────────────────────────────┤
//! │ footer:   "IX" · body_len u32 · crc32 u32 · body           │
//! │   body: count u32, then per record:                        │
//! │         offset u64 · payload_len u32 · crc32 u32 · id str  │
//! ├────────────────────────────────────────────────────────────┤
//! │ trailer (16 B): footer_offset u64 · "OPTI-END"             │
//! └────────────────────────────────────────────────────────────┘
//! ```
//!
//! Records are self-delimiting, so a reader that loses the footer (e.g.
//! after truncation) can still recover every intact record by scanning
//! segments forward from the header — that is what the lenient open does.
//!
//! Appending is in-place and crash-safe. [`Repository::append`] commits
//! through the header's append-in-progress flag (byte 9):
//!
//! 1. set the flag, fsync — any later crash is now *detectable*;
//! 2. write the new record frames over the old footer, fsync — complete,
//!    checksum-valid frames are committed data from here on;
//! 3. write the new footer + trailer after them, fsync;
//! 4. clear the flag, fsync.
//!
//! Existing record bytes are never rewritten, keeping ingest incremental.
//! A crash between steps 1 and 4 leaves the flag set; the next *strict*
//! open detects it, keeps every complete checksum-valid frame (committed
//! by step 2's fsync), discards the torn tail, rewrites the index, and
//! clears the flag — reporting what it did via [`Repository::recovered`].
//! With the flag clear, strict opens behave exactly as before: damage in
//! a flag-clear file is corruption, not a torn append, and still fails.

use std::fmt;
use std::io::Read as _;
use std::path::Path;

use crate::crc::crc32;
use crate::record::RepoRecord;
use crate::vfs::{OpenMode, StdFs, Vfs};
use crate::wire::{put_str, put_u32, put_u64, Cursor};
use crate::RepoError;

/// The 8-byte file magic every repository starts with.
pub const MAGIC: &[u8; 8] = b"OPTIREPO";
/// The current format version: the only one written and appended to.
/// Readers also decode version 1 (whose records carry a since-removed
/// pruning summary) and reject anything newer.
pub const FORMAT_VERSION: u8 = 2;

const END_MAGIC: &[u8; 8] = b"OPTI-END";
const RECORD_MAGIC: &[u8; 2] = b"QR";
const FOOTER_MAGIC: &[u8; 2] = b"IX";
const HEADER_LEN: usize = 16;
const TRAILER_LEN: usize = 16;
/// Segment frame: 2-byte magic + payload length + payload CRC.
const FRAME_LEN: usize = 10;
/// Header byte holding the append-in-progress flag (the first reserved
/// byte after the version). Zero in a quiescent file; readers of older
/// files (which wrote all reserved bytes as zero) see it clear.
const APPEND_FLAG_OFFSET: u64 = 9;
/// The flag value [`Repository::append`] sets before touching record
/// bytes and clears only after the new index is durable.
const APPEND_IN_PROGRESS: u8 = 1;

/// One footer index entry describing a record segment.
#[derive(Debug, Clone, PartialEq, Eq)]
struct IndexEntry {
    /// Absolute file offset of the segment (its "QR" magic).
    offset: u64,
    /// Payload length in bytes.
    len: u32,
    /// CRC-32 of the payload.
    crc: u32,
    /// The record id, so integrity errors can name the record.
    id: String,
}

/// A record skipped by [`Repository::open_lenient`], with the reason.
#[derive(Debug, Clone)]
pub struct SkippedRecord {
    /// Zero-based record index, when one could be determined.
    pub index: Option<usize>,
    /// The record id, when the footer (or the payload) still named it.
    pub id: Option<String>,
    /// Why the record was skipped.
    pub reason: String,
}

impl fmt::Display for SkippedRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match (self.index, &self.id) {
            (Some(i), Some(id)) => write!(f, "record #{i} ({id}): {}", self.reason),
            (Some(i), None) => write!(f, "record #{i}: {}", self.reason),
            (None, Some(id)) => write!(f, "record ({id}): {}", self.reason),
            (None, None) => f.write_str(&self.reason),
        }
    }
}

/// The result of a lenient open: every intact record, plus what was
/// skipped and why.
#[derive(Debug)]
pub struct LenientRepo {
    /// The repository over the intact records.
    pub repository: Repository,
    /// Records (or structures) that failed integrity checks, in order.
    pub skipped: Vec<SkippedRecord>,
}

/// Aggregate statistics over an opened repository.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RepoStats {
    /// Format version of the file.
    pub version: u8,
    /// Number of records.
    pub records: usize,
    /// Total RDF triples across all stored graphs.
    pub triples: u64,
    /// Total interned terms across all stored graphs.
    pub terms: u64,
    /// Total plan operators across all stored plans.
    pub ops: u64,
    /// Records carrying at least one ground-truth label.
    pub labeled: usize,
}

/// The result of [`Repository::verify`]: counts plus every integrity
/// problem found (empty means the file is sound).
#[derive(Debug)]
pub struct VerifyReport {
    /// Format version of the file.
    pub version: u8,
    /// Records that passed every check.
    pub records: usize,
    /// Total file size in bytes.
    pub bytes: u64,
    /// Every problem found, in file order.
    pub problems: Vec<String>,
}

impl VerifyReport {
    /// True when no problems were found.
    pub fn is_ok(&self) -> bool {
        self.problems.is_empty()
    }
}

/// What a strict open salvaged from a repository whose append-in-progress
/// flag was still set — evidence of a torn [`Repository::append`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveredAppend {
    /// Records kept: every complete, checksum-valid frame. Frames were
    /// fsync'd before the index was touched, so these are committed data.
    pub records: usize,
    /// Torn tail bytes discarded (0 when the crash landed between the
    /// index write and the flag clear, where nothing was actually lost).
    pub dropped_bytes: u64,
}

/// An opened repository: the format version and every decoded record, in
/// ingest order.
#[derive(Debug)]
pub struct Repository {
    /// Format version of the file this was read from.
    pub version: u8,
    /// The records, in the order they were ingested.
    pub records: Vec<RepoRecord>,
    /// Present when this strict open found a torn append and repaired it;
    /// `None` for a quiescent file (and always for lenient opens, which
    /// report through `skipped` and never write).
    pub recovered: Option<RecoveredAppend>,
}

/// True when `path` is a file that starts with the repository magic —
/// the detection rule the CLI uses to tell repositories from plan files.
pub fn is_repo_file(path: &Path) -> bool {
    // An 8-byte sniff of an arbitrary CLI argument, not durable I/O —
    // the one production site allowed around the Vfs layer.
    // devlint: allow(OD006)
    let Ok(mut f) = std::fs::File::open(path) else {
        return false;
    };
    if !path.is_file() {
        return false;
    }
    let mut head = [0u8; 8];
    f.read_exact(&mut head).is_ok() && &head == MAGIC
}

fn check_header(data: &[u8], path: &Path) -> Result<u8, RepoError> {
    if data.len() < HEADER_LEN || &data[..8] != MAGIC {
        return Err(RepoError::NotARepo {
            path: path.display().to_string(),
        });
    }
    let version = data[8];
    if version == 0 || version > FORMAT_VERSION {
        return Err(RepoError::UnsupportedVersion { found: version });
    }
    Ok(version)
}

/// Locate and parse the footer. Returns the footer's file offset and its
/// entries; any structural problem comes back as a description string so
/// the caller can decide between failing (strict) and falling back to a
/// sequential scan (lenient).
fn read_footer(data: &[u8]) -> Result<(usize, Vec<IndexEntry>), String> {
    if data.len() < HEADER_LEN + TRAILER_LEN {
        return Err("file too short for a trailer".into());
    }
    let trailer = &data[data.len() - TRAILER_LEN..];
    if &trailer[8..] != END_MAGIC {
        return Err("missing end-of-file magic (truncated file?)".into());
    }
    let footer_offset = u64::from_le_bytes(trailer[..8].try_into().expect("8 bytes")) as usize;
    if footer_offset < HEADER_LEN || footer_offset + FRAME_LEN > data.len() - TRAILER_LEN {
        return Err(format!("footer offset {footer_offset} out of bounds"));
    }
    let frame = &data[footer_offset..];
    if &frame[..2] != FOOTER_MAGIC {
        return Err(format!("no footer magic at offset {footer_offset}"));
    }
    let body_len = u32::from_le_bytes(frame[2..6].try_into().expect("4 bytes")) as usize;
    let stored_crc = u32::from_le_bytes(frame[6..10].try_into().expect("4 bytes"));
    let body_end = footer_offset + FRAME_LEN + body_len;
    if body_end != data.len() - TRAILER_LEN {
        return Err("footer does not reach the trailer".into());
    }
    let body = &data[footer_offset + FRAME_LEN..body_end];
    let computed = crc32(body);
    if computed != stored_crc {
        return Err(format!(
            "footer CRC mismatch (stored {stored_crc:08x}, computed {computed:08x})"
        ));
    }
    let mut c = Cursor::new(body);
    let count = c.count(20, "footer entries").map_err(|e| e.to_string())?;
    let mut entries = Vec::with_capacity(count);
    for _ in 0..count {
        let offset = c.u64("entry offset").map_err(|e| e.to_string())?;
        let len = c.u32("entry length").map_err(|e| e.to_string())?;
        let crc = c.u32("entry crc").map_err(|e| e.to_string())?;
        let id = c.str("entry id").map_err(|e| e.to_string())?;
        entries.push(IndexEntry {
            offset,
            len,
            crc,
            id,
        });
    }
    if !c.at_end() {
        return Err("trailing bytes in footer body".into());
    }
    Ok((footer_offset, entries))
}

/// Validate one indexed segment and return its payload. Frame metadata
/// must match the footer; the payload must match its CRC.
fn segment_payload<'d>(
    data: &'d [u8],
    entry: &IndexEntry,
    index: usize,
    limit: usize,
) -> Result<&'d [u8], RepoError> {
    let start = entry.offset as usize;
    let corrupt = |detail: String| RepoError::Corrupt { detail };
    if start + FRAME_LEN > limit || start + FRAME_LEN + entry.len as usize > limit {
        return Err(corrupt(format!(
            "record #{index} ({}): segment at offset {start} overruns the footer",
            entry.id
        )));
    }
    let frame = &data[start..];
    if &frame[..2] != RECORD_MAGIC {
        return Err(corrupt(format!(
            "record #{index} ({}): no record magic at offset {start}",
            entry.id
        )));
    }
    let frame_len = u32::from_le_bytes(frame[2..6].try_into().expect("4 bytes"));
    let frame_crc = u32::from_le_bytes(frame[6..10].try_into().expect("4 bytes"));
    if frame_len != entry.len || frame_crc != entry.crc {
        return Err(corrupt(format!(
            "record #{index} ({}): segment frame disagrees with the footer index",
            entry.id
        )));
    }
    let payload = &data[start + FRAME_LEN..start + FRAME_LEN + entry.len as usize];
    let computed = crc32(payload);
    if computed != entry.crc {
        return Err(RepoError::Checksum {
            index,
            id: entry.id.clone(),
            stored: entry.crc,
            computed,
        });
    }
    Ok(payload)
}

fn decode_entry(
    data: &[u8],
    version: u8,
    entry: &IndexEntry,
    index: usize,
    limit: usize,
) -> Result<RepoRecord, RepoError> {
    let payload = segment_payload(data, entry, index, limit)?;
    let record = RepoRecord::decode(payload, version).map_err(|e| RepoError::Decode {
        index,
        id: entry.id.clone(),
        detail: e.to_string(),
    })?;
    if record.id != entry.id {
        return Err(RepoError::Corrupt {
            detail: format!(
                "record #{index}: footer names {:?} but the payload holds {:?}",
                entry.id, record.id
            ),
        });
    }
    Ok(record)
}

impl Repository {
    /// Open a repository, verifying every checksum and decoding every
    /// record. Any integrity problem fails the whole open; see
    /// [`Repository::open_lenient`] for the skip-and-continue variant.
    ///
    /// The one exception is a **torn append**: when the header's
    /// append-in-progress flag is still set, the damage is a known crash
    /// window rather than silent corruption, so the open recovers every
    /// committed frame, repairs the file in place, and reports what it
    /// did via [`Repository::recovered`] instead of failing.
    pub fn open(path: &Path) -> Result<Repository, RepoError> {
        Repository::open_on(&StdFs, path)
    }

    /// [`Repository::open`] over an injected filesystem.
    pub fn open_on(vfs: &dyn Vfs, path: &Path) -> Result<Repository, RepoError> {
        let data = vfs.read(path)?;
        let version = check_header(&data, path)?;
        if data[APPEND_FLAG_OFFSET as usize] != 0 {
            return recover_torn_append(vfs, path, &data, version);
        }
        let (footer_offset, entries) =
            read_footer(&data).map_err(|detail| RepoError::Corrupt { detail })?;
        let mut records = Vec::with_capacity(entries.len());
        for (index, entry) in entries.iter().enumerate() {
            records.push(decode_entry(&data, version, entry, index, footer_offset)?);
        }
        Ok(Repository {
            version,
            records,
            recovered: None,
        })
    }

    /// Open a repository, skipping records that fail integrity checks and
    /// collecting the reasons. A valid footer localizes damage to the
    /// affected records; without one (e.g. a truncated file) intact
    /// records are recovered by scanning segments forward from the
    /// header. Only an unreadable or non-repository file is an error.
    pub fn open_lenient(path: &Path) -> Result<LenientRepo, RepoError> {
        Repository::open_lenient_on(&StdFs, path)
    }

    /// [`Repository::open_lenient`] over an injected filesystem. Never
    /// writes, whatever it finds.
    pub fn open_lenient_on(vfs: &dyn Vfs, path: &Path) -> Result<LenientRepo, RepoError> {
        let data = vfs.read(path)?;
        let version = check_header(&data, path)?;
        let mut skipped = Vec::new();
        let mut records = Vec::new();
        if data[APPEND_FLAG_OFFSET as usize] != 0 {
            // A torn append: the footer cannot be trusted. Recover by
            // sequential scan, but stay read-only — only the strict open
            // repairs the file.
            skipped.push(SkippedRecord {
                index: None,
                id: None,
                reason: "an append was interrupted (append-in-progress flag is set); \
                         recovering records by sequential scan"
                    .into(),
            });
            sequential_scan(&data, version, &mut records, &mut skipped);
        } else {
            match read_footer(&data) {
                Ok((footer_offset, entries)) => {
                    for (index, entry) in entries.iter().enumerate() {
                        match decode_entry(&data, version, entry, index, footer_offset) {
                            Ok(r) => records.push(r),
                            Err(e) => skipped.push(SkippedRecord {
                                index: Some(index),
                                id: Some(entry.id.clone()),
                                reason: e.to_string(),
                            }),
                        }
                    }
                }
                Err(reason) => {
                    skipped.push(SkippedRecord {
                        index: None,
                        id: None,
                        reason: format!("{reason}; recovering records by sequential scan"),
                    });
                    sequential_scan(&data, version, &mut records, &mut skipped);
                }
            }
        }
        Ok(LenientRepo {
            repository: Repository {
                version,
                records,
                recovered: None,
            },
            skipped,
        })
    }

    /// Check every structure in the file without failing on the first
    /// problem; the report collects all of them.
    pub fn verify(path: &Path) -> Result<VerifyReport, RepoError> {
        Repository::verify_on(&StdFs, path)
    }

    /// [`Repository::verify`] over an injected filesystem.
    pub fn verify_on(vfs: &dyn Vfs, path: &Path) -> Result<VerifyReport, RepoError> {
        let data = vfs.read(path)?;
        let version = check_header(&data, path)?;
        let mut report = VerifyReport {
            version,
            records: 0,
            bytes: data.len() as u64,
            problems: Vec::new(),
        };
        if data[APPEND_FLAG_OFFSET as usize] != 0 {
            report.problems.push(
                "append-in-progress flag is set (an append was interrupted); \
                 a strict open repairs the file"
                    .into(),
            );
        }
        match read_footer(&data) {
            Ok((footer_offset, entries)) => {
                let mut expected_offset = HEADER_LEN as u64;
                for (index, entry) in entries.iter().enumerate() {
                    if entry.offset != expected_offset {
                        report.problems.push(format!(
                            "record #{index} ({}): expected at offset {expected_offset}, footer says {}",
                            entry.id, entry.offset
                        ));
                    }
                    expected_offset = entry.offset + (FRAME_LEN as u64) + u64::from(entry.len);
                    match decode_entry(&data, version, entry, index, footer_offset) {
                        Ok(_) => report.records += 1,
                        Err(e) => report.problems.push(e.to_string()),
                    }
                }
                if expected_offset != footer_offset as u64 {
                    report.problems.push(format!(
                        "unindexed bytes between the last record (ends {expected_offset}) and the footer ({footer_offset})"
                    ));
                }
            }
            Err(reason) => report.problems.push(format!("footer: {reason}")),
        }
        Ok(report)
    }

    /// Write a fresh repository containing `records`, replacing any
    /// existing file at `path`.
    pub fn save(path: &Path, records: &[RepoRecord]) -> Result<(), RepoError> {
        Repository::save_on(&StdFs, path, records)
    }

    /// [`Repository::save`] over an injected filesystem.
    pub fn save_on(vfs: &dyn Vfs, path: &Path, records: &[RepoRecord]) -> Result<(), RepoError> {
        let mut writer = RepoWriter::new();
        for r in records {
            writer.add(r)?;
        }
        writer.write_to_on(vfs, path)
    }

    /// Append records to an existing repository without re-encoding the
    /// ones already stored: existing record bytes are kept verbatim; the
    /// new frames land where the old footer was and a fresh footer +
    /// trailer follow them. Ids must not collide with stored records (or
    /// within the batch). The file is validated before being touched, so
    /// appending to a corrupt repository fails rather than entrenching
    /// the damage. Returns the repository's new total record count.
    ///
    /// The write is in-place but crash-safe: the header's
    /// append-in-progress flag is set (and fsync'd) first, the frames are
    /// fsync'd before the index that references them, and the flag is
    /// cleared only after the index is durable. A crash anywhere in
    /// between is detected and repaired by the next strict
    /// [`Repository::open`] — see the module docs for the full protocol.
    pub fn append(path: &Path, records: &[RepoRecord]) -> Result<usize, RepoError> {
        Repository::append_on(&StdFs, path, records)
    }

    /// [`Repository::append`] over an injected filesystem.
    pub fn append_on(
        vfs: &dyn Vfs,
        path: &Path,
        records: &[RepoRecord],
    ) -> Result<usize, RepoError> {
        append_impl(vfs, path, records, true)
    }

    /// Deliberately weakened [`Repository::append_on`] that skips the
    /// frame and index fsyncs (steps 2 and 3), leaning on the final flag
    /// fsync to flush everything at once. On a device that persists
    /// cached writes out of order, that single fsync window can commit
    /// the index while dropping the frames it points at. This exists so
    /// the crashsim suite can prove the crash-point explorer *catches*
    /// the violation — the mutation-check discipline of DESIGN.md §15,
    /// applied to storage. Never call it for real data.
    #[doc(hidden)]
    pub fn append_on_skipping_frame_sync(
        vfs: &dyn Vfs,
        path: &Path,
        records: &[RepoRecord],
    ) -> Result<usize, RepoError> {
        append_impl(vfs, path, records, false)
    }
}

/// The shared body of [`Repository::append_on`] and its weakened
/// mutation-check twin; `sync_frames` selects whether steps 2 and 3 of
/// the protocol fsync (always true outside the crashsim suite).
fn append_impl(
    vfs: &dyn Vfs,
    path: &Path,
    records: &[RepoRecord],
    sync_frames: bool,
) -> Result<usize, RepoError> {
    let data = vfs.read(path)?;
    let version = check_header(&data, path)?;
    // Older files stay read-only: appending would mix record layouts.
    if version != FORMAT_VERSION {
        return Err(RepoError::UnsupportedVersion { found: version });
    }
    if data[APPEND_FLAG_OFFSET as usize] != 0 {
        return Err(RepoError::Corrupt {
            detail: "append-in-progress flag is set (a previous append was interrupted); \
                         open the repository to repair it before appending"
                .into(),
        });
    }
    let (footer_offset, mut entries) =
        read_footer(&data).map_err(|detail| RepoError::Corrupt { detail })?;
    for (index, entry) in entries.iter().enumerate() {
        segment_payload(&data, entry, index, footer_offset)?;
    }
    if records.is_empty() {
        return Ok(entries.len());
    }
    let mut delta = Vec::new();
    for record in records {
        if entries.iter().any(|e| e.id == record.id) {
            return Err(RepoError::DuplicateId {
                id: record.id.clone(),
            });
        }
        entries.push(append_segment(&mut delta, record, footer_offset as u64));
    }
    let index = build_index(footer_offset as u64 + delta.len() as u64, &entries);

    let mut f = vfs.open(path, OpenMode::ReadWrite)?;
    // 1. Mark the append in flight before any record byte moves.
    f.write_all(APPEND_FLAG_OFFSET, &[APPEND_IN_PROGRESS])?;
    f.sync_data()?;
    // 2. Frames first: once this fsync returns they are committed —
    //    recovery keeps every complete checksum-valid frame.
    f.write_all(footer_offset as u64, &delta)?;
    if sync_frames {
        f.sync_data()?;
    }
    // 3. Then the index that references them. The file only grows
    //    (the new footer indexes a superset), so no truncation here.
    f.write_all(footer_offset as u64 + delta.len() as u64, &index)?;
    if sync_frames {
        f.sync_data()?;
    }
    // 4. Quiesce: the append is fully durable.
    f.write_all(APPEND_FLAG_OFFSET, &[0])?;
    f.sync_data()?;
    Ok(entries.len())
}

impl Repository {
    /// Aggregate statistics over the records.
    pub fn stats(&self) -> RepoStats {
        RepoStats {
            version: self.version,
            records: self.records.len(),
            triples: self.records.iter().map(|r| r.graph.len() as u64).sum(),
            terms: self
                .records
                .iter()
                .map(|r| r.graph.pool().len() as u64)
                .sum(),
            ops: self.records.iter().map(|r| r.qep.op_count() as u64).sum(),
            labeled: self.records.iter().filter(|r| !r.labels.is_empty()).count(),
        }
    }
}

/// Encode one record as a segment at the end of `buf`, returning its
/// index entry. `base` is the file offset `buf[0]` will land at, so
/// entry offsets are absolute whether the buffer holds the whole image
/// (writer: base 0) or just an append delta (base = old footer offset).
fn append_segment(buf: &mut Vec<u8>, record: &RepoRecord, base: u64) -> IndexEntry {
    let payload = record.encode();
    let entry = IndexEntry {
        offset: base + buf.len() as u64,
        len: payload.len() as u32,
        crc: crc32(&payload),
        id: record.id.clone(),
    };
    buf.extend_from_slice(RECORD_MAGIC);
    put_u32(buf, entry.len);
    put_u32(buf, entry.crc);
    buf.extend_from_slice(&payload);
    entry
}

/// Build the footer + trailer bytes indexing `entries`, for a footer
/// that will live at file offset `footer_offset`.
fn build_index(footer_offset: u64, entries: &[IndexEntry]) -> Vec<u8> {
    let mut body = Vec::with_capacity(entries.len() * 32 + 4);
    put_u32(&mut body, entries.len() as u32);
    for e in entries {
        put_u64(&mut body, e.offset);
        put_u32(&mut body, e.len);
        put_u32(&mut body, e.crc);
        put_str(&mut body, &e.id);
    }
    let mut out = Vec::with_capacity(FRAME_LEN + body.len() + TRAILER_LEN);
    out.extend_from_slice(FOOTER_MAGIC);
    put_u32(&mut out, body.len() as u32);
    put_u32(&mut out, crc32(&body));
    out.extend_from_slice(&body);
    put_u64(&mut out, footer_offset);
    out.extend_from_slice(END_MAGIC);
    out
}

/// Append the footer and trailer for `entries` to a buffer that ends
/// right after the last record segment.
fn finish_file(buf: &mut Vec<u8>, entries: &[IndexEntry]) {
    let index = build_index(buf.len() as u64, entries);
    buf.extend_from_slice(&index);
}

/// Strict-open recovery for a file whose append-in-progress flag is set:
/// the last append tore somewhere between marking and quiescing. Frames
/// were fsync'd before the index, so every complete checksum-valid frame
/// is committed data; the first damaged byte starts the torn tail.
fn recover_torn_append(
    vfs: &dyn Vfs,
    path: &Path,
    data: &[u8],
    version: u8,
) -> Result<Repository, RepoError> {
    // Fast path: the crash landed between the index write and the flag
    // clear. The footer is intact and every record decodes — nothing was
    // lost; repair is just clearing the flag.
    if let Ok((footer_offset, entries)) = read_footer(data) {
        let decoded: Result<Vec<RepoRecord>, RepoError> = entries
            .iter()
            .enumerate()
            .map(|(index, entry)| decode_entry(data, version, entry, index, footer_offset))
            .collect();
        if let Ok(records) = decoded {
            let _ = clear_append_flag(vfs, path);
            return Ok(Repository {
                version,
                recovered: Some(RecoveredAppend {
                    records: records.len(),
                    dropped_bytes: 0,
                }),
                records,
            });
        }
    }
    // Walk the self-delimiting frames forward from the header. The first
    // frame that is incomplete, unrecognized, checksum-invalid, or
    // undecodable marks where the tear begins; everything after it
    // (including the stale or partial index) is the torn tail.
    let mut pos = HEADER_LEN;
    let mut entries = Vec::new();
    let mut records = Vec::new();
    while pos + FRAME_LEN <= data.len() && &data[pos..pos + 2] == RECORD_MAGIC {
        let len = u32::from_le_bytes(data[pos + 2..pos + 6].try_into().expect("4 bytes")) as usize;
        let crc = u32::from_le_bytes(data[pos + 6..pos + 10].try_into().expect("4 bytes"));
        if pos + FRAME_LEN + len > data.len() {
            break;
        }
        let payload = &data[pos + FRAME_LEN..pos + FRAME_LEN + len];
        if crc32(payload) != crc {
            break;
        }
        let Ok(record) = RepoRecord::decode(payload, version) else {
            break;
        };
        entries.push(IndexEntry {
            offset: pos as u64,
            len: len as u32,
            crc,
            id: record.id.clone(),
        });
        records.push(record);
        pos += FRAME_LEN + len;
    }
    let dropped_bytes = (data.len() - pos) as u64;
    // Best-effort repair: rewrite the index over the torn tail, truncate,
    // clear the flag. A failure (read-only file system, say) still opens
    // — the file just stays dirty and the next open recovers again.
    let _ = repair_torn_file(vfs, path, pos as u64, &entries);
    Ok(Repository {
        version,
        recovered: Some(RecoveredAppend {
            records: records.len(),
            dropped_bytes,
        }),
        records,
    })
}

/// Rewrite the index at `footer_offset`, drop everything after it, and
/// quiesce the flag — the repair half of [`recover_torn_append`].
fn repair_torn_file(
    vfs: &dyn Vfs,
    path: &Path,
    footer_offset: u64,
    entries: &[IndexEntry],
) -> std::io::Result<()> {
    let index = build_index(footer_offset, entries);
    let mut f = vfs.open(path, OpenMode::ReadWrite)?;
    f.write_all(footer_offset, &index)?;
    f.set_len(footer_offset + index.len() as u64)?;
    f.sync_data()?;
    f.write_all(APPEND_FLAG_OFFSET, &[0])?;
    f.sync_data()
}

/// Clear the append-in-progress flag on an otherwise intact file.
fn clear_append_flag(vfs: &dyn Vfs, path: &Path) -> std::io::Result<()> {
    let mut f = vfs.open(path, OpenMode::ReadWrite)?;
    f.write_all(APPEND_FLAG_OFFSET, &[0])?;
    f.sync_data()
}

/// Write through a sibling temp file + rename, so a crash mid-write
/// cannot leave a half-written repository under the final name.
fn write_atomically(vfs: &dyn Vfs, path: &Path, bytes: &[u8]) -> Result<(), RepoError> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = std::path::PathBuf::from(tmp);
    let mut f = vfs.open(&tmp, OpenMode::Create)?;
    f.write_all(0, bytes)?;
    f.sync_data()?;
    drop(f);
    vfs.rename(&tmp, path).map_err(RepoError::Io)
}

/// Footer-less recovery: walk self-delimiting segments forward from the
/// header, keeping every record whose CRC and decode succeed.
fn sequential_scan(
    data: &[u8],
    version: u8,
    records: &mut Vec<RepoRecord>,
    skipped: &mut Vec<SkippedRecord>,
) {
    let mut pos = HEADER_LEN;
    let mut index = 0usize;
    loop {
        if pos == data.len() {
            break;
        }
        if pos + FRAME_LEN > data.len() {
            skipped.push(SkippedRecord {
                index: Some(index),
                id: None,
                reason: format!("truncated segment frame at offset {pos}"),
            });
            break;
        }
        let magic = &data[pos..pos + 2];
        if magic == FOOTER_MAGIC {
            break; // Reached the footer; everything before it is recovered.
        }
        if magic != RECORD_MAGIC {
            skipped.push(SkippedRecord {
                index: Some(index),
                id: None,
                reason: format!("unrecognized segment magic at offset {pos}"),
            });
            break;
        }
        let len = u32::from_le_bytes(data[pos + 2..pos + 6].try_into().expect("4 bytes")) as usize;
        let crc = u32::from_le_bytes(data[pos + 6..pos + 10].try_into().expect("4 bytes"));
        if pos + FRAME_LEN + len > data.len() {
            skipped.push(SkippedRecord {
                index: Some(index),
                id: None,
                reason: format!("truncated record payload at offset {pos}"),
            });
            break;
        }
        let payload = &data[pos + FRAME_LEN..pos + FRAME_LEN + len];
        let computed = crc32(payload);
        if computed != crc {
            skipped.push(SkippedRecord {
                index: Some(index),
                id: None,
                reason: format!("CRC mismatch (stored {crc:08x}, computed {computed:08x})"),
            });
        } else {
            match RepoRecord::decode(payload, version) {
                Ok(r) => records.push(r),
                Err(e) => skipped.push(SkippedRecord {
                    index: Some(index),
                    id: None,
                    reason: e.to_string(),
                }),
            }
        }
        pos += FRAME_LEN + len;
        index += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use optimatch_qep::fixtures;
    use optimatch_rdf::{GraphBuilder, Term};

    fn record(id: &str, qep: optimatch_qep::Qep) -> RepoRecord {
        let mut qep = qep;
        qep.id = id.to_string();
        let mut graph = GraphBuilder::new();
        graph.insert(
            Term::iri(format!("http://x/{id}")),
            Term::iri("http://x/hasPopType"),
            Term::lit_str("TBSCAN"),
        );
        RepoRecord {
            id: id.to_string(),
            source_file: format!("{id}.qep"),
            labels: vec![format!("label-of-{id}")],
            qep,
            graph: graph.build(),
        }
    }

    fn temp_path(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("optimatch-repo-store");
        std::fs::create_dir_all(&dir).expect("temp dir");
        dir.join(format!("{tag}.repo"))
    }

    fn three_records() -> Vec<RepoRecord> {
        vec![
            record("alpha", fixtures::fig1()),
            record("beta", fixtures::fig7()),
            record("gamma", fixtures::fig8()),
        ]
    }

    #[test]
    fn save_open_round_trips() {
        let path = temp_path("roundtrip");
        let records = three_records();
        Repository::save(&path, &records).unwrap();
        assert!(is_repo_file(&path));
        let repo = Repository::open(&path).unwrap();
        assert_eq!(repo.version, FORMAT_VERSION);
        assert_eq!(repo.records.len(), 3);
        for (a, b) in repo.records.iter().zip(&records) {
            assert_eq!(a.id, b.id);
            assert_eq!(a.qep, b.qep);
            assert_eq!(a.labels, b.labels);
        }
        let stats = repo.stats();
        assert_eq!(stats.records, 3);
        assert_eq!(stats.labeled, 3);
        assert!(stats.triples >= 3);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn append_preserves_existing_bytes() {
        let path = temp_path("append");
        let records = three_records();
        Repository::save(&path, &records[..2]).unwrap();
        let before = std::fs::read(&path).unwrap();
        assert_eq!(Repository::append(&path, &records[2..]).unwrap(), 3);
        let after = std::fs::read(&path).unwrap();
        // The original record region is byte-identical; only index
        // structures after it changed.
        let first_region = before.len() - TRAILER_LEN; // up to old footer start is a prefix
        let _ = first_region;
        let repo = Repository::open(&path).unwrap();
        assert_eq!(
            repo.records
                .iter()
                .map(|r| r.id.as_str())
                .collect::<Vec<_>>(),
            vec!["alpha", "beta", "gamma"]
        );
        // Old record bytes survive verbatim at the same offsets.
        assert_eq!(&after[..HEADER_LEN], &before[..HEADER_LEN]);
        let verify = Repository::verify(&path).unwrap();
        assert!(verify.is_ok(), "{:?}", verify.problems);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn append_rejects_duplicate_ids() {
        let path = temp_path("appenddup");
        let records = three_records();
        Repository::save(&path, &records).unwrap();
        let err = Repository::append(&path, &records[..1]).unwrap_err();
        assert!(matches!(err, RepoError::DuplicateId { .. }), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn writer_rejects_duplicate_ids() {
        let mut w = RepoWriter::new();
        let r = record("dup", fixtures::fig1());
        w.add(&r).unwrap();
        assert!(matches!(w.add(&r), Err(RepoError::DuplicateId { .. })));
    }

    #[test]
    fn open_rejects_non_repositories() {
        let path = temp_path("notarepo");
        std::fs::write(&path, b"Plan Details:\n").unwrap();
        assert!(!is_repo_file(&path));
        assert!(matches!(
            Repository::open(&path),
            Err(RepoError::NotARepo { .. })
        ));
        std::fs::remove_file(&path).ok();
        assert!(matches!(Repository::open(&path), Err(RepoError::Io(_))));
    }

    #[test]
    fn open_rejects_future_versions() {
        let path = temp_path("future");
        Repository::save(&path, &three_records()).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[8] = FORMAT_VERSION + 1;
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            Repository::open(&path),
            Err(RepoError::UnsupportedVersion { found }) if found == FORMAT_VERSION + 1
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn empty_repository_is_valid() {
        let path = temp_path("empty");
        Repository::save(&path, &[]).unwrap();
        let repo = Repository::open(&path).unwrap();
        assert!(repo.records.is_empty());
        assert!(Repository::verify(&path).unwrap().is_ok());
        std::fs::remove_file(&path).ok();
    }
}

/// An incremental writer: add records one at a time, then write the
/// finished file. Building happens in memory (per-QEP graphs are small);
/// the write itself goes through a temp file + rename.
#[derive(Debug, Default)]
pub struct RepoWriter {
    buf: Vec<u8>,
    entries: Vec<IndexEntry>,
}

impl RepoWriter {
    /// Start a new repository image (header only).
    pub fn new() -> RepoWriter {
        let mut buf = Vec::with_capacity(64 * 1024);
        buf.extend_from_slice(MAGIC);
        buf.push(FORMAT_VERSION);
        buf.extend_from_slice(&[0u8; 7]);
        RepoWriter {
            buf,
            entries: Vec::new(),
        }
    }

    /// Number of records added so far.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no records have been added.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Append one record. Ids must be unique within the repository.
    pub fn add(&mut self, record: &RepoRecord) -> Result<(), RepoError> {
        if self.entries.iter().any(|e| e.id == record.id) {
            return Err(RepoError::DuplicateId {
                id: record.id.clone(),
            });
        }
        // The buffer starts at the header, so offsets are absolute.
        let entry = append_segment(&mut self.buf, record, 0);
        self.entries.push(entry);
        Ok(())
    }

    /// Finish the image (footer + trailer) and return its bytes.
    pub fn finish(mut self) -> Vec<u8> {
        finish_file(&mut self.buf, &self.entries);
        self.buf
    }

    /// Finish the image and write it to `path` atomically.
    pub fn write_to(self, path: &Path) -> Result<(), RepoError> {
        self.write_to_on(&StdFs, path)
    }

    /// [`RepoWriter::write_to`] over an injected filesystem.
    pub fn write_to_on(self, vfs: &dyn Vfs, path: &Path) -> Result<(), RepoError> {
        let bytes = self.finish();
        write_atomically(vfs, path, &bytes)
    }
}
