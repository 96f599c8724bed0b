//! The on-disk repository format and its readers/writers.
//!
//! ```text
//! header    "OPTIREPO" · version · append-in-progress flag (byte 9)
//! records   one "QR" frame per record, payload: an encoded `RepoRecord`
//! footer    one "IX" frame, payload: count u32, then per record
//!           offset u64 · payload_len u32 · crc32 u32 · id str
//! trailer   footer_offset u64 · "OPTI-END" (16 B)
//! ```
//!
//! [`crate::frame`] lays out, encodes and reads the header and the
//! frames. Frames are self-delimiting, so a reader that loses the footer
//! (e.g. after truncation) can still recover every intact record by
//! walking them forward from the header — that is what the lenient open
//! does.
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

use crate::frame::{self, FrameError, HeaderError, FRAME_LEN, HEADER_LEN};
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
const TRAILER_LEN: usize = 16;
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

/// Read a whole repository file and check its header; returns the bytes
/// and the format version.
fn load(vfs: &dyn Vfs, path: &Path) -> Result<(Vec<u8>, u8), RepoError> {
    let data = vfs.read(path)?;
    match frame::read_header(&data, MAGIC, FORMAT_VERSION) {
        Ok(version) => Ok((data, version)),
        Err(HeaderError::Magic) => Err(RepoError::NotARepo {
            path: path.display().to_string(),
        }),
        Err(HeaderError::Version(found)) => Err(RepoError::UnsupportedVersion { found }),
    }
}

/// The parsed footer: its file offset and one entry per record.
struct Index {
    offset: usize,
    entries: Vec<IndexEntry>,
}

impl Index {
    /// Locate and parse the footer. Any structural problem comes back as
    /// a description string so the caller can decide between failing
    /// (strict) and falling back to a sequential scan (lenient).
    fn read(data: &[u8]) -> Result<Index, String> {
        let limit = data.len().saturating_sub(TRAILER_LEN);
        if limit < HEADER_LEN {
            return Err("file too short for a trailer".into());
        }
        if &data[limit + 8..] != END_MAGIC {
            return Err("missing end-of-file magic (truncated file?)".into());
        }
        let offset = u64::from_le_bytes(data[limit..limit + 8].try_into().expect("8 bytes"));
        let out_of_bounds = || format!("footer offset {offset} out of bounds");
        let body = match frame::read_at(data, offset, limit, FOOTER_MAGIC) {
            _ if offset < HEADER_LEN as u64 => Err(out_of_bounds()),
            Err(FrameError::Truncated) => Err(out_of_bounds()),
            Err(FrameError::Magic(_)) => Err(format!("no footer magic at offset {offset}")),
            Ok(footer) if footer.end() == limit => footer
                .payload()
                .map_err(|computed| format!("footer {}", crc_mismatch(footer.crc, computed))),
            _ => Err("footer does not reach the trailer".into()),
        }?;
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
        Ok(Index {
            offset: offset as usize,
            entries,
        })
    }

    /// The one pass over the index: each entry with its record, read
    /// from a frame that matches the entry and its CRC, in file order.
    /// Lazy, so a strict reader stops at the first failure.
    fn records<'a>(
        &'a self,
        data: &'a [u8],
        version: u8,
    ) -> impl Iterator<Item = (usize, &'a IndexEntry, Result<RepoRecord, RepoError>)> + 'a {
        self.entries.iter().enumerate().map(move |(index, entry)| {
            let record = entry
                .payload(data, index, self.offset)
                .and_then(|payload| entry.decode(payload, version, index));
            (index, entry, record)
        })
    }
}

impl IndexEntry {
    /// File offset just past the indexed segment; `None` past `u64::MAX`.
    fn end(&self) -> Option<u64> {
        self.offset
            .checked_add(FRAME_LEN as u64 + u64::from(self.len))
    }

    /// The indexed segment's payload. The segment must end by `limit`
    /// (the footer offset), its frame must match this entry, and the
    /// payload must match its CRC.
    fn payload<'d>(
        &self,
        data: &'d [u8],
        index: usize,
        limit: usize,
    ) -> Result<&'d [u8], RepoError> {
        let problem = match frame::read_at(data, self.offset, limit, RECORD_MAGIC) {
            _ if self.end().is_none_or(|end| end > limit as u64) => {
                format!("segment at offset {} overruns the footer", self.offset)
            }
            Ok(frame) if (frame.len, frame.crc) == (self.len, self.crc) => {
                return frame.payload().map_err(|computed| RepoError::Checksum {
                    index,
                    id: self.id.clone(),
                    stored: self.crc,
                    computed,
                });
            }
            Err(FrameError::Magic(_)) => format!("no record magic at offset {}", self.offset),
            _ => "segment frame disagrees with the footer index".into(),
        };
        Err(RepoError::Corrupt {
            detail: format!("record #{index} ({}): {problem}", self.id),
        })
    }

    /// Decode this entry's payload; the record must carry the entry's id.
    fn decode(&self, payload: &[u8], version: u8, index: usize) -> Result<RepoRecord, RepoError> {
        let record = RepoRecord::decode(payload, version).map_err(|e| RepoError::Decode {
            index,
            id: self.id.clone(),
            detail: e.to_string(),
        })?;
        if record.id != self.id {
            return Err(RepoError::Corrupt {
                detail: format!(
                    "record #{index}: footer names {:?} but the payload holds {:?}",
                    self.id, record.id
                ),
            });
        }
        Ok(record)
    }
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
        let (data, version) = load(vfs, path)?;
        let indexed: Result<Vec<_>, _> = Index::read(&data)
            .map_err(|detail| RepoError::Corrupt { detail })
            .and_then(|index| index.records(&data, version).map(|(_, _, r)| r).collect());
        let records = match indexed {
            Ok(records) => records,
            Err(e) if data[APPEND_FLAG_OFFSET as usize] == 0 => return Err(e),
            Err(_) => return Ok(recover_torn_append(vfs, path, &data, version)),
        };
        // A set flag with an intact footer whose records all decode: the
        // crash landed between the index write and the flag clear, and
        // nothing was lost; repair is just clearing the flag.
        let recovered = (data[APPEND_FLAG_OFFSET as usize] != 0).then(|| {
            let _ = clear_append_flag(vfs, path);
            RecoveredAppend {
                records: records.len(),
                dropped_bytes: 0,
            }
        });
        Ok(Repository {
            version,
            records,
            recovered,
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
        let (data, version) = load(vfs, path)?;
        let (mut records, mut skipped) = (Vec::new(), Vec::new());
        let mut keep = |index, id, outcome: Result<RepoRecord, String>| match outcome {
            Ok(record) => records.push(record),
            Err(reason) => skipped.push(SkippedRecord { index, id, reason }),
        };
        // A torn append: the footer cannot be trusted. Recover by
        // sequential scan, but stay read-only — only the strict open
        // repairs the file.
        let footer = if data[APPEND_FLAG_OFFSET as usize] != 0 {
            Err("an append was interrupted (append-in-progress flag is set)".into())
        } else {
            Index::read(&data)
        };
        match footer {
            Ok(footer) => {
                for (index, entry, record) in footer.records(&data, version) {
                    let outcome = record.map_err(|e| e.to_string());
                    keep(Some(index), Some(entry.id.clone()), outcome);
                }
            }
            Err(reason) => {
                let reason = format!("{reason}; recovering records by sequential scan");
                keep(None, None, Err(reason));
                for (index, outcome) in sequential_scan(&data, version) {
                    keep(Some(index), None, outcome);
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
        let (data, version) = load(vfs, path)?;
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
        match Index::read(&data) {
            Ok(index) => {
                let mut expected_offset = HEADER_LEN as u64;
                for (i, entry, record) in index.records(&data, version) {
                    if entry.offset != expected_offset {
                        report.problems.push(format!(
                            "record #{i} ({}): expected at offset {expected_offset}, footer says {}",
                            entry.id, entry.offset
                        ));
                    }
                    expected_offset = entry.end().unwrap_or(u64::MAX);
                    match record {
                        Ok(_) => report.records += 1,
                        Err(e) => report.problems.push(e.to_string()),
                    }
                }
                if expected_offset != index.offset as u64 {
                    report.problems.push(format!(
                        "unindexed bytes between the last record (ends {expected_offset}) and the footer ({})",
                        index.offset
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

/// The shared body of [`Repository::append_on`] and its weakened
/// mutation-check twin; `sync_frames` selects whether steps 2 and 3 of
/// the protocol fsync (always true outside the crashsim suite).
fn append_impl(
    vfs: &dyn Vfs,
    path: &Path,
    records: &[RepoRecord],
    sync_frames: bool,
) -> Result<usize, RepoError> {
    let (data, version) = load(vfs, path)?;
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
    let Index {
        offset: footer_offset,
        mut entries,
    } = Index::read(&data).map_err(|detail| RepoError::Corrupt { detail })?;
    // Every stored frame's CRC is checked; the records are not decoded.
    for (index, entry) in entries.iter().enumerate() {
        entry.payload(&data, index, footer_offset)?;
    }
    if records.is_empty() {
        return Ok(entries.len());
    }
    let mut delta = Vec::new();
    for record in records {
        add_record(&mut delta, &mut entries, record, footer_offset as u64)?;
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

/// Frame `record` at the end of `buf` and index it in `entries`, whose
/// ids it must not repeat. `base` is the file offset `buf[0]` will land
/// at, so entry offsets are absolute whether the buffer holds the whole
/// image (writer: base 0) or just an append delta (base = old footer
/// offset).
fn add_record(
    buf: &mut Vec<u8>,
    entries: &mut Vec<IndexEntry>,
    record: &RepoRecord,
    base: u64,
) -> Result<(), RepoError> {
    if entries.iter().any(|e| e.id == record.id) {
        return Err(RepoError::DuplicateId {
            id: record.id.clone(),
        });
    }
    let offset = base + buf.len() as u64;
    let payload = record.encode();
    let crc = frame::encode(buf, RECORD_MAGIC, &payload);
    entries.push(IndexEntry {
        offset,
        len: payload.len() as u32,
        crc,
        id: record.id.clone(),
    });
    Ok(())
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
    frame::encode(&mut out, FOOTER_MAGIC, &body);
    put_u64(&mut out, footer_offset);
    out.extend_from_slice(END_MAGIC);
    out
}

/// Strict-open recovery for a file whose append-in-progress flag is set
/// and whose index no longer reads: the last append tore somewhere
/// between marking and quiescing. Frames were fsync'd before the index,
/// so every complete checksum-valid frame is committed data. Walking the
/// frames forward from the header, the first one that is incomplete,
/// unrecognized, checksum-invalid, or undecodable starts the torn tail;
/// everything from there (including the stale or partial index) goes.
fn recover_torn_append(vfs: &dyn Vfs, path: &Path, data: &[u8], version: u8) -> Repository {
    let mut entries = Vec::new();
    let mut end = HEADER_LEN;
    let records: Vec<RepoRecord> = frame::walk(data, HEADER_LEN, RECORD_MAGIC)
        .map_while(|item| {
            let frame = item.ok()?;
            let record = RepoRecord::decode(frame.payload().ok()?, version).ok()?;
            entries.push(IndexEntry {
                offset: frame.offset as u64,
                len: frame.len,
                crc: frame.crc,
                id: record.id.clone(),
            });
            end = frame.end();
            Some(record)
        })
        .collect();
    // Best-effort repair: rewrite the index over the torn tail, truncate,
    // clear the flag. A failure (read-only file system, say) still opens
    // — the file just stays dirty and the next open recovers again.
    let _ = repair_torn_file(vfs, path, end as u64, &entries);
    Repository {
        version,
        recovered: Some(RecoveredAppend {
            records: records.len(),
            dropped_bytes: (data.len() - end) as u64,
        }),
        records,
    }
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

/// Footer-less recovery: walk the frames forward from the header, with
/// each frame's record or the reason to skip it. A frame that cannot be
/// read is the last one; the footer ends the walk quietly.
fn sequential_scan(
    data: &[u8],
    version: u8,
) -> impl Iterator<Item = (usize, Result<RepoRecord, String>)> + '_ {
    let mut at = HEADER_LEN;
    let frames = frame::walk(data, HEADER_LEN, RECORD_MAGIC).enumerate();
    frames.map_while(move |(index, item)| {
        let outcome = match item {
            Ok(frame) => {
                at = frame.end();
                let payload = frame.payload().map_err(|c| crc_mismatch(frame.crc, c));
                payload.and_then(|p| RepoRecord::decode(p, version).map_err(|e| e.to_string()))
            }
            Err(FrameError::Magic(found)) if &found == FOOTER_MAGIC => return None,
            Err(FrameError::Magic(_)) => Err(format!("unrecognized segment magic at offset {at}")),
            Err(FrameError::Truncated) => Err(format!("truncated segment frame at offset {at}")),
            Err(FrameError::Overrun) => Err(format!("truncated record payload at offset {at}")),
        };
        Some((index, outcome))
    })
}

/// How a frame whose payload fails its CRC is reported.
fn crc_mismatch(stored: u32, computed: u32) -> String {
    format!("CRC mismatch (stored {stored:08x}, computed {computed:08x})")
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
        buf.extend_from_slice(&frame::header(MAGIC, FORMAT_VERSION));
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
        // The buffer starts at the header, so offsets are absolute.
        add_record(&mut self.buf, &mut self.entries, record, 0)
    }

    /// Finish the image (footer + trailer) and return its bytes.
    pub fn finish(mut self) -> Vec<u8> {
        let index = build_index(self.buf.len() as u64, &self.entries);
        self.buf.extend_from_slice(&index);
        self.buf
    }

    /// Finish the image and write it to `path` atomically.
    pub fn write_to(self, path: &Path) -> Result<(), RepoError> {
        self.write_to_on(&StdFs, path)
    }

    /// [`RepoWriter::write_to`] over an injected filesystem.
    /// The write goes through a sibling temp file + rename, so a crash
    /// mid-write cannot leave a half-written repository under the final
    /// name.
    pub fn write_to_on(self, vfs: &dyn Vfs, path: &Path) -> Result<(), RepoError> {
        let mut tmp = path.as_os_str().to_owned();
        tmp.push(".tmp");
        let tmp = std::path::PathBuf::from(tmp);
        let mut f = vfs.open(&tmp, OpenMode::Create)?;
        f.write_all(0, &self.finish())?;
        f.sync_data()?;
        drop(f);
        vfs.rename(&tmp, path).map_err(RepoError::Io)
    }
}
