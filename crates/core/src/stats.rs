//! The durable fleet match-history store ("MatchStats").
//!
//! The paper ranks recommendations by correlating match confidence with
//! cost impact *within one scan* (§2.3). A fleet sees far more evidence
//! than one scan: every diagnosis, scan, and regression analysis fires
//! matches whose (confidence, cost-share) pairs say how well each entry's
//! prototype actually predicts expensive spots in real traffic. This
//! module persists those samples and derives, per entry, the weight
//! [`crate::rank::correlation_weight`] gives the accumulated history
//! ([`MatchStatsStore::weights`], which `GET /v1/stats` reports). Served
//! rankings do not use these weights: they come from the in-scan sample
//! alone.
//!
//! The store is an append-only sidecar file next to the workload
//! repository. It uses [`optimatch_repo::frame`], the repository's own
//! header and frame codec:
//!
//! ```text
//! header:    "OPTISTAT" · version (1)
//! record 0:  "MS" frame, payload: entry str · qep_id str ·
//!            confidence f64 · cost_share f64 · generation u64
//! record 1:  …
//! ```
//!
//! There is no footer or index: records are self-delimiting and the file
//! only ever grows, so a reopen after a kill is byte-identical — nothing
//! is rewritten. Appends are fsync'd before [`MatchStatsStore::record`]
//! returns. A torn tail (crash mid-append) is detected by the frame CRC,
//! reported, and overwritten by the next append; every complete frame
//! before it survives.

use std::path::{Path, PathBuf};
// Plain `std` Arc for the filesystem handle: the vfs carries no
// concurrency protocol worth model-checking, and the loom `Arc` cannot
// hold unsized trait objects.
use std::sync::Arc;

use crate::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use crate::sync::{Mutex, MutexGuard, PoisonError};

use optimatch_repo::frame::{self, HeaderError, HEADER_LEN};
use optimatch_repo::vfs::{std_fs, OpenMode, Vfs};
use optimatch_repo::wire::{put_f64, put_str, put_u64, Cursor};

use crate::error::Error;
use crate::kb::MatchSample;
use crate::rank;

/// The 8-byte magic every MatchStats sidecar starts with.
pub const STATS_MAGIC: &[u8; 8] = b"OPTISTAT";
/// Current format version.
pub const STATS_VERSION: u8 = 1;
/// Recorded samples an entry needs before its learned weight counts
/// ([`EntryWeight::learned`]) — below this the recorded correlation is
/// noise.
pub const MIN_HISTORY: usize = 8;

const RECORD_MAGIC: &[u8; 2] = b"MS";

/// One recorded fired match.
#[derive(Debug, Clone, PartialEq)]
pub struct MatchRecord {
    /// The KB entry that fired.
    pub entry: String,
    /// The QEP it fired on.
    pub qep_id: String,
    /// Raw confidence of the best occurrence.
    pub confidence: f64,
    /// Cost share of the best occurrence's anchor operator.
    pub cost_share: f64,
    /// Session generation at recording time (0 for static sessions).
    pub generation: u64,
}

impl MatchRecord {
    fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(64);
        put_str(&mut buf, &self.entry);
        put_str(&mut buf, &self.qep_id);
        put_f64(&mut buf, self.confidence);
        put_f64(&mut buf, self.cost_share);
        put_u64(&mut buf, self.generation);
        buf
    }

    /// The record as one `"MS"` frame ([`optimatch_repo::frame`]). What
    /// [`MatchStatsStore::record`] appends and [`recover`] re-reads;
    /// public so crash-recovery tests can build file images byte by byte.
    pub fn frame(&self) -> Vec<u8> {
        let mut frame = Vec::new();
        frame::encode(&mut frame, RECORD_MAGIC, &self.encode());
        frame
    }

    /// The record in `payload`, which it must fill exactly.
    fn decode(payload: &[u8]) -> Option<MatchRecord> {
        let mut c = Cursor::new(payload);
        let record = MatchRecord {
            entry: c.str("entry").ok()?,
            qep_id: c.str("qep_id").ok()?,
            confidence: c.f64("confidence").ok()?,
            cost_share: c.f64("cost_share").ok()?,
            generation: c.u64("generation").ok()?,
        };
        c.at_end().then_some(record)
    }
}

/// The learned state of one entry, derived from recorded history.
#[derive(Debug, Clone, PartialEq)]
pub struct EntryWeight {
    /// The KB entry name.
    pub entry: String,
    /// Recorded fired matches for this entry.
    pub samples: usize,
    /// The correlation weight history assigns it (1.0 = neutral, and
    /// 1.0 until `samples >= MIN_HISTORY`).
    pub weight: f64,
    /// True once the entry has enough history for the weight to be learned.
    pub learned: bool,
}

#[derive(Debug, Default)]
struct StatsState {
    records: Vec<MatchRecord>,
    /// File offset appends continue at — end of the last intact frame.
    valid_len: u64,
}

/// The canonical 16-byte sidecar header: magic, version, reserved zeros.
pub fn header_bytes() -> [u8; HEADER_LEN] {
    frame::header(STATS_MAGIC, STATS_VERSION)
}

/// Recover every intact record from a full sidecar image (header
/// included). Returns the records and `valid_len` — the offset of the
/// first byte that is not part of an intact frame, i.e. where the next
/// append would continue. Shared by [`MatchStatsStore::open`] and the
/// crash-recovery model tests, so what the tests prove is exactly what
/// production runs.
pub fn recover(data: &[u8]) -> Result<(Vec<MatchRecord>, usize), Error> {
    frame::read_header(data, STATS_MAGIC, STATS_VERSION).map_err(|e| {
        Error::Internal(match e {
            HeaderError::Magic => "not a MatchStats sidecar".to_string(),
            HeaderError::Version(found) => format!("unsupported MatchStats version {found}"),
        })
    })?;
    // The torn tail starts at the first frame that is incomplete,
    // damaged, or undecodable.
    let mut valid_len = HEADER_LEN;
    let records = frame::walk(data, HEADER_LEN, RECORD_MAGIC)
        .map_while(|item| {
            let frame = item.ok()?;
            let record = MatchRecord::decode(frame.payload().ok()?)?;
            valid_len = frame.end();
            Some(record)
        })
        .collect();
    Ok((records, valid_len))
}

/// A durable, append-only store of fired-match statistics. Thread-safe:
/// one mutex orders appends and guards the in-memory aggregate.
#[derive(Debug)]
pub struct MatchStatsStore {
    /// `None` for an ephemeral (memory-only) store.
    path: Option<PathBuf>,
    /// The filesystem appends go through ([`std_fs`] in production).
    vfs: Arc<dyn Vfs>,
    state: Mutex<StatsState>,
    /// Bytes of torn tail found at open (0 for a clean file); the next
    /// append overwrites them.
    torn_tail: u64,
    /// Samples lost to failed best-effort appends; surfaced through
    /// `GET /v1/stats` so dropped history is visible, not silent.
    dropped: AtomicU64,
    /// Set once the store looks structurally gone (file deleted,
    /// permissions revoked) rather than transiently failing; further
    /// best-effort appends skip the doomed I/O.
    poisoned: AtomicBool,
    /// Log-once latch for the first best-effort failure.
    logged: AtomicBool,
    /// Always true outside the crashsim suite; see
    /// [`MatchStatsStore::skip_sync_for_tests`].
    sync_appends: bool,
}

impl MatchStatsStore {
    /// The conventional sidecar location for a repository at `repo`:
    /// the same path with `.stats` appended (`wl.optirepo.stats`).
    pub fn sidecar_path(repo: &Path) -> PathBuf {
        let mut os = repo.as_os_str().to_owned();
        os.push(".stats");
        PathBuf::from(os)
    }

    /// Open (or create) a MatchStats sidecar. Every intact frame is
    /// loaded; a torn tail after the last intact frame is tolerated and
    /// reported via [`MatchStatsStore::torn_tail_bytes`]. A missing file,
    /// or one that holds a strict prefix of the header (an empty file
    /// included: a creation cut short), is created: the header is written
    /// and synced. Any other file is only read, so a kill-and-reopen
    /// leaves it byte-identical; one whose bytes disagree with the header
    /// is refused.
    pub fn open(path: &Path) -> Result<MatchStatsStore, Error> {
        MatchStatsStore::open_on(std_fs(), path)
    }

    /// [`MatchStatsStore::open`] over an injected filesystem; appends
    /// go through the same handle for the store's whole life.
    pub fn open_on(vfs: Arc<dyn Vfs>, path: &Path) -> Result<MatchStatsStore, Error> {
        let torn_creation =
            |data: &[u8]| data.len() < HEADER_LEN && header_bytes().starts_with(data);
        let data = match vfs.read(path) {
            Ok(data) if !torn_creation(&data) => data,
            Err(e) if e.kind() != std::io::ErrorKind::NotFound => return Err(Error::Io(e)),
            _ => {
                let mut f = vfs.open(path, OpenMode::Create)?;
                f.write_all(0, &header_bytes())?;
                f.sync_data()?;
                header_bytes().to_vec()
            }
        };
        let (records, pos) = recover(&data).map_err(|e| match e {
            Error::Internal(m) => Error::Internal(format!("{}: {m}", path.display())),
            other => other,
        })?;
        let torn_tail = (data.len() - pos) as u64;
        Ok(MatchStatsStore::with_state(
            Some(path.to_path_buf()),
            vfs,
            StatsState {
                records,
                valid_len: pos as u64,
            },
            torn_tail,
        ))
    }

    fn with_state(
        path: Option<PathBuf>,
        vfs: Arc<dyn Vfs>,
        state: StatsState,
        torn_tail: u64,
    ) -> MatchStatsStore {
        MatchStatsStore {
            path,
            vfs,
            state: Mutex::new(state),
            torn_tail,
            dropped: AtomicU64::new(0),
            poisoned: AtomicBool::new(false),
            logged: AtomicBool::new(false),
            sync_appends: true,
        }
    }

    /// A memory-only store: same aggregate semantics, no sidecar file.
    /// Used by concurrency model tests, where per-interleaving disk I/O
    /// would swamp the exploration, and usable wherever durability is
    /// not wanted.
    pub fn ephemeral() -> MatchStatsStore {
        MatchStatsStore::with_state(
            None,
            std_fs(),
            StatsState {
                records: Vec::new(),
                valid_len: HEADER_LEN as u64,
            },
            0,
        )
    }

    /// Crashsim-only knob: make appends return before their fsync, so
    /// the crash-point explorer can prove the acked ⇒ durable invariant
    /// actually depends on that fsync (mutation check). Never call this
    /// outside the test suite.
    #[doc(hidden)]
    pub fn skip_sync_for_tests(&mut self) {
        self.sync_appends = false;
    }

    /// The sidecar's on-disk path (`None` for an ephemeral store).
    pub fn path(&self) -> Option<&Path> {
        self.path.as_deref()
    }

    /// Torn-tail bytes found (and tolerated) at open time.
    pub fn torn_tail_bytes(&self) -> u64 {
        self.torn_tail
    }

    /// Total recorded fired matches.
    pub fn len(&self) -> usize {
        self.lock().records.len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A snapshot of every recorded match, in recording order.
    pub fn records(&self) -> Vec<MatchRecord> {
        self.lock().records.clone()
    }

    fn lock(&self) -> MutexGuard<'_, StatsState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Durably append one record per sample (fsync before returning) and
    /// fold them into the in-memory aggregate. Returns the new total.
    /// A torn tail left by an earlier crash is overwritten here.
    pub fn record(&self, samples: &[MatchSample], generation: u64) -> Result<usize, Error> {
        let mut state = self.lock();
        if samples.is_empty() {
            return Ok(state.records.len());
        }
        let new: Vec<MatchRecord> = samples
            .iter()
            .map(|s| MatchRecord {
                entry: s.entry.clone(),
                qep_id: s.qep_id.clone(),
                confidence: s.confidence,
                cost_share: s.cost_share,
                generation,
            })
            .collect();
        let mut delta = Vec::new();
        for r in &new {
            delta.extend_from_slice(&r.frame());
        }
        if let Some(path) = &self.path {
            let mut f = self.vfs.open(path, OpenMode::ReadWrite)?;
            f.write_all(state.valid_len, &delta)?;
            let end = state.valid_len + delta.len() as u64;
            // Drop any torn tail the new frames did not fully cover.
            f.set_len(end)?;
            if self.sync_appends {
                f.sync_data()?;
            }
            state.valid_len = end;
        } else {
            state.valid_len += delta.len() as u64;
        }
        state.records.extend(new);
        Ok(state.records.len())
    }

    /// [`MatchStatsStore::record`] for call sites where history loss
    /// must not fail the request (scan and regression handlers). A
    /// transient failure (disk full, I/O error) logs once, counts the
    /// dropped samples, and leaves the store usable for the next
    /// attempt; a structural failure (sidecar deleted, permissions
    /// revoked) additionally poisons the store so later calls skip the
    /// doomed syscalls entirely. Returns whether the samples were
    /// recorded.
    pub fn record_best_effort(&self, samples: &[MatchSample], generation: u64) -> bool {
        if samples.is_empty() {
            return true;
        }
        // relaxed: the flag is a monotonic hint; a racing reader doing
        // one extra doomed attempt is harmless.
        if self.poisoned.load(Ordering::Relaxed) {
            // relaxed: independent counter, read only for reporting.
            self.dropped
                .fetch_add(samples.len() as u64, Ordering::Relaxed);
            return false;
        }
        match self.record(samples, generation) {
            Ok(_) => true,
            Err(e) => {
                // relaxed: independent counter, read only for reporting.
                self.dropped
                    .fetch_add(samples.len() as u64, Ordering::Relaxed);
                if is_structural(&e) {
                    // relaxed: monotonic flag; see the load above.
                    self.poisoned.store(true, Ordering::Relaxed);
                }
                // relaxed: log-once latch; a duplicate line under a
                // race is cosmetic.
                if !self.logged.swap(true, Ordering::Relaxed) {
                    eprintln!(
                        "optimatch: match-history recording failed ({e}); \
                         continuing without history (drops counted in /v1/stats)"
                    );
                }
                false
            }
        }
    }

    /// Samples lost to failed [`MatchStatsStore::record_best_effort`]
    /// calls since the store was opened.
    pub fn dropped_samples(&self) -> u64 {
        // relaxed: independent counter, read only for reporting.
        self.dropped.load(Ordering::Relaxed)
    }

    /// True once a structural failure stopped best-effort recording.
    // Only tests read it: the one view that tells a full disk (transient)
    // from a deleted sidecar (poisoned). devlint: allow(OD008)
    pub fn is_poisoned(&self) -> bool {
        // relaxed: monotonic hint flag.
        self.poisoned.load(Ordering::Relaxed)
    }

    /// Learned per-entry state, sorted by entry name — what `GET
    /// /v1/stats` exposes: [`rank::correlation_weight`] over *recorded
    /// history* rather than the in-scan sample, once an entry has
    /// [`MIN_HISTORY`] recorded matches (1.0 and not `learned` before).
    pub fn weights(&self) -> Vec<EntryWeight> {
        let state = self.lock();
        let mut by_entry: std::collections::BTreeMap<&str, (Vec<f64>, Vec<f64>)> =
            std::collections::BTreeMap::new();
        for r in &state.records {
            let slot = by_entry.entry(r.entry.as_str()).or_default();
            slot.0.push(r.confidence);
            slot.1.push(r.cost_share);
        }
        by_entry
            .into_iter()
            .map(|(entry, (confidences, cost_shares))| {
                let learned = confidences.len() >= MIN_HISTORY;
                EntryWeight {
                    entry: entry.to_string(),
                    samples: confidences.len(),
                    weight: if learned {
                        rank::correlation_weight(&confidences, &cost_shares)
                    } else {
                        1.0
                    },
                    learned,
                }
            })
            .collect()
    }
}

/// Classify a best-effort append failure. A missing or unopenable
/// sidecar will not heal on retry — the store is structurally gone; a
/// full disk or media error can clear, so the store stays usable.
fn is_structural(err: &Error) -> bool {
    match err {
        Error::Io(io) => matches!(
            io.kind(),
            std::io::ErrorKind::NotFound | std::io::ErrorKind::PermissionDenied
        ),
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_path(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("optimatch-match-stats");
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join(format!("{tag}-{}.stats", std::process::id()));
        std::fs::remove_file(&path).ok();
        path
    }

    fn sample(entry: &str, confidence: f64, cost_share: f64) -> MatchSample {
        MatchSample {
            entry: entry.into(),
            qep_id: "q".into(),
            confidence,
            cost_share,
        }
    }

    #[test]
    fn record_and_reopen_round_trips() {
        let path = temp_path("roundtrip");
        let store = MatchStatsStore::open(&path).unwrap();
        assert!(store.is_empty());
        store
            .record(&[sample("e1", 0.9, 0.8), sample("e2", 0.2, 0.1)], 3)
            .unwrap();
        store.record(&[sample("e1", 0.5, 0.4)], 4).unwrap();
        assert_eq!(store.len(), 3);

        let again = MatchStatsStore::open(&path).unwrap();
        assert_eq!(again.records(), store.records());
        assert_eq!(again.records()[0].generation, 3);
        assert_eq!(again.records()[2].generation, 4);
        assert_eq!(again.torn_tail_bytes(), 0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn reopen_is_byte_identical() {
        let path = temp_path("bytes");
        let store = MatchStatsStore::open(&path).unwrap();
        for i in 0..10 {
            store
                .record(&[sample("e", 0.1 * f64::from(i), 0.05 * f64::from(i))], 0)
                .unwrap();
        }
        drop(store); // simulated kill: no shutdown path runs
        let before = std::fs::read(&path).unwrap();
        let again = MatchStatsStore::open(&path).unwrap();
        assert_eq!(again.len(), 10);
        let after = std::fs::read(&path).unwrap();
        assert_eq!(before, after, "open must never rewrite the file");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_tail_is_tolerated_and_overwritten() {
        let path = temp_path("torn");
        let store = MatchStatsStore::open(&path).unwrap();
        store.record(&[sample("e1", 0.9, 0.8)], 0).unwrap();
        drop(store);
        // Simulate a crash mid-append: half a frame at the tail.
        {
            use std::io::Write as _;
            let mut f = std::fs::OpenOptions::new()
                .append(true)
                .open(&path)
                .unwrap();
            f.write_all(b"MS\x40\x00\x00\x00").unwrap(); // frame cut short
        }
        let store = MatchStatsStore::open(&path).unwrap();
        assert_eq!(store.len(), 1, "intact records survive the torn tail");
        assert!(store.torn_tail_bytes() > 0);
        store.record(&[sample("e2", 0.3, 0.2)], 1).unwrap();
        // The repaired file reads clean end to end.
        let again = MatchStatsStore::open(&path).unwrap();
        assert_eq!(again.len(), 2);
        assert_eq!(again.torn_tail_bytes(), 0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn non_stats_files_are_rejected() {
        let path = temp_path("notstats");
        for bytes in [&b"OPTIREPO????????"[..], b"OPTIREPO", b"X"] {
            std::fs::write(&path, bytes).unwrap();
            let err = MatchStatsStore::open(&path).unwrap_err().to_string();
            assert_eq!(
                err,
                format!(
                    "internal error: {}: not a MatchStats sidecar",
                    path.display()
                )
            );
            assert_eq!(
                std::fs::read(&path).unwrap(),
                bytes,
                "a refused file is left alone"
            );
        }
        std::fs::remove_file(&path).ok();
    }

    /// A creation cut before its header was durable leaves an empty file
    /// or a prefix of the header; opening finishes the creation.
    #[test]
    fn torn_creation_is_created_again() {
        let path = temp_path("torn-creation");
        for cut in [0, 5, HEADER_LEN - 1] {
            std::fs::write(&path, &header_bytes()[..cut]).unwrap();
            let store = MatchStatsStore::open(&path).unwrap();
            assert!(store.is_empty());
            assert_eq!(std::fs::read(&path).unwrap(), header_bytes());
            store.record(&[sample("e1", 0.9, 0.8)], 0).unwrap();
            assert_eq!(MatchStatsStore::open(&path).unwrap().len(), 1);
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn weights_need_min_history() {
        let path = temp_path("minhist");
        let store = MatchStatsStore::open(&path).unwrap();
        // Positively correlated samples, one short of the threshold.
        for i in 0..MIN_HISTORY - 1 {
            let x = 0.1 + 0.1 * i as f64;
            store.record(&[sample("e", x, x)], 0).unwrap();
        }
        let short = store.weights();
        assert_eq!(short.len(), 1);
        assert!(!short[0].learned);
        assert_eq!(short[0].samples, MIN_HISTORY - 1);
        assert_eq!(short[0].weight, 1.0);
        store.record(&[sample("e", 0.95, 0.95)], 0).unwrap();
        let listed = store.weights();
        assert_eq!(listed.len(), 1);
        assert!(listed[0].learned);
        assert_eq!(listed[0].samples, MIN_HISTORY);
        let w = listed[0].weight;
        assert!((w - 1.2).abs() < 1e-9, "perfect correlation boosts: {w}");
        // The learned weights survive a reopen.
        assert_eq!(MatchStatsStore::open(&path).unwrap().weights(), listed);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn best_effort_counts_transient_drops_and_stays_usable() {
        use optimatch_repo::vfs::{FaultKind, FaultPlan, SimFs};
        let fs = SimFs::new();
        let path = PathBuf::from("/wl.optirepo.stats");
        let store = MatchStatsStore::open_on(Arc::new(fs.clone()), &path).unwrap();
        fs.set_plan(FaultPlan::new().fail_write(1, FaultKind::Enospc));
        assert!(!store.record_best_effort(&[sample("e", 0.5, 0.5)], 0));
        assert_eq!(store.dropped_samples(), 1);
        assert!(!store.is_poisoned(), "a full disk is transient");
        // The condition cleared; the store never stopped being usable.
        assert!(store.record_best_effort(&[sample("e", 0.6, 0.6)], 1));
        assert_eq!(store.len(), 1);
        assert_eq!(store.dropped_samples(), 1);
    }

    #[test]
    fn best_effort_poisons_when_the_sidecar_is_gone() {
        use optimatch_repo::vfs::SimFs;
        let fs = SimFs::new();
        let path = PathBuf::from("/wl.optirepo.stats");
        let store = MatchStatsStore::open_on(Arc::new(fs.clone()), &path).unwrap();
        fs.remove(&path);
        assert!(!store.record_best_effort(&[sample("e", 0.5, 0.5)], 0));
        assert!(store.is_poisoned(), "a deleted sidecar will not heal");
        // Later calls skip the doomed I/O but keep counting losses.
        assert!(!store.record_best_effort(&[sample("e", 0.6, 0.6)], 1));
        assert_eq!(store.dropped_samples(), 2);
        assert_eq!(store.len(), 0);
    }

    #[test]
    fn sidecar_path_appends_stats_suffix() {
        assert_eq!(
            MatchStatsStore::sidecar_path(Path::new("/x/wl.optirepo")),
            PathBuf::from("/x/wl.optirepo.stats")
        );
    }
}
