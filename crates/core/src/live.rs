//! Live session management: hot-swap snapshot publication for a workload
//! that grows while it is being served.
//!
//! The paper frames OptImatch as a service experts feed continuously; the
//! GALO follow-up makes it explicit — a DB2 fleet streams new QEPs at the
//! diagnosis service all day, it does not restart it per batch. This
//! module is the shape that makes that safe:
//!
//! - [`SessionSnapshot`] is an **immutable** view: one [`OptImatch`]
//!   workload (plans and their indexed graphs), one
//!   [`KnowledgeBase`], and a monotonically increasing **generation**
//!   number. A snapshot never changes after publication, so any number of
//!   readers can scan it concurrently with zero coordination.
//! - [`SessionManager`] owns the repository path and the *current*
//!   snapshot pointer. Writers ([`SessionManager::ingest`],
//!   [`SessionManager::reload_kb`]) build a **successor** snapshot off to
//!   the side and publish it by swapping one `Arc` — readers that already
//!   hold generation N keep it alive and finish on it; new requests pick
//!   up N+1. Readers never block and are never invalidated mid-request.
//!
//! Durability order matters: an ingest first appends to the on-disk
//! repository (`Repository::append` fsyncs the record frames before it
//! commits the index — see `optimatch-repo`), and only a successful
//! durable append publishes the in-memory successor. A crash between the
//! two leaves the repository ahead of the resident session, never behind.
//!
//! Generation history rides inside each snapshot as [`GenerationMark`]s
//! (generation → workload length at publication), which is what makes
//! `?since=G` delta scans a slice of the workload rather than a diff.

use crate::sync::atomic::{AtomicU64, Ordering};
use crate::sync::{Arc, Mutex, PoisonError, RwLock};
use std::path::{Path, PathBuf};

use optimatch_qep::Qep;

use crate::error::Error;
use crate::kb::{KnowledgeBase, ScanOptions, ScanOutcome};
use crate::lint::{Diagnostic, Severity};
use crate::session::OptImatch;
use crate::transform::TransformedQep;

/// One point in a snapshot's generation history: the workload length at
/// the instant this generation was published. KB reloads bump the
/// generation without changing the length.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GenerationMark {
    /// The generation number.
    pub generation: u64,
    /// Workload length when that generation was published.
    pub workload_len: usize,
}

/// An immutable, generation-numbered view of the resident state: the
/// workload session, the knowledge base, and the history needed for
/// delta scans. Cheap to hold (`Arc`s all the way down) and safe to scan
/// from any thread for as long as the caller keeps it.
///
/// Snapshots share rather than copy. A resident plan is immutable after
/// construction ([`TransformedQep`] holds its plan, graph and summary
/// behind `Arc`s), so generation N+1 references the very plans of
/// generation N: an ingest adds one pointer per resident plus the new
/// plan, a KB reload shares the whole session, and releasing an old
/// snapshot only decrements reference counts.
#[derive(Debug)]
pub struct SessionSnapshot {
    generation: u64,
    session: Arc<OptImatch>,
    kb: Arc<KnowledgeBase>,
    marks: Vec<GenerationMark>,
}

impl SessionSnapshot {
    /// The generation number (0 is the initial load; every publication
    /// increments it by one).
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// The workload session of this snapshot.
    pub fn session(&self) -> &Arc<OptImatch> {
        &self.session
    }

    /// The knowledge base of this snapshot.
    pub fn kb(&self) -> &Arc<KnowledgeBase> {
        &self.kb
    }

    /// The generation history carried by this snapshot, oldest first.
    pub fn marks(&self) -> &[GenerationMark] {
        &self.marks
    }

    /// The workload length as of `generation` (how many QEPs a reader at
    /// that generation had). Generations before the first mark map to 0;
    /// generations at or past this snapshot's map to the current length.
    pub fn len_at(&self, generation: u64) -> usize {
        self.marks
            .iter()
            .rev()
            .find(|m| m.generation <= generation)
            .map(|m| m.workload_len)
            .unwrap_or(0)
    }

    /// The QEPs added strictly after `generation` — the delta a
    /// `?since=G` scan visits. Appends are strictly monotonic, so the
    /// delta is a suffix slice of the workload, not a diff.
    pub fn delta_since(&self, generation: u64) -> &[TransformedQep] {
        let len = self.session.len();
        &self.session.workload()[self.len_at(generation).min(len)..]
    }

    /// Scan only the QEPs added after `generation` against this
    /// snapshot's KB. With `generation >= self.generation()` the delta is
    /// empty and the outcome carries no reports.
    pub fn scan_since(&self, generation: u64, options: ScanOptions) -> Result<ScanOutcome, Error> {
        self.kb
            .scan_workload_with(self.delta_since(generation), options)
    }
}

/// Receipt for one successful [`SessionManager::ingest`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IngestReceipt {
    /// The generation the ingest published.
    pub generation: u64,
    /// The ingested plan's id.
    pub qep_id: String,
    /// Records now in the on-disk repository (after the durable append).
    pub repo_len: usize,
    /// QEPs in the published snapshot's workload.
    pub workload_len: usize,
}

/// Receipt for one successful [`SessionManager::reload_kb`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KbReloadReceipt {
    /// The generation the reload published.
    pub generation: u64,
    /// Entries in the newly resident KB.
    pub kb_entries: usize,
    /// QEPs in the published snapshot's workload (unchanged by a reload).
    pub workload_len: usize,
}

/// Why a live mutation was refused or failed.
#[derive(Debug)]
pub enum LiveError {
    /// The manager was not opened over a repository, so there is nothing
    /// durable to append to.
    NotRepoBacked,
    /// The plan parsed but holds no operators — arbitrary text "parses"
    /// into an empty plan, so this is rejected as the client error it is.
    EmptyPlan,
    /// A QEP with this id is already resident.
    DuplicateId(String),
    /// The replacement KB failed the linter with error-severity
    /// diagnostics; the resident KB is untouched.
    KbRejected(Vec<Diagnostic>),
    /// The durable append hit a storage fault (disk full, I/O error)
    /// before anything was published. The resident snapshot is intact
    /// and keeps serving; the serving layer degrades to read-only and
    /// tells clients to retry rather than treating this as a bug.
    Storage {
        /// Classified fault, for metrics and retry policy.
        kind: StorageErrorKind,
        /// The underlying error.
        error: Error,
    },
    /// The durable append (or another underlying operation) failed; no
    /// snapshot was published.
    Failed(Error),
}

/// Classification of a storage fault surfaced by an ingest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StorageErrorKind {
    /// `ENOSPC`: the device is out of space; retrying may succeed once
    /// space is reclaimed.
    DiskFull,
    /// Any other I/O failure (EIO, short write, …).
    Io,
}

impl StorageErrorKind {
    /// Stable label used by the `storage_errors_total{kind}` metric.
    pub fn label(self) -> &'static str {
        match self {
            StorageErrorKind::DiskFull => "disk_full",
            StorageErrorKind::Io => "io",
        }
    }
}

impl std::fmt::Display for LiveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LiveError::NotRepoBacked => f.write_str(
                "session is not repository-backed; serve a .repo file to enable ingestion",
            ),
            LiveError::EmptyPlan => f.write_str("plan contains no operators"),
            LiveError::DuplicateId(id) => write!(f, "a QEP with id {id:?} is already resident"),
            LiveError::KbRejected(diags) => write!(
                f,
                "knowledge base rejected by lint with {} error(s)",
                diags.len()
            ),
            LiveError::Storage { kind, error } => match kind {
                StorageErrorKind::DiskFull => {
                    write!(f, "storage full, ingestion suspended: {error}")
                }
                StorageErrorKind::Io => write!(f, "storage error, ingestion suspended: {error}"),
            },
            LiveError::Failed(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for LiveError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            LiveError::Failed(e) => Some(e),
            LiveError::Storage { error, .. } => Some(error),
            _ => None,
        }
    }
}

/// Owns the repository path and the current-snapshot pointer; builds and
/// publishes successor snapshots. One instance, `Arc`-shared between the
/// serving layer's workers.
///
/// Concurrency contract:
///
/// - **Readers** call [`SessionManager::current`], which clones the
///   current `Arc<SessionSnapshot>` under a read lock held for
///   nanoseconds. Everything after that runs against the immutable
///   snapshot — a concurrent publication cannot touch it.
/// - **Writers** serialize on an internal mutex, so at most one successor
///   snapshot is under construction at a time. Publication is a single
///   pointer swap under the write lock.
///
/// ```
/// use optimatch_core::{builtin, SessionManager, OptImatch};
/// use optimatch_qep::fixtures;
///
/// let manager = SessionManager::new(
///     OptImatch::from_qeps([fixtures::fig1()]),
///     builtin::paper_kb(),
///     None, // in-memory only: ingest would need a repository path
/// );
/// let snap = manager.current();
/// assert_eq!(snap.generation(), 0);
/// assert_eq!(snap.session().len(), 1);
/// ```
#[derive(Debug)]
pub struct SessionManager {
    repo_path: Option<PathBuf>,
    /// The filesystem durable appends go through. Plain `std` Arc (not
    /// the loom facade): the vfs carries no concurrency protocol and
    /// the loom `Arc` cannot hold unsized trait objects.
    vfs: std::sync::Arc<dyn optimatch_repo::vfs::Vfs>,
    current: RwLock<Arc<SessionSnapshot>>,
    writer: Mutex<()>,
    swaps: AtomicU64,
    stats: Option<Arc<crate::stats::MatchStatsStore>>,
}

impl SessionManager {
    /// Start managing `session` + `kb` as generation 0. Pass the
    /// repository path the session was opened from to enable
    /// [`SessionManager::ingest`]; without one the manager still serves
    /// and hot-reloads KBs, but ingestion is refused
    /// ([`LiveError::NotRepoBacked`]).
    pub fn new(
        session: OptImatch,
        kb: KnowledgeBase,
        repo_path: Option<PathBuf>,
    ) -> SessionManager {
        let workload_len = session.len();
        let snapshot = SessionSnapshot {
            generation: 0,
            session: Arc::new(session),
            kb: Arc::new(kb),
            marks: vec![GenerationMark {
                generation: 0,
                workload_len,
            }],
        };
        SessionManager {
            repo_path,
            vfs: optimatch_repo::vfs::std_fs(),
            current: RwLock::new(Arc::new(snapshot)),
            writer: Mutex::new(()),
            swaps: AtomicU64::new(0),
            stats: None,
        }
    }

    /// Attach a fleet match-history store: serving surfaces record every
    /// fired match into it, stamped with the generation that produced it.
    pub fn with_stats(mut self, stats: Arc<crate::stats::MatchStatsStore>) -> SessionManager {
        self.stats = Some(stats);
        self
    }

    /// Route durable appends through an injected filesystem (fault
    /// injection in tests, byte caps in the CLI). Defaults to the real
    /// filesystem.
    pub fn with_vfs(mut self, vfs: std::sync::Arc<dyn optimatch_repo::vfs::Vfs>) -> SessionManager {
        self.vfs = vfs;
        self
    }

    /// The attached match-history store, when recording is enabled.
    pub fn stats(&self) -> Option<&Arc<crate::stats::MatchStatsStore>> {
        self.stats.as_ref()
    }

    /// The repository this manager appends to, when repository-backed.
    pub fn repo_path(&self) -> Option<&Path> {
        self.repo_path.as_deref()
    }

    /// The current snapshot. The returned `Arc` stays valid (and
    /// immutable) for as long as the caller holds it, no matter how many
    /// publications happen meanwhile.
    pub fn current(&self) -> Arc<SessionSnapshot> {
        Arc::clone(&self.current.read().unwrap_or_else(PoisonError::into_inner))
    }

    /// The current generation number.
    pub fn generation(&self) -> u64 {
        self.current().generation
    }

    /// Snapshots published since construction (ingests + KB reloads).
    pub fn swap_total(&self) -> u64 {
        // relaxed: standalone monotonic counter read for reporting; the
        // snapshot pointer itself synchronizes through the RwLock.
        self.swaps.load(Ordering::Relaxed)
    }

    /// Durably ingest one plan: transform, append to the on-disk
    /// repository (fsync'd frames-then-index — see `Repository::append`),
    /// then publish the successor snapshot, which shares every resident
    /// plan and the ad-hoc matcher cache with the predecessor. In-flight
    /// readers keep the snapshot they started with.
    ///
    /// `source_file` is recorded in the repository as the record's
    /// provenance (e.g. the uploaded filename, or `"v1-ingest"`).
    pub fn ingest(&self, qep: Qep, source_file: &str) -> Result<IngestReceipt, LiveError> {
        let Some(repo_path) = &self.repo_path else {
            return Err(LiveError::NotRepoBacked);
        };
        if qep.op_count() == 0 {
            return Err(LiveError::EmptyPlan);
        }
        let _writer = self.writer.lock().unwrap_or_else(PoisonError::into_inner);
        let prev = self.current();
        if prev.session.workload().iter().any(|t| t.qep.id == qep.id) {
            return Err(LiveError::DuplicateId(qep.id));
        }
        let qep_id = qep.id.clone();
        let transformed = TransformedQep::new(qep);
        let record = crate::repo::snapshot(&transformed, source_file, Vec::new());
        // Durable first: only a successful fsync'd append may publish.
        let repo_len = optimatch_repo::Repository::append_on(
            &*self.vfs,
            repo_path,
            std::slice::from_ref(&record),
        )
        .map_err(classify_append_error)?;
        let session = prev.session.successor(transformed);
        let workload_len = session.len();
        let generation = prev.generation + 1;
        let mut marks = prev.marks.clone();
        marks.push(GenerationMark {
            generation,
            workload_len,
        });
        self.publish(SessionSnapshot {
            generation,
            session: Arc::new(session),
            kb: Arc::clone(&prev.kb),
            marks,
        });
        Ok(IngestReceipt {
            generation,
            qep_id,
            repo_len,
            workload_len,
        })
    }

    /// Hot-swap the knowledge base, gated by the linter: error-severity
    /// diagnostics reject the replacement outright
    /// ([`LiveError::KbRejected`]) and the resident KB stays untouched.
    /// The workload is shared with the previous snapshot (an `Arc`
    /// clone), so a reload costs nothing per QEP.
    pub fn reload_kb(&self, kb: KnowledgeBase) -> Result<KbReloadReceipt, LiveError> {
        let errors: Vec<Diagnostic> = kb
            .lint()
            .into_iter()
            .filter(|d| d.severity == Severity::Error)
            .collect();
        if !errors.is_empty() {
            return Err(LiveError::KbRejected(errors));
        }
        let kb_entries = kb.len();
        let _writer = self.writer.lock().unwrap_or_else(PoisonError::into_inner);
        let prev = self.current();
        let generation = prev.generation + 1;
        let workload_len = prev.session.len();
        let mut marks = prev.marks.clone();
        marks.push(GenerationMark {
            generation,
            workload_len,
        });
        self.publish(SessionSnapshot {
            generation,
            session: Arc::clone(&prev.session),
            kb: Arc::new(kb),
            marks,
        });
        Ok(KbReloadReceipt {
            generation,
            kb_entries,
            workload_len,
        })
    }

    /// Atomically swap the current snapshot pointer.
    fn publish(&self, snapshot: SessionSnapshot) {
        *self.current.write().unwrap_or_else(PoisonError::into_inner) = Arc::new(snapshot);
        // relaxed: observability-only counter, ordered after the swap for
        // writers by the publish lock; readers never branch on it. Proven
        // safe in tests/loom_live.rs (snapshot torn-read model).
        self.swaps.fetch_add(1, Ordering::Relaxed);
    }
}

/// Sort an append failure into the storage-fault bucket (I/O errors,
/// classified full-vs-other) or the generic failure bucket (duplicate
/// ids and structural corruption are not storage faults).
fn classify_append_error(e: optimatch_repo::RepoError) -> LiveError {
    match e {
        optimatch_repo::RepoError::Io(io) => {
            let kind = if optimatch_repo::vfs::is_disk_full(&io) {
                StorageErrorKind::DiskFull
            } else {
                StorageErrorKind::Io
            };
            LiveError::Storage {
                kind,
                error: Error::Io(io),
            }
        }
        other => LiveError::Failed(Error::from(other)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::open::{OpenOptions, Source};
    use crate::pattern::{Pattern, PatternPop};
    use crate::{builtin, KnowledgeBaseEntry};
    use optimatch_qep::{fixtures, format_qep};

    fn temp_repo(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("optimatch-live-{tag}"));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).expect("temp dir");
        for q in [fixtures::fig1(), fixtures::fig8()] {
            std::fs::write(dir.join(format!("{}.qep", q.id)), format_qep(&q)).unwrap();
        }
        let repo = dir.join("workload.repo");
        crate::repo::build_repo(&dir, &repo).unwrap();
        repo
    }

    fn manager_over(repo: &Path) -> SessionManager {
        let opened = OptImatch::open(Source::Repo(repo.to_path_buf()), OpenOptions::new()).unwrap();
        SessionManager::new(
            opened.session,
            builtin::paper_kb(),
            Some(repo.to_path_buf()),
        )
    }

    #[test]
    fn ingest_publishes_a_new_generation_and_appends_durably() {
        let repo = temp_repo("ingest");
        let manager = manager_over(&repo);
        assert_eq!(manager.generation(), 0);
        assert_eq!(manager.swap_total(), 0);

        let receipt = manager.ingest(fixtures::fig7(), "fig7.qep").unwrap();
        assert_eq!(receipt.generation, 1);
        assert_eq!(receipt.qep_id, "fig7");
        assert_eq!(receipt.repo_len, 3);
        assert_eq!(receipt.workload_len, 3);
        assert_eq!(manager.generation(), 1);
        assert_eq!(manager.swap_total(), 1);

        // The on-disk repository grew and a cold open sees the new plan.
        let cold = OptImatch::open(Source::Repo(repo.clone()), OpenOptions::new()).unwrap();
        assert_eq!(cold.session.len(), 3);

        // The published snapshot scans identically to the cold open.
        let kb = builtin::paper_kb();
        let options = ScanOptions::default();
        assert_eq!(
            manager
                .current()
                .session()
                .scan_with(&kb, options)
                .unwrap()
                .reports,
            cold.session.scan_with(&kb, options).unwrap().reports
        );
        std::fs::remove_dir_all(repo.parent().unwrap()).ok();
    }

    #[test]
    fn in_flight_readers_keep_their_snapshot() {
        let repo = temp_repo("isolation");
        let manager = manager_over(&repo);
        let before = manager.current();
        manager.ingest(fixtures::fig7(), "fig7.qep").unwrap();
        // The old snapshot is untouched by the publication.
        assert_eq!(before.generation(), 0);
        assert_eq!(before.session().len(), 2);
        let after = manager.current();
        assert_eq!(after.generation(), 1);
        assert_eq!(after.session().len(), 3);
        std::fs::remove_dir_all(repo.parent().unwrap()).ok();
    }

    #[test]
    fn ingest_shares_resident_plans_with_the_predecessor() {
        // The plan parts are `std` Arcs whatever the sync facade is.
        use std::sync::Arc;
        let repo = temp_repo("share");
        let manager = manager_over(&repo);
        let kb = builtin::paper_kb();
        let before = manager.current();
        let scan = |s: &OptImatch| s.scan_with(&kb, ScanOptions::default()).unwrap().reports;
        let before_reports = scan(before.session());
        manager.ingest(fixtures::fig7(), "fig7.qep").unwrap();
        let after = manager.current();

        let (old, new) = (before.session().workload(), after.session().workload());
        assert_eq!(new.len(), old.len() + 1);
        for (a, b) in old.iter().zip(new) {
            assert!(Arc::ptr_eq(&a.qep, &b.qep), "{} plan copied", a.qep.id);
            assert!(Arc::ptr_eq(&a.graph, &b.graph), "{} graph copied", a.qep.id);
            assert_eq!(Arc::strong_count(&b.graph), 2);
        }

        // A reader still holding generation 0 keeps its length and reports.
        assert_eq!(before.session().len(), 2);
        assert_eq!(scan(before.session()), before_reports);

        // Releasing generation 0 releases only its references.
        drop(before);
        assert!(new.iter().all(|t| Arc::strong_count(&t.graph) == 1));
        std::fs::remove_dir_all(repo.parent().unwrap()).ok();
    }

    #[test]
    fn ingest_keeps_the_matcher_cache_and_defaults() {
        let repo = temp_repo("cache");
        let opened = OptImatch::open(
            Source::Repo(repo.clone()),
            OpenOptions::new().threads(3).prune(false),
        )
        .unwrap();
        let defaults = opened.session.defaults();
        let manager = SessionManager::new(opened.session, builtin::paper_kb(), Some(repo.clone()));
        let pattern = builtin::pattern_a().pattern;

        let options = ScanOptions::default().fail_fast(true);
        let search = |s: &OptImatch| s.search_with(&pattern, &options).unwrap().matches;
        let before = search(manager.current().session());
        manager.ingest(fixtures::fig7(), "fig7.qep").unwrap();
        let snap = manager.current();
        assert_eq!(search(snap.session()), before);
        let cache = &snap.session().cache;
        assert_eq!((cache.misses(), cache.hits()), (1, 1));
        assert_eq!(snap.session().defaults(), defaults);
        std::fs::remove_dir_all(repo.parent().unwrap()).ok();
    }

    #[test]
    fn ingest_rejects_duplicates_empty_plans_and_non_repo_sessions() {
        let repo = temp_repo("reject");
        let manager = manager_over(&repo);
        assert!(matches!(
            manager.ingest(fixtures::fig1(), "fig1.qep"),
            Err(LiveError::DuplicateId(id)) if id == "fig1"
        ));
        assert!(matches!(
            manager.ingest(optimatch_qep::Qep::new("empty"), "empty.qep"),
            Err(LiveError::EmptyPlan)
        ));
        // No publication happened on any rejection.
        assert_eq!(manager.generation(), 0);

        let unbacked = SessionManager::new(OptImatch::from_qeps([]), builtin::paper_kb(), None);
        assert!(matches!(
            unbacked.ingest(fixtures::fig1(), "fig1.qep"),
            Err(LiveError::NotRepoBacked)
        ));
        std::fs::remove_dir_all(repo.parent().unwrap()).ok();
    }

    #[test]
    fn kb_reload_swaps_without_touching_the_workload() {
        let repo = temp_repo("kbswap");
        let manager = manager_over(&repo);
        let before = manager.current();
        let receipt = manager.reload_kb(builtin::extended_kb()).unwrap();
        assert_eq!(receipt.generation, 1);
        assert_eq!(receipt.workload_len, 2);
        let after = manager.current();
        // The workload Arc is literally shared; only the KB changed.
        assert!(Arc::ptr_eq(before.session(), after.session()));
        assert_eq!(after.kb().len(), builtin::extended_kb().len());
        std::fs::remove_dir_all(repo.parent().unwrap()).ok();
    }

    #[test]
    fn kb_reload_is_lint_gated() {
        let repo = temp_repo("kbgate");
        let manager = manager_over(&repo);
        // A template referencing an alias no pop defines compiles and
        // parses (so `add` accepts it) but lints at error severity
        // (OL201) — exactly the class of mistake the gate exists for.
        let pattern =
            Pattern::new("bogus", "lint bait").with_pop(PatternPop::new(1, "TBSCAN").alias("SCAN"));
        let mut kb = KnowledgeBase::new();
        kb.add(KnowledgeBaseEntry {
            name: "bogus-entry".into(),
            description: "refers to an undefined alias".into(),
            pattern,
            recommendation: "Fix @NOTHERE immediately".into(),
            prototype: Default::default(),
        })
        .unwrap();
        let err = manager.reload_kb(kb).unwrap_err();
        match err {
            LiveError::KbRejected(diags) => {
                assert!(!diags.is_empty());
                assert!(diags.iter().all(|d| d.severity == Severity::Error));
            }
            other => panic!("expected KbRejected, got {other:?}"),
        }
        // The resident KB is untouched and no generation was published.
        assert_eq!(manager.generation(), 0);
        assert_eq!(manager.current().kb().len(), builtin::paper_kb().len());
        std::fs::remove_dir_all(repo.parent().unwrap()).ok();
    }

    #[test]
    fn delta_scans_cover_exactly_the_new_qeps() {
        let repo = temp_repo("delta");
        let manager = manager_over(&repo);
        manager.ingest(fixtures::fig7(), "fig7.qep").unwrap();
        let mut extra = fixtures::fig1();
        extra.id = "fig1-live".into();
        manager.ingest(extra, "fig1-live.qep").unwrap();

        let snap = manager.current();
        assert_eq!(snap.generation(), 2);
        assert_eq!(snap.len_at(0), 2);
        assert_eq!(snap.len_at(1), 3);
        assert_eq!(snap.len_at(2), 4);
        assert_eq!(snap.len_at(99), 4);

        let since0 = snap.scan_since(0, ScanOptions::default()).unwrap();
        assert_eq!(
            since0
                .reports
                .iter()
                .map(|r| r.qep_id.as_str())
                .collect::<Vec<_>>(),
            vec!["fig7", "fig1-live"]
        );
        let since1 = snap.scan_since(1, ScanOptions::default()).unwrap();
        assert_eq!(since1.reports.len(), 1);
        assert_eq!(since1.reports[0].qep_id, "fig1-live");
        assert!(snap
            .scan_since(2, ScanOptions::default())
            .unwrap()
            .reports
            .is_empty());

        // A KB reload bumps the generation but not the delta boundary.
        manager.reload_kb(builtin::paper_kb()).unwrap();
        let snap = manager.current();
        assert_eq!(snap.generation(), 3);
        assert_eq!(snap.len_at(3), 4);
        assert!(snap
            .scan_since(2, ScanOptions::default())
            .unwrap()
            .reports
            .is_empty());
        std::fs::remove_dir_all(repo.parent().unwrap()).ok();
    }
}
