//! The unified session entry point: [`Source`] + [`OpenOptions`] →
//! [`OptImatch::open`].
//!
//! Earlier releases grew a 4-way constructor zoo (`from_dir`,
//! `from_dir_lenient`, `open_repo`, `open_repo_lenient`) whose callers had
//! to re-implement the dir|file|repository detection the CLI shipped with.
//! This module collapses all of it: [`Source::detect`] auto-detects what a
//! path is (a directory of plan files, a single plan file, or a persistent
//! repository by its 8-byte `OPTIREPO` magic), and [`OpenOptions`] carries
//! the load strictness plus the session's baseline scan behaviour
//! (mirroring [`ScanOptions`]' `prune` / `threads` knobs). The old
//! constructors rode out their deprecation window as thin wrappers over
//! this path and have since been deleted — the same cadence
//! `scan_parallel` followed.

use std::path::{Path, PathBuf};

use optimatch_qep::parse_qep;

use crate::error::Error;
use crate::kb::ScanOptions;
use crate::session::{OptImatch, SkipCause, SkippedFile};

/// What a workload path turned out to be. Construct one explicitly when
/// the kind is known, or let [`Source::detect`] classify a path the way
/// the CLI does: directory → [`Source::Dir`], file starting with the
/// 8-byte `OPTIREPO` magic → [`Source::Repo`], any other file →
/// [`Source::File`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Source {
    /// A directory of `*.qep` / `*.exp` / `*.txt` plan files.
    Dir(PathBuf),
    /// A single plan file.
    File(PathBuf),
    /// A persistent workload repository (`optimatch-repo` format).
    Repo(PathBuf),
}

impl Source {
    /// Classify `path` by inspection. A missing path is an I/O error —
    /// that is a bad workload location, not an empty workload.
    pub fn detect(path: &Path) -> Result<Source, Error> {
        if path.is_dir() {
            Ok(Source::Dir(path.to_path_buf()))
        } else if optimatch_repo::is_repo_file(path) {
            Ok(Source::Repo(path.to_path_buf()))
        } else if path.is_file() {
            Ok(Source::File(path.to_path_buf()))
        } else {
            Err(Error::Io(std::io::Error::new(
                std::io::ErrorKind::NotFound,
                format!("{}: no such file or directory", path.display()),
            )))
        }
    }

    /// The underlying path.
    pub fn path(&self) -> &Path {
        match self {
            Source::Dir(p) | Source::File(p) | Source::Repo(p) => p,
        }
    }

    /// The repository path, when the source is one — the handle live
    /// ingestion appends to.
    pub fn repo_path(&self) -> Option<&Path> {
        match self {
            Source::Repo(p) => Some(p),
            _ => None,
        }
    }

    /// A short human label for messages: `directory`, `plan file`, or
    /// `repository`.
    pub fn kind(&self) -> &'static str {
        match self {
            Source::Dir(_) => "directory",
            Source::File(_) => "plan file",
            Source::Repo(_) => "repository",
        }
    }
}

/// How load problems are handled.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Strictness {
    /// The first unparseable file or damaged record fails the open.
    #[default]
    Strict,
    /// Problems are skipped and reported in [`Opened::skipped`]; the
    /// session holds everything that loaded cleanly.
    Lenient,
}

/// Options for [`OptImatch::open`]: strictness plus the session's baseline
/// scan behaviour, mirroring [`ScanOptions`]. `prune` and `threads` become
/// the session's baseline, [`OptImatch::defaults`].
#[derive(Debug, Clone)]
pub struct OpenOptions {
    /// Skip-and-report vs fail-fast loading.
    pub strictness: Strictness,
    /// Baseline: whether scans may use required-pattern pruning.
    pub prune: bool,
    /// Baseline: scan worker threads (clamped to ≥ 1).
    pub threads: usize,
    /// Record fired-match statistics into the repository's MatchStats
    /// sidecar (`<repo>.stats`). Only effective for [`Source::Repo`] —
    /// directories and single files have no durable anchor to attach a
    /// sidecar to, so the flag is ignored for them.
    pub record_stats: bool,
    /// Filesystem all durable I/O (repository open, MatchStats sidecar)
    /// goes through. `None` means the real filesystem
    /// ([`optimatch_repo::vfs::StdFs`]); tests inject
    /// [`optimatch_repo::vfs::SimFs`] or a capped wrapper here to
    /// exercise fault handling. Directory and single-file sources still
    /// read plan text through `std::fs` — the VFS covers the durable
    /// repository formats, not ad-hoc text loading.
    pub vfs: Option<std::sync::Arc<dyn optimatch_repo::vfs::Vfs>>,
}

impl Default for OpenOptions {
    fn default() -> OpenOptions {
        OpenOptions {
            strictness: Strictness::Strict,
            prune: true,
            threads: 1,
            record_stats: false,
            vfs: None,
        }
    }
}

impl OpenOptions {
    /// The defaults: strict, pruning on, sequential scans.
    pub fn new() -> OpenOptions {
        OpenOptions::default()
    }

    /// Set the strictness.
    pub fn strictness(mut self, strictness: Strictness) -> OpenOptions {
        self.strictness = strictness;
        self
    }

    /// Shorthand for [`Strictness::Lenient`].
    pub fn lenient(self) -> OpenOptions {
        self.strictness(Strictness::Lenient)
    }

    /// Enable or disable required-pattern pruning in the baseline.
    pub fn prune(mut self, prune: bool) -> OpenOptions {
        self.prune = prune;
        self
    }

    /// Set the baseline scan thread count (clamped to ≥ 1).
    pub fn threads(mut self, threads: usize) -> OpenOptions {
        self.threads = threads.max(1);
        self
    }

    /// Enable fired-match statistics recording (repository sources only).
    pub fn record_stats(mut self, record_stats: bool) -> OpenOptions {
        self.record_stats = record_stats;
        self
    }

    /// Route all durable I/O through `vfs` instead of the real
    /// filesystem. Repository sources and the MatchStats sidecar honour
    /// the injection; plan-text sources do not (see the field docs).
    pub fn vfs(mut self, vfs: std::sync::Arc<dyn optimatch_repo::vfs::Vfs>) -> OpenOptions {
        self.vfs = Some(vfs);
        self
    }

    /// The [`ScanOptions`] these open options imply.
    pub fn scan_options(&self) -> ScanOptions {
        ScanOptions::default()
            .prune(self.prune)
            .threads(self.threads)
    }
}

/// One problem skipped (lenient) or surfaced (torn-append recovery)
/// during an open, unified across source kinds.
#[derive(Debug)]
pub enum OpenSkip {
    /// A plan file that failed to read or parse.
    File(SkippedFile),
    /// A repository record that failed its integrity checks.
    Record(optimatch_repo::SkippedRecord),
    /// A strict repository open detected and repaired a torn append;
    /// this note says what was recovered.
    Recovered(String),
}

impl std::fmt::Display for OpenSkip {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OpenSkip::File(s) => write!(f, "{s}"),
            OpenSkip::Record(s) => write!(f, "{s}"),
            OpenSkip::Recovered(s) => write!(f, "{s}"),
        }
    }
}

/// The result of [`OptImatch::open`]: the session, the detected source,
/// and any per-item problems (always empty on a clean strict open; on a
/// lenient open, one entry per skipped file or record).
#[derive(Debug)]
pub struct Opened {
    /// The loaded session.
    pub session: OptImatch,
    /// The source that was opened (carries the path; for repositories,
    /// [`Source::repo_path`] is the live-ingestion handle).
    pub source: Source,
    /// Problems skipped or recovered from, in load order.
    pub skipped: Vec<OpenSkip>,
    /// The MatchStats sidecar, opened (or created) when
    /// [`OpenOptions::record_stats`] was set and the source is a
    /// repository. `None` otherwise.
    pub stats: Option<std::sync::Arc<crate::stats::MatchStatsStore>>,
}

impl OptImatch {
    /// Open a workload from any [`Source`] — the single non-deprecated
    /// entry point replacing `from_dir` / `from_dir_lenient` /
    /// `open_repo` / `open_repo_lenient`.
    ///
    /// ```
    /// use optimatch_core::{OpenOptions, OptImatch, Source};
    /// # let dir = std::env::temp_dir().join("optimatch-open-doc");
    /// # std::fs::create_dir_all(&dir).unwrap();
    /// # let q = optimatch_qep::fixtures::fig1();
    /// # std::fs::write(dir.join("fig1.qep"), optimatch_qep::format_qep(&q)).unwrap();
    /// let opened = OptImatch::open(Source::detect(&dir)?, OpenOptions::new().lenient())?;
    /// assert_eq!(opened.session.len(), 1);
    /// assert!(opened.skipped.is_empty());
    /// # std::fs::remove_dir_all(&dir).ok();
    /// # Ok::<(), optimatch_core::Error>(())
    /// ```
    pub fn open(source: Source, options: OpenOptions) -> Result<Opened, Error> {
        let defaults = options.scan_options();
        let vfs = options
            .vfs
            .clone()
            .unwrap_or_else(optimatch_repo::vfs::std_fs);
        let (session, skipped) = match (&source, options.strictness) {
            (Source::Dir(dir), Strictness::Strict) => {
                (crate::session::load_dir_strict(dir)?, Vec::new())
            }
            (Source::Dir(dir), Strictness::Lenient) => {
                let (session, skipped) = crate::session::load_dir_lenient(dir)?;
                (session, skipped.into_iter().map(OpenSkip::File).collect())
            }
            (Source::File(path), strictness) => open_file(path, strictness)?,
            (Source::Repo(path), Strictness::Strict) => {
                let repo = optimatch_repo::Repository::open_on(&*vfs, path)?;
                let skipped = repo
                    .recovered
                    .as_ref()
                    .map(|r| {
                        OpenSkip::Recovered(format!(
                            "repaired a torn append: kept {} record(s), discarded {} torn byte(s)",
                            r.records, r.dropped_bytes
                        ))
                    })
                    .into_iter()
                    .collect();
                (
                    OptImatch::from_transformed(
                        repo.records.into_iter().map(crate::repo::restore).collect(),
                    ),
                    skipped,
                )
            }
            (Source::Repo(path), Strictness::Lenient) => {
                let loaded = optimatch_repo::Repository::open_lenient_on(&*vfs, path)?;
                (
                    OptImatch::from_transformed(
                        loaded
                            .repository
                            .records
                            .into_iter()
                            .map(crate::repo::restore)
                            .collect(),
                    ),
                    loaded.skipped.into_iter().map(OpenSkip::Record).collect(),
                )
            }
        };
        let stats = match (&source, options.record_stats) {
            (Source::Repo(path), true) => {
                Some(std::sync::Arc::new(crate::stats::MatchStatsStore::open_on(
                    vfs,
                    &crate::stats::MatchStatsStore::sidecar_path(path),
                )?))
            }
            _ => None,
        };
        Ok(Opened {
            session: session.with_defaults(defaults),
            source,
            skipped,
            stats,
        })
    }
}

/// Open one plan file. Strict: a parse failure is fatal. Lenient: it is
/// skipped and the session is empty.
fn open_file(path: &Path, strictness: Strictness) -> Result<(OptImatch, Vec<OpenSkip>), Error> {
    let file = path.display().to_string();
    let cause = match std::fs::read_to_string(path) {
        Ok(text) => match parse_qep(&text) {
            Ok(qep) => return Ok((OptImatch::from_qeps([qep]), Vec::new())),
            Err(error) => {
                if strictness == Strictness::Strict {
                    return Err(Error::Parse { file, error });
                }
                SkipCause::Parse(error)
            }
        },
        Err(e) => {
            if strictness == Strictness::Strict {
                return Err(Error::Io(e));
            }
            SkipCause::Io(e)
        }
    };
    Ok((
        OptImatch::from_qeps([]),
        vec![OpenSkip::File(SkippedFile { file, cause })],
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builtin;
    use optimatch_qep::{fixtures, format_qep};

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("optimatch-open-{tag}"));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).expect("temp dir");
        dir
    }

    #[test]
    fn detect_classifies_dir_file_and_repo() {
        let dir = temp_dir("detect");
        let plan = dir.join("fig1.qep");
        std::fs::write(&plan, format_qep(&fixtures::fig1())).unwrap();
        let repo = dir.join("workload.repo");
        crate::repo::build_repo(&dir, &repo).unwrap();

        assert_eq!(Source::detect(&dir).unwrap(), Source::Dir(dir.clone()));
        assert_eq!(Source::detect(&plan).unwrap(), Source::File(plan.clone()));
        assert_eq!(Source::detect(&repo).unwrap(), Source::Repo(repo.clone()));
        assert!(matches!(
            Source::detect(&dir.join("missing")),
            Err(Error::Io(_))
        ));
        assert_eq!(Source::detect(&repo).unwrap().kind(), "repository");
        assert_eq!(
            Source::detect(&repo).unwrap().repo_path(),
            Some(repo.as_path())
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn open_is_equivalent_across_source_kinds() {
        let dir = temp_dir("equiv");
        for q in [fixtures::fig1(), fixtures::fig8()] {
            std::fs::write(dir.join(format!("{}.qep", q.id)), format_qep(&q)).unwrap();
        }
        let repo = dir.join("workload.repo");
        crate::repo::build_repo(&dir, &repo).unwrap();

        let kb = builtin::paper_kb();
        let from_dir = OptImatch::open(Source::detect(&dir).unwrap(), OpenOptions::new()).unwrap();
        let from_repo =
            OptImatch::open(Source::detect(&repo).unwrap(), OpenOptions::new()).unwrap();
        assert_eq!(from_dir.session.len(), 2);
        let scan = |o: &Opened| o.session.scan_with(&kb, ScanOptions::default()).unwrap();
        assert_eq!(scan(&from_dir).reports, scan(&from_repo).reports);

        let single = OptImatch::open(
            Source::detect(&dir.join("fig1.qep")).unwrap(),
            OpenOptions::new(),
        )
        .unwrap();
        assert_eq!(single.session.len(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn strict_open_fails_lenient_open_skips() {
        let dir = temp_dir("strictness");
        std::fs::write(dir.join("good.qep"), format_qep(&fixtures::fig1())).unwrap();
        std::fs::write(dir.join("broken.qep"), "Plan Details:\n  1) NOPE: (x)\n").unwrap();

        let err = OptImatch::open(Source::Dir(dir.clone()), OpenOptions::new()).unwrap_err();
        assert!(matches!(err, Error::Parse { .. }));

        let opened =
            OptImatch::open(Source::Dir(dir.clone()), OpenOptions::new().lenient()).unwrap();
        assert_eq!(opened.session.len(), 1);
        assert_eq!(opened.skipped.len(), 1);
        assert!(opened.skipped[0].to_string().contains("broken.qep"));

        // A single broken file: strict fails, lenient yields an empty
        // session with the skip recorded.
        let broken = dir.join("broken.qep");
        assert!(OptImatch::open(Source::File(broken.clone()), OpenOptions::new()).is_err());
        let opened = OptImatch::open(Source::File(broken), OpenOptions::new().lenient()).unwrap();
        assert!(opened.session.is_empty());
        assert_eq!(opened.skipped.len(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn open_options_become_the_session_scan_baseline() {
        let dir = temp_dir("baseline");
        std::fs::write(dir.join("fig1.qep"), format_qep(&fixtures::fig1())).unwrap();
        let opened = OptImatch::open(
            Source::Dir(dir.clone()),
            OpenOptions::new().prune(false).threads(3),
        )
        .unwrap();
        let defaults = opened.session.defaults();
        assert!(!defaults.prune);
        assert_eq!(defaults.threads, 3);
        // Results are option-independent; the baseline only shapes *how*
        // the scan runs.
        let kb = builtin::paper_kb();
        let pruned = OptImatch::open(Source::Dir(dir.clone()), OpenOptions::new()).unwrap();
        let scan = |o: &Opened| o.session.scan_with(&kb, o.session.defaults()).unwrap();
        assert_eq!(scan(&opened).reports, scan(&pruned).reports);
        std::fs::remove_dir_all(&dir).ok();
    }
}
