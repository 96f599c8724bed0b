//! The `OptImatch` facade: load a workload, search ad-hoc patterns, scan
//! the knowledge base — the end-to-end flows of the paper's Figure 4.

use std::path::Path;

use optimatch_qep::{parse_qep, Qep, QepParseError};

use crate::error::Error;
use crate::kb::{KnowledgeBase, ScanOptions, ScanOutcome};
use crate::matcher::{MatcherCache, SearchOutcome};
use crate::pattern::Pattern;
use crate::transform::TransformedQep;
use optimatch_sparql::{PhysicalPlan, PlanOptions};

/// Why a lenient directory load skipped one file.
#[derive(Debug)]
pub enum SkipCause {
    /// The file read cleanly but did not parse as a QEP.
    Parse(QepParseError),
    /// The file could not be read at all.
    Io(std::io::Error),
}

impl std::fmt::Display for SkipCause {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SkipCause::Parse(e) => write!(f, "{e}"),
            SkipCause::Io(e) => write!(f, "unreadable: {e}"),
        }
    }
}

/// One file skipped by a lenient directory load.
#[derive(Debug)]
pub struct SkippedFile {
    /// The file's path, as displayed.
    pub file: String,
    /// Why it was skipped.
    pub cause: SkipCause,
}

impl std::fmt::Display for SkippedFile {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.file, self.cause)
    }
}

/// An analysis session over a workload of QEPs.
///
/// All read operations take `&self` and the session holds no per-call
/// state — sessions can be shared across threads.
///
/// ```
/// use optimatch_core::{builtin, OptImatch, ScanOptions};
/// use optimatch_qep::fixtures;
///
/// let session = OptImatch::from_qeps([fixtures::fig1(), fixtures::fig8()]);
///
/// // Ad-hoc pattern search (paper Algorithms 2–3):
/// let found = session.search_with(&builtin::pattern_a().pattern, &ScanOptions::default())?;
/// assert_eq!(found.qep_ids(), ["fig1"]);
///
/// // Knowledge-base scan (Algorithm 5) on 8 threads, pruning counters
/// // returned alongside the reports:
/// let outcome = session.scan_with(&builtin::paper_kb(), ScanOptions::default().threads(8))?;
/// assert!(outcome.reports[0].recommendations[0].text.contains("CUST_DIM"));
/// # Ok::<(), optimatch_core::Error>(())
/// ```
#[derive(Debug)]
pub struct OptImatch {
    workload: Vec<TransformedQep>,
    /// Shared with every [`OptImatch::successor`]. Plain `std` Arc (not
    /// the loom facade): the cache locks internally and has no protocol.
    pub(crate) cache: std::sync::Arc<MatcherCache>,
    defaults: ScanOptions,
}

impl OptImatch {
    /// Build a session from in-memory plans (transforms eagerly).
    pub fn from_qeps(qeps: impl IntoIterator<Item = Qep>) -> OptImatch {
        OptImatch::from_transformed(qeps.into_iter().map(TransformedQep::new).collect())
    }

    /// Build a session from already-transformed plans — the warm-start
    /// path used by [`OptImatch::open`] on a repository source, where the
    /// RDF graphs come off disk instead of being derived.
    pub fn from_transformed(workload: Vec<TransformedQep>) -> OptImatch {
        OptImatch {
            workload,
            cache: Default::default(),
            defaults: ScanOptions::default(),
        }
    }

    /// Replace the session's baseline [`ScanOptions`]; set by
    /// [`OptImatch::open`] from its [`crate::OpenOptions`].
    pub fn with_defaults(mut self, defaults: ScanOptions) -> OptImatch {
        self.defaults = defaults;
        self
    }

    /// The session's baseline [`ScanOptions`].
    pub fn defaults(&self) -> ScanOptions {
        self.defaults
    }

    /// The session that follows this one once `plan` is ingested: this
    /// workload plus `plan`, the same baseline [`ScanOptions`], and the
    /// same ad-hoc matcher cache (matchers depend only on the pattern).
    /// Resident plans are shared, not copied: each costs one
    /// [`TransformedQep`] clone, three reference-count increments.
    /// `self` is untouched; readers holding it keep it.
    pub(crate) fn successor(&self, plan: TransformedQep) -> OptImatch {
        let mut workload = Vec::with_capacity(self.workload.len() + 1);
        workload.extend_from_slice(&self.workload);
        workload.push(plan);
        OptImatch {
            workload,
            cache: std::sync::Arc::clone(&self.cache),
            defaults: self.defaults,
        }
    }

    /// The `*.qep` / `*.exp` / `*.txt` files in a directory, sorted.
    pub(crate) fn plan_files(dir: &Path) -> Result<Vec<std::path::PathBuf>, Error> {
        let mut paths: Vec<_> = std::fs::read_dir(dir)?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| {
                matches!(
                    p.extension().and_then(|e| e.to_str()),
                    Some("qep") | Some("exp") | Some("txt")
                )
            })
            .collect();
        paths.sort();
        Ok(paths)
    }

    /// Number of QEPs loaded.
    pub fn len(&self) -> usize {
        self.workload.len()
    }

    /// True when no QEPs are loaded.
    pub fn is_empty(&self) -> bool {
        self.workload.is_empty()
    }

    /// The transformed workload.
    pub fn workload(&self) -> &[TransformedQep] {
        &self.workload
    }

    /// Total LOLEPOPs across the workload.
    pub fn total_ops(&self) -> usize {
        self.workload.iter().map(|t| t.qep.op_count()).sum()
    }

    /// Ad-hoc pattern search (compile + match across the workload) under
    /// explicit [`ScanOptions`]: thread fan-out (as in a scan), pruning,
    /// per-QEP evaluation budgets, and fail-fast control, with incidents
    /// contained and reported in the outcome. Compiled matchers are cached,
    /// so repeating a search skips Algorithm 2.
    pub fn search_with(
        &self,
        pattern: &Pattern,
        options: &ScanOptions,
    ) -> Result<SearchOutcome, Error> {
        self.cache
            .get_or_compile(pattern)?
            .search_workload(&self.workload, options)
    }

    /// The planner's physical plan for a pattern against every workload
    /// QEP, without evaluating any rows — what `optimatch explain`
    /// renders. Compiled matchers are cached like any other search.
    pub fn explain(
        &self,
        pattern: &Pattern,
        options: PlanOptions,
    ) -> Result<Vec<(String, PhysicalPlan)>, Error> {
        let matcher = self.cache.get_or_compile(pattern)?;
        Ok(self
            .workload
            .iter()
            .map(|t| (t.qep.id.clone(), matcher.explain(t, options)))
            .collect())
    }

    /// Scan the whole workload against a knowledge base (Algorithm 5),
    /// producing one ranked report per QEP. Reports do not depend on the
    /// options — thread fan-out, pruning, budgets, and the planner only
    /// shape *how* the scan runs — and the pruning counters, incidents,
    /// fuel, and planner trace come back in the outcome.
    pub fn scan_with(
        &self,
        kb: &KnowledgeBase,
        options: ScanOptions,
    ) -> Result<ScanOutcome, Error> {
        kb.scan_workload_with(&self.workload, options)
    }
}

/// Strict directory load backing [`OptImatch::open`] on a
/// [`crate::Source::Dir`] under [`crate::Strictness::Strict`].
pub(crate) fn load_dir_strict(dir: &Path) -> Result<OptImatch, Error> {
    let mut qeps = Vec::new();
    for path in OptImatch::plan_files(dir)? {
        let text = std::fs::read_to_string(&path)?;
        let qep = parse_qep(&text).map_err(|error| Error::Parse {
            file: path.display().to_string(),
            error,
        })?;
        qeps.push(qep);
    }
    Ok(OptImatch::from_qeps(qeps))
}

/// Lenient directory load backing [`OptImatch::open`] on a
/// [`crate::Source::Dir`] under [`crate::Strictness::Lenient`].
pub(crate) fn load_dir_lenient(dir: &Path) -> Result<(OptImatch, Vec<SkippedFile>), Error> {
    let mut qeps = Vec::new();
    let mut skipped = Vec::new();
    for path in OptImatch::plan_files(dir)? {
        let file = path.display().to_string();
        let cause = match std::fs::read_to_string(&path) {
            Ok(text) => match parse_qep(&text) {
                Ok(qep) => {
                    qeps.push(qep);
                    continue;
                }
                Err(e) => SkipCause::Parse(e),
            },
            Err(e) => SkipCause::Io(e),
        };
        skipped.push(SkippedFile { file, cause });
    }
    Ok((OptImatch::from_qeps(qeps), skipped))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builtin;
    use optimatch_qep::{fixtures, format_qep};

    #[test]
    fn session_over_fixtures() {
        let s = OptImatch::from_qeps([fixtures::fig1(), fixtures::fig7(), fixtures::fig8()]);
        assert_eq!(s.len(), 3);
        assert!(s.total_ops() >= 19);
        let options = ScanOptions::default().fail_fast(true);
        let found = s
            .search_with(&builtin::pattern_a().pattern, &options)
            .unwrap();
        assert_eq!(found.qep_ids(), ["fig1"]);
    }

    #[test]
    fn repeated_searches_hit_the_matcher_cache() {
        let s = OptImatch::from_qeps([fixtures::fig1()]);
        let p = builtin::pattern_a().pattern;
        let options = ScanOptions::default().fail_fast(true);
        let first = s.search_with(&p, &options).unwrap();
        let second = s.search_with(&p, &options).unwrap();
        assert_eq!(first.matches, second.matches);
        assert_eq!(s.cache.misses(), 1);
        assert_eq!(s.cache.hits(), 1);
    }

    #[test]
    fn loads_from_directory() {
        let dir = std::env::temp_dir().join("optimatch-session-test");
        std::fs::create_dir_all(&dir).unwrap();
        for q in [fixtures::fig1(), fixtures::fig8()] {
            std::fs::write(dir.join(format!("{}.qep", q.id)), format_qep(&q)).unwrap();
        }
        // A non-plan file that must be ignored.
        std::fs::write(dir.join("README.md"), "not a plan").unwrap();
        let s = load_dir_strict(&dir).unwrap();
        assert_eq!(s.len(), 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn load_reports_bad_files() {
        let dir = std::env::temp_dir().join("optimatch-session-badfile");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("broken.qep"), "Plan Details:\n  1) NOPE: (x)\n").unwrap();
        let err = load_dir_strict(&dir).unwrap_err();
        assert!(matches!(err, Error::Parse { .. }));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn lenient_load_skips_bad_files_and_keeps_the_rest() {
        let dir = std::env::temp_dir().join("optimatch-session-lenient");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("good.qep"), format_qep(&fixtures::fig1())).unwrap();
        std::fs::write(dir.join("broken.qep"), "Plan Details:\n  1) NOPE: (x)\n").unwrap();
        let (session, skipped) = load_dir_lenient(&dir).unwrap();
        assert_eq!(session.len(), 1);
        assert_eq!(skipped.len(), 1);
        assert!(skipped[0].file.contains("broken.qep"));
        assert!(skipped[0].to_string().contains("broken.qep"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn lenient_load_records_unreadable_files_strict_load_aborts() {
        let dir = std::env::temp_dir().join("optimatch-session-unreadable");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("good.qep"), format_qep(&fixtures::fig1())).unwrap();
        // A *directory* with a plan extension: read_to_string on it is a
        // guaranteed I/O error regardless of the user we run as.
        std::fs::create_dir_all(dir.join("trap.qep")).unwrap();
        let (session, skipped) = load_dir_lenient(&dir).unwrap();
        assert_eq!(session.len(), 1);
        assert_eq!(skipped.len(), 1);
        assert!(matches!(skipped[0].cause, SkipCause::Io(_)));
        assert!(skipped[0].to_string().contains("unreadable"));
        // The strict loader still aborts on the same directory.
        assert!(matches!(load_dir_strict(&dir), Err(Error::Io(_))));
        std::fs::remove_dir_all(&dir).ok();
    }

    fn mixed_workload() -> Vec<Qep> {
        use optimatch_qep::{InputSource, InputStream, OpType, PlanOp, StreamKind};
        // Fixtures plus filler plans.
        let mut qeps = vec![fixtures::fig1(), fixtures::fig7(), fixtures::fig8()];
        for i in 0..9 {
            let mut q = Qep::new(format!("filler{i}"));
            let mut ret = PlanOp::new(1, OpType::Return);
            ret.inputs.push(InputStream {
                kind: StreamKind::Generic,
                source: InputSource::Op(2),
                estimated_rows: 1.0,
            });
            q.insert_op(ret);
            let mut sort = PlanOp::new(2, OpType::Sort);
            sort.total_cost = 100.0 + f64::from(i);
            q.insert_op(sort);
            qeps.push(q);
        }
        qeps
    }

    #[test]
    fn scan_with_options_equals_plain_scan() {
        let kb = builtin::paper_kb();
        let s = OptImatch::from_qeps(mixed_workload());
        let sequential = s.scan_with(&kb, ScanOptions::default()).unwrap().reports;
        for threads in [1, 2, 4, 32] {
            for prune in [true, false] {
                let outcome = s
                    .scan_with(&kb, ScanOptions::default().threads(threads).prune(prune))
                    .unwrap();
                assert_eq!(
                    outcome.reports, sequential,
                    "threads={threads} prune={prune}"
                );
                if prune {
                    assert!(outcome.stats.pruned > 0, "filler plans are prunable");
                } else {
                    assert_eq!(outcome.stats.pruned, 0);
                }
            }
        }
    }

    #[test]
    fn scan_produces_one_report_per_qep() {
        let s = OptImatch::from_qeps([fixtures::fig1(), fixtures::fig7()]);
        let reports = s
            .scan_with(&builtin::paper_kb(), ScanOptions::default())
            .unwrap()
            .reports;
        assert_eq!(reports.len(), 2);
        assert_eq!(reports[0].qep_id, "fig1");
        assert!(!reports[0].recommendations.is_empty());
    }
}
