//! # optimatch-lint
//!
//! Orchestration layer for `kb lint`: loads knowledge bases *leniently*
//! (raw JSON, no eager compilation — a KB whose pattern is contradictory
//! would be rejected by [`optimatch_core::KnowledgeBase::load`] before
//! the linter could explain why), loads workloads from plan directories,
//! single plan files, or `OPTIREPO` repositories, runs the diagnostics
//! engine in [`optimatch_core::lint`], and renders the results as
//! clippy-style text or JSON.
//!
//! The severity contract: **errors** always fail (exit non-zero),
//! **warnings** fail only under `--deny-warnings`, **notes** never fail.

use std::path::Path;

use optimatch_core::lint::{Diagnostic, Severity};
use optimatch_core::{KnowledgeBaseEntry, OptImatch, TransformedQep};

/// A failure loading the artifacts to lint (distinct from diagnostics,
/// which describe the artifacts themselves).
#[derive(Debug)]
pub enum LintError {
    /// Filesystem failure.
    Io(std::io::Error),
    /// The KB file is not valid entry JSON.
    Json(serde_json::Error),
    /// The workload path could not be loaded.
    Workload(String),
}

impl std::fmt::Display for LintError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LintError::Io(e) => write!(f, "I/O error: {e}"),
            LintError::Json(e) => write!(f, "KB JSON error: {e}"),
            LintError::Workload(e) => write!(f, "workload error: {e}"),
        }
    }
}

impl std::error::Error for LintError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            LintError::Io(e) => Some(e),
            LintError::Json(e) => Some(e),
            LintError::Workload(_) => None,
        }
    }
}

/// The outcome of a lint run: diagnostics plus enough context to render
/// a summary line.
#[derive(Debug, Clone, PartialEq)]
pub struct LintReport {
    /// All diagnostics, in entry order (pattern, query, template, then
    /// any KB-level and dead-pattern findings).
    pub diagnostics: Vec<Diagnostic>,
    /// How many entries were linted.
    pub entries: usize,
    /// How many workload QEPs backed dead-pattern detection, when a
    /// workload was given.
    pub workload_qeps: Option<usize>,
}

impl LintReport {
    /// Diagnostics at exactly `severity`.
    fn count(&self, severity: Severity) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == severity)
            .count()
    }

    /// Number of error-severity diagnostics.
    pub fn errors(&self) -> usize {
        self.count(Severity::Error)
    }

    /// Number of warning-severity diagnostics.
    pub fn warnings(&self) -> usize {
        self.count(Severity::Warning)
    }

    /// Number of note-severity diagnostics.
    pub fn notes(&self) -> usize {
        self.count(Severity::Note)
    }

    /// Whether this run should exit non-zero: errors always fail;
    /// warnings fail under `deny_warnings`; notes never fail.
    pub fn has_failures(&self, deny_warnings: bool) -> bool {
        self.errors() > 0 || (deny_warnings && self.warnings() > 0)
    }

    /// Render in clippy style:
    ///
    /// ```text
    /// error[OL007]: contradictory conditions on `hasEstimateCardinality`: ...
    ///   --> entry 'bad-entry', pattern, pop 3
    ///   = help: relax or remove one of the two conditions
    /// ```
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for d in &self.diagnostics {
            out.push_str(&format!("{}[{}]: {}\n", d.severity, d.code, d.message));
            out.push_str(&format!("  --> entry '{}', {:?}", d.entry, d.artifact));
            if let Some(pop) = d.pop {
                out.push_str(&format!(", pop {pop}"));
            }
            out.push('\n');
            if let Some(s) = &d.suggestion {
                out.push_str(&format!("  = help: {s}\n"));
            }
            out.push('\n');
        }
        out.push_str(&self.summary_line());
        out.push('\n');
        out
    }

    /// Render as a JSON document:
    /// `{"diagnostics": [...], "summary": {...}}`.
    pub fn render_json(&self) -> String {
        let summary = format!(
            "{{\"entries\":{},\"errors\":{},\"warnings\":{},\"notes\":{}{}}}",
            self.entries,
            self.errors(),
            self.warnings(),
            self.notes(),
            match self.workload_qeps {
                Some(n) => format!(",\"workload_qeps\":{n}"),
                None => String::new(),
            }
        );
        let diagnostics = serde_json::to_string(&self.diagnostics).expect("diagnostics serialize");
        format!("{{\"diagnostics\":{diagnostics},\"summary\":{summary}}}\n")
    }

    /// The one-line human summary.
    pub fn summary_line(&self) -> String {
        let base = if self.diagnostics.is_empty() {
            format!("kb lint: clean ({} entries", self.entries)
        } else {
            format!(
                "kb lint: {} error(s), {} warning(s), {} note(s) ({} entries",
                self.errors(),
                self.warnings(),
                self.notes(),
                self.entries
            )
        };
        match self.workload_qeps {
            Some(n) => format!("{base}, {n} workload QEPs)"),
            None => format!("{base})"),
        }
    }
}

/// Lint a set of entries, optionally against a workload for dead-pattern
/// detection. This is the one function every front end calls.
pub fn lint(entries: &[KnowledgeBaseEntry], workload: Option<&[TransformedQep]>) -> LintReport {
    let mut diagnostics = optimatch_core::lint::lint_entries(entries);
    if let Some(w) = workload {
        diagnostics.extend(optimatch_core::lint::lint_dead_patterns(entries, w));
    }
    LintReport {
        diagnostics,
        entries: entries.len(),
        workload_qeps: workload.map(<[TransformedQep]>::len),
    }
}

/// Load KB entries from a JSON file **without compiling them** — serde
/// only, so a KB the loader would reject still gets diagnostics instead
/// of a single opaque load error.
pub fn load_kb_entries(path: &Path) -> Result<Vec<KnowledgeBaseEntry>, LintError> {
    let json = std::fs::read_to_string(path).map_err(LintError::Io)?;
    serde_json::from_str(&json).map_err(LintError::Json)
}

/// Load a workload for dead-pattern detection from a plan directory, an
/// `OPTIREPO` repository file, or a single plan file — the same
/// resolution rule the CLI's `scan` command applies, lenient throughout
/// (a corrupt plan shouldn't block linting the rest).
pub fn load_workload(path: &Path) -> Result<Vec<TransformedQep>, LintError> {
    use optimatch_core::{OpenOptions, Source};
    let source = Source::detect(path).map_err(|e| LintError::Workload(e.to_string()))?;
    let options = match source {
        // A single plan file stays strict: skipping the only input would
        // silently lint against an empty workload.
        Source::File(_) => OpenOptions::new(),
        Source::Dir(_) | Source::Repo(_) => OpenOptions::new().lenient(),
    };
    let opened =
        OptImatch::open(source, options).map_err(|e| LintError::Workload(e.to_string()))?;
    Ok(opened.session.workload().to_vec())
}

#[cfg(test)]
mod tests {
    use super::*;
    use optimatch_core::builtin;
    use optimatch_core::pattern::Sign;

    #[test]
    fn builtin_kb_report_is_clean_of_failures() {
        let entries = builtin::extended_entries();
        let report = lint(&entries, None);
        assert_eq!(report.entries, 7);
        assert_eq!(report.errors(), 0);
        assert_eq!(report.warnings(), 0);
        assert!(!report.has_failures(true));
        assert!(report.notes() > 0, "recursive patterns carry OL104 notes");
    }

    #[test]
    fn severity_contract_drives_failures() {
        let mut entry = builtin::pattern_a();
        entry.pattern.pops[2] =
            entry.pattern.pops[2]
                .clone()
                .prop("hasEstimateCardinalty", Sign::Gt, "5");
        let report = lint(&[entry], None);
        assert_eq!(report.warnings(), 1);
        assert_eq!(report.errors(), 0);
        assert!(!report.has_failures(false));
        assert!(report.has_failures(true), "--deny-warnings promotes");
    }

    #[test]
    fn text_rendering_is_clippy_shaped() {
        let mut entry = builtin::pattern_c();
        entry.pattern.pops[0] = entry.pattern.pops[0].clone().prop(
            optimatch_core::vocab::names::HAS_ESTIMATE_CARDINALITY,
            Sign::Gt,
            "1000",
        );
        let report = lint(&[entry], None);
        assert_eq!(report.errors(), 1);
        let text = report.render_text();
        assert!(text.contains("error[OL007]:"), "{text}");
        assert!(
            text.contains("--> entry 'pattern-c-cardinality-collapse'"),
            "{text}"
        );
        assert!(text.contains("= help:"), "{text}");
        assert!(text.contains("kb lint: 1 error(s)"), "{text}");
    }

    #[test]
    fn json_rendering_carries_summary_and_diagnostics() {
        let entries = vec![builtin::pattern_b()];
        let report = lint(&entries, None);
        let json = report.render_json();
        assert!(json.contains("\"diagnostics\":["), "{json}");
        assert!(json.contains("\"OL104\""), "{json}");
        assert!(json.contains("\"summary\":{\"entries\":1"), "{json}");
        assert!(json.contains("\"notes\":1"), "{json}");
    }

    #[test]
    fn workload_backed_lint_reports_dead_patterns() {
        let workload: Vec<TransformedQep> = [optimatch_qep::fixtures::fig1()]
            .into_iter()
            .map(TransformedQep::new)
            .collect();
        // Pattern D needs a SORT; fig1 has none.
        let entries = vec![builtin::pattern_a(), builtin::pattern_d()];
        let report = lint(&entries, Some(&workload));
        assert_eq!(report.workload_qeps, Some(1));
        assert_eq!(report.errors(), 1);
        assert!(report
            .diagnostics
            .iter()
            .any(|d| d.code == "OL203" && d.entry == builtin::pattern_d().name));
        assert!(report.summary_line().contains("1 workload QEPs"));
    }

    #[test]
    fn kb_file_round_trip_through_lenient_loader() {
        let dir = std::env::temp_dir().join("optimatch-lint-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("kb.json");
        // A KB that the eager loader would reject outright: empty pattern.
        let broken = KnowledgeBaseEntry {
            name: "broken".into(),
            description: String::new(),
            pattern: optimatch_core::Pattern::new("broken", ""),
            recommendation: "no pops here".into(),
            prototype: Default::default(),
        };
        std::fs::write(&path, serde_json::to_string(&vec![broken]).unwrap()).unwrap();
        let entries = load_kb_entries(&path).expect("lenient load succeeds");
        let report = lint(&entries, None);
        assert!(report.diagnostics.iter().any(|d| d.code == "OL001"));
        std::fs::remove_file(&path).ok();
    }
}
