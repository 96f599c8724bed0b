//! Session ↔ repository bridge: persist transformed workloads into the
//! on-disk repository (`optimatch-repo`) and restore them for warm-start
//! sessions.
//!
//! The key invariant, enforced by the round-trip property tests: a
//! session restored from a repository produces **byte-identical** scan
//! reports to one built from the same plan directory. Everything the
//! scan consumes — the interned RDF graph (with its dense term ids) and
//! the parsed plan — is stored and reconstructed exactly; nothing is
//! re-derived on load.

use std::collections::{BTreeSet, HashMap};
use std::path::Path;

use optimatch_qep::{parse_qep, Qep};
use optimatch_rdf::Graph;
use optimatch_repo::{RepoRecord, Repository};

use crate::error::Error;
use crate::session::{OptImatch, SkipCause, SkippedFile};
use crate::transform::TransformedQep;

/// The workload manifest filename (`<id>\t<comma-joined labels>` lines),
/// as written by `optimatch-workload`. Ground-truth labels found here are
/// carried into the repository.
pub const MANIFEST_FILE: &str = "MANIFEST.tsv";

/// Capture a transformed QEP as a repository record. The record owns
/// its plan and graph, so this copies the one plan being written.
pub fn snapshot(t: &TransformedQep, source_file: &str, labels: Vec<String>) -> RepoRecord {
    RepoRecord {
        id: t.qep.id.clone(),
        source_file: source_file.to_string(),
        labels,
        qep: Qep::clone(&t.qep),
        graph: Graph::clone(&t.graph),
    }
}

/// Rebuild a transformed QEP from a repository record: the stored plan
/// and graph are used as they are, so a warm load does none of the
/// transform-time work.
pub fn restore(record: RepoRecord) -> TransformedQep {
    TransformedQep {
        qep: record.qep.into(),
        graph: record.graph.into(),
    }
}

/// Ground-truth labels from a workload directory's `MANIFEST.tsv`, keyed
/// by QEP id. A missing manifest is simply an empty map; malformed lines
/// are ignored (the manifest is advisory metadata, not plan data).
pub fn manifest_labels(dir: &Path) -> HashMap<String, Vec<String>> {
    let mut out = HashMap::new();
    let Ok(text) = std::fs::read_to_string(dir.join(MANIFEST_FILE)) else {
        return out;
    };
    for line in text.lines() {
        let Some((id, names)) = line.split_once('\t') else {
            continue;
        };
        let labels: Vec<String> = names
            .split(',')
            .map(str::trim)
            .filter(|s| !s.is_empty())
            .map(String::from)
            .collect();
        out.insert(id.trim().to_string(), labels);
    }
    out
}

/// The result of [`build_repo`]: how many records were written and which
/// plan files failed to parse (skipped, mirroring a lenient
/// [`OptImatch::open`] over the same directory).
#[derive(Debug)]
pub struct BuildOutcome {
    /// Records written to the repository.
    pub records: usize,
    /// Plan files that failed to parse.
    pub skipped: Vec<SkippedFile>,
}

/// The result of [`add_to_repo`].
#[derive(Debug)]
pub struct AddOutcome {
    /// Records newly appended.
    pub added: usize,
    /// Plans whose ids were already stored (left untouched).
    pub already_present: usize,
    /// Plan files that failed to parse.
    pub skipped: Vec<SkippedFile>,
}

/// Parse, transform, and label every plan file in `dir` (in the same
/// sorted order as a directory [`OptImatch::open`]) — the ingest half of
/// a warm session.
fn ingest_dir(dir: &Path) -> Result<(Vec<RepoRecord>, Vec<SkippedFile>), Error> {
    let labels = manifest_labels(dir);
    let mut records = Vec::new();
    let mut skipped = Vec::new();
    for path in OptImatch::plan_files(dir)? {
        let file = path.display().to_string();
        let text = match std::fs::read_to_string(&path) {
            Ok(text) => text,
            Err(e) => {
                skipped.push(SkippedFile {
                    file,
                    cause: SkipCause::Io(e),
                });
                continue;
            }
        };
        match parse_qep(&text) {
            Ok(qep) => {
                let t = TransformedQep::new(qep);
                let lab = labels.get(&t.qep.id).cloned().unwrap_or_default();
                let source = path
                    .file_name()
                    .map(|n| n.to_string_lossy().into_owned())
                    .unwrap_or(file);
                records.push(snapshot(&t, &source, lab));
            }
            Err(error) => skipped.push(SkippedFile {
                file,
                cause: SkipCause::Parse(error),
            }),
        }
    }
    Ok((records, skipped))
}

/// Build a fresh repository at `out` from every plan file in `dir`.
/// Unparseable files are skipped and reported, like a lenient
/// [`OptImatch::open`]; labels are taken from the directory's
/// `MANIFEST.tsv` when present.
pub fn build_repo(dir: &Path, out: &Path) -> Result<BuildOutcome, Error> {
    let (records, skipped) = ingest_dir(dir)?;
    Repository::save(out, &records)?;
    Ok(BuildOutcome {
        records: records.len(),
        skipped,
    })
}

/// Incrementally ingest the plans in `dir` into an existing repository:
/// plans whose ids are already stored are left untouched, new ones are
/// appended without rewriting the existing record bytes.
pub fn add_to_repo(repo: &Path, dir: &Path) -> Result<AddOutcome, Error> {
    let existing = Repository::open(repo)?;
    let known: BTreeSet<&str> = existing.records.iter().map(|r| r.id.as_str()).collect();
    let (records, skipped) = ingest_dir(dir)?;
    let (fresh, present): (Vec<_>, Vec<_>) = records
        .into_iter()
        .partition(|r| !known.contains(r.id.as_str()));
    Repository::append(repo, &fresh)?;
    Ok(AddOutcome {
        added: fresh.len(),
        already_present: present.len(),
        skipped,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use optimatch_qep::{fixtures, format_qep};

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("optimatch-core-repo-{tag}"));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).expect("temp dir");
        dir
    }

    fn write_plans(dir: &Path) {
        for q in [fixtures::fig1(), fixtures::fig7(), fixtures::fig8()] {
            std::fs::write(dir.join(format!("{}.qep", q.id)), format_qep(&q)).unwrap();
        }
        std::fs::write(
            dir.join(MANIFEST_FILE),
            "fig1\tPattern A\nfig8\tPattern C, Pattern D\n",
        )
        .unwrap();
    }

    #[test]
    fn snapshot_restore_round_trips_plan_and_graph() {
        let t = TransformedQep::new(fixtures::fig1());
        let restored = restore(snapshot(&t, "fig1.qep", vec!["Pattern A".into()]));
        assert_eq!(restored.qep, t.qep);
        assert_eq!(
            restored.graph.iter_ids().collect::<Vec<_>>(),
            t.graph.iter_ids().collect::<Vec<_>>()
        );
    }

    #[test]
    fn build_then_open_matches_the_directory_load() {
        let dir = temp_dir("build");
        write_plans(&dir);
        let out = dir.join("workload.optirepo");
        let built = build_repo(&dir, &out).unwrap();
        assert_eq!(built.records, 3);
        assert!(built.skipped.is_empty());

        let repo = Repository::open(&out).unwrap();
        assert_eq!(repo.records.len(), 3);
        // Labels came from the manifest.
        assert_eq!(repo.records[0].labels, vec!["Pattern A".to_string()]);
        assert_eq!(repo.records[1].labels, Vec::<String>::new());
        assert_eq!(
            repo.records[2].labels,
            vec!["Pattern C".to_string(), "Pattern D".to_string()]
        );
        assert_eq!(repo.records[0].source_file, "fig1.qep");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn add_skips_known_ids_and_appends_new_ones() {
        let dir = temp_dir("add");
        write_plans(&dir);
        let out = dir.join("workload.optirepo");
        build_repo(&dir, &out).unwrap();

        // Drop a new plan into the directory and ingest again.
        let mut extra = fixtures::fig1();
        extra.id = "fig1b".into();
        std::fs::write(dir.join("fig1b.qep"), format_qep(&extra)).unwrap();
        let added = add_to_repo(&out, &dir).unwrap();
        assert_eq!(added.added, 1);
        assert_eq!(added.already_present, 3);
        assert!(added.skipped.is_empty());

        let repo = Repository::open(&out).unwrap();
        assert_eq!(repo.records.len(), 4);
        // A second add is a no-op.
        let again = add_to_repo(&out, &dir).unwrap();
        assert_eq!(again.added, 0);
        assert_eq!(again.already_present, 4);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn warm_session_scans_identically_to_cold() {
        let dir = temp_dir("warm");
        write_plans(&dir);
        let out = dir.join("workload.optirepo");
        build_repo(&dir, &out).unwrap();

        use crate::open::{OpenOptions, Source};
        let cold = OptImatch::open(Source::detect(&dir).unwrap(), OpenOptions::new()).unwrap();
        let warm = OptImatch::open(Source::detect(&out).unwrap(), OpenOptions::new()).unwrap();
        assert_eq!(warm.session.len(), cold.session.len());
        let kb = crate::builtin::paper_kb();
        let options = crate::ScanOptions::default();
        assert_eq!(
            warm.session.scan_with(&kb, options).unwrap().reports,
            cold.session.scan_with(&kb, options).unwrap().reports
        );

        let lenient =
            OptImatch::open(Source::Repo(out.clone()), OpenOptions::new().lenient()).unwrap();
        assert!(lenient.skipped.is_empty());
        assert_eq!(lenient.session.len(), cold.session.len());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn manifest_parsing_is_lenient() {
        let dir = temp_dir("manifest");
        std::fs::write(
            dir.join(MANIFEST_FILE),
            "q1\tA, B\nmalformed-no-tab\nq2\t\nq3\t C \n",
        )
        .unwrap();
        let labels = manifest_labels(&dir);
        assert_eq!(labels["q1"], vec!["A".to_string(), "B".to_string()]);
        assert_eq!(labels["q2"], Vec::<String>::new());
        assert_eq!(labels["q3"], vec!["C".to_string()]);
        assert!(!labels.contains_key("malformed-no-tab"));
        // No manifest at all ⇒ empty map.
        assert!(manifest_labels(&dir.join("nowhere")).is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }
}
