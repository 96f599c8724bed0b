//! Repository format compatibility. `tests/data/fixtures-v1.optirepo` was
//! written by a format-version-1 `optimatch repo build` over the
//! `format_qep` renderings of fixtures fig1, fig7 and fig8, with a
//! manifest labelling fig1 and fig7. Version-1 records carry a pruning
//! summary that the current format dropped; the file must still open,
//! verify and scan exactly like its plans, and must refuse appends. Its
//! graphs also pin the term ids a transform assigns.

use std::path::{Path, PathBuf};

use optimatch_suite::core::{
    builtin, repo, OpenOptions, OptImatch, ScanOptions, Source, TransformedQep,
};
use optimatch_suite::qep::{fixtures, format_qep, parse_qep};
use optimatch_suite::rdf::{Graph, IdTriple, Term};
use optimatch_suite::repo::{crc::crc32, RepoError, Repository, FORMAT_VERSION};
use optimatch_suite::workload::{
    generate_workload, GeneratorConfig, InjectionConfig, WorkloadConfig,
};

fn v1_repo() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/data/fixtures-v1.optirepo")
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("optimatch-compat-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

/// The plan directory the v1 file was built from.
fn fixture_dir(tag: &str) -> PathBuf {
    let dir = temp_dir(tag);
    for q in [fixtures::fig1(), fixtures::fig7(), fixtures::fig8()] {
        std::fs::write(dir.join(format!("{}.qep", q.id)), format_qep(&q)).expect("writes");
    }
    dir
}

fn scan_json(source: Source) -> Vec<String> {
    let session = OptImatch::open(source, OpenOptions::new())
        .expect("opens")
        .session;
    [builtin::paper_kb(), builtin::extended_kb()]
        .iter()
        .map(|kb| {
            let outcome = session
                .scan_with(kb, ScanOptions::default())
                .expect("scans");
            outcome.render_json()
        })
        .collect()
}

#[test]
fn v1_repository_opens_verifies_and_scans_like_its_plans() {
    let path = v1_repo();
    let strict = Repository::open(&path).expect("strict open");
    assert_eq!(strict.version, 1);
    let ids: Vec<&str> = strict.records.iter().map(|r| r.id.as_str()).collect();
    assert_eq!(ids, ["fig1", "fig7", "fig8"]);
    assert_eq!(strict.records[1].labels, ["Pattern B", "Pattern C"]);
    assert_eq!(strict.records[0].qep, fixtures::fig1());

    let lenient = Repository::open_lenient(&path).expect("lenient open");
    assert!(lenient.skipped.is_empty(), "{:?}", lenient.skipped);
    assert_eq!(lenient.repository.records.len(), 3);

    let report = Repository::verify(&path).expect("verifies");
    assert!(report.is_ok(), "{:?}", report.problems);
    assert_eq!((report.version, report.records), (1, 3));

    // Byte-identical scan JSON from the v1 file, the plan directory and a
    // freshly built current-format repository, with both KBs.
    let dir = fixture_dir("scan");
    let v2 = dir.join("fixtures.optirepo");
    repo::build_repo(&dir, &v2).expect("builds");
    assert_eq!(
        Repository::open(&v2).expect("opens").version,
        FORMAT_VERSION
    );
    let from_dir = scan_json(Source::Dir(dir.clone()));
    assert_eq!(scan_json(Source::Repo(path)), from_dir);
    assert_eq!(scan_json(Source::Repo(v2)), from_dir);
    std::fs::remove_dir_all(&dir).ok();
}

/// Repository bytes hold each graph's term table in id order and its id
/// triples, so a transform must intern terms in the order the stored
/// graphs record.
#[test]
fn transform_assigns_the_stored_term_ids() {
    let stored = Repository::open(&v1_repo()).expect("strict open");
    let fixtures = [fixtures::fig1(), fixtures::fig7(), fixtures::fig8()];
    assert_eq!(stored.records.len(), fixtures.len());
    let terms = |g: &Graph| -> Vec<Term> { g.pool().iter().map(|(_, t)| t.clone()).collect() };
    let triples = |g: &Graph| -> Vec<IdTriple> { g.iter_ids().collect() };
    for (record, qep) in stored.records.iter().zip(fixtures) {
        let fresh = TransformedQep::new(qep);
        assert_eq!(terms(&record.graph), terms(&fresh.graph), "{}", record.id);
        assert_eq!(
            triples(&record.graph),
            triples(&fresh.graph),
            "{}",
            record.id
        );
    }
}

/// The v1 fixture pins three plans. Generated plans add what they lack:
/// repeated `hasArg*` predicates, repeated numbers and streams whose
/// source is a base object. Every graph's term table (each term's
/// N-Triples form, in id order) and its id triples fold into one CRC-32,
/// so a transform that interns any term in another order moves it.
#[test]
fn transform_ids_are_pinned_on_generated_plans() {
    let generated = generate_workload(&WorkloadConfig {
        seed: 12,
        num_qeps: 24,
        generator: GeneratorConfig::default(),
        injection: InjectionConfig::paper_rates(),
    });
    let plans = [fixtures::fig1(), fixtures::fig7(), fixtures::fig8()];
    let mut folded = Vec::new();
    let mut triples = 0;
    for qep in plans.iter().chain(&generated.qeps) {
        let parsed = parse_qep(&format_qep(qep)).expect("formatted plans parse");
        let graph = TransformedQep::new(parsed).graph;
        for (_, term) in graph.pool().iter() {
            folded.extend_from_slice(term.to_string().as_bytes());
            folded.push(b'\n');
        }
        for triple in graph.iter_ids() {
            for id in triple {
                folded.extend_from_slice(&id.0.to_le_bytes());
            }
            triples += 1;
        }
    }
    assert_eq!(triples, 45_485, "triples over the 27 plans");
    assert_eq!(
        crc32(&folded),
        0x43B7_0427,
        "term tables and id triples moved"
    );
}

#[test]
fn v1_repository_refuses_appends_and_stays_untouched() {
    let dir = temp_dir("append");
    let copy = dir.join("v1.optirepo");
    std::fs::copy(v1_repo(), &copy).expect("copies");
    let before = std::fs::read(&copy).expect("reads");

    let mut extra = fixtures::fig1();
    extra.id = "fig1b".into();
    let t = TransformedQep::new(extra);
    let err = Repository::append(&copy, &[repo::snapshot(&t, "fig1b.qep", Vec::new())])
        .expect_err("v1 files are read-only");
    assert!(
        matches!(err, RepoError::UnsupportedVersion { found: 1 }),
        "{err}"
    );
    let message = err.to_string();
    assert!(message.contains("reads versions 1 to 2"), "{message}");
    assert!(message.contains("appends only to version 2"), "{message}");
    assert_eq!(std::fs::read(&copy).expect("reads"), before);
    std::fs::remove_dir_all(&dir).ok();
}
