//! End-to-end integration: plan text → parser → RDF transform → pattern
//! compilation → SPARQL matching → knowledge-base recommendation, across
//! all workspace crates.

use optimatch_suite::core::{
    builtin, transform::TransformedQep, Matcher, OpenOptions, OptImatch, Pattern, PatternMatch,
    ScanOptions, Source,
};
use optimatch_suite::qep::{fixtures, format_qep, parse_qep};
use optimatch_suite::sparql::Budget;
use optimatch_suite::workload::{generate_workload, WorkloadConfig};

/// One unbudgeted match of `m` against one plan.
fn find(m: &Matcher, t: &TransformedQep) -> Vec<PatternMatch> {
    m.find_traced(t, &Budget::unlimited(), true)
        .expect("matches")
        .0
}

/// The ids of the QEPs in `session` that `pattern` matches.
fn matching_ids(session: &OptImatch, pattern: &Pattern) -> Vec<String> {
    let options = ScanOptions::default().fail_fast(true);
    let found = session.search_with(pattern, &options).expect("matches");
    found.qep_ids().into_iter().map(String::from).collect()
}

/// The full pipeline starting from *text*, exactly as a user of the tool
/// would: files in, recommendations out.
#[test]
fn text_to_recommendation_pipeline() {
    let text = format_qep(&fixtures::fig1());
    let qep = parse_qep(&text).expect("parses");
    let session = OptImatch::from_qeps([qep]);
    let reports = session
        .scan_with(&builtin::paper_kb(), ScanOptions::default())
        .expect("scans")
        .reports;
    assert_eq!(reports.len(), 1);
    let rec = &reports[0].recommendations[0];
    assert_eq!(rec.entry, "pattern-a-nljoin-tbscan");
    // Context adaptation: table and predicate columns from *this* plan.
    assert!(rec.text.contains("BIGD.CUST_DIM"));
    assert!(rec.text.contains("CUST_ID"));
}

/// Every generated plan survives the full text round trip and transforms
/// into a well-formed RDF graph that SPARQL can query.
#[test]
fn workload_round_trips_and_transforms() {
    let w = generate_workload(&WorkloadConfig {
        seed: 99,
        num_qeps: 20,
        ..WorkloadConfig::default()
    });
    for qep in &w.qeps {
        let text = format_qep(qep);
        let back = parse_qep(&text).unwrap_or_else(|e| panic!("{}: {e}", qep.id));
        assert_eq!(&back, qep, "round trip changed {}", qep.id);

        let t = TransformedQep::new(back);
        // Graph size scales with the plan: at least a few triples per op.
        assert!(
            t.graph.len() >= t.qep.op_count() * 8,
            "{} too small",
            qep.id
        );

        // Every operator is reachable as a SPARQL subject.
        let table = optimatch_suite::sparql::execute(
            &t.graph,
            "PREFIX p: <http://optimatch/pred#>
             SELECT DISTINCT ?pop WHERE { ?pop p:hasPopType ?t . }",
        )
        .expect("query runs");
        assert_eq!(table.len(), t.qep.op_count(), "{}", qep.id);
    }
}

/// The paper's worked example end to end: Figure 1 matches Pattern A with
/// the exact bindings the paper describes, and Figure 7 matches Pattern B
/// anchored at its top join.
#[test]
fn paper_worked_examples() {
    let fig1 = TransformedQep::new(fixtures::fig1());
    let a = Matcher::compile(&builtin::pattern_a().pattern).expect("compiles");
    let matches = find(&a, &fig1);
    assert_eq!(matches.len(), 1);
    assert_eq!(matches[0].binding("TOP").and_then(|t| t.pop_id()), Some(2));
    assert_eq!(
        matches[0].binding("SCAN3").and_then(|t| t.pop_id()),
        Some(5)
    );

    let fig7 = TransformedQep::new(fixtures::fig7());
    let b = Matcher::compile(&builtin::pattern_b().pattern).expect("compiles");
    let matches = find(&b, &fig7);
    assert!(!matches.is_empty());
    assert!(matches
        .iter()
        .any(|m| m.binding("TOP").and_then(|t| t.pop_id()) == Some(5)));
    // The inner-side LOJ sits under a TEMP chain: binding must be #15.
    assert!(matches
        .iter()
        .any(|m| m.binding("LOJINNER").and_then(|t| t.pop_id()) == Some(15)));
}

/// Matching is deterministic and stateless across repeated runs.
#[test]
fn matching_is_repeatable() {
    let w = generate_workload(&WorkloadConfig {
        seed: 5,
        num_qeps: 15,
        ..WorkloadConfig::default()
    });
    let session = OptImatch::from_qeps(w.qeps.iter().cloned());
    let p = builtin::pattern_a().pattern;
    let first = matching_ids(&session, &p);
    for _ in 0..3 {
        assert_eq!(matching_ids(&session, &p), first);
    }
}

/// The session API loads a directory of plan files — the tool's CLI-style
/// entry point — and produces the same results as the in-memory path.
#[test]
fn directory_and_memory_sessions_agree() {
    let dir = std::env::temp_dir().join("optimatch-e2e-dir");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let w = generate_workload(&WorkloadConfig {
        seed: 321,
        num_qeps: 8,
        ..WorkloadConfig::default()
    });
    for qep in &w.qeps {
        std::fs::write(dir.join(format!("{}.qep", qep.id)), format_qep(qep)).expect("write");
    }
    let from_dir = OptImatch::open(Source::Dir(dir.clone()), OpenOptions::new())
        .expect("loads")
        .session;
    let from_mem = OptImatch::from_qeps(w.qeps.iter().cloned());
    assert_eq!(from_dir.len(), from_mem.len());
    let p = builtin::pattern_c().pattern;
    assert_eq!(matching_ids(&from_dir, &p), matching_ids(&from_mem, &p));
    std::fs::remove_dir_all(&dir).ok();
}
