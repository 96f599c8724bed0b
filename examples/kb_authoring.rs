//! Knowledge-base authoring: define a custom problem pattern and a
//! recommendation in the tagging language, persist the KB, reload it, and
//! apply it — the collaboration loop of the paper's §2.3 (experts and
//! DBAs sharing a library of patterns and fixes).
//!
//! Run with: `cargo run --example kb_authoring`

use optimatch_suite::core::pattern::{Pattern, PatternPop, Relationship, Sign, StreamKindSpec};
use optimatch_suite::core::rank::Prototype;
use optimatch_suite::core::vocab::names;
use optimatch_suite::core::{KnowledgeBase, KnowledgeBaseEntry, OptImatch, ScanOptions};
use optimatch_suite::qep::fixtures;

fn main() {
    // A custom pattern: "any FETCH that reads a fact-sized object through
    // an index but still fetches more than 1000 rows" — a candidate for a
    // covering (index-only) access.
    let pattern = Pattern::new(
        "custom-wide-fetch",
        "FETCH bringing back many rows; consider a covering index",
    )
    .with_pop(
        PatternPop::new(1, "FETCH")
            .alias("FETCH")
            .prop(names::HAS_ESTIMATE_CARDINALITY, Sign::Gt, "1000")
            .stream(StreamKindSpec::Outer, 2, Relationship::Immediate)
            .stream(StreamKindSpec::Generic, 3, Relationship::Immediate),
    )
    .with_pop(PatternPop::new(2, "IXSCAN").alias("IX"))
    .with_pop(PatternPop::new(3, "BASE OB").alias("TBL").prop(
        names::HAS_ESTIMATE_CARDINALITY,
        Sign::Gt,
        "1000000",
    ));

    let entry = KnowledgeBaseEntry {
        name: "custom-wide-fetch".into(),
        description: "Wide FETCH over an index on a large table".into(),
        // The tagging language pulls table/column context from each match.
        recommendation: "@limit(2)Consider extending the index used by @IX into a \
                         covering index on @table(TBL) including (@columns(TBL)) so \
                         @FETCH (est. rows > 1000) becomes index-only."
            .into(),
        pattern,
        prototype: Prototype {
            cost_share: 0.5,
            log_cardinality: 3.5,
        },
    };

    // Algorithm 4: add to the KB (compiles the pattern eagerly).
    let mut kb = KnowledgeBase::new();
    kb.add(entry).expect("entry is valid");
    println!("Compiled SPARQL for the custom entry:");
    println!("{}", kb.sparql_of("custom-wide-fetch").expect("exists"));

    // Persist and reload — the KB is a shareable JSON artifact.
    let path = std::env::temp_dir().join("optimatch-example-kb.json");
    kb.save(&path).expect("saves");
    let kb = KnowledgeBase::load(&path).expect("loads");
    println!(
        "Reloaded KB with {} entry/entries from {}",
        kb.len(),
        path.display()
    );
    println!();

    // Apply to the fixtures: fig1's FETCH(3) reads 1251 rows -> only
    // triggers after we lower the threshold? No: 1251 > 1000, and
    // SALES_FACT has 1.9e6 rows, so fig1 matches.
    let session = OptImatch::from_qeps([fixtures::fig1(), fixtures::fig8()]);
    let reports = session
        .scan_with(&kb, ScanOptions::default())
        .expect("scan succeeds")
        .reports;
    for report in &reports {
        println!("--- {} ---", report.qep_id);
        println!("{}", report.message());
        println!();
    }
    std::fs::remove_file(&path).ok();
}
