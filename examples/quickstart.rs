//! Quickstart: the full OptImatch pipeline on the paper's Figure 1 plan.
//!
//! 1. Format/parse a DB2-style QEP text file.
//! 2. Transform it to RDF (Algorithm 1) and dump the Figure-2-style Turtle.
//! 3. Build the paper's Pattern A in the pattern-builder model, compile it
//!    to SPARQL through handlers (Algorithm 2), and match (Algorithm 3).
//! 4. Ask the knowledge base for recommendations (Algorithm 5).
//!
//! Run with: `cargo run --example quickstart`

use optimatch_suite::core::{builtin, transform::TransformedQep, Matcher, OptImatch, ScanOptions};
use optimatch_suite::qep::{fixtures, format_qep, parse_qep, render_tree};
use optimatch_suite::rdf::turtle::{to_turtle, PrefixMap};
use optimatch_suite::sparql::Budget;

fn main() {
    // --- 1. A QEP as a text artifact (what DB2's explain would emit). ---
    let fig1 = fixtures::fig1();
    let text = format_qep(&fig1);
    println!("=== Plan text (excerpt) ===");
    println!("{}", render_tree(&fig1));
    let parsed = parse_qep(&text).expect("the formatter's output always parses");
    assert_eq!(parsed, fig1);

    // --- 2. Transform to RDF (Algorithm 1). ---
    let transformed = TransformedQep::new(parsed);
    println!(
        "=== RDF graph: {} triples; Figure-2 style excerpt ===",
        transformed.graph.len()
    );
    let mut prefixes = PrefixMap::new();
    prefixes.add("popURI", "http://optimatch/qep#");
    prefixes.add("predURI", "http://optimatch/pred#");
    let ttl = to_turtle(&transformed.graph, &prefixes);
    for line in ttl.lines().filter(|l| l.contains("pop5")).take(6) {
        println!("{line}");
    }
    println!();

    // --- 3. Pattern A -> SPARQL -> matches. ---
    let entry = builtin::pattern_a();
    println!("=== Pattern (builder JSON, Figure-5 shape) ===");
    println!("{}", entry.pattern.to_json());
    let matcher = Matcher::compile(&entry.pattern).expect("built-in patterns compile");
    println!("=== Generated SPARQL (Figure-6 equivalent) ===");
    println!("{}", matcher.sparql());

    let (matches, _planner) = matcher
        .find_traced(&transformed, &Budget::unlimited(), true)
        .expect("matching succeeds");
    println!("=== Matches ===");
    for m in &matches {
        for b in &m.bindings {
            println!("  ?{} -> {}", b.name, b.target.display());
        }
    }

    // --- 4. Knowledge-base recommendations. ---
    let kb = builtin::paper_kb();
    let session = OptImatch::from_qeps([fig1]);
    let reports = session
        .scan_with(&kb, ScanOptions::default())
        .expect("scan succeeds")
        .reports;
    println!();
    println!("=== Recommendations for {} ===", reports[0].qep_id);
    println!("{}", reports[0].message());
}
