//! Property-based tests for the RDF substrate: the N-Triples writer's line
//! form, interning from borrowed text, index consistency across all binding
//! shapes, scan counts and statistics against brute force, and numeric
//! lexical laws.

use std::collections::{BTreeMap, BTreeSet};

use proptest::prelude::*;

use optimatch_rdf::ntriples::to_ntriples;
use optimatch_rdf::numeric::{format_double, parse_numeric};
use optimatch_rdf::term::xsd;
use optimatch_rdf::{Graph, GraphBuilder, GraphStats, IdTriple, PredicateStats, Term, TermId};

/// Strategy for IRI-safe strings (no `>` or control chars).
fn iri_string() -> impl Strategy<Value = String> {
    "[a-zA-Z][a-zA-Z0-9_/#:.-]{0,24}"
}

/// Strategy for arbitrary literal content, including characters that must be
/// escaped on serialization (named escapes and other C0 controls).
fn literal_string() -> impl Strategy<Value = String> {
    proptest::string::string_regex("[ -~\n\r\t\u{0}\u{b}\u{1f}àé]{0,24}").unwrap()
}

fn arb_term() -> impl Strategy<Value = Term> {
    prop_oneof![
        iri_string().prop_map(Term::iri),
        "[a-zA-Z][a-zA-Z0-9_-]{0,10}".prop_map(Term::bnode),
        literal_string().prop_map(Term::lit_str),
        any::<i64>().prop_map(Term::lit_integer),
        (-1e12..1e12f64).prop_map(Term::lit_double),
    ]
}

fn arb_graph() -> impl Strategy<Value = Graph> {
    proptest::collection::vec(
        (arb_term(), iri_string().prop_map(Term::iri), arb_term()),
        0..40,
    )
    .prop_map(|triples| {
        let mut g = GraphBuilder::new();
        for (s, p, o) in triples {
            g.insert(s, p, o);
        }
        g.build()
    })
}

/// Graphs over a vocabulary of six IRIs and two literals, so one term
/// recurs as subject, predicate and object, and triples are inserted
/// more than once.
fn arb_dense_graph() -> impl Strategy<Value = Graph> {
    let node = |i: u8| match i {
        0..=5 => Term::iri(format!("v{i}")),
        _ => Term::lit_str(format!("l{i}")),
    };
    proptest::collection::vec((0u8..6, 0u8..3, 0u8..8, 1usize..3), 0..40).prop_map(move |triples| {
        let mut g = GraphBuilder::new();
        for (s, p, o, copies) in triples {
            for _ in 0..copies {
                g.insert(node(s), node(p), node(o));
            }
        }
        g.build()
    })
}

/// `stats()` recounted from `iter_ids`: per predicate, its triples and its
/// distinct subjects and objects.
fn brute_force_stats(g: &Graph) -> GraphStats {
    let mut by_predicate: BTreeMap<TermId, (usize, BTreeSet<TermId>, BTreeSet<TermId>)> =
        BTreeMap::new();
    for [s, p, o] in g.iter_ids() {
        let (count, subjects, objects) = by_predicate.entry(p).or_default();
        *count += 1;
        subjects.insert(s);
        objects.insert(o);
    }
    GraphStats {
        triples: g.iter_ids().count(),
        terms: g.pool().len(),
        predicates: by_predicate
            .into_iter()
            .map(|(predicate, (count, subjects, objects))| PredicateStats {
                predicate,
                count,
                distinct_subjects: subjects.len(),
                distinct_objects: objects.len(),
            })
            .collect(),
    }
}

proptest! {
    /// The writer emits one `.`-terminated line per triple, and no raw
    /// control character survives escaping.
    #[test]
    fn ntriples_writes_one_clean_line_per_triple(g in arb_graph()) {
        let text = to_ntriples(&g);
        let lines: Vec<&str> = text.split_terminator('\n').collect();
        prop_assert_eq!(lines.len(), g.len());
        for line in lines {
            prop_assert!(line.ends_with(" ."), "{:?}", line);
            prop_assert!(!line.contains(|c: char| (c as u32) < 0x20), "{:?}", line);
        }
    }

    /// The builder's borrowed IRI and plain-literal lookups find the
    /// terms that interning owned `Term`s gives, in either order; four
    /// kinds of term with one text get four ids; the built graph and a
    /// graph rebuilt from its parts find every one under the same id.
    #[test]
    fn borrowed_interning_agrees_with_owned_terms(
        texts in proptest::collection::vec(
            proptest::string::string_regex("[ -~\n\r\t\u{0}\u{7f}\u{1f}àé€😀]{0,12}").unwrap(),
            1..8,
        ),
    ) {
        let mut b = GraphBuilder::new();
        let mut interned = Vec::new();
        for (i, text) in texts.iter().enumerate() {
            let (iri, lit) = if i % 2 == 0 {
                let ids = (b.iri(text), b.literal(text));
                prop_assert_eq!(b.term(Term::iri(text.as_str())), ids.0);
                prop_assert_eq!(b.term(Term::lit_str(text.as_str())), ids.1);
                ids
            } else {
                let ids = (
                    b.term(Term::iri(text.as_str())),
                    b.term(Term::lit_str(text.as_str())),
                );
                prop_assert_eq!(b.iri(text), ids.0);
                prop_assert_eq!(b.literal(text), ids.1);
                ids
            };
            let bnode = b.term(Term::bnode(text.as_str()));
            let typed = b.term(Term::lit_typed(text.as_str(), xsd::STRING));
            let ids = [iri, bnode, lit, typed];
            prop_assert_eq!(ids.iter().collect::<BTreeSet<_>>().len(), 4, "{:?}", text);
            b.push([bnode, iri, lit]);
            b.push([iri, iri, typed]);
            interned.push((text, ids));
        }
        let g = b.build();
        let terms: Vec<Term> = g.pool().iter().map(|(_, t)| t.clone()).collect();
        let triples: Vec<IdTriple> = g.iter_ids().collect();
        let rebuilt = Graph::from_parts(terms, &triples).expect("built parts rebuild");
        prop_assert_eq!(rebuilt.iter_ids().collect::<Vec<_>>(), triples);
        for graph in [&g, &rebuilt] {
            for (text, [iri, bnode, lit, typed]) in &interned {
                let text = text.as_str();
                prop_assert_eq!(graph.iri_id(text), Some(*iri));
                prop_assert_eq!(graph.term_id(&Term::iri(text)), Some(*iri));
                prop_assert_eq!(graph.term_id(&Term::bnode(text)), Some(*bnode));
                prop_assert_eq!(graph.term_id(&Term::lit_str(text)), Some(*lit));
                prop_assert_eq!(
                    graph.term_id(&Term::lit_typed(text, xsd::STRING)),
                    Some(*typed)
                );
            }
        }
    }

    /// Every triple a full scan sees is also found by each partially-bound
    /// pattern scan, and pattern scans never invent triples.
    #[test]
    fn index_scans_consistent(g in arb_graph()) {
        let all: Vec<_> = g.iter().collect();
        for (s, p, o) in &all {
            for mask in 0u8..8 {
                let qs = (mask & 1 != 0).then_some(s);
                let qp = (mask & 2 != 0).then_some(p);
                let qo = (mask & 4 != 0).then_some(o);
                let hits: Vec<_> = g.triples_matching(qs, qp, qo).collect();
                prop_assert!(hits.contains(&(s.clone(), p.clone(), o.clone())));
                for (hs, hp, ho) in &hits {
                    prop_assert!(g.contains(hs, hp, ho));
                    if let Some(qs) = qs { prop_assert_eq!(hs, qs); }
                    if let Some(qp) = qp { prop_assert_eq!(hp, qp); }
                    if let Some(qo) = qo { prop_assert_eq!(ho, qo); }
                }
            }
        }
    }

    /// Every binding shape, with each bound position drawn from the whole
    /// term pool (so many probes hit an empty range of interned terms),
    /// scans exactly the triples that filtering a full scan keeps, and
    /// the scan's length is their count. The statistics agree with a
    /// brute-force count.
    #[test]
    fn scans_and_stats_match_brute_force(
        g in arb_dense_graph(),
        probes in proptest::collection::vec((any::<u32>(), any::<u32>(), any::<u32>()), 16),
    ) {
        let pool = g.pool().len() as u32;
        for (a, b, c) in probes {
            let pick = |x: u32| TermId(x % pool.max(1));
            for mask in 0u8..8 {
                let s = (mask & 1 != 0).then(|| pick(a));
                let p = (mask & 2 != 0).then(|| pick(b));
                let o = (mask & 4 != 0).then(|| pick(c));
                let expected: BTreeSet<_> = g
                    .iter_ids()
                    .filter(|&[ts, tp, to]| {
                        s.is_none_or(|s| s == ts)
                            && p.is_none_or(|p| p == tp)
                            && o.is_none_or(|o| o == to)
                    })
                    .collect();
                let scan = g.matching_ids(s, p, o);
                prop_assert_eq!(scan.len(), expected.len());
                let found: Vec<_> = scan.collect();
                prop_assert_eq!(found.len(), expected.len());
                prop_assert_eq!(found.into_iter().collect::<BTreeSet<_>>(), expected);
            }
        }
        prop_assert_eq!(g.stats(), &brute_force_stats(&g));
    }

    /// Inserting the same triples in any order yields the same graph.
    #[test]
    fn insertion_order_irrelevant(
        triples in proptest::collection::vec(
            (arb_term(), iri_string().prop_map(Term::iri), arb_term()), 1..20),
        seed in any::<u64>(),
    ) {
        let mut g1 = GraphBuilder::new();
        for (s, p, o) in &triples {
            g1.insert(s.clone(), p.clone(), o.clone());
        }
        let g1 = g1.build();
        let mut shuffled = triples.clone();
        // Cheap deterministic shuffle.
        let n = shuffled.len();
        for i in 0..n {
            let j = ((seed.wrapping_mul(6364136223846793005).wrapping_add(i as u64)) % n as u64) as usize;
            shuffled.swap(i, j);
        }
        let mut g2 = GraphBuilder::new();
        for (s, p, o) in shuffled {
            g2.insert(s, p, o);
        }
        let g2 = g2.build();
        prop_assert_eq!(g1.len(), g2.len());
        for (s, p, o) in g1.iter() {
            prop_assert!(g2.contains(&s, &p, &o));
        }
    }

    /// Formatting a double and parsing it back is value-preserving to within
    /// formatting precision (six significant digits).
    #[test]
    fn numeric_format_parse_inverse(v in prop_oneof![
        -1e15..1e15f64,
        -1.0..1.0f64,
        Just(0.0),
    ]) {
        let s = format_double(v);
        let back = parse_numeric(&s).expect("formatted doubles must parse");
        let tol = if v == 0.0 { 1e-12 } else { v.abs() * 1e-4 };
        prop_assert!((back - v).abs() <= tol, "{} -> {} -> {}", v, s, back);
    }

    /// parse_numeric agrees with Rust's float parser on everything it accepts.
    #[test]
    fn parse_agrees_with_std(s in "[+-]?[0-9]{1,10}(\\.[0-9]{0,8})?([eE][+-]?[0-9]{1,3})?") {
        if let Some(v) = parse_numeric(&s) {
            let std_v: f64 = s.trim().parse().unwrap();
            prop_assert_eq!(v, std_v);
        }
    }
}
