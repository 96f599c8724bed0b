//! Property-based and cross-cutting tests for the SPARQL engine, using
//! randomly generated plan-shaped graphs (trees with typed nodes), which is
//! the shape OptImatch always queries.

use proptest::prelude::*;

use optimatch_rdf::{Graph, GraphBuilder, Term};
use optimatch_sparql::algebra::translate;
use optimatch_sparql::eval::evaluate;
use optimatch_sparql::{execute, parse_query, Budget, PlanOptions};

const TYPES: &[&str] = &[
    "NLJOIN", "HSJOIN", "TBSCAN", "IXSCAN", "SORT", "FETCH", "GRPBY",
];

/// A random tree: node i>0 has parent in [0, i), every node gets a type and
/// a cardinality. Edges are `p:in` (child is input of parent).
#[derive(Debug, Clone)]
struct TreeSpec {
    parents: Vec<usize>,
    types: Vec<usize>,
    cards: Vec<u32>,
}

fn arb_tree(max: usize) -> impl Strategy<Value = TreeSpec> {
    (2..max).prop_flat_map(|n| {
        let parents: Vec<BoxedStrategy<usize>> = (1..n).map(|i| (0..i).boxed()).collect();
        (
            parents,
            proptest::collection::vec(0..TYPES.len(), n),
            proptest::collection::vec(0u32..100_000, n),
        )
            .prop_map(|(parents, types, cards)| TreeSpec {
                parents,
                types,
                cards,
            })
    })
}

fn build_graph(spec: &TreeSpec) -> Graph {
    let mut g = GraphBuilder::new();
    let node = |i: usize| Term::iri(format!("q:pop{i}"));
    for i in 0..spec.types.len() {
        g.insert(
            node(i),
            Term::iri("p:type"),
            Term::lit_str(TYPES[spec.types[i]]),
        );
        g.insert(
            node(i),
            Term::iri("p:card"),
            Term::lit_str(format!("{}.0", spec.cards[i])),
        );
    }
    for (child0, &parent) in spec.parents.iter().enumerate() {
        let child = child0 + 1;
        g.insert(node(parent), Term::iri("p:in"), node(child));
    }
    g.build()
}

/// Reference implementation of descendant reachability on the spec.
fn descendants(spec: &TreeSpec, root: usize) -> Vec<usize> {
    let n = spec.types.len();
    let mut out = Vec::new();
    let mut stack: Vec<usize> = (1..n).filter(|&c| spec.parents[c - 1] == root).collect();
    while let Some(c) = stack.pop() {
        out.push(c);
        stack.extend((1..n).filter(|&k| spec.parents[k - 1] == c));
    }
    out.sort_unstable();
    out.dedup();
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `p:in+` from the root agrees with a hand-rolled reachability check —
    /// the engine's property paths are what OptImatch's descendant
    /// relationships rely on.
    #[test]
    fn transitive_path_matches_reference(spec in arb_tree(12)) {
        let g = build_graph(&spec);
        let t = execute(&g, "SELECT ?d WHERE { <q:pop0> <p:in>+ ?d . }").unwrap();
        let mut got: Vec<String> = (0..t.len())
            .map(|i| t.get(i, "d").unwrap().display_text().into_owned())
            .collect();
        got.sort();
        let mut expect: Vec<String> = descendants(&spec, 0)
            .into_iter()
            .map(|i| format!("q:pop{i}"))
            .collect();
        expect.sort();
        prop_assert_eq!(got, expect);
    }

    /// A numeric filter returns exactly the nodes whose cardinality clears
    /// the threshold, regardless of decimal formatting.
    #[test]
    fn filter_threshold_is_exact(spec in arb_tree(12), threshold in 0u32..100_000) {
        let g = build_graph(&spec);
        let q = format!(
            "SELECT ?n WHERE {{ ?n <p:card> ?c . FILTER (?c > {threshold}) }}"
        );
        let t = execute(&g, &q).unwrap();
        let expect = spec.cards.iter().filter(|&&c| f64::from(c) > f64::from(threshold)).count();
        prop_assert_eq!(t.len(), expect);
    }

    /// DISTINCT never returns duplicates and never loses distinct rows.
    #[test]
    fn distinct_is_set_semantics(spec in arb_tree(12)) {
        let g = build_graph(&spec);
        let t = execute(&g, "SELECT DISTINCT ?t WHERE { ?n <p:type> ?t . }").unwrap();
        let mut seen = std::collections::HashSet::new();
        for i in 0..t.len() {
            prop_assert!(seen.insert(t.get(i, "t").unwrap().display_text().into_owned()));
        }
        let distinct_types: std::collections::HashSet<_> =
            spec.types.iter().map(|&i| TYPES[i]).collect();
        prop_assert_eq!(seen.len(), distinct_types.len());
    }

    /// ORDER BY yields a monotone column.
    #[test]
    fn order_by_is_monotone(spec in arb_tree(12)) {
        let g = build_graph(&spec);
        let t = execute(&g, "SELECT ?c WHERE { ?n <p:card> ?c . } ORDER BY ?c").unwrap();
        let values: Vec<f64> = (0..t.len())
            .map(|i| t.get(i, "c").unwrap().numeric_value().unwrap())
            .collect();
        for w in values.windows(2) {
            prop_assert!(w[0] <= w[1]);
        }
    }

    /// Join order independence: shuffled triple patterns give identical
    /// result sets (the greedy reorderer must not change semantics).
    #[test]
    fn pattern_order_does_not_change_results(spec in arb_tree(10)) {
        let g = build_graph(&spec);
        let a = execute(&g, "SELECT ?p ?c WHERE {
            ?p <p:in> ?c . ?p <p:type> \"NLJOIN\" . ?c <p:type> \"TBSCAN\" . }").unwrap();
        let b = execute(&g, "SELECT ?p ?c WHERE {
            ?c <p:type> \"TBSCAN\" . ?p <p:type> \"NLJOIN\" . ?p <p:in> ?c . }").unwrap();
        let norm = |t: &optimatch_sparql::ResultTable| {
            let mut rows: Vec<String> = t.rows().iter().map(|r| format!("{r:?}")).collect();
            rows.sort();
            rows
        };
        prop_assert_eq!(norm(&a), norm(&b));
    }

    /// OPTIONAL never reduces the number of left-side solutions.
    #[test]
    fn optional_preserves_left_rows(spec in arb_tree(12)) {
        let g = build_graph(&spec);
        let plain = execute(&g, "SELECT ?n WHERE { ?n <p:type> ?t . }").unwrap();
        let opt = execute(&g, "SELECT ?n WHERE {
            ?n <p:type> ?t . OPTIONAL { ?n <p:in> ?child . } }").unwrap();
        prop_assert!(opt.len() >= plain.len());
    }
}

#[test]
fn parse_once_execute_many_is_consistent() {
    // The workload loop parses and translates each KB pattern once;
    // re-execution against different graphs must be stateless.
    let q = translate(
        &parse_query(
            "SELECT ?n WHERE { ?n <p:type> \"TBSCAN\" . ?n <p:card> ?c . FILTER (?c > 50) }",
        )
        .unwrap(),
    )
    .unwrap();
    let mut g1 = GraphBuilder::new();
    g1.insert(Term::iri("a"), Term::iri("p:type"), Term::lit_str("TBSCAN"));
    g1.insert(Term::iri("a"), Term::iri("p:card"), Term::lit_str("100"));
    let g1 = g1.build();
    let mut g2 = GraphBuilder::new();
    g2.insert(Term::iri("b"), Term::iri("p:type"), Term::lit_str("TBSCAN"));
    g2.insert(Term::iri("b"), Term::iri("p:card"), Term::lit_str("10"));
    let g2 = g2.build();

    let rows = |g: &Graph| {
        evaluate(g, &q, PlanOptions::default(), &Budget::unlimited())
            .unwrap()
            .0
            .len()
    };
    assert_eq!(rows(&g1), 1);
    assert_eq!(rows(&g2), 0);
    // And again, in the other order.
    assert_eq!(rows(&g2), 0);
    assert_eq!(rows(&g1), 1);
}
