//! A small conformance battery: each case is one query against one tiny
//! graph with an exact expected result, covering the corners of the
//! dialect the OptImatch compiler and ad-hoc users rely on.

use optimatch_rdf::{Graph, GraphBuilder, Term};
use optimatch_sparql::{ask, execute};

/// The shared test graph: a join over a fetch and a table scan.
fn graph() -> Graph {
    let iri = |s: &str| Term::iri(s);
    let lit = |s: &str| Term::lit_str(s);
    let triples = [
        ("q:p1", "p:type", lit("NLJOIN")),
        ("q:p1", "p:card", lit("1251.0")),
        ("q:p1", "p:inner", iri("q:p3")),
        ("q:p1", "p:outer", iri("q:p2")),
        ("q:p2", "p:type", lit("FETCH")),
        ("q:p2", "p:card", lit("1251.0")),
        ("q:p3", "p:type", lit("TBSCAN")),
        ("q:p3", "p:card", lit("1.93187e+06")),
        ("q:p3", "p:reads", iri("q:t1")),
        ("q:t1", "p:name", lit("CUST_DIM")),
        ("q:t1", "p:kind", lit("TABLE")),
    ];
    let mut g = GraphBuilder::new();
    for (s, p, o) in triples {
        g.insert(iri(s), iri(p), o);
    }
    g.build()
}

/// Run a query, returning each row rendered as `var=value` pairs.
fn rows(query: &str) -> Vec<String> {
    let g = graph();
    let table = execute(&g, query).unwrap_or_else(|e| panic!("{e}\n{query}"));
    (0..table.len())
        .map(|r| {
            table
                .vars()
                .iter()
                .map(|v| {
                    format!(
                        "{v}={}",
                        table
                            .get(r, v)
                            .map(|t| t.display_text().into_owned())
                            .unwrap_or_else(|| "-".into())
                    )
                })
                .collect::<Vec<_>>()
                .join(" ")
        })
        .collect()
}

#[test]
fn basic_bgp_with_shared_variable() {
    assert_eq!(
        rows("SELECT ?t WHERE { ?j <p:type> \"NLJOIN\" . ?j <p:inner> ?s . ?s <p:type> ?t . }"),
        vec!["t=TBSCAN"]
    );
}

#[test]
fn numeric_filter_over_exponent_literal() {
    assert_eq!(
        rows("SELECT ?s WHERE { ?s <p:card> ?c . FILTER (?c > 1000000) }"),
        vec!["s=q:p3"]
    );
    assert_eq!(
        rows("SELECT ?s WHERE { ?s <p:card> ?c . FILTER (?c >= 1251 && ?c <= 1251) } ORDER BY ?s"),
        vec!["s=q:p1", "s=q:p2"]
    );
}

#[test]
fn optional_binds_when_present() {
    assert_eq!(
        rows(
            "SELECT ?s ?n WHERE { ?s <p:type> \"TBSCAN\" .
             OPTIONAL { ?s <p:reads> ?t . ?t <p:name> ?n . } }"
        ),
        vec!["s=q:p3 n=CUST_DIM"]
    );
    // Unmatched OPTIONAL leaves the variable unbound but keeps the row.
    assert_eq!(
        rows(
            "SELECT ?s ?n WHERE { ?s <p:type> \"FETCH\" .
             OPTIONAL { ?s <p:reads> ?t . ?t <p:name> ?n . } }"
        ),
        vec!["s=q:p2 n=-"]
    );
}

#[test]
fn union_and_distinct() {
    assert_eq!(
        rows(
            "SELECT DISTINCT ?s WHERE {
               { ?s <p:type> \"TBSCAN\" . } UNION { ?s <p:card> ?c . FILTER (?c > 1e6) }
             }"
        ),
        vec!["s=q:p3"]
    );
}

#[test]
fn property_path_sequence_and_closure() {
    assert_eq!(
        rows("SELECT ?n WHERE { <q:p1> <p:inner>/<p:reads>/<p:name> ?n . }"),
        vec!["n=CUST_DIM"]
    );
    assert_eq!(
        rows("SELECT ?x WHERE { <q:p1> (<p:inner>|<p:outer>|<p:reads>)+ ?x . } ORDER BY ?x"),
        vec!["x=q:p2", "x=q:p3", "x=q:t1"]
    );
}

#[test]
fn inverse_path() {
    assert_eq!(
        rows("SELECT ?j WHERE { <q:p3> ^<p:inner> ?j . }"),
        vec!["j=q:p1"]
    );
}

#[test]
fn bind_and_arithmetic_projection() {
    assert_eq!(
        rows("SELECT ?d WHERE { <q:p1> <p:card> ?c . BIND (?c * 2 - 2 AS ?d) }"),
        vec!["d=2500.0"]
    );
}

#[test]
fn order_limit_offset_pagination() {
    let all = rows("SELECT ?s WHERE { ?s <p:card> ?c . } ORDER BY DESC(?c) ?s");
    assert_eq!(all, vec!["s=q:p3", "s=q:p1", "s=q:p2"]);
    assert_eq!(
        rows("SELECT ?s WHERE { ?s <p:card> ?c . } ORDER BY DESC(?c) ?s LIMIT 1 OFFSET 1"),
        vec!["s=q:p1"]
    );
}

#[test]
fn string_builtins_in_filters() {
    assert_eq!(
        rows("SELECT ?s WHERE { ?s <p:type> ?t . FILTER (CONTAINS(?t, \"JOIN\")) }"),
        vec!["s=q:p1"]
    );
    assert_eq!(
        rows("SELECT ?s WHERE { ?s <p:type> ?t . FILTER (REGEX(?t, \"^FE\")) }"),
        vec!["s=q:p2"]
    );
}

#[test]
fn ask_queries() {
    let g = graph();
    assert!(ask(&g, "ASK { ?s <p:type> \"TBSCAN\" . }").unwrap());
    assert!(!ask(&g, "ASK { ?s <p:type> \"ZZJOIN\" . }").unwrap());
    // Correlated ASK shape.
    assert!(ask(
        &g,
        "ASK { ?j <p:inner> ?s . ?s <p:card> ?c . FILTER (?c > 1e6) }"
    )
    .unwrap());
}

#[test]
fn exists_correlation() {
    assert_eq!(
        rows(
            "SELECT ?s WHERE { ?s <p:type> ?t .
             FILTER EXISTS { ?s <p:reads> ?o . } }"
        ),
        vec!["s=q:p3"]
    );
    assert_eq!(
        rows(
            "SELECT ?s WHERE { ?s <p:type> ?t .
             FILTER NOT EXISTS { ?s <p:reads> ?o . } } ORDER BY ?s"
        ),
        vec!["s=q:p1", "s=q:p2"]
    );
}

#[test]
fn aggregates_and_grouping() {
    assert_eq!(
        rows("SELECT (COUNT(*) AS ?n) WHERE { ?s <p:card> ?c . }"),
        vec!["n=3"]
    );
    assert_eq!(
        rows(
            "SELECT ?t (COUNT(?s) AS ?n) WHERE { ?s <p:type> ?t . ?s <p:card> ?c . }
             GROUP BY ?t ORDER BY ?t"
        ),
        vec!["t=FETCH n=1", "t=NLJOIN n=1", "t=TBSCAN n=1"]
    );
    let g = graph();
    let t = execute(
        &g,
        "SELECT (SUM(?c) AS ?total) WHERE { ?s <p:card> ?c . FILTER (?c < 1e6) }",
    )
    .unwrap();
    assert_eq!(t.get(0, "total").unwrap().numeric_value(), Some(2502.0));
}

#[test]
fn having_filters_groups() {
    // Groups of plan-operator types, kept only when the group's total
    // cardinality clears a bar.
    let g = graph();
    let t = execute(
        &g,
        "SELECT ?t (SUM(?c) AS ?total) WHERE { ?s <p:type> ?t . ?s <p:card> ?c . }
         GROUP BY ?t HAVING (SUM(?c) > 2000) ORDER BY ?t",
    )
    .unwrap();
    // Only TBSCAN (1.93e6) clears 2000; NLJOIN and FETCH (1251) do not.
    assert_eq!(t.len(), 1);
    assert_eq!(t.get(0, "t").unwrap().display_text(), "TBSCAN");

    // HAVING with COUNT and a group-key comparison combined.
    let t = execute(
        &g,
        "SELECT ?t (COUNT(?s) AS ?n) WHERE { ?s <p:type> ?t . }
         GROUP BY ?t HAVING (COUNT(?s) >= 1 && ?t != \"FETCH\") ORDER BY ?t",
    )
    .unwrap();
    assert_eq!(t.len(), 2);

    // HAVING without grouping context is rejected.
    assert!(execute(&g, "SELECT ?s WHERE { ?s <p:type> ?t . } HAVING (?t > 1)").is_err());
}

#[test]
fn select_star_and_variable_predicates() {
    let g = graph();
    let t = execute(&g, "SELECT * WHERE { <q:t1> ?p ?o . }").unwrap();
    assert_eq!(t.len(), 2);
    assert_eq!(t.vars(), ["p", "o"]);
}

#[test]
fn error_value_semantics_drop_rows() {
    // ?c is a string for q:t1's name: numeric comparison errors ⇒ dropped,
    // not a query failure.
    assert_eq!(
        rows("SELECT ?s WHERE { ?s <p:name> ?n . FILTER (?n > 10) }"),
        Vec::<String>::new()
    );
}

#[test]
fn zero_or_one_and_zero_or_more_paths() {
    assert_eq!(
        rows("SELECT ?x WHERE { <q:p1> <p:inner>? ?x . } ORDER BY ?x"),
        vec!["x=q:p1", "x=q:p3"]
    );
    assert_eq!(
        rows("SELECT ?x WHERE { <q:p3> <p:reads>* ?x . } ORDER BY ?x"),
        vec!["x=q:p3", "x=q:t1"]
    );
}

#[test]
fn bound_and_unbound_detection() {
    assert_eq!(
        rows(
            "SELECT ?s WHERE { ?s <p:type> ?t .
             OPTIONAL { ?s <p:reads> ?r . }
             FILTER (!BOUND(?r)) } ORDER BY ?s"
        ),
        vec!["s=q:p1", "s=q:p2"]
    );
}
