//! N-Triples serialization.
//!
//! N-Triples is the line-oriented dump `optimatch rdf --format ntriples`
//! prints: one triple per line, `.`-terminated, with full IRIs.

use std::fmt::Write as _;

use crate::graph::Graph;

/// Serialize a graph to an N-Triples string (one triple per line, SPO order).
pub fn to_ntriples(graph: &Graph) -> String {
    let mut out = String::new();
    for (s, p, o) in graph.iter() {
        let _ = writeln!(out, "{s} {p} {o} .");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::GraphBuilder;
    use crate::term::Term;

    fn sample() -> Graph {
        let mut g = GraphBuilder::new();
        g.insert(
            Term::iri("http://optimatch/qep#pop5"),
            Term::iri("http://optimatch/pred#hasPopType"),
            Term::lit_str("TBSCAN"),
        );
        g.insert(
            Term::iri("http://optimatch/qep#pop5"),
            Term::iri("http://optimatch/pred#hasTotalCost"),
            Term::lit_double(15771.0),
        );
        g.insert(
            Term::iri("http://optimatch/qep#pop2"),
            Term::iri("http://optimatch/pred#hasInnerInputStream"),
            Term::bnode("bnodeOfPop3_to_pop2"),
        );
        g.build()
    }

    #[test]
    fn writes_one_line_per_triple_in_spo_order() {
        assert_eq!(
            to_ntriples(&sample()),
            concat!(
                "<http://optimatch/qep#pop5> <http://optimatch/pred#hasPopType> \"TBSCAN\" .\n",
                "<http://optimatch/qep#pop5> <http://optimatch/pred#hasTotalCost> ",
                "\"15771.0\"^^<http://www.w3.org/2001/XMLSchema#double> .\n",
                "<http://optimatch/qep#pop2> <http://optimatch/pred#hasInnerInputStream> ",
                "_:bnodeOfPop3_to_pop2 .\n",
            )
        );
    }

    #[test]
    fn control_characters_in_literals_stay_on_one_line() {
        // Predicate text scraped from plans can carry tabs, CRs,
        // backslashes, and stray control bytes; none may break the
        // one-triple-per-line form.
        let nasty = "T1.C1\t= 'a\\b'\r\nAND\u{0}\u{B}\u{1F} T2.C2 = \"x\"";
        let mut g = GraphBuilder::new();
        g.insert(
            Term::iri("http://optimatch/qep#pop3"),
            Term::iri("http://optimatch/pred#hasPredicateText"),
            Term::lit_str(nasty),
        );
        let text = to_ntriples(&g.build());
        // The serialized form must be a single clean line: no raw
        // control characters anywhere.
        let line = text.trim_end_matches('\n');
        assert!(!line.contains(|c: char| (c as u32) < 0x20));
        assert!(line.contains("\\u0000"));
        assert!(line.contains("\\u000B"));
    }
}
