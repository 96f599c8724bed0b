//! A prefix-aware Turtle writer.
//!
//! The paper's Figure 2 shows the generated RDF "in textual representation"
//! with predicate-per-line grouping; this module reproduces that human
//! readable form for `optimatch rdf --format turtle`.

use std::fmt::Write as _;

use crate::graph::Graph;
use crate::term::Term;

/// A namespace prefix table for compacting IRIs when writing Turtle.
#[derive(Debug, Default, Clone)]
pub struct PrefixMap {
    /// `(prefix, namespace)` pairs, longest-namespace-first at lookup time.
    entries: Vec<(String, String)>,
}

impl PrefixMap {
    /// Create an empty prefix map.
    pub fn new() -> PrefixMap {
        PrefixMap::default()
    }

    /// Register a prefix, e.g. `("predURI", "http://optimatch/pred#")`.
    pub fn add(&mut self, prefix: impl Into<String>, namespace: impl Into<String>) {
        self.entries.push((prefix.into(), namespace.into()));
    }

    /// Compact an IRI to `prefix:local` if a registered namespace matches and
    /// the local part is a simple name; otherwise return `<iri>`.
    pub fn compact(&self, iri: &str) -> String {
        let mut best: Option<(&str, &str)> = None;
        for (p, ns) in &self.entries {
            if let Some(local) = iri.strip_prefix(ns.as_str()) {
                if local
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '-')
                    && best.is_none_or(|(_, bns)| ns.len() > bns.len())
                {
                    best = Some((p, ns));
                }
            }
        }
        match best {
            Some((p, ns)) => format!("{}:{}", p, &iri[ns.len()..]),
            None => format!("<{iri}>"),
        }
    }

    /// Iterate registered `(prefix, namespace)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &str)> {
        self.entries.iter().map(|(p, n)| (p.as_str(), n.as_str()))
    }
}

fn term_to_turtle(t: &Term, prefixes: &PrefixMap) -> String {
    match t {
        Term::Iri(i) => prefixes.compact(i),
        other => other.to_string(),
    }
}

/// Serialize a graph to Turtle, grouping triples by subject with `;`
/// predicate continuation — the layout of the paper's Figure 2.
pub fn to_turtle(graph: &Graph, prefixes: &PrefixMap) -> String {
    let mut out = String::new();
    for (p, ns) in prefixes.iter() {
        let _ = writeln!(out, "@prefix {p}: <{ns}> .");
    }
    if !out.is_empty() {
        out.push('\n');
    }

    let mut last_subject: Option<Term> = None;
    for (s, p, o) in graph.iter() {
        let same_subject = last_subject.as_ref() == Some(&s);
        if same_subject {
            let _ = writeln!(out, " ;");
            let _ = write!(
                out,
                "    {} {}",
                term_to_turtle(&p, prefixes),
                term_to_turtle(&o, prefixes)
            );
        } else {
            if last_subject.is_some() {
                let _ = writeln!(out, " .");
            }
            let _ = write!(
                out,
                "{} {} {}",
                term_to_turtle(&s, prefixes),
                term_to_turtle(&p, prefixes),
                term_to_turtle(&o, prefixes)
            );
            last_subject = Some(s);
        }
    }
    if last_subject.is_some() {
        let _ = writeln!(out, " .");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::GraphBuilder;

    #[test]
    fn compacts_known_namespaces() {
        let mut pm = PrefixMap::new();
        pm.add("popURI", "http://optimatch/qep#");
        pm.add("predURI", "http://optimatch/pred#");
        assert_eq!(pm.compact("http://optimatch/qep#pop5"), "popURI:pop5");
        assert_eq!(pm.compact("http://elsewhere/x"), "<http://elsewhere/x>");
        // Local names with slashes cannot be compacted.
        assert_eq!(
            pm.compact("http://optimatch/qep#a/b"),
            "<http://optimatch/qep#a/b>"
        );
    }

    #[test]
    fn longest_namespace_wins() {
        let mut pm = PrefixMap::new();
        pm.add("a", "http://x/");
        pm.add("ab", "http://x/deep#");
        assert_eq!(pm.compact("http://x/deep#n"), "ab:n");
    }

    #[test]
    fn control_characters_in_literals_stay_on_one_line() {
        let nasty = "Q1.ID\t= Q2.ID\r\nAND\u{C} NAME LIKE '%\\%'";
        let mut g = GraphBuilder::new();
        g.insert(
            Term::iri("http://optimatch/qep#pop4"),
            Term::iri("http://optimatch/pred#hasPredicateText"),
            Term::lit_str(nasty),
        );
        let ttl = to_turtle(&g.build(), &PrefixMap::new());
        let line = ttl.trim_end_matches('\n');
        assert!(!line.contains(|c: char| (c as u32) < 0x20));
        assert!(ttl.contains("\\u000C"));
    }

    #[test]
    fn groups_by_subject_like_figure_2() {
        let mut g = GraphBuilder::new();
        let pm = {
            let mut pm = PrefixMap::new();
            pm.add("pop", "http://optimatch/qep#");
            pm.add("pred", "http://optimatch/pred#");
            pm
        };
        g.insert(
            Term::iri("http://optimatch/qep#pop5"),
            Term::iri("http://optimatch/pred#hasPopType"),
            Term::lit_str("TBSCAN"),
        );
        g.insert(
            Term::iri("http://optimatch/qep#pop5"),
            Term::iri("http://optimatch/pred#hasTotalCost"),
            Term::lit_str("15771.0"),
        );
        let ttl = to_turtle(&g.build(), &pm);
        assert!(ttl.contains("@prefix pop: <http://optimatch/qep#> ."));
        // Subject appears once; second predicate continues with ';'.
        assert_eq!(ttl.matches("pop:pop5").count(), 1);
        assert!(ttl.contains(" ;\n    pred:hasTotalCost"));
        assert!(ttl.trim_end().ends_with('.'));
    }

    #[test]
    fn empty_graph_writes_only_prefixes() {
        let g = Graph::default();
        let mut pm = PrefixMap::new();
        pm.add("p", "http://x/");
        let ttl = to_turtle(&g, &pm);
        assert_eq!(ttl, "@prefix p: <http://x/> .\n\n");
    }

    fn sample_graph() -> Graph {
        let mut g = GraphBuilder::new();
        g.insert(
            Term::iri("http://optimatch/qep#pop5"),
            Term::iri("http://optimatch/pred#hasPopType"),
            Term::lit_str("TBSCAN"),
        );
        g.insert(
            Term::iri("http://optimatch/qep#pop5"),
            Term::iri("http://optimatch/pred#hasTotalCost"),
            Term::lit_str("15771.0"),
        );
        g.insert(
            Term::iri("http://optimatch/qep#pop2"),
            Term::iri("http://optimatch/pred#hasInnerInputStream"),
            Term::bnode("b0"),
        );
        g.build()
    }

    #[test]
    fn writer_output_is_pinned() {
        let mut pm = PrefixMap::new();
        pm.add("popURI", "http://optimatch/qep#");
        pm.add("predURI", "http://optimatch/pred#");
        assert_eq!(
            to_turtle(&sample_graph(), &pm),
            concat!(
                "@prefix popURI: <http://optimatch/qep#> .\n",
                "@prefix predURI: <http://optimatch/pred#> .\n",
                "\n",
                "popURI:pop5 predURI:hasPopType \"TBSCAN\" ;\n",
                "    predURI:hasTotalCost \"15771.0\" .\n",
                "popURI:pop2 predURI:hasInnerInputStream _:b0 .\n",
            )
        );
    }
}
