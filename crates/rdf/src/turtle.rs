//! A prefix-aware Turtle writer and a reader for the subset it emits.
//!
//! The paper's Figure 2 shows the generated RDF "in textual representation"
//! with predicate-per-line grouping; this module reproduces that human
//! readable form. The parser accepts the writer's output plus the common
//! hand-written Turtle conveniences (`a`, `;` / `,` continuations,
//! prefixed names, typed and language-tagged literals), so Figure-2-style
//! dumps round-trip.

use std::collections::HashMap;
use std::fmt::Write as _;

use crate::graph::{Graph, GraphBuilder};
use crate::term::{Literal, Term};

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

/// Errors produced by the Turtle parser.
#[derive(Debug, Clone, PartialEq)]
pub struct TurtleParseError {
    /// Byte offset in the document.
    pub position: usize,
    /// Explanation.
    pub message: String,
}

impl std::fmt::Display for TurtleParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Turtle parse error at byte {}: {}",
            self.position, self.message
        )
    }
}

impl std::error::Error for TurtleParseError {}

/// Parse a Turtle document (the subset `to_turtle` writes, plus `a` and
/// bare numeric/boolean literals) into a fresh graph.
pub fn from_turtle(input: &str) -> Result<Graph, TurtleParseError> {
    let mut p = TurtleParser {
        src: input,
        bytes: input.as_bytes(),
        pos: 0,
        prefixes: HashMap::new(),
    };
    let mut graph = GraphBuilder::new();
    p.skip_trivia();
    while !p.at_end() {
        if p.peek_str("@prefix") {
            p.prefix_declaration()?;
        } else {
            p.statement(&mut graph)?;
        }
        p.skip_trivia();
    }
    Ok(graph.build())
}

struct TurtleParser<'a> {
    src: &'a str,
    bytes: &'a [u8],
    pos: usize,
    prefixes: HashMap<String, String>,
}

impl<'a> TurtleParser<'a> {
    fn err(&self, message: impl Into<String>) -> TurtleParseError {
        TurtleParseError {
            position: self.pos,
            message: message.into(),
        }
    }

    fn at_end(&self) -> bool {
        self.pos >= self.bytes.len()
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn peek_str(&self, s: &str) -> bool {
        self.src[self.pos..].starts_with(s)
    }

    fn skip_trivia(&mut self) {
        loop {
            match self.peek() {
                Some(b' ' | b'\t' | b'\r' | b'\n') => self.pos += 1,
                Some(b'#') => {
                    while !self.at_end() && self.peek() != Some(b'\n') {
                        self.pos += 1;
                    }
                }
                _ => break,
            }
        }
    }

    fn expect(&mut self, c: u8) -> Result<(), TurtleParseError> {
        if self.peek() == Some(c) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected {:?}", c as char)))
        }
    }

    fn prefix_declaration(&mut self) -> Result<(), TurtleParseError> {
        self.pos += "@prefix".len();
        self.skip_trivia();
        let start = self.pos;
        while self.peek().is_some_and(|c| c != b':') {
            self.pos += 1;
        }
        let prefix = self.src[start..self.pos].trim().to_string();
        self.expect(b':')?;
        self.skip_trivia();
        let Term::Iri(ns) = self.iri_ref()? else {
            unreachable!("iri_ref returns Iri")
        };
        self.skip_trivia();
        self.expect(b'.')?;
        self.prefixes.insert(prefix, ns);
        Ok(())
    }

    fn statement(&mut self, graph: &mut GraphBuilder) -> Result<(), TurtleParseError> {
        let subject = self.term()?;
        loop {
            self.skip_trivia();
            let predicate = if self.peek() == Some(b'a')
                && self
                    .bytes
                    .get(self.pos + 1)
                    .is_some_and(|c| c.is_ascii_whitespace())
            {
                self.pos += 1;
                Term::iri("http://www.w3.org/1999/02/22-rdf-syntax-ns#type")
            } else {
                self.term()?
            };
            if !predicate.is_iri() {
                return Err(self.err("predicate must be an IRI"));
            }
            loop {
                self.skip_trivia();
                let object = self.term()?;
                graph.insert(subject.clone(), predicate.clone(), object);
                self.skip_trivia();
                if self.peek() == Some(b',') {
                    self.pos += 1;
                } else {
                    break;
                }
            }
            match self.peek() {
                Some(b';') => {
                    self.pos += 1;
                    self.skip_trivia();
                    // Tolerate a trailing ';' before '.'.
                    if self.peek() == Some(b'.') {
                        self.pos += 1;
                        return Ok(());
                    }
                }
                Some(b'.') => {
                    self.pos += 1;
                    return Ok(());
                }
                _ => return Err(self.err("expected ';' or '.'")),
            }
        }
    }

    fn term(&mut self) -> Result<Term, TurtleParseError> {
        self.skip_trivia();
        match self.peek() {
            Some(b'<') => self.iri_ref(),
            Some(b'"') => self.literal(),
            Some(b'_') => self.blank_node(),
            Some(c) if c.is_ascii_digit() || c == b'-' || c == b'+' => self.number(),
            Some(_) => {
                if self.peek_str("true") && !self.name_continues("true") {
                    self.pos += 4;
                    return Ok(Term::lit_bool(true));
                }
                if self.peek_str("false") && !self.name_continues("false") {
                    self.pos += 5;
                    return Ok(Term::lit_bool(false));
                }
                self.prefixed_name()
            }
            None => Err(self.err("unexpected end of document")),
        }
    }

    fn name_continues(&self, word: &str) -> bool {
        self.bytes
            .get(self.pos + word.len())
            .is_some_and(|c| c.is_ascii_alphanumeric() || *c == b'_' || *c == b':')
    }

    fn iri_ref(&mut self) -> Result<Term, TurtleParseError> {
        self.expect(b'<')?;
        let start = self.pos;
        while self.peek().is_some_and(|c| c != b'>') {
            self.pos += 1;
        }
        if self.at_end() {
            return Err(self.err("unterminated IRI"));
        }
        let iri = self.src[start..self.pos].to_string();
        self.pos += 1;
        Ok(Term::iri(iri))
    }

    fn blank_node(&mut self) -> Result<Term, TurtleParseError> {
        self.expect(b'_')?;
        self.expect(b':')?;
        let start = self.pos;
        while self
            .peek()
            .is_some_and(|c| c.is_ascii_alphanumeric() || c == b'_' || c == b'-')
        {
            self.pos += 1;
        }
        if self.pos == start {
            return Err(self.err("empty blank node label"));
        }
        Ok(Term::bnode(&self.src[start..self.pos]))
    }

    fn prefixed_name(&mut self) -> Result<Term, TurtleParseError> {
        let start = self.pos;
        while self
            .peek()
            .is_some_and(|c| c.is_ascii_alphanumeric() || c == b'_' || c == b'-')
        {
            self.pos += 1;
        }
        if self.peek() != Some(b':') {
            return Err(self.err("expected prefixed name"));
        }
        let prefix = self.src[start..self.pos].to_string();
        self.pos += 1;
        let local_start = self.pos;
        while self
            .peek()
            .is_some_and(|c| c.is_ascii_alphanumeric() || c == b'_' || c == b'-')
        {
            self.pos += 1;
        }
        let local = &self.src[local_start..self.pos];
        let ns = self
            .prefixes
            .get(&prefix)
            .ok_or_else(|| self.err(format!("undeclared prefix {prefix:?}")))?;
        Ok(Term::iri(format!("{ns}{local}")))
    }

    fn number(&mut self) -> Result<Term, TurtleParseError> {
        let start = self.pos;
        if matches!(self.peek(), Some(b'+' | b'-')) {
            self.pos += 1;
        }
        let mut has_dot = false;
        let mut has_exp = false;
        while let Some(c) = self.peek() {
            match c {
                b'0'..=b'9' => self.pos += 1,
                b'.' if !has_dot && !has_exp => {
                    // A '.' followed by a non-digit is the statement dot.
                    if self.bytes.get(self.pos + 1).is_some_and(u8::is_ascii_digit) {
                        has_dot = true;
                        self.pos += 1;
                    } else {
                        break;
                    }
                }
                b'e' | b'E' if !has_exp => {
                    has_exp = true;
                    self.pos += 1;
                    if matches!(self.peek(), Some(b'+' | b'-')) {
                        self.pos += 1;
                    }
                }
                _ => break,
            }
        }
        let lex = &self.src[start..self.pos];
        if crate::numeric::parse_numeric(lex).is_none() {
            return Err(self.err(format!("bad number {lex:?}")));
        }
        let datatype = if has_dot || has_exp {
            crate::term::xsd::DOUBLE
        } else {
            crate::term::xsd::INTEGER
        };
        Ok(Term::lit_typed(lex, datatype))
    }

    /// Read the hex digits of a `\uXXXX` (4) or `\UXXXXXXXX` (8) numeric
    /// escape, positioned just past the `u`/`U`.
    fn unicode_escape(&mut self, digits: usize) -> Result<char, TurtleParseError> {
        let end = self.pos + digits;
        if end > self.src.len() || !self.src.is_char_boundary(end) {
            return Err(self.err("truncated \\u escape"));
        }
        let hex = &self.src[self.pos..end];
        let code = u32::from_str_radix(hex, 16).map_err(|_| self.err("invalid \\u escape"))?;
        self.pos += digits;
        char::from_u32(code)
            .ok_or_else(|| self.err(format!("\\u escape U+{code:04X} is not a character")))
    }

    fn literal(&mut self) -> Result<Term, TurtleParseError> {
        self.expect(b'"')?;
        let mut lex = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated literal")),
                Some(b'"') => {
                    self.pos += 1;
                    break;
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.err("dangling escape"))?;
                    self.pos += 1;
                    lex.push(match esc {
                        b'\\' => '\\',
                        b'"' => '"',
                        b'n' => '\n',
                        b'r' => '\r',
                        b't' => '\t',
                        b'u' => self.unicode_escape(4)?,
                        b'U' => self.unicode_escape(8)?,
                        other => {
                            return Err(self.err(format!("unsupported escape \\{}", other as char)))
                        }
                    });
                }
                Some(_) => {
                    let ch = self.src[self.pos..].chars().next().expect("in bounds");
                    lex.push(ch);
                    self.pos += ch.len_utf8();
                }
            }
        }
        match self.peek() {
            Some(b'^') => {
                self.expect(b'^')?;
                self.expect(b'^')?;
                let dt = match self.peek() {
                    Some(b'<') => self.iri_ref()?,
                    _ => self.prefixed_name()?,
                };
                let Term::Iri(datatype) = dt else {
                    unreachable!()
                };
                Ok(Term::Literal(Literal::Typed {
                    lexical: lex,
                    datatype,
                }))
            }
            Some(b'@') => {
                self.pos += 1;
                let start = self.pos;
                while self
                    .peek()
                    .is_some_and(|c| c.is_ascii_alphanumeric() || c == b'-')
                {
                    self.pos += 1;
                }
                if self.pos == start {
                    return Err(self.err("empty language tag"));
                }
                Ok(Term::Literal(Literal::LangTagged {
                    lexical: lex,
                    lang: self.src[start..self.pos].to_string(),
                }))
            }
            _ => Ok(Term::lit_str(lex)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn control_characters_in_literals_round_trip() {
        let nasty = "Q1.ID\t= Q2.ID\r\nAND\u{C} NAME LIKE '%\\%'";
        let mut g = GraphBuilder::new();
        g.insert(
            Term::iri("http://optimatch/qep#pop4"),
            Term::iri("http://optimatch/pred#hasPredicateText"),
            Term::lit_str(nasty),
        );
        let ttl = to_turtle(&g.build(), &PrefixMap::new());
        assert!(ttl.contains("\\u000C"));
        let g2 = from_turtle(&ttl).unwrap();
        assert!(g2.contains(
            &Term::iri("http://optimatch/qep#pop4"),
            &Term::iri("http://optimatch/pred#hasPredicateText"),
            &Term::lit_str(nasty)
        ));
    }

    #[test]
    fn unicode_escapes_parse_in_both_widths() {
        let ttl = "<a> <b> \"caf\\u00E9 \\U0001F600\" .\n";
        let g = from_turtle(ttl).unwrap();
        assert!(g.contains(
            &Term::iri("a"),
            &Term::iri("b"),
            &Term::lit_str("café \u{1F600}")
        ));
        assert!(from_turtle("<a> <b> \"\\uZZZZ\" .\n").is_err());
        assert!(from_turtle("<a> <b> \"\\uD800\" .\n").is_err());
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
    fn writer_output_parses_back_identically() {
        let g = sample_graph();
        let mut pm = PrefixMap::new();
        pm.add("popURI", "http://optimatch/qep#");
        pm.add("predURI", "http://optimatch/pred#");
        let ttl = to_turtle(&g, &pm);
        let back = from_turtle(&ttl).unwrap();
        assert_eq!(back.len(), g.len());
        for (s, p, o) in g.iter() {
            assert!(back.contains(&s, &p, &o), "missing {s} {p} {o}");
        }
    }

    #[test]
    fn parses_hand_written_turtle() {
        let ttl = r#"
            @prefix ex: <http://example.org/> .
            # a comment
            ex:pop1 a ex:Operator ;
                ex:card 4043.5 , 12 ;
                ex:name "join"@en ;
                ex:cost "19.12"^^ex:double .
            <http://other/x> ex:flag true .
        "#;
        let g = from_turtle(ttl).unwrap();
        assert_eq!(g.len(), 6);
        assert!(g.contains(
            &Term::iri("http://example.org/pop1"),
            &Term::iri("http://www.w3.org/1999/02/22-rdf-syntax-ns#type"),
            &Term::iri("http://example.org/Operator"),
        ));
        assert!(g.contains(
            &Term::iri("http://example.org/pop1"),
            &Term::iri("http://example.org/card"),
            &Term::lit_typed("12", crate::term::xsd::INTEGER),
        ));
        assert!(g.contains(
            &Term::iri("http://other/x"),
            &Term::iri("http://example.org/flag"),
            &Term::lit_bool(true),
        ));
    }

    #[test]
    fn parser_handles_exponent_numbers_and_statement_dots() {
        // `1.9e+06 .` — the trailing dot terminates the statement, the
        // exponent belongs to the number.
        let ttl = "@prefix e: <u:> .\ne:x e:card 1.9e+06 .";
        let g = from_turtle(ttl).unwrap();
        let o = g
            .objects_of(&Term::iri("u:x"), &Term::iri("u:card"))
            .pop()
            .unwrap();
        assert_eq!(o.numeric_value(), Some(1.9e6));
    }

    #[test]
    fn parser_rejects_malformed_documents() {
        for bad in [
            "ex:x ex:y ex:z .",                     // undeclared prefix
            "@prefix e: <u:> .\ne:x e:y",           // missing object + dot
            "@prefix e: <u:> .\ne:x \"lit\" e:z .", // literal predicate
            "@prefix e: <u:> .\ne:x e:y \"open .",  // unterminated literal
            "@prefix e: <u:>\ne:x e:y e:z .",       // prefix decl missing dot
        ] {
            assert!(from_turtle(bad).is_err(), "should reject {bad:?}");
        }
    }
}
