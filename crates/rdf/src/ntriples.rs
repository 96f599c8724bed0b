//! N-Triples serialization and parsing.
//!
//! N-Triples is the line-oriented exchange form we use for persisting and
//! round-trip-testing the graphs OptImatch derives from QEPs. One triple per
//! line, `.`-terminated, with full IRIs.

use std::fmt::Write as _;

use crate::graph::{Graph, GraphBuilder};
use crate::term::{Literal, Term};

/// Errors produced by the N-Triples parser.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line number the error occurred on.
    pub line: usize,
    /// Explanation of what went wrong.
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "N-Triples parse error at line {}: {}",
            self.line, self.message
        )
    }
}

impl std::error::Error for ParseError {}

/// Serialize a graph to an N-Triples string (one triple per line, SPO order).
pub fn to_ntriples(graph: &Graph) -> String {
    let mut out = String::new();
    for (s, p, o) in graph.iter() {
        let _ = writeln!(out, "{s} {p} {o} .");
    }
    out
}

/// Parse an N-Triples document into a fresh graph.
///
/// Supports IRIs, blank nodes, plain / typed / language-tagged literals,
/// `#` comment lines, and blank lines.
pub fn from_ntriples(input: &str) -> Result<Graph, ParseError> {
    let mut graph = GraphBuilder::new();
    for (lineno, raw) in input.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut p = LineParser {
            line: lineno + 1,
            bytes: line.as_bytes(),
            pos: 0,
        };
        let s = p.term()?;
        p.skip_ws();
        let pred = p.term()?;
        p.skip_ws();
        let o = p.term()?;
        p.skip_ws();
        p.expect(b'.')?;
        p.skip_ws();
        if !p.at_end() {
            return Err(p.err("trailing content after '.'"));
        }
        graph.insert(s, pred, o);
    }
    Ok(graph.build())
}

struct LineParser<'a> {
    line: usize,
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> LineParser<'a> {
    fn err(&self, msg: impl Into<String>) -> ParseError {
        ParseError {
            line: self.line,
            message: msg.into(),
        }
    }

    fn at_end(&self) -> bool {
        self.pos >= self.bytes.len()
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ') | Some(b'\t')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected {:?}", b as char)))
        }
    }

    fn term(&mut self) -> Result<Term, ParseError> {
        match self.peek() {
            Some(b'<') => self.iri(),
            Some(b'_') => self.bnode(),
            Some(b'"') => self.literal(),
            Some(c) => Err(self.err(format!("unexpected character {:?}", c as char))),
            None => Err(self.err("unexpected end of line")),
        }
    }

    fn iri(&mut self) -> Result<Term, ParseError> {
        self.expect(b'<')?;
        let start = self.pos;
        while let Some(c) = self.peek() {
            if c == b'>' {
                let iri = std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| self.err("invalid UTF-8 in IRI"))?;
                self.pos += 1;
                return Ok(Term::iri(iri));
            }
            self.pos += 1;
        }
        Err(self.err("unterminated IRI"))
    }

    fn bnode(&mut self) -> Result<Term, ParseError> {
        self.expect(b'_')?;
        self.expect(b':')?;
        let start = self.pos;
        while let Some(c) = self.peek() {
            if c.is_ascii_alphanumeric() || c == b'_' || c == b'-' || c == b'.' {
                self.pos += 1;
            } else {
                break;
            }
        }
        if self.pos == start {
            return Err(self.err("empty blank node label"));
        }
        let label = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid UTF-8 in blank node"))?;
        Ok(Term::bnode(label))
    }

    /// Read the hex digits of a `\uXXXX` (4) or `\UXXXXXXXX` (8) numeric
    /// escape, positioned just past the `u`/`U`.
    fn unicode_escape(&mut self, digits: usize) -> Result<char, ParseError> {
        if self.pos + digits > self.bytes.len() {
            return Err(self.err("truncated \\u escape"));
        }
        let hex = std::str::from_utf8(&self.bytes[self.pos..self.pos + digits])
            .map_err(|_| self.err("invalid \\u escape"))?;
        let code = u32::from_str_radix(hex, 16).map_err(|_| self.err("invalid \\u escape"))?;
        self.pos += digits;
        char::from_u32(code)
            .ok_or_else(|| self.err(format!("\\u escape U+{code:04X} is not a character")))
    }

    fn literal(&mut self) -> Result<Term, ParseError> {
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
                    // Advance one UTF-8 character.
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| self.err("invalid UTF-8 in literal"))?;
                    let ch = rest.chars().next().expect("non-empty");
                    lex.push(ch);
                    self.pos += ch.len_utf8();
                }
            }
        }
        match self.peek() {
            Some(b'^') => {
                self.expect(b'^')?;
                self.expect(b'^')?;
                let dt = self.iri()?;
                let Term::Iri(datatype) = dt else {
                    unreachable!("iri() returns Iri")
                };
                Ok(Term::Literal(Literal::Typed {
                    lexical: lex,
                    datatype,
                }))
            }
            Some(b'@') => {
                self.pos += 1;
                let start = self.pos;
                while let Some(c) = self.peek() {
                    if c.is_ascii_alphanumeric() || c == b'-' {
                        self.pos += 1;
                    } else {
                        break;
                    }
                }
                if self.pos == start {
                    return Err(self.err("empty language tag"));
                }
                let lang = std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| self.err("invalid UTF-8 in language tag"))?
                    .to_string();
                Ok(Term::Literal(Literal::LangTagged { lexical: lex, lang }))
            }
            _ => Ok(Term::lit_str(lex)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn serialize_then_parse_round_trips() {
        let g = sample();
        let text = to_ntriples(&g);
        let g2 = from_ntriples(&text).unwrap();
        assert_eq!(g.len(), g2.len());
        for t in g.iter() {
            assert!(g2.contains(&t.0, &t.1, &t.2), "missing {t:?}");
        }
    }

    #[test]
    fn control_characters_in_literals_round_trip() {
        // Predicate text scraped from plans can carry tabs, CRs,
        // backslashes, and stray control bytes; all must survive a
        // serialize → parse cycle.
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
        let g2 = from_ntriples(&text).unwrap();
        assert!(g2.contains(
            &Term::iri("http://optimatch/qep#pop3"),
            &Term::iri("http://optimatch/pred#hasPredicateText"),
            &Term::lit_str(nasty)
        ));
    }

    #[test]
    fn unicode_escapes_parse_in_both_widths() {
        let text = "<a> <b> \"caf\\u00E9 \\U0001F600\" .\n";
        let g = from_ntriples(text).unwrap();
        assert!(g.contains(
            &Term::iri("a"),
            &Term::iri("b"),
            &Term::lit_str("café \u{1F600}")
        ));
        // Malformed escapes are errors, not silent data.
        assert!(from_ntriples("<a> <b> \"\\u00G9\" .\n").is_err());
        assert!(from_ntriples("<a> <b> \"\\u00\" .\n").is_err());
        // A surrogate code point is not a character.
        assert!(from_ntriples("<a> <b> \"\\uD800\" .\n").is_err());
    }

    #[test]
    fn parses_comments_and_blank_lines() {
        let text = "# header\n\n<a> <b> \"x\" .\n  # indented comment\n<a> <b> \"y\" .\n";
        let g = from_ntriples(text).unwrap();
        assert_eq!(g.len(), 2);
    }

    #[test]
    fn parses_escapes_and_lang_tags() {
        let text = "<a> <b> \"line\\nbreak \\\"q\\\"\" .\n<a> <c> \"plan\"@en-CA .\n";
        let g = from_ntriples(text).unwrap();
        assert!(g.contains(
            &Term::iri("a"),
            &Term::iri("b"),
            &Term::lit_str("line\nbreak \"q\"")
        ));
        assert!(g.contains(
            &Term::iri("a"),
            &Term::iri("c"),
            &Term::Literal(Literal::LangTagged {
                lexical: "plan".into(),
                lang: "en-CA".into()
            })
        ));
    }

    #[test]
    fn parses_typed_literals() {
        let text = "<a> <b> \"42\"^^<http://www.w3.org/2001/XMLSchema#integer> .\n";
        let g = from_ntriples(text).unwrap();
        assert!(g.contains(&Term::iri("a"), &Term::iri("b"), &Term::lit_integer(42)));
    }

    #[test]
    fn rejects_malformed_lines() {
        for bad in [
            "<a> <b> .",            // missing object
            "<a> <b> \"x\"",        // missing dot
            "<a> <b> \"x\" . junk", // trailing content
            "<a <b> \"x\" .",       // unterminated IRI
            "<a> <b> \"x .",        // unterminated literal
            "_: <b> \"x\" .",       // empty bnode label
            "<a> <b> \"x\"@ .",     // empty lang tag
        ] {
            assert!(from_ntriples(bad).is_err(), "should reject {bad:?}");
        }
    }

    #[test]
    fn error_reports_line_number() {
        let err = from_ntriples("<a> <b> \"x\" .\nbroken\n").unwrap_err();
        assert_eq!(err.line, 2);
    }
}
