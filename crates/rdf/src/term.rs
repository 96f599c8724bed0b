//! RDF terms: IRIs, blank nodes, and literals.
//!
//! Terms are ordinary owned values; graphs intern them into dense ids (see
//! [`crate::pool`]) so cloning terms around query pipelines stays cheap in
//! practice (it only happens at the edges: loading and result extraction).

use std::borrow::Cow;
use std::fmt;

use crate::numeric;

/// Well-known XML Schema datatype IRIs used by the OptImatch vocabulary.
pub mod xsd {
    /// `xsd:integer`
    pub const INTEGER: &str = "http://www.w3.org/2001/XMLSchema#integer";
    /// `xsd:decimal`
    pub const DECIMAL: &str = "http://www.w3.org/2001/XMLSchema#decimal";
    /// `xsd:double`
    pub const DOUBLE: &str = "http://www.w3.org/2001/XMLSchema#double";
    /// `xsd:boolean`
    pub const BOOLEAN: &str = "http://www.w3.org/2001/XMLSchema#boolean";
    /// `xsd:string`
    pub const STRING: &str = "http://www.w3.org/2001/XMLSchema#string";
}

/// An RDF literal: a lexical form plus an optional datatype or language tag.
///
/// OptImatch's generated graphs (paper Fig. 2) carry costs and cardinalities
/// as quoted lexical forms (`"4043.0"`); numeric behaviour is recovered at
/// comparison time via [`Literal::numeric_value`].
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Literal {
    /// A plain literal with no datatype, e.g. `"TBSCAN"`.
    Simple(String),
    /// A typed literal, e.g. `"4043.0"^^xsd:double`.
    Typed {
        /// The lexical form.
        lexical: String,
        /// The datatype IRI.
        datatype: String,
    },
    /// A language-tagged string, e.g. `"coût"@fr`. Unused by the OptImatch
    /// vocabulary but supported for RDF completeness.
    LangTagged {
        /// The lexical form.
        lexical: String,
        /// The BCP-47 language tag (lowercased).
        lang: String,
    },
}

impl Literal {
    /// The lexical form of the literal, regardless of datatype.
    pub fn lexical(&self) -> &str {
        match self {
            Literal::Simple(s) => s,
            Literal::Typed { lexical, .. } => lexical,
            Literal::LangTagged { lexical, .. } => lexical,
        }
    }

    /// The datatype IRI if the literal is typed.
    pub fn datatype(&self) -> Option<&str> {
        match self {
            Literal::Typed { datatype, .. } => Some(datatype),
            _ => None,
        }
    }

    /// Attempt to read the literal as a number.
    ///
    /// Returns `Some` when the literal is typed with a numeric XSD datatype,
    /// *or* when it is a plain literal whose lexical form parses as a number
    /// (including exponent notation such as `1.93187e+06`). The latter match
    /// is deliberate: OptImatch's QEP-derived graphs store numbers as plain
    /// quoted strings (paper Fig. 2) and still filter on them numerically
    /// (paper Fig. 6, `FILTER (?internalHandler1 > 100)`).
    pub fn numeric_value(&self) -> Option<f64> {
        match self {
            Literal::LangTagged { .. } => None,
            Literal::Typed { lexical, datatype } => {
                if matches!(datatype.as_str(), xsd::INTEGER | xsd::DECIMAL | xsd::DOUBLE) {
                    numeric::parse_numeric(lexical)
                } else {
                    None
                }
            }
            Literal::Simple(s) => numeric::parse_numeric(s),
        }
    }

    /// Attempt to read the literal as a boolean (`xsd:boolean` or the plain
    /// lexical forms `true` / `false`).
    pub fn boolean_value(&self) -> Option<bool> {
        let lex = match self {
            Literal::Typed { lexical, datatype } if datatype == xsd::BOOLEAN => lexical,
            Literal::Simple(s) => s,
            _ => return None,
        };
        match lex.as_str() {
            "true" | "1" => Some(true),
            "false" | "0" => Some(false),
            _ => None,
        }
    }
}

/// An RDF term: the subject, predicate, or object of a triple.
///
/// The derived `Ord` sorts IRIs before blank nodes before literals, giving
/// graphs a total, deterministic term order for index storage and for
/// `ORDER BY` evaluation in the SPARQL layer.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Term {
    /// An IRI reference, stored without the surrounding angle brackets.
    Iri(String),
    /// A blank node, stored without the `_:` prefix.
    BlankNode(String),
    /// A literal value.
    Literal(Literal),
}

impl Term {
    /// Construct an IRI term.
    pub fn iri(iri: impl Into<String>) -> Term {
        Term::Iri(iri.into())
    }

    /// Construct a blank node with the given label (no `_:` prefix).
    pub fn bnode(label: impl Into<String>) -> Term {
        Term::BlankNode(label.into())
    }

    /// Construct a plain string literal.
    pub fn lit_str(s: impl Into<String>) -> Term {
        Term::Literal(Literal::Simple(s.into()))
    }

    /// Construct an `xsd:integer` literal.
    pub fn lit_integer(v: i64) -> Term {
        Term::Literal(Literal::Typed {
            lexical: v.to_string(),
            datatype: xsd::INTEGER.to_string(),
        })
    }

    /// Construct an `xsd:double` literal. The lexical form uses the shortest
    /// representation that round-trips, matching how the QEP formatter emits
    /// costs.
    pub fn lit_double(v: f64) -> Term {
        Term::Literal(Literal::Typed {
            lexical: numeric::format_double(v),
            datatype: xsd::DOUBLE.to_string(),
        })
    }

    /// Construct an `xsd:boolean` literal.
    pub fn lit_bool(v: bool) -> Term {
        Term::Literal(Literal::Typed {
            lexical: v.to_string(),
            datatype: xsd::BOOLEAN.to_string(),
        })
    }

    /// Construct a typed literal with an explicit datatype IRI.
    pub fn lit_typed(lexical: impl Into<String>, datatype: impl Into<String>) -> Term {
        Term::Literal(Literal::Typed {
            lexical: lexical.into(),
            datatype: datatype.into(),
        })
    }

    /// True when the term is an IRI.
    pub fn is_iri(&self) -> bool {
        matches!(self, Term::Iri(_))
    }

    /// True when the term is a blank node.
    pub fn is_blank(&self) -> bool {
        matches!(self, Term::BlankNode(_))
    }

    /// True when the term is a literal.
    pub fn is_literal(&self) -> bool {
        matches!(self, Term::Literal(_))
    }

    /// The IRI string if the term is an IRI.
    pub fn as_iri(&self) -> Option<&str> {
        match self {
            Term::Iri(i) => Some(i),
            _ => None,
        }
    }

    /// The literal if the term is one.
    pub fn as_literal(&self) -> Option<&Literal> {
        match self {
            Term::Literal(l) => Some(l),
            _ => None,
        }
    }

    /// Numeric view of the term (literals only); see
    /// [`Literal::numeric_value`].
    pub fn numeric_value(&self) -> Option<f64> {
        self.as_literal().and_then(Literal::numeric_value)
    }

    /// A plain-text rendering of the term for user-facing match reports:
    /// IRIs and blank nodes keep their identifiers, literals drop quoting.
    pub fn display_text(&self) -> Cow<'_, str> {
        match self {
            Term::Iri(i) => Cow::Borrowed(i),
            Term::BlankNode(b) => Cow::Owned(format!("_:{b}")),
            Term::Literal(l) => Cow::Borrowed(l.lexical()),
        }
    }
}

/// Escape a string for inclusion inside an N-Triples / Turtle quoted literal.
///
/// Besides the named escapes (`\\ \" \n \r \t`), every remaining C0
/// control character is emitted as a `\uXXXX` numeric escape — predicate
/// text scraped from query plans can legitimately carry form feeds or
/// other control bytes, and emitting them raw would produce N-Triples
/// that parsers reject.
pub fn escape_literal(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04X}", c as u32));
            }
            _ => out.push(c),
        }
    }
    out
}

impl fmt::Display for Literal {
    /// Formats the literal in N-Triples syntax.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Literal::Simple(s) => write!(f, "\"{}\"", escape_literal(s)),
            Literal::Typed { lexical, datatype } => {
                write!(f, "\"{}\"^^<{}>", escape_literal(lexical), datatype)
            }
            Literal::LangTagged { lexical, lang } => {
                write!(f, "\"{}\"@{}", escape_literal(lexical), lang)
            }
        }
    }
}

impl fmt::Display for Term {
    /// Formats the term in N-Triples syntax.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Term::Iri(i) => write!(f, "<{i}>"),
            Term::BlankNode(b) => write!(f, "_:{b}"),
            Term::Literal(l) => write!(f, "{l}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_and_accessors() {
        let t = Term::iri("http://x/a");
        assert!(t.is_iri());
        assert_eq!(t.as_iri(), Some("http://x/a"));
        assert!(!t.is_literal());

        let b = Term::bnode("b0");
        assert!(b.is_blank());
        assert_eq!(b.display_text(), "_:b0");

        let l = Term::lit_str("NLJOIN");
        assert!(l.is_literal());
        assert_eq!(l.display_text(), "NLJOIN");
    }

    #[test]
    fn numeric_value_of_typed_literals() {
        assert_eq!(Term::lit_integer(42).numeric_value(), Some(42.0));
        assert_eq!(Term::lit_double(19.12).numeric_value(), Some(19.12));
        // Non-numeric datatype does not coerce.
        let t = Term::lit_typed("42", xsd::STRING);
        assert_eq!(t.numeric_value(), None);
    }

    #[test]
    fn numeric_value_of_plain_literals_matches_qep_formats() {
        // Both spellings appear in DB2 plans; both must coerce.
        assert_eq!(Term::lit_str("4043.0").numeric_value(), Some(4043.0));
        assert_eq!(
            Term::lit_str("1.93187e+06").numeric_value(),
            Some(1_931_870.0)
        );
        assert_eq!(Term::lit_str("TBSCAN").numeric_value(), None);
    }

    #[test]
    fn boolean_value() {
        assert_eq!(
            Term::lit_bool(true).as_literal().unwrap().boolean_value(),
            Some(true)
        );
        assert_eq!(
            Term::lit_str("false").as_literal().unwrap().boolean_value(),
            Some(false)
        );
        assert_eq!(
            Term::lit_str("maybe").as_literal().unwrap().boolean_value(),
            None
        );
    }

    #[test]
    fn display_is_ntriples_syntax() {
        assert_eq!(Term::iri("http://x/a").to_string(), "<http://x/a>");
        assert_eq!(Term::bnode("n1").to_string(), "_:n1");
        assert_eq!(Term::lit_str("a\"b").to_string(), "\"a\\\"b\"");
        assert_eq!(
            Term::lit_integer(7).to_string(),
            format!("\"7\"^^<{}>", xsd::INTEGER)
        );
        let lang = Term::Literal(Literal::LangTagged {
            lexical: "plan".into(),
            lang: "en".into(),
        });
        assert_eq!(lang.to_string(), "\"plan\"@en");
    }

    /// What the N-Triples and Turtle writers put between a literal's
    /// quotes: the named escapes, `\uXXXX` for every other C0 control
    /// character, and everything else unchanged.
    #[test]
    fn escaping_covers_control_characters() {
        let raw = "a\\b\"c\nd\re\tf\u{0}g\u{B}h\u{1F}i caf\u{E9}";
        let escaped = r#"a\\b\"c\nd\re\tf\u0000g\u000Bh\u001Fi café"#;
        assert_eq!(escape_literal(raw), escaped);
        assert_eq!(Term::lit_str(raw).to_string(), format!("\"{escaped}\""));
        assert_eq!(
            Term::lit_typed(raw, xsd::STRING).to_string(),
            format!("\"{escaped}\"^^<{}>", xsd::STRING)
        );
        let lang = Term::Literal(Literal::LangTagged {
            lexical: raw.into(),
            lang: "fr".into(),
        });
        assert_eq!(lang.to_string(), format!("\"{escaped}\"@fr"));
    }

    #[test]
    fn term_order_sorts_kinds_then_content() {
        let mut terms = vec![
            Term::lit_str("z"),
            Term::bnode("a"),
            Term::iri("http://x/b"),
            Term::iri("http://x/a"),
        ];
        terms.sort();
        assert_eq!(
            terms,
            vec![
                Term::iri("http://x/a"),
                Term::iri("http://x/b"),
                Term::bnode("a"),
                Term::lit_str("z"),
            ]
        );
    }
}
