//! The handler tagging language for recommendation templates (§2.3).
//!
//! KB recommendations are written *before* any user QEP exists, yet must
//! name the user's tables, columns and predicates when returned. The paper
//! solves this with a small language that "surrounds static parts of
//! recommendations with dynamic components generated through aliases by
//! preceding each alias of the handler with @". This module defines the
//! concrete syntax of that language for this reproduction:
//!
//! | Syntax                       | Meaning                                           |
//! |------------------------------|---------------------------------------------------|
//! | `@ALIAS`                     | display of the handler's binding (`TBSCAN (#5)`)  |
//! | `@[A,B]`                     | several handler displays, comma-joined            |
//! | `@table(ALIAS)`              | qualified base-object name                        |
//! | `@columns(ALIAS)`            | base-object columns / op INPUT columns            |
//! | `@columns(ALIAS, PREDICATE)` | columns referenced by the op's predicates         |
//! | `@predicates(ALIAS)`         | the op's predicate texts                          |
//! | `@limit(N)`                  | cap on rendered occurrences (paper: "only the first occurrence") |
//!
//! `@@` escapes a literal `@`. Unknown aliases render as `<unbound:NAME>`
//! rather than failing — a stored recommendation must degrade gracefully
//! when applied to a differently-shaped match.

use optimatch_qep::Qep;

use crate::matcher::{MatchTarget, PatternMatch};

/// A parsed template.
///
/// ```
/// use optimatch_core::tagging::Template;
/// let t = Template::parse("@limit(1)Create index on @table(BASE4).")?;
/// assert_eq!(t.limit, Some(1));
/// # Ok::<(), optimatch_core::tagging::TemplateError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Template {
    segments: Vec<Segment>,
    /// Maximum occurrences to render (`@limit(n)`), if present.
    pub limit: Option<usize>,
}

#[derive(Debug, Clone, PartialEq)]
enum Segment {
    Text(String),
    Alias(String),
    AliasList(Vec<String>),
    Table(String),
    Columns { alias: String, source: ColumnSource },
    Predicates(String),
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum ColumnSource {
    /// Object columns (tables/indexes) or, for operators, the columns of
    /// the base objects feeding them (the paper's `INPUT` keyword).
    Input,
    /// Columns referenced in the operator's applied predicates (the
    /// paper's `PREDICATE` keyword).
    Predicate,
}

/// One alias reference inside a template: a bare `@ALIAS` / `@[A,B]`
/// member (`helper == None`) or a helper-function argument
/// (`helper == Some("table" | "columns" | "predicates")`).
#[derive(Debug, Clone, PartialEq)]
pub struct TagUse {
    /// The referenced alias name.
    pub alias: String,
    /// The helper function it is passed to, when any.
    pub helper: Option<&'static str>,
}

/// Template syntax errors.
#[derive(Debug, Clone, PartialEq)]
pub struct TemplateError {
    /// Byte position of the error.
    pub position: usize,
    /// Explanation.
    pub message: String,
}

impl std::fmt::Display for TemplateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "template error at byte {}: {}",
            self.position, self.message
        )
    }
}

impl std::error::Error for TemplateError {}

impl Template {
    /// Parse a template string.
    pub fn parse(src: &str) -> Result<Template, TemplateError> {
        let bytes = src.as_bytes();
        let mut segments = Vec::new();
        let mut limit = None;
        let mut text = String::new();
        let mut i = 0;
        while i < bytes.len() {
            if bytes[i] != b'@' {
                let ch = src[i..].chars().next().expect("in bounds");
                text.push(ch);
                i += ch.len_utf8();
                continue;
            }
            // '@' …
            if bytes.get(i + 1) == Some(&b'@') {
                text.push('@');
                i += 2;
                continue;
            }
            if !text.is_empty() {
                segments.push(Segment::Text(std::mem::take(&mut text)));
            }
            i += 1;
            if bytes.get(i) == Some(&b'[') {
                // @[A,B]
                let end = src[i..].find(']').ok_or(TemplateError {
                    position: i,
                    message: "unterminated @[...]".into(),
                })? + i;
                let names: Vec<String> = src[i + 1..end]
                    .split(',')
                    .map(|s| s.trim().trim_start_matches('?').to_string())
                    .filter(|s| !s.is_empty())
                    .collect();
                if names.is_empty() {
                    return Err(TemplateError {
                        position: i,
                        message: "empty @[...] list".into(),
                    });
                }
                segments.push(Segment::AliasList(names));
                i = end + 1;
                continue;
            }
            // Identifier (function name or alias). A leading '?' on the
            // alias is tolerated (`@?TOP` ≡ `@TOP`).
            let start = if bytes.get(i) == Some(&b'?') {
                i + 1
            } else {
                i
            };
            let mut j = start;
            while j < bytes.len() && (bytes[j].is_ascii_alphanumeric() || bytes[j] == b'_') {
                j += 1;
            }
            if j == start {
                return Err(TemplateError {
                    position: i,
                    message: "dangling '@'".into(),
                });
            }
            let ident = &src[start..j];
            if bytes.get(j) == Some(&b'(') {
                let end = src[j..].find(')').ok_or(TemplateError {
                    position: j,
                    message: "unterminated function call".into(),
                })? + j;
                let args: Vec<String> = src[j + 1..end]
                    .split(',')
                    .map(|s| s.trim().trim_start_matches('?').to_string())
                    .filter(|s| !s.is_empty())
                    .collect();
                let seg = match (ident, args.as_slice()) {
                    ("limit", [n]) => {
                        limit = Some(n.parse().map_err(|_| TemplateError {
                            position: j,
                            message: format!("bad @limit argument {n:?}"),
                        })?);
                        None
                    }
                    ("table", [alias]) => Some(Segment::Table(alias.clone())),
                    ("columns", [alias]) => Some(Segment::Columns {
                        alias: alias.clone(),
                        source: ColumnSource::Input,
                    }),
                    ("columns", [alias, kw]) => {
                        let source = match kw.to_ascii_uppercase().as_str() {
                            "PREDICATE" => ColumnSource::Predicate,
                            "INPUT" => ColumnSource::Input,
                            other => {
                                return Err(TemplateError {
                                    position: j,
                                    message: format!("unknown @columns source {other:?}"),
                                })
                            }
                        };
                        Some(Segment::Columns {
                            alias: alias.clone(),
                            source,
                        })
                    }
                    ("predicates", [alias]) => Some(Segment::Predicates(alias.clone())),
                    (name, _) => {
                        return Err(TemplateError {
                            position: i,
                            message: format!("unknown function @{name} or wrong argument count"),
                        })
                    }
                };
                if let Some(seg) = seg {
                    segments.push(seg);
                }
                i = end + 1;
            } else {
                segments.push(Segment::Alias(ident.to_string()));
                i = j;
            }
        }
        if !text.is_empty() {
            segments.push(Segment::Text(text));
        }
        Ok(Template { segments, limit })
    }

    /// Every alias reference in the template, in source order — the raw
    /// material for cross-artifact lint checks (a tag naming an alias no
    /// pop defines renders `<unbound:NAME>` at runtime).
    pub fn tag_uses(&self) -> Vec<TagUse> {
        let mut out = Vec::new();
        for seg in &self.segments {
            match seg {
                Segment::Text(_) => {}
                Segment::Alias(a) => out.push(TagUse {
                    alias: a.clone(),
                    helper: None,
                }),
                Segment::AliasList(names) => {
                    for a in names {
                        out.push(TagUse {
                            alias: a.clone(),
                            helper: None,
                        });
                    }
                }
                Segment::Table(a) => out.push(TagUse {
                    alias: a.clone(),
                    helper: Some("table"),
                }),
                Segment::Columns { alias, .. } => out.push(TagUse {
                    alias: alias.clone(),
                    helper: Some("columns"),
                }),
                Segment::Predicates(a) => out.push(TagUse {
                    alias: a.clone(),
                    helper: Some("predicates"),
                }),
            }
        }
        out
    }

    /// Render the template against the matches found in one QEP. Renders
    /// one block per occurrence (capped by `@limit`), deduplicating
    /// identical blocks, joined by newlines.
    pub fn render(&self, matches: &[PatternMatch], qep: &Qep) -> String {
        let cap = self.limit.unwrap_or(usize::MAX);
        let mut blocks: Vec<String> = Vec::new();
        for m in matches.iter().take(cap) {
            let block = self.render_one(m, qep);
            if !blocks.contains(&block) {
                blocks.push(block);
            }
        }
        blocks.join("\n")
    }

    fn render_one(&self, m: &PatternMatch, qep: &Qep) -> String {
        let mut out = String::new();
        for seg in &self.segments {
            match seg {
                Segment::Text(t) => out.push_str(t),
                Segment::Alias(a) => out.push_str(&display_alias(m, a)),
                Segment::AliasList(names) => {
                    let parts: Vec<String> = names.iter().map(|a| display_alias(m, a)).collect();
                    out.push_str(&parts.join(", "));
                }
                Segment::Table(a) => out.push_str(&table_of(m, qep, a)),
                Segment::Columns { alias, source } => {
                    out.push_str(&columns_of(m, qep, alias, *source))
                }
                Segment::Predicates(a) => out.push_str(&predicates_of(m, qep, a)),
            }
        }
        out
    }
}

fn unbound(alias: &str) -> String {
    format!("<unbound:{alias}>")
}

fn display_alias(m: &PatternMatch, alias: &str) -> String {
    m.binding(alias)
        .map(MatchTarget::display)
        .unwrap_or_else(|| unbound(alias))
}

/// The qualified base-object name an alias resolves to: directly for
/// object bindings; via the operator's object inputs for pop bindings.
fn table_of(m: &PatternMatch, qep: &Qep, alias: &str) -> String {
    match m.binding(alias) {
        Some(MatchTarget::Object(name)) => name.clone(),
        Some(MatchTarget::Pop { id, .. }) => {
            let Some(op) = qep.op(*id) else {
                return unbound(alias);
            };
            let objects: Vec<&str> = op
                .inputs
                .iter()
                .filter_map(|s| match &s.source {
                    optimatch_qep::InputSource::Object(name) => Some(name.as_str()),
                    _ => None,
                })
                .collect();
            if objects.is_empty() {
                unbound(alias)
            } else {
                objects.join(", ")
            }
        }
        _ => unbound(alias),
    }
}

fn columns_of(m: &PatternMatch, qep: &Qep, alias: &str, source: ColumnSource) -> String {
    match m.binding(alias) {
        Some(MatchTarget::Object(name)) => qep
            .base_objects
            .get(name)
            .map(|o| o.columns.join(", "))
            .unwrap_or_else(|| unbound(alias)),
        Some(MatchTarget::Pop { id, .. }) => {
            let Some(op) = qep.op(*id) else {
                return unbound(alias);
            };
            match source {
                ColumnSource::Predicate => {
                    let mut cols: Vec<String> =
                        op.predicates.iter().flat_map(|p| p.columns()).collect();
                    cols.dedup();
                    cols.join(", ")
                }
                ColumnSource::Input => {
                    // Columns of the base objects feeding this operator.
                    let mut cols = Vec::new();
                    for s in &op.inputs {
                        if let optimatch_qep::InputSource::Object(name) = &s.source {
                            if let Some(obj) = qep.base_objects.get(name) {
                                cols.extend(obj.columns.iter().cloned());
                            }
                        }
                    }
                    cols.dedup();
                    cols.join(", ")
                }
            }
        }
        _ => unbound(alias),
    }
}

fn predicates_of(m: &PatternMatch, qep: &Qep, alias: &str) -> String {
    match m.binding(alias) {
        Some(MatchTarget::Pop { id, .. }) => qep
            .op(*id)
            .map(|op| {
                op.predicates
                    .iter()
                    .map(|p| p.text.as_str())
                    .collect::<Vec<_>>()
                    .join(" AND ")
            })
            .unwrap_or_else(|| unbound(alias)),
        _ => unbound(alias),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builtin;
    use crate::matcher::Matcher;
    use crate::transform::TransformedQep;
    use optimatch_qep::fixtures;

    fn fig1_match() -> (Vec<PatternMatch>, Qep) {
        let qep = fixtures::fig1();
        let t = TransformedQep::new(qep.clone());
        let m = Matcher::compile(&builtin::pattern_a().pattern).unwrap();
        (
            m.find_traced(&t, &optimatch_sparql::Budget::unlimited(), true)
                .unwrap()
                .0,
            qep,
        )
    }

    #[test]
    fn parses_and_renders_alias() {
        let (matches, qep) = fig1_match();
        let t = Template::parse("Look at @TOP and its inner @BASE4.").unwrap();
        let out = t.render(&matches, &qep);
        assert_eq!(out, "Look at NLJOIN (#2) and its inner BIGD.CUST_DIM.");
    }

    #[test]
    fn renders_paper_index_recommendation() {
        // The paper's example: "Create index on @table(...) on columns
        // coming into the join from the base object".
        let (matches, qep) = fig1_match();
        let t = Template::parse(
            "Create index on @table(BASE4) (@columns(BASE4)) to avoid the inner table scan.",
        )
        .unwrap();
        let out = t.render(&matches, &qep);
        assert_eq!(
            out,
            "Create index on BIGD.CUST_DIM (CUST_ID, CUST_NAME, REGION) \
             to avoid the inner table scan."
        );
    }

    #[test]
    fn predicate_columns_helper() {
        let (matches, qep) = fig1_match();
        let t = Template::parse("CGS on @columns(TOP, PREDICATE).").unwrap();
        let out = t.render(&matches, &qep);
        assert_eq!(out, "CGS on Q2.CUST_ID, Q1.CUST_ID.");
    }

    #[test]
    fn predicates_helper_lists_texts() {
        let (matches, qep) = fig1_match();
        let t = Template::parse("Join predicate: @predicates(TOP)").unwrap();
        assert_eq!(
            t.render(&matches, &qep),
            "Join predicate: (Q2.CUST_ID = Q1.CUST_ID)"
        );
    }

    #[test]
    fn alias_list_and_escape() {
        let (matches, qep) = fig1_match();
        let t = Template::parse("Involved: @[TOP, BASE4] (email admin@@db).").unwrap();
        assert_eq!(
            t.render(&matches, &qep),
            "Involved: NLJOIN (#2), BIGD.CUST_DIM (email admin@db)."
        );
    }

    #[test]
    fn limit_caps_occurrences() {
        let (matches, qep) = fig1_match();
        // Duplicate the match artificially to simulate a common pattern.
        let mut many = matches.clone();
        let mut second = matches[0].clone();
        // Rebind TOP to a different op so blocks differ.
        for b in &mut second.bindings {
            if b.name == "TOP" {
                b.target = crate::matcher::MatchTarget::Pop {
                    id: 3,
                    display: "FETCH".into(),
                };
            }
        }
        many.push(second);
        let unlimited = Template::parse("Fix @TOP.").unwrap();
        assert_eq!(unlimited.render(&many, &qep).lines().count(), 2);
        let limited = Template::parse("@limit(1)Fix @TOP.").unwrap();
        assert_eq!(limited.render(&many, &qep), "Fix NLJOIN (#2).");
    }

    #[test]
    fn identical_occurrences_deduplicate() {
        let (matches, qep) = fig1_match();
        let many = vec![matches[0].clone(), matches[0].clone()];
        let t = Template::parse("Fix @TOP.").unwrap();
        assert_eq!(t.render(&many, &qep), "Fix NLJOIN (#2).");
    }

    #[test]
    fn unbound_aliases_degrade_gracefully() {
        let (matches, qep) = fig1_match();
        let t = Template::parse("Missing @NOPE and @table(NOPE).").unwrap();
        assert_eq!(
            t.render(&matches, &qep),
            "Missing <unbound:NOPE> and <unbound:NOPE>."
        );
    }

    #[test]
    fn question_mark_prefix_tolerated() {
        let (matches, qep) = fig1_match();
        let t = Template::parse("See @?TOP").unwrap();
        assert_eq!(t.render(&matches, &qep), "See NLJOIN (#2)");
    }

    #[test]
    fn tag_uses_report_aliases_and_helpers() {
        let t = Template::parse(
            "@limit(1)Fix @TOP and @[A,B]: @table(TBL), @columns(TBL, PREDICATE), @predicates(IX) admin@@db",
        )
        .unwrap();
        let uses = t.tag_uses();
        let flat: Vec<(&str, Option<&str>)> =
            uses.iter().map(|u| (u.alias.as_str(), u.helper)).collect();
        assert_eq!(
            flat,
            vec![
                ("TOP", None),
                ("A", None),
                ("B", None),
                ("TBL", Some("table")),
                ("TBL", Some("columns")),
                ("IX", Some("predicates")),
            ]
        );
    }

    #[test]
    fn parse_errors() {
        for bad in [
            "dangling @ end",
            "@[unclosed",
            "@[]",
            "@limit(x)",
            "@frobnicate(A)",
        ] {
            assert!(Template::parse(bad).is_err(), "should reject {bad:?}");
        }
    }
}
