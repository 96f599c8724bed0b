//! Static analysis over knowledge-base entries (`kb lint`).
//!
//! OptImatch's value rests on expert-authored patterns compiled through
//! handlers into SPARQL; a pattern that is contradictory, mismatched with
//! its recommendation template, or unsatisfiable by any stored plan
//! silently matches nothing at scan time. This module is the single
//! diagnostics path over all three artifacts of an entry:
//!
//! 1. **Pattern semantics** ([`pattern_issues`]) — the structural checks
//!    behind [`Pattern::validate`] plus contradictory property conditions
//!    (interval reasoning via `optimatch_rdf::numeric`), operator types
//!    and property names unknown to [`crate::vocab`], and pops
//!    unreachable from the anchor through stream/cross edges.
//! 2. **Compiled-query analysis** ([`query_diagnostics`]) — disconnected
//!    BGP components (cartesian products), `FILTER` variables nothing
//!    binds, non-well-designed `OPTIONAL` nesting (Pérez et al.), and a
//!    note for recursive property paths from descendant relationships.
//! 3. **Cross-artifact checks** — template tags referencing aliases no
//!    pop defines, helper functions over value bindings, and (given a
//!    workload) dead-pattern detection through the same required-pattern
//!    probes scans prune with ([`lint_dead_patterns`]).
//!
//! Every diagnostic carries a stable `OL`-prefixed code, a severity, the
//! offending entry/pop, and a suggestion — rendered by `optimatch-lint`
//! in clippy-style text or JSON.

use std::collections::{BTreeMap, BTreeSet};

use serde::Serialize;

use optimatch_rdf::numeric::parse_numeric;
use optimatch_sparql::ast;

use crate::compile::{compile_pattern, is_known_op_type};
use crate::kb::KnowledgeBaseEntry;
use crate::matcher::MatcherCache;
use crate::pattern::{Pattern, PatternError, PropertyCondition, Sign};
use crate::tagging::Template;
use crate::transform::TransformedQep;
use crate::vocab;

/// How bad a diagnostic is. Ordered: `Note < Warning < Error`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize)]
pub enum Severity {
    /// Informational — expected cost or style observations.
    #[serde(rename = "note")]
    Note,
    /// Probably a mistake; `--deny-warnings` promotes these to failures.
    #[serde(rename = "warning")]
    Warning,
    /// The entry cannot work as written.
    #[serde(rename = "error")]
    Error,
}

impl std::fmt::Display for Severity {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Severity::Note => "note",
            Severity::Warning => "warning",
            Severity::Error => "error",
        })
    }
}

/// Which artifact of the entry a diagnostic points at.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum Artifact {
    /// The pattern (pops, conditions, streams).
    #[serde(rename = "pattern")]
    Pattern,
    /// The compiled SPARQL query.
    #[serde(rename = "query")]
    Query,
    /// The recommendation template.
    #[serde(rename = "template")]
    Template,
    /// The knowledge base as a whole (entry-level problems).
    #[serde(rename = "kb")]
    Kb,
}

/// One finding, in clippy style: stable code, severity, location,
/// message, and a suggestion where one exists.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Diagnostic {
    /// Stable diagnostic code (`OL007`).
    pub code: String,
    /// Severity class.
    pub severity: Severity,
    /// The KB entry (or bare pattern name) the finding is about.
    pub entry: String,
    /// The artifact within the entry.
    pub artifact: Artifact,
    /// The offending pop id, when the finding is pop-specific.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub pop: Option<u32>,
    /// What is wrong.
    pub message: String,
    /// How to fix it, when a concrete fix is known.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub suggestion: Option<String>,
}

impl Diagnostic {
    fn new(
        code: &str,
        severity: Severity,
        entry: &str,
        artifact: Artifact,
        pop: Option<u32>,
        message: String,
        suggestion: Option<String>,
    ) -> Diagnostic {
        Diagnostic {
            code: code.to_string(),
            severity,
            entry: entry.to_string(),
            artifact,
            pop,
            message,
            suggestion,
        }
    }
}

/// A pattern-level finding, structured so [`Pattern::validate`] and the
/// linter share exactly one implementation of every check.
#[derive(Debug, Clone, PartialEq)]
pub enum PatternIssue {
    /// `OL001` — the pattern has no pops.
    Empty,
    /// `OL002` — two pops share an id.
    DuplicatePopId(u32),
    /// `OL003` — a stream or cross condition references a pop id that
    /// does not exist.
    UnknownTarget {
        /// The referencing pop.
        from: u32,
        /// The missing id.
        to: u32,
    },
    /// `OL004` — a stream connects a pop to itself.
    SelfReference(u32),
    /// `OL005` — an alias is declared twice.
    DuplicateAlias {
        /// The pop redeclaring it.
        pop: u32,
        /// The alias.
        alias: String,
    },
    /// `OL006` — an operator type the compiler has no handler for.
    UnknownOpType {
        /// The offending pop.
        pop: u32,
        /// The unrecognized type string.
        op_type: String,
    },
    /// `OL007` — two conditions on one pop's property that no value can
    /// satisfy simultaneously (`CARDINALITY > 1e6` ∧ `< 10`).
    Contradiction {
        /// The offending pop.
        pop: u32,
        /// The property both conditions constrain.
        property: String,
        /// The first condition, rendered (`> 1000000`).
        left: String,
        /// The second condition, rendered (`< 10`).
        right: String,
    },
    /// `OL008` — a property is both required (by a condition) and listed
    /// in `absent_properties` on the same pop.
    RequiredAndAbsent {
        /// The offending pop.
        pop: u32,
        /// The property.
        property: String,
    },
    /// `OL010` — a property name the RDF transform never emits.
    UnknownProperty {
        /// The pop whose condition names it.
        pop: u32,
        /// The unknown local name.
        property: String,
    },
    /// `OL011` — a pop not connected to the anchor (first) pop through
    /// any stream or cross-condition edge: its constraints combine with
    /// the rest of the pattern as a cartesian product.
    UnreachablePop {
        /// The unreachable pop.
        pop: u32,
        /// The anchor it cannot reach.
        anchor: u32,
    },
}

impl PatternIssue {
    /// The stable diagnostic code.
    pub fn code(&self) -> &'static str {
        match self {
            PatternIssue::Empty => "OL001",
            PatternIssue::DuplicatePopId(_) => "OL002",
            PatternIssue::UnknownTarget { .. } => "OL003",
            PatternIssue::SelfReference(_) => "OL004",
            PatternIssue::DuplicateAlias { .. } => "OL005",
            PatternIssue::UnknownOpType { .. } => "OL006",
            PatternIssue::Contradiction { .. } => "OL007",
            PatternIssue::RequiredAndAbsent { .. } => "OL008",
            PatternIssue::UnknownProperty { .. } => "OL010",
            PatternIssue::UnreachablePop { .. } => "OL011",
        }
    }

    /// The severity class.
    pub fn severity(&self) -> Severity {
        match self {
            PatternIssue::UnknownProperty { .. } | PatternIssue::UnreachablePop { .. } => {
                Severity::Warning
            }
            _ => Severity::Error,
        }
    }

    /// The equivalent [`PatternError`], for error-severity issues —
    /// what [`Pattern::validate`] surfaces.
    pub fn as_pattern_error(&self) -> Option<PatternError> {
        match self {
            PatternIssue::Empty => Some(PatternError::Empty),
            PatternIssue::DuplicatePopId(id) => Some(PatternError::DuplicatePopId(*id)),
            PatternIssue::UnknownTarget { from, to } => Some(PatternError::UnknownStreamTarget {
                from: *from,
                to: *to,
            }),
            PatternIssue::SelfReference(id) => Some(PatternError::SelfReference(*id)),
            PatternIssue::DuplicateAlias { alias, .. } => {
                Some(PatternError::DuplicateAlias(alias.clone()))
            }
            PatternIssue::UnknownOpType { pop, op_type } => Some(PatternError::UnknownOpType {
                pop: *pop,
                op_type: op_type.clone(),
            }),
            PatternIssue::Contradiction { pop, property, .. } => {
                Some(PatternError::Contradiction {
                    pop: *pop,
                    property: property.clone(),
                })
            }
            PatternIssue::RequiredAndAbsent { pop, property } => {
                Some(PatternError::RequiredAndAbsent {
                    pop: *pop,
                    property: property.clone(),
                })
            }
            PatternIssue::UnknownProperty { .. } | PatternIssue::UnreachablePop { .. } => None,
        }
    }

    fn pop(&self) -> Option<u32> {
        match self {
            PatternIssue::Empty => None,
            PatternIssue::DuplicatePopId(id) | PatternIssue::SelfReference(id) => Some(*id),
            PatternIssue::UnknownTarget { from, .. } => Some(*from),
            PatternIssue::DuplicateAlias { pop, .. }
            | PatternIssue::UnknownOpType { pop, .. }
            | PatternIssue::Contradiction { pop, .. }
            | PatternIssue::RequiredAndAbsent { pop, .. }
            | PatternIssue::UnknownProperty { pop, .. }
            | PatternIssue::UnreachablePop { pop, .. } => Some(*pop),
        }
    }

    fn message(&self) -> String {
        match self {
            PatternIssue::Empty => "pattern has no pops".into(),
            PatternIssue::DuplicatePopId(id) => format!("duplicate pop id {id}"),
            PatternIssue::UnknownTarget { from, to } => {
                format!("pop {from} references unknown pop {to}")
            }
            PatternIssue::SelfReference(id) => format!("pop {id} streams to itself"),
            PatternIssue::DuplicateAlias { alias, .. } => {
                format!("alias {alias:?} is declared twice")
            }
            PatternIssue::UnknownOpType { op_type, .. } => {
                format!("operator type {op_type:?} is not recognized")
            }
            PatternIssue::Contradiction {
                property,
                left,
                right,
                ..
            } => format!(
                "contradictory conditions on `{property}`: `{left}` conflicts with `{right}` — \
                 no value satisfies both, so the pattern can never match"
            ),
            PatternIssue::RequiredAndAbsent { property, .. } => format!(
                "`{property}` is both required by a condition and listed as absent — \
                 the pattern can never match"
            ),
            PatternIssue::UnknownProperty { property, .. } => format!(
                "property `{property}` is not part of the transform vocabulary; \
                 the condition can never bind"
            ),
            PatternIssue::UnreachablePop { pop, anchor } => format!(
                "pop {pop} is not connected to the anchor pop {anchor} by any stream or \
                 cross condition; its constraints multiply with the rest of the pattern"
            ),
        }
    }

    fn suggestion(&self) -> Option<String> {
        match self {
            PatternIssue::Empty => Some("add at least one pop to the pattern".into()),
            PatternIssue::DuplicatePopId(_) => Some("give every pop a distinct id".into()),
            PatternIssue::UnknownTarget { to, .. } => {
                Some(format!("add a pop with id {to} or fix the reference"))
            }
            PatternIssue::SelfReference(_) => Some("point the stream at a different pop".into()),
            PatternIssue::DuplicateAlias { .. } => {
                Some("rename one of the declarations; aliases are projection names".into())
            }
            PatternIssue::UnknownOpType { .. } => Some(
                "use an exact mnemonic (NLJOIN, TBSCAN, …), a class (JOIN, SCAN), \
                 ANY, or BASE OB"
                    .into(),
            ),
            PatternIssue::Contradiction { .. } => {
                Some("relax or remove one of the two conditions".into())
            }
            PatternIssue::RequiredAndAbsent { property, .. } => Some(format!(
                "drop `{property}` from absent_properties or from the conditions"
            )),
            PatternIssue::UnknownProperty { property, .. } => {
                nearest_property(property).map(|n| format!("did you mean `{n}`?"))
            }
            PatternIssue::UnreachablePop { pop, .. } => Some(format!(
                "add a stream relationship or cross condition connecting pop {pop}"
            )),
        }
    }

    /// Convert into a [`Diagnostic`] attributed to `entry`.
    pub fn into_diagnostic(self, entry: &str) -> Diagnostic {
        Diagnostic::new(
            self.code(),
            self.severity(),
            entry,
            Artifact::Pattern,
            self.pop(),
            self.message(),
            self.suggestion(),
        )
    }
}

/// The closest vocabulary name by edit distance, for "did you mean"
/// suggestions — only offered when the distance is small relative to the
/// name (a genuinely novel name gets no suggestion).
fn nearest_property(property: &str) -> Option<&'static str> {
    vocab::names::ALL
        .iter()
        .map(|n| (edit_distance(property, n), *n))
        .min()
        .filter(|(d, _)| *d * 4 <= property.len().max(4))
        .map(|(_, n)| n)
}

fn edit_distance(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    for (i, ca) in a.iter().enumerate() {
        let mut row = vec![i + 1];
        for (j, cb) in b.iter().enumerate() {
            let sub = prev[j] + usize::from(ca != cb);
            row.push(sub.min(prev[j + 1] + 1).min(row[j] + 1));
        }
        prev = row;
    }
    prev[b.len()]
}

/// Run every pattern-level check, in a stable order: structural errors
/// first (the order [`Pattern::validate`] has always reported them in),
/// then semantic errors, then warnings.
pub fn pattern_issues(pattern: &Pattern) -> Vec<PatternIssue> {
    let mut out = Vec::new();
    if pattern.pops.is_empty() {
        out.push(PatternIssue::Empty);
        return out;
    }

    // Structural pass 1: duplicate ids and aliases.
    let mut ids = BTreeSet::new();
    let mut aliases = BTreeSet::new();
    for pop in &pattern.pops {
        if !ids.insert(pop.id) {
            out.push(PatternIssue::DuplicatePopId(pop.id));
        }
        let declared = pop
            .alias
            .iter()
            .chain(pop.optional_properties.iter().map(|o| &o.alias));
        for alias in declared {
            if !aliases.insert(alias.clone()) {
                out.push(PatternIssue::DuplicateAlias {
                    pop: pop.id,
                    alias: alias.clone(),
                });
            }
        }
    }

    // Structural pass 2: stream and cross-condition references.
    for pop in &pattern.pops {
        for s in &pop.streams {
            if s.target == pop.id {
                out.push(PatternIssue::SelfReference(pop.id));
            } else if !ids.contains(&s.target) {
                out.push(PatternIssue::UnknownTarget {
                    from: pop.id,
                    to: s.target,
                });
            }
        }
        for c in &pop.cross_conditions {
            if !ids.contains(&c.other) {
                out.push(PatternIssue::UnknownTarget {
                    from: pop.id,
                    to: c.other,
                });
            }
        }
    }

    // Semantic errors: unknown types, contradictions, required ∧ absent.
    let absent_by_pop: BTreeMap<u32, &[String]> = pattern
        .pops
        .iter()
        .map(|p| (p.id, p.absent_properties.as_slice()))
        .collect();
    for pop in &pattern.pops {
        if !is_known_op_type(&pop.op_type) {
            out.push(PatternIssue::UnknownOpType {
                pop: pop.id,
                op_type: pop.op_type.clone(),
            });
        }
        for (i, a) in pop.properties.iter().enumerate() {
            for b in &pop.properties[i + 1..] {
                if a.property == b.property
                    && !vocab::is_multi_valued(&a.property)
                    && conditions_conflict(a, b)
                {
                    out.push(PatternIssue::Contradiction {
                        pop: pop.id,
                        property: a.property.clone(),
                        left: format!("{} {}", a.sign.sparql(), a.value),
                        right: format!("{} {}", b.sign.sparql(), b.value),
                    });
                }
            }
        }
        for absent in &pop.absent_properties {
            let required = pop.properties.iter().any(|c| &c.property == absent)
                || pop.cross_conditions.iter().any(|c| &c.property == absent);
            if required {
                out.push(PatternIssue::RequiredAndAbsent {
                    pop: pop.id,
                    property: absent.clone(),
                });
            }
        }
        // A cross condition also requires the *other* pop's property.
        for c in &pop.cross_conditions {
            if absent_by_pop
                .get(&c.other)
                .is_some_and(|a| a.contains(&c.other_property))
            {
                out.push(PatternIssue::RequiredAndAbsent {
                    pop: c.other,
                    property: c.other_property.clone(),
                });
            }
        }
    }

    // Warnings: unknown properties, unreachable pops.
    let mut reported_props = BTreeSet::new();
    for pop in &pattern.pops {
        let conds = pop.properties.iter().map(|c| c.property.as_str());
        let opts = pop.optional_properties.iter().map(|o| o.property.as_str());
        let absent = pop.absent_properties.iter().map(String::as_str);
        let cross = pop.cross_conditions.iter().map(|c| c.property.as_str());
        for property in conds.chain(opts).chain(absent).chain(cross) {
            if !vocab::is_known_property(property)
                && reported_props.insert((pop.id, property.to_string()))
            {
                out.push(PatternIssue::UnknownProperty {
                    pop: pop.id,
                    property: property.to_string(),
                });
            }
        }
        for c in &pop.cross_conditions {
            if !vocab::is_known_property(&c.other_property)
                && reported_props.insert((c.other, c.other_property.clone()))
            {
                out.push(PatternIssue::UnknownProperty {
                    pop: c.other,
                    property: c.other_property.clone(),
                });
            }
        }
    }
    let anchor = pattern.pops[0].id;
    for pop in unreachable_pops(pattern, anchor) {
        out.push(PatternIssue::UnreachablePop { pop, anchor });
    }
    out
}

/// Pops not reachable from `anchor` through stream or cross-condition
/// edges, treated as undirected.
fn unreachable_pops(pattern: &Pattern, anchor: u32) -> Vec<u32> {
    let mut adjacency: BTreeMap<u32, Vec<u32>> = BTreeMap::new();
    let edge = |a: u32, b: u32, adjacency: &mut BTreeMap<u32, Vec<u32>>| {
        adjacency.entry(a).or_default().push(b);
        adjacency.entry(b).or_default().push(a);
    };
    for pop in &pattern.pops {
        for s in &pop.streams {
            edge(pop.id, s.target, &mut adjacency);
        }
        for c in &pop.cross_conditions {
            edge(pop.id, c.other, &mut adjacency);
        }
    }
    let mut visited = BTreeSet::from([anchor]);
    let mut queue = vec![anchor];
    while let Some(id) = queue.pop() {
        for &next in adjacency.get(&id).into_iter().flatten() {
            if visited.insert(next) {
                queue.push(next);
            }
        }
    }
    pattern
        .pops
        .iter()
        .map(|p| p.id)
        .filter(|id| !visited.contains(id))
        .collect()
}

/// True when no single value can satisfy both conditions.
fn conditions_conflict(a: &PropertyCondition, b: &PropertyCondition) -> bool {
    match (parse_numeric(&a.value), parse_numeric(&b.value)) {
        (Some(x), Some(y)) => numeric_unsat(a.sign, x, b.sign, y),
        // At least one side is a plain string: only equality reasoning
        // is sound (inequalities over strings depend on engine coercion).
        _ => match (a.sign, b.sign) {
            (Sign::Eq, Sign::Eq) => a.value != b.value,
            (Sign::Eq, Sign::Ne) | (Sign::Ne, Sign::Eq) => a.value == b.value,
            _ => false,
        },
    }
}

/// `x ⟨s1⟩ a ∧ x ⟨s2⟩ b` unsatisfiable over the reals?
fn numeric_unsat(s1: Sign, a: f64, s2: Sign, b: f64) -> bool {
    use Sign::{Eq, Ge, Gt, Le, Lt, Ne};
    match (s1, s2) {
        (Eq, Eq) => a != b,
        (Eq, Ne) => a == b,
        (Eq, Gt) => a <= b,
        (Eq, Ge) => a < b,
        (Eq, Lt) => a >= b,
        (Eq, Le) => a > b,
        (_, Eq) => numeric_unsat(s2, b, s1, a),
        // `!= b` plus any one-sided bound always leaves values.
        (Ne, _) | (_, Ne) => false,
        // A lower bound against an upper bound: empty when they cross.
        (Gt, Lt) | (Gt, Le) | (Ge, Lt) => b <= a,
        (Ge, Le) => b < a,
        (Lt, Gt) | (Le, Gt) | (Lt, Ge) => a <= b,
        (Le, Ge) => a < b,
        // Two bounds in the same direction are always satisfiable.
        (Gt | Ge, Gt | Ge) | (Lt | Le, Lt | Le) => false,
    }
}

/// Collect every triple pattern in the group, including those inside
/// `OPTIONAL` blocks, `UNION` arms, and nested groups.
fn all_triples<'a>(g: &'a ast::GroupGraphPattern, out: &mut Vec<&'a ast::TriplePattern>) {
    for element in &g.elements {
        match element {
            ast::PatternElement::Triple(t) => out.push(t),
            ast::PatternElement::Group(inner) | ast::PatternElement::Optional(inner) => {
                all_triples(inner, out)
            }
            ast::PatternElement::Union(a, b) => {
                all_triples(a, out);
                all_triples(b, out);
            }
            ast::PatternElement::Filter(_) | ast::PatternElement::Bind(_, _) => {}
        }
    }
}

/// Static checks over a compiled (or hand-written) SPARQL query.
pub fn query_diagnostics(entry: &str, query: &ast::Query) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let w = &query.where_clause;
    let required = w.required_triples();
    let bound = w.bound_vars();
    let filters = w.filters();

    // OL101 — disconnected required components (a cartesian product).
    // Variables co-occurring in a required triple are joined; a FILTER
    // referencing variables from two groups correlates them, so its
    // variables are joined too.
    let mut components = Components::default();
    for t in &required {
        components.join_all(&t.vars());
    }
    for f in &filters {
        let mut vars = Vec::new();
        f.collect_vars(&mut vars);
        components.join_all(&vars);
    }
    let groups = components.count(required.iter().flat_map(|t| t.vars()));
    if groups > 1 {
        out.push(Diagnostic::new(
            "OL101",
            Severity::Warning,
            entry,
            Artifact::Query,
            None,
            format!(
                "the query's required triples form {groups} disconnected groups — \
                 solutions are a cartesian product across them"
            ),
            Some("connect the groups with a shared variable, stream, or comparison".into()),
        ));
    }

    // OL102 — FILTER references a variable nothing can bind.
    let mut reported = BTreeSet::new();
    for f in &filters {
        let mut vars = Vec::new();
        f.collect_vars(&mut vars);
        for v in vars {
            if !bound.contains(v) && reported.insert(v.to_string()) {
                out.push(Diagnostic::new(
                    "OL102",
                    Severity::Warning,
                    entry,
                    Artifact::Query,
                    None,
                    format!("?{v} is referenced in a FILTER but never bound by any pattern"),
                    Some(format!(
                        "bind ?{v} with a triple pattern or remove the filter"
                    )),
                ));
            }
        }
    }

    // OL103 — non-well-designed OPTIONAL nesting (Pérez et al.): two
    // sibling OPTIONAL blocks sharing a variable the required part of
    // their group does not bind. Evaluation order then changes results.
    check_optionals(entry, w, &mut out);

    // OL104 — recursive property paths (descendant relationships) whose
    // closure frontier the planner estimates as wide. A plain `p+` walks
    // one predicate per hop (frontier estimate 1) and stays cheap under
    // the planner's direction guidance, so it is no longer flagged; an
    // alternative-of-predicates closure like `(a|b|c)+` multiplies the
    // frontier per hop and still earns the note.
    let mut triples = Vec::new();
    all_triples(w, &mut triples);
    const FRONTIER_THRESHOLD: u64 = 2;
    let frontiers: Vec<u64> = triples
        .iter()
        .filter(|t| t.path.is_recursive())
        .map(|t| optimatch_sparql::plan::recursive_frontier_estimate(&t.path))
        .filter(|&f| f >= FRONTIER_THRESHOLD)
        .collect();
    if let Some(widest) = frontiers.iter().max() {
        out.push(Diagnostic::new(
            "OL104",
            Severity::Note,
            entry,
            Artifact::Query,
            None,
            format!(
                "{} recursive property path(s) with an estimated closure frontier of \
                 {widest} branch(es) per hop (threshold {FRONTIER_THRESHOLD}): expect \
                 ~2x evaluation cost (paper Figure 9)",
                frontiers.len()
            ),
            Some(
                "use Immediate Child relationships where the shape allows it; when scanning, \
                 a runtime budget (`ScanOptions::fuel` / `scan --fuel`) bounds the worst case"
                    .into(),
            ),
        ));
    }
    out
}

fn check_optionals(entry: &str, g: &ast::GroupGraphPattern, out: &mut Vec<Diagnostic>) {
    let certain: BTreeSet<String> = g
        .required_triples()
        .iter()
        .flat_map(|t| t.vars().into_iter().map(String::from))
        .collect();
    let optional_vars: Vec<BTreeSet<String>> = g
        .elements
        .iter()
        .filter_map(|e| match e {
            ast::PatternElement::Optional(inner) => Some(inner.bound_vars()),
            _ => None,
        })
        .collect();
    let mut reported = BTreeSet::new();
    for (i, a) in optional_vars.iter().enumerate() {
        for b in &optional_vars[i + 1..] {
            for v in a.intersection(b) {
                if !certain.contains(v) && reported.insert(v.clone()) {
                    out.push(Diagnostic::new(
                        "OL103",
                        Severity::Warning,
                        entry,
                        Artifact::Query,
                        None,
                        format!(
                            "?{v} is shared by two OPTIONAL blocks but not bound by the \
                             required part — the query is not well-designed and its \
                             results depend on evaluation order"
                        ),
                        Some(format!("bind ?{v} in the required part, or rename it")),
                    ));
                }
            }
        }
    }
    for e in &g.elements {
        match e {
            ast::PatternElement::Optional(inner) | ast::PatternElement::Group(inner) => {
                check_optionals(entry, inner, out)
            }
            ast::PatternElement::Union(a, b) => {
                check_optionals(entry, a, out);
                check_optionals(entry, b, out);
            }
            _ => {}
        }
    }
}

/// Union-find over variable names, for connectivity analysis.
#[derive(Default)]
struct Components {
    index: BTreeMap<String, usize>,
    parent: Vec<usize>,
}

impl Components {
    fn id(&mut self, var: &str) -> usize {
        if let Some(&i) = self.index.get(var) {
            return i;
        }
        let i = self.parent.len();
        self.parent.push(i);
        self.index.insert(var.to_string(), i);
        i
    }

    fn root(&mut self, mut i: usize) -> usize {
        while self.parent[i] != i {
            self.parent[i] = self.parent[self.parent[i]];
            i = self.parent[i];
        }
        i
    }

    fn join_all(&mut self, vars: &[&str]) {
        let Some(first) = vars.first() else { return };
        let a = self.id(first);
        let a = self.root(a);
        for v in &vars[1..] {
            let b = self.id(v);
            let b = self.root(b);
            self.parent[b] = a;
        }
    }

    /// Distinct components among `vars`.
    fn count<'a>(&mut self, vars: impl IntoIterator<Item = &'a str>) -> usize {
        let mut roots = BTreeSet::new();
        for v in vars {
            let i = self.id(v);
            let r = self.root(i);
            roots.insert(r);
        }
        roots.len()
    }
}

/// Cross-artifact checks between a pattern and its recommendation
/// template, plus template syntax itself.
fn template_diagnostics(entry: &KnowledgeBaseEntry) -> Vec<Diagnostic> {
    let template = match Template::parse(&entry.recommendation) {
        Ok(t) => t,
        Err(e) => {
            return vec![Diagnostic::new(
                "OL200",
                Severity::Error,
                &entry.name,
                Artifact::Template,
                None,
                format!("recommendation template does not parse: {e}"),
                None,
            )]
        }
    };

    // The names the projection actually produces: pop aliases (or `popN`
    // names when the pattern aliases nothing) plus optional-property
    // value aliases.
    let pops = &entry.pattern.pops;
    let any_alias = pops.iter().any(|p| p.alias.is_some());
    let mut handler_aliases = BTreeSet::new();
    let mut value_aliases = BTreeSet::new();
    for p in pops {
        if let Some(a) = &p.alias {
            handler_aliases.insert(a.clone());
        } else if !any_alias {
            handler_aliases.insert(format!("pop{}", p.id));
        }
        for o in &p.optional_properties {
            value_aliases.insert(o.alias.clone());
        }
    }

    let mut out = Vec::new();
    let mut reported = BTreeSet::new();
    for tag in template.tag_uses() {
        if !handler_aliases.contains(&tag.alias) && !value_aliases.contains(&tag.alias) {
            if reported.insert(tag.alias.clone()) {
                let mut defined: Vec<&str> = handler_aliases
                    .iter()
                    .chain(value_aliases.iter())
                    .map(String::as_str)
                    .collect();
                defined.sort_unstable();
                out.push(Diagnostic::new(
                    "OL201",
                    Severity::Error,
                    &entry.name,
                    Artifact::Template,
                    None,
                    format!(
                        "template references alias @{} which no pop defines — it will \
                         render as `<unbound:{}>`",
                        tag.alias, tag.alias
                    ),
                    Some(format!("defined aliases: {}", defined.join(", "))),
                ));
            }
        } else if let Some(helper) = tag.helper {
            if value_aliases.contains(&tag.alias) && !handler_aliases.contains(&tag.alias) {
                out.push(Diagnostic::new(
                    "OL202",
                    Severity::Warning,
                    &entry.name,
                    Artifact::Template,
                    None,
                    format!(
                        "@{helper}({}) expects an operator or base-object alias, but \
                         `{}` binds a property value — it will render as \
                         `<unbound:{}>`",
                        tag.alias, tag.alias, tag.alias
                    ),
                    Some(format!("use @{} to render the value directly", tag.alias)),
                ));
            }
        }
    }
    out
}

/// Lint one entry across all three layers.
pub fn lint_entry(entry: &KnowledgeBaseEntry) -> Vec<Diagnostic> {
    let issues = pattern_issues(&entry.pattern);
    let blocked = issues.iter().any(|i| i.severity() == Severity::Error);
    let mut out: Vec<Diagnostic> = issues
        .into_iter()
        .map(|i| i.into_diagnostic(&entry.name))
        .collect();
    if !blocked {
        // The pattern validates, so it compiles; analyze the query form.
        match compile_pattern(&entry.pattern)
            .map_err(|e| e.to_string())
            .and_then(|s| optimatch_sparql::parse_query(&s).map_err(|e| e.to_string()))
        {
            Ok(query) => out.extend(query_diagnostics(&entry.name, &query)),
            Err(message) => out.push(Diagnostic::new(
                "OL100",
                Severity::Error,
                &entry.name,
                Artifact::Query,
                None,
                format!("generated SPARQL failed to compile or parse: {message}"),
                None,
            )),
        }
    }
    out.extend(template_diagnostics(entry));
    out
}

/// Lint a whole set of entries (a knowledge base that may not even load,
/// since loading compiles eagerly and rejects broken patterns).
pub fn lint_entries(entries: &[KnowledgeBaseEntry]) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let mut names = BTreeSet::new();
    for entry in entries {
        if !names.insert(entry.name.as_str()) {
            out.push(Diagnostic::new(
                "OL009",
                Severity::Error,
                &entry.name,
                Artifact::Kb,
                None,
                format!("duplicate entry name {:?}", entry.name),
                Some("entry names are the KB key; rename one of them".into()),
            ));
        }
        out.extend(lint_entry(entry));
    }
    out
}

/// Dead-pattern detection against a stored workload: an entry with a
/// required triple pattern that no QEP graph has a matching triple for
/// ([`crate::Matcher::could_match`] is false everywhere) can never match.
/// It is the same test scan-time pruning applies, so this is exact with
/// respect to what a scan would evaluate.
pub fn lint_dead_patterns(
    entries: &[KnowledgeBaseEntry],
    workload: &[TransformedQep],
) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    if workload.is_empty() {
        return out;
    }
    let cache = MatcherCache::default();
    for entry in entries {
        let Ok(matcher) = cache.get_or_compile(&entry.pattern) else {
            // The pattern doesn't compile; lint_entry already said so.
            continue;
        };
        if !workload.iter().any(|t| matcher.could_match(t)) {
            out.push(Diagnostic::new(
                "OL203",
                Severity::Error,
                &entry.name,
                Artifact::Pattern,
                None,
                format!(
                    "dead pattern: in each of the {} stored QEP(s), one of its required \
                     triple patterns has no matching triple (every scan would prune it)",
                    workload.len()
                ),
                Some(
                    "check the operator types and property names against what the \
                     workload actually contains"
                        .into(),
                ),
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builtin;
    use crate::pattern::{PatternPop, Relationship, StreamKindSpec};
    use crate::vocab::names;

    fn codes(diags: &[Diagnostic]) -> Vec<&str> {
        diags.iter().map(|d| d.code.as_str()).collect()
    }

    #[test]
    fn every_builtin_entry_lints_clean() {
        let mut entries = builtin::extended_entries();
        entries.extend(builtin::synthetic_kb(20).entries().iter().cloned());
        for entry in &entries {
            let diags = lint_entry(entry);
            let worst = diags.iter().map(|d| d.severity).max();
            assert!(
                worst.is_none() || worst == Some(Severity::Note),
                "{}: {diags:?}",
                entry.name
            );
        }
    }

    #[test]
    fn recursive_builtin_patterns_get_the_cost_note() {
        let diags = lint_entry(&builtin::pattern_b());
        assert_eq!(codes(&diags), vec!["OL104"]);
        assert!(lint_entry(&builtin::pattern_a()).is_empty());
    }

    #[test]
    fn contradiction_detection_matrix() {
        use Sign::*;
        let unsat = [
            (Gt, "1000000", Lt, "10"),
            (Gt, "5", Le, "5"),
            (Ge, "6", Le, "5"),
            (Eq, "3", Ne, "3"),
            (Eq, "3", Eq, "4"),
            (Eq, "10", Gt, "10"),
            (Lt, "1", Ge, "2"),
        ];
        for (s1, v1, s2, v2) in unsat {
            let c1 = PropertyCondition {
                property: names::HAS_ESTIMATE_CARDINALITY.into(),
                sign: s1,
                value: v1.into(),
            };
            let c2 = PropertyCondition {
                property: names::HAS_ESTIMATE_CARDINALITY.into(),
                sign: s2,
                value: v2.into(),
            };
            assert!(conditions_conflict(&c1, &c2), "{s1:?} {v1} vs {s2:?} {v2}");
            assert!(conditions_conflict(&c2, &c1), "symmetric");
        }
        let sat = [
            (Gt, "10", Lt, "1000000"),
            (Gt, "5", Lt, "6"),
            (Ge, "5", Le, "5"),
            (Eq, "3", Eq, "3.0"),
            (Ne, "3", Ne, "4"),
            (Gt, "3", Gt, "100"),
            (Ne, "5", Lt, "5"),
            (Eq, "5", Ge, "5"),
        ];
        for (s1, v1, s2, v2) in sat {
            let c1 = PropertyCondition {
                property: names::HAS_ESTIMATE_CARDINALITY.into(),
                sign: s1,
                value: v1.into(),
            };
            let c2 = PropertyCondition {
                property: names::HAS_ESTIMATE_CARDINALITY.into(),
                sign: s2,
                value: v2.into(),
            };
            assert!(!conditions_conflict(&c1, &c2), "{s1:?} {v1} vs {s2:?} {v2}");
        }
    }

    #[test]
    fn string_equalities_on_multi_valued_properties_do_not_conflict() {
        let p = Pattern::new("m", "").with_pop(
            PatternPop::new(1, "ANY")
                .prop(names::HAS_COLUMN, Sign::Eq, "A")
                .prop(names::HAS_COLUMN, Sign::Eq, "B"),
        );
        assert!(pattern_issues(&p).is_empty());
        let p = Pattern::new("s", "").with_pop(
            PatternPop::new(1, "ANY")
                .prop(names::HAS_JOIN_TYPE, Sign::Eq, "INNER")
                .prop(names::HAS_JOIN_TYPE, Sign::Eq, "LEFT OUTER"),
        );
        assert!(matches!(
            pattern_issues(&p).as_slice(),
            [PatternIssue::Contradiction { .. }]
        ));
    }

    #[test]
    fn unknown_property_warns_with_spelling_suggestion() {
        let p = Pattern::new("u", "").with_pop(PatternPop::new(1, "ANY").prop(
            "hasEstimateCardinalty", // missing 'i'
            Sign::Gt,
            "1",
        ));
        let issues = pattern_issues(&p);
        assert_eq!(issues.len(), 1);
        assert_eq!(issues[0].severity(), Severity::Warning);
        let d = issues[0].clone().into_diagnostic("u");
        assert_eq!(d.code, "OL010");
        assert_eq!(
            d.suggestion.as_deref(),
            Some("did you mean `hasEstimateCardinality`?")
        );
        // hasArg* is open-ended, not unknown.
        let p = Pattern::new("a", "").with_pop(PatternPop::new(1, "ANY").prop(
            "hasArgMAXPAGES",
            Sign::Eq,
            "4096",
        ));
        assert!(pattern_issues(&p).is_empty());
    }

    #[test]
    fn unreachable_pop_warns() {
        let p = Pattern::new("island", "")
            .with_pop(PatternPop::new(1, "SORT").stream(
                StreamKindSpec::Any,
                2,
                Relationship::Immediate,
            ))
            .with_pop(PatternPop::new(2, "ANY"))
            .with_pop(PatternPop::new(3, "TBSCAN"));
        let issues = pattern_issues(&p);
        assert!(
            matches!(
                issues.as_slice(),
                [PatternIssue::UnreachablePop { pop: 3, anchor: 1 }]
            ),
            "{issues:?}"
        );
        // A cross condition counts as connectivity.
        let p = Pattern::new("xc", "")
            .with_pop(PatternPop::new(1, "SORT").cross(
                names::HAS_IO_COST,
                Sign::Gt,
                2,
                names::HAS_IO_COST,
            ))
            .with_pop(PatternPop::new(2, "ANY"));
        assert!(pattern_issues(&p).is_empty());
    }

    #[test]
    fn required_and_absent_is_an_error() {
        let p = Pattern::new("ra", "").with_pop(
            PatternPop::new(1, "JOIN")
                .prop(names::HAS_JOIN_PREDICATE, Sign::Eq, "(A = B)")
                .absent(names::HAS_JOIN_PREDICATE),
        );
        let issues = pattern_issues(&p);
        assert!(matches!(
            issues.as_slice(),
            [PatternIssue::RequiredAndAbsent { pop: 1, .. }]
        ));
        assert_eq!(issues[0].code(), "OL008");
    }

    #[test]
    fn disconnected_query_components_warn() {
        let q = optimatch_sparql::parse_query("SELECT * WHERE { ?a <p:x> ?b . ?c <p:y> ?d . }")
            .unwrap();
        let diags = query_diagnostics("t", &q);
        assert_eq!(codes(&diags), vec!["OL101"]);
        // A filter correlating the groups removes the warning.
        let q = optimatch_sparql::parse_query(
            "SELECT * WHERE { ?a <p:x> ?b . ?c <p:y> ?d . FILTER (?b > ?d) }",
        )
        .unwrap();
        assert!(query_diagnostics("t", &q).is_empty());
    }

    #[test]
    fn unbound_filter_variable_warns() {
        let q =
            optimatch_sparql::parse_query("SELECT * WHERE { ?a <p:x> ?b . FILTER (?ghost > 1) }")
                .unwrap();
        let diags = query_diagnostics("t", &q);
        assert_eq!(codes(&diags), vec!["OL102"]);
        assert!(diags[0].message.contains("?ghost"));
    }

    #[test]
    fn non_well_designed_optionals_warn() {
        let q = optimatch_sparql::parse_query(
            "SELECT * WHERE { ?a <p:x> ?b . \
               OPTIONAL { ?a <p:y> ?v . } OPTIONAL { ?a <p:z> ?v . } }",
        )
        .unwrap();
        let diags = query_diagnostics("t", &q);
        assert_eq!(codes(&diags), vec!["OL103"]);
        // Binding ?v in the required part makes it well-designed.
        let q = optimatch_sparql::parse_query(
            "SELECT * WHERE { ?a <p:x> ?v . \
               OPTIONAL { ?a <p:y> ?v . } OPTIONAL { ?a <p:z> ?v . } }",
        )
        .unwrap();
        assert!(query_diagnostics("t", &q).is_empty());
    }

    #[test]
    fn recursive_path_note_is_cost_gated() {
        // A plain single-predicate closure walks one branch per hop — the
        // planner's frontier estimate stays below the threshold, no note.
        let q = optimatch_sparql::parse_query("SELECT * WHERE { ?a <p:x>+ ?b . }").unwrap();
        assert!(query_diagnostics("t", &q).is_empty());
        // An alternative-of-predicates closure branches three ways per hop.
        let q = optimatch_sparql::parse_query("SELECT * WHERE { ?a (<p:x>|<p:y>|<p:z>)+ ?b . }")
            .unwrap();
        let diags = query_diagnostics("t", &q);
        assert_eq!(codes(&diags), vec!["OL104"]);
        assert!(
            diags[0].message.contains("frontier of 3 branch(es)"),
            "{}",
            diags[0].message
        );
    }

    #[test]
    fn template_alias_cross_checks() {
        let mut entry = builtin::pattern_a();
        entry.recommendation = "Fix @TOP and also @NOSUCH.".into();
        let diags = lint_entry(&entry);
        assert_eq!(codes(&diags), vec!["OL201"]);
        assert!(diags[0].message.contains("@NOSUCH"));
        assert!(diags[0].suggestion.as_deref().unwrap().contains("BASE4"));

        // Helper over an optional-property value binding.
        let pattern = Pattern::new("v", "").with_pop(
            PatternPop::new(1, "SORT")
                .alias("TOP")
                .optional_prop(names::HAS_BUFFERS, "BUFFERS"),
        );
        let entry = KnowledgeBaseEntry {
            name: "v".into(),
            description: String::new(),
            pattern,
            recommendation: "Buffers: @BUFFERS, table @table(BUFFERS)".into(),
            prototype: Default::default(),
        };
        let diags = lint_entry(&entry);
        assert_eq!(codes(&diags), vec!["OL202"]);
    }

    #[test]
    fn unaliased_patterns_define_popn_names() {
        let pattern = Pattern::new("p", "").with_pop(PatternPop::new(1, "SORT"));
        let entry = KnowledgeBaseEntry {
            name: "p".into(),
            description: String::new(),
            pattern,
            recommendation: "Fix @pop1.".into(),
            prototype: Default::default(),
        };
        assert!(lint_entry(&entry).is_empty());
    }

    #[test]
    fn duplicate_entry_names_are_reported() {
        let entries = vec![builtin::pattern_a(), builtin::pattern_a()];
        let diags = lint_entries(&entries);
        assert_eq!(codes(&diags), vec!["OL009"]);
    }

    #[test]
    fn dead_patterns_are_detected_against_a_workload() {
        use optimatch_qep::fixtures;
        let workload: Vec<TransformedQep> = [fixtures::fig1(), fixtures::fig8()]
            .into_iter()
            .map(TransformedQep::new)
            .collect();
        // Pattern D needs a SORT; neither fixture has one.
        let entries = vec![builtin::pattern_a(), builtin::pattern_d()];
        let diags = lint_dead_patterns(&entries, &workload);
        assert_eq!(codes(&diags), vec!["OL203"]);
        assert_eq!(diags[0].entry, builtin::pattern_d().name);
        // An empty workload asserts nothing.
        assert!(lint_dead_patterns(&entries, &[]).is_empty());
    }

    #[test]
    fn diagnostics_serialize_to_json() {
        let mut entry = builtin::pattern_a();
        entry.pattern.pops[2].properties.push(PropertyCondition {
            property: names::HAS_ESTIMATE_CARDINALITY.into(),
            sign: Sign::Lt,
            value: "10".into(),
        });
        let diags = lint_entry(&entry);
        assert_eq!(codes(&diags), vec!["OL007"]);
        let json = serde_json::to_string(&diags).unwrap();
        assert!(json.contains("\"OL007\""), "{json}");
        assert!(json.contains("\"error\""), "{json}");
        assert!(json.contains("\"pattern\""), "{json}");
    }
}
