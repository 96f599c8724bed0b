//! Abstract syntax tree for the SPARQL subset.

use optimatch_rdf::Term;

/// A parsed SELECT or ASK query.
#[derive(Debug, Clone, PartialEq)]
pub struct Query {
    /// True for `ASK { ... }` — existence check, no projection.
    pub ask: bool,
    /// `PREFIX` declarations, already applied to the body (kept for display).
    pub prefixes: Vec<(String, String)>,
    /// Whether `DISTINCT` was given.
    pub distinct: bool,
    /// The projection: `*` when empty [`Query::select_all`] is true.
    pub select: Vec<SelectItem>,
    /// `SELECT *`.
    pub select_all: bool,
    /// The WHERE clause body.
    pub where_clause: GroupGraphPattern,
    /// `ORDER BY` conditions, in order.
    pub order_by: Vec<OrderCondition>,
    /// `GROUP BY` variables, in order.
    pub group_by: Vec<String>,
    /// `HAVING` constraint over each group (may contain aggregates).
    pub having: Option<Expression>,
    /// `LIMIT`, if present.
    pub limit: Option<usize>,
    /// `OFFSET`, if present.
    pub offset: Option<usize>,
}

/// One projected column.
#[derive(Debug, Clone, PartialEq)]
pub enum SelectItem {
    /// A bare variable: `?pop1`.
    Var(String),
    /// An aliased expression: `(?pop1 AS ?TOP)` — or the paper's bare
    /// `?pop1 AS ?TOP` form.
    Expression {
        /// The expression computed per row.
        expr: Expression,
        /// The output variable name.
        alias: String,
    },
}

impl SelectItem {
    /// The name this item projects as.
    pub fn output_name(&self) -> &str {
        match self {
            SelectItem::Var(v) => v,
            SelectItem::Expression { alias, .. } => alias,
        }
    }
}

/// One `ORDER BY` condition.
#[derive(Debug, Clone, PartialEq)]
pub struct OrderCondition {
    /// The key expression.
    pub expr: Expression,
    /// True for `ASC` (the default), false for `DESC`.
    pub ascending: bool,
}

/// A `{ ... }` group.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct GroupGraphPattern {
    /// The elements in source order.
    pub elements: Vec<PatternElement>,
}

impl GroupGraphPattern {
    /// The triple patterns that **every** solution of this group must
    /// satisfy: walks nested groups, but skips `OPTIONAL` blocks, both
    /// `UNION` branches, and `FILTER` / `BIND` subexpressions (including
    /// `EXISTS` groups) — a solution can exist without matching any of
    /// those. This is the conservative skeleton feature-extraction uses
    /// to prune graphs that cannot possibly match.
    pub fn required_triples(&self) -> Vec<&TriplePattern> {
        let mut out = Vec::new();
        self.collect_required(&mut out);
        out
    }

    fn collect_required<'a>(&'a self, out: &mut Vec<&'a TriplePattern>) {
        for element in &self.elements {
            match element {
                PatternElement::Triple(t) => out.push(t),
                PatternElement::Group(g) => g.collect_required(out),
                PatternElement::Optional(_)
                | PatternElement::Union(_, _)
                | PatternElement::Filter(_)
                | PatternElement::Bind(_, _) => {}
            }
        }
    }

    /// Every variable this group can bind, walking *all* branches: triple
    /// patterns (including those inside `OPTIONAL`, both `UNION` arms, and
    /// nested groups) and `BIND` targets. `FILTER` expressions reference
    /// variables but never bind them, so they contribute nothing. This is
    /// the domain static analysis checks `FILTER` references against.
    pub fn bound_vars(&self) -> std::collections::BTreeSet<String> {
        let mut out = std::collections::BTreeSet::new();
        self.collect_bound(&mut out);
        out
    }

    fn collect_bound(&self, out: &mut std::collections::BTreeSet<String>) {
        for element in &self.elements {
            match element {
                PatternElement::Triple(t) => {
                    for v in t.vars() {
                        out.insert(v.to_string());
                    }
                }
                PatternElement::Optional(g) | PatternElement::Group(g) => g.collect_bound(out),
                PatternElement::Union(a, b) => {
                    a.collect_bound(out);
                    b.collect_bound(out);
                }
                PatternElement::Bind(_, v) => {
                    out.insert(v.clone());
                }
                PatternElement::Filter(_) => {}
            }
        }
    }

    /// Every `FILTER` expression in this group, recursively (including
    /// filters inside `OPTIONAL` blocks, `UNION` arms, and nested groups).
    pub fn filters(&self) -> Vec<&Expression> {
        let mut out = Vec::new();
        self.collect_filters(&mut out);
        out
    }

    fn collect_filters<'a>(&'a self, out: &mut Vec<&'a Expression>) {
        for element in &self.elements {
            match element {
                PatternElement::Filter(e) => out.push(e),
                PatternElement::Optional(g) | PatternElement::Group(g) => g.collect_filters(out),
                PatternElement::Union(a, b) => {
                    a.collect_filters(out);
                    b.collect_filters(out);
                }
                PatternElement::Triple(_) | PatternElement::Bind(_, _) => {}
            }
        }
    }
}

/// One element of a group graph pattern.
#[derive(Debug, Clone, PartialEq)]
pub enum PatternElement {
    /// A triple pattern (predicate may be a property path).
    Triple(TriplePattern),
    /// `FILTER expr`.
    Filter(Expression),
    /// `OPTIONAL { ... }`.
    Optional(GroupGraphPattern),
    /// `{ A } UNION { B }` (chains are right-nested).
    Union(GroupGraphPattern, GroupGraphPattern),
    /// A nested group `{ ... }`.
    Group(GroupGraphPattern),
    /// `BIND (expr AS ?v)`.
    Bind(Expression, String),
}

/// A subject or object position: variable or concrete term.
#[derive(Debug, Clone, PartialEq)]
pub enum NodePattern {
    /// `?name`.
    Var(String),
    /// A concrete IRI, blank node, or literal.
    Term(Term),
}

/// A triple pattern; the predicate is a property path (a single IRI in the
/// common case).
#[derive(Debug, Clone, PartialEq)]
pub struct TriplePattern {
    /// Subject position.
    pub subject: NodePattern,
    /// Predicate position (possibly a complex path).
    pub path: Path,
    /// Object position.
    pub object: NodePattern,
}

impl TriplePattern {
    /// The variables this triple pattern binds: subject and object
    /// variables plus a predicate variable (`?s ?p ?o`).
    pub fn vars(&self) -> Vec<&str> {
        let mut out = Vec::new();
        if let NodePattern::Var(v) = &self.subject {
            out.push(v.as_str());
        }
        if let Path::Var(v) = &self.path {
            out.push(v.as_str());
        }
        if let NodePattern::Var(v) = &self.object {
            out.push(v.as_str());
        }
        out
    }
}

/// SPARQL property paths — the mechanism behind the paper's *descendant*
/// relationships ("operators that are successors but not necessarily
/// immediately below", §2.2).
#[derive(Debug, Clone, PartialEq)]
pub enum Path {
    /// A single predicate IRI.
    Iri(String),
    /// A predicate variable (`?s ?p ?o`); only valid as the whole path.
    Var(String),
    /// `^path` — inverse.
    Inverse(Box<Path>),
    /// `a/b` — sequence.
    Sequence(Box<Path>, Box<Path>),
    /// `a|b` — alternative.
    Alternative(Box<Path>, Box<Path>),
    /// `p*` — zero or more.
    ZeroOrMore(Box<Path>),
    /// `p+` — one or more.
    OneOrMore(Box<Path>),
    /// `p?` — zero or one.
    ZeroOrOne(Box<Path>),
}

impl Path {
    /// The predicate IRI when the path is a plain predicate.
    pub fn as_plain_iri(&self) -> Option<&str> {
        match self {
            Path::Iri(i) => Some(i),
            _ => None,
        }
    }

    /// True when the path admits a zero-length traversal (`p*`, `p?`, and
    /// combinations thereof) — such a path can match without touching any
    /// triple at all.
    pub(crate) fn can_match_empty(&self) -> bool {
        match self {
            Path::Iri(_) | Path::Var(_) | Path::OneOrMore(_) => false,
            Path::ZeroOrMore(_) | Path::ZeroOrOne(_) => true,
            Path::Inverse(p) => p.can_match_empty(),
            Path::Sequence(a, b) => a.can_match_empty() && b.can_match_empty(),
            Path::Alternative(a, b) => a.can_match_empty() || b.can_match_empty(),
        }
    }

    /// Collect the predicate IRIs that **every** traversal of this path
    /// must use, conservatively: alternation contributes nothing (either
    /// branch may be taken), and `p*` / `p?` contribute nothing (zero
    /// traversals are allowed). `p+` requires at least one traversal of
    /// `p`, so `p`'s required predicates carry through.
    pub(crate) fn required_iris(&self, out: &mut std::collections::BTreeSet<String>) {
        match self {
            Path::Iri(i) => {
                out.insert(i.clone());
            }
            Path::Var(_) | Path::Alternative(_, _) | Path::ZeroOrMore(_) | Path::ZeroOrOne(_) => {}
            Path::Inverse(p) | Path::OneOrMore(p) => p.required_iris(out),
            Path::Sequence(a, b) => {
                a.required_iris(out);
                b.required_iris(out);
            }
        }
    }

    /// Collect every predicate IRI mentioned anywhere in the path,
    /// including optional and alternative branches.
    pub(crate) fn all_iris(&self, out: &mut std::collections::BTreeSet<String>) {
        match self {
            Path::Iri(i) => {
                out.insert(i.clone());
            }
            Path::Var(_) => {}
            Path::Inverse(p) | Path::ZeroOrMore(p) | Path::OneOrMore(p) | Path::ZeroOrOne(p) => {
                p.all_iris(out)
            }
            Path::Sequence(a, b) | Path::Alternative(a, b) => {
                a.all_iris(out);
                b.all_iris(out);
            }
        }
    }

    /// True when the path contains a transitive closure operator — the
    /// "recursive" patterns the paper's Pattern B relies on (and the reason
    /// its Figure 9 shows Pattern #2 costing ~2× the others).
    pub fn is_recursive(&self) -> bool {
        match self {
            Path::Iri(_) | Path::Var(_) => false,
            Path::ZeroOrMore(_) | Path::OneOrMore(_) => true,
            Path::Inverse(p) | Path::ZeroOrOne(p) => p.is_recursive(),
            Path::Sequence(a, b) | Path::Alternative(a, b) => a.is_recursive() || b.is_recursive(),
        }
    }
}

/// Comparison operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    /// `=`
    Eq,
    /// `!=`
    Neq,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

/// Arithmetic operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArithOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
}

/// Aggregate functions (legal only in `SELECT (agg AS ?v)` projections).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggFunc {
    /// `COUNT(*)` / `COUNT(?v)`
    Count,
    /// `SUM(expr)`
    Sum,
    /// `AVG(expr)`
    Avg,
    /// `MIN(expr)`
    Min,
    /// `MAX(expr)`
    Max,
}

/// Built-in functions of the subset.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Builtin {
    /// `BOUND(?v)`
    Bound,
    /// `STR(term)`
    Str,
    /// `DATATYPE(lit)`
    Datatype,
    /// `isBLANK(term)`
    IsBlank,
    /// `isIRI(term)`
    IsIri,
    /// `isLITERAL(term)`
    IsLiteral,
    /// `isNUMERIC(term)`
    IsNumeric,
    /// `REGEX(str, pattern)` — substring / anchor subset, see
    /// [`crate::expr::simple_regex_match`].
    Regex,
    /// `ABS(x)`
    Abs,
    /// `CEIL(x)`
    Ceil,
    /// `FLOOR(x)`
    Floor,
    /// `STRSTARTS(s, prefix)`
    StrStarts,
    /// `STRENDS(s, suffix)`
    StrEnds,
    /// `CONTAINS(s, needle)`
    Contains,
    /// `STRLEN(s)`
    StrLen,
    /// `LCASE(s)`
    LCase,
    /// `UCASE(s)`
    UCase,
    /// `xsd:double(x)` / `xsd:integer(x)` cast family collapses to this.
    NumericCast,
}

/// A filter / projection / bind expression.
#[derive(Debug, Clone, PartialEq)]
pub enum Expression {
    /// A variable reference.
    Var(String),
    /// A constant term.
    Constant(Term),
    /// `a || b`
    Or(Box<Expression>, Box<Expression>),
    /// `a && b`
    And(Box<Expression>, Box<Expression>),
    /// `!a`
    Not(Box<Expression>),
    /// Comparison.
    Compare(CmpOp, Box<Expression>, Box<Expression>),
    /// Arithmetic.
    Arith(ArithOp, Box<Expression>, Box<Expression>),
    /// Unary minus.
    Neg(Box<Expression>),
    /// Built-in function call.
    Call(Builtin, Vec<Expression>),
    /// `EXISTS { ... }` / `NOT EXISTS { ... }` — group-pattern existence
    /// test evaluated against the current row's bindings.
    Exists(Box<GroupGraphPattern>, bool),
    /// An aggregate call; `None` argument means `COUNT(*)`.
    Aggregate(AggFunc, Option<Box<Expression>>),
}

impl Expression {
    /// Collect the variables the expression references into `out`.
    pub fn collect_vars<'a>(&'a self, out: &mut Vec<&'a str>) {
        match self {
            Expression::Var(v) => out.push(v),
            Expression::Constant(_) => {}
            Expression::Or(a, b) | Expression::And(a, b) => {
                a.collect_vars(out);
                b.collect_vars(out);
            }
            Expression::Compare(_, a, b) | Expression::Arith(_, a, b) => {
                a.collect_vars(out);
                b.collect_vars(out);
            }
            Expression::Not(a) | Expression::Neg(a) => a.collect_vars(out),
            Expression::Call(_, args) => {
                for a in args {
                    a.collect_vars(out);
                }
            }
            Expression::Exists(_, _) => {}
            Expression::Aggregate(_, arg) => {
                if let Some(a) = arg {
                    a.collect_vars(out);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn path_recursion_detection() {
        let p = Path::Sequence(
            Box::new(Path::Iri("p:a".into())),
            Box::new(Path::OneOrMore(Box::new(Path::Iri("p:b".into())))),
        );
        assert!(p.is_recursive());
        assert!(!Path::Iri("p:a".into()).is_recursive());
        assert!(!Path::Alternative(
            Box::new(Path::Iri("p:a".into())),
            Box::new(Path::Iri("p:b".into()))
        )
        .is_recursive());
    }

    #[test]
    fn required_iris_are_conservative() {
        let mut req = std::collections::BTreeSet::new();
        // a/b: both required.
        Path::Sequence(
            Box::new(Path::Iri("p:a".into())),
            Box::new(Path::Iri("p:b".into())),
        )
        .required_iris(&mut req);
        assert_eq!(req.len(), 2);

        // (a|b)+: neither branch is guaranteed, but all_iris sees both.
        let alt = Path::OneOrMore(Box::new(Path::Alternative(
            Box::new(Path::Iri("p:a".into())),
            Box::new(Path::Iri("p:b".into())),
        )));
        let mut req = std::collections::BTreeSet::new();
        alt.required_iris(&mut req);
        assert!(req.is_empty());
        let mut all = std::collections::BTreeSet::new();
        alt.all_iris(&mut all);
        assert_eq!(all.len(), 2);
        assert!(!alt.can_match_empty());

        // a* can match empty; a+ cannot; a/b* requires only a.
        assert!(Path::ZeroOrMore(Box::new(Path::Iri("p:a".into()))).can_match_empty());
        assert!(!Path::OneOrMore(Box::new(Path::Iri("p:a".into()))).can_match_empty());
        let seq = Path::Sequence(
            Box::new(Path::Iri("p:a".into())),
            Box::new(Path::ZeroOrMore(Box::new(Path::Iri("p:b".into())))),
        );
        let mut req = std::collections::BTreeSet::new();
        seq.required_iris(&mut req);
        assert_eq!(req.iter().collect::<Vec<_>>(), vec!["p:a"]);
    }

    #[test]
    fn required_triples_skip_optional_and_union() {
        let q = crate::parse_query(
            "SELECT ?x WHERE { \
               ?x <p:a> ?y . \
               OPTIONAL { ?x <p:opt> ?o . } \
               { ?x <p:u1> ?z . } UNION { ?x <p:u2> ?z . } \
               { ?x <p:nested> ?w . } \
               FILTER NOT EXISTS { ?x <p:absent> ?v . } \
             }",
        )
        .expect("parses");
        let required: Vec<&str> = q
            .where_clause
            .required_triples()
            .iter()
            .filter_map(|t| t.path.as_plain_iri())
            .collect();
        assert_eq!(required, vec!["p:a", "p:nested"]);
    }

    #[test]
    fn bound_vars_span_all_branches_filters_do_not_bind() {
        let q = crate::parse_query(
            "SELECT ?x WHERE { \
               ?x <p:a> ?y . \
               OPTIONAL { ?x <p:opt> ?o . } \
               { ?x <p:u1> ?z . } UNION { ?x <p:u2> ?w . } \
               BIND (?y + 1 AS ?b) \
               FILTER (?unbound > 0) \
             }",
        )
        .expect("parses");
        let bound = q.where_clause.bound_vars();
        for v in ["x", "y", "o", "z", "w", "b"] {
            assert!(bound.contains(v), "missing {v}");
        }
        assert!(!bound.contains("unbound"));
        assert_eq!(q.where_clause.filters().len(), 1);
    }

    #[test]
    fn triple_pattern_vars() {
        let q = crate::parse_query("SELECT * WHERE { ?s ?p ?o . }").expect("parses");
        let triples = q.where_clause.required_triples();
        assert_eq!(triples[0].vars(), vec!["s", "p", "o"]);
    }

    #[test]
    fn expression_var_collection() {
        let e = Expression::And(
            Box::new(Expression::Compare(
                CmpOp::Gt,
                Box::new(Expression::Var("card".into())),
                Box::new(Expression::Constant(Term::lit_integer(100))),
            )),
            Box::new(Expression::Call(
                Builtin::Bound,
                vec![Expression::Var("pop".into())],
            )),
        );
        let mut vars = Vec::new();
        e.collect_vars(&mut vars);
        assert_eq!(vars, vec!["card", "pop"]);
    }

    #[test]
    fn select_item_output_names() {
        assert_eq!(SelectItem::Var("x".into()).output_name(), "x");
        let aliased = SelectItem::Expression {
            expr: Expression::Var("pop1".into()),
            alias: "TOP".into(),
        };
        assert_eq!(aliased.output_name(), "TOP");
    }
}
