//! Translation from the AST into an executable algebra.
//!
//! Variables are renamed to dense slots so evaluation rows are flat
//! `Vec<Option<TermId>>`s. The shapes follow the SPARQL algebra: group graph
//! patterns become joins, `OPTIONAL` becomes a left join, group-level
//! `FILTER`s are applied after the group's joins (standard scoping).

use std::collections::HashMap;

use optimatch_rdf::Term;

use crate::ast::{
    self, Expression, GroupGraphPattern, NodePattern, PatternElement, Query, SelectItem,
};
use crate::error::SparqlError;

/// A compiled query plan.
#[derive(Debug, Clone)]
pub struct Plan {
    /// Slot index → variable name (includes internal variables).
    pub vars: Vec<String>,
    /// Root of the pattern tree.
    pub root: Node,
    /// Output columns in order.
    pub projection: Vec<(ProjExpr, String)>,
    /// Whether duplicate rows are removed.
    pub distinct: bool,
    /// Sort keys applied before slicing.
    pub order_by: Vec<(CExpr, bool)>,
    /// Row limit.
    pub limit: Option<usize>,
    /// Row offset.
    pub offset: Option<usize>,
    /// Subpattern trees referenced by [`CExpr::Exists`]; evaluated seeded
    /// with the enclosing row's bindings.
    pub exists_nodes: Vec<Node>,
    /// `GROUP BY` slots; with aggregates present and no GROUP BY, the
    /// whole solution set forms one group.
    pub group_by: Vec<usize>,
    /// `HAVING` constraint over each group.
    pub having: Option<CExpr>,
    /// Aggregate specs referenced by `CExpr::AggregateRef` in `having`.
    pub having_aggregates: Vec<(ast::AggFunc, Option<CExpr>)>,
}

impl Plan {
    /// The plan's *core*: the subtree under the root's chain of `FILTER`s.
    /// The rest, that chain plus projection and the solution modifiers, is
    /// its *tail*; [`crate::eval::evaluate`] runs the one and then the
    /// other.
    pub fn core(&self) -> &Node {
        let mut node = &self.root;
        while let Node::Filter(_, inner) = node {
            node = inner;
        }
        node
    }

    /// True when `other`'s core yields the same rows as this one's on any
    /// graph: equal algebra over the same slot layout. A core that reads an
    /// `EXISTS` subpattern also needs equal subpatterns.
    pub fn same_core(&self, other: &Plan) -> bool {
        self.vars.len() == other.vars.len()
            && self.core() == other.core()
            && (self.exists_nodes == other.exists_nodes || !reads_exists(self.core()))
    }
}

/// True when an expression somewhere in `node` evaluates an `EXISTS`.
fn reads_exists(node: &Node) -> bool {
    match node {
        Node::Unit | Node::Bgp(_) => false,
        Node::Join(a, b) | Node::LeftJoin(a, b) | Node::Union(a, b) => {
            reads_exists(a) || reads_exists(b)
        }
        Node::Filter(e, inner) | Node::Extend(inner, _, e) => {
            let mut refs = Vec::new();
            collect_exists_refs(e, &mut refs);
            !refs.is_empty() || reads_exists(inner)
        }
    }
}

/// A projected column: a raw slot, a computed expression, or an aggregate
/// over the rows of a group.
#[derive(Debug, Clone)]
pub enum ProjExpr {
    /// Project the slot's binding directly.
    Slot(usize),
    /// Evaluate an expression per row.
    Expr(CExpr),
    /// Aggregate over the group's rows; `None` argument = `COUNT(*)`.
    Aggregate(ast::AggFunc, Option<CExpr>),
}

/// Pattern-tree node.
#[derive(Debug, Clone, PartialEq)]
pub enum Node {
    /// The unit table: one empty solution.
    Unit,
    /// A basic graph pattern (triples may carry property paths).
    Bgp(Vec<TriplePlan>),
    /// Inner join.
    Join(Box<Node>, Box<Node>),
    /// Left join (OPTIONAL).
    LeftJoin(Box<Node>, Box<Node>),
    /// Union of two branches.
    Union(Box<Node>, Box<Node>),
    /// Filter rows by an expression.
    Filter(CExpr, Box<Node>),
    /// Bind a computed value to a fresh slot.
    Extend(Box<Node>, usize, CExpr),
}

/// Subject/object position in a compiled triple pattern.
#[derive(Debug, Clone, PartialEq)]
pub enum PlanNodePattern {
    /// A variable slot.
    Var(usize),
    /// A constant term.
    Term(Term),
}

/// A compiled triple pattern.
#[derive(Debug, Clone, PartialEq)]
pub struct TriplePlan {
    /// Subject.
    pub subject: PlanNodePattern,
    /// Property path (IRIs kept as terms; resolved per graph at eval time).
    pub path: ast::Path,
    /// When the predicate is a variable (`?s ?p ?o`), its slot.
    pub path_var: Option<usize>,
    /// Object.
    pub object: PlanNodePattern,
}

/// Compiled expression: identical to [`ast::Expression`] with variables
/// replaced by slots.
#[derive(Debug, Clone, PartialEq)]
pub enum CExpr {
    /// Variable slot reference.
    Slot(usize),
    /// Constant term.
    Constant(Term),
    /// `||`
    Or(Box<CExpr>, Box<CExpr>),
    /// `&&`
    And(Box<CExpr>, Box<CExpr>),
    /// `!`
    Not(Box<CExpr>),
    /// Comparison.
    Compare(ast::CmpOp, Box<CExpr>, Box<CExpr>),
    /// Arithmetic.
    Arith(ast::ArithOp, Box<CExpr>, Box<CExpr>),
    /// Unary minus.
    Neg(Box<CExpr>),
    /// Built-in call.
    Call(ast::Builtin, Vec<CExpr>),
    /// `EXISTS`/`NOT EXISTS`: index into [`Plan::exists_nodes`], plus the
    /// polarity (`true` = EXISTS).
    Exists(usize, bool),
    /// A per-group aggregate value, by index into
    /// [`Plan::having_aggregates`] — only valid inside [`Plan::having`].
    AggregateRef(usize),
}

/// Collect the [`Plan::exists_nodes`] indices an expression references —
/// the evaluator must only evaluate those for a given filter, or an
/// `EXISTS` subpattern containing its own `FILTER` would recurse into
/// itself.
pub fn collect_exists_refs(e: &CExpr, out: &mut Vec<usize>) {
    match e {
        CExpr::Exists(idx, _) => out.push(*idx),
        CExpr::Slot(_) | CExpr::Constant(_) | CExpr::AggregateRef(_) => {}
        CExpr::Or(a, b) | CExpr::And(a, b) => {
            collect_exists_refs(a, out);
            collect_exists_refs(b, out);
        }
        CExpr::Compare(_, a, b) | CExpr::Arith(_, a, b) => {
            collect_exists_refs(a, out);
            collect_exists_refs(b, out);
        }
        CExpr::Not(a) | CExpr::Neg(a) => collect_exists_refs(a, out),
        CExpr::Call(_, args) => {
            for a in args {
                collect_exists_refs(a, out);
            }
        }
    }
}

/// Variable-name → slot assignment, in first-appearance order.
#[derive(Debug, Default)]
struct VarTable {
    names: Vec<String>,
    slots: HashMap<String, usize>,
}

impl VarTable {
    fn slot(&mut self, name: &str) -> usize {
        if let Some(&s) = self.slots.get(name) {
            return s;
        }
        let s = self.names.len();
        self.names.push(name.to_string());
        self.slots.insert(name.to_string(), s);
        s
    }

    fn lookup(&self, name: &str) -> Option<usize> {
        self.slots.get(name).copied()
    }
}

/// Translate a parsed query into a [`Plan`].
pub fn translate(query: &Query) -> Result<Plan, SparqlError> {
    let mut vars = VarTable::default();
    let mut exists_nodes = Vec::new();
    let root = translate_group(&query.where_clause, &mut vars, &mut exists_nodes)?;

    // Build the projection. SELECT * projects every variable that appeared
    // in the WHERE clause (internal blank-node-like handler variables
    // included — OptImatch relies on explicit projection to hide them).
    let mut projection = Vec::new();
    if query.select_all {
        for (slot, name) in vars.names.iter().enumerate() {
            projection.push((ProjExpr::Slot(slot), name.clone()));
        }
    } else {
        for item in &query.select {
            match item {
                SelectItem::Var(v) => {
                    let slot = vars.lookup(v).ok_or_else(|| var_not_in_scope(v))?;
                    projection.push((ProjExpr::Slot(slot), v.clone()));
                }
                SelectItem::Expression { expr, alias } => match expr {
                    // The common generated form is a bare variable alias;
                    // keep it a slot projection for speed.
                    Expression::Var(v) => {
                        let slot = vars.lookup(v).ok_or_else(|| var_not_in_scope(v))?;
                        projection.push((ProjExpr::Slot(slot), alias.clone()));
                    }
                    Expression::Aggregate(func, arg) => {
                        let carg = match arg {
                            Some(a) => Some(compile_expr(a, &mut vars, &mut exists_nodes)?),
                            None => None,
                        };
                        projection.push((ProjExpr::Aggregate(*func, carg), alias.clone()));
                    }
                    other => {
                        let ce = compile_expr(other, &mut vars, &mut exists_nodes)?;
                        projection.push((ProjExpr::Expr(ce), alias.clone()));
                    }
                },
            }
        }
    }

    let mut order_by = Vec::new();
    for cond in &query.order_by {
        order_by.push((
            compile_expr(&cond.expr, &mut vars, &mut exists_nodes)?,
            cond.ascending,
        ));
    }

    // GROUP BY resolution and grouping sanity: every plain projected slot
    // must be one of the grouping variables when grouping is in effect.
    let mut group_by = Vec::new();
    for v in &query.group_by {
        group_by.push(vars.lookup(v).ok_or_else(|| var_not_in_scope(v))?);
    }
    // HAVING: compile with aggregate subexpressions lifted out.
    let mut having_aggregates: Vec<(ast::AggFunc, Option<CExpr>)> = Vec::new();
    let having = match &query.having {
        None => None,
        Some(expr) => Some(compile_having(
            expr,
            &mut vars,
            &mut exists_nodes,
            &mut having_aggregates,
        )?),
    };

    let has_aggregate = projection
        .iter()
        .any(|(p, _)| matches!(p, ProjExpr::Aggregate(_, _)));
    if having.is_some() && !has_aggregate && group_by.is_empty() && having_aggregates.is_empty() {
        return Err(SparqlError::Translate(
            "HAVING requires GROUP BY or aggregation".into(),
        ));
    }
    if has_aggregate || !group_by.is_empty() || having.is_some() {
        if query.select_all {
            return Err(SparqlError::Translate(
                "SELECT * cannot be combined with aggregation".into(),
            ));
        }
        for (p, name) in &projection {
            match p {
                ProjExpr::Aggregate(_, _) => {}
                ProjExpr::Slot(s) if group_by.contains(s) => {}
                _ => {
                    return Err(SparqlError::Translate(format!(
                        "projected variable ?{name} must be aggregated or GROUP BY'd"
                    )))
                }
            }
        }
    }

    Ok(Plan {
        vars: vars.names,
        root,
        projection,
        distinct: query.distinct,
        order_by,
        limit: query.limit,
        offset: query.offset,
        exists_nodes,
        group_by,
        having,
        having_aggregates,
    })
}

/// Compile a HAVING expression: aggregate calls become
/// [`CExpr::AggregateRef`]s into the side table.
fn compile_having(
    e: &Expression,
    vars: &mut VarTable,
    exists_nodes: &mut Vec<Node>,
    aggs: &mut Vec<(ast::AggFunc, Option<CExpr>)>,
) -> Result<CExpr, SparqlError> {
    Ok(match e {
        Expression::Aggregate(func, arg) => {
            let carg = match arg {
                Some(a) => Some(compile_expr(a, vars, exists_nodes)?),
                None => None,
            };
            aggs.push((*func, carg));
            CExpr::AggregateRef(aggs.len() - 1)
        }
        Expression::Or(a, b) => CExpr::Or(
            Box::new(compile_having(a, vars, exists_nodes, aggs)?),
            Box::new(compile_having(b, vars, exists_nodes, aggs)?),
        ),
        Expression::And(a, b) => CExpr::And(
            Box::new(compile_having(a, vars, exists_nodes, aggs)?),
            Box::new(compile_having(b, vars, exists_nodes, aggs)?),
        ),
        Expression::Not(a) => CExpr::Not(Box::new(compile_having(a, vars, exists_nodes, aggs)?)),
        Expression::Compare(op, a, b) => CExpr::Compare(
            *op,
            Box::new(compile_having(a, vars, exists_nodes, aggs)?),
            Box::new(compile_having(b, vars, exists_nodes, aggs)?),
        ),
        Expression::Arith(op, a, b) => CExpr::Arith(
            *op,
            Box::new(compile_having(a, vars, exists_nodes, aggs)?),
            Box::new(compile_having(b, vars, exists_nodes, aggs)?),
        ),
        Expression::Neg(a) => CExpr::Neg(Box::new(compile_having(a, vars, exists_nodes, aggs)?)),
        other => compile_expr(other, vars, exists_nodes)?,
    })
}

fn var_not_in_scope(v: &str) -> SparqlError {
    SparqlError::Translate(format!(
        "projected variable ?{v} never appears in WHERE clause"
    ))
}

fn translate_group(
    group: &GroupGraphPattern,
    vars: &mut VarTable,
    exists_nodes: &mut Vec<Node>,
) -> Result<Node, SparqlError> {
    let mut current = Node::Unit;
    let mut bgp: Vec<TriplePlan> = Vec::new();
    let mut filters: Vec<CExpr> = Vec::new();

    // Helper folded inline: flush pending triple patterns into the tree.
    fn flush(current: Node, bgp: &mut Vec<TriplePlan>) -> Node {
        if bgp.is_empty() {
            return current;
        }
        let node = Node::Bgp(std::mem::take(bgp));
        match current {
            Node::Unit => node,
            other => Node::Join(Box::new(other), Box::new(node)),
        }
    }

    for element in &group.elements {
        match element {
            PatternElement::Triple(t) => {
                // Subject slot is assigned before the predicate's so that
                // SELECT * column order follows source positions.
                let subject = compile_node(&t.subject, vars);
                let path_var = match &t.path {
                    ast::Path::Var(v) => Some(vars.slot(v)),
                    _ => None,
                };
                bgp.push(TriplePlan {
                    subject,
                    path: t.path.clone(),
                    path_var,
                    object: compile_node(&t.object, vars),
                });
            }
            PatternElement::Filter(e) => {
                // Group-scoped: applied after the whole group joins.
                filters.push(compile_expr(e, vars, exists_nodes)?);
            }
            PatternElement::Optional(inner) => {
                current = flush(current, &mut bgp);
                let right = translate_group(inner, vars, exists_nodes)?;
                current = Node::LeftJoin(Box::new(current), Box::new(right));
            }
            PatternElement::Union(a, b) => {
                current = flush(current, &mut bgp);
                let left = translate_group(a, vars, exists_nodes)?;
                let right = translate_group(b, vars, exists_nodes)?;
                let union = Node::Union(Box::new(left), Box::new(right));
                current = join(current, union);
            }
            PatternElement::Group(g) => {
                current = flush(current, &mut bgp);
                let inner = translate_group(g, vars, exists_nodes)?;
                current = join(current, inner);
            }
            PatternElement::Bind(e, v) => {
                current = flush(current, &mut bgp);
                let ce = compile_expr(e, vars, exists_nodes)?;
                let slot = vars.slot(v);
                current = Node::Extend(Box::new(current), slot, ce);
            }
        }
    }
    current = flush(current, &mut bgp);
    for f in filters {
        current = Node::Filter(f, Box::new(current));
    }
    Ok(current)
}

fn join(left: Node, right: Node) -> Node {
    match left {
        Node::Unit => right,
        other => Node::Join(Box::new(other), Box::new(right)),
    }
}

fn compile_node(n: &NodePattern, vars: &mut VarTable) -> PlanNodePattern {
    match n {
        NodePattern::Var(v) => PlanNodePattern::Var(vars.slot(v)),
        NodePattern::Term(t) => PlanNodePattern::Term(t.clone()),
    }
}

fn compile_expr(
    e: &Expression,
    vars: &mut VarTable,
    exists_nodes: &mut Vec<Node>,
) -> Result<CExpr, SparqlError> {
    Ok(match e {
        Expression::Var(v) => CExpr::Slot(vars.slot(v)),
        Expression::Constant(t) => CExpr::Constant(t.clone()),
        Expression::Or(a, b) => CExpr::Or(
            Box::new(compile_expr(a, vars, exists_nodes)?),
            Box::new(compile_expr(b, vars, exists_nodes)?),
        ),
        Expression::And(a, b) => CExpr::And(
            Box::new(compile_expr(a, vars, exists_nodes)?),
            Box::new(compile_expr(b, vars, exists_nodes)?),
        ),
        Expression::Not(a) => CExpr::Not(Box::new(compile_expr(a, vars, exists_nodes)?)),
        Expression::Compare(op, a, b) => CExpr::Compare(
            *op,
            Box::new(compile_expr(a, vars, exists_nodes)?),
            Box::new(compile_expr(b, vars, exists_nodes)?),
        ),
        Expression::Arith(op, a, b) => CExpr::Arith(
            *op,
            Box::new(compile_expr(a, vars, exists_nodes)?),
            Box::new(compile_expr(b, vars, exists_nodes)?),
        ),
        Expression::Neg(a) => CExpr::Neg(Box::new(compile_expr(a, vars, exists_nodes)?)),
        Expression::Call(f, args) => CExpr::Call(
            *f,
            args.iter()
                .map(|a| compile_expr(a, vars, exists_nodes))
                .collect::<Result<_, _>>()?,
        ),
        Expression::Exists(group, positive) => {
            let node = translate_group(group, vars, exists_nodes)?;
            exists_nodes.push(node);
            CExpr::Exists(exists_nodes.len() - 1, *positive)
        }
        Expression::Aggregate(_, _) => {
            return Err(SparqlError::Translate(
                "aggregates are only allowed as top-level SELECT expressions".into(),
            ))
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    #[test]
    fn slots_are_shared_across_patterns() {
        let q = parse("SELECT ?a WHERE { ?a <p:x> ?b . ?b <p:y> ?a . }").unwrap();
        let plan = translate(&q).unwrap();
        assert_eq!(plan.vars, vec!["a", "b"]);
        let Node::Bgp(tps) = &plan.root else {
            panic!("expected single BGP, got {:?}", plan.root)
        };
        assert_eq!(tps.len(), 2);
        assert_eq!(tps[0].subject, PlanNodePattern::Var(0));
        assert_eq!(tps[1].object, PlanNodePattern::Var(0));
    }

    #[test]
    fn optional_becomes_left_join() {
        let q = parse("SELECT ?a WHERE { ?a <p:x> ?b . OPTIONAL { ?b <p:y> ?c . } }").unwrap();
        let plan = translate(&q).unwrap();
        assert!(matches!(plan.root, Node::LeftJoin(_, _)));
    }

    #[test]
    fn group_filters_apply_after_joins() {
        let q =
            parse("SELECT ?a WHERE { ?a <p:x> ?b . FILTER (?c > 1) OPTIONAL { ?b <p:y> ?c . } }")
                .unwrap();
        let plan = translate(&q).unwrap();
        // The filter must sit above the left join so ?c is in scope.
        let Node::Filter(_, inner) = &plan.root else {
            panic!("expected filter at root, got {:?}", plan.root)
        };
        assert!(matches!(inner.as_ref(), Node::LeftJoin(_, _)));
    }

    #[test]
    fn projection_of_unknown_variable_errors() {
        let q = parse("SELECT ?nope WHERE { ?a <p:x> ?b . }").unwrap();
        assert!(matches!(translate(&q), Err(SparqlError::Translate(_))));
    }

    #[test]
    fn select_star_projects_all_vars() {
        let q = parse("SELECT * WHERE { ?s ?p ?o . }").unwrap();
        let plan = translate(&q).unwrap();
        let names: Vec<_> = plan.projection.iter().map(|(_, n)| n.as_str()).collect();
        assert_eq!(names, vec!["s", "p", "o"]);
    }

    #[test]
    fn alias_projection_keeps_slot_fast_path() {
        let q = parse("SELECT ?pop1 AS ?TOP WHERE { ?pop1 <p:x> ?b . }").unwrap();
        let plan = translate(&q).unwrap();
        assert!(matches!(plan.projection[0].0, ProjExpr::Slot(0)));
        assert_eq!(plan.projection[0].1, "TOP");
    }

    #[test]
    fn union_branches_translate_independently() {
        let q = parse("SELECT ?x WHERE { { ?x <p:a> 1 . } UNION { ?x <p:b> 2 . } }").unwrap();
        let plan = translate(&q).unwrap();
        assert!(matches!(plan.root, Node::Union(_, _)));
    }
}
