//! Plan evaluation against a graph.
//!
//! Rows are flat `Vec<Option<TermId>>`s. Query constants that do not occur
//! in the graph are interned into an *overlay pool* (ids past the graph
//! pool's length), so expression evaluation can still resolve them while
//! BGP matching knows they can never match a stored triple.
//!
//! A BGP runs the steps `plan::BgpSteps` yields, one at a time:
//! with the planner on, the cheapest pattern under the bound variables so
//! far, through the index or path direction the step names; in source
//! order, the next pattern as written. `explain` renders the same steps.
//! `reproduce ablation` (in `optimatch-bench`) measures what greedy
//! ordering buys on workload-scale matching.
//!
//! [`evaluate`] runs a plan in two halves: [`evaluate_core`] builds the
//! rows of its core ([`Plan::core`]), and [`evaluate_tail`] runs the rest
//! over them. Plans whose cores are equal ([`Plan::same_core`]) can share
//! one core's rows; each tail then charges its budget exactly as the
//! whole evaluation would.

use std::borrow::{Borrow, Cow};
use std::collections::HashMap;

use optimatch_rdf::{Graph, Term, TermId};

use crate::algebra::{
    collect_exists_refs, CExpr, Node, Plan, PlanNodePattern, ProjExpr, TriplePlan,
};
use crate::ast::Path;
use crate::budget::Budget;
use crate::error::SparqlError;
use crate::expr::{eval_expr, order_values, Value};
use crate::path::{compile_path, eval_path};
use crate::plan::{Access, BgpSteps, EvalStats, PlanOptions, Step};
use crate::results::ResultTable;

/// A solution row: one optional binding per variable slot.
pub type Row = Vec<Option<TermId>>;

/// Query constants absent from the graph, interned past the graph pool's
/// length.
#[derive(Debug, Clone, Default)]
struct Overlay {
    terms: Vec<Term>,
    ids: HashMap<Term, TermId>,
}

/// Evaluation context: the graph plus the overlay pool for query constants.
struct Ctx<'g> {
    graph: &'g Graph,
    graph_terms: usize,
    /// Borrowed from the core while a tail only reads it.
    overlay: Cow<'g, Overlay>,
    /// Greedy or source-order BGP steps.
    options: PlanOptions,
    /// Planner decision counters accumulated during evaluation; empty in
    /// source order.
    trace: EvalStats,
    /// The evaluation budget; every row produced, triple matched, and join
    /// pair considered charges it.
    budget: &'g Budget,
}

impl<'g> Ctx<'g> {
    fn new(
        graph: &'g Graph,
        overlay: Cow<'g, Overlay>,
        trace: EvalStats,
        options: PlanOptions,
        budget: &'g Budget,
    ) -> Ctx<'g> {
        Ctx {
            graph,
            graph_terms: graph.pool().len(),
            overlay,
            options,
            trace,
            budget,
        }
    }

    /// Intern a term: graph id when present, overlay id otherwise.
    fn intern(&mut self, term: &Term) -> TermId {
        if let Some(id) = self.graph.term_id(term) {
            return id;
        }
        if let Some(&id) = self.overlay.ids.get(term) {
            return id;
        }
        let overlay = self.overlay.to_mut();
        let id = TermId((self.graph_terms + overlay.terms.len()) as u32);
        overlay.terms.push(term.clone());
        overlay.ids.insert(term.clone(), id);
        id
    }

    /// Resolve any id (graph or overlay) to its term.
    fn resolve(&self, id: TermId) -> &Term {
        let i = id.0 as usize;
        if i < self.graph_terms {
            self.graph.term(id)
        } else {
            &self.overlay.terms[i - self.graph_terms]
        }
    }

    /// True when the id refers to a term stored in the graph.
    fn in_graph(&self, id: TermId) -> bool {
        (id.0 as usize) < self.graph_terms
    }
}

/// The rows of a plan's core on one graph, with what a tail needs to go on
/// from them: the overlay the rows' ids may point into and the planner
/// trace so far. Built by [`evaluate_core`], read by [`evaluate_tail`].
#[derive(Debug)]
pub struct CoreRows {
    rows: Vec<Row>,
    overlay: Overlay,
    trace: EvalStats,
}

/// Evaluate a compiled plan against a graph under [`PlanOptions`] and a
/// [`Budget`], returning the planner's decision trace alongside the
/// results: [`evaluate_tail`] over [`evaluate_core`], on one budget. With
/// `optimize: false` the trace is empty and evaluation runs in source
/// order (the correctness oracle). Results do not depend on the budget
/// while it holds; exceeding it returns [`SparqlError::BudgetExceeded`]
/// with the accounting snapshot.
pub fn evaluate(
    graph: &Graph,
    plan: &Plan,
    options: PlanOptions,
    budget: &Budget,
) -> Result<(ResultTable, EvalStats), SparqlError> {
    let core = evaluate_core(graph, plan, options, budget)?;
    evaluate_tail(graph, plan, &core, options, budget)
}

/// Evaluate the core of a plan ([`Plan::core`]): the rows the root's
/// FILTER chain reads, charged to `budget`.
pub fn evaluate_core(
    graph: &Graph,
    plan: &Plan,
    options: PlanOptions,
    budget: &Budget,
) -> Result<CoreRows, SparqlError> {
    let overlay = Cow::Owned(Overlay::default());
    let mut ctx = Ctx::new(graph, overlay, EvalStats::default(), options, budget);
    let rows = eval_node(&mut ctx, plan.core(), plan, &vec![None; plan.vars.len()])?;
    Ok(CoreRows {
        rows,
        overlay: ctx.overlay.into_owned(),
        trace: ctx.trace,
    })
}

/// Run a plan's tail over its core's rows: the root's FILTERs, innermost
/// first, then projection, grouping, ORDER BY, DISTINCT and slicing. The
/// rows may come from another plan whose core is the same
/// ([`Plan::same_core`]). `budget` goes on from where the core left it, so
/// a tail charges and fails exactly as the whole evaluation would; the
/// trace returned is the core's plus the tail's.
pub fn evaluate_tail(
    graph: &Graph,
    plan: &Plan,
    core: &CoreRows,
    options: PlanOptions,
    budget: &Budget,
) -> Result<(ResultTable, EvalStats), SparqlError> {
    let overlay = Cow::Borrowed(&core.overlay);
    let mut ctx = Ctx::new(graph, overlay, core.trace, options, budget);
    let rows = filter_tail(&mut ctx, plan, &plan.root, core.rows.iter().collect())?;

    // Aggregation path: group rows, compute aggregates per group.
    let has_aggregate = plan
        .projection
        .iter()
        .any(|(p, _)| matches!(p, ProjExpr::Aggregate(_, _)));
    if has_aggregate || !plan.group_by.is_empty() {
        let trace = ctx.trace;
        return materialize_grouped(&mut ctx, plan, rows).map(|t| (t, trace));
    }

    // Compute (projected row, order keys) per solution.
    let mut materialized: Vec<(Vec<Option<Term>>, Vec<OrderKey>)> = Vec::with_capacity(rows.len());
    // Exists indices referenced by projections / order keys (usually none).
    let mut out_refs = Vec::new();
    for (proj, _) in &plan.projection {
        if let ProjExpr::Expr(e) = proj {
            collect_exists_refs(e, &mut out_refs);
        }
    }
    for (e, _) in &plan.order_by {
        collect_exists_refs(e, &mut out_refs);
    }
    for row in rows {
        // Pre-evaluated per row: the lookup closure below borrows the
        // context, so EXISTS cannot re-enter the evaluator lazily.
        let exists_results = eval_exists_refs(&mut ctx, plan, &out_refs, row);
        let lookup = |slot: usize| row.get(slot).copied().flatten().map(|id| ctx.resolve(id));
        let exists = |idx: usize| exists_results.get(idx).copied().flatten();
        let mut out = Vec::with_capacity(plan.projection.len());
        for (proj, _) in &plan.projection {
            match proj {
                ProjExpr::Slot(s) => out.push(
                    row.get(*s)
                        .copied()
                        .flatten()
                        .map(|id| ctx.resolve(id).clone()),
                ),
                ProjExpr::Expr(e) => {
                    out.push(eval_expr(e, &lookup, &exists).map(|v| value_to_term(&v)));
                }
                // Aggregates divert to the grouped path above.
                ProjExpr::Aggregate(_, _) => unreachable!("handled by materialize_grouped"),
            }
        }
        let mut keys = Vec::with_capacity(plan.order_by.len());
        for (expr, asc) in &plan.order_by {
            let v = eval_expr(expr, &lookup, &exists);
            keys.push(OrderKey {
                value: v.map(|v| owned_order_value(&v)),
                ascending: *asc,
            });
        }
        materialized.push((out, keys));
    }

    finish_table(plan, materialized).map(|t| (t, ctx.trace))
}

/// Apply the FILTER chain from `node` down to the core, innermost first.
fn filter_tail<'r>(
    ctx: &mut Ctx<'_>,
    plan: &Plan,
    node: &Node,
    rows: Vec<&'r Row>,
) -> Result<Vec<&'r Row>, SparqlError> {
    let Node::Filter(expr, inner) = node else {
        return Ok(rows);
    };
    let rows = filter_tail(ctx, plan, inner, rows)?;
    filter_rows(ctx, plan, expr, rows)
}

/// The rows a FILTER keeps, charging one step per row. Referenced
/// `EXISTS` subpatterns re-enter the evaluator seeded with each row.
fn filter_rows<R: Borrow<Row>>(
    ctx: &mut Ctx<'_>,
    plan: &Plan,
    expr: &CExpr,
    rows: Vec<R>,
) -> Result<Vec<R>, SparqlError> {
    let refs = exists_refs(expr);
    let mut out = Vec::with_capacity(rows.len());
    for row in rows {
        ctx.budget.charge(1)?;
        let keep = {
            let row = row.borrow();
            // Evaluated before the lookup closure borrows the context.
            let exists_results = eval_exists_refs(ctx, plan, &refs, row);
            let lookup = |slot: usize| row.get(slot).copied().flatten().map(|id| ctx.resolve(id));
            let exists = |idx: usize| exists_results.get(idx).copied().flatten();
            eval_expr(expr, &lookup, &exists)
                .and_then(|v| v.effective_boolean())
                .unwrap_or(false)
        };
        if keep {
            out.push(row);
        }
    }
    Ok(out)
}

/// Owned order-by key, computed once per row before sorting.
struct OrderKey {
    value: Option<OwnedValue>,
    ascending: bool,
}

/// Owned snapshot of a [`Value`] for sorting.
enum OwnedValue {
    Number(f64),
    Text(String),
}

fn owned_order_value(v: &Value<'_>) -> OwnedValue {
    match v.as_number() {
        Some(n) => OwnedValue::Number(n),
        None => OwnedValue::Text(v.as_str().map(|s| s.into_owned()).unwrap_or_default()),
    }
}

fn owned_to_value(v: &OwnedValue) -> Value<'_> {
    match v {
        OwnedValue::Number(n) => Value::Number(*n),
        OwnedValue::Text(t) => Value::Str(std::borrow::Cow::Borrowed(t)),
    }
}

/// Group the solution rows by the `GROUP BY` slots and materialize one
/// output row per group, computing aggregates. With no `GROUP BY` the
/// whole solution set is a single group (even when empty, per SPARQL:
/// `COUNT(*)` over no rows is 0).
fn materialize_grouped(
    ctx: &mut Ctx<'_>,
    plan: &Plan,
    rows: Vec<&Row>,
) -> Result<ResultTable, SparqlError> {
    let mut order: Vec<Vec<Option<TermId>>> = Vec::new();
    let mut groups: HashMap<Vec<Option<TermId>>, Vec<&Row>> = HashMap::new();
    if plan.group_by.is_empty() {
        order.push(Vec::new());
        groups.insert(Vec::new(), rows);
    } else {
        for row in rows {
            let key: Vec<Option<TermId>> = plan
                .group_by
                .iter()
                .map(|&s| row.get(s).copied().flatten())
                .collect();
            let bucket = groups.entry(key.clone()).or_insert_with(|| {
                order.push(key);
                Vec::new()
            });
            bucket.push(row);
        }
    }

    let mut out_rows: Vec<(Vec<Option<Term>>, Vec<OrderKey>)> = Vec::with_capacity(order.len());
    for key in &order {
        let group = &groups[key];

        // HAVING: evaluate the constraint with aggregate values substituted
        // in, against a synthetic row carrying the group key.
        if let Some(having) = &plan.having {
            let agg_values: Vec<Option<Term>> = plan
                .having_aggregates
                .iter()
                .map(|(func, arg)| eval_aggregate(ctx, *func, arg.as_ref(), group))
                .collect();
            let substituted = substitute_aggregates(having, &agg_values);
            let mut synthetic: Row = vec![None; plan.vars.len()];
            for (slot, value) in plan.group_by.iter().zip(key) {
                synthetic[*slot] = *value;
            }
            let keep = {
                let lookup = |slot: usize| {
                    synthetic
                        .get(slot)
                        .copied()
                        .flatten()
                        .map(|id| ctx.resolve(id))
                };
                eval_expr(&substituted, &lookup, &|_: usize| None)
                    .and_then(|v| v.effective_boolean())
                    .unwrap_or(false)
            };
            if !keep {
                continue;
            }
        }
        // Synthetic row carrying only the group key (for ORDER BY).
        let mut synthetic: Row = vec![None; plan.vars.len()];
        for (slot, value) in plan.group_by.iter().zip(key) {
            synthetic[*slot] = *value;
        }

        let mut out = Vec::with_capacity(plan.projection.len());
        for (proj, _) in &plan.projection {
            match proj {
                ProjExpr::Slot(s) => out.push(
                    synthetic
                        .get(*s)
                        .copied()
                        .flatten()
                        .map(|id| ctx.resolve(id).clone()),
                ),
                ProjExpr::Expr(e) => {
                    // Validated unreachable under grouping, but evaluate
                    // against the synthetic row for robustness.
                    let lookup = |slot: usize| {
                        synthetic
                            .get(slot)
                            .copied()
                            .flatten()
                            .map(|id| ctx.resolve(id))
                    };
                    out.push(eval_expr(e, &lookup, &|_: usize| None).map(|v| value_to_term(&v)));
                }
                ProjExpr::Aggregate(func, arg) => {
                    out.push(eval_aggregate(ctx, *func, arg.as_ref(), group));
                }
            }
        }
        let mut keys = Vec::with_capacity(plan.order_by.len());
        for (expr, asc) in &plan.order_by {
            let lookup = |slot: usize| {
                synthetic
                    .get(slot)
                    .copied()
                    .flatten()
                    .map(|id| ctx.resolve(id))
            };
            let v = eval_expr(expr, &lookup, &|_: usize| None);
            keys.push(OrderKey {
                value: v.map(|v| owned_order_value(&v)),
                ascending: *asc,
            });
        }
        out_rows.push((out, keys));
    }

    finish_table(plan, out_rows)
}

/// Replace [`CExpr::AggregateRef`] leaves with the group's computed
/// aggregate terms (an unbound aggregate becomes an always-erroring slot
/// reference far past any real slot, dropping the group).
fn substitute_aggregates(expr: &CExpr, values: &[Option<Term>]) -> CExpr {
    match expr {
        CExpr::AggregateRef(idx) => match values.get(*idx).cloned().flatten() {
            Some(term) => CExpr::Constant(term),
            None => CExpr::Slot(usize::MAX),
        },
        CExpr::Slot(_) | CExpr::Constant(_) | CExpr::Exists(_, _) => expr.clone(),
        CExpr::Or(a, b) => CExpr::Or(
            Box::new(substitute_aggregates(a, values)),
            Box::new(substitute_aggregates(b, values)),
        ),
        CExpr::And(a, b) => CExpr::And(
            Box::new(substitute_aggregates(a, values)),
            Box::new(substitute_aggregates(b, values)),
        ),
        CExpr::Not(a) => CExpr::Not(Box::new(substitute_aggregates(a, values))),
        CExpr::Compare(op, a, b) => CExpr::Compare(
            *op,
            Box::new(substitute_aggregates(a, values)),
            Box::new(substitute_aggregates(b, values)),
        ),
        CExpr::Arith(op, a, b) => CExpr::Arith(
            *op,
            Box::new(substitute_aggregates(a, values)),
            Box::new(substitute_aggregates(b, values)),
        ),
        CExpr::Neg(a) => CExpr::Neg(Box::new(substitute_aggregates(a, values))),
        CExpr::Call(f, args) => CExpr::Call(
            *f,
            args.iter()
                .map(|a| substitute_aggregates(a, values))
                .collect(),
        ),
    }
}

/// Compute one aggregate over a group's rows.
fn eval_aggregate(
    ctx: &mut Ctx<'_>,
    func: crate::ast::AggFunc,
    arg: Option<&CExpr>,
    group: &[&Row],
) -> Option<Term> {
    use crate::ast::AggFunc;
    // Evaluate the argument per row (None argument = the row itself).
    let values: Vec<Value<'_>> = match arg {
        None => return Some(Term::lit_integer(group.len() as i64)),
        Some(expr) => {
            let mut vs = Vec::with_capacity(group.len());
            for row in group {
                let lookup =
                    |slot: usize| row.get(slot).copied().flatten().map(|id| ctx.resolve(id));
                if let Some(v) = eval_expr(expr, &lookup, &|_: usize| None) {
                    vs.push(v);
                }
            }
            vs
        }
    };
    match func {
        AggFunc::Count => Some(Term::lit_integer(values.len() as i64)),
        AggFunc::Sum | AggFunc::Avg => {
            let nums: Vec<f64> = values.iter().filter_map(Value::as_number).collect();
            if nums.is_empty() {
                return match func {
                    AggFunc::Sum => Some(Term::lit_integer(0)),
                    _ => None,
                };
            }
            let sum: f64 = nums.iter().sum();
            let result = if func == AggFunc::Sum {
                sum
            } else {
                sum / nums.len() as f64
            };
            Some(Term::lit_double(result))
        }
        AggFunc::Min | AggFunc::Max => {
            let mut best: Option<&Value<'_>> = None;
            for v in &values {
                best = match best {
                    None => Some(v),
                    Some(b) => {
                        let ord = order_values(Some(v), Some(b));
                        let take = if func == AggFunc::Min {
                            ord == std::cmp::Ordering::Less
                        } else {
                            ord == std::cmp::Ordering::Greater
                        };
                        Some(if take { v } else { b })
                    }
                };
            }
            best.map(|v| value_to_term(v))
        }
    }
}

/// Shared tail of materialization: sort, distinct, slice, build the table.
fn finish_table(
    plan: &Plan,
    mut materialized: Vec<(Vec<Option<Term>>, Vec<OrderKey>)>,
) -> Result<ResultTable, SparqlError> {
    if !plan.order_by.is_empty() {
        materialized.sort_by(|(_, ka), (_, kb)| {
            for (a, b) in ka.iter().zip(kb) {
                let ord = order_values(
                    a.value.as_ref().map(owned_to_value).as_ref(),
                    b.value.as_ref().map(owned_to_value).as_ref(),
                );
                let ord = if a.ascending { ord } else { ord.reverse() };
                if ord != std::cmp::Ordering::Equal {
                    return ord;
                }
            }
            std::cmp::Ordering::Equal
        });
    }
    let mut out_rows: Vec<Vec<Option<Term>>> = materialized.into_iter().map(|(r, _)| r).collect();
    if plan.distinct {
        let mut seen = std::collections::HashSet::new();
        out_rows.retain(|r| seen.insert(r.clone()));
    }
    if let Some(offset) = plan.offset {
        out_rows.drain(..offset.min(out_rows.len()));
    }
    if let Some(limit) = plan.limit {
        out_rows.truncate(limit);
    }
    let vars = plan.projection.iter().map(|(_, n)| n.clone()).collect();
    Ok(ResultTable::new(vars, out_rows))
}

/// Evaluate only the `EXISTS` subpatterns `refs` names, seeded with `row`;
/// non-referenced indices stay `None`.
fn eval_exists_refs(
    ctx: &mut Ctx<'_>,
    plan: &Plan,
    refs: &[usize],
    row: &Row,
) -> Vec<Option<bool>> {
    let mut results = vec![None; plan.exists_nodes.len()];
    for &idx in refs {
        if let Some(node) = plan.exists_nodes.get(idx) {
            results[idx] = eval_node(ctx, node, plan, row)
                .map(|rs| !rs.is_empty())
                .ok();
        }
    }
    results
}

/// The exists indices referenced by an expression (cached per filter).
fn exists_refs(expr: &CExpr) -> Vec<usize> {
    let mut refs = Vec::new();
    collect_exists_refs(expr, &mut refs);
    refs
}

/// Convert a computed expression value into a term for projection / BIND.
fn value_to_term(v: &Value<'_>) -> Term {
    match v {
        Value::Term(t) => t.as_ref().clone(),
        Value::Number(n) => Term::lit_double(*n),
        Value::Boolean(b) => Term::lit_bool(*b),
        Value::Str(s) => Term::lit_str(s.as_ref()),
    }
}

/// Evaluate a pattern node. `seed` supplies pre-bound slots: the all-None
/// row at the top level, the enclosing row for `EXISTS` subpatterns.
fn eval_node(
    ctx: &mut Ctx<'_>,
    node: &Node,
    plan: &Plan,
    seed: &Row,
) -> Result<Vec<Row>, SparqlError> {
    match node {
        Node::Unit => Ok(vec![seed.clone()]),
        Node::Bgp(patterns) => eval_bgp(ctx, patterns, seed),
        Node::Join(a, b) => {
            let left = eval_node(ctx, a, plan, seed)?;
            if left.is_empty() {
                return Ok(left);
            }
            let right = eval_node(ctx, b, plan, seed)?;
            join_rows(&left, &right, ctx.budget)
        }
        Node::LeftJoin(a, b) => {
            let left = eval_node(ctx, a, plan, seed)?;
            if left.is_empty() {
                return Ok(left);
            }
            let right = eval_node(ctx, b, plan, seed)?;
            let mut out = Vec::new();
            for l in &left {
                let mut matched = false;
                for r in &right {
                    ctx.budget.charge(1)?;
                    if let Some(merged) = merge_rows(l, r) {
                        out.push(merged);
                        matched = true;
                    }
                }
                if !matched {
                    out.push(l.clone());
                }
            }
            Ok(out)
        }
        Node::Union(a, b) => {
            let mut left = eval_node(ctx, a, plan, seed)?;
            let right = eval_node(ctx, b, plan, seed)?;
            left.extend(right);
            Ok(left)
        }
        Node::Filter(expr, inner) => {
            let rows = eval_node(ctx, inner, plan, seed)?;
            filter_rows(ctx, plan, expr, rows)
        }
        Node::Extend(inner, slot, expr) => {
            let rows = eval_node(ctx, inner, plan, seed)?;
            let refs = exists_refs(expr);
            let mut out = Vec::with_capacity(rows.len());
            for mut row in rows {
                ctx.budget.charge(1)?;
                let computed = {
                    let exists_results = eval_exists_refs(ctx, plan, &refs, &row);
                    let lookup = |s: usize| row.get(s).copied().flatten().map(|id| ctx.resolve(id));
                    let exists = |idx: usize| exists_results.get(idx).copied().flatten();
                    eval_expr(expr, &lookup, &exists).map(|v| value_to_term(&v))
                };
                // BIND on error leaves the variable unbound (per spec).
                if let Some(term) = computed {
                    let id = ctx.intern(&term);
                    row[*slot] = Some(id);
                }
                out.push(row);
            }
            Ok(out)
        }
    }
}

/// Merge two rows if compatible (no conflicting bindings).
fn merge_rows(a: &Row, b: &Row) -> Option<Row> {
    let mut out = a.clone();
    for (slot, rb) in b.iter().enumerate() {
        match (out[slot], rb) {
            (Some(x), Some(y)) if x != *y => return None,
            (None, Some(y)) => out[slot] = Some(*y),
            _ => {}
        }
    }
    Some(out)
}

fn join_rows(left: &[Row], right: &[Row], budget: &Budget) -> Result<Vec<Row>, SparqlError> {
    let mut out = Vec::new();
    for l in left {
        for r in right {
            budget.charge(1)?;
            if let Some(m) = merge_rows(l, r) {
                out.push(m);
            }
        }
    }
    Ok(out)
}

fn eval_bgp(
    ctx: &mut Ctx<'_>,
    patterns: &[TriplePlan],
    seed: &Row,
) -> Result<Vec<Row>, SparqlError> {
    let bound = seed.iter().map(Option::is_some).collect();
    let mut rows: Vec<Row> = vec![seed.clone()];
    for step in BgpSteps::new(ctx.graph, patterns, bound, ctx.options) {
        rows = match_pattern(ctx, &step, rows)?;
        if ctx.options.optimize {
            ctx.trace.record(&step, rows.len());
        }
        if rows.is_empty() {
            break;
        }
    }
    Ok(rows)
}

fn match_pattern(
    ctx: &mut Ctx<'_>,
    step: &Step<'_>,
    rows: Vec<Row>,
) -> Result<Vec<Row>, SparqlError> {
    let tp = step.pattern;
    // Resolve constant endpoints once.
    let const_s = match &tp.subject {
        PlanNodePattern::Term(t) => Some(ctx.intern(t)),
        PlanNodePattern::Var(_) => None,
    };
    let const_o = match &tp.object {
        PlanNodePattern::Term(t) => Some(ctx.intern(t)),
        PlanNodePattern::Var(_) => None,
    };
    let endpoints = |row: &Row| {
        let bound = |n: &PlanNodePattern, constant: Option<TermId>| match n {
            PlanNodePattern::Var(v) => row[*v],
            PlanNodePattern::Term(_) => constant,
        };
        (bound(&tp.subject, const_s), bound(&tp.object, const_o))
    };

    let mut out = Vec::new();
    match step.access {
        Access::Index(_) => {
            // A plain predicate resolves once (`None`: absent from the
            // graph); a variable one (`?s ?p ?o`) is read from each row
            // and bound per match.
            let plain = match &tp.path {
                Path::Iri(iri) => Some(ctx.graph.term_id(&Term::iri(iri.clone()))),
                _ => None,
            };
            for row in rows {
                ctx.budget.charge(1)?;
                let p = match plain {
                    Some(Some(p)) => Some(p),
                    Some(None) => return Ok(Vec::new()),
                    None => tp.path_var.and_then(|pv| row[pv]),
                };
                let (s, o) = endpoints(&row);
                // An id outside the graph can never match a stored triple.
                if [s, p, o].iter().flatten().any(|&id| !ctx.in_graph(id)) {
                    continue;
                }
                for [ms, mp, mo] in ctx.graph.matching_ids(s, p, o) {
                    ctx.budget.charge(1)?;
                    if let Some(mut new_row) = extend_row(&row, tp, ms, mo) {
                        if let Some(pv) = tp.path_var {
                            new_row[pv] = Some(mp);
                        }
                        out.push(new_row);
                    }
                }
            }
        }
        Access::Path(direction) => {
            // Endpoints outside the graph can only satisfy zero-length
            // paths; the path engine handles that case itself.
            let path = compile_path(ctx.graph, &tp.path);
            for row in rows {
                ctx.budget.charge(1)?;
                let (s, o) = endpoints(&row);
                let pairs = eval_path(ctx.graph, &path, s, o, ctx.budget, direction);
                // The path engine bails out silently on exhaustion; turn
                // the latched flag into the typed error here.
                ctx.budget.check()?;
                for (ms, mo) in pairs {
                    ctx.budget.charge(1)?;
                    out.extend(extend_row(&row, tp, ms, mo));
                }
            }
        }
    }
    Ok(out)
}

/// Extend `row` with the matched endpoints, respecting repeated variables
/// (e.g. `?x <p> ?x` only matches when both ends are equal).
fn extend_row(row: &Row, tp: &TriplePlan, ms: TermId, mo: TermId) -> Option<Row> {
    let mut new_row = row.clone();
    for (node, id) in [(&tp.subject, ms), (&tp.object, mo)] {
        if let PlanNodePattern::Var(v) = node {
            match new_row[*v] {
                Some(existing) if existing != id => return None,
                _ => new_row[*v] = Some(id),
            }
        }
    }
    Some(new_row)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{execute, parse_query};
    use optimatch_rdf::GraphBuilder;

    /// The Figure-1 plan as a graph: NLJOIN(2) with FETCH(3) outer (over
    /// IXSCAN(4) over SALES_FACT) and TBSCAN(5) inner over CUST_DIM.
    fn fig1_graph() -> Graph {
        let mut g = GraphBuilder::new();
        let pred = |n: &str| Term::iri(format!("http://optimatch/pred#{n}"));
        let pop = |n: u32| Term::iri(format!("http://optimatch/qep#pop{n}"));
        let t = |s: &str| Term::lit_str(s);

        g.insert(pop(2), pred("hasPopType"), t("NLJOIN"));
        g.insert(pop(2), pred("hasEstimateCardinality"), t("1251.0"));
        g.insert(pop(3), pred("hasPopType"), t("FETCH"));
        g.insert(pop(4), pred("hasPopType"), t("IXSCAN"));
        g.insert(pop(5), pred("hasPopType"), t("TBSCAN"));
        g.insert(pop(5), pred("hasEstimateCardinality"), t("4043.0"));
        g.insert(pop(5), pred("hasTotalCost"), t("15771.0"));
        // Streams (direct edges here; the blank-node convention is exercised
        // by optimatch-core's transform tests).
        g.insert(pop(2), pred("hasOuterInputStream"), pop(3));
        g.insert(pop(2), pred("hasInnerInputStream"), pop(5));
        g.insert(pop(3), pred("hasInputStream"), pop(4));
        g.insert(pop(4), pred("hasInputStream"), pop(6));
        g.insert(pop(5), pred("hasInputStream"), pop(7));
        g.insert(pop(6), pred("isABaseObj"), Term::lit_str("SALES_FACT"));
        g.insert(pop(7), pred("isABaseObj"), Term::lit_str("CUST_DIM"));
        g.build()
    }

    const PFX: &str = "PREFIX p: <http://optimatch/pred#>\n";

    fn compiled(q: &str) -> Plan {
        crate::algebra::translate(&parse_query(q).unwrap()).unwrap()
    }

    #[test]
    fn bgp_with_filter_matches_pattern_a_shape() {
        let g = fig1_graph();
        let q = format!(
            "{PFX}SELECT ?join ?inner WHERE {{
                ?join p:hasPopType \"NLJOIN\" .
                ?join p:hasInnerInputStream ?inner .
                ?inner p:hasPopType \"TBSCAN\" .
                ?inner p:hasEstimateCardinality ?card .
                FILTER (?card > 100)
            }}"
        );
        let t = execute(&g, &q).unwrap();
        assert_eq!(t.len(), 1);
        assert_eq!(
            t.get(0, "inner"),
            Some(&Term::iri("http://optimatch/qep#pop5"))
        );
    }

    #[test]
    fn filter_excludes_on_threshold() {
        let g = fig1_graph();
        let q = format!(
            "{PFX}SELECT ?inner WHERE {{
                ?inner p:hasPopType \"TBSCAN\" .
                ?inner p:hasEstimateCardinality ?card .
                FILTER (?card > 5000)
            }}"
        );
        assert!(execute(&g, &q).unwrap().is_empty());
    }

    #[test]
    fn descendant_path_reaches_base_object() {
        let g = fig1_graph();
        // From the NLJOIN, any stream descendant that is a base object.
        let q = format!(
            "{PFX}SELECT ?base WHERE {{
                ?join p:hasPopType \"NLJOIN\" .
                ?join (p:hasOuterInputStream|p:hasInnerInputStream|p:hasInputStream)+ ?d .
                ?d p:isABaseObj ?base .
            }} ORDER BY ?base"
        );
        let t = execute(&g, &q).unwrap();
        let names: Vec<_> = (0..t.len())
            .map(|i| t.get(i, "base").unwrap().display_text().into_owned())
            .collect();
        assert_eq!(names, vec!["CUST_DIM", "SALES_FACT"]);
    }

    #[test]
    fn optional_keeps_unmatched_rows() {
        let g = fig1_graph();
        let q = format!(
            "{PFX}SELECT ?pop ?cost WHERE {{
                ?pop p:hasPopType \"FETCH\" .
                OPTIONAL {{ ?pop p:hasTotalCost ?cost . }}
            }}"
        );
        let t = execute(&g, &q).unwrap();
        assert_eq!(t.len(), 1);
        assert_eq!(t.get(0, "cost"), None);
    }

    #[test]
    fn union_combines_branches() {
        let g = fig1_graph();
        let q = format!(
            "{PFX}SELECT ?pop WHERE {{
                {{ ?pop p:hasPopType \"TBSCAN\" . }} UNION {{ ?pop p:hasPopType \"IXSCAN\" . }}
            }} ORDER BY ?pop"
        );
        let t = execute(&g, &q).unwrap();
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn bind_and_expression_projection() {
        let g = fig1_graph();
        let q = format!(
            "{PFX}SELECT ?doubled WHERE {{
                ?pop p:hasPopType \"TBSCAN\" .
                ?pop p:hasEstimateCardinality ?card .
                BIND (?card * 2 AS ?doubled)
            }}"
        );
        let t = execute(&g, &q).unwrap();
        assert_eq!(t.get(0, "doubled").unwrap().numeric_value(), Some(8086.0));
    }

    #[test]
    fn alias_projection_renames_columns() {
        let g = fig1_graph();
        let q = format!("{PFX}SELECT ?pop1 AS ?TOP WHERE {{ ?pop1 p:hasPopType \"NLJOIN\" . }}");
        let t = execute(&g, &q).unwrap();
        assert_eq!(t.vars(), ["TOP"]);
        assert!(t.get(0, "TOP").is_some());
    }

    #[test]
    fn distinct_limit_offset() {
        let g = fig1_graph();
        let q = format!(
            "{PFX}SELECT DISTINCT ?type WHERE {{ ?pop p:hasPopType ?type . }} ORDER BY ?type"
        );
        let t = execute(&g, &q).unwrap();
        assert_eq!(t.len(), 4); // NLJOIN FETCH IXSCAN TBSCAN
        let q2 = format!(
            "{PFX}SELECT DISTINCT ?type WHERE {{ ?pop p:hasPopType ?type . }}
             ORDER BY ?type LIMIT 2 OFFSET 1"
        );
        let t2 = execute(&g, &q2).unwrap();
        assert_eq!(t2.len(), 2);
        assert_eq!(t2.get(0, "type").unwrap().display_text(), "IXSCAN");
    }

    #[test]
    fn order_by_desc_numeric() {
        let g = fig1_graph();
        let q = format!(
            "{PFX}SELECT ?pop WHERE {{ ?pop p:hasEstimateCardinality ?c . }} ORDER BY DESC(?c)"
        );
        let t = execute(&g, &q).unwrap();
        // 4043 (pop5) before 1251 (pop2).
        assert_eq!(
            t.get(0, "pop"),
            Some(&Term::iri("http://optimatch/qep#pop5"))
        );
    }

    #[test]
    fn repeated_variable_requires_equality() {
        let mut g = GraphBuilder::new();
        g.insert(Term::iri("a"), Term::iri("p:self"), Term::iri("a"));
        g.insert(Term::iri("b"), Term::iri("p:self"), Term::iri("c"));
        let g = g.build();
        let t = execute(&g, "SELECT ?x WHERE { ?x <p:self> ?x . }").unwrap();
        assert_eq!(t.len(), 1);
        assert_eq!(t.get(0, "x"), Some(&Term::iri("a")));
    }

    #[test]
    fn constant_not_in_graph_matches_nothing() {
        let g = fig1_graph();
        let q = format!("{PFX}SELECT ?pop WHERE {{ ?pop p:hasPopType \"ZZJOIN\" . }}");
        assert!(execute(&g, &q).unwrap().is_empty());
        // Unknown predicate too.
        let q = format!("{PFX}SELECT ?pop WHERE {{ ?pop p:neverSeen ?x . }}");
        assert!(execute(&g, &q).unwrap().is_empty());
    }

    #[test]
    fn reorder_and_source_order_agree() {
        let g = fig1_graph();
        let q = format!(
            "{PFX}SELECT ?join ?base WHERE {{
                ?d p:isABaseObj ?base .
                ?join (p:hasOuterInputStream|p:hasInnerInputStream|p:hasInputStream)+ ?d .
                ?join p:hasPopType \"NLJOIN\" .
            }} ORDER BY ?base"
        );
        let plan = compiled(&q);
        let run = |optimize| {
            evaluate(&g, &plan, PlanOptions { optimize }, &Budget::unlimited())
                .unwrap()
                .0
        };
        let (with, without) = (run(true), run(false));
        assert_eq!(with, without);
        assert_eq!(with.len(), 2);
    }

    #[test]
    fn exists_and_not_exists_filters() {
        let g = fig1_graph();
        // TBSCAN(5) carries a total cost statement: EXISTS sees it.
        let q = format!(
            "{PFX}SELECT ?pop WHERE {{
                ?pop p:hasPopType \"TBSCAN\" .
                FILTER EXISTS {{ ?pop p:hasTotalCost ?t . }}
            }}"
        );
        let t = execute(&g, &q).unwrap();
        assert_eq!(t.len(), 1);

        // NOT EXISTS: TBSCAN has a total cost, so it is filtered out...
        let q_not = format!(
            "{PFX}SELECT ?pop WHERE {{
                ?pop p:hasPopType \"TBSCAN\" .
                FILTER NOT EXISTS {{ ?pop p:hasTotalCost ?t . }}
            }}"
        );
        assert!(execute(&g, &q_not).unwrap().is_empty());

        // ...while FETCH(3), which has none in this fixture, survives the
        // same absence check — the cartesian-product-style test only
        // NOT EXISTS can express.
        let q_fetch = format!(
            "{PFX}SELECT ?pop WHERE {{
                ?pop p:hasPopType \"FETCH\" .
                FILTER NOT EXISTS {{ ?pop p:hasTotalCost ?t . }}
            }}"
        );
        assert_eq!(execute(&g, &q_fetch).unwrap().len(), 1);
    }

    #[test]
    fn exists_sees_outer_bindings() {
        let g = fig1_graph();
        // The subpattern must correlate on ?pop: only rows whose own
        // cardinality clears the bar survive.
        let q = format!(
            "{PFX}SELECT ?pop WHERE {{
                ?pop p:hasPopType ?ty .
                FILTER EXISTS {{ ?pop p:hasEstimateCardinality ?c . FILTER (?c > 2000) }}
            }}"
        );
        let t = execute(&g, &q).unwrap();
        // Only TBSCAN(5) (card 4043) qualifies.
        assert_eq!(t.len(), 1);
        assert_eq!(
            t.get(0, "pop"),
            Some(&Term::iri("http://optimatch/qep#pop5"))
        );
    }

    #[test]
    fn count_star_over_workload_question() {
        // The paper intro: "how many queries do an index scan access on
        // the table" — per plan this is a COUNT of IXSCANs.
        let g = fig1_graph();
        let q = format!("{PFX}SELECT (COUNT(*) AS ?n) WHERE {{ ?pop p:hasPopType \"IXSCAN\" . }}");
        let t = execute(&g, &q).unwrap();
        assert_eq!(t.len(), 1);
        assert_eq!(t.get(0, "n").unwrap().numeric_value(), Some(1.0));

        // COUNT over an empty match is 0, not an empty table.
        let q = format!("{PFX}SELECT (COUNT(*) AS ?n) WHERE {{ ?pop p:hasPopType \"ZZJOIN\" . }}");
        let t = execute(&g, &q).unwrap();
        assert_eq!(t.get(0, "n").unwrap().numeric_value(), Some(0.0));
    }

    #[test]
    fn group_by_with_count_and_sum() {
        let mut g = GraphBuilder::new();
        let card = Term::iri("p:card");
        let ty = Term::iri("p:type");
        for (name, t, c) in [
            ("a", "TBSCAN", 10.0),
            ("b", "TBSCAN", 30.0),
            ("c", "IXSCAN", 5.0),
        ] {
            g.insert(Term::iri(name), ty.clone(), Term::lit_str(t));
            g.insert(Term::iri(name), card.clone(), Term::lit_double(c));
        }
        let g = g.build();
        let q = "SELECT ?t (COUNT(?pop) AS ?n) (SUM(?c) AS ?total) (AVG(?c) AS ?mean)
                 WHERE { ?pop <p:type> ?t . ?pop <p:card> ?c . }
                 GROUP BY ?t ORDER BY ?t";
        let t = execute(&g, q).unwrap();
        assert_eq!(t.len(), 2);
        // IXSCAN group first alphabetically.
        assert_eq!(t.get(0, "t").unwrap().display_text(), "IXSCAN");
        assert_eq!(t.get(0, "n").unwrap().numeric_value(), Some(1.0));
        assert_eq!(t.get(1, "t").unwrap().display_text(), "TBSCAN");
        assert_eq!(t.get(1, "n").unwrap().numeric_value(), Some(2.0));
        assert_eq!(t.get(1, "total").unwrap().numeric_value(), Some(40.0));
        assert_eq!(t.get(1, "mean").unwrap().numeric_value(), Some(20.0));
    }

    #[test]
    fn min_max_aggregates() {
        let g = fig1_graph();
        let q = format!(
            "{PFX}SELECT (MIN(?c) AS ?lo) (MAX(?c) AS ?hi)
             WHERE {{ ?pop p:hasEstimateCardinality ?c . }}"
        );
        let t = execute(&g, &q).unwrap();
        assert_eq!(t.get(0, "lo").unwrap().numeric_value(), Some(1251.0));
        assert_eq!(t.get(0, "hi").unwrap().numeric_value(), Some(4043.0));
    }

    #[test]
    fn aggregate_misuse_is_rejected() {
        let g = fig1_graph();
        // Projecting a non-grouped variable alongside an aggregate.
        let q = format!("{PFX}SELECT ?pop (COUNT(*) AS ?n) WHERE {{ ?pop p:hasPopType ?t . }}");
        assert!(execute(&g, &q).is_err());
        // Nested aggregate in an arithmetic expression.
        let q = format!("{PFX}SELECT (COUNT(*) * 2 AS ?n) WHERE {{ ?pop p:hasPopType ?t . }}");
        assert!(execute(&g, &q).is_err());
        // SELECT * with GROUP BY.
        let q = format!("{PFX}SELECT * WHERE {{ ?pop p:hasPopType ?t . }} GROUP BY ?t");
        assert!(execute(&g, &q).is_err());
    }

    #[test]
    fn tiny_fuel_budget_yields_typed_error() {
        let g = fig1_graph();
        let q = format!(
            "{PFX}SELECT ?base WHERE {{
                ?join p:hasPopType \"NLJOIN\" .
                ?join (p:hasOuterInputStream|p:hasInnerInputStream|p:hasInputStream)+ ?d .
                ?d p:isABaseObj ?base .
            }}"
        );
        let plan = compiled(&q);
        let budget = Budget::limited(Some(3), None);
        let err = evaluate(&g, &plan, PlanOptions::default(), &budget).unwrap_err();
        assert!(
            matches!(
                err,
                SparqlError::BudgetExceeded {
                    cause: crate::BudgetCause::Fuel,
                    ..
                }
            ),
            "got {err:?}"
        );
    }

    #[test]
    fn sufficient_budget_is_observational() {
        let g = fig1_graph();
        let q = format!(
            "{PFX}SELECT ?base WHERE {{
                ?join p:hasPopType \"NLJOIN\" .
                ?join (p:hasOuterInputStream|p:hasInnerInputStream|p:hasInputStream)+ ?d .
                ?d p:isABaseObj ?base .
            }} ORDER BY ?base"
        );
        let plan = compiled(&q);
        let run = |budget: &Budget| {
            evaluate(&g, &plan, PlanOptions::default(), budget)
                .unwrap()
                .0
        };
        let unbudgeted = run(&Budget::unlimited());
        let budget = Budget::limited(Some(u64::MAX), None);
        let budgeted = run(&budget);
        assert_eq!(unbudgeted, budgeted);
        assert!(budget.spent() > 0, "evaluation must charge the budget");
    }

    #[test]
    fn zero_deadline_yields_deadline_cause() {
        let g = fig1_graph();
        let q = format!("{PFX}SELECT ?pop WHERE {{ ?pop p:hasPopType ?t . }}");
        let plan = compiled(&q);
        let budget = Budget::limited(None, Some(std::time::Duration::ZERO));
        let err = evaluate(&g, &plan, PlanOptions::default(), &budget).unwrap_err();
        assert!(
            matches!(
                err,
                SparqlError::BudgetExceeded {
                    cause: crate::BudgetCause::Deadline,
                    ..
                }
            ),
            "got {err:?}"
        );
    }

    #[test]
    fn join_of_two_groups() {
        let g = fig1_graph();
        let q = format!(
            "{PFX}SELECT ?a ?b WHERE {{
                {{ ?a p:hasPopType \"NLJOIN\" . }}
                {{ ?a p:hasInnerInputStream ?b . }}
            }}"
        );
        let t = execute(&g, &q).unwrap();
        assert_eq!(t.len(), 1);
    }

    /// Two queries that differ only in a FILTER constant share a core: the
    /// second's tail over the first's core rows, on the core's budget,
    /// gives exactly its own evaluation's table, trace and fuel.
    #[test]
    fn a_tail_over_a_shared_core_equals_its_own_evaluation() {
        let g = fig1_graph();
        let query = |threshold: u32| {
            compiled(&format!(
                "{PFX}SELECT ?pop WHERE {{
                    ?pop p:hasPopType ?t .
                    ?pop p:hasEstimateCardinality ?c .
                    FILTER (?c > {threshold})
                    FILTER NOT EXISTS {{ ?pop p:hasTotalCost ?cost . }}
                }}"
            ))
        };
        let (low, high) = (query(1000), query(2000));
        assert!(low.same_core(&high));
        let options = PlanOptions::default();
        let core_budget = Budget::unlimited();
        let core = evaluate_core(&g, &low, options, &core_budget).unwrap();
        for plan in [&low, &high] {
            let alone = Budget::unlimited();
            let expected = evaluate(&g, plan, options, &alone).unwrap();
            let budget = core_budget.clone();
            assert_eq!(
                evaluate_tail(&g, plan, &core, options, &budget).unwrap(),
                expected
            );
            assert_eq!(budget.spent(), alone.spent());
        }
    }

    #[test]
    fn cores_differ_in_their_patterns_or_their_slots() {
        let plan = |body: &str| compiled(&format!("{PFX}SELECT ?pop WHERE {{ {body} }}"));
        let base = plan("?pop p:hasPopType ?t . ?pop p:hasTotalCost ?c . FILTER (?c > 1)");
        // Filters and projection are tail: they never split a core.
        let other_tail = plan("?pop p:hasPopType ?t . ?pop p:hasTotalCost ?c . FILTER (?c < 9)");
        assert!(base.same_core(&other_tail));
        assert_eq!(base.core(), other_tail.core());
        // Another BGP, or a FILTER that introduces a slot, does.
        let other_bgp = plan("?pop p:hasPopType ?t . ?pop p:hasIOCost ?c . FILTER (?c > 1)");
        assert!(!base.same_core(&other_bgp));
        let wider = plan(
            "?pop p:hasPopType ?t . ?pop p:hasTotalCost ?c .
             FILTER NOT EXISTS { ?pop p:hasIOCost ?io . }",
        );
        assert!(!base.same_core(&wider));
        // A FILTER inside an OPTIONAL is core.
        let inner = |n: u32| {
            plan(&format!(
                "?pop p:hasPopType ?t . OPTIONAL {{ ?pop p:hasTotalCost ?c . FILTER (?c > {n}) }}"
            ))
        };
        assert!(!inner(1).same_core(&inner(2)));
    }
}
