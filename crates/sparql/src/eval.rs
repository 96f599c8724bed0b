//! Plan evaluation against a graph.
//!
//! The evaluator works on term ids from the first BGP step to its caller.
//! A solution set is one flat table (`Rows`): each row is a slice of
//! `Option<TermId>`s, one per variable slot, and the table counts its rows,
//! so rows of no slots count too. Each BGP step reads one table and
//! appends to a second, and the two swap; joins, unions, BINDs and FILTERs
//! run over row slices, and an `EXISTS` subpattern is seeded from one.
//!
//! Query constants and computed values the graph lacks are interned into
//! an *overlay pool* (ids past the graph pool's length), each with its
//! number, read once when it is interned. BGP matching knows an overlay
//! id can never match a stored triple; a FILTER reads a bound literal's
//! number from the graph's numeric column ([`Graph::number`]) or the
//! overlay, never from its text. The pool and the overlay are
//! deduplicated and disjoint, so equal ids are equal terms, and
//! projection, DISTINCT and slicing stay on ids too.
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
//! over them and returns [`Solutions`], the projected ids with what
//! resolves them. Plans whose cores are equal ([`Plan::same_core`]) can
//! share one core's rows; each tail then charges its budget exactly as the
//! whole evaluation would. Only [`evaluate`] resolves the solutions into a
//! [`ResultTable`].

use std::borrow::Cow;
use std::cmp::Ordering;
use std::collections::{HashMap, HashSet};

use optimatch_rdf::numeric::parse_numeric;
use optimatch_rdf::{Graph, Term, TermId, TermPool};

use crate::algebra::{
    collect_exists_refs, CExpr, Node, Plan, PlanNodePattern, ProjExpr, TriplePlan,
};
use crate::ast::Path;
use crate::budget::Budget;
use crate::error::SparqlError;
use crate::expr::{eval_expr, order_values, term_text, truth, TermRef, Value};
use crate::path::{compile_path, eval_path};
use crate::plan::{Access, BgpSteps, EvalStats, PlanOptions, Step};
use crate::results::ResultTable;

/// A solution: one optional binding per variable slot.
type Row = [Option<TermId>];

/// A solution set: `len` rows of `width` slots each, in one flat table.
#[derive(Debug)]
struct Rows {
    width: usize,
    len: usize,
    slots: Vec<Option<TermId>>,
}

impl Rows {
    /// An empty table of `width` slots per row.
    fn new(width: usize) -> Rows {
        Rows {
            width,
            len: 0,
            slots: Vec::new(),
        }
    }

    /// A table holding `row` alone.
    fn one(row: &Row) -> Rows {
        Rows {
            width: row.len(),
            len: 1,
            slots: row.to_vec(),
        }
    }

    fn len(&self) -> usize {
        self.len
    }

    fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn row(&self, i: usize) -> &Row {
        &self.slots[i * self.width..(i + 1) * self.width]
    }

    fn iter(&self) -> impl Iterator<Item = &Row> + '_ {
        (0..self.len).map(|i| self.row(i))
    }

    fn push(&mut self, row: &Row) {
        self.slots.extend_from_slice(row);
        self.len += 1;
    }

    /// Append the row whose slots `slots` yields, `width` of them.
    fn extend_row(&mut self, slots: impl IntoIterator<Item = Option<TermId>>) {
        self.slots.extend(slots);
        self.len += 1;
        debug_assert_eq!(self.slots.len(), self.len * self.width);
    }

    /// Append a copy of `row` that `bind` then completes; `bind` returning
    /// false (an incompatible binding) takes the copy back out.
    fn push_bound(&mut self, row: &Row, bind: impl FnOnce(&mut Row) -> bool) -> bool {
        let start = self.slots.len();
        self.slots.extend_from_slice(row);
        let kept = bind(&mut self.slots[start..]);
        if kept {
            self.len += 1;
        } else {
            self.slots.truncate(start);
        }
        kept
    }

    /// Keep the first `len` rows.
    fn truncate(&mut self, len: usize) {
        self.slots.truncate(len * self.width);
        self.len = self.len.min(len);
    }

    fn clear(&mut self) {
        self.truncate(0);
    }
}

/// Terms the graph lacks, interned past the graph pool's length, each
/// with its [`Term::numeric_value`].
#[derive(Debug, Clone, Default)]
struct Overlay {
    pool: TermPool,
    numbers: Vec<Option<f64>>,
}

/// What an evaluation's ids stand for: the graph's pool, then the overlay
/// past its end.
#[derive(Debug)]
struct Terms<'g> {
    graph: &'g Graph,
    graph_terms: usize,
    /// Borrowed from the core until a tail interns a term of its own.
    overlay: Cow<'g, Overlay>,
}

impl<'g> Terms<'g> {
    fn new(graph: &'g Graph, overlay: Cow<'g, Overlay>) -> Terms<'g> {
        Terms {
            graph,
            graph_terms: graph.pool().len(),
            overlay,
        }
    }

    /// Intern a term: graph id when present, overlay id otherwise.
    fn intern(&mut self, term: Cow<'_, Term>) -> TermId {
        if let Some(id) = self.graph.term_id(&term) {
            return id;
        }
        let local = match self.overlay.pool.get(&term) {
            Some(local) => local,
            None => {
                let overlay = self.overlay.to_mut();
                overlay.numbers.push(term.numeric_value());
                overlay.pool.intern(term.into_owned())
            }
        };
        TermId(self.graph_terms as u32 + local.0)
    }

    /// True when the id refers to a term stored in the graph.
    fn in_graph(&self, id: TermId) -> bool {
        (id.0 as usize) < self.graph_terms
    }

    /// Resolve any id (graph or overlay) to its term.
    fn resolve(&self, id: TermId) -> &Term {
        match (id.0 as usize).checked_sub(self.graph_terms) {
            None => self.graph.term(id),
            Some(i) => self.overlay.pool.resolve(TermId(i as u32)),
        }
    }

    /// The term's number, from the graph's column or the overlay.
    fn number(&self, id: TermId) -> Option<f64> {
        match (id.0 as usize).checked_sub(self.graph_terms) {
            None => self.graph.number(id),
            Some(i) => self.overlay.numbers[i],
        }
    }

    /// What an expression reads of the term `slot` binds in `row`.
    fn get<'s>(&'s self, row: &Row, slot: usize) -> Option<TermRef<'s>> {
        let id = row.get(slot).copied().flatten()?;
        Some(TermRef {
            term: Cow::Borrowed(self.resolve(id)),
            id: Some(id),
            number: self.number(id),
        })
    }
}

/// Evaluation context: the terms, the planner options and trace, the
/// budget, and the `EXISTS` results of the row being evaluated.
struct Ctx<'g> {
    terms: Terms<'g>,
    /// Greedy or source-order BGP steps.
    options: PlanOptions,
    /// Planner decision counters accumulated during evaluation; empty in
    /// source order.
    trace: EvalStats,
    /// The evaluation budget; every row produced, triple matched, and join
    /// pair considered charges it.
    budget: &'g Budget,
    /// What each `EXISTS` subpattern found for the row being evaluated, by
    /// [`Plan::exists_nodes`] index. An expression evaluates the ones it
    /// names just before it reads them, so no slot it reads is stale; a
    /// nested subpattern writes only its own slots.
    exists: Vec<Option<bool>>,
}

impl<'g> Ctx<'g> {
    fn new(
        graph: &'g Graph,
        plan: &Plan,
        overlay: Cow<'g, Overlay>,
        trace: EvalStats,
        options: PlanOptions,
        budget: &'g Budget,
    ) -> Ctx<'g> {
        Ctx {
            terms: Terms::new(graph, overlay),
            options,
            trace,
            budget,
            exists: vec![None; plan.exists_nodes.len()],
        }
    }

    /// Evaluate `expr` on `row`, reading the `EXISTS` results evaluated
    /// for it.
    fn eval<'s>(&'s self, expr: &'s CExpr, row: &'s Row) -> Option<Value<'s>> {
        let get = |slot: usize| self.terms.get(row, slot);
        let exists = |idx: usize| self.exists.get(idx).copied().flatten();
        eval_expr(expr, &get, &exists)
    }

    /// Whether a FILTER over `expr` keeps `row`: its effective boolean
    /// value, an error dropping the row.
    fn holds(&self, expr: &CExpr, row: &Row) -> bool {
        let get = |slot: usize| self.terms.get(row, slot);
        let exists = |idx: usize| self.exists.get(idx).copied().flatten();
        truth(expr, &get, &exists).unwrap_or(false)
    }

    /// Evaluate `expr` on `row` to a term id, interning a computed value;
    /// `None` when the expression errs.
    fn eval_id(&mut self, expr: &CExpr, row: &Row) -> Option<TermId> {
        let term = match self.eval(expr, row)? {
            Value::Term(TermRef { id: Some(id), .. }) => return Some(id),
            value => value_to_term(&value),
        };
        Some(self.terms.intern(Cow::Owned(term)))
    }
}

/// The rows of a plan's core on one graph, with what a tail needs to go on
/// from them: the overlay the rows' ids may point into and the planner
/// trace so far. Built by [`evaluate_core`], read by [`evaluate_tail`].
#[derive(Debug)]
pub struct CoreRows {
    rows: Rows,
    overlay: Overlay,
    trace: EvalStats,
}

/// A plan's solutions on one graph as term ids, with what resolves them:
/// the graph's pool and the evaluation's overlay. Rows are in the order
/// the query's modifiers give.
#[derive(Debug)]
pub struct Solutions<'a> {
    plan: &'a Plan,
    terms: Terms<'a>,
    rows: Rows,
}

impl Solutions<'_> {
    /// Number of solutions.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when there are none.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The projected column names, in order.
    pub fn vars(&self) -> impl Iterator<Item = &str> + '_ {
        self.plan.projection.iter().map(|(_, name)| name.as_str())
    }

    /// Solution `i`'s terms, one per column, `None` where unbound.
    pub fn row(&self, i: usize) -> impl Iterator<Item = Option<&Term>> + '_ {
        let row = self.rows.row(i);
        row.iter().map(|id| id.map(|id| self.terms.resolve(id)))
    }

    /// The solutions resolved into owned terms; [`evaluate`] is the one
    /// caller.
    pub(crate) fn table(&self) -> ResultTable {
        let vars = self.vars().map(str::to_string).collect();
        let rows = (0..self.len())
            .map(|i| self.row(i).map(|term| term.cloned()).collect())
            .collect();
        ResultTable::new(vars, rows)
    }
}

/// Evaluate a compiled plan against a graph under [`PlanOptions`] and a
/// [`Budget`], returning the planner's decision trace alongside the
/// results: [`evaluate_tail`] over [`evaluate_core`], on one budget, with
/// the solutions resolved into a [`ResultTable`]. With `optimize: false`
/// the trace is empty and evaluation runs in source order (the
/// correctness oracle). Results do not depend on the budget while it
/// holds; exceeding it returns [`SparqlError::BudgetExceeded`] with the
/// accounting snapshot.
pub fn evaluate(
    graph: &Graph,
    plan: &Plan,
    options: PlanOptions,
    budget: &Budget,
) -> Result<(ResultTable, EvalStats), SparqlError> {
    let core = evaluate_core(graph, plan, options, budget)?;
    let (solutions, trace) = evaluate_tail(graph, plan, &core, options, budget)?;
    Ok((solutions.table(), trace))
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
    let mut ctx = Ctx::new(graph, plan, overlay, EvalStats::default(), options, budget);
    let rows = eval_node(&mut ctx, plan.core(), plan, &vec![None; plan.vars.len()])?;
    Ok(CoreRows {
        rows,
        overlay: ctx.terms.overlay.into_owned(),
        trace: ctx.trace,
    })
}

/// Run a plan's tail over its core's rows: the root's FILTERs, innermost
/// first, then projection, grouping, ORDER BY, DISTINCT and slicing. The
/// rows may come from another plan whose core is the same
/// ([`Plan::same_core`]). `budget` goes on from where the core left it, so
/// a tail charges and fails exactly as the whole evaluation would; the
/// trace returned is the core's plus the tail's. The tail copies the
/// core's overlay only if it interns a value of its own.
pub fn evaluate_tail<'a>(
    graph: &'a Graph,
    plan: &'a Plan,
    core: &'a CoreRows,
    options: PlanOptions,
    budget: &'a Budget,
) -> Result<(Solutions<'a>, EvalStats), SparqlError> {
    let overlay = Cow::Borrowed(&core.overlay);
    let mut ctx = Ctx::new(graph, plan, overlay, core.trace, options, budget);
    let mut rows: Vec<&Row> = core.rows.iter().collect();
    filter_tail(&mut ctx, plan, &plan.root, &mut rows)?;
    let has_aggregate = plan
        .projection
        .iter()
        .any(|(p, _)| matches!(p, ProjExpr::Aggregate(_, _)));
    let (projected, keys) = if has_aggregate || !plan.group_by.is_empty() {
        project_groups(&mut ctx, plan, &rows)
    } else {
        project(&mut ctx, plan, &rows)
    };
    let rows = modify(&ctx.terms, plan, projected, &keys);
    let solutions = Solutions {
        plan,
        terms: ctx.terms,
        rows,
    };
    Ok((solutions, ctx.trace))
}

/// Apply the FILTER chain from `node` down to the core, innermost first,
/// keeping the rows each one accepts.
fn filter_tail(
    ctx: &mut Ctx<'_>,
    plan: &Plan,
    node: &Node,
    rows: &mut Vec<&Row>,
) -> Result<(), SparqlError> {
    let Node::Filter(expr, inner) = node else {
        return Ok(());
    };
    filter_tail(ctx, plan, inner, rows)?;
    let refs = exists_refs(expr);
    let mut kept = 0;
    for i in 0..rows.len() {
        let row = rows[i];
        if keeps(ctx, plan, expr, &refs, row)? {
            rows[kept] = row;
            kept += 1;
        }
    }
    rows.truncate(kept);
    Ok(())
}

/// Keep the rows of `rows` that a FILTER accepts, in place.
fn filter_rows(
    ctx: &mut Ctx<'_>,
    plan: &Plan,
    expr: &CExpr,
    rows: &mut Rows,
) -> Result<(), SparqlError> {
    let refs = exists_refs(expr);
    let mut kept = 0;
    for i in 0..rows.len() {
        if keeps(ctx, plan, expr, &refs, rows.row(i))? {
            let width = rows.width;
            rows.slots
                .copy_within(i * width..(i + 1) * width, kept * width);
            kept += 1;
        }
    }
    rows.truncate(kept);
    Ok(())
}

/// Whether a FILTER keeps `row`, charging one step. The `EXISTS`
/// subpatterns it references (`refs`) re-enter the evaluator seeded with
/// the row first.
fn keeps(
    ctx: &mut Ctx<'_>,
    plan: &Plan,
    expr: &CExpr,
    refs: &[usize],
    row: &Row,
) -> Result<bool, SparqlError> {
    ctx.budget.charge(1)?;
    eval_exists_refs(ctx, plan, refs, row);
    Ok(ctx.holds(expr, row))
}

/// One solution's value of one ORDER BY key. It orders as
/// [`order_values`] orders the value read back from today's owned keys:
/// unbound first, then numbers (text that reads as one included), then
/// text. A bound term's text stays in the pool until the sort compares it.
enum SortKey {
    Unbound,
    Number(f64),
    Term(TermId),
    /// The text of a constant or a computed value.
    Text(String),
}

impl SortKey {
    fn of(value: Option<Value<'_>>) -> SortKey {
        let Some(value) = value else {
            return SortKey::Unbound;
        };
        if let Some(n) = value.as_number() {
            return SortKey::Number(n);
        }
        let text = value.as_str();
        if let Some(n) = text.as_deref().and_then(parse_numeric) {
            return SortKey::Number(n);
        }
        match &value {
            Value::Term(TermRef { id: Some(id), .. }) => SortKey::Term(*id),
            _ => SortKey::Text(text.map(Cow::into_owned).unwrap_or_default()),
        }
    }

    fn text<'t>(&'t self, terms: &'t Terms<'_>) -> &'t str {
        match self {
            SortKey::Term(id) => term_text(terms.resolve(*id)).unwrap_or(""),
            SortKey::Text(text) => text,
            SortKey::Unbound | SortKey::Number(_) => "",
        }
    }

    fn cmp(&self, other: &SortKey, terms: &Terms<'_>) -> Ordering {
        match (self, other) {
            (SortKey::Unbound, SortKey::Unbound) => Ordering::Equal,
            (SortKey::Unbound, _) => Ordering::Less,
            (_, SortKey::Unbound) => Ordering::Greater,
            (SortKey::Number(x), SortKey::Number(y)) => x.partial_cmp(y).unwrap_or(Ordering::Equal),
            (SortKey::Number(_), _) => Ordering::Less,
            (_, SortKey::Number(_)) => Ordering::Greater,
            _ => self.text(terms).cmp(other.text(terms)),
        }
    }
}

/// Each solution's projected ids, and its ORDER BY keys (`order_by.len()`
/// per solution).
fn project(ctx: &mut Ctx<'_>, plan: &Plan, rows: &[&Row]) -> (Rows, Vec<SortKey>) {
    // The EXISTS subpatterns the projection and the keys reference (usually
    // none), evaluated per solution first.
    let mut refs = Vec::new();
    for (proj, _) in &plan.projection {
        if let ProjExpr::Expr(e) = proj {
            collect_exists_refs(e, &mut refs);
        }
    }
    for (e, _) in &plan.order_by {
        collect_exists_refs(e, &mut refs);
    }
    let mut projected = Rows::new(plan.projection.len());
    projected.slots.reserve(rows.len() * projected.width);
    let mut keys = Vec::with_capacity(rows.len() * plan.order_by.len());
    for &row in rows {
        eval_exists_refs(ctx, plan, &refs, row);
        projected.extend_row(plan.projection.iter().map(|(proj, _)| match proj {
            ProjExpr::Slot(s) => row.get(*s).copied().flatten(),
            ProjExpr::Expr(e) => ctx.eval_id(e, row),
            // Aggregates divert to `project_groups`.
            ProjExpr::Aggregate(_, _) => unreachable!("handled by project_groups"),
        }));
        for (expr, _) in &plan.order_by {
            keys.push(SortKey::of(ctx.eval(expr, row)));
        }
    }
    (projected, keys)
}

/// Sort the projected solutions by their keys (a stable sort), drop
/// repeats under DISTINCT, then apply OFFSET and LIMIT.
fn modify(terms: &Terms<'_>, plan: &Plan, projected: Rows, keys: &[SortKey]) -> Rows {
    let width = plan.order_by.len();
    if width == 0 && !plan.distinct && plan.offset.is_none() && plan.limit.is_none() {
        return projected;
    }
    let mut order: Vec<usize> = (0..projected.len()).collect();
    if width > 0 {
        order.sort_by(|&a, &b| {
            let pairs = keys[a * width..(a + 1) * width]
                .iter()
                .zip(&keys[b * width..(b + 1) * width]);
            for ((ka, kb), (_, ascending)) in pairs.zip(&plan.order_by) {
                let ord = ka.cmp(kb, terms);
                let ord = if *ascending { ord } else { ord.reverse() };
                if ord != Ordering::Equal {
                    return ord;
                }
            }
            Ordering::Equal
        });
    }
    let mut seen = HashSet::new();
    let mut out = Rows::new(projected.width);
    let kept = order
        .into_iter()
        .map(|i| projected.row(i))
        .filter(|row| !plan.distinct || seen.insert(*row))
        .skip(plan.offset.unwrap_or(0))
        .take(plan.limit.unwrap_or(usize::MAX));
    for row in kept {
        out.push(row);
    }
    out
}

/// Group the solutions by the `GROUP BY` slots and project one row per
/// group, computing aggregates, with its ORDER BY keys. With no
/// `GROUP BY` the whole solution set is a single group (even when empty,
/// per SPARQL: `COUNT(*)` over no rows is 0). Expressions here read a
/// synthetic row that binds only the group key; `EXISTS` is an error.
fn project_groups(ctx: &mut Ctx<'_>, plan: &Plan, rows: &[&Row]) -> (Rows, Vec<SortKey>) {
    let mut order: Vec<Vec<Option<TermId>>> = Vec::new();
    let mut groups: HashMap<Vec<Option<TermId>>, Vec<&Row>> = HashMap::new();
    if plan.group_by.is_empty() {
        order.push(Vec::new());
        groups.insert(Vec::new(), rows.to_vec());
    } else {
        for &row in rows {
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

    let no_exists = |_: usize| None;
    let mut projected = Rows::new(plan.projection.len());
    let mut keys = Vec::new();
    for key in &order {
        let group = &groups[key];
        let mut synthetic: Vec<Option<TermId>> = vec![None; plan.vars.len()];
        for (slot, value) in plan.group_by.iter().zip(key) {
            synthetic[*slot] = *value;
        }
        // HAVING: the constraint with the group's aggregate values
        // substituted in, against the synthetic row.
        if let Some(having) = &plan.having {
            let agg_values: Vec<Option<Term>> = plan
                .having_aggregates
                .iter()
                .map(|(func, arg)| eval_aggregate(&ctx.terms, *func, arg.as_ref(), group))
                .collect();
            let substituted = substitute_aggregates(having, &agg_values);
            let get = |slot: usize| ctx.terms.get(&synthetic, slot);
            if !truth(&substituted, &get, &no_exists).unwrap_or(false) {
                continue;
            }
        }
        projected.extend_row(plan.projection.iter().map(|(proj, _)| match proj {
            ProjExpr::Slot(s) => synthetic.get(*s).copied().flatten(),
            // Validated unreachable under grouping, but evaluated against
            // the synthetic row for robustness.
            ProjExpr::Expr(e) => {
                let get = |slot: usize| ctx.terms.get(&synthetic, slot);
                let term = match eval_expr(e, &get, &no_exists)? {
                    Value::Term(TermRef { id: Some(id), .. }) => return Some(id),
                    value => value_to_term(&value),
                };
                Some(ctx.terms.intern(Cow::Owned(term)))
            }
            ProjExpr::Aggregate(func, arg) => {
                let term = eval_aggregate(&ctx.terms, *func, arg.as_ref(), group)?;
                Some(ctx.terms.intern(Cow::Owned(term)))
            }
        }));
        for (expr, _) in &plan.order_by {
            let get = |slot: usize| ctx.terms.get(&synthetic, slot);
            keys.push(SortKey::of(eval_expr(expr, &get, &no_exists)));
        }
    }
    (projected, keys)
}

/// Replace [`CExpr::AggregateRef`] leaves with the group's computed
/// aggregate terms (an unbound aggregate becomes an always-erroring slot
/// reference far past any real slot, dropping the group).
fn substitute_aggregates(expr: &CExpr, values: &[Option<Term>]) -> CExpr {
    match expr {
        CExpr::AggregateRef(idx) => match values.get(*idx).cloned().flatten() {
            Some(term) => CExpr::constant(term),
            None => CExpr::Slot(usize::MAX),
        },
        CExpr::Slot(_) | CExpr::Constant(..) | CExpr::Exists(_, _) => expr.clone(),
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
    terms: &Terms<'_>,
    func: crate::ast::AggFunc,
    arg: Option<&CExpr>,
    group: &[&Row],
) -> Option<Term> {
    use crate::ast::AggFunc;
    // Evaluate the argument per row (None argument = the row itself).
    let values: Vec<Value<'_>> = match arg {
        None => return Some(Term::lit_integer(group.len() as i64)),
        Some(expr) => group
            .iter()
            .filter_map(|row| eval_expr(expr, &|slot| terms.get(row, slot), &|_| None))
            .collect(),
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
                            ord == Ordering::Less
                        } else {
                            ord == Ordering::Greater
                        };
                        Some(if take { v } else { b })
                    }
                };
            }
            best.map(value_to_term)
        }
    }
}

/// Evaluate the `EXISTS` subpatterns `refs` names, seeded with `row`, into
/// the context's results; an evaluation that fails is an error value.
fn eval_exists_refs(ctx: &mut Ctx<'_>, plan: &Plan, refs: &[usize], row: &Row) {
    for &idx in refs {
        if let Some(node) = plan.exists_nodes.get(idx) {
            let found = eval_node(ctx, node, plan, row).map(|rows| !rows.is_empty());
            ctx.exists[idx] = found.ok();
        }
    }
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
        Value::Term(t) => t.term.as_ref().clone(),
        Value::Number(n) => Term::lit_double(*n),
        Value::Boolean(b) => Term::lit_bool(*b),
        Value::Str(s) => Term::lit_str(s.as_ref()),
    }
}

/// Evaluate a pattern node. `seed` supplies pre-bound slots: the all-None
/// row at the top level, the enclosing row for `EXISTS` subpatterns.
fn eval_node(ctx: &mut Ctx<'_>, node: &Node, plan: &Plan, seed: &Row) -> Result<Rows, SparqlError> {
    match node {
        Node::Unit => Ok(Rows::one(seed)),
        Node::Bgp(patterns) => eval_bgp(ctx, patterns, seed),
        Node::Join(a, b) => {
            let left = eval_node(ctx, a, plan, seed)?;
            if left.is_empty() {
                return Ok(left);
            }
            let right = eval_node(ctx, b, plan, seed)?;
            let mut out = Rows::new(left.width);
            for l in left.iter() {
                for r in right.iter() {
                    ctx.budget.charge(1)?;
                    out.push_bound(l, |row| merge(row, r));
                }
            }
            Ok(out)
        }
        Node::LeftJoin(a, b) => {
            let left = eval_node(ctx, a, plan, seed)?;
            if left.is_empty() {
                return Ok(left);
            }
            let right = eval_node(ctx, b, plan, seed)?;
            let mut out = Rows::new(left.width);
            for l in left.iter() {
                let mut matched = false;
                for r in right.iter() {
                    ctx.budget.charge(1)?;
                    matched |= out.push_bound(l, |row| merge(row, r));
                }
                if !matched {
                    out.push(l);
                }
            }
            Ok(out)
        }
        Node::Union(a, b) => {
            let mut left = eval_node(ctx, a, plan, seed)?;
            let right = eval_node(ctx, b, plan, seed)?;
            left.slots.extend_from_slice(&right.slots);
            left.len += right.len;
            Ok(left)
        }
        Node::Filter(expr, inner) => {
            let mut rows = eval_node(ctx, inner, plan, seed)?;
            filter_rows(ctx, plan, expr, &mut rows)?;
            Ok(rows)
        }
        Node::Extend(inner, slot, expr) => {
            let mut rows = eval_node(ctx, inner, plan, seed)?;
            let refs = exists_refs(expr);
            for i in 0..rows.len() {
                ctx.budget.charge(1)?;
                eval_exists_refs(ctx, plan, &refs, rows.row(i));
                // BIND on error leaves the variable unbound (per spec).
                if let Some(id) = ctx.eval_id(expr, rows.row(i)) {
                    rows.slots[i * rows.width + *slot] = Some(id);
                }
            }
            Ok(rows)
        }
    }
}

/// Merge `other` into `row`; false when a slot is bound to different ids.
fn merge(row: &mut Row, other: &Row) -> bool {
    for (slot, theirs) in row.iter_mut().zip(other) {
        match (*slot, theirs) {
            (Some(x), Some(y)) if x != *y => return false,
            (None, Some(y)) => *slot = Some(*y),
            _ => {}
        }
    }
    true
}

fn eval_bgp(ctx: &mut Ctx<'_>, patterns: &[TriplePlan], seed: &Row) -> Result<Rows, SparqlError> {
    let bound = seed.iter().map(Option::is_some).collect();
    let mut rows = Rows::one(seed);
    let mut next = Rows::new(seed.len());
    for step in BgpSteps::new(ctx.terms.graph, patterns, bound, ctx.options) {
        next.clear();
        match_pattern(ctx, &step, &rows, &mut next)?;
        std::mem::swap(&mut rows, &mut next);
        if ctx.options.optimize {
            ctx.trace.record(&step, rows.len());
        }
        if rows.is_empty() {
            break;
        }
    }
    Ok(rows)
}

/// Append to `out` every extension of a row of `rows` by a match of the
/// step's pattern.
fn match_pattern(
    ctx: &mut Ctx<'_>,
    step: &Step<'_>,
    rows: &Rows,
    out: &mut Rows,
) -> Result<(), SparqlError> {
    let tp = step.pattern;
    // Resolve constant endpoints once.
    let mut constant = |n: &PlanNodePattern| match n {
        PlanNodePattern::Term(t) => Some(ctx.terms.intern(Cow::Borrowed(t))),
        PlanNodePattern::Var(_) => None,
    };
    let (const_s, const_o) = (constant(&tp.subject), constant(&tp.object));
    let endpoints = |row: &Row| {
        let bound = |n: &PlanNodePattern, constant: Option<TermId>| match n {
            PlanNodePattern::Var(v) => row[*v],
            PlanNodePattern::Term(_) => constant,
        };
        (bound(&tp.subject, const_s), bound(&tp.object, const_o))
    };
    let graph = ctx.terms.graph;

    match step.access {
        Access::Index(_) => {
            // A plain predicate resolves once (`None`: absent from the
            // graph); a variable one (`?s ?p ?o`) is read from each row
            // and bound per match.
            let plain = match &tp.path {
                Path::Iri(iri) => Some(graph.iri_id(iri)),
                _ => None,
            };
            for row in rows.iter() {
                ctx.budget.charge(1)?;
                let p = match plain {
                    Some(Some(p)) => Some(p),
                    Some(None) => return Ok(()),
                    None => tp.path_var.and_then(|pv| row[pv]),
                };
                let (s, o) = endpoints(row);
                // An id outside the graph can never match a stored triple.
                if [s, p, o]
                    .iter()
                    .flatten()
                    .any(|&id| !ctx.terms.in_graph(id))
                {
                    continue;
                }
                for [ms, mp, mo] in graph.matching_ids(s, p, o) {
                    ctx.budget.charge(1)?;
                    out.push_bound(row, |new_row| {
                        let bound = bind_endpoints(new_row, tp, ms, mo);
                        if let Some(pv) = tp.path_var {
                            new_row[pv] = Some(mp);
                        }
                        bound
                    });
                }
            }
        }
        Access::Path(direction) => {
            // Endpoints outside the graph can only satisfy zero-length
            // paths; the path engine handles that case itself.
            let path = compile_path(graph, &tp.path);
            for row in rows.iter() {
                ctx.budget.charge(1)?;
                let (s, o) = endpoints(row);
                let pairs = eval_path(graph, &path, s, o, ctx.budget, direction);
                // The path engine bails out silently on exhaustion; turn
                // the latched flag into the typed error here.
                ctx.budget.check()?;
                for (ms, mo) in pairs {
                    ctx.budget.charge(1)?;
                    out.push_bound(row, |new_row| bind_endpoints(new_row, tp, ms, mo));
                }
            }
        }
    }
    Ok(())
}

/// Bind the matched endpoints into `row`, respecting repeated variables
/// (e.g. `?x <p> ?x` only matches when both ends are equal); false when
/// they conflict with its bindings.
fn bind_endpoints(row: &mut Row, tp: &TriplePlan, ms: TermId, mo: TermId) -> bool {
    for (node, id) in [(&tp.subject, ms), (&tp.object, mo)] {
        if let PlanNodePattern::Var(v) = node {
            match row[*v] {
                Some(existing) if existing != id => return false,
                _ => row[*v] = Some(id),
            }
        }
    }
    true
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
            let (solutions, trace) = evaluate_tail(&g, plan, &core, options, &budget).unwrap();
            assert_eq!((solutions.table(), trace), expected);
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

    /// A plan-shaped graph from a small deterministic generator: operators
    /// with types and cardinalities, costs and row counts in every
    /// spelling plans use (plain decimals, integers, exponents, padded
    /// columns, values past `f64`), typed and language-tagged literals,
    /// and stream edges.
    fn generated_graph(seed: u64) -> Graph {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut next = move |n: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % n
        };
        let pred = |n: &str| Term::iri(format!("http://optimatch/pred#{n}"));
        let pop = |n: u64| Term::iri(format!("http://optimatch/qep#pop{n}"));
        let mut g = GraphBuilder::new();
        let ops = 3 + next(12);
        for i in 0..ops {
            let kind = ["NLJOIN", "TBSCAN", "IXSCAN", "SORT", "1.5"][next(5) as usize];
            g.insert(pop(i), pred("hasPopType"), Term::lit_str(kind));
            let value = next(1_000_000) as f64 / 8.0;
            let spelled = match next(7) {
                0 => Term::lit_str(format!("{value}")),
                1 => Term::lit_str(format!("{value:e}")),
                2 => Term::lit_str(format!("  {value:.1} ")),
                3 => Term::lit_double(value),
                4 => Term::lit_typed(format!("{value}"), optimatch_rdf::term::xsd::STRING),
                5 => Term::lit_str("1e400"),
                _ => Term::Literal(optimatch_rdf::Literal::LangTagged {
                    lexical: format!("{value}"),
                    lang: "en".into(),
                }),
            };
            g.insert(pop(i), pred("hasEstimateCardinality"), spelled);
            g.insert(
                pop(i),
                pred("hasOperatorNumber"),
                Term::lit_integer(i as i64),
            );
            if i > 0 {
                g.insert(pop(next(i)), pred("hasInputStream"), pop(i));
            }
        }
        g.build()
    }

    #[test]
    fn numeric_column_equals_each_terms_numeric_value() {
        let mut graphs = vec![fig1_graph()];
        graphs.extend((0..12).map(generated_graph));
        let mut numeric = 0;
        for g in &graphs {
            for (id, term) in g.pool().iter() {
                assert_eq!(g.number(id), term.numeric_value(), "{term}");
                numeric += usize::from(g.number(id).is_some());
            }
        }
        assert!(numeric > 100, "{numeric} numeric terms");
    }

    /// The number of fig1 operators a FILTER over their type `?t` (never
    /// a number) and cardinality `?c` (always one) keeps; fig1 has an
    /// NLJOIN of cardinality 1251 and a TBSCAN of 4043.
    fn kept(filter: &str) -> usize {
        let q = format!(
            "{PFX}SELECT ?pop WHERE {{
                ?pop p:hasPopType ?t . ?pop p:hasEstimateCardinality ?c .
                FILTER ({filter})
            }}"
        );
        execute(&fig1_graph(), &q).unwrap().len()
    }

    #[test]
    fn mixed_numeric_comparisons_are_errors_under_not_or_and() {
        // A number against a non-number is an error, not false: `!` keeps
        // it an error, so neither form keeps a row.
        for filter in ["?t = 5", "?t != 5", "!(?t = 5)", "!(?t != 5)"] {
            assert_eq!(kept(filter), 0, "{filter}");
        }
        for filter in ["?c = \"TBSCAN\"", "!(?c != \"TBSCAN\")", "?c != ?t"] {
            assert_eq!(kept(filter), 0, "{filter}");
        }
        // `||` is true when either side is; `&&` false when either side is.
        assert_eq!(kept("?t = 5 || ?c > 2000"), 1);
        assert_eq!(kept("?c > 2000 || ?t = 5"), 1);
        assert_eq!(kept("?t = 5 || ?c > 9000"), 0);
        assert_eq!(kept("!(?t = 5 && ?c > 2000)"), 1);
        assert_eq!(kept("!(?c > 2000 && ?t = 5)"), 1);
        assert_eq!(kept("!(?t = 5 || ?c > 2000)"), 1 - 1);
        // Both sides numeric, whatever their spelling.
        assert_eq!(kept("?c = \"4.043e3\""), 1);
        assert_eq!(kept("?c != 4043"), 1);
        assert_eq!(kept("?t = \"TBSCAN\" && !(?c < 4043)"), 1);
    }

    #[test]
    fn bound_values_compare_with_graph_terms() {
        let g = fig1_graph();
        let rows = |body: &str| {
            let q = format!("{PFX}SELECT ?pop WHERE {{ ?pop p:hasPopType ?t . {body} }}");
            execute(&g, &q).unwrap().len()
        };
        // A computed "TBSCAN" is the graph's term: equal to the bound one.
        assert_eq!(rows("BIND (UCASE(LCASE(?t)) AS ?u) FILTER (?u = ?t)"), 4);
        // A computed term the graph lacks lives in the overlay: equal to
        // no graph term, and equal to itself.
        assert_eq!(rows("BIND (LCASE(?t) AS ?l) FILTER (?l != ?t)"), 4);
        assert_eq!(rows("BIND (LCASE(?t) AS ?l) FILTER (?l = \"tbscan\")"), 1);
        // An overlay number against a graph number compares by value:
        // "4043.0"^^xsd:double is not the graph's plain "4043.0".
        let q = format!(
            "{PFX}SELECT ?d WHERE {{
                ?pop p:hasEstimateCardinality ?c . BIND (?c * 1 AS ?d) FILTER (?d = ?c && ?d > 2000)
            }}"
        );
        let t = execute(&g, &q).unwrap();
        assert_eq!(t.len(), 1);
        assert_eq!(t.get(0, "d"), Some(&Term::lit_double(4043.0)));
    }

    #[test]
    fn distinct_sees_an_overlay_value_equal_to_a_graph_term() {
        let g = fig1_graph();
        // Each type once, whether bound from the graph or computed, in a
        // BIND or in the projection.
        let q = format!(
            "{PFX}SELECT DISTINCT ?x WHERE {{
                {{ ?pop p:hasPopType ?x . }}
                UNION {{ ?pop p:hasPopType ?t . BIND (UCASE(LCASE(?t)) AS ?x) }}
            }}"
        );
        assert_eq!(execute(&g, &q).unwrap().len(), 4);
        let q =
            format!("{PFX}SELECT DISTINCT (UCASE(?t) AS ?x) WHERE {{ ?pop p:hasPopType ?t . }}");
        assert_eq!(execute(&g, &q).unwrap().len(), 4);
        // A computed value the graph lacks is one term however often it
        // is computed.
        let q =
            format!("{PFX}SELECT DISTINCT (STRLEN(?t) AS ?n) WHERE {{ ?pop p:hasPopType ?t . }}");
        assert_eq!(execute(&g, &q).unwrap().len(), 2);
    }

    #[test]
    fn order_by_ranks_unbound_then_numbers_then_text() {
        let mut g = GraphBuilder::new();
        let (key, value) = (Term::iri("p:key"), Term::iri("p:value"));
        let values = [
            Some(Term::iri("http://x/b")),
            Some(Term::lit_str("abc")),
            None,
            Some(Term::lit_integer(10)),
            Some(Term::lit_str("B")),
            Some(Term::lit_str("9.5")),
            // Text that reads as a number orders as one.
            Some(Term::lit_typed("42", optimatch_rdf::term::xsd::STRING)),
            Some(Term::lit_str("1e400")),
        ];
        for (i, v) in values.iter().enumerate() {
            let s = Term::iri(format!("q:s{i}"));
            g.insert(s.clone(), key.clone(), Term::lit_integer(i as i64));
            if let Some(v) = v {
                g.insert(s, value.clone(), v.clone());
            }
        }
        let g = g.build();
        let order = |modifier: &str| {
            let q = format!(
                "SELECT ?v WHERE {{ ?s <p:key> ?k . OPTIONAL {{ ?s <p:value> ?v . }} }} ORDER BY {modifier}"
            );
            let t = execute(&g, &q).unwrap();
            (0..t.len())
                .map(|i| t.get(i, "v").map(|v| v.display_text().into_owned()))
                .collect::<Vec<_>>()
        };
        let text = |s: &str| Some(s.to_string());
        let ascending = vec![
            None,
            text("9.5"),
            text("10"),
            text("42"),
            text("1e400"),
            text("B"),
            text("abc"),
            text("http://x/b"),
        ];
        assert_eq!(order("?v"), ascending);
        let mut descending = ascending.clone();
        descending.reverse();
        assert_eq!(order("DESC(?v)"), descending);
        // Ties keep the solutions' order (a stable sort): every value is
        // bound or not, and ?k breaks nothing here.
        let bound_first: Vec<_> = order("DESC(BOUND(?v))");
        assert_eq!(bound_first.last(), Some(&None));
        assert_eq!(bound_first.iter().filter(|v| v.is_some()).count(), 7);
    }

    #[test]
    fn width_zero_bgps_count_their_rows() {
        let mut g = GraphBuilder::new();
        g.insert(Term::iri("a"), Term::iri("p"), Term::iri("b"));
        g.insert(Term::iri("b"), Term::iri("p"), Term::iri("c"));
        let g = g.build();
        // No variable at all: the one solution binds nothing but counts.
        let t = execute(&g, "SELECT * WHERE { <a> <p> <b> . <b> <p> <c> . }").unwrap();
        assert_eq!((t.len(), t.vars().len()), (1, 0));
        assert!(execute(&g, "SELECT * WHERE { <a> <p> <c> . }")
            .unwrap()
            .is_empty());
        let count = |body: &str| {
            let q = format!("SELECT (COUNT(*) AS ?n) WHERE {{ {body} }}");
            let t = execute(&g, &q).unwrap();
            t.get(0, "n").unwrap().numeric_value()
        };
        assert_eq!(count("<a> <p> <b> ."), Some(1.0));
        assert_eq!(
            count("<a> <p> <b> . { <a> <p> <b> . } UNION { <b> <p> <c> . }"),
            Some(2.0)
        );
        assert_eq!(count("<a> <p> <c> ."), Some(0.0));
        // Joined with a variable's rows, a width-0 side keeps them all.
        let t = execute(&g, "SELECT ?x WHERE { <a> <p> <b> . ?x <p> ?y . }").unwrap();
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn aggregates_with_group_by_and_having() {
        let mut g = GraphBuilder::new();
        for (name, t, c) in [
            ("a", "TBSCAN", "10"),
            ("b", "TBSCAN", "3e1"),
            ("c", "IXSCAN", "5.0"),
            ("d", "SORT", "x"),
        ] {
            g.insert(Term::iri(name), Term::iri("p:type"), Term::lit_str(t));
            g.insert(Term::iri(name), Term::iri("p:card"), Term::lit_str(c));
        }
        let g = g.build();
        let groups = |having: &str| {
            let q = format!(
                "SELECT ?t (COUNT(?pop) AS ?n) (SUM(?c) AS ?total) (AVG(?c) AS ?mean)
                 WHERE {{ ?pop <p:type> ?t . ?pop <p:card> ?c . }}
                 GROUP BY ?t HAVING ({having}) ORDER BY ?t"
            );
            let t = execute(&g, &q).unwrap();
            (0..t.len())
                .map(|i| {
                    let number = |v: &str| t.get(i, v).and_then(Term::numeric_value);
                    (
                        t.get(i, "t").unwrap().display_text().into_owned(),
                        number("n"),
                        number("total"),
                        number("mean"),
                    )
                })
                .collect::<Vec<_>>()
        };
        let tbscan = ("TBSCAN".to_string(), Some(2.0), Some(40.0), Some(20.0));
        let ixscan = ("IXSCAN".to_string(), Some(1.0), Some(5.0), Some(5.0));
        // SUM over no number is 0 and AVG is unbound.
        let sort = ("SORT".to_string(), Some(1.0), Some(0.0), None);
        assert_eq!(
            groups("COUNT(?pop) > 0"),
            [ixscan.clone(), sort.clone(), tbscan.clone()]
        );
        assert_eq!(groups("SUM(?c) > 20"), std::slice::from_ref(&tbscan));
        assert_eq!(groups("COUNT(?pop) >= 1 && AVG(?c) < 10"), [ixscan]);
        // An unbound AVG is an error: `||` needs its other side.
        assert_eq!(groups("AVG(?c) > 10 || ?t = \"SORT\""), [sort, tbscan]);
    }
}
