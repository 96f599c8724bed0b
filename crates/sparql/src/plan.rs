//! Cost-based query planning: selectivity estimation, the per-BGP step
//! procedure, and its `EXPLAIN` rendering.
//!
//! The estimator turns the per-graph [`GraphStats`] (per-predicate triple
//! counts and distinct subject/object counts, computed when the
//! [`Graph`] is built) into row estimates per triple pattern:
//!
//! * plain predicate, no variable endpoint bound — the exact number of
//!   triples matching its constant endpoints (the full predicate
//!   cardinality when it has none); a constant the graph lacks makes the
//!   pattern free, as an absent predicate does;
//! * plain predicate, variable subject bound — the predicate's average
//!   *fan-out* (`count / distinct_subjects`);
//! * plain predicate, variable object bound — its average *fan-in*
//!   (`count / distinct_objects`);
//! * both endpoints bound, a variable among them — `count /
//!   (distinct_subjects · distinct_objects)`, the probability-style
//!   estimate of one probe;
//! * complex paths — fans compose structurally (sequence multiplies,
//!   alternative sums, closures sum powers of the inner fan capped at the
//!   graph's node count), evaluated in whichever direction is cheaper. An
//!   alternation of plain predicates fans as one predicate would: its
//!   members' summed triple counts over their summed distinct start
//!   nodes, so predicates that partition a node's edges, as the stream
//!   bundle `(hasInputStream|hasOuterInputStream|hasInnerInputStream)`
//!   does, fan like one edge and not like three.
//!
//! `BgpSteps` is the one place a BGP's step decisions are made: which
//! pattern runs next, the index it scans or the direction its property
//! path is walked, and, when greedy, its row estimate. Greedy mode reads
//! the graph once per BGP, when the steps are built: each pattern's
//! predicate statistics, or its path's fans and start-node counts. Each
//! step then prices the remaining patterns by arithmetic on those values
//! and runs the cheapest first; every step marks its variables
//! bound, so later patterns become index probes instead of scans, and a
//! path whose object is its only bound endpoint is walked *backward* over
//! the reversed path, seeding recursive closures from the smaller
//! frontier. Source order reads no statistics. The evaluator runs each
//! step as it is yielded; [`explain_plan`] drains the same procedure for
//! every BGP and renders the steps as an `EXPLAIN`-style
//! [`PhysicalPlan`], so `explain` prints what evaluation does.
//!
//! [`RequiredPatterns`] answers the cheaper question before any of that:
//! can the query have a solution on this graph at all? A few index probes
//! for its required triple patterns prove most (query, graph) pairs empty
//! without planning or evaluating anything.

use std::collections::BTreeSet;
use std::fmt::{self, Write};

use optimatch_rdf::{Graph, GraphStats, IndexChoice, PredicateStats, Term};

use crate::algebra::{Node, Plan, PlanNodePattern, TriplePlan};
use crate::ast::{Expression, NodePattern, Path, Query, SelectItem};

/// Evaluation-planning switches, threaded from `ScanOptions` down to the
/// BGP evaluator. `optimize: false` is the correctness oracle: source-order
/// evaluation with no direction guidance, bit-identical to the planner-free
/// engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlanOptions {
    /// Reorder BGPs by estimated selectivity and guide path directions.
    pub optimize: bool,
}

impl Default for PlanOptions {
    fn default() -> PlanOptions {
        PlanOptions { optimize: true }
    }
}

impl PlanOptions {
    /// The default (optimizing) options.
    pub fn new() -> PlanOptions {
        PlanOptions::default()
    }

    /// Builder-style switch for the optimizer.
    pub fn optimize(mut self, on: bool) -> PlanOptions {
        self.optimize = on;
        self
    }
}

/// Which direction a property-path pattern is evaluated in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PathDirection {
    /// From the subject, over the path as written.
    Forward,
    /// From the object, over the reversed path.
    Backward,
}

impl PathDirection {
    fn flip(self) -> PathDirection {
        match self {
            PathDirection::Forward => PathDirection::Backward,
            PathDirection::Backward => PathDirection::Forward,
        }
    }
}

/// Planner decision counters, recorded during evaluation and aggregated up
/// through matcher → scan outcome → session timings → `/metrics`. All
/// fields are integral so aggregation is deterministic (scan outcomes are
/// compared whole in the chaos harness).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EvalStats {
    /// Triple patterns planned (BGP members seen by the greedy loop).
    pub patterns: u64,
    /// Patterns executed out of source position.
    pub reorders: u64,
    /// Summed rounded row estimates across planned patterns.
    pub estimated_rows: u64,
    /// Summed rows actually produced by those patterns.
    pub actual_rows: u64,
    /// Patterns resolved through the SPO index.
    pub index_spo: u64,
    /// Patterns resolved through the POS index.
    pub index_pos: u64,
    /// Patterns resolved through the OSP index.
    pub index_osp: u64,
    /// Property-path patterns evaluated backward from the object.
    pub backward_paths: u64,
}

impl EvalStats {
    /// Fold another trace into this one (saturating, field-wise).
    pub fn absorb(&mut self, other: &EvalStats) {
        self.patterns = self.patterns.saturating_add(other.patterns);
        self.reorders = self.reorders.saturating_add(other.reorders);
        self.estimated_rows = self.estimated_rows.saturating_add(other.estimated_rows);
        self.actual_rows = self.actual_rows.saturating_add(other.actual_rows);
        self.index_spo = self.index_spo.saturating_add(other.index_spo);
        self.index_pos = self.index_pos.saturating_add(other.index_pos);
        self.index_osp = self.index_osp.saturating_add(other.index_osp);
        self.backward_paths = self.backward_paths.saturating_add(other.backward_paths);
    }

    /// Record one executed step and the rows it produced.
    pub(crate) fn record(&mut self, step: &Step<'_>, actual_rows: usize) {
        self.patterns += 1;
        if step.reordered {
            self.reorders += 1;
        }
        if let Some(rows) = step.estimate {
            self.estimated_rows = self
                .estimated_rows
                .saturating_add(rows.round().max(0.0) as u64);
        }
        self.actual_rows = self.actual_rows.saturating_add(actual_rows as u64);
        match step.access {
            Access::Index(IndexChoice::Spo) => self.index_spo += 1,
            Access::Index(IndexChoice::Pos) => self.index_pos += 1,
            Access::Index(IndexChoice::Osp) => self.index_osp += 1,
            Access::Path(PathDirection::Backward) => self.backward_paths += 1,
            Access::Path(PathDirection::Forward) => {}
        }
    }

    /// True when no decision was ever recorded.
    pub fn is_empty(&self) -> bool {
        *self == EvalStats::default()
    }
}

/// How a step reaches its triples.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Access {
    /// An index scan, for a plain or a variable predicate.
    Index(IndexChoice),
    /// A property-path walk, in the direction the path engine takes.
    Path(PathDirection),
}

/// One step of a BGP evaluation, as [`BgpSteps`] decided it.
#[derive(Debug)]
pub(crate) struct Step<'a> {
    /// The pattern's position in its BGP's source order (0-based).
    pub(crate) source_pos: usize,
    /// The pattern to run.
    pub(crate) pattern: &'a TriplePlan,
    /// The index it scans, or the direction its path is walked.
    pub(crate) access: Access,
    /// Estimated rows per input row; `None` in source order, which reads
    /// no statistics.
    pub(crate) estimate: Option<f64>,
    /// True when the step runs out of source order.
    pub(crate) reordered: bool,
}

/// The step decisions of one BGP evaluation, yielded on demand from the
/// seed's bound flags: the evaluator runs each step as it is yielded and
/// stops when its rows run out. Yielding a step marks its variables
/// bound.
pub(crate) struct BgpSteps<'a> {
    /// Patterns not yet yielded, with their source positions and, when
    /// greedy, what the estimator read about them; `None` in source order.
    remaining: Vec<(usize, &'a TriplePlan, Option<PatternStats<'a>>)>,
    /// One flag per variable slot.
    bound: Vec<bool>,
}

impl<'a> BgpSteps<'a> {
    /// The steps of `patterns` from `bound` (one flag per variable slot).
    /// Greedy mode reads the graph here, once per pattern: statistics, and
    /// the exact count of a plain pattern's constant endpoints. Every step
    /// after that prices the remaining patterns by arithmetic alone.
    pub(crate) fn new(
        graph: &'a Graph,
        patterns: &'a [TriplePlan],
        bound: Vec<bool>,
        options: PlanOptions,
    ) -> BgpSteps<'a> {
        let stats = options.optimize.then(|| graph.stats());
        BgpSteps {
            remaining: patterns
                .iter()
                .enumerate()
                .map(|(i, tp)| (i, tp, stats.map(|s| PatternStats::read(graph, s, tp))))
                .collect(),
            bound,
        }
    }
}

impl<'a> Iterator for BgpSteps<'a> {
    type Item = Step<'a>;

    fn next(&mut self) -> Option<Step<'a>> {
        self.remaining.first()?;
        // Greedy: price every remaining pattern under the current bound
        // flags and take the cheapest. Ties keep source order (the first
        // minimum wins), so equal-cost patterns never reorder.
        let mut best: Option<(usize, Estimate)> = None;
        for (i, (_, tp, stats)) in self.remaining.iter().enumerate() {
            let Some(stats) = stats else { break };
            let est = stats.price(tp, &self.bound);
            if best.is_none_or(|(_, b)| est.cost < b.cost) {
                best = Some((i, est));
            }
        }
        let (pick, estimate) = best.map_or((0, None), |(i, e)| (i, Some(e)));
        let (source_pos, pattern, _) = self.remaining.remove(pick);
        let access = estimate.map_or_else(|| bound_access(pattern, &self.bound), |e| e.access);
        let vars = [&pattern.subject, &pattern.object]
            .into_iter()
            .filter_map(|n| match n {
                PlanNodePattern::Var(v) => Some(*v),
                PlanNodePattern::Term(_) => None,
            });
        for v in vars.chain(pattern.path_var) {
            self.bound[v] = true;
        }
        Some(Step {
            source_pos,
            pattern,
            access,
            estimate: estimate.map(|e| e.rows),
            reordered: pick != 0,
        })
    }
}

/// One triple pattern's estimate under the current bound-variable flags.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Estimate {
    /// Estimated result rows per input row.
    rows: f64,
    /// Estimated evaluation cost (what the greedy loop minimizes).
    cost: f64,
    /// The index scanned, or the cheaper path direction.
    access: Access,
}

/// Whether a pattern's subject, predicate and object are bound; a plain
/// IRI predicate always is.
fn bound_positions(tp: &TriplePlan, bound: &[bool]) -> [bool; 3] {
    let is_bound = |slot: usize| bound.get(slot).copied().unwrap_or(false);
    let node_bound = |n: &PlanNodePattern| match n {
        PlanNodePattern::Term(_) => true,
        PlanNodePattern::Var(v) => is_bound(*v),
    };
    [
        node_bound(&tp.subject),
        tp.path_var.is_none_or(is_bound),
        node_bound(&tp.object),
    ]
}

/// True when a variable subject or object of the pattern is bound.
fn variable_endpoint_bound(tp: &TriplePlan, bound: &[bool]) -> bool {
    [&tp.subject, &tp.object]
        .into_iter()
        .any(|n| matches!(n, PlanNodePattern::Var(v) if bound.get(*v).copied().unwrap_or(false)))
}

/// How a pattern reaches its triples when no statistics choose: a plain
/// or variable predicate scans the index [`Graph::matching_ids`] uses for
/// its bound positions, and a path is walked from its only bound
/// endpoint, or forward when both or neither are bound.
fn bound_access(tp: &TriplePlan, bound: &[bool]) -> Access {
    let [s, p, o] = bound_positions(tp, bound);
    match tp.path {
        Path::Iri(_) | Path::Var(_) => Access::Index(Graph::index_for(s, p, o)),
        _ if o && !s => Access::Path(PathDirection::Backward),
        _ => Access::Path(PathDirection::Forward),
    }
}

/// What the estimator knows about one triple pattern, read from the graph
/// when its BGP's steps are built.
#[derive(Debug, Clone, Copy)]
enum PatternStats<'a> {
    /// A variable predicate (`?s ?p ?o`), in a graph of this many triples.
    AnyPredicate { triples: f64 },
    /// A plain predicate, or a constant endpoint of one, that the graph
    /// lacks: free to run, proves the BGP empty.
    Absent,
    /// A plain predicate's statistics, and how many of its triples match
    /// the pattern's constant endpoints.
    Predicate {
        stats: &'a PredicateStats,
        matches: usize,
    },
    /// A complex path's average fan and candidate start nodes, forward
    /// and backward.
    Path { fan: [f64; 2], sources: [f64; 2] },
}

impl<'a> PatternStats<'a> {
    /// Read one pattern's statistics.
    fn read(graph: &Graph, stats: &'a GraphStats, tp: &TriplePlan) -> PatternStats<'a> {
        match &tp.path {
            Path::Var(_) => PatternStats::AnyPredicate {
                triples: stats.triples as f64,
            },
            Path::Iri(iri) => {
                let Some((p, ps)) = graph
                    .term_id(&Term::iri(iri.clone()))
                    .and_then(|p| Some((p, stats.predicate(p)?)))
                else {
                    return PatternStats::Absent;
                };
                // `Some(None)`: a constant the graph lacks.
                let constant = |n: &PlanNodePattern| match n {
                    PlanNodePattern::Term(t) => Some(graph.term_id(t)),
                    PlanNodePattern::Var(_) => None,
                };
                let matches = match (constant(&tp.subject), constant(&tp.object)) {
                    (Some(None), _) | (_, Some(None)) => return PatternStats::Absent,
                    (None, None) => ps.count,
                    (s, o) => graph.matching_ids(s.flatten(), Some(p), o.flatten()).len(),
                };
                PatternStats::Predicate { stats: ps, matches }
            }
            path => {
                let both = |f: fn(&Graph, &GraphStats, &Path, PathDirection) -> f64| {
                    [PathDirection::Forward, PathDirection::Backward]
                        .map(|dir| f(graph, stats, path, dir))
                };
                PatternStats::Path {
                    fan: both(path_fan),
                    sources: both(path_sources),
                }
            }
        }
    }

    /// Estimate the pattern given which variable slots are bound.
    fn price(&self, tp: &TriplePlan, bound: &[bool]) -> Estimate {
        let [s_bound, _, o_bound] = bound_positions(tp, bound);
        let rows = match *self {
            // No per-predicate statistics apply.
            PatternStats::AnyPredicate { triples } => match (s_bound, o_bound) {
                (true, true) => 1.0,
                (true, false) | (false, true) => triples.sqrt().max(1.0),
                (false, false) => triples,
            },
            PatternStats::Absent => {
                return Estimate {
                    rows: 0.0,
                    cost: 0.0,
                    access: bound_access(tp, bound),
                };
            }
            // Bound only by its constants: their exact match count.
            PatternStats::Predicate { matches, .. } if !variable_endpoint_bound(tp, bound) => {
                matches as f64
            }
            PatternStats::Predicate { stats: ps, .. } => match (s_bound, o_bound) {
                (true, true) => {
                    ps.count as f64
                        / (ps.distinct_subjects.max(1) * ps.distinct_objects.max(1)) as f64
                }
                (true, false) => ps.fan_out(),
                // The bound variable is the object.
                (false, _) => ps.fan_in(),
            },
            PatternStats::Path {
                fan: [fan_f, fan_b],
                sources: [src_f, src_b],
            } => {
                let cheaper = |forward: f64, backward: f64| {
                    if forward <= backward {
                        PathDirection::Forward
                    } else {
                        PathDirection::Backward
                    }
                };
                let (rows, cost, direction) = match (s_bound, o_bound) {
                    // Reachability check: walk from the smaller frontier.
                    (true, true) => (1.0, fan_f.min(fan_b) + 1.0, cheaper(fan_f, fan_b)),
                    (true, false) => (fan_f, fan_f + 1.0, PathDirection::Forward),
                    (false, true) => (fan_b, fan_b + 1.0, PathDirection::Backward),
                    (false, false) => {
                        let cost_f = src_f * (fan_f + 1.0);
                        let cost_b = src_b * (fan_b + 1.0);
                        (
                            (src_f * fan_f).min(src_b * fan_b),
                            cost_f.min(cost_b),
                            cheaper(cost_f, cost_b),
                        )
                    }
                };
                return Estimate {
                    rows,
                    cost,
                    access: Access::Path(direction),
                };
            }
        };
        Estimate {
            rows,
            cost: rows + 1.0,
            access: bound_access(tp, bound),
        }
    }
}

/// Average nodes reached by one application of `path` from a single start
/// node, in the given direction. Composes structurally: sequences
/// multiply, alternatives sum (an alternation of plain predicates fans as
/// one predicate), closures sum powers of the inner fan (depth-capped and
/// bounded by the graph's term count).
fn path_fan(graph: &Graph, stats: &GraphStats, path: &Path, dir: PathDirection) -> f64 {
    match path {
        Path::Iri(iri) => graph
            .term_id(&Term::iri(iri.clone()))
            .and_then(|p| stats.predicate(p))
            .map_or(0.0, |ps| match dir {
                PathDirection::Forward => ps.fan_out(),
                PathDirection::Backward => ps.fan_in(),
            }),
        Path::Var(_) => stats.triples as f64,
        Path::Inverse(p) => path_fan(graph, stats, p, dir.flip()),
        Path::Sequence(a, b) => path_fan(graph, stats, a, dir) * path_fan(graph, stats, b, dir),
        Path::Alternative(a, b) => match plain_alternation(graph, stats, path) {
            Some([count, subjects, objects]) => {
                let starts = match dir {
                    PathDirection::Forward => subjects,
                    PathDirection::Backward => objects,
                };
                count as f64 / starts.max(1) as f64
            }
            None => path_fan(graph, stats, a, dir) + path_fan(graph, stats, b, dir),
        },
        Path::ZeroOrOne(p) => 1.0 + path_fan(graph, stats, p, dir),
        Path::ZeroOrMore(p) | Path::OneOrMore(p) => {
            let f = path_fan(graph, stats, p, dir);
            let cap = (stats.terms as f64).max(1.0);
            // Sum the first few closure depths; the cap keeps a fan > 1
            // from exploding past "every node reachable".
            let mut total = 0.0;
            let mut power = 1.0;
            for _ in 0..3 {
                power *= f;
                total += power;
                if total >= cap {
                    break;
                }
            }
            let base = total.min(cap);
            if matches!(path, Path::ZeroOrMore(_)) {
                1.0 + base
            } else {
                base
            }
        }
    }
}

/// The summed triple counts, distinct subjects and distinct objects of an
/// alternation whose members are all plain predicates (an absent one adds
/// nothing); `None` when some member is another kind of path.
fn plain_alternation(graph: &Graph, stats: &GraphStats, path: &Path) -> Option<[usize; 3]> {
    match path {
        Path::Iri(iri) => Some(
            graph
                .term_id(&Term::iri(iri.clone()))
                .and_then(|p| stats.predicate(p))
                .map_or([0; 3], |ps| {
                    [ps.count, ps.distinct_subjects, ps.distinct_objects]
                }),
        ),
        Path::Alternative(a, b) => {
            let (a, b) = (
                plain_alternation(graph, stats, a)?,
                plain_alternation(graph, stats, b)?,
            );
            Some([a[0] + b[0], a[1] + b[1], a[2] + b[2]])
        }
        _ => None,
    }
}

/// Estimated candidate start nodes for a fully-unbound path pattern, in
/// the given direction — what a closure seeded from that side must visit.
fn path_sources(graph: &Graph, stats: &GraphStats, path: &Path, dir: PathDirection) -> f64 {
    let cap = stats.terms as f64;
    let raw = match path {
        Path::Iri(iri) => graph
            .term_id(&Term::iri(iri.clone()))
            .and_then(|p| stats.predicate(p))
            .map_or(0.0, |ps| match dir {
                PathDirection::Forward => ps.distinct_subjects as f64,
                PathDirection::Backward => ps.distinct_objects as f64,
            }),
        Path::Var(_) => cap,
        Path::Inverse(p) => path_sources(graph, stats, p, dir.flip()),
        Path::Sequence(a, b) => match dir {
            PathDirection::Forward => path_sources(graph, stats, a, dir),
            PathDirection::Backward => path_sources(graph, stats, b, dir),
        },
        Path::Alternative(a, b) => {
            path_sources(graph, stats, a, dir) + path_sources(graph, stats, b, dir)
        }
        // Zero-length-capable paths can start anywhere, but the useful
        // (triple-touching) starts are the inner path's.
        Path::ZeroOrOne(p) | Path::ZeroOrMore(p) | Path::OneOrMore(p) => {
            path_sources(graph, stats, p, dir)
        }
    };
    raw.min(cap)
}

/// Structural (graph-free) estimate of a recursive path's per-step
/// closure frontier: the branching factor of the widest closure body
/// (alternatives sum, sequences multiply). `0` when the path has no
/// closure operator at all. This is what lint OL104 thresholds on: a
/// plain `p+` chain has frontier 1; the paper's Pattern-B alternative
/// bundle `(outer|inner|input)+` has frontier 3.
pub fn recursive_frontier_estimate(path: &Path) -> u64 {
    fn branching(p: &Path) -> u64 {
        match p {
            Path::Iri(_) | Path::Var(_) => 1,
            Path::Inverse(p) | Path::ZeroOrOne(p) => branching(p),
            Path::Sequence(a, b) => branching(a).saturating_mul(branching(b)),
            Path::Alternative(a, b) => branching(a).saturating_add(branching(b)),
            Path::ZeroOrMore(p) | Path::OneOrMore(p) => branching(p),
        }
    }
    match path {
        Path::Iri(_) | Path::Var(_) => 0,
        Path::Inverse(p) | Path::ZeroOrOne(p) => recursive_frontier_estimate(p),
        Path::Sequence(a, b) | Path::Alternative(a, b) => {
            recursive_frontier_estimate(a).max(recursive_frontier_estimate(b))
        }
        Path::ZeroOrMore(p) | Path::OneOrMore(p) => {
            branching(p).max(recursive_frontier_estimate(p))
        }
    }
}

/// The index probes a graph must answer before a query can have any
/// solution on it: the planner's "a required pattern has no matching
/// triple" decision, taken per (query, graph) pair without evaluating.
///
/// Sound by the mandatory-pattern argument of Pérez et al. (*Semantics
/// and Complexity of SPARQL*): every solution maps each triple pattern
/// outside `OPTIONAL`, `UNION`, `FILTER` and `BIND` into the graph, so a
/// required pattern with no matching triple empties the whole result.
/// Each [`GroupGraphPattern::required_triples`] member contributes:
///
/// * with a plain IRI predicate, one probe that also binds a constant IRI
///   or literal subject or object (variables and blank nodes stay
///   wildcards);
/// * with a complex path, the IRIs every traversal must use
///   (`a/b+` needs `a` and `b`);
/// * with a path that cannot match empty yet has no such IRI (`(a|b|c)+`),
///   one clause needing at least one of its IRIs.
///
/// Constant-bound probes run first, since they fail most often, and a
/// clause another clause already implies is dropped. A query that
/// aggregates over the implicit single group requires nothing.
///
/// [`GroupGraphPattern::required_triples`]: crate::ast::GroupGraphPattern::required_triples
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RequiredPatterns {
    /// A conjunction of clauses, each a disjunction of `(subject,
    /// predicate, object)` probes; `None` is a wildcard.
    clauses: Vec<Vec<[Option<Term>; 3]>>,
}

impl RequiredPatterns {
    /// Derive the probe set of a parsed query.
    pub fn of(query: &Query) -> RequiredPatterns {
        // An aggregate over the implicit single group yields a row even
        // from no solutions (`COUNT(*)` is 0), so nothing is required.
        let implicit_group = query.group_by.is_empty()
            && query.select.iter().any(|item| {
                matches!(
                    item,
                    SelectItem::Expression {
                        expr: Expression::Aggregate(..),
                        ..
                    }
                )
            });
        if implicit_group {
            return RequiredPatterns::default();
        }
        let constant = |n: &NodePattern| match n {
            NodePattern::Term(t) if !t.is_blank() => Some(t.clone()),
            _ => None,
        };
        let bare = |iri: &String| vec![[None, Some(Term::iri(iri.as_str())), None]];
        let mut clauses: Vec<Vec<[Option<Term>; 3]>> = Vec::new();
        let (mut predicates, mut bound_predicates) = (BTreeSet::new(), BTreeSet::new());
        let mut any_of = BTreeSet::new();
        for triple in query.where_clause.required_triples() {
            let path = &triple.path;
            let mut required = BTreeSet::new();
            path.required_iris(&mut required);
            if let Some(iri) = path.as_plain_iri() {
                let probe = [
                    constant(&triple.subject),
                    Some(Term::iri(iri)),
                    constant(&triple.object),
                ];
                if probe[0].is_some() || probe[2].is_some() {
                    bound_predicates.insert(iri.to_string());
                    if clauses.iter().all(|clause| clause[0] != probe) {
                        clauses.push(vec![probe]);
                    }
                }
            } else if required.is_empty() && !path.can_match_empty() {
                let mut all = BTreeSet::new();
                path.all_iris(&mut all);
                if !all.is_empty() {
                    any_of.insert(all);
                }
            }
            predicates.extend(required);
        }
        // Bound probes first; then the predicates they do not imply; then
        // the alternations no required predicate already satisfies.
        clauses.extend(predicates.difference(&bound_predicates).map(bare));
        for set in any_of.iter().filter(|set| set.is_disjoint(&predicates)) {
            clauses.push(set.iter().flat_map(bare).collect());
        }
        RequiredPatterns { clauses }
    }

    /// True when the graph could hold a solution. `false` is a proof that
    /// the query has none on this graph; `true` means "evaluate".
    pub fn may_match(&self, graph: &Graph) -> bool {
        self.clauses.iter().all(|clause| {
            clause
                .iter()
                .any(|[s, p, o]| graph.has_match(s.as_ref(), p.as_ref(), o.as_ref()))
        })
    }
}

/// One executed step of a BGP in the physical plan.
#[derive(Debug, Clone)]
pub struct PlanStep {
    /// The pattern's position in the query source (0-based within its BGP).
    pub source_pos: usize,
    /// Rendered `subject path object` pattern text.
    pub pattern: String,
    /// Index chosen for plain-predicate scans.
    pub index: Option<IndexChoice>,
    /// Direction chosen for property-path patterns.
    pub direction: Option<PathDirection>,
    /// Estimated rows at planning time; `None` in source order.
    pub estimated_rows: Option<f64>,
    /// True when the step runs out of source order.
    pub reordered: bool,
}

/// An explainable physical plan: the steps the evaluator's step procedure
/// decides for every BGP, rendered without touching any rows.
#[derive(Debug, Clone)]
pub struct PhysicalPlan {
    /// Flattened BGP steps in execution order.
    pub steps: Vec<PlanStep>,
    rendered: String,
}

impl PhysicalPlan {
    /// The human-readable `EXPLAIN` rendering.
    pub fn render(&self) -> &str {
        &self.rendered
    }

    /// Render `node` at `depth`, then each of its children one level
    /// deeper. Every BGP is planned from the all-unbound seed, as the
    /// evaluator runs each join branch from the seed.
    fn explain(
        &mut self,
        graph: &Graph,
        plan: &Plan,
        node: &Node,
        options: PlanOptions,
        depth: usize,
    ) {
        let indent = "  ".repeat(depth);
        let (label, children) = match node {
            Node::Unit => ("unit".to_string(), Vec::new()),
            Node::Bgp(patterns) => (
                format!(
                    "bgp ({} pattern{}, {})",
                    patterns.len(),
                    if patterns.len() == 1 { "" } else { "s" },
                    if options.optimize {
                        "greedy order"
                    } else {
                        "source order"
                    },
                ),
                Vec::new(),
            ),
            Node::Join(a, b) => ("join".to_string(), vec![a, b]),
            Node::LeftJoin(a, b) => ("left-join (optional)".to_string(), vec![a, b]),
            Node::Union(a, b) => ("union".to_string(), vec![a, b]),
            Node::Filter(_, inner) => ("filter".to_string(), vec![inner]),
            Node::Extend(inner, slot, _) => (
                format!(
                    "bind ?{}",
                    plan.vars.get(*slot).map(String::as_str).unwrap_or("_")
                ),
                vec![inner],
            ),
        };
        let _ = writeln!(self.rendered, "{indent}{label}");
        if let Node::Bgp(patterns) = node {
            let seed = vec![false; plan.vars.len()];
            for step in BgpSteps::new(graph, patterns, seed, options) {
                self.push(plan, &step, &indent);
            }
        }
        for child in children {
            self.explain(graph, plan, child, options, depth + 1);
        }
    }

    /// Render and record one step.
    fn push(&mut self, plan: &Plan, step: &Step<'_>, indent: &str) {
        let tp = step.pattern;
        let pattern = format!(
            "{} {} {}",
            render_node(plan, &tp.subject),
            render_path(&tp.path),
            render_node(plan, &tp.object),
        );
        let text = &mut self.rendered;
        let _ = write!(text, "{indent}  {} {pattern}  ", self.steps.len() + 1);
        if let Some(rows) = step.estimate {
            let _ = write!(text, "est={rows:.1} ");
        }
        let (index, direction) = match step.access {
            Access::Index(ix) => {
                let _ = write!(text, "index={ix:?}");
                (Some(ix), None)
            }
            Access::Path(dir) => {
                let name = match dir {
                    PathDirection::Forward => "forward",
                    PathDirection::Backward => "backward",
                };
                let _ = write!(text, "path={name}");
                (None, Some(dir))
            }
        };
        if step.reordered {
            let _ = write!(text, " (reordered from #{})", step.source_pos + 1);
        }
        text.push('\n');
        self.steps.push(PlanStep {
            source_pos: step.source_pos,
            pattern,
            index,
            direction,
            estimated_rows: step.estimate,
            reordered: step.reordered,
        });
    }
}

impl fmt::Display for PhysicalPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.rendered)
    }
}

/// Render a pattern endpoint: `?name` for variables, the term otherwise.
fn render_node(plan: &Plan, n: &PlanNodePattern) -> String {
    match n {
        PlanNodePattern::Var(v) => match plan.vars.get(*v) {
            Some(name) => format!("?{name}"),
            None => format!("?_{v}"),
        },
        PlanNodePattern::Term(t) => t.to_string(),
    }
}

/// Render a property path in SPARQL surface syntax.
fn render_path(path: &Path) -> String {
    match path {
        Path::Iri(iri) => format!("<{iri}>"),
        Path::Var(v) => format!("?{v}"),
        Path::Inverse(p) => format!("^{}", render_path(p)),
        Path::Sequence(a, b) => format!("{}/{}", render_path(a), render_path(b)),
        Path::Alternative(a, b) => format!("({}|{})", render_path(a), render_path(b)),
        Path::ZeroOrMore(p) => format!("{}*", render_path(p)),
        Path::OneOrMore(p) => format!("{}+", render_path(p)),
        Path::ZeroOrOne(p) => format!("{}?", render_path(p)),
    }
}

/// Explain a compiled query against a graph: drain the step procedure
/// evaluation runs for every BGP, and render the steps.
pub fn explain_plan(graph: &Graph, plan: &Plan, options: PlanOptions) -> PhysicalPlan {
    let mut physical = PhysicalPlan {
        steps: Vec::new(),
        rendered: String::new(),
    };
    physical.explain(graph, plan, &plan.root, options, 0);
    physical
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algebra::translate;
    use crate::parser::parse;
    use crate::Budget;
    use optimatch_rdf::GraphBuilder;

    /// The Figure-1 style plan graph used across the evaluator tests.
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
        g.insert(pop(2), pred("hasOuterInputStream"), pop(3));
        g.insert(pop(2), pred("hasInnerInputStream"), pop(5));
        g.insert(pop(3), pred("hasInputStream"), pop(4));
        g.insert(pop(5), pred("hasInputStream"), pop(7));
        g.insert(pop(7), pred("isABaseObj"), Term::lit_str("CUST_DIM"));
        g.build()
    }

    const PFX: &str = "PREFIX p: <http://optimatch/pred#>\n";

    fn compiled(q: &str) -> Plan {
        translate(&parse(q).unwrap()).unwrap()
    }

    /// Price one pattern as the greedy loop does under `bound`.
    fn estimate_pattern(g: &Graph, tp: &TriplePlan, bound: &[bool]) -> Estimate {
        PatternStats::read(g, g.stats(), tp).price(tp, bound)
    }

    #[test]
    fn bound_patterns_estimate_cheaper_than_scans() {
        let g = fig1_graph();
        let plan = compiled(&format!(
            "{PFX}SELECT ?a WHERE {{ ?a p:hasPopType ?t . ?a p:hasPopType \"NLJOIN\" . }}"
        ));
        let Node::Bgp(tps) = &plan.root else { panic!() };
        let bound = vec![false; plan.vars.len()];
        let scan = estimate_pattern(&g, &tps[0], &bound);
        let probe = estimate_pattern(&g, &tps[1], &bound);
        // Object-bound fan-in (≈1) beats the full predicate scan (4 rows).
        assert!(probe.cost < scan.cost, "{probe:?} !< {scan:?}");
        assert_eq!(scan.access, Access::Index(IndexChoice::Pos));
        assert_eq!(probe.access, Access::Index(IndexChoice::Pos));
        assert_eq!(scan.rows, 4.0);
    }

    #[test]
    fn absent_predicate_is_free() {
        let g = fig1_graph();
        let plan = compiled(&format!("{PFX}SELECT ?a WHERE {{ ?a p:neverSeen ?b . }}"));
        let Node::Bgp(tps) = &plan.root else { panic!() };
        let est = estimate_pattern(&g, &tps[0], &vec![false; plan.vars.len()]);
        assert_eq!(est.rows, 0.0);
        assert_eq!(est.cost, 0.0);
    }

    #[test]
    fn constant_endpoints_are_priced_at_their_exact_count() {
        // Two left-outer joins among ten inner ones: the object's average
        // fan-in is 12 / 2 = 6, but "LEFT OUTER" matches two triples.
        let mut g = GraphBuilder::new();
        for i in 0..12 {
            let kind = if i < 2 { "LEFT OUTER" } else { "INNER" };
            g.insert(
                Term::iri(format!("http://optimatch/qep#pop{i}")),
                Term::iri("http://optimatch/pred#hasJoinType"),
                Term::lit_str(kind),
            );
        }
        let g = g.build();
        let plan = compiled(&format!(
            "{PFX}SELECT ?a WHERE {{ ?a p:hasJoinType \"LEFT OUTER\" . }}"
        ));
        let Node::Bgp(tps) = &plan.root else { panic!() };
        let est = estimate_pattern(&g, &tps[0], &[false]);
        assert_eq!((est.rows, est.cost), (2.0, 3.0));
        let text = explain_plan(&g, &plan, PlanOptions::default());
        assert!(
            text.render().contains("\"LEFT OUTER\"  est=2.0 index=Pos"),
            "{text}"
        );
        // With its variable bound too, one probe keeps the per-predicate
        // estimate: 12 / (12 · 2).
        assert_eq!(estimate_pattern(&g, &tps[0], &[true]).rows, 0.5);
    }

    #[test]
    fn absent_constant_is_free() {
        let g = fig1_graph();
        let plan = compiled(&format!(
            "{PFX}SELECT ?a WHERE {{ ?a p:hasPopType \"NEVER_SEEN\" . }}"
        ));
        let Node::Bgp(tps) = &plan.root else { panic!() };
        let est = estimate_pattern(&g, &tps[0], &vec![false; plan.vars.len()]);
        assert_eq!((est.rows, est.cost), (0.0, 0.0));
    }

    #[test]
    fn path_direction_follows_bound_endpoint() {
        let g = fig1_graph();
        // Object is a constant → backward; subject constant → forward.
        let plan = compiled(&format!(
            "{PFX}SELECT ?a WHERE {{ ?a p:hasInputStream+ <http://optimatch/qep#pop7> . }}"
        ));
        let Node::Bgp(tps) = &plan.root else { panic!() };
        let est = estimate_pattern(&g, &tps[0], &vec![false; plan.vars.len()]);
        assert_eq!(est.access, Access::Path(PathDirection::Backward));

        let plan = compiled(&format!(
            "{PFX}SELECT ?b WHERE {{ <http://optimatch/qep#pop2> p:hasInputStream+ ?b . }}"
        ));
        let Node::Bgp(tps) = &plan.root else { panic!() };
        let est = estimate_pattern(&g, &tps[0], &vec![false; plan.vars.len()]);
        assert_eq!(est.access, Access::Path(PathDirection::Forward));
    }

    #[test]
    fn plain_alternation_fans_as_one_predicate() {
        // The stream predicates partition fig1's edges: each member fans
        // 1.0 both ways, and so does the bundle, where summing the
        // members' fans would read 3.0.
        let g = fig1_graph();
        let plan = compiled(&format!(
            "{PFX}SELECT * WHERE {{
                ?a (p:hasInputStream|p:hasOuterInputStream|p:hasInnerInputStream) ?b .
            }}"
        ));
        let Node::Bgp(tps) = &plan.root else { panic!() };
        for (bound, direction) in [
            ([true, false], PathDirection::Forward),
            ([false, true], PathDirection::Backward),
        ] {
            let est = estimate_pattern(&g, &tps[0], &bound);
            assert_eq!(est.rows, 1.0, "{direction:?}");
            assert_eq!(est.access, Access::Path(direction));
        }
        // A member that is not a plain predicate keeps the summed fans.
        let plan = compiled(&format!(
            "{PFX}SELECT * WHERE {{ ?a (p:hasInputStream|^p:hasInnerInputStream) ?b . }}"
        ));
        let Node::Bgp(tps) = &plan.root else { panic!() };
        assert_eq!(estimate_pattern(&g, &tps[0], &[true, false]).rows, 2.0);
    }

    #[test]
    fn frontier_estimate_reflects_alternative_branching() {
        let one = parse("SELECT ?a WHERE { ?a <p:in>+ ?b . }").unwrap();
        let three = parse("SELECT ?a WHERE { ?a (<p:a>|<p:b>|<p:c>)+ ?b . }").unwrap();
        let flat = parse("SELECT ?a WHERE { ?a (<p:a>|<p:b>) ?b . }").unwrap();
        let path_of = |q: &crate::ast::Query| match &q.where_clause.elements[0] {
            crate::ast::PatternElement::Triple(t) => t.path.clone(),
            _ => panic!(),
        };
        assert_eq!(recursive_frontier_estimate(&path_of(&one)), 1);
        assert_eq!(recursive_frontier_estimate(&path_of(&three)), 3);
        // No closure operator ⇒ no frontier at all.
        assert_eq!(recursive_frontier_estimate(&path_of(&flat)), 0);
    }

    fn required(q: &str) -> RequiredPatterns {
        RequiredPatterns::of(&parse(&format!("{PFX}{q}")).unwrap())
    }

    #[test]
    fn required_patterns_probe_constants_and_predicates() {
        let g = fig1_graph();
        let may = |q: &str| required(q).may_match(&g);
        assert!(may("SELECT ?a WHERE { ?a p:hasPopType \"NLJOIN\" . }"));
        assert!(!may("SELECT ?a WHERE { ?a p:hasPopType \"SORT\" . }"));
        assert!(!may("SELECT ?a WHERE { ?a p:neverSeen ?b . }"));
        // A constant IRI subject is bound too: pop3 has no cardinality.
        let pop = |n: u32| format!("<http://optimatch/qep#pop{n}>");
        assert!(may(&format!(
            "SELECT ?c WHERE {{ {} p:hasEstimateCardinality ?c . }}",
            pop(5)
        )));
        assert!(!may(&format!(
            "SELECT ?c WHERE {{ {} p:hasEstimateCardinality ?c . }}",
            pop(3)
        )));
        // An implicit-group aggregate has a row even without solutions;
        // with GROUP BY, no solutions means no groups and no rows.
        assert!(may("SELECT (COUNT(*) AS ?n) WHERE { ?a p:neverSeen ?b . }"));
        assert!(!may(
            "SELECT ?b (COUNT(*) AS ?n) WHERE { ?a p:neverSeen ?b . } GROUP BY ?b"
        ));
        // Nothing behind OPTIONAL, UNION or FILTER is required.
        assert!(may("SELECT ?a WHERE { ?a p:hasPopType ?t . \
               OPTIONAL { ?a p:neverSeen ?x . } \
               { ?a p:neverSeen ?y . } UNION { ?a p:hasPopType ?y . } \
               FILTER NOT EXISTS { ?a p:neverSeen ?z . } }"));
    }

    #[test]
    fn variables_and_blank_nodes_are_never_probed_as_constants() {
        let g = fig1_graph();
        // Each query's only constant-looking endpoint is a variable or a
        // blank node, which matches any term: all of them may match.
        for q in [
            "SELECT ?a WHERE { ?a p:hasPopType ?t . }",
            "SELECT ?t WHERE { _:b p:hasPopType ?t . }",
            "SELECT ?a WHERE { ?a p:hasOuterInputStream _:child . }",
            "SELECT * WHERE { _:x p:hasInputStream _:y . }",
        ] {
            assert_eq!(required(q).clauses.len(), 1, "{q}");
            assert!(required(q).clauses[0][0][0].is_none(), "{q}");
            assert!(required(q).clauses[0][0][2].is_none(), "{q}");
            assert!(required(q).may_match(&g), "{q}");
        }
    }

    #[test]
    fn paths_require_their_mandatory_iris() {
        let g = fig1_graph();
        let may = |q: &str| required(q).may_match(&g);
        // a/b+ needs both a and b; a* can match empty and needs nothing.
        assert!(may(
            "SELECT ?a WHERE { ?a p:hasOuterInputStream/p:hasInputStream+ ?b . }"
        ));
        assert!(!may(
            "SELECT ?a WHERE { ?a p:hasOuterInputStream/p:neverSeen+ ?b . }"
        ));
        assert!(may("SELECT ?a WHERE { ?a p:neverSeen* ?b . }"));
        // An alternation needs at least one of its branches present.
        let any = "SELECT ?a WHERE { ?a (p:neverSeen|p:hasInputStream)+ ?b . }";
        assert!(may(any));
        let mut no_streams = GraphBuilder::new();
        no_streams.insert(
            Term::iri("http://optimatch/qep#pop1"),
            Term::iri("http://optimatch/pred#hasPopType"),
            Term::lit_str("RETURN"),
        );
        assert!(!required(any).may_match(&no_streams.build()));
        // A bare predicate probe that a bound probe implies is dropped.
        let q = "SELECT ?a WHERE { ?a p:hasPopType ?t . ?a p:hasPopType \"TBSCAN\" . }";
        assert_eq!(required(q).clauses.len(), 1);
    }

    #[test]
    fn explain_reorders_selective_pattern_first() {
        let g = fig1_graph();
        // Source order starts with the expensive recursive path; the
        // planner must run the bound-object probe first instead.
        let plan = compiled(&format!(
            "{PFX}SELECT ?join ?base WHERE {{
                ?join (p:hasOuterInputStream|p:hasInnerInputStream|p:hasInputStream)+ ?d .
                ?join p:hasPopType \"NLJOIN\" .
                ?d p:isABaseObj ?base .
            }}"
        ));
        let physical = explain_plan(&g, &plan, PlanOptions::default());
        assert_eq!(physical.steps.len(), 3);
        assert_ne!(physical.steps[0].source_pos, 0, "{}", physical.render());
        assert!(physical.steps.iter().any(|s| s.reordered));
        // The recursive path runs with a bound subject → forward.
        let path_step = physical
            .steps
            .iter()
            .find(|s| s.index.is_none())
            .expect("path step present");
        assert_eq!(path_step.direction, Some(PathDirection::Forward));
        let text = physical.render();
        assert!(text.contains("bgp (3 patterns, greedy order)"), "{text}");
        assert!(text.contains("reordered"), "{text}");
        assert!(text.contains("index="), "{text}");

        // The oracle mode replays source order and reorders nothing.
        let unopt = explain_plan(&g, &plan, PlanOptions::default().optimize(false));
        assert!(unopt.steps.iter().all(|s| !s.reordered));
        let order: Vec<usize> = unopt.steps.iter().map(|s| s.source_pos).collect();
        assert_eq!(order, vec![0, 1, 2]);
    }

    #[test]
    fn path_direction_is_the_walk_evaluation_takes() {
        // Five subjects reach one object: walking back from the object
        // seeds the closure from one node instead of five.
        let mut g = GraphBuilder::new();
        for i in 0..5 {
            g.insert(Term::iri(format!("s{i}")), Term::iri("p"), Term::iri("o"));
        }
        let g = g.build();
        let plan = compiled("SELECT * WHERE { ?x <p>+ ?y . }");
        let direction = |optimize| {
            explain_plan(&g, &plan, PlanOptions::default().optimize(optimize)).steps[0].direction
        };
        // Source order walks forward from every subject, as its evaluator
        // does; the planner walks backward.
        assert_eq!(direction(false), Some(PathDirection::Forward));
        assert_eq!(direction(true), Some(PathDirection::Backward));
        let (table, trace) =
            crate::eval::evaluate(&g, &plan, PlanOptions::default(), &Budget::unlimited()).unwrap();
        assert_eq!(table.len(), 5);
        assert_eq!(trace.backward_paths, 1);
    }

    #[test]
    fn variable_predicate_is_bound_after_its_step() {
        // `?p` is bound by the first step, so the second probes POS with
        // its predicate and object, exactly as `Graph::matching_ids` does.
        let mut g = GraphBuilder::new();
        g.insert(Term::iri("s0"), Term::iri("p1"), Term::iri("o1"));
        g.insert(Term::iri("s1"), Term::iri("p1"), Term::iri("o2"));
        g.insert(Term::iri("s2"), Term::iri("p2"), Term::iri("o2"));
        let g = g.build();
        let plan = compiled("SELECT * WHERE { <s0> ?p ?o . ?x ?p <o2> . }");
        for optimize in [true, false] {
            let options = PlanOptions::default().optimize(optimize);
            let physical = explain_plan(&g, &plan, options);
            let indexes: Vec<_> = physical.steps.iter().map(|s| s.index).collect();
            assert_eq!(indexes, [Some(IndexChoice::Spo), Some(IndexChoice::Pos)]);
            assert!(physical.render().contains("?x ?p <o2>  "), "{physical}");
            let (table, trace) =
                crate::eval::evaluate(&g, &plan, options, &Budget::unlimited()).unwrap();
            assert_eq!(table.len(), 1);
            assert_eq!(table.get(0, "x"), Some(&Term::iri("s1")));
            if optimize {
                assert_eq!(
                    (trace.index_spo, trace.index_pos, trace.index_osp),
                    (1, 1, 0)
                );
            }
        }
    }

    #[test]
    fn explain_renders_every_node_kind() {
        // Reorders, an OPTIONAL, a UNION with a backward path walk, a
        // nested group holding only a BIND (over the unit table), and a
        // group FILTER: every node kind the renderer knows.
        let plan = compiled(&format!(
            "{PFX}SELECT * WHERE {{
                ?inner p:hasPopType ?ty .
                ?join p:hasInnerInputStream ?inner .
                ?join p:hasPopType \"NLJOIN\" .
                OPTIONAL {{ ?inner p:hasEstimateCardinality ?card . }}
                {{ ?inner p:hasInputStream+ ?below . }}
                UNION
                {{ ?d p:isABaseObj \"CUST_DIM\" . ?above p:hasInputStream+ ?d . }}
                {{ BIND (\"x\" AS ?tag) }}
                FILTER (?card > 100)
            }}"
        ));
        let physical = explain_plan(&fig1_graph(), &plan, PlanOptions::default());
        let expected = r#"filter
  join
    join
      left-join (optional)
        bgp (3 patterns, greedy order)
          1 ?join <http://optimatch/pred#hasInnerInputStream> ?inner  est=1.0 index=Pos (reordered from #2)
          2 ?join <http://optimatch/pred#hasPopType> "NLJOIN"  est=0.2 index=Spo (reordered from #3)
          3 ?inner <http://optimatch/pred#hasPopType> ?ty  est=1.0 index=Spo
        bgp (1 pattern, greedy order)
          4 ?inner <http://optimatch/pred#hasEstimateCardinality> ?card  est=2.0 index=Pos
      union
        bgp (1 pattern, greedy order)
          5 ?inner <http://optimatch/pred#hasInputStream>+ ?below  est=6.0 path=forward
        bgp (2 patterns, greedy order)
          6 ?d <http://optimatch/pred#isABaseObj> "CUST_DIM"  est=1.0 index=Pos
          7 ?above <http://optimatch/pred#hasInputStream>+ ?d  est=3.0 path=backward
    bind ?tag
      unit
"#;
        assert_eq!(physical.render(), expected);
        assert_eq!(physical.steps.len(), 7);
    }
}
