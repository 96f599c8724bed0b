//! Property-path evaluation.
//!
//! Paths are compiled per graph (predicate IRIs resolve to that graph's
//! interned ids) and evaluated with BFS for the transitive-closure
//! operators. This is the engine behind OptImatch's *descendant*
//! relationships: `hasInputStream+` walks arbitrarily deep into a plan,
//! which is how the paper's Pattern B finds joins whose outer/inner sides
//! contain left-outer joins anywhere below (§2.3).
//!
//! [`eval_path`] is the one entry point. It walks in the direction the
//! planner's step names, over the reversed path when that is backward.

use std::collections::BTreeSet;

use optimatch_rdf::{Graph, TermId};

use crate::ast::Path;
use crate::budget::Budget;
use crate::plan::PathDirection;

/// A property path with predicate IRIs resolved against a specific graph.
/// `None` marks a predicate absent from the graph (it can never match).
#[derive(Debug, Clone)]
pub enum CPath {
    /// A single predicate.
    Pred(Option<TermId>),
    /// `^p`
    Inverse(Box<CPath>),
    /// `a/b`
    Seq(Box<CPath>, Box<CPath>),
    /// `a|b`
    Alt(Box<CPath>, Box<CPath>),
    /// `p*`
    ZeroOrMore(Box<CPath>),
    /// `p+`
    OneOrMore(Box<CPath>),
    /// `p?`
    ZeroOrOne(Box<CPath>),
}

/// Resolve a parsed path against a graph's term pool.
pub fn compile_path(graph: &Graph, path: &Path) -> CPath {
    match path {
        Path::Iri(iri) => CPath::Pred(graph.iri_id(iri)),
        Path::Var(_) => unreachable!("variable predicates are handled by the BGP evaluator"),
        Path::Inverse(p) => CPath::Inverse(Box::new(compile_path(graph, p))),
        Path::Sequence(a, b) => CPath::Seq(
            Box::new(compile_path(graph, a)),
            Box::new(compile_path(graph, b)),
        ),
        Path::Alternative(a, b) => CPath::Alt(
            Box::new(compile_path(graph, a)),
            Box::new(compile_path(graph, b)),
        ),
        Path::ZeroOrMore(p) => CPath::ZeroOrMore(Box::new(compile_path(graph, p))),
        Path::OneOrMore(p) => CPath::OneOrMore(Box::new(compile_path(graph, p))),
        Path::ZeroOrOne(p) => CPath::ZeroOrOne(Box::new(compile_path(graph, p))),
    }
}

/// Reverse a compiled path: `eval(reverse(p), o, s)` ≡ `eval(p, s, o)`
/// with the pair swapped. Used for backward walks.
fn reverse(path: &CPath) -> CPath {
    match path {
        CPath::Pred(p) => CPath::Inverse(Box::new(CPath::Pred(*p))),
        CPath::Inverse(p) => (**p).clone(),
        CPath::Seq(a, b) => CPath::Seq(Box::new(reverse(b)), Box::new(reverse(a))),
        CPath::Alt(a, b) => CPath::Alt(Box::new(reverse(a)), Box::new(reverse(b))),
        CPath::ZeroOrMore(p) => CPath::ZeroOrMore(Box::new(reverse(p))),
        CPath::OneOrMore(p) => CPath::OneOrMore(Box::new(reverse(p))),
        CPath::ZeroOrOne(p) => CPath::ZeroOrOne(Box::new(reverse(p))),
    }
}

/// One forward application of the path from `from`, collecting reachable
/// targets into `out`. Bails out early (leaving `out` partial) once the
/// budget is exceeded; callers must [`Budget::check`] afterwards.
fn step(graph: &Graph, path: &CPath, from: TermId, out: &mut BTreeSet<TermId>, budget: &Budget) {
    if !budget.try_charge(1) {
        return;
    }
    match path {
        CPath::Pred(Some(p)) => {
            out.extend(graph.matching_ids(Some(from), Some(*p), None).map(|t| t[2]));
        }
        CPath::Pred(None) => {}
        CPath::Inverse(inner) => match inner.as_ref() {
            CPath::Pred(Some(p)) => {
                out.extend(graph.matching_ids(None, Some(*p), Some(from)).map(|t| t[0]));
            }
            CPath::Pred(None) => {}
            other => {
                // General inverse: evaluate the reversed inner path forward.
                let rev = reverse(other);
                step(graph, &rev, from, out, budget);
            }
        },
        CPath::Seq(a, b) => {
            let mut mid = BTreeSet::new();
            step(graph, a, from, &mut mid, budget);
            for m in mid {
                step(graph, b, m, out, budget);
            }
        }
        CPath::Alt(a, b) => {
            step(graph, a, from, out, budget);
            step(graph, b, from, out, budget);
        }
        CPath::ZeroOrMore(inner) => {
            out.insert(from);
            closure(graph, inner, from, out, budget);
        }
        CPath::OneOrMore(inner) => {
            closure(graph, inner, from, out, budget);
        }
        CPath::ZeroOrOne(inner) => {
            out.insert(from);
            step(graph, inner, from, out, budget);
        }
    }
}

/// BFS transitive closure of `inner` starting from `from` (at least one
/// application), adding every reachable node to `out`.
fn closure(
    graph: &Graph,
    inner: &CPath,
    from: TermId,
    out: &mut BTreeSet<TermId>,
    budget: &Budget,
) {
    let mut frontier = BTreeSet::new();
    step(graph, inner, from, &mut frontier, budget);
    let mut pending: Vec<TermId> = frontier.into_iter().collect();
    while let Some(node) = pending.pop() {
        if !budget.try_charge(1) {
            return;
        }
        if out.insert(node) {
            let mut next = BTreeSet::new();
            step(graph, inner, node, &mut next, budget);
            pending.extend(next.into_iter().filter(|n| !out.contains(n)));
        }
    }
}

/// Every term id occurring in the graph (subject or object position) —
/// the candidate set for fully-unbound path endpoints.
fn all_nodes(graph: &Graph, budget: &Budget) -> BTreeSet<TermId> {
    let mut nodes = BTreeSet::new();
    for [s, _, o] in graph.iter_ids() {
        if !budget.try_charge(1) {
            break;
        }
        nodes.insert(s);
        nodes.insert(o);
    }
    nodes
}

/// Evaluate a path pattern, walking in `direction`. Endpoint ids may come
/// from outside the graph (query constants); those can only match through
/// zero-length paths.
///
/// `Backward` walks `reverse(path)` from the object side and swaps each
/// pair back. Direction changes *how* pairs are found, never which pairs:
/// with exactly one endpoint bound the walk always starts from it, and a
/// plain predicate with neither bound is one index scan either way. With
/// both bound, a walk tests membership of the far endpoint; with neither,
/// it enumerates candidate start nodes on its own side.
///
/// When `budget` runs out mid-evaluation the returned pairs are partial;
/// the budget's exceeded flag is latched, so callers detect this with
/// [`Budget::check`].
pub fn eval_path(
    graph: &Graph,
    path: &CPath,
    s: Option<TermId>,
    o: Option<TermId>,
    budget: &Budget,
    direction: PathDirection,
) -> Vec<(TermId, TermId)> {
    let backward = match (s, o) {
        (Some(_), None) => false,
        (None, Some(_)) => true,
        _ => direction == PathDirection::Backward && !matches!(path, CPath::Pred(_)),
    };
    if !backward {
        return reach_pairs(graph, path, s, o, budget);
    }
    let mut pairs = reach_pairs(graph, &reverse(path), o, s, budget);
    for (s, o) in &mut pairs {
        std::mem::swap(s, o);
    }
    pairs
}

/// Walk `path` forward from `from`, keeping only the pairs that end at
/// `to` when it is bound. An unbound `from` means both endpoints are
/// unbound, since [`eval_path`] walks from a bound one.
fn reach_pairs(
    graph: &Graph,
    path: &CPath,
    from: Option<TermId>,
    to: Option<TermId>,
    budget: &Budget,
) -> Vec<(TermId, TermId)> {
    let Some(from) = from else {
        return all_pairs(graph, path, budget);
    };
    let mut reach = BTreeSet::new();
    step(graph, path, from, &mut reach, budget);
    match to {
        Some(to) if reach.contains(&to) => vec![(from, to)],
        Some(_) => Vec::new(),
        None => reach.into_iter().map(|to| (from, to)).collect(),
    }
}

/// Every pair the path connects: one index scan for a plain predicate,
/// otherwise a walk from every node of the graph.
fn all_pairs(graph: &Graph, path: &CPath, budget: &Budget) -> Vec<(TermId, TermId)> {
    if let CPath::Pred(p) = path {
        return match p {
            Some(p) => graph
                .matching_ids(None, Some(*p), None)
                .map(|[s, _, o]| (s, o))
                .collect(),
            None => Vec::new(),
        };
    }
    let mut pairs = Vec::new();
    for from in all_nodes(graph, budget) {
        if budget.exceeded().is_some() {
            break;
        }
        let mut reach = BTreeSet::new();
        step(graph, path, from, &mut reach, budget);
        pairs.extend(reach.into_iter().map(|to| (from, to)));
    }
    pairs
}

#[cfg(test)]
mod tests {
    use super::*;
    use optimatch_rdf::{GraphBuilder, Term};

    /// A small plan-shaped graph: 1 -in-> 2 -in-> 3 -in-> 4, 2 -out-> 1.
    fn chain() -> (Graph, Vec<TermId>) {
        let mut g = GraphBuilder::new();
        let n: Vec<Term> = (1..=4).map(|i| Term::iri(format!("q:pop{i}"))).collect();
        let inp = Term::iri("p:in");
        let out = Term::iri("p:out");
        g.insert(n[0].clone(), inp.clone(), n[1].clone());
        g.insert(n[1].clone(), inp.clone(), n[2].clone());
        g.insert(n[2].clone(), inp.clone(), n[3].clone());
        g.insert(n[1].clone(), out.clone(), n[0].clone());
        let g = g.build();
        let ids = n.iter().map(|t| g.term_id(t).unwrap()).collect();
        (g, ids)
    }

    fn p(g: &Graph, path: &str) -> CPath {
        // Tiny helper: parse a path by parsing a full query around it.
        let q = crate::parser::parse(&format!("SELECT ?a WHERE {{ ?a {path} ?b . }}")).unwrap();
        let crate::ast::PatternElement::Triple(t) = &q.where_clause.elements[0] else {
            panic!()
        };
        compile_path(g, &t.path)
    }

    #[test]
    fn plain_predicate_forward() {
        let (g, ids) = chain();
        let path = p(&g, "<p:in>");
        let pairs = eval_path(
            &g,
            &path,
            Some(ids[0]),
            None,
            &Budget::unlimited(),
            PathDirection::Forward,
        );
        assert_eq!(pairs, vec![(ids[0], ids[1])]);
    }

    #[test]
    fn one_or_more_reaches_all_descendants() {
        let (g, ids) = chain();
        let path = p(&g, "<p:in>+");
        let pairs = eval_path(
            &g,
            &path,
            Some(ids[0]),
            None,
            &Budget::unlimited(),
            PathDirection::Forward,
        );
        let targets: Vec<TermId> = pairs.into_iter().map(|(_, o)| o).collect();
        assert_eq!(targets, vec![ids[1], ids[2], ids[3]]);
    }

    #[test]
    fn zero_or_more_includes_self() {
        let (g, ids) = chain();
        let path = p(&g, "<p:in>*");
        let pairs = eval_path(
            &g,
            &path,
            Some(ids[1]),
            None,
            &Budget::unlimited(),
            PathDirection::Forward,
        );
        let targets: Vec<TermId> = pairs.into_iter().map(|(_, o)| o).collect();
        assert!(targets.contains(&ids[1]));
        assert!(targets.contains(&ids[3]));
        assert_eq!(targets.len(), 3);
    }

    #[test]
    fn zero_or_one_is_bounded() {
        let (g, ids) = chain();
        let path = p(&g, "<p:in>?");
        let pairs = eval_path(
            &g,
            &path,
            Some(ids[0]),
            None,
            &Budget::unlimited(),
            PathDirection::Forward,
        );
        let targets: Vec<TermId> = pairs.into_iter().map(|(_, o)| o).collect();
        assert_eq!(targets, vec![ids[0], ids[1]]);
    }

    #[test]
    fn inverse_walks_backward() {
        let (g, ids) = chain();
        let path = p(&g, "^<p:in>");
        let pairs = eval_path(
            &g,
            &path,
            Some(ids[1]),
            None,
            &Budget::unlimited(),
            PathDirection::Forward,
        );
        assert_eq!(pairs, vec![(ids[1], ids[0])]);
    }

    #[test]
    fn sequence_composes() {
        let (g, ids) = chain();
        let path = p(&g, "<p:in>/<p:in>");
        let pairs = eval_path(
            &g,
            &path,
            Some(ids[0]),
            None,
            &Budget::unlimited(),
            PathDirection::Forward,
        );
        assert_eq!(pairs, vec![(ids[0], ids[2])]);
    }

    #[test]
    fn alternative_unions() {
        let (g, ids) = chain();
        let path = p(&g, "(<p:in>|<p:out>)");
        let pairs = eval_path(
            &g,
            &path,
            Some(ids[1]),
            None,
            &Budget::unlimited(),
            PathDirection::Forward,
        );
        let targets: Vec<TermId> = pairs.into_iter().map(|(_, o)| o).collect();
        assert_eq!(targets.len(), 2);
        assert!(targets.contains(&ids[0]));
        assert!(targets.contains(&ids[2]));
    }

    #[test]
    fn object_bound_evaluates_backward() {
        let (g, ids) = chain();
        let path = p(&g, "<p:in>+");
        let pairs = eval_path(
            &g,
            &path,
            None,
            Some(ids[3]),
            &Budget::unlimited(),
            PathDirection::Forward,
        );
        let sources: Vec<TermId> = pairs.into_iter().map(|(s, _)| s).collect();
        assert_eq!(sources, vec![ids[0], ids[1], ids[2]]);
    }

    #[test]
    fn both_bound_checks_reachability() {
        let (g, ids) = chain();
        let path = p(&g, "<p:in>+");
        assert_eq!(
            eval_path(
                &g,
                &path,
                Some(ids[0]),
                Some(ids[3]),
                &Budget::unlimited(),
                PathDirection::Forward
            )
            .len(),
            1
        );
        assert_eq!(
            eval_path(
                &g,
                &path,
                Some(ids[3]),
                Some(ids[0]),
                &Budget::unlimited(),
                PathDirection::Forward
            )
            .len(),
            0
        );
    }

    #[test]
    fn both_unbound_enumerates_graph() {
        let (g, _) = chain();
        let path = p(&g, "<p:in>+");
        let pairs = eval_path(
            &g,
            &path,
            None,
            None,
            &Budget::unlimited(),
            PathDirection::Forward,
        );
        // 1→{2,3,4}, 2→{3,4}, 3→{4} = 6 pairs.
        assert_eq!(pairs.len(), 6);
    }

    #[test]
    fn cycles_terminate() {
        let mut g = GraphBuilder::new();
        let a = Term::iri("a");
        let b = Term::iri("b");
        let inp = Term::iri("p:in");
        g.insert(a.clone(), inp.clone(), b.clone());
        g.insert(b.clone(), inp.clone(), a.clone());
        let g = g.build();
        let path = p(&g, "<p:in>+");
        let ida = g.term_id(&a).unwrap();
        let pairs = eval_path(
            &g,
            &path,
            Some(ida),
            None,
            &Budget::unlimited(),
            PathDirection::Forward,
        );
        // a reaches b and itself through the cycle.
        assert_eq!(pairs.len(), 2);
    }

    #[test]
    fn exhausted_budget_bails_out_and_latches() {
        let (g, ids) = chain();
        let path = p(&g, "<p:in>+");
        let tight = Budget::limited(Some(2), None);
        let _partial = eval_path(
            &g,
            &path,
            Some(ids[0]),
            None,
            &tight,
            PathDirection::Forward,
        );
        assert!(
            tight.exceeded().is_some(),
            "closure over 3 hops exceeds 2 steps"
        );
        assert!(tight.check().is_err());
        // A sufficient budget is observational: same pairs as unlimited.
        let enough = Budget::limited(Some(10_000), None);
        let pairs = eval_path(
            &g,
            &path,
            Some(ids[0]),
            None,
            &enough,
            PathDirection::Forward,
        );
        assert!(enough.check().is_ok());
        assert_eq!(
            pairs,
            eval_path(
                &g,
                &path,
                Some(ids[0]),
                None,
                &Budget::unlimited(),
                PathDirection::Forward
            )
        );
        assert!(enough.spent() > 0);
    }

    #[test]
    fn directed_evaluation_finds_the_same_pairs() {
        let (g, ids) = chain();
        let path = p(&g, "<p:in>+");
        let budget = Budget::unlimited();
        let run = |s, o, direction| eval_path(&g, &path, s, o, &budget, direction);
        // Both bound: backward reachability agrees with forward.
        for (s, o) in [(ids[0], ids[3]), (ids[3], ids[0])] {
            let fwd = run(Some(s), Some(o), PathDirection::Forward);
            let bwd = run(Some(s), Some(o), PathDirection::Backward);
            assert_eq!(fwd, bwd);
        }
        // Both unbound: same pair multiset (order may differ).
        let mut fwd = run(None, None, PathDirection::Forward);
        let mut bwd = run(None, None, PathDirection::Backward);
        fwd.sort_unstable();
        bwd.sort_unstable();
        assert_eq!(fwd, bwd);
        assert_eq!(fwd.len(), 6);
        // One endpoint bound: the walk starts from it either way.
        assert_eq!(
            run(Some(ids[0]), None, PathDirection::Forward),
            run(Some(ids[0]), None, PathDirection::Backward)
        );
        assert_eq!(
            run(None, Some(ids[3]), PathDirection::Forward),
            run(None, Some(ids[3]), PathDirection::Backward)
        );
    }

    #[test]
    fn unknown_predicate_matches_nothing() {
        let (g, ids) = chain();
        let path = p(&g, "<p:never>+");
        assert!(eval_path(
            &g,
            &path,
            Some(ids[0]),
            None,
            &Budget::unlimited(),
            PathDirection::Forward
        )
        .is_empty());
        assert!(eval_path(
            &g,
            &path,
            None,
            None,
            &Budget::unlimited(),
            PathDirection::Forward
        )
        .is_empty());
    }
}
