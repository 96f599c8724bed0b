//! Differential test of the matcher against a reference SPARQL semantics.
//!
//! [`reference`] is a small evaluator transcribed from the set algebra of
//! Pérez, Arenas and Gutierrez (*Semantics and Complexity of SPARQL*). A
//! solution is a mapping from variables to terms, and two mappings are
//! compatible when they agree on every variable both bind:
//!
//! * a triple pattern denotes the mappings that send it into the graph;
//! * a group joins its parts: Ω1 ⋈ Ω2 = {μ1 ∪ μ2 | μ1, μ2 compatible};
//! * `OPTIONAL` is the left outer join (Ω1 ⋈ Ω2) ∪ (Ω1 ∖ Ω2), where
//!   Ω1 ∖ Ω2 keeps the μ1 compatible with no μ2;
//! * a group's `FILTER`s keep the mappings that satisfy all of them, and
//!   `NOT EXISTS { P }` holds for μ when no mapping of P is compatible
//!   with μ;
//! * a property path denotes a binary relation over the graph's nodes: an
//!   IRI its triples, `a/b` the composition, `a|b` the union, `a+` the
//!   least fixpoint of R = [[a]] ∪ R∘[[a]], and `a*` that plus the
//!   identity on the graph's nodes.
//!
//! Solutions are multisets: relations and triple-pattern matches are
//! sets, joins multiply multiplicities, and projection keeps duplicates.
//! ORDER BY is ignored. Comparisons follow the engine's documented
//! extension: two operands that read as numbers compare as numbers, a
//! number against a non-number is an error, and other terms compare by
//! identity (`=`, `!=`) or by their text.
//!
//! The fragment is what Algorithm 2 emits: IRI predicates, sequences,
//! alternations, `*` and `+`; FILTERs over comparisons, `&&`, `||`, `!`
//! and `NOT EXISTS`; `OPTIONAL`; projection with `AS`. Anything else
//! panics, so a compiler change that leaves the fragment is noticed. The
//! evaluator reads the parsed AST and the graph's triples and shares no
//! code with the engine's evaluator, path engine or planner: only RDF
//! terms and their numeric reading.

use std::collections::{BTreeMap, HashMap, HashSet};

use optimatch_core::builtin;
use optimatch_core::matcher::{MatchTarget, PatternMatch};
use optimatch_core::pattern::{Relationship, StreamKindSpec};
use optimatch_core::transform::TransformedQep;
use optimatch_core::vocab::{self, names};
use optimatch_core::{Matcher, Pattern, PatternPop, ScanOptions, Sign};
use optimatch_qep::fixtures;
use optimatch_sparql::parse_query;
use optimatch_workload::{generate_workload, GeneratorConfig, InjectionConfig, WorkloadConfig};

mod reference {
    use super::*;
    use optimatch_rdf::Term;
    use optimatch_sparql::ast::{
        CmpOp, Expression, GroupGraphPattern, NodePattern, Path, PatternElement, Query, SelectItem,
        TriplePattern,
    };

    /// A mapping: variable name → term id in the [`Store`].
    type Mapping = BTreeMap<String, u32>;
    /// A binary relation over term ids.
    type Relation = HashSet<(u32, u32)>;

    /// The graph's triples over local term ids.
    pub struct Store {
        terms: Vec<Term>,
        ids: HashMap<Term, u32>,
        by_predicate: HashMap<u32, Vec<(u32, u32)>>,
        nodes: Vec<u32>,
    }

    impl Store {
        pub fn new(graph: &optimatch_rdf::Graph) -> Store {
            let mut store = Store {
                terms: Vec::new(),
                ids: HashMap::new(),
                by_predicate: HashMap::new(),
                nodes: Vec::new(),
            };
            let mut nodes = HashSet::new();
            for (subject, predicate, object) in graph.iter() {
                let s = store.intern(&subject);
                let p = store.intern(&predicate);
                let o = store.intern(&object);
                store.by_predicate.entry(p).or_default().push((s, o));
                nodes.extend([s, o]);
            }
            store.nodes = nodes.into_iter().collect();
            store
        }

        fn intern(&mut self, term: &Term) -> u32 {
            if let Some(&id) = self.ids.get(term) {
                return id;
            }
            let id = self.terms.len() as u32;
            self.terms.push(term.clone());
            self.ids.insert(term.clone(), id);
            id
        }

        pub fn term(&self, id: u32) -> &Term {
            &self.terms[id as usize]
        }
    }

    /// The projected solutions of `query`: per solution, its bound output
    /// columns in projection order.
    pub fn solve(query: &Query, store: &Store) -> Vec<Vec<(String, Term)>> {
        assert!(
            !query.select_all && query.group_by.is_empty() && query.having.is_none(),
            "outside the reference fragment"
        );
        assert!(!query.distinct && query.limit.is_none() && query.offset.is_none());
        let columns: Vec<(&str, &str)> = query
            .select
            .iter()
            .map(|item| match item {
                SelectItem::Var(v) => (v.as_str(), v.as_str()),
                SelectItem::Expression {
                    expr: Expression::Var(v),
                    alias,
                } => (v.as_str(), alias.as_str()),
                other => panic!("projection outside the reference fragment: {other:?}"),
            })
            .collect();
        group(&query.where_clause, store)
            .iter()
            .map(|mu| {
                columns
                    .iter()
                    .filter_map(|(var, name)| {
                        let id = mu.get(*var)?;
                        Some((name.to_string(), store.term(*id).clone()))
                    })
                    .collect()
            })
            .collect()
    }

    /// A group: its triples, `OPTIONAL`s and nested groups in source
    /// order, joined, then filtered by every `FILTER` of the group.
    fn group(g: &GroupGraphPattern, store: &Store) -> Vec<Mapping> {
        let mut omega = vec![Mapping::new()];
        let mut bgp: Vec<&TriplePattern> = Vec::new();
        let mut filters = Vec::new();
        for element in &g.elements {
            match element {
                PatternElement::Triple(t) => bgp.push(t),
                PatternElement::Filter(e) => filters.push(e),
                PatternElement::Optional(inner) => {
                    omega = join(&omega, &basic(&std::mem::take(&mut bgp), store));
                    omega = left_join(&omega, &group(inner, store));
                }
                PatternElement::Group(inner) => {
                    omega = join(&omega, &basic(&std::mem::take(&mut bgp), store));
                    omega = join(&omega, &group(inner, store));
                }
                other => panic!("pattern outside the reference fragment: {other:?}"),
            }
        }
        omega = join(&omega, &basic(&bgp, store));
        omega
            .into_iter()
            .filter(|mu| filters.iter().all(|f| truth(f, mu, store).unwrap_or(false)))
            .collect()
    }

    /// A basic graph pattern: the join of its triple patterns. Join is
    /// associative and commutative, so each step takes the first pattern
    /// that shares a variable with what is joined so far, which keeps the
    /// intermediate results small without changing the answer.
    fn basic(patterns: &[&TriplePattern], store: &Store) -> Vec<Mapping> {
        let mut omega = vec![Mapping::new()];
        let mut bound: HashSet<&str> = HashSet::new();
        let mut left: Vec<&TriplePattern> = patterns.to_vec();
        while !left.is_empty() {
            let next = left
                .iter()
                .position(|t| vars(t).iter().any(|v| bound.contains(v)))
                .unwrap_or(0);
            let t = left.remove(next);
            bound.extend(vars(t));
            omega = join(&omega, &triple(t, store));
        }
        omega
    }

    fn vars(t: &TriplePattern) -> Vec<&str> {
        [&t.subject, &t.object]
            .into_iter()
            .filter_map(|n| match n {
                NodePattern::Var(v) => Some(v.as_str()),
                NodePattern::Term(_) => None,
            })
            .collect()
    }

    /// The mappings that send one triple pattern into the graph.
    fn triple(t: &TriplePattern, store: &Store) -> Vec<Mapping> {
        let mut out = Vec::new();
        for (s, o) in relation(&t.path, store) {
            let mut mu = Mapping::new();
            if bind(&mut mu, &t.subject, s, store) && bind(&mut mu, &t.object, o, store) {
                out.push(mu);
            }
        }
        out
    }

    /// Extend `mu` so that `node` denotes `id`; false when it cannot.
    fn bind(mu: &mut Mapping, node: &NodePattern, id: u32, store: &Store) -> bool {
        match node {
            NodePattern::Term(term) => store.term(id) == term,
            NodePattern::Var(v) => *mu.entry(v.clone()).or_insert(id) == id,
        }
    }

    /// The binary relation a property path denotes.
    fn relation(path: &Path, store: &Store) -> Relation {
        match path {
            Path::Iri(iri) => store
                .ids
                .get(&Term::iri(iri.as_str()))
                .and_then(|p| store.by_predicate.get(p))
                .map(|pairs| pairs.iter().copied().collect())
                .unwrap_or_default(),
            Path::Sequence(a, b) => compose(&relation(a, store), &relation(b, store)),
            Path::Alternative(a, b) => {
                let mut r = relation(a, store);
                r.extend(relation(b, store));
                r
            }
            Path::OneOrMore(a) => closure(&relation(a, store)),
            Path::ZeroOrMore(a) => {
                let mut r = closure(&relation(a, store));
                r.extend(store.nodes.iter().map(|&n| (n, n)));
                r
            }
            other => panic!("path outside the reference fragment: {other:?}"),
        }
    }

    /// R∘S = {(x, z) | (x, y) ∈ R, (y, z) ∈ S}.
    fn compose(r: &Relation, s: &Relation) -> Relation {
        let mut from: HashMap<u32, Vec<u32>> = HashMap::new();
        for &(y, z) in s {
            from.entry(y).or_default().push(z);
        }
        let mut out = Relation::new();
        for &(x, y) in r {
            for &z in from.get(&y).into_iter().flatten() {
                out.insert((x, z));
            }
        }
        out
    }

    /// The least fixpoint of R = base ∪ R∘base, computed semi-naively: each
    /// round composes only the pairs the previous round added.
    fn closure(base: &Relation) -> Relation {
        let mut all = base.clone();
        let mut delta = base.clone();
        while !delta.is_empty() {
            delta = compose(&delta, base)
                .into_iter()
                .filter(|pair| !all.contains(pair))
                .collect();
            all.extend(delta.iter().copied());
        }
        all
    }

    fn compatible(a: &Mapping, b: &Mapping) -> bool {
        a.iter().all(|(v, x)| b.get(v).is_none_or(|y| x == y))
    }

    /// Ω1 ⋈ Ω2. Mappings are bucketed by the variables that every mapping
    /// on both sides binds (compatible mappings agree on those), and
    /// compatibility is checked in full inside a bucket.
    fn join(left: &[Mapping], right: &[Mapping]) -> Vec<Mapping> {
        let always = |omega: &[Mapping]| -> HashSet<String> {
            let mut vars: Option<HashSet<String>> = None;
            for mu in omega {
                let here: HashSet<String> = mu.keys().cloned().collect();
                vars = Some(match vars {
                    None => here,
                    Some(v) => v.intersection(&here).cloned().collect(),
                });
            }
            vars.unwrap_or_default()
        };
        let shared: Vec<String> = always(left).intersection(&always(right)).cloned().collect();
        let key = |mu: &Mapping| -> Vec<u32> { shared.iter().map(|v| mu[v]).collect() };
        let mut buckets: HashMap<Vec<u32>, Vec<&Mapping>> = HashMap::new();
        for mu in right {
            buckets.entry(key(mu)).or_default().push(mu);
        }
        let mut out = Vec::new();
        for mu1 in left {
            for mu2 in buckets.get(&key(mu1)).into_iter().flatten() {
                if compatible(mu1, mu2) {
                    let mut merged = mu1.clone();
                    merged.extend(mu2.iter().map(|(v, x)| (v.clone(), *x)));
                    out.push(merged);
                }
            }
        }
        out
    }

    /// (Ω1 ⋈ Ω2) ∪ (Ω1 ∖ Ω2).
    fn left_join(left: &[Mapping], right: &[Mapping]) -> Vec<Mapping> {
        let mut out = join(left, right);
        out.extend(
            left.iter()
                .filter(|mu1| !right.iter().any(|mu2| compatible(mu1, mu2)))
                .cloned(),
        );
        out
    }

    /// A term as a comparison operand.
    enum Operand<'a> {
        Number(f64),
        Term(&'a Term),
    }

    fn operand<'a>(e: &'a Expression, mu: &Mapping, store: &'a Store) -> Option<Operand<'a>> {
        let term = match e {
            Expression::Var(v) => store.term(*mu.get(v)?),
            Expression::Constant(t) => t,
            other => panic!("operand outside the reference fragment: {other:?}"),
        };
        Some(match term.numeric_value() {
            Some(n) => Operand::Number(n),
            None => Operand::Term(term),
        })
    }

    /// The truth value of a FILTER condition under `mu`; `None` is an
    /// error, which SPARQL's `||` and `&&` absorb where the other side
    /// decides.
    fn truth(e: &Expression, mu: &Mapping, store: &Store) -> Option<bool> {
        match e {
            Expression::Or(a, b) => match (truth(a, mu, store), truth(b, mu, store)) {
                (Some(true), _) | (_, Some(true)) => Some(true),
                (Some(false), Some(false)) => Some(false),
                _ => None,
            },
            Expression::And(a, b) => match (truth(a, mu, store), truth(b, mu, store)) {
                (Some(false), _) | (_, Some(false)) => Some(false),
                (Some(true), Some(true)) => Some(true),
                _ => None,
            },
            Expression::Not(a) => truth(a, mu, store).map(|t| !t),
            Expression::Compare(op, a, b) => {
                let ordering = match (operand(a, mu, store)?, operand(b, mu, store)?) {
                    (Operand::Number(x), Operand::Number(y)) => x.partial_cmp(&y)?,
                    (Operand::Term(x), Operand::Term(y)) => match op {
                        CmpOp::Eq => return Some(x == y),
                        CmpOp::Neq => return Some(x != y),
                        _ => x.display_text().cmp(&y.display_text()),
                    },
                    _ => return None,
                };
                Some(match op {
                    CmpOp::Eq => ordering.is_eq(),
                    CmpOp::Neq => ordering.is_ne(),
                    CmpOp::Lt => ordering.is_lt(),
                    CmpOp::Le => ordering.is_le(),
                    CmpOp::Gt => ordering.is_gt(),
                    CmpOp::Ge => ordering.is_ge(),
                })
            }
            Expression::Exists(inner, positive) => {
                let found = group(inner, store).iter().any(|mu2| compatible(mu, mu2));
                Some(found == *positive)
            }
            other => panic!("condition outside the reference fragment: {other:?}"),
        }
    }
}

/// A dozen generated plans, each pattern injected into about half of
/// them, after the paper's figure plans.
fn workload() -> Vec<TransformedQep> {
    let generated = generate_workload(&WorkloadConfig {
        seed: 0x0E_AC1E,
        num_qeps: 12,
        generator: GeneratorConfig::default(),
        injection: InjectionConfig {
            rate_a: 0.5,
            rate_b: 0.5,
            rate_c: 0.5,
            rate_d: 0.5,
            ..InjectionConfig::paper_rates()
        },
    });
    [
        fixtures::fig1(),
        fixtures::fig1_sort_spill(),
        fixtures::fig7(),
        fixtures::fig8(),
    ]
    .into_iter()
    .chain(generated.qeps)
    .map(TransformedQep::new)
    .collect()
}

/// Patterns that reach the parts of the fragment no KB entry uses: no
/// entry reports an optional property, so these add OPTIONALs that most
/// operators leave unbound and some bind more than once (a join carries
/// one `hasJoinPredicate` per join predicate), under any-kind immediate
/// and descendant hops (the `(a|b|c)+` closure) and beside a NOT EXISTS.
fn fragment_probes() -> Vec<Pattern> {
    vec![
        Pattern::new("probe-optional-join-predicate", "").with_pop(
            PatternPop::new(1, "ANY")
                .alias("OP")
                .optional_prop(names::HAS_JOIN_PREDICATE, "JP"),
        ),
        Pattern::new("probe-join-over-optional-scan", "")
            .with_pop(
                PatternPop::new(1, "JOIN")
                    .alias("TOP")
                    .prop(names::HAS_TOTAL_COST, Sign::Gt, "1000")
                    .stream(StreamKindSpec::Any, 2, Relationship::Descendant),
            )
            .with_pop(
                PatternPop::new(2, "SCAN")
                    .alias("SCAN")
                    .optional_prop(names::HAS_SARGABLE_PREDICATE, "SP")
                    .absent(names::HAS_JOIN_PREDICATE),
            ),
        Pattern::new("probe-any-child-optional", "")
            .with_pop(PatternPop::new(1, "ANY").alias("PARENT").stream(
                StreamKindSpec::Any,
                2,
                Relationship::Immediate,
            ))
            .with_pop(
                PatternPop::new(2, "ANY")
                    .alias("CHILD")
                    .optional_prop(names::HAS_JOIN_PREDICATE, "JP"),
            ),
    ]
}

/// One solution as comparable text: the plan, then each bound column's
/// name and the IRI or literal text it stands for.
type Solution = (String, Vec<(String, String)>);

fn engine_solution(m: &PatternMatch) -> Solution {
    let bindings = m
        .bindings
        .iter()
        .map(|b| {
            let text = match &b.target {
                MatchTarget::Pop { id, .. } => vocab::pop_iri(*id),
                MatchTarget::Object(name) => vocab::object_iri(name),
                MatchTarget::Value(v) => v.clone(),
            };
            (b.name.clone(), text)
        })
        .collect();
    (m.qep_id.clone(), bindings)
}

fn sorted(mut solutions: Vec<Solution>) -> Vec<Solution> {
    solutions.sort();
    solutions
}

/// Every entry of the paper, extended and 40-entry synthetic KBs, and
/// every fragment probe, finds exactly the reference solution multiset on
/// every plan, with the planner on and in source order.
#[test]
fn search_agrees_with_the_reference_semantics() {
    let workload = workload();
    let stores: Vec<reference::Store> = workload
        .iter()
        .map(|t| reference::Store::new(&t.graph))
        .collect();
    let patterns: Vec<Pattern> = builtin::extended_entries()
        .iter()
        .chain(builtin::synthetic_kb(40).entries())
        .map(|entry| entry.pattern.clone())
        .chain(fragment_probes())
        .collect();
    let mut seen = HashSet::new();
    let mut matched_entries = 0;
    for pattern in &patterns {
        let matcher = Matcher::compile(pattern).expect("patterns compile");
        if !seen.insert(matcher.sparql().to_string()) {
            continue;
        }
        let query = parse_query(matcher.sparql()).expect("compiled SPARQL parses");
        let expected = sorted(
            workload
                .iter()
                .zip(&stores)
                .flat_map(|(t, store)| {
                    reference::solve(&query, store)
                        .into_iter()
                        .map(|row| {
                            let bindings = row
                                .into_iter()
                                .map(|(name, term)| (name, term.display_text().into_owned()))
                                .collect();
                            (t.qep.id.clone(), bindings)
                        })
                        .collect::<Vec<_>>()
                })
                .collect(),
        );
        matched_entries += usize::from(!expected.is_empty());
        for optimize in [true, false] {
            let outcome = matcher
                .search_workload(&workload, &ScanOptions::default().optimize(optimize))
                .expect("unbudgeted searches succeed");
            assert!(outcome.incidents.is_empty(), "{:?}", outcome.incidents);
            let got = sorted(outcome.matches.iter().map(engine_solution).collect());
            assert!(
                got == expected,
                "{} (optimize {optimize}): engine {} solutions, reference {}\n{}",
                pattern.name,
                got.len(),
                expected.len(),
                matcher.sparql()
            );
        }
    }
    assert!(
        matched_entries * 2 >= seen.len(),
        "only {matched_entries} of {} distinct queries match anything",
        seen.len()
    );
}
