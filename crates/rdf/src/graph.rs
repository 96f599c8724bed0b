//! The in-memory triple store.
//!
//! A [`Graph`] is built once and never changes: a [`GraphBuilder`] (or
//! [`Graph::from_parts`], for a persisted graph) hands its id triples to
//! one constructor, which sorts them into three indexes — SPO, POS and
//! OSP — and computes the planner's [`GraphStats`] in the same pass. Any
//! triple pattern then resolves to one contiguous range of the index
//! [`Graph::index_for`] names, so a pattern's match count is the length
//! of that range. This is the same indexing discipline RDF stores like
//! Jena TDB use, scaled down to the per-QEP graphs OptImatch works with
//! (hundreds to a few thousand triples each).
//!
//! A graph also holds a numeric column, one `f64` per term
//! ([`Graph::number`]), so a SPARQL FILTER compares a bound literal's
//! number without parsing its text. It is filled on the first read, not
//! when the graph is built: opening a repository or transforming a plan
//! does not pay for it.

use std::sync::OnceLock;

use crate::pool::{TermId, TermPool};
use crate::term::Term;

/// A triple of interned term ids `[subject, predicate, object]`.
pub type IdTriple = [TermId; 3];

/// A resolved triple of owned terms.
pub type Triple = (Term, Term, Term);

/// Which index a pattern scan will use; exposed so the SPARQL layer's
/// selectivity heuristics can reason about it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IndexChoice {
    /// Subject-Predicate-Object index.
    Spo,
    /// Predicate-Object-Subject index.
    Pos,
    /// Object-Subject-Predicate index.
    Osp,
}

impl IndexChoice {
    /// Reorder `[s, p, o]` into this index's key order.
    fn key<T>(self, [s, p, o]: [T; 3]) -> [T; 3] {
        match self {
            IndexChoice::Spo => [s, p, o],
            IndexChoice::Pos => [p, o, s],
            IndexChoice::Osp => [o, s, p],
        }
    }

    /// Reorder a key of this index back into `[s, p, o]`.
    fn triple<T>(self, [a, b, c]: [T; 3]) -> [T; 3] {
        match self {
            IndexChoice::Spo => [a, b, c],
            IndexChoice::Pos => [c, a, b],
            IndexChoice::Osp => [b, c, a],
        }
    }
}

/// Per-predicate cardinality statistics — the selectivity signals the
/// SPARQL planner turns into row estimates. `count / distinct_subjects`
/// is the average fan-out of the predicate (objects per bound subject);
/// `count / distinct_objects` is the average fan-in (subjects per bound
/// object).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PredicateStats {
    /// The predicate's interned id.
    pub predicate: TermId,
    /// Total triples carrying this predicate.
    pub count: usize,
    /// Distinct subjects among those triples (≥ 1 when `count` ≥ 1).
    pub distinct_subjects: usize,
    /// Distinct objects among those triples (≥ 1 when `count` ≥ 1).
    pub distinct_objects: usize,
}

impl PredicateStats {
    /// Average objects reached per bound subject (`count / distinct_subjects`).
    pub fn fan_out(&self) -> f64 {
        self.count as f64 / (self.distinct_subjects.max(1)) as f64
    }

    /// Average subjects reached per bound object (`count / distinct_objects`).
    pub fn fan_in(&self) -> f64 {
        self.count as f64 / (self.distinct_objects.max(1)) as f64
    }
}

/// Whole-graph statistics, computed when the graph is built, so the
/// planner's per-pattern estimates are O(log P) probes.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct GraphStats {
    /// Total triples in the graph.
    pub triples: usize,
    /// Total interned terms (nodes *and* predicates *and* literals).
    pub terms: usize,
    /// Per-predicate statistics, sorted by predicate id.
    pub predicates: Vec<PredicateStats>,
}

impl GraphStats {
    /// Look up one predicate's statistics (binary search by id).
    pub fn predicate(&self, p: TermId) -> Option<&PredicateStats> {
        self.predicates
            .binary_search_by_key(&p, |ps| ps.predicate)
            .ok()
            .map(|i| &self.predicates[i])
    }
}

/// Compute [`GraphStats`] from the indexes: one POS walk yields per-
/// predicate counts and distinct objects (objects are sorted within a
/// predicate, so transitions count them); one SPO walk yields distinct
/// subjects (predicates are sorted within a subject, so each new `(s, p)`
/// pair is one distinct subject for `p`).
fn compute_stats(spo: &[u128], pos: &[u128], terms: usize) -> GraphStats {
    let mut predicates: Vec<PredicateStats> = Vec::new();
    let mut last: Option<[TermId; 2]> = None;
    for [p, o, _] in pos.iter().map(|&k| unpack(k)) {
        match predicates.last_mut() {
            Some(ps) if ps.predicate == p => {
                ps.count += 1;
                if last != Some([p, o]) {
                    ps.distinct_objects += 1;
                }
            }
            _ => predicates.push(PredicateStats {
                predicate: p,
                count: 1,
                distinct_subjects: 0,
                distinct_objects: 1,
            }),
        }
        last = Some([p, o]);
    }
    let mut last_sp: Option<[TermId; 2]> = None;
    for [s, p, _] in spo.iter().map(|&k| unpack(k)) {
        if last_sp != Some([s, p]) {
            if let Ok(i) = predicates.binary_search_by_key(&p, |ps| ps.predicate) {
                predicates[i].distinct_subjects += 1;
            }
        }
        last_sp = Some([s, p]);
    }
    GraphStats {
        triples: spo.len(),
        terms,
        predicates,
    }
}

/// An index key: three ids packed most significant first, so keys sort in
/// the lexicographic order of the ids.
fn pack([a, b, c]: [TermId; 3]) -> u128 {
    (u128::from(a.0) << 64) | (u128::from(b.0) << 32) | u128::from(c.0)
}

/// The three ids of an index key.
fn unpack(key: u128) -> [TermId; 3] {
    [
        TermId((key >> 64) as u32),
        TermId((key >> 32) as u32),
        TermId(key as u32),
    ]
}

/// A stable counting sort of index keys by the id at bit `shift` (0, 32
/// or 64). Every id is below `terms`, so one count per term places each
/// key: O(keys + terms), no comparisons.
fn sort_by_id(keys: &[u128], shift: u32, terms: usize) -> Vec<u128> {
    let id = |key: u128| (key >> shift) as u32 as usize;
    let mut starts = vec![0usize; terms + 1];
    for &key in keys {
        starts[id(key) + 1] += 1;
    }
    for i in 1..starts.len() {
        starts[i] += starts[i - 1];
    }
    let mut sorted = keys.to_vec();
    for &key in keys {
        let at = &mut starts[id(key)];
        sorted[*at] = key;
        *at += 1;
    }
    sorted
}

/// The index `to`, derived from `index`, the sorted index `from`. `to`'s
/// leading id is `from`'s last, so one stable counting pass on it keeps
/// the order of the other two.
fn derive_index(index: &[u128], from: IndexChoice, to: IndexChoice, terms: usize) -> Vec<u128> {
    let keys: Vec<u128> = index
        .iter()
        .map(|&key| pack(to.key(from.triple(unpack(key)))))
        .collect();
    sort_by_id(&keys, 64, terms)
}

/// The end of the run of keys `<= hi` that starts at `from`, found by
/// galloping: a range of `k` keys costs O(log k) comparisons, so point
/// and short-range lookups stay near `from`.
fn gallop_end(index: &[u128], from: usize, hi: u128) -> usize {
    let rest = &index[from..];
    let mut step = 1;
    while step < rest.len() && rest[step] <= hi {
        step *= 2;
    }
    let lo = step / 2;
    from + lo + rest[lo..step.min(rest.len())].partition_point(|&k| k <= hi)
}

/// Collects the triples of one graph, then sorts them into a [`Graph`].
///
/// Terms get dense ids in the order they are first interned, so the same
/// sequence of interning calls always produces the same ids, which a
/// persisted graph's term table reproduces. [`GraphBuilder::insert`]
/// interns subject, predicate and object in that order. The id path
/// ([`GraphBuilder::iri`], [`GraphBuilder::literal`],
/// [`GraphBuilder::term`], then [`GraphBuilder::push`]) lets a caller
/// intern each distinct term once and find an IRI or a plain literal
/// from borrowed text, building a term only when it is new.
#[derive(Debug, Default)]
pub struct GraphBuilder {
    pool: TermPool,
    triples: Vec<IdTriple>,
}

impl GraphBuilder {
    /// Start an empty graph.
    pub fn new() -> GraphBuilder {
        GraphBuilder::default()
    }

    /// Intern a term, returning its id in the graph being built.
    pub fn term(&mut self, term: Term) -> TermId {
        self.pool.intern(term)
    }

    /// Intern the IRI `iri` from borrowed text.
    pub fn iri(&mut self, iri: &str) -> TermId {
        self.pool.intern_iri(iri)
    }

    /// Intern the plain literal `text` from borrowed text.
    pub fn literal(&mut self, text: &str) -> TermId {
        self.pool.intern_literal(text)
    }

    /// Add a triple of ids this builder returned. A repeated triple is
    /// stored once.
    ///
    /// # Panics
    /// Panics if an id is not one this builder has returned.
    pub fn push(&mut self, triple: IdTriple) {
        let terms = self.pool.len();
        assert!(
            triple.iter().all(|id| (id.0 as usize) < terms),
            "triple {triple:?} names a term this builder never returned"
        );
        self.triples.push(triple);
    }

    /// Add a triple of terms, interning subject, predicate and object in
    /// that order. A repeated triple is stored once.
    pub fn insert(&mut self, s: Term, p: Term, o: Term) {
        let triple = [self.term(s), self.term(p), self.term(o)];
        self.triples.push(triple);
    }

    /// Index the collected triples.
    pub fn build(self) -> Graph {
        Graph::indexed(self.pool, &self.triples)
    }
}

/// An immutable in-memory RDF graph: a term pool, three sorted indexes
/// and the statistics computed from them.
#[derive(Debug, Default, Clone)]
pub struct Graph {
    pool: TermPool,
    // Each index holds every triple once, as a `pack`ed key in that
    // index's order, sorted ascending.
    spo: Vec<u128>,
    pos: Vec<u128>,
    osp: Vec<u128>,
    stats: GraphStats,
    /// Each term's [`Term::numeric_value`] by id, NaN where it has none;
    /// filled by the first [`Graph::number`].
    numbers: OnceLock<Box<[f64]>>,
}

impl Graph {
    /// The one constructor: sort `triples` (ids from `pool`) into the
    /// three indexes, dropping repeats, and compute the statistics.
    ///
    /// Ids are dense below `pool.len()`, so every index comes from stable
    /// counting passes instead of comparison sorts: SPO from three passes
    /// (object, predicate, subject), OSP from SPO by one pass on the
    /// object, and POS from OSP by one pass on the predicate.
    fn indexed(pool: TermPool, triples: &[IdTriple]) -> Graph {
        let terms = pool.len();
        let mut spo: Vec<u128> = triples.iter().map(|&t| pack(t)).collect();
        for shift in [0, 32, 64] {
            spo = sort_by_id(&spo, shift, terms);
        }
        spo.dedup();
        let osp = derive_index(&spo, IndexChoice::Spo, IndexChoice::Osp, terms);
        let pos = derive_index(&osp, IndexChoice::Osp, IndexChoice::Pos, terms);
        let stats = compute_stats(&spo, &pos, terms);
        Graph {
            pool,
            spo,
            pos,
            osp,
            stats,
            numbers: OnceLock::new(),
        }
    }

    /// Rebuild a graph from its serialized parts: the term table in
    /// interning order and the id triples. The reconstructed graph is
    /// indistinguishable from the original — same dense ids, same index
    /// contents — which is what lets a persisted graph evaluate SPARQL
    /// identically to a freshly transformed one.
    pub fn from_parts(terms: Vec<Term>, triples: &[IdTriple]) -> Result<Graph, String> {
        let pool = TermPool::from_terms(terms)?;
        let limit = pool.len();
        for id in triples.iter().flatten() {
            if id.0 as usize >= limit {
                return Err(format!(
                    "triple references term id {} but the pool holds {limit} term(s)",
                    id.0
                ));
            }
        }
        Ok(Graph::indexed(pool, triples))
    }

    /// The graph's term pool (for resolving [`TermId`]s).
    pub fn pool(&self) -> &TermPool {
        &self.pool
    }

    /// Number of triples stored.
    pub fn len(&self) -> usize {
        self.spo.len()
    }

    /// True when the graph holds no triples.
    pub fn is_empty(&self) -> bool {
        self.spo.is_empty()
    }

    /// Look up a term's id.
    pub fn term_id(&self, term: &Term) -> Option<TermId> {
        self.pool.get(term)
    }

    /// Look up the id of the IRI term `iri` without building the term.
    pub fn iri_id(&self, iri: &str) -> Option<TermId> {
        self.pool.get_iri(iri)
    }

    /// Resolve an id back to its term.
    pub fn term(&self, id: TermId) -> &Term {
        self.pool.resolve(id)
    }

    /// The term's [`Term::numeric_value`], read from the graph's numeric
    /// column. The first call on a graph fills the column, parsing each
    /// term once; every later call is an array read.
    ///
    /// # Panics
    /// Panics if the id did not come from this graph's pool.
    pub fn number(&self, id: TermId) -> Option<f64> {
        let numbers = self.numbers.get_or_init(|| {
            self.pool
                .iter()
                .map(|(_, term)| term.numeric_value().unwrap_or(f64::NAN))
                .collect()
        });
        let n = numbers[id.0 as usize];
        (!n.is_nan()).then_some(n)
    }

    /// Whole-graph cardinality statistics, computed when the graph was
    /// built.
    pub fn stats(&self) -> &GraphStats {
        &self.stats
    }

    /// True when the graph contains the exact triple.
    pub fn contains(&self, s: &Term, p: &Term, o: &Term) -> bool {
        self.has_match(Some(s), Some(p), Some(o))
    }

    /// Iterate over every triple as ids, in SPO order.
    pub fn iter_ids(&self) -> impl Iterator<Item = IdTriple> + '_ {
        self.spo.iter().map(|&k| unpack(k))
    }

    /// Iterate over every triple as resolved terms, in SPO order.
    pub fn iter(&self) -> impl Iterator<Item = Triple> + '_ {
        self.iter_ids().map(move |t| self.resolve_triple(t))
    }

    /// Which index [`Graph::matching_ids`] will scan for a given binding
    /// shape (`true` = position bound). The bound positions always lead
    /// that index's key order.
    pub fn index_for(s: bool, p: bool, o: bool) -> IndexChoice {
        match (s, p, o) {
            (true, true, true) => IndexChoice::Spo,
            (true, _, false) => IndexChoice::Spo,
            (true, false, true) => IndexChoice::Osp,
            (false, true, _) => IndexChoice::Pos,
            (false, false, true) => IndexChoice::Osp,
            (false, false, false) => IndexChoice::Spo,
        }
    }

    fn index(&self, choice: IndexChoice) -> &[u128] {
        match choice {
            IndexChoice::Spo => &self.spo,
            IndexChoice::Pos => &self.pos,
            IndexChoice::Osp => &self.osp,
        }
    }

    /// Scan all triples matching the pattern, where `None` is a wildcard,
    /// in the order of the [`Graph::index_for`] index; the iterator's
    /// length is the match count. Ids must come from this graph's pool.
    pub fn matching_ids(
        &self,
        s: Option<TermId>,
        p: Option<TermId>,
        o: Option<TermId>,
    ) -> impl ExactSizeIterator<Item = IdTriple> + '_ {
        let choice = Graph::index_for(s.is_some(), p.is_some(), o.is_some());
        let index = self.index(choice);
        // The bound positions lead the key, so the matches are exactly the
        // keys between the bound prefix padded with the smallest and with
        // the largest id.
        let prefix = choice.key([s, p, o]);
        let lo = pack(prefix.map(|id| id.unwrap_or(TermId(0))));
        let hi = pack(prefix.map(|id| id.unwrap_or(TermId(u32::MAX))));
        let start = index.partition_point(|&k| k < lo);
        let end = gallop_end(index, start, hi);
        index[start..end]
            .iter()
            .map(move |&k| choice.triple(unpack(k)))
    }

    /// Scan matching triples by term, resolving results to owned terms.
    /// A pattern term that is not even interned matches nothing.
    pub fn triples_matching<'g>(
        &'g self,
        s: Option<&Term>,
        p: Option<&Term>,
        o: Option<&Term>,
    ) -> impl Iterator<Item = Triple> + 'g {
        self.pattern_ids([s, p, o])
            .into_iter()
            .flat_map(move |[s, p, o]| self.matching_ids(s, p, o))
            .map(move |t| self.resolve_triple(t))
    }

    /// True when at least one triple matches `(s, p, o)`, `None` being a
    /// wildcard: one O(log n) index probe. A term that is not interned
    /// matches nothing.
    pub fn has_match(&self, s: Option<&Term>, p: Option<&Term>, o: Option<&Term>) -> bool {
        self.pattern_ids([s, p, o])
            .is_some_and(|[s, p, o]| self.matching_ids(s, p, o).len() > 0)
    }

    /// Translate a term pattern to ids, keeping wildcards; `None` when a
    /// bound term is not interned (so nothing can match).
    fn pattern_ids(&self, pattern: [Option<&Term>; 3]) -> Option<[Option<TermId>; 3]> {
        let mut ids = [None; 3];
        for (slot, term) in ids.iter_mut().zip(pattern) {
            if let Some(t) = term {
                *slot = Some(self.pool.get(t)?);
            }
        }
        Some(ids)
    }

    fn resolve_triple(&self, [s, p, o]: IdTriple) -> Triple {
        (
            self.pool.resolve(s).clone(),
            self.pool.resolve(p).clone(),
            self.pool.resolve(o).clone(),
        )
    }

    /// The single object of `(s, p, ?)` if exactly one exists.
    pub fn object_of(&self, s: &Term, p: &Term) -> Option<Term> {
        let mut it = self.triples_matching(Some(s), Some(p), None);
        let first = it.next()?;
        if it.next().is_some() {
            return None;
        }
        Some(first.2)
    }

    /// All objects of `(s, p, ?)`.
    pub fn objects_of(&self, s: &Term, p: &Term) -> Vec<Term> {
        self.triples_matching(Some(s), Some(p), None)
            .map(|t| t.2)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::term;

    fn sample() -> Graph {
        let mut g = GraphBuilder::new();
        let p_type = Term::iri("p:hasPopType");
        let p_card = Term::iri("p:hasEstimateCardinality");
        let p_in = Term::iri("p:hasInputStream");
        g.insert(Term::iri("q:pop2"), p_type.clone(), Term::lit_str("NLJOIN"));
        g.insert(Term::iri("q:pop3"), p_type.clone(), Term::lit_str("FETCH"));
        g.insert(Term::iri("q:pop5"), p_type.clone(), Term::lit_str("TBSCAN"));
        g.insert(Term::iri("q:pop5"), p_card.clone(), Term::lit_str("4043.0"));
        g.insert(Term::iri("q:pop2"), p_in.clone(), Term::iri("q:pop3"));
        g.insert(Term::iri("q:pop2"), p_in.clone(), Term::iri("q:pop5"));
        g.build()
    }

    #[test]
    fn insert_deduplicates() {
        let mut g = GraphBuilder::new();
        g.insert(Term::iri("a"), Term::iri("b"), Term::iri("c"));
        g.insert(Term::iri("a"), Term::iri("b"), Term::iri("c"));
        let g = g.build();
        assert_eq!(g.len(), 1);
        assert_eq!(g.pool().len(), 3);
    }

    #[test]
    fn all_binding_shapes_agree() {
        let g = sample();
        let all: Vec<Triple> = g.iter().collect();
        assert_eq!(all.len(), 6);
        // For every stored triple, every partially-bound pattern must find it.
        for (s, p, o) in &all {
            for (bs, bp, bo) in [
                (true, true, true),
                (true, true, false),
                (true, false, true),
                (false, true, true),
                (true, false, false),
                (false, true, false),
                (false, false, true),
                (false, false, false),
            ] {
                let found: Vec<Triple> = g
                    .triples_matching(bs.then_some(s), bp.then_some(p), bo.then_some(o))
                    .collect();
                assert!(
                    found.contains(&(s.clone(), p.clone(), o.clone())),
                    "pattern ({bs},{bp},{bo}) missed {s} {p} {o}"
                );
            }
        }
    }

    #[test]
    fn scans_are_exact_not_superset() {
        let g = sample();
        let pops: Vec<Triple> = g
            .triples_matching(None, Some(&Term::iri("p:hasPopType")), None)
            .collect();
        assert_eq!(pops.len(), 3);
        let tbscans: Vec<Triple> = g
            .triples_matching(
                None,
                Some(&Term::iri("p:hasPopType")),
                Some(&Term::lit_str("TBSCAN")),
            )
            .collect();
        assert_eq!(tbscans.len(), 1);
        assert_eq!(tbscans[0].0, Term::iri("q:pop5"));
    }

    #[test]
    fn unknown_terms_match_nothing() {
        let g = sample();
        assert_eq!(
            g.triples_matching(Some(&Term::iri("q:nope")), None, None)
                .count(),
            0
        );
        assert!(!g.contains(
            &Term::iri("q:pop2"),
            &Term::iri("p:hasPopType"),
            &Term::lit_str("HSJOIN")
        ));
    }

    #[test]
    fn object_helpers() {
        let g = sample();
        assert_eq!(
            g.object_of(&Term::iri("q:pop5"), &Term::iri("p:hasPopType")),
            Some(Term::lit_str("TBSCAN"))
        );
        // Two input streams ⇒ object_of refuses to pick one.
        assert_eq!(
            g.object_of(&Term::iri("q:pop2"), &Term::iri("p:hasInputStream")),
            None
        );
        assert_eq!(
            g.objects_of(&Term::iri("q:pop2"), &Term::iri("p:hasInputStream"))
                .len(),
            2
        );
    }

    #[test]
    fn has_match_probes_with_wildcards() {
        let g = sample();
        let p = |n: &str| Term::iri(n);
        assert!(g.has_match(None, Some(&p("p:hasInputStream")), None));
        assert!(!g.has_match(None, Some(&p("p:never")), None));
        // An interned term that never appears in predicate position.
        assert!(!g.has_match(None, Some(&p("q:pop2")), None));

        let tbscan = Term::lit_str("TBSCAN");
        assert!(g.has_match(None, Some(&p("p:hasPopType")), Some(&tbscan)));
        assert!(!g.has_match(
            None,
            Some(&p("p:hasPopType")),
            Some(&Term::lit_str("HSJOIN"))
        ));
        assert!(!g.has_match(None, Some(&p("p:never")), Some(&tbscan)));
        assert!(g.has_match(Some(&p("q:pop5")), Some(&p("p:hasPopType")), None));
        assert!(!g.has_match(Some(&p("q:pop2")), Some(&p("p:hasPopType")), Some(&tbscan)));
        assert!(g.has_match(None, None, None));
        assert!(!Graph::default().has_match(None, None, None));
    }

    #[test]
    fn from_parts_reconstructs_an_identical_graph() {
        let g = sample();
        let terms: Vec<Term> = g.pool().iter().map(|(_, t)| t.clone()).collect();
        let triples: Vec<IdTriple> = g.iter_ids().collect();
        let rebuilt = Graph::from_parts(terms, &triples).unwrap();
        assert_eq!(rebuilt.len(), g.len());
        assert_eq!(rebuilt.pool().len(), g.pool().len());
        // Same dense ids for the same terms.
        for (id, term) in g.pool().iter() {
            assert_eq!(rebuilt.pool().get(term), Some(id));
        }
        // Same triples in the same SPO order, and working secondary indexes.
        assert_eq!(
            rebuilt.iter_ids().collect::<Vec<_>>(),
            g.iter_ids().collect::<Vec<_>>()
        );
    }

    #[test]
    fn from_parts_rejects_bad_inputs() {
        let dup = Graph::from_parts(vec![Term::iri("a"), Term::iri("a")], &[]);
        assert!(dup.is_err());
        let oob = Graph::from_parts(vec![Term::iri("a")], &[[TermId(0), TermId(0), TermId(1)]]);
        assert!(oob.unwrap_err().contains("term id 1"));
    }

    #[test]
    fn stats_count_per_predicate_cardinalities() {
        let g = sample();
        let stats = g.stats();
        assert_eq!(stats.triples, 6);
        assert_eq!(stats.terms, g.pool().len());
        assert_eq!(stats.predicates.len(), 3);
        // Sorted by predicate id, and consistent with the slow paths.
        for w in stats.predicates.windows(2) {
            assert!(w[0].predicate < w[1].predicate);
        }
        for ps in &stats.predicates {
            let scan = g.matching_ids(None, Some(ps.predicate), None).count();
            assert_eq!(ps.count, scan);
        }

        // p:hasPopType — 3 triples, 3 subjects, 3 objects: fan-out 1.
        let p_type = g.term_id(&Term::iri("p:hasPopType")).unwrap();
        let ps = stats.predicate(p_type).unwrap();
        assert_eq!(
            (ps.count, ps.distinct_subjects, ps.distinct_objects),
            (3, 3, 3)
        );
        assert_eq!(ps.fan_out(), 1.0);
        assert_eq!(ps.fan_in(), 1.0);

        // p:hasInputStream — 2 triples from one subject: fan-out 2, fan-in 1.
        let p_in = g.term_id(&Term::iri("p:hasInputStream")).unwrap();
        let ps = stats.predicate(p_in).unwrap();
        assert_eq!(
            (ps.count, ps.distinct_subjects, ps.distinct_objects),
            (2, 1, 2)
        );
        assert_eq!(ps.fan_out(), 2.0);
        assert_eq!(ps.fan_in(), 1.0);

        // A term that is never a predicate has no stats entry.
        let subj = g.term_id(&Term::iri("q:pop2")).unwrap();
        assert!(stats.predicate(subj).is_none());
    }

    #[test]
    fn numeric_column_is_each_terms_numeric_value() {
        let mut g = GraphBuilder::new();
        let p = Term::iri("p:v");
        for (i, o) in [
            Term::lit_str("4043.0"),
            Term::lit_str(" 1.93187e+06 "),
            Term::lit_str("1e400"),
            Term::lit_str("TBSCAN"),
            Term::lit_integer(-7),
            Term::lit_typed("42", term::xsd::STRING),
            Term::Literal(crate::Literal::LangTagged {
                lexical: "5".into(),
                lang: "en".into(),
            }),
            Term::iri("12"),
        ]
        .into_iter()
        .enumerate()
        {
            g.insert(Term::bnode(format!("n{i}")), p.clone(), o);
        }
        let g = g.build();
        for (id, term) in g.pool().iter() {
            assert_eq!(g.number(id), term.numeric_value(), "{term}");
        }
        let number = |t: Term| g.number(g.term_id(&t).unwrap());
        assert_eq!(number(Term::lit_str(" 1.93187e+06 ")), Some(1_931_870.0));
        assert_eq!(number(Term::lit_str("1e400")), Some(f64::INFINITY));
        assert_eq!(number(Term::lit_typed("42", term::xsd::STRING)), None);
        assert_eq!(number(Term::iri("12")), None);
    }

    #[test]
    fn stats_match_between_built_and_reconstructed_graphs() {
        let g = sample();
        let terms: Vec<Term> = g.pool().iter().map(|(_, t)| t.clone()).collect();
        let triples: Vec<IdTriple> = g.iter_ids().collect();
        let rebuilt = Graph::from_parts(terms, &triples).unwrap();
        assert_eq!(rebuilt.stats(), g.stats());
    }
}
