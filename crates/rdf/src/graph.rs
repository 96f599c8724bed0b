//! The in-memory triple store.
//!
//! A [`Graph`] keeps every triple in three B-tree indexes — SPO, POS, and
//! OSP — so that any triple pattern with at least one bound position resolves
//! to a contiguous range scan. This is the same indexing discipline RDF
//! stores like Jena TDB use, scaled down to the per-QEP graphs OptImatch
//! works with (hundreds to a few thousand triples each).

use std::collections::BTreeSet;
use std::ops::Bound;
use std::sync::{Arc, OnceLock};

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

/// Whole-graph statistics: computed once per graph (two index walks) and
/// cached, so the planner's per-pattern estimates are O(log P) probes.
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

    /// Total triples carrying predicate `p` (0 when absent).
    pub fn predicate_count(&self, p: TermId) -> usize {
        self.predicate(p).map_or(0, |ps| ps.count)
    }
}

/// Compute [`GraphStats`] from the indexes: one POS walk yields per-
/// predicate counts and distinct objects (objects are sorted within a
/// predicate, so transitions count them); one SPO walk yields distinct
/// subjects (predicates are sorted within a subject, so each new `(s, p)`
/// pair is one distinct subject for `p`).
fn compute_stats(
    spo: &BTreeSet<[TermId; 3]>,
    pos: &BTreeSet<[TermId; 3]>,
    terms: usize,
) -> GraphStats {
    let mut predicates: Vec<PredicateStats> = Vec::new();
    let mut last: Option<[TermId; 2]> = None;
    for &[p, o, _] in pos {
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
    for &[s, p, _] in spo {
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

/// Bulk-build one index: permute every triple, sort, collect. When all ids
/// fit in 21 bits (they always do for per-QEP graphs, whose pools hold a
/// few thousand terms), the three ids pack into one `u64` so the sort
/// compares a single word per element instead of three.
fn build_index(
    triples: &[IdTriple],
    limit: u32,
    perm: impl Fn(&IdTriple) -> [TermId; 3],
) -> BTreeSet<[TermId; 3]> {
    const PACK_BITS: u32 = 21;
    const PACK_MASK: u64 = (1 << PACK_BITS) - 1;
    if u64::from(limit) <= 1 << PACK_BITS {
        let mut keys: Vec<u64> = triples
            .iter()
            .map(|t| {
                let [a, b, c] = perm(t);
                (u64::from(a.0) << (2 * PACK_BITS)) | (u64::from(b.0) << PACK_BITS) | u64::from(c.0)
            })
            .collect();
        keys.sort_unstable();
        keys.into_iter()
            .map(|k| {
                [
                    TermId((k >> (2 * PACK_BITS)) as u32),
                    TermId(((k >> PACK_BITS) & PACK_MASK) as u32),
                    TermId((k & PACK_MASK) as u32),
                ]
            })
            .collect()
    } else {
        let mut v: Vec<[TermId; 3]> = triples.iter().map(perm).collect();
        v.sort_unstable();
        v.into_iter().collect()
    }
}

/// An in-memory RDF graph with SPO/POS/OSP indexes.
#[derive(Debug, Default, Clone)]
pub struct Graph {
    pool: TermPool,
    spo: BTreeSet<[TermId; 3]>,
    pos: BTreeSet<[TermId; 3]>,
    osp: BTreeSet<[TermId; 3]>,
    next_bnode: u64,
    // Lazily computed, invalidated on mutation. An `Arc` so the planner
    // can hold the snapshot without borrowing the graph.
    stats: OnceLock<Arc<GraphStats>>,
}

impl Graph {
    /// Create an empty graph.
    pub fn new() -> Graph {
        Graph::default()
    }

    /// Rebuild a graph from its serialized parts: the term table in
    /// interning order, the id triples, and the blank-node counter. The
    /// reconstructed graph is indistinguishable from the original — same
    /// dense ids, same index contents, same future `fresh_bnode` labels —
    /// which is what lets a persisted graph evaluate SPARQL identically
    /// to a freshly transformed one. The three indexes are bulk-built
    /// from sorted vectors rather than inserted triple by triple.
    pub fn from_parts(
        terms: Vec<Term>,
        triples: &[IdTriple],
        next_bnode: u64,
    ) -> Result<Graph, String> {
        let pool = TermPool::from_terms(terms)?;
        let limit = pool.len() as u32;
        for &[s, p, o] in triples {
            for id in [s, p, o] {
                if id.0 >= limit {
                    return Err(format!(
                        "triple references term id {} but the pool holds {limit} term(s)",
                        id.0
                    ));
                }
            }
        }
        Ok(Graph {
            spo: build_index(triples, limit, |&[s, p, o]| [s, p, o]),
            pos: build_index(triples, limit, |&[s, p, o]| [p, o, s]),
            osp: build_index(triples, limit, |&[s, p, o]| [o, s, p]),
            pool,
            next_bnode,
            stats: OnceLock::new(),
        })
    }

    /// The graph's term pool (for resolving [`TermId`]s).
    pub fn pool(&self) -> &TermPool {
        &self.pool
    }

    /// The blank-node counter (how many [`Graph::fresh_bnode`] calls have
    /// happened), exposed so serializers can persist it.
    pub fn bnode_counter(&self) -> u64 {
        self.next_bnode
    }

    /// Number of triples stored.
    pub fn len(&self) -> usize {
        self.spo.len()
    }

    /// True when the graph holds no triples.
    pub fn is_empty(&self) -> bool {
        self.spo.is_empty()
    }

    /// Intern a term in this graph's pool without asserting any triple.
    pub fn intern(&mut self, term: Term) -> TermId {
        self.pool.intern(term)
    }

    /// Look up a term's id without interning.
    pub fn term_id(&self, term: &Term) -> Option<TermId> {
        self.pool.get(term)
    }

    /// Resolve an id back to its term.
    pub fn term(&self, id: TermId) -> &Term {
        self.pool.resolve(id)
    }

    /// Mint a fresh blank node unique within this graph.
    pub fn fresh_bnode(&mut self, hint: &str) -> Term {
        let n = self.next_bnode;
        self.next_bnode += 1;
        Term::bnode(format!("{hint}{n}"))
    }

    /// Insert a triple of terms. Returns `true` if the triple was new.
    pub fn insert(&mut self, s: Term, p: Term, o: Term) -> bool {
        let s = self.pool.intern(s);
        let p = self.pool.intern(p);
        let o = self.pool.intern(o);
        self.insert_ids([s, p, o])
    }

    /// Insert a triple of already-interned ids. Returns `true` if new.
    pub fn insert_ids(&mut self, [s, p, o]: IdTriple) -> bool {
        let added = self.spo.insert([s, p, o]);
        if added {
            self.pos.insert([p, o, s]);
            self.osp.insert([o, s, p]);
            // Cached statistics describe the pre-insert graph; drop them.
            self.stats.take();
        }
        added
    }

    /// Whole-graph cardinality statistics, computed on first use and
    /// cached until the next mutation. Cheap to share: the planner clones
    /// the `Arc`, not the stats.
    pub fn stats(&self) -> Arc<GraphStats> {
        self.stats
            .get_or_init(|| Arc::new(compute_stats(&self.spo, &self.pos, self.pool.len())))
            .clone()
    }

    /// True when the graph contains the exact triple.
    pub fn contains(&self, s: &Term, p: &Term, o: &Term) -> bool {
        match (self.pool.get(s), self.pool.get(p), self.pool.get(o)) {
            (Some(s), Some(p), Some(o)) => self.spo.contains(&[s, p, o]),
            _ => false,
        }
    }

    /// Iterate over every triple as ids, in SPO order.
    pub fn iter_ids(&self) -> impl Iterator<Item = IdTriple> + '_ {
        self.spo.iter().copied()
    }

    /// Iterate over every triple as resolved terms, in SPO order.
    pub fn iter(&self) -> impl Iterator<Item = Triple> + '_ {
        self.spo.iter().map(move |&[s, p, o]| {
            (
                self.pool.resolve(s).clone(),
                self.pool.resolve(p).clone(),
                self.pool.resolve(o).clone(),
            )
        })
    }

    /// Which index [`Graph::matching_ids`] will scan for a given binding
    /// shape (`true` = position bound).
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

    /// Scan all triples matching the pattern, where `None` is a wildcard.
    /// Ids must come from this graph's pool.
    pub fn matching_ids(
        &self,
        s: Option<TermId>,
        p: Option<TermId>,
        o: Option<TermId>,
    ) -> Box<dyn Iterator<Item = IdTriple> + '_> {
        match (s, p, o) {
            (Some(s), Some(p), Some(o)) => {
                let hit = self.spo.contains(&[s, p, o]);
                Box::new(hit.then_some([s, p, o]).into_iter())
            }
            (Some(s), Some(p), None) => Box::new(
                range2(&self.spo, s, p).copied(), // already SPO order
            ),
            (Some(s), None, None) => Box::new(range1(&self.spo, s).copied()),
            (Some(s), None, Some(o)) => {
                Box::new(range2(&self.osp, o, s).map(|&[o, s, p]| [s, p, o]))
            }
            (None, Some(p), Some(o)) => {
                Box::new(range2(&self.pos, p, o).map(|&[p, o, s]| [s, p, o]))
            }
            (None, Some(p), None) => Box::new(range1(&self.pos, p).map(|&[p, o, s]| [s, p, o])),
            (None, None, Some(o)) => Box::new(range1(&self.osp, o).map(|&[o, s, p]| [s, p, o])),
            (None, None, None) => Box::new(self.spo.iter().copied()),
        }
    }

    /// Scan matching triples by term, resolving results to owned terms.
    /// A pattern term that is not even interned matches nothing.
    pub fn triples_matching<'g>(
        &'g self,
        s: Option<&Term>,
        p: Option<&Term>,
        o: Option<&Term>,
    ) -> Box<dyn Iterator<Item = Triple> + 'g> {
        let Some([s, p, o]) = self.pattern_ids([s, p, o]) else {
            return Box::new(std::iter::empty());
        };
        Box::new(self.matching_ids(s, p, o).map(move |[s, p, o]| {
            (
                self.pool.resolve(s).clone(),
                self.pool.resolve(p).clone(),
                self.pool.resolve(o).clone(),
            )
        }))
    }

    /// True when at least one triple matches `(s, p, o)`, `None` being a
    /// wildcard: one O(log n) index probe. A term that is not interned
    /// matches nothing.
    pub fn has_match(&self, s: Option<&Term>, p: Option<&Term>, o: Option<&Term>) -> bool {
        self.pattern_ids([s, p, o])
            .is_some_and(|[s, p, o]| self.matching_ids(s, p, o).next().is_some())
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

    /// All subjects of `(?, p, o)`.
    pub fn subjects_of(&self, p: &Term, o: &Term) -> Vec<Term> {
        self.triples_matching(None, Some(p), Some(o))
            .map(|t| t.0)
            .collect()
    }
}

/// Range over a B-tree index where the first component is fixed.
fn range1(idx: &BTreeSet<[TermId; 3]>, a: TermId) -> impl Iterator<Item = &[TermId; 3]> {
    idx.range((
        Bound::Included([a, TermId::MIN, TermId::MIN]),
        Bound::Included([a, TermId::MAX, TermId::MAX]),
    ))
}

/// Range over a B-tree index where the first two components are fixed.
fn range2(idx: &BTreeSet<[TermId; 3]>, a: TermId, b: TermId) -> impl Iterator<Item = &[TermId; 3]> {
    idx.range((
        Bound::Included([a, b, TermId::MIN]),
        Bound::Included([a, b, TermId::MAX]),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Graph {
        let mut g = Graph::new();
        let p_type = Term::iri("p:hasPopType");
        let p_card = Term::iri("p:hasEstimateCardinality");
        let p_in = Term::iri("p:hasInputStream");
        g.insert(Term::iri("q:pop2"), p_type.clone(), Term::lit_str("NLJOIN"));
        g.insert(Term::iri("q:pop3"), p_type.clone(), Term::lit_str("FETCH"));
        g.insert(Term::iri("q:pop5"), p_type.clone(), Term::lit_str("TBSCAN"));
        g.insert(Term::iri("q:pop5"), p_card.clone(), Term::lit_str("4043.0"));
        g.insert(Term::iri("q:pop2"), p_in.clone(), Term::iri("q:pop3"));
        g.insert(Term::iri("q:pop2"), p_in.clone(), Term::iri("q:pop5"));
        g
    }

    #[test]
    fn insert_deduplicates() {
        let mut g = Graph::new();
        assert!(g.insert(Term::iri("a"), Term::iri("b"), Term::iri("c")));
        assert!(!g.insert(Term::iri("a"), Term::iri("b"), Term::iri("c")));
        assert_eq!(g.len(), 1);
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
    fn object_and_subject_helpers() {
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
        assert_eq!(
            g.subjects_of(&Term::iri("p:hasPopType"), &Term::lit_str("FETCH")),
            vec![Term::iri("q:pop3")]
        );
    }

    #[test]
    fn fresh_bnodes_are_unique() {
        let mut g = Graph::new();
        let a = g.fresh_bnode("b");
        let b = g.fresh_bnode("b");
        assert_ne!(a, b);
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
        assert!(!Graph::new().has_match(None, None, None));
    }

    #[test]
    fn from_parts_reconstructs_an_identical_graph() {
        let mut g = sample();
        g.fresh_bnode("n");
        g.fresh_bnode("n");
        let terms: Vec<Term> = g.pool().iter().map(|(_, t)| t.clone()).collect();
        let triples: Vec<IdTriple> = g.iter_ids().collect();
        let rebuilt = Graph::from_parts(terms, &triples, g.bnode_counter()).unwrap();
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
        // Blank-node counter carried over: next fresh bnode matches.
        let mut g2 = g.clone();
        let mut r2 = rebuilt;
        assert_eq!(g2.fresh_bnode("n"), r2.fresh_bnode("n"));
    }

    #[test]
    fn from_parts_rejects_bad_inputs() {
        let dup = Graph::from_parts(vec![Term::iri("a"), Term::iri("a")], &[], 0);
        assert!(dup.is_err());
        let oob = Graph::from_parts(
            vec![Term::iri("a")],
            &[[TermId(0), TermId(0), TermId(1)]],
            0,
        );
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
        assert_eq!(stats.predicate_count(subj), 0);
    }

    #[test]
    fn stats_are_cached_and_invalidated_on_insert() {
        let mut g = sample();
        let before = g.stats();
        // Same Arc while the graph is unchanged.
        assert!(Arc::ptr_eq(&before, &g.stats()));
        // A duplicate insert is a no-op and keeps the cache.
        assert!(!g.insert(
            Term::iri("q:pop2"),
            Term::iri("p:hasPopType"),
            Term::lit_str("NLJOIN"),
        ));
        assert!(Arc::ptr_eq(&before, &g.stats()));
        // A real insert invalidates: the new snapshot sees the new triple.
        assert!(g.insert(Term::iri("q:pop9"), Term::iri("p:new"), Term::iri("q:pop2")));
        let after = g.stats();
        assert!(!Arc::ptr_eq(&before, &after));
        assert_eq!(after.triples, 7);
        assert_eq!(before.triples, 6);
        let p_new = g.term_id(&Term::iri("p:new")).unwrap();
        assert_eq!(after.predicate_count(p_new), 1);
    }

    #[test]
    fn stats_match_between_built_and_reconstructed_graphs() {
        let g = sample();
        let terms: Vec<Term> = g.pool().iter().map(|(_, t)| t.clone()).collect();
        let triples: Vec<IdTriple> = g.iter_ids().collect();
        let rebuilt = Graph::from_parts(terms, &triples, g.bnode_counter()).unwrap();
        assert_eq!(*rebuilt.stats(), *g.stats());
    }
}
