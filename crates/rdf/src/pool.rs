//! Term interning.
//!
//! Each [`crate::Graph`] owns a [`TermPool`] that maps [`Term`]s to dense
//! [`TermId`]s. Triples and index entries are then three `u32`s, so pattern
//! scans compare integers instead of strings and the per-QEP graphs (a few
//! thousand triples each, a thousand graphs per workload) stay compact.

use crate::hash::FastHasher;
use crate::term::Term;
use std::hash::{Hash, Hasher};

/// A dense identifier for an interned term, valid only within the pool that
/// produced it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TermId(pub u32);

/// An append-only intern table for RDF terms.
///
/// The reverse index (term → id) is a linear-probing hash table whose
/// slots hold only `id + 1` (zero means empty); keys are never copied out
/// of the `terms` vector. That keeps pool construction allocation-free per
/// term, which matters when a warm-start session restores hundreds of
/// thousands of interned terms from the repository.
#[derive(Debug, Default, Clone)]
pub struct TermPool {
    terms: Vec<Term>,
    slots: Vec<u32>,
}

/// The pool's hash of a term. An IRI hashes its text alone, so
/// [`TermPool::get_iri`] finds it from a borrowed `&str`.
fn hash_term(term: &Term) -> u64 {
    match term {
        Term::Iri(iri) => hash_iri(iri),
        other => {
            let mut h = FastHasher::default();
            other.hash(&mut h);
            h.finish()
        }
    }
}

fn hash_iri(iri: &str) -> u64 {
    let mut h = FastHasher::default();
    h.write(iri.as_bytes());
    h.finish()
}

/// Smallest power-of-two slot count keeping load factor under ~3/4.
fn slot_capacity(terms: usize) -> usize {
    (terms * 4 / 3 + 1).next_power_of_two().max(16)
}

impl TermPool {
    /// Create an empty pool.
    pub fn new() -> TermPool {
        TermPool::default()
    }

    /// Rebuild a pool from terms in interning order, so that term `i`
    /// receives id `TermId(i)`. This is how deserialization reproduces a
    /// pool with ids identical to the one that was serialized. Fails if
    /// the slice contains the same term twice (ids would be ambiguous).
    pub fn from_terms(terms: Vec<Term>) -> Result<TermPool, String> {
        u32::try_from(terms.len()).map_err(|_| "term pool overflow".to_string())?;
        let cap = slot_capacity(terms.len());
        let mask = cap - 1;
        let mut slots = vec![0u32; cap];
        for (i, term) in terms.iter().enumerate() {
            let mut j = hash_term(term) as usize & mask;
            loop {
                match slots[j] {
                    0 => {
                        slots[j] = i as u32 + 1;
                        break;
                    }
                    slot => {
                        let prev = (slot - 1) as usize;
                        if &terms[prev] == term {
                            return Err(format!(
                                "duplicate term at indexes {prev} and {i}: {term}"
                            ));
                        }
                    }
                }
                j = (j + 1) & mask;
            }
        }
        Ok(TermPool { terms, slots })
    }

    /// Intern a term, returning its id (allocating one if new).
    pub fn intern(&mut self, term: Term) -> TermId {
        if (self.terms.len() + 1) * 4 > self.slots.len() * 3 {
            self.grow_index();
        }
        let mask = self.slots.len() - 1;
        let mut j = hash_term(&term) as usize & mask;
        loop {
            match self.slots[j] {
                0 => break,
                slot => {
                    if self.terms[(slot - 1) as usize] == term {
                        return TermId(slot - 1);
                    }
                }
            }
            j = (j + 1) & mask;
        }
        let id = u32::try_from(self.terms.len()).expect("term pool overflow");
        self.terms.push(term);
        self.slots[j] = id + 1;
        TermId(id)
    }

    fn grow_index(&mut self) {
        let cap = slot_capacity(self.terms.len() + 1).max(self.slots.len() * 2);
        let mask = cap - 1;
        let mut slots = vec![0u32; cap];
        for (i, term) in self.terms.iter().enumerate() {
            let mut j = hash_term(term) as usize & mask;
            while slots[j] != 0 {
                j = (j + 1) & mask;
            }
            slots[j] = i as u32 + 1;
        }
        self.slots = slots;
    }

    /// Look up the id of a term without interning it.
    pub fn get(&self, term: &Term) -> Option<TermId> {
        self.probe(hash_term(term), |t| t == term)
    }

    /// Look up the id of the IRI term `iri` without building the term:
    /// one hash probe, no allocation.
    pub(crate) fn get_iri(&self, iri: &str) -> Option<TermId> {
        self.probe(hash_iri(iri), |t| matches!(t, Term::Iri(i) if i == iri))
    }

    /// The id of the term with this hash that `is` accepts.
    fn probe(&self, hash: u64, is: impl Fn(&Term) -> bool) -> Option<TermId> {
        if self.slots.is_empty() {
            return None;
        }
        let mask = self.slots.len() - 1;
        let mut j = hash as usize & mask;
        loop {
            match self.slots[j] {
                0 => return None,
                slot => {
                    if is(&self.terms[(slot - 1) as usize]) {
                        return Some(TermId(slot - 1));
                    }
                }
            }
            j = (j + 1) & mask;
        }
    }

    /// Resolve an id back to its term.
    ///
    /// # Panics
    /// Panics if the id did not come from this pool.
    pub fn resolve(&self, id: TermId) -> &Term {
        &self.terms[id.0 as usize]
    }

    /// Number of distinct terms interned.
    pub fn len(&self) -> usize {
        self.terms.len()
    }

    /// True when no terms have been interned.
    pub fn is_empty(&self) -> bool {
        self.terms.is_empty()
    }

    /// Iterate over `(id, term)` pairs in interning order.
    pub fn iter(&self) -> impl Iterator<Item = (TermId, &Term)> {
        self.terms
            .iter()
            .enumerate()
            .map(|(i, t)| (TermId(i as u32), t))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent() {
        let mut p = TermPool::new();
        let a1 = p.intern(Term::iri("http://x/a"));
        let b = p.intern(Term::lit_str("TBSCAN"));
        let a2 = p.intern(Term::iri("http://x/a"));
        assert_eq!(a1, a2);
        assert_ne!(a1, b);
        assert_eq!(p.len(), 2);
    }

    #[test]
    fn resolve_round_trips() {
        let mut p = TermPool::new();
        let terms = [
            Term::iri("http://x/a"),
            Term::bnode("n0"),
            Term::lit_double(19.12),
        ];
        let ids: Vec<_> = terms.iter().cloned().map(|t| p.intern(t)).collect();
        for (t, id) in terms.iter().zip(ids) {
            assert_eq!(p.resolve(id), t);
        }
    }

    #[test]
    fn get_does_not_intern() {
        let mut p = TermPool::new();
        assert_eq!(p.get(&Term::iri("http://x/a")), None);
        assert!(p.is_empty());
        let id = p.intern(Term::iri("http://x/a"));
        assert_eq!(p.get(&Term::iri("http://x/a")), Some(id));
    }

    #[test]
    fn iter_yields_in_interning_order() {
        let mut p = TermPool::new();
        p.intern(Term::lit_str("b"));
        p.intern(Term::lit_str("a"));
        let got: Vec<String> = p
            .iter()
            .map(|(_, t)| t.display_text().into_owned())
            .collect();
        assert_eq!(got, vec!["b", "a"]);
    }

    #[test]
    fn iri_lookup_borrows_its_text() {
        let mut p = TermPool::new();
        let iri = p.intern(Term::iri("http://x/a"));
        p.intern(Term::lit_str("http://x/b"));
        p.intern(Term::bnode("http://x/c"));
        assert_eq!(p.get_iri("http://x/a"), Some(iri));
        // Equal text of another kind is not an IRI.
        assert_eq!(p.get_iri("http://x/b"), None);
        assert_eq!(p.get_iri("http://x/c"), None);
        assert_eq!(TermPool::new().get_iri("http://x/a"), None);
    }

    #[test]
    fn distinct_term_kinds_do_not_collide() {
        let mut p = TermPool::new();
        // Same string content, three different term kinds.
        let i = p.intern(Term::iri("x"));
        let b = p.intern(Term::bnode("x"));
        let l = p.intern(Term::lit_str("x"));
        assert_ne!(i, b);
        assert_ne!(b, l);
        assert_ne!(i, l);
    }
}
