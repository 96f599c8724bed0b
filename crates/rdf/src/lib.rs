//! # optimatch-rdf
//!
//! A from-scratch RDF substrate built for the OptImatch reproduction.
//!
//! The OptImatch paper (EDBT 2016) transforms DB2 query execution plans into
//! RDF graphs (its §2.1, Algorithm 1) and then matches SPARQL queries against
//! them. The original system used Apache Jena; the Rust RDF ecosystem is thin
//! enough that we implement the substrate ourselves:
//!
//! * [`term`] — RDF terms: IRIs, blank nodes, and literals (plain and typed).
//! * [`pool`] — per-graph term interning to dense [`TermId`]s so triples are
//!   three machine words and index scans never touch strings.
//! * [`graph`] — an immutable in-memory triple store: a [`GraphBuilder`]
//!   collects triples once and sorts them into three indexes (SPO / POS /
//!   OSP), so every triple pattern is one range of one index.
//! * [`ntriples`] — an N-Triples writer, one triple per line.
//! * [`turtle`] — a prefix-aware Turtle writer for human-readable dumps like
//!   the paper's Figure 2.
//! * [`numeric`] — lexical-to-value mapping for numeric literals, including
//!   the exponent forms (`1.93187e+06`) that DB2 plans mix freely with plain
//!   decimals — the exact formatting trap the paper's user study (§3.3)
//!   blames for manual-search errors.
//!
//! The crate writes RDF text but reads none. As in the paper, a graph is
//! built in memory from a plan by Algorithm 1 (`optimatch_core::transform`)
//! or, on a warm start, from a repository's term table
//! ([`Graph::from_parts`]); N-Triples and Turtle are only displays of it.
//!
//! ## Example
//!
//! ```
//! use optimatch_rdf::{GraphBuilder, Term};
//!
//! let mut b = GraphBuilder::new();
//! let pop5 = Term::iri("http://optimatch/qep#pop5");
//! b.insert(pop5.clone(), Term::iri("http://optimatch/pred#hasPopType"),
//!          Term::lit_str("TBSCAN"));
//! b.insert(pop5.clone(), Term::iri("http://optimatch/pred#hasEstimateCardinality"),
//!          Term::lit_double(4043.0));
//! let g = b.build();
//! assert_eq!(g.len(), 2);
//!
//! // Pattern scan: everything said about pop5.
//! let about: Vec<_> = g.triples_matching(Some(&pop5), None, None).collect();
//! assert_eq!(about.len(), 2);
//! ```

pub mod graph;
pub mod hash;
pub mod ntriples;
pub mod numeric;
pub mod pool;
pub mod term;
pub mod turtle;

pub use graph::{Graph, GraphBuilder, GraphStats, IdTriple, IndexChoice, PredicateStats, Triple};
pub use pool::{TermId, TermPool};
pub use term::{Literal, Term};
