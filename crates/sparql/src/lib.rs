//! # optimatch-sparql
//!
//! A from-scratch SPARQL engine covering the dialect OptImatch generates.
//!
//! The paper compiles GUI-built problem patterns into SPARQL through a
//! handler mechanism (its Figure 6 shows a full generated query) and relies
//! on these language features, all implemented here:
//!
//! * basic graph patterns with shared variables and blank-node handlers;
//! * `FILTER` expressions with numeric coercion (`FILTER (?h > 100)` over
//!   plan cardinalities stored as strings);
//! * **property paths** (`preds:hasInputStream+`) — how "descendant"
//!   relationships (paper §2.2) become recursive queries;
//! * `OPTIONAL`, `UNION`, `BIND`;
//! * `SELECT` with projection aliases (`?pop1 AS ?TOP` — the paper's
//!   non-parenthesized form is accepted alongside standard `(?x AS ?y)`);
//! * `DISTINCT`, `ORDER BY`, `LIMIT` / `OFFSET`.
//!
//! The pipeline is conventional: [`lexer`] → [`parser`] → [`ast`] →
//! [`algebra`] (variables become dense slots) → [`eval`] against an
//! [`optimatch_rdf::Graph`], producing a [`results::ResultTable`].
//!
//! ## Example
//!
//! ```
//! use optimatch_rdf::{GraphBuilder, Term};
//! use optimatch_sparql::execute;
//!
//! let mut b = GraphBuilder::new();
//! b.insert(Term::iri("q:pop3"), Term::iri("p:hasPopType"), Term::lit_str("TBSCAN"));
//! b.insert(Term::iri("q:pop3"), Term::iri("p:hasEstimateCardinality"), Term::lit_str("4043.0"));
//! let g = b.build();
//!
//! let table = execute(&g, r#"
//!     SELECT ?pop WHERE {
//!         ?pop <p:hasPopType> "TBSCAN" .
//!         ?pop <p:hasEstimateCardinality> ?card .
//!         FILTER (?card > 100)
//!     }
//! "#).unwrap();
//! assert_eq!(table.rows().len(), 1);
//! ```

pub mod algebra;
pub mod ast;
pub mod budget;
pub mod error;
pub mod eval;
pub mod expr;
pub mod lexer;
pub mod parser;
pub mod path;
pub mod plan;
pub mod results;

pub use budget::{Budget, BudgetCause};
pub use error::SparqlError;
pub use plan::{EvalStats, PathDirection, PhysicalPlan, PlanOptions, PlanStep, RequiredPatterns};
pub use results::ResultTable;

use optimatch_rdf::Graph;

/// Parse a SPARQL query string into its AST.
pub fn parse_query(text: &str) -> Result<ast::Query, SparqlError> {
    parser::parse(text)
}

/// Parse, translate and evaluate a SPARQL query against a graph with the
/// default planner and no budget. A caller that runs one query against
/// many graphs (the workload matcher) translates it once and calls
/// [`eval::evaluate`] and [`plan::explain_plan`] itself.
pub fn execute(graph: &Graph, text: &str) -> Result<ResultTable, SparqlError> {
    let plan = algebra::translate(&parse_query(text)?)?;
    eval::evaluate(graph, &plan, PlanOptions::default(), &Budget::unlimited())
        .map(|(table, _)| table)
}

/// Parse and evaluate an `ASK { ... }` query (or any query, testing for a
/// non-empty result).
pub fn ask(graph: &Graph, text: &str) -> Result<bool, SparqlError> {
    Ok(!execute(graph, text)?.is_empty())
}
