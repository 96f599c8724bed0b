//! # optimatch-core
//!
//! The OptImatch system (EDBT 2016): query-performance problem
//! determination over query execution plans via RDF and SPARQL, with an
//! expert knowledge base of patterns and recommendations.
//!
//! The pipeline mirrors the paper's architecture (its Figure 4):
//!
//! 1. [`transform`] — **Algorithm 1**: each QEP becomes an RDF graph.
//!    Operators are resources, properties are predicates, input/output
//!    streams run through *blank nodes* so shared subtrees stay
//!    unambiguous; derived properties like `hasTotalCostIncrease` are
//!    computed during transformation.
//! 2. [`pattern`] — the pattern-builder model: what the paper's web GUI
//!    produces, serialized as JSON (its Figure 5).
//! 3. [`compile`] — **Algorithm 2**: patterns compile to SPARQL through
//!    four kinds of [`handlers`]: result handlers (`?pop1`), internal
//!    handlers (`?internalHandler1` for FILTERs), relationship handlers,
//!    and blank-node handlers (`?bnodeOfPop2_to_pop1`). Descendant
//!    relationships become SPARQL property paths (recursion).
//! 4. [`matcher`] — **Algorithm 3**: the SPARQL query runs against each
//!    QEP's RDF graph and matched portions are *de-transformed* back into
//!    plan context (operator numbers, base objects). Before evaluating, a
//!    few index probes for the query's required triple patterns
//!    ([`Matcher::could_match`]) let scans skip graphs that provably
//!    cannot match.
//! 5. [`kb`] + [`tagging`] + [`rank`] — **Algorithms 4–5**: the knowledge
//!    base stores patterns with recommendation templates written in the
//!    tagging language (`@alias`, `@[a,b]`, `@limit(n)`, helper functions
//!    over predicates and columns); matches are ranked by statistical
//!    correlation analysis with a confidence score.
//! 6. [`builtin`] — the paper's Patterns A–D with their recommendations.
//! 7. [`cluster`] — cost-based workload clustering with per-cluster
//!    pattern correlation (the fourth §1.1 use case).
//! 8. [`session`] — the `OptImatch` facade tying it all together for
//!    workload-scale analysis.
//! 9. [`repo`] — persistence bridge to `optimatch-repo`: snapshot a
//!    transformed workload into a checksummed on-disk repository and
//!    reopen it later as a warm-start session (repository-backed
//!    [`OptImatch::open`]) with no parse or transform work.
//! 10. [`lint`] — clippy-style static analysis over KB entries: pattern
//!     semantics (contradictions, unknown types/properties, unreachable
//!     pops), compiled-query analysis (cartesian products, unbound
//!     FILTER variables, non-well-designed OPTIONALs, recursive paths),
//!     and cross-artifact checks (template aliases, dead patterns
//!     against a stored workload).

pub mod builtin;
#[doc(hidden)]
pub mod chaos;
pub mod cluster;
pub mod compile;
pub mod error;
pub mod handlers;
pub mod kb;
pub mod lint;
pub mod live;
pub mod matcher;
pub mod open;
pub mod pattern;
pub mod rank;
pub mod regress;
pub mod repo;
pub mod session;
pub mod stats;
pub mod sync;
pub mod tagging;
pub mod transform;
pub mod vocab;

pub use error::Error;
pub use kb::{
    render_scan_json, IncidentCause, KnowledgeBase, KnowledgeBaseEntry, MatchSample, PruneStats,
    QepReport, Recommendation, ScanIncident, ScanOptions, ScanOutcome,
};
pub use lint::{Artifact, Diagnostic, PatternIssue, Severity};
pub use live::{
    GenerationMark, IngestReceipt, KbReloadReceipt, LiveError, SessionManager, SessionSnapshot,
    StorageErrorKind,
};
pub use matcher::{MatchBinding, Matcher, MatcherCache, PatternMatch, SearchOutcome};
pub use open::{OpenOptions, OpenSkip, Opened, Source, Strictness};
pub use pattern::{Pattern, PatternPop, PropertyCondition, Relationship, Sign, StreamSpec};
pub use regress::{regress, DeltaAnchor, DeltaFinding, RegressOptions, RegressOutcome};
pub use repo::{add_to_repo, build_repo, AddOutcome, BuildOutcome};
pub use session::{OptImatch, SkipCause, SkippedFile};
pub use stats::{EntryWeight, MatchRecord, MatchStatsStore, MIN_HISTORY};
pub use transform::{transform_qep, TransformedQep};

/// Planner surface, re-exported so downstream crates (serve, cli, bench)
/// can render explain output and planner counters without a direct
/// `optimatch-sparql` dependency.
pub use optimatch_sparql::{EvalStats, PathDirection, PhysicalPlan, PlanOptions, PlanStep};

/// The storage-fault-injection layer, re-exported so downstream crates
/// (serve, cli, their tests) can construct `SimFs`/`CappedFs` instances
/// without a direct `optimatch-repo` dependency.
pub use optimatch_repo::vfs;

/// Compile-time thread-safety contract: the long-running HTTP service
/// (`optimatch-serve`) shares one session and knowledge base behind `Arc`s
/// across a worker pool, so these types must stay `Send + Sync`. Interior
/// mutability is confined to lock-protected state (`MatcherCache` behind a
/// `Mutex` + atomics); an accidental `Rc`/`RefCell`/raw-pointer regression
/// fails compilation here, not at a distant use site.
#[allow(dead_code)]
fn _assert_shared_types_are_send_sync() {
    fn _assert<T: Send + Sync>() {}
    _assert::<OptImatch>();
    _assert::<SessionManager>();
    _assert::<SessionSnapshot>();
    _assert::<KnowledgeBase>();
    _assert::<Matcher>();
    _assert::<MatchStatsStore>();
    _assert::<MatcherCache>();
    _assert::<ScanOptions>();
    _assert::<ScanOutcome>();
    _assert::<SearchOutcome>();
    _assert::<TransformedQep>();
}
