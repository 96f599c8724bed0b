//! The knowledge base (Algorithms 4 and 5).
//!
//! Experts store problem patterns together with recommendation templates;
//! users run their whole workload against every stored entry and receive
//! context-adapted, confidence-ranked recommendations. Entries persist as
//! JSON (pattern + template + prototype statistics), and each entry also
//! stores its compiled SPARQL — the paper keeps both the executable query
//! and the RDF/JSON description of the pattern.

use std::sync::Arc;
use std::time::Duration;

use optimatch_qep::Qep;
use optimatch_sparql::eval::CoreRows;
use optimatch_sparql::{Budget, BudgetCause, EvalStats, SparqlError};
use serde::{Deserialize, Serialize};

use crate::error::Error;
use crate::matcher::{Matcher, MatcherCache, PatternMatch};
use crate::pattern::Pattern;
use crate::rank::{self, Prototype};
use crate::tagging::{Template, TemplateError};
use crate::transform::TransformedQep;

/// One expert-provided entry.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct KnowledgeBaseEntry {
    /// Stable entry name.
    pub name: String,
    /// What the problem is.
    pub description: String,
    /// The problem pattern (static semantics: *what is wrong*).
    pub pattern: Pattern,
    /// The recommendation template in the tagging language (dynamic
    /// semantics: *how to report and fix it*).
    pub recommendation: String,
    /// Feature profile for confidence scoring.
    #[serde(default)]
    pub prototype: Prototype,
}

/// A rendered, scored recommendation for one QEP.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Recommendation {
    /// The KB entry that fired.
    pub entry: String,
    /// The rendered recommendation text (context adapted).
    pub text: String,
    /// Confidence in `[0, 1]`.
    pub confidence: f64,
    /// Number of occurrences matched in the QEP.
    pub occurrences: usize,
}

/// Everything the scan produced for one QEP.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct QepReport {
    /// The QEP id.
    pub qep_id: String,
    /// Ranked recommendations (highest confidence first); empty when
    /// "There is currently no recommendation in knowledge base"
    /// (Algorithm 5's else branch).
    pub recommendations: Vec<Recommendation>,
}

impl QepReport {
    /// Algorithm 5's user-facing message for empty reports.
    pub fn message(&self) -> String {
        if self.recommendations.is_empty() {
            "There is currently no recommendation in knowledge base".to_string()
        } else {
            self.recommendations
                .iter()
                .map(|r| format!("[{:.2}] {}: {}", r.confidence, r.entry, r.text))
                .collect::<Vec<_>>()
                .join("\n")
        }
    }
}

/// Errors adding entries to the KB.
#[derive(Debug)]
pub enum KbError {
    /// The entry's pattern does not compile.
    Pattern(Error),
    /// The entry's recommendation template does not parse.
    Template(TemplateError),
    /// An entry with this name already exists.
    Duplicate(String),
    /// Persistence failed.
    Io(std::io::Error),
    /// JSON (de)serialization failed.
    Json(serde_json::Error),
}

impl std::fmt::Display for KbError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            KbError::Pattern(e) => write!(f, "pattern error: {e}"),
            KbError::Template(e) => write!(f, "template error: {e}"),
            KbError::Duplicate(n) => write!(f, "duplicate entry name {n:?}"),
            KbError::Io(e) => write!(f, "I/O error: {e}"),
            KbError::Json(e) => write!(f, "JSON error: {e}"),
        }
    }
}

impl std::error::Error for KbError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            KbError::Pattern(e) => Some(e),
            KbError::Template(e) => Some(e),
            KbError::Duplicate(_) => None,
            KbError::Io(e) => Some(e),
            KbError::Json(e) => Some(e),
        }
    }
}

/// How a workload scan should run. Builder-style and `Copy`, so call
/// sites read as `ScanOptions::default().threads(8).prune(false)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScanOptions {
    /// Worker threads for scans and searches alike (1 = sequential;
    /// clamped to ≥ 1). Results do not depend on the count.
    pub threads: usize,
    /// Whether a unit whose required patterns miss the graph may be skipped
    /// (results are identical either way; turning it off exists for
    /// benchmarks and debugging).
    pub prune: bool,
    /// Step budget ("fuel") for each (entry × QEP) evaluation; `None` is
    /// unlimited. Budgets are observational until exceeded: a unit within
    /// budget produces results identical to an unbudgeted run.
    pub fuel: Option<u64>,
    /// Wall-clock deadline for each (entry × QEP) evaluation, measured
    /// from that unit's start.
    pub deadline: Option<Duration>,
    /// Abort the whole scan at its first incident (as
    /// [`Error::Incident`]) instead of recording it and continuing.
    pub fail_fast: bool,
    /// Whether the cost-based query planner may reorder BGPs and guide
    /// property-path evaluation. Results are identical either way (the
    /// off switch is the correctness oracle); turning it off exists for
    /// benchmarks and regression hunting.
    pub optimize: bool,
}

impl Default for ScanOptions {
    fn default() -> ScanOptions {
        ScanOptions {
            threads: 1,
            prune: true,
            fuel: None,
            deadline: None,
            fail_fast: false,
            optimize: true,
        }
    }
}

impl ScanOptions {
    /// The defaults: sequential, pruning on, no budget, incidents
    /// recorded rather than fatal.
    pub fn new() -> ScanOptions {
        ScanOptions::default()
    }

    /// Set the worker-thread count.
    pub fn threads(mut self, threads: usize) -> ScanOptions {
        self.threads = threads.max(1);
        self
    }

    /// Enable or disable required-pattern pruning.
    pub fn prune(mut self, prune: bool) -> ScanOptions {
        self.prune = prune;
        self
    }

    /// Bound each (entry × QEP) evaluation to `fuel` steps.
    pub fn fuel(mut self, fuel: u64) -> ScanOptions {
        self.fuel = Some(fuel);
        self
    }

    /// Bound each (entry × QEP) evaluation to a wall-clock deadline.
    pub fn deadline(mut self, deadline: Duration) -> ScanOptions {
        self.deadline = Some(deadline);
        self
    }

    /// Abort the scan on the first incident instead of recording it.
    pub fn fail_fast(mut self, fail_fast: bool) -> ScanOptions {
        self.fail_fast = fail_fast;
        self
    }

    /// Enable or disable the cost-based query planner.
    pub fn optimize(mut self, optimize: bool) -> ScanOptions {
        self.optimize = optimize;
        self
    }
}

/// Why one (entry × QEP) scan unit failed.
#[derive(Debug, Clone, PartialEq)]
pub enum IncidentCause {
    /// The matcher panicked; the payload message was captured.
    Panic(String),
    /// The matcher returned an error.
    Error(String),
    /// The unit's step budget ran out.
    FuelExhausted,
    /// The unit's wall-clock deadline passed.
    DeadlineExceeded,
}

impl IncidentCause {
    /// Stable machine-readable tag (used in JSON output).
    pub fn kind(&self) -> &'static str {
        match self {
            IncidentCause::Panic(_) => "panic",
            IncidentCause::Error(_) => "error",
            IncidentCause::FuelExhausted => "fuel-exhausted",
            IncidentCause::DeadlineExceeded => "deadline-exceeded",
        }
    }

    /// The captured message, for causes that carry one.
    pub fn detail(&self) -> Option<&str> {
        match self {
            IncidentCause::Panic(m) | IncidentCause::Error(m) => Some(m),
            _ => None,
        }
    }
}

impl std::fmt::Display for IncidentCause {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IncidentCause::Panic(m) => write!(f, "panicked: {m}"),
            IncidentCause::Error(m) => write!(f, "error: {m}"),
            IncidentCause::FuelExhausted => f.write_str("fuel exhausted"),
            IncidentCause::DeadlineExceeded => f.write_str("deadline exceeded"),
        }
    }
}

/// One contained scan-unit failure: which (entry × QEP) pair failed, why,
/// and what it had consumed by then. A scan with incidents is *degraded*,
/// not failed — every other unit's report is unaffected.
#[derive(Debug, Clone, PartialEq)]
pub struct ScanIncident {
    /// The QEP being matched when the unit failed.
    pub qep_id: String,
    /// The KB entry whose matcher failed.
    pub entry: String,
    /// What happened.
    pub cause: IncidentCause,
    /// Wall-clock time the unit ran before failing.
    pub elapsed: Duration,
    /// Evaluation steps the unit consumed before failing.
    pub fuel_spent: u64,
}

impl std::fmt::Display for ScanIncident {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "entry {:?} on qep {:?}: {} (fuel {}, {:?})",
            self.entry, self.qep_id, self.cause, self.fuel_spent, self.elapsed
        )
    }
}

// Hand-written: the derive stand-in handles neither data-carrying enum
// variants (`cause`) nor `Duration`. Elapsed serializes as microseconds.
impl Serialize for ScanIncident {
    fn serialize_to_value(&self) -> serde::value::Value {
        use serde::value::{Number, Value};
        let detail = match self.cause.detail() {
            Some(m) => Value::String(m.to_string()),
            None => Value::Null,
        };
        Value::Object(vec![
            ("qep_id".to_string(), Value::String(self.qep_id.clone())),
            ("entry".to_string(), Value::String(self.entry.clone())),
            (
                "cause".to_string(),
                Value::String(self.cause.kind().to_string()),
            ),
            ("detail".to_string(), detail),
            (
                "fuel_spent".to_string(),
                Value::Number(Number::Int(self.fuel_spent.min(i64::MAX as u64) as i64)),
            ),
            (
                "elapsed_us".to_string(),
                Value::Number(Number::Int(
                    self.elapsed.as_micros().min(i64::MAX as u128) as i64
                )),
            ),
        ])
    }
}

/// One fired (entry × QEP) match, reduced to the features the fleet
/// match-history store records: the best occurrence's raw (pre-workload-
/// weighting) confidence and the matched operator's cost share. See
/// [`crate::stats::MatchStatsStore`].
#[derive(Debug, Clone, PartialEq)]
pub struct MatchSample {
    /// The KB entry that fired.
    pub entry: String,
    /// The QEP it fired on.
    pub qep_id: String,
    /// Raw confidence of the best occurrence (before workload weighting).
    pub confidence: f64,
    /// Cost share of the best occurrence's anchor operator.
    pub cost_share: f64,
}

/// Counters proving what pruning did during a scan. `pruned` graphs were
/// skipped without invoking the SPARQL evaluator; soundness is asserted by
/// the equivalence tests (pruned results == unpruned results).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PruneStats {
    /// (graph, matcher) pairs considered.
    pub candidates: usize,
    /// Pairs skipped because a required pattern has no matching triple.
    pub pruned: usize,
    /// Pairs handed to the SPARQL evaluator.
    pub evaluated: usize,
    /// Evaluated pairs that produced at least one match.
    pub matched: usize,
    /// Evaluated pairs that completed on the rows of a query core an
    /// earlier entry with an equal core evaluated on the same plan (see
    /// [`KnowledgeBase::scan_workload_with`]). 0 for searches and for KBs
    /// whose cores all differ.
    pub shared: usize,
}

impl PruneStats {
    /// Fold another counter set into this one (used when merging
    /// per-thread stats).
    pub fn merge(&mut self, other: &PruneStats) {
        self.candidates += other.candidates;
        self.pruned += other.pruned;
        self.evaluated += other.evaluated;
        self.matched += other.matched;
        self.shared += other.shared;
    }

    /// Fraction of candidate pairs pruned, in `[0, 1]`.
    pub fn prune_rate(&self) -> f64 {
        if self.candidates == 0 {
            0.0
        } else {
            self.pruned as f64 / self.candidates as f64
        }
    }
}

/// A workload scan's reports plus the pruning counters that produced them
/// and any contained unit failures.
#[derive(Debug, Clone, PartialEq)]
pub struct ScanOutcome {
    /// One report per workload QEP, in workload order.
    pub reports: Vec<QepReport>,
    /// What pruning did across all (QEP, entry) pairs.
    pub stats: PruneStats,
    /// Contained unit failures, in workload order then entry order
    /// (deterministic for a given workload, KB, and budget). Empty for a
    /// clean scan.
    pub incidents: Vec<ScanIncident>,
    /// Total evaluation steps consumed across every unit — successful and
    /// failed alike. Step counting is deterministic for a given workload,
    /// KB, and budget, so two identical scans report identical totals;
    /// long-running callers (the HTTP service's metrics registry) use it
    /// as a hardware-independent work counter.
    pub fuel_spent: u64,
    /// One sample per fired (entry × QEP) pair, in workload order then
    /// entry order — what a match-history store records for this scan.
    pub samples: Vec<MatchSample>,
    /// Aggregated query-planner decision counters across every unit
    /// (patterns estimated, reorders applied, index choices, estimated vs.
    /// actual rows). Deterministic for a given workload, KB, and options;
    /// all-zero when the scan ran with `optimize` off.
    pub planner: EvalStats,
}

impl ScanOutcome {
    /// True when at least one scan unit failed and was contained — the
    /// reports are complete for every other unit but not exhaustive.
    pub fn is_degraded(&self) -> bool {
        !self.incidents.is_empty()
    }

    /// The canonical `{reports, incidents}` JSON document for this
    /// outcome. See [`render_scan_json`].
    pub fn render_json(&self) -> String {
        render_scan_json(&self.reports, &self.incidents)
    }

    /// Append the outcome of the workload chunk that follows this one.
    fn absorb(&mut self, next: ScanOutcome) {
        self.reports.extend(next.reports);
        self.stats.merge(&next.stats);
        self.incidents.extend(next.incidents);
        self.fuel_spent = self.fuel_spent.saturating_add(next.fuel_spent);
        self.samples.extend(next.samples);
        self.planner.absorb(&next.planner);
    }
}

/// Render scan results as the canonical `{reports, incidents}` JSON
/// document (pretty-printed, trailing newline).
///
/// This is the one serializer behind every machine-readable scan surface —
/// `optimatch scan --format json` and the HTTP service's `/v1/scan` and
/// `/v1/diagnose` responses all call it, so their outputs are byte-identical
/// by construction and cannot drift.
pub fn render_scan_json(reports: &[QepReport], incidents: &[ScanIncident]) -> String {
    let value = serde::value::Value::Object(vec![
        ("reports".to_string(), reports.serialize_to_value()),
        ("incidents".to_string(), incidents.serialize_to_value()),
    ]);
    let mut text =
        serde_json::to_string_pretty(&value).expect("scan reports always serialize to JSON");
    text.push('\n');
    text
}

/// The accounts of a loop over (entry × QEP) units. Workload scans,
/// ad-hoc searches, and regression diagnosis all run their units through
/// [`UnitRunner::run`], so pruning, core sharing, containment, fuel,
/// planner, and incident bookkeeping live in this one place.
#[derive(Debug, Default)]
pub(crate) struct UnitRunner {
    pub(crate) stats: PruneStats,
    pub(crate) incidents: Vec<ScanIncident>,
    pub(crate) fuel_spent: u64,
    pub(crate) planner: EvalStats,
}

impl UnitRunner {
    /// Run one (entry × QEP) unit whose matcher has core number `core` on
    /// the plan of `cores`. With `options.prune`, a unit that
    /// [`Matcher::could_match`] proves empty yields no matches without
    /// touching the evaluator; the first unit of a core asks, later ones
    /// reuse the answer. Otherwise the unit runs inside [`run_contained`].
    /// A failed unit is recorded and yields `None` — or, with
    /// `options.fail_fast`, aborts the loop as [`Error::Incident`].
    pub(crate) fn run(
        &mut self,
        matcher: &Matcher,
        core: usize,
        entry: &str,
        cores: &mut PlanCores<'_>,
        options: &ScanOptions,
    ) -> Result<Option<Vec<PatternMatch>>, Error> {
        self.stats.candidates += 1;
        let t = cores.plan;
        let slot = &mut cores.slots[core];
        slot.members_left -= 1;
        if options.prune && !*slot.may_match.get_or_insert_with(|| matcher.could_match(t)) {
            self.stats.pruned += 1;
            return Ok(Some(Vec::new()));
        }
        self.stats.evaluated += 1;
        let result = run_contained(matcher, entry, t, &mut slot.core, options);
        if slot.members_left == 0 {
            // The core's last unit on this plan is done with its rows.
            slot.core = None;
        }
        match result {
            Ok((matches, fuel, planner, reused)) => {
                self.fuel_spent = self.fuel_spent.saturating_add(fuel);
                self.planner.absorb(&planner);
                self.stats.matched += usize::from(!matches.is_empty());
                self.stats.shared += usize::from(reused);
                Ok(Some(matches))
            }
            Err(incident) if options.fail_fast => Err(Error::Incident(Box::new(incident))),
            Err(incident) => {
                self.fuel_spent = self.fuel_spent.saturating_add(incident.fuel_spent);
                self.incidents.push(incident);
                Ok(None)
            }
        }
    }
}

/// One plan's query cores, as its units reach them in entry order. It
/// lives only while that plan's units run, on one thread: nothing is
/// shared across plans, scans or threads.
pub(crate) struct PlanCores<'t> {
    plan: &'t TransformedQep,
    slots: Vec<CoreSlot>,
}

impl<'t> PlanCores<'t> {
    /// Empty slots on `plan` for cores whose units number `members`.
    pub(crate) fn new(plan: &'t TransformedQep, members: &[usize]) -> PlanCores<'t> {
        let slot = |&members_left| CoreSlot {
            members_left,
            may_match: None,
            core: None,
        };
        PlanCores {
            plan,
            slots: members.iter().map(slot).collect(),
        }
    }
}

/// What the first units to reach one core on one plan found.
struct CoreSlot {
    /// Units of this core yet to run on the plan; the last one frees the
    /// rows, so a core nobody shares lives no longer than one unit.
    members_left: usize,
    /// The pruning probe's answer, once asked.
    may_match: Option<bool>,
    /// The core's rows, or the incident its evaluation became.
    core: Option<Result<EvaluatedCore, ScanIncident>>,
}

/// A core evaluated on one plan, with its budget and time as it finished:
/// where each unit sharing it starts its tail.
struct EvaluatedCore {
    rows: CoreRows,
    budget: Budget,
    elapsed: Duration,
}

/// Run `run` over `ceil(len / threads)` contiguous chunks of `workload`,
/// the calling thread taking the first, and fold the outcomes with
/// `absorb` in workload order. Every worker is joined first; then the
/// first erring chunk in workload order decides the error, so a fail-fast
/// loop returns its globally-first incident.
pub(crate) fn fan_out<T: Sync, R: Send>(
    workload: &[T],
    threads: usize,
    run: impl Fn(&[T]) -> Result<R, Error> + Sync,
    absorb: fn(&mut R, R),
) -> Result<R, Error> {
    let chunk = workload.len().div_ceil(threads.max(1)).max(1);
    let (first, rest) = workload.split_at(chunk.min(workload.len()));
    let run = &run;
    let (head, tail) = std::thread::scope(|scope| {
        let workers: Vec<_> = rest
            .chunks(chunk)
            .map(|c| scope.spawn(move || run(c)))
            .collect();
        let head = run(first);
        let tail: Vec<_> = workers.into_iter().map(|w| w.join()).collect();
        (head, tail)
    });
    // Units are panic-contained, so a worker panic means the unit loop
    // itself broke — typed, not a process abort.
    let panicked = |_| Err(Error::Internal("workload worker panicked".into()));
    let mut outcome = head?;
    for next in tail {
        absorb(&mut outcome, next.unwrap_or_else(panicked)?);
    }
    Ok(outcome)
}

/// Run one (entry × QEP) matcher unit inside the containment boundary: a
/// fresh [`Budget`] bounds its evaluation and `catch_unwind` converts a
/// panic into a recorded incident (payload captured) instead of tearing
/// down the scan. The chaos hook fires first. Then the unit evaluates its
/// core into `core`, unless an earlier unit of the plan did, and runs its
/// tail on a copy of the core's budget resumed at the core's time, so its
/// fuel, incidents and clock are what evaluating its whole query alone
/// would give. A core that failed becomes this unit's incident under its
/// own entry name. The success value carries the steps the unit consumed,
/// its planner trace, and whether it reused another unit's core.
fn run_contained(
    matcher: &Matcher,
    entry_name: &str,
    t: &TransformedQep,
    core: &mut Option<Result<EvaluatedCore, ScanIncident>>,
    options: &ScanOptions,
) -> Result<(Vec<PatternMatch>, u64, EvalStats, bool), ScanIncident> {
    let incident = |cause: IncidentCause, budget: &Budget| ScanIncident {
        qep_id: t.qep.id.clone(),
        entry: entry_name.to_string(),
        cause,
        elapsed: budget.elapsed(),
        fuel_spent: budget.spent(),
    };
    let budget = Budget::limited(options.fuel, options.deadline);
    contain(|| crate::chaos::trip(&matcher.pattern().name)).map_err(|c| incident(c, &budget))?;
    let reused = core.is_some();
    let evaluated = core.get_or_insert_with(|| {
        let rows = contain(|| matcher.core_rows(t, &budget, options.optimize))
            .map_err(|c| incident(c, &budget))?;
        Ok(EvaluatedCore {
            rows,
            elapsed: budget.elapsed(),
            budget,
        })
    });
    let evaluated = evaluated.as_ref().map_err(|failed| ScanIncident {
        entry: entry_name.to_string(),
        ..failed.clone()
    })?;
    let budget = evaluated.budget.resumed(evaluated.elapsed);
    match contain(|| matcher.finish(t, &evaluated.rows, &budget, options.optimize)) {
        Ok((matches, planner)) => Ok((matches, budget.spent(), planner, reused)),
        Err(cause) => Err(incident(cause, &budget)),
    }
}

/// Run `f` inside the containment boundary: an error or a panic becomes
/// the incident cause it stands for.
fn contain<R>(f: impl FnOnce() -> Result<R, Error>) -> Result<R, IncidentCause> {
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)) {
        Ok(Ok(value)) => Ok(value),
        Ok(Err(Error::Sparql(SparqlError::BudgetExceeded { cause, .. }))) => Err(match cause {
            BudgetCause::Fuel => IncidentCause::FuelExhausted,
            BudgetCause::Deadline => IncidentCause::DeadlineExceeded,
        }),
        Ok(Err(e)) => Err(IncidentCause::Error(e.to_string())),
        Err(payload) => Err(IncidentCause::Panic(panic_message(&*payload))),
    }
}

/// Best-effort extraction of a panic payload's message (`&str` and
/// `String` cover `panic!` in practice).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// A compiled entry: pattern matcher + parsed template + the number of
/// its query core among the KB's distinct cores. The matcher is shared out
/// of the [`MatcherCache`], so structurally identical patterns compile
/// once. `pub(crate)` so the regression-diagnosis module can run the same
/// matcher/template units over a plan pair.
pub(crate) struct CompiledEntry {
    pub(crate) matcher: Arc<Matcher>,
    pub(crate) template: Template,
    pub(crate) core: usize,
}

/// The knowledge base: entries plus their compiled forms.
#[derive(Default)]
pub struct KnowledgeBase {
    entries: Vec<KnowledgeBaseEntry>,
    compiled: Vec<CompiledEntry>,
    /// The number of entries with each distinct query core.
    core_members: Vec<usize>,
    cache: MatcherCache,
}

impl std::fmt::Debug for KnowledgeBase {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("KnowledgeBase")
            .field("entries", &self.entries.len())
            .finish()
    }
}

impl KnowledgeBase {
    /// An empty knowledge base.
    pub fn new() -> KnowledgeBase {
        KnowledgeBase::default()
    }

    /// Number of stored entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no entries are stored.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The stored entries.
    pub fn entries(&self) -> &[KnowledgeBaseEntry] {
        &self.entries
    }

    /// Algorithm 4: store an entry. The pattern is compiled to SPARQL and
    /// the recommendation template parsed immediately, so a KB never holds
    /// an entry it cannot execute. The entry joins the earlier entries
    /// whose query core is equal to its own, or starts a core of its own.
    pub fn add(&mut self, entry: KnowledgeBaseEntry) -> Result<(), KbError> {
        if self.entries.iter().any(|e| e.name == entry.name) {
            return Err(KbError::Duplicate(entry.name));
        }
        let matcher = self
            .cache
            .get_or_compile(&entry.pattern)
            .map_err(KbError::Pattern)?;
        let template = Template::parse(&entry.recommendation).map_err(KbError::Template)?;
        let core = self
            .compiled
            .iter()
            .find(|c| c.matcher.same_core(&matcher))
            .map_or(self.core_members.len(), |c| c.core);
        if core == self.core_members.len() {
            self.core_members.push(0);
        }
        self.core_members[core] += 1;
        self.entries.push(entry);
        self.compiled.push(CompiledEntry {
            matcher,
            template,
            core,
        });
        Ok(())
    }

    /// The compiled-matcher cache (shared across entries; exposed for
    /// ad-hoc searches and cache-effectiveness reporting).
    // Only tests read it: the one view of structural compile sharing
    // (one compile, one hit for two equal patterns). devlint: allow(OD008)
    pub fn matcher_cache(&self) -> &MatcherCache {
        &self.cache
    }

    /// Entries zipped with their compiled matcher/template units, for
    /// crate-internal consumers (the regression-diagnosis delta scan).
    pub(crate) fn units(&self) -> impl Iterator<Item = (&KnowledgeBaseEntry, &CompiledEntry)> {
        self.entries.iter().zip(&self.compiled)
    }

    /// Empty core slots for one plan's units.
    pub(crate) fn plan_cores<'t>(&self, t: &'t TransformedQep) -> PlanCores<'t> {
        PlanCores::new(t, &self.core_members)
    }

    /// The compiled SPARQL of an entry, by name.
    pub fn sparql_of(&self, name: &str) -> Option<&str> {
        let idx = self.entries.iter().position(|e| e.name == name)?;
        Some(self.compiled[idx].matcher.sparql())
    }

    /// Scan a whole workload against every entry (the loop of Algorithm 5),
    /// returning ranked, context-adapted recommendations. The per-QEP loop
    /// fans out over `options.threads` contiguous chunks, the calling
    /// thread taking the first; chunks merge in workload order, so the
    /// outcome is identical for any thread count. Per-entry confidences
    /// are then weighted by their workload-level correlation with cost
    /// impact (§2.3's statistical correlation analysis) and re-ranked
    /// within each report.
    ///
    /// Entries whose queries have an equal core (the graph pattern under
    /// the top-level FILTERs, see [`Matcher`]) share it: on each plan, the
    /// first of them to reach the core probes and evaluates it, and each
    /// runs its own FILTERs, projection and ranking over those rows. Every
    /// per-entry account is what evaluating its whole query would give: a
    /// unit is charged its core's fuel plus its tail's, its clock counts
    /// the core's time plus its own tail, and a failed core is one incident
    /// per entry that reaches it. [`PruneStats::shared`] counts the units
    /// that reused a core.
    pub fn scan_workload_with(
        &self,
        workload: &[TransformedQep],
        options: ScanOptions,
    ) -> Result<ScanOutcome, Error> {
        let scan = |chunk: &[TransformedQep]| self.scan_chunk(chunk, &options);
        let mut outcome = fan_out(workload, options.threads, scan, ScanOutcome::absorb)?;
        self.apply_workload_weighting(&mut outcome.reports, workload);
        Ok(outcome)
    }

    /// Algorithm 5 over one contiguous chunk of the workload, on the
    /// calling thread: every (QEP × entry) unit, in workload order then
    /// entry order. A failed unit's entry contributes no recommendation
    /// for that QEP. Reports come back ranked but not yet
    /// workload-weighted.
    fn scan_chunk(
        &self,
        chunk: &[TransformedQep],
        options: &ScanOptions,
    ) -> Result<ScanOutcome, Error> {
        let mut units = UnitRunner::default();
        let mut reports = Vec::with_capacity(chunk.len());
        let mut samples = Vec::new();
        for t in chunk {
            let mut recommendations = Vec::new();
            // Derived the first time an entry fires on this plan.
            let mut plan_total = None;
            let mut cores = self.plan_cores(t);
            for (entry, compiled) in self.units() {
                let matches = units
                    .run(
                        &compiled.matcher,
                        compiled.core,
                        &entry.name,
                        &mut cores,
                        options,
                    )?
                    .unwrap_or_default();
                if matches.is_empty() {
                    continue;
                }
                let total = *plan_total.get_or_insert_with(|| t.qep.total_cost());
                let (confidence, cost_share) = best_match_features(entry, &matches, &t.qep, total);
                samples.push(MatchSample {
                    entry: entry.name.clone(),
                    qep_id: t.qep.id.clone(),
                    confidence,
                    cost_share,
                });
                recommendations.push(Recommendation {
                    entry: entry.name.clone(),
                    text: compiled.template.render(&matches, &t.qep),
                    confidence,
                    occurrences: matches.len(),
                });
            }
            rank_by_confidence(&mut recommendations);
            reports.push(QepReport {
                qep_id: t.qep.id.clone(),
                recommendations,
            });
        }
        Ok(ScanOutcome {
            reports,
            stats: units.stats,
            incidents: units.incidents,
            fuel_spent: units.fuel_spent,
            samples,
            planner: units.planner,
        })
    }

    /// The workload-level statistical weighting step of Algorithm 5,
    /// applied once over the merged chunks. `reports` must align 1:1 with
    /// `workload`.
    fn apply_workload_weighting(&self, reports: &mut [QepReport], workload: &[TransformedQep]) {
        // Each recommended plan's log-cost impact, derived once; a plan
        // nothing fired on gets 0, which no entry reads.
        let plan_impacts: Vec<f64> = reports
            .iter()
            .zip(workload)
            .map(|(report, t)| {
                if report.recommendations.is_empty() {
                    0.0
                } else {
                    t.qep.total_cost().log10().max(0.0)
                }
            })
            .collect();
        for entry in &self.entries {
            let mut confidences = Vec::new();
            let mut impacts = Vec::new();
            for (report, &impact) in reports.iter().zip(&plan_impacts) {
                if let Some(r) = report
                    .recommendations
                    .iter()
                    .find(|r| r.entry == entry.name)
                {
                    confidences.push(r.confidence);
                    impacts.push(impact);
                }
            }
            let weight = rank::correlation_weight(&confidences, &impacts);
            if (weight - 1.0).abs() > f64::EPSILON {
                for report in reports.iter_mut() {
                    for r in &mut report.recommendations {
                        if r.entry == entry.name {
                            r.confidence = (r.confidence * weight).clamp(0.0, 1.0);
                        }
                    }
                }
            }
        }
        for report in reports.iter_mut() {
            rank_by_confidence(&mut report.recommendations);
        }
    }

    /// Run the full static-analysis suite ([`crate::lint`]) over every
    /// stored entry. Loaded KBs are already free of error-severity
    /// pattern issues (loading compiles eagerly), so this surfaces
    /// warnings and notes — plus template/query findings.
    pub fn lint(&self) -> Vec<crate::lint::Diagnostic> {
        crate::lint::lint_entries(&self.entries)
    }

    /// Serialize all entries to JSON.
    pub fn to_json(&self) -> Result<String, KbError> {
        serde_json::to_string_pretty(&self.entries).map_err(KbError::Json)
    }

    /// Rebuild a KB from JSON, recompiling every entry.
    pub fn from_json(json: &str) -> Result<KnowledgeBase, KbError> {
        let entries: Vec<KnowledgeBaseEntry> = serde_json::from_str(json).map_err(KbError::Json)?;
        let mut kb = KnowledgeBase::new();
        for entry in entries {
            kb.add(entry)?;
        }
        Ok(kb)
    }

    /// Persist to a file.
    pub fn save(&self, path: &std::path::Path) -> Result<(), KbError> {
        std::fs::write(path, self.to_json()?).map_err(KbError::Io)
    }

    /// Load from a file.
    pub fn load(path: &std::path::Path) -> Result<KnowledgeBase, KbError> {
        let json = std::fs::read_to_string(path).map_err(KbError::Io)?;
        KnowledgeBase::from_json(&json)
    }
}

/// Sort recommendations by confidence, highest first (stable on ties).
fn rank_by_confidence(recommendations: &mut [Recommendation]) {
    recommendations.sort_by(|a, b| {
        b.confidence
            .partial_cmp(&a.confidence)
            .unwrap_or(std::cmp::Ordering::Equal)
    });
}

/// The (confidence, cost share) of the best occurrence in `qep`, whose
/// total cost is `plan_total` — shared with the regression-diagnosis delta
/// scan so both surfaces score matches identically.
pub(crate) fn best_match_features(
    entry: &KnowledgeBaseEntry,
    matches: &[PatternMatch],
    qep: &Qep,
    plan_total: f64,
) -> (f64, f64) {
    matches
        .iter()
        .filter_map(|m| qep.op(m.anchor_pop()?))
        .map(|op| rank::features_for(op, plan_total))
        .map(|f| (rank::confidence(entry.prototype, f), f.cost_share))
        .fold(
            (0.0, 0.0),
            |best, cand| {
                if cand.0 > best.0 {
                    cand
                } else {
                    best
                }
            },
        )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builtin;
    use optimatch_qep::fixtures;

    #[test]
    fn prune_stats_merge_and_rate() {
        let mut a = PruneStats {
            candidates: 4,
            pruned: 1,
            evaluated: 3,
            matched: 2,
            shared: 1,
        };
        let b = PruneStats {
            candidates: 6,
            pruned: 4,
            evaluated: 2,
            matched: 0,
            shared: 1,
        };
        a.merge(&b);
        assert_eq!(a.candidates, 10);
        assert_eq!(a.pruned, 5);
        assert_eq!(a.evaluated, 5);
        assert_eq!(a.matched, 2);
        assert_eq!(a.shared, 2);
        assert!((a.prune_rate() - 0.5).abs() < 1e-12);
        assert_eq!(PruneStats::default().prune_rate(), 0.0);
    }

    fn workload() -> Vec<TransformedQep> {
        [fixtures::fig1(), fixtures::fig7(), fixtures::fig8()]
            .into_iter()
            .map(TransformedQep::new)
            .collect()
    }

    /// A fail-fast scan of the one-QEP workload `[t]`.
    fn scan_one(kb: &KnowledgeBase, t: &TransformedQep) -> QepReport {
        let options = ScanOptions::default().fail_fast(true);
        let mut outcome = kb
            .scan_workload_with(std::slice::from_ref(t), options)
            .unwrap();
        outcome.reports.remove(0)
    }

    #[test]
    fn add_compiles_eagerly_and_rejects_bad_entries() {
        let mut kb = KnowledgeBase::new();
        kb.add(builtin::pattern_a()).unwrap();
        assert_eq!(kb.len(), 1);
        assert!(kb
            .sparql_of(&builtin::pattern_a().name)
            .unwrap()
            .contains("SELECT"));

        // Duplicate name.
        assert!(matches!(
            kb.add(builtin::pattern_a()),
            Err(KbError::Duplicate(_))
        ));

        // Bad template.
        let mut bad = builtin::pattern_b();
        bad.recommendation = "@[unclosed".into();
        assert!(matches!(kb.add(bad), Err(KbError::Template(_))));

        // Bad pattern.
        let mut bad = builtin::pattern_c();
        bad.name = "other".into();
        bad.pattern.pops.clear();
        assert!(matches!(kb.add(bad), Err(KbError::Pattern(_))));
    }

    #[test]
    fn scan_returns_context_adapted_recommendations() {
        let kb = builtin::paper_kb();
        let w = workload();
        let report = scan_one(&kb, &w[0]);
        assert_eq!(report.qep_id, "fig1");
        assert_eq!(report.recommendations.len(), 1);
        let rec = &report.recommendations[0];
        assert_eq!(rec.entry, builtin::pattern_a().name);
        // The stored template knew nothing about CUST_DIM; the context did.
        assert!(rec.text.contains("BIGD.CUST_DIM"), "{}", rec.text);
        assert!(rec.confidence > 0.0 && rec.confidence <= 1.0);
    }

    #[test]
    fn empty_report_message_matches_algorithm5() {
        let kb = builtin::paper_kb();
        // A plan matching nothing: a single RETURN over a SORT.
        use optimatch_qep::{InputSource, InputStream, OpType, PlanOp, Qep, StreamKind};
        let mut q = Qep::new("empty");
        let mut ret = PlanOp::new(1, OpType::Return);
        ret.inputs.push(InputStream {
            kind: StreamKind::Generic,
            source: InputSource::Op(2),
            estimated_rows: 1.0,
        });
        q.insert_op(ret);
        q.insert_op(PlanOp::new(2, OpType::Sort));
        let report = scan_one(&kb, &TransformedQep::new(q));
        assert_eq!(
            report.message(),
            "There is currently no recommendation in knowledge base"
        );
    }

    #[test]
    fn reports_rank_by_confidence() {
        let kb = builtin::paper_kb();
        let w = workload();
        let outcome = kb.scan_workload_with(&w, ScanOptions::default()).unwrap();
        for report in outcome.reports {
            for pair in report.recommendations.windows(2) {
                assert!(pair[0].confidence >= pair[1].confidence);
            }
        }
    }

    #[test]
    fn fig7_gets_rewrite_and_statistics_recommendations() {
        let kb = builtin::paper_kb();
        let w = workload();
        let report = scan_one(&kb, &w[1]);
        let names: Vec<&str> = report
            .recommendations
            .iter()
            .map(|r| r.entry.as_str())
            .collect();
        assert!(
            names.contains(&builtin::pattern_b().name.as_str()),
            "{names:?}"
        );
        assert!(
            names.contains(&builtin::pattern_c().name.as_str()),
            "{names:?}"
        );
    }

    #[test]
    fn json_round_trip_preserves_behaviour() {
        let kb = builtin::paper_kb();
        let json = kb.to_json().unwrap();
        let back = KnowledgeBase::from_json(&json).unwrap();
        assert_eq!(back.len(), kb.len());
        let w = workload();
        let a = scan_one(&kb, &w[0]);
        let b = scan_one(&back, &w[0]);
        assert_eq!(a, b);
    }

    #[test]
    fn pruned_scan_equals_unpruned_and_counts_skips() {
        let kb = builtin::paper_kb();
        let w = workload();
        let pruned = kb.scan_workload_with(&w, ScanOptions::default()).unwrap();
        let unpruned = kb
            .scan_workload_with(&w, ScanOptions::default().prune(false))
            .unwrap();
        assert_eq!(pruned.reports, unpruned.reports);
        assert_eq!(pruned.stats.candidates, w.len() * kb.len());
        assert_eq!(unpruned.stats.pruned, 0);
        assert_eq!(unpruned.stats.evaluated, w.len() * kb.len());
        // Pattern D's SORT is absent from every fixture, so at least those
        // (QEP, entry) pairs must have been skipped.
        assert!(pruned.stats.pruned >= w.len(), "{:?}", pruned.stats);
        assert_eq!(
            pruned.stats.evaluated + pruned.stats.pruned,
            pruned.stats.candidates
        );
    }

    #[test]
    fn threaded_scan_agrees_with_sequential() {
        let kb = builtin::paper_kb();
        let w: Vec<TransformedQep> = (0..3).flat_map(|_| workload()).collect();
        let seq = kb.scan_workload_with(&w, ScanOptions::default()).unwrap();
        let par = kb
            .scan_workload_with(&w, ScanOptions::default().threads(4))
            .unwrap();
        assert_eq!(seq, par);
        // More threads than QEPs must also work. Compare against a
        // sequential scan of the same slice — workload-level correlation
        // weighting depends on the workload, so a sub-workload scan is
        // not a slice of the full scan.
        let wide = kb
            .scan_workload_with(&w[..2], ScanOptions::default().threads(64))
            .unwrap();
        let narrow = kb
            .scan_workload_with(&w[..2], ScanOptions::default())
            .unwrap();
        assert_eq!(wide.reports, narrow.reports);
    }

    #[test]
    fn matcher_cache_spans_structurally_equal_entries() {
        let mut kb = KnowledgeBase::new();
        kb.add(builtin::pattern_a()).unwrap();
        let mut renamed = builtin::pattern_a();
        renamed.name = "a-again".into();
        renamed.pattern.name = "a-again".into();
        kb.add(renamed).unwrap();
        assert_eq!(kb.len(), 2);
        assert_eq!(kb.matcher_cache().len(), 1, "one compile for both");
        assert_eq!(kb.matcher_cache().hits(), 1);
        // Both entries still fire independently under their own names.
        let w = workload();
        let report = scan_one(&kb, &w[0]);
        let names: Vec<&str> = report
            .recommendations
            .iter()
            .map(|r| r.entry.as_str())
            .collect();
        assert_eq!(names, vec!["pattern-a-nljoin-tbscan", "a-again"]);
    }

    #[test]
    fn file_persistence() {
        let kb = builtin::paper_kb();
        let dir = std::env::temp_dir().join("optimatch-kb-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("kb.json");
        kb.save(&path).unwrap();
        let back = KnowledgeBase::load(&path).unwrap();
        assert_eq!(back.len(), kb.len());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn fuel_starved_scan_survives_with_fuel_incidents() {
        let kb = builtin::paper_kb();
        let w = workload();
        let outcome = kb
            .scan_workload_with(&w, ScanOptions::default().prune(false).fuel(0))
            .unwrap();
        assert!(outcome.is_degraded());
        // Every evaluated unit trips on its first step.
        assert_eq!(outcome.incidents.len(), w.len() * kb.len());
        for i in &outcome.incidents {
            assert_eq!(i.cause, IncidentCause::FuelExhausted);
            assert_eq!(i.cause.kind(), "fuel-exhausted");
            assert!(i.cause.detail().is_none());
        }
        // One (empty) report per QEP still comes back.
        assert_eq!(outcome.reports.len(), w.len());
        assert!(outcome.reports.iter().all(|r| r.recommendations.is_empty()));
    }

    #[test]
    fn zero_deadline_scan_records_deadline_incidents() {
        let kb = builtin::paper_kb();
        let w = workload();
        let outcome = kb
            .scan_workload_with(
                &w,
                ScanOptions::default().prune(false).deadline(Duration::ZERO),
            )
            .unwrap();
        assert!(outcome.is_degraded());
        assert!(!outcome.incidents.is_empty());
        for i in &outcome.incidents {
            assert_eq!(i.cause, IncidentCause::DeadlineExceeded);
            assert_eq!(i.cause.kind(), "deadline-exceeded");
        }
    }

    #[test]
    fn chaos_faults_are_contained_and_fail_fast_short_circuits() {
        // The chaos hook is process-global and other tests here scan the
        // paper KB concurrently, so arm it against a name only this test
        // uses: Pattern A, renamed.
        let target = "kb-chaos-target".to_string();
        let mut kb = KnowledgeBase::new();
        for mut entry in builtin::paper_entries() {
            if entry.name == builtin::pattern_a().name {
                entry.name = target.clone();
                entry.pattern.name = target.clone();
            }
            kb.add(entry).unwrap();
        }
        let w = workload();
        let clean = kb
            .scan_workload_with(&w, ScanOptions::default().prune(false))
            .unwrap();
        assert!(!clean.is_degraded());

        // Silence the injected panic's default stderr report while armed.
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));

        crate::chaos::arm_panic(&target);
        let panicked = kb
            .scan_workload_with(&w, ScanOptions::default().prune(false))
            .unwrap();
        assert_eq!(panicked.incidents.len(), w.len());
        for i in &panicked.incidents {
            assert_eq!(i.entry, target);
            assert_eq!(i.cause.kind(), "panic");
            assert!(i.cause.detail().unwrap().contains("chaos: injected panic"));
        }

        crate::chaos::arm_error(&target);
        let errored = kb
            .scan_workload_with(&w, ScanOptions::default().prune(false))
            .unwrap();
        assert_eq!(errored.incidents.len(), w.len());
        for i in &errored.incidents {
            assert_eq!(i.cause.kind(), "error");
            assert!(i.cause.detail().unwrap().contains("chaos: injected error"));
        }

        // fail_fast aborts at the globally first incident as a typed error.
        let err = kb
            .scan_workload_with(&w, ScanOptions::default().prune(false).fail_fast(true))
            .unwrap_err();
        match err {
            Error::Incident(i) => {
                assert_eq!(i.qep_id, w[0].qep.id);
                assert_eq!(i.entry, target);
            }
            other => panic!("expected Error::Incident, got {other:?}"),
        }

        crate::chaos::disarm();
        std::panic::set_hook(hook);

        // Disarmed again, the same scan is clean — and identical to the
        // pre-chaos run.
        let after = kb
            .scan_workload_with(&w, ScanOptions::default().prune(false))
            .unwrap();
        assert_eq!(after, clean);
    }

    #[test]
    fn scan_incident_serializes_kind_detail_and_elapsed() {
        use serde::value::{Number, Value};
        let i = ScanIncident {
            qep_id: "q1".into(),
            entry: "e1".into(),
            cause: IncidentCause::Panic("boom".into()),
            elapsed: Duration::from_micros(7),
            fuel_spent: 3,
        };
        let Value::Object(fields) = i.serialize_to_value() else {
            panic!("incident must serialize to an object");
        };
        let get = |k: &str| &fields.iter().find(|(name, _)| name == k).unwrap().1;
        assert!(matches!(get("qep_id"), Value::String(s) if s == "q1"));
        assert!(matches!(get("cause"), Value::String(s) if s == "panic"));
        assert!(matches!(get("detail"), Value::String(s) if s == "boom"));
        assert!(matches!(get("fuel_spent"), Value::Number(Number::Int(3))));
        assert!(matches!(get("elapsed_us"), Value::Number(Number::Int(7))));

        let quiet = ScanIncident {
            cause: IncidentCause::FuelExhausted,
            ..i
        };
        let Value::Object(fields) = quiet.serialize_to_value() else {
            panic!("incident must serialize to an object");
        };
        let detail = &fields.iter().find(|(name, _)| name == "detail").unwrap().1;
        assert!(matches!(detail, Value::Null));
    }
}
