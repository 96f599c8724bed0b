//! Algorithm 3: finding matches.
//!
//! A [`Matcher`] holds a pattern compiled to SPARQL, parsed and translated
//! to the evaluator's algebra once — the workload loop re-executes that
//! plan against every QEP's graph. Matched
//! solutions are **de-transformed**: RDF resources are mapped back to plan
//! context — operator numbers with their types, and base objects by name —
//! which is what the paper's step "relates any matched portions of RDF
//! structure back to corresponding query plan" produces.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

use optimatch_rdf::Term;
use optimatch_sparql::algebra::{translate, Plan};
use optimatch_sparql::eval::{evaluate, evaluate_core, evaluate_tail, CoreRows};
use optimatch_sparql::plan::explain_plan;
use optimatch_sparql::{
    parse_query, Budget, EvalStats, PhysicalPlan, PlanOptions, RequiredPatterns,
};

use crate::compile::compile_pattern;
use crate::error::Error;
use crate::kb::{fan_out, PlanCores, PruneStats, ScanIncident, ScanOptions, UnitRunner};
use crate::pattern::Pattern;
use crate::transform::TransformedQep;
use crate::vocab;

/// What a result handler bound to, in plan terms.
#[derive(Debug, Clone, PartialEq)]
pub enum MatchTarget {
    /// A plan operator.
    Pop {
        /// Operator number.
        id: u32,
        /// Operator mnemonic (with modifier prefix, e.g. `>HSJOIN`).
        display: String,
    },
    /// A base object by qualified name.
    Object(String),
    /// A plain value (rare: patterns projecting literals).
    Value(String),
}

impl MatchTarget {
    /// Short human-readable form used in reports and tagging.
    pub fn display(&self) -> String {
        match self {
            MatchTarget::Pop { id, display } => format!("{display} (#{id})"),
            MatchTarget::Object(name) => name.clone(),
            MatchTarget::Value(v) => v.clone(),
        }
    }

    /// The operator number, when the target is an operator.
    pub fn pop_id(&self) -> Option<u32> {
        match self {
            MatchTarget::Pop { id, .. } => Some(*id),
            _ => None,
        }
    }
}

/// One projected column of one match.
#[derive(Debug, Clone, PartialEq)]
pub struct MatchBinding {
    /// The projection name (the alias, or `popN`).
    pub name: String,
    /// The de-transformed target.
    pub target: MatchTarget,
}

/// One occurrence of a pattern in one QEP.
#[derive(Debug, Clone, PartialEq)]
pub struct PatternMatch {
    /// The QEP's id.
    pub qep_id: String,
    /// Bindings in projection order.
    pub bindings: Vec<MatchBinding>,
}

impl PatternMatch {
    /// Look up a binding by name (alias).
    pub fn binding(&self, name: &str) -> Option<&MatchTarget> {
        self.bindings
            .iter()
            .find(|b| b.name == name)
            .map(|b| &b.target)
    }

    /// The first operator binding (the pattern's anchor) — used for
    /// ranking features.
    pub fn anchor_pop(&self) -> Option<u32> {
        self.bindings.iter().find_map(|b| b.target.pop_id())
    }
}

/// A pattern compiled, parsed and translated, ready to run across a
/// workload. Its query splits into a *core*, the graph pattern under the
/// top-level FILTERs, and a *tail*, those FILTERs plus projection and
/// ORDER BY. A KB scan evaluates each distinct core once per plan and
/// runs every entry's tail over its rows; a search has one matcher, so
/// each plan evaluates its core for that matcher alone.
#[derive(Debug, Clone)]
pub struct Matcher {
    pattern: Pattern,
    sparql: String,
    plan: Plan,
    required: RequiredPatterns,
}

impl Matcher {
    /// Compile a pattern (Algorithm 2), parse and translate the generated
    /// SPARQL, and derive the required-pattern probes used for workload
    /// pruning.
    pub fn compile(pattern: &Pattern) -> Result<Matcher, Error> {
        let sparql = compile_pattern(pattern)?;
        let query = parse_query(&sparql)?;
        Ok(Matcher {
            pattern: pattern.clone(),
            sparql,
            plan: translate(&query)?,
            required: RequiredPatterns::of(&query),
        })
    }

    /// The source pattern.
    pub fn pattern(&self) -> &Pattern {
        &self.pattern
    }

    /// The generated SPARQL text (the paper's Figure 6 equivalent).
    pub fn sparql(&self) -> &str {
        &self.sparql
    }

    /// Cheap pre-check on the QEP graph's own indexes: `false` proves
    /// [`Matcher::find_traced`] would return no matches for this QEP;
    /// `true` means the evaluator must decide.
    pub fn could_match(&self, t: &TransformedQep) -> bool {
        self.required.may_match(&t.graph)
    }

    /// Match against one transformed QEP under an evaluation [`Budget`],
    /// de-transforming solutions, and return the planner's decision trace
    /// alongside the matches. Results do not depend on the budget while it
    /// holds; exhaustion surfaces as
    /// `Error::Sparql(SparqlError::BudgetExceeded)`. `optimize = false` is
    /// the correctness oracle: source-order evaluation, empty trace. This
    /// is the unit the scan pipeline wraps in its containment boundary.
    pub fn find_traced(
        &self,
        t: &TransformedQep,
        budget: &Budget,
        optimize: bool,
    ) -> Result<(Vec<PatternMatch>, EvalStats), Error> {
        crate::chaos::trip(&self.pattern.name)?;
        let options = PlanOptions::default().optimize(optimize);
        let (table, planner) = evaluate(&t.graph, &self.plan, options, budget)?;
        Ok((matches_of(&table, t), planner))
    }

    /// True when `other`'s query has the same core and the same pruning
    /// probes, so one evaluation of the core per plan serves both.
    pub(crate) fn same_core(&self, other: &Matcher) -> bool {
        self.plan.same_core(&other.plan) && self.required == other.required
    }

    /// Evaluate this matcher's core on one QEP's graph.
    pub(crate) fn core_rows(
        &self,
        t: &TransformedQep,
        budget: &Budget,
        optimize: bool,
    ) -> Result<CoreRows, Error> {
        let options = PlanOptions::default().optimize(optimize);
        Ok(evaluate_core(&t.graph, &self.plan, options, budget)?)
    }

    /// Run this matcher's tail over rows of its core on one QEP's graph,
    /// possibly built for another matcher with the same core, and
    /// de-transform the solutions. `budget` goes on from the core's.
    pub(crate) fn finish(
        &self,
        t: &TransformedQep,
        core: &CoreRows,
        budget: &Budget,
        optimize: bool,
    ) -> Result<(Vec<PatternMatch>, EvalStats), Error> {
        let options = PlanOptions::default().optimize(optimize);
        let (table, planner) = evaluate_tail(&t.graph, &self.plan, core, options, budget)?;
        Ok((matches_of(&table, t), planner))
    }

    /// The planner's physical plan for this pattern against one QEP's
    /// graph, without evaluating any rows — what `optimatch explain`
    /// renders. It comes from the same step procedure evaluation runs,
    /// drained for every BGP.
    pub fn explain(&self, t: &TransformedQep, options: PlanOptions) -> PhysicalPlan {
        explain_plan(&t.graph, &self.plan, options)
    }

    /// Match across a workload (the loop of Algorithm 3), concatenating
    /// per-QEP matches. Each per-QEP unit may be skipped by
    /// [`Matcher::could_match`] (`options.prune`), is budgeted
    /// (`options.fuel` / `options.deadline`), and is panic-contained.
    /// Failing units are recorded as incidents — or abort the search when
    /// `options.fail_fast` is set. Like the KB scan, the loop fans out over
    /// `options.threads`; the outcome is identical for any thread count.
    pub fn search_workload(
        &self,
        workload: &[TransformedQep],
        options: &ScanOptions,
    ) -> Result<SearchOutcome, Error> {
        let search = |chunk: &[TransformedQep]| -> Result<SearchOutcome, Error> {
            let mut units = UnitRunner::default();
            let mut matches = Vec::new();
            for t in chunk {
                let mut cores = PlanCores::new(t, &[1]);
                matches.extend(
                    units
                        .run(self, 0, &self.pattern.name, &mut cores, options)?
                        .unwrap_or_default(),
                );
            }
            Ok(SearchOutcome {
                matches,
                stats: units.stats,
                incidents: units.incidents,
                fuel_spent: units.fuel_spent,
                planner: units.planner,
            })
        };
        fan_out(workload, options.threads, search, SearchOutcome::absorb)
    }
}

/// What [`Matcher::search_workload`] produced: concatenated matches, the
/// pruning counters, and any contained unit failures.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SearchOutcome {
    /// Matches across the workload, in workload order.
    pub matches: Vec<PatternMatch>,
    /// What pruning did.
    pub stats: PruneStats,
    /// Contained unit failures, in workload order.
    pub incidents: Vec<ScanIncident>,
    /// Total evaluation steps across every unit (successful and failed);
    /// deterministic for a given workload, pattern, and budget.
    pub fuel_spent: u64,
    /// Aggregated query-planner decision counters across every unit;
    /// all-zero when the search ran with `optimize` off.
    pub planner: EvalStats,
}

impl SearchOutcome {
    /// The ids of the QEPs with at least one match, in workload order —
    /// the granularity of the paper's workload experiments ("N QEP files
    /// match the pattern").
    pub fn qep_ids(&self) -> Vec<&str> {
        let mut ids: Vec<&str> = self.matches.iter().map(|m| m.qep_id.as_str()).collect();
        ids.dedup();
        ids
    }

    /// Append the outcome of the workload chunk that follows this one.
    fn absorb(&mut self, next: SearchOutcome) {
        self.matches.extend(next.matches);
        self.stats.merge(&next.stats);
        self.incidents.extend(next.incidents);
        self.fuel_spent = self.fuel_spent.saturating_add(next.fuel_spent);
        self.planner.absorb(&next.planner);
    }
}

/// A concurrency-safe cache of compiled matchers, keyed by pattern
/// *structure* (the `pops`, serialized) — renaming a pattern does not
/// defeat the cache, since only the pops determine the generated SPARQL.
/// Used by [`crate::kb::KnowledgeBase`] so repeated `add`s of structurally
/// identical patterns (and ad-hoc session searches) skip Algorithm 2 and
/// the SPARQL parser entirely.
#[derive(Debug, Default)]
pub struct MatcherCache {
    inner: Mutex<HashMap<String, Arc<Matcher>>>,
    hits: AtomicUsize,
    misses: AtomicUsize,
}

impl MatcherCache {
    /// An empty cache.
    pub fn new() -> MatcherCache {
        MatcherCache::default()
    }

    fn key(pattern: &Pattern) -> String {
        serde_json::to_string(&pattern.pops).expect("pattern pops serialize")
    }

    /// The cached matcher for a structurally identical pattern, or compile
    /// and cache it. Compilation happens outside the lock, so a slow
    /// compile never blocks concurrent readers. The lock recovers from
    /// poisoning — the map is only ever inserted into, so a panicking
    /// holder cannot leave it half-updated.
    pub fn get_or_compile(&self, pattern: &Pattern) -> Result<Arc<Matcher>, Error> {
        let key = MatcherCache::key(pattern);
        if let Some(hit) = self
            .inner
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .get(&key)
        {
            // relaxed: hit/miss tallies are independent monotonic
            // statistics; nothing is ordered against them and readers
            // tolerate cross-counter skew.
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Ok(Arc::clone(hit));
        }
        // relaxed: see `hits` above.
        self.misses.fetch_add(1, Ordering::Relaxed);
        let compiled = Arc::new(Matcher::compile(pattern)?);
        let mut map = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        Ok(Arc::clone(map.entry(key).or_insert(compiled)))
    }

    /// Number of distinct compiled matchers held.
    pub fn len(&self) -> usize {
        self.inner
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .len()
    }

    /// True when nothing has been compiled yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Cache hits so far.
    pub fn hits(&self) -> usize {
        // relaxed: statistics snapshot; staleness is acceptable.
        self.hits.load(Ordering::Relaxed)
    }

    /// Cache misses (compilations) so far.
    pub fn misses(&self) -> usize {
        // relaxed: statistics snapshot; staleness is acceptable.
        self.misses.load(Ordering::Relaxed)
    }
}

/// The matches a result table holds on one QEP: each row's bound columns,
/// de-transformed.
fn matches_of(table: &optimatch_sparql::ResultTable, t: &TransformedQep) -> Vec<PatternMatch> {
    let mut out = Vec::with_capacity(table.len());
    for row in 0..table.len() {
        let mut bindings = Vec::with_capacity(table.vars().len());
        for var in table.vars() {
            let Some(term) = table.get(row, var) else {
                continue;
            };
            bindings.push(MatchBinding {
                name: var.clone(),
                target: detransform(term, t),
            });
        }
        out.push(PatternMatch {
            qep_id: t.qep.id.clone(),
            bindings,
        });
    }
    out
}

/// Map an RDF term back into plan context.
fn detransform(term: &Term, t: &TransformedQep) -> MatchTarget {
    match term {
        Term::Iri(iri) => {
            if let Some(id) = vocab::iri_to_pop_id(iri) {
                let display = t
                    .qep
                    .op(id)
                    .map(|op| op.display_name())
                    .unwrap_or_else(|| "?".to_string());
                return MatchTarget::Pop { id, display };
            }
            if vocab::is_object_iri(iri) {
                // Recover the qualified name by matching known objects.
                for name in t.qep.base_objects.keys() {
                    if vocab::object_iri(name) == *iri {
                        return MatchTarget::Object(name.clone());
                    }
                }
            }
            MatchTarget::Value(iri.clone())
        }
        other => MatchTarget::Value(other.display_text().into_owned()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builtin;
    use optimatch_qep::fixtures;

    fn workload() -> Vec<TransformedQep> {
        [fixtures::fig1(), fixtures::fig7(), fixtures::fig8()]
            .into_iter()
            .map(TransformedQep::new)
            .collect()
    }

    /// One unbudgeted, uncontained match against one QEP.
    fn find(m: &Matcher, t: &TransformedQep) -> Vec<PatternMatch> {
        m.find_traced(t, &Budget::unlimited(), true).unwrap().0
    }

    /// A fail-fast search over `w`, pruning on or off.
    fn search(m: &Matcher, w: &[TransformedQep], prune: bool) -> SearchOutcome {
        let options = ScanOptions::default().prune(prune).fail_fast(true);
        m.search_workload(w, &options).unwrap()
    }

    #[test]
    fn pattern_a_matches_figure1_only() {
        let m = Matcher::compile(&builtin::pattern_a().pattern).unwrap();
        let w = workload();
        assert_eq!(search(&m, &w, true).qep_ids(), ["fig1"]);

        let matches = find(&m, &w[0]);
        assert_eq!(matches.len(), 1);
        let top = matches[0].binding("TOP").unwrap();
        assert_eq!(top.pop_id(), Some(2));
        let base = matches[0].binding("BASE4").unwrap();
        assert_eq!(base, &MatchTarget::Object("BIGD.CUST_DIM".into()));
    }

    #[test]
    fn pattern_b_matches_figure7_through_temp_chain() {
        let m = Matcher::compile(&builtin::pattern_b().pattern).unwrap();
        let w = workload();
        assert_eq!(search(&m, &w, true).qep_ids(), ["fig7"]);
        // The match anchors at the top NLJOIN(5); the inner-side LOJ is
        // three levels down — only reachable recursively.
        let matches = find(&m, &w[1]);
        assert!(matches
            .iter()
            .any(|mm| mm.binding("TOP").and_then(|t| t.pop_id()) == Some(5)));
    }

    /// The greedy plan of Pattern B on Figure 7. It must start from the
    /// exact-count left-outer-join probe and reach `?pop1` by walking the
    /// outer stream bundle backward from `?pop2`, never by scanning every
    /// operator's type (a cartesian product with the bound joins).
    #[test]
    fn pattern_b_explain_on_figure7_is_pinned() {
        let m = Matcher::compile(&builtin::pattern_b().pattern).unwrap();
        let fig7 = TransformedQep::new(fixtures::fig7());
        // Predicate IRIs shortened to their local names for legibility.
        let text = m
            .explain(&fig7, PlanOptions::default())
            .render()
            .replace("http://optimatch/pred#", "");
        let bundle = "((<hasInputStream>|<hasOuterInputStream>)|<hasInnerInputStream>)";
        let expected = format!(
            "filter
  filter
    filter
      bgp (7 patterns, greedy order)
        1 ?pop2 <hasJoinType> \"LEFT OUTER\"  est=2.0 index=Pos (reordered from #5)
        2 ?pop2 <hasPopType> ?internalHandler2  est=1.0 index=Spo (reordered from #4)
        3 ?pop3 <hasJoinType> \"LEFT OUTER\"  est=2.0 index=Pos (reordered from #7)
        4 ?pop3 <hasPopType> ?internalHandler3  est=1.0 index=Spo (reordered from #6)
        5 ?pop1 <hasOuterInputStream>/<hasOuterInputStream>/{bundle}/{bundle}* ?pop2  est=4.0 path=backward (reordered from #2)
        6 ?pop1 <hasPopType> ?internalHandler1  est=1.0 index=Spo
        7 ?pop1 <hasInnerInputStream>/<hasInnerInputStream>/{bundle}/{bundle}* ?pop3  est=1.0 path=forward
"
        );
        assert_eq!(text, expected);
    }

    #[test]
    fn pattern_c_matches_figures7_and_8() {
        // Both contain an IXSCAN with collapsed cardinality over a huge
        // object (fig7 reuses the fig8 scan as its LOJ inner).
        let m = Matcher::compile(&builtin::pattern_c().pattern).unwrap();
        assert!(search(&m, &workload(), true).qep_ids().contains(&"fig8"));
    }

    #[test]
    fn pattern_d_matches_nothing_in_fixtures() {
        let m = Matcher::compile(&builtin::pattern_d().pattern).unwrap();
        assert!(search(&m, &workload(), true).qep_ids().is_empty());
    }

    #[test]
    fn detransform_names_operators_with_modifiers() {
        let m = Matcher::compile(&builtin::pattern_b().pattern).unwrap();
        let w = workload();
        let matches = find(&m, &w[1]);
        let any_loj = matches.iter().any(|mm| {
            mm.bindings
                .iter()
                .any(|b| b.target.display().starts_with('>'))
        });
        assert!(any_loj, "expected a >JOIN binding in {matches:?}");
    }

    #[test]
    fn optional_properties_report_when_present() {
        use crate::pattern::{Pattern, PatternPop};
        // Report the MAXPAGES argument of TBSCANs when present.
        let p = Pattern::new("opt", "").with_pop(
            PatternPop::new(1, "TBSCAN")
                .alias("SCAN")
                .optional_prop("hasArgMAXPAGES", "MAXPAGES"),
        );
        let m = Matcher::compile(&p).unwrap();
        let w = workload();
        // fig1's TBSCAN(5) carries MAXPAGES=ALL.
        let hits = find(&m, &w[0]);
        assert_eq!(hits.len(), 1);
        assert_eq!(
            hits[0].binding("MAXPAGES"),
            Some(&MatchTarget::Value("ALL".into()))
        );
        // fig7's TBSCANs have no arguments: still matched, alias unbound.
        let hits = find(&m, &w[1]);
        assert!(!hits.is_empty());
        assert!(hits.iter().all(|h| h.binding("MAXPAGES").is_none()));
    }

    #[test]
    fn search_workload_concatenates() {
        let m = Matcher::compile(&builtin::pattern_c().pattern).unwrap();
        let w = workload();
        let all = search(&m, &w, true).matches;
        let per_qep: usize = w.iter().map(|t| find(&m, t).len()).sum();
        assert_eq!(all.len(), per_qep);
    }

    #[test]
    fn pruning_skips_graphs_without_required_op_type() {
        // Pattern D requires a SORT; no fixture plan has one, so with
        // pruning on, the evaluator never runs at all.
        let m = Matcher::compile(&builtin::pattern_d().pattern).unwrap();
        let w = workload();
        let pruned = search(&m, &w, true);
        assert!(pruned.matches.is_empty());
        assert_eq!(pruned.stats.candidates, w.len());
        assert_eq!(pruned.stats.pruned, w.len());
        assert_eq!(pruned.stats.evaluated, 0);

        let unpruned = search(&m, &w, false);
        assert_eq!(pruned.matches, unpruned.matches);
        assert_eq!(unpruned.stats.pruned, 0);
        assert_eq!(unpruned.stats.evaluated, w.len());
    }

    fn could_match(entry: crate::KnowledgeBaseEntry, qep: optimatch_qep::Qep) -> bool {
        let m = Matcher::compile(&entry.pattern).unwrap();
        m.could_match(&TransformedQep::new(qep))
    }

    /// A one-operator plan: no input, so no stream edge at all.
    fn lone(op_type: optimatch_qep::OpType) -> optimatch_qep::Qep {
        let mut q = optimatch_qep::Qep::new("lone");
        q.insert_op(optimatch_qep::PlanOp::new(1, op_type));
        q
    }

    #[test]
    fn op_type_probe_needs_an_operator_of_that_type() {
        // Pattern D requires hasPopType "SORT": fig1 has none; its
        // sort-spill variant has one, so it must be evaluated.
        assert!(!could_match(builtin::pattern_d(), fixtures::fig1()));
        assert!(could_match(
            builtin::pattern_d(),
            fixtures::fig1_sort_spill()
        ));
    }

    #[test]
    fn literal_object_probe_needs_that_value() {
        // Pattern B requires hasJoinType "LEFT OUTER". Every plan asserts
        // hasJoinType, but fig1's joins are all INNER.
        assert!(!could_match(builtin::pattern_b(), fixtures::fig1()));
        assert!(could_match(builtin::pattern_b(), fixtures::fig7()));
    }

    #[test]
    fn any_kind_descendant_path_needs_a_stream_edge() {
        // The MQT entry reaches its join through (outer|inner|input)+,
        // which names no single required predicate but still needs one
        // stream edge; a lone GRPBY has every other required triple.
        let mqt = builtin::pattern_mqt_opportunity;
        assert!(!could_match(mqt(), lone(optimatch_qep::OpType::GrpBy)));
        // Over ANY operators the path is the only structural requirement.
        let mut entry = mqt();
        for pop in &mut entry.pattern.pops {
            pop.op_type = "ANY".into();
            pop.properties.clear();
        }
        assert!(could_match(entry.clone(), fixtures::fig1()));
        assert!(!could_match(entry, lone(optimatch_qep::OpType::Return)));
    }

    #[test]
    fn pruned_results_equal_unpruned_on_fixtures() {
        let w = workload();
        for entry in crate::builtin::paper_entries() {
            let m = Matcher::compile(&entry.pattern).unwrap();
            let (with, without) = (search(&m, &w, true), search(&m, &w, false));
            assert_eq!(
                with.matches, without.matches,
                "pattern {}",
                entry.pattern.name
            );
            assert_eq!(
                with.qep_ids(),
                without.qep_ids(),
                "pattern {}",
                entry.pattern.name
            );
        }
    }

    #[test]
    fn matcher_cache_dedupes_structurally_equal_patterns() {
        let cache = MatcherCache::new();
        let a = builtin::pattern_a().pattern;
        let mut renamed = a.clone();
        renamed.name = "something-else".into();
        let m1 = cache.get_or_compile(&a).unwrap();
        let m2 = cache.get_or_compile(&renamed).unwrap();
        assert!(Arc::ptr_eq(&m1, &m2), "rename must not defeat the cache");
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 1);

        let b = builtin::pattern_b().pattern;
        let m3 = cache.get_or_compile(&b).unwrap();
        assert!(!Arc::ptr_eq(&m1, &m3));
        assert_eq!(cache.len(), 2);
    }
}
