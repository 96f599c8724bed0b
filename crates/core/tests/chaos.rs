//! Chaos harness: scans must survive hostile knowledge-base entries.
//!
//! A hostile KB carries (a) a pattern whose matcher panics (injected via
//! `optimatch_core::chaos`) and (b) an adversarial deep-recursion pattern
//! that exhausts any reasonable fuel budget. Scanning a 50-QEP workload
//! against it must complete, leave every unaffected report byte-identical
//! to a clean-KB run, and record deterministic incidents naming exactly
//! the injected failures. Ad-hoc searches with either pattern fan out
//! like the scan and must record the same incidents on any thread count.

use std::sync::Mutex;
use std::time::Duration;

use optimatch_core::pattern::{Pattern, PatternPop, Relationship, StreamKindSpec};
use optimatch_core::transform::TransformedQep;
use optimatch_core::{
    builtin, chaos, Error, IncidentCause, KnowledgeBase, KnowledgeBaseEntry, Matcher, ScanIncident,
    ScanOptions, SearchOutcome,
};
use optimatch_workload::{generate_workload, GeneratorConfig, InjectionConfig, WorkloadConfig};

/// Chaos injection is process-global, so tests that arm it (or silence
/// the panic hook) serialize on this lock.
static CHAOS_LOCK: Mutex<()> = Mutex::new(());

/// Fuel that every well-formed builtin pattern finishes within on this
/// workload (max observed spend: ~6k steps), but the recursion bomb
/// always exceeds (min observed: >2M steps). `fuel_margins_hold` below
/// pins both sides so the margin cannot silently erode.
const FUEL: u64 = 100_000;

fn workload50() -> Vec<TransformedQep> {
    let w = generate_workload(&WorkloadConfig {
        seed: 0xC4A05,
        num_qeps: 50,
        generator: GeneratorConfig::default(),
        injection: InjectionConfig::paper_rates(),
    });
    w.qeps.into_iter().map(TransformedQep::new).collect()
}

/// A structurally unique pattern (single untyped pop) whose matcher the
/// chaos hook is armed against. Structural uniqueness matters: matchers
/// are shared by structure, and the hook fires on the *first compiled*
/// pattern name.
fn panicking_entry() -> KnowledgeBaseEntry {
    KnowledgeBaseEntry {
        name: "chaos-panic".into(),
        description: "test-only: matcher panics via injected fault".into(),
        pattern: Pattern::new("chaos-panic", "").with_pop(PatternPop::new(1, "ANY").alias("P")),
        recommendation: "Contain @P.".into(),
        prototype: Default::default(),
    }
}

/// An adversarial pattern: a binary *tree* of untyped pops linked by
/// `Descendant` relationships compiles to six joined recursive property
/// paths whose pair sets multiply — the combinatorial evaluation blow-up
/// the fuel budget exists to stop. It burns millions of steps on every
/// plan in this workload, even the smallest.
fn recursion_bomb_entry() -> KnowledgeBaseEntry {
    let mut pattern = Pattern::new("chaos-recursion-bomb", "");
    for id in 1u32..=7 {
        let mut pop = PatternPop::new(id, "ANY").alias(format!("B{id}"));
        if id <= 3 {
            pop = pop
                .stream(StreamKindSpec::Generic, 2 * id, Relationship::Descendant)
                .stream(
                    StreamKindSpec::Generic,
                    2 * id + 1,
                    Relationship::Descendant,
                );
        }
        pattern = pattern.with_pop(pop);
    }
    KnowledgeBaseEntry {
        name: "chaos-recursion-bomb".into(),
        description: "test-only: deep-recursion fuel exhaustion".into(),
        pattern,
        recommendation: "Budget @B1.".into(),
        prototype: Default::default(),
    }
}

fn hostile_kb() -> KnowledgeBase {
    let mut kb = builtin::paper_kb();
    kb.add(panicking_entry()).unwrap();
    kb.add(recursion_bomb_entry()).unwrap();
    kb
}

/// The deterministic identity of an incident (everything but wall-clock).
fn identity(i: &ScanIncident) -> (String, String, IncidentCause, u64) {
    (
        i.qep_id.clone(),
        i.entry.clone(),
        i.cause.clone(),
        i.fuel_spent,
    )
}

/// Pins the calibration of [`FUEL`]: every builtin-pattern unit on this
/// workload finishes well under it, and the recursion bomb exceeds it on
/// every plan. If either margin erodes, this fails before the survival
/// tests start flaking.
#[test]
fn fuel_margins_hold() {
    let workload = workload50();
    let cache = optimatch_core::MatcherCache::new();
    let mut clean_max = 0u64;
    for entry in builtin::paper_entries() {
        let matcher = cache.get_or_compile(&entry.pattern).unwrap();
        for t in &workload {
            let budget = optimatch_sparql::Budget::unlimited();
            matcher.find_traced(t, &budget, true).unwrap();
            clean_max = clean_max.max(budget.spent());
        }
    }
    assert!(
        clean_max * 2 <= FUEL,
        "clean units must fit in half the budget, max spend {clean_max}"
    );
    let bomb = cache
        .get_or_compile(&recursion_bomb_entry().pattern)
        .unwrap();
    for t in &workload {
        let budget = optimatch_sparql::Budget::limited(Some(FUEL), None);
        let result = bomb.find_traced(t, &budget, true);
        assert!(
            matches!(
                result,
                Err(Error::Sparql(
                    optimatch_sparql::SparqlError::BudgetExceeded { .. }
                ))
            ),
            "bomb must exhaust {FUEL} fuel on {} (spent {})",
            t.qep.id,
            budget.spent()
        );
    }
}

/// Pattern A with another inner-cardinality threshold: the same query
/// core as Pattern A, another FILTER constant.
fn pattern_a_over(threshold: u32) -> KnowledgeBaseEntry {
    let mut entry = builtin::pattern_a();
    entry.name = format!("chaos-a-over-{threshold}");
    entry.pattern.name = entry.name.clone();
    entry.pattern.pops[2].properties[0].value = threshold.to_string();
    entry
}

/// The chaos hook fires per entry, before the entry reaches its query
/// core. An entry that trips records an incident with no fuel spent and
/// leaves the core to the next entry that shares it, whose results, fuel
/// and planner counters are what it gets alone.
#[test]
fn a_tripped_entry_leaves_its_shared_core_to_the_next() {
    let _guard = CHAOS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let workload = workload50();
    let options = ScanOptions::default().prune(false);
    let mut kb = KnowledgeBase::new();
    kb.add(pattern_a_over(100)).unwrap();
    kb.add(pattern_a_over(200)).unwrap();
    kb.add(pattern_a_over(300)).unwrap();
    let mut pair = KnowledgeBase::new();
    pair.add(pattern_a_over(200)).unwrap();
    pair.add(pattern_a_over(300)).unwrap();
    let expected = pair.scan_workload_with(&workload, options).unwrap();
    assert_eq!(expected.stats.shared, workload.len());

    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    chaos::arm_panic("chaos-a-over-100");
    let shared = kb.scan_workload_with(&workload, options).unwrap();
    chaos::disarm();
    std::panic::set_hook(hook);

    assert_eq!(shared.incidents.len(), workload.len());
    for i in &shared.incidents {
        assert_eq!((i.entry.as_str(), i.fuel_spent), ("chaos-a-over-100", 0));
    }
    assert_eq!(shared.reports, expected.reports);
    assert_eq!(shared.samples, expected.samples);
    assert_eq!(shared.fuel_spent, expected.fuel_spent);
    assert_eq!(shared.planner, expected.planner);
    assert_eq!(shared.stats.shared, expected.stats.shared);
}

#[test]
fn hostile_kb_scan_survives_and_unaffected_reports_are_identical() {
    let _guard = CHAOS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let workload = workload50();
    let clean = builtin::paper_kb()
        .scan_workload_with(&workload, ScanOptions::default())
        .unwrap();
    assert!(!clean.is_degraded());

    let kb = hostile_kb();
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    chaos::arm_panic("chaos-panic");
    let sequential = kb
        .scan_workload_with(&workload, ScanOptions::default().fuel(FUEL))
        .unwrap();
    let threaded = kb
        .scan_workload_with(&workload, ScanOptions::default().fuel(FUEL).threads(8))
        .unwrap();
    chaos::disarm();
    std::panic::set_hook(hook);

    // Survival: one report per QEP, and every unaffected report is
    // byte-identical to the clean-KB run (rendered text included).
    assert!(sequential.is_degraded());
    assert_eq!(sequential.reports.len(), workload.len());
    assert_eq!(sequential.reports, clean.reports);
    for (hostile, clean) in sequential.reports.iter().zip(&clean.reports) {
        assert_eq!(hostile.message(), clean.message());
    }

    // Incidents name exactly the injected failures, with correct causes:
    // the armed panic fires on every QEP, the bomb exhausts its fuel on
    // every QEP, and no healthy entry appears.
    let panics: Vec<_> = sequential
        .incidents
        .iter()
        .filter(|i| i.entry == "chaos-panic")
        .collect();
    let bombs: Vec<_> = sequential
        .incidents
        .iter()
        .filter(|i| i.entry == "chaos-recursion-bomb")
        .collect();
    assert_eq!(panics.len(), workload.len());
    assert_eq!(bombs.len(), workload.len());
    assert_eq!(
        sequential.incidents.len(),
        panics.len() + bombs.len(),
        "no incident may name a healthy entry: {:?}",
        sequential.incidents
    );
    for i in &panics {
        match &i.cause {
            IncidentCause::Panic(msg) => assert!(msg.contains("chaos: injected panic"), "{msg}"),
            other => panic!("expected a panic cause, got {other:?}"),
        }
    }
    for i in &bombs {
        assert_eq!(i.cause, IncidentCause::FuelExhausted);
        assert!(i.fuel_spent >= FUEL, "{i}");
    }

    // Determinism: the threaded scan records the same incidents (and
    // reports) as the sequential one, wall-clock aside.
    assert_eq!(threaded.reports, sequential.reports);
    assert_eq!(
        threaded.incidents.iter().map(identity).collect::<Vec<_>>(),
        sequential
            .incidents
            .iter()
            .map(identity)
            .collect::<Vec<_>>()
    );
}

#[test]
fn fail_fast_aborts_at_the_globally_first_incident() {
    let _guard = CHAOS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let workload = workload50();
    let kb = hostile_kb();
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    chaos::arm_panic("chaos-panic");
    let sequential = kb
        .scan_workload_with(&workload, ScanOptions::default().fuel(FUEL).fail_fast(true))
        .unwrap_err();
    let threaded = kb
        .scan_workload_with(
            &workload,
            ScanOptions::default().fuel(FUEL).fail_fast(true).threads(8),
        )
        .unwrap_err();
    chaos::disarm();
    std::panic::set_hook(hook);

    let first = |e: Error| match e {
        Error::Incident(i) => *i,
        other => panic!("expected Error::Incident, got {other:?}"),
    };
    let (seq, thr) = (first(sequential), first(threaded));
    // The first incident is the panicking entry on the first QEP — the KB
    // evaluates entries in insertion order, and the panic entry precedes
    // the bomb.
    assert_eq!(seq.qep_id, workload[0].qep.id);
    assert_eq!(seq.entry, "chaos-panic");
    // Threading does not change which incident aborts the scan.
    assert_eq!(identity(&thr), identity(&seq));
}

/// Searches fan out over the workload like the scan: on eight threads, a
/// panicking pattern and the recursion bomb each record the same
/// incidents, matches and fuel as on one, and the healthy builtin
/// patterns' whole outcomes are the same on 2, 8 and 64 threads (one
/// plan per chunk) as on one while the chaos hook is armed.
#[test]
fn hostile_searches_contain_the_same_incidents_on_eight_threads() {
    let _guard = CHAOS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let workload = workload50();
    let options = ScanOptions::default().fuel(FUEL);
    let search = |pattern: &Pattern, threads: usize| {
        Matcher::compile(pattern)
            .unwrap()
            .search_workload(&workload, &options.threads(threads))
            .unwrap()
    };
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    chaos::arm_panic("chaos-panic");
    let hostile: Vec<(SearchOutcome, SearchOutcome)> = [panicking_entry(), recursion_bomb_entry()]
        .iter()
        .map(|e| (search(&e.pattern, 1), search(&e.pattern, 8)))
        .collect();
    let healthy: Vec<(SearchOutcome, Vec<SearchOutcome>)> = builtin::paper_entries()
        .iter()
        .map(|e| {
            let threaded = [2, 8, 64].map(|threads| search(&e.pattern, threads));
            (search(&e.pattern, 1), threaded.to_vec())
        })
        .collect();
    chaos::disarm();
    std::panic::set_hook(hook);

    let (panics, bombs) = (&hostile[0].0, &hostile[1].0);
    assert_eq!(panics.incidents.len(), workload.len());
    assert!(panics.incidents.iter().all(
        |i| matches!(&i.cause, IncidentCause::Panic(m) if m.contains("chaos: injected panic"))
    ));
    assert_eq!(bombs.incidents.len(), workload.len());
    assert!(bombs
        .incidents
        .iter()
        .all(|i| i.cause == IncidentCause::FuelExhausted && i.fuel_spent >= FUEL));
    // Everything but wall-clock time matches the sequential search.
    let incidents = |o: &SearchOutcome| o.incidents.iter().map(identity).collect::<Vec<_>>();
    for (sequential, threaded) in &hostile {
        assert_eq!(incidents(threaded), incidents(sequential));
        assert_eq!(threaded.matches, sequential.matches);
        assert_eq!(threaded.fuel_spent, sequential.fuel_spent);
        assert_eq!(threaded.stats, sequential.stats);
        assert_eq!(threaded.planner, sequential.planner);
    }
    assert!(healthy.iter().any(|(s, _)| !s.matches.is_empty()));
    for (sequential, threaded) in &healthy {
        assert!(sequential.incidents.is_empty());
        for outcome in threaded {
            assert_eq!(outcome, sequential);
        }
    }
}

/// Pattern B evaluates only four plans of this workload (at indices 18,
/// 19, 21 and 43; the rest are pruned), each in more than 400 steps.
/// Eight threads cut the 50 plans into chunks of 7, so the globally-first
/// incident lies in the third chunk and two later chunks hold incidents
/// of their own: a merge that returned whichever erring chunk finished
/// first, rather than the first in workload order, would name another
/// plan.
const FAIL_FAST_FUEL: u64 = 400;

#[test]
fn fail_fast_search_aborts_at_the_globally_first_incident() {
    let workload = workload50();
    let threads = 8;
    let chunk = workload.len().div_ceil(threads);
    let matcher = Matcher::compile(&builtin::pattern_b().pattern).unwrap();
    let options = ScanOptions::default().fuel(FAIL_FAST_FUEL);

    // Where the incidents lie, from the contained (not fail-fast) search.
    let contained = matcher.search_workload(&workload, &options).unwrap();
    let position = |i: &ScanIncident| {
        workload
            .iter()
            .position(|t| t.qep.id == i.qep_id)
            .expect("incident names a workload plan")
    };
    let chunks: Vec<usize> = contained
        .incidents
        .iter()
        .map(|i| position(i) / chunk)
        .collect();
    assert!(
        chunks.first().is_some_and(|&c| c > 0),
        "the first incident must lie outside the first chunk: {:?}",
        contained.incidents
    );
    assert!(
        chunks.iter().any(|&c| c != chunks[0]),
        "a later chunk must hold an incident too: {chunks:?}"
    );

    let first = |e: Error| match e {
        Error::Incident(i) => *i,
        other => panic!("expected Error::Incident, got {other:?}"),
    };
    let fail_fast = options.fail_fast(true);
    let sequential = first(matcher.search_workload(&workload, &fail_fast).unwrap_err());
    let threaded = first(
        matcher
            .search_workload(&workload, &fail_fast.threads(threads))
            .unwrap_err(),
    );
    assert_eq!(identity(&sequential), identity(&contained.incidents[0]));
    assert_eq!(identity(&threaded), identity(&sequential));
}

#[test]
fn starved_budgets_degrade_deterministically_without_chaos() {
    let workload = workload50();
    let kb = builtin::paper_kb();

    // Fuel starvation: every evaluated unit trips on its first step, so
    // two runs agree exactly (fuel accounting is deterministic).
    let a = kb
        .scan_workload_with(&workload, ScanOptions::default().fuel(0))
        .unwrap();
    let b = kb
        .scan_workload_with(&workload, ScanOptions::default().fuel(0).threads(4))
        .unwrap();
    assert!(a.is_degraded());
    assert!(a
        .incidents
        .iter()
        .all(|i| i.cause == IncidentCause::FuelExhausted));
    assert_eq!(
        a.incidents.iter().map(identity).collect::<Vec<_>>(),
        b.incidents.iter().map(identity).collect::<Vec<_>>()
    );
    assert_eq!(a.reports, b.reports);

    // An already-expired deadline trips every unit on its first charge —
    // no sleeping involved, the check is on the way in.
    let expired = kb
        .scan_workload_with(&workload, ScanOptions::default().deadline(Duration::ZERO))
        .unwrap();
    assert!(expired.is_degraded());
    assert!(expired
        .incidents
        .iter()
        .all(|i| i.cause == IncidentCause::DeadlineExceeded));
    assert_eq!(
        expired
            .incidents
            .iter()
            .map(|i| &i.qep_id)
            .collect::<Vec<_>>(),
        a.incidents.iter().map(|i| &i.qep_id).collect::<Vec<_>>()
    );
}

/// A regression diagnosis over a hostile KB contains the panicking entry
/// as a typed incident (exactly what a serve handler turns into a 207,
/// never a 500) while the healthy entries still produce their delta; with
/// `fail_fast` the same fault surfaces as a typed [`Error::Incident`].
#[test]
fn regress_contains_hostile_patterns_as_typed_incidents() {
    use optimatch_qep::fixtures;
    let _guard = CHAOS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let kb = hostile_kb();
    let before = fixtures::fig1();
    let after = fixtures::fig1_sort_spill();

    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    chaos::arm_panic("chaos-panic");
    let options = optimatch_core::RegressOptions::default().scan(ScanOptions::default().fuel(FUEL));
    let outcome = optimatch_core::regress(&kb, &before, &after, &options).unwrap();
    let failed = optimatch_core::regress(
        &kb,
        &before,
        &after,
        &optimatch_core::RegressOptions::default()
            .scan(ScanOptions::default().fuel(FUEL).fail_fast(true)),
    )
    .unwrap_err();
    chaos::disarm();
    std::panic::set_hook(hook);

    // Contained mode: the diagnosis completes degraded. The armed panic
    // and the recursion bomb each produce typed incidents; neither entry
    // contributes findings, but the healthy sort-spill delta survives.
    assert!(outcome.is_degraded());
    for i in &outcome.incidents {
        assert!(
            i.entry == "chaos-panic" || i.entry == "chaos-recursion-bomb",
            "incident names a healthy entry: {i}"
        );
    }
    assert!(outcome.incidents.iter().any(
        |i| matches!(&i.cause, IncidentCause::Panic(m) if m.contains("chaos: injected panic"))
    ));
    assert!(outcome
        .findings
        .iter()
        .any(|f| f.entry == "pattern-d-sort-spill"));
    // The panicking entry never produces a finding — its fault became the
    // incident above. (The recursion bomb may legitimately finish within
    // budget on these tiny plans, so no claim is made about it.)
    assert!(!outcome.findings.iter().any(|f| f.entry == "chaos-panic"));

    // Fail-fast mode: the first fault aborts as a typed incident error.
    match failed {
        Error::Incident(i) => assert_eq!(i.entry, "chaos-panic"),
        other => panic!("expected Error::Incident, got {other:?}"),
    }
}
