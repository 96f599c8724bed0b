//! Property tests for optimatch-core: the tagging renderer never panics
//! and always produces text for valid templates; compiled SPARQL for
//! arbitrary valid builder patterns always parses; KB persistence is
//! lossless for arbitrary entries; match-history recovery survives
//! hostile bytes.

use proptest::prelude::*;

use optimatch_core::matcher::{MatchBinding, MatchTarget, PatternMatch};
use optimatch_core::pattern::{Pattern, PatternPop, Relationship, Sign, StreamKindSpec};
use optimatch_core::rank::Prototype;
use optimatch_core::stats::{self, MatchRecord};
use optimatch_core::tagging::Template;
use optimatch_core::{KnowledgeBase, KnowledgeBaseEntry, Matcher};
use optimatch_qep::fixtures;

/// Template text built from safe fragments plus tagging constructs.
fn arb_template() -> impl Strategy<Value = String> {
    let fragment = prop_oneof![
        Just("Create index on ".to_string()),
        Just("@TOP".to_string()),
        Just("@BASE".to_string()),
        Just("@MISSING".to_string()),
        Just("@table(BASE)".to_string()),
        Just("@columns(BASE)".to_string()),
        Just("@columns(TOP, PREDICATE)".to_string()),
        Just("@predicates(TOP)".to_string()),
        Just("@[TOP,BASE]".to_string()),
        Just("@limit(2)".to_string()),
        Just("plain text. ".to_string()),
        Just("admin@@db ".to_string()),
    ];
    proptest::collection::vec(fragment, 0..8).prop_map(|v| v.join(" "))
}

fn sample_matches() -> (Vec<PatternMatch>, optimatch_qep::Qep) {
    let qep = fixtures::fig1();
    let matches = vec![PatternMatch {
        qep_id: "fig1".into(),
        bindings: vec![
            MatchBinding {
                name: "TOP".into(),
                target: MatchTarget::Pop {
                    id: 2,
                    display: "NLJOIN".into(),
                },
            },
            MatchBinding {
                name: "BASE".into(),
                target: MatchTarget::Object("BIGD.CUST_DIM".into()),
            },
        ],
    }];
    (matches, qep)
}

/// Three recorded matches, and the sidecar image holding them.
fn sidecar_image() -> (Vec<MatchRecord>, Vec<u8>) {
    let records: Vec<MatchRecord> = (0..3u32)
        .map(|i| MatchRecord {
            entry: format!("pattern-{i}"),
            qep_id: format!("q{i}"),
            confidence: 0.25 * f64::from(i + 1),
            cost_share: 0.5,
            generation: u64::from(i),
        })
        .collect();
    let mut image = stats::header_bytes().to_vec();
    for r in &records {
        image.extend_from_slice(&r.frame());
    }
    (records, image)
}

/// The values a hostile 8-byte window holds: zero, values around the
/// image length, `u32::MAX`, `u64::MAX - k`, and random bits.
fn hostile_value(len: u64) -> impl Strategy<Value = u64> {
    prop_oneof![
        Just(0u64),
        (0u64..48).prop_map(move |d| len + 24 - d),
        Just(u64::from(u32::MAX)),
        (0u64..16).prop_map(|k| u64::MAX - k),
        any::<u64>(),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// An 8-byte window overwritten with a hostile value anywhere in a
    /// sidecar never panics `stats::recover`: it refuses a broken header
    /// and otherwise returns a prefix of the recorded matches, ending
    /// inside the image.
    #[test]
    fn match_history_recovery_survives_hostile_values(
        start in 0usize..1024,
        value in hostile_value(sidecar_image().1.len() as u64),
    ) {
        let (records, mut image) = sidecar_image();
        let start = start % (image.len() - 7);
        image[start..start + 8].copy_from_slice(&value.to_le_bytes());
        match stats::recover(&image) {
            Ok((recovered, valid_len)) => {
                prop_assert!(valid_len <= image.len());
                prop_assert_eq!(&recovered[..], &records[..recovered.len()]);
            }
            // Only the magic and version bytes are checked in the header.
            Err(_) => prop_assert!(start < 9, "refused a sound header (window at {start})"),
        }
    }

    /// Any template assembled from valid constructs parses and renders
    /// without panicking, and unknown aliases degrade to placeholders.
    #[test]
    fn tagging_renderer_is_total(template in arb_template()) {
        let parsed = Template::parse(&template).expect("valid constructs parse");
        let (matches, qep) = sample_matches();
        let out = parsed.render(&matches, &qep);
        // Raw tagging syntax never leaks through (except the escape).
        prop_assert!(!out.contains("@TOP"), "{out}");
        prop_assert!(!out.contains("@table("), "{out}");
        if template.contains("@MISSING") {
            prop_assert!(out.contains("<unbound:MISSING>"));
        }
    }

    /// Arbitrary chains of typed pops with mixed relationships compile to
    /// SPARQL that the engine parses, and matching any fixture terminates
    /// without error.
    #[test]
    fn arbitrary_chain_patterns_compile_and_run(
        types in proptest::collection::vec(0usize..7, 1..5),
        descendant in proptest::collection::vec(prop::bool::ANY, 4),
        kinds in proptest::collection::vec(0usize..4, 4),
    ) {
        const TYPES: [&str; 7] = ["ANY", "JOIN", "SCAN", "NLJOIN", "SORT", "FETCH", "TEMP"];
        const KINDS: [StreamKindSpec; 4] = [
            StreamKindSpec::Outer,
            StreamKindSpec::Inner,
            StreamKindSpec::Generic,
            StreamKindSpec::Any,
        ];
        let mut pattern = Pattern::new("chain", "generated chain");
        for (i, &t) in types.iter().enumerate() {
            let mut pop = PatternPop::new(i as u32 + 1, TYPES[t]);
            if i + 1 < types.len() {
                let rel = if descendant[i % 4] {
                    Relationship::Descendant
                } else {
                    Relationship::Immediate
                };
                pop = pop.stream(KINDS[kinds[i % 4]], i as u32 + 2, rel);
            }
            if i == 0 {
                pop = pop.alias("TOP").prop(
                    "hasEstimateCardinality",
                    Sign::Ge,
                    "0",
                );
            }
            pattern = pattern.with_pop(pop);
        }
        let matcher = Matcher::compile(&pattern).expect("chain compiles");
        for qep in [fixtures::fig1(), fixtures::fig7(), fixtures::fig8()] {
            let t = optimatch_core::transform::TransformedQep::new(qep);
            let _ = matcher
                .find_traced(&t, &optimatch_sparql::Budget::unlimited(), true)
                .expect("matching terminates");
        }
    }

    /// Generated valid chain patterns lint clean: the linter reports
    /// nothing above `Note` severity for any pattern the builder can
    /// legitimately produce, so `validate()` and the linter agree.
    #[test]
    fn generated_valid_patterns_lint_clean(
        types in proptest::collection::vec(0usize..7, 1..5),
        descendant in proptest::collection::vec(prop::bool::ANY, 4),
        kinds in proptest::collection::vec(0usize..4, 4),
    ) {
        const TYPES: [&str; 7] = ["ANY", "JOIN", "SCAN", "NLJOIN", "SORT", "FETCH", "TEMP"];
        const KINDS: [StreamKindSpec; 4] = [
            StreamKindSpec::Outer,
            StreamKindSpec::Inner,
            StreamKindSpec::Generic,
            StreamKindSpec::Any,
        ];
        let mut pattern = Pattern::new("chain", "generated chain");
        for (i, &t) in types.iter().enumerate() {
            let mut pop = PatternPop::new(i as u32 + 1, TYPES[t]).alias(format!("P{}", i + 1));
            if i + 1 < types.len() {
                let rel = if descendant[i % 4] {
                    Relationship::Descendant
                } else {
                    Relationship::Immediate
                };
                pop = pop.stream(KINDS[kinds[i % 4]], i as u32 + 2, rel);
            }
            if i == 0 {
                pop = pop.prop("hasEstimateCardinality", Sign::Ge, "0");
            }
            pattern = pattern.with_pop(pop);
        }
        prop_assert!(pattern.validate().is_ok());
        let entry = KnowledgeBaseEntry {
            name: "chain".into(),
            description: "generated chain".into(),
            pattern,
            recommendation: "Inspect @P1".into(),
            prototype: Prototype::default(),
        };
        let diags = optimatch_core::lint::lint_entries(std::slice::from_ref(&entry));
        let worst = diags.iter().map(|d| d.severity).max();
        prop_assert!(
            worst.is_none() || worst == Some(optimatch_core::lint::Severity::Note),
            "generated pattern produced {:?}",
            diags
        );
    }

    /// KB JSON persistence round-trips arbitrary recommendation text and
    /// prototypes exactly.
    #[test]
    fn kb_round_trips_arbitrary_entries(
        template in arb_template(),
        cost_share in 0.0f64..1.0,
        log_card in 0.0f64..9.0,
    ) {
        let mut kb = KnowledgeBase::new();
        kb.add(KnowledgeBaseEntry {
            name: "generated".into(),
            description: "prop entry".into(),
            pattern: optimatch_core::builtin::pattern_a().pattern,
            recommendation: template,
            prototype: Prototype {
                cost_share,
                log_cardinality: log_card,
            },
        })
        .expect("entry is valid");
        let json = kb.to_json().expect("serializes");
        let back = KnowledgeBase::from_json(&json).expect("parses");
        prop_assert_eq!(back.entries(), kb.entries());
    }

    /// Budgets are observational until exceeded: a `u64::MAX` fuel budget
    /// with no deadline produces a scan outcome identical to a budget-less
    /// scan — same reports, same counters, no incidents — for arbitrary
    /// workload sizes, thread counts, and pruning choices.
    #[test]
    fn unlimited_fuel_budget_is_observationally_equivalent(
        picks in proptest::collection::vec(0usize..3, 1..8),
        threads in 1usize..5,
        prune in prop::bool::ANY,
    ) {
        use optimatch_core::{ScanOptions, TransformedQep};
        let pool = [fixtures::fig1(), fixtures::fig7(), fixtures::fig8()];
        let workload: Vec<TransformedQep> = picks
            .iter()
            .enumerate()
            .map(|(i, &p)| {
                let mut q = pool[p].clone();
                q.id = format!("{}-{i}", q.id);
                TransformedQep::new(q)
            })
            .collect();
        let kb = optimatch_core::builtin::paper_kb();
        let base = ScanOptions::default().threads(threads).prune(prune);
        let plain = kb.scan_workload_with(&workload, base).expect("clean scan");
        let budgeted = kb
            .scan_workload_with(&workload, base.fuel(u64::MAX))
            .expect("budgeted scan");
        prop_assert!(budgeted.incidents.is_empty());
        prop_assert_eq!(&budgeted.reports, &plain.reports);
        prop_assert_eq!(budgeted.stats, plain.stats);
    }

    /// Regression diagnosis is reflexive: `regress(plan, plan)` yields an
    /// empty delta — no findings, no incidents, an unchanged diff, and no
    /// inserted/removed alignment pairs — for arbitrary generated plans,
    /// including ones that DO match KB patterns on both sides.
    #[test]
    fn regress_of_identical_plans_is_empty(
        seed in 0u64..1024,
        pick in 0usize..8,
        threshold in 0.0f64..0.5,
    ) {
        let workload = optimatch_workload::generate_workload(&optimatch_workload::WorkloadConfig {
            seed,
            num_qeps: 8,
            ..Default::default()
        });
        let qep = &workload.qeps[pick % workload.qeps.len()];
        let kb = optimatch_core::builtin::paper_kb();
        let options = optimatch_core::RegressOptions::default().threshold(threshold);
        let outcome = optimatch_core::regress(&kb, qep, qep, &options).expect("clean regress");
        prop_assert!(outcome.findings.is_empty(), "{:?}", outcome.findings);
        prop_assert!(outcome.incidents.is_empty());
        prop_assert!(!outcome.diff.is_changed());
        let inserted = outcome.alignment.count(optimatch_qep::AlignClass::Inserted);
        let removed = outcome.alignment.count(optimatch_qep::AlignClass::Removed);
        prop_assert_eq!(inserted + removed, 0);
    }
}
