//! Cross-crate property tests over randomly generated workloads: text
//! round-trips, transformation invariants, matcher/oracle agreement, and
//! pattern JSON round-trips.

use proptest::prelude::*;

use optimatch_suite::core::pattern::{Pattern, PatternPop, Relationship, Sign, StreamKindSpec};
use optimatch_suite::core::vocab::{self, names};
use optimatch_suite::core::{
    builtin, transform::TransformedQep, transform_qep, Matcher, ScanOptions,
};
use optimatch_suite::qep::{format_qep, parse_qep, InputSource, Qep};
use optimatch_suite::workload::{
    generate_workload, GeneratorConfig, PlanGenerator, WorkloadConfig,
};

use rand::rngs::StdRng;
use rand::SeedableRng;

fn generated_plan(seed: u64, target_ops: usize) -> Qep {
    let mut rng = StdRng::seed_from_u64(seed);
    PlanGenerator::new(GeneratorConfig::default()).generate_sized(&mut rng, "prop", target_ops)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Text round trip for arbitrary generated plans of any size.
    #[test]
    fn plan_text_round_trip(seed in any::<u64>(), target in 5usize..120) {
        let q = generated_plan(seed, target);
        let back = parse_qep(&format_qep(&q)).expect("parses");
        prop_assert_eq!(back, q);
    }

    /// Transformation invariants: every operator becomes exactly one typed
    /// resource; every op→op or op→object stream becomes a blank node with
    /// four edges; derived cost-increase is present for every operator.
    #[test]
    fn transform_invariants(seed in any::<u64>(), target in 5usize..80) {
        let q = generated_plan(seed, target);
        let g = transform_qep(&q);

        let type_pred = vocab::pred(names::HAS_POP_TYPE);
        for op in q.ops.values() {
            let subject = vocab::pop(op.id);
            prop_assert_eq!(
                g.triples_matching(Some(&subject), Some(&type_pred), None).count(),
                1
            );
            prop_assert_eq!(
                g.triples_matching(
                    Some(&subject),
                    Some(&vocab::pred(names::HAS_TOTAL_COST_INCREASE)),
                    None
                )
                .count(),
                1
            );
        }
        // Stream edge accounting: per input, one stream triple out of the
        // parent, through a distinct blank node.
        let total_inputs: usize = q.ops.values().map(|op| op.inputs.len()).sum();
        let stream_preds = [
            vocab::pred(names::HAS_INPUT_STREAM),
            vocab::pred(names::HAS_OUTER_INPUT_STREAM),
            vocab::pred(names::HAS_INNER_INPUT_STREAM),
        ];
        let mut parent_to_bnode = 0usize;
        for p in &stream_preds {
            parent_to_bnode += g
                .triples_matching(None, Some(p), None)
                .filter(|(s, _, o)| s.is_iri() && o.is_blank())
                .count();
        }
        prop_assert_eq!(parent_to_bnode, total_inputs);
    }

    /// The SPARQL matcher agrees with a direct structural oracle for
    /// Pattern A on arbitrary generated plans (with and without injection
    /// the two must never disagree).
    #[test]
    fn matcher_agrees_with_structural_oracle(seed in any::<u64>(), target in 10usize..80) {
        use optimatch_suite::qep::{OpType, StreamKind};
        let mut rng = StdRng::seed_from_u64(seed);
        let mut q = generated_plan(seed.wrapping_add(1), target);
        // Half the cases get an injected instance.
        if seed % 2 == 0 {
            let _ = optimatch_suite::workload::inject::inject_pattern(
                &mut q,
                &mut rng,
                optimatch_suite::workload::PatternId::A,
                optimatch_suite::workload::Variant::Easy,
            );
        }

        let oracle = q.ops.values().any(|op| {
            op.op_type == OpType::NlJoin
                && op.input(StreamKind::Outer).is_some_and(|s| match &s.source {
                    InputSource::Op(id) => q.op(*id).is_some_and(|o| o.cardinality > 1.0),
                    _ => false,
                })
                && op.input(StreamKind::Inner).is_some_and(|s| match &s.source {
                    InputSource::Op(id) => q.op(*id).is_some_and(|o| {
                        o.op_type == OpType::TbScan && o.cardinality > 100.0
                    }),
                    _ => false,
                })
        });

        let t = TransformedQep::new(q);
        let m = Matcher::compile(&builtin::pattern_a().pattern).expect("compiles");
        let (matches, _) = m
            .find_traced(&t, &optimatch_suite::sparql::Budget::unlimited(), true)
            .expect("matches");
        let found = !matches.is_empty();
        prop_assert_eq!(found, oracle);
    }

    /// Pattern JSON round trip for arbitrary builder-constructed patterns.
    #[test]
    fn pattern_json_round_trip(
        n_pops in 1usize..6,
        type_picks in proptest::collection::vec(0usize..6, 6),
        thresholds in proptest::collection::vec(0u32..100_000, 6),
        edges in proptest::collection::vec((0usize..6, 0usize..4, prop::bool::ANY), 0..6),
    ) {
        const TYPES: [&str; 6] = ["NLJOIN", "ANY", "JOIN", "SCAN", "TBSCAN", "SORT"];
        const KINDS: [StreamKindSpec; 4] = [
            StreamKindSpec::Outer,
            StreamKindSpec::Inner,
            StreamKindSpec::Generic,
            StreamKindSpec::Any,
        ];
        let mut pattern = Pattern::new("prop-pattern", "generated");
        for i in 0..n_pops {
            let mut pop = PatternPop::new(i as u32 + 1, TYPES[type_picks[i]])
                .prop(
                    names::HAS_ESTIMATE_CARDINALITY,
                    Sign::Gt,
                    thresholds[i].to_string(),
                );
            if i == 0 {
                pop = pop.alias("TOP");
            }
            pattern = pattern.with_pop(pop);
        }
        // Add edges between existing pops (skip self-edges).
        for (from, kind, desc) in edges {
            let from = (from % n_pops) as u32 + 1;
            let to = (from % n_pops as u32) + 1;
            if from == to {
                continue;
            }
            let rel = if desc { Relationship::Descendant } else { Relationship::Immediate };
            if let Some(pop) = pattern.pops.iter_mut().find(|p| p.id == from) {
                pop.streams.push(optimatch_suite::core::StreamSpec {
                    kind: KINDS[kind],
                    target: to,
                    relationship: rel,
                });
            }
        }
        let json = pattern.to_json();
        let back = Pattern::from_json(&json).expect("parses");
        prop_assert_eq!(back, pattern.clone());

        // Valid patterns must always compile to parseable SPARQL.
        if pattern.validate().is_ok() {
            let m = Matcher::compile(&pattern);
            prop_assert!(m.is_ok(), "{:?}", m.err());
        }
    }

    /// Repository round trip: building a repository from a generated
    /// workload directory and warm-starting from it yields byte-identical
    /// scan reports (via JSON) and the same pruning counts as the cold
    /// parse-and-transform path — with pruning on and off.
    #[test]
    fn repository_round_trips_generated_workloads(seed in any::<u64>(), n in 2usize..8) {
        use optimatch_suite::core::{OpenOptions, OptImatch, Source};

        let w = generate_workload(&WorkloadConfig {
            seed,
            num_qeps: n,
            ..WorkloadConfig::default()
        });
        let dir = std::env::temp_dir().join(format!(
            "optimatch-prop-repo-{}-{seed:016x}-{n}",
            std::process::id()
        ));
        optimatch_suite::workload::write_workload(&w, &dir).expect("writes the workload");
        let repo_path = dir.join("workload.optirepo");
        let outcome = optimatch_suite::core::build_repo(&dir, &repo_path).expect("builds");
        prop_assert_eq!(outcome.records, n);
        prop_assert!(outcome.skipped.is_empty());

        let cold = OptImatch::open(Source::Dir(dir.clone()), OpenOptions::new())
            .expect("cold load")
            .session;
        let warm = OptImatch::open(Source::Repo(repo_path.clone()), OpenOptions::new())
            .expect("warm load")
            .session;
        prop_assert_eq!(warm.len(), cold.len());

        let kb = builtin::paper_kb();
        for prune in [true, false] {
            let opts = ScanOptions::default().prune(prune);
            let from_cold = cold.scan_with(&kb, opts).expect("cold scan");
            let from_warm = warm.scan_with(&kb, opts).expect("warm scan");
            prop_assert_eq!(&from_cold.reports, &from_warm.reports);
            prop_assert_eq!(
                serde_json::to_string(&from_cold.reports).expect("serializable"),
                serde_json::to_string(&from_warm.reports).expect("serializable")
            );
            prop_assert_eq!(from_cold.stats.pruned, from_warm.stats.pruned);
            prop_assert_eq!(from_cold.stats.candidates, from_warm.stats.candidates);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Soundness of required-pattern pruning: over arbitrary generated
    /// workloads, a pruned scan (and a pruned + threaded scan) returns
    /// exactly the reports of an unpruned scan, and pruned matcher
    /// searches return exactly the unpruned matches. The threaded scan's
    /// and each threaded search's whole outcome — counters, samples,
    /// fuel, and planner trace included — equals the sequential one. Both
    /// the paper KB and the extended KB run, so alternation paths
    /// (`(a|b|c)+`) are covered.
    #[test]
    fn pruned_scan_equals_unpruned_scan(seed in any::<u64>(), n in 2usize..10) {
        let w = generate_workload(&WorkloadConfig {
            seed,
            num_qeps: n,
            ..WorkloadConfig::default()
        });
        let workload: Vec<TransformedQep> =
            w.qeps.into_iter().map(TransformedQep::new).collect();
        for kb in [builtin::paper_kb(), builtin::extended_kb()] {
            let unpruned = kb
                .scan_workload_with(&workload, ScanOptions::default().prune(false))
                .expect("scans");
            let pruned = kb
                .scan_workload_with(&workload, ScanOptions::default())
                .expect("scans");
            let threaded = kb
                .scan_workload_with(&workload, ScanOptions::default().threads(3))
                .expect("scans");
            prop_assert_eq!(&unpruned.reports, &pruned.reports);
            prop_assert_eq!(&pruned, &threaded);
            prop_assert_eq!(unpruned.stats.pruned, 0);
            prop_assert_eq!(
                pruned.stats.evaluated + pruned.stats.pruned,
                pruned.stats.candidates
            );

            for entry in kb.entries() {
                let m = Matcher::compile(&entry.pattern).expect("compiles");
                let search = |prune, threads| {
                    let options = ScanOptions::default()
                        .prune(prune)
                        .fail_fast(true)
                        .threads(threads);
                    m.search_workload(&workload, &options).expect("matches")
                };
                let (fast, slow) = (search(true, 1), search(false, 1));
                prop_assert_eq!(&fast.matches, &slow.matches);
                prop_assert_eq!(fast.qep_ids(), slow.qep_ids());
                prop_assert_eq!(&fast, &search(true, 3));
            }
        }
    }
}
