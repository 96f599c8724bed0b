//! Shared helpers for the OptImatch reproduction harness (`reproduce`)
//! and for `perfbench/`: the seeded paper workload, its transformation,
//! the prunable filler plans, and the linear fit behind the paper's
//! scaling claims.

use std::time::{Duration, Instant};

use optimatch_core::TransformedQep;
use optimatch_workload::{
    generate_workload, GeneratorConfig, InjectionConfig, Workload, WorkloadConfig,
};

/// Deterministic seed shared by every experiment (reported in
/// EXPERIMENTS.md so runs are reproducible).
pub const EXPERIMENT_SEED: u64 = 0x0D_B2;

/// Build the paper-shaped workload: `n` QEPs, 60–180 operators each,
/// paper injection rates.
pub fn paper_workload(n: usize) -> Workload {
    generate_workload(&WorkloadConfig {
        seed: EXPERIMENT_SEED,
        num_qeps: n,
        generator: GeneratorConfig::default(),
        injection: InjectionConfig::paper_rates(),
    })
}

/// Transform a workload into matcher-ready form, returning the transform
/// time as well (Algorithm 1's share of the pipeline).
pub fn transform_all(w: &Workload) -> (Vec<TransformedQep>, Duration) {
    let start = Instant::now();
    let ts = w.qeps.iter().cloned().map(TransformedQep::new).collect();
    (ts, start.elapsed())
}

/// A plan no built-in KB pattern can match, but which is expensive to
/// *prove* non-matching in the evaluator: a left-deep spine of `joins`
/// INNER `NLJOIN`s over `TEMP` leaves. Every pattern is rejected by one
/// required-pattern probe on the plan's graph (no `TBSCAN`, no `IXSCAN`,
/// no `SORT`, no `LEFT OUTER` join literal), while an unpruned scan must
/// enumerate every join and walk its streams before failing. These plans
/// measure what pruning actually saves.
pub fn prunable_plan(id: usize, joins: usize) -> optimatch_qep::Qep {
    use optimatch_qep::{InputSource, InputStream, OpType, PlanOp, Qep, StreamKind};
    let joins = joins.max(1) as u32;
    let stream = |kind, id, rows| InputStream {
        kind,
        source: InputSource::Op(id),
        estimated_rows: rows,
    };
    let mut q = Qep::new(format!("filler{id}"));
    let mut ret = PlanOp::new(1, OpType::Return);
    ret.cardinality = 100.0;
    ret.total_cost = 100.0 * joins as f64;
    ret.io_cost = 10.0 * joins as f64;
    ret.inputs.push(stream(StreamKind::Generic, 2, 100.0));
    q.insert_op(ret);
    // Joins 2..joins+1; join k has outer = join k+1 (or a leaf) and its
    // own TEMP leaf as the inner side.
    let leaf_base = joins + 2;
    for k in 0..joins {
        let op_id = 2 + k;
        let mut join = PlanOp::new(op_id, OpType::NlJoin);
        join.cardinality = 100.0 + k as f64;
        join.total_cost = 100.0 * (joins - k) as f64;
        join.io_cost = join.total_cost / 10.0;
        let outer = if k + 1 < joins {
            op_id + 1
        } else {
            leaf_base + joins
        };
        join.inputs.push(stream(StreamKind::Outer, outer, 500.0));
        join.inputs
            .push(stream(StreamKind::Inner, leaf_base + k, 50.0));
        q.insert_op(join);
    }
    for k in 0..=joins {
        let mut leaf = PlanOp::new(leaf_base + k, OpType::Temp);
        leaf.cardinality = 50.0;
        leaf.total_cost = 20.0;
        leaf.io_cost = 2.0;
        q.insert_op(leaf);
    }
    q
}

/// Least-squares linear fit returning (slope, intercept, r²) — used to
/// verify the paper's linear-scaling claims.
pub fn linear_fit(xs: &[f64], ys: &[f64]) -> (f64, f64, f64) {
    let n = xs.len() as f64;
    let mx = xs.iter().sum::<f64>() / n;
    let my = ys.iter().sum::<f64>() / n;
    let mut sxy = 0.0;
    let mut sxx = 0.0;
    let mut syy = 0.0;
    for (x, y) in xs.iter().zip(ys) {
        sxy += (x - mx) * (y - my);
        sxx += (x - mx) * (x - mx);
        syy += (y - my) * (y - my);
    }
    let slope = sxy / sxx;
    let intercept = my - slope * mx;
    let r2 = if syy == 0.0 {
        1.0
    } else {
        (sxy * sxy) / (sxx * syy)
    };
    (slope, intercept, r2)
}

#[cfg(test)]
mod tests {
    use super::*;
    use optimatch_core::{builtin, EvalStats, KnowledgeBase, PruneStats, ScanOptions, ScanOutcome};

    #[test]
    fn linear_fit_exact_line() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        let ys = [3.0, 5.0, 7.0, 9.0];
        let (slope, intercept, r2) = linear_fit(&xs, &ys);
        assert!((slope - 2.0).abs() < 1e-12);
        assert!((intercept - 1.0).abs() < 1e-12);
        assert!((r2 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn linear_fit_constant_series() {
        let (slope, intercept, r2) = linear_fit(&[1.0, 2.0, 3.0], &[5.0, 5.0, 5.0]);
        assert_eq!(slope, 0.0);
        assert_eq!(intercept, 5.0);
        assert_eq!(r2, 1.0);
    }

    #[test]
    fn paper_workload_is_deterministic_and_sized() {
        let a = paper_workload(10);
        let b = paper_workload(10);
        assert_eq!(a.qeps, b.qeps);
        assert_eq!(a.qeps.len(), 10);
    }

    /// The 24-plan mix the pins below scan: paper-shaped plans and
    /// prunable fillers.
    fn pinned_workload() -> Vec<TransformedQep> {
        let mut qeps = paper_workload(12).qeps;
        qeps.extend((0..12).map(|i| prunable_plan(i, 6)));
        qeps.into_iter().map(TransformedQep::new).collect()
    }

    /// The triage KB: the 40-entry synthetic KB plus Pattern B.
    fn triage_kb() -> KnowledgeBase {
        let mut kb = builtin::synthetic_kb(40);
        kb.add(builtin::pattern_b()).expect("Pattern B adds");
        kb
    }

    /// Pins how much pruning prunes, how much the evaluator works and how
    /// the scan ranks on a fixed mix of paper-shaped plans and prunable
    /// fillers: the exact counters of a scan with the paper, the extended
    /// and the triage KB, with the planner on and in source order, and the
    /// exact bits of its confidence and cost-share sums. A pruner that
    /// quietly gets weaker (or unsoundly stronger), a planner that decides
    /// differently, or a ranking that scores differently changes them.
    #[test]
    fn prune_counts_are_pinned() {
        let workload = pinned_workload();
        let scan = |kb: &KnowledgeBase, optimize| {
            kb.scan_workload_with(&workload, ScanOptions::default().optimize(optimize))
                .expect("KB scans are valid")
        };
        let expected = |candidates, pruned, evaluated, matched, shared| PruneStats {
            candidates,
            pruned,
            evaluated,
            matched,
            shared,
        };
        let planner =
            |[patterns, reorders, estimated_rows, actual_rows]: [u64; 4],
             [index_spo, index_pos, index_osp, backward_paths]: [u64; 4]| {
                EvalStats {
                    patterns,
                    reorders,
                    estimated_rows,
                    actual_rows,
                    index_spo,
                    index_pos,
                    index_osp,
                    backward_paths,
                }
            };
        fn sum_bits(values: impl Iterator<Item = f64>) -> u64 {
            values.sum::<f64>().to_bits()
        }
        // The recommendation and sample counts, then the bits of three
        // sums: the samples' confidences, their cost shares, and the final
        // (workload-weighted) recommendation confidences.
        let ranking = |outcome: &ScanOutcome| {
            let recommendations = outcome.reports.iter().flat_map(|r| &r.recommendations);
            (
                recommendations.clone().count(),
                outcome.samples.len(),
                [
                    sum_bits(outcome.samples.iter().map(|s| s.confidence)),
                    sum_bits(outcome.samples.iter().map(|s| s.cost_share)),
                    sum_bits(recommendations.map(|r| r.confidence)),
                ],
            )
        };
        let cases = [
            (
                builtin::paper_kb(),
                expected(96, 58, 38, 10, 0),
                17_698,
                planner([342, 168, 675, 5_367], [298, 40, 0, 2]),
                369_793,
                (
                    10,
                    10,
                    [
                        4_619_686_307_364_632_776,
                        4_619_038_848_008_734_433,
                        4_619_654_839_898_400_652,
                    ],
                ),
            ),
            (
                builtin::extended_kb(),
                expected(168, 82, 86, 12, 0),
                50_462,
                planner([994, 279, 2_129, 15_695], [890, 88, 0, 2]),
                405_497,
                (
                    12,
                    12,
                    [
                        4_620_743_565_988_196_666,
                        4_619_190_988_635_760_320,
                        4_620_540_925_442_105_980,
                    ],
                ),
            ),
            (
                triage_kb(),
                expected(984, 442, 542, 173, 408),
                111_008,
                planner([3_774, 1_245, 10_260, 50_462], [3_226, 544, 0, 2]),
                981_215,
                (
                    173,
                    173,
                    [
                        4_638_991_864_881_794_212,
                        4_638_276_163_979_222_007,
                        4_638_936_192_759_481_243,
                    ],
                ),
            ),
        ];
        for (kb, stats, fuel, trace, source_order_fuel, ranked) in cases {
            let greedy = scan(&kb, true);
            assert_eq!(greedy.stats, stats);
            assert_eq!(greedy.fuel_spent, fuel);
            assert_eq!(greedy.planner, trace);
            assert_eq!(ranking(&greedy), ranked);
            let oracle = scan(&kb, false);
            assert_eq!(oracle.stats, stats);
            assert_eq!(oracle.fuel_spent, source_order_fuel);
            assert!(oracle.planner.is_empty());
            assert_eq!(ranking(&oracle), ranked);
        }
    }

    /// Pins a fuel-starved scan of the triage KB. At 670 steps a unit's
    /// limit trips inside the evaluation of its BGP on some plans (every
    /// card-collapse variant on q0002, and Pattern B on q0004 and q0008)
    /// and inside its FILTERs on others (the card-collapse variants on
    /// q0003, q0008 and q0011); on q0001 the same variants spend exactly
    /// 670 and succeed. Every fuel incident reports the whole limit.
    #[test]
    fn starved_triage_scan_is_pinned() {
        let workload = pinned_workload();
        let outcome = triage_kb()
            .scan_workload_with(&workload, ScanOptions::default().fuel(670))
            .expect("a starved scan degrades, it does not fail");
        let identities: Vec<(&str, &str, &str, u64)> = outcome
            .incidents
            .iter()
            .map(|i| (&*i.qep_id, &*i.entry, i.cause.kind(), i.fuel_spent))
            .collect();
        // The three card-collapse variants whose BGP spends 711 steps on
        // q0002 and 588-600 (with 670-679 in all) elsewhere.
        let collapse = |qep| {
            [
                "kb-009-card-collapse-1e-10000",
                "kb-021-card-collapse-1e-100",
                "kb-033-card-collapse-1e-100000",
            ]
            .map(|entry| (qep, entry, "fuel-exhausted", 670))
            .to_vec()
        };
        let pattern_b = |qep| vec![(qep, "pattern-b-loj-join-order", "fuel-exhausted", 670)];
        let expected = [
            collapse("q0002"),
            collapse("q0003"),
            pattern_b("q0004"),
            collapse("q0008"),
            pattern_b("q0008"),
            collapse("q0011"),
        ]
        .concat();
        assert_eq!(identities, expected);
        assert_eq!(outcome.fuel_spent, 105_114);
    }

    /// A scan shares each query core among the entries that have it, yet
    /// every entry's results are what scanning it alone gives: the same
    /// recommendations (text, exact confidence, occurrences), samples and
    /// incidents. Workload weighting reads only the entry's own matches,
    /// so a one-entry KB scan is the full scan restricted to that entry.
    /// Covers the triage KB starved at 670 steps, so that cores fail on
    /// some plans and tails on others, and the 250-entry synthetic KB.
    #[test]
    fn shared_scans_equal_one_entry_scans() {
        let workload = pinned_workload();
        let view = |outcome: &ScanOutcome, entry: &str| {
            let recommendations: Vec<_> = outcome
                .reports
                .iter()
                .flat_map(|report| {
                    let fired = report.recommendations.iter().filter(|r| r.entry == entry);
                    fired.map(|r| {
                        let bits = r.confidence.to_bits();
                        (report.qep_id.clone(), r.text.clone(), bits, r.occurrences)
                    })
                })
                .collect();
            let samples: Vec<_> = outcome
                .samples
                .iter()
                .filter(|s| s.entry == entry)
                .map(|s| {
                    (
                        s.qep_id.clone(),
                        s.confidence.to_bits(),
                        s.cost_share.to_bits(),
                    )
                })
                .collect();
            let incidents: Vec<_> = outcome
                .incidents
                .iter()
                .filter(|i| i.entry == entry)
                .map(|i| (i.qep_id.clone(), i.cause.clone(), i.fuel_spent))
                .collect();
            (recommendations, samples, incidents)
        };
        let starved = ScanOptions::default().fuel(670);
        for (kb, options) in [
            (triage_kb(), starved),
            (builtin::synthetic_kb(250), ScanOptions::default()),
        ] {
            let full = kb.scan_workload_with(&workload, options).unwrap();
            assert!(full.stats.shared > 0, "{:?}", full.stats);
            for entry in kb.entries() {
                let mut alone = KnowledgeBase::new();
                alone.add(entry.clone()).unwrap();
                let one = alone.scan_workload_with(&workload, options).unwrap();
                assert_eq!(one.stats.shared, 0);
                assert_eq!(
                    view(&full, &entry.name),
                    view(&one, &entry.name),
                    "{}",
                    entry.name
                );
            }
        }
    }
}
