//! The paper's expert patterns (A–D) with their recommendations, plus a
//! synthetic-entry generator used by the Figure-11 knowledge-base-size
//! experiment.

use crate::kb::{KnowledgeBase, KnowledgeBaseEntry};
use crate::pattern::{Pattern, PatternPop, Relationship, Sign, StreamKindSpec};
use crate::rank::Prototype;
use crate::vocab::names;

/// **Pattern A** (paper §2.2, Figures 3/5/6): an `NLJOIN` whose outer side
/// produces more than one row and whose inner side is a `TBSCAN` with
/// cardinality above 100 — the inner table is rescanned per outer row.
/// Recommendation: create an index on the scanned table.
pub fn pattern_a() -> KnowledgeBaseEntry {
    let pattern = Pattern::new(
        "pattern-a-nljoin-tbscan",
        "NLJOIN repeatedly scanning a large inner table",
    )
    .with_pop(
        PatternPop::new(1, "NLJOIN")
            .alias("TOP")
            .stream(StreamKindSpec::Outer, 2, Relationship::Immediate)
            .stream(StreamKindSpec::Inner, 3, Relationship::Immediate),
    )
    .with_pop(PatternPop::new(2, "ANY").alias("ANY2").prop(
        names::HAS_ESTIMATE_CARDINALITY,
        Sign::Gt,
        "1",
    ))
    .with_pop(
        PatternPop::new(3, "TBSCAN")
            .alias("SCAN3")
            .prop(names::HAS_ESTIMATE_CARDINALITY, Sign::Gt, "100")
            .stream(StreamKindSpec::Generic, 4, Relationship::Immediate),
    )
    .with_pop(PatternPop::new(4, "BASE OB").alias("BASE4"));

    KnowledgeBaseEntry {
        name: "pattern-a-nljoin-tbscan".into(),
        description: "Nested loop join scans the entire inner table once per outer row; an index \
             on the join column would turn the inner scan into an index access."
            .into(),
        pattern,
        recommendation: "@limit(3)Create index on @table(BASE4) (@columns(TOP, PREDICATE)) \
                         — the inner @SCAN3 of @TOP rescans the whole table per outer row. \
                         Alternative: collect column group statistics so the optimizer can \
                         prefer a hash join."
            .into(),
        prototype: Prototype {
            cost_share: 0.85,
            log_cardinality: 3.2,
        },
    }
}

/// **Pattern B** (paper §2.3, Figure 7): a join with left-outer joins
/// below both its outer and inner input streams — descendants, not
/// necessarily immediate (the paper's example hides one under a TEMP).
/// Recommendation: rewrite `(T1 LOJ T2) JOIN (T3 LOJ T4)` as
/// `((T1 LOJ T2) JOIN T3) LOJ T4`.
pub fn pattern_b() -> KnowledgeBaseEntry {
    let pattern = Pattern::new(
        "pattern-b-loj-join-order",
        "Join over left-outer joins on both sides (poor join order)",
    )
    .with_pop(
        PatternPop::new(1, "JOIN")
            .alias("TOP")
            .stream(StreamKindSpec::Outer, 2, Relationship::Descendant)
            .stream(StreamKindSpec::Inner, 3, Relationship::Descendant),
    )
    .with_pop(PatternPop::new(2, "JOIN").alias("LOJOUTER").prop(
        names::HAS_JOIN_TYPE,
        Sign::Eq,
        "LEFT OUTER",
    ))
    .with_pop(PatternPop::new(3, "JOIN").alias("LOJINNER").prop(
        names::HAS_JOIN_TYPE,
        Sign::Eq,
        "LEFT OUTER",
    ));

    KnowledgeBaseEntry {
        name: "pattern-b-loj-join-order".into(),
        description:
            "A join combining two left-outer-join subtrees ((T1 LOJ T2) JOIN (T3 LOJ T4)) \
             is usually better rewritten as ((T1 LOJ T2) JOIN T3) LOJ T4."
                .into(),
        pattern,
        recommendation: "@limit(1)Rewrite around @TOP: it joins @LOJOUTER and @LOJINNER. \
                         Restructure (T1 LOJ T2) JOIN (T3 LOJ T4) into \
                         ((T1 LOJ T2) JOIN T3) LOJ T4; if T1 = T3, also consider \
                         materializing T4's columns into T1 to eliminate one join."
            .into(),
        prototype: Prototype {
            cost_share: 0.9,
            log_cardinality: 4.5,
        },
    }
}

/// **Pattern C** (paper §2.3, Figure 8): a scan whose estimated
/// cardinality collapses below 0.001 over a base object with more than a
/// million rows — correlated equality predicates fooled the optimizer.
/// Recommendation: column-group statistics.
pub fn pattern_c() -> KnowledgeBaseEntry {
    let pattern = Pattern::new(
        "pattern-c-cardinality-collapse",
        "Cardinality underestimation from correlated predicates",
    )
    .with_pop(
        PatternPop::new(1, "SCAN")
            .alias("TOP")
            .prop(names::HAS_ESTIMATE_CARDINALITY, Sign::Lt, "0.001")
            .stream(StreamKindSpec::Generic, 2, Relationship::Immediate),
    )
    .with_pop(PatternPop::new(2, "BASE OB").alias("BASE2").prop(
        names::HAS_ESTIMATE_CARDINALITY,
        Sign::Gt,
        "1000000",
    ));

    KnowledgeBaseEntry {
        name: "pattern-c-cardinality-collapse".into(),
        description: "An estimated cardinality far below one row over a huge object signals \
             statistically correlated equality predicates; the optimizer's independence \
             assumption collapsed the estimate."
            .into(),
        pattern,
        recommendation: "@limit(3)Collect column group statistics (CGS) on the equality \
                         predicate columns @columns(TOP, PREDICATE) of @table(BASE2) — \
                         @TOP's estimate dropped below 0.001 rows against an object of \
                         over a million rows."
            .into(),
        prototype: Prototype {
            cost_share: 0.3,
            log_cardinality: 0.0,
        },
    }
}

/// **Pattern D** (paper §2.3): a `SORT` whose immediate input has lower
/// I/O cost than the sort itself — the sort is spilling.
/// Recommendation: increase sort memory.
pub fn pattern_d() -> KnowledgeBaseEntry {
    // Stated exactly as in the paper: a SORT whose immediate input's I/O
    // cost is below the SORT's own — a cross-operator comparison.
    let pattern = Pattern::new("pattern-d-sort-spill", "Spilling SORT")
        .with_pop(
            PatternPop::new(1, "SORT")
                .alias("TOP")
                .stream(StreamKindSpec::Generic, 2, Relationship::Immediate)
                .cross(names::HAS_IO_COST, Sign::Gt, 2, names::HAS_IO_COST),
        )
        .with_pop(PatternPop::new(2, "ANY").alias("BELOW"));

    KnowledgeBaseEntry {
        name: "pattern-d-sort-spill".into(),
        description: "A SORT adding substantial I/O over its input is spilling to temporary \
             storage; if many plans show this, the sort heap is undersized."
            .into(),
        pattern,
        recommendation: "@limit(1)Increase sort memory (SORTHEAP): @TOP adds I/O over its \
                         input @BELOW, indicating a spill. If many queries in the workload \
                         show this pattern, raise the database sort configuration."
            .into(),
        prototype: Prototype {
            cost_share: 0.4,
            log_cardinality: 4.0,
        },
    }
}

/// An extended-library entry: a `GRPBY` aggregating a large join result —
/// the classic materialized-query-table opportunity. The paper lists
/// "recommending materialized views" among OptImatch's advanced guidance
/// (§2.3); this entry shows what such a KB entry looks like.
pub fn pattern_mqt_opportunity() -> KnowledgeBaseEntry {
    let pattern = Pattern::new(
        "ext-mqt-opportunity",
        "Aggregation over a large join result (MQT candidate)",
    )
    .with_pop(PatternPop::new(1, "GRPBY").alias("AGG").stream(
        StreamKindSpec::Any,
        2,
        Relationship::Descendant,
    ))
    .with_pop(
        PatternPop::new(2, "JOIN")
            .alias("BIGJOIN")
            .prop(names::HAS_ESTIMATE_CARDINALITY, Sign::Gt, "100000")
            .prop(names::HAS_TOTAL_COST, Sign::Gt, "10000"),
    );

    KnowledgeBaseEntry {
        name: "ext-mqt-opportunity".into(),
        description: "A GROUP BY consuming a six-figure-cardinality join is a candidate for a \
             materialized query table; if the aggregation recurs across the workload, \
             precomputing it pays for itself."
            .into(),
        pattern,
        recommendation: "@limit(2)Consider a materialized query table covering @BIGJOIN \
                         (join predicate @predicates(BIGJOIN)) aggregated as in @AGG; \
                         refresh deferred is usually sufficient for reporting workloads."
            .into(),
        prototype: Prototype {
            cost_share: 0.75,
            log_cardinality: 5.5,
        },
    }
}

/// An extended-library entry: a `FETCH` whose own cost dominates — the
/// index finds rows cheaply but fetching the remaining columns is the
/// real cost; a covering (index-only) access removes the fetch.
pub fn pattern_fetch_dominant() -> KnowledgeBaseEntry {
    let pattern = Pattern::new(
        "ext-fetch-dominant",
        "FETCH dominating its subtree (covering-index candidate)",
    )
    .with_pop(
        PatternPop::new(1, "FETCH")
            .alias("FETCH")
            .prop(names::HAS_TOTAL_COST_INCREASE, Sign::Gt, "20000")
            .stream(StreamKindSpec::Outer, 2, Relationship::Immediate)
            .stream(StreamKindSpec::Generic, 3, Relationship::Immediate),
    )
    .with_pop(PatternPop::new(2, "IXSCAN").alias("IX"))
    .with_pop(PatternPop::new(3, "BASE OB").alias("TBL"));

    KnowledgeBaseEntry {
        name: "ext-fetch-dominant".into(),
        description: "When a FETCH adds more cost than the index scan feeding it, the index \
             locates rows cheaply but column retrieval dominates; extend the index to \
             cover the fetched columns."
            .into(),
        pattern,
        recommendation: "@limit(2)Extend the index behind @IX into a covering index on \
                         @table(TBL): @FETCH adds over 20000 cost units on top of the scan. \
                         Include the referenced columns (@columns(TBL))."
            .into(),
        prototype: Prototype {
            cost_share: 0.55,
            log_cardinality: 3.8,
        },
    }
}

/// An extended-library entry: a join carrying **no** join predicate — a
/// cartesian product in disguise, usually a missing predicate in a
/// machine-generated query. Expressible only with an absence condition
/// (`FILTER NOT EXISTS`).
pub fn pattern_cartesian_join() -> KnowledgeBaseEntry {
    let pattern = Pattern::new(
        "ext-cartesian-join",
        "Join without a join predicate (cartesian product)",
    )
    .with_pop(
        PatternPop::new(1, "JOIN")
            .alias("TOP")
            .absent(names::HAS_JOIN_PREDICATE)
            .prop(names::HAS_ESTIMATE_CARDINALITY, Sign::Gt, "1000")
            .stream(StreamKindSpec::Outer, 2, Relationship::Immediate)
            .stream(StreamKindSpec::Inner, 3, Relationship::Immediate),
    )
    .with_pop(PatternPop::new(2, "ANY").alias("OUTERIN"))
    .with_pop(PatternPop::new(3, "ANY").alias("INNERIN"));

    KnowledgeBaseEntry {
        name: "ext-cartesian-join".into(),
        description:
            "A join with no join predicate multiplies its inputs; in generated SQL this              is almost always a missing correlation predicate."
                .into(),
        pattern,
        recommendation: "@limit(2)@TOP joins @OUTERIN with @INNERIN without any join                          predicate — a cartesian product. Check the generated SQL for a                          missing correlation predicate between the two sides."
            .into(),
        prototype: Prototype {
            cost_share: 0.8,
            log_cardinality: 6.0,
        },
    }
}

/// The paper's three evaluation patterns (its "Pattern #1–#3" = A, B, C).
pub fn evaluation_entries() -> Vec<KnowledgeBaseEntry> {
    vec![pattern_a(), pattern_b(), pattern_c()]
}

/// The extended expert library: the paper's four patterns plus the
/// additional recommendation categories §2.3 sketches.
pub fn extended_entries() -> Vec<KnowledgeBaseEntry> {
    let mut entries = paper_entries();
    entries.push(pattern_mqt_opportunity());
    entries.push(pattern_fetch_dominant());
    entries.push(pattern_cartesian_join());
    entries
}

/// A knowledge base with the extended library.
pub fn extended_kb() -> KnowledgeBase {
    let mut kb = KnowledgeBase::new();
    for entry in extended_entries() {
        kb.add(entry).expect("extended entries are valid");
    }
    kb
}

/// All four built-in entries.
pub fn paper_entries() -> Vec<KnowledgeBaseEntry> {
    vec![pattern_a(), pattern_b(), pattern_c(), pattern_d()]
}

/// A knowledge base loaded with the paper's entries.
pub fn paper_kb() -> KnowledgeBase {
    let mut kb = KnowledgeBase::new();
    for entry in paper_entries() {
        kb.add(entry).expect("built-in entries are valid");
    }
    kb
}

/// Generate `n` distinct synthetic entries for the Figure-11 experiment
/// (KB sizes 1 / 10 / 100 / 250): parameter-varied versions of the
/// built-in patterns, the way a long-lived expert KB accumulates many
/// narrow variants of recurring problems.
pub fn synthetic_kb(n: usize) -> KnowledgeBase {
    let mut kb = KnowledgeBase::new();
    let scan_types = ["TBSCAN", "IXSCAN", "SCAN"];
    let join_types = ["NLJOIN", "HSJOIN", "MSJOIN", "JOIN"];
    for i in 0..n {
        let entry = match i % 4 {
            0 => {
                // Pattern-A variants: vary the inner cardinality threshold.
                let threshold = 50 + (i / 4) * 25;
                let mut e = pattern_a();
                e.name = format!("kb-{i:03}-nljoin-inner-gt-{threshold}");
                e.pattern.name = e.name.clone();
                e.pattern.pops[2].properties[0].value = threshold.to_string();
                e
            }
            1 => {
                // Pattern-C variants: vary thresholds and scan type.
                let denom = 10u64.pow(2 + (i as u32 / 4) % 5);
                let mut e = pattern_c();
                e.name = format!("kb-{i:03}-card-collapse-1e-{denom}");
                e.pattern.name = e.name.clone();
                e.pattern.pops[0].op_type = scan_types[(i / 4) % scan_types.len()].into();
                e.pattern.pops[0].properties[0].value = format!("{}", 1.0 / denom as f64);
                e
            }
            2 => {
                // Cost-heavy operators of a given join type.
                let jt = join_types[(i / 4) % join_types.len()];
                let threshold = 1000 * (1 + (i / 4) % 20);
                let pattern = Pattern::new(
                    format!("kb-{i:03}-costly-{jt}"),
                    format!("{jt} with total cost above {threshold}"),
                )
                .with_pop(PatternPop::new(1, jt).alias("TOP").prop(
                    names::HAS_TOTAL_COST,
                    Sign::Gt,
                    threshold.to_string(),
                ));
                KnowledgeBaseEntry {
                    name: format!("kb-{i:03}-costly-{jt}"),
                    description: format!("Expensive {jt} (cost > {threshold})"),
                    pattern,
                    recommendation: format!(
                        "@limit(1)Review @TOP: cumulative cost exceeds {threshold}; \
                         check join order and access paths."
                    ),
                    prototype: Prototype {
                        cost_share: 0.7,
                        log_cardinality: 3.0,
                    },
                }
            }
            _ => {
                // Pattern-D variants: vary a sort-size floor on top of the
                // cross-operator spill comparison.
                let threshold = 50 * (1 + (i / 4) % 40);
                let mut e = pattern_d();
                e.name = format!("kb-{i:03}-sort-spill-{threshold}");
                e.pattern.name = e.name.clone();
                e.pattern.pops[0]
                    .properties
                    .push(crate::pattern::PropertyCondition {
                        property: names::HAS_ESTIMATE_CARDINALITY.into(),
                        sign: Sign::Gt,
                        value: threshold.to_string(),
                    });
                e
            }
        };
        kb.add(entry).expect("synthetic entries are valid");
    }
    kb
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builtin_patterns_validate_and_compile() {
        for entry in paper_entries() {
            entry.pattern.validate().unwrap();
            crate::compile::compile_pattern(&entry.pattern).unwrap();
            crate::tagging::Template::parse(&entry.recommendation).unwrap();
        }
    }

    #[test]
    fn pattern_b_is_the_recursive_one() {
        assert!(!pattern_a().pattern.is_recursive());
        assert!(pattern_b().pattern.is_recursive());
        assert!(!pattern_c().pattern.is_recursive());
        assert!(!pattern_d().pattern.is_recursive());
    }

    #[test]
    fn paper_kb_has_four_entries() {
        assert_eq!(paper_kb().len(), 4);
        assert_eq!(evaluation_entries().len(), 3);
        assert_eq!(extended_kb().len(), 7);
    }

    #[test]
    fn extended_entries_compile_and_fire_on_plausible_plans() {
        for entry in extended_entries() {
            entry.pattern.validate().unwrap();
            crate::compile::compile_pattern(&entry.pattern).unwrap();
            crate::tagging::Template::parse(&entry.recommendation).unwrap();
        }
        // fetch-dominant must fire on a plan where FETCH adds cost over a
        // cheap index scan: a scaled-up Figure 1 FETCH.
        let mut q = optimatch_qep::fixtures::fig1();
        {
            let fetch = q.ops.get_mut(&3).unwrap();
            fetch.total_cost = 25019.12; // increase over IXSCAN(4) = 25000 > 20000
        }
        let t = crate::transform::TransformedQep::new(q);
        let m = crate::matcher::Matcher::compile(&pattern_fetch_dominant().pattern).unwrap();
        assert!(!m
            .find_traced(&t, &optimatch_sparql::Budget::unlimited(), true)
            .unwrap()
            .0
            .is_empty());
    }

    #[test]
    fn cartesian_join_pattern_needs_absent_predicate() {
        use optimatch_qep::{InputSource, InputStream, OpType, PlanOp, Qep, StreamKind};
        // A join with inputs but no join predicate.
        let mut q = Qep::new("cart");
        let mut ret = PlanOp::new(1, OpType::Return);
        ret.inputs.push(InputStream {
            kind: StreamKind::Generic,
            source: InputSource::Op(2),
            estimated_rows: 5000.0,
        });
        q.insert_op(ret);
        let mut join = PlanOp::new(2, OpType::HsJoin);
        join.cardinality = 5000.0;
        join.inputs.push(InputStream {
            kind: StreamKind::Outer,
            source: InputSource::Op(3),
            estimated_rows: 50.0,
        });
        join.inputs.push(InputStream {
            kind: StreamKind::Inner,
            source: InputSource::Op(4),
            estimated_rows: 100.0,
        });
        q.insert_op(join);
        q.insert_op(PlanOp::new(3, OpType::Sort));
        q.insert_op(PlanOp::new(4, OpType::Sort));

        let t = crate::transform::TransformedQep::new(q.clone());
        let m = crate::matcher::Matcher::compile(&pattern_cartesian_join().pattern).unwrap();
        assert_eq!(
            m.find_traced(&t, &optimatch_sparql::Budget::unlimited(), true)
                .unwrap()
                .0
                .len(),
            1
        );

        // Adding a join predicate removes the match.
        q.ops
            .get_mut(&2)
            .unwrap()
            .predicates
            .push(optimatch_qep::Predicate {
                kind: optimatch_qep::PredicateKind::Join,
                text: "(Q1.A = Q2.A)".into(),
            });
        let t = crate::transform::TransformedQep::new(q);
        assert!(m
            .find_traced(&t, &optimatch_sparql::Budget::unlimited(), true)
            .unwrap()
            .0
            .is_empty());

        // Fig 1's NLJOIN has a join predicate: no match there either.
        let fig1 = crate::transform::TransformedQep::new(optimatch_qep::fixtures::fig1());
        assert!(m
            .find_traced(&fig1, &optimatch_sparql::Budget::unlimited(), true)
            .unwrap()
            .0
            .is_empty());
    }

    #[test]
    fn synthetic_kb_scales_to_figure11_sizes() {
        for n in [1, 10, 100, 250] {
            let kb = synthetic_kb(n);
            assert_eq!(kb.len(), n, "size {n}");
        }
    }

    #[test]
    fn synthetic_entries_have_unique_names() {
        let kb = synthetic_kb(250);
        let mut names: Vec<&str> = kb.entries().iter().map(|e| e.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 250);
    }
}
