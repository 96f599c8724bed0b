//! GALO-mode regression diagnosis: plan-pair delta matching.
//!
//! The OptImatch paper diagnoses one plan at a time; its follow-up system
//! GALO asks the operational question DBAs actually face after an
//! upgrade or statistics refresh: *this query got slower — what changed,
//! and which known problem pattern explains it?* This module answers it
//! with the machinery the repo already has:
//!
//! 1. the structural aligner ([`optimatch_qep::align_qeps`]) pairs
//!    operators across the BEFORE and AFTER plans, even when the
//!    optimizer renumbered them;
//! 2. the existing pattern matcher runs over *both* plans against one
//!    pinned KB snapshot, inside the same fuel/deadline/panic containment
//!    boundary as workload scans;
//! 3. the **delta report** keeps only what is new: patterns that fire on
//!    the regressed plan but not the baseline, or fire with materially
//!    higher confidence — each finding anchored to aligned operators so
//!    the DBA sees *which* operator pair regressed.
//!
//! A pattern that fires identically on both plans is pre-existing debt,
//! not the regression, and is excluded by construction — that is the
//! whole point of diffing matches instead of plans.

use optimatch_qep::{
    align_qeps, diff_qeps, finite_change, AlignClass, PlanAlignment, PlanDiff, Qep,
};
use serde::value::{Number, Value};
use serde::Serialize;

use crate::error::Error;
use crate::kb::{
    best_match_features, KnowledgeBase, MatchSample, ScanIncident, ScanOptions, UnitRunner,
};
use crate::transform::TransformedQep;

/// How a regression diagnosis should run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RegressOptions {
    /// Containment and pruning controls, shared with workload scans
    /// (`threads` is ignored: a plan pair is two graphs, not a fleet).
    pub scan: ScanOptions,
    /// Minimum confidence increase for a pattern firing on *both* plans
    /// to still count as a delta finding. Patterns firing only on the
    /// regressed plan always count.
    pub threshold: f64,
}

impl Default for RegressOptions {
    fn default() -> RegressOptions {
        RegressOptions {
            scan: ScanOptions::default(),
            threshold: 0.05,
        }
    }
}

impl RegressOptions {
    /// Replace the scan (containment) options.
    pub fn scan(mut self, scan: ScanOptions) -> RegressOptions {
        self.scan = scan;
        self
    }

    /// Set the confidence-increase threshold.
    pub fn threshold(mut self, threshold: f64) -> RegressOptions {
        self.threshold = threshold;
        self
    }
}

/// One matched operator in the regressed plan, mapped back through the
/// alignment to its baseline counterpart.
#[derive(Debug, Clone, PartialEq)]
pub struct DeltaAnchor {
    /// Operator number in the AFTER (regressed) plan.
    pub after_op: u32,
    /// The aligned BEFORE operator, when the aligner paired one.
    pub before_op: Option<u32>,
    /// How the aligned pair changed ([`AlignClass::Inserted`] when the
    /// operator has no baseline counterpart).
    pub class: AlignClass,
}

/// One pattern that is new (or materially stronger) on the regressed plan.
#[derive(Debug, Clone, PartialEq)]
pub struct DeltaFinding {
    /// The KB entry that fired.
    pub entry: String,
    /// The entry's problem description.
    pub description: String,
    /// The recommendation template rendered over the *regressed* plan.
    pub recommendation: String,
    /// Best-occurrence confidence on the baseline plan (0 when the
    /// pattern did not fire there).
    pub before_confidence: f64,
    /// Best-occurrence confidence on the regressed plan.
    pub after_confidence: f64,
    /// Match occurrences on (baseline, regressed).
    pub occurrences: (usize, usize),
    /// Matched operators in the regressed plan, with their aligned
    /// baseline counterparts. Sorted by `after_op`, deduplicated.
    pub anchors: Vec<DeltaAnchor>,
}

impl DeltaFinding {
    /// Confidence gained relative to the baseline.
    pub fn confidence_gain(&self) -> f64 {
        self.after_confidence - self.before_confidence
    }

    /// True when the pattern did not fire on the baseline at all.
    pub fn is_new(&self) -> bool {
        self.occurrences.0 == 0
    }
}

/// Everything a regression diagnosis produced.
#[derive(Debug, Clone, PartialEq)]
pub struct RegressOutcome {
    /// Structural plan diff (costs, op histogram, objects).
    pub diff: PlanDiff,
    /// The operator alignment between the two plans.
    pub alignment: PlanAlignment,
    /// Delta findings, strongest confidence gain first.
    pub findings: Vec<DeltaFinding>,
    /// Contained matcher failures (either side), in entry order.
    pub incidents: Vec<ScanIncident>,
    /// Total evaluation steps consumed across both plans.
    pub fuel_spent: u64,
    /// Fired-match samples from the *regressed* plan, for the fleet
    /// match-history store ([`crate::stats::MatchStatsStore`]).
    pub samples: Vec<MatchSample>,
}

impl RegressOutcome {
    /// True when at least one matcher unit failed and was contained —
    /// findings are complete for every other entry but not exhaustive.
    pub fn is_degraded(&self) -> bool {
        !self.incidents.is_empty()
    }

    /// The canonical JSON document for this outcome (pretty-printed,
    /// trailing newline). Unbounded cost ratios are encoded with the
    /// finite [`optimatch_qep::UNBOUNDED_CHANGE`] sentinel so the
    /// document stays valid JSON.
    pub fn render_json(&self) -> String {
        let diff = Value::Object(vec![
            (
                "total_cost_before".to_string(),
                Value::Number(Number::Float(self.diff.total_cost.0)),
            ),
            (
                "total_cost_after".to_string(),
                Value::Number(Number::Float(self.diff.total_cost.1)),
            ),
            (
                "cost_change".to_string(),
                Value::Number(Number::Float(finite_change(self.diff.cost_change()))),
            ),
            (
                "cardinality_blowup".to_string(),
                Value::Bool(self.diff.cardinality_blowup()),
            ),
        ]);
        let alignment = Value::Array(
            self.alignment
                .pairs
                .iter()
                .map(|p| {
                    let op_id = |id: Option<u32>| match id {
                        Some(id) => Value::Number(Number::Int(i64::from(id))),
                        None => Value::Null,
                    };
                    let op_type = |t: Option<optimatch_qep::OpType>| match t {
                        Some(t) => Value::String(t.to_string()),
                        None => Value::Null,
                    };
                    Value::Object(vec![
                        ("before".to_string(), op_id(p.before)),
                        ("after".to_string(), op_id(p.after)),
                        ("type_before".to_string(), op_type(p.op_type.0)),
                        ("type_after".to_string(), op_type(p.op_type.1)),
                        (
                            "class".to_string(),
                            Value::String(p.class.label().to_string()),
                        ),
                    ])
                })
                .collect(),
        );
        let findings = Value::Array(
            self.findings
                .iter()
                .map(|f| {
                    let anchors = Value::Array(
                        f.anchors
                            .iter()
                            .map(|a| {
                                Value::Object(vec![
                                    (
                                        "after_op".to_string(),
                                        Value::Number(Number::Int(i64::from(a.after_op))),
                                    ),
                                    (
                                        "before_op".to_string(),
                                        match a.before_op {
                                            Some(id) => Value::Number(Number::Int(i64::from(id))),
                                            None => Value::Null,
                                        },
                                    ),
                                    (
                                        "class".to_string(),
                                        Value::String(a.class.label().to_string()),
                                    ),
                                ])
                            })
                            .collect(),
                    );
                    Value::Object(vec![
                        ("entry".to_string(), Value::String(f.entry.clone())),
                        (
                            "description".to_string(),
                            Value::String(f.description.clone()),
                        ),
                        (
                            "recommendation".to_string(),
                            Value::String(f.recommendation.clone()),
                        ),
                        (
                            "before_confidence".to_string(),
                            Value::Number(Number::Float(f.before_confidence)),
                        ),
                        (
                            "after_confidence".to_string(),
                            Value::Number(Number::Float(f.after_confidence)),
                        ),
                        (
                            "occurrences_before".to_string(),
                            Value::Number(Number::Int(f.occurrences.0 as i64)),
                        ),
                        (
                            "occurrences_after".to_string(),
                            Value::Number(Number::Int(f.occurrences.1 as i64)),
                        ),
                        ("new".to_string(), Value::Bool(f.is_new())),
                        ("anchors".to_string(), anchors),
                    ])
                })
                .collect(),
        );
        let value = Value::Object(vec![
            ("diff".to_string(), diff),
            ("alignment".to_string(), alignment),
            ("findings".to_string(), findings),
            ("incidents".to_string(), self.incidents.serialize_to_value()),
        ]);
        let mut text = serde_json::to_string_pretty(&value)
            .expect("regress outcomes always serialize to JSON");
        text.push('\n');
        text
    }
}

impl std::fmt::Display for RegressOutcome {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "total cost: {} -> {} ({:+.1}%)",
            self.diff.total_cost.0,
            self.diff.total_cost.1,
            finite_change(self.diff.cost_change()) * 100.0
        )?;
        if self.diff.cardinality_blowup() {
            writeln!(f, "cardinality estimate blow-up detected")?;
        }
        if self.findings.is_empty() {
            writeln!(
                f,
                "no delta findings: no pattern is new on the regressed plan"
            )?;
        }
        for finding in &self.findings {
            let anchors: Vec<String> = finding
                .anchors
                .iter()
                .map(|a| match a.before_op {
                    Some(b) => format!("#{} (was #{}, {})", a.after_op, b, a.class.label()),
                    None => format!("#{} ({})", a.after_op, a.class.label()),
                })
                .collect();
            writeln!(
                f,
                "[{:.2} from {:.2}] {}: {}\n  at {}",
                finding.after_confidence,
                finding.before_confidence,
                finding.entry,
                finding.recommendation,
                anchors.join(", ")
            )?;
        }
        for incident in &self.incidents {
            writeln!(f, "incident: {incident}")?;
        }
        Ok(())
    }
}

/// Diagnose a plan-pair regression: run every KB entry over both plans
/// inside the scan containment boundary and report the *delta* — entries
/// newly firing on `after`, or firing with confidence more than
/// `options.threshold` above their baseline — anchored to the operator
/// alignment.
///
/// With `options.scan.fail_fast`, the first contained failure aborts the
/// diagnosis as [`Error::Incident`]; otherwise failed units are recorded
/// in [`RegressOutcome::incidents`] and the affected entry contributes no
/// finding (a failure on *either* side disqualifies the entry, since its
/// delta cannot be computed).
pub fn regress(
    kb: &KnowledgeBase,
    before: &Qep,
    after: &Qep,
    options: &RegressOptions,
) -> Result<RegressOutcome, Error> {
    let diff = diff_qeps(before, after);
    let alignment = align_qeps(before, after);
    let t_before = TransformedQep::new(before.clone());
    let t_after = TransformedQep::new(after.clone());
    let (before_total, after_total) = diff.total_cost;

    let mut units = UnitRunner::default();
    // One set of core slots per side: entries with equal cores share one
    // evaluation per plan, as in a scan.
    let (mut after_cores, mut before_cores) = (kb.plan_cores(&t_after), kb.plan_cores(&t_before));
    let mut findings = Vec::new();
    let mut samples = Vec::new();
    for (entry, compiled) in kb.units() {
        let mut run = |cores| {
            let (matcher, scan) = (&compiled.matcher, &options.scan);
            units.run(matcher, compiled.core, &entry.name, cores, scan)
        };
        let Some(after_matches) = run(&mut after_cores)? else {
            continue;
        };
        let Some(before_matches) = run(&mut before_cores)? else {
            continue;
        };

        if after_matches.is_empty() {
            continue;
        }
        let (after_confidence, after_share) =
            best_match_features(entry, &after_matches, after, after_total);
        samples.push(MatchSample {
            entry: entry.name.clone(),
            qep_id: t_after.qep.id.clone(),
            confidence: after_confidence,
            cost_share: after_share,
        });
        let (before_confidence, _) = if before_matches.is_empty() {
            (0.0, 0.0)
        } else {
            best_match_features(entry, &before_matches, before, before_total)
        };
        let is_delta =
            before_matches.is_empty() || after_confidence - before_confidence > options.threshold;
        if !is_delta {
            continue;
        }

        let mut anchor_ops: Vec<u32> = after_matches
            .iter()
            .filter_map(|m| m.anchor_pop())
            .collect();
        anchor_ops.sort_unstable();
        anchor_ops.dedup();
        let anchors = anchor_ops
            .into_iter()
            .map(|after_op| DeltaAnchor {
                after_op,
                before_op: alignment.before_of(after_op),
                class: alignment.class_of(after_op).unwrap_or(AlignClass::Inserted),
            })
            .collect();

        findings.push(DeltaFinding {
            entry: entry.name.clone(),
            description: entry.description.clone(),
            recommendation: compiled.template.render(&after_matches, &t_after.qep),
            before_confidence,
            after_confidence,
            occurrences: (before_matches.len(), after_matches.len()),
            anchors,
        });
    }

    findings.sort_by(|a, b| {
        b.confidence_gain()
            .partial_cmp(&a.confidence_gain())
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| a.entry.cmp(&b.entry))
    });

    Ok(RegressOutcome {
        diff,
        alignment,
        findings,
        incidents: units.incidents,
        fuel_spent: units.fuel_spent,
        samples,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builtin;
    use optimatch_qep::fixtures;

    #[test]
    fn identical_plans_produce_empty_delta() {
        let kb = builtin::paper_kb();
        for qep in [fixtures::fig1(), fixtures::fig7(), fixtures::fig8()] {
            let outcome = regress(&kb, &qep, &qep, &RegressOptions::default()).unwrap();
            assert!(
                outcome.findings.is_empty(),
                "identical plans must yield no delta findings for {}",
                qep.id
            );
            assert!(outcome.incidents.is_empty());
            assert!(!outcome.diff.is_changed());
            assert_eq!(
                outcome.alignment.count(AlignClass::Inserted)
                    + outcome.alignment.count(AlignClass::Removed),
                0
            );
        }
    }

    #[test]
    fn sort_spill_regression_surfaces_the_expected_pattern() {
        let kb = builtin::paper_kb();
        let before = fixtures::fig1();
        let after = fixtures::fig1_sort_spill();
        let outcome = regress(&kb, &before, &after, &RegressOptions::default()).unwrap();
        assert!(outcome.incidents.is_empty());
        assert!(outcome.is_degraded() || !outcome.findings.is_empty());

        // The injected spilling SORT fires pattern-d only on the AFTER
        // plan, so the delta report names exactly that new problem...
        let finding = outcome
            .findings
            .iter()
            .find(|f| f.entry == "pattern-d-sort-spill")
            .expect("sort-spill delta finding");
        assert!(finding.is_new(), "{finding:?}");
        assert!(finding.after_confidence > 0.0);
        assert_eq!(finding.occurrences.0, 0);
        assert!(finding.occurrences.1 > 0);

        // ...anchored at the inserted operator 9, which the aligner
        // classified as having no BEFORE counterpart.
        let anchor = finding
            .anchors
            .iter()
            .find(|a| a.after_op == 9)
            .expect("anchored at the inserted SORT");
        assert_eq!(anchor.before_op, None);
        assert_eq!(anchor.class, AlignClass::Inserted);

        // The plan-level diff agrees this pair is a cost regression, and
        // the JSON document carries the finding end-to-end.
        assert!(outcome.diff.is_regression(0.1));
        assert!(outcome.render_json().contains("pattern-d-sort-spill"));
        assert!(outcome.to_string().contains("pattern-d-sort-spill"));
    }

    /// The no-delta path a fleet mostly sees: generated plans against
    /// clones whose costs rose by 2%. The diff sees the cost change, but
    /// the structure is the same, so every pattern fires alike on both
    /// sides and nothing is reported.
    #[test]
    fn cost_perturbed_clones_produce_no_findings() {
        use optimatch_workload::{
            generate_workload, GeneratorConfig, InjectionConfig, WorkloadConfig,
        };
        let kb = builtin::paper_kb();
        let workload = generate_workload(&WorkloadConfig {
            seed: 0x0D_B2,
            num_qeps: 32,
            generator: GeneratorConfig::default(),
            injection: InjectionConfig::paper_rates(),
        });
        let mut fired = 0;
        for qep in &workload.qeps {
            let mut perturbed = qep.clone();
            for op in perturbed.ops.values_mut() {
                op.total_cost *= 1.02;
            }
            let outcome = regress(&kb, qep, &perturbed, &RegressOptions::default()).unwrap();
            assert!(outcome.diff.is_changed(), "{}", qep.id);
            assert!(outcome.incidents.is_empty(), "{}", qep.id);
            assert!(
                outcome.findings.is_empty(),
                "{}: {:?}",
                qep.id,
                outcome.findings
            );
            fired += usize::from(!outcome.samples.is_empty());
        }
        // Not vacuous: patterns fired on some of the pairs.
        assert!(fired > 0);
    }

    #[test]
    fn render_json_is_well_formed_for_empty_delta() {
        let kb = builtin::paper_kb();
        let qep = fixtures::fig1();
        let outcome = regress(&kb, &qep, &qep, &RegressOptions::default()).unwrap();
        let json = outcome.render_json();
        let value: serde::value::Value = serde_json::from_str(&json).unwrap();
        let serde::value::Value::Object(fields) = value else {
            panic!("top level must be an object");
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["diff", "alignment", "findings", "incidents"]);
    }
}
