//! Statistical ranking of knowledge-base recommendations.
//!
//! The paper (§2.3) ranks recommendations "using statistical correlation
//! analysis comparing the QEP context of cardinality and cost estimates
//! with that in the expert provided patterns", and returns them "with a
//! confidence score". Concretely:
//!
//! * each KB entry carries a [`Prototype`] — the cost/cardinality profile
//!   of the situations the expert wrote the recommendation for (cost share
//!   of the matched operator within its plan, and cardinality magnitude);
//! * each match yields [`MatchFeatures`] from the matched operator and its
//!   plan's total cost, which the caller derives once per plan;
//! * a match's **confidence** is `0.6·exp(−d²) + 0.4·cost share`, where
//!   `d` is the distance from its features to the prototype (the
//!   cardinality axis scaled by 1/5): a recommendation about an operator
//!   that dominates plan cost with the profile the expert described
//!   outranks one that matches incidentally;
//! * a report keeps each entry's best occurrence;
//! * across a workload, [`correlation_weight`] scales an entry's
//!   confidences by `1 + 0.2·r`, where `r` is Pearson's r between the
//!   entry's confidences and the log10 total cost of the plans it fired
//!   on, and each report is re-ranked by the weighted confidences.

use serde::{Deserialize, Serialize};

use optimatch_qep::PlanOp;

/// Expert-provided feature profile stored with each KB entry.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Prototype {
    /// Expected share of total plan cost attributable to the matched
    /// operator (0..1).
    pub cost_share: f64,
    /// Expected `log10(1 + cardinality)` of the matched operator.
    pub log_cardinality: f64,
}

impl Default for Prototype {
    fn default() -> Prototype {
        Prototype {
            cost_share: 0.5,
            log_cardinality: 3.0,
        }
    }
}

/// Features of one concrete match.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MatchFeatures {
    /// The matched operator's cumulative cost over the plan's total cost.
    pub cost_share: f64,
    /// `log10(1 + cardinality)` of the matched operator.
    pub log_cardinality: f64,
}

/// Extract ranking features for a matched operator, given its plan's
/// total cost.
pub fn features_for(op: &PlanOp, plan_total: f64) -> MatchFeatures {
    MatchFeatures {
        cost_share: (op.total_cost / plan_total.max(f64::MIN_POSITIVE)).clamp(0.0, 1.0),
        log_cardinality: (1.0 + op.cardinality.max(0.0)).log10(),
    }
}

/// Confidence score in `[0, 1]`: similarity to the prototype blended with
/// the matched operator's cost impact.
pub fn confidence(prototype: Prototype, features: MatchFeatures) -> f64 {
    let d_cost = features.cost_share - prototype.cost_share;
    let d_card = (features.log_cardinality - prototype.log_cardinality) / 5.0;
    let similarity = (-(d_cost * d_cost + d_card * d_card)).exp();
    let impact = features.cost_share;
    (0.6 * similarity + 0.4 * impact).clamp(0.0, 1.0)
}

/// Pearson correlation coefficient of two equal-length samples; `None`
/// when undefined (length < 2 or zero variance).
pub fn pearson(xs: &[f64], ys: &[f64]) -> Option<f64> {
    if xs.len() != ys.len() || xs.len() < 2 {
        return None;
    }
    let n = xs.len() as f64;
    let mx = xs.iter().sum::<f64>() / n;
    let my = ys.iter().sum::<f64>() / n;
    let mut cov = 0.0;
    let mut vx = 0.0;
    let mut vy = 0.0;
    for (x, y) in xs.iter().zip(ys) {
        cov += (x - mx) * (y - my);
        vx += (x - mx) * (x - mx);
        vy += (y - my) * (y - my);
    }
    if vx == 0.0 || vy == 0.0 {
        return None;
    }
    Some(cov / (vx.sqrt() * vy.sqrt()))
}

/// Workload-level correlation boost: how consistently an entry's match
/// confidences track the cost impact of the plans it fires on. Entries
/// whose confidence correlates with real cost (the expert's profile keeps
/// predicting expensive spots) get a small boost; anti-correlated entries
/// are damped. A scan passes each plan's log10 total cost as its impact;
/// the fleet history passes recorded cost shares.
pub fn correlation_weight(confidences: &[f64], impacts: &[f64]) -> f64 {
    match pearson(confidences, impacts) {
        Some(r) => 1.0 + 0.2 * r,
        None => 1.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use optimatch_qep::fixtures;

    #[test]
    fn features_read_plan_context() {
        let q = fixtures::fig1();
        let f = features_for(q.op(5).unwrap(), q.total_cost());
        // TBSCAN(5): cost 15771 of 16801.2 total.
        assert!((f.cost_share - 15771.0 / 16801.2).abs() < 1e-9);
        assert!((f.log_cardinality - (4044.0f64).log10()).abs() < 1e-9);
    }

    #[test]
    fn confidence_peaks_at_prototype() {
        let proto = Prototype {
            cost_share: 0.8,
            log_cardinality: 3.5,
        };
        let exact = confidence(
            proto,
            MatchFeatures {
                cost_share: 0.8,
                log_cardinality: 3.5,
            },
        );
        let off = confidence(
            proto,
            MatchFeatures {
                cost_share: 0.1,
                log_cardinality: 8.0,
            },
        );
        assert!(exact > off);
        assert!((0.0..=1.0).contains(&exact));
        assert!((0.0..=1.0).contains(&off));
    }

    #[test]
    fn higher_cost_impact_wins_at_equal_similarity() {
        let proto = Prototype::default();
        let cheap = confidence(
            proto,
            MatchFeatures {
                cost_share: proto.cost_share - 0.2,
                log_cardinality: proto.log_cardinality,
            },
        );
        let costly = confidence(
            proto,
            MatchFeatures {
                cost_share: proto.cost_share + 0.2,
                log_cardinality: proto.log_cardinality,
            },
        );
        assert!(costly > cheap);
    }

    #[test]
    fn pearson_known_values() {
        let r1 = pearson(&[1.0, 2.0, 3.0], &[2.0, 4.0, 6.0]).unwrap();
        assert!((r1 - 1.0).abs() < 1e-12);
        let r2 = pearson(&[1.0, 2.0, 3.0], &[6.0, 4.0, 2.0]).unwrap();
        assert!((r2 + 1.0).abs() < 1e-12);
        let r = pearson(&[1.0, 2.0, 3.0, 4.0], &[1.0, 3.0, 2.0, 4.0]).unwrap();
        assert!(r > 0.0 && r < 1.0);
        assert_eq!(pearson(&[1.0], &[1.0]), None);
        assert_eq!(pearson(&[1.0, 1.0], &[1.0, 2.0]), None); // zero variance
        assert_eq!(pearson(&[1.0, 2.0], &[1.0]), None); // length mismatch
    }

    #[test]
    fn correlation_weight_bounds() {
        let w = correlation_weight(&[0.1, 0.5, 0.9], &[0.1, 0.5, 0.9]);
        assert!((w - 1.2).abs() < 1e-9);
        let w = correlation_weight(&[0.9, 0.5, 0.1], &[0.1, 0.5, 0.9]);
        assert!((w - 0.8).abs() < 1e-9);
        assert_eq!(correlation_weight(&[0.5], &[0.5]), 1.0);
    }
}
