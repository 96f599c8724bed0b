//! Workload statistics: the summary numbers the paper reports about its
//! customer workload ("1000 QEPs with 100+ operators on average, up to
//! 550").

use std::collections::BTreeMap;
use std::fmt;

use crate::model::{OpType, Qep};

/// Summary statistics over a set of plans.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadStats {
    /// Number of plans.
    pub qep_count: usize,
    /// Total operators across all plans.
    pub total_ops: usize,
    /// Smallest plan (operator count).
    pub min_ops: usize,
    /// Largest plan (operator count).
    pub max_ops: usize,
    /// Mean operators per plan.
    pub mean_ops: f64,
    /// Operator-type histogram across the workload.
    pub op_histogram: BTreeMap<OpType, usize>,
    /// Total-cost quantiles (p50, p90, p99) across plans.
    pub cost_p50: f64,
    /// 90th percentile plan cost.
    pub cost_p90: f64,
    /// 99th percentile plan cost.
    pub cost_p99: f64,
}

/// Compute statistics over an iterator of plans.
pub fn workload_stats<'a>(qeps: impl IntoIterator<Item = &'a Qep>) -> WorkloadStats {
    let mut qep_count = 0usize;
    let mut total_ops = 0usize;
    let mut min_ops = usize::MAX;
    let mut max_ops = 0usize;
    let mut op_histogram: BTreeMap<OpType, usize> = BTreeMap::new();
    let mut costs: Vec<f64> = Vec::new();

    for qep in qeps {
        qep_count += 1;
        let n = qep.op_count();
        total_ops += n;
        min_ops = min_ops.min(n);
        max_ops = max_ops.max(n);
        costs.push(qep.total_cost());
        for op in qep.ops.values() {
            *op_histogram.entry(op.op_type).or_default() += 1;
        }
    }
    if qep_count == 0 {
        min_ops = 0;
    }
    costs.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let quantile = |q: f64| -> f64 {
        if costs.is_empty() {
            return 0.0;
        }
        let idx = ((costs.len() - 1) as f64 * q).round() as usize;
        costs[idx]
    };

    WorkloadStats {
        qep_count,
        total_ops,
        min_ops,
        max_ops,
        mean_ops: if qep_count == 0 {
            0.0
        } else {
            total_ops as f64 / qep_count as f64
        },
        op_histogram,
        cost_p50: quantile(0.5),
        cost_p90: quantile(0.9),
        cost_p99: quantile(0.99),
    }
}

impl fmt::Display for WorkloadStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{} QEPs, {} operators (min {}, mean {:.1}, max {})",
            self.qep_count, self.total_ops, self.min_ops, self.mean_ops, self.max_ops
        )?;
        writeln!(
            f,
            "plan cost p50 {:.1}  p90 {:.1}  p99 {:.1}",
            self.cost_p50, self.cost_p90, self.cost_p99
        )?;
        write!(f, "operators:")?;
        for (op, count) in &self.op_histogram {
            write!(f, " {op}={count}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures;

    #[test]
    fn stats_over_fixtures() {
        let plans = [fixtures::fig1(), fixtures::fig7(), fixtures::fig8()];
        let s = workload_stats(plans.iter());
        assert_eq!(s.qep_count, 3);
        assert_eq!(s.min_ops, 3); // fig8
        assert_eq!(s.max_ops, 12); // fig7
        assert_eq!(s.total_ops, 5 + 12 + 3);
        assert!((s.mean_ops - 20.0 / 3.0).abs() < 1e-9);
        assert_eq!(s.op_histogram[&OpType::Return], 3);
        assert_eq!(s.op_histogram[&OpType::NlJoin], 3); // fig1:1, fig7:2
        assert!(s.cost_p50 > 0.0 && s.cost_p99 >= s.cost_p50);
    }

    #[test]
    fn empty_workload_is_well_defined() {
        let s = workload_stats(std::iter::empty());
        assert_eq!(s.qep_count, 0);
        assert_eq!(s.min_ops, 0);
        assert_eq!(s.mean_ops, 0.0);
        assert_eq!(s.cost_p50, 0.0);
    }

    #[test]
    fn display_is_one_summary_block() {
        let plans = [fixtures::fig1()];
        let text = workload_stats(plans.iter()).to_string();
        assert!(text.contains("1 QEPs"));
        assert!(text.contains("NLJOIN=1"));
    }
}
