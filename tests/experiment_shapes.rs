//! Scaled-down versions of the paper's experiments asserting the *shapes*
//! EXPERIMENTS.md claims, so regressions in scaling behaviour fail CI —
//! not just the numbers in a doc. Sizes are kept small enough for debug
//! builds.

use std::time::Instant;

use optimatch_suite::core::builtin::{self, synthetic_kb};
use optimatch_suite::core::{transform::TransformedQep, Matcher, ScanOptions};
use optimatch_suite::sparql::Budget;
use optimatch_suite::workload::{generate_workload, sized_workloads, WorkloadConfig};

fn transformed(n: usize, seed: u64) -> Vec<TransformedQep> {
    let w = generate_workload(&WorkloadConfig {
        seed,
        num_qeps: n,
        ..WorkloadConfig::default()
    });
    w.qeps.into_iter().map(TransformedQep::new).collect()
}

/// Least-squares R² for y over x.
fn r_squared(xs: &[f64], ys: &[f64]) -> f64 {
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
    if syy == 0.0 {
        return 1.0;
    }
    (sxy * sxy) / (sxx * syy)
}

/// Figure-9 shape: search time grows roughly linearly with workload size.
/// Debug-build timings are noisy, so the assertion is generous (R² > 0.9
/// over 3 repeats) — it still catches superlinear blowups.
#[test]
fn fig9_shape_linear_in_workload_size() {
    let workload = transformed(120, 42);
    let matcher = Matcher::compile(&builtin::pattern_a().pattern).expect("compiles");
    let search = ScanOptions::default().fail_fast(true);
    // Warm up.
    let _ = matcher
        .search_workload(&workload, &search)
        .expect("matches");

    let sizes = [30usize, 60, 90, 120];
    let mut xs = Vec::new();
    let mut ys = Vec::new();
    for &n in &sizes {
        let start = Instant::now();
        for _ in 0..3 {
            let _ = matcher
                .search_workload(&workload[..n], &search)
                .expect("matches");
        }
        xs.push(n as f64);
        ys.push(start.elapsed().as_secs_f64());
    }
    let r2 = r_squared(&xs, &ys);
    assert!(r2 > 0.9, "expected linear scaling, R²={r2} over {ys:?}");
    // And monotone: the largest prefix must cost more than the smallest.
    assert!(ys[3] > ys[0]);
}

/// Least-squares slope of ln y over ln x: the exponent of a power law.
/// A y below 1 counts as 1, so a flat series of single units reads 0.
fn log_log_slope(xs: &[f64], ys: &[f64]) -> f64 {
    let (lx, ly): (Vec<f64>, Vec<f64>) = xs
        .iter()
        .zip(ys)
        .map(|(x, y)| (x.ln(), y.max(1.0).ln()))
        .unzip();
    let n = lx.len() as f64;
    let (mx, my) = (lx.iter().sum::<f64>() / n, ly.iter().sum::<f64>() / n);
    let sxy: f64 = lx.iter().zip(&ly).map(|(x, y)| (x - mx) * (y - my)).sum();
    let sxx: f64 = lx.iter().map(|x| (x - mx) * (x - mx)).sum();
    sxy / sxx
}

/// Figure-10 shape, on work rather than time: each evaluation pattern's
/// fuel per plan (the evaluator's deterministic work count) grows about
/// linearly with the plan's operator count. Fitted over Figure 10's six
/// LOLEPOP buckets, on the plans with one instance of each pattern
/// injected, and on the same plans without. The plain bound is looser:
/// Pattern #1's absence probes grow faster there, since small plans
/// often have no NLJOIN at all.
#[test]
fn fig10_fuel_grows_linearly_in_plan_size() {
    let matchers: Vec<(String, Matcher)> = builtin::evaluation_entries()
        .into_iter()
        .map(|e| {
            (
                e.name.clone(),
                Matcher::compile(&e.pattern).expect("compiles"),
            )
        })
        .collect();
    for (inject, bound) in [(true, 1.2), (false, 1.5)] {
        let buckets: Vec<Vec<TransformedQep>> = sized_workloads(0xDB2, inject)
            .into_iter()
            .map(|w| w.qeps.into_iter().map(TransformedQep::new).collect())
            .collect();
        // One value per bucket: the mean of `f` over its plans.
        let per_bucket = |f: &dyn Fn(&TransformedQep) -> f64| -> Vec<f64> {
            buckets
                .iter()
                .map(|plans| plans.iter().map(f).sum::<f64>() / plans.len() as f64)
                .collect()
        };
        let ops = per_bucket(&|t| t.qep.op_count() as f64);
        for (name, matcher) in &matchers {
            let fuel = per_bucket(&|t| {
                let budget = Budget::unlimited();
                matcher.find_traced(t, &budget, true).expect("matches");
                budget.spent() as f64
            });
            let exponent = log_log_slope(&ops, &fuel);
            assert!(
                exponent <= bound,
                "{name} (injected: {inject}): fuel grows as ops^{exponent:.2} > ops^{bound}, \
                 fuel per plan {fuel:?} over mean ops {ops:?}"
            );
        }
    }
}

/// Figure-11 shape: KB scan time grows roughly linearly in entry count,
/// and a 20× bigger KB costs nowhere near 400× (quadratic would).
#[test]
fn fig11_shape_linear_in_kb_size() {
    let workload = transformed(30, 43);
    let time_for = |entries: usize| {
        let kb = synthetic_kb(entries);
        let start = Instant::now();
        let _ = kb
            .scan_workload_with(&workload, ScanOptions::default())
            .expect("scans");
        start.elapsed().as_secs_f64()
    };
    // Warm up.
    let _ = time_for(1);
    let t5 = time_for(5);
    let t100 = time_for(100);
    let ratio = t100 / t5;
    assert!(
        ratio < 80.0,
        "20x KB growth cost {ratio:.1}x — superlinear scan scaling"
    );
    assert!(t100 > t5, "bigger KBs must cost more");
}

/// The evaluation patterns keep 100% precision/recall as the workload
/// scales — the shape behind Table 1's tool column.
#[test]
fn tool_exactness_shape() {
    use optimatch_suite::workload::PatternId;
    let w = generate_workload(&WorkloadConfig {
        seed: 44,
        num_qeps: 80,
        ..WorkloadConfig::default()
    });
    let ts: Vec<TransformedQep> = w.qeps.iter().cloned().map(TransformedQep::new).collect();
    for (entry, pid) in
        builtin::evaluation_entries()
            .into_iter()
            .zip([PatternId::A, PatternId::B, PatternId::C])
    {
        let matcher = Matcher::compile(&entry.pattern).expect("compiles");
        let outcome = matcher
            .search_workload(&ts, &ScanOptions::default().fail_fast(true))
            .expect("matches");
        let mut found = outcome.qep_ids();
        found.sort();
        let mut truth: Vec<String> = w.matching_ids(pid).iter().map(|s| s.to_string()).collect();
        truth.sort();
        assert_eq!(found, truth, "{pid:?}");
    }
}
