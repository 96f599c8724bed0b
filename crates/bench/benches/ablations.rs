//! Ablation benches for the design choices DESIGN.md calls out:
//!
//! * **BGP reordering** — the SPARQL evaluator's greedy selectivity-based
//!   triple-pattern ordering vs. naive source order;
//! * **parse hoisting** — compiling/parsing a pattern once per workload
//!   (what `Matcher` does) vs. re-parsing the generated SPARQL per QEP;
//! * **transformation cost** — Algorithm 1's share of the pipeline.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use optimatch_bench::{paper_workload, transform_all};
use optimatch_core::compile::compile_pattern;
use optimatch_core::{builtin, transform_qep, Matcher, ScanOptions};
use optimatch_sparql::eval::evaluate;
use optimatch_sparql::{algebra, parse_query, Budget, PlanOptions};

fn bench_reordering(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_bgp_reordering");
    group.sample_size(10);

    let workload = paper_workload(50);
    let (transformed, _) = transform_all(&workload);

    for entry in builtin::evaluation_entries() {
        let sparql = compile_pattern(&entry.pattern).expect("compiles");
        let query = parse_query(&sparql).expect("parses");
        let plan = algebra::translate(&query).expect("translates");
        for (label, reorder) in [("reorder", true), ("source-order", false)] {
            group.bench_with_input(
                BenchmarkId::new(entry.name.clone(), label),
                &reorder,
                |b, &reorder| {
                    b.iter(|| {
                        let mut hits = 0usize;
                        for t in &transformed {
                            let options = PlanOptions::default().optimize(reorder);
                            let (table, _) =
                                evaluate(&t.graph, &plan, options, &Budget::unlimited())
                                    .expect("evaluates");
                            hits += usize::from(!table.is_empty());
                        }
                        hits
                    })
                },
            );
        }
    }
    group.finish();
}

fn bench_parse_hoisting(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_parse_hoisting");
    group.sample_size(10);

    let workload = paper_workload(50);
    let (transformed, _) = transform_all(&workload);
    let entry = builtin::pattern_a();
    let sparql = compile_pattern(&entry.pattern).expect("compiles");

    group.bench_function("parse_once", |b| {
        let matcher = Matcher::compile(&entry.pattern).expect("compiles");
        b.iter(|| {
            matcher
                .search_workload(&transformed, &ScanOptions::default().fail_fast(true))
                .expect("matches")
                .qep_ids()
                .len()
        })
    });
    group.bench_function("parse_per_qep", |b| {
        b.iter(|| {
            let mut hits = 0usize;
            for t in &transformed {
                let table = optimatch_sparql::execute(&t.graph, &sparql).expect("executes");
                hits += usize::from(!table.is_empty());
            }
            hits
        })
    });
    group.finish();
}

fn bench_transform(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_transform_cost");
    group.sample_size(10);

    let workload = paper_workload(50);
    group.bench_function("algorithm1_transform_50_qeps", |b| {
        b.iter(|| {
            workload
                .qeps
                .iter()
                .map(|q| transform_qep(q).len())
                .sum::<usize>()
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_reordering,
    bench_parse_hoisting,
    bench_transform
);
criterion_main!(benches);
