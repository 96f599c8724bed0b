//! Figure 10: per-QEP analysis time versus number of LOLEPOPs.
//!
//! Paper shape: the time to analyze a single plan grows linearly with its
//! operator count; even ~500-operator plans stay in the low milliseconds.
//! Buckets follow the paper: [0–50], [50–100], …, [200–250], [500–550]
//! (its buckets 6–10 were empty in the customer workload).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;

use optimatch_bench::EXPERIMENT_SEED;
use optimatch_core::{builtin, Matcher, TransformedQep};
use optimatch_workload::{GeneratorConfig, PlanGenerator};

/// Bucket midpoints from the paper's Figure 10.
const BUCKET_TARGETS: [usize; 6] = [25, 75, 125, 175, 225, 525];

fn bench_fig10(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig10_lolepops");
    group.sample_size(20);

    let mut rng = StdRng::seed_from_u64(EXPERIMENT_SEED);
    let mut generator = PlanGenerator::new(GeneratorConfig::default());

    // One representative transformed plan per bucket.
    let plans: Vec<TransformedQep> = BUCKET_TARGETS
        .iter()
        .map(|&target| {
            let qep = generator.generate_sized(&mut rng, &format!("b{target}"), target);
            TransformedQep::new(qep)
        })
        .collect();

    for entry in builtin::evaluation_entries() {
        let matcher = Matcher::compile(&entry.pattern).expect("pattern compiles");
        for plan in &plans {
            let ops = plan.qep.op_count();
            group.bench_with_input(
                BenchmarkId::new(entry.name.clone(), ops),
                plan,
                |b, plan| {
                    b.iter(|| {
                        matcher
                            .find_traced(plan, &optimatch_sparql::Budget::unlimited(), true)
                            .expect("matching succeeds")
                            .0
                            .len()
                    })
                },
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench_fig10);
criterion_main!(benches);
