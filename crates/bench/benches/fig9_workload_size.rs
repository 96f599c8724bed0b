//! Figure 9: pattern-search time versus workload size (number of QEP
//! files), for the paper's three evaluation patterns.
//!
//! Paper shape: time grows linearly in the number of QEPs; the recursive
//! Pattern #2 costs more than the others; 1000 QEPs stay well under
//! interactive bounds. The `reproduce fig9` harness runs the full
//! 100..1000 sweep with repeats; this bench tracks the trend points.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

use optimatch_bench::{paper_workload, transform_all};
use optimatch_core::{builtin, Matcher, ScanOptions};

fn bench_fig9(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig9_workload_size");
    group.sample_size(10);

    // Generate the largest workload once; prefixes of it give the smaller
    // buckets (the paper builds buckets incrementally the same way).
    let workload = paper_workload(500);
    let (transformed, _) = transform_all(&workload);

    for entry in builtin::evaluation_entries() {
        let matcher = Matcher::compile(&entry.pattern).expect("pattern compiles");
        for &n in &[100usize, 250, 500] {
            let slice = &transformed[..n];
            group.throughput(Throughput::Elements(n as u64));
            group.bench_with_input(
                BenchmarkId::new(entry.name.clone(), n),
                &slice,
                |b, slice| {
                    b.iter(|| {
                        matcher
                            .search_workload(slice, &ScanOptions::default().fail_fast(true))
                            .expect("matching succeeds")
                            .qep_ids()
                            .len()
                    })
                },
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench_fig9);
criterion_main!(benches);
