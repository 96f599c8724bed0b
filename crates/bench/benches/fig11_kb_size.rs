//! Figure 11: knowledge-base scan time versus number of stored
//! pattern/recommendation entries.
//!
//! Paper shape: scanning a fixed workload against 1 / 10 / 100 / 250 KB
//! entries scales linearly in the entry count. The paper scans 1000 QEPs
//! (~70 minutes on its hardware); the bench uses a 100-QEP prefix for
//! iteration speed and `reproduce fig11` runs the full 1000.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

use optimatch_bench::{paper_workload, transform_all};
use optimatch_core::builtin::synthetic_kb;
use optimatch_core::ScanOptions;

fn bench_fig11(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig11_kb_size");
    group.sample_size(10);

    let workload = paper_workload(100);
    let (transformed, _) = transform_all(&workload);

    for &n in &[1usize, 10, 100, 250] {
        let kb = synthetic_kb(n);
        group.throughput(Throughput::Elements(n as u64));
        group.bench_with_input(BenchmarkId::new("kb_entries", n), &kb, |b, kb| {
            b.iter(|| {
                kb.scan_workload_with(&transformed, ScanOptions::default())
                    .expect("scan succeeds")
                    .reports
                    .len()
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_fig11);
criterion_main!(benches);
