//! Criterion benchmark for the single-link processor-sharing loop over
//! the standard browser-shaped classes from [`ptperf_bench::flowbench`]
//! — the batch every selenium and speed-index page load submits.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::hint::black_box;

use ptperf_bench::flowbench::standard_workloads;
use ptperf_sim::share_link;

fn bench_share_link(c: &mut Criterion) {
    let mut g = c.benchmark_group("share_link");
    for w in &standard_workloads() {
        g.throughput(Throughput::Elements(w.flows.len() as u64));
        let (mut active, mut finish) = (Vec::new(), Vec::new());
        g.bench_function(w.name, |b| {
            b.iter(|| black_box(share_link(w.capacity, &w.flows, &mut active, &mut finish)))
        });
    }
    g.finish();
}

criterion_group!(flow, bench_share_link);
criterion_main!(flow);
