//! Criterion benchmarks for channel establishment: the indexed pick
//! path vs the retained reference (full-scan) oracle, over the standard
//! classes from [`ptperf_bench::establishbench`], plus the raw
//! weighted-pick primitive at both consensus sizes.
//!
//! The headline pair the PR trajectory tracks is
//! `establish/vanilla_5000_indexed` vs
//! `establish/vanilla_5000_reference` — the scale where the scan
//! oracle's O(n) per pick dominates establishment cost.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::hint::black_box;

use ptperf_bench::establishbench::standard_workloads;
use ptperf_sim::{Location, SimRng};
use ptperf_tor::{path, FilterClass, PathSelector, PickMode};
use ptperf_transports::{transport_for, EstablishScratch};

fn bench_establish(c: &mut Criterion) {
    let mut g = c.benchmark_group("establish");
    for w in &standard_workloads() {
        let transport = transport_for(w.pt);
        g.throughput(Throughput::Elements(1));
        g.bench_function(format!("{}_indexed", w.name), |b| {
            let mut scratch = EstablishScratch::new();
            let mut rng = SimRng::new(5);
            b.iter(|| {
                black_box(transport.establish_with(
                    &w.dep,
                    &w.opts,
                    Location::NewYork,
                    &mut rng,
                    &mut scratch,
                ))
            })
        });
        g.bench_function(format!("{}_reference", w.name), |b| {
            let mut scratch = EstablishScratch::reference_oracle();
            let mut rng = SimRng::new(5);
            b.iter(|| {
                black_box(transport.establish_with(
                    &w.dep,
                    &w.opts,
                    Location::NewYork,
                    &mut rng,
                    &mut scratch,
                ))
            })
        });
    }
    g.finish();
}

fn bench_weighted_pick(c: &mut Criterion) {
    let mut g = c.benchmark_group("weighted_pick");
    let workloads = standard_workloads();
    for name in ["vanilla_600", "vanilla_5000"] {
        let w = workloads
            .iter()
            .find(|w| w.name == name)
            .expect("class exists");
        let consensus = &w.dep.consensus;
        let relays = consensus.relays();
        let size = relays.len();
        g.bench_function(format!("indexed_{size}"), |b| {
            let mut rng = SimRng::new(3);
            let mut scratch = path::indexed::PickScratch::new();
            b.iter(|| {
                black_box(path::indexed::weighted_pick(
                    &mut rng,
                    consensus,
                    FilterClass::Guard,
                    &[],
                    &mut scratch,
                ))
            })
        });
        g.bench_function(format!("reference_{size}"), |b| {
            let mut rng = SimRng::new(3);
            b.iter(|| {
                black_box(path::reference::weighted_pick(
                    &mut rng,
                    relays,
                    |r| r.flags.guard && r.flags.fast,
                    &[],
                ))
            })
        });
    }
    g.finish();
}

fn bench_selector_reuse(c: &mut Criterion) {
    let mut g = c.benchmark_group("path_selector");
    let workloads = standard_workloads();
    let w = workloads
        .iter()
        .find(|w| w.name == "vanilla_600")
        .expect("class exists");
    for (label, mode) in [
        ("indexed", PickMode::Indexed),
        ("reference", PickMode::Reference),
    ] {
        g.bench_function(format!("select_600_{label}"), |b| {
            let mut selector = PathSelector::new();
            selector.set_pick_mode(mode);
            let mut rng = SimRng::new(4);
            b.iter(|| black_box(selector.select(Default::default(), &w.dep.consensus, &mut rng)))
        });
    }
    g.finish();
}

criterion_group!(
    establish,
    bench_establish,
    bench_weighted_pick,
    bench_selector_reuse
);
criterion_main!(establish);
