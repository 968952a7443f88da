//! Ablation benches for the design choices DESIGN.md calls out. Each
//! ablation *measures the simulated outcome* under the varied design
//! knob and reports it alongside the runtime, so `cargo bench` output
//! doubles as an ablation table.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use ptperf_obs::NullRecorder;
use ptperf_sim::{Location, SimDuration, SimRng, TransferModel};
use ptperf_transports::{
    dnstt, snowflake, transport_for, AccessOptions, Deployment, PluggableTransport, PtId,
};
use ptperf_web::{curl, filedl, load_page_pooled, PageScratch, SiteList, Website};

/// Ablation 1 — guard background-load distribution. The §4.2.1 anomaly
/// (PT bridges beating vanilla Tor) only appears when volunteer guards
/// are *heavier-loaded* than managed bridges; with a uniform light load
/// it vanishes.
fn ablation_guard_load(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation_guard_load");
    g.sample_size(10);

    // Browser-scale page loads (≈1 MB) expose first-hop capacity; tiny
    // curl fetches finish inside TCP slow start and would mask it. All
    // relays are pinned to one location so the comparison isolates the
    // *load* distribution from bridge-proximity effects.
    let mean_access = |fixed_util: Option<f64>| -> (f64, f64) {
        let mut dep = Deployment::standard(11, Location::Frankfurt);
        let n = dep.consensus.len();
        for i in 0..n {
            let relay = dep.consensus.relay_mut(ptperf_tor::RelayId(i as u32));
            relay.location = Location::Frankfurt;
            if let Some(u) = fixed_util {
                // Flatten the volunteer-load distribution.
                relay.utilization = u;
            }
        }
        let opts = AccessOptions::new(Location::London);
        let mut rng = SimRng::new(5);
        let sites = Website::top(SiteList::Tranco, 60);
        let run_pt = |pt: PtId, rng: &mut SimRng| -> f64 {
            let t = transport_for(pt);
            let mut page = PageScratch::new();
            let total: f64 = sites
                .iter()
                .map(|s| {
                    let ch = t.establish(&dep, &opts, s.server, rng);
                    load_page_pooled(&ch, s, rng, &mut NullRecorder, &mut page)
                        .expect("browser-capable")
                        .total
                        .as_secs_f64()
                })
                .sum();
            total / sites.len() as f64
        };
        (
            run_pt(PtId::Vanilla, &mut rng),
            run_pt(PtId::Obfs4, &mut rng),
        )
    };

    let (tor_ht, obfs4_ht) = mean_access(None);
    let (tor_flat, obfs4_flat) = mean_access(Some(0.15));
    println!(
        "ablation_guard_load: heavy-tailed guards: tor {tor_ht:.2}s vs obfs4 {obfs4_ht:.2}s; \
         uniform light guards: tor {tor_flat:.2}s vs obfs4 {obfs4_flat:.2}s"
    );

    g.bench_function("heavy_tailed", |b| b.iter(|| black_box(mean_access(None))));
    g.bench_function("uniform_light", |b| {
        b.iter(|| black_box(mean_access(Some(0.15))))
    });
    g.finish();
}

/// Ablation 2 — the dnstt downstream window: the website-vs-bulk
/// asymmetry across window sizes.
fn ablation_dnstt_window(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation_dnstt_window");
    g.sample_size(10);
    let dep = Deployment::standard(12, Location::Frankfurt);
    let opts = AccessOptions::new(Location::London);
    let site = Website::generate(SiteList::Tranco, 0);

    for window in [1u32, 4, 16, 64] {
        let t = dnstt::Dnstt {
            window,
            max_qps: 1_000_000.0, // isolate the window effect
            hazard_per_sec: 0.0,
        };
        let mut rng = SimRng::new(6);
        let ch = t.establish(&dep, &opts, site.server, &mut rng);
        let page = curl::fetch(&ch, &site, &mut rng).total.as_secs_f64();
        let mut rng = SimRng::new(7);
        let mut ch = t.establish(&dep, &opts, Location::Frankfurt, &mut rng);
        // Isolate throughput from session-drop hazard for the sweep.
        ch.hazard_per_sec = 0.0;
        let file = filedl::download(&ch, 5_000_000, &mut rng);
        println!(
            "ablation_dnstt_window: window {window}: page {page:.2}s, 5MB file {:.0}s ({})",
            file.elapsed.as_secs_f64(),
            file.outcome.label()
        );
        g.bench_function(format!("window_{window}"), |b| {
            b.iter(|| {
                let mut rng = SimRng::new(6);
                let ch = t.establish(&dep, &opts, site.server, &mut rng);
                black_box(curl::fetch(&ch, &site, &mut rng))
            })
        });
    }
    g.finish();
}

/// Ablation 3 — snowflake proxy churn: the reliability cliff as the
/// churn hazard scales with load.
fn ablation_snowflake_churn(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation_snowflake_churn");
    g.sample_size(10);
    let dep = Deployment::standard(13, Location::Frankfurt);

    let complete_fraction = |load_mult: f64| -> f64 {
        let mut opts = AccessOptions::new(Location::London);
        opts.load_mult = load_mult;
        let t = snowflake::Snowflake;
        let mut rng = SimRng::new(8);
        let n = 40;
        let complete = (0..n)
            .filter(|_| {
                let ch = t.establish(&dep, &opts, Location::Frankfurt, &mut rng);
                filedl::download(&ch, 10_000_000, &mut rng).outcome == ptperf_web::Outcome::Complete
            })
            .count();
        complete as f64 / n as f64
    };

    for load in [1.0f64, 2.0, 3.2] {
        println!(
            "ablation_snowflake_churn: load ×{load}: 10MB completion rate {:.0}%",
            100.0 * complete_fraction(load)
        );
        g.bench_function(format!("load_{load}"), |b| {
            b.iter(|| black_box(complete_fraction(load)))
        });
    }
    g.finish();
}

/// Ablation 4 — the slow-start ramp in the transfer model: small-file
/// sensitivity.
fn ablation_slow_start(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation_slow_start");
    let model = TransferModel::new(SimDuration::from_millis(300), 1.0e6, 0.0);
    let fluid = |bytes: u64| bytes as f64 / 1.0e6;
    for bytes in [50_000u64, 500_000, 5_000_000] {
        let with_ss = model.duration(bytes).as_secs_f64();
        println!(
            "ablation_slow_start: {bytes} B: with slow start {with_ss:.2}s vs fluid {:.2}s \
             (penalty {:.0}%)",
            fluid(bytes),
            100.0 * (with_ss - fluid(bytes)) / fluid(bytes)
        );
        g.bench_function(format!("bytes_{bytes}"), |b| {
            b.iter(|| black_box(model.duration(bytes)))
        });
    }
    g.finish();
}

/// Ablation 5 — obfs4 IAT modes: the throughput price of timing
/// obfuscation on a 5 MB download.
fn ablation_obfs4_iat(c: &mut Criterion) {
    use ptperf_transports::obfs4::{IatMode, Obfs4};
    let mut g = c.benchmark_group("ablation_obfs4_iat");
    g.sample_size(10);
    let dep = Deployment::standard(14, Location::Frankfurt);
    let opts = AccessOptions::new(Location::London);
    for (label, mode) in [
        ("none", IatMode::None),
        ("shaped", IatMode::Shaped),
        ("paranoid", IatMode::Paranoid),
    ] {
        let t = Obfs4 { iat_mode: mode };
        let mut rng = SimRng::new(15);
        let ch = t.establish(&dep, &opts, Location::Frankfurt, &mut rng);
        let d = filedl::download(&ch, 5_000_000, &mut rng);
        println!(
            "ablation_obfs4_iat: iat-mode {label}: 5MB in {:.0}s ({})",
            d.elapsed.as_secs_f64(),
            d.outcome.label()
        );
        g.bench_function(label, |b| {
            b.iter(|| {
                let mut rng = SimRng::new(15);
                let ch = t.establish(&dep, &opts, Location::Frankfurt, &mut rng);
                black_box(filedl::download(&ch, 5_000_000, &mut rng))
            })
        });
    }
    g.finish();
}

criterion_group!(
    ablations,
    ablation_guard_load,
    ablation_dnstt_window,
    ablation_snowflake_churn,
    ablation_slow_start,
    ablation_obfs4_iat,
);
criterion_main!(ablations);
