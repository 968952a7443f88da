//! Criterion benches, one group per paper table/figure family: each
//! bench executes the corresponding experiment kernel at reduced scale
//! and reports its runtime, so regressions in the simulation substrate
//! or the experiment runners are caught.
//!
//! The *content* of each figure is regenerated by the `repro` binary;
//! these benches track the cost of regenerating it.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use ptperf::executor::Parallelism;
use ptperf::experiments::{
    file_download, fixed_circuit, fixed_guard, location, medium, overhead, reliability,
    snowflake_load, speed_index, streaming, ttest_tables, ttfb, website_curl, website_selenium,
};
use ptperf::scenario::Scenario;
use ptperf_bench::{available_targets, run_targets, RunScale};

fn scenario() -> Scenario {
    Scenario::baseline(42)
}

fn bench_fig2a_website_curl(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig2a_website_curl");
    g.sample_size(10);
    let cfg = website_curl::Config {
        sites_per_list: 20,
        repeats: 2,
    };
    g.bench_function("tranco_cbl_40_sites", |b| {
        b.iter(|| black_box(website_curl::run(&scenario(), &cfg)))
    });
    g.finish();
}

fn bench_fig2b_website_selenium(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig2b_website_selenium");
    g.sample_size(10);
    let cfg = website_selenium::Config {
        sites_per_list: 15,
        repeats: 1,
    };
    g.bench_function("browser_30_sites", |b| {
        b.iter(|| black_box(website_selenium::run(&scenario(), &cfg)))
    });
    g.finish();
}

fn bench_tables_3_4_ttests(c: &mut Criterion) {
    let result = website_curl::run(
        &scenario(),
        &website_curl::Config {
            sites_per_list: 20,
            repeats: 1,
        },
    );
    let mut g = c.benchmark_group("tables_3_4_10_ttests");
    g.bench_function("pairwise_78_tests", |b| {
        b.iter(|| black_box(ttest_tables::pairwise(&result.samples)))
    });
    g.bench_function("category_table10", |b| {
        b.iter(|| black_box(ttest_tables::category_pairwise(&result.samples)))
    });
    // Table 7 at paper scale: 78 rows over 50 aligned downloads each.
    let downloads = file_download::run(&scenario(), &file_download::Config::paper());
    let table7 = ttest_tables::pairwise(&downloads.paired);
    g.bench_function("render_78_rows", |b| {
        b.iter(|| black_box(ttest_tables::render("Table 7", black_box(&table7))))
    });
    g.finish();
}

fn bench_fig3_fixed_circuit(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig3_fixed_circuit");
    g.sample_size(10);
    let cfg = fixed_circuit::Config { iterations: 25 };
    g.bench_function("25_iterations", |b| {
        b.iter(|| black_box(fixed_circuit::run(&scenario(), &cfg)))
    });
    g.finish();
}

fn bench_fig4_fixed_guard(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig4_fixed_guard");
    g.sample_size(10);
    let cfg = fixed_guard::Config {
        sites: 30,
        repeats: 1,
    };
    g.bench_function("30_sites", |b| {
        b.iter(|| black_box(fixed_guard::run(&scenario(), &cfg)))
    });
    g.finish();
}

fn bench_fig5_file_download(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig5_file_download");
    g.sample_size(10);
    let cfg = file_download::Config {
        attempts: 3,
        sizes: ptperf_web::FILE_SIZES,
    };
    g.bench_function("13_pts_5_sizes", |b| {
        b.iter(|| black_box(file_download::run(&scenario(), &cfg)))
    });
    g.finish();
}

fn bench_fig6_ttfb(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig6_ttfb");
    g.sample_size(10);
    let cfg = ttfb::Config { sites_per_list: 20 };
    g.bench_function("40_sites", |b| {
        b.iter(|| black_box(ttfb::run(&scenario(), &cfg)))
    });
    g.finish();
}

fn bench_fig7_location(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig7_location");
    g.sample_size(10);
    let cfg = location::Config {
        sites_per_list: 8,
        repeats: 1,
        all_pts: false,
    };
    g.bench_function("3x3_grid_showcase", |b| {
        b.iter(|| black_box(location::run(&scenario(), &cfg)))
    });
    g.finish();
}

fn bench_fig8_reliability(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig8_reliability");
    g.sample_size(10);
    let cfg = reliability::Config {
        attempts: 4,
        sizes: ptperf_web::FILE_SIZES,
    };
    g.bench_function("12_pts_4_attempts", |b| {
        b.iter(|| black_box(reliability::run(&scenario(), &cfg)))
    });
    g.finish();
}

fn bench_medium_change(c: &mut Criterion) {
    let mut g = c.benchmark_group("medium_change");
    g.sample_size(10);
    let cfg = medium::Config {
        sites_per_list: 10,
        repeats: 1,
    };
    g.bench_function("wired_vs_wireless", |b| {
        b.iter(|| black_box(medium::run(&scenario(), &cfg)))
    });
    g.finish();
}

fn bench_fig9_overhead(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig9_overhead");
    g.sample_size(10);
    let cfg = overhead::Config { sites: 20 };
    g.bench_function("20_sites_8_pts", |b| {
        b.iter(|| black_box(overhead::run(&scenario(), &cfg)))
    });
    g.finish();
}

fn bench_fig10_snowflake_load(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig10_snowflake_load");
    g.sample_size(10);
    let cfg = snowflake_load::Config {
        sites_per_list: 20,
        repeats: 1,
        monitor_weeks: 3,
        monitor_sites: 10,
    };
    g.bench_function("pre_post_plus_weekly", |b| {
        b.iter(|| black_box(snowflake_load::run(&scenario(), &cfg)))
    });
    g.finish();
}

fn bench_fig11_speed_index(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig11_speed_index");
    g.sample_size(10);
    let cfg = speed_index::Config { sites_per_list: 15 };
    g.bench_function("browsertime_30_sites", |b| {
        b.iter(|| black_box(speed_index::run(&scenario(), &cfg)))
    });
    g.finish();
}

fn bench_streaming_extension(c: &mut Criterion) {
    let mut g = c.benchmark_group("streaming_extension");
    g.sample_size(10);
    let cfg = streaming::Config {
        sessions: 3,
        duration: ptperf_sim::SimDuration::from_secs(120),
    };
    g.bench_function("audio_and_video_qoe", |b| {
        b.iter(|| black_box(streaming::run(&scenario(), &cfg)))
    });
    g.finish();
}

fn bench_campaign_parallelism(c: &mut Criterion) {
    // Every target at quick scale, sequential vs parallel: one shard
    // pool, the same bit-for-bit results, different wall clock. Small
    // sample size because each iteration is a whole campaign.
    let mut g = c.benchmark_group("campaign_parallelism");
    g.sample_size(3);
    let workers = std::thread::available_parallelism().map_or(4, |n| n.get());
    for (name, par) in [
        ("quick_sequential", Parallelism::sequential()),
        ("quick_parallel_auto", Parallelism::new(workers)),
    ] {
        g.bench_function(name, |b| {
            b.iter(|| {
                black_box(
                    run_targets(&available_targets(), &scenario(), RunScale::Quick, &par)
                        .expect("campaign units do not panic"),
                )
            })
        });
    }
    g.finish();
}

criterion_group!(
    figures,
    bench_fig2a_website_curl,
    bench_fig2b_website_selenium,
    bench_tables_3_4_ttests,
    bench_fig3_fixed_circuit,
    bench_fig4_fixed_guard,
    bench_fig5_file_download,
    bench_fig6_ttfb,
    bench_fig7_location,
    bench_fig8_reliability,
    bench_medium_change,
    bench_fig9_overhead,
    bench_fig10_snowflake_load,
    bench_fig11_speed_index,
    bench_streaming_extension,
    bench_campaign_parallelism,
);
criterion_main!(figures);
