//! More workers finish the campaign sooner. This timing test has a test
//! binary of its own: `cargo test` runs a binary's tests on parallel
//! threads, and a sibling test sharing the cores while it times can
//! slow the parallel side below the bound.

use ptperf::executor::Parallelism;
use ptperf::scenario::Scenario;
use ptperf_bench::{run_targets, RunScale};

#[test]
fn parallel_campaign_is_faster_on_multicore() {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    if cores < 2 {
        eprintln!("skipping speedup check: only one hardware thread");
        return;
    }
    // Paper-scale fig2a is 13 equal shards, long enough to time. The
    // best of three runs per side keeps one unlucky run (a sibling test
    // or another process holding a core) from deciding the verdict.
    let scenario = Scenario::baseline(42);
    let best_of_3 = |par: &Parallelism| {
        (0..3)
            .map(|_| {
                let started = std::time::Instant::now();
                let runs =
                    run_targets(&["fig2a"], &scenario, RunScale::Paper, par).expect("no panics");
                (started.elapsed(), runs.targets.len())
            })
            .min()
            .expect("three runs")
    };
    let workers = cores.min(4);
    let (sequential_wall, seq_targets) = best_of_3(&Parallelism::sequential());
    let (parallel_wall, par_targets) = best_of_3(&Parallelism::new(workers));

    assert_eq!(seq_targets, par_targets);
    // Two idle workers run it about 1.4–1.7× faster than one; 1.2× keeps
    // the check clear of noise on a loaded 2-core host.
    assert!(
        parallel_wall.as_secs_f64() < sequential_wall.as_secs_f64() / 1.2,
        "{workers} workers took {:.3}s, not measurably faster than sequential {:.3}s",
        parallel_wall.as_secs_f64(),
        sequential_wall.as_secs_f64()
    );
}
