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
    // Paper-scale fig2a is 13 equal shards, long enough to time. Each
    // of three rounds times one sequential and one parallel run back to
    // back, alternating which goes first, so a burst of host noise
    // lands on both sides of a round rather than on one side's runs;
    // the best run per side decides the verdict.
    let scenario = Scenario::baseline(42);
    let time = |par: &Parallelism| {
        let started = std::time::Instant::now();
        let runs = run_targets(&["fig2a"], &scenario, RunScale::Paper, par).expect("no panics");
        (started.elapsed(), runs.targets.len())
    };
    let workers = cores.min(4);
    let (sequential, parallel) = (Parallelism::sequential(), Parallelism::new(workers));
    let mut sequential_wall = std::time::Duration::MAX;
    let mut parallel_wall = std::time::Duration::MAX;
    for round in 0..3 {
        let ((seq, seq_targets), (par, par_targets)) = if round % 2 == 0 {
            let seq = time(&sequential);
            (seq, time(&parallel))
        } else {
            let par = time(&parallel);
            (time(&sequential), par)
        };
        assert_eq!(seq_targets, par_targets);
        sequential_wall = sequential_wall.min(seq);
        parallel_wall = parallel_wall.min(par);
    }
    let (seq_s, par_s) = (sequential_wall.as_secs_f64(), parallel_wall.as_secs_f64());
    eprintln!(
        "paper fig2a: sequential {seq_s:.3}s, {workers} workers {par_s:.3}s ({:.2}x)",
        seq_s / par_s
    );

    // Two idle workers run it about 1.4–1.7× faster than one; 1.2× keeps
    // the check clear of noise on a loaded 2-core host.
    assert!(
        par_s < seq_s / 1.2,
        "{workers} workers took {par_s:.3}s, not measurably faster than sequential {seq_s:.3}s"
    );
}
