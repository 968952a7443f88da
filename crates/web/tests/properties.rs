//! Property tests for the workload layer: corpus bounds, client outcome
//! consistency, and streaming QoE invariants over arbitrary channels.

use proptest::prelude::*;

use ptperf_sim::{SimDuration, SimRng, TransferModel};
use ptperf_web::streaming::{play, MediaStream};
use ptperf_web::{curl, download, Channel, Outcome, SiteList, Website};

fn arb_channel() -> impl Strategy<Value = Channel> {
    (
        10u64..2_000,                                  // rtt ms
        10_000.0f64..10_000_000.0,                     // bottleneck
        0.0f64..0.05,                                  // loss
        0u64..10_000,                                  // setup ms
        0u64..5_000,                                   // per-request extra ms
        proptest::option::of(5_000.0f64..1_000_000.0), // carrier cap
        0.0f64..0.05,                                  // hazard
        0.0f64..0.3,                                   // connect failure
    )
        .prop_map(|(rtt, bw, loss, setup, extra, cap, hazard, fail)| {
            let mut ch = Channel::ideal(TransferModel::relayed(
                SimDuration::from_millis(rtt),
                bw,
                loss,
            ));
            ch.setup = SimDuration::from_millis(setup);
            ch.per_request_extra = SimDuration::from_millis(extra);
            ch.rate_cap = cap;
            ch.hazard_per_sec = hazard;
            ch.connect_failure_p = fail;
            ch
        })
}

proptest! {
    /// Every generated website respects the corpus bounds.
    #[test]
    fn corpus_bounds(rank in 0usize..5_000, tranco in any::<bool>()) {
        let list = if tranco { SiteList::Tranco } else { SiteList::Cbl };
        let site = Website::generate(list, rank);
        prop_assert!((4_000..=3_000_000).contains(&site.main_size));
        prop_assert!((2..=120).contains(&site.resources.len()));
        for &r in &site.resources {
            prop_assert!((300..=4_000_000).contains(&r));
        }
        prop_assert!(site.server_processing < SimDuration::from_secs(5));
    }

    /// curl outcomes are internally consistent for any channel: complete
    /// ⇔ fraction 1; ttfb ≤ total; everything within the timeout.
    #[test]
    fn curl_outcome_consistency(ch in arb_channel(), seed in any::<u64>(), rank in 0usize..500) {
        let site = Website::generate(SiteList::Tranco, rank);
        let mut rng = SimRng::new(seed);
        let r = curl::fetch(&ch, &site, &mut rng);
        prop_assert!(r.ttfb <= r.total);
        prop_assert!(r.total <= curl::PAGE_TIMEOUT);
        prop_assert!((0.0..=1.0).contains(&r.fraction));
        match r.outcome {
            Outcome::Complete => prop_assert_eq!(r.fraction, 1.0),
            Outcome::Partial => prop_assert!(r.fraction < 1.0),
            Outcome::Failed => prop_assert_eq!(r.fraction, 0.0),
        }
    }

    /// Downloads are monotone in size on hazard-free channels and their
    /// outcomes stay consistent on any channel.
    #[test]
    fn download_consistency(ch in arb_channel(), seed in any::<u64>(), size in 1u64..200_000_000) {
        let mut rng = SimRng::new(seed);
        let d = download(&ch, size, &mut rng);
        prop_assert!((0.0..=1.0).contains(&d.fraction));
        prop_assert!(d.elapsed <= ptperf_web::FILE_TIMEOUT);
        if d.outcome == Outcome::Complete {
            prop_assert_eq!(d.fraction, 1.0);
        }

        // Monotonicity without failure randomness.
        let mut clean = ch.clone();
        clean.hazard_per_sec = 0.0;
        clean.connect_failure_p = 0.0;
        let mut rng_a = SimRng::new(seed);
        let mut rng_b = SimRng::new(seed);
        let small = download(&clean, size, &mut rng_a);
        let large = download(&clean, size.saturating_mul(2).max(size + 1), &mut rng_b);
        prop_assert!(large.elapsed >= small.elapsed);
    }

    /// Streaming sessions have sane QoE numbers on any channel.
    #[test]
    fn streaming_invariants(ch in arb_channel(), seed in any::<u64>(), secs in 10u64..600) {
        let mut rng = SimRng::new(seed);
        let media = MediaStream::audio(SimDuration::from_secs(secs));
        let s = play(&ch, &media, &mut rng);
        prop_assert!(s.rebuffer_ratio >= 0.0);
        if s.outcome == Outcome::Complete {
            prop_assert!(s.startup_delay >= ch.setup);
        }
        // Rebuffer time never exceeds a sane multiple of what fetching
        // every segment from scratch could cost.
        prop_assert!(s.rebuffer_time < SimDuration::from_secs(secs * 1000 + 100_000));
    }

    /// A strictly better channel never slows a clean fetch down.
    #[test]
    fn faster_channel_dominates(seed in any::<u64>(), rank in 0usize..200, bw in 20_000.0f64..1_000_000.0) {
        let site = Website::generate(SiteList::Cbl, rank);
        let slow = Channel::ideal(TransferModel::relayed(SimDuration::from_millis(300), bw, 0.0));
        let fast = Channel::ideal(TransferModel::relayed(SimDuration::from_millis(300), bw * 4.0, 0.0));
        let mut rng_a = SimRng::new(seed);
        let mut rng_b = SimRng::new(seed);
        let t_slow = curl::fetch(&slow, &site, &mut rng_a).total;
        let t_fast = curl::fetch(&fast, &site, &mut rng_b).total;
        prop_assert!(t_fast <= t_slow);
    }
}
