//! Media-streaming workload — the paper's Appendix A.4 names audio
//! streaming as the natural next use case to evaluate ("other use
//! cases, e.g., audio streaming, could be explored"); this module
//! implements it.
//!
//! The client plays an HLS-style segmented stream through the tunnel:
//! fetch segment, fill the playout buffer, play; every segment fetch
//! pays the channel's per-request costs, and its body moves at the
//! channel's (possibly carrier-capped) rate. The metrics are the
//! QoE standards: startup delay, rebuffer count, and rebuffer ratio.

use ptperf_sim::fault::{FaultEvent, FaultKind};
use ptperf_sim::{SimDuration, SimRng};

use crate::channel::{Channel, Outcome};
use crate::faults::FaultSession;

/// A media stream description.
#[derive(Debug, Clone, Copy)]
pub struct MediaStream {
    /// Media bitrate in bytes per second (e.g. 16 kB/s ≈ 128 kbit/s
    /// audio; 125 kB/s ≈ 1 Mbit/s SD video).
    pub bitrate_bps: f64,
    /// Total media duration.
    pub duration: SimDuration,
    /// Segment length (HLS default: ~6–10 s).
    pub segment: SimDuration,
    /// Playout buffer target before playback starts.
    pub prebuffer: SimDuration,
}

impl MediaStream {
    /// A 128 kbit/s audio stream of the given duration.
    pub fn audio(duration: SimDuration) -> MediaStream {
        MediaStream {
            bitrate_bps: 16_000.0,
            duration,
            segment: SimDuration::from_secs(10),
            prebuffer: SimDuration::from_secs(5),
        }
    }

    /// A 1 Mbit/s SD video stream of the given duration.
    pub fn video(duration: SimDuration) -> MediaStream {
        MediaStream {
            bitrate_bps: 125_000.0,
            duration,
            segment: SimDuration::from_secs(6),
            prebuffer: SimDuration::from_secs(8),
        }
    }

    /// Number of segments.
    pub fn segments(&self) -> u64 {
        self.duration
            .as_nanos()
            .div_ceil(self.segment.as_nanos().max(1))
    }

    /// Bytes per segment.
    pub fn segment_bytes(&self) -> u64 {
        (self.bitrate_bps * self.segment.as_secs_f64()) as u64
    }
}

/// Result of one streaming session.
#[derive(Debug, Clone, Copy)]
pub struct StreamingSession {
    /// Time from pressing play to playback starting.
    pub startup_delay: SimDuration,
    /// Number of mid-playback stalls.
    pub rebuffer_events: u32,
    /// Total stalled time.
    pub rebuffer_time: SimDuration,
    /// Stall time as a fraction of media duration.
    pub rebuffer_ratio: f64,
    /// How the session ended.
    pub outcome: Outcome,
}

impl StreamingSession {
    /// A session is watchable when it started and stalled for less than
    /// 5% of its duration (a common QoE threshold).
    pub fn watchable(&self) -> bool {
        self.outcome == Outcome::Complete && self.rebuffer_ratio < 0.05
    }
}

/// Plays `media` through `channel`.
///
/// Segments are fetched sequentially (one logical stream, like an HLS
/// player over a SOCKS proxy); the playout buffer drains in real time
/// once playback starts.
pub fn play(channel: &Channel, media: &MediaStream, rng: &mut SimRng) -> StreamingSession {
    if rng.chance(channel.connect_failure_p) {
        return StreamingSession {
            startup_delay: SimDuration::ZERO,
            rebuffer_events: 0,
            rebuffer_time: SimDuration::ZERO,
            rebuffer_ratio: 1.0,
            outcome: Outcome::Failed,
        };
    }

    let seg_bytes = media.segment_bytes();
    // Per-segment wall time: request round trip + body transfer. The
    // tunnel is already up after the first segment, so setup is paid
    // once.
    let per_segment_overhead =
        channel.stream_open + channel.per_request_extra + channel.request_rtt;
    let seg_fetch = |_rng: &mut SimRng| -> SimDuration {
        per_segment_overhead + channel.transfer_time(seg_bytes)
    };

    // Prebuffer phase: fetch segments until `prebuffer` seconds of media
    // are buffered.
    let mut wall = channel.setup;
    let mut buffered = SimDuration::ZERO;
    let mut fetched: u64 = 0;
    let total_segments = media.segments();
    while buffered < media.prebuffer && fetched < total_segments {
        wall += seg_fetch(rng);
        buffered += media.segment;
        fetched += 1;
    }
    let startup_delay = wall;

    // Playback phase: the buffer drains in real time while remaining
    // segments download sequentially.
    let mut rebuffer_events = 0u32;
    let mut rebuffer_time = SimDuration::ZERO;
    // Hazard: the tunnel can die mid-session; the player reconnects,
    // paying setup again and one rebuffer.
    let mut hazard_budget = if channel.hazard_per_sec > 0.0 {
        Some(rng.exponential(1.0 / channel.hazard_per_sec))
    } else {
        None
    };

    while fetched < total_segments {
        let fetch_time = seg_fetch(rng);
        // Mid-session death?
        if let Some(budget) = hazard_budget.as_mut() {
            *budget -= fetch_time.as_secs_f64();
            if *budget <= 0.0 {
                rebuffer_events += 1;
                rebuffer_time += channel.setup;
                *budget = rng.exponential(1.0 / channel.hazard_per_sec);
            }
        }
        // While this segment downloads, the buffer drains.
        if fetch_time > buffered {
            // Stall: the buffer ran dry before the segment landed.
            rebuffer_events += 1;
            rebuffer_time += fetch_time - buffered;
            buffered = SimDuration::ZERO;
        } else {
            buffered -= fetch_time;
        }
        buffered += media.segment;
        fetched += 1;
    }

    let ratio = rebuffer_time.as_secs_f64() / media.duration.as_secs_f64().max(1e-9);
    StreamingSession {
        startup_delay,
        rebuffer_events,
        rebuffer_time,
        rebuffer_ratio: ratio,
        outcome: Outcome::Complete,
    }
}

/// [`play`] through a [`FaultSession`]: off sessions delegate to
/// [`play`] bit-for-bit; active sessions replace the upfront coin flip
/// and the inline hazard budget with a generated fault plan — refused
/// connects retry with backoff, stalls and reconnects become rebuffer
/// time at the segment where the plan lands them, degradation slows
/// every later segment fetch, and an exhausted retry budget ends the
/// session early as `Partial`.
pub fn play_faulted(
    channel: &Channel,
    media: &MediaStream,
    rng: &mut SimRng,
    faults: &mut FaultSession,
) -> StreamingSession {
    if !faults.is_active() {
        return play(channel, media, rng);
    }

    let seg_bytes = media.segment_bytes();
    let per_segment_overhead =
        channel.stream_open + channel.per_request_extra + channel.request_rtt;
    let seg_fetch_base = per_segment_overhead + channel.transfer_time(seg_bytes);
    let total_segments = media.segments();
    let total_fetch_secs = seg_fetch_base.as_secs_f64() * total_segments as f64;
    let plan = faults.plan(&FaultSession::knobs(channel, total_fetch_secs));
    let policy = faults.policy();

    let mut attempt = 0u32;
    let mut slow = 1.0f64;
    let mut wall = channel.setup;

    // Connect-phase events: degradation applies up front, each refusal
    // burns a retry (reconnect + backoff) or fails the session.
    for e in plan.events().iter().filter(|e| e.at <= 0.0) {
        match e.kind {
            FaultKind::Degrade(f) => {
                faults.count(1, 0, 1, 0);
                slow *= f.max(1.0);
            }
            FaultKind::ConnectRefusal => {
                if attempt >= policy.max_retries {
                    faults.count(1, 0, 0, 1);
                    return StreamingSession {
                        startup_delay: SimDuration::ZERO,
                        rebuffer_events: 0,
                        rebuffer_time: SimDuration::ZERO,
                        rebuffer_ratio: 1.0,
                        outcome: Outcome::Failed,
                    };
                }
                faults.count(1, 1, 0, 0);
                wall += channel.setup + policy.backoff(attempt);
                attempt += 1;
            }
            _ => {}
        }
    }

    let mid: Vec<FaultEvent> = plan.mid_events().copied().collect();
    let mut idx = 0usize;

    let mut buffered = SimDuration::ZERO;
    let mut fetched: u64 = 0;
    let mut playing = false;
    let mut startup_delay = SimDuration::ZERO;
    let mut rebuffer_events = 0u32;
    let mut rebuffer_time = SimDuration::ZERO;
    let mut outcome = Outcome::Complete;
    let mut done_base_secs = 0.0f64;

    'segments: while fetched < total_segments {
        let fetch_time = seg_fetch_base.mul_f64(slow);

        // Fire every plan event scheduled inside this segment's slice
        // of the fault-free fetch timeline.
        done_base_secs += seg_fetch_base.as_secs_f64();
        let frac = (done_base_secs / total_fetch_secs.max(1e-12)).min(1.0);
        let mut delay = SimDuration::ZERO;
        while idx < mid.len() && mid[idx].at <= frac {
            let e = mid[idx];
            idx += 1;
            match e.kind {
                FaultKind::Stall(d) => {
                    faults.count(1, 0, 1, 0);
                    delay += d;
                    if playing {
                        rebuffer_events += 1;
                    }
                }
                FaultKind::Degrade(f) => {
                    faults.count(1, 0, 1, 0);
                    slow *= f.max(1.0);
                }
                FaultKind::Abort | FaultKind::Churn | FaultKind::ConnectRefusal => {
                    if attempt >= policy.max_retries {
                        faults.count(1, 0, 0, 1);
                        outcome = Outcome::Partial;
                        // The session ends where the fault landed.
                        break 'segments;
                    }
                    faults.count(1, 1, 0, 0);
                    let cost = if matches!(e.kind, FaultKind::Abort) {
                        channel.stream_open + channel.request_rtt
                    } else {
                        channel.setup
                    };
                    delay += cost + policy.backoff(attempt);
                    attempt += 1;
                    if playing {
                        rebuffer_events += 1;
                    }
                }
            }
        }
        if playing {
            rebuffer_time += delay;
        } else {
            wall += delay;
        }

        if playing {
            if fetch_time > buffered {
                rebuffer_events += 1;
                rebuffer_time += fetch_time - buffered;
                buffered = SimDuration::ZERO;
            } else {
                buffered -= fetch_time;
            }
        } else {
            wall += fetch_time;
        }
        buffered += media.segment;
        fetched += 1;
        if !playing && (buffered >= media.prebuffer || fetched >= total_segments) {
            playing = true;
            startup_delay = wall;
        }
    }
    if !playing {
        startup_delay = wall;
    }

    let ratio = rebuffer_time.as_secs_f64() / media.duration.as_secs_f64().max(1e-9);
    StreamingSession {
        startup_delay,
        rebuffer_events,
        rebuffer_time,
        rebuffer_ratio: ratio,
        outcome,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ptperf_sim::TransferModel;

    fn channel(rate: f64, extra_ms: u64) -> Channel {
        let mut ch = Channel::ideal(TransferModel::new(
            SimDuration::from_millis(200),
            rate,
            0.0,
        ));
        ch.per_request_extra = SimDuration::from_millis(extra_ms);
        ch
    }

    #[test]
    fn fast_channel_streams_video_cleanly() {
        let mut rng = SimRng::new(1);
        let s = play(
            &channel(1.0e6, 0),
            &MediaStream::video(SimDuration::from_secs(120)),
            &mut rng,
        );
        assert_eq!(s.outcome, Outcome::Complete);
        assert_eq!(s.rebuffer_events, 0, "rebuffered {s:?}");
        assert!(s.watchable());
        assert!(s.startup_delay < SimDuration::from_secs(5));
    }

    #[test]
    fn under_bitrate_channel_rebuffers_constantly() {
        let mut rng = SimRng::new(2);
        // 60 kB/s < the 125 kB/s video bitrate.
        let s = play(
            &channel(60_000.0, 0),
            &MediaStream::video(SimDuration::from_secs(120)),
            &mut rng,
        );
        assert!(s.rebuffer_events > 3, "{s:?}");
        assert!(!s.watchable());
        // Stall time ≈ media_duration × (bitrate/rate − 1) ≈ 130 s.
        assert!(s.rebuffer_time > SimDuration::from_secs(60), "{s:?}");
    }

    #[test]
    fn audio_is_much_less_demanding() {
        let mut rng = SimRng::new(3);
        let ch = channel(60_000.0, 0);
        let audio = play(&ch, &MediaStream::audio(SimDuration::from_secs(120)), &mut rng);
        assert!(audio.watchable(), "{audio:?}");
    }

    #[test]
    fn per_request_latency_alone_can_break_streaming() {
        // Plenty of bandwidth, but 7 s of per-request overhead per 6 s
        // segment — the camoufler failure mode.
        let mut rng = SimRng::new(4);
        let s = play(
            &channel(2.0e6, 7_000),
            &MediaStream::video(SimDuration::from_secs(60)),
            &mut rng,
        );
        assert!(!s.watchable(), "{s:?}");
        assert!(s.rebuffer_events >= 4, "{s:?}");
    }

    #[test]
    fn startup_includes_prebuffer_fetches() {
        let mut rng = SimRng::new(5);
        let media = MediaStream::audio(SimDuration::from_secs(60));
        let s = play(&channel(16_000.0, 100), &media, &mut rng);
        // Prebuffer 5 s of 16 kB/s audio at exactly line rate: ≥ 5 s of
        // transfer... one 10 s segment at 16 kB/s rate = 10 s.
        assert!(s.startup_delay >= SimDuration::from_secs(5), "{s:?}");
    }

    #[test]
    fn connect_failure_fails_session() {
        let mut rng = SimRng::new(6);
        let mut ch = channel(1.0e6, 0);
        ch.connect_failure_p = 1.0;
        let s = play(&ch, &MediaStream::audio(SimDuration::from_secs(30)), &mut rng);
        assert_eq!(s.outcome, Outcome::Failed);
    }

    #[test]
    fn fragile_channel_rebuffers_on_reconnects() {
        let mut rng = SimRng::new(7);
        let mut ch = channel(1.0e6, 0);
        ch.hazard_per_sec = 0.5; // dies every ~2 s of fetch time
        ch.setup = SimDuration::from_secs(3);
        let s = play(&ch, &MediaStream::video(SimDuration::from_secs(300)), &mut rng);
        assert!(s.rebuffer_events > 0, "{s:?}");
    }

    #[test]
    fn off_session_is_bit_identical_to_plain_play() {
        let mut ch = channel(100_000.0, 50);
        ch.connect_failure_p = 0.2;
        ch.hazard_per_sec = 0.1;
        let media = MediaStream::video(SimDuration::from_secs(120));
        let mut a = SimRng::new(21);
        let mut b = SimRng::new(21);
        let mut off = FaultSession::off();
        for _ in 0..40 {
            let plain = play(&ch, &media, &mut a);
            let faulted = play_faulted(&ch, &media, &mut b, &mut off);
            assert_eq!(plain.startup_delay, faulted.startup_delay);
            assert_eq!(plain.rebuffer_events, faulted.rebuffer_events);
            assert_eq!(plain.rebuffer_time, faulted.rebuffer_time);
            assert_eq!(plain.outcome, faulted.outcome);
            assert_eq!(
                plain.rebuffer_ratio.to_bits(),
                faulted.rebuffer_ratio.to_bits()
            );
        }
    }

    #[test]
    fn faulted_sessions_always_classify() {
        use ptperf_sim::fault::{FaultBias, FaultProfile};
        let mut ch = channel(150_000.0, 100);
        ch.connect_failure_p = 0.3;
        ch.hazard_per_sec = 0.05;
        let media = MediaStream::video(SimDuration::from_secs(300));
        let mut rng = SimRng::new(22);
        let mut s = FaultSession::active(
            FaultProfile::aggressive(),
            FaultBias::balanced(),
            SimRng::new(2_200),
        );
        for _ in 0..40 {
            let session = play_faulted(&ch, &media, &mut rng, &mut s);
            assert!(matches!(
                session.outcome,
                Outcome::Complete | Outcome::Partial | Outcome::Failed
            ));
            assert!(session.rebuffer_ratio >= 0.0);
        }
        assert!(s.stats().injected > 0);
        assert!(s.stats().consistent());
    }

    #[test]
    fn segment_math() {
        let m = MediaStream::video(SimDuration::from_secs(60));
        assert_eq!(m.segments(), 10);
        assert_eq!(m.segment_bytes(), 750_000);
        let a = MediaStream::audio(SimDuration::from_secs(95));
        assert_eq!(a.segments(), 10); // ceil(95/10)
    }
}
