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

use ptperf_sim::{SimDuration, SimRng};

use crate::channel::{Channel, Outcome};

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
    fn segment_math() {
        let m = MediaStream::video(SimDuration::from_secs(60));
        assert_eq!(m.segments(), 10);
        assert_eq!(m.segment_bytes(), 750_000);
        let a = MediaStream::audio(SimDuration::from_secs(95));
        assert_eq!(a.segments(), 10); // ceil(95/10)
    }
}
