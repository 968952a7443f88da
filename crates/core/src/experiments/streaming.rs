//! **Extension (Appendix A.4)** — media streaming through the PTs.
//!
//! The paper names audio streaming as the next use case to evaluate;
//! this runner does it, plus SD video, with the standard QoE metrics:
//! startup delay, rebuffer count, rebuffer ratio, and a "watchable"
//! verdict (< 5% stall time). The expectation from the paper's
//! mechanics: everything streams audio except the pathological
//! transports; video separates the carrier-capped PTs (dnstt,
//! marionette under the video bitrate; camoufler killed by per-request
//! latency) from the rest.

use std::collections::BTreeMap;
use std::fmt::Display;

use ptperf_obs::obs_debug;
use ptperf_sim::SimDuration;
use ptperf_stats::{Fixed, Table};
use ptperf_transports::{transport_for, EstablishScratch, PtId};
use ptperf_web::streaming::{play, MediaStream, StreamingSession};

use crate::executor::{run_units, Parallelism, Unit};
use crate::scenario::Scenario;

use super::figure_order;

/// Configuration.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    /// Sessions per (PT, medium).
    pub sessions: usize,
    /// Media duration per session.
    pub duration: SimDuration,
}

impl Config {
    /// Test-scale preset.
    pub fn quick() -> Config {
        Config {
            sessions: 5,
            duration: SimDuration::from_secs(120),
        }
    }

    /// A fuller run.
    pub fn paper() -> Config {
        Config {
            sessions: 20,
            duration: SimDuration::from_secs(600),
        }
    }
}

/// Aggregate QoE for one (PT, medium).
#[derive(Debug, Clone, Copy)]
pub struct Qoe {
    /// Mean startup delay (seconds).
    pub startup_s: f64,
    /// Mean rebuffer events per session.
    pub rebuffers: f64,
    /// Mean rebuffer ratio.
    pub rebuffer_ratio: f64,
    /// Fraction of sessions that were watchable.
    pub watchable: f64,
}

impl Qoe {
    fn from_sessions(sessions: &[StreamingSession]) -> Qoe {
        let n = sessions.len() as f64;
        Qoe {
            startup_s: sessions
                .iter()
                .map(|s| s.startup_delay.as_secs_f64())
                .sum::<f64>()
                / n,
            rebuffers: sessions
                .iter()
                .map(|s| f64::from(s.rebuffer_events))
                .sum::<f64>()
                / n,
            rebuffer_ratio: sessions.iter().map(|s| s.rebuffer_ratio).sum::<f64>() / n,
            watchable: sessions.iter().filter(|s| s.watchable()).count() as f64 / n,
        }
    }
}

/// Result of the streaming experiment.
#[derive(Debug, Clone)]
pub struct Result {
    /// QoE per PT for audio.
    pub audio: BTreeMap<PtId, Qoe>,
    /// QoE per PT for SD video.
    pub video: BTreeMap<PtId, Qoe>,
}

/// One executor shard: a PT's (audio, video) QoE aggregates from its
/// own RNG stream.
pub type Shard = (PtId, Qoe, Qoe);

/// Decomposes the experiment into one independent unit per PT, each on
/// its own `streaming/{pt}` RNG stream (see [`crate::executor`]).
pub fn units(scenario: &Scenario, cfg: &Config) -> Vec<Unit<Shard>> {
    let cfg = *cfg;
    figure_order()
        .into_iter()
        .map(|pt| {
            let scenario = scenario.clone();
            Unit::pooled(format!("streaming/{pt}"), move |rec, unit_scratch| {
                let dep = scenario.deployment();
                let opts = scenario.access_options();
                let media_server = scenario.server_region;
                let transport = transport_for(pt);
                let mut rng = scenario.rng(&format!("streaming/{pt}"));
                let mut phases = ptperf_obs::PhaseAccum::new();
                let run_medium =
                    |media: MediaStream,
                     rng: &mut ptperf_sim::SimRng,
                     scratch: &mut EstablishScratch,
                     rec: &mut dyn ptperf_obs::Recorder,
                     phases: &mut ptperf_obs::PhaseAccum| {
                        let sessions: Vec<StreamingSession> = (0..cfg.sessions)
                            .map(|_| {
                                let ch = transport.establish_with(
                                    &dep,
                                    &opts,
                                    media_server,
                                    rng,
                                    scratch,
                                );
                                let session = play(&ch, &media, rng);
                                if rec.enabled() {
                                    phases.add_ns("startup", session.startup_delay.as_nanos());
                                    phases.add_ns("playback", cfg.duration.as_nanos());
                                    phases.add_ns("stall", session.rebuffer_time.as_nanos());
                                    phases.hist_ns(
                                        "total",
                                        session.startup_delay.as_nanos()
                                            + cfg.duration.as_nanos()
                                            + session.rebuffer_time.as_nanos(),
                                    );
                                    rec.add("events", 1);
                                }
                                session
                            })
                            .collect();
                        Qoe::from_sessions(&sessions)
                    };
                let audio = run_medium(
                    MediaStream::audio(cfg.duration),
                    &mut rng,
                    &mut unit_scratch.establish,
                    rec,
                    &mut phases,
                );
                let video = run_medium(
                    MediaStream::video(cfg.duration),
                    &mut rng,
                    &mut unit_scratch.establish,
                    rec,
                    &mut phases,
                );
                obs_debug!(
                    "streaming/{pt}: audio watchable {:.2}, video watchable {:.2}",
                    audio.watchable,
                    video.watchable
                );
                phases.emit(rec);
                ((pt, audio, video), cfg.sessions * 2)
            })
        })
        .collect()
}

/// Merges shards (in shard-index order) into the experiment result.
pub fn merge(shards: Vec<Shard>) -> Result {
    let mut audio = BTreeMap::new();
    let mut video = BTreeMap::new();
    for (pt, a, v) in shards {
        audio.insert(pt, a);
        video.insert(pt, v);
    }
    Result { audio, video }
}

/// Runs the experiment.
pub fn run(scenario: &Scenario, cfg: &Config) -> Result {
    let executed = run_units(&Parallelism::sequential(), units(scenario, cfg))
        .expect("campaign units do not panic");
    merge(executed.values)
}

impl Result {
    /// Renders the QoE table.
    pub fn render(&self) -> String {
        let mut out = String::from("Extension (App. A.4) — Media streaming QoE per PT\n");
        for (label, data) in [
            ("audio 128 kbit/s", &self.audio),
            ("video 1 Mbit/s", &self.video),
        ] {
            out.push_str(&format!("\n{label}:\n"));
            let mut table = Table::new(["PT", "startup (s)", "rebuffers", "stall %", "watchable"]);
            for pt in figure_order() {
                let q = &data[&pt];
                table.row([
                    &pt.name() as &dyn Display,
                    &Fixed(q.startup_s, 1),
                    &Fixed(q.rebuffers, 1),
                    &format_args!("{}%", Fixed(q.rebuffer_ratio * 100.0, 0)),
                    &format_args!("{}%", Fixed(q.watchable * 100.0, 0)),
                ]);
            }
            out.push_str(&table.render());
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result() -> Result {
        run(&Scenario::baseline(141), &Config::quick())
    }

    #[test]
    fn good_pts_stream_video() {
        let r = result();
        for pt in [
            PtId::Vanilla,
            PtId::Obfs4,
            PtId::WebTunnel,
            PtId::Cloak,
            PtId::Conjure,
        ] {
            assert!(
                r.video[&pt].watchable > 0.6,
                "{pt}: video watchable {:.2}",
                r.video[&pt].watchable
            );
        }
    }

    #[test]
    fn carrier_capped_pts_cannot_stream_video() {
        let r = result();
        for pt in [PtId::Dnstt, PtId::Marionette, PtId::Camoufler] {
            assert!(
                r.video[&pt].watchable < 0.4,
                "{pt}: video watchable {:.2}",
                r.video[&pt].watchable
            );
        }
    }

    #[test]
    fn audio_is_broadly_feasible() {
        // Audio's 16 kB/s fits under every carrier cap except the
        // per-request-latency pathologies.
        let r = result();
        for pt in [PtId::Vanilla, PtId::Obfs4, PtId::Dnstt, PtId::Shadowsocks] {
            assert!(
                r.audio[&pt].watchable > 0.6,
                "{pt}: audio watchable {:.2}",
                r.audio[&pt].watchable
            );
        }
    }

    #[test]
    fn camoufler_latency_breaks_even_audio() {
        // 6.5 s of per-segment overhead against 10 s segments: stalls.
        let r = result();
        assert!(
            r.audio[&PtId::Camoufler].rebuffer_ratio > 0.05
                || r.audio[&PtId::Camoufler].watchable < 0.8,
            "{:?}",
            r.audio[&PtId::Camoufler]
        );
    }

    #[test]
    fn render_covers_both_media() {
        let text = result().render();
        assert!(text.contains("audio 128"));
        assert!(text.contains("video 1 Mbit"));
        assert!(text.contains("watchable"));
    }
}
