//! Timed replicas: wall-clock timers around the calls into each layer.
//!
//! Seven families' shard loops are replicated here as executor units,
//! drawing from the same RNG stream tags in the same order as the
//! families' own `units()`, so their shards feed the families' own
//! `merge()` and render byte-identical artifacts (the benchmark gates on
//! that digest). Each replica times every call into a layer —
//! `establish_with`, `curl::fetch`, `browser::load_page_pooled`,
//! `filedl::download_faulted`, `streaming::play` — into per-shard
//! [`Hist`]s of wall nanoseconds, returned next to the shard value.
//!
//! A replica that drifts from its family changes the digest, so when a
//! family's loop changes, the replica here must change with it.

use std::sync::Arc;
use std::time::Instant;

use ptperf::executor::Unit;
use ptperf::experiments::{
    figure_order, file_download, location, reliability, speed_index, streaming, website_curl,
    website_selenium,
};
use ptperf::obs::Hist;
use ptperf::scenario::{Epoch, Scenario};
use ptperf::sim::{Location, SimRng};
use ptperf::transports::{
    fault_bias, transport_for, AccessOptions, Deployment, EstablishScratch, PluggableTransport,
    PtId,
};
use ptperf::web::streaming::{play, MediaStream, StreamingSession};
use ptperf::web::{
    browser, curl, filedl, Channel, FaultSession, FaultStats, Outcome, ReliabilityCounts, Website,
};

/// Wall-clock record of the calls into one layer.
#[derive(Debug, Default, Clone)]
pub struct Timer {
    /// Calls timed.
    pub calls: u64,
    /// Total wall time inside the calls, ns.
    pub self_ns: u64,
    /// Per-call wall time distribution, created on the first call so
    /// shards that never enter a layer carry no bucket array.
    hist: Option<Hist>,
}

impl Timer {
    /// Runs `f`, charging its wall time to this layer.
    fn time<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let started = Instant::now();
        let out = f();
        let ns = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.calls += 1;
        self.self_ns += ns;
        self.hist.get_or_insert_with(Hist::new).record(ns);
        out
    }

    fn merge(&mut self, other: &Timer) {
        self.calls += other.calls;
        self.self_ns += other.self_ns;
        if let Some(h) = &other.hist {
            self.hist.get_or_insert_with(Hist::new).merge(h);
        }
    }

    /// Wall-time quantile in ns (0 when the layer was never called).
    pub fn quantile_ns(&self, q: f64) -> u64 {
        self.hist.as_ref().map_or(0, |h| h.quantile(q))
    }
}

/// Everything a traced shard measured, merged across shards.
#[derive(Debug, Default, Clone)]
pub struct Layers {
    /// `PluggableTransport::establish_with`.
    pub establish: Timer,
    /// `(calls, ns)` of `establish_with` per PT, by `PtId::index`.
    pub establish_by_pt: [(u64, u64); PtId::COUNT],
    /// `curl::fetch`.
    pub curl: Timer,
    /// `browser::load_page_pooled`.
    pub browser: Timer,
    /// `filedl::download_faulted`.
    pub filedl: Timer,
    /// `streaming::play`.
    pub streaming: Timer,
    /// Fetches that did not complete.
    pub curl_failed: u64,
    /// Page loads the browser refused.
    pub browser_failed: u64,
    /// Downloads that delivered nothing.
    pub filedl_failed: u64,
    /// Downloads that delivered part of the file.
    pub filedl_partial: u64,
    /// Measurement operations started.
    pub attempted: u64,
    /// Operations a shard skipped after a failure ended it early.
    pub skipped: u64,
    /// Fault dispositions of the shards' fault sessions.
    pub faults: FaultStats,
}

impl Layers {
    /// Folds another shard's record into this one.
    pub fn merge(&mut self, other: &Layers) {
        self.establish.merge(&other.establish);
        for (a, b) in self.establish_by_pt.iter_mut().zip(&other.establish_by_pt) {
            a.0 += b.0;
            a.1 += b.1;
        }
        self.curl.merge(&other.curl);
        self.browser.merge(&other.browser);
        self.filedl.merge(&other.filedl);
        self.streaming.merge(&other.streaming);
        self.curl_failed += other.curl_failed;
        self.browser_failed += other.browser_failed;
        self.filedl_failed += other.filedl_failed;
        self.filedl_partial += other.filedl_partial;
        self.attempted += other.attempted;
        self.skipped += other.skipped;
        self.faults.injected += other.faults.injected;
        self.faults.retried += other.faults.retried;
        self.faults.recovered += other.faults.recovered;
        self.faults.gave_up += other.faults.gave_up;
    }

    /// Total wall time inside every timed layer, ns.
    pub fn self_ns(&self) -> u64 {
        [
            &self.establish,
            &self.curl,
            &self.browser,
            &self.filedl,
            &self.streaming,
        ]
        .iter()
        .map(|t| t.self_ns)
        .sum()
    }

    fn establish(&mut self, pt: PtId, f: impl FnOnce() -> Channel) -> Channel {
        let before = self.establish.self_ns;
        let ch = self.establish.time(f);
        let slot = &mut self.establish_by_pt[pt.index()];
        slot.0 += 1;
        slot.1 += self.establish.self_ns - before;
        ch
    }
}

/// A traced unit: the family's shard plus what its calls cost.
pub type TimedUnit<S> = Unit<(S, Layers)>;

/// `measure::curl_site_averages_pooled` with timers: one PT over
/// `sites`, `repeats` fetches per site, per-site averages in site order.
fn curl_averages(
    sc: &Scenario,
    pt: PtId,
    sites: &[Website],
    repeats: usize,
    rng: &mut SimRng,
    scratch: &mut EstablishScratch,
    lay: &mut Layers,
) -> Vec<f64> {
    let dep = sc.deployment();
    let opts = sc.access_options();
    let transport = transport_for(pt);
    let mut averages = Vec::with_capacity(sites.len());
    for site in sites {
        let mut total = 0.0;
        for _ in 0..repeats {
            let ch = lay.establish(pt, || {
                transport.establish_with(&dep, &opts, site.server, rng, scratch)
            });
            let fetch = lay.curl.time(|| curl::fetch(&ch, site, rng));
            lay.attempted += 1;
            lay.curl_failed += u64::from(fetch.outcome != Outcome::Complete);
            total += fetch.total.as_secs_f64();
        }
        averages.push(total / repeats as f64);
    }
    averages
}

/// Figure 2a's units (`fig2a/{pt}` streams).
pub fn website_curl(
    scenario: &Scenario,
    cfg: &website_curl::Config,
) -> Vec<TimedUnit<website_curl::Shard>> {
    let sites = scenario.target_sites(cfg.sites_per_list);
    let cfg = *cfg;
    figure_order()
        .into_iter()
        .map(|pt| {
            let scenario = scenario.clone();
            let sites = Arc::clone(&sites);
            Unit::pooled(format!("fig2a/{pt}"), move |_, scratch| {
                let mut lay = Layers::default();
                let mut rng = scenario.rng(&format!("fig2a/{pt}"));
                let avgs = curl_averages(
                    &scenario,
                    pt,
                    &sites,
                    cfg.repeats,
                    &mut rng,
                    &mut scratch.establish,
                    &mut lay,
                );
                let n = avgs.len();
                (((pt, avgs), lay), n)
            })
        })
        .collect()
}

/// Figure 7's units (`fig7/{client}/{server}/{pt}` streams).
pub fn location(scenario: &Scenario, cfg: &location::Config) -> Vec<TimedUnit<location::Shard>> {
    let pts = if cfg.all_pts {
        figure_order()
    } else {
        location::SHOWCASE.to_vec()
    };
    let sites = scenario.target_sites(cfg.sites_per_list);
    let cfg = *cfg;
    let mut units = Vec::new();
    for &client in &Location::CLIENTS {
        for &server in &Location::SERVERS {
            let mut sc = scenario.clone();
            sc.client = client;
            sc.server_region = server;
            for &pt in &pts {
                let sc = sc.clone();
                let sites = Arc::clone(&sites);
                units.push(Unit::pooled(
                    format!("fig7/{client}/{server}/{pt}"),
                    move |_, scratch| {
                        let mut lay = Layers::default();
                        let mut rng = sc.rng(&format!("fig7/{client}/{server}/{pt}"));
                        let avgs = curl_averages(
                            &sc,
                            pt,
                            &sites,
                            cfg.repeats,
                            &mut rng,
                            &mut scratch.establish,
                            &mut lay,
                        );
                        let n = avgs.len();
                        ((((client, server, pt), avgs), lay), n)
                    },
                ));
            }
        }
    }
    units
}

/// Lifts a pre-surge scenario to `epoch`, as the browser and bulk
/// families do (their campaigns ran after the surge began).
fn lifted(scenario: &Scenario, epoch: Epoch) -> Arc<Scenario> {
    let mut sc = scenario.clone();
    if matches!(sc.epoch, Epoch::PreSurge) {
        sc.epoch = epoch;
    }
    Arc::new(sc)
}

/// Figure 2b's units (`fig2b/{pt}` streams, plateau epoch).
pub fn website_selenium(
    scenario: &Scenario,
    cfg: &website_selenium::Config,
) -> Vec<TimedUnit<website_selenium::Shard>> {
    let scenario = lifted(scenario, Epoch::Plateau);
    let sites = scenario.target_sites(cfg.sites_per_list);
    let cfg = *cfg;
    figure_order()
        .into_iter()
        .map(|pt| {
            let scenario = Arc::clone(&scenario);
            let sites = Arc::clone(&sites);
            Unit::pooled(format!("fig2b/{pt}"), move |rec, scratch| {
                let mut lay = Layers::default();
                let transport = transport_for(pt);
                let dep = scenario.deployment();
                let opts = scenario.access_options();
                let mut rng = scenario.rng(&format!("fig2b/{pt}"));
                let mut per_site = Vec::with_capacity(sites.len());
                for (i, site) in sites.iter().enumerate() {
                    let mut total = 0.0;
                    for r in 0..cfg.repeats {
                        let ch = lay.establish(pt, || {
                            transport.establish_with(
                                &dep,
                                &opts,
                                site.server,
                                &mut rng,
                                &mut scratch.establish,
                            )
                        });
                        lay.attempted += 1;
                        let page = lay.browser.time(|| {
                            browser::load_page_pooled(&ch, site, &mut rng, rec, &mut scratch.page)
                        });
                        match page {
                            Ok(page) => total += page.total.as_secs_f64(),
                            Err(_) => {
                                // The family abandons the PT at its first
                                // refused load; the rest of its plan is skipped.
                                lay.browser_failed += 1;
                                let left =
                                    (sites.len() - i - 1) * cfg.repeats + (cfg.repeats - r - 1);
                                lay.skipped += left as u64;
                                return (((pt, None), lay), 0);
                            }
                        }
                    }
                    per_site.push(total / cfg.repeats as f64);
                }
                let n = per_site.len();
                (((pt, Some(per_site)), lay), n)
            })
        })
        .collect()
}

/// Figure 11's units (`fig11/{pt}` streams, plateau epoch).
pub fn speed_index(
    scenario: &Scenario,
    cfg: &speed_index::Config,
) -> Vec<TimedUnit<speed_index::Shard>> {
    let scenario = lifted(scenario, Epoch::Plateau);
    let sites = scenario.target_sites(cfg.sites_per_list);
    figure_order()
        .into_iter()
        .map(|pt| {
            let scenario = Arc::clone(&scenario);
            let sites = Arc::clone(&sites);
            Unit::pooled(format!("fig11/{pt}"), move |rec, scratch| {
                let mut lay = Layers::default();
                let transport = transport_for(pt);
                let dep = scenario.deployment();
                let opts = scenario.access_options();
                let mut rng = scenario.rng(&format!("fig11/{pt}"));
                let mut si = Vec::new();
                let mut lt = Vec::new();
                for (i, site) in sites.iter().enumerate() {
                    let ch = lay.establish(pt, || {
                        transport.establish_with(
                            &dep,
                            &opts,
                            site.server,
                            &mut rng,
                            &mut scratch.establish,
                        )
                    });
                    lay.attempted += 1;
                    let page = lay.browser.time(|| {
                        browser::load_page_pooled(&ch, site, &mut rng, rec, &mut scratch.page)
                    });
                    match page {
                        Ok(page) => {
                            si.push(page.speed_index.as_secs_f64());
                            lt.push(page.total.as_secs_f64());
                        }
                        Err(_) => {
                            lay.browser_failed += 1;
                            lay.skipped += (sites.len() - i - 1) as u64;
                            return (((pt, None), lay), 0);
                        }
                    }
                }
                let n = si.len();
                (((pt, Some((si, lt))), lay), n)
            })
        })
        .collect()
}

/// A bulk-download shard's fixed inputs: transport, deployment, access
/// options and file server, resolved once per shard as the families do.
struct BulkShard {
    transport: Box<dyn PluggableTransport>,
    dep: Arc<Deployment>,
    opts: AccessOptions,
    file_server: Location,
}

impl BulkShard {
    fn new(sc: &Scenario, pt: PtId) -> BulkShard {
        BulkShard {
            transport: transport_for(pt),
            dep: sc.deployment(),
            opts: sc.access_options(),
            file_server: sc.server_region,
        }
    }

    /// One download of `size` bytes through the shard's fault session.
    fn download(
        &self,
        size: u64,
        rng: &mut SimRng,
        scratch: &mut EstablishScratch,
        faults: &mut FaultSession,
        lay: &mut Layers,
    ) -> filedl::Download {
        let ch = lay.establish(self.transport.id(), || {
            self.transport
                .establish_with(&self.dep, &self.opts, self.file_server, rng, scratch)
        });
        let d = lay
            .filedl
            .time(|| filedl::download_faulted(&ch, size, rng, faults));
        lay.attempted += 1;
        lay.filedl_failed += u64::from(d.outcome == Outcome::Failed);
        lay.filedl_partial += u64::from(d.outcome == Outcome::Partial);
        d
    }
}

/// Figure 5's units (`fig5/{pt}` streams, plateau epoch).
pub fn file_download(
    scenario: &Scenario,
    cfg: &file_download::Config,
) -> Vec<TimedUnit<file_download::Shard>> {
    let scenario = lifted(scenario, Epoch::Plateau);
    let cfg = *cfg;
    figure_order()
        .into_iter()
        .map(|pt| {
            let scenario = Arc::clone(&scenario);
            Unit::pooled(format!("fig5/{pt}"), move |_, scratch| {
                let mut lay = Layers::default();
                let shard = BulkShard::new(&scenario, pt);
                let mut rng = scenario.rng(&format!("fig5/{pt}"));
                let mut faults = scenario.fault_session(&format!("fig5/{pt}"), fault_bias(pt));
                let mut list = Vec::with_capacity(cfg.sizes.len() * cfg.attempts);
                for &size in &cfg.sizes {
                    for _ in 0..cfg.attempts {
                        let d = shard.download(
                            size,
                            &mut rng,
                            &mut scratch.establish,
                            &mut faults,
                            &mut lay,
                        );
                        list.push(file_download::Attempt {
                            size,
                            elapsed: d.elapsed.as_secs_f64(),
                            fraction: d.fraction,
                            outcome: d.outcome,
                        });
                    }
                }
                lay.faults = faults.stats();
                let n = list.len();
                (((pt, list), lay), n)
            })
        })
        .collect()
}

/// Figure 8's units (`fig8/{pt}` streams, surge epoch, vanilla skipped).
pub fn reliability(
    scenario: &Scenario,
    cfg: &reliability::Config,
) -> Vec<TimedUnit<reliability::Shard>> {
    let scenario = lifted(scenario, Epoch::Surge);
    let cfg = *cfg;
    figure_order()
        .into_iter()
        .filter(|&pt| pt != PtId::Vanilla)
        .map(|pt| {
            let scenario = Arc::clone(&scenario);
            Unit::pooled(format!("fig8/{pt}"), move |_, scratch| {
                let mut lay = Layers::default();
                let shard = BulkShard::new(&scenario, pt);
                let mut rng = scenario.rng(&format!("fig8/{pt}"));
                let mut faults = scenario.fault_session(&format!("fig8/{pt}"), fault_bias(pt));
                let mut counts = ReliabilityCounts::default();
                let mut fractions = Vec::with_capacity(cfg.sizes.len() * cfg.attempts);
                for &size in &cfg.sizes {
                    for _ in 0..cfg.attempts {
                        let d = shard.download(
                            size,
                            &mut rng,
                            &mut scratch.establish,
                            &mut faults,
                            &mut lay,
                        );
                        counts.record(d.outcome);
                        fractions.push(d.fraction);
                    }
                }
                lay.faults = faults.stats();
                let n = fractions.len();
                (((pt, counts, fractions), lay), n)
            })
        })
        .collect()
}

/// `streaming::Qoe::from_sessions`, summing in the same order so the
/// floating-point results match bit for bit.
fn qoe(sessions: &[StreamingSession]) -> streaming::Qoe {
    let n = sessions.len() as f64;
    streaming::Qoe {
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

/// The streaming extension's units (`streaming/{pt}` streams): audio
/// sessions, then video sessions, on one RNG stream.
pub fn streaming(scenario: &Scenario, cfg: &streaming::Config) -> Vec<TimedUnit<streaming::Shard>> {
    let cfg = *cfg;
    figure_order()
        .into_iter()
        .map(|pt| {
            let scenario = scenario.clone();
            Unit::pooled(format!("streaming/{pt}"), move |_, scratch| {
                let mut lay = Layers::default();
                let dep = scenario.deployment();
                let opts = scenario.access_options();
                let transport = transport_for(pt);
                let mut rng = scenario.rng(&format!("streaming/{pt}"));
                let mut run_medium = |media: MediaStream, lay: &mut Layers| {
                    let sessions: Vec<StreamingSession> = (0..cfg.sessions)
                        .map(|_| {
                            let ch = lay.establish(pt, || {
                                transport.establish_with(
                                    &dep,
                                    &opts,
                                    scenario.server_region,
                                    &mut rng,
                                    &mut scratch.establish,
                                )
                            });
                            lay.attempted += 1;
                            lay.streaming.time(|| play(&ch, &media, &mut rng))
                        })
                        .collect();
                    qoe(&sessions)
                };
                let audio = run_medium(MediaStream::audio(cfg.duration), &mut lay);
                let video = run_medium(MediaStream::video(cfg.duration), &mut lay);
                (((pt, audio, video), lay), cfg.sessions * 2)
            })
        })
        .collect()
}
