//! The browser client model (selenium automation, §4.2 / Figure 2b) and
//! the browsertime speed-index metric (§5.4 / Figure 11).
//!
//! A browser fetch first loads the default page, then discovers the
//! page's sub-resources and loads them over a bounded number of parallel
//! connections that share the tunnel's effective rate (processor sharing
//! over one link, [`ptperf_sim::share_link`]). The page is "loaded" when
//! the last resource lands. The speed index integrates visual
//! completeness over time: each resource contributes visual weight when
//! it finishes, so the index sits *below* the full load time — the
//! paper's §5.4 observation.

use ptperf_obs::{obs_debug, Recorder};
use ptperf_sim::{share_link, LinkFlow, SimDuration, SimRng, SimTime};

use crate::channel::{Channel, Outcome};
use crate::curl::PAGE_TIMEOUT;
use crate::website::Website;

/// How many parallel connections the browser opens per origin (Chrome's
/// per-host default).
pub const BROWSER_PARALLELISM: usize = 6;

/// Reusable page-load scratch: the sub-resource flows and the
/// processor-sharing loop's working and finish-time buffers, owned
/// together so one warm `PageScratch` makes an entire page load
/// allocation-free. A per-worker copy lives inside the executor's
/// `UnitScratch`.
#[derive(Debug, Default)]
pub struct PageScratch {
    flows: Vec<LinkFlow>,
    active: Vec<(usize, f64)>,
    finish: Vec<SimTime>,
    grow_events: u64,
    uses: u64,
}

impl PageScratch {
    /// An empty (cold) scratch.
    pub fn new() -> PageScratch {
        PageScratch::default()
    }

    /// Times any buffer in this scratch had to grow — the workspace's
    /// allocation proxy. Zero growth across a warm page load means the
    /// load performed no heap allocation.
    pub fn grows(&self) -> u64 {
        self.grow_events
    }

    /// Pages served by this scratch so far.
    pub fn uses(&self) -> u64 {
        self.uses
    }

    fn capacities(&self) -> [usize; 3] {
        [
            self.flows.capacity(),
            self.active.capacity(),
            self.finish.capacity(),
        ]
    }
}

/// Result of one browser page load.
#[derive(Debug, Clone, Copy)]
pub struct PageLoad {
    /// Time until the default page (HTML) finished.
    pub main_done: SimDuration,
    /// Time until every sub-resource finished (the paper's selenium page
    /// load time).
    pub total: SimDuration,
    /// Browsertime-style speed index, in seconds of "visual waiting".
    pub speed_index: SimDuration,
    /// Outcome of the load.
    pub outcome: Outcome,
}

/// Errors a browser load can hit before any timing is possible.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BrowserError {
    /// The transport cannot multiplex the browser's parallel requests
    /// (camoufler: single-stream only; the paper excluded it from the
    /// selenium runs for exactly this reason).
    ParallelismUnsupported {
        /// Streams the transport offers.
        supported: usize,
        /// Streams the browser needs.
        required: usize,
    },
}

impl std::fmt::Display for BrowserError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BrowserError::ParallelismUnsupported {
                supported,
                required,
            } => write!(
                f,
                "transport supports {supported} concurrent stream(s); browser needs {required}"
            ),
        }
    }
}

impl std::error::Error for BrowserError {}

/// Loads a full page through `channel`, selenium-style, against a
/// caller-owned [`PageScratch`] — the executor threads one per worker
/// so every page load after the first reuses the same buffers. Per-page
/// counters flow into `rec`; recording never changes a result or an RNG
/// draw.
pub fn load_page_pooled(
    channel: &Channel,
    site: &Website,
    rng: &mut SimRng,
    rec: &mut dyn Recorder,
    scratch: &mut PageScratch,
) -> Result<PageLoad, BrowserError> {
    if channel.max_parallel_streams < 2 {
        obs_debug!(
            "browser: transport supports {} stream(s), needs 2 — page load rejected",
            channel.max_parallel_streams
        );
        return Err(BrowserError::ParallelismUnsupported {
            supported: channel.max_parallel_streams,
            required: 2,
        });
    }
    rec.add("browser/pages", 1);
    rec.add("browser/resources", site.resources.len() as u64);
    if scratch.uses > 0 {
        ptperf_obs::perf::incr_browser_scratch_hits();
    }
    scratch.uses += 1;
    let parallelism = BROWSER_PARALLELISM.min(channel.max_parallel_streams);

    if rng.chance(channel.connect_failure_p) {
        return Ok(PageLoad {
            main_done: PAGE_TIMEOUT,
            total: PAGE_TIMEOUT,
            speed_index: PAGE_TIMEOUT,
            outcome: Outcome::Failed,
        });
    }

    // Phase 1: the default page, exactly like curl.
    let main_ttfb = channel.setup
        + channel.stream_open
        + channel.per_request_extra
        + channel.request_rtt
        + site.server_processing;
    let main_done = main_ttfb + channel.transfer_time(site.main_size);
    if main_done >= PAGE_TIMEOUT {
        return Ok(PageLoad {
            main_done: PAGE_TIMEOUT,
            total: PAGE_TIMEOUT,
            speed_index: PAGE_TIMEOUT,
            outcome: Outcome::Partial,
        });
    }

    // Phase 2: sub-resources over `parallelism` shared connections. All
    // flows share the channel's effective rate; each carries fixed
    // per-request latency (stream open + request round trip + extras).
    // Requests beyond the parallelism window start as slots free up —
    // approximated by staggering start times in waves.
    let per_req = channel.stream_open + channel.per_request_extra + channel.request_rtt;
    let before = scratch.capacities();
    scratch.flows.clear();
    for (i, &bytes) in site.resources.iter().enumerate() {
        let wave = (i / parallelism) as u64;
        // Later waves queue behind earlier ones; one request round
        // trip of stagger per wave approximates connection reuse.
        scratch.flows.push(LinkFlow {
            start: SimTime::ZERO + per_req * wave.min(20),
            bytes: bytes as f64,
            extra_latency: per_req,
        });
    }
    share_link(
        channel.effective_rate(),
        &scratch.flows,
        &mut scratch.active,
        &mut scratch.finish,
    );
    let after = scratch.capacities();
    scratch.grow_events += before.iter().zip(&after).filter(|(b, a)| a > b).count() as u64;
    let last_resource = scratch
        .finish
        .iter()
        .map(|t| t.duration_since(SimTime::ZERO))
        .max()
        .unwrap_or(SimDuration::ZERO);
    let mut total = main_done + last_resource;

    // Connection death: browsers retry sub-resources, so a death shows up
    // as lost time rather than a partial page — retried once, then the
    // page is declared partial if it still cannot finish.
    let mut outcome = Outcome::Complete;
    if channel.hazard_per_sec > 0.0 {
        let death_after = rng.exponential(1.0 / channel.hazard_per_sec);
        let body_secs = total.saturating_sub(main_ttfb).as_secs_f64();
        if death_after < body_secs {
            // One retry: re-establish and redo the remaining work.
            total += channel.stream_open + channel.request_rtt;
            let second_death = rng.exponential(1.0 / channel.hazard_per_sec);
            if second_death < body_secs {
                outcome = Outcome::Partial;
            }
        }
    }

    if total >= PAGE_TIMEOUT {
        return Ok(PageLoad {
            main_done,
            total: PAGE_TIMEOUT,
            speed_index: PAGE_TIMEOUT,
            outcome: Outcome::Partial,
        });
    }

    // Speed index: Σ wᵢ·tᵢ over visual contributions. The main document
    // carries 35% of the visual weight (layout, text); each sub-resource
    // carries weight proportional to its size.
    let res_total: f64 = site.resources.iter().map(|&b| b as f64).sum();
    let mut si = 0.35 * main_done.as_secs_f64();
    if res_total > 0.0 {
        for (i, &bytes) in site.resources.iter().enumerate() {
            let w = 0.65 * bytes as f64 / res_total;
            let done = scratch.finish[i].duration_since(SimTime::ZERO);
            si += w * (main_done + done).as_secs_f64();
        }
    } else {
        si += 0.65 * main_done.as_secs_f64();
    }

    Ok(PageLoad {
        main_done,
        total,
        speed_index: SimDuration::from_secs_f64(si),
        outcome,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::website::SiteList;
    use ptperf_obs::NullRecorder;
    use ptperf_sim::TransferModel;

    fn channel(rate: f64) -> Channel {
        Channel::ideal(TransferModel::new(SimDuration::from_millis(150), rate, 0.0))
    }

    fn site() -> Website {
        Website::generate(SiteList::Tranco, 3)
    }

    /// A page load on a cold scratch, without observation.
    fn cold_load(
        channel: &Channel,
        site: &Website,
        rng: &mut SimRng,
    ) -> Result<PageLoad, BrowserError> {
        load_page_pooled(
            channel,
            site,
            rng,
            &mut NullRecorder,
            &mut PageScratch::new(),
        )
    }

    #[test]
    fn page_load_exceeds_curl_fetch() {
        let mut rng = SimRng::new(1);
        let ch = channel(1.0e6);
        let s = site();
        let page = cold_load(&ch, &s, &mut rng).unwrap();
        let mut rng2 = SimRng::new(1);
        let curl = crate::curl::fetch(&ch, &s, &mut rng2);
        assert!(page.total > curl.total, "browser must load more than curl");
        assert_eq!(page.outcome, Outcome::Complete);
    }

    #[test]
    fn speed_index_below_total_load() {
        let mut rng = SimRng::new(2);
        let page = cold_load(&channel(1.0e6), &site(), &mut rng).unwrap();
        assert!(
            page.speed_index < page.total,
            "SI {} vs total {}",
            page.speed_index,
            page.total
        );
        assert!(page.speed_index > SimDuration::ZERO);
    }

    #[test]
    fn single_stream_transport_is_rejected() {
        let mut rng = SimRng::new(3);
        let mut ch = channel(1.0e6);
        ch.max_parallel_streams = 1;
        let err = cold_load(&ch, &site(), &mut rng).unwrap_err();
        assert!(matches!(err, BrowserError::ParallelismUnsupported { .. }));
    }

    #[test]
    fn faster_channel_loads_faster() {
        let mut a = SimRng::new(4);
        let mut b = SimRng::new(4);
        let fast = cold_load(&channel(3.0e6), &site(), &mut a).unwrap();
        let slow = cold_load(&channel(100.0e3), &site(), &mut b).unwrap();
        assert!(slow.total > fast.total);
        assert!(slow.speed_index > fast.speed_index);
    }

    #[test]
    fn timeout_declares_partial() {
        let mut rng = SimRng::new(5);
        let page = cold_load(&channel(1_000.0), &site(), &mut rng).unwrap();
        assert_eq!(page.outcome, Outcome::Partial);
        assert_eq!(page.total, PAGE_TIMEOUT);
    }

    #[test]
    fn connect_failure_fails_whole_page() {
        let mut rng = SimRng::new(6);
        let mut ch = channel(1.0e6);
        ch.connect_failure_p = 1.0;
        let page = cold_load(&ch, &site(), &mut rng).unwrap();
        assert_eq!(page.outcome, Outcome::Failed);
    }

    #[test]
    fn traced_load_matches_untraced_and_counts_pages() {
        let ch = channel(1.0e6);
        let s = site();
        let mut rng_a = SimRng::new(8);
        let mut rng_b = SimRng::new(8);
        let mut rec = ptperf_obs::MemoryRecorder::new();
        let plain = cold_load(&ch, &s, &mut rng_a).unwrap();
        let traced =
            load_page_pooled(&ch, &s, &mut rng_b, &mut rec, &mut PageScratch::new()).unwrap();
        assert_eq!(plain.total, traced.total);
        assert_eq!(plain.speed_index, traced.speed_index);
        assert_eq!(plain.outcome, traced.outcome);
        let data = rec.into_data();
        assert_eq!(data.counter("browser/pages"), Some(1));
        assert_eq!(
            data.counter("browser/resources"),
            Some(s.resources.len() as u64)
        );
    }

    #[test]
    fn warm_scratch_matches_cold_scratch_bitwise() {
        let ch = channel(1.2e6);
        let s = site();
        let mut scratch = PageScratch::new();
        for round in 0..3 {
            let mut rng_a = SimRng::new(40 + round);
            let mut rng_b = SimRng::new(40 + round);
            let cold = cold_load(&ch, &s, &mut rng_a).unwrap();
            let warm =
                load_page_pooled(&ch, &s, &mut rng_b, &mut NullRecorder, &mut scratch).unwrap();
            assert_eq!(cold.main_done, warm.main_done);
            assert_eq!(cold.total, warm.total);
            assert_eq!(cold.speed_index, warm.speed_index);
            assert_eq!(cold.outcome, warm.outcome);
        }
        assert_eq!(scratch.uses(), 3);
    }

    #[test]
    fn warm_page_scratch_is_allocation_free() {
        let ch = channel(1.2e6);
        let s = site();
        let mut scratch = PageScratch::new();
        let mut rng = SimRng::new(50);
        // Cold call pays the allocations once.
        load_page_pooled(&ch, &s, &mut rng, &mut NullRecorder, &mut scratch).unwrap();
        let warm = scratch.grows();
        for round in 0..4 {
            let mut rng = SimRng::new(60 + round);
            load_page_pooled(&ch, &s, &mut rng, &mut NullRecorder, &mut scratch).unwrap();
        }
        assert_eq!(
            scratch.grows(),
            warm,
            "warm page loads must not grow any scratch buffer"
        );
    }

    #[test]
    fn parallelism_beats_serial_for_many_resources() {
        // With 6-way parallelism and per-request latency, total should be
        // far below the serial sum of per-resource times.
        let mut rng = SimRng::new(7);
        let ch = channel(2.0e6);
        let s = site();
        let page = cold_load(&ch, &s, &mut rng).unwrap();
        let serial: f64 = s
            .resources
            .iter()
            .map(|&b| {
                (ch.stream_open + ch.request_rtt).as_secs_f64() + ch.transfer_time(b).as_secs_f64()
            })
            .sum();
        assert!(
            page.total.as_secs_f64() < serial,
            "parallel {} vs serial {serial}",
            page.total.as_secs_f64()
        );
    }
}
