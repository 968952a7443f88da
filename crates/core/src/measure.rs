//! Measurement primitives shared by the experiment runners: run a
//! workload through a transport, aggregate per-site averages, and hold
//! paired samples for the statistical tables.
//!
//! Each measurement has one entry point, whose arguments are what
//! every unit threads through: its recorder, its worker's scratch and
//! its fault session. A caller with none of them passes a
//! `NullRecorder`, a fresh scratch and `FaultSession::off()`.

use ptperf_obs::{PhaseAccum, Recorder};
use ptperf_sim::SimRng;
use ptperf_stats::{PairedTTest, Summary};
use ptperf_transports::{transport_for, EstablishScratch, PtId};
use ptperf_web::{curl, FaultSession, SiteList, Website};

use crate::scenario::Scenario;

/// Per-PT samples aligned by target (site or file), the unit the paper's
/// paired t-tests operate on.
///
/// Stored columnar: a dense `PtId`-indexed matrix (one column of `f64`s
/// per configuration, plus a presence row) instead of a
/// `BTreeMap<PtId, Vec<f64>>`. The spine is a fixed `PtId::COUNT`-wide
/// allocation made once at construction, pushes are amortized appends
/// into preallocated columns, and [`PairedSamples::pts`] /
/// [`PairedSamples::pairs`] iterate without allocating. Because
/// `PtId::index` order equals `Ord` order, iteration visits PTs exactly
/// as the old map did.
#[derive(Debug, Clone)]
pub struct PairedSamples {
    columns: Vec<Vec<f64>>,
    present: [bool; PtId::COUNT],
}

impl Default for PairedSamples {
    fn default() -> PairedSamples {
        PairedSamples {
            columns: (0..PtId::COUNT).map(|_| Vec::new()).collect(),
            present: [false; PtId::COUNT],
        }
    }
}

impl PairedSamples {
    /// Creates an empty collection.
    pub fn new() -> PairedSamples {
        PairedSamples::default()
    }

    /// Creates an empty collection whose columns can each hold
    /// `samples_per_pt` values before growing.
    pub fn with_capacity(samples_per_pt: usize) -> PairedSamples {
        PairedSamples {
            columns: (0..PtId::COUNT)
                .map(|_| Vec::with_capacity(samples_per_pt))
                .collect(),
            present: [false; PtId::COUNT],
        }
    }

    /// Appends one sample for `pt` (targets must be pushed in the same
    /// order for every PT).
    pub fn push(&mut self, pt: PtId, value: f64) {
        let i = pt.index();
        self.present[i] = true;
        self.columns[i].push(value);
    }

    /// The sample vector for a PT.
    ///
    /// # Panics
    /// Panics if the PT was never measured.
    pub fn samples(&self, pt: PtId) -> &[f64] {
        assert!(self.present[pt.index()], "no samples for {pt}");
        &self.columns[pt.index()]
    }

    /// All measured PTs, in stable (`Ord` = dense-index) order, without
    /// allocating.
    pub fn pts(&self) -> impl Iterator<Item = PtId> + '_ {
        self.present
            .iter()
            .enumerate()
            .filter(|(_, &p)| p)
            .map(|(i, _)| PtId::from_index(i).expect("presence row is PtId-indexed"))
    }

    /// Boxplot summary for a PT.
    pub fn summary(&self, pt: PtId) -> Summary {
        Summary::of(self.samples(pt))
    }

    /// Paired t-test between two PTs (first − second).
    ///
    /// # Panics
    /// Panics if sample vectors are unaligned.
    pub fn ttest(&self, a: PtId, b: PtId) -> PairedTTest {
        PairedTTest::run(self.samples(a), self.samples(b))
    }

    /// Every ordered PT pair `(a, b)` with `a < b` in enum order, as the
    /// appendix tables enumerate them — an allocation-free iterator.
    pub fn pairs(&self) -> impl Iterator<Item = (PtId, PtId)> + '_ {
        self.pts()
            .flat_map(move |a| self.pts().filter(move |&b| a < b).map(move |b| (a, b)))
    }

    /// Mean across sites for a PT.
    pub fn mean(&self, pt: PtId) -> f64 {
        ptperf_stats::mean(self.samples(pt))
    }

    /// Median across sites for a PT.
    pub fn median(&self, pt: PtId) -> f64 {
        ptperf_stats::median(self.samples(pt))
    }
}

/// The standard website workload of the paper: `n` sites from each of
/// Tranco and CBL.
pub fn target_sites(n_per_list: usize) -> Vec<Website> {
    let mut sites = Website::top(SiteList::Tranco, n_per_list);
    sites.extend(Website::top(SiteList::Cbl, n_per_list));
    sites
}

/// Measures curl website access time for one PT over `sites`, averaging
/// `repeats` fetches per site (the paper used five). Returns per-site
/// averages in site order.
///
/// `rec` accumulates per-phase sim time (handshake / request /
/// transfer) across all fetches and counts each fetch as one `events`
/// tick; a [`ptperf_obs::NullRecorder`] draws the identical RNG
/// sequence, so recording cannot perturb the measurements. `scratch` is
/// the caller's establishment scratch — the executor threads its
/// per-worker [`crate::executor::UnitScratch::establish`] here — and
/// its warmth never changes results. Each fetch goes through
/// [`curl::fetch_faulted`]: an off session is the plain
/// [`curl::fetch`] with zero extra RNG draws, and an active one injects
/// per the session's plan and accumulates disposition stats.
#[allow(clippy::too_many_arguments)]
pub fn curl_site_averages(
    scenario: &Scenario,
    pt: PtId,
    sites: &[Website],
    repeats: usize,
    rng: &mut SimRng,
    rec: &mut dyn Recorder,
    scratch: &mut EstablishScratch,
    faults: &mut FaultSession,
) -> Vec<f64> {
    let dep = scenario.deployment();
    let opts = scenario.access_options();
    let transport = transport_for(pt);
    let mut phases = PhaseAccum::new();
    let mut averages = Vec::with_capacity(sites.len());
    for site in sites {
        let mut total = 0.0;
        for _ in 0..repeats {
            let ch = transport.establish_with(&dep, &opts, site.server, rng, scratch);
            let fetch = curl::fetch_faulted(&ch, site, rng, faults);
            total += fetch.total.as_secs_f64();
            if rec.enabled() {
                record_fetch_phases(&mut phases, &ch, &fetch);
                rec.add("events", 1);
            }
        }
        averages.push(total / repeats as f64);
    }
    phases.emit(rec);
    averages
}

/// Splits one browser page load into handshake / main-document /
/// sub-resource phase time, from values the load already computed.
pub(crate) fn record_page_phases(
    phases: &mut PhaseAccum,
    ch: &ptperf_web::Channel,
    page: &ptperf_web::PageLoad,
) {
    let handshake = (ch.setup + ch.stream_open).min(page.total);
    let main_document = page.main_done.min(page.total).saturating_sub(handshake);
    let subresources = page.total.saturating_sub(page.main_done);
    phases.add_ns("handshake", handshake.as_nanos());
    phases.add_ns("main_document", main_document.as_nanos());
    phases.add_ns("subresources", subresources.as_nanos());
    // Distribution-only observation: the whole page load as one sample
    // (it overlaps the timeline phases, so no span contribution).
    phases.hist_ns("total", page.total.as_nanos());
}

/// Splits one fetch into handshake / request / transfer phase time.
///
/// The boundaries derive from values the fetch already computed: the
/// handshake is the channel's setup plus stream-open cost (clamped to
/// the fetch total, which may be shorter on timeout), the request phase
/// is the rest of time-to-first-byte, and transfer is everything after
/// first byte.
pub(crate) fn record_fetch_phases(
    phases: &mut PhaseAccum,
    ch: &ptperf_web::Channel,
    fetch: &curl::FetchResult,
) {
    let handshake = (ch.setup + ch.stream_open).min(fetch.total);
    let request = fetch.ttfb.saturating_sub(handshake);
    let transfer = fetch.total.saturating_sub(fetch.ttfb);
    phases.add_ns("handshake", handshake.as_nanos());
    phases.add_ns("request", request.as_nanos());
    phases.add_ns("transfer", transfer.as_nanos());
    // Distribution-only observations: whole-fetch and time-to-first-byte
    // latencies overlap the timeline phases, so they get histogram
    // samples but no span contribution.
    phases.hist_ns("ttfb", fetch.ttfb.as_nanos());
    phases.hist_ns("total", fetch.total.as_nanos());
}

#[cfg(test)]
mod tests {
    use super::*;
    use ptperf_obs::NullRecorder;
    use ptperf_sim::Location;

    /// Two fetches per site on a cold scratch with faults off.
    fn averages(
        scenario: &Scenario,
        pt: PtId,
        sites: &[Website],
        rng: &mut SimRng,
        rec: &mut dyn Recorder,
    ) -> Vec<f64> {
        let mut scratch = EstablishScratch::new();
        curl_site_averages(
            scenario,
            pt,
            sites,
            2,
            rng,
            rec,
            &mut scratch,
            &mut FaultSession::off(),
        )
    }

    #[test]
    fn paired_samples_align() {
        let mut ps = PairedSamples::new();
        for site in 0..10 {
            ps.push(PtId::Vanilla, site as f64);
            ps.push(PtId::Obfs4, site as f64 + 1.0);
        }
        let t = ps.ttest(PtId::Obfs4, PtId::Vanilla);
        assert!((t.mean_diff - 1.0).abs() < 1e-12);
        assert_eq!(ps.pairs().count(), 1);
    }

    #[test]
    fn columnar_samples_iterate_in_ord_order() {
        let mut ps = PairedSamples::with_capacity(4);
        // Pushed out of order; iteration must still be Ord order.
        for pt in [PtId::Marionette, PtId::Obfs4, PtId::Vanilla, PtId::Meek] {
            for s in 0..4 {
                ps.push(pt, s as f64);
            }
        }
        let pts: Vec<PtId> = ps.pts().collect();
        assert_eq!(
            pts,
            vec![PtId::Vanilla, PtId::Obfs4, PtId::Meek, PtId::Marionette]
        );
        let pairs: Vec<(PtId, PtId)> = ps.pairs().collect();
        assert_eq!(pairs.len(), 6);
        assert_eq!(pairs[0], (PtId::Vanilla, PtId::Obfs4));
        assert!(pairs.iter().all(|&(a, b)| a < b));
        assert_eq!(ps.samples(PtId::Meek).len(), 4);
    }

    #[test]
    #[should_panic(expected = "no samples for snowflake")]
    fn unmeasured_pt_panics() {
        let mut ps = PairedSamples::new();
        ps.push(PtId::Vanilla, 1.0);
        let _ = ps.samples(PtId::Snowflake);
    }

    #[test]
    fn target_sites_mixes_lists() {
        let sites = target_sites(5);
        assert_eq!(sites.len(), 10);
        assert_eq!(sites[0].list, SiteList::Tranco);
        assert_eq!(sites[5].list, SiteList::Cbl);
    }

    #[test]
    fn curl_averages_are_positive_and_per_site() {
        let scenario = Scenario::baseline(5);
        let sites = target_sites(4);
        let mut rng = scenario.rng("test");
        let avgs = averages(
            &scenario,
            PtId::Vanilla,
            &sites,
            &mut rng,
            &mut NullRecorder,
        );
        assert_eq!(avgs.len(), 8);
        assert!(avgs.iter().all(|&t| t > 0.0 && t <= 120.0));
    }

    #[test]
    fn traced_averages_match_untraced_and_cover_the_timeline() {
        let scenario = Scenario::baseline(9);
        let sites = target_sites(3);
        let mut rng_a = scenario.rng("trace");
        let mut rng_b = scenario.rng("trace");
        let mut rec = ptperf_obs::MemoryRecorder::new();
        let plain = averages(
            &scenario,
            PtId::Obfs4,
            &sites,
            &mut rng_a,
            &mut NullRecorder,
        );
        let traced = averages(&scenario, PtId::Obfs4, &sites, &mut rng_b, &mut rec);
        assert_eq!(
            plain.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
            traced.iter().map(|x| x.to_bits()).collect::<Vec<_>>()
        );
        let data = rec.into_data();
        // 6 sites × 2 repeats.
        assert_eq!(data.counter("events"), Some(12));
        // A `total` root span with the three phases as its children,
        // laid out consecutively; leaves sum to sim_ns.
        let phases: Vec<&str> = data.spans.iter().map(|s| s.phase).collect();
        assert_eq!(phases, vec!["total", "handshake", "request", "transfer"]);
        let root = data.spans[0].id;
        assert!(data.spans[1..].iter().all(|s| s.parent == root));
        assert_eq!(data.counter("sim_ns"), Some(data.leaf_span_ns()));
        // Each fetch contributed one sample to every phase histogram,
        // including the distribution-only ttfb/total observations.
        for key in ["handshake", "request", "transfer", "ttfb", "total"] {
            assert_eq!(
                data.hist(key).map(ptperf_obs::Hist::count),
                Some(12),
                "missing or short histogram for {key}"
            );
        }
    }

    #[test]
    fn faster_transport_shows_in_averages() {
        let scenario = Scenario::baseline(6);
        let sites = target_sites(10);
        let mut rng = scenario.rng("cmp");
        let obfs4 = averages(&scenario, PtId::Obfs4, &sites, &mut rng, &mut NullRecorder);
        let marionette = averages(
            &scenario,
            PtId::Marionette,
            &sites,
            &mut rng,
            &mut NullRecorder,
        );
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        assert!(
            mean(&marionette) > mean(&obfs4) * 2.0,
            "marionette {} vs obfs4 {}",
            mean(&marionette),
            mean(&obfs4)
        );
        let _ = Location::London; // keep the import meaningful in tests
    }
}
