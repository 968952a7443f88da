//! The website corpus: synthetic stand-ins for the paper's two target
//! lists — the **Tranco top-1k** popular sites and **CBL-1k**, 1000
//! potentially blocked sites drawn from the Citizen Lab and Berkman lists.
//!
//! Each site is generated deterministically from `(list, index)`, so every
//! experiment that visits "site 17 of Tranco" sees the same page weight,
//! sub-resource mix, and server location — exactly like revisiting a real
//! site — while the population follows realistic heavy-tailed web-page
//! statistics (HTTP Archive-shaped: median page ≈ 0.5 MB over ~25
//! resources asymmetrically sized).

use ptperf_sim::{Location, SimDuration, SimRng};

/// Which target list a site belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SiteList {
    /// Tranco top-1k popular websites.
    Tranco,
    /// 1000 potentially censored websites (Citizen Lab + Berkman).
    Cbl,
}

impl SiteList {
    /// The label used in reports.
    pub fn label(self) -> &'static str {
        match self {
            SiteList::Tranco => "Tranco-1k",
            SiteList::Cbl => "CBL-1k",
        }
    }

    fn seed_base(self) -> u64 {
        match self {
            SiteList::Tranco => 0x7261_6e63_6f00_0000, // "ranco"
            SiteList::Cbl => 0x6362_6c00_0000_0000,    // "cbl"
        }
    }
}

/// Site genre, used by the paper's fixed-circuit experiment ("static,
/// news, video streaming, gaming, and online shopping" sample sites,
/// §4.2.1) and to shape page statistics per genre.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SiteCategory {
    /// Mostly-text pages, few resources.
    Static,
    /// Heavy article pages with many embedded resources.
    News,
    /// Video portals: big player bundles, few documents.
    VideoStreaming,
    /// Gaming sites: heavy media assets.
    Gaming,
    /// Storefronts: many product images.
    Shopping,
}

impl SiteCategory {
    /// The five categories, in the paper's order.
    pub const ALL: [SiteCategory; 5] = [
        SiteCategory::Static,
        SiteCategory::News,
        SiteCategory::VideoStreaming,
        SiteCategory::Gaming,
        SiteCategory::Shopping,
    ];

    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            SiteCategory::Static => "static",
            SiteCategory::News => "news",
            SiteCategory::VideoStreaming => "video streaming",
            SiteCategory::Gaming => "gaming",
            SiteCategory::Shopping => "online shopping",
        }
    }

    /// Genre multipliers: (main-page size, resource count, resource size).
    fn shape(self) -> (f64, f64, f64) {
        match self {
            SiteCategory::Static => (0.6, 0.5, 0.8),
            SiteCategory::News => (1.2, 1.6, 0.9),
            SiteCategory::VideoStreaming => (1.1, 0.7, 1.8),
            SiteCategory::Gaming => (1.1, 1.1, 1.4),
            SiteCategory::Shopping => (1.0, 1.4, 1.0),
        }
    }
}

/// A synthetic website.
#[derive(Debug, Clone, PartialEq)]
pub struct Website {
    /// Which list it came from.
    pub list: SiteList,
    /// Rank within the list (0-based).
    pub rank: usize,
    /// Site genre.
    pub category: SiteCategory,
    /// Where the origin server (or its nearest CDN edge) sits.
    pub server: Location,
    /// Size of the default page (the HTML curl fetches), bytes.
    pub main_size: u64,
    /// Sizes of the sub-resources a browser additionally loads.
    pub resources: Vec<u64>,
    /// Server think time before the first response byte.
    pub server_processing: SimDuration,
}

impl Website {
    /// Generates the site at `rank` in `list`. Deterministic: the same
    /// `(list, rank)` always yields the same site.
    pub fn generate(list: SiteList, rank: usize) -> Website {
        let mut rng =
            SimRng::new(list.seed_base() ^ (rank as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));

        // Popular sites sit on CDNs (close, fast); blocked sites are more
        // often a single origin, slightly heavier-tailed on think time.
        let server = match list {
            SiteList::Tranco => *rng.choose(&[
                Location::NewYork,
                Location::NewYork,
                Location::Frankfurt,
                Location::Frankfurt,
                Location::London,
                Location::Toronto,
                Location::Singapore,
            ]),
            SiteList::Cbl => *rng.choose(&[
                Location::NewYork,
                Location::Frankfurt,
                Location::London,
                Location::Singapore,
                Location::Toronto,
                Location::Bangalore,
            ]),
        };

        // Genre mix approximating the popular web: mostly static/news/
        // shopping, some video and gaming.
        let category = *rng.choose(&[
            SiteCategory::Static,
            SiteCategory::Static,
            SiteCategory::News,
            SiteCategory::News,
            SiteCategory::Shopping,
            SiteCategory::Shopping,
            SiteCategory::VideoStreaming,
            SiteCategory::Gaming,
        ]);
        let (m_main, m_count, m_size) = category.shape();

        // Default-page HTML: log-normal, median ~110 KB, clipped to
        // [4 KB, 3 MB], scaled by genre.
        let main_size = (rng.lognormal(110_000.0, 0.9) * m_main).clamp(4_000.0, 3_000_000.0) as u64;

        // Sub-resources: count log-normal (median ~22), sizes log-normal
        // (median ~28 KB) — images dominate the tail; both genre-scaled.
        let n_resources = (rng.lognormal(22.0, 0.6) * m_count).clamp(2.0, 120.0) as usize;
        let resources: Vec<u64> = (0..n_resources)
            .map(|_| (rng.lognormal(28_000.0, 1.2) * m_size).clamp(300.0, 4_000_000.0) as u64)
            .collect();

        let think_median_ms = match list {
            SiteList::Tranco => 60.0,
            SiteList::Cbl => 90.0,
        };
        let server_processing =
            SimDuration::from_secs_f64(rng.lognormal(think_median_ms, 0.5) / 1000.0);

        Website {
            list,
            rank,
            category,
            server,
            main_size,
            resources,
            server_processing,
        }
    }

    /// The lowest-ranked site of each category (the paper's five sample
    /// sites for the fixed-circuit experiments, §4.2.1).
    pub fn one_per_category(list: SiteList) -> Vec<Website> {
        let mut out: Vec<Website> = Vec::with_capacity(SiteCategory::ALL.len());
        for cat in SiteCategory::ALL {
            let site = (0..10_000)
                .map(|rank| Website::generate(list, rank))
                .find(|s| s.category == cat)
                .expect("every category appears in the first 10k ranks");
            out.push(site);
        }
        out
    }

    /// Generates the first `n` sites of a list.
    pub fn top(list: SiteList, n: usize) -> Vec<Website> {
        (0..n).map(|rank| Website::generate(list, rank)).collect()
    }

    /// Total page weight a browser downloads (main page + resources).
    pub fn total_weight(&self) -> u64 {
        self.main_size + self.resources.iter().sum::<u64>()
    }

    /// A synthetic display name, e.g. `tranco-017.example`.
    pub fn name(&self) -> String {
        let prefix = match self.list {
            SiteList::Tranco => "tranco",
            SiteList::Cbl => "cbl",
        };
        format!("{prefix}-{:03}.example", self.rank)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let a = Website::generate(SiteList::Tranco, 17);
        let b = Website::generate(SiteList::Tranco, 17);
        assert_eq!(a.main_size, b.main_size);
        assert_eq!(a.resources, b.resources);
        assert_eq!(a.server, b.server);
    }

    #[test]
    fn different_ranks_differ() {
        let a = Website::generate(SiteList::Tranco, 1);
        let b = Website::generate(SiteList::Tranco, 2);
        assert_ne!(a.main_size, b.main_size);
    }

    #[test]
    fn lists_are_distinct_populations() {
        let a = Website::generate(SiteList::Tranco, 5);
        let b = Website::generate(SiteList::Cbl, 5);
        assert_ne!(a.main_size, b.main_size);
    }

    #[test]
    fn page_weights_are_realistic() {
        let sites = Website::top(SiteList::Tranco, 500);
        let mut mains: Vec<f64> = sites.iter().map(|s| s.main_size as f64).collect();
        mains.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = mains[mains.len() / 2];
        assert!(
            (40_000.0..350_000.0).contains(&median),
            "median main page {median}"
        );
        // Browser-visible total weight: medians around 0.5–2 MB.
        let mut totals: Vec<f64> = sites.iter().map(|s| s.total_weight() as f64).collect();
        totals.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let tmed = totals[totals.len() / 2];
        assert!(
            (300_000.0..3_000_000.0).contains(&tmed),
            "median total {tmed}"
        );
    }

    #[test]
    fn resource_counts_in_range() {
        for s in Website::top(SiteList::Cbl, 200) {
            assert!((2..=120).contains(&s.resources.len()));
        }
    }

    #[test]
    fn top_generates_sequential_ranks() {
        let sites = Website::top(SiteList::Tranco, 10);
        for (i, s) in sites.iter().enumerate() {
            assert_eq!(s.rank, i);
            assert_eq!(s.list, SiteList::Tranco);
        }
    }

    #[test]
    fn names_are_stable_and_distinct() {
        assert_eq!(
            Website::generate(SiteList::Tranco, 7).name(),
            "tranco-007.example"
        );
        assert_eq!(
            Website::generate(SiteList::Cbl, 7).name(),
            "cbl-007.example"
        );
    }
}
