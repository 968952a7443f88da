//! Transport identities and the paper's category taxonomy (§2).

/// The twelve evaluated pluggable transports, plus vanilla Tor as the
/// baseline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum PtId {
    /// Vanilla Tor — no pluggable transport (baseline).
    Vanilla,
    /// obfs4: scramblesuit successor, fully random obfuscation.
    Obfs4,
    /// shadowsocks: encrypted SOCKS-style proxy.
    Shadowsocks,
    /// meek: domain fronting through a CDN.
    Meek,
    /// psiphon: SSH-tunnel proxy network.
    Psiphon,
    /// conjure: refraction networking over phantom IPs.
    Conjure,
    /// snowflake: WebRTC through volunteer browser proxies.
    Snowflake,
    /// dnstt: DNS-over-HTTPS/TLS tunneling.
    Dnstt,
    /// camoufler: tunneling over instant-messaging channels.
    Camoufler,
    /// webtunnel: HTTPT-style tunneling inside HTTPS.
    WebTunnel,
    /// cloak: TLS-mimicking steganographic proxy.
    Cloak,
    /// stegotorus: chopper + steganographic covers.
    Stegotorus,
    /// marionette: programmable traffic-model obfuscation.
    Marionette,
}

impl PtId {
    /// The twelve PTs evaluated in the paper, in the order they appear in
    /// Figure 2's category grouping.
    pub const ALL_PTS: [PtId; 12] = [
        PtId::Meek,
        PtId::Psiphon,
        PtId::Conjure,
        PtId::Snowflake,
        PtId::Dnstt,
        PtId::Camoufler,
        PtId::WebTunnel,
        PtId::Cloak,
        PtId::Stegotorus,
        PtId::Marionette,
        PtId::Obfs4,
        PtId::Shadowsocks,
    ];

    /// All measured configurations: vanilla Tor first, then the PTs.
    pub const ALL_WITH_VANILLA: [PtId; 13] = [
        PtId::Vanilla,
        PtId::Meek,
        PtId::Psiphon,
        PtId::Conjure,
        PtId::Snowflake,
        PtId::Dnstt,
        PtId::Camoufler,
        PtId::WebTunnel,
        PtId::Cloak,
        PtId::Stegotorus,
        PtId::Marionette,
        PtId::Obfs4,
        PtId::Shadowsocks,
    ];

    /// Number of configurations (the twelve PTs plus vanilla Tor) — the
    /// width of dense per-PT tables.
    pub const COUNT: usize = 13;

    /// A dense index in declaration order, which is also `Ord` order —
    /// so a `[T; PtId::COUNT]` table iterated by index visits PTs in the
    /// same order a `BTreeMap<PtId, T>` would.
    pub fn index(self) -> usize {
        self as usize
    }

    /// Inverse of [`PtId::index`].
    pub fn from_index(i: usize) -> Option<PtId> {
        const ORDERED: [PtId; PtId::COUNT] = [
            PtId::Vanilla,
            PtId::Obfs4,
            PtId::Shadowsocks,
            PtId::Meek,
            PtId::Psiphon,
            PtId::Conjure,
            PtId::Snowflake,
            PtId::Dnstt,
            PtId::Camoufler,
            PtId::WebTunnel,
            PtId::Cloak,
            PtId::Stegotorus,
            PtId::Marionette,
        ];
        ORDERED.get(i).copied()
    }

    /// The lowercase name the paper uses.
    pub fn name(self) -> &'static str {
        match self {
            PtId::Vanilla => "tor",
            PtId::Obfs4 => "obfs4",
            PtId::Shadowsocks => "shadowsocks",
            PtId::Meek => "meek",
            PtId::Psiphon => "psiphon",
            PtId::Conjure => "conjure",
            PtId::Snowflake => "snowflake",
            PtId::Dnstt => "dnstt",
            PtId::Camoufler => "camoufler",
            PtId::WebTunnel => "webtunnel",
            PtId::Cloak => "cloak",
            PtId::Stegotorus => "stegotorus",
            PtId::Marionette => "marionette",
        }
    }

    /// The paper's category for this transport (§2). Vanilla Tor has no
    /// category.
    pub fn category(self) -> Option<Category> {
        Some(match self {
            PtId::Vanilla => return None,
            PtId::Meek | PtId::Psiphon | PtId::Conjure | PtId::Snowflake => Category::ProxyLayer,
            PtId::Dnstt | PtId::Camoufler | PtId::WebTunnel => Category::Tunneling,
            PtId::Cloak | PtId::Stegotorus | PtId::Marionette => Category::Mimicry,
            PtId::Obfs4 | PtId::Shadowsocks => Category::FullyEncrypted,
        })
    }
}

impl std::fmt::Display for PtId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The unobservability-technology categories of §2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Category {
    /// An extra proxy layer before Tor (meek, psiphon, conjure, snowflake).
    ProxyLayer,
    /// Content tunneled inside a standard application protocol
    /// (dnstt, camoufler, webtunnel).
    Tunneling,
    /// Traffic shaped to mimic another protocol
    /// (cloak, stegotorus, marionette).
    Mimicry,
    /// Uniformly random byte streams (obfs4, shadowsocks).
    FullyEncrypted,
}

impl Category {
    /// All categories in the paper's ordering.
    pub const ALL: [Category; 4] = [
        Category::ProxyLayer,
        Category::Tunneling,
        Category::Mimicry,
        Category::FullyEncrypted,
    ];

    /// Display label matching the paper's tables.
    pub fn label(self) -> &'static str {
        match self {
            Category::ProxyLayer => "proxy layer",
            Category::Tunneling => "tunneling",
            Category::Mimicry => "mimicry",
            Category::FullyEncrypted => "fully encrypted",
        }
    }

    /// The PTs in this category.
    pub fn members(self) -> Vec<PtId> {
        PtId::ALL_PTS
            .iter()
            .copied()
            .filter(|pt| pt.category() == Some(self))
            .collect()
    }
}

impl std::fmt::Display for Category {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn twelve_pts_are_listed() {
        assert_eq!(PtId::ALL_PTS.len(), 12);
        assert!(!PtId::ALL_PTS.contains(&PtId::Vanilla));
        assert_eq!(PtId::ALL_WITH_VANILLA.len(), 13);
    }

    #[test]
    fn category_assignment_matches_paper() {
        assert_eq!(PtId::Meek.category(), Some(Category::ProxyLayer));
        assert_eq!(PtId::Snowflake.category(), Some(Category::ProxyLayer));
        assert_eq!(PtId::Dnstt.category(), Some(Category::Tunneling));
        assert_eq!(PtId::Camoufler.category(), Some(Category::Tunneling));
        assert_eq!(PtId::WebTunnel.category(), Some(Category::Tunneling));
        assert_eq!(PtId::Cloak.category(), Some(Category::Mimicry));
        assert_eq!(PtId::Marionette.category(), Some(Category::Mimicry));
        assert_eq!(PtId::Obfs4.category(), Some(Category::FullyEncrypted));
        assert_eq!(PtId::Shadowsocks.category(), Some(Category::FullyEncrypted));
        assert_eq!(PtId::Vanilla.category(), None);
    }

    #[test]
    fn categories_partition_the_pts() {
        let total: usize = Category::ALL.iter().map(|c| c.members().len()).sum();
        assert_eq!(total, 12);
    }

    #[test]
    fn dense_index_round_trips_in_ord_order() {
        let mut seen = [false; PtId::COUNT];
        for pt in PtId::ALL_WITH_VANILLA {
            let i = pt.index();
            assert!(i < PtId::COUNT);
            assert_eq!(PtId::from_index(i), Some(pt));
            seen[i] = true;
        }
        assert!(seen.iter().all(|&s| s), "index space must be dense");
        assert_eq!(PtId::from_index(PtId::COUNT), None);
        // Index order must equal Ord order, so columnar tables iterate
        // like a BTreeMap keyed by PtId.
        for i in 1..PtId::COUNT {
            assert!(PtId::from_index(i - 1).unwrap() < PtId::from_index(i).unwrap());
        }
    }

    #[test]
    fn names_are_lowercase() {
        for pt in PtId::ALL_WITH_VANILLA {
            assert_eq!(pt.name(), pt.name().to_lowercase());
        }
    }
}
