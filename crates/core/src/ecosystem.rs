//! **Table 2** — the PT ecosystem survey: all 28 systems the paper
//! analyzed, their status, and why 16 of them could not be evaluated.

use ptperf_stats::Table;

/// Adoption status relative to the Tor project (Appendix A.1's four
/// groups).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Adoption {
    /// Bundled with the Tor Browser.
    Bundled,
    /// Listed by the Tor project, under deployment/testing.
    UnderDeployment,
    /// Listed by the Tor project but undeployed.
    Undeployed,
    /// Not listed by the Tor project.
    Unlisted,
}

impl Adoption {
    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            Adoption::Bundled => "bundled with Tor Browser",
            Adoption::UnderDeployment => "under deployment/testing",
            Adoption::Undeployed => "listed, undeployed",
            Adoption::Unlisted => "not listed by Tor",
        }
    }
}

/// One surveyed system.
#[derive(Debug, Clone)]
pub struct PtSurveyEntry {
    /// System name.
    pub name: &'static str,
    /// Source code publicly available.
    pub code_available: bool,
    /// Builds and runs today (`None` = not applicable, no code).
    pub functional: Option<bool>,
    /// Can be integrated with Tor (`None` = unknown/not applicable).
    pub integrable: Option<bool>,
    /// Whether this study measured its performance.
    pub evaluated: bool,
    /// The blocking challenge, if any.
    pub challenge: &'static str,
    /// Underlying technology.
    pub technology: &'static str,
    /// Adoption status.
    pub adoption: Adoption,
}

/// The 28 systems of Table 2.
pub fn survey() -> Vec<PtSurveyEntry> {
    use Adoption::*;
    let e = |name,
             code_available,
             functional: Option<bool>,
             integrable: Option<bool>,
             evaluated,
             challenge,
             technology,
             adoption| PtSurveyEntry {
        name,
        code_available,
        functional,
        integrable,
        evaluated,
        challenge,
        technology,
        adoption,
    };
    vec![
        e(
            "obfs4",
            true,
            Some(true),
            Some(true),
            true,
            "none",
            "random obfuscation",
            Bundled,
        ),
        e(
            "meek",
            true,
            Some(true),
            Some(true),
            true,
            "requires CDN with domain fronting",
            "domain fronting",
            Bundled,
        ),
        e(
            "snowflake",
            true,
            Some(true),
            Some(true),
            true,
            "dependency on domain fronting",
            "WebRTC",
            Bundled,
        ),
        e(
            "dnstt",
            true,
            Some(true),
            Some(true),
            true,
            "none",
            "DoH/DoT tunneling",
            UnderDeployment,
        ),
        e(
            "conjure",
            true,
            Some(true),
            Some(true),
            true,
            "needs ISP support",
            "decoy routing",
            UnderDeployment,
        ),
        e(
            "webtunnel",
            true,
            Some(true),
            Some(true),
            true,
            "none",
            "tunneling over HTTP",
            UnderDeployment,
        ),
        e(
            "torcloak",
            false,
            None,
            None,
            false,
            "code not public",
            "tunneling over WebRTC",
            UnderDeployment,
        ),
        e(
            "marionette",
            true,
            Some(true),
            Some(true),
            true,
            "Python 2.7 only",
            "traffic-model obfuscation",
            Undeployed,
        ),
        e(
            "shadowsocks",
            true,
            Some(true),
            Some(true),
            true,
            "none",
            "traffic obfuscation",
            Undeployed,
        ),
        e(
            "stegotorus",
            true,
            Some(true),
            Some(true),
            true,
            "none",
            "steganographic obfuscation",
            Undeployed,
        ),
        e(
            "psiphon",
            true,
            Some(true),
            Some(true),
            true,
            "none",
            "proxy-based",
            Undeployed,
        ),
        e(
            "lantern-lampshade",
            true,
            Some(false),
            Some(false),
            false,
            "no ready-to-deploy code",
            "obfuscated encryption",
            Undeployed,
        ),
        e(
            "cloak",
            true,
            Some(true),
            Some(true),
            true,
            "none",
            "traffic obfuscation",
            Unlisted,
        ),
        e(
            "camoufler",
            true,
            Some(true),
            Some(true),
            true,
            "needs IM accounts",
            "tunneling over IM",
            Unlisted,
        ),
        e(
            "massbrowser",
            true,
            Some(true),
            Some(true),
            false,
            "invite code per device",
            "domain fronting + browser proxy",
            Unlisted,
        ),
        e(
            "protozoa",
            true,
            Some(false),
            Some(false),
            false,
            "code compilation issues",
            "tunneling over WebRTC",
            Unlisted,
        ),
        e(
            "stegozoa",
            true,
            Some(false),
            Some(false),
            false,
            "text-only prototype",
            "tunneling over WebRTC",
            Unlisted,
        ),
        e(
            "sweet",
            true,
            Some(false),
            None,
            false,
            "dependency issues",
            "tunneling over email",
            Unlisted,
        ),
        e(
            "deltashaper",
            true,
            Some(false),
            None,
            false,
            "needs unsupported Skype",
            "tunneling over video",
            Unlisted,
        ),
        e(
            "rook",
            true,
            Some(true),
            None,
            false,
            "messaging only, no proxy",
            "hiding data in games",
            Unlisted,
        ),
        e(
            "facet",
            true,
            Some(false),
            None,
            false,
            "needs unsupported Skype",
            "tunneling over video",
            Unlisted,
        ),
        e(
            "mailet",
            true,
            Some(true),
            None,
            false,
            "Twitter only, no proxy",
            "tunneling over email",
            Unlisted,
        ),
        e(
            "minecruft-pt",
            true,
            Some(false),
            None,
            false,
            "source-code issues",
            "hiding data in games",
            Unlisted,
        ),
        e(
            "cloudtransport",
            false,
            None,
            None,
            false,
            "code not public",
            "tunneling over cloud storage",
            Unlisted,
        ),
        e(
            "covertcast",
            false,
            None,
            None,
            false,
            "code not public",
            "tunneling over video streams",
            Unlisted,
        ),
        e(
            "freewave",
            false,
            None,
            None,
            false,
            "code not public",
            "tunneling over VoIP",
            Unlisted,
        ),
        e(
            "balboa",
            false,
            None,
            None,
            false,
            "code not public",
            "user-traffic-model obfuscation",
            Unlisted,
        ),
        e(
            "domain-shadowing",
            false,
            None,
            None,
            false,
            "code not public",
            "domain shadowing",
            Unlisted,
        ),
    ]
}

/// Renders Table 2.
pub fn render() -> String {
    let mut table = Table::new([
        "Name",
        "Code",
        "Functional",
        "Integrable",
        "Evaluated",
        "Challenge",
        "Technology",
        "Adoption",
    ]);
    let tri = |v: Option<bool>| match v {
        Some(true) => "yes",
        Some(false) => "no",
        None => "n/a",
    };
    for entry in survey() {
        table.row([
            entry.name.to_string(),
            if entry.code_available { "yes" } else { "no" }.to_string(),
            tri(entry.functional).to_string(),
            tri(entry.integrable).to_string(),
            if entry.evaluated { "yes" } else { "no" }.to_string(),
            entry.challenge.to_string(),
            entry.technology.to_string(),
            entry.adoption.label().to_string(),
        ]);
    }
    format!(
        "Table 2 — Comparison of pluggable transports (28 systems)\n{}",
        table.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn twenty_eight_systems() {
        assert_eq!(survey().len(), 28);
    }

    #[test]
    fn twelve_are_evaluated() {
        assert_eq!(survey().iter().filter(|e| e.evaluated).count(), 12);
    }

    #[test]
    fn three_are_bundled() {
        let bundled: Vec<&str> = survey()
            .iter()
            .filter(|e| e.adoption == Adoption::Bundled)
            .map(|e| e.name)
            .collect();
        assert_eq!(bundled, ["obfs4", "meek", "snowflake"]);
    }

    #[test]
    fn every_no_code_system_is_unevaluated() {
        for e in survey() {
            if !e.code_available {
                assert!(!e.evaluated, "{} has no code but was evaluated", e.name);
                assert!(e.functional.is_none());
            }
        }
    }

    #[test]
    fn evaluated_set_matches_the_transport_crate() {
        use ptperf_transports::PtId;
        let evaluated: Vec<&str> = survey()
            .iter()
            .filter(|e| e.evaluated)
            .map(|e| e.name)
            .collect();
        for pt in PtId::ALL_PTS {
            assert!(
                evaluated.contains(&pt.name()),
                "{} implemented but not marked evaluated",
                pt.name()
            );
        }
    }

    #[test]
    fn render_is_a_full_table() {
        let text = render();
        assert!(text.contains("obfs4"));
        assert!(text.contains("domain-shadowing"));
        assert_eq!(text.lines().count(), 1 + 2 + 28);
    }
}
