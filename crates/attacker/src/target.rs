//! Nation-state target analysis (§7.2).
//!
//! The paper walks through an attacker's cost-benefit against a Google-like
//! provider: how many 16-byte keys must be exfiltrated per unit time to
//! sustain full decryption coverage, how far one STEK reaches (web + SMTP +
//! IMAP properties, hosted-mail customers via MX), and the contrast with a
//! Yandex-like provider that never rotates.

use ts_core::groups::ServiceGroup;
use ts_population::GroundTruth;

/// The analysis output for one provider.
#[derive(Debug, Clone, PartialEq)]
pub struct TargetAnalysis {
    /// Provider label.
    pub provider: String,
    /// STEK rotation period (seconds; `u64::MAX` = never).
    pub rotation_period: u64,
    /// How long issued tickets are accepted (key must live ≥ this long).
    pub acceptance_window: u64,
    /// Keys the attacker must steal per day for continuous coverage.
    pub keys_per_day: f64,
    /// Domains directly behind the shared STEK.
    pub stek_domains: usize,
    /// Additional domains whose mail transits the provider (MX census).
    pub mx_domains: usize,
    /// Seconds of *retrospective* traffic one stolen key unlocks
    /// (bounded by how long a key stays in memory).
    pub retrospective_window: u64,
}

impl TargetAnalysis {
    /// One-paragraph summary in the paper's style.
    pub fn summary(&self) -> String {
        let keys = if self.keys_per_day == 0.0 {
            "a single key, once".to_string()
        } else {
            format!("{:.1} keys per day", self.keys_per_day)
        };
        format!(
            "{}: stealing {} sustains decryption of TLS connections to {} domains \
             (plus mail for {} more via MX); each 16-byte key unlocks {} of \
             recorded traffic.",
            self.provider,
            keys,
            self.stek_domains,
            self.mx_domains,
            ts_core::report::fmt_duration(self.retrospective_window),
        )
    }
}

/// Analyze a provider given its STEK service group and rotation facts.
pub fn analyze_provider(
    provider: &str,
    stek_group: &ServiceGroup,
    rotation_period: u64,
    acceptance_window: u64,
    mx_domains: usize,
) -> TargetAnalysis {
    let keys_per_day = if rotation_period == u64::MAX {
        0.0
    } else {
        86_400.0 / rotation_period as f64
    };
    // A key is in memory from creation until rotation + acceptance
    // overlap; stealing everything in memory at one instant yields a
    // retrospective window of rotation + acceptance (for the Google case:
    // two keys, 28 hours).
    let retrospective_window = if rotation_period == u64::MAX {
        u64::MAX
    } else {
        rotation_period + acceptance_window
    };
    TargetAnalysis {
        provider: provider.to_string(),
        rotation_period,
        acceptance_window,
        keys_per_day,
        stek_domains: stek_group.size(),
        mx_domains,
        retrospective_window,
    }
}

/// Run the §7.2 analysis against the simulated population's Google
/// analogue ("goggle") using ground truth for rotation facts and
/// `mx_domains`, the DNS MX census of the provider's SMTP host, for reach.
pub fn analyze_goggle(
    truth: &GroundTruth,
    stek_group: &ServiceGroup,
    mx_domains: usize,
) -> TargetAnalysis {
    // Rotation facts from any goggle domain's ground truth.
    let truth = truth
        .iter()
        .find(|t| t.operator.as_deref() == Some("goggle"))
        .expect("goggle domains exist");
    let period = truth.stek_period.unwrap_or(u64::MAX);
    analyze_provider(
        "goggle (Google analogue)",
        stek_group,
        period,
        28 * 3_600 - period,
        mx_domains,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use ts_core::groups::ServiceGroup;

    fn group(n: usize) -> ServiceGroup {
        ServiceGroup {
            label: "prov".into(),
            members: (0..n).map(|i| format!("d{i}.sim")).collect(),
        }
    }

    #[test]
    fn google_style_arithmetic() {
        // 14-hour rotation, 28-hour acceptance: the paper's "only two
        // 16-byte keys must be stolen every 28 hours".
        let a = analyze_provider("google-like", &group(8973), 14 * 3_600, 14 * 3_600, 90_000);
        assert!((a.keys_per_day - 86_400.0 / 50_400.0).abs() < 1e-9);
        // Keys per 28h window = keys_per_day * 28/24 = 2.0.
        let per_28h = a.keys_per_day * 28.0 / 24.0;
        assert!(
            (per_28h - 2.0).abs() < 1e-9,
            "two keys per 28 hours: {per_28h}"
        );
        assert_eq!(a.retrospective_window, 28 * 3_600);
        assert_eq!(a.stek_domains, 8973);
    }

    #[test]
    fn yandex_style_never_rotates() {
        let a = analyze_provider("yandex-like", &group(8), u64::MAX, u64::MAX, 0);
        assert_eq!(a.keys_per_day, 0.0);
        assert_eq!(a.retrospective_window, u64::MAX);
        assert!(a.summary().contains("a single key, once"));
    }

    #[test]
    fn summary_mentions_reach() {
        let a = analyze_provider("p", &group(100), 86_400, 0, 42);
        let s = a.summary();
        assert!(s.contains("100 domains"));
        assert!(s.contains("42 more"));
        assert!((a.keys_per_day - 1.0).abs() < 1e-9);
    }
}
