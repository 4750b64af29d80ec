//! 10-connection burst scans (Table 1).
//!
//! For each domain: `k` connections in quick succession with a restricted
//! cipher offer, summarizing suite support, trust, and within-burst reuse
//! of key-exchange values and STEK identifiers.

use crate::grab::{GrabFailure, GrabOptions, Scanner, SuiteOffer};
use std::collections::BTreeSet;
use ts_core::observations::BurstSummary;
use ts_telemetry::Counter;

static BURST_DOMAINS: Counter = Counter::new("scanner.burst.domains");
static BURST_CONNECTIONS: Counter = Counter::new("scanner.burst.connections");

/// The Table 1 funnel for one restricted offer.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BurstFunnel {
    /// Domains in the day's list.
    pub listed: usize,
    /// Domains not blacklisted.
    pub non_blacklisted: usize,
    /// Domains presenting browser-trusted TLS.
    pub trusted_tls: usize,
    /// Domains that completed a handshake with the restricted offer
    /// (= support the offered key exchange), or issued a ticket for the
    /// ticket funnel.
    pub supported: usize,
    /// Domains repeating a value/identifier at least twice in the burst.
    pub repeat_twice: usize,
    /// Domains presenting the same value/identifier on every connection.
    pub all_same: usize,
}

/// What the burst counts for the "supported" and reuse rows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BurstMetric {
    /// Server key-exchange values (DHE or ECDHE scans).
    KexValues,
    /// STEK identifiers (session-ticket scan).
    StekIds,
}

/// Run a burst scan over `domains` at time `now`, handing each per-domain
/// summary to `on_summary` as it is produced, and return the aggregate
/// funnel. Callers that only need the funnel (Table 1) drop the summaries
/// at the source.
pub fn burst_scan_streaming(
    scanner: &mut Scanner,
    domains: &[String],
    now: u64,
    offer: SuiteOffer,
    metric: BurstMetric,
    connections: u32,
    mut on_summary: impl FnMut(BurstSummary),
) -> BurstFunnel {
    let mut funnel = BurstFunnel {
        listed: domains.len(),
        ..Default::default()
    };
    for domain in domains {
        if scanner.population().blacklist.contains(domain) {
            continue;
        }
        funnel.non_blacklisted += 1;
        // Trust is established with a full (browser-like) offer first, as
        // the paper separates "browser-trusted TLS" from per-offer support.
        let trust_probe = scanner.grab(domain, now, &GrabOptions::new());
        let trusted = trust_probe.ok().map(|o| o.trusted).unwrap_or(false);
        if !trusted {
            continue;
        }
        funnel.trusted_tls += 1;
        BURST_DOMAINS.inc();

        let opts = GrabOptions::new().suites(offer);
        let mut successes = 0u32;
        let mut tickets = 0u32;
        let mut kex_values: BTreeSet<String> = BTreeSet::new();
        let mut stek_ids: BTreeSet<String> = BTreeSet::new();
        for i in 0..connections {
            // "In quick succession": a few seconds apart.
            BURST_CONNECTIONS.inc();
            let g = scanner.grab(domain, now + i as u64, &opts);
            match g.outcome {
                Ok(obs) => {
                    successes += 1;
                    if let Some(fp) = obs.kex_value_fp {
                        kex_values.insert(fp);
                    }
                    if let Some(id) = obs.stek_id {
                        stek_ids.insert(id);
                        tickets += 1;
                    }
                }
                Err(GrabFailure::Timeout) => {}
                Err(_) => break, // hard failure (e.g. no common suite)
            }
        }
        let summary = BurstSummary {
            domain: domain.clone(),
            attempts: connections,
            successes,
            trusted,
            distinct_kex_values: (!kex_values.is_empty()).then(|| kex_values.len() as u32),
            distinct_stek_ids: (!stek_ids.is_empty()).then(|| stek_ids.len() as u32),
            tickets_issued: tickets,
        };
        let supported = match metric {
            BurstMetric::KexValues => successes > 0,
            BurstMetric::StekIds => tickets > 0,
        };
        if supported {
            funnel.supported += 1;
            let (repeats, all_same) = match metric {
                BurstMetric::KexValues => (summary.repeats_kex(), summary.all_same_kex()),
                BurstMetric::StekIds => (summary.repeats_stek(), summary.all_same_stek()),
            };
            if repeats {
                funnel.repeat_twice += 1;
            }
            if all_same {
                funnel.all_same += 1;
            }
        }
        on_summary(summary);
    }
    funnel
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::OnceLock;
    use ts_population::{Population, PopulationConfig};

    fn pop() -> &'static Population {
        static POP: OnceLock<Population> = OnceLock::new();
        POP.get_or_init(|| Population::build(PopulationConfig::new(11, 400)))
    }

    #[test]
    fn ticket_burst_on_static_stek_domain_all_same() {
        let p = pop();
        let mut s = Scanner::new(p, "burst-static");
        let domains = vec!["yahoo.sim".to_string()];
        let mut summaries = Vec::new();
        let funnel = burst_scan_streaming(
            &mut s,
            &domains,
            5_000,
            SuiteOffer::All,
            BurstMetric::StekIds,
            10,
            |x| summaries.push(x),
        );
        assert_eq!(funnel.trusted_tls, 1);
        assert_eq!(funnel.supported, 1);
        assert_eq!(funnel.all_same, 1, "static STEK → one id in burst");
        assert_eq!(summaries[0].distinct_stek_ids, Some(1));
    }

    #[test]
    fn kex_burst_on_reusing_domain_repeats() {
        let p = pop();
        // whatsapp.sim reuses its ECDHE value for 62 days.
        let mut s = Scanner::new(p, "burst-reuse");
        let domains = vec!["whatsapp.sim".to_string()];
        let mut summaries = Vec::new();
        let funnel = burst_scan_streaming(
            &mut s,
            &domains,
            5_000,
            SuiteOffer::EcdheOnly,
            BurstMetric::KexValues,
            10,
            |x| summaries.push(x),
        );
        assert_eq!(funnel.supported, 1);
        assert_eq!(funnel.all_same, 1);
        assert_eq!(summaries[0].distinct_kex_values, Some(1));
    }

    #[test]
    fn kex_burst_on_fresh_domain_all_distinct() {
        let p = pop();
        // twitter.sim has fresh ephemeral values.
        let mut s = Scanner::new(p, "burst-fresh");
        let domains = vec!["twitter.sim".to_string()];
        let mut summaries = Vec::new();
        let funnel = burst_scan_streaming(
            &mut s,
            &domains,
            5_000,
            SuiteOffer::EcdheOnly,
            BurstMetric::KexValues,
            10,
            |x| summaries.push(x),
        );
        assert_eq!(funnel.supported, 1);
        assert_eq!(funnel.repeat_twice, 0, "fresh values never repeat");
        let distinct = summaries[0].distinct_kex_values.unwrap();
        assert_eq!(distinct, summaries[0].successes);
    }

    #[test]
    fn funnel_counts_decrease_monotonically() {
        let p = pop();
        let mut s = Scanner::new(p, "burst-funnel");
        let domains: Vec<String> = p.churn.core().iter().take(60).cloned().collect();
        let funnel = burst_scan_streaming(
            &mut s,
            &domains,
            5_000,
            SuiteOffer::All,
            BurstMetric::StekIds,
            4,
            |_| {},
        );
        assert!(funnel.listed >= funnel.non_blacklisted);
        assert!(funnel.non_blacklisted >= funnel.trusted_tls);
        assert!(funnel.trusted_tls >= funnel.supported);
        assert!(funnel.supported >= funnel.repeat_twice);
        assert!(funnel.repeat_twice >= funnel.all_same);
        assert!(funnel.trusted_tls > 0, "some trusted domains in sample");
    }

    #[test]
    fn dhe_funnel_smaller_than_full_support() {
        let p = pop();
        let mut s = Scanner::new(p, "burst-dhe");
        let domains: Vec<String> = p.churn.core().iter().take(60).cloned().collect();
        let dhe = burst_scan_streaming(
            &mut s,
            &domains,
            6_000,
            SuiteOffer::DheOnly,
            BurstMetric::KexValues,
            3,
            |_| {},
        );
        let mut s = Scanner::new(p, "burst-ecdhe");
        let ecdhe = burst_scan_streaming(
            &mut s,
            &domains,
            6_000,
            SuiteOffer::EcdheOnly,
            BurstMetric::KexValues,
            3,
            |_| {},
        );
        // Table 1 ordering: ECDHE support exceeds DHE support.
        assert!(
            ecdhe.supported >= dhe.supported,
            "ecdhe {} vs dhe {}",
            ecdhe.supported,
            dhe.supported
        );
    }
}
