//! 10-connection burst scans (Table 1).
//!
//! For each domain: ten connections in quick succession with a restricted
//! cipher offer, counting suite support, trust, and within-burst reuse.
//! The offer decides what is counted: a browser-like offer counts STEK
//! identifiers, a DHE-only or ECDHE-only offer counts key-exchange values.
//! Only the ticket burst completes its handshakes, since it reads the
//! NewSessionTicket; the trust check and the key-exchange bursts read the
//! verified server flight alone ([`Scanner::grab_kex`]).

use crate::grab::{GrabFailure, GrabOptions, Scanner, SuiteOffer};
use std::collections::BTreeSet;
use ts_telemetry::Counter;

static BURST_DOMAINS: Counter = Counter::new("scanner.burst.domains");
static BURST_CONNECTIONS: Counter = Counter::new("scanner.burst.connections");

/// Connections per domain in one burst (Table 1's 10-connection bursts).
const CONNECTIONS: u32 = 10;

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

/// Run a burst scan over `domains` at time `now` and return the funnel.
/// [`SuiteOffer::All`] counts STEK identifiers (the ticket funnel); any
/// other offer counts server key-exchange values.
pub fn burst_scan(
    scanner: &mut Scanner,
    domains: &[String],
    now: u64,
    offer: SuiteOffer,
) -> BurstFunnel {
    let counts_steks = offer == SuiteOffer::All;
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
        let trust_probe = scanner.grab_kex(domain, now, SuiteOffer::All);
        let trusted = trust_probe.ok().is_some_and(|o| o.trusted);
        if !trusted {
            continue;
        }
        funnel.trusted_tls += 1;
        BURST_DOMAINS.inc();

        // `sightings` counts the connections the offer is judged on:
        // every completed server flight for a key-exchange offer, every
        // ticket for the ticket funnel. `distinct` holds what they showed.
        let mut sightings = 0u32;
        let mut distinct: BTreeSet<String> = BTreeSet::new();
        for i in 0..CONNECTIONS {
            // "In quick succession": a few seconds apart.
            BURST_CONNECTIONS.inc();
            let at = now + i as u64;
            let shown = if counts_steks {
                let g = scanner.grab(domain, at, &GrabOptions::new());
                g.outcome.map(|obs| obs.stek_id)
            } else {
                let g = scanner.grab_kex(domain, at, offer);
                g.outcome.map(|obs| obs.kex_value_fp)
            };
            match shown {
                Ok(None) if counts_steks => {} // no ticket issued
                Ok(shown) => {
                    sightings += 1;
                    distinct.extend(shown);
                }
                Err(GrabFailure::Timeout) => {}
                Err(_) => break, // hard failure (e.g. no common suite)
            }
        }
        if sightings == 0 {
            continue;
        }
        funnel.supported += 1;
        let distinct = distinct.len() as u32;
        if sightings > 1 && distinct > 0 && distinct < sightings {
            funnel.repeat_twice += 1;
        }
        if sightings > 1 && distinct == 1 {
            funnel.all_same += 1;
        }
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
        let funnel = burst_scan(&mut s, &domains, 5_000, SuiteOffer::All);
        assert_eq!(funnel.trusted_tls, 1);
        assert_eq!(funnel.supported, 1);
        assert_eq!(funnel.all_same, 1, "static STEK → one id in burst");
        assert_eq!(funnel.repeat_twice, 1);
    }

    #[test]
    fn kex_burst_on_reusing_domain_repeats() {
        let p = pop();
        // whatsapp.sim reuses its ECDHE value for 62 days.
        let mut s = Scanner::new(p, "burst-reuse");
        let domains = vec!["whatsapp.sim".to_string()];
        let funnel = burst_scan(&mut s, &domains, 5_000, SuiteOffer::EcdheOnly);
        assert_eq!(funnel.supported, 1);
        assert_eq!(funnel.all_same, 1);
        assert_eq!(funnel.repeat_twice, 1);
    }

    #[test]
    fn kex_burst_on_fresh_domain_all_distinct() {
        let p = pop();
        // twitter.sim has fresh ephemeral values.
        let mut s = Scanner::new(p, "burst-fresh");
        let domains = vec!["twitter.sim".to_string()];
        let funnel = burst_scan(&mut s, &domains, 5_000, SuiteOffer::EcdheOnly);
        assert_eq!(funnel.supported, 1);
        assert_eq!(funnel.repeat_twice, 0, "fresh values never repeat");
        assert_eq!(funnel.all_same, 0);
    }

    #[test]
    fn funnel_counts_decrease_monotonically() {
        let p = pop();
        let mut s = Scanner::new(p, "burst-funnel");
        let domains: Vec<String> = p.churn.core().iter().take(60).cloned().collect();
        let funnel = burst_scan(&mut s, &domains, 5_000, SuiteOffer::All);
        assert!(funnel.listed >= funnel.non_blacklisted);
        assert!(funnel.non_blacklisted >= funnel.trusted_tls);
        assert!(funnel.trusted_tls >= funnel.supported);
        assert!(funnel.supported >= funnel.repeat_twice);
        assert!(funnel.repeat_twice >= funnel.all_same);
        assert!(funnel.trusted_tls > 0, "some trusted domains in sample");
    }

    /// The burst as it ran when every connection completed its
    /// handshake, trust check included.
    fn full_burst(
        scanner: &mut Scanner,
        domains: &[String],
        now: u64,
        offer: SuiteOffer,
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
            let trust_probe = scanner.grab(domain, now, &GrabOptions::new());
            if !trust_probe.ok().is_some_and(|o| o.trusted) {
                continue;
            }
            funnel.trusted_tls += 1;
            let mut sightings = 0u32;
            let mut distinct: BTreeSet<String> = BTreeSet::new();
            for i in 0..CONNECTIONS {
                let opts = GrabOptions::new().suites(offer);
                match scanner.grab(domain, now + i as u64, &opts).outcome {
                    Ok(obs) if offer == SuiteOffer::All => {
                        if let Some(id) = obs.stek_id {
                            sightings += 1;
                            distinct.insert(id);
                        }
                    }
                    Ok(obs) => {
                        sightings += 1;
                        distinct.extend(obs.kex_value_fp);
                    }
                    Err(GrabFailure::Timeout) => {}
                    Err(_) => break,
                }
            }
            if sightings == 0 {
                continue;
            }
            funnel.supported += 1;
            let distinct = distinct.len() as u32;
            if sightings > 1 && distinct > 0 && distinct < sightings {
                funnel.repeat_twice += 1;
            }
            if sightings > 1 && distinct == 1 {
                funnel.all_same += 1;
            }
        }
        funnel
    }

    #[test]
    fn value_only_bursts_agree_with_full_bursts() {
        // Two worlds from one key material, scanned by scanners of one
        // label, run Table 1's three bursts on its three days in order.
        // Stopping at the verified server flight must not move a funnel.
        let cfg = PopulationConfig::new(11, 300);
        let world = Population::build(cfg.clone());
        let full_world = Population::build_with(cfg, world.keys.clone());
        let mut scanner = Scanner::new(&world, "burst-parity");
        let mut full = Scanner::new(&full_world, "burst-parity");
        for (offer, day) in [
            (SuiteOffer::DheOnly, 1),
            (SuiteOffer::EcdheOnly, 2),
            (SuiteOffer::All, 4),
        ] {
            let domains = world.churn.list_for_day(day);
            let now = day * 86_400 + 4 * 3_600;
            let funnel = burst_scan(&mut scanner, &domains, now, offer);
            assert_eq!(
                funnel,
                full_burst(&mut full, &domains, now, offer),
                "{offer:?}"
            );
            assert!(funnel.repeat_twice > 0, "{offer:?}: {funnel:?}");
            assert!(
                funnel.supported < funnel.trusted_tls,
                "{offer:?}: {funnel:?}"
            );
        }
    }

    #[test]
    fn dhe_funnel_smaller_than_full_support() {
        let p = pop();
        let mut s = Scanner::new(p, "burst-dhe");
        let domains: Vec<String> = p.churn.core().iter().take(60).cloned().collect();
        let dhe = burst_scan(&mut s, &domains, 6_000, SuiteOffer::DheOnly);
        let mut s = Scanner::new(p, "burst-ecdhe");
        let ecdhe = burst_scan(&mut s, &domains, 6_000, SuiteOffer::EcdheOnly);
        // Table 1 ordering: ECDHE support exceeds DHE support.
        assert!(
            ecdhe.supported >= dhe.supported,
            "ecdhe {} vs dhe {}",
            ecdhe.supported,
            dhe.supported
        );
    }
}
