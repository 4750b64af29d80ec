//! The daily 63-day campaign (§4.3, §4.4 — Figures 3–5, Tables 2–4).
//!
//! Each day, for each domain in that day's list: one browser-like grab
//! recording the issued ticket's STEK identifier (06:00), then one
//! DHE-only (06:01) and one ECDHE-first (06:02) value-only grab
//! ([`Scanner::grab_kex`]) recording the server's key-exchange values.

use crate::grab::{GrabOptions, KexObservation, Scanner, SuiteOffer};
use ts_core::observations::{KexKind, KexSighting, TicketSighting};
use ts_simnet::clock::{Clock, DAY, MINUTE};
use ts_telemetry::{emit, Counter, Event};

static CAMPAIGN_DAYS: Counter = Counter::new("scanner.campaign.days");
static CAMPAIGN_ATTEMPTS: Counter = Counter::new("scanner.campaign.attempts");

/// Seconds after midnight each day's scan starts (06:00).
const SCAN_TIME_OF_DAY: u64 = 6 * 3_600;

/// The instant day `day`'s scan starts (06:00): every grab of that day
/// runs at or after it.
pub fn scan_start(day: u64) -> u64 {
    day * DAY + SCAN_TIME_OF_DAY
}

/// Options for a daily campaign.
///
/// Construct with [`CampaignOptions::new`] and chain setters:
///
/// ```
/// use ts_scanner::CampaignOptions;
/// let opts = CampaignOptions::new().days(0..7);
/// ```
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct CampaignOptions {
    pub(crate) days: std::ops::Range<u64>,
}

impl CampaignOptions {
    /// The paper's campaign: 63 days, scans at 06:00, all three grabs.
    pub fn new() -> Self {
        CampaignOptions { days: 0..63 }
    }

    /// Days to scan (typically `0..63`).
    #[must_use]
    pub fn days(mut self, days: std::ops::Range<u64>) -> Self {
        self.days = days;
        self
    }
}

impl Default for CampaignOptions {
    fn default() -> Self {
        Self::new()
    }
}

/// A sink that keeps every sighting a campaign produced, for small
/// campaigns whose observations are inspected one by one.
#[derive(Debug, Default, Clone)]
pub struct CampaignData {
    /// (domain, day, STEK id) sightings.
    pub tickets: Vec<TicketSighting>,
    /// (domain, day, KEX value) sightings, both flavours.
    pub kex: Vec<KexSighting>,
}

/// Consumer of campaign observations, invoked as the scan produces them.
///
/// The streaming counterpart of [`CampaignData`]: a sink that folds each
/// sighting into a bounded accumulator lets a sharded campaign run with
/// peak memory independent of the domain-day count, instead of holding
/// every sighting of a nine-week scan at once.
pub trait CampaignSink {
    /// One ticket sighting (trusted grab that issued a ticket).
    fn ticket(&mut self, sighting: TicketSighting);
    /// One key-exchange sighting (either flavour).
    fn kex(&mut self, sighting: KexSighting);
    /// A campaign day finished scanning (eviction / flush hook).
    fn day_done(&mut self, _day: u64) {}
}

impl CampaignSink for CampaignData {
    fn ticket(&mut self, sighting: TicketSighting) {
        self.tickets.push(sighting);
    }

    fn kex(&mut self, sighting: KexSighting) {
        self.kex.push(sighting);
    }
}

/// Run a daily campaign over the per-day list `domains_for_day` selects,
/// draining observations into `sink` as each grab completes. Returns the
/// number of handshake attempts made.
pub fn run_campaign_streaming(
    scanner: &mut Scanner,
    options: &CampaignOptions,
    mut domains_for_day: impl FnMut(u64) -> Vec<String>,
    sink: &mut impl CampaignSink,
) -> u64 {
    let mut attempts = 0u64;
    // The key-exchange passes read only the verified server flight, so
    // they stop there (`grab_kex`). An RSA fallback on the ECDHE pass
    // yields no value and records nothing.
    let kex_passes = [
        (SuiteOffer::DheOnly, KexKind::Dhe, MINUTE),
        (SuiteOffer::EcdheThenRsa, KexKind::Ecdhe, 2 * MINUTE),
    ];
    for day in options.days.clone() {
        let clock = Clock::at(scan_start(day));
        let now = clock.now();
        debug_assert_eq!(clock.day(), day);
        for domain in domains_for_day(day) {
            attempts += 1;
            let g = scanner.grab(&domain, now, &GrabOptions::new());
            if let Some(obs) = g.ok() {
                if obs.trusted {
                    if let (Some(stek_id), Some(nst)) = (&obs.stek_id, &obs.ticket) {
                        sink.ticket(TicketSighting {
                            domain: domain.clone(),
                            day,
                            stek_id: stek_id.clone(),
                            lifetime_hint: nst.lifetime_hint,
                        });
                    }
                }
            }
            for (offer, kex, offset) in kex_passes {
                attempts += 1;
                let g = scanner.grab_kex(&domain, now + offset, offer);
                if let Ok(KexObservation {
                    trusted: true,
                    kex_value_fp: Some(value_fp),
                    ..
                }) = g.outcome
                {
                    sink.kex(KexSighting {
                        domain: domain.clone(),
                        day,
                        kex,
                        value_fp,
                    });
                }
            }
        }
        CAMPAIGN_DAYS.inc();
        emit(Event::CampaignDay { day });
        sink.day_done(day);
    }
    CAMPAIGN_ATTEMPTS.add(attempts);
    attempts
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;
    use std::sync::OnceLock;
    use ts_core::stream::{DomainSpans, SpanAcc};
    use ts_population::{Population, PopulationConfig};
    use ts_tls::cache::SharedSessionCache;

    fn pop() -> &'static Population {
        static POP: OnceLock<Population> = OnceLock::new();
        POP.get_or_init(|| {
            let mut cfg = PopulationConfig::new(31, 300);
            cfg.flakiness = 0.0;
            Population::build(cfg)
        })
    }

    fn stek_spans(data: &CampaignData) -> BTreeMap<String, DomainSpans> {
        let mut est = SpanAcc::exact();
        for s in &data.tickets {
            est.record(&s.domain, &s.stek_id, s.day);
        }
        est.domain_spans()
    }

    fn campaign(
        scanner: &mut Scanner,
        days: std::ops::Range<u64>,
        targets: Vec<String>,
    ) -> (CampaignData, u64) {
        let mut data = CampaignData::default();
        let options = CampaignOptions::new().days(days);
        let attempts =
            run_campaign_streaming(scanner, &options, move |_day| targets.clone(), &mut data);
        (data, attempts)
    }

    fn mini_campaign(days: std::ops::Range<u64>, targets: Vec<String>) -> CampaignData {
        campaign(&mut Scanner::new(pop(), "daily-test"), days, targets).0
    }

    #[test]
    fn static_stek_domain_spans_whole_window() {
        let data = mini_campaign(0..10, vec!["yahoo.sim".into()]);
        let spans = stek_spans(&data);
        assert_eq!(spans["yahoo.sim"].max_span_days, 10);
        assert_eq!(spans["yahoo.sim"].distinct_ids, 1, "one STEK for 10 days");
    }

    #[test]
    fn rotating_domain_changes_stek_daily() {
        // Fresh population: STEK rotation state is monotone in time, and
        // the shared test population may already have ticked past day 0.
        let mut cfg = PopulationConfig::new(33, 300);
        cfg.flakiness = 0.0;
        let p = Population::build(cfg);
        let mut s = Scanner::new(&p, "daily-rotate");
        let (data, _) = campaign(&mut s, 0..6, vec!["twitter.sim".into()]);
        let spans = stek_spans(&data);
        assert_eq!(spans["twitter.sim"].max_span_days, 1, "fresh STEK daily");
        assert_eq!(spans["twitter.sim"].distinct_ids, 6);
    }

    #[test]
    fn restart_rotation_observed_at_boundary() {
        // netflix.sim: STEK rotates every 54 days; in a 6-day window one id.
        let data = mini_campaign(0..6, vec!["netflix.sim".into()]);
        assert_eq!(stek_spans(&data)["netflix.sim"].distinct_ids, 1);
    }

    #[test]
    fn ecdhe_reuser_spans_and_fresh_domain_does_not() {
        let data = mini_campaign(0..5, vec!["whatsapp.sim".into(), "twitter.sim".into()]);
        let mut est = SpanAcc::exact();
        for s in data.kex.iter().filter(|s| s.kex == KexKind::Ecdhe) {
            est.record(&s.domain, &s.value_fp, s.day);
        }
        let spans = est.domain_spans();
        assert_eq!(spans["whatsapp.sim"].max_span_days, 5, "62-day ECDHE reuse");
        assert_eq!(spans["twitter.sim"].max_span_days, 1, "fresh values");
    }

    #[test]
    fn dhe_scan_collects_only_dhe_capable_domains() {
        // cookpad.sim reuses DHE 63d; cirrusflare has no DHE.
        let p = pop();
        let cdn = p
            .truth
            .iter()
            .find(|t| t.operator.as_deref() == Some("cirrusflare"))
            .unwrap()
            .name
            .clone();
        let data = mini_campaign(0..3, vec!["cookpad.sim".into(), cdn.clone()]);
        let dhe_domains: std::collections::HashSet<&str> = data
            .kex
            .iter()
            .filter(|s| s.kex == KexKind::Dhe)
            .map(|s| s.domain.as_str())
            .collect();
        assert!(dhe_domains.contains("cookpad.sim"));
        assert!(!dhe_domains.contains(cdn.as_str()));
    }

    #[test]
    fn value_only_passes_see_what_full_grabs_saw() {
        // The campaign as it ran while its DHE and ECDHE passes completed
        // every handshake, replayed with full grabs on a second world
        // from the same key material and a scanner of the same label.
        // The KEX sightings must be identical, and the ticket sightings
        // too once STEK ids are renamed by first appearance: sealing
        // draws IVs from the manager's DRBG, so key bytes differ after
        // the first ticket the value-only passes no longer seal, but
        // never which key is live when.
        let cfg = PopulationConfig::new(37, 300);
        let world = Population::build(cfg.clone());
        let full_world = Population::build_with(cfg, world.keys.clone());
        let targets = world.core_trusted();
        let days = 0..4;
        let mut scanner = Scanner::new(&world, "daily-parity");
        let (data, _) = campaign(&mut scanner, days.clone(), targets.clone());

        let mut full = CampaignData::default();
        let mut scanner = Scanner::new(&full_world, "daily-parity");
        for day in days {
            let now = day * DAY + 6 * 3_600;
            for domain in &targets {
                let g = scanner.grab(domain, now, &GrabOptions::new());
                if let Some(obs) = g.ok().filter(|o| o.trusted) {
                    if let (Some(stek_id), Some(nst)) = (&obs.stek_id, &obs.ticket) {
                        full.ticket(TicketSighting {
                            domain: domain.clone(),
                            day,
                            stek_id: stek_id.clone(),
                            lifetime_hint: nst.lifetime_hint,
                        });
                    }
                }
                for (offer, kex, at) in [
                    (SuiteOffer::DheOnly, KexKind::Dhe, now + MINUTE),
                    (SuiteOffer::EcdheThenRsa, KexKind::Ecdhe, now + 2 * MINUTE),
                ] {
                    let g = scanner.grab(domain, at, &GrabOptions::new().suites(offer));
                    if let Some(obs) = g.ok().filter(|o| o.trusted) {
                        if let Some(fp) = &obs.kex_value_fp {
                            full.kex(KexSighting {
                                domain: domain.clone(),
                                day,
                                kex,
                                value_fp: fp.clone(),
                            });
                        }
                    }
                }
            }
        }

        assert_eq!(data.kex, full.kex);
        let canonical = |sightings: &[TicketSighting]| {
            let mut ids = std::collections::HashMap::new();
            sightings
                .iter()
                .map(|s| {
                    let next = ids.len();
                    let id = *ids.entry(s.stek_id.clone()).or_insert(next);
                    (s.domain.clone(), s.day, id, s.lifetime_hint)
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(canonical(&data.tickets), canonical(&full.tickets));
        let distinct: std::collections::HashSet<&str> =
            data.tickets.iter().map(|s| s.stek_id.as_str()).collect();
        let domains: std::collections::HashSet<&str> =
            data.tickets.iter().map(|s| s.domain.as_str()).collect();
        assert!(distinct.len() > domains.len(), "some STEK rotated");
        assert!(!data.kex.is_empty());
    }

    #[test]
    fn discarding_expired_sessions_changes_no_sighting() {
        // Two worlds from one key material, scanned by scanners of one
        // label: one discards the sessions expired by each day's scan
        // start, the other keeps every session. No campaign grab offers
        // resumption and discarding draws nothing, so every sighting,
        // STEK ids included, must be identical.
        let cfg = PopulationConfig::new(41, 300);
        let world = Population::build(cfg.clone());
        let keeping_world = Population::build_with(cfg, world.keys.clone());
        let targets = world.core_trusted();
        let mut scanner = Scanner::new(&world, "daily-discard");
        let mut keeping = Scanner::new(&keeping_world, "daily-discard");
        let (mut data, mut kept) = (CampaignData::default(), CampaignData::default());
        let mut discarded = 0;
        for day in 0..4 {
            let now = scan_start(day);
            discarded += world.discard_expired_sessions(now);
            // Each cache now holds exactly the sessions its twin holds
            // that are no older than the cache's lifetime.
            let caches = |w: &Population| -> Vec<SharedSessionCache> {
                w.terminators
                    .iter()
                    .filter_map(|t| t.session_cache.clone())
                    .collect()
            };
            for (cache, all) in caches(&world).iter().zip(caches(&keeping_world)) {
                let unexpired: Vec<_> = all
                    .dump_secrets()
                    .into_iter()
                    .filter(|(_, s)| now.saturating_sub(s.established_at) <= all.lifetime_secs())
                    .collect();
                assert_eq!(cache.dump_secrets(), unexpired, "day {day}");
            }
            let options = CampaignOptions::new().days(day..day + 1);
            run_campaign_streaming(&mut scanner, &options, |_| targets.clone(), &mut data);
            run_campaign_streaming(&mut keeping, &options, |_| targets.clone(), &mut kept);
        }
        assert!(discarded > 0, "no session expired");
        assert_eq!(data.tickets, kept.tickets);
        assert_eq!(data.kex, kept.kex);
        assert!(!data.tickets.is_empty() && !data.kex.is_empty());
    }

    #[test]
    fn attempts_counted() {
        let mut s = Scanner::new(pop(), "daily-test");
        let (_, attempts) = campaign(&mut s, 0..2, vec!["yahoo.sim".into()]);
        assert_eq!(attempts, 2 * 3, "3 grabs per domain-day");
    }
}
