//! Cross-domain secret-sharing experiments (§5, Tables 5–7).
//!
//! * **Session caches** (§5.1): for each domain, try to resume its session
//!   on up to five sampled AS-mates and five IP-mates; the caller closes
//!   the links transitively.
//! * **STEKs** (§5.2) and **DH values** (§5.3): one round grabs every
//!   target once at one instant and reports each STEK identifier or
//!   key-exchange value it sees; the DH round makes DHE-only and
//!   ECDHE-only value-only grabs ([`Scanner::grab_kex`]). The caller owns
//!   the schedule (ten rounds over six hours plus a snapshot 30 minutes
//!   later for STEKs, ten over five hours for DH values) and groups
//!   domains sharing any identifier or value.

use crate::grab::{GrabOptions, KexObservation, Scanner, SuiteOffer};
use std::collections::BTreeMap;
use ts_core::observations::{KexKind, KexSighting, TicketSighting};
use ts_population::Population;
use ts_simnet::Ip;
use ts_tls::server::ResumeKind;

/// Siblings sampled per domain from its AS, and again from its IP (§5.1).
const SIBLING_SAMPLES: usize = 5;

/// A target with its resolved address and AS (the sampling frame).
#[derive(Debug, Clone)]
pub struct Target {
    /// Domain name.
    pub domain: String,
    /// First A record.
    pub ip: Ip,
    /// Owning AS, when the address plan knows it.
    pub as_id: Option<u32>,
}

/// Resolve the sampling frame for the experiment.
pub fn build_targets(pop: &Population, domains: &[String]) -> Vec<Target> {
    domains
        .iter()
        .filter_map(|d| {
            if pop.blacklist.contains(d) {
                return None;
            }
            let ips = pop.dns.lookup_all(d)?;
            let ip = *ips.first()?;
            Some(Target {
                domain: d.clone(),
                ip,
                as_id: pop.as_plan.as_of(ip).map(|a| a.0),
            })
        })
        .collect()
}

/// §5.1: cross-domain session-ID probing. `on_link` fires once per
/// observed cross-domain resumption, with the domain whose session was
/// offered and the sibling that resumed it; grouping is left to the
/// caller's accumulator.
pub fn session_cache_scan(
    scanner: &mut Scanner,
    targets: &[Target],
    now: u64,
    mut on_link: impl FnMut(&str, &str),
) {
    // Index by AS and by IP. Ordered maps: `take(N)` below samples the
    // first N candidates, so the sampling frame must be stable.
    let mut by_as: BTreeMap<u32, Vec<usize>> = BTreeMap::new();
    let mut by_ip: BTreeMap<Ip, Vec<usize>> = BTreeMap::new();
    for (i, t) in targets.iter().enumerate() {
        if let Some(a) = t.as_id {
            by_as.entry(a).or_default().push(i);
        }
        by_ip.entry(t.ip).or_default().push(i);
    }

    for (i, t) in targets.iter().enumerate() {
        // Establish a session on t.
        let g = scanner.grab(&t.domain, now, &GrabOptions::default());
        let obs = match g.ok() {
            Some(o) if !o.session_id.is_empty() => o.clone(),
            _ => continue,
        };
        // Verify the domain resumes its own session at all.
        let self_opts =
            GrabOptions::new().resume_session(obs.session_id.clone(), obs.session.clone());
        let self_resumes = scanner
            .grab(&t.domain, now + 1, &self_opts)
            .ok()
            .map(|o| o.resumed == Some(ResumeKind::SessionId))
            .unwrap_or(false);
        if !self_resumes {
            continue;
        }

        // Candidate siblings: up to N from the same AS, up to N on the
        // same IP (deduplicated, self excluded).
        let mut candidates: Vec<usize> = Vec::new();
        if let Some(as_id) = t.as_id {
            candidates.extend(
                by_as[&as_id]
                    .iter()
                    .copied()
                    .filter(|&j| j != i)
                    .take(SIBLING_SAMPLES),
            );
        }
        candidates.extend(
            by_ip[&t.ip]
                .iter()
                .copied()
                .filter(|&j| j != i)
                .take(SIBLING_SAMPLES),
        );
        candidates.sort_unstable();
        candidates.dedup();

        for j in candidates {
            let sibling = &targets[j];
            // Offering a foreign session ID is harmless: the server falls
            // back to a full handshake on a miss (§5.1).
            let opts =
                GrabOptions::new().resume_session(obs.session_id.clone(), obs.session.clone());
            let g = scanner.grab_ip(&sibling.domain, sibling.ip, now + 2, &opts);
            let resumed = g
                .ok()
                .map(|o| o.resumed == Some(ResumeKind::SessionId))
                .unwrap_or(false);
            if resumed {
                on_link(&t.domain, &sibling.domain);
            }
        }
    }
}

/// One §5.2 STEK-sharing round: one grab per target at `at`. Each ticket
/// sighting goes to `on_sighting` as it is observed.
pub fn stek_sharing_round(
    scanner: &mut Scanner,
    targets: &[Target],
    at: u64,
    mut on_sighting: impl FnMut(TicketSighting),
) {
    for t in targets {
        let g = scanner.grab(&t.domain, at, &GrabOptions::default());
        if let Some(obs) = g.ok() {
            if let (true, Some(id), Some(nst)) = (obs.trusted, &obs.stek_id, &obs.ticket) {
                on_sighting(TicketSighting {
                    domain: t.domain.clone(),
                    day: at / 86_400,
                    stek_id: id.clone(),
                    lifetime_hint: nst.lifetime_hint,
                });
            }
        }
    }
}

/// One §5.3 DH-sharing round: one DHE-only and one ECDHE-only value-only
/// grab per target at `at`. Each key-exchange sighting goes to
/// `on_sighting` as it is observed.
pub fn dh_sharing_round(
    scanner: &mut Scanner,
    targets: &[Target],
    at: u64,
    mut on_sighting: impl FnMut(KexSighting),
) {
    for t in targets {
        for (offer, kex) in [
            (SuiteOffer::DheOnly, KexKind::Dhe),
            (SuiteOffer::EcdheOnly, KexKind::Ecdhe),
        ] {
            if let Ok(KexObservation {
                trusted: true,
                kex_value_fp: Some(value_fp),
                ..
            }) = scanner.grab_kex(&t.domain, at, offer).outcome
            {
                on_sighting(KexSighting {
                    domain: t.domain.clone(),
                    day: at / 86_400,
                    kex,
                    value_fp,
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::OnceLock;
    use ts_core::groups::ServiceGroup;
    use ts_core::stream::GroupAcc;
    use ts_population::{Population, PopulationConfig};

    /// Table 5's grouping: every target, linked by cross-domain resumption.
    fn cache_groups(s: &mut Scanner, targets: &[Target]) -> (Vec<ServiceGroup>, usize) {
        let mut acc = GroupAcc::exact();
        for t in targets {
            acc.add(&t.domain);
        }
        let mut edges = 0;
        session_cache_scan(s, targets, 9_000, |a, b| {
            acc.link(a, b);
            edges += 1;
        });
        (acc.service_groups(), edges)
    }

    fn pop() -> &'static Population {
        static POP: OnceLock<Population> = OnceLock::new();
        POP.get_or_init(|| {
            // Big enough that the smaller named operators (fastlane,
            // teemall, rhombusspace) scale to multiple domains.
            let mut cfg = PopulationConfig::new(97, 4000);
            cfg.flakiness = 0.0;
            cfg.transient_frac = 0.05;
            Population::build(cfg)
        })
    }

    fn operator_domains(p: &Population, op: &str, n: usize) -> Vec<String> {
        let mut v: Vec<String> = p
            .truth
            .iter()
            .filter(|t| t.operator.as_deref() == Some(op))
            .map(|t| t.name.clone())
            .collect();
        v.sort();
        v.truncate(n);
        v
    }

    #[test]
    fn targets_resolve_with_as() {
        let p = pop();
        let domains = operator_domains(p, "cirrusflare", 5);
        let targets = build_targets(p, &domains);
        assert_eq!(targets.len(), 5);
        assert!(targets.iter().all(|t| t.as_id.is_some()));
        // All in the same AS (one operator).
        let as_ids: std::collections::HashSet<u32> =
            targets.iter().filter_map(|t| t.as_id).collect();
        assert_eq!(as_ids.len(), 1);
    }

    #[test]
    fn shared_cache_detected_across_operator_domains() {
        let p = pop();
        let mut s = Scanner::new(p, "xd-cache");
        // fastlane shares one cache across all its domains.
        let domains = operator_domains(p, "fastlane", 4);
        assert!(domains.len() >= 2, "need at least 2 fastlane domains");
        let targets = build_targets(p, &domains);
        let (groups, edges) = cache_groups(&mut s, &targets);
        assert!(edges > 0, "cross-domain resumption observed");
        assert_eq!(groups[0].size(), domains.len(), "one big group");
    }

    #[test]
    fn separate_sites_stay_separate() {
        let p = pop();
        let mut s = Scanner::new(p, "xd-separate");
        let domains = vec!["yahoo.sim".to_string(), "netflix.sim".to_string()];
        let targets = build_targets(p, &domains);
        let (groups, edges) = cache_groups(&mut s, &targets);
        assert_eq!(edges, 0);
        assert!(groups.iter().all(|g| g.size() == 1));
    }

    #[test]
    fn stek_sharing_groups_operator() {
        let p = pop();
        let mut s = Scanner::new(p, "xd-stek");
        let mut domains = operator_domains(p, "teemall", 3);
        domains.push("yahoo.sim".into());
        let targets = build_targets(p, &domains);
        let mut acc = GroupAcc::exact();
        for k in 0..3 {
            let mut seen = Vec::new();
            stek_sharing_round(&mut s, &targets, 20_000 + k * 3 * 3_600, |x| {
                seen.push(x.domain.clone());
                acc.record(&x.domain, &x.stek_id, x.day)
            });
            assert_eq!(seen, domains, "round {k}: one sighting per target");
        }
        let groups = acc.service_groups();
        assert_eq!(groups[0].size(), 3, "teemall shares one STEK");
        assert!(groups
            .iter()
            .any(|g| g.members == vec!["yahoo.sim".to_string()]));
    }

    #[test]
    fn dh_sharing_groups_squarespace_like() {
        let p = pop();
        let mut s = Scanner::new(p, "xd-dh");
        let mut domains = operator_domains(p, "rhombusspace", 3);
        domains.push("twitter.sim".into());
        let targets = build_targets(p, &domains);
        let mut acc = GroupAcc::exact();
        for k in 0..4 {
            dh_sharing_round(&mut s, &targets, 30_000 + k * 900, |x| {
                acc.record(&x.domain, &x.value_fp, x.day)
            });
        }
        let groups = acc.service_groups();
        // rhombusspace shares an ECDHE value (3-day reuse policy).
        assert_eq!(groups[0].size(), 3, "{groups:?}");
    }
}
