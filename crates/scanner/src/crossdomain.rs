//! Cross-domain secret-sharing experiments (§5, Tables 5–7).
//!
//! * **Session caches** (§5.1): for each domain, try to resume its session
//!   on up to five sampled AS-mates and five IP-mates; close transitively.
//! * **STEKs** (§5.2): ten connections over a six-hour window plus one
//!   30-minute snapshot; group domains sharing any STEK identifier.
//! * **DH values** (§5.3): same cadence with DHE-only and ECDHE-only
//!   value-only grabs ([`Scanner::grab_kex`]); group domains sharing any
//!   key-exchange value.

use crate::grab::{GrabOptions, KexObservation, Scanner, SuiteOffer};
use std::collections::BTreeMap;
use ts_core::groups::ServiceGroup;
use ts_core::observations::{KexKind, KexSighting, SharingEdge, SharingKind, TicketSighting};
use ts_core::stream::GroupAcc;
use ts_simnet::Ip;
use ts_tls::server::ResumeKind;

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
pub fn build_targets(scanner: &Scanner, domains: &[String]) -> Vec<Target> {
    let pop = scanner.population();
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

/// §5.1: cross-domain session-ID probing. Returns the resulting service
/// groups plus the raw sharing edges.
pub fn session_cache_groups(
    scanner: &mut Scanner,
    targets: &[Target],
    now: u64,
    per_domain_samples: usize,
) -> (Vec<ServiceGroup>, Vec<SharingEdge>) {
    let mut edges = Vec::new();
    let mut resuming: Vec<String> = Vec::new();
    session_cache_scan_streaming(
        scanner,
        targets,
        now,
        per_domain_samples,
        |d| resuming.push(d.to_string()),
        |e| edges.push(e),
    );
    let mut acc = GroupAcc::exact();
    for domain in &resuming {
        acc.add(domain);
    }
    for e in &edges {
        acc.link(&e.a, &e.b);
    }
    (acc.service_groups(), edges)
}

/// §5.1 streaming form: `on_resuming` fires once per domain that resumes
/// its own session (the grouping universe), `on_edge` once per observed
/// cross-domain resumption. Probe order is identical to
/// [`session_cache_groups`], which is now this plus a collector.
pub fn session_cache_scan_streaming(
    scanner: &mut Scanner,
    targets: &[Target],
    now: u64,
    per_domain_samples: usize,
    mut on_resuming: impl FnMut(&str),
    mut on_edge: impl FnMut(SharingEdge),
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
        on_resuming(&t.domain);

        // Candidate siblings: up to N from the same AS, up to N on the
        // same IP (deduplicated, self excluded).
        let mut candidates: Vec<usize> = Vec::new();
        if let Some(as_id) = t.as_id {
            candidates.extend(
                by_as[&as_id]
                    .iter()
                    .copied()
                    .filter(|&j| j != i)
                    .take(per_domain_samples),
            );
        }
        candidates.extend(
            by_ip[&t.ip]
                .iter()
                .copied()
                .filter(|&j| j != i)
                .take(per_domain_samples),
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
                on_edge(SharingEdge {
                    a: t.domain.clone(),
                    b: sibling.domain.clone(),
                    kind: SharingKind::SessionCache,
                });
            }
        }
    }
}

/// §5.2: STEK sharing. Ten connections across `window_secs`, then one more
/// after `snapshot_offset`; groups from shared identifiers.
pub fn stek_sharing_scan(
    scanner: &mut Scanner,
    targets: &[Target],
    now: u64,
    window_secs: u64,
    connections: u32,
    snapshot_offset: u64,
) -> (Vec<ServiceGroup>, Vec<TicketSighting>) {
    let mut sightings = Vec::new();
    stek_sharing_scan_streaming(
        scanner,
        targets,
        now,
        window_secs,
        connections,
        snapshot_offset,
        |s| sightings.push(s),
    );
    let mut acc = GroupAcc::exact();
    for s in &sightings {
        acc.record(&s.domain, &s.stek_id, s.day);
    }
    (acc.service_groups(), sightings)
}

/// §5.2 streaming form: each ticket sighting goes to `on_sighting` as it
/// is observed (same grab order as [`stek_sharing_scan`]); grouping is
/// left to the caller's accumulator.
pub fn stek_sharing_scan_streaming(
    scanner: &mut Scanner,
    targets: &[Target],
    now: u64,
    window_secs: u64,
    connections: u32,
    snapshot_offset: u64,
    mut on_sighting: impl FnMut(TicketSighting),
) {
    for t in targets {
        for k in 0..connections {
            let at = now + (window_secs * k as u64) / connections.max(1) as u64;
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
        // The 30-minute-window snapshot scan, joined with the above.
        let at = now + snapshot_offset;
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

/// §5.3: Diffie-Hellman value sharing, DHE-only plus ECDHE-only offers.
pub fn dh_sharing_scan(
    scanner: &mut Scanner,
    targets: &[Target],
    now: u64,
    window_secs: u64,
    connections: u32,
) -> (Vec<ServiceGroup>, Vec<KexSighting>) {
    let mut sightings = Vec::new();
    dh_sharing_scan_streaming(scanner, targets, now, window_secs, connections, |s| {
        sightings.push(s)
    });
    // Both flavours in one accumulator: the paper groups them together
    // in Table 7.
    let mut acc = GroupAcc::exact();
    for s in &sightings {
        acc.record(&s.domain, &s.value_fp, s.day);
    }
    (acc.service_groups(), sightings)
}

/// §5.3 streaming form: each key-exchange sighting goes to `on_sighting`
/// as it is observed (same grab order as [`dh_sharing_scan`]).
pub fn dh_sharing_scan_streaming(
    scanner: &mut Scanner,
    targets: &[Target],
    now: u64,
    window_secs: u64,
    connections: u32,
    mut on_sighting: impl FnMut(KexSighting),
) {
    for t in targets {
        for (offer, kex) in [
            (SuiteOffer::DheOnly, KexKind::Dhe),
            (SuiteOffer::EcdheOnly, KexKind::Ecdhe),
        ] {
            for k in 0..connections {
                let at = now + (window_secs * k as u64) / connections.max(1) as u64;
                let g = scanner.grab_kex(&t.domain, at, offer);
                if let Ok(KexObservation {
                    trusted: true,
                    kex_value_fp: Some(value_fp),
                    ..
                }) = g.outcome
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::OnceLock;
    use ts_population::{Population, PopulationConfig};

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
        let mut s = Scanner::new(p, "targets");
        let domains = operator_domains(p, "cirrusflare", 5);
        let targets = build_targets(&mut s, &domains);
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
        let targets = build_targets(&mut s, &domains);
        let (groups, edges) = session_cache_groups(&mut s, &targets, 9_000, 5);
        assert!(!edges.is_empty(), "cross-domain resumption observed");
        assert_eq!(groups[0].size(), domains.len(), "one big group");
    }

    #[test]
    fn separate_sites_stay_separate() {
        let p = pop();
        let mut s = Scanner::new(p, "xd-separate");
        let domains = vec!["yahoo.sim".to_string(), "netflix.sim".to_string()];
        let targets = build_targets(&mut s, &domains);
        let (groups, edges) = session_cache_groups(&mut s, &targets, 9_000, 5);
        assert!(edges.is_empty());
        assert!(groups.iter().all(|g| g.size() == 1));
    }

    #[test]
    fn stek_sharing_groups_operator() {
        let p = pop();
        let mut s = Scanner::new(p, "xd-stek");
        let mut domains = operator_domains(p, "teemall", 3);
        domains.push("yahoo.sim".into());
        let targets = build_targets(&mut s, &domains);
        let (groups, sightings) =
            stek_sharing_scan(&mut s, &targets, 20_000, 6 * 3_600, 10, 30 * 60);
        assert!(!sightings.is_empty());
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
        let targets = build_targets(&mut s, &domains);
        let (groups, _sightings) = dh_sharing_scan(&mut s, &targets, 30_000, 3_600, 4);
        // rhombusspace shares an ECDHE value (3-day reuse policy).
        assert_eq!(groups[0].size(), 3, "{groups:?}");
    }
}
