//! SSL terminators: the unit of secret sharing.
//!
//! A terminator fronts one or more virtual hosts and owns the shared
//! secret state — one session cache, one STEK manager, one ephemeral-value
//! cache — for all of them. That is the root cause the paper identifies
//! for cross-domain service groups (§5): "domains share an SSL terminator,
//! whether it is a separate device ... or multiple domains running on the
//! same web server."

use crate::profile::DomainBehavior;
use parking_lot::RwLock;
use std::collections::BTreeMap;
use std::sync::Arc;
use ts_simnet::TlsResponder;
use ts_tls::cache::SharedSessionCache;
use ts_tls::config::{ServerConfig, ServerIdentity};
use ts_tls::ephemeral::EphemeralCache;
use ts_tls::ticket::SharedStekManager;
use ts_x509::hostname_matches;

/// One virtual host on a terminator.
pub struct VHost {
    /// Certificate chain + key for this domain.
    pub identity: Arc<ServerIdentity>,
    /// Behaviour knobs (suites, cache/ticket policies). The shared caches
    /// live on the terminator; the vhost only carries the *policy*.
    pub behavior: DomainBehavior,
}

/// An SSL terminator serving a set of domains with shared secret state.
pub struct Terminator {
    /// Shared session cache (None = no terminator-level cache).
    pub session_cache: Option<SharedSessionCache>,
    /// Shared STEK manager (None = tickets unavailable at this terminator).
    pub stek: Option<SharedStekManager>,
    /// Shared ephemeral-value cache.
    pub ephemeral: EphemeralCache,
    // Ordered: wildcard routing scans this map with `find`, so when two
    // wildcard patterns both match an SNI the winner must not depend on
    // the process's hash seed.
    vhosts: RwLock<BTreeMap<String, Arc<VHost>>>,
}

impl Terminator {
    /// Create a terminator with the given shared state.
    pub fn new(
        session_cache: Option<SharedSessionCache>,
        stek: Option<SharedStekManager>,
        ephemeral: EphemeralCache,
    ) -> Self {
        Terminator {
            session_cache,
            stek,
            ephemeral,
            vhosts: RwLock::new(BTreeMap::new()),
        }
    }

    /// Add a virtual host. Exact-match domains only (wildcard certs are
    /// fine; wildcard *routing* keys are matched per-label).
    pub fn add_vhost(&self, domain: &str, vhost: VHost) {
        self.vhosts
            .write()
            .insert(domain.to_ascii_lowercase(), Arc::new(vhost));
    }

    /// The domains served here (in name order — the map is ordered).
    pub fn domains(&self) -> Vec<String> {
        self.vhosts.read().keys().cloned().collect()
    }

    fn lookup(&self, sni: &str) -> Option<Arc<VHost>> {
        let key = sni.to_ascii_lowercase();
        let vhosts = self.vhosts.read();
        if let Some(v) = vhosts.get(&key) {
            return Some(v.clone());
        }
        // Wildcard routing: "*.customer.sim" vhost keys.
        vhosts
            .iter()
            .find(|(pattern, _)| pattern.starts_with("*.") && hostname_matches(pattern, &key))
            .map(|(_, v)| v.clone())
    }
}

impl TlsResponder for Terminator {
    fn server_config(&self, sni: &str, _now: u64) -> Option<ServerConfig> {
        let vhost = self.lookup(sni)?;
        let b = &vhost.behavior;
        Some(ServerConfig {
            identity: vhost.identity.clone(),
            suites: b.suites.clone(),
            issue_session_ids: b.cache.issue_ids,
            session_cache: if b.cache.resume {
                // Lifetime policy is enforced by the shared cache itself;
                // the builder sizes it from the behaviour's lifetime.
                self.session_cache.clone()
            } else {
                None
            },
            tickets: if b.tickets.enabled {
                self.stek.clone()
            } else {
                None
            },
            ticket_lifetime_hint: b.tickets.lifetime_hint,
            ticket_accept_window: b.tickets.accept_window,
            reissue_ticket_on_resumption: b.tickets.reissue,
            ephemeral: self.ephemeral.clone(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::{CachePolicy, Software, TicketPolicy};
    use ts_crypto::dh::DhGroup;
    use ts_crypto::drbg::HmacDrbg;
    use ts_crypto::rsa::RsaPrivateKey;
    use ts_tls::ephemeral::EphemeralPolicy;
    use ts_tls::suites::CipherSuite;
    use ts_tls::ticket::{RotationPolicy, StekManager, TicketFormat};
    use ts_x509::{Certificate, CertificateParams, DistinguishedName, Validity};

    fn behavior(ticket_enabled: bool) -> DomainBehavior {
        DomainBehavior {
            software: Software::Nginx,
            suites: CipherSuite::all().to_vec(),
            cache: CachePolicy {
                issue_ids: true,
                resume: true,
                lifetime: 300,
            },
            tickets: TicketPolicy {
                enabled: ticket_enabled,
                lifetime_hint: 300,
                accept_window: 300,
                rotation: RotationPolicy::Static,
                reissue: false,
            },
            dhe_policy: EphemeralPolicy::FreshPerHandshake,
            ecdhe_policy: EphemeralPolicy::FreshPerHandshake,
        }
    }

    fn identity(host: &str) -> Arc<ServerIdentity> {
        let mut rng = HmacDrbg::new(host.as_bytes());
        let key = RsaPrivateKey::generate(512, &mut rng).unwrap();
        let name = DistinguishedName::cn(host);
        let cert = Certificate::issue(
            &CertificateParams {
                serial: 1,
                subject: name.clone(),
                validity: Validity {
                    not_before: 0,
                    not_after: u32::MAX as u64,
                },
                dns_names: vec![host.to_string()],
                is_ca: false,
            },
            &key.public,
            &name,
            &key,
        );
        Arc::new(ServerIdentity {
            chain: vec![cert],
            key,
        })
    }

    fn terminator() -> Terminator {
        let stek = SharedStekManager::new(StekManager::new(
            RotationPolicy::Static,
            TicketFormat::Rfc5077,
            HmacDrbg::new(b"t-stek"),
            0,
        ));
        Terminator::new(
            Some(SharedSessionCache::new(300, 1000)),
            Some(stek),
            EphemeralCache::new(
                EphemeralPolicy::FreshPerHandshake,
                DhGroup::Sim256,
                HmacDrbg::new(b"t-eph"),
            ),
        )
    }

    #[test]
    fn vhost_routing_exact_and_wildcard() {
        let t = terminator();
        t.add_vhost(
            "a.sim",
            VHost {
                identity: identity("a.sim"),
                behavior: behavior(true),
            },
        );
        t.add_vhost(
            "*.pages.sim",
            VHost {
                identity: identity("*.pages.sim"),
                behavior: behavior(true),
            },
        );
        assert!(t.server_config("a.sim", 0).is_some());
        assert!(t.server_config("A.SIM", 0).is_some());
        assert!(t.server_config("blog.pages.sim", 0).is_some());
        assert!(t.server_config("deep.blog.pages.sim", 0).is_none());
        assert!(t.server_config("b.sim", 0).is_none());
        assert_eq!(
            t.domains(),
            vec!["*.pages.sim".to_string(), "a.sim".to_string()]
        );
    }

    #[test]
    fn shared_state_flows_into_configs() {
        let t = terminator();
        t.add_vhost(
            "a.sim",
            VHost {
                identity: identity("a.sim"),
                behavior: behavior(true),
            },
        );
        t.add_vhost(
            "b.sim",
            VHost {
                identity: identity("b.sim"),
                behavior: behavior(true),
            },
        );
        let ca = t.server_config("a.sim", 0).unwrap();
        let cb = t.server_config("b.sim", 0).unwrap();
        assert!(ca
            .session_cache
            .as_ref()
            .unwrap()
            .same_cache(cb.session_cache.as_ref().unwrap()));
        assert!(ca
            .tickets
            .as_ref()
            .unwrap()
            .same_manager(cb.tickets.as_ref().unwrap()));
        assert!(ca.ephemeral.same_cache(&cb.ephemeral));
    }

    #[test]
    fn ticket_disabled_vhost_gets_no_manager() {
        let t = terminator();
        t.add_vhost(
            "no-tickets.sim",
            VHost {
                identity: identity("no-tickets.sim"),
                behavior: behavior(false),
            },
        );
        let cfg = t.server_config("no-tickets.sim", 0).unwrap();
        assert!(cfg.tickets.is_none());
        assert!(cfg.session_cache.is_some());
    }

    #[test]
    fn cache_disabled_when_behavior_says_no_resume() {
        let t = terminator();
        let mut b = behavior(true);
        b.cache.resume = false;
        t.add_vhost(
            "no-cache.sim",
            VHost {
                identity: identity("no-cache.sim"),
                behavior: b,
            },
        );
        let cfg = t.server_config("no-cache.sim", 0).unwrap();
        assert!(cfg.session_cache.is_none());
        assert!(cfg.issue_session_ids);
    }
}
