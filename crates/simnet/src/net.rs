//! The network: IPs bound to TLS responders, connection establishment,
//! and failure injection.
//!
//! A [`TlsResponder`] models an SSL terminator or origin server: given the
//! SNI a client presents, it yields the `ServerConfig` for that virtual
//! host (sharing caches/STEKs/ephemeral values across its domains — that
//! sharing *is* the paper's §5 phenomenon, and it lives in the responder
//! implementations in `ts-population`).

use crate::addr::Ip;
use std::collections::HashMap;
use std::sync::Arc;
use ts_crypto::drbg::HmacDrbg;
use ts_telemetry::{emit, Counter, Event};
use ts_tls::client::ServerFlight;
use ts_tls::config::{ClientConfig, ServerConfig};
use ts_tls::pump::{pump, WireCapture};
use ts_tls::{ClientConn, ServerConn, TlsError};

static CONNECT_ATTEMPTS: Counter = Counter::new("simnet.connect.attempts");
static CONNECT_OK: Counter = Counter::new("simnet.connect.ok");
/// The subset of `simnet.connect.ok` that stopped after the server flight.
static CONNECT_PROBE: Counter = Counter::new("simnet.connect.probe");
static CONNECT_REFUSED: Counter = Counter::new("simnet.connect.refused");
static CONNECT_FLAKY_DROP: Counter = Counter::new("simnet.connect.flaky_drop");
static CONNECT_UNKNOWN_SNI: Counter = Counter::new("simnet.connect.unknown_sni");
static CONNECT_TLS_FAIL: Counter = Counter::new("simnet.connect.tls_fail");

fn count_outcome(counter: &'static Counter, outcome: &'static str) {
    counter.inc();
    emit(Event::ConnectAttempt { outcome });
}

/// Something listening on TCP/443 at an IP.
pub trait TlsResponder: Send + Sync {
    /// The server configuration to use for a connection carrying `sni`,
    /// or `None` to refuse the connection (no such virtual host).
    fn server_config(&self, sni: &str, now: u64) -> Option<ServerConfig>;
}

/// Why a connection failed.
#[derive(Debug)]
pub enum ConnectError {
    /// No responder at the IP (connection refused / port closed).
    Refused,
    /// Transient network failure (the §4.3 "server failing to respond to
    /// one of our connections" jitter).
    Timeout,
    /// The responder has no virtual host for the SNI.
    UnknownHost,
    /// The TLS handshake itself failed.
    Tls(TlsError),
}

impl std::fmt::Display for ConnectError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConnectError::Refused => write!(f, "connection refused"),
            ConnectError::Timeout => write!(f, "connection timed out"),
            ConnectError::UnknownHost => write!(f, "no such virtual host"),
            ConnectError::Tls(e) => write!(f, "TLS failure: {e}"),
        }
    }
}

impl std::error::Error for ConnectError {}

/// A successful connection: the established client side, the server side
/// (for white-box assertions), and the passive capture.
pub struct Connection {
    /// Established client connection (query `summary()` for observations).
    pub client: ClientConn,
    /// The server's end.
    pub server: ServerConn,
    /// Every byte both directions exchanged.
    pub capture: WireCapture,
}

/// The simulated network.
pub struct SimNet {
    responders: HashMap<Ip, Arc<dyn TlsResponder>>,
    /// Per-IP probability a connection transiently fails.
    flakiness: HashMap<Ip, f64>,
    /// Default flakiness for IPs without an override.
    default_flakiness: f64,
}

impl Default for SimNet {
    fn default() -> Self {
        Self::new()
    }
}

impl SimNet {
    /// Empty network with no baseline flakiness.
    pub fn new() -> Self {
        SimNet {
            responders: HashMap::new(),
            flakiness: HashMap::new(),
            default_flakiness: 0.0,
        }
    }

    /// Set the network-wide default transient-failure probability.
    pub fn set_default_flakiness(&mut self, p: f64) {
        self.default_flakiness = p.clamp(0.0, 1.0);
    }

    /// Override flakiness for one IP.
    pub fn set_flakiness(&mut self, ip: Ip, p: f64) {
        self.flakiness.insert(ip, p.clamp(0.0, 1.0));
    }

    /// Bind a responder to an IP (replaces any previous binding).
    pub fn bind(&mut self, ip: Ip, responder: Arc<dyn TlsResponder>) {
        self.responders.insert(ip, responder);
    }

    /// Remove a binding.
    pub fn unbind(&mut self, ip: Ip) {
        self.responders.remove(&ip);
    }

    /// Number of bound IPs.
    pub fn len(&self) -> usize {
        self.responders.len()
    }

    /// True if nothing is bound.
    pub fn is_empty(&self) -> bool {
        self.responders.is_empty()
    }

    /// Establish a TLS connection to `ip` with the given client config.
    ///
    /// `rng` drives both failure injection and the two endpoints' secret
    /// generation; `now` is the virtual time of the whole exchange.
    pub fn connect(
        &self,
        ip: Ip,
        client_config: ClientConfig,
        now: u64,
        rng: &mut HmacDrbg,
    ) -> Result<Connection, ConnectError> {
        let (client, server, capture) =
            self.handshake(ip, client_config, now, rng, ClientConn::new)?;
        if !client.is_established() || !server.is_established() {
            count_outcome(&CONNECT_TLS_FAIL, "tls-fail");
            return Err(ConnectError::Tls(TlsError::NotReady));
        }
        count_outcome(&CONNECT_OK, "ok");
        Ok(Connection {
            client,
            server,
            capture,
        })
    }

    /// Run [`ClientConn::probe`] against `ip`: the same ClientHello,
    /// failure injection and DRBG draws as [`SimNet::connect`], but the
    /// handshake stops once the server flight is verified.
    pub fn probe(
        &self,
        ip: Ip,
        client_config: ClientConfig,
        now: u64,
        rng: &mut HmacDrbg,
    ) -> Result<ServerFlight, ConnectError> {
        let (client, _, _) = self.handshake(ip, client_config, now, rng, ClientConn::probe)?;
        match client.server_flight() {
            Ok(flight) => {
                CONNECT_PROBE.inc();
                count_outcome(&CONNECT_OK, "ok");
                Ok(flight)
            }
            Err(e) => {
                count_outcome(&CONNECT_TLS_FAIL, "tls-fail");
                Err(ConnectError::Tls(e))
            }
        }
    }

    /// What `connect` and `probe` share: find the responder, draw the
    /// transient failure, look up the virtual host, fork both endpoints'
    /// DRBGs and pump the handshake until neither side has more to say.
    fn handshake(
        &self,
        ip: Ip,
        client_config: ClientConfig,
        now: u64,
        rng: &mut HmacDrbg,
        client: fn(ClientConfig, HmacDrbg) -> ClientConn,
    ) -> Result<(ClientConn, ServerConn, WireCapture), ConnectError> {
        CONNECT_ATTEMPTS.inc();
        let responder = match self.responders.get(&ip) {
            Some(r) => r,
            None => {
                count_outcome(&CONNECT_REFUSED, "refused");
                return Err(ConnectError::Refused);
            }
        };
        let p_fail = self
            .flakiness
            .get(&ip)
            .copied()
            .unwrap_or(self.default_flakiness);
        if p_fail > 0.0 && rng.gen_bool(p_fail) {
            count_outcome(&CONNECT_FLAKY_DROP, "flaky-drop");
            return Err(ConnectError::Timeout);
        }
        let server_config = match responder.server_config(&client_config.server_name, now) {
            Some(cfg) => cfg,
            None => {
                count_outcome(&CONNECT_UNKNOWN_SNI, "unknown-sni");
                return Err(ConnectError::UnknownHost);
            }
        };
        let client_rng = rng.fork("client");
        let server_rng = rng.fork("server");
        let mut client = client(client_config, client_rng);
        let mut server = ServerConn::new(server_config, server_rng, now);
        match pump(&mut client, &mut server) {
            Ok(result) => Ok((client, server, result.capture)),
            Err(e) => {
                count_outcome(&CONNECT_TLS_FAIL, "tls-fail");
                Err(ConnectError::Tls(e))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use ts_crypto::rsa::RsaPrivateKey;
    use ts_tls::config::ServerIdentity;
    use ts_tls::ephemeral::{EphemeralCache, EphemeralPolicy};
    use ts_x509::{Certificate, CertificateParams, DistinguishedName, RootStore, Validity};

    struct FixedResponder {
        config: ServerConfig,
        host: String,
    }

    impl TlsResponder for FixedResponder {
        fn server_config(&self, sni: &str, _now: u64) -> Option<ServerConfig> {
            (sni == self.host).then(|| self.config.clone())
        }
    }

    fn setup() -> (SimNet, Arc<RootStore>) {
        let mut rng = HmacDrbg::new(b"simnet-test");
        let ca_key = RsaPrivateKey::generate(512, &mut rng).unwrap();
        let ca_name = DistinguishedName::cn("SimNet CA");
        let ca = Certificate::issue(
            &CertificateParams {
                serial: 1,
                subject: ca_name.clone(),
                validity: Validity {
                    not_before: 0,
                    not_after: u32::MAX as u64,
                },
                dns_names: vec![],
                is_ca: true,
            },
            &ca_key.public,
            &ca_name,
            &ca_key,
        );
        let leaf_key = RsaPrivateKey::generate(512, &mut rng).unwrap();
        let leaf = Certificate::issue(
            &CertificateParams {
                serial: 2,
                subject: DistinguishedName::cn("host.sim"),
                validity: Validity {
                    not_before: 0,
                    not_after: u32::MAX as u64,
                },
                dns_names: vec!["host.sim".into()],
                is_ca: false,
            },
            &leaf_key.public,
            &ca_name,
            &ca_key,
        );
        let mut store = RootStore::new();
        store.add_root(ca);
        let identity = Arc::new(ServerIdentity {
            chain: vec![leaf],
            key: leaf_key,
        });
        let eph = EphemeralCache::new(
            EphemeralPolicy::FreshPerHandshake,
            ts_crypto::dh::DhGroup::Sim256,
            HmacDrbg::new(b"eph"),
        );
        let config = ServerConfig::new(identity, eph);
        let mut net = SimNet::new();
        net.bind(
            Ip(100),
            Arc::new(FixedResponder {
                config,
                host: "host.sim".into(),
            }),
        );
        (net, Arc::new(store))
    }

    #[test]
    fn connect_succeeds_and_captures() {
        let (net, store) = setup();
        let mut rng = HmacDrbg::new(b"conn");
        let cfg = ClientConfig::new(store, "host.sim", 100);
        let conn = net.connect(Ip(100), cfg, 100, &mut rng).unwrap();
        assert!(conn.client.is_established());
        assert!(conn.server.is_established());
        assert!(!conn.capture.client_to_server.is_empty());
        assert!(!conn.capture.server_to_client.is_empty());
    }

    #[test]
    fn probe_sees_what_connect_sees_and_draws_alike() {
        // Same world, same seed: the probe reports the full handshake's
        // suite and server value, and leaves the caller's DRBG where
        // `connect` leaves it.
        let run = |probe: bool| {
            let (net, store) = setup();
            let mut rng = HmacDrbg::new(b"probe");
            let cfg = ClientConfig::new(store, "host.sim", 100);
            let seen = if probe {
                let flight = net.probe(Ip(100), cfg, 100, &mut rng).unwrap();
                assert_eq!(flight.trust, Ok(()));
                (flight.cipher_suite, flight.server_kex_public)
            } else {
                let conn = net.connect(Ip(100), cfg, 100, &mut rng).unwrap();
                let summary = conn.client.summary().unwrap();
                (summary.cipher_suite, summary.server_kex_public)
            };
            (seen, rng.bytes(16))
        };
        let (full, probe) = (run(false), run(true));
        assert!(full.0 .1.is_some(), "a PFS suite was negotiated");
        assert_eq!(full, probe);
    }

    #[test]
    fn probe_fails_where_connect_fails() {
        let (net, store) = setup();
        let mut rng = HmacDrbg::new(b"probe-fail");
        let cfg = ClientConfig::new(store.clone(), "host.sim", 100);
        assert!(matches!(
            net.probe(Ip(999), cfg, 100, &mut rng),
            Err(ConnectError::Refused)
        ));
        let cfg = ClientConfig::new(store, "other.sim", 100);
        assert!(matches!(
            net.probe(Ip(100), cfg, 100, &mut rng),
            Err(ConnectError::UnknownHost)
        ));
    }

    #[test]
    fn unbound_ip_refused() {
        let (net, store) = setup();
        let mut rng = HmacDrbg::new(b"refused");
        let cfg = ClientConfig::new(store, "host.sim", 100);
        assert!(matches!(
            net.connect(Ip(999), cfg, 100, &mut rng),
            Err(ConnectError::Refused)
        ));
    }

    #[test]
    fn unknown_sni_rejected() {
        let (net, store) = setup();
        let mut rng = HmacDrbg::new(b"sni");
        let cfg = ClientConfig::new(store, "other.sim", 100);
        assert!(matches!(
            net.connect(Ip(100), cfg, 100, &mut rng),
            Err(ConnectError::UnknownHost)
        ));
    }

    #[test]
    fn flakiness_injects_timeouts() {
        let (mut net, store) = setup();
        net.set_flakiness(Ip(100), 1.0);
        let mut rng = HmacDrbg::new(b"flaky");
        let cfg = ClientConfig::new(store.clone(), "host.sim", 100);
        assert!(matches!(
            net.connect(Ip(100), cfg, 100, &mut rng),
            Err(ConnectError::Timeout)
        ));
        // Partial flakiness: some succeed, some fail.
        net.set_flakiness(Ip(100), 0.5);
        let mut ok = 0;
        let mut timeout = 0;
        for i in 0..40 {
            let cfg = ClientConfig::new(store.clone(), "host.sim", 100 + i);
            match net.connect(Ip(100), cfg, 100 + i, &mut rng) {
                Ok(_) => ok += 1,
                Err(ConnectError::Timeout) => timeout += 1,
                Err(e) => panic!("unexpected {e}"),
            }
        }
        assert!(ok > 5, "some succeed ({ok})");
        assert!(timeout > 5, "some time out ({timeout})");
    }

    #[test]
    fn unbind_refuses_future_connections() {
        let (mut net, store) = setup();
        net.unbind(Ip(100));
        assert!(net.is_empty());
        let mut rng = HmacDrbg::new(b"unbind");
        let cfg = ClientConfig::new(store, "host.sim", 100);
        assert!(matches!(
            net.connect(Ip(100), cfg, 100, &mut rng),
            Err(ConnectError::Refused)
        ));
    }

    #[test]
    fn deterministic_replay() {
        // Two identical nets + seeds produce byte-identical captures.
        let run = || {
            let (net, store) = setup();
            let mut rng = HmacDrbg::new(b"replay");
            let cfg = ClientConfig::new(store, "host.sim", 100);
            let conn = net.connect(Ip(100), cfg, 100, &mut rng).unwrap();
            (conn.capture.client_to_server, conn.capture.server_to_client)
        };
        assert_eq!(run(), run());
    }
}
