//! The TLS grabber: one observed connection.
//!
//! Two kinds of grab share the blacklist, DNS, retry and telemetry code:
//! [`Scanner::grab`] completes the handshake and reports an
//! [`Observation`]; [`Scanner::grab_kex`] stops once the server flight is
//! verified and reports a [`KexObservation`], all that the daily DHE and
//! ECDHE scans and Table 7 read.

use ts_core::observations::fingerprint_hex;
use ts_crypto::drbg::HmacDrbg;
use ts_population::Population;
use ts_simnet::{ConnectError, Ip, SimNet};
use ts_telemetry::{emit, Counter, Event, Histogram};
use ts_tls::client::ServerFlight;
use ts_tls::config::{ClientConfig, ResumptionOffer};
use ts_tls::server::ResumeKind;
use ts_tls::session::SessionState;
use ts_tls::suites::CipherSuite;
use ts_tls::ticket::{extract_stek_id, sniff_format};
use ts_tls::wire::handshake::NewSessionTicket;
use ts_tls::TlsError;

static GRAB_OK: Counter = Counter::new("scanner.grab.ok");
static GRAB_BLACKLISTED: Counter = Counter::new("scanner.grab.blacklisted");
static GRAB_NO_DNS: Counter = Counter::new("scanner.grab.no_dns");
static GRAB_REFUSED: Counter = Counter::new("scanner.grab.refused");
static GRAB_TIMEOUT: Counter = Counter::new("scanner.grab.timeout");
static GRAB_UNKNOWN_HOST: Counter = Counter::new("scanner.grab.unknown_host");
static GRAB_TLS_FAILED: Counter = Counter::new("scanner.grab.tls_failed");
static GRAB_RETRIES: Counter = Counter::new("scanner.grab.retries");
static GRAB_ATTEMPTS: Histogram = Histogram::new("scanner.grab.attempts", &[1, 2, 3, 4, 8]);

/// Transport retries after a transient timeout.
const RETRIES: u32 = 2;

/// Count one concluded grab under its class counter and fire the event.
fn record_grab<T>(outcome: &Result<T, GrabFailure>, attempts: u32) {
    let (counter, class): (&'static Counter, &'static str) = match outcome {
        Ok(_) => (&GRAB_OK, "ok"),
        Err(f) => (
            match f {
                GrabFailure::Blacklisted => &GRAB_BLACKLISTED,
                GrabFailure::NoDns => &GRAB_NO_DNS,
                GrabFailure::Refused => &GRAB_REFUSED,
                GrabFailure::Timeout => &GRAB_TIMEOUT,
                GrabFailure::UnknownHost => &GRAB_UNKNOWN_HOST,
                GrabFailure::TlsFailed(_) => &GRAB_TLS_FAILED,
            },
            f.class(),
        ),
    };
    counter.inc();
    if attempts > 1 {
        GRAB_RETRIES.add(u64::from(attempts - 1));
    }
    if attempts > 0 {
        // Blacklisted / no-DNS grabs never touch the network.
        GRAB_ATTEMPTS.observe(u64::from(attempts));
    }
    emit(Event::GrabOutcome { class, attempts });
}

/// Which cipher suites the grabber offers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SuiteOffer {
    /// Everything, browser-like (ECDHE preferred).
    All,
    /// Only DHE suites (the Censys-style DHE scans).
    DheOnly,
    /// Only ECDHE suites.
    EcdheOnly,
    /// ECDHE preferred with RSA fallback (the paper's ECDHE scan offer).
    EcdheThenRsa,
}

impl SuiteOffer {
    fn suites(self) -> Vec<CipherSuite> {
        match self {
            SuiteOffer::All => CipherSuite::all().to_vec(),
            SuiteOffer::DheOnly => CipherSuite::dhe_only().to_vec(),
            SuiteOffer::EcdheOnly => CipherSuite::ecdhe_only().to_vec(),
            SuiteOffer::EcdheThenRsa => {
                let mut v = CipherSuite::ecdhe_only().to_vec();
                v.push(CipherSuite::RsaAes128CbcSha256);
                v
            }
        }
    }
}

/// Options for one grab.
///
/// Construct with [`GrabOptions::new`] and chain setters; the struct is
/// `#[non_exhaustive]` so new knobs can land without breaking callers:
///
/// ```
/// use ts_scanner::{GrabOptions, SuiteOffer};
/// let opts = GrabOptions::new().suites(SuiteOffer::DheOnly);
/// ```
///
/// Every grab records trust failures instead of aborting the handshake,
/// and retries a transient timeout twice.
#[derive(Clone)]
#[non_exhaustive]
pub struct GrabOptions {
    pub(crate) suites: SuiteOffer,
    // Field names deliberately differ from the `resume_session` /
    // `resume_ticket` builder methods: ts-lint treats the byteish fields
    // of a secret-bearing struct as tainted projections by name, and a
    // chained `.resume_session(..)` call must not read as one.
    pub(crate) sid_resume: Option<(Vec<u8>, SessionState)>,
    pub(crate) ticket_resume: Option<(Vec<u8>, SessionState)>,
}

impl GrabOptions {
    /// The defaults: offer every suite, no resumption.
    pub fn new() -> Self {
        GrabOptions {
            suites: SuiteOffer::All,
            sid_resume: None,
            ticket_resume: None,
        }
    }

    /// Cipher suites to offer.
    #[must_use]
    pub fn suites(mut self, offer: SuiteOffer) -> Self {
        self.suites = offer;
        self
    }

    /// Offer a session ID (and its cached state) for resumption.
    #[must_use]
    pub fn resume_session(mut self, session_id: Vec<u8>, state: SessionState) -> Self {
        self.sid_resume = Some((session_id, state));
        self
    }

    /// Offer a session ticket (and its cached state) for resumption.
    #[must_use]
    pub fn resume_ticket(mut self, ticket: Vec<u8>, state: SessionState) -> Self {
        self.ticket_resume = Some((ticket, state));
        self
    }
}

impl Default for GrabOptions {
    fn default() -> Self {
        Self::new()
    }
}

/// Why a grab failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GrabFailure {
    /// Domain is blacklisted — never contacted.
    Blacklisted,
    /// No DNS A record.
    NoDns,
    /// TCP-level refusal (no HTTPS).
    Refused,
    /// Timed out after retries.
    Timeout,
    /// SNI unknown at the endpoint.
    UnknownHost,
    /// TLS handshake failed (the structured cause is preserved).
    TlsFailed(TlsError),
}

impl GrabFailure {
    /// Stable label for this failure class (telemetry / report keys).
    pub fn class(&self) -> &'static str {
        match self {
            GrabFailure::Blacklisted => "blacklisted",
            GrabFailure::NoDns => "no-dns",
            GrabFailure::Refused => "refused",
            GrabFailure::Timeout => "timeout",
            GrabFailure::UnknownHost => "unknown-host",
            GrabFailure::TlsFailed(_) => "tls-failed",
        }
    }
}

impl std::fmt::Display for GrabFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GrabFailure::Blacklisted => write!(f, "domain blacklisted"),
            GrabFailure::NoDns => write!(f, "no DNS A record"),
            GrabFailure::Refused => write!(f, "connection refused"),
            GrabFailure::Timeout => write!(f, "timed out after retries"),
            GrabFailure::UnknownHost => write!(f, "endpoint does not serve this SNI"),
            GrabFailure::TlsFailed(e) => write!(f, "TLS handshake failed: {e}"),
        }
    }
}

impl From<ConnectError> for GrabFailure {
    fn from(e: ConnectError) -> Self {
        match e {
            ConnectError::Refused => GrabFailure::Refused,
            ConnectError::Timeout => GrabFailure::Timeout,
            ConnectError::UnknownHost => GrabFailure::UnknownHost,
            ConnectError::Tls(e) => GrabFailure::TlsFailed(e),
        }
    }
}

impl std::error::Error for GrabFailure {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            GrabFailure::TlsFailed(e) => Some(e),
            _ => None,
        }
    }
}

/// Everything one successful connection reveals.
#[derive(Debug, Clone)]
pub struct Observation {
    /// Negotiated suite.
    pub cipher_suite: CipherSuite,
    /// Chain validated against the root store?
    pub trusted: bool,
    /// ServerHello session ID (empty if none; cleartext on the wire).
    // ctlint: public
    pub session_id: Vec<u8>,
    /// How the handshake resumed, if it did.
    pub resumed: Option<ResumeKind>,
    /// NewSessionTicket, if issued.
    pub ticket: Option<NewSessionTicket>,
    /// Hex STEK identifier parsed out of the ticket.
    pub stek_id: Option<String>,
    /// Hex fingerprint of the server's (EC)DHE public value.
    pub kex_value_fp: Option<String>,
    /// Session state for later resumption offers.
    pub session: SessionState,
}

/// What a value-only key-exchange grab ([`Scanner::grab_kex`]) reveals:
/// the server flight, verified, with nothing after it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KexObservation {
    /// Negotiated suite.
    pub cipher_suite: CipherSuite,
    /// Chain validated against the root store?
    pub trusted: bool,
    /// Hex fingerprint of the server's (EC)DHE public value; `None` when
    /// the server chose RSA key exchange.
    pub kex_value_fp: Option<String>,
}

impl From<ServerFlight> for KexObservation {
    fn from(flight: ServerFlight) -> Self {
        KexObservation {
            cipher_suite: flight.cipher_suite,
            trusted: flight.trust.is_ok(),
            kex_value_fp: flight.server_kex_public.as_deref().map(fingerprint_hex),
        }
    }
}

/// The result of one grab: an [`Observation`], or a [`KexObservation`]
/// from [`Scanner::grab_kex`].
#[derive(Debug, Clone)]
pub struct Grab<T = Observation> {
    /// Target domain.
    pub domain: String,
    /// Resolved address, when DNS succeeded.
    pub ip: Option<Ip>,
    /// Observation or failure.
    pub outcome: Result<T, GrabFailure>,
}

impl<T> Grab<T> {
    /// Shorthand: did the grab succeed?
    pub fn ok(&self) -> Option<&T> {
        self.outcome.as_ref().ok()
    }
}

/// The scanner: a seeded connection factory against one population.
pub struct Scanner<'a> {
    pop: &'a Population,
    rng: HmacDrbg,
}

impl<'a> Scanner<'a> {
    /// New scanner with its own RNG stream.
    pub fn new(pop: &'a Population, seed_label: &str) -> Self {
        Scanner {
            pop,
            rng: HmacDrbg::from_seed_label(pop.config.seed, seed_label),
        }
    }

    /// The population under measurement.
    pub fn population(&self) -> &Population {
        self.pop
    }

    /// Perform one grab of `domain` at virtual time `now`.
    pub fn grab(&mut self, domain: &str, now: u64, options: &GrabOptions) -> Grab {
        match self.resolve(domain) {
            Ok(ip) => self.grab_ip(domain, ip, now, options),
            Err(grab) => grab,
        }
    }

    /// Observe `domain`'s key-exchange value at virtual time `now`,
    /// offering `offer`: the grab [`Scanner::grab`] would make with
    /// `GrabOptions::new().suites(offer)`, stopped once the server flight
    /// is verified. The client generates no key, neither side computes a
    /// shared secret, and the server stores no session and issues no
    /// ticket.
    pub fn grab_kex(&mut self, domain: &str, now: u64, offer: SuiteOffer) -> Grab<KexObservation> {
        let ip = match self.resolve(domain) {
            Ok(ip) => ip,
            Err(grab) => return grab,
        };
        let options = GrabOptions::new().suites(offer);
        self.attempt(domain, ip, now, &options, |net, cfg, rng| {
            net.probe(ip, cfg, now, rng).map(KexObservation::from)
        })
    }

    /// Grab a specific IP with a given SNI (the cross-domain experiments
    /// pick the address explicitly).
    pub fn grab_ip(&mut self, sni: &str, ip: Ip, now: u64, options: &GrabOptions) -> Grab {
        self.attempt(sni, ip, now, options, |net, cfg, rng| {
            let conn = net.connect(ip, cfg, now, rng)?;
            let summary = conn.client.summary().map_err(ConnectError::Tls)?;
            let trusted = matches!(summary.trust, Some(Ok(()))) || summary.resumed.is_some();
            let stek_id = summary.new_ticket.as_ref().map(|nst| {
                let format = sniff_format(&nst.ticket);
                extract_stek_id(&nst.ticket, format)
                    .map(|id| fingerprint_hex(&id))
                    .unwrap_or_else(|_| "unparseable".into())
            });
            Ok(Observation {
                cipher_suite: summary.cipher_suite,
                trusted,
                kex_value_fp: summary.server_kex_public.as_deref().map(fingerprint_hex),
                session_id: summary.server_session_id,
                resumed: summary.resumed,
                ticket: summary.new_ticket,
                stek_id,
                session: summary.session,
            })
        })
    }

    /// The blacklist and DNS checks: the address to contact, or the
    /// concluded grab that never touched the network.
    fn resolve<T>(&mut self, domain: &str) -> Result<Ip, Grab<T>> {
        let failure = if self.pop.blacklist.contains(domain) {
            GrabFailure::Blacklisted
        } else if let Some(ip) = self.pop.dns.resolve(domain, &mut self.rng) {
            return Ok(ip);
        } else {
            GrabFailure::NoDns
        };
        let outcome = Err(failure);
        record_grab(&outcome, 0);
        Err(Grab {
            domain: domain.into(),
            ip: None,
            outcome,
        })
    }

    /// Run `connect` against `ip`, retrying transient timeouts up to
    /// [`RETRIES`] times, and record the concluded grab.
    fn attempt<T>(
        &mut self,
        sni: &str,
        ip: Ip,
        now: u64,
        options: &GrabOptions,
        mut connect: impl FnMut(&SimNet, ClientConfig, &mut HmacDrbg) -> Result<T, ConnectError>,
    ) -> Grab<T> {
        let mut attempts = 0u32;
        let outcome = loop {
            attempts += 1;
            let mut cfg = ClientConfig::new(self.pop.root_store.clone(), sni, now);
            cfg.suites = options.suites.suites();
            // Record trust failures instead of aborting the handshake.
            cfg.verify_certs = false;
            cfg.resumption = ResumptionOffer {
                session: options.sid_resume.clone(),
                ticket: options.ticket_resume.clone(),
            };
            match connect(&self.pop.net, cfg, &mut self.rng) {
                Ok(observation) => break Ok(observation),
                Err(ConnectError::Timeout) if attempts <= RETRIES => continue,
                Err(e) => break Err(GrabFailure::from(e)),
            }
        };
        record_grab(&outcome, attempts);
        Grab {
            domain: sni.into(),
            ip: Some(ip),
            outcome,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::OnceLock;
    use ts_population::PopulationConfig;

    fn pop() -> &'static Population {
        static POP: OnceLock<Population> = OnceLock::new();
        POP.get_or_init(|| Population::build(PopulationConfig::new(7, 500)))
    }

    #[test]
    fn grab_trusted_domain_succeeds() {
        let mut s = Scanner::new(pop(), "grab-test");
        let g = s.grab("yahoo.sim", 1000, &GrabOptions::default());
        let obs = g.ok().expect("handshake succeeds");
        assert!(obs.trusted);
        assert!(obs.ticket.is_some());
        assert!(obs.stek_id.is_some());
        assert!(obs.kex_value_fp.is_some(), "PFS suite negotiated");
        assert!(obs.resumed.is_none());
    }

    #[test]
    fn grab_blacklist_never_contacts() {
        let p = pop();
        let victim = p
            .truth
            .iter()
            .find(|t| t.blacklisted)
            .map(|t| t.name.clone());
        if let Some(victim) = victim {
            let mut s = Scanner::new(p, "bl-test");
            let g = s.grab(&victim, 1000, &GrabOptions::default());
            assert_eq!(g.outcome.unwrap_err(), GrabFailure::Blacklisted);
            assert!(g.ip.is_none(), "no DNS resolution even");
        }
    }

    #[test]
    fn grab_unknown_domain_no_dns() {
        let mut s = Scanner::new(pop(), "nodns-test");
        let g = s.grab("no-such-domain.sim", 1000, &GrabOptions::default());
        assert_eq!(g.outcome.unwrap_err(), GrabFailure::NoDns);
    }

    #[test]
    fn grab_non_https_refused() {
        let p = pop();
        let dead = p
            .truth
            .iter()
            .find(|t| !t.https && t.stable && !t.blacklisted)
            .expect("non-https domain exists");
        let mut s = Scanner::new(p, "refused-test");
        let g = s.grab(&dead.name, 1000, &GrabOptions::default());
        assert_eq!(g.outcome.unwrap_err(), GrabFailure::Refused);
    }

    #[test]
    fn untrusted_domain_recorded_when_permissive() {
        let p = pop();
        let ut = p
            .truth
            .iter()
            .find(|t| t.https && !t.trusted && t.stable && !t.blacklisted)
            .expect("untrusted domain exists");
        let mut s = Scanner::new(p, "permissive-test");
        let g = s.grab(&ut.name, 1000, &GrabOptions::default());
        let obs = g.ok().expect("permissive grab succeeds");
        assert!(!obs.trusted);
    }

    #[test]
    fn dhe_only_offer_fails_on_non_dhe_domain() {
        let p = pop();
        // cirrusflare serves ECDHE+RSA only.
        let cdn = p
            .truth
            .iter()
            .find(|t| t.operator.as_deref() == Some("cirrusflare"))
            .expect("cdn domain");
        let mut s = Scanner::new(p, "dhe-test");
        let opts = GrabOptions::new().suites(SuiteOffer::DheOnly);
        let g = s.grab(&cdn.name, 1000, &opts);
        assert!(
            matches!(g.outcome, Err(GrabFailure::TlsFailed(_))),
            "no common suite: {:?}",
            g.outcome
        );
    }

    #[test]
    fn kex_grabs_agree_with_full_grabs() {
        // Two worlds from one key material serve the same values; two
        // scanners of one seed label draw the same DNS answers, drops and
        // endpoint DRBGs. So a value-only grab must see what a full grab
        // sees, on every core domain and for every offer the scans make.
        let cfg = PopulationConfig::new(11, 300);
        let full_world = Population::build(cfg.clone());
        let kex_world = Population::build_with(cfg, full_world.keys.clone());
        let mut full = Scanner::new(&full_world, "agreement");
        let mut kex = Scanner::new(&kex_world, "agreement");
        let mut classes = std::collections::BTreeMap::new();
        for domain in full_world.churn.core() {
            for (i, offer) in [
                SuiteOffer::DheOnly,
                SuiteOffer::EcdheOnly,
                SuiteOffer::EcdheThenRsa,
            ]
            .into_iter()
            .enumerate()
            {
                let now = 1_000 + 60 * i as u64;
                let g = full.grab(domain, now, &GrabOptions::new().suites(offer));
                let k = kex.grab_kex(domain, now, offer);
                assert_eq!(g.ip, k.ip, "{domain} {offer:?}");
                let class = match (&g.outcome, &k.outcome) {
                    (Ok(obs), Ok(k)) => {
                        let seen = (obs.cipher_suite, obs.trusted, &obs.kex_value_fp);
                        assert_eq!(seen, (k.cipher_suite, k.trusted, &k.kex_value_fp));
                        let rsa = k.cipher_suite == CipherSuite::RsaAes128CbcSha256;
                        assert_eq!(rsa, k.kex_value_fp.is_none(), "{domain} {offer:?}");
                        if rsa {
                            "ok-rsa"
                        } else {
                            "ok"
                        }
                    }
                    (Err(a), Err(b)) => {
                        assert_eq!(a, b, "{domain} {offer:?}");
                        a.class()
                    }
                    (a, b) => panic!("{domain} {offer:?}: grab {a:?}, grab_kex {b:?}"),
                };
                *classes.entry(class).or_insert(0u32) += 1;
            }
        }
        for class in ["ok", "ok-rsa", "tls-failed", "refused"] {
            assert!(classes.contains_key(class), "no {class} grab: {classes:?}");
        }
    }

    #[test]
    fn ticket_resumption_via_grab() {
        let p = pop();
        let mut s = Scanner::new(p, "resume-test");
        let g1 = s.grab("yahoo.sim", 2000, &GrabOptions::default());
        let obs1 = g1.ok().expect("first grab").clone();
        let nst = obs1.ticket.expect("ticket issued");
        let opts = GrabOptions::new().resume_ticket(nst.ticket, obs1.session.clone());
        let g2 = s.grab("yahoo.sim", 2001, &opts);
        let obs2 = g2.ok().expect("second grab");
        assert_eq!(obs2.resumed, Some(ResumeKind::Ticket));
    }

    #[test]
    fn session_resumption_via_grab() {
        let p = pop();
        let mut s = Scanner::new(p, "sid-resume-test");
        let g1 = s.grab("netflix.sim", 2000, &GrabOptions::default());
        let obs1 = g1.ok().expect("first grab").clone();
        assert!(!obs1.session_id.is_empty());
        let opts = GrabOptions::new().resume_session(obs1.session_id.clone(), obs1.session.clone());
        let g2 = s.grab("netflix.sim", 2001, &opts);
        let obs2 = g2.ok().expect("second grab");
        assert_eq!(obs2.resumed, Some(ResumeKind::SessionId));
    }
}
