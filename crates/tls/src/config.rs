//! Client and server configuration.
//!
//! Server knobs mirror the behaviours the paper measures: whether session
//! IDs are issued and cached (and for how long), whether tickets are issued
//! (with what lifetime hint and acceptance window), how STEKs rotate, and
//! how long ephemeral key-exchange values are reused. The `population`
//! crate assembles these into per-operator profiles.

use crate::cache::SharedSessionCache;
use crate::ephemeral::EphemeralCache;
use crate::session::SessionState;
use crate::suites::CipherSuite;
use crate::ticket::SharedStekManager;
use std::sync::Arc;
use ts_crypto::rsa::RsaPrivateKey;
use ts_x509::{Certificate, RootStore};

/// A server's certificate chain (leaf first) and private key.
pub struct ServerIdentity {
    /// Certificate chain, leaf first, excluding the root.
    pub chain: Vec<Certificate>,
    /// The leaf's RSA private key.
    pub key: RsaPrivateKey,
}

/// Server-side configuration.
#[derive(Clone)]
pub struct ServerConfig {
    /// Certificate chain and key (shared across a fleet).
    pub identity: Arc<ServerIdentity>,
    /// Supported suites in server preference order.
    pub suites: Vec<CipherSuite>,
    /// Issue session IDs in ServerHello? (Nginx issues even when it will
    /// not resume them.)
    pub issue_session_ids: bool,
    /// The session cache, if session-ID resumption is enabled. `None`
    /// means IDs are never looked up.
    pub session_cache: Option<SharedSessionCache>,
    /// The STEK manager, if session tickets are enabled.
    pub tickets: Option<SharedStekManager>,
    /// Lifetime hint sent in NewSessionTicket (seconds; 0 = unspecified).
    pub ticket_lifetime_hint: u32,
    /// Policy window: how long after original establishment a presented
    /// ticket is honoured, independent of STEK validity.
    pub ticket_accept_window: u64,
    /// Reissue a fresh ticket on successful ticket resumption?
    pub reissue_ticket_on_resumption: bool,
    /// Ephemeral key-exchange value cache (holds the reuse policy and the
    /// finite-field group for DHE suites).
    pub ephemeral: EphemeralCache,
}

impl ServerConfig {
    /// A straightforward config: all suites, session IDs cached for
    /// `cache_lifetime`, tickets under the given manager.
    pub fn new(identity: Arc<ServerIdentity>, ephemeral: EphemeralCache) -> Self {
        ServerConfig {
            identity,
            suites: CipherSuite::all().to_vec(),
            issue_session_ids: true,
            session_cache: Some(SharedSessionCache::new(300, 10_000)),
            tickets: None,
            ticket_lifetime_hint: 300,
            ticket_accept_window: 300,
            reissue_ticket_on_resumption: false,
            ephemeral,
        }
    }
}

/// What a client offers for resumption.
#[derive(Clone, Default)]
pub struct ResumptionOffer {
    /// Session-ID resumption: the ID and the saved state. The ID (and the
    /// encrypted ticket below) are cleartext wire artifacts; the secrecy
    /// of the paired `SessionState` travels with its own field names.
    // ctlint: public
    pub session: Option<(Vec<u8>, SessionState)>,
    /// Ticket resumption: the opaque ticket and the saved state.
    // ctlint: public
    pub ticket: Option<(Vec<u8>, SessionState)>,
}

/// Client-side configuration.
#[derive(Clone)]
pub struct ClientConfig {
    /// Trust anchors for chain validation.
    pub root_store: Arc<RootStore>,
    /// Offered suites in preference order.
    pub suites: Vec<CipherSuite>,
    /// SNI hostname (also used for certificate matching).
    pub server_name: String,
    /// Advertise session-ticket support (empty extension) even when not
    /// offering a ticket — all 2016 mainstream browsers did.
    pub offer_ticket_support: bool,
    /// Resumption material from a previous connection.
    pub resumption: ResumptionOffer,
    /// Abort the handshake when the server chain fails validation? The
    /// verdict is recorded either way; the scanner turns this off, so that
    /// it records trust failures instead of aborting.
    pub verify_certs: bool,
    /// Virtual time used for certificate validation.
    pub now: u64,
}

impl ClientConfig {
    /// Default client: all suites, tickets supported, full verification.
    pub fn new(root_store: Arc<RootStore>, server_name: &str, now: u64) -> Self {
        ClientConfig {
            root_store,
            suites: CipherSuite::all().to_vec(),
            server_name: server_name.to_string(),
            offer_ticket_support: true,
            resumption: ResumptionOffer::default(),
            verify_certs: true,
            now,
        }
    }
}
