//! The server-side TLS 1.2 state machine.
//!
//! Sans-I/O: callers move transport bytes with [`ConnectionCommon::read_tls`]
//! / [`ConnectionCommon::write_tls`] (via deref) and advance the handshake
//! with [`ServerConn::process_new_packets`]. The connection is pinned to
//! the virtual time passed at construction (a TLS handshake is
//! instantaneous at simulation granularity).
//!
//! On the resumption hot path the connection pins the published STEK
//! snapshot ([`crate::ticket::PinnedStekSet`]) so ticket decryption runs
//! without taking the shared manager lock — the redesign that lets a
//! loadgen fleet scale past one core.

use crate::alert::AlertDescription;
use crate::config::ServerConfig;
use crate::conn::{self, ConnectionCommon, IoState, Keyed, Side, Status};
use crate::error::TlsError;
use crate::keys::{key_block, master_secret, ConnectionKeys};
use crate::session::SessionState;
use crate::suites::{CipherSuite, KeyExchange};
use crate::ticket::PinnedStekSet;
use crate::wire::extensions::{find_server_name, find_session_ticket, Extension};
use crate::wire::handshake::{
    CertificateMsg, ClientHello, ClientKeyExchange, HandshakeMessage, NewSessionTicket,
    ServerHello, ServerKexParams, ServerKeyExchange,
};
use crate::wire::record::DirectionKeys;
use std::ops::{Deref, DerefMut};
use std::sync::Arc;
use ts_crypto::bignum::Ub;
use ts_crypto::dh::{validate_public, DhKeyPair};
use ts_crypto::drbg::HmacDrbg;
use ts_crypto::x25519::X25519KeyPair;
use ts_telemetry::{emit, Counter, Event};

static HANDSHAKE_FULL: Counter = Counter::new("tls.server.handshake.full");
static RESUME_TICKET_HIT: Counter = Counter::new("tls.server.resume.ticket.hit");
static RESUME_TICKET_MISS: Counter = Counter::new("tls.server.resume.ticket.miss");
static RESUME_SID_HIT: Counter = Counter::new("tls.server.resume.session_id.hit");
static RESUME_SID_MISS: Counter = Counter::new("tls.server.resume.session_id.miss");
static TICKET_ISSUED: Counter = Counter::new("tls.server.ticket.issued");
static TICKET_REISSUED: Counter = Counter::new("tls.server.ticket.reissued");
static ALERT_SENT: Counter = Counter::new("tls.server.alert.sent");

/// How the connection was (or wasn't) resumed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResumeKind {
    /// Abbreviated handshake via session-ID cache hit.
    SessionId,
    /// Abbreviated handshake via an accepted session ticket.
    Ticket,
}

/// Where the server's handshake stands. Each variant owns what the next
/// step needs, and a step moves it into the variant that follows.
enum State {
    AwaitClientHello,
    AwaitClientKex {
        suite: CipherSuite,
        key_pair: KeyPair,
    },
    /// The client's CCS makes its write keys `read` protect what we read.
    AwaitCcs {
        keys: Keyed,
        read: DirectionKeys,
    },
    AwaitFinished(Keyed),
    Established,
    Failed,
}

impl State {
    fn expects(&self) -> &'static str {
        match self {
            State::AwaitClientHello => "ClientHello",
            State::AwaitClientKex { .. } => "ClientKeyExchange",
            State::AwaitCcs { .. } => "ChangeCipherSpec",
            State::AwaitFinished(_) => "Finished",
            State::Established => "ApplicationData",
            State::Failed => "nothing (failed)",
        }
    }
}

/// The server's half of a full handshake's key exchange.
enum KeyPair {
    Rsa,
    Dhe(Arc<DhKeyPair>),
    Ecdhe(Arc<X25519KeyPair>),
}

/// The server's protocol half: resumption decisions, flight assembly,
/// ticket issuance, and the handshake state.
struct ServerSide {
    config: ServerConfig,
    rng: HmacDrbg,
    now: u64,
    state: State,
    // ctlint: public
    session_id: Vec<u8>,
    resumed: Option<ResumeKind>,
    sni: String,
    client_offered_ticket_ext: bool,
    // Epoch-pinned STEK snapshot: ticket decryption without the shared
    // manager lock (see ticket.rs).
    stek_pin: Option<PinnedStekSet>,
}

/// A server-side TLS connection.
pub struct ServerConn {
    common: ConnectionCommon,
    side: ServerSide,
}

impl Deref for ServerConn {
    type Target = ConnectionCommon;
    fn deref(&self) -> &ConnectionCommon {
        &self.common
    }
}

impl DerefMut for ServerConn {
    fn deref_mut(&mut self) -> &mut ConnectionCommon {
        &mut self.common
    }
}

impl ServerConn {
    /// Create a connection bound to `config` at virtual time `now`.
    pub fn new(config: ServerConfig, rng: HmacDrbg, now: u64) -> Self {
        ServerConn {
            common: ConnectionCommon::new(),
            side: ServerSide {
                config,
                rng,
                now,
                state: State::AwaitClientHello,
                session_id: Vec::new(),
                resumed: None,
                sni: String::new(),
                client_offered_ticket_ext: false,
                stek_pin: None,
            },
        }
    }

    /// Decrypt and dispatch every complete record received so far.
    pub fn process_new_packets(&mut self) -> Result<IoState, TlsError> {
        let ServerConn { common, side } = self;
        conn::process(common, side)
    }

    /// How the handshake resumed, if it did.
    pub fn resumed(&self) -> Option<ResumeKind> {
        self.side.resumed
    }
}

impl ServerSide {
    fn on_client_hello(
        &mut self,
        common: &mut ConnectionCommon,
        ch: ClientHello,
    ) -> Result<State, TlsError> {
        common.client_random = ch.random;
        self.rng.fill_bytes(&mut common.server_random);
        self.sni = find_server_name(&ch.extensions).unwrap_or("").to_string();
        let offered_ticket = find_session_ticket(&ch.extensions);
        self.client_offered_ticket_ext = offered_ticket.is_some();

        // Suite selection: server preference order.
        let suite = self
            .config
            .suites
            .iter()
            .copied()
            .find(|s| ch.cipher_suites.contains(&s.id()))
            .ok_or(TlsError::NoCommonSuite)?;

        // --- Resumption decision (ticket first, then session ID). ---
        if let (Some(manager), Some(ticket)) = (&self.config.tickets, offered_ticket) {
            if !ticket.is_empty() {
                let mut accepted = None;
                if let Ok(state) = manager.accept_pinned(&mut self.stek_pin, ticket, self.now) {
                    let fresh_enough = self.now.saturating_sub(state.established_at)
                        <= self.config.ticket_accept_window;
                    let suite_ok = ch.cipher_suites.contains(&state.cipher_suite.id())
                        && self.config.suites.contains(&state.cipher_suite);
                    if fresh_enough && suite_ok {
                        accepted = Some(state);
                    }
                }
                match accepted {
                    Some(state) => {
                        RESUME_TICKET_HIT.inc();
                        emit(Event::ResumptionHit { kind: "ticket" });
                        return Ok(self.resume(common, state, ResumeKind::Ticket, Vec::new()));
                    }
                    None => {
                        RESUME_TICKET_MISS.inc();
                        emit(Event::ResumptionMiss { kind: "ticket" });
                    }
                }
            }
        }
        if let Some(cache) = &self.config.session_cache {
            if !ch.session_id.is_empty() {
                let hit = cache
                    .lookup(&self.sni, &ch.session_id, self.now)
                    .filter(|state| {
                        ch.cipher_suites.contains(&state.cipher_suite.id())
                            && self.config.suites.contains(&state.cipher_suite)
                    });
                match hit {
                    Some(state) => {
                        RESUME_SID_HIT.inc();
                        emit(Event::ResumptionHit { kind: "session-id" });
                        let sid = ch.session_id;
                        return Ok(self.resume(common, state, ResumeKind::SessionId, sid));
                    }
                    None => {
                        RESUME_SID_MISS.inc();
                        emit(Event::ResumptionMiss { kind: "session-id" });
                    }
                }
            }
        }

        // --- Full handshake. ---
        HANDSHAKE_FULL.inc();
        common.suite = Some(suite);
        self.session_id = if self.config.issue_session_ids {
            self.rng.bytes(32)
        } else {
            Vec::new()
        };
        let mut extensions = Vec::new();
        if let Some(manager) = self
            .config
            .tickets
            .as_ref()
            .filter(|_| self.client_offered_ticket_ext)
        {
            // Promising a ticket brings the STEK manager to `now`, as
            // issuing it after the client's Finished would, so a client
            // that stops after this flight (a probe) leaves the manager's
            // rotations where a completed handshake would.
            manager.advance(self.now);
            extensions.push(Extension::SessionTicket(Vec::new()));
        }
        let sh = HandshakeMessage::ServerHello(ServerHello {
            random: common.server_random,
            session_id: self.session_id.clone(),
            cipher_suite: suite.id(),
            extensions,
        });
        common.send_handshake(&sh);

        let chain: Vec<Vec<u8>> = self
            .config
            .identity
            .chain
            .iter()
            .map(|c| c.der.clone())
            .collect();
        common.send_handshake(&HandshakeMessage::Certificate(CertificateMsg { chain }));

        let key_pair = match suite.key_exchange() {
            KeyExchange::Rsa => KeyPair::Rsa,
            KeyExchange::Dhe => {
                let kp = self.config.ephemeral.dhe_keypair(self.now);
                let group = kp.group;
                let params = ServerKexParams::Dhe {
                    p: group.prime().to_bytes_be(),
                    g: group.generator().to_bytes_be(),
                    ys: kp.public_bytes(),
                };
                common.send_handshake(&self.signed_kex(common, params)?);
                KeyPair::Dhe(kp)
            }
            KeyExchange::Ecdhe => {
                let kp = self.config.ephemeral.ecdhe_keypair(self.now);
                let params = ServerKexParams::Ecdhe {
                    point: kp.public.to_vec(),
                };
                common.send_handshake(&self.signed_kex(common, params)?);
                KeyPair::Ecdhe(kp)
            }
        };
        common.send_handshake(&HandshakeMessage::ServerHelloDone);
        Ok(State::AwaitClientKex { suite, key_pair })
    }

    /// Sign cr || sr || params and build the ServerKeyExchange message.
    fn signed_kex(
        &self,
        common: &ConnectionCommon,
        params: ServerKexParams,
    ) -> Result<HandshakeMessage, TlsError> {
        let signed_content =
            kex_signed_content(&common.client_random, &common.server_random, &params);
        let signature = self.config.identity.key.sign(&signed_content)?;
        Ok(HandshakeMessage::ServerKeyExchange(ServerKeyExchange {
            params,
            signature,
        }))
    }

    /// Send ServerHello, a reissued ticket if one is due, CCS and our
    /// Finished: the server speaks first in an abbreviated handshake.
    fn resume(
        &mut self,
        common: &mut ConnectionCommon,
        state: SessionState,
        kind: ResumeKind,
        echo_session_id: Vec<u8>,
    ) -> State {
        let suite = state.cipher_suite;
        let master = state.master_secret;
        common.suite = Some(suite);
        common.master = Some(master);
        self.resumed = Some(kind);
        self.session_id = echo_session_id;

        let reissue = self
            .config
            .tickets
            .as_ref()
            .filter(|_| kind == ResumeKind::Ticket && self.config.reissue_ticket_on_resumption);
        let mut extensions = Vec::new();
        if reissue.is_some() {
            extensions.push(Extension::SessionTicket(Vec::new()));
        }
        let sh = HandshakeMessage::ServerHello(ServerHello {
            random: common.server_random,
            session_id: self.session_id.clone(),
            cipher_suite: suite.id(),
            extensions,
        });
        common.send_handshake(&sh);

        if let Some(manager) = reissue {
            // Fresh ticket over the SAME session state (keys constant,
            // original establishment time preserved — §2.2).
            let ticket = manager.issue(&state, self.now);
            TICKET_REISSUED.inc();
            emit(Event::TicketIssued {
                reissue: true,
                lifetime_hint: self.config.ticket_lifetime_hint,
            });
            common.send_handshake(&HandshakeMessage::NewSessionTicket(NewSessionTicket {
                lifetime_hint: self.config.ticket_lifetime_hint,
                ticket,
            }));
        }

        let keys = key_block(&master, &common.client_random, &common.server_random, suite);
        common.send_finished(keys.server_write, &master, false);
        State::AwaitCcs {
            keys: Keyed {
                suite,
                master,
                reply: None,
            },
            read: keys.client_write,
        }
    }

    fn on_client_kex(
        &mut self,
        common: &mut ConnectionCommon,
        suite: CipherSuite,
        key_pair: KeyPair,
        cke: ClientKeyExchange,
    ) -> Result<State, TlsError> {
        let premaster: Vec<u8> = match (key_pair, cke) {
            (
                KeyPair::Rsa,
                ClientKeyExchange::Rsa {
                    encrypted_premaster,
                },
            ) => {
                let pm = self.config.identity.key.decrypt(&encrypted_premaster)?;
                if pm.len() != 48 || pm[0] != 3 || pm[1] != 3 {
                    return Err(TlsError::Decode("bad RSA premaster"));
                }
                pm
            }
            (KeyPair::Dhe(kp), ClientKeyExchange::Dhe { yc }) => {
                let y = Ub::from_bytes_be(&yc);
                validate_public(kp.group, &y)?;
                kp.shared_secret(&y)?
            }
            (KeyPair::Ecdhe(kp), ClientKeyExchange::Ecdhe { point }) => {
                let point: [u8; 32] = point
                    .as_slice()
                    .try_into()
                    .map_err(|_| TlsError::Decode("bad X25519 point length"))?;
                kp.shared_secret(&point)?.to_vec()
            }
            _ => return Err(TlsError::Decode("key exchange type mismatch")),
        };
        let master = master_secret(&premaster, &common.client_random, &common.server_random);
        common.master = Some(master);
        let ConnectionKeys {
            client_write,
            server_write,
        } = key_block(&master, &common.client_random, &common.server_random, suite);
        Ok(State::AwaitCcs {
            keys: Keyed {
                suite,
                master,
                reply: Some(server_write),
            },
            read: client_write,
        })
    }

    /// The full handshake's tail after the client's Finished: store the
    /// session and issue a ticket if the client supports them.
    fn store_session(&self, common: &mut ConnectionCommon, keys: &Keyed) {
        let state = SessionState {
            master_secret: keys.master,
            cipher_suite: keys.suite,
            established_at: self.now,
            server_name: self.sni.clone(),
        };
        if let Some(cache) = &self.config.session_cache {
            if !self.session_id.is_empty() {
                cache.insert(&self.sni, self.session_id.clone(), state.clone(), self.now);
            }
        }
        if let Some(manager) = self
            .config
            .tickets
            .as_ref()
            .filter(|_| self.client_offered_ticket_ext)
        {
            let ticket = manager.issue(&state, self.now);
            TICKET_ISSUED.inc();
            emit(Event::TicketIssued {
                reissue: false,
                lifetime_hint: self.config.ticket_lifetime_hint,
            });
            common.send_handshake(&HandshakeMessage::NewSessionTicket(NewSessionTicket {
                lifetime_hint: self.config.ticket_lifetime_hint,
                ticket,
            }));
        }
    }
}

impl Side for ServerSide {
    fn handle_handshake(
        &mut self,
        common: &mut ConnectionCommon,
        msg: HandshakeMessage,
    ) -> Result<(), TlsError> {
        // A Finished is transcribed once it is checked.
        if !matches!(msg, HandshakeMessage::Finished(_)) {
            common.transcript.add(&msg.encode());
        }
        self.state = match (std::mem::replace(&mut self.state, State::Failed), msg) {
            (State::AwaitClientHello, HandshakeMessage::ClientHello(ch)) => {
                self.on_client_hello(common, ch)?
            }
            (
                State::AwaitClientKex { suite, key_pair },
                HandshakeMessage::ClientKeyExchange(cke),
            ) => self.on_client_kex(common, suite, key_pair, cke)?,
            (State::AwaitFinished(mut keys), HandshakeMessage::Finished(f)) => {
                common.check_finished(&keys.master, f, true)?;
                // A full handshake's CCS and Finished follow the client's;
                // an abbreviated one's went out with ServerHello.
                if let Some(server_write) = keys.reply.take() {
                    self.store_session(common, &keys);
                    common.send_finished(server_write, &keys.master, false);
                }
                common.status = Status::Established;
                State::Established
            }
            (state, other) => {
                return Err(TlsError::UnexpectedMessage {
                    expected: state.expects(),
                    got: other.name(),
                })
            }
        };
        Ok(())
    }

    fn on_peer_ccs(
        &mut self,
        common: &mut ConnectionCommon,
        payload: &[u8],
    ) -> Result<(), TlsError> {
        match std::mem::replace(&mut self.state, State::Failed) {
            State::AwaitCcs { keys, read } if payload == [1] => {
                common.records.set_read_keys(read);
                self.state = State::AwaitFinished(keys);
                Ok(())
            }
            _ => Err(TlsError::UnexpectedMessage {
                expected: "orderly ChangeCipherSpec",
                got: "ChangeCipherSpec",
            }),
        }
    }

    fn set_failed(&mut self) {
        self.state = State::Failed;
    }

    fn note_alert_sent(&self, desc: AlertDescription) {
        ALERT_SENT.inc();
        emit(Event::AlertSent {
            code: desc.to_byte(),
        });
    }
}

/// The bytes an RSA signature covers in ServerKeyExchange:
/// client_random || server_random || encoded params.
pub fn kex_signed_content(
    client_random: &[u8; 32],
    server_random: &[u8; 32],
    params: &ServerKexParams,
) -> Vec<u8> {
    let mut out = Vec::with_capacity(128);
    out.extend_from_slice(client_random);
    out.extend_from_slice(server_random);
    match params {
        ServerKexParams::Dhe { p, g, ys } => {
            out.push(0);
            out.extend_from_slice(&(p.len() as u16).to_be_bytes());
            out.extend_from_slice(p);
            out.extend_from_slice(&(g.len() as u16).to_be_bytes());
            out.extend_from_slice(g);
            out.extend_from_slice(&(ys.len() as u16).to_be_bytes());
            out.extend_from_slice(ys);
        }
        ServerKexParams::Ecdhe { point } => {
            out.push(3);
            out.extend_from_slice(&29u16.to_be_bytes());
            out.push(point.len() as u8);
            out.extend_from_slice(point);
        }
    }
    out
}
