//! The client-side TLS 1.2 state machine — also the scanner's probe.
//!
//! Beyond a normal client, this connection records everything the study
//! measures: the ServerHello session ID, issued tickets (and their STEK
//! identifiers), the server's key-exchange public value, the certificate
//! chain and its trust verdict, and — because the stack is white-box — the
//! master secret itself.
//!
//! [`ClientConn::probe`] sends the same ClientHello but stops once the
//! server's first flight is verified: the chain validated, the
//! ServerKeyExchange signature checked and its public value range-checked.
//! It then exposes a [`ServerFlight`] and has generated no key, computed
//! no shared secret and sent nothing after the ClientHello. The daily
//! DHE/ECDHE scans read nothing that comes later.
//!
//! Sans-I/O: [`ClientConn`] derefs to [`ConnectionCommon`] for the byte
//! ports (`read_tls` / `write_tls`) and readiness queries; call
//! [`ClientConn::process_new_packets`] after feeding bytes.

use crate::config::{ClientConfig, ResumptionOffer};
use crate::conn::{self, ConnectionCommon, IoState, Side, Status};
use crate::error::TlsError;
use crate::keys::{key_block, master_secret, verify_data};
use crate::server::{kex_signed_content, ResumeKind};
use crate::session::SessionState;
use crate::suites::{CipherSuite, KeyExchange};
use crate::wire::extensions::Extension;
use crate::wire::handshake::{
    CertificateMsg, ClientHello, ClientKeyExchange, Finished, HandshakeMessage, NewSessionTicket,
    ServerHello, ServerKexParams, ServerKeyExchange,
};
use crate::wire::record::ContentType;
use std::ops::{Deref, DerefMut};
use ts_crypto::bignum::Ub;
use ts_crypto::dh::{validate_public, DhGroup, DhKeyPair};
use ts_crypto::drbg::HmacDrbg;
use ts_crypto::x25519::{has_small_order, X25519KeyPair};
use ts_crypto::CryptoError;
use ts_x509::{Certificate, TrustError};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    AwaitServerHello,
    AwaitServerFlight,
    AwaitServerKexOrDone,
    AwaitCcsAbbrev,
    AwaitFinishedAbbrev,
    AwaitNstOrCcsFull,
    AwaitFinishedFull,
    Established,
    /// A probe's terminal state: the server flight is verified.
    FlightVerified,
    Failed,
}

/// The server's key-exchange value, parsed and checked where it arrives.
enum PeerKex {
    Dhe { group: DhGroup, ys: Ub },
    Ecdhe([u8; 32]),
}

/// Everything the scanner extracts from one connection.
#[derive(Debug, Clone)]
pub struct HandshakeSummary {
    /// `None` = full handshake; otherwise how resumption happened.
    pub resumed: Option<ResumeKind>,
    /// Negotiated suite.
    pub cipher_suite: CipherSuite,
    /// Session ID from ServerHello (empty if none; cleartext on the wire).
    // ctlint: public
    pub server_session_id: Vec<u8>,
    /// NewSessionTicket received, if any.
    pub new_ticket: Option<NewSessionTicket>,
    /// The server's (EC)DHE public value, if a PFS exchange ran.
    // ctlint: public
    pub server_kex_public: Option<Vec<u8>>,
    /// Raw DER chain the server presented (cleartext on the wire).
    // ctlint: public
    pub chain_der: Vec<Vec<u8>>,
    /// Trust verdict (None when no chain was presented — resumption).
    pub trust: Option<Result<(), TrustError>>,
    /// The session state usable for future resumption offers.
    pub session: SessionState,
}

/// What a probe reports: the server's first flight, verified.
#[derive(Debug, Clone)]
pub struct ServerFlight {
    /// Negotiated suite.
    pub cipher_suite: CipherSuite,
    /// Trust verdict on the presented chain.
    pub trust: Result<(), TrustError>,
    /// The server's (EC)DHE public value; `None` for RSA key exchange.
    // ctlint: public
    pub server_kex_public: Option<Vec<u8>>,
}

/// The client's protocol half: hello/flight sequencing and the study's
/// observation points. Keying material lives in [`ConnectionCommon`].
struct ClientSide {
    config: ClientConfig,
    rng: HmacDrbg,
    state: State,
    // Session IDs travel cleartext in the hellos.
    // ctlint: public
    offered_session_id: Vec<u8>,
    offered_ticket_state: Option<SessionState>,
    // ctlint: public
    server_session_id: Vec<u8>,
    resumed: Option<ResumeKind>,
    new_ticket: Option<NewSessionTicket>,
    // ctlint: public
    server_kex_public: Option<Vec<u8>>,
    // ctlint: public
    chain_der: Vec<Vec<u8>>,
    leaf: Option<Certificate>,
    trust: Option<Result<(), TrustError>>,
    peer_kex: Option<PeerKex>,
    /// Stop once the server flight is verified (see [`ClientConn::probe`]).
    probe: bool,
}

/// A client-side TLS connection.
pub struct ClientConn {
    common: ConnectionCommon,
    side: ClientSide,
}

impl Deref for ClientConn {
    type Target = ConnectionCommon;
    fn deref(&self) -> &ConnectionCommon {
        &self.common
    }
}

impl DerefMut for ClientConn {
    fn deref_mut(&mut self) -> &mut ConnectionCommon {
        &mut self.common
    }
}

impl ClientConn {
    /// Create a connection and immediately queue the ClientHello.
    pub fn new(config: ClientConfig, rng: HmacDrbg) -> Self {
        Self::start(config, rng, false)
    }

    /// Create a probe: the ClientHello [`ClientConn::new`] would send, a
    /// handshake that stops once the server flight is verified, and then
    /// [`ClientConn::server_flight`]. A probe offers no resumption, since
    /// an abbreviated handshake has no flight to verify.
    pub fn probe(mut config: ClientConfig, rng: HmacDrbg) -> Self {
        config.resumption = ResumptionOffer::default();
        Self::start(config, rng, true)
    }

    fn start(config: ClientConfig, mut rng: HmacDrbg, probe: bool) -> Self {
        let mut client_random = [0u8; 32];
        rng.fill_bytes(&mut client_random);
        let offered_session_id = config
            .resumption
            .session
            .as_ref()
            .map(|(id, _)| id.clone())
            .unwrap_or_default();
        let offered_ticket_state = config.resumption.ticket.as_ref().map(|(_, s)| s.clone());

        let mut extensions = vec![Extension::ServerName(config.server_name.clone())];
        if let Some((ticket, _)) = &config.resumption.ticket {
            extensions.push(Extension::SessionTicket(ticket.clone()));
        } else if config.offer_ticket_support {
            extensions.push(Extension::SessionTicket(Vec::new()));
        }
        extensions.push(Extension::SupportedGroups(vec![29]));

        let ch = HandshakeMessage::ClientHello(ClientHello {
            random: client_random,
            session_id: offered_session_id.clone(),
            cipher_suites: config.suites.iter().map(|s| s.id()).collect(),
            extensions,
        });

        let mut common = ConnectionCommon::new();
        common.client_random = client_random;
        let side = ClientSide {
            config,
            rng,
            state: State::AwaitServerHello,
            offered_session_id,
            offered_ticket_state,
            server_session_id: Vec::new(),
            resumed: None,
            new_ticket: None,
            server_kex_public: None,
            chain_der: Vec::new(),
            leaf: None,
            trust: None,
            peer_kex: None,
            probe,
        };
        common.send_handshake(&ch);
        ClientConn { common, side }
    }

    /// Decrypt and dispatch every complete record received so far.
    pub fn process_new_packets(&mut self) -> Result<IoState, TlsError> {
        let ClientConn { common, side } = self;
        conn::process(common, side)
    }

    /// The verified server flight; available once a probe has stopped.
    pub fn server_flight(&self) -> Result<ServerFlight, TlsError> {
        match (self.side.state, self.common.suite, &self.side.trust) {
            (State::FlightVerified, Some(cipher_suite), Some(trust)) => Ok(ServerFlight {
                cipher_suite,
                trust: trust.clone(),
                server_kex_public: self.side.server_kex_public.clone(),
            }),
            _ => Err(TlsError::NotReady),
        }
    }

    /// Scanner-facing summary; available once established.
    pub fn summary(&self) -> Result<HandshakeSummary, TlsError> {
        if !self.common.is_established() {
            return Err(TlsError::NotReady);
        }
        let suite = self.common.suite.expect("established");
        Ok(HandshakeSummary {
            resumed: self.side.resumed,
            cipher_suite: suite,
            server_session_id: self.side.server_session_id.clone(),
            new_ticket: self.side.new_ticket.clone(),
            server_kex_public: self.side.server_kex_public.clone(),
            chain_der: self.side.chain_der.clone(),
            trust: self.side.trust.clone(),
            session: SessionState {
                master_secret: self.common.master.expect("established"),
                cipher_suite: suite,
                established_at: self.side.resumed_original_time(),
                server_name: self.side.config.server_name.clone(),
            },
        })
    }
}

impl ClientSide {
    fn resumed_original_time(&self) -> u64 {
        match self.resumed {
            Some(ResumeKind::SessionId) => self
                .config
                .resumption
                .session
                .as_ref()
                .map(|(_, s)| s.established_at)
                .unwrap_or(self.config.now),
            Some(ResumeKind::Ticket) => self
                .offered_ticket_state
                .as_ref()
                .map(|s| s.established_at)
                .unwrap_or(self.config.now),
            None => self.config.now,
        }
    }

    /// Derive abbreviated-handshake keys from the stored session state and
    /// activate the read direction.
    fn begin_abbreviated_keys(&mut self, common: &mut ConnectionCommon) -> Result<(), TlsError> {
        if common.master.is_none() {
            // Ticket-based resumption: the server signalled acceptance.
            let state = self
                .offered_ticket_state
                .as_ref()
                .ok_or(TlsError::UnexpectedMessage {
                    expected: "Certificate (no resumption offered)",
                    got: "abbreviated handshake",
                })?;
            if state.cipher_suite != common.suite.expect("suite set") {
                return Err(TlsError::Decode("resumed suite mismatch"));
            }
            common.master = Some(state.master_secret);
            self.resumed = Some(ResumeKind::Ticket);
        }
        let master = common.master.expect("set above");
        let suite = common.suite.expect("suite set");
        let keys = key_block(&master, &common.client_random, &common.server_random, suite);
        common.records.set_read_keys(keys.server_write.clone());
        common.pending_keys = Some(keys);
        Ok(())
    }

    fn on_server_hello(
        &mut self,
        common: &mut ConnectionCommon,
        sh: ServerHello,
    ) -> Result<(), TlsError> {
        let suite = CipherSuite::from_id(sh.cipher_suite)
            .ok_or(TlsError::Decode("server chose unknown suite"))?;
        if !self.config.suites.contains(&suite) {
            return Err(TlsError::Decode("server chose unoffered suite"));
        }
        common.suite = Some(suite);
        common.server_random = sh.random;
        self.server_session_id = sh.session_id.clone();

        if !self.offered_session_id.is_empty() && sh.session_id == self.offered_session_id {
            // Session-ID resumption accepted.
            let state = self
                .config
                .resumption
                .session
                .as_ref()
                .map(|(_, s)| s.clone())
                .expect("offered id implies stored state");
            if state.cipher_suite != suite {
                return Err(TlsError::Decode("resumed suite mismatch"));
            }
            common.master = Some(state.master_secret);
            self.resumed = Some(ResumeKind::SessionId);
            self.state = State::AwaitCcsAbbrev;
        } else {
            self.state = State::AwaitServerFlight;
        }
        Ok(())
    }

    fn on_certificate(
        &mut self,
        _common: &mut ConnectionCommon,
        msg: CertificateMsg,
    ) -> Result<(), TlsError> {
        self.chain_der = msg.chain.clone();
        let mut parsed = Vec::with_capacity(msg.chain.len());
        for der in &msg.chain {
            parsed.push(
                Certificate::parse(der).map_err(|_| TlsError::Decode("unparseable certificate"))?,
            );
        }
        let verdict =
            self.config
                .root_store
                .validate(&parsed, &self.config.server_name, self.config.now);
        self.leaf = parsed.into_iter().next();
        let failed = verdict.is_err();
        self.trust = Some(verdict.clone());
        if self.config.verify_certs && failed {
            return Err(TlsError::Trust(verdict.expect_err("checked")));
        }
        if self.leaf.is_none() {
            return Err(TlsError::Decode("empty certificate chain"));
        }
        self.state = State::AwaitServerKexOrDone;
        Ok(())
    }

    fn on_server_kex(
        &mut self,
        common: &mut ConnectionCommon,
        ske: ServerKeyExchange,
    ) -> Result<(), TlsError> {
        let suite = common.suite.expect("suite set");
        // Signature check against the leaf key.
        let leaf = self.leaf.as_ref().expect("certificate processed");
        let signed = kex_signed_content(&common.client_random, &common.server_random, &ske.params);
        leaf.public_key
            .verify(&signed, &ske.signature)
            .map_err(TlsError::from)?;
        // Check the public value here, so that a probe refuses every
        // flight the full handshake refuses.
        let peer = match (&ske.params, suite.key_exchange()) {
            (ServerKexParams::Dhe { p, ys, .. }, KeyExchange::Dhe) => {
                // Identify the group by its prime (we only accept named
                // groups — freeform parameters would need subgroup checks).
                let prime = Ub::from_bytes_be(p);
                let group = DhGroup::all()
                    .into_iter()
                    .find(|g| *g.prime() == prime)
                    .ok_or(TlsError::Decode("unknown DH group"))?;
                let ys = Ub::from_bytes_be(ys);
                validate_public(group, &ys)?;
                PeerKex::Dhe { group, ys }
            }
            (ServerKexParams::Ecdhe { point }, KeyExchange::Ecdhe) => {
                let point: [u8; 32] = point
                    .as_slice()
                    .try_into()
                    .map_err(|_| TlsError::Decode("bad server point length"))?;
                // A low-order point would make the shared secret all-zero.
                if has_small_order(&point) {
                    return Err(CryptoError::InvalidPublicValue.into());
                }
                PeerKex::Ecdhe(point)
            }
            _ => return Err(TlsError::Decode("kex params do not match suite")),
        };
        self.peer_kex = Some(peer);
        self.server_kex_public = Some(ske.params.public_value().to_vec());
        Ok(())
    }

    fn on_server_hello_done(&mut self, common: &mut ConnectionCommon) -> Result<(), TlsError> {
        let suite = common.suite.expect("suite set");
        if suite.key_exchange() != KeyExchange::Rsa && self.peer_kex.is_none() {
            return Err(TlsError::Decode("missing ServerKeyExchange"));
        }
        if self.probe {
            // Everything the flight can tell is final: stop before any
            // key is generated.
            self.state = State::FlightVerified;
            return Ok(());
        }
        let premaster: Vec<u8>;
        // on_server_kex matched the value to the suite's key exchange.
        let cke = match &self.peer_kex {
            None => {
                let mut pm = vec![0u8; 48];
                self.rng.fill_bytes(&mut pm);
                pm[0] = 3;
                pm[1] = 3;
                let leaf = self.leaf.as_ref().expect("certificate processed");
                let ct = leaf.public_key.encrypt(&pm, &mut self.rng)?;
                premaster = pm;
                ClientKeyExchange::Rsa {
                    encrypted_premaster: ct,
                }
            }
            Some(PeerKex::Dhe { group, ys }) => {
                let kp = DhKeyPair::generate(*group, &mut self.rng);
                premaster = kp.shared_secret(ys)?;
                ClientKeyExchange::Dhe {
                    yc: kp.public_bytes(),
                }
            }
            Some(PeerKex::Ecdhe(point)) => {
                let kp = X25519KeyPair::generate(&mut self.rng);
                premaster = kp.shared_secret(point)?.to_vec();
                ClientKeyExchange::Ecdhe {
                    point: kp.public.to_vec(),
                }
            }
        };
        common.send_handshake(&HandshakeMessage::ClientKeyExchange(cke));
        let master = master_secret(&premaster, &common.client_random, &common.server_random);
        common.master = Some(master);
        let keys = key_block(&master, &common.client_random, &common.server_random, suite);
        common.queue_record(ContentType::ChangeCipherSpec, &[1]);
        common.records.set_write_keys(keys.client_write.clone());
        let vd = verify_data(&master, &common.transcript.hash(), true);
        common.send_handshake(&HandshakeMessage::Finished(Finished { verify_data: vd }));
        common.pending_keys = Some(keys);
        self.state = State::AwaitNstOrCcsFull;
        Ok(())
    }

    fn on_server_finished(
        &mut self,
        common: &mut ConnectionCommon,
        f: Finished,
    ) -> Result<(), TlsError> {
        let master = common.master.expect("master derived");
        let expected = verify_data(&master, &common.transcript.hash(), false);
        if !ts_crypto::ct::ct_eq(&expected, &f.verify_data) {
            return Err(TlsError::BadFinished);
        }
        common
            .transcript
            .add(&HandshakeMessage::Finished(f).encode());
        match self.state {
            State::AwaitFinishedFull => {
                self.state = State::Established;
                common.status = Status::Established;
                Ok(())
            }
            State::AwaitFinishedAbbrev => {
                // Our turn: CCS + client Finished.
                let client_write = common
                    .pending_keys
                    .as_ref()
                    .expect("keys derived")
                    .client_write
                    .clone();
                common.queue_record(ContentType::ChangeCipherSpec, &[1]);
                common.records.set_write_keys(client_write);
                let vd = verify_data(&master, &common.transcript.hash(), true);
                common.send_handshake(&HandshakeMessage::Finished(Finished { verify_data: vd }));
                self.state = State::Established;
                common.status = Status::Established;
                Ok(())
            }
            _ => unreachable!("guarded by caller"),
        }
    }
}

impl Side for ClientSide {
    fn handle_handshake(
        &mut self,
        common: &mut ConnectionCommon,
        msg: HandshakeMessage,
    ) -> Result<(), TlsError> {
        match (self.state, msg) {
            (State::AwaitServerHello, HandshakeMessage::ServerHello(sh)) => {
                common
                    .transcript
                    .add(&HandshakeMessage::ServerHello(sh.clone()).encode());
                self.on_server_hello(common, sh)
            }
            (State::AwaitServerFlight, HandshakeMessage::Certificate(c)) => {
                common
                    .transcript
                    .add(&HandshakeMessage::Certificate(c.clone()).encode());
                self.on_certificate(common, c)
            }
            (
                State::AwaitServerFlight | State::AwaitCcsAbbrev,
                HandshakeMessage::NewSessionTicket(nst),
            ) => {
                // Ticket reissue during abbreviated handshake.
                common
                    .transcript
                    .add(&HandshakeMessage::NewSessionTicket(nst.clone()).encode());
                if self.resumed.is_none() {
                    // NST before CCS signals ticket acceptance.
                    self.resumed = Some(ResumeKind::Ticket);
                    let state =
                        self.offered_ticket_state
                            .as_ref()
                            .ok_or(TlsError::UnexpectedMessage {
                                expected: "Certificate",
                                got: "NewSessionTicket",
                            })?;
                    common.master = Some(state.master_secret);
                }
                self.new_ticket = Some(nst);
                self.state = State::AwaitCcsAbbrev;
                Ok(())
            }
            (State::AwaitServerKexOrDone, HandshakeMessage::ServerKeyExchange(ske)) => {
                common
                    .transcript
                    .add(&HandshakeMessage::ServerKeyExchange(ske.clone()).encode());
                self.on_server_kex(common, ske)
            }
            (State::AwaitServerKexOrDone, HandshakeMessage::ServerHelloDone) => {
                common
                    .transcript
                    .add(&HandshakeMessage::ServerHelloDone.encode());
                self.on_server_hello_done(common)
            }
            (State::AwaitNstOrCcsFull, HandshakeMessage::NewSessionTicket(nst)) => {
                common
                    .transcript
                    .add(&HandshakeMessage::NewSessionTicket(nst.clone()).encode());
                self.new_ticket = Some(nst);
                Ok(())
            }
            (
                State::AwaitFinishedFull | State::AwaitFinishedAbbrev,
                HandshakeMessage::Finished(f),
            ) => self.on_server_finished(common, f),
            (_, other) => Err(TlsError::UnexpectedMessage {
                expected: state_expectation(self.state),
                got: other.name(),
            }),
        }
    }

    fn on_peer_ccs(
        &mut self,
        common: &mut ConnectionCommon,
        payload: &[u8],
    ) -> Result<(), TlsError> {
        if payload != [1] {
            return Err(TlsError::Decode("bad ChangeCipherSpec"));
        }
        match self.state {
            State::AwaitServerFlight | State::AwaitCcsAbbrev => {
                // Abbreviated handshake: server went straight to CCS.
                self.begin_abbreviated_keys(common)?;
                self.state = State::AwaitFinishedAbbrev;
                Ok(())
            }
            State::AwaitNstOrCcsFull => {
                let keys = common.pending_keys.as_ref().expect("keys derived");
                common.records.set_read_keys(keys.server_write.clone());
                self.state = State::AwaitFinishedFull;
                Ok(())
            }
            _ => Err(TlsError::UnexpectedMessage {
                expected: state_expectation(self.state),
                got: "ChangeCipherSpec",
            }),
        }
    }

    fn set_failed(&mut self) {
        self.state = State::Failed;
    }
}

fn state_expectation(state: State) -> &'static str {
    match state {
        State::AwaitServerHello => "ServerHello",
        State::AwaitServerFlight => "Certificate or abbreviated handshake",
        State::AwaitServerKexOrDone => "ServerKeyExchange or ServerHelloDone",
        State::AwaitCcsAbbrev => "ChangeCipherSpec (abbreviated)",
        State::AwaitFinishedAbbrev => "Finished (abbreviated)",
        State::AwaitNstOrCcsFull => "NewSessionTicket or ChangeCipherSpec",
        State::AwaitFinishedFull => "Finished",
        State::Established => "ApplicationData",
        State::FlightVerified => "nothing (probe stopped)",
        State::Failed => "nothing (failed)",
    }
}
