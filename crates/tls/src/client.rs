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
use crate::conn::{self, ConnectionCommon, IoState, Keyed, Side, Status};
use crate::error::TlsError;
use crate::keys::{key_block, master_secret, ConnectionKeys, MASTER_SECRET_LEN};
use crate::server::{kex_signed_content, ResumeKind};
use crate::session::SessionState;
use crate::suites::{CipherSuite, KeyExchange};
use crate::wire::extensions::Extension;
use crate::wire::handshake::{
    CertificateMsg, ClientHello, ClientKeyExchange, HandshakeMessage, NewSessionTicket,
    ServerHello, ServerKexParams, ServerKeyExchange,
};
use crate::wire::record::DirectionKeys;
use std::ops::{Deref, DerefMut};
use ts_crypto::bignum::Ub;
use ts_crypto::dh::{validate_public, DhGroup, DhKeyPair};
use ts_crypto::drbg::HmacDrbg;
use ts_crypto::rsa::RsaPublicKey;
use ts_crypto::x25519::{has_small_order, X25519KeyPair};
use ts_crypto::CryptoError;
use ts_x509::{Certificate, TrustError};

/// Where the client's handshake stands. Each variant owns what the next
/// step needs, and a step moves it into the variant that follows.
enum State {
    AwaitServerHello,
    /// A Certificate starts a full handshake; a NewSessionTicket or a
    /// ChangeCipherSpec accepts the offered ticket.
    AwaitServerFlight {
        suite: CipherSuite,
    },
    AwaitServerKexOrDone {
        leaf: Certificate,
        flight: ServerFlight,
    },
    AwaitServerHelloDone {
        peer: PeerKex,
        flight: ServerFlight,
    },
    /// The server may send one NewSessionTicket before its CCS, whose
    /// write keys `read` then protects what we read.
    AwaitTicketOrCcs {
        keys: Keyed,
        read: DirectionKeys,
    },
    AwaitCcs {
        keys: Keyed,
        read: DirectionKeys,
    },
    AwaitFinished(Keyed),
    Established {
        suite: CipherSuite,
        master: [u8; MASTER_SECRET_LEN],
    },
    /// A probe's terminal state: the server flight is verified.
    FlightVerified(ServerFlight),
    Failed,
}

impl State {
    fn expects(&self) -> &'static str {
        match self {
            State::AwaitServerHello => "ServerHello",
            State::AwaitServerFlight { .. } => "Certificate or abbreviated handshake",
            State::AwaitServerKexOrDone { .. } => "ServerKeyExchange or ServerHelloDone",
            State::AwaitServerHelloDone { .. } => "ServerHelloDone",
            State::AwaitTicketOrCcs { .. } => "NewSessionTicket or ChangeCipherSpec",
            State::AwaitCcs { .. } => "ChangeCipherSpec",
            State::AwaitFinished(_) => "Finished",
            State::Established { .. } => "ApplicationData",
            State::FlightVerified(_) => "nothing (probe stopped)",
            State::Failed => "nothing (failed)",
        }
    }
}

/// What the client's key exchange encrypts to or agrees with, parsed and
/// checked where it arrives.
enum PeerKex {
    Rsa(RsaPublicKey),
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

/// The client's protocol half: the handshake state and the study's
/// observation points.
struct ClientSide {
    config: ClientConfig,
    rng: HmacDrbg,
    state: State,
    // Session IDs travel cleartext in the hellos.
    // ctlint: public
    server_session_id: Vec<u8>,
    resumed: Option<ResumeKind>,
    new_ticket: Option<NewSessionTicket>,
    // ctlint: public
    server_kex_public: Option<Vec<u8>>,
    // ctlint: public
    chain_der: Vec<Vec<u8>>,
    trust: Option<Result<(), TrustError>>,
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
        let session_id = config
            .resumption
            .session
            .as_ref()
            .map(|(id, _)| id.clone())
            .unwrap_or_default();

        let mut extensions = vec![Extension::ServerName(config.server_name.clone())];
        if let Some((ticket, _)) = &config.resumption.ticket {
            extensions.push(Extension::SessionTicket(ticket.clone()));
        } else if config.offer_ticket_support {
            extensions.push(Extension::SessionTicket(Vec::new()));
        }
        extensions.push(Extension::SupportedGroups(vec![29]));

        let ch = HandshakeMessage::ClientHello(ClientHello {
            random: client_random,
            session_id,
            cipher_suites: config.suites.iter().map(|s| s.id()).collect(),
            extensions,
        });

        let mut common = ConnectionCommon::new();
        common.client_random = client_random;
        let side = ClientSide {
            config,
            rng,
            state: State::AwaitServerHello,
            server_session_id: Vec::new(),
            resumed: None,
            new_ticket: None,
            server_kex_public: None,
            chain_der: Vec::new(),
            trust: None,
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
        match &self.side.state {
            State::FlightVerified(flight) => Ok(flight.clone()),
            _ => Err(TlsError::NotReady),
        }
    }

    /// Scanner-facing summary; available once established.
    pub fn summary(&self) -> Result<HandshakeSummary, TlsError> {
        let State::Established { suite, master } = self.side.state else {
            return Err(TlsError::NotReady);
        };
        Ok(HandshakeSummary {
            resumed: self.side.resumed,
            cipher_suite: suite,
            server_session_id: self.side.server_session_id.clone(),
            new_ticket: self.side.new_ticket.clone(),
            server_kex_public: self.side.server_kex_public.clone(),
            chain_der: self.side.chain_der.clone(),
            trust: self.side.trust.clone(),
            session: SessionState {
                master_secret: master,
                cipher_suite: suite,
                established_at: self.side.resumed_original_time(),
                server_name: self.side.config.server_name.clone(),
            },
        })
    }
}

impl ClientSide {
    fn resumed_original_time(&self) -> u64 {
        let offer = &self.config.resumption;
        let resumed = match self.resumed {
            Some(ResumeKind::SessionId) => &offer.session,
            Some(ResumeKind::Ticket) => &offer.ticket,
            None => return self.config.now,
        };
        resumed
            .as_ref()
            .map_or(self.config.now, |(_, s)| s.established_at)
    }

    fn on_server_hello(
        &mut self,
        common: &mut ConnectionCommon,
        sh: ServerHello,
    ) -> Result<State, TlsError> {
        let suite = CipherSuite::from_id(sh.cipher_suite)
            .ok_or(TlsError::Decode("server chose unknown suite"))?;
        if !self.config.suites.contains(&suite) {
            return Err(TlsError::Decode("server chose unoffered suite"));
        }
        common.suite = Some(suite);
        common.server_random = sh.random;
        self.server_session_id = sh.session_id;
        match &self.config.resumption.session {
            // Session-ID resumption accepted.
            Some((id, state)) if !id.is_empty() && *id == self.server_session_id => {
                let (keys, read) = resume(common, suite, state)?;
                self.resumed = Some(ResumeKind::SessionId);
                Ok(State::AwaitTicketOrCcs { keys, read })
            }
            _ => Ok(State::AwaitServerFlight { suite }),
        }
    }

    /// `got` (a NewSessionTicket or CCS in place of a Certificate) says
    /// that the server accepted the offered ticket: resume its session.
    fn accept_ticket(
        &mut self,
        common: &mut ConnectionCommon,
        suite: CipherSuite,
        got: &'static str,
    ) -> Result<(Keyed, DirectionKeys), TlsError> {
        let unoffered = TlsError::UnexpectedMessage {
            expected: "Certificate",
            got,
        };
        let (_, state) = self.config.resumption.ticket.as_ref().ok_or(unoffered)?;
        let keyed = resume(common, suite, state)?;
        self.resumed = Some(ResumeKind::Ticket);
        Ok(keyed)
    }

    fn on_certificate(
        &mut self,
        suite: CipherSuite,
        msg: CertificateMsg,
    ) -> Result<State, TlsError> {
        let mut parsed = Vec::with_capacity(msg.chain.len());
        for der in &msg.chain {
            parsed.push(
                Certificate::parse(der).map_err(|_| TlsError::Decode("unparseable certificate"))?,
            );
        }
        self.chain_der = msg.chain;
        let trust =
            self.config
                .root_store
                .validate(&parsed, &self.config.server_name, self.config.now);
        if let (true, Err(e)) = (self.config.verify_certs, &trust) {
            return Err(TlsError::Trust(e.clone()));
        }
        let leaf = parsed
            .into_iter()
            .next()
            .ok_or(TlsError::Decode("empty certificate chain"))?;
        let flight = ServerFlight {
            cipher_suite: suite,
            trust,
            server_kex_public: None,
        };
        Ok(State::AwaitServerKexOrDone { leaf, flight })
    }

    fn on_server_kex(
        &mut self,
        common: &mut ConnectionCommon,
        leaf: Certificate,
        mut flight: ServerFlight,
        ske: ServerKeyExchange,
    ) -> Result<State, TlsError> {
        // Signature check against the leaf key.
        let signed = kex_signed_content(&common.client_random, &common.server_random, &ske.params);
        leaf.public_key
            .verify(&signed, &ske.signature)
            .map_err(TlsError::from)?;
        // Check the public value here, so that a probe refuses every
        // flight the full handshake refuses.
        let peer = match (&ske.params, flight.cipher_suite.key_exchange()) {
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
        flight.server_kex_public = Some(ske.params.public_value().to_vec());
        Ok(State::AwaitServerHelloDone { peer, flight })
    }

    fn on_server_hello_done(
        &mut self,
        common: &mut ConnectionCommon,
        peer: PeerKex,
        flight: ServerFlight,
    ) -> Result<State, TlsError> {
        if self.probe {
            // Everything the flight can tell is final: stop before any
            // key is generated.
            return Ok(State::FlightVerified(flight));
        }
        let suite = flight.cipher_suite;
        self.trust = Some(flight.trust);
        self.server_kex_public = flight.server_kex_public;
        let (premaster, cke) = match peer {
            PeerKex::Rsa(key) => {
                let mut pm = vec![0u8; 48];
                self.rng.fill_bytes(&mut pm);
                pm[0] = 3;
                pm[1] = 3;
                let encrypted_premaster = key.encrypt(&pm, &mut self.rng)?;
                (
                    pm,
                    ClientKeyExchange::Rsa {
                        encrypted_premaster,
                    },
                )
            }
            PeerKex::Dhe { group, ys } => {
                let kp = DhKeyPair::generate(group, &mut self.rng);
                let yc = kp.public_bytes();
                (kp.shared_secret(&ys)?, ClientKeyExchange::Dhe { yc })
            }
            PeerKex::Ecdhe(point) => {
                let kp = X25519KeyPair::generate(&mut self.rng);
                let premaster = kp.shared_secret(&point)?.to_vec();
                let point = kp.public.to_vec();
                (premaster, ClientKeyExchange::Ecdhe { point })
            }
        };
        common.send_handshake(&HandshakeMessage::ClientKeyExchange(cke));
        let master = master_secret(&premaster, &common.client_random, &common.server_random);
        common.master = Some(master);
        let ConnectionKeys {
            client_write,
            server_write,
        } = key_block(&master, &common.client_random, &common.server_random, suite);
        common.send_finished(client_write, &master, true);
        Ok(State::AwaitTicketOrCcs {
            keys: Keyed {
                suite,
                master,
                reply: None,
            },
            read: server_write,
        })
    }
}

/// Keys for an abbreviated handshake that resumes `state`: the server's
/// half is read after its CCS, ours replies to its Finished.
fn resume(
    common: &mut ConnectionCommon,
    suite: CipherSuite,
    state: &SessionState,
) -> Result<(Keyed, DirectionKeys), TlsError> {
    if state.cipher_suite != suite {
        return Err(TlsError::Decode("resumed suite mismatch"));
    }
    let master = state.master_secret;
    common.master = Some(master);
    let keys = key_block(&master, &common.client_random, &common.server_random, suite);
    let keyed = Keyed {
        suite,
        master,
        reply: Some(keys.client_write),
    };
    Ok((keyed, keys.server_write))
}

impl Side for ClientSide {
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
            (State::AwaitServerHello, HandshakeMessage::ServerHello(sh)) => {
                self.on_server_hello(common, sh)?
            }
            (State::AwaitServerFlight { suite }, HandshakeMessage::Certificate(c)) => {
                self.on_certificate(suite, c)?
            }
            (State::AwaitServerFlight { suite }, HandshakeMessage::NewSessionTicket(nst)) => {
                let (keys, read) = self.accept_ticket(common, suite, "NewSessionTicket")?;
                self.new_ticket = Some(nst);
                State::AwaitCcs { keys, read }
            }
            (
                State::AwaitServerKexOrDone { leaf, flight },
                HandshakeMessage::ServerKeyExchange(ske),
            ) => self.on_server_kex(common, leaf, flight, ske)?,
            (State::AwaitServerKexOrDone { leaf, flight }, HandshakeMessage::ServerHelloDone) => {
                if flight.cipher_suite.key_exchange() != KeyExchange::Rsa {
                    return Err(TlsError::Decode("missing ServerKeyExchange"));
                }
                self.on_server_hello_done(common, PeerKex::Rsa(leaf.public_key), flight)?
            }
            (State::AwaitServerHelloDone { peer, flight }, HandshakeMessage::ServerHelloDone) => {
                self.on_server_hello_done(common, peer, flight)?
            }
            (State::AwaitTicketOrCcs { keys, read }, HandshakeMessage::NewSessionTicket(nst)) => {
                self.new_ticket = Some(nst);
                State::AwaitCcs { keys, read }
            }
            (State::AwaitFinished(keys), HandshakeMessage::Finished(f)) => {
                common.check_finished(&keys.master, f, false)?;
                if let Some(client_write) = keys.reply {
                    // Abbreviated handshake: our CCS and Finished follow.
                    common.send_finished(client_write, &keys.master, true);
                }
                common.status = Status::Established;
                State::Established {
                    suite: keys.suite,
                    master: keys.master,
                }
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
        if payload != [1] {
            return Err(TlsError::Decode("bad ChangeCipherSpec"));
        }
        let (keys, read) = match std::mem::replace(&mut self.state, State::Failed) {
            // The server accepted a ticket and reissued none.
            State::AwaitServerFlight { suite } => {
                self.accept_ticket(common, suite, "ChangeCipherSpec")?
            }
            State::AwaitTicketOrCcs { keys, read } | State::AwaitCcs { keys, read } => (keys, read),
            state => {
                return Err(TlsError::UnexpectedMessage {
                    expected: state.expects(),
                    got: "ChangeCipherSpec",
                })
            }
        };
        common.records.set_read_keys(read);
        self.state = State::AwaitFinished(keys);
        Ok(())
    }

    fn set_failed(&mut self) {
        self.state = State::Failed;
    }
}
