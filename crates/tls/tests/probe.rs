//! Probes: handshakes that stop once the server flight is verified.
//!
//! A probe must refuse every server flight the full handshake refuses,
//! with the same typed error and no recorded value, and a server it
//! abandons must leave its STEK manager's rotations where a completed
//! handshake leaves them. Hostile flights are made here by rewriting a
//! real server's first flight (and re-signing the ServerKeyExchange with
//! the server's key, so that only the tampered field is wrong) before
//! either kind of client reads it: its fields, and its messages dropped,
//! repeated or reordered. Both sides refuse any message out of order.

use std::sync::Arc;
use ts_crypto::bignum::Ub;
use ts_crypto::dh::DhGroup;
use ts_crypto::drbg::HmacDrbg;
use ts_crypto::rsa::RsaPrivateKey;
use ts_crypto::CryptoError;
use ts_tls::config::{ClientConfig, ServerConfig, ServerIdentity};
use ts_tls::ephemeral::{EphemeralCache, EphemeralPolicy};
use ts_tls::pump::pump;
use ts_tls::server::{kex_signed_content, ResumeKind};
use ts_tls::session::SessionState;
use ts_tls::suites::CipherSuite;
use ts_tls::ticket::{RotationPolicy, SharedStekManager, StekManager, TicketFormat};
use ts_tls::wire::handshake::{ClientKeyExchange, HandshakeMessage, ServerKexParams};
use ts_tls::wire::record::{ContentType, RecordLayer};
use ts_tls::{ClientConn, ConnectionCommon, ServerConn, TlsError};
use ts_x509::{Certificate, CertificateParams, DistinguishedName, RootStore, Validity};

const HOST: &str = "probe.test.sim";
const RSA: CipherSuite = CipherSuite::RsaAes128GcmSha256;
const DHE: CipherSuite = CipherSuite::DheRsaAes128GcmSha256;
const ECDHE: CipherSuite = CipherSuite::EcdheRsaAes128GcmSha256;

struct Env {
    root_store: Arc<RootStore>,
    identity: Arc<ServerIdentity>,
}

fn env() -> Env {
    let mut rng = HmacDrbg::new(b"probe-test-env");
    let ca_key = RsaPrivateKey::generate(512, &mut rng).unwrap();
    let leaf_key = RsaPrivateKey::generate(512, &mut rng).unwrap();
    let ca_name = DistinguishedName::cn("Probe Root CA");
    let issue = |serial, subject: &DistinguishedName, key: &RsaPrivateKey, is_ca| {
        let params = CertificateParams {
            serial,
            subject: subject.clone(),
            validity: Validity {
                not_before: 0,
                not_after: u32::MAX as u64,
            },
            dns_names: if is_ca { vec![] } else { vec![HOST.into()] },
            is_ca,
        };
        Certificate::issue(&params, &key.public, &ca_name, &ca_key)
    };
    let mut store = RootStore::new();
    store.add_root(issue(1, &ca_name, &ca_key, true));
    let leaf = issue(2, &DistinguishedName::cn(HOST), &leaf_key, false);
    Env {
        root_store: Arc::new(store),
        identity: Arc::new(ServerIdentity {
            chain: vec![leaf],
            key: leaf_key,
        }),
    }
}

fn server_config(env: &Env, stek: SharedStekManager) -> ServerConfig {
    let eph = EphemeralCache::new(
        EphemeralPolicy::FreshPerHandshake,
        DhGroup::Sim256,
        HmacDrbg::new(b"probe-eph"),
    );
    let mut cfg = ServerConfig::new(env.identity.clone(), eph);
    cfg.tickets = Some(stek);
    cfg
}

fn stek(policy: RotationPolicy) -> SharedStekManager {
    SharedStekManager::new(StekManager::new(
        policy,
        TicketFormat::Rfc5077,
        HmacDrbg::new(b"probe-stek"),
        0,
    ))
}

/// A scanner-like client config: one suite, trust failures recorded.
fn client_config(env: &Env, suite: CipherSuite, now: u64) -> ClientConfig {
    let mut cfg = ClientConfig::new(env.root_store.clone(), HOST, now);
    cfg.suites = vec![suite];
    cfg.verify_certs = false;
    cfg
}

fn drain_tls(conn: &mut ConnectionCommon) -> Vec<u8> {
    let mut out = Vec::new();
    while conn.wants_write() {
        conn.write_tls(&mut out).unwrap();
    }
    out
}

fn feed_tls(conn: &mut ConnectionCommon, mut bytes: &[u8]) {
    while !bytes.is_empty() {
        conn.read_tls(&mut bytes).unwrap();
    }
}

/// The handshake messages in a run of plaintext handshake records.
fn messages(bytes: &[u8]) -> Vec<HandshakeMessage> {
    let mut records = RecordLayer::new();
    records.feed(bytes);
    let mut out = Vec::new();
    while let Some(record) = records.next_record().unwrap() {
        assert_eq!(record.content_type, ContentType::Handshake);
        let (msg, used) = HandshakeMessage::decode(&record.payload, None)
            .unwrap()
            .unwrap();
        assert_eq!(used, record.payload.len(), "one message per record");
        out.push(msg);
    }
    out
}

fn records(msgs: &[HandshakeMessage]) -> Vec<u8> {
    let mut out = Vec::new();
    let mut layer = RecordLayer::new();
    for msg in msgs {
        layer.write_record(ContentType::Handshake, &msg.encode(), &mut out);
    }
    out
}

/// The ServerKeyExchange parameters of a flight, for rewriting.
fn ske_params(flight: &mut [HandshakeMessage]) -> &mut ServerKexParams {
    flight
        .iter_mut()
        .find_map(|m| match m {
            HandshakeMessage::ServerKeyExchange(ske) => Some(&mut ske.params),
            _ => None,
        })
        .expect("flight has a ServerKeyExchange")
}

/// Sign the flight's (rewritten) ServerKeyExchange with the server key.
fn resign(flight: &mut [HandshakeMessage], client_hello: &[HandshakeMessage], env: &Env) {
    let client_random = match &client_hello[0] {
        HandshakeMessage::ClientHello(ch) => ch.random,
        other => panic!("expected ClientHello, got {}", other.name()),
    };
    let server_random = match &flight[0] {
        HandshakeMessage::ServerHello(sh) => sh.random,
        other => panic!("expected ServerHello, got {}", other.name()),
    };
    for msg in flight.iter_mut() {
        if let HandshakeMessage::ServerKeyExchange(ske) = msg {
            let signed = kex_signed_content(&client_random, &server_random, &ske.params);
            ske.signature = env.identity.key.sign(&signed).unwrap();
        }
    }
}

/// A full client and a probe, both fed one server flight rewritten by
/// `tamper`: each one's result of reading it, then the pair.
fn both_kinds(
    env: &Env,
    suite: CipherSuite,
    tamper: impl Fn(&mut Vec<HandshakeMessage>, &[HandshakeMessage]),
) -> [(Result<(), TlsError>, ClientConn); 2] {
    let cfg = client_config(env, suite, 100);
    let mut full = ClientConn::new(cfg.clone(), HmacDrbg::new(b"probe-client"));
    let mut probe = ClientConn::probe(cfg, HmacDrbg::new(b"probe-client"));
    let hello = drain_tls(&mut full);
    assert_eq!(hello, drain_tls(&mut probe), "the same ClientHello");

    let mut server = ServerConn::new(
        server_config(env, stek(RotationPolicy::Static)),
        HmacDrbg::new(b"probe-server"),
        100,
    );
    feed_tls(&mut server, &hello);
    server.process_new_packets().unwrap();
    let mut flight = messages(&drain_tls(&mut server));
    tamper(&mut flight, &messages(&hello));
    let bytes = records(&flight);
    [full, probe].map(|mut client| {
        feed_tls(&mut client, &bytes);
        (client.process_new_packets().map(|_| ()), client)
    })
}

/// Both kinds refuse the tampered flight with `expected` and record no
/// value.
fn refused_alike(
    env: &Env,
    suite: CipherSuite,
    expected: TlsError,
    tamper: impl Fn(&mut Vec<HandshakeMessage>, &[HandshakeMessage]),
) {
    let [(full, full_conn), (probe, probe_conn)] = both_kinds(env, suite, tamper);
    assert_eq!(full, Err(expected.clone()), "full handshake");
    assert_eq!(probe, Err(expected), "probe");
    assert!(full_conn.is_failed() && probe_conn.is_failed());
    assert!(full_conn.summary().is_err());
    assert_eq!(probe_conn.server_flight().unwrap_err(), TlsError::NotReady);
}

#[test]
fn probe_stops_with_the_value_a_full_handshake_sees() {
    let env = env();
    for suite in [DHE, ECDHE, CipherSuite::RsaAes128GcmSha256] {
        let cfg = client_config(&env, suite, 100);
        let run = |mut client: ClientConn| {
            let mut server = ServerConn::new(
                server_config(&env, stek(RotationPolicy::Static)),
                HmacDrbg::new(b"probe-server"),
                100,
            );
            pump(&mut client, &mut server).unwrap();
            (client, server)
        };
        let (full, full_server) = run(ClientConn::new(cfg.clone(), HmacDrbg::new(b"c")));
        let (probe, probe_server) = run(ClientConn::probe(cfg, HmacDrbg::new(b"c")));
        assert!(full.is_established() && full_server.is_established());
        assert!(!probe.is_established() && !probe_server.is_established());
        assert!(!probe.is_failed() && !probe_server.is_failed());
        assert_eq!(probe.master_secret(), None, "no key was derived");
        assert_eq!(probe.summary().unwrap_err(), TlsError::NotReady);
        assert_eq!(full.server_flight().unwrap_err(), TlsError::NotReady);

        let summary = full.summary().unwrap();
        let flight = probe.server_flight().unwrap();
        assert_eq!(flight.cipher_suite, suite);
        assert_eq!(flight.trust, Ok(()));
        assert_eq!(flight.server_kex_public, summary.server_kex_public);
        assert_eq!(
            flight.server_kex_public.is_some(),
            suite != CipherSuite::RsaAes128GcmSha256
        );
    }
}

#[test]
fn untampered_flight_is_accepted_by_both_kinds() {
    let env = env();
    for suite in [DHE, ECDHE] {
        let [(full, _), (probe, probe_conn)] = both_kinds(&env, suite, |_, _| {});
        assert_eq!(full, Ok(()));
        assert_eq!(probe, Ok(()));
        assert!(probe_conn.server_flight().is_ok());
    }
}

#[test]
fn dhe_flight_without_server_key_exchange_is_refused() {
    let env = env();
    refused_alike(
        &env,
        DHE,
        TlsError::Decode("missing ServerKeyExchange"),
        |flight, _| flight.retain(|m| !matches!(m, HandshakeMessage::ServerKeyExchange(_))),
    );
}

#[test]
fn out_of_range_dh_values_are_refused() {
    let env = env();
    let p = DhGroup::Sim256.prime();
    let values = [
        Ub::zero().to_bytes_be_padded(32),
        Ub::one().to_bytes_be_padded(32),
        p.sub(&Ub::one()).to_bytes_be(),
        p.to_bytes_be(),
        p.add(&Ub::one()).to_bytes_be(),
        p.shl(64).to_bytes_be(),
    ];
    for ys in values {
        refused_alike(
            &env,
            DHE,
            TlsError::Crypto(CryptoError::InvalidPublicValue),
            |flight, hello| {
                match ske_params(flight) {
                    ServerKexParams::Dhe { ys: value, .. } => *value = ys.clone(),
                    other => panic!("DHE suite sent {other:?}"),
                }
                resign(flight, hello, &env);
            },
        );
    }
}

#[test]
fn unknown_dh_prime_is_refused() {
    let env = env();
    refused_alike(
        &env,
        DHE,
        TlsError::Decode("unknown DH group"),
        |flight, hello| {
            match ske_params(flight) {
                ServerKexParams::Dhe { p, .. } => {
                    *p = DhGroup::Sim256.prime().add(&Ub::from_u64(2)).to_bytes_be()
                }
                other => panic!("DHE suite sent {other:?}"),
            }
            resign(flight, hello, &env);
        },
    );
}

#[test]
fn short_x25519_point_is_refused() {
    let env = env();
    refused_alike(
        &env,
        ECDHE,
        TlsError::Decode("bad server point length"),
        |flight, hello| {
            match ske_params(flight) {
                ServerKexParams::Ecdhe { point } => point.truncate(31),
                other => panic!("ECDHE suite sent {other:?}"),
            }
            resign(flight, hello, &env);
        },
    );
}

#[test]
fn low_order_x25519_points_are_refused() {
    // The 14 encodings of ts-crypto's `low_order_peer_values_are_rejected`:
    // u = 0, 1, p−1, p, p+1 and the two order-8 points, each with bit 255
    // clear and set.
    let mut p_minus_1 = [0xff; 32];
    p_minus_1[0] = 0xec;
    p_minus_1[31] = 0x7f;
    let (mut p, mut p_plus_1) = (p_minus_1, p_minus_1);
    p[0] = 0xed;
    p_plus_1[0] = 0xee;
    let mut one = [0u8; 32];
    one[0] = 1;
    let unhex = |s: &str| -> [u8; 32] {
        let mut out = [0u8; 32];
        for (i, byte) in out.iter_mut().enumerate() {
            *byte = u8::from_str_radix(&s[2 * i..2 * i + 2], 16).unwrap();
        }
        out
    };
    let low_order = [
        [0u8; 32],
        one,
        p_minus_1,
        p,
        p_plus_1,
        unhex("e0eb7a7c3b41b8ae1656e3faf19fc46ada098deb9c32b1fd866205165f49b800"),
        unhex("5f9c95bca3508c24b1d0b1559c83ef5b04445cc4581c8e86d8224eddd09f1157"),
    ];
    let env = env();
    for u in low_order {
        for high_bit in [0, 0x80] {
            let mut u = u;
            u[31] |= high_bit;
            refused_alike(
                &env,
                ECDHE,
                TlsError::Crypto(CryptoError::InvalidPublicValue),
                |flight, hello| {
                    match ske_params(flight) {
                        ServerKexParams::Ecdhe { point } => *point = u.to_vec(),
                        other => panic!("ECDHE suite sent {other:?}"),
                    }
                    resign(flight, hello, &env);
                },
            );
        }
    }
}

#[test]
fn corrupted_ske_signature_is_refused() {
    let env = env();
    for suite in [DHE, ECDHE] {
        refused_alike(
            &env,
            suite,
            TlsError::Crypto(CryptoError::BadSignature),
            |flight, _| {
                for msg in flight.iter_mut() {
                    if let HandshakeMessage::ServerKeyExchange(ske) = msg {
                        ske.signature[7] ^= 0x40;
                    }
                }
            },
        );
    }
}

/// A message-level rewrite of a server flight.
#[derive(Debug, Clone, Copy)]
enum Mutation {
    Drop(usize),
    /// Send the message twice in a row.
    Repeat(usize),
    /// Swap the message with the next one.
    Swap(usize),
}

impl Mutation {
    /// Every drop, repeat and neighbour swap of an `n`-message flight.
    fn all(n: usize) -> impl Iterator<Item = Mutation> {
        let drops = (0..n).map(Mutation::Drop);
        let repeats = (0..n).map(Mutation::Repeat);
        drops.chain(repeats).chain((0..n - 1).map(Mutation::Swap))
    }

    fn apply(self, flight: &mut Vec<HandshakeMessage>) {
        match self {
            Mutation::Drop(i) => {
                flight.remove(i);
            }
            Mutation::Repeat(i) => flight.insert(i, flight[i].clone()),
            Mutation::Swap(i) => flight.swap(i, i + 1),
        }
    }
}

#[test]
fn dropped_repeated_and_swapped_flight_messages_are_refused() {
    // ServerHello, Certificate, [ServerKeyExchange,] ServerHelloDone. A
    // flight without its ServerHelloDone is not over yet, so both kinds
    // wait for the rest of it; every other rewrite fails both.
    let env = env();
    let (mut cases, mut wrong) = (0, Vec::new());
    for (suite, n) in [(RSA, 3), (DHE, 4), (ECDHE, 4)] {
        for mutation in Mutation::all(n) {
            let kinds = both_kinds(&env, suite, |flight, _| {
                assert_eq!(flight.len(), n, "{suite:?}");
                mutation.apply(flight);
            });
            let incomplete = matches!(mutation, Mutation::Drop(i) if i == n - 1);
            for ((result, conn), kind) in kinds.iter().zip(["full", "probe"]) {
                let refused = matches!(
                    result,
                    Err(TlsError::UnexpectedMessage { .. }
                        | TlsError::Decode("missing ServerKeyExchange"))
                );
                let verdict_ok = if incomplete {
                    result.is_ok() && !conn.is_failed()
                } else {
                    refused && conn.is_failed()
                };
                let unobserved = conn.summary().is_err()
                    && conn.server_flight().err() == Some(TlsError::NotReady);
                if !(verdict_ok && unobserved) {
                    wrong.push(format!("{suite:?} {mutation:?} {kind}: {result:?}"));
                }
                cases += 1;
            }
        }
    }
    assert_eq!(cases, 60);
    assert!(wrong.is_empty(), "mishandled:\n{}", wrong.join("\n"));
}

#[test]
fn repeated_new_session_ticket_is_refused() {
    let env = env();
    let mut client = ClientConn::new(client_config(&env, ECDHE, 100), HmacDrbg::new(b"c"));
    let mut server = ServerConn::new(
        server_config(&env, stek(RotationPolicy::Static)),
        HmacDrbg::new(b"s"),
        100,
    );
    feed_tls(&mut server, &drain_tls(&mut client));
    server.process_new_packets().unwrap();
    feed_tls(&mut client, &drain_tls(&mut server));
    client.process_new_packets().unwrap();
    feed_tls(&mut server, &drain_tls(&mut client));
    server.process_new_packets().unwrap();
    assert!(server.is_established());
    // NewSessionTicket in the clear, then ChangeCipherSpec and Finished.
    let tail = drain_tls(&mut server);
    let ticket_record = &tail[..5 + u16::from_be_bytes([tail[3], tail[4]]) as usize];
    assert!(matches!(
        messages(ticket_record)[..],
        [HandshakeMessage::NewSessionTicket(_)]
    ));
    feed_tls(&mut client, &[ticket_record, &tail].concat());
    let err = client.process_new_packets().unwrap_err();
    assert!(
        matches!(
            err,
            TlsError::UnexpectedMessage {
                got: "NewSessionTicket",
                ..
            }
        ),
        "{err:?}"
    );
    assert!(client.is_failed());
    assert!(client.summary().is_err());
}

#[test]
fn server_refuses_a_second_client_hello() {
    let env = env();
    let mut client = ClientConn::new(client_config(&env, ECDHE, 100), HmacDrbg::new(b"c"));
    let mut server = ServerConn::new(
        server_config(&env, stek(RotationPolicy::Static)),
        HmacDrbg::new(b"s"),
        100,
    );
    let hello = drain_tls(&mut client);
    feed_tls(&mut server, &hello);
    server.process_new_packets().unwrap();
    feed_tls(&mut server, &hello);
    let err = server.process_new_packets().unwrap_err();
    assert!(
        matches!(
            err,
            TlsError::UnexpectedMessage {
                got: "ClientHello",
                ..
            }
        ),
        "{err:?}"
    );
    assert!(server.is_failed());
    assert!(
        drain_tls(&mut server).ends_with(&[21, 3, 3, 0, 2, 2, 10]),
        "fatal unexpected_message alert"
    );
}

#[test]
fn server_refuses_a_client_key_exchange_in_an_abbreviated_handshake() {
    let env = env();
    let server_cfg = server_config(&env, stek(RotationPolicy::Static));
    let mut cfg = client_config(&env, ECDHE, 100);
    let mut first = ClientConn::new(cfg.clone(), HmacDrbg::new(b"c1"));
    let mut server = ServerConn::new(server_cfg.clone(), HmacDrbg::new(b"s1"), 100);
    pump(&mut first, &mut server).unwrap();
    let summary = first.summary().unwrap();
    cfg.resumption.session = Some((summary.server_session_id, summary.session));

    let mut client = ClientConn::new(cfg, HmacDrbg::new(b"c2"));
    let mut server = ServerConn::new(server_cfg, HmacDrbg::new(b"s2"), 101);
    feed_tls(&mut server, &drain_tls(&mut client));
    server.process_new_packets().unwrap();
    assert_eq!(server.resumed(), Some(ResumeKind::SessionId));
    let cke = ClientKeyExchange::Ecdhe { point: vec![9; 32] };
    feed_tls(
        &mut server,
        &records(&[HandshakeMessage::ClientKeyExchange(cke)]),
    );
    let err = server.process_new_packets().unwrap_err();
    assert!(
        matches!(
            err,
            TlsError::UnexpectedMessage {
                got: "ClientKeyExchange",
                ..
            }
        ),
        "{err:?}"
    );
    assert!(server.is_failed());
}

/// Creation times of the keys an attacker would steal from the manager
/// now: the active key, then the retired keys still accepted.
fn created(stek: &SharedStekManager) -> Vec<u64> {
    stek.steal_keys().iter().map(|k| k.created_at).collect()
}

#[test]
fn abandoned_handshakes_rotate_steks_like_completed_ones() {
    // Two managers with one policy and seed: one serves handshakes that
    // complete (the ticket is issued after the client's Finished), the
    // other the same handshakes abandoned after ServerHelloDone. The
    // promise of a ticket in ServerHello must bring both to the same
    // rotations.
    let env = env();
    let policy = RotationPolicy::Periodic {
        period: 100,
        overlap: 50,
    };
    let (completed, abandoned) = (stek(policy), stek(policy));
    let mut snapshots = Vec::new();
    for now in [10, 99, 100, 101, 250, 250, 399, 520, 1_000] {
        for (manager, probe) in [(&completed, false), (&abandoned, true)] {
            let cfg = client_config(&env, ECDHE, now);
            let rng = HmacDrbg::new(b"rotation-client");
            let mut client = if probe {
                ClientConn::probe(cfg, rng)
            } else {
                ClientConn::new(cfg, rng)
            };
            let mut server = ServerConn::new(
                server_config(&env, manager.clone()),
                HmacDrbg::new(b"rotation-server"),
                now,
            );
            pump(&mut client, &mut server).unwrap();
            assert_eq!(server.is_established(), !probe);
        }
        assert_eq!(created(&completed), created(&abandoned), "at {now}");
        snapshots.push(created(&completed));
    }
    // Each key is created one period after its predecessor, so the
    // active key at 1,000 was reached through every rotation in between.
    let expected: [&[u64]; 9] = [
        &[0],
        &[0],
        &[100, 0],
        &[100, 0],
        &[200],
        &[200],
        &[300],
        &[500, 400],
        &[1_000, 900],
    ];
    assert_eq!(snapshots, expected);
}

#[test]
fn advancing_to_an_earlier_time_changes_nothing() {
    let stek = stek(RotationPolicy::Periodic {
        period: 100,
        overlap: 150,
    });
    let keys = |s: &SharedStekManager| -> Vec<_> {
        s.steal_keys()
            .iter()
            .map(|k| (k.key_name, k.created_at))
            .collect()
    };
    stek.advance(420);
    let at_420 = keys(&stek);
    assert_eq!(
        created(&stek),
        [400, 200, 300],
        "active, then two in overlap"
    );
    for t in [0, 99, 300, 419, 420] {
        stek.advance(t);
        assert_eq!(keys(&stek), at_420, "advance({t}) after advance(420)");
    }

    // Another path (issuing a ticket) may tick the manager past the last
    // advance; advancing to an earlier time than that changes nothing
    // either.
    let state = SessionState {
        master_secret: [7; 48],
        cipher_suite: ECDHE,
        established_at: 470,
        server_name: HOST.into(),
    };
    stek.issue(&state, 470);
    let at_470 = keys(&stek);
    assert_eq!(
        created(&stek),
        [400, 300],
        "the key from 200 left its overlap"
    );
    for t in [421, 460, 470] {
        stek.advance(t);
        assert_eq!(keys(&stek), at_470, "advance({t}) after issue at 470");
    }
}
