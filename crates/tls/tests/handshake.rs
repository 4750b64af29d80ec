//! End-to-end handshake tests: full handshakes across every suite,
//! session-ID and ticket resumption, expiry behaviour, failure injection.

use std::sync::Arc;
use ts_crypto::bignum::Ub;
use ts_crypto::dh::DhGroup;
use ts_crypto::drbg::HmacDrbg;
use ts_crypto::rsa::{RsaPrivateKey, RsaPublicKey};
use ts_crypto::CryptoError;
use ts_tls::alert::AlertDescription;
use ts_tls::cache::SharedSessionCache;
use ts_tls::config::{ClientConfig, ResumptionOffer, ServerConfig, ServerIdentity};
use ts_tls::ephemeral::{EphemeralCache, EphemeralPolicy};
use ts_tls::pump::{pump, pump_app_data};
use ts_tls::server::ResumeKind;
use ts_tls::suites::CipherSuite;
use ts_tls::ticket::{RotationPolicy, SharedStekManager, StekManager, TicketFormat};
use ts_tls::{ClientConn, ConnectionCommon, ServerConn, TlsError};
use ts_x509::{Certificate, CertificateParams, DistinguishedName, RootStore, Validity};

const HOST: &str = "www.test.sim";

struct TestEnv {
    root_store: Arc<RootStore>,
    identity: Arc<ServerIdentity>,
}

fn build_env() -> TestEnv {
    let mut rng = HmacDrbg::new(b"handshake-test-env");
    let ca_key = RsaPrivateKey::generate(512, &mut rng).unwrap();
    let ca_name = DistinguishedName::cn("Test Root CA");
    let ca_cert = Certificate::issue(
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
            subject: DistinguishedName::cn(HOST),
            validity: Validity {
                not_before: 0,
                not_after: u32::MAX as u64,
            },
            dns_names: vec![HOST.into()],
            is_ca: false,
        },
        &leaf_key.public,
        &ca_name,
        &ca_key,
    );
    let mut store = RootStore::new();
    store.add_root(ca_cert);
    TestEnv {
        root_store: Arc::new(store),
        identity: Arc::new(ServerIdentity {
            chain: vec![leaf],
            key: leaf_key,
        }),
    }
}

fn server_config(env: &TestEnv, seed: &[u8]) -> ServerConfig {
    let eph = EphemeralCache::new(
        EphemeralPolicy::FreshPerHandshake,
        DhGroup::Sim256,
        HmacDrbg::new(&[seed, b"-eph"].concat()),
    );
    let mut cfg = ServerConfig::new(env.identity.clone(), eph);
    cfg.tickets = Some(SharedStekManager::new(StekManager::new(
        RotationPolicy::Static,
        TicketFormat::Rfc5077,
        HmacDrbg::new(&[seed, b"-stek"].concat()),
        0,
    )));
    cfg.ticket_lifetime_hint = 300;
    cfg.ticket_accept_window = 300;
    cfg
}

fn connect(
    env: &TestEnv,
    cfg: &ServerConfig,
    client_cfg: ClientConfig,
    now: u64,
    seed: &[u8],
) -> Result<(ClientConn, ServerConn), TlsError> {
    let _ = env;
    let mut client = ClientConn::new(client_cfg, HmacDrbg::new(&[seed, b"-c"].concat()));
    let mut server = ServerConn::new(cfg.clone(), HmacDrbg::new(&[seed, b"-s"].concat()), now);
    pump(&mut client, &mut server)?;
    Ok((client, server))
}

#[test]
fn full_handshake_every_suite() {
    let env = build_env();
    let cfg = server_config(&env, b"suites");
    for suite in CipherSuite::all() {
        let mut ccfg = ClientConfig::new(env.root_store.clone(), HOST, 100);
        ccfg.suites = vec![suite];
        let (client, server) = connect(
            &env,
            &cfg,
            ccfg,
            100,
            format!("s-{:x}", suite.id()).as_bytes(),
        )
        .unwrap();
        assert!(client.is_established(), "{suite:?}");
        assert!(server.is_established(), "{suite:?}");
        let summary = client.summary().unwrap();
        assert_eq!(summary.cipher_suite, suite);
        assert_eq!(summary.resumed, None);
        assert_eq!(summary.trust, Some(Ok(())));
        assert_eq!(client.master_secret(), server.master_secret());
        // PFS suites expose a server KEX value; RSA does not.
        assert_eq!(
            summary.server_kex_public.is_some(),
            suite.is_forward_secret()
        );
        // Ticket issued since both sides support it.
        assert!(summary.new_ticket.is_some(), "{suite:?}");
    }
}

#[test]
fn application_data_flows_both_ways() {
    let env = build_env();
    let cfg = server_config(&env, b"appdata");
    let ccfg = ClientConfig::new(env.root_store.clone(), HOST, 100);
    let (mut client, mut server) = connect(&env, &cfg, ccfg, 100, b"appdata").unwrap();
    client.send_app_data(b"GET / HTTP/1.1\r\n\r\n").unwrap();
    let mut cap = Default::default();
    pump_app_data(&mut client, &mut server, &mut cap).unwrap();
    assert_eq!(server.recv_app_data(), b"GET / HTTP/1.1\r\n\r\n");
    server
        .send_app_data(b"HTTP/1.1 200 OK\r\n\r\nhello")
        .unwrap();
    pump_app_data(&mut client, &mut server, &mut cap).unwrap();
    assert_eq!(client.recv_app_data(), b"HTTP/1.1 200 OK\r\n\r\nhello");
    // The wire never shows plaintext.
    assert!(!cap.client_to_server.windows(5).any(|w| w == b"GET /"));
    assert!(!cap.server_to_client.windows(5).any(|w| w == b"hello"));
}

#[test]
fn session_id_resumption_roundtrip() {
    let env = build_env();
    let cfg = server_config(&env, b"sid");
    let ccfg = ClientConfig::new(env.root_store.clone(), HOST, 100);
    let (client, _server) = connect(&env, &cfg, ccfg, 100, b"sid1").unwrap();
    let summary = client.summary().unwrap();
    assert!(!summary.server_session_id.is_empty(), "server issued an ID");

    // Second connection offering the session ID (within the 300 s default).
    let mut ccfg2 = ClientConfig::new(env.root_store.clone(), HOST, 200);
    ccfg2.resumption = ResumptionOffer {
        session: Some((summary.server_session_id.clone(), summary.session.clone())),
        ticket: None,
    };
    let (client2, server2) = connect(&env, &cfg, ccfg2, 200, b"sid2").unwrap();
    assert_eq!(
        client2.summary().unwrap().resumed,
        Some(ResumeKind::SessionId)
    );
    assert_eq!(server2.resumed(), Some(ResumeKind::SessionId));
    assert_eq!(client2.master_secret(), server2.master_secret());
    assert_eq!(
        client2.master_secret().unwrap(),
        summary.session.master_secret,
        "resumption reuses the original master secret"
    );
    // No certificate was presented on resumption.
    assert!(client2.summary().unwrap().chain_der.is_empty());
}

#[test]
fn session_id_resumption_expires_with_cache_lifetime() {
    let env = build_env();
    let cfg = server_config(&env, b"sid-exp");
    let ccfg = ClientConfig::new(env.root_store.clone(), HOST, 100);
    let (client, _server) = connect(&env, &cfg, ccfg, 100, b"sid-exp1").unwrap();
    let summary = client.summary().unwrap();

    // 301+ seconds later the cache entry has expired → full handshake.
    let mut ccfg2 = ClientConfig::new(env.root_store.clone(), HOST, 500);
    ccfg2.resumption = ResumptionOffer {
        session: Some((summary.server_session_id.clone(), summary.session.clone())),
        ticket: None,
    };
    let (client2, server2) = connect(&env, &cfg, ccfg2, 500, b"sid-exp2").unwrap();
    assert_eq!(
        client2.summary().unwrap().resumed,
        None,
        "expired → full handshake"
    );
    assert!(server2.is_established());
}

#[test]
fn ticket_resumption_roundtrip() {
    let env = build_env();
    let cfg = server_config(&env, b"tick");
    let ccfg = ClientConfig::new(env.root_store.clone(), HOST, 100);
    let (client, _server) = connect(&env, &cfg, ccfg, 100, b"tick1").unwrap();
    let summary = client.summary().unwrap();
    let nst = summary.new_ticket.clone().expect("ticket issued");
    assert_eq!(nst.lifetime_hint, 300);

    let mut ccfg2 = ClientConfig::new(env.root_store.clone(), HOST, 150);
    ccfg2.resumption = ResumptionOffer {
        session: None,
        ticket: Some((nst.ticket.clone(), summary.session.clone())),
    };
    let (client2, server2) = connect(&env, &cfg, ccfg2, 150, b"tick2").unwrap();
    assert_eq!(client2.summary().unwrap().resumed, Some(ResumeKind::Ticket));
    assert_eq!(server2.resumed(), Some(ResumeKind::Ticket));
    assert_eq!(client2.master_secret(), server2.master_secret());
    assert_eq!(
        client2.master_secret().unwrap(),
        summary.session.master_secret
    );
}

#[test]
fn ticket_resumption_respects_accept_window() {
    let env = build_env();
    let cfg = server_config(&env, b"tick-exp");
    let ccfg = ClientConfig::new(env.root_store.clone(), HOST, 100);
    let (client, _server) = connect(&env, &cfg, ccfg, 100, b"tick-exp1").unwrap();
    let summary = client.summary().unwrap();
    let nst = summary.new_ticket.clone().unwrap();

    // Past the 300 s acceptance window → full handshake instead.
    let mut ccfg2 = ClientConfig::new(env.root_store.clone(), HOST, 450);
    ccfg2.resumption = ResumptionOffer {
        session: None,
        ticket: Some((nst.ticket, summary.session.clone())),
    };
    let (client2, _server2) = connect(&env, &cfg, ccfg2, 450, b"tick-exp2").unwrap();
    let s2 = client2.summary().unwrap();
    assert_eq!(s2.resumed, None);
    // And a fresh ticket was issued on the new full handshake.
    assert!(s2.new_ticket.is_some());
}

#[test]
fn ticket_reissue_on_resumption_keeps_master_constant() {
    let env = build_env();
    let mut cfg = server_config(&env, b"reissue");
    cfg.reissue_ticket_on_resumption = true;
    let ccfg = ClientConfig::new(env.root_store.clone(), HOST, 100);
    let (client, _server) = connect(&env, &cfg, ccfg, 100, b"re1").unwrap();
    let s1 = client.summary().unwrap();
    let t1 = s1.new_ticket.clone().unwrap();

    let mut ccfg2 = ClientConfig::new(env.root_store.clone(), HOST, 150);
    ccfg2.resumption = ResumptionOffer {
        session: None,
        ticket: Some((t1.ticket.clone(), s1.session.clone())),
    };
    let (client2, _server2) = connect(&env, &cfg, ccfg2, 150, b"re2").unwrap();
    let s2 = client2.summary().unwrap();
    assert_eq!(s2.resumed, Some(ResumeKind::Ticket));
    let t2 = s2.new_ticket.clone().expect("fresh ticket reissued");
    assert_ne!(t1.ticket, t2.ticket, "ticket bytes differ");
    // But the session keys are constant (§2.2).
    assert_eq!(s2.session.master_secret, s1.session.master_secret);
}

#[test]
fn stek_rotation_invalidates_old_tickets() {
    let env = build_env();
    let mut cfg = server_config(&env, b"rot");
    cfg.tickets = Some(SharedStekManager::new(StekManager::new(
        RotationPolicy::OnRestart {
            restart_interval: 200,
        },
        TicketFormat::Rfc5077,
        HmacDrbg::new(b"rot-stek"),
        0,
    )));
    cfg.ticket_accept_window = 10_000;
    let ccfg = ClientConfig::new(env.root_store.clone(), HOST, 100);
    let (client, _server) = connect(&env, &cfg, ccfg, 100, b"rot1").unwrap();
    let s1 = client.summary().unwrap();
    let t1 = s1.new_ticket.clone().unwrap();

    // After the restart boundary the STEK is gone → full handshake.
    let mut ccfg2 = ClientConfig::new(env.root_store.clone(), HOST, 250);
    ccfg2.resumption = ResumptionOffer {
        session: None,
        ticket: Some((t1.ticket, s1.session.clone())),
    };
    let (client2, _server2) = connect(&env, &cfg, ccfg2, 250, b"rot2").unwrap();
    assert_eq!(client2.summary().unwrap().resumed, None);
}

#[test]
fn untrusted_chain_fails_when_verifying() {
    let env = build_env();
    let cfg = server_config(&env, b"untrusted");
    // Client with an empty root store.
    let empty = Arc::new(RootStore::new());
    let ccfg = ClientConfig::new(empty, HOST, 100);
    let err = connect(&env, &cfg, ccfg, 100, b"untrusted1")
        .map(|_| ())
        .unwrap_err();
    assert!(matches!(err, TlsError::Trust(_)), "{err:?}");
}

#[test]
fn untrusted_chain_recorded_when_not_verifying() {
    let env = build_env();
    let cfg = server_config(&env, b"permissive");
    let empty = Arc::new(RootStore::new());
    let mut ccfg = ClientConfig::new(empty, HOST, 100);
    ccfg.verify_certs = false;
    let (client, _server) = connect(&env, &cfg, ccfg, 100, b"permissive1").unwrap();
    let s = client.summary().unwrap();
    assert!(matches!(s.trust, Some(Err(_))));
    assert!(!s.chain_der.is_empty());
}

#[test]
fn hostname_mismatch_fails() {
    let env = build_env();
    let cfg = server_config(&env, b"hostname");
    let ccfg = ClientConfig::new(env.root_store.clone(), "other.sim", 100);
    let err = connect(&env, &cfg, ccfg, 100, b"hostname1")
        .map(|_| ())
        .unwrap_err();
    assert!(matches!(err, TlsError::Trust(_)));
}

#[test]
fn no_common_suite_fails_with_alert() {
    let env = build_env();
    let mut cfg = server_config(&env, b"nosuite");
    cfg.suites = vec![CipherSuite::EcdheRsaChaCha20Poly1305];
    let mut ccfg = ClientConfig::new(env.root_store.clone(), HOST, 100);
    ccfg.suites = vec![CipherSuite::RsaAes128CbcSha256];
    let err = connect(&env, &cfg, ccfg, 100, b"nosuite1")
        .map(|_| ())
        .unwrap_err();
    // The client observes the server's fatal alert.
    assert!(
        matches!(err, TlsError::NoCommonSuite | TlsError::PeerAlert(_)),
        "{err:?}"
    );
}

#[test]
fn even_rsa_modulus_from_server_fails_with_alert() {
    // A hostile server can present an RSA key that Montgomery arithmetic
    // cannot use: an even modulus, or an odd one wider than the 4096-bit
    // kernel. As an intermediate it reaches the chain signature check; as
    // an unverified leaf (how the scanner connects) it reaches the
    // ServerKeyExchange verify and the premaster encryption. Either way
    // the client must fail with a typed error and a fatal alert, not panic.
    let env = build_env();
    let signer = RsaPrivateKey::generate(512, &mut HmacDrbg::new(b"even-signer")).unwrap();
    let mut modulus = [0xffu8; 64];
    modulus[63] = 0xfe;
    let even = RsaPublicKey::new(Ub::from_bytes_be(&modulus), Ub::from_u64(65_537));
    let too_wide = RsaPublicKey::new(Ub::one().shl(4159).add(&Ub::one()), Ub::from_u64(65_537));
    let issue = |subject: &str, key: &RsaPublicKey, issuer: &str, is_ca: bool| {
        let params = CertificateParams {
            serial: 9,
            subject: DistinguishedName::cn(subject),
            validity: Validity {
                not_before: 0,
                not_after: u32::MAX as u64,
            },
            dns_names: vec![HOST.into()],
            is_ca,
        };
        Certificate::issue(&params, key, &DistinguishedName::cn(issuer), &signer)
    };
    let chains = [&even, &too_wide].into_iter().flat_map(|bad| {
        [
            (
                vec![
                    issue(HOST, &signer.public, "Even CA", false),
                    issue("Even CA", bad, "Test Root CA", true),
                ],
                true,
            ),
            (vec![issue(HOST, bad, "Even CA", false)], false),
        ]
    });
    for (chain, verify_certs) in chains {
        let mut cfg = server_config(&env, b"even");
        cfg.identity = Arc::new(ServerIdentity {
            chain,
            key: signer.clone(),
        });
        let mut ccfg = ClientConfig::new(env.root_store.clone(), HOST, 100);
        ccfg.verify_certs = verify_certs;
        let mut client = ClientConn::new(ccfg, HmacDrbg::new(b"even-c"));
        let mut server = ServerConn::new(cfg, HmacDrbg::new(b"even-s"), 100);
        let err = pump(&mut client, &mut server).map(|_| ()).unwrap_err();
        assert!(matches!(err, TlsError::Decode(_)), "{err:?}");
        let mut alert = Vec::new();
        client.write_tls(&mut alert).unwrap();
        assert_eq!(alert, [21, 3, 3, 0, 2, 2, 50], "fatal decode_error alert");
    }
}

/// Every TLS byte `conn` has queued.
fn drain_tls(conn: &mut ConnectionCommon) -> Vec<u8> {
    let mut out = Vec::new();
    while conn.wants_write() {
        conn.write_tls(&mut out).unwrap();
    }
    out
}

/// Hand `bytes` to `conn`'s record layer.
fn feed_tls(conn: &mut ConnectionCommon, mut bytes: &[u8]) {
    while !bytes.is_empty() {
        conn.read_tls(&mut bytes).unwrap();
    }
}

#[test]
fn zero_x25519_point_from_client_fails_with_alert() {
    // A zeroed ClientKeyExchange point is low order: the server's X25519
    // output would be all zero, which RFC 8422 §5.11 says TLS must abort
    // on. The server must refuse it with a typed error and a fatal
    // decrypt_error alert, not derive keys from a zero premaster.
    let env = build_env();
    let cfg = server_config(&env, b"zero-point");
    let mut ccfg = ClientConfig::new(env.root_store.clone(), HOST, 100);
    ccfg.suites = vec![CipherSuite::EcdheRsaAes128GcmSha256];
    let mut client = ClientConn::new(ccfg, HmacDrbg::new(b"zero-point-c"));
    let mut server = ServerConn::new(cfg, HmacDrbg::new(b"zero-point-s"), 100);
    let hello = drain_tls(&mut client);
    feed_tls(&mut server, &hello);
    server.process_new_packets().unwrap();
    let server_flight = drain_tls(&mut server);
    feed_tls(&mut client, &server_flight);
    client.process_new_packets().unwrap();
    let mut client_flight = drain_tls(&mut client);
    // Handshake record, ClientKeyExchange, a 32-byte point.
    assert_eq!(client_flight[0], 22);
    assert_eq!(client_flight[5], 16);
    assert_eq!(client_flight[9], 32);
    client_flight[10..42].fill(0);
    feed_tls(&mut server, &client_flight);
    let err = server.process_new_packets().map(|_| ()).unwrap_err();
    assert_eq!(err, TlsError::Crypto(CryptoError::InvalidPublicValue));
    assert_eq!(
        drain_tls(&mut server),
        [21, 3, 3, 0, 2, 2, 51],
        "fatal decrypt_error alert"
    );
}

/// One suite per record protection: GCM, ChaCha20-Poly1305, CBC-HMAC.
const TAMPER_SUITES: [CipherSuite; 3] = [
    CipherSuite::EcdheRsaAes128GcmSha256,
    CipherSuite::DheRsaChaCha20Poly1305,
    CipherSuite::RsaAes128CbcSha256,
];

#[test]
fn tampered_client_finished_gets_bad_record_mac() {
    // The client's Finished is the first record under the new keys. A
    // flipped byte fails its authentication, and RFC 5246 §6.2.3 sends
    // bad_record_mac for that, in the clear: the server has not yet
    // switched its write keys.
    let env = build_env();
    let cfg = server_config(&env, b"tamper-cf");
    for suite in TAMPER_SUITES {
        let mut ccfg = ClientConfig::new(env.root_store.clone(), HOST, 100);
        ccfg.suites = vec![suite];
        let mut client = ClientConn::new(ccfg, HmacDrbg::new(b"tamper-cf-c"));
        let mut server = ServerConn::new(cfg.clone(), HmacDrbg::new(b"tamper-cf-s"), 100);
        feed_tls(&mut server, &drain_tls(&mut client));
        server.process_new_packets().unwrap();
        feed_tls(&mut client, &drain_tls(&mut server));
        client.process_new_packets().unwrap();
        let mut client_flight = drain_tls(&mut client);
        *client_flight.last_mut().unwrap() ^= 1;
        feed_tls(&mut server, &client_flight);
        let err = server.process_new_packets().map(|_| ()).unwrap_err();
        assert_eq!(err, TlsError::Crypto(CryptoError::BadMac), "{suite:?}");
        assert_eq!(
            drain_tls(&mut server),
            [21, 3, 3, 0, 2, 2, 20],
            "{suite:?}: fatal bad_record_mac alert"
        );
    }
}

#[test]
fn tampered_server_finished_gets_bad_record_mac() {
    // The mirror case: the client already sent its Finished, so its
    // bad_record_mac alert travels encrypted, and the established server
    // must read it as that alert.
    let env = build_env();
    let cfg = server_config(&env, b"tamper-sf");
    for suite in TAMPER_SUITES {
        let mut ccfg = ClientConfig::new(env.root_store.clone(), HOST, 100);
        ccfg.suites = vec![suite];
        let mut client = ClientConn::new(ccfg, HmacDrbg::new(b"tamper-sf-c"));
        let mut server = ServerConn::new(cfg.clone(), HmacDrbg::new(b"tamper-sf-s"), 100);
        feed_tls(&mut server, &drain_tls(&mut client));
        server.process_new_packets().unwrap();
        feed_tls(&mut client, &drain_tls(&mut server));
        client.process_new_packets().unwrap();
        feed_tls(&mut server, &drain_tls(&mut client));
        server.process_new_packets().unwrap();
        assert!(server.is_established(), "{suite:?}");
        let mut server_flight = drain_tls(&mut server);
        *server_flight.last_mut().unwrap() ^= 1;
        feed_tls(&mut client, &server_flight);
        let err = client.process_new_packets().map(|_| ()).unwrap_err();
        assert_eq!(err, TlsError::Crypto(CryptoError::BadMac), "{suite:?}");
        feed_tls(&mut server, &drain_tls(&mut client));
        let err = server.process_new_packets().map(|_| ()).unwrap_err();
        assert_eq!(
            err,
            TlsError::PeerAlert(AlertDescription::BadRecordMac),
            "{suite:?}"
        );
    }
}

#[test]
fn server_without_tickets_issues_none() {
    let env = build_env();
    let mut cfg = server_config(&env, b"notickets");
    cfg.tickets = None;
    let ccfg = ClientConfig::new(env.root_store.clone(), HOST, 100);
    let (client, _server) = connect(&env, &cfg, ccfg, 100, b"notickets1").unwrap();
    assert!(client.summary().unwrap().new_ticket.is_none());
}

#[test]
fn server_without_session_ids_sends_empty_id() {
    let env = build_env();
    let mut cfg = server_config(&env, b"noids");
    cfg.issue_session_ids = false;
    cfg.session_cache = None;
    let ccfg = ClientConfig::new(env.root_store.clone(), HOST, 100);
    let (client, _server) = connect(&env, &cfg, ccfg, 100, b"noids1").unwrap();
    assert!(client.summary().unwrap().server_session_id.is_empty());
}

#[test]
fn client_not_offering_tickets_gets_none() {
    let env = build_env();
    let cfg = server_config(&env, b"noclientticket");
    let mut ccfg = ClientConfig::new(env.root_store.clone(), HOST, 100);
    ccfg.offer_ticket_support = false;
    let (client, _server) = connect(&env, &cfg, ccfg, 100, b"noct1").unwrap();
    assert!(client.summary().unwrap().new_ticket.is_none());
}

#[test]
fn shared_cache_resumes_across_servers() {
    // Two distinct server configs (distinct identities irrelevant) sharing
    // one session cache — the SSL-terminator scenario of §5.1.
    let env = build_env();
    let shared = SharedSessionCache::new(3600, 1000);
    let mut cfg_a = server_config(&env, b"shareda");
    cfg_a.session_cache = Some(shared.clone());
    let mut cfg_b = server_config(&env, b"sharedb");
    cfg_b.session_cache = Some(shared);

    let ccfg = ClientConfig::new(env.root_store.clone(), HOST, 100);
    let (client, _server) = connect(&env, &cfg_a, ccfg, 100, b"sh1").unwrap();
    let s = client.summary().unwrap();

    let mut ccfg2 = ClientConfig::new(env.root_store.clone(), HOST, 200);
    ccfg2.resumption = ResumptionOffer {
        session: Some((s.server_session_id.clone(), s.session.clone())),
        ticket: None,
    };
    // Resume against server B.
    let (client2, server2) = connect(&env, &cfg_b, ccfg2, 200, b"sh2").unwrap();
    assert_eq!(
        client2.summary().unwrap().resumed,
        Some(ResumeKind::SessionId)
    );
    assert!(server2.is_established());
}

#[test]
fn shared_stek_resumes_across_servers() {
    let env = build_env();
    let stek = SharedStekManager::new(StekManager::new(
        RotationPolicy::Static,
        TicketFormat::Rfc5077,
        HmacDrbg::new(b"shared-stek"),
        0,
    ));
    let mut cfg_a = server_config(&env, b"stek-a");
    cfg_a.tickets = Some(stek.clone());
    let mut cfg_b = server_config(&env, b"stek-b");
    cfg_b.tickets = Some(stek);

    let ccfg = ClientConfig::new(env.root_store.clone(), HOST, 100);
    let (client, _server) = connect(&env, &cfg_a, ccfg, 100, b"stekc1").unwrap();
    let s = client.summary().unwrap();
    let nst = s.new_ticket.clone().unwrap();

    let mut ccfg2 = ClientConfig::new(env.root_store.clone(), HOST, 150);
    ccfg2.resumption = ResumptionOffer {
        session: None,
        ticket: Some((nst.ticket, s.session.clone())),
    };
    let (client2, _server2) = connect(&env, &cfg_b, ccfg2, 150, b"stekc2").unwrap();
    assert_eq!(client2.summary().unwrap().resumed, Some(ResumeKind::Ticket));
}

#[test]
fn dhe_value_reuse_visible_across_connections() {
    let env = build_env();
    let mut cfg = server_config(&env, b"dhe-reuse");
    cfg.ephemeral = EphemeralCache::new(
        EphemeralPolicy::ReuseForever,
        DhGroup::Sim256,
        HmacDrbg::new(b"dhe-reuse-eph"),
    );
    let mut publics = Vec::new();
    for i in 0..3 {
        let mut ccfg = ClientConfig::new(env.root_store.clone(), HOST, 100 + i);
        ccfg.suites = CipherSuite::dhe_only().to_vec();
        let (client, _server) =
            connect(&env, &cfg, ccfg, 100 + i, format!("dr{i}").as_bytes()).unwrap();
        publics.push(client.summary().unwrap().server_kex_public.unwrap());
    }
    assert_eq!(publics[0], publics[1]);
    assert_eq!(publics[1], publics[2]);

    // With a fresh-per-handshake policy the values differ.
    cfg.ephemeral = EphemeralCache::new(
        EphemeralPolicy::FreshPerHandshake,
        DhGroup::Sim256,
        HmacDrbg::new(b"dhe-fresh-eph"),
    );
    let mut publics = Vec::new();
    for i in 0..2 {
        let mut ccfg = ClientConfig::new(env.root_store.clone(), HOST, 200 + i);
        ccfg.suites = CipherSuite::dhe_only().to_vec();
        let (client, _server) =
            connect(&env, &cfg, ccfg, 200 + i, format!("df{i}").as_bytes()).unwrap();
        publics.push(client.summary().unwrap().server_kex_public.unwrap());
    }
    assert_ne!(publics[0], publics[1]);
}

#[test]
fn stek_identifier_visible_in_issued_tickets() {
    let env = build_env();
    let cfg = server_config(&env, b"stekid");
    let stek_name = cfg.tickets.as_ref().unwrap().active_key_name_at(100);
    let ccfg = ClientConfig::new(env.root_store.clone(), HOST, 100);
    let (client, _server) = connect(&env, &cfg, ccfg, 100, b"stekid1").unwrap();
    let nst = client.summary().unwrap().new_ticket.unwrap();
    let id = ts_tls::ticket::extract_stek_id(&nst.ticket, TicketFormat::Rfc5077).unwrap();
    assert_eq!(id, stek_name, "ticket leads with the STEK identifier");
}
