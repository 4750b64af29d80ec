//! Modular exponentiations per full handshake, per key-exchange family.
//!
//! The paper's cost model rests on what a full handshake pays in
//! public-key work. DHE-RSA costs 8 modexps: the server's RSA-CRT
//! signature over ServerKeyExchange (2), the client's checks of the chain
//! and of that signature (1 each), and both sides' DH key generation and
//! shared secret (4). ECDHE-RSA pays the same 4 RSA modexps, with X25519
//! in place of DH. RSA key transport costs 4 too: the chain check (1), the
//! client's premaster encryption (1) and the server's CRT decryption (2).
//! Every one of them must run through a cached Montgomery context.
//!
//! Own integration-test binary on purpose: the modexp and Montgomery
//! cache-hit counters are process-global telemetry, so any handshake
//! another test ran at the same time would leak into them. Keep this
//! file to one `#[test]`.

use std::sync::Arc;
use ts_crypto::dh::DhGroup;
use ts_crypto::drbg::HmacDrbg;
use ts_crypto::rsa::RsaPrivateKey;
use ts_tls::config::{ClientConfig, ServerConfig, ServerIdentity};
use ts_tls::ephemeral::{EphemeralCache, EphemeralPolicy};
use ts_tls::pump::pump;
use ts_tls::suites::{CipherSuite, KeyExchange};
use ts_tls::{ClientConn, ServerConn};
use ts_x509::{Certificate, CertificateParams, DistinguishedName, RootStore, Validity};

const HOST: &str = "modexp.sim";

/// Full handshakes per suite.
const HANDSHAKES: u64 = 4;

fn issue(
    serial: u64,
    subject: &DistinguishedName,
    dns_names: Vec<String>,
    is_ca: bool,
    key: &RsaPrivateKey,
    issuer: &DistinguishedName,
    issuer_key: &RsaPrivateKey,
) -> Certificate {
    let params = CertificateParams {
        serial,
        subject: subject.clone(),
        validity: Validity {
            not_before: 0,
            not_after: u32::MAX as u64,
        },
        dns_names,
        is_ca,
    };
    Certificate::issue(&params, &key.public, issuer, issuer_key)
}

#[test]
fn full_handshake_modexps_per_key_exchange() {
    let mut rng = HmacDrbg::new(b"modexp-counts-world");
    let ca_key = RsaPrivateKey::generate(512, &mut rng).unwrap();
    let ca_name = DistinguishedName::cn("Modexp CA");
    let ca = issue(1, &ca_name, vec![], true, &ca_key, &ca_name, &ca_key);
    let leaf_key = RsaPrivateKey::generate(512, &mut rng).unwrap();
    let leaf = issue(
        2,
        &DistinguishedName::cn(HOST),
        vec![HOST.into()],
        false,
        &leaf_key,
        &ca_name,
        &ca_key,
    );
    let mut store = RootStore::new();
    store.add_root(ca);
    let store = Arc::new(store);
    // A fresh ephemeral value per handshake, so every handshake pays the
    // full key-exchange cost.
    let config = ServerConfig::new(
        Arc::new(ServerIdentity {
            chain: vec![leaf],
            key: leaf_key,
        }),
        EphemeralCache::new(
            EphemeralPolicy::FreshPerHandshake,
            DhGroup::Sim256,
            HmacDrbg::new(b"modexp-counts-eph"),
        ),
    );

    let counters = || {
        let snap = ts_telemetry::snapshot();
        (
            snap.counter("crypto.modexp.total"),
            snap.counter("crypto.mont.cache.hit"),
        )
    };
    for suite in CipherSuite::all() {
        let per_handshake = match suite.key_exchange() {
            KeyExchange::Dhe => 8,
            KeyExchange::Ecdhe | KeyExchange::Rsa => 4,
        };
        let (modexps_before, hits_before) = counters();
        for i in 0..HANDSHAKES {
            let mut ccfg = ClientConfig::new(store.clone(), HOST, 100);
            ccfg.suites = vec![suite];
            let seed = format!("{:04x}-{i}", suite.id());
            let mut client =
                ClientConn::new(ccfg, HmacDrbg::new(&[b"c-", seed.as_bytes()].concat()));
            let mut server = ServerConn::new(
                config.clone(),
                HmacDrbg::new(&[b"s-", seed.as_bytes()].concat()),
                100,
            );
            pump(&mut client, &mut server).unwrap();
            assert!(
                client.is_established() && server.is_established(),
                "{suite:?}"
            );
        }
        let (modexps_after, hits_after) = counters();
        assert_eq!(
            modexps_after - modexps_before,
            per_handshake * HANDSHAKES,
            "{suite:?}: modexps over {HANDSHAKES} full handshakes"
        );
        assert_eq!(
            hits_after - hits_before,
            per_handshake * HANDSHAKES,
            "{suite:?}: every modexp must reuse a cached Montgomery context"
        );
    }
}
