//! Diffie-Hellman value theft (§6.3).
//!
//! When a server reuses its ephemeral value, stealing the secret exponent
//! `a` (or X25519 scalar `d_A`) lets the attacker recompute the premaster
//! for every captured connection that used the value — the client's public
//! value is in the plaintext ClientKeyExchange — and, unlike session-state
//! theft, this also decrypts *future* connections until the value rotates.

use crate::passive::CapturedConnection;
use crate::stek::RecoveredTraffic;
use ts_crypto::bignum::Ub;
use ts_tls::ephemeral::{CachedDhe, CachedEcdhe};
use ts_tls::keys::master_secret;
use ts_tls::suites::KeyExchange;

/// Why a DH-value attack failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DhAttackError {
    /// The capture is not a full PFS handshake (no client KEX on the wire).
    NoClientKex,
    /// The suite's exchange doesn't match the stolen value's type.
    KexMismatch,
    /// Premaster recomputation failed (wrong value / server rotated).
    WrongValue(String),
    /// Record decryption failed (the stolen value wasn't the one used).
    RecordFailure(String),
}

impl std::fmt::Display for DhAttackError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DhAttackError::NoClientKex => write!(f, "no ClientKeyExchange in capture"),
            DhAttackError::KexMismatch => write!(f, "stolen value type does not match suite"),
            DhAttackError::WrongValue(e) => write!(f, "premaster recomputation failed: {e}"),
            DhAttackError::RecordFailure(e) => write!(f, "record decryption failed: {e}"),
        }
    }
}

impl std::error::Error for DhAttackError {}

/// Decrypt a capture with a stolen finite-field DHE secret.
pub fn decrypt_with_stolen_dhe(
    capture: &CapturedConnection,
    stolen: &CachedDhe,
) -> Result<RecoveredTraffic, DhAttackError> {
    if capture.cipher_suite.key_exchange() != KeyExchange::Dhe {
        return Err(DhAttackError::KexMismatch);
    }
    let yc = capture
        .client_kex_public
        .as_ref()
        .ok_or(DhAttackError::NoClientKex)?;
    let yc = Ub::from_bytes_be(yc);
    let premaster = stolen
        .keypair
        .shared_secret(&yc)
        .map_err(|e| DhAttackError::WrongValue(e.to_string()))?;
    finish(capture, &premaster)
}

/// Decrypt a capture with a stolen X25519 secret.
pub fn decrypt_with_stolen_ecdhe(
    capture: &CapturedConnection,
    stolen: &CachedEcdhe,
) -> Result<RecoveredTraffic, DhAttackError> {
    if capture.cipher_suite.key_exchange() != KeyExchange::Ecdhe {
        return Err(DhAttackError::KexMismatch);
    }
    let point = capture
        .client_kex_public
        .as_ref()
        .ok_or(DhAttackError::NoClientKex)?;
    let point: [u8; 32] = point
        .as_slice()
        .try_into()
        .map_err(|_| DhAttackError::WrongValue("bad point length".into()))?;
    let premaster = stolen
        .keypair
        .shared_secret(&point)
        .map_err(|e| DhAttackError::WrongValue(e.to_string()))?;
    finish(capture, &premaster)
}

/// Sanity check: does the stolen value match what the server presented on
/// the wire? (An attacker can pre-filter captures this way.)
pub fn value_matches_capture(capture: &CapturedConnection, public_value: &[u8]) -> bool {
    capture
        .server_kex_public
        .as_ref()
        .map(|v| v == public_value)
        .unwrap_or(false)
}

fn finish(
    capture: &CapturedConnection,
    premaster: &[u8],
) -> Result<RecoveredTraffic, DhAttackError> {
    let master = master_secret(premaster, &capture.client_random, &capture.server_random);
    let (c2s, s2c) = capture
        .decrypt_with_master(&master)
        .map_err(|e| DhAttackError::RecordFailure(e.to_string()))?;
    Ok(RecoveredTraffic {
        client_to_server: c2s,
        server_to_client: s2c,
        master_secret: master,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::passive::testutil::world;
    use ts_crypto::drbg::HmacDrbg;
    use ts_tls::config::ClientConfig;
    use ts_tls::pump::{pump, pump_app_data};
    use ts_tls::suites::CipherSuite;
    use ts_tls::{ClientConn, ServerConn};

    fn run_with_suites(
        w: &crate::passive::testutil::World,
        suites: Vec<CipherSuite>,
        seed: &[u8],
        req: &[u8],
        resp: &[u8],
    ) -> ts_tls::pump::WireCapture {
        let mut ccfg = ClientConfig::new(w.store.clone(), "victim.sim", 100);
        ccfg.suites = suites;
        let mut client = ClientConn::new(ccfg, HmacDrbg::new(&[seed, b"-c"].concat()));
        let mut server = ServerConn::new(
            w.config.clone(),
            HmacDrbg::new(&[seed, b"-s"].concat()),
            100,
        );
        let result = pump(&mut client, &mut server).unwrap();
        let mut capture = result.capture;
        client.send_app_data(req).unwrap();
        pump_app_data(&mut client, &mut server, &mut capture).unwrap();
        server.send_app_data(resp).unwrap();
        pump_app_data(&mut client, &mut server, &mut capture).unwrap();
        capture
    }

    #[test]
    fn stolen_dhe_secret_decrypts() {
        let w = world(b"dhe-steal");
        let capture = run_with_suites(
            &w,
            CipherSuite::dhe_only().to_vec(),
            b"d1",
            b"dhe request",
            b"dhe response",
        );
        let parsed = CapturedConnection::parse(&capture).unwrap();
        let (stolen_dhe, _) = w.config.ephemeral.steal();
        let stolen = stolen_dhe.expect("server cached its DHE value");
        assert!(value_matches_capture(
            &parsed,
            &stolen.keypair.public_bytes()
        ));
        let recovered = decrypt_with_stolen_dhe(&parsed, &stolen).unwrap();
        assert_eq!(recovered.client_to_server, b"dhe request");
        assert_eq!(recovered.server_to_client, b"dhe response");
    }

    #[test]
    fn stolen_ecdhe_secret_decrypts() {
        let w = world(b"ecdhe-steal");
        let capture = run_with_suites(
            &w,
            CipherSuite::ecdhe_only().to_vec(),
            b"e1",
            b"ec request",
            b"ec response",
        );
        let parsed = CapturedConnection::parse(&capture).unwrap();
        let (_, stolen_ecdhe) = w.config.ephemeral.steal();
        let stolen = stolen_ecdhe.expect("server cached its ECDHE value");
        assert!(value_matches_capture(&parsed, &stolen.keypair.public));
        let recovered = decrypt_with_stolen_ecdhe(&parsed, &stolen).unwrap();
        assert_eq!(recovered.client_to_server, b"ec request");
        assert_eq!(recovered.server_to_client, b"ec response");
    }

    #[test]
    fn value_theft_decrypts_future_connections_too() {
        // Steal first, capture later: reuse means the same value protects
        // future traffic (§6.3).
        let w = world(b"dhe-future");
        // Prime the cache with one connection, then steal.
        let _ = run_with_suites(&w, CipherSuite::ecdhe_only().to_vec(), b"p", b"x", b"y");
        let (_, stolen) = w.config.ephemeral.steal();
        let stolen = stolen.unwrap();
        // A *later* connection.
        let capture = run_with_suites(
            &w,
            CipherSuite::ecdhe_only().to_vec(),
            b"later",
            b"future secret",
            b"future reply",
        );
        let parsed = CapturedConnection::parse(&capture).unwrap();
        let recovered = decrypt_with_stolen_ecdhe(&parsed, &stolen).unwrap();
        assert_eq!(recovered.client_to_server, b"future secret");
    }

    #[test]
    fn wrong_value_fails() {
        let w = world(b"dhe-wrong");
        let capture = run_with_suites(
            &w,
            CipherSuite::ecdhe_only().to_vec(),
            b"w1",
            b"req",
            b"resp",
        );
        let parsed = CapturedConnection::parse(&capture).unwrap();
        // A fresh unrelated keypair.
        let mut rng = HmacDrbg::new(b"unrelated-ec");
        let wrong = ts_tls::ephemeral::CachedEcdhe {
            keypair: std::sync::Arc::new(ts_crypto::x25519::X25519KeyPair::generate(&mut rng)),
            created_at: 0,
        };
        assert!(!value_matches_capture(&parsed, &wrong.keypair.public));
        assert!(matches!(
            decrypt_with_stolen_ecdhe(&parsed, &wrong),
            Err(DhAttackError::RecordFailure(_))
        ));
    }

    #[test]
    fn kex_mismatch_detected() {
        let w = world(b"dhe-mismatch");
        let capture = run_with_suites(
            &w,
            CipherSuite::ecdhe_only().to_vec(),
            b"m1",
            b"req",
            b"resp",
        );
        let parsed = CapturedConnection::parse(&capture).unwrap();
        let (stolen_dhe, _) = w.config.ephemeral.steal();
        // Force-generate a DHE value to have something to try.
        let _ = w.config.ephemeral.dhe_keypair(0);
        let (stolen_dhe2, _) = w.config.ephemeral.steal();
        let stolen = stolen_dhe.or(stolen_dhe2).unwrap();
        assert_eq!(
            decrypt_with_stolen_dhe(&parsed, &stolen).unwrap_err(),
            DhAttackError::KexMismatch
        );
    }
}
