//! TLS 1.3 PSK resumption model (paper §2.4).
//!
//! Draft-15 TLS 1.3 (current at the time of the study) nominally obsoletes
//! session IDs and tickets but preserves both mechanisms as pre-shared
//! keys: the server issues a PSK identity in NewSessionTicket; the identity
//! is either a database lookup key (≈ session ID) or self-contained
//! encrypted state (≈ session ticket). A *resumption secret* — explicitly
//! derived, unlike TLS 1.2's reused master secret — authenticates either a
//! direct `psk_ke` resumption or a `psk_dhe_ke` resumption that runs a
//! fresh (EC)DHE exchange, and can also protect 0-RTT early data.
//!
//! This module models exactly the parts the paper's §8.1 discussion needs:
//! the derivation chain, both PSK modes, 0-RTT, the 7-day lifetime cap,
//! and — crucially — the vulnerability-window consequences: a stolen PSK
//! (or the STEK protecting self-contained PSK identities) decrypts
//! `psk_ke` resumptions and 0-RTT data, while `psk_dhe_ke` application
//! data survives.

use crate::error::TlsError;
use ts_crypto::drbg::HmacDrbg;
use ts_crypto::prf::{hkdf_expand, hkdf_extract};
use ts_crypto::x25519::X25519KeyPair;

/// Draft-15's maximum PSK lifetime (7 days, in seconds).
pub const MAX_PSK_LIFETIME: u64 = 7 * 86_400;

/// How a PSK identity resolves to resumption state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PskIdentityKind {
    /// Database lookup key — server keeps the secret (≈ session ID).
    DatabaseLookup,
    /// Encrypted, self-contained state under a STEK (≈ session ticket).
    SelfContained,
}

/// Which key-establishment mode a resumption uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PskMode {
    /// Direct resumption from the PSK alone.
    PskKe,
    /// PSK authenticates; a fresh (EC)DHE supplies the key material.
    PskDheKe,
}

/// The resumption secret TLS 1.3 derives after a handshake.
// ctlint: secret
#[derive(Clone, PartialEq, Eq)]
pub struct ResumptionSecret {
    /// 32-byte secret.
    pub secret: [u8; 32],
    /// When it was issued (virtual time).
    pub issued_at: u64,
    /// Advertised lifetime (capped at [`MAX_PSK_LIFETIME`]).
    pub lifetime: u64,
    /// How the identity resolves.
    pub identity_kind: PskIdentityKind,
}

impl std::fmt::Debug for ResumptionSecret {
    /// Redacting: metadata is printable, the PSK itself is not.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ResumptionSecret")
            .field("secret", &"<redacted>")
            .field("issued_at", &self.issued_at)
            .field("lifetime", &self.lifetime)
            .field("identity_kind", &self.identity_kind)
            .finish()
    }
}

impl ts_crypto::wipe::Wipe for ResumptionSecret {
    fn wipe(&mut self) {
        ts_crypto::wipe::wipe_bytes(&mut self.secret);
    }
}

impl Drop for ResumptionSecret {
    /// A PSK outlives its connection by up to seven days; scrub it when
    /// the holder lets go.
    fn drop(&mut self) {
        use ts_crypto::wipe::Wipe;
        self.wipe();
    }
}

/// Derive the resumption secret from a (TLS 1.3-style) master secret.
/// `HKDF-Expand(master, "resumption master secret" || transcript, 32)`.
pub fn derive_resumption_secret(
    master: &[u8],
    transcript_hash: &[u8; 32],
    issued_at: u64,
    lifetime: u64,
    identity_kind: PskIdentityKind,
) -> ResumptionSecret {
    let prk = hkdf_extract(b"tls13 resumption", master);
    let mut info = Vec::with_capacity(24 + 32);
    info.extend_from_slice(b"resumption master secret");
    info.extend_from_slice(transcript_hash);
    let bytes = hkdf_expand(&prk, &info, 32);
    ResumptionSecret {
        secret: bytes.try_into().expect("32 bytes"),
        issued_at,
        lifetime: lifetime.min(MAX_PSK_LIFETIME),
        identity_kind,
    }
}

/// Outcome of a modelled TLS 1.3 resumption.
// ctlint: secret
#[derive(Clone)]
pub struct Tls13Resumption {
    /// Mode used.
    pub mode: PskMode,
    /// Traffic secret protecting the resumed connection's data.
    pub traffic_secret: [u8; 32],
    /// Secret protecting 0-RTT early data, if any was sent.
    pub early_data_secret: Option<[u8; 32]>,
    /// The fresh DHE output (psk_dhe_ke only) — what forward-protects it.
    pub dhe_output: Option<[u8; 32]>,
}

impl std::fmt::Debug for Tls13Resumption {
    /// Redacting: only the mode and which secrets exist are printable.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tls13Resumption")
            .field("mode", &self.mode)
            .field("traffic_secret", &"<redacted>")
            .field(
                "early_data_secret",
                &self.early_data_secret.as_ref().map(|_| "<redacted>"),
            )
            .field(
                "dhe_output",
                &self.dhe_output.as_ref().map(|_| "<redacted>"),
            )
            .finish()
    }
}

impl ts_crypto::wipe::Wipe for Tls13Resumption {
    fn wipe(&mut self) {
        ts_crypto::wipe::wipe_bytes(&mut self.traffic_secret);
        if let Some(s) = self.early_data_secret.as_mut() {
            ts_crypto::wipe::wipe_bytes(s);
        }
        if let Some(s) = self.dhe_output.as_mut() {
            ts_crypto::wipe::wipe_bytes(s);
        }
    }
}

impl Drop for Tls13Resumption {
    fn drop(&mut self) {
        use ts_crypto::wipe::Wipe;
        self.wipe();
    }
}

/// Run a modelled resumption at `now`.
///
/// `early_data` controls whether the client streams 0-RTT data (encrypted
/// under a secret derived from the PSK alone, before any DHE completes).
pub fn resume(
    psk: &ResumptionSecret,
    mode: PskMode,
    early_data: bool,
    now: u64,
    rng: &mut HmacDrbg,
) -> Result<Tls13Resumption, TlsError> {
    if now.saturating_sub(psk.issued_at) > psk.lifetime {
        return Err(TlsError::Decode("PSK expired"));
    }
    let early_data_secret = if early_data {
        Some(derive_labeled(&psk.secret, b"early data", None))
    } else {
        None
    };
    match mode {
        PskMode::PskKe => Ok(Tls13Resumption {
            mode,
            traffic_secret: derive_labeled(&psk.secret, b"psk_ke traffic", None),
            early_data_secret,
            dhe_output: None,
        }),
        PskMode::PskDheKe => {
            let client = X25519KeyPair::generate(rng);
            let server = X25519KeyPair::generate(rng);
            let shared = client.shared_secret(&server.public)?;
            Ok(Tls13Resumption {
                mode,
                traffic_secret: derive_labeled(&psk.secret, b"psk_dhe_ke traffic", Some(&shared)),
                early_data_secret,
                dhe_output: Some(shared),
            })
        }
    }
}

/// Attacker model: given a stolen PSK, which secrets of a recorded
/// resumption can be recomputed? (The attacker saw the wire, so in
/// `psk_dhe_ke` it does *not* know the DHE output.)
pub fn attacker_recoverable(
    stolen_psk: &ResumptionSecret,
    resumption: &Tls13Resumption,
) -> RecoveredSecrets {
    let early = resumption.early_data_secret.as_ref().map(|real| {
        let candidate = derive_labeled(&stolen_psk.secret, b"early data", None);
        ts_crypto::ct::ct_eq_array(&candidate, real)
    });
    let traffic = match resumption.mode {
        PskMode::PskKe => {
            let candidate = derive_labeled(&stolen_psk.secret, b"psk_ke traffic", None);
            ts_crypto::ct::ct_eq_array(&candidate, &resumption.traffic_secret)
        }
        // Without the DHE output the attacker cannot derive the secret.
        PskMode::PskDheKe => false,
    };
    RecoveredSecrets {
        early_data_decryptable: early.unwrap_or(false),
        traffic_decryptable: traffic,
    }
}

/// What a PSK thief can decrypt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveredSecrets {
    /// 0-RTT early data falls to the PSK alone.
    pub early_data_decryptable: bool,
    /// Post-handshake traffic falls only in `psk_ke` mode.
    pub traffic_decryptable: bool,
}

fn derive_labeled(secret: &[u8; 32], label: &[u8], extra: Option<&[u8]>) -> [u8; 32] {
    let prk = match extra {
        Some(ikm) => hkdf_extract(secret, ikm),
        None => hkdf_extract(b"", secret),
    };
    hkdf_expand(&prk, label, 32).try_into().expect("32 bytes")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn psk(kind: PskIdentityKind) -> ResumptionSecret {
        derive_resumption_secret(&[7u8; 48], &[1u8; 32], 1000, MAX_PSK_LIFETIME, kind)
    }

    #[test]
    fn derivation_is_deterministic_and_input_sensitive() {
        let a =
            derive_resumption_secret(&[7; 48], &[1; 32], 0, 100, PskIdentityKind::SelfContained);
        let b =
            derive_resumption_secret(&[7; 48], &[1; 32], 0, 100, PskIdentityKind::SelfContained);
        assert_eq!(a.secret, b.secret);
        let c =
            derive_resumption_secret(&[8; 48], &[1; 32], 0, 100, PskIdentityKind::SelfContained);
        assert_ne!(a.secret, c.secret);
        let d =
            derive_resumption_secret(&[7; 48], &[2; 32], 0, 100, PskIdentityKind::SelfContained);
        assert_ne!(a.secret, d.secret);
    }

    #[test]
    fn lifetime_capped_at_seven_days() {
        let p = derive_resumption_secret(
            &[1; 48],
            &[0; 32],
            0,
            90 * 86_400, // fantabob-style 90-day wish
            PskIdentityKind::SelfContained,
        );
        assert_eq!(p.lifetime, MAX_PSK_LIFETIME);
    }

    #[test]
    fn expired_psk_rejected() {
        let p = psk(PskIdentityKind::DatabaseLookup);
        let mut rng = HmacDrbg::new(b"x");
        assert!(resume(
            &p,
            PskMode::PskKe,
            false,
            p.issued_at + p.lifetime,
            &mut rng
        )
        .is_ok());
        assert!(resume(
            &p,
            PskMode::PskKe,
            false,
            p.issued_at + p.lifetime + 1,
            &mut rng
        )
        .is_err());
    }

    #[test]
    fn psk_ke_traffic_falls_to_stolen_psk() {
        let p = psk(PskIdentityKind::SelfContained);
        let mut rng = HmacDrbg::new(b"r1");
        let r = resume(&p, PskMode::PskKe, true, 2000, &mut rng).unwrap();
        let recovered = attacker_recoverable(&p, &r);
        assert!(recovered.traffic_decryptable, "psk_ke traffic decryptable");
        assert!(recovered.early_data_decryptable, "0-RTT decryptable");
    }

    #[test]
    fn psk_dhe_ke_traffic_survives_but_early_data_falls() {
        let p = psk(PskIdentityKind::SelfContained);
        let mut rng = HmacDrbg::new(b"r2");
        let r = resume(&p, PskMode::PskDheKe, true, 2000, &mut rng).unwrap();
        let recovered = attacker_recoverable(&p, &r);
        assert!(!recovered.traffic_decryptable, "fresh DHE protects traffic");
        assert!(recovered.early_data_decryptable, "0-RTT still falls");
        assert!(r.dhe_output.is_some());
    }

    #[test]
    fn wrong_psk_recovers_nothing() {
        let p = psk(PskIdentityKind::SelfContained);
        let other =
            derive_resumption_secret(&[9; 48], &[9; 32], 0, 100, PskIdentityKind::SelfContained);
        let mut rng = HmacDrbg::new(b"r3");
        let r = resume(&p, PskMode::PskKe, true, 2000, &mut rng).unwrap();
        let recovered = attacker_recoverable(&other, &r);
        assert!(!recovered.traffic_decryptable);
        assert!(!recovered.early_data_decryptable);
    }

    #[test]
    fn no_early_data_means_nothing_to_recover_early() {
        let p = psk(PskIdentityKind::DatabaseLookup);
        let mut rng = HmacDrbg::new(b"r4");
        let r = resume(&p, PskMode::PskDheKe, false, 2000, &mut rng).unwrap();
        assert!(r.early_data_secret.is_none());
        let recovered = attacker_recoverable(&p, &r);
        assert!(!recovered.early_data_decryptable);
        assert!(!recovered.traffic_decryptable);
    }
}
