//! Cipher suites.
//!
//! The study cares about the *key exchange* dimension (RSA vs DHE vs
//! ECDHE — §2.1) and is indifferent to record protection, so we ship the
//! suites modern 2016-era servers actually negotiated, with their real
//! IANA code points: AES-GCM first (what the Alexa top sites actually
//! picked), then ChaCha20-Poly1305, then CBC as the compatibility floor.

/// Key-exchange method of a suite.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KeyExchange {
    /// RSA key transport — **not** forward secret.
    Rsa,
    /// Ephemeral finite-field Diffie-Hellman, RSA-signed.
    Dhe,
    /// Ephemeral elliptic-curve (X25519) Diffie-Hellman, RSA-signed.
    Ecdhe,
}

/// Record-protection algorithm of a suite.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RecordProtection {
    /// AES-128-CBC with HMAC-SHA256 (encrypt-then-MAC).
    CbcHmacSha256,
    /// AES-128-GCM AEAD.
    Aes128Gcm,
    /// ChaCha20-Poly1305 AEAD.
    ChaCha20Poly1305,
}

/// A TLS 1.2 cipher suite.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CipherSuite {
    /// TLS_RSA_WITH_AES_128_CBC_SHA256 (0x003C)
    RsaAes128CbcSha256,
    /// TLS_DHE_RSA_WITH_AES_128_CBC_SHA256 (0x0067)
    DheRsaAes128CbcSha256,
    /// TLS_ECDHE_RSA_WITH_AES_128_CBC_SHA256 (0xC027)
    EcdheRsaAes128CbcSha256,
    /// TLS_RSA_WITH_AES_128_GCM_SHA256 (0x009C)
    RsaAes128GcmSha256,
    /// TLS_DHE_RSA_WITH_AES_128_GCM_SHA256 (0x009E)
    DheRsaAes128GcmSha256,
    /// TLS_ECDHE_RSA_WITH_AES_128_GCM_SHA256 (0xC02F)
    EcdheRsaAes128GcmSha256,
    /// TLS_DHE_RSA_WITH_CHACHA20_POLY1305_SHA256 (0xCCAA)
    DheRsaChaCha20Poly1305,
    /// TLS_ECDHE_RSA_WITH_CHACHA20_POLY1305_SHA256 (0xCCA8)
    EcdheRsaChaCha20Poly1305,
}

impl CipherSuite {
    /// IANA code point.
    pub fn id(self) -> u16 {
        match self {
            CipherSuite::RsaAes128CbcSha256 => 0x003c,
            CipherSuite::DheRsaAes128CbcSha256 => 0x0067,
            CipherSuite::EcdheRsaAes128CbcSha256 => 0xc027,
            CipherSuite::RsaAes128GcmSha256 => 0x009c,
            CipherSuite::DheRsaAes128GcmSha256 => 0x009e,
            CipherSuite::EcdheRsaAes128GcmSha256 => 0xc02f,
            CipherSuite::DheRsaChaCha20Poly1305 => 0xccaa,
            CipherSuite::EcdheRsaChaCha20Poly1305 => 0xcca8,
        }
    }

    /// Decode from a code point.
    pub fn from_id(id: u16) -> Option<CipherSuite> {
        match id {
            0x003c => Some(CipherSuite::RsaAes128CbcSha256),
            0x0067 => Some(CipherSuite::DheRsaAes128CbcSha256),
            0xc027 => Some(CipherSuite::EcdheRsaAes128CbcSha256),
            0x009c => Some(CipherSuite::RsaAes128GcmSha256),
            0x009e => Some(CipherSuite::DheRsaAes128GcmSha256),
            0xc02f => Some(CipherSuite::EcdheRsaAes128GcmSha256),
            0xccaa => Some(CipherSuite::DheRsaChaCha20Poly1305),
            0xcca8 => Some(CipherSuite::EcdheRsaChaCha20Poly1305),
            _ => None,
        }
    }

    /// Key-exchange method.
    pub fn key_exchange(self) -> KeyExchange {
        match self {
            CipherSuite::RsaAes128CbcSha256 | CipherSuite::RsaAes128GcmSha256 => KeyExchange::Rsa,
            CipherSuite::DheRsaAes128CbcSha256
            | CipherSuite::DheRsaAes128GcmSha256
            | CipherSuite::DheRsaChaCha20Poly1305 => KeyExchange::Dhe,
            CipherSuite::EcdheRsaAes128CbcSha256
            | CipherSuite::EcdheRsaAes128GcmSha256
            | CipherSuite::EcdheRsaChaCha20Poly1305 => KeyExchange::Ecdhe,
        }
    }

    /// Record protection algorithm.
    pub fn record_protection(self) -> RecordProtection {
        match self {
            CipherSuite::RsaAes128CbcSha256
            | CipherSuite::DheRsaAes128CbcSha256
            | CipherSuite::EcdheRsaAes128CbcSha256 => RecordProtection::CbcHmacSha256,
            CipherSuite::RsaAes128GcmSha256
            | CipherSuite::DheRsaAes128GcmSha256
            | CipherSuite::EcdheRsaAes128GcmSha256 => RecordProtection::Aes128Gcm,
            CipherSuite::DheRsaChaCha20Poly1305 | CipherSuite::EcdheRsaChaCha20Poly1305 => {
                RecordProtection::ChaCha20Poly1305
            }
        }
    }

    /// True for forward-secret key exchanges (as *commonly understood* —
    /// the entire point of the paper is the caveats).
    pub fn is_forward_secret(self) -> bool {
        self.key_exchange() != KeyExchange::Rsa
    }

    /// Every suite the stack knows, in a server-typical preference order:
    /// ECDHE first, then DHE, then RSA; within a key exchange, AES-GCM
    /// (the hardware-accelerated AEAD) ahead of ChaCha20-Poly1305, CBC as
    /// the compatibility floor.
    pub fn all() -> [CipherSuite; 8] {
        [
            CipherSuite::EcdheRsaAes128GcmSha256,
            CipherSuite::EcdheRsaChaCha20Poly1305,
            CipherSuite::EcdheRsaAes128CbcSha256,
            CipherSuite::DheRsaAes128GcmSha256,
            CipherSuite::DheRsaChaCha20Poly1305,
            CipherSuite::DheRsaAes128CbcSha256,
            CipherSuite::RsaAes128GcmSha256,
            CipherSuite::RsaAes128CbcSha256,
        ]
    }

    /// Suites whose key exchange is DHE (for cipher-restricted scans).
    pub fn dhe_only() -> [CipherSuite; 3] {
        [
            CipherSuite::DheRsaAes128GcmSha256,
            CipherSuite::DheRsaChaCha20Poly1305,
            CipherSuite::DheRsaAes128CbcSha256,
        ]
    }

    /// Suites whose key exchange is ECDHE.
    pub fn ecdhe_only() -> [CipherSuite; 3] {
        [
            CipherSuite::EcdheRsaAes128GcmSha256,
            CipherSuite::EcdheRsaChaCha20Poly1305,
            CipherSuite::EcdheRsaAes128CbcSha256,
        ]
    }
}

/// Key sizes the record layer derives, per protection algorithm.
#[derive(Debug, Clone, Copy)]
pub struct KeyMaterialSizes {
    /// MAC key bytes per direction (0 for AEAD).
    pub mac_key: usize,
    /// Encryption key bytes per direction.
    pub enc_key: usize,
    /// Fixed IV bytes per direction.
    pub fixed_iv: usize,
}

impl RecordProtection {
    /// Required key material sizes.
    pub fn sizes(self) -> KeyMaterialSizes {
        match self {
            RecordProtection::CbcHmacSha256 => KeyMaterialSizes {
                mac_key: 32,
                enc_key: 16,
                fixed_iv: 16,
            },
            RecordProtection::Aes128Gcm => KeyMaterialSizes {
                mac_key: 0,
                enc_key: 16,
                fixed_iv: 12,
            },
            RecordProtection::ChaCha20Poly1305 => KeyMaterialSizes {
                mac_key: 0,
                enc_key: 32,
                fixed_iv: 12,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn id_roundtrip_for_all() {
        for s in CipherSuite::all() {
            assert_eq!(CipherSuite::from_id(s.id()), Some(s));
        }
        assert_eq!(CipherSuite::from_id(0x0000), None);
        assert_eq!(CipherSuite::from_id(0x1301), None, "TLS 1.3 suites unknown");
    }

    #[test]
    fn forward_secrecy_classification() {
        assert!(!CipherSuite::RsaAes128CbcSha256.is_forward_secret());
        assert!(!CipherSuite::RsaAes128GcmSha256.is_forward_secret());
        assert!(CipherSuite::DheRsaAes128CbcSha256.is_forward_secret());
        assert!(CipherSuite::DheRsaAes128GcmSha256.is_forward_secret());
        assert!(CipherSuite::EcdheRsaAes128GcmSha256.is_forward_secret());
        assert!(CipherSuite::EcdheRsaChaCha20Poly1305.is_forward_secret());
    }

    #[test]
    fn gcm_preferred_within_each_key_exchange() {
        // The first suite of each key-exchange class in the preference
        // order must be the GCM one (hardware-accelerated record path).
        let all = CipherSuite::all();
        for kx in [KeyExchange::Ecdhe, KeyExchange::Dhe, KeyExchange::Rsa] {
            let first = all.iter().find(|s| s.key_exchange() == kx).unwrap();
            assert_eq!(
                first.record_protection(),
                RecordProtection::Aes128Gcm,
                "{kx:?}"
            );
        }
    }

    #[test]
    fn restricted_offer_lists_are_consistent() {
        assert!(CipherSuite::dhe_only()
            .iter()
            .all(|s| s.key_exchange() == KeyExchange::Dhe));
        assert!(CipherSuite::ecdhe_only()
            .iter()
            .all(|s| s.key_exchange() == KeyExchange::Ecdhe));
    }

    #[test]
    fn key_sizes_match_algorithms() {
        let cbc = RecordProtection::CbcHmacSha256.sizes();
        assert_eq!((cbc.mac_key, cbc.enc_key, cbc.fixed_iv), (32, 16, 16));
        let gcm = RecordProtection::Aes128Gcm.sizes();
        assert_eq!((gcm.mac_key, gcm.enc_key, gcm.fixed_iv), (0, 16, 12));
        let aead = RecordProtection::ChaCha20Poly1305.sizes();
        assert_eq!((aead.mac_key, aead.enc_key, aead.fixed_iv), (0, 32, 12));
    }
}
