//! TLS alert protocol (RFC 5246 §7.2) — the subset the stack emits.

/// Alert severity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AlertLevel {
    /// Connection may continue.
    Warning,
    /// Connection must terminate.
    Fatal,
}

impl AlertLevel {
    /// Encode to the wire byte.
    pub fn to_byte(self) -> u8 {
        match self {
            AlertLevel::Warning => 1,
            AlertLevel::Fatal => 2,
        }
    }

    /// Decode from the wire byte.
    pub fn from_byte(b: u8) -> Option<Self> {
        match b {
            1 => Some(AlertLevel::Warning),
            2 => Some(AlertLevel::Fatal),
            _ => None,
        }
    }
}

/// Alert descriptions the stack uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AlertDescription {
    /// close_notify(0)
    CloseNotify,
    /// unexpected_message(10)
    UnexpectedMessage,
    /// bad_record_mac(20)
    BadRecordMac,
    /// handshake_failure(40)
    HandshakeFailure,
    /// bad_certificate(42)
    BadCertificate,
    /// certificate_expired(45)
    CertificateExpired,
    /// unknown_ca(48)
    UnknownCa,
    /// decode_error(50)
    DecodeError,
    /// decrypt_error(51)
    DecryptError,
    /// internal_error(80)
    InternalError,
    /// Anything else.
    Other(u8),
}

impl AlertDescription {
    /// Encode to the wire byte.
    pub fn to_byte(self) -> u8 {
        match self {
            AlertDescription::CloseNotify => 0,
            AlertDescription::UnexpectedMessage => 10,
            AlertDescription::BadRecordMac => 20,
            AlertDescription::HandshakeFailure => 40,
            AlertDescription::BadCertificate => 42,
            AlertDescription::CertificateExpired => 45,
            AlertDescription::UnknownCa => 48,
            AlertDescription::DecodeError => 50,
            AlertDescription::DecryptError => 51,
            AlertDescription::InternalError => 80,
            AlertDescription::Other(b) => b,
        }
    }

    /// Decode from the wire byte.
    pub fn from_byte(b: u8) -> Self {
        match b {
            0 => AlertDescription::CloseNotify,
            10 => AlertDescription::UnexpectedMessage,
            20 => AlertDescription::BadRecordMac,
            40 => AlertDescription::HandshakeFailure,
            42 => AlertDescription::BadCertificate,
            45 => AlertDescription::CertificateExpired,
            48 => AlertDescription::UnknownCa,
            50 => AlertDescription::DecodeError,
            51 => AlertDescription::DecryptError,
            80 => AlertDescription::InternalError,
            other => AlertDescription::Other(other),
        }
    }
}

/// A complete alert message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Alert {
    /// Severity.
    pub level: AlertLevel,
    /// Description.
    pub description: AlertDescription,
}

impl Alert {
    /// A fatal alert.
    pub fn fatal(description: AlertDescription) -> Self {
        Alert {
            level: AlertLevel::Fatal,
            description,
        }
    }

    /// Encode to two bytes.
    pub fn encode(&self) -> [u8; 2] {
        [self.level.to_byte(), self.description.to_byte()]
    }

    /// Decode from payload bytes.
    pub fn decode(payload: &[u8]) -> Option<Alert> {
        if payload.len() != 2 {
            return None;
        }
        Some(Alert {
            level: AlertLevel::from_byte(payload[0])?,
            description: AlertDescription::from_byte(payload[1]),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_known_alerts() {
        for desc in [
            AlertDescription::CloseNotify,
            AlertDescription::BadRecordMac,
            AlertDescription::HandshakeFailure,
            AlertDescription::UnknownCa,
            AlertDescription::Other(99),
        ] {
            let a = Alert::fatal(desc);
            let enc = a.encode();
            assert_eq!(Alert::decode(&enc), Some(a));
        }
    }

    #[test]
    fn decode_rejects_bad_input() {
        assert_eq!(Alert::decode(&[]), None);
        assert_eq!(Alert::decode(&[1]), None);
        assert_eq!(Alert::decode(&[3, 0]), None, "invalid level");
        assert_eq!(Alert::decode(&[1, 2, 3]), None, "too long");
    }

    #[test]
    fn unknown_description_preserved() {
        let a = Alert::decode(&[2, 200]).unwrap();
        assert_eq!(a.description, AlertDescription::Other(200));
        assert_eq!(a.description.to_byte(), 200);
    }
}
