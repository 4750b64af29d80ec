//! Scan observation records.
//!
//! These are the crate's input language: everything the analysis computes
//! is derived from these types. `ts-scanner` produces them from live
//! (simulated) handshakes, and the analysis consumes them in memory.

/// Which ephemeral key exchange a sighting belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KexKind {
    /// Finite-field DHE.
    Dhe,
    /// Elliptic-curve (X25519) ECDHE.
    Ecdhe,
}

/// One day's sighting of a (domain, STEK identifier) pair.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TicketSighting {
    /// Domain probed.
    pub domain: String,
    /// Day index of the scan.
    pub day: u64,
    /// STEK identifier (key_name / SChannel GUID) from the ticket, hex.
    pub stek_id: String,
    /// Lifetime hint advertised with the ticket.
    pub lifetime_hint: u32,
}

/// One day's sighting of a (domain, server key-exchange value) pair.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KexSighting {
    /// Domain probed.
    pub domain: String,
    /// Day index.
    pub day: u64,
    /// Key exchange flavour.
    pub kex: KexKind,
    /// Fingerprint (hex) of the server's public key-exchange value.
    pub value_fp: String,
}

/// Result of a resumption-lifetime probe (Figures 1 and 2).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResumptionProbe {
    /// Domain probed.
    pub domain: String,
    /// Session-ID or ticket probe?
    pub mechanism: ResumptionMechanism,
    /// The server indicated support (issued an ID / a ticket).
    pub supported: bool,
    /// Resumption succeeded one second after establishment.
    pub resumed_at_1s: bool,
    /// Longest delay (seconds) at which resumption still succeeded
    /// (None = never resumed).
    pub max_delay: Option<u64>,
    /// Ticket lifetime hint, when applicable (None for session IDs or no
    /// ticket).
    pub lifetime_hint: Option<u32>,
}

/// Which resumption mechanism a probe exercised.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ResumptionMechanism {
    /// RFC 5246 session-ID resumption.
    SessionId,
    /// RFC 5077 session tickets.
    Ticket,
}

/// Hex-encode helper shared by observation producers.
pub fn fingerprint_hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprints_hex() {
        assert_eq!(fingerprint_hex(&[0x00, 0xff, 0x10]), "00ff10");
        assert_eq!(fingerprint_hex(&[]), "");
    }
}
