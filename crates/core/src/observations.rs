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

/// Evidence that two domains share server-side state (§5).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SharingEdge {
    /// First domain.
    pub a: String,
    /// Second domain.
    pub b: String,
    /// What kind of sharing was observed.
    pub kind: SharingKind,
}

/// The kinds of cross-domain secret sharing the study measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SharingKind {
    /// A session ID from `a` resumed on `b` (shared session cache).
    SessionCache,
    /// The same STEK identifier appeared on both (shared STEK).
    Stek,
    /// The same key-exchange value appeared on both (shared DH value).
    DhValue,
}

/// Per-domain summary of a 10-connection burst scan (Table 1).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BurstSummary {
    /// Domain probed.
    pub domain: String,
    /// Connections attempted.
    pub attempts: u32,
    /// Connections that completed a handshake with the restricted offer.
    pub successes: u32,
    /// Presented a browser-trusted chain.
    pub trusted: bool,
    /// Distinct server key-exchange values seen (None if no PFS suite ran).
    pub distinct_kex_values: Option<u32>,
    /// Distinct STEK identifiers seen (None if no tickets issued).
    pub distinct_stek_ids: Option<u32>,
    /// Number of connections that yielded a ticket.
    pub tickets_issued: u32,
}

impl BurstSummary {
    /// Did the domain ever repeat a key-exchange value in the burst?
    pub fn repeats_kex(&self) -> bool {
        matches!(self.distinct_kex_values, Some(d) if d < self.successes && self.successes > 1)
    }

    /// Did every connection present the same key-exchange value?
    pub fn all_same_kex(&self) -> bool {
        self.successes > 1 && self.distinct_kex_values == Some(1)
    }

    /// Did the domain repeat a STEK id within the burst?
    pub fn repeats_stek(&self) -> bool {
        matches!(self.distinct_stek_ids, Some(d) if d < self.tickets_issued && self.tickets_issued > 1)
    }

    /// Did every issued ticket carry the same STEK id?
    pub fn all_same_stek(&self) -> bool {
        self.tickets_issued > 1 && self.distinct_stek_ids == Some(1)
    }
}

/// Hex-encode helper shared by observation producers.
pub fn fingerprint_hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn burst_summary_classifications() {
        let base = BurstSummary {
            domain: "x.sim".into(),
            attempts: 10,
            successes: 10,
            trusted: true,
            distinct_kex_values: Some(10),
            distinct_stek_ids: Some(1),
            tickets_issued: 10,
        };
        assert!(!base.repeats_kex());
        assert!(!base.all_same_kex());
        assert!(base.repeats_stek());
        assert!(base.all_same_stek());

        let reuser = BurstSummary {
            distinct_kex_values: Some(3),
            ..base.clone()
        };
        assert!(reuser.repeats_kex());
        assert!(!reuser.all_same_kex());

        let always = BurstSummary {
            distinct_kex_values: Some(1),
            ..base.clone()
        };
        assert!(always.all_same_kex());

        let single = BurstSummary {
            successes: 1,
            tickets_issued: 1,
            distinct_kex_values: Some(1),
            distinct_stek_ids: Some(1),
            ..base.clone()
        };
        assert!(!single.repeats_kex(), "one success can't show reuse");
        assert!(!single.all_same_stek());
    }

    #[test]
    fn fingerprints_hex() {
        assert_eq!(fingerprint_hex(&[0x00, 0xff, 0x10]), "00ff10");
        assert_eq!(fingerprint_hex(&[]), "");
    }
}
