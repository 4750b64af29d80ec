//! Vulnerability windows and combined exposure (§6, Figure 8).
//!
//! A domain's *vulnerability window* is the span of time during which an
//! attacker who obtains the server's stored secrets can decrypt an
//! observed, nominally forward-secret connection. Each shortcut
//! contributes its own window; the domain's overall exposure is the
//! maximum (§6.4).

use crate::stream::CountCdf;
use std::collections::BTreeMap;

/// Which shortcut created a window.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ExposureKind {
    /// Session tickets: the STEK's observed lifetime.
    Ticket,
    /// Session caches: the measured resumption-acceptance lifetime.
    SessionCache,
    /// Ephemeral value reuse: the value's observed lifetime.
    DhReuse,
}

/// One domain's windows (seconds) per mechanism.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DomainExposure {
    /// STEK window, seconds.
    pub ticket_window: Option<u64>,
    /// Session-cache window, seconds.
    pub cache_window: Option<u64>,
    /// DH-reuse window, seconds.
    pub dh_window: Option<u64>,
}

impl DomainExposure {
    /// The combined (maximum) window, if any mechanism is present.
    pub fn max_window(&self) -> Option<u64> {
        [self.ticket_window, self.cache_window, self.dh_window]
            .into_iter()
            .flatten()
            .max()
    }

    /// Which mechanism dominates.
    pub fn dominant(&self) -> Option<ExposureKind> {
        let max = self.max_window()?;
        if self.ticket_window == Some(max) {
            Some(ExposureKind::Ticket)
        } else if self.cache_window == Some(max) {
            Some(ExposureKind::SessionCache)
        } else {
            Some(ExposureKind::DhReuse)
        }
    }
}

/// Accumulates per-domain windows from the separate analyses.
#[derive(Debug, Default)]
pub struct ExposureTable {
    // Ordered: `combined_cdf` and `dominant_counts` iterate this map and
    // feed Figure 8 directly, so visit order must be seed-independent.
    domains: BTreeMap<String, DomainExposure>,
}

impl ExposureTable {
    /// Empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record a window (keeps the max per mechanism).
    pub fn record(&mut self, domain: &str, kind: ExposureKind, window_secs: u64) {
        let e = self.domains.entry(domain.to_string()).or_default();
        let slot = match kind {
            ExposureKind::Ticket => &mut e.ticket_window,
            ExposureKind::SessionCache => &mut e.cache_window,
            ExposureKind::DhReuse => &mut e.dh_window,
        };
        *slot = Some(slot.map_or(window_secs, |cur| cur.max(window_secs)));
    }

    /// Look up one domain.
    pub fn get(&self, domain: &str) -> Option<&DomainExposure> {
        self.domains.get(domain)
    }

    /// Number of domains with any recorded window.
    pub fn len(&self) -> usize {
        self.domains.len()
    }

    /// True if empty.
    pub fn is_empty(&self) -> bool {
        self.domains.is_empty()
    }

    /// The combined-exposure CDF over all recorded domains (Figure 8).
    pub fn combined_cdf(&self) -> CountCdf {
        CountCdf::from_samples(self.domains.values().filter_map(|e| e.max_window()))
    }

    /// Fractions exceeding the paper's headline thresholds:
    /// (>24 h, >7 d, >30 d).
    pub fn headline_fractions(&self) -> (f64, f64, f64) {
        let cdf = self.combined_cdf();
        if cdf.is_empty() {
            return (0.0, 0.0, 0.0);
        }
        let day = 86_400;
        (
            cdf.fraction_ge(24 * 3_600 + 1),
            cdf.fraction_ge(7 * day + 1),
            cdf.fraction_ge(30 * day + 1),
        )
    }

    /// Count of domains whose dominant mechanism is `kind`.
    pub fn dominant_counts(&self) -> BTreeMap<ExposureKind, usize> {
        let mut out = BTreeMap::new();
        for e in self.domains.values() {
            if let Some(k) = e.dominant() {
                *out.entry(k).or_insert(0) += 1;
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const DAY: u64 = 86_400;

    #[test]
    fn max_window_combines_mechanisms() {
        let mut t = ExposureTable::new();
        t.record("a.sim", ExposureKind::Ticket, 10 * DAY);
        t.record("a.sim", ExposureKind::SessionCache, 300);
        t.record("a.sim", ExposureKind::DhReuse, 2 * DAY);
        let e = t.get("a.sim").unwrap();
        assert_eq!(e.max_window(), Some(10 * DAY));
        assert_eq!(e.dominant(), Some(ExposureKind::Ticket));
    }

    #[test]
    fn record_keeps_maximum() {
        let mut t = ExposureTable::new();
        t.record("a.sim", ExposureKind::Ticket, 100);
        t.record("a.sim", ExposureKind::Ticket, 50);
        assert_eq!(t.get("a.sim").unwrap().ticket_window, Some(100));
        t.record("a.sim", ExposureKind::Ticket, 200);
        assert_eq!(t.get("a.sim").unwrap().ticket_window, Some(200));
    }

    #[test]
    fn empty_domain_exposure() {
        let e = DomainExposure::default();
        assert_eq!(e.max_window(), None);
        assert_eq!(e.dominant(), None);
    }

    #[test]
    fn headline_fractions_shape() {
        let mut t = ExposureTable::new();
        // 10 domains: 4 short, 3 at 2 days, 2 at 10 days, 1 at 40 days.
        for i in 0..4 {
            t.record(&format!("s{i}.sim"), ExposureKind::SessionCache, 300);
        }
        for i in 0..3 {
            t.record(&format!("m{i}.sim"), ExposureKind::Ticket, 2 * DAY);
        }
        for i in 0..2 {
            t.record(&format!("l{i}.sim"), ExposureKind::Ticket, 10 * DAY);
        }
        t.record("x.sim", ExposureKind::DhReuse, 40 * DAY);
        let (d1, d7, d30) = t.headline_fractions();
        assert!((d1 - 0.6).abs() < 1e-9, ">24h = 6/10, got {d1}");
        assert!((d7 - 0.3).abs() < 1e-9, ">7d = 3/10, got {d7}");
        assert!((d30 - 0.1).abs() < 1e-9, ">30d = 1/10, got {d30}");
    }

    #[test]
    fn boundary_is_strictly_greater() {
        let mut t = ExposureTable::new();
        t.record("exact.sim", ExposureKind::Ticket, DAY); // exactly 24h
        let (d1, _, _) = t.headline_fractions();
        assert_eq!(d1, 0.0, "exactly 24h is not >24h");
    }

    #[test]
    fn dominant_counts() {
        let mut t = ExposureTable::new();
        t.record("a.sim", ExposureKind::Ticket, 100);
        t.record("b.sim", ExposureKind::SessionCache, 100);
        t.record("c.sim", ExposureKind::SessionCache, 100);
        let counts = t.dominant_counts();
        assert_eq!(counts.get(&ExposureKind::Ticket), Some(&1));
        assert_eq!(counts.get(&ExposureKind::SessionCache), Some(&2));
        assert_eq!(counts.get(&ExposureKind::DhReuse), None);
    }

    #[test]
    fn combined_cdf_over_table() {
        let mut t = ExposureTable::new();
        t.record("a.sim", ExposureKind::Ticket, 10);
        t.record("b.sim", ExposureKind::Ticket, 20);
        let cdf = t.combined_cdf();
        assert_eq!(cdf.len(), 2);
        assert_eq!(cdf.median(), Some(10));
    }
}
