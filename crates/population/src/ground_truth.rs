//! Ground truth: what the population generator actually configured.
//!
//! The scanner must *infer* lifetimes and sharing from the outside; the
//! ground truth records what was configured so tests can validate the
//! estimators (e.g. the first/last-seen STEK-span estimator against the
//! real rotation period).

use std::collections::BTreeMap;

/// The configured truth for one domain.
#[derive(Debug, Clone)]
pub struct DomainTruth {
    /// Domain name.
    pub name: String,
    /// Rank in the list (1-based).
    pub rank: usize,
    /// Operator name (None = long tail).
    pub operator: Option<String>,
    /// Supports HTTPS at all.
    pub https: bool,
    /// Presents a browser-trusted certificate.
    pub trusted: bool,
    /// On the institutional blacklist.
    pub blacklisted: bool,
    /// Part of the stable core (in the list every day)?
    pub stable: bool,
    /// STEK rotation period in seconds (None = no tickets; `u64::MAX` =
    /// never rotates).
    pub stek_period: Option<u64>,
    /// Session-cache lifetime in seconds (None = no session-ID resumption).
    pub cache_lifetime: Option<u64>,
    /// DHE reuse span in seconds (None = no DHE support; 0 = fresh).
    pub dhe_reuse: Option<u64>,
    /// ECDHE reuse span in seconds (None = no ECDHE support; 0 = fresh).
    pub ecdhe_reuse: Option<u64>,
    /// Shared session-cache unit id (same id ⇒ same cache object).
    pub cache_unit: Option<usize>,
    /// Shared STEK unit id.
    pub stek_unit: Option<usize>,
    /// Shared ephemeral-cache unit id.
    pub dh_unit: Option<usize>,
    /// Terminator (pod) id.
    pub pod: usize,
}

/// Ground truth for the whole population.
#[derive(Debug, Default)]
pub struct GroundTruth {
    // Ordered: `iter()` escapes to validation sweeps and report tables, so
    // the walk must be name-ordered rather than hash-seed-ordered.
    by_name: BTreeMap<String, DomainTruth>,
}

impl GroundTruth {
    /// Empty truth table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record a domain.
    pub fn insert(&mut self, truth: DomainTruth) {
        self.by_name.insert(truth.name.clone(), truth);
    }

    /// Look up a domain.
    pub fn get(&self, name: &str) -> Option<&DomainTruth> {
        self.by_name.get(name)
    }

    /// Mutable lookup (the builder back-fills ranks).
    pub fn get_mut(&mut self, name: &str) -> Option<&mut DomainTruth> {
        self.by_name.get_mut(name)
    }

    /// Iterate all domains.
    pub fn iter(&self) -> impl Iterator<Item = &DomainTruth> {
        self.by_name.values()
    }

    /// Number of recorded domains.
    pub fn len(&self) -> usize {
        self.by_name.len()
    }

    /// True if empty.
    pub fn is_empty(&self) -> bool {
        self.by_name.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn truth(name: &str, cache_unit: Option<usize>) -> DomainTruth {
        DomainTruth {
            name: name.into(),
            rank: 1,
            operator: None,
            https: true,
            trusted: true,
            blacklisted: false,
            stable: true,
            stek_period: None,
            cache_lifetime: Some(300),
            dhe_reuse: None,
            ecdhe_reuse: None,
            cache_unit,
            stek_unit: None,
            dh_unit: None,
            pod: 0,
        }
    }

    #[test]
    fn insert_get_iterate() {
        let mut gt = GroundTruth::new();
        assert!(gt.is_empty());
        gt.insert(truth("a.sim", Some(1)));
        gt.insert(truth("b.sim", Some(1)));
        gt.insert(truth("c.sim", Some(2)));
        assert_eq!(gt.len(), 3);
        assert_eq!(gt.get("a.sim").unwrap().cache_unit, Some(1));
        assert!(gt.get("zzz.sim").is_none());
    }
}
