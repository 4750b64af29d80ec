//! Deterministic random bit generator (HMAC-DRBG, SP 800-90A flavoured).
//!
//! Every stochastic decision in the simulation — ephemeral DH values,
//! session IDs, STEKs, population sampling — draws from an [`HmacDrbg`]
//! seeded from the experiment seed, so entire 9-week campaigns are exactly
//! reproducible. The construction follows NIST SP 800-90A's HMAC_DRBG with
//! SHA-256 (instantiate / update / generate), minus reseed counters, which
//! a simulation does not need.

use crate::hmac::hmac_sha256;

/// HMAC-SHA256 based deterministic random bit generator.
///
/// The `(K, V)` working state lets anyone who reads it re-derive every
/// past and future output of the stream — including STEKs and ephemeral
/// exponents — so the state is secret-marked and wiped on drop.
// ctlint: secret
#[derive(Clone)]
pub struct HmacDrbg {
    k: [u8; 32],
    v: [u8; 32],
}

impl std::fmt::Debug for HmacDrbg {
    /// Redacting: the working state is never printable.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("HmacDrbg(<redacted>)")
    }
}

impl crate::wipe::Wipe for HmacDrbg {
    fn wipe(&mut self) {
        crate::wipe::wipe_bytes(&mut self.k);
        crate::wipe::wipe_bytes(&mut self.v);
    }
}

impl Drop for HmacDrbg {
    fn drop(&mut self) {
        use crate::wipe::Wipe;
        self.wipe();
    }
}

impl HmacDrbg {
    /// Instantiate from seed material (any length, any entropy).
    pub fn new(seed: &[u8]) -> Self {
        let mut drbg = HmacDrbg {
            k: [0u8; 32],
            v: [1u8; 32],
        };
        drbg.update(Some(seed));
        drbg
    }

    /// Instantiate from a u64 seed plus a domain-separation label.
    ///
    /// The label keeps independent subsystems (population generation,
    /// server key material, scanner jitter, ...) on independent streams
    /// even when they share the experiment seed.
    pub fn from_seed_label(seed: u64, label: &str) -> Self {
        let mut material = Vec::with_capacity(8 + label.len());
        material.extend_from_slice(&seed.to_be_bytes());
        material.extend_from_slice(label.as_bytes());
        Self::new(&material)
    }

    fn update(&mut self, provided: Option<&[u8]>) {
        let mut msg = Vec::with_capacity(32 + 1 + provided.map_or(0, |p| p.len()));
        msg.extend_from_slice(&self.v);
        msg.push(0x00);
        if let Some(p) = provided {
            msg.extend_from_slice(p);
        }
        self.k = hmac_sha256(&self.k, &msg);
        self.v = hmac_sha256(&self.k, &self.v);
        if let Some(p) = provided {
            let mut msg = Vec::with_capacity(32 + 1 + p.len());
            msg.extend_from_slice(&self.v);
            msg.push(0x01);
            msg.extend_from_slice(p);
            self.k = hmac_sha256(&self.k, &msg);
            self.v = hmac_sha256(&self.k, &self.v);
        }
    }

    /// Fill `out` with pseudo-random bytes.
    pub fn fill_bytes(&mut self, out: &mut [u8]) {
        let mut offset = 0;
        while offset < out.len() {
            self.v = hmac_sha256(&self.k, &self.v);
            let take = (out.len() - offset).min(32);
            out[offset..offset + take].copy_from_slice(&self.v[..take]);
            offset += take;
        }
        self.update(None);
    }

    /// Return `n` pseudo-random bytes.
    pub fn bytes(&mut self, n: usize) -> Vec<u8> {
        let mut out = vec![0u8; n];
        self.fill_bytes(&mut out);
        out
    }

    /// A pseudo-random `u64`.
    pub fn next_u64(&mut self) -> u64 {
        let mut buf = [0u8; 8];
        self.fill_bytes(&mut buf);
        u64::from_be_bytes(buf)
    }

    /// Uniform value in `[0, bound)` by rejection sampling. Panics if
    /// `bound == 0`.
    pub fn gen_range(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "empty range");
        if bound.is_power_of_two() {
            return self.next_u64() & (bound - 1);
        }
        let zone = u64::MAX - (u64::MAX % bound);
        loop {
            let v = self.next_u64();
            if v < zone {
                return v % bound;
            }
        }
    }

    /// Uniform `f64` in `[0, 1)`.
    pub fn gen_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Bernoulli trial with probability `p` (clamped to [0, 1]).
    pub fn gen_bool(&mut self, p: f64) -> bool {
        self.gen_f64() < p
    }

    /// Derive an independent child DRBG for a labelled subsystem.
    pub fn fork(&mut self, label: &str) -> HmacDrbg {
        let mut material = self.bytes(32);
        material.extend_from_slice(label.as_bytes());
        HmacDrbg::new(&material)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_from_seed() {
        let mut a = HmacDrbg::new(b"seed");
        let mut b = HmacDrbg::new(b"seed");
        assert_eq!(a.bytes(100), b.bytes(100));
        assert_eq!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = HmacDrbg::new(b"seed1");
        let mut b = HmacDrbg::new(b"seed2");
        assert_ne!(a.bytes(32), b.bytes(32));
    }

    #[test]
    fn labels_domain_separate() {
        let mut a = HmacDrbg::from_seed_label(42, "population");
        let mut b = HmacDrbg::from_seed_label(42, "scanner");
        assert_ne!(a.bytes(32), b.bytes(32));
    }

    #[test]
    fn gen_range_respects_bounds() {
        let mut d = HmacDrbg::new(b"range");
        for bound in [1u64, 2, 3, 10, 1000, 1 << 40] {
            for _ in 0..100 {
                assert!(d.gen_range(bound) < bound);
            }
        }
    }

    #[test]
    fn gen_range_covers_small_range() {
        let mut d = HmacDrbg::new(b"coverage");
        let mut seen = [false; 5];
        for _ in 0..200 {
            seen[d.gen_range(5) as usize] = true;
        }
        assert!(
            seen.iter().all(|&s| s),
            "all values of a small range appear"
        );
    }

    #[test]
    fn gen_f64_in_unit_interval() {
        let mut d = HmacDrbg::new(b"f64");
        for _ in 0..1000 {
            let v = d.gen_f64();
            assert!((0.0..1.0).contains(&v));
        }
    }

    #[test]
    fn gen_bool_rate_approximates_p() {
        let mut d = HmacDrbg::new(b"bernoulli");
        let trials = 10_000;
        let hits = (0..trials).filter(|_| d.gen_bool(0.3)).count();
        let rate = hits as f64 / trials as f64;
        assert!((rate - 0.3).abs() < 0.02, "rate {rate}");
    }

    #[test]
    fn fork_streams_are_independent_and_deterministic() {
        let mut parent1 = HmacDrbg::new(b"parent");
        let mut parent2 = HmacDrbg::new(b"parent");
        let mut c1 = parent1.fork("child-a");
        let mut c2 = parent2.fork("child-a");
        assert_eq!(c1.bytes(32), c2.bytes(32), "same lineage → same stream");
        let mut c3 = parent1.fork("child-a");
        // parent state advanced, so a second fork differs.
        assert_ne!(c1.bytes(32), c3.bytes(32));
    }

    #[test]
    fn fill_spans_multiple_hmac_blocks() {
        let mut d = HmacDrbg::new(b"long");
        let long = d.bytes(1000);
        // Re-derive and compare chunked reads concatenated differ from a
        // single long read (SP 800-90A generates per-call, state advances
        // between calls) — both are valid; we just pin the behaviour.
        let mut d2 = HmacDrbg::new(b"long");
        let again = d2.bytes(1000);
        assert_eq!(long, again);
        assert_eq!(long.len(), 1000);
    }
}
