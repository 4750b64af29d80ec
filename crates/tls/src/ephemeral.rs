//! Ephemeral key-exchange value caching (paper §2.3, §4.4).
//!
//! RFC 5246 says servers *should* generate a fresh Diffie-Hellman value per
//! handshake. Real servers often don't: OpenSSL (pre-CVE-2016-0701) and
//! SChannel reused DHE values by default, and many deployments cache ECDHE
//! values for seconds to *months*. [`EphemeralPolicy`] encodes the
//! behaviours the study observed; [`EphemeralCache`] holds the live value
//! and is shareable across servers (→ §5.3 Diffie-Hellman service groups).

use parking_lot::Mutex;
use std::sync::Arc;
use ts_crypto::dh::{DhGroup, DhKeyPair};
use ts_crypto::drbg::HmacDrbg;
use ts_crypto::x25519::X25519KeyPair;

/// How long a server reuses its ephemeral key-exchange values.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EphemeralPolicy {
    /// Fresh value per handshake (RFC-compliant; OpenSSL post-2016).
    FreshPerHandshake,
    /// Reuse a value for a fixed duration, then regenerate.
    ReuseFor {
        /// Reuse duration in virtual seconds.
        secs: u64,
    },
    /// Reuse one value for the lifetime of the process/deployment —
    /// effectively forever within a study window.
    ReuseForever,
}

impl EphemeralPolicy {
    /// Does the cached value (created at `created_at`) still apply at `now`?
    fn still_valid(&self, created_at: u64, now: u64) -> bool {
        match self {
            EphemeralPolicy::FreshPerHandshake => false,
            EphemeralPolicy::ReuseFor { secs } => now.saturating_sub(created_at) < *secs,
            EphemeralPolicy::ReuseForever => true,
        }
    }
}

/// A cached DHE keypair with its creation time. The keypair is held (and
/// handed to handshakes) behind an `Arc` so a reused value is shared, not
/// re-copied — cloning a `DhKeyPair` duplicates its secret exponent and
/// multi-hundred-byte public value on every handshake.
#[derive(Clone)]
pub struct CachedDhe {
    /// The keypair.
    pub keypair: Arc<DhKeyPair>,
    /// When it was generated.
    pub created_at: u64,
}

/// A cached X25519 keypair with its creation time (shared like [`CachedDhe`]).
#[derive(Clone)]
pub struct CachedEcdhe {
    /// The keypair.
    pub keypair: Arc<X25519KeyPair>,
    /// When it was generated.
    pub created_at: u64,
}

/// One key exchange's reuse slot: its policy and the live keypair with
/// its creation time.
struct Slot<K> {
    policy: EphemeralPolicy,
    cached: Option<(Arc<K>, u64)>,
}

impl<K> Slot<K> {
    fn new(policy: EphemeralPolicy) -> Self {
        Slot {
            policy,
            cached: None,
        }
    }

    /// The cached keypair while the policy still applies to it at `now`,
    /// else a fresh one from `generate`, cached for later handshakes.
    fn keypair(&mut self, now: u64, generate: impl FnOnce() -> K) -> Arc<K> {
        if let Some((keypair, created_at)) = &self.cached {
            if self.policy.still_valid(*created_at, now) {
                return Arc::clone(keypair);
            }
        }
        let keypair = Arc::new(generate());
        self.cached = Some((Arc::clone(&keypair), now));
        keypair
    }
}

struct EphemeralCacheInner {
    dh_group: DhGroup,
    dhe: Slot<DhKeyPair>,
    ecdhe: Slot<X25519KeyPair>,
    /// One stream for both key exchanges, drawn in handshake order.
    rng: HmacDrbg,
}

/// Holds (and regenerates per policy) a server's ephemeral values.
/// Shareable across servers to model SSL terminators.
#[derive(Clone)]
pub struct EphemeralCache(Arc<Mutex<EphemeralCacheInner>>);

impl EphemeralCache {
    /// Create a cache applying one reuse policy to both key exchanges.
    pub fn new(policy: EphemeralPolicy, dh_group: DhGroup, rng: HmacDrbg) -> Self {
        Self::with_policies(policy, policy, dh_group, rng)
    }

    /// Create a cache with independent DHE and ECDHE reuse policies
    /// (real servers configure them separately — OpenSSL's
    /// `SSL_OP_SINGLE_DH_USE` vs `SSL_OP_SINGLE_ECDH_USE`).
    pub fn with_policies(
        dhe_policy: EphemeralPolicy,
        ecdhe_policy: EphemeralPolicy,
        dh_group: DhGroup,
        rng: HmacDrbg,
    ) -> Self {
        EphemeralCache(Arc::new(Mutex::new(EphemeralCacheInner {
            dh_group,
            dhe: Slot::new(dhe_policy),
            ecdhe: Slot::new(ecdhe_policy),
            rng,
        })))
    }

    /// The DHE reuse policy in force.
    pub fn dhe_policy(&self) -> EphemeralPolicy {
        self.0.lock().dhe.policy
    }

    /// The ECDHE reuse policy in force.
    pub fn ecdhe_policy(&self) -> EphemeralPolicy {
        self.0.lock().ecdhe.policy
    }

    /// Get the DHE keypair to use for a handshake at `now`, regenerating
    /// if the policy says the cached one is stale. Returns a shared handle;
    /// under a reuse policy this is a refcount bump, not a key copy.
    pub fn dhe_keypair(&self, now: u64) -> Arc<DhKeyPair> {
        let inner = &mut *self.0.lock();
        let (group, rng) = (inner.dh_group, &mut inner.rng);
        inner.dhe.keypair(now, || DhKeyPair::generate(group, rng))
    }

    /// Get the X25519 keypair for a handshake at `now` (same policy).
    pub fn ecdhe_keypair(&self, now: u64) -> Arc<X25519KeyPair> {
        let inner = &mut *self.0.lock();
        let rng = &mut inner.rng;
        inner.ecdhe.keypair(now, || X25519KeyPair::generate(rng))
    }

    /// Attacker model (§6.3): steal the currently cached secrets.
    pub fn steal(&self) -> (Option<CachedDhe>, Option<CachedEcdhe>) {
        let inner = self.0.lock();
        let dhe = inner
            .dhe
            .cached
            .as_ref()
            .map(|(keypair, created_at)| CachedDhe {
                keypair: Arc::clone(keypair),
                created_at: *created_at,
            });
        let ecdhe = inner
            .ecdhe
            .cached
            .as_ref()
            .map(|(keypair, created_at)| CachedEcdhe {
                keypair: Arc::clone(keypair),
                created_at: *created_at,
            });
        (dhe, ecdhe)
    }

    /// Same underlying cache (shared terminator)?
    pub fn same_cache(&self, other: &EphemeralCache) -> bool {
        Arc::ptr_eq(&self.0, &other.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cache(policy: EphemeralPolicy, seed: &[u8]) -> EphemeralCache {
        EphemeralCache::new(policy, DhGroup::Sim256, HmacDrbg::new(seed))
    }

    #[test]
    fn fresh_policy_regenerates_every_time() {
        let c = cache(EphemeralPolicy::FreshPerHandshake, b"fresh");
        let a = c.dhe_keypair(0);
        let b = c.dhe_keypair(0);
        assert_ne!(a.public.to_hex(), b.public.to_hex());
        let a = c.ecdhe_keypair(0);
        let b = c.ecdhe_keypair(0);
        assert_ne!(a.public, b.public);
    }

    #[test]
    fn fresh_ecdhe_values_are_serial_draws() {
        // Each fresh value is the next `generate` draw from the cache's
        // DRBG, and `steal()` sees the most recent one.
        let c = cache(EphemeralPolicy::FreshPerHandshake, b"fresh-order");
        let mut reference = HmacDrbg::new(b"fresh-order");
        for i in 0..5 {
            let expected = X25519KeyPair::generate(&mut reference);
            let got = c.ecdhe_keypair(0);
            assert_eq!(got.public, expected.public, "draw {i}");
            let (_, stolen) = c.steal();
            assert_eq!(stolen.expect("cached").keypair.public, expected.public);
        }
    }

    #[test]
    fn reuse_for_duration() {
        let c = cache(EphemeralPolicy::ReuseFor { secs: 100 }, b"dur");
        let a = c.dhe_keypair(0);
        let b = c.dhe_keypair(99);
        assert_eq!(a.public.to_hex(), b.public.to_hex());
        let d = c.dhe_keypair(100);
        assert_ne!(a.public.to_hex(), d.public.to_hex(), "expired at boundary");
        let (stolen, _) = c.steal();
        assert_eq!(stolen.expect("cached").created_at, 100);
    }

    #[test]
    fn reuse_forever_never_regenerates() {
        let c = cache(EphemeralPolicy::ReuseForever, b"forever");
        let a = c.ecdhe_keypair(0);
        let b = c.ecdhe_keypair(86_400 * 63); // the whole 9-week study
        assert_eq!(a.public, b.public);
        let (_, stolen) = c.steal();
        assert_eq!(stolen.expect("cached").created_at, 0);
    }

    #[test]
    fn dhe_and_ecdhe_caches_are_independent() {
        // Each kind has its own slot; both draw from one stream, in call
        // order.
        let c = cache(EphemeralPolicy::ReuseForever, b"indep");
        let mut reference = HmacDrbg::new(b"indep");
        let d = c.dhe_keypair(0);
        assert!(matches!(c.steal(), (Some(_), None)));
        let e = c.ecdhe_keypair(5);
        let (dhe, ecdhe) = c.steal();
        assert_eq!(dhe.expect("cached").created_at, 0);
        assert_eq!(ecdhe.expect("cached").created_at, 5);
        let expected_d = DhKeyPair::generate(DhGroup::Sim256, &mut reference);
        let expected_e = X25519KeyPair::generate(&mut reference);
        assert_eq!(d.public.to_hex(), expected_d.public.to_hex());
        assert_eq!(e.public, expected_e.public);
    }

    #[test]
    fn independent_per_kex_policies() {
        let c = EphemeralCache::with_policies(
            EphemeralPolicy::FreshPerHandshake,
            EphemeralPolicy::ReuseForever,
            DhGroup::Sim256,
            HmacDrbg::new(b"per-kex"),
        );
        let d1 = c.dhe_keypair(0);
        let d2 = c.dhe_keypair(0);
        assert_ne!(d1.public.to_hex(), d2.public.to_hex(), "DHE fresh");
        let e1 = c.ecdhe_keypair(0);
        let e2 = c.ecdhe_keypair(86_400);
        assert_eq!(e1.public, e2.public, "ECDHE reused forever");
        assert_eq!(c.dhe_policy(), EphemeralPolicy::FreshPerHandshake);
        assert_eq!(c.ecdhe_policy(), EphemeralPolicy::ReuseForever);
    }

    #[test]
    fn shared_cache_shares_values() {
        let a = cache(EphemeralPolicy::ReuseForever, b"share");
        let b = a.clone();
        let ka = a.dhe_keypair(0);
        let kb = b.dhe_keypair(50);
        assert_eq!(ka.public.to_hex(), kb.public.to_hex());
        assert!(a.same_cache(&b));
    }

    #[test]
    fn stolen_value_decrypts_what_server_derives() {
        // §6.3: an attacker holding the server's `a` recomputes any
        // session's shared secret from the client's public value.
        let c = cache(EphemeralPolicy::ReuseForever, b"attack");
        let server_kp = c.dhe_keypair(0);
        let mut client_rng = HmacDrbg::new(b"client");
        let client_kp = DhKeyPair::generate(DhGroup::Sim256, &mut client_rng);
        let z_server = server_kp.shared_secret(&client_kp.public).unwrap();
        let (stolen_dhe, _) = c.steal();
        let stolen = stolen_dhe.expect("value cached");
        let z_attacker = stolen.keypair.shared_secret(&client_kp.public).unwrap();
        assert_eq!(z_server, z_attacker);
    }

    #[test]
    fn steal_before_first_use_yields_nothing() {
        let c = cache(EphemeralPolicy::ReuseForever, b"empty");
        let (d, e) = c.steal();
        assert!(d.is_none());
        assert!(e.is_none());
    }
}
