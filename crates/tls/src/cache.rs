//! Server-side session-ID caches (RFC 5246 resumption).
//!
//! The cache maps session IDs to [`SessionState`] with a configurable
//! lifetime — the knob whose defaults (Apache/Nginx 5 min, IIS 10 h,
//! Google >24 h) produce the discrete steps in the paper's Figure 1.
//!
//! A [`SharedSessionCache`] can be handed to many servers; that is exactly
//! the SSL-terminator behaviour that creates the paper's §5.1 session-cache
//! "service groups" (CloudFlare's 30,163-domain cache being the largest).

use crate::session::SessionState;
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::sync::Arc;
use ts_telemetry::Counter;

static SESSIONS_DISCARDED: Counter = Counter::new("tls.session_cache.discarded");

/// A server-side session cache with TTL and capacity bounds.
///
/// Declared `lifetime(process)`: the cache outlives every connection whose
/// master secret it stores — the paper's session-ID shortcut. The
/// violations this declaration surfaces are waived under `[[lifetime]]`
/// with the measured retention windows as the reasons.
// ctlint: lifetime(process)
pub struct SessionCache {
    // Ordered: eviction breaks stored_at ties by scan order and
    // `dump_secrets` feeds the §6.2 attacker analysis, so both must be
    // independent of the hash seed.
    entries: BTreeMap<Vec<u8>, CacheEntry>,
    lifetime_secs: u64,
    capacity: usize,
}

struct CacheEntry {
    state: SessionState,
    stored_at: u64,
}

impl SessionCache {
    /// Create a cache holding entries for `lifetime_secs`, at most
    /// `capacity` at a time.
    pub fn new(lifetime_secs: u64, capacity: usize) -> Self {
        SessionCache {
            entries: BTreeMap::new(),
            lifetime_secs,
            capacity,
        }
    }

    /// The configured lifetime.
    pub fn lifetime_secs(&self) -> u64 {
        self.lifetime_secs
    }

    /// Store a session under `session_id` at virtual time `now`.
    pub fn insert(&mut self, session_id: Vec<u8>, state: SessionState, now: u64) {
        if self.capacity == 0 {
            return;
        }
        if self.entries.len() >= self.capacity && !self.entries.contains_key(&session_id) {
            // Evict the oldest entry — a simple approximation of the LRU
            // behaviour real caches show under pressure.
            if let Some(oldest) = self
                .entries
                .iter()
                .min_by_key(|(_, e)| e.stored_at)
                .map(|(k, _)| k.clone())
            {
                self.entries.remove(&oldest);
            }
        }
        self.entries.insert(
            session_id,
            CacheEntry {
                state,
                stored_at: now,
            },
        );
    }

    /// Look up a session; returns it only if still within lifetime.
    pub fn lookup(&self, session_id: &[u8], now: u64) -> Option<SessionState> {
        let entry = self.entries.get(session_id)?;
        if now.saturating_sub(entry.stored_at) <= self.lifetime_secs {
            Some(entry.state.clone())
        } else {
            None
        }
    }

    /// Drop the entries expired at `now` and return how many there were.
    pub fn sweep(&mut self, now: u64) -> usize {
        let lifetime = self.lifetime_secs;
        let before = self.entries.len();
        self.entries
            .retain(|_, e| now.saturating_sub(e.stored_at) <= lifetime);
        before - self.entries.len()
    }

    /// Number of live + expired entries currently held.
    ///
    /// Expired-but-unswept entries matter to the attack model: their
    /// secrets are still in memory even though resumption is refused.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if the cache holds nothing.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Attacker's view (§6.2): every master secret currently in memory,
    /// expired or not.
    pub fn dump_secrets(&self) -> Vec<(Vec<u8>, SessionState)> {
        self.entries
            .iter()
            .map(|(id, e)| (id.clone(), e.state.clone()))
            .collect()
    }

    /// Securely erase everything.
    pub fn clear(&mut self) {
        self.entries.clear();
    }
}

/// Number of independently locked shards in a [`SharedSessionCache`].
pub const SHARD_COUNT: usize = 8;

/// Deterministic FNV-1a over the SNI — shard selection must be a pure
/// function of the hostname (no ambient hash seed), or the repro's
/// eviction order would vary run to run.
fn shard_for(sni: &str) -> usize {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in sni.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    (h % SHARD_COUNT as u64) as usize
}

/// A session cache shareable across servers (an SSL terminator's cache).
///
/// Sharded by SNI hash with a lock per shard: concurrent handshakes for
/// different hostnames never contend. A connection resuming under the
/// hostname that stored the session (the overwhelmingly common case, and
/// the whole loadgen hot path) touches exactly one shard. A home-shard
/// miss falls back to scanning the remaining shards in fixed order — that
/// is what keeps the §5.1 cross-domain probe working: a session stored
/// under `a.example` still resumes when presented under `b.example`, and
/// the extra scan is only paid on misses, where a full handshake (three
/// orders of magnitude more work) was due anyway.
#[derive(Clone)]
pub struct SharedSessionCache {
    shards: Arc<[Mutex<SessionCache>; SHARD_COUNT]>,
    lifetime_secs: u64,
}

impl SharedSessionCache {
    /// Wrap a new cache. `capacity` is the total bound, split evenly
    /// across shards.
    pub fn new(lifetime_secs: u64, capacity: usize) -> Self {
        let per_shard = capacity.div_ceil(SHARD_COUNT);
        SharedSessionCache {
            shards: Arc::new(std::array::from_fn(|_| {
                Mutex::new(SessionCache::new(lifetime_secs, per_shard))
            })),
            lifetime_secs,
        }
    }

    /// Insert under the shard of `sni` (see [`SessionCache::insert`]).
    pub fn insert(&self, sni: &str, session_id: Vec<u8>, state: SessionState, now: u64) {
        self.shards[shard_for(sni)]
            .lock()
            .insert(session_id, state, now);
    }

    /// Lookup: home shard of `sni` first, then the cross-domain fallback
    /// scan (see [`SessionCache::lookup`]).
    pub fn lookup(&self, sni: &str, session_id: &[u8], now: u64) -> Option<SessionState> {
        let home = shard_for(sni);
        if let Some(state) = self.shards[home].lock().lookup(session_id, now) {
            return Some(state);
        }
        for (i, shard) in self.shards.iter().enumerate() {
            if i == home {
                continue;
            }
            if let Some(state) = shard.lock().lookup(session_id, now) {
                return Some(state);
            }
        }
        None
    }

    /// Configured lifetime.
    pub fn lifetime_secs(&self) -> u64 {
        self.lifetime_secs
    }

    /// Sweep expired entries in every shard; returns how many were
    /// dropped, also counted under `tls.session_cache.discarded`.
    pub fn sweep(&self, now: u64) -> u64 {
        let dropped: usize = self.shards.iter().map(|s| s.lock().sweep(now)).sum();
        SESSIONS_DISCARDED.add(dropped as u64);
        dropped as u64
    }

    /// Entry count across all shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().len()).sum()
    }

    /// True if every shard is empty.
    pub fn is_empty(&self) -> bool {
        self.shards.iter().all(|s| s.lock().is_empty())
    }

    /// Attacker dump (§6.2), merged across shards and ordered by session
    /// ID so the analysis is independent of shard layout.
    pub fn dump_secrets(&self) -> Vec<(Vec<u8>, SessionState)> {
        let mut out: Vec<(Vec<u8>, SessionState)> = Vec::new();
        for shard in self.shards.iter() {
            out.extend(shard.lock().dump_secrets());
        }
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }

    /// Secure erase of every shard.
    pub fn clear(&self) {
        for shard in self.shards.iter() {
            shard.lock().clear();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::suites::CipherSuite;

    fn state(tag: u8) -> SessionState {
        SessionState {
            master_secret: [tag; 48],
            cipher_suite: CipherSuite::EcdheRsaAes128CbcSha256,
            established_at: 0,
            server_name: "s.sim".into(),
        }
    }

    #[test]
    fn insert_lookup_within_lifetime() {
        let mut c = SessionCache::new(300, 100);
        c.insert(vec![1], state(1), 1000);
        assert_eq!(c.lookup(&[1], 1000), Some(state(1)));
        assert_eq!(c.lookup(&[1], 1300), Some(state(1)), "at exactly lifetime");
        assert_eq!(c.lookup(&[1], 1301), None, "past lifetime");
        assert_eq!(c.lookup(&[2], 1000), None, "unknown id");
    }

    #[test]
    fn expired_entries_remain_until_sweep() {
        let mut c = SessionCache::new(300, 100);
        c.insert(vec![1], state(1), 0);
        assert_eq!(c.lookup(&[1], 1000), None);
        // Secret still recoverable by an attacker until swept.
        assert_eq!(c.len(), 1);
        assert_eq!(c.dump_secrets().len(), 1);
        assert_eq!(c.sweep(1000), 1);
        assert_eq!(c.len(), 0);
        assert!(c.dump_secrets().is_empty());
    }

    #[test]
    fn capacity_evicts_oldest() {
        let mut c = SessionCache::new(1000, 2);
        c.insert(vec![1], state(1), 10);
        c.insert(vec![2], state(2), 20);
        c.insert(vec![3], state(3), 30);
        assert_eq!(c.len(), 2);
        assert_eq!(c.lookup(&[1], 30), None, "oldest evicted");
        assert!(c.lookup(&[2], 30).is_some());
        assert!(c.lookup(&[3], 30).is_some());
    }

    #[test]
    fn zero_capacity_disables_cache() {
        let mut c = SessionCache::new(300, 0);
        c.insert(vec![1], state(1), 0);
        assert!(c.is_empty());
        assert_eq!(c.lookup(&[1], 0), None);
    }

    #[test]
    fn reinsert_same_id_updates() {
        let mut c = SessionCache::new(300, 10);
        c.insert(vec![1], state(1), 0);
        c.insert(vec![1], state(2), 100);
        assert_eq!(c.lookup(&[1], 350), Some(state(2)), "refreshed timestamp");
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn shared_cache_is_shared() {
        let a = SharedSessionCache::new(300, 10);
        let b = a.clone();
        a.insert("x.sim", vec![7], state(7), 0);
        assert_eq!(b.lookup("x.sim", &[7], 10), Some(state(7)));
        let c = SharedSessionCache::new(300, 10);
        assert_eq!(c.lookup("x.sim", &[7], 10), None);
    }

    #[test]
    fn shared_sweep_drops_only_expired_entries_in_every_shard() {
        let cache = SharedSessionCache::new(300, 1000);
        for i in 0u8..16 {
            let stored_at = if i % 2 == 0 { 0 } else { 100 };
            cache.insert(&format!("host-{i}.sim"), vec![i], state(i), stored_at);
        }
        assert_eq!(
            cache.sweep(300),
            0,
            "every entry is at most its lifetime old"
        );
        assert_eq!(cache.sweep(301), 8, "the entries stored at 0 expired");
        assert_eq!(cache.len(), 8);
        assert!(cache.dump_secrets().iter().all(|(id, _)| id[0] % 2 == 1));
        assert_eq!(cache.sweep(301), 0, "a second sweep finds nothing");
    }

    #[test]
    fn clear_erases_secrets() {
        let a = SharedSessionCache::new(300, 10);
        a.insert("x.sim", vec![7], state(7), 0);
        a.clear();
        assert!(a.is_empty());
        assert_eq!(a.lookup("x.sim", &[7], 0), None);
    }

    #[test]
    fn cross_domain_lookup_falls_back_across_shards() {
        // §5.1: a session stored under one hostname must resume when the
        // same cache is probed under any other hostname, regardless of
        // which shard each hashes to.
        let cache = SharedSessionCache::new(300, 100);
        cache.insert("origin.sim", vec![42], state(1), 0);
        for sni in ["a.sim", "b.sim", "c.sim", "d.sim", "e.sim", "f.sim"] {
            assert_eq!(cache.lookup(sni, &[42], 10), Some(state(1)), "{sni}");
        }
        assert_eq!(cache.lookup("a.sim", &[43], 10), None, "unknown id");
    }

    #[test]
    fn shard_layout_is_deterministic_and_spread() {
        // The shard function is a pure function of the SNI...
        assert_eq!(shard_for("host-0.sim"), shard_for("host-0.sim"));
        // ...and a modest hostname population touches several shards.
        let mut seen = [false; SHARD_COUNT];
        for i in 0..64 {
            seen[shard_for(&format!("host-{i}.sim"))] = true;
        }
        assert!(seen.iter().filter(|s| **s).count() >= SHARD_COUNT / 2);
    }

    #[test]
    fn dump_merges_shards_in_session_id_order() {
        let cache = SharedSessionCache::new(300, 100);
        for i in (0u8..32).rev() {
            cache.insert(&format!("host-{i}.sim"), vec![i], state(i), 0);
        }
        let dump = cache.dump_secrets();
        assert_eq!(dump.len(), 32);
        let ids: Vec<Vec<u8>> = dump.iter().map(|(id, _)| id.clone()).collect();
        let mut sorted = ids.clone();
        sorted.sort();
        assert_eq!(ids, sorted, "dump ordered by session id, not shard");
    }

    /// Eight writer threads hammer the sharded cache concurrently; the
    /// final population and every inserted entry must be exactly what a
    /// serial execution would produce, regardless of interleaving.
    #[test]
    fn concurrent_inserts_and_lookups_are_linearizable_totals() {
        const THREADS: usize = 8;
        const PER_THREAD: usize = 64;
        // Capacity is split per shard and the SNIs below collide onto a
        // few shards, so size every shard for the full population.
        let cache = SharedSessionCache::new(3_600, THREADS * PER_THREAD * SHARD_COUNT);
        std::thread::scope(|s| {
            for t in 0..THREADS {
                let cache = cache.clone();
                s.spawn(move || {
                    for i in 0..PER_THREAD {
                        // Distinct ids per (thread, i); SNIs deliberately
                        // collide across threads to contend on shards.
                        let id = vec![t as u8, i as u8, 0xA5];
                        let sni = format!("host-{}.sim", i % 5);
                        cache.insert(&sni, id.clone(), state(t as u8), 100);
                        // Read own write through the home shard...
                        assert_eq!(
                            cache.lookup(&sni, &id, 100),
                            Some(state(t as u8)),
                            "own write visible"
                        );
                        // ...and through the cross-shard fallback path.
                        assert_eq!(
                            cache.lookup("elsewhere.sim", &id, 100),
                            Some(state(t as u8)),
                            "cross-shard fallback"
                        );
                    }
                });
            }
        });
        assert_eq!(cache.len(), THREADS * PER_THREAD);
        for t in 0..THREADS {
            for i in 0..PER_THREAD {
                let id = vec![t as u8, i as u8, 0xA5];
                assert_eq!(
                    cache.lookup(&format!("host-{}.sim", i % 5), &id, 100),
                    Some(state(t as u8))
                );
            }
        }
        assert_eq!(cache.dump_secrets().len(), THREADS * PER_THREAD);
    }
}
