//! Exhaustive-interleaving tests for the two concurrent structures the
//! simulation leans on: the epoch-pinned STEK snapshot
//! (`SharedStekManager` / `PinnedStekSet`) and the sharded
//! `SharedSessionCache` cross-shard fallback.
//!
//! Two granularities, both driven by the exhaustive explorer in
//! [`explorer`]:
//!
//! * **Operation-level models** mirror the exact load/store/lock sequence
//!   of the production methods (one harness step per primitive op, yield
//!   points injected between them) over a simplified state — published
//!   sets become generation numbers. These prove the *protocol*: the
//!   (epoch, set) pair can never be observed torn because both writes
//!   happen under the snapshot lock, and the deliberately broken variants
//!   (lock-free re-pin, hold-across fallback) are shown to fail, so the
//!   harness is demonstrably able to find the bugs it guards against.
//! * **Method-level runs** drive the real types, one production call per
//!   step, so every interleaving of whole refresh/accept calls runs
//!   against real tickets and real keys.

mod explorer;

use explorer::{step, try_step, Scenario, Step, StepOutcome};
use ts_crypto::drbg::HmacDrbg;
use ts_tls::cache::SharedSessionCache;
use ts_tls::session::SessionState;
use ts_tls::suites::CipherSuite;
use ts_tls::ticket::{RotationPolicy, SharedStekManager, StekManager, TicketFormat};

// ---------------------------------------------------------------------------
// Operation-level model: refresh_pin vs. re-pin / pinned accept.
//
// State mirrors `SharedStekInner` with the published `Arc<StekSet>`
// reduced to a generation number. The paired-update invariant the real
// code maintains (ticket.rs `refresh_pin`): `published` is replaced and
// `epoch` bumped under the same snapshot lock, so anyone who reads both
// under that lock sees generation == epoch.

#[derive(Default)]
struct StekModel {
    /// The `published: Mutex<Arc<StekSet>>` lock.
    published_locked: bool,
    /// Which snapshot is published (generation counter; starts at 0).
    published_gen: u64,
    /// The `epoch: AtomicU64` (kept == published_gen when quiescent).
    epoch: u64,
    /// Refresher-local: the freshly built set's generation.
    r_set: u64,
    /// Reader-local pin (`PinnedStekSet { epoch, set }`).
    pin_epoch: u64,
    pin_gen: u64,
    /// Reader-local: epoch value loaded on the fast path.
    b_loaded: u64,
    /// Generation the reader's accept actually decrypted against.
    b_used_gen: Option<u64>,
}

/// The stale-snapshot arm of `refresh_pin`, one step per primitive op:
/// lock the snapshot; rebuild from the manager (manager lock is
/// uncontended in this scenario, so tick+build is one step); replace the
/// published set; bump the epoch and release.
fn refresher() -> Vec<Step<StekModel>> {
    vec![
        try_step(|s: &mut StekModel| {
            if s.published_locked {
                return StepOutcome::Blocked;
            }
            s.published_locked = true;
            StepOutcome::Progressed
        }),
        step(|s: &mut StekModel| s.r_set = s.published_gen + 1),
        step(|s: &mut StekModel| s.published_gen = s.r_set),
        step(|s: &mut StekModel| {
            s.epoch += 1;
            s.published_locked = false;
        }),
    ]
}

#[test]
fn repin_under_lock_always_sees_a_paired_epoch_and_set() {
    // Reader = the valid-snapshot arm of `refresh_pin`: lock, read epoch,
    // read set, unlock — the epoch and set reads are split into separate
    // steps to prove the lock (not luck) keeps them paired.
    let reader = vec![
        try_step(|s: &mut StekModel| {
            if s.published_locked {
                return StepOutcome::Blocked;
            }
            s.published_locked = true;
            StepOutcome::Progressed
        }),
        step(|s: &mut StekModel| s.pin_epoch = s.epoch),
        step(|s: &mut StekModel| {
            s.pin_gen = s.published_gen;
            s.published_locked = false;
        }),
    ];
    let ran = Scenario::new()
        .thread(refresher())
        .thread(reader)
        .check(StekModel::default, |s| {
            if s.pin_epoch == s.pin_gen {
                Ok(())
            } else {
                Err(format!(
                    "torn pin: epoch {} but set generation {}",
                    s.pin_epoch, s.pin_gen
                ))
            }
        });
    assert!(ran >= 2, "exploration degenerated to {ran} schedules");
}

#[test]
fn lock_free_repin_would_tear_the_pair() {
    // The broken variant the lock exists to prevent: reading epoch and
    // set without the snapshot lock. Exhaustive exploration must find at
    // least one schedule observing (new set, old epoch) or (old set, new
    // epoch) — demonstrating the harness catches the bug the real code
    // avoids.
    let racy_reader = vec![
        step(|s: &mut StekModel| s.pin_epoch = s.epoch),
        step(|s: &mut StekModel| s.pin_gen = s.published_gen),
    ];
    let mut torn = 0usize;
    Scenario::new()
        .thread(refresher())
        .thread(racy_reader)
        .explore(StekModel::default, |_, s| {
            if s.pin_epoch != s.pin_gen {
                torn += 1;
            }
        });
    assert!(torn > 0, "the torn interleaving must be reachable");
}

#[test]
fn pinned_accept_fast_path_is_safe_at_every_interleaving() {
    // Reader holds a pin on generation 0 (epoch 0) and runs the
    // `accept_pinned` fast path: one atomic epoch load, then either use
    // the pinned set (epoch unchanged) or re-pin under the lock. At every
    // interleaving with a concurrent refresh, the set it decrypts with is
    // either its own still-consistent pin or a freshly paired snapshot —
    // never a torn mix.
    let reader = vec![
        step(|s: &mut StekModel| s.b_loaded = s.epoch),
        try_step(|s: &mut StekModel| {
            if s.b_loaded == s.pin_epoch {
                // Fast path: decrypt against the pinned snapshot.
                s.b_used_gen = Some(s.pin_gen);
                return StepOutcome::Progressed;
            }
            // Slow path: re-pin under the snapshot lock.
            if s.published_locked {
                return StepOutcome::Blocked;
            }
            s.pin_epoch = s.epoch;
            s.pin_gen = s.published_gen;
            s.b_used_gen = Some(s.pin_gen);
            StepOutcome::Progressed
        }),
    ];
    Scenario::new()
        .thread(refresher())
        .thread(reader)
        .check(StekModel::default, |s| {
            match s.b_used_gen {
                // Fast path: the snapshot pinned at epoch 0.
                Some(0) if s.pin_epoch == 0 && s.pin_gen == 0 => Ok(()),
                // Re-pin: must be the paired (epoch, set) the refresher
                // published.
                Some(g) if g == s.pin_gen && s.pin_epoch == s.pin_gen => Ok(()),
                other => Err(format!(
                    "unsound accept: used {:?}, pin = ({}, {})",
                    other, s.pin_epoch, s.pin_gen
                )),
            }
        });
}

// ---------------------------------------------------------------------------
// Operation-level model: two-shard cache, insert vs. cross-shard lookup.

#[derive(Default)]
struct CacheModel {
    locked: [bool; 2],
    present: [bool; 2],
    /// Lookup-thread outcome.
    found: Option<bool>,
}

fn lock_shard(i: usize) -> Step<CacheModel> {
    try_step(move |s: &mut CacheModel| {
        if s.locked[i] {
            return StepOutcome::Blocked;
        }
        s.locked[i] = true;
        StepOutcome::Progressed
    })
}

#[test]
fn cross_shard_fallback_never_deadlocks_and_sees_a_coherent_entry() {
    // Writer: insert into shard 0 (the session's home). Reader: home
    // shard is 1 — miss there, then the fixed-order fallback scan hits
    // shard 0. Both follow the production discipline of one shard locked
    // at a time (lock, probe, unlock), so no schedule can deadlock, and
    // the lookup outcome must equal "had the insert's write happened when
    // the reader probed shard 0".
    let writer = vec![
        lock_shard(0),
        step(|s: &mut CacheModel| {
            s.present[0] = true;
            s.locked[0] = false;
        }),
    ];
    let reader = vec![
        lock_shard(1),
        step(|s: &mut CacheModel| {
            // Home-shard probe: always a miss in this scenario.
            assert!(!s.present[1]);
            s.locked[1] = false;
        }),
        lock_shard(0),
        step(|s: &mut CacheModel| {
            s.found = Some(s.present[0]);
            s.locked[0] = false;
        }),
    ];
    let mut outcomes = std::collections::BTreeSet::new();
    let ran = Scenario::new()
        .thread(writer)
        .thread(reader)
        .explore(CacheModel::default, |_, s| {
            assert!(!s.locked[0] && !s.locked[1], "all shards released");
            outcomes.insert(s.found.expect("lookup completed"));
        });
    assert!(ran >= 2);
    // Exhaustiveness: both the hit and the benign miss orderings exist.
    assert_eq!(outcomes.len(), 2, "both race outcomes must be reachable");
}

#[test]
#[should_panic(expected = "deadlock")]
fn holding_the_home_shard_across_the_fallback_would_deadlock() {
    // The forbidden variant (what the lock-across-callback / lock-order
    // rules and the temporary-guard discipline in cache.rs prevent):
    // the reader keeps shard 1 locked while taking shard 0, while a
    // writer moves an entry 0 -> 1 holding shard 0. Classic ABBA — the
    // explorer must reach and report the deadlock.
    let writer = vec![
        lock_shard(0),
        lock_shard(1),
        step(|s: &mut CacheModel| {
            s.locked[1] = false;
            s.locked[0] = false;
        }),
    ];
    let reader = vec![
        lock_shard(1),
        lock_shard(0),
        step(|s: &mut CacheModel| {
            s.locked[0] = false;
            s.locked[1] = false;
        }),
    ];
    Scenario::new()
        .thread(writer)
        .thread(reader)
        .explore(CacheModel::default, |_, _| {});
}

// ---------------------------------------------------------------------------
// Method-level: the real types, one production call per step.

fn session(name: &str) -> SessionState {
    SessionState {
        master_secret: [0x42; 48],
        cipher_suite: CipherSuite::EcdheRsaChaCha20Poly1305,
        established_at: 0,
        server_name: name.into(),
    }
}

struct RealStek {
    mgr: SharedStekManager,
    ticket: Vec<u8>,
    pin: Option<ts_tls::ticket::PinnedStekSet>,
    results: Vec<bool>,
}

#[test]
fn real_refresh_vs_pinned_accept_accepts_at_every_interleaving() {
    // Periodic rotation with overlap: the ticket issued at t=0 must be
    // accepted at t=10 (pre-rotation) and at t=101 (post-rotation, inside
    // the retired key's overlap) no matter how the concurrent pin
    // refreshes interleave with the accepts. Steps are whole production
    // calls — the sans-I/O API is externally synchronized, so call-level
    // atomicity is the honest granularity for the real types.
    let init = || {
        let mgr = SharedStekManager::new(StekManager::new(
            RotationPolicy::Periodic {
                period: 100,
                overlap: 50,
            },
            TicketFormat::Rfc5077,
            HmacDrbg::new(b"interleave-stek"),
            0,
        ));
        let ticket = mgr.issue(&session("pin.sim"), 0);
        RealStek {
            mgr,
            ticket,
            pin: None,
            results: Vec::new(),
        }
    };
    let refresher = vec![
        step(|s: &mut RealStek| {
            // Advancing time across the rotation boundary forces a
            // republish (epoch bump) on whoever gets there first.
            let _ = s.mgr.active_key_name_at(101);
        }),
        step(|s: &mut RealStek| {
            let _ = s.mgr.active_key_name_at(140);
        }),
    ];
    let acceptor = vec![
        step(|s: &mut RealStek| {
            let RealStek {
                mgr, ticket, pin, ..
            } = s;
            let ok = mgr.accept_pinned(pin, ticket, 10).is_ok();
            s.results.push(ok);
        }),
        step(|s: &mut RealStek| {
            let RealStek {
                mgr, ticket, pin, ..
            } = s;
            let ok = mgr.accept_pinned(pin, ticket, 101).is_ok();
            s.results.push(ok);
        }),
    ];
    let ran = Scenario::new()
        .thread(refresher)
        .thread(acceptor)
        .check(init, |s| {
            if s.results == [true, true] {
                Ok(())
            } else {
                Err(format!("accept results {:?}", s.results))
            }
        });
    assert_eq!(ran, 6, "2+2 steps must give C(4,2) schedules");
}

#[test]
fn real_two_shard_insert_vs_cross_fallback_lookup() {
    // Real SharedSessionCache: "alpha.sim" and its session ID live in
    // alpha's home shard; the lookup presents the same session ID under a
    // different SNI whose home shard misses, exercising the cross-shard
    // fallback against a concurrent insert. Every interleaving completes
    // (no deadlock possible at any granularity — one shard at a time) and
    // the outcome is exactly insert-before-lookup.
    struct S {
        cache: SharedSessionCache,
        found: Option<bool>,
    }
    let init = || S {
        cache: SharedSessionCache::new(300, 64),
        found: None,
    };
    let writer = vec![step(|s: &mut S| {
        s.cache
            .insert("alpha.sim", vec![7; 32], session("alpha.sim"), 1);
    })];
    let reader = vec![step(|s: &mut S| {
        s.found = Some(s.cache.lookup("beta.sim", &[7; 32], 2).is_some());
    })];
    let mut outcomes = std::collections::BTreeSet::new();
    let ran = Scenario::new()
        .thread(writer)
        .thread(reader)
        .explore(init, |sched, s| {
            let found = s.found.expect("lookup ran");
            outcomes.insert(found);
            // Schedule [0, 1] = insert first: the fallback must hit.
            if sched == [0, 1] {
                assert!(found, "insert-then-lookup must resume");
            }
        });
    assert_eq!(ran, 2);
    assert_eq!(
        outcomes,
        std::collections::BTreeSet::from([false, true]),
        "both orders must be observable"
    );
}
