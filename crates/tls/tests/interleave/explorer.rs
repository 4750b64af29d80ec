//! Exhaustive interleaving exploration for small concurrent scenarios —
//! a hand-rolled, dependency-free loom: the offline build cannot vendor
//! the real one, and the scenarios this workspace needs (STEK refresh vs.
//! pinned accept, two-shard cache cross-fallback) are small enough to
//! enumerate completely.
//!
//! A [`Scenario`] is a fixed set of logical threads, each a sequence of
//! *steps* — closures over a shared model state `S`, delimited at the
//! yield points the author injects (one step per atomic action: a lock
//! acquire, an atomic load, a field write). The explorer enumerates every
//! interleaving of the threads' steps, replays each schedule against a
//! fresh state from `init`, and hands the final state to a visitor or
//! invariant check. Coverage is exact, not sampled: for thread step
//! counts n₁..n_k there are (Σnᵢ)! / Πnᵢ! schedules and every one runs.
//!
//! Blocking is modelled, not real: a step may return
//! [`StepOutcome::Blocked`] (after changing *nothing*), and the explorer
//! prunes that branch — the blocked thread simply isn't scheduled until
//! another thread's step unblocks it. If every unfinished thread is
//! blocked the scenario has deadlocked, and the explorer panics with the
//! schedule that got there — so a lock-order violation modelled with
//! `lock`/`unlock` steps is *found*, not hidden.
//!
//! Granularity is the author's honest obligation: the model only checks
//! interleavings at the yield points you give it. Steps model
//! sequentially consistent atomics — relaxed-memory reorderings are out
//! of scope (that is what the `atomic-ordering` lint rule and the TSan CI
//! leg are for).

/// What a step did when scheduled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepOutcome {
    /// The step ran; the thread advances to its next step.
    Progressed,
    /// The step could not run (e.g. a modelled lock is held) and changed
    /// nothing; the thread stays put and the explorer tries it again
    /// only on schedules where another thread ran first.
    Blocked,
}

/// One yield-point-delimited action of a logical thread.
pub type Step<S> = Box<dyn Fn(&mut S) -> StepOutcome>;

/// Wrap an infallible action as a [`Step`].
pub fn step<S, F: Fn(&mut S) + 'static>(f: F) -> Step<S> {
    Box::new(move |s| {
        f(s);
        StepOutcome::Progressed
    })
}

/// Wrap an action that may block as a [`Step`]. The closure must leave
/// the state untouched when it returns [`StepOutcome::Blocked`].
pub fn try_step<S, F: Fn(&mut S) -> StepOutcome + 'static>(f: F) -> Step<S> {
    Box::new(f)
}

/// A fixed set of logical threads over a shared model state `S`.
#[derive(Default)]
pub struct Scenario<S> {
    threads: Vec<Vec<Step<S>>>,
}

impl<S> Scenario<S> {
    /// An empty scenario.
    pub fn new() -> Scenario<S> {
        Scenario {
            threads: Vec::new(),
        }
    }

    /// Add a thread as its ordered step sequence.
    pub fn thread(mut self, steps: Vec<Step<S>>) -> Scenario<S> {
        self.threads.push(steps);
        self
    }

    /// How many complete schedules exist (multinomial coefficient) —
    /// useful to sanity-check a scenario's size before exploring it.
    pub fn schedule_count(&self) -> u128 {
        let mut total: u128 = 0;
        let mut count: u128 = 1;
        for t in &self.threads {
            for i in 1..=t.len() as u128 {
                total += 1;
                // count *= C(total, i) incrementally: multiply then divide
                // keeps everything integral.
                count = count * total / i;
            }
        }
        count
    }

    /// Enumerate every interleaving, replaying each against a fresh state
    /// from `init` and calling `visit(schedule, final_state)` on each
    /// completed one. Returns the number of completed schedules.
    ///
    /// Panics on deadlock: a reachable point where every unfinished
    /// thread's next step reports [`StepOutcome::Blocked`].
    pub fn explore<I, V>(&self, init: I, mut visit: V) -> usize
    where
        I: Fn() -> S,
        V: FnMut(&[usize], &S),
    {
        let mut sched = Vec::new();
        let mut count = 0usize;
        self.dfs(&mut sched, &init, &mut visit, &mut count);
        count
    }

    /// [`explore`](Scenario::explore) with an invariant instead of a
    /// visitor: panics (naming the schedule) on the first `Err`.
    pub fn check<I, C>(&self, init: I, check: C) -> usize
    where
        I: Fn() -> S,
        C: Fn(&S) -> Result<(), String>,
    {
        self.explore(init, |sched, s| {
            if let Err(msg) = check(s) {
                panic!("invariant violated under schedule {sched:?}: {msg}");
            }
        })
    }

    /// Replay `sched` from a fresh state. `None` if the final step of the
    /// schedule blocked (prefixes are only ever extended by one step, so
    /// earlier steps are already known to progress).
    fn replay<I: Fn() -> S>(&self, init: &I, sched: &[usize]) -> Option<S> {
        let mut state = init();
        let mut at = vec![0usize; self.threads.len()];
        for &t in sched {
            match self.threads[t][at[t]](&mut state) {
                StepOutcome::Progressed => at[t] += 1,
                StepOutcome::Blocked => return None,
            }
        }
        Some(state)
    }

    fn dfs<I, V>(&self, sched: &mut Vec<usize>, init: &I, visit: &mut V, count: &mut usize)
    where
        I: Fn() -> S,
        V: FnMut(&[usize], &S),
    {
        let total: usize = self.threads.iter().map(Vec::len).sum();
        if sched.len() == total {
            let state = self
                .replay(init, sched)
                .expect("a completed schedule replays without blocking");
            visit(sched, &state);
            *count += 1;
            return;
        }
        let mut taken = vec![0usize; self.threads.len()];
        for &t in sched.iter() {
            taken[t] += 1;
        }
        let mut progressed_any = false;
        for t in 0..self.threads.len() {
            if taken[t] == self.threads[t].len() {
                continue;
            }
            sched.push(t);
            if self.replay(init, sched).is_some() {
                progressed_any = true;
                self.dfs(sched, init, visit, count);
            }
            sched.pop();
        }
        if !progressed_any {
            panic!("deadlock: every unfinished thread is blocked after schedule {sched:?}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[derive(Default)]
    struct Counter {
        value: u64,
        tmp: [u64; 2],
    }

    fn unlocked_increments() -> Scenario<Counter> {
        Scenario::new()
            .thread(vec![
                step(|s: &mut Counter| s.tmp[0] = s.value),
                step(|s: &mut Counter| s.value = s.tmp[0] + 1),
            ])
            .thread(vec![
                step(|s: &mut Counter| s.tmp[1] = s.value),
                step(|s: &mut Counter| s.value = s.tmp[1] + 1),
            ])
    }

    #[test]
    fn enumerates_the_full_multinomial() {
        let sc = unlocked_increments();
        assert_eq!(sc.schedule_count(), 6);
        let ran = sc.explore(Counter::default, |_, _| {});
        assert_eq!(ran, 6);
    }

    #[test]
    fn exhaustiveness_finds_the_lost_update() {
        let mut finals = BTreeSet::new();
        unlocked_increments().explore(Counter::default, |_, s| {
            finals.insert(s.value);
        });
        // Serial schedules give 2; the four racy ones lose an update.
        assert_eq!(finals, BTreeSet::from([1, 2]));
    }

    #[derive(Default)]
    struct Locked {
        lock: bool,
        value: u64,
        tmp: [u64; 2],
    }

    fn acquire(i: usize) -> Step<Locked> {
        let _ = i;
        try_step(move |s: &mut Locked| {
            if s.lock {
                return StepOutcome::Blocked;
            }
            s.lock = true;
            StepOutcome::Progressed
        })
    }

    #[test]
    fn modelled_mutex_serialises_the_increments() {
        let thread = |i: usize| {
            vec![
                acquire(i),
                step(move |s: &mut Locked| s.tmp[i] = s.value),
                step(move |s: &mut Locked| {
                    s.value = s.tmp[i] + 1;
                    s.lock = false;
                }),
            ]
        };
        let sc = Scenario::new().thread(thread(0)).thread(thread(1));
        let ran = sc.check(Locked::default, |s| {
            if s.value == 2 {
                Ok(())
            } else {
                Err(format!("lost update: value = {}", s.value))
            }
        });
        // Blocked branches pruned: only the two serialised orders remain.
        assert_eq!(ran, 2);
    }

    #[derive(Default)]
    struct TwoLocks {
        a: bool,
        b: bool,
    }

    fn take(which: fn(&mut TwoLocks) -> &mut bool) -> Step<TwoLocks> {
        try_step(move |s: &mut TwoLocks| {
            let slot = which(s);
            if *slot {
                return StepOutcome::Blocked;
            }
            *slot = true;
            StepOutcome::Progressed
        })
    }

    #[test]
    #[should_panic(expected = "deadlock")]
    fn opposite_lock_order_is_reported_as_deadlock() {
        Scenario::new()
            .thread(vec![
                take(|s| &mut s.a),
                take(|s| &mut s.b),
                step(|s: &mut TwoLocks| {
                    s.b = false;
                    s.a = false;
                }),
            ])
            .thread(vec![
                take(|s| &mut s.b),
                take(|s| &mut s.a),
                step(|s: &mut TwoLocks| {
                    s.a = false;
                    s.b = false;
                }),
            ])
            .explore(TwoLocks::default, |_, _| {});
    }

    #[test]
    fn consistent_lock_order_explores_clean() {
        let sc = Scenario::new()
            .thread(vec![
                take(|s| &mut s.a),
                take(|s| &mut s.b),
                step(|s: &mut TwoLocks| {
                    s.b = false;
                    s.a = false;
                }),
            ])
            .thread(vec![
                take(|s| &mut s.a),
                take(|s| &mut s.b),
                step(|s: &mut TwoLocks| {
                    s.b = false;
                    s.a = false;
                }),
            ]);
        let ran = sc.explore(TwoLocks::default, |_, s| {
            assert!(!s.a && !s.b, "all locks released at quiescence");
        });
        assert_eq!(ran, 2);
    }
}
