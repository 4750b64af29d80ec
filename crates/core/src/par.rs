//! Deterministic fan-out shared by the scan and bench layers.
//!
//! The contract is stronger than "concatenate in chunk order": the *chunk
//! layout itself* is a pure function of the item count. Callers derive
//! DRBG seeds from chunk ids (`daily-campaign-{day}-{id}`), so if the
//! layout followed the worker count, a 4-core laptop and a 64-core server
//! would seed different scanners and print different tables. Instead the
//! input is always split into [`DETERMINISTIC_CHUNKS`] slices and worker
//! threads pull chunk indices from a shared queue — workers only change
//! wall-clock time, never results.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::thread::ScopedJoinHandle;

/// Fixed chunk count: every input is split into at most this many chunks,
/// regardless of how many worker threads execute them.
pub const DETERMINISTIC_CHUNKS: usize = 64;

/// The fixed, count-derived shard layout behind [`parallel_map`], exposed
/// so callers can partition *state* (per-shard accumulators, scanner
/// seeds) along exactly the same boundaries as the work items. Two values
/// of `for_len(n)` are interchangeable: the layout is a pure function of
/// the item count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardPlan {
    len: usize,
    chunk_size: usize,
}

impl ShardPlan {
    /// The layout [`parallel_map`] uses for `len` items.
    pub fn for_len(len: usize) -> Self {
        ShardPlan {
            len,
            chunk_size: len.div_ceil(DETERMINISTIC_CHUNKS).max(1),
        }
    }

    /// Number of shards (0 for an empty input, otherwise 1..=64).
    pub fn shard_count(&self) -> usize {
        self.len.div_ceil(self.chunk_size)
    }

    /// Item count.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True for the empty layout.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Index range of shard `shard` (matches `items.chunks(chunk_size)`).
    pub fn range(&self, shard: usize) -> std::ops::Range<usize> {
        let start = shard * self.chunk_size;
        start..((start + self.chunk_size).min(self.len))
    }
}

/// Join every worker of a fan-out, re-raising a worker's panic.
///
/// A scope only waits for its threads' closures to return; a thread it
/// never joins is detached and finishes exiting in the background. The
/// next fan-out could then start threads before the old ones handed their
/// malloc arenas back, and glibc would create fresh arenas for them (more
/// peak memory, at random). Joining waits for the full exit.
fn join_all<T>(handles: Vec<ScopedJoinHandle<'_, T>>) {
    for handle in handles {
        if let Err(panic) = handle.join() {
            std::panic::resume_unwind(panic);
        }
    }
}

/// Run `f(shard_id, &mut states[shard_id])` for every shard on `workers`
/// threads. The mutable-state sibling of [`parallel_map`]: each shard's
/// state is visited exactly once, shards are pulled from a shared queue,
/// and because every shard owns disjoint state the result is a pure
/// function of `(states, f)` — worker count only changes wall time.
pub fn for_each_shard<S: Send>(states: &mut [S], workers: usize, f: impl Fn(usize, &mut S) + Sync) {
    if states.is_empty() {
        return;
    }
    let workers = workers.max(1).min(states.len());
    let cells: Vec<Mutex<&mut S>> = states.iter_mut().map(Mutex::new).collect();
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                let f = &f;
                let next = &next;
                let cells = &cells;
                scope.spawn(move || loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(cell) = cells.get(i) else {
                        break;
                    };
                    let mut state = cell.lock().expect("shard state");
                    f(i, &mut state);
                })
            })
            .collect();
        join_all(handles);
    });
}

/// Worker-count override (0 = use [`available_parallelism`]), settable once
/// by the binary's `--workers` flag.
///
/// [`available_parallelism`]: std::thread::available_parallelism
static WORKER_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Deterministic parallel map: split `items` into [`DETERMINISTIC_CHUNKS`]
/// chunks, run `f(chunk_id, chunk)` on `workers` threads, concatenate in
/// chunk order. Both the chunk boundaries and the ids passed to `f` depend
/// only on `items.len()`, so the result is a pure function of
/// `(items, f)` — `workers` affects only how fast it finishes.
pub fn parallel_map<T: Sync, R: Send>(
    items: &[T],
    workers: usize,
    f: impl Fn(usize, &[T]) -> Vec<R> + Sync,
) -> Vec<R> {
    if items.is_empty() {
        return Vec::new();
    }
    let chunk_size = items.len().div_ceil(DETERMINISTIC_CHUNKS).max(1);
    let chunks: Vec<(usize, &[T])> = items.chunks(chunk_size).enumerate().collect();
    let workers = workers.max(1).min(chunks.len());
    let next = AtomicUsize::new(0);
    let done: Mutex<Vec<(usize, Vec<R>)>> = Mutex::new(Vec::with_capacity(chunks.len()));
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                let f = &f;
                let next = &next;
                let done = &done;
                let chunks = &chunks;
                scope.spawn(move || loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(&(id, chunk)) = chunks.get(i) else {
                        break;
                    };
                    let result = f(id, chunk);
                    done.lock().expect("result sink").push((id, result));
                })
            })
            .collect();
        join_all(handles);
    });
    let mut out = done.into_inner().expect("result sink");
    out.sort_by_key(|(id, _)| *id);
    out.into_iter().flat_map(|(_, v)| v).collect()
}

/// Default worker count: the `--workers` override when set, otherwise the
/// machine's available parallelism.
pub fn default_workers() -> usize {
    match WORKER_OVERRIDE.load(Ordering::Relaxed) {
        0 => std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4),
        n => n,
    }
}

/// Pin [`default_workers`] to `n` (0 restores the hardware default). Used
/// by `repro --workers N`, and by the determinism harness to prove that
/// worker count cannot reach the output.
pub fn set_default_workers(n: usize) {
    WORKER_OVERRIDE.store(n, Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_map_preserves_order() {
        let items: Vec<u32> = (0..100).collect();
        let doubled = parallel_map(&items, 7, |_id, chunk| {
            chunk.iter().map(|x| x * 2).collect()
        });
        assert_eq!(doubled, (0..100).map(|x| x * 2).collect::<Vec<u32>>());
    }

    #[test]
    fn parallel_map_empty_and_single() {
        let empty: Vec<u32> = vec![];
        assert!(parallel_map(&empty, 4, |_, c| c.to_vec()).is_empty());
        let one = vec![9u32];
        assert_eq!(parallel_map(&one, 16, |_, c| c.to_vec()), vec![9]);
    }

    #[test]
    fn chunk_layout_ignores_worker_count() {
        // The determinism contract: chunk ids and boundaries are a pure
        // function of the item count, so chunk-id-derived seeds match
        // across machines with different core counts.
        let items: Vec<u32> = (0..997).collect();
        let layout = |workers| {
            parallel_map(&items, workers, |id, chunk| {
                vec![(id, chunk.first().copied(), chunk.len())]
            })
        };
        let one = layout(1);
        assert_eq!(one, layout(3));
        assert_eq!(one, layout(8));
        assert_eq!(one, layout(61));
    }

    #[test]
    fn large_inputs_use_all_chunks() {
        let items: Vec<u32> = (0..1024).collect();
        let ids = parallel_map(&items, 4, |id, chunk| vec![id; chunk.len()]);
        let distinct: std::collections::BTreeSet<usize> = ids.iter().copied().collect();
        assert_eq!(distinct.len(), DETERMINISTIC_CHUNKS);
    }

    #[test]
    fn shard_plan_matches_parallel_map_layout() {
        // ShardPlan is advertised as *the* parallel_map layout; keep the
        // two in lockstep for a spread of sizes including the edge cases
        // (empty, single, exactly 64, one over a chunk boundary).
        for n in [0usize, 1, 5, 63, 64, 65, 128, 997, 1024, 100_000] {
            let items: Vec<usize> = (0..n).collect();
            let plan = ShardPlan::for_len(n);
            let observed = parallel_map(&items, 4, |id, chunk| vec![(id, chunk[0], chunk.len())]);
            assert_eq!(plan.shard_count(), observed.len(), "n={n}");
            for (id, first, len) in observed {
                let range = plan.range(id);
                assert_eq!(range.start, first, "n={n} shard={id}");
                assert_eq!(range.len(), len, "n={n} shard={id}");
            }
        }
    }

    #[test]
    fn for_each_shard_is_worker_independent() {
        let run = |workers| {
            let mut states: Vec<Vec<usize>> = vec![Vec::new(); 37];
            for_each_shard(&mut states, workers, |shard, state| {
                state.push(shard * 3);
                state.push(shard * 3 + 1);
            });
            states
        };
        let one = run(1);
        assert_eq!(one, run(4));
        assert_eq!(one, run(16));
        assert_eq!(one[36], vec![108, 109]);
        let mut empty: Vec<u8> = Vec::new();
        for_each_shard(&mut empty, 4, |_, _| unreachable!());
    }

    #[test]
    #[should_panic(expected = "shard 3 failed")]
    fn worker_panic_reaches_the_caller() {
        let mut states = vec![0u8; 8];
        for_each_shard(&mut states, 2, |shard, _| {
            assert!(shard != 3, "shard 3 failed")
        });
    }

    #[test]
    fn worker_override_round_trips() {
        set_default_workers(3);
        assert_eq!(default_workers(), 3);
        set_default_workers(0);
        assert!(default_workers() >= 1);
    }
}
