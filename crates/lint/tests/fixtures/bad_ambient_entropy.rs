// expect: ambient-entropy RandomState
// expect: ambient-entropy env
// Ambient entropy — OS randomness, environment variables — makes two runs
// with the same --seed diverge.
use std::collections::hash_map::RandomState;

fn seed_from_environment() -> u64 {
    let _hasher_seed = RandomState::new();
    std::env::var("REPRO_SEED").ok().and_then(|s| s.parse().ok()).unwrap_or(0)
}
