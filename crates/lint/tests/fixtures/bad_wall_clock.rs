// expect: wall-clock Instant
// expect: wall-clock SystemTime
// Wall-clock reads in experiment logic make results depend on when (and
// how fast) the run happened instead of on the seed.
use std::time::{Instant, SystemTime, UNIX_EPOCH};

fn jittered_day() -> u64 {
    let t = Instant::now();
    let epoch = SystemTime::now().duration_since(UNIX_EPOCH).unwrap().as_secs();
    epoch / 86_400 + t.elapsed().as_secs()
}
