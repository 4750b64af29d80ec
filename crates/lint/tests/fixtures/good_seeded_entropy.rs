// All randomness flows from an explicit caller-provided seed, so replaying
// the seed replays the run.
pub struct SeededRng(u64);

impl SeededRng {
    fn from_seed(seed: u64) -> Self {
        SeededRng(seed)
    }

    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
        self.0
    }
}
