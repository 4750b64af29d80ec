// Experiment logic runs on virtual time threaded in by the caller; wall
// clocks are fine inside #[cfg(test)] code, which the analyzer exempts.
fn span_days(first_seen: u64, last_seen: u64) -> u64 {
    (last_seen - first_seen) / 86_400 + 1
}

#[cfg(test)]
mod tests {
    use std::time::Instant;

    #[test]
    fn timing_inside_tests_is_exempt() {
        let t = Instant::now();
        assert_eq!(super::span_days(0, 86_400), 2);
        assert!(t.elapsed().as_secs() < 60);
    }
}
