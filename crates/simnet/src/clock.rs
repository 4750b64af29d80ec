//! Virtual time.
//!
//! One tick = one second. Day arithmetic matches the study's cadence:
//! the 9-week campaign spans days 0..63, with daily scans at a fixed
//! within-day offset.

/// Seconds per virtual day.
pub const DAY: u64 = 86_400;
/// Seconds per hour.
pub const HOUR: u64 = 3_600;
/// Seconds per minute.
pub const MINUTE: u64 = 60;

/// A virtual clock. Plain value type — the simulation threads one through
/// explicitly rather than hiding global state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Clock {
    now: u64,
}

impl Clock {
    /// Start of time.
    pub fn new() -> Self {
        Clock { now: 0 }
    }

    /// A clock at an absolute second.
    pub fn at(now: u64) -> Self {
        Clock { now }
    }

    /// Current virtual second.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Advance by `secs`.
    pub fn advance(&mut self, secs: u64) {
        self.now += secs;
    }

    /// Day index (0-based).
    pub fn day(&self) -> u64 {
        self.now / DAY
    }
}

impl Default for Clock {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn advance_and_day_math() {
        let mut c = Clock::new();
        assert_eq!(c.now(), 0);
        assert_eq!(c.day(), 0);
        c.advance(DAY - 1);
        assert_eq!(c.day(), 0);
        c.advance(1);
        assert_eq!(c.day(), 1);
        c.advance(HOUR * 3 + 30);
        assert_eq!(c.now(), DAY + HOUR * 3 + 30);
    }
}
