// expect: test-only-api window_days
// expect: test-only-api sealed_ids
// A public function that only tests call is API the study carries
// without using: a caller in `#[cfg(test)]` code or a `mod tests` block
// does not count, and neither does the function's own recursion.
pub fn window_days(first: u64, last: u64) -> u64 {
    last - first + 1
}

pub fn sealed_ids(depth: u32) -> u32 {
    if depth == 0 {
        0
    } else {
        1 + sealed_ids(depth - 1)
    }
}

#[cfg(test)]
fn check_window() {
    assert_eq!(window_days(3, 5), 3);
}

#[cfg(test)]
mod tests {
    #[test]
    fn ids() {
        assert_eq!(super::sealed_ids(2), 2);
    }
}
