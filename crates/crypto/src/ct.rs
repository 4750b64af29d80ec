//! Constant-time primitives: comparisons and selection.
//!
//! Everything here avoids secret-dependent branches and secret-dependent
//! memory access. The workspace's `ts-lint` analyzer flags `==`/`!=` on
//! secret-tainted bytes; these helpers are the sanctioned replacements.

/// Compare two byte slices in constant time (for equal lengths).
///
/// Returns `false` immediately if the lengths differ — length is public in
/// every context this crate uses (MAC tags, finished digests).
pub fn ct_eq(a: &[u8], b: &[u8]) -> bool {
    if a.len() != b.len() {
        return false;
    }
    let mut diff = 0u8;
    for (x, y) in a.iter().zip(b.iter()) {
        diff |= x ^ y;
    }
    diff == 0
}

/// Compare two fixed-size byte arrays in constant time.
///
/// The const generic pins the lengths at compile time, so unlike [`ct_eq`]
/// there is no early length exit at all: the comparison cost depends only
/// on `N`.
pub fn ct_eq_array<const N: usize>(a: &[u8; N], b: &[u8; N]) -> bool {
    let mut diff = 0u8;
    for i in 0..N {
        diff |= a[i] ^ b[i];
    }
    diff == 0
}

/// Select `a` if `mask == u64::MAX`, `b` if `mask == 0`, without branching.
///
/// The windowed Montgomery exponentiation in [`crate::bignum`] scans its
/// whole precomputed table with masks from [`ct_eq_u64_mask`] so the
/// secret window value never selects a memory address.
pub fn ct_select_u64(mask: u64, a: u64, b: u64) -> u64 {
    (mask & a) | (!mask & b)
}

/// Branchless `u64::MAX` if `a == b`, else `0`.
pub fn ct_eq_u64_mask(a: u64, b: u64) -> u64 {
    // (d | -d) has its top bit set iff d != 0; shift it down and subtract
    // from 0/1 to smear into an all-or-nothing mask.
    let d = a ^ b;
    ((d | d.wrapping_neg()) >> 63).wrapping_sub(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_slices() {
        assert!(ct_eq(b"", b""));
        assert!(ct_eq(b"abc", b"abc"));
    }

    #[test]
    fn unequal_slices() {
        assert!(!ct_eq(b"abc", b"abd"));
        assert!(!ct_eq(b"abc", b"ab"));
        assert!(!ct_eq(b"", b"a"));
    }

    #[test]
    fn first_and_last_byte_differences() {
        assert!(!ct_eq(b"xbc", b"abc"));
        assert!(!ct_eq(b"abx", b"abc"));
    }

    #[test]
    fn array_comparison_matches_slice_comparison() {
        let a = [1u8, 2, 3, 4];
        let b = [1u8, 2, 3, 4];
        let c = [1u8, 2, 3, 5];
        assert!(ct_eq_array(&a, &b));
        assert!(!ct_eq_array(&a, &c));
        assert!(ct_eq_array::<0>(&[], &[]));
        for i in 0..32 {
            let mut x = [0xAAu8; 32];
            let y = [0xAAu8; 32];
            x[i] ^= 1;
            assert!(!ct_eq_array(&x, &y), "difference at byte {i} missed");
        }
    }

    #[test]
    fn select_u64_picks_by_mask() {
        assert_eq!(ct_select_u64(u64::MAX, 0x12, 0x34), 0x12);
        assert_eq!(ct_select_u64(0, 0x12, 0x34), 0x34);
    }

    #[test]
    fn eq_u64_mask_is_all_or_nothing() {
        assert_eq!(ct_eq_u64_mask(0, 0), u64::MAX);
        assert_eq!(ct_eq_u64_mask(u64::MAX, u64::MAX), u64::MAX);
        assert_eq!(ct_eq_u64_mask(5, 6), 0);
        assert_eq!(ct_eq_u64_mask(1 << 63, 0), 0);
        for i in 0..64 {
            assert_eq!(ct_eq_u64_mask(1 << i, 0), 0, "bit {i}");
            assert_eq!(ct_eq_u64_mask(1 << i, 1 << i), u64::MAX, "bit {i}");
        }
    }
}
