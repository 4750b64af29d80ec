// A sound SIMD dispatch: the only path to the #[target_feature] kernel
// crosses a CPUID detect, and the SAFETY comment names that gate as the
// invariant (not the bounds arithmetic the compiler already sees).

fn fold_available() -> bool {
    true
}

#[target_feature(enable = "avx2")]
unsafe fn fold8(x: &mut [u8]) {
    x[0] = x[0].wrapping_add(1);
}

fn fold(x: &mut [u8]) {
    if fold_available() {
        // SAFETY: fold_available() gates this path on the CPUID avx2
        // detect, so the target-feature contract holds at every call.
        unsafe { fold8(x) }
    } else {
        x[0] = x[0].wrapping_add(1);
    }
}
