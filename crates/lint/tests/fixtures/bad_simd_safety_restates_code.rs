// expect: simd-dispatch-gate blocks4
//
// The dispatch path is gated correctly, but the SAFETY comment restates
// the code (bounds arithmetic) instead of the invariant that actually
// makes the `unsafe` sound — which CPUID detect gates this path. The
// comment must name the gate so a reader can audit the pairing.

fn mul_available() -> bool {
    true
}

#[target_feature(enable = "pclmulqdq")]
unsafe fn blocks4(x: &mut [u8]) {
    x[0] = x[0].wrapping_add(1);
}

fn driver(x: &mut [u8]) {
    if mul_available() {
        // SAFETY: offsets are in bounds for the 16-byte block.
        unsafe { blocks4(x) }
    }
}
