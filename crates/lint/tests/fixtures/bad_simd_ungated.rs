// expect: simd-dispatch-gate gf_mul8
//
// The kernel's SAFETY comment claims an upstream CPUID check, but no
// caller path back through the call graph ever crosses one: `update`
// reaches `fold` reaches the #[target_feature] kernel unconditionally.
// On a CPU without AVX2 this is an illegal-instruction fault.

#[target_feature(enable = "avx2")]
unsafe fn gf_mul8(x: &mut [u8]) {
    x[0] = x[0].wrapping_add(1);
}

fn fold(x: &mut [u8]) {
    // SAFETY: caller verified CPUID avx2 support upstream.
    unsafe { gf_mul8(x) }
}

fn update(x: &mut [u8]) {
    fold(x);
}
