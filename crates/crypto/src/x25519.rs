//! X25519 elliptic-curve Diffie-Hellman (RFC 7748).
//!
//! The ECDHE side of the study. The field is GF(2^255 - 19) in five 51-bit
//! limbs held in `u64`s with `u128` products (the "donna-64"
//! representation), with no data-dependent branches in the limb loops.
//! Pinned to the RFC 7748 §5.2 test vectors and the iterated-ladder vector.
//!
//! Two scalar multiplications share that field:
//!
//! * [`x25519`] multiplies an arbitrary point with the Montgomery ladder.
//!   It is the only code for a peer's point, and the reference the tests
//!   hold the comb to.
//! * [`public_key`] multiplies the fixed base point with the ref10 comb
//!   (Bernstein et al., "High-speed high-security signatures", 2011) on
//!   edwards25519, the twisted Edwards curve birationally equivalent to
//!   Curve25519. The clamped scalar is recoded into 64 signed radix-16
//!   digits −8 ≤ e\[i\] ≤ 8, so k = Σ e\[i\]·16^i. A process-wide table
//!   holds `(j+1)·256^i·B` for i < 32, j < 8 in affine Niels form
//!   (y+x, y−x, 2d·xy): 256 entries, 30 KiB, built once in a `OnceLock`
//!   on first use. The odd digits are summed with 32 mixed additions,
//!   the sum is multiplied by 16 with four doublings, and the even digits
//!   add 32 more. The Montgomery u-coordinate is u = (1+y)/(1−y) =
//!   (Z+Y)/(Z−Y); it depends on y only, so the sign of B's x is
//!   immaterial. A clamped scalar is 2^254 plus a multiple of 8 below
//!   2^254, never a multiple of B's prime order ℓ (4ℓ is the only multiple
//!   of ℓ in range and it is not divisible by 8), so Z−Y is never zero.
//!
//! Constant time. Digit recoding is shifts and adds. A digit's table entry
//! is chosen by reading all eight entries of its row and keeping one
//! through a `ct_eq_u64_mask` mask; a negative digit swaps y+x with y−x
//! and negates 2d·xy, again through a mask. No branch or address depends
//! on the scalar, in the ladder or in the comb.
//!
//! Limb-bound discipline (the invariants the carry chains rely on):
//! reduced elements (outputs of [`Fe::mul`], [`Fe::square`],
//! [`Fe::mul_small`] and [`Fe::carry`]) have limbs < 2^51 + 2^11.
//! [`Fe::add`] and [`Fe::sub`] emit limbs < 2^53 without re-carrying, and
//! [`Fe::mul`]/[`Fe::square`] accept limbs < 2^53. [`Fe::sub`] adds 2p
//! limbwise, so its subtrahend must be reduced. Hence:
//!
//! * the ladder needs no carry pass: `da + cb` and `aa + 121665·e` are
//!   sums of two reduced elements (< 2^52 + 2^12) fed straight into a
//!   square or multiply, and every subtrahend is reduced (a product, or
//!   the starting 0 or 1);
//! * the mixed addition needs none either: its subtrahends are products,
//!   and its widest operand, 2Z + C, is a sum of three reduced elements
//!   (< 2^53);
//! * the doubling carries X² + Y² and Y² − X², the two values it later
//!   subtracts, and forms 2Z² with `mul_small(2)` so it stays reduced.

use crate::ct::{ct_eq, ct_eq_u64_mask, ct_select_u64};
use crate::error::CryptoError;
use std::sync::OnceLock;

/// Length of scalars and public values.
pub const KEY_LEN: usize = 32;

/// 51-bit limb mask.
const MASK: u64 = (1 << 51) - 1;

/// Field element in GF(2^255 - 19): five limbs, radix 2^51.
#[derive(Clone, Copy)]
struct Fe([u64; 5]);

/// Full 64×64→128 product.
#[inline(always)]
fn m(a: u64, b: u64) -> u128 {
    a as u128 * b as u128
}

/// Carry-reduce the five wide column sums of a product into a reduced
/// element, folding the top carry back through 2^255 ≡ 19.
#[inline(always)]
fn carry_wide(r: [u128; 5]) -> Fe {
    let mut out = [0u64; 5];
    let mut c: u64 = 0;
    for i in 0..5 {
        let v = r[i] + c as u128;
        out[i] = (v as u64) & MASK;
        c = (v >> 51) as u64;
    }
    let t0 = out[0] + c * 19;
    out[0] = t0 & MASK;
    out[1] += t0 >> 51;
    Fe(out)
}

impl Fe {
    const ZERO: Fe = Fe([0; 5]);
    const ONE: Fe = Fe([1, 0, 0, 0, 0]);

    fn from_bytes(bytes: &[u8; 32]) -> Fe {
        // Little-endian; top bit masked per RFC 7748.
        let load = |b: &[u8]| -> u64 { u64::from_le_bytes(b.try_into().expect("8 bytes")) };
        Fe([
            load(&bytes[0..8]) & MASK,
            (load(&bytes[6..14]) >> 3) & MASK,
            (load(&bytes[12..20]) >> 6) & MASK,
            (load(&bytes[19..27]) >> 1) & MASK,
            (load(&bytes[24..32]) >> 12) & MASK, // top bit dropped
        ])
    }

    fn to_bytes(self) -> [u8; 32] {
        // Bring limbs near-canonical, then subtract p exactly once if the
        // value is ≥ p: q is the carry out of (value + 19) at bit 255.
        let mut t = self.carry().0;
        let mut q = (t[0] + 19) >> 51;
        q = (t[1] + q) >> 51;
        q = (t[2] + q) >> 51;
        q = (t[3] + q) >> 51;
        q = (t[4] + q) >> 51;
        t[0] += 19 * q;
        for i in 0..4 {
            let c = t[i] >> 51;
            t[i] &= MASK;
            t[i + 1] += c;
        }
        t[4] &= MASK;
        // t is now canonical; pack 5×51 bits little-endian.
        let mut out = [0u8; 32];
        let mut acc: u128 = 0;
        let mut acc_bits = 0;
        let mut idx = 0;
        for &limb in t.iter() {
            acc |= (limb as u128) << acc_bits;
            acc_bits += 51;
            while acc_bits >= 8 {
                out[idx] = acc as u8;
                idx += 1;
                acc >>= 8;
                acc_bits -= 8;
            }
        }
        if idx < 32 {
            out[idx] = acc as u8;
        }
        out
    }

    fn add(&self, other: &Fe) -> Fe {
        let mut out = [0u64; 5];
        for i in 0..5 {
            out[i] = self.0[i] + other.0[i];
        }
        Fe(out)
    }

    fn sub(&self, other: &Fe) -> Fe {
        // Add 2p before subtracting to keep limbs non-negative; consumers
        // tolerate the < 2^53 limbs without an extra carry pass.
        const P2: [u64; 5] = [
            0xfffffffffffda, // 2^52 - 38
            0xffffffffffffe, // 2^52 - 2
            0xffffffffffffe,
            0xffffffffffffe,
            0xffffffffffffe,
        ]; // 2p in this radix
        let mut out = [0u64; 5];
        for i in 0..5 {
            out[i] = self.0[i] + P2[i] - other.0[i];
        }
        Fe(out)
    }

    fn carry(mut self) -> Fe {
        for _ in 0..2 {
            for i in 0..4 {
                let c = self.0[i] >> 51;
                self.0[i] &= MASK;
                self.0[i + 1] += c;
            }
            let c = self.0[4] >> 51;
            self.0[4] &= MASK;
            self.0[0] += 19 * c;
        }
        self
    }

    fn mul(&self, other: &Fe) -> Fe {
        let [a0, a1, a2, a3, a4] = self.0;
        let [b0, b1, b2, b3, b4] = other.0;
        // Wraparound columns pick up the 2^255 ≡ 19 factor; pre-scaling
        // the ≤ 2^53 operands by 19 stays comfortably inside u64.
        let b1_19 = b1 * 19;
        let b2_19 = b2 * 19;
        let b3_19 = b3 * 19;
        let b4_19 = b4 * 19;
        carry_wide([
            m(a0, b0) + m(a1, b4_19) + m(a2, b3_19) + m(a3, b2_19) + m(a4, b1_19),
            m(a0, b1) + m(a1, b0) + m(a2, b4_19) + m(a3, b3_19) + m(a4, b2_19),
            m(a0, b2) + m(a1, b1) + m(a2, b0) + m(a3, b4_19) + m(a4, b3_19),
            m(a0, b3) + m(a1, b2) + m(a2, b1) + m(a3, b0) + m(a4, b4_19),
            m(a0, b4) + m(a1, b3) + m(a2, b2) + m(a3, b1) + m(a4, b0),
        ])
    }

    fn square(&self) -> Fe {
        let [a0, a1, a2, a3, a4] = self.0;
        let a0_2 = a0 * 2;
        let a1_2 = a1 * 2;
        let a1_38 = a1 * 38;
        let a2_38 = a2 * 38;
        let a3_38 = a3 * 38;
        let a3_19 = a3 * 19;
        let a4_19 = a4 * 19;
        carry_wide([
            m(a0, a0) + m(a1_38, a4) + m(a2_38, a3),
            m(a0_2, a1) + m(a2_38, a4) + m(a3_19, a3),
            m(a0_2, a2) + m(a1, a1) + m(a3_38, a4),
            m(a0_2, a3) + m(a1_2, a2) + m(a4_19, a4),
            m(a0_2, a4) + m(a1_2, a3) + m(a2, a2),
        ])
    }

    /// `self^(2^k)`: `k` successive squarings.
    fn square_times(&self, k: u32) -> Fe {
        let mut r = *self;
        for _ in 0..k {
            r = r.square();
        }
        r
    }

    fn mul_small(&self, k: u64) -> Fe {
        let mut out = [0u64; 5];
        let mut c: u128 = 0;
        for i in 0..5 {
            let v = m(self.0[i], k) + c;
            out[i] = (v as u64) & MASK;
            c = v >> 51;
        }
        let t0 = out[0] as u128 + c * 19;
        out[0] = (t0 as u64) & MASK;
        out[1] += (t0 >> 51) as u64;
        Fe(out)
    }

    /// Inversion via Fermat: a^(p-2), p − 2 = 2^255 − 21, by the ref10
    /// addition chain (254 squarings, 11 multiplications).
    fn invert(&self) -> Fe {
        let z2 = self.square();
        let z9 = self.mul(&z2.square_times(2));
        let z11 = z2.mul(&z9);
        let z_5_0 = z9.mul(&z11.square()); // z^(2^5 - 1)
        let z_10_0 = z_5_0.square_times(5).mul(&z_5_0);
        let z_20_0 = z_10_0.square_times(10).mul(&z_10_0);
        let z_40_0 = z_20_0.square_times(20).mul(&z_20_0);
        let z_50_0 = z_40_0.square_times(10).mul(&z_10_0);
        let z_100_0 = z_50_0.square_times(50).mul(&z_50_0);
        let z_200_0 = z_100_0.square_times(100).mul(&z_100_0);
        let z_250_0 = z_200_0.square_times(50).mul(&z_50_0);
        // (2^250 − 1)·2^5 + 11 = 2^255 − 21.
        z_250_0.square_times(5).mul(&z11)
    }

    /// Replace `self` with `other` where `mask` is all-ones; keep it where
    /// `mask` is zero.
    fn cmov(&mut self, other: &Fe, mask: u64) {
        for i in 0..5 {
            self.0[i] = ct_select_u64(mask, other.0[i], self.0[i]);
        }
    }
}

fn cswap(swap: u8, a: &mut Fe, b: &mut Fe) {
    let mask = (swap as u64).wrapping_neg();
    for i in 0..5 {
        let x = mask & (a.0[i] ^ b.0[i]);
        a.0[i] ^= x;
        b.0[i] ^= x;
    }
}

/// Clamp a 32-byte scalar per RFC 7748 §5.
pub fn clamp_scalar(scalar: &mut [u8; 32]) {
    scalar[0] &= 248;
    scalar[31] &= 127;
    scalar[31] |= 64;
}

/// The X25519 function: scalar multiplication on Curve25519.
pub fn x25519(scalar: &[u8; 32], point: &[u8; 32]) -> [u8; 32] {
    let mut k = *scalar;
    clamp_scalar(&mut k);
    let x1 = Fe::from_bytes(point);
    let mut x2 = Fe::ONE;
    let mut z2 = Fe::ZERO;
    let mut x3 = x1;
    let mut z3 = Fe::ONE;
    let mut swap = 0u8;
    for t in (0..255).rev() {
        let k_t = (k[t / 8] >> (t % 8)) & 1;
        swap ^= k_t;
        cswap(swap, &mut x2, &mut x3);
        cswap(swap, &mut z2, &mut z3);
        swap = k_t;
        let a = x2.add(&z2);
        let aa = a.square();
        let b = x2.sub(&z2);
        let bb = b.square();
        let e = aa.sub(&bb);
        let c = x3.add(&z3);
        let d = x3.sub(&z3);
        let da = d.mul(&a);
        let cb = c.mul(&b);
        x3 = da.add(&cb).square();
        z3 = x1.mul(&da.sub(&cb).square());
        x2 = aa.mul(&bb);
        z2 = e.mul(&aa.add(&e.mul_small(121665)));
    }
    cswap(swap, &mut x2, &mut x3);
    cswap(swap, &mut z2, &mut z3);
    x2.mul(&z2.invert()).to_bytes()
}

/// The canonical base point (u = 9).
pub const BASEPOINT: [u8; 32] = {
    let mut b = [0u8; 32];
    b[0] = 9;
    b
};

/// The encodings of every point of order 1, 2, 4 or 8, bit 255 clear:
/// u = 0, 1, the two order-8 points, p − 1, p and p + 1 (libsodium's
/// `has_small_order` list).
const SMALL_ORDER: [[u8; 32]; 7] = {
    let mut top = [0xff; 32];
    top[31] = 0x7f;
    let (mut p_minus_1, mut p, mut p_plus_1) = (top, top, top);
    p_minus_1[0] = 0xec;
    p[0] = 0xed;
    p_plus_1[0] = 0xee;
    let mut one = [0u8; 32];
    one[0] = 1;
    [
        [0; 32],
        one,
        [
            0xe0, 0xeb, 0x7a, 0x7c, 0x3b, 0x41, 0xb8, 0xae, 0x16, 0x56, 0xe3, 0xfa, 0xf1, 0x9f,
            0xc4, 0x6a, 0xda, 0x09, 0x8d, 0xeb, 0x9c, 0x32, 0xb1, 0xfd, 0x86, 0x62, 0x05, 0x16,
            0x5f, 0x49, 0xb8, 0x00,
        ],
        [
            0x5f, 0x9c, 0x95, 0xbc, 0xa3, 0x50, 0x8c, 0x24, 0xb1, 0xd0, 0xb1, 0x55, 0x9c, 0x83,
            0xef, 0x5b, 0x04, 0x44, 0x5c, 0xc4, 0x58, 0x1c, 0x8e, 0x86, 0xd8, 0x22, 0x4e, 0xdd,
            0xd0, 0x9f, 0x11, 0x57,
        ],
        p_minus_1,
        p,
        p_plus_1,
    ]
};

/// Is `u` a low-order point? Bit 255 is ignored, as RFC 7748 masks it.
/// Every scalar maps such a point to the all-zero output, so a peer value
/// can be refused where it is parsed, before any ladder runs. The value
/// is public, so the comparison need not be constant time.
pub fn has_small_order(u: &[u8; 32]) -> bool {
    let mut masked = *u;
    masked[31] &= 0x7f;
    SMALL_ORDER.contains(&masked)
}

/// 2d, where d = −121665/121666 is the edwards25519 curve constant.
const D2: Fe = Fe([
    0x69b9426b2f159,
    0x35050762add7a,
    0x3cf44c0038052,
    0x6738cc7407977,
    0x2406d9dc56dff,
]);

/// The edwards25519 base point B: y = 4/5, x even. It maps to u = 9.
const B_X: Fe = Fe([
    0x62d608f25d51a,
    0x412a4b4f6592a,
    0x75b7171a4b31d,
    0x1ff60527118fe,
    0x216936d3cd6e5,
]);
const B_Y: Fe = Fe([
    0x6666666666658,
    0x4cccccccccccc,
    0x1999999999999,
    0x3333333333333,
    0x6666666666666,
]);

/// An edwards25519 point in extended coordinates: x = X/Z, y = Y/Z,
/// xy = T/Z. Every coordinate is reduced.
#[derive(Clone, Copy)]
struct Ext {
    x: Fe,
    y: Fe,
    z: Fe,
    t: Fe,
}

/// An affine point in Niels form, the table's entry type.
#[derive(Clone, Copy)]
struct Niels {
    y_plus_x: Fe,
    y_minus_x: Fe,
    xy2d: Fe,
}

impl Ext {
    const IDENTITY: Ext = Ext {
        x: Fe::ZERO,
        y: Fe::ONE,
        z: Fe::ONE,
        t: Fe::ZERO,
    };

    /// The point with x = E/G, y = H/F, from the E, F, G, H that end
    /// both formulas of Hisil et al., "Twisted Edwards curves revisited".
    fn from_efgh(e: Fe, f: Fe, g: Fe, h: Fe) -> Ext {
        Ext {
            x: e.mul(&f),
            y: g.mul(&h),
            z: f.mul(&g),
            t: e.mul(&h),
        }
    }

    /// `self + q` (mixed addition, a = −1).
    fn madd(&self, q: &Niels) -> Ext {
        let a = self.y.add(&self.x).mul(&q.y_plus_x);
        let b = self.y.sub(&self.x).mul(&q.y_minus_x);
        let c = self.t.mul(&q.xy2d);
        let d = self.z.add(&self.z);
        Ext::from_efgh(a.sub(&b), d.sub(&c), d.add(&c), a.add(&b))
    }

    /// `2·self`, reading X, Y and Z only. F and H are the negatives of the
    /// paper's doubling values, which leaves x = E/G and y = H/F unchanged.
    fn double(&self) -> Ext {
        let xx = self.x.square();
        let yy = self.y.square();
        let zz2 = self.z.square().mul_small(2);
        let h = yy.add(&xx).carry();
        let g = yy.sub(&xx).carry();
        let e = self.x.add(&self.y).square().sub(&h);
        Ext::from_efgh(e, zz2.sub(&g), g, h)
    }

    /// The affine Niels form; one inversion (table build only).
    fn to_niels(self) -> Niels {
        let z_inv = self.z.invert();
        let x = self.x.mul(&z_inv);
        let y = self.y.mul(&z_inv);
        Niels {
            y_plus_x: y.add(&x),
            y_minus_x: y.sub(&x),
            xy2d: x.mul(&y).mul(&D2),
        }
    }
}

impl Niels {
    const IDENTITY: Niels = Niels {
        y_plus_x: Fe::ONE,
        y_minus_x: Fe::ONE,
        xy2d: Fe::ZERO,
    };

    fn cmov(&mut self, other: &Niels, mask: u64) {
        self.y_plus_x.cmov(&other.y_plus_x, mask);
        self.y_minus_x.cmov(&other.y_minus_x, mask);
        self.xy2d.cmov(&other.xy2d, mask);
    }
}

/// `table[i][j] = (j+1)·256^i·B`.
type CombTable = [[Niels; 8]; 32];

/// The comb table: public data, built once per process on first use.
fn comb_table() -> &'static CombTable {
    static TABLE: OnceLock<CombTable> = OnceLock::new();
    TABLE.get_or_init(|| {
        let mut table = [[Niels::IDENTITY; 8]; 32];
        let mut row_base = Ext {
            x: B_X,
            y: B_Y,
            z: Fe::ONE,
            t: B_X.mul(&B_Y),
        };
        for row in table.iter_mut() {
            let step = row_base.to_niels();
            let mut multiple = row_base;
            row[0] = step;
            for entry in row.iter_mut().skip(1) {
                multiple = multiple.madd(&step);
                *entry = multiple.to_niels();
            }
            for _ in 0..8 {
                row_base = row_base.double();
            }
        }
        table
    })
}

/// `b·row[0]` for a signed digit −8 ≤ b ≤ 8, in constant time: all eight
/// entries are read and one is kept through a mask, then negated through
/// a mask when `b < 0`.
fn select(row: &[Niels; 8], b: i8) -> Niels {
    let neg = (b as i64 >> 63) as u64;
    let abs = (b as i64 as u64 ^ neg).wrapping_sub(neg);
    let mut t = Niels::IDENTITY;
    for (j, entry) in (1u64..).zip(row.iter()) {
        t.cmov(entry, ct_eq_u64_mask(abs, j));
    }
    let minus = Niels {
        y_plus_x: t.y_minus_x,
        y_minus_x: t.y_plus_x,
        xy2d: Fe::ZERO.sub(&t.xy2d),
    };
    t.cmov(&minus, neg);
    t
}

/// Compute the public key for a secret scalar: `x25519(secret,
/// &BASEPOINT)`, by the fixed-base comb.
pub fn public_key(secret: &[u8; 32]) -> [u8; 32] {
    let mut k = *secret;
    clamp_scalar(&mut k);
    // Signed radix-16 digits: each nibble takes the carry from the one
    // below and gives 16 back when it reaches 8. The clamped top nibble is
    // 4..=7, so e[63] ≤ 8.
    let mut e = [0i8; 64];
    for (pair, byte) in e.chunks_exact_mut(2).zip(k.iter()) {
        pair[0] = (byte & 15) as i8;
        pair[1] = (byte >> 4) as i8;
    }
    let mut carry = 0i8;
    for digit in e.iter_mut().take(63) {
        *digit += carry;
        carry = (*digit + 8) >> 4;
        *digit -= carry << 4;
    }
    e[63] += carry;
    let table = comb_table();
    // Σ e[2i+1]·256^i·B, times 16, plus Σ e[2i]·256^i·B.
    let mut h = Ext::IDENTITY;
    for (row, pair) in table.iter().zip(e.chunks_exact(2)) {
        h = h.madd(&select(row, pair[1]));
    }
    for _ in 0..4 {
        h = h.double();
    }
    for (row, pair) in table.iter().zip(e.chunks_exact(2)) {
        h = h.madd(&select(row, pair[0]));
    }
    h.z.add(&h.y).mul(&h.z.sub(&h.y).invert()).to_bytes()
}

/// An X25519 key pair.
// ctlint: secret
#[derive(Clone)]
pub struct X25519KeyPair {
    /// The (clamped-on-use) secret scalar `d_A`.
    pub secret: [u8; 32],
    /// The public point `d_A · G`.
    // ctlint: public
    pub public: [u8; 32],
}

impl std::fmt::Debug for X25519KeyPair {
    /// Redacting: the scalar never reaches a formatter.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "X25519KeyPair(secret=<redacted>)")
    }
}

impl crate::wipe::Wipe for X25519KeyPair {
    fn wipe(&mut self) {
        crate::wipe::wipe_bytes(&mut self.secret);
    }
}

impl Drop for X25519KeyPair {
    /// Cached ECDHE scalars are the paper's headline exposure; scrub on
    /// eviction from the reuse pool (or any other drop).
    fn drop(&mut self) {
        use crate::wipe::Wipe;
        self.wipe();
    }
}

impl X25519KeyPair {
    /// Generate from a DRBG.
    pub fn generate(rng: &mut crate::drbg::HmacDrbg) -> Self {
        let mut secret = [0u8; 32];
        rng.fill_bytes(&mut secret);
        let public = public_key(&secret);
        X25519KeyPair { secret, public }
    }

    /// Shared secret with a peer public value.
    ///
    /// A low-order peer value (u = 0, 1, p−1, the two order-8 points, and
    /// their non-canonical encodings) yields an all-zero output, which
    /// RFC 7748 §6.1 lets a caller reject and RFC 8422 §5.11 says TLS must:
    /// that is [`CryptoError::InvalidPublicValue`].
    pub fn shared_secret(&self, peer_public: &[u8; 32]) -> Result<[u8; 32], CryptoError> {
        let shared = x25519(&self.secret, peer_public);
        if ct_eq(&shared, &[0u8; 32]) {
            return Err(CryptoError::InvalidPublicValue);
        }
        Ok(shared)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unhex32(s: &str) -> [u8; 32] {
        let mut out = [0u8; 32];
        for i in 0..32 {
            out[i] = u8::from_str_radix(&s[2 * i..2 * i + 2], 16).unwrap();
        }
        out
    }

    fn hex(b: &[u8]) -> String {
        b.iter().map(|x| format!("{x:02x}")).collect()
    }

    // RFC 7748 §5.2 test vector 1.
    #[test]
    fn rfc7748_vector1() {
        let scalar = unhex32("a546e36bf0527c9d3b16154b82465edd62144c0ac1fc5a18506a2244ba449ac4");
        let point = unhex32("e6db6867583030db3594c1a424b15f7c726624ec26b3353b10a903a6d0ab1c4c");
        let out = x25519(&scalar, &point);
        assert_eq!(
            hex(&out),
            "c3da55379de9c6908e94ea4df28d084f32eccf03491c71f754b4075577a28552"
        );
    }

    // RFC 7748 §5.2 test vector 2.
    #[test]
    fn rfc7748_vector2() {
        let scalar = unhex32("4b66e9d4d1b4673c5ad22691957d6af5c11b6421e0ea01d42ca4169e7918ba0d");
        let point = unhex32("e5210f12786811d3f4b7959d0538ae2c31dbe7106fc03c3efc4cd549c715a493");
        let out = x25519(&scalar, &point);
        assert_eq!(
            hex(&out),
            "95cbde9476e8907d7aade45cb4b873f88b595a68799fa152e6f8f7647aac7957"
        );
    }

    // RFC 7748 §6.1 Diffie-Hellman vector.
    #[test]
    fn rfc7748_dh_vector() {
        let alice_sk = unhex32("77076d0a7318a57d3c16c17251b26645df4c2f87ebc0992ab177fba51db92c2a");
        let bob_sk = unhex32("5dab087e624a8a4b79e17f8b83800ee66f3bb1292618b6fd1c2f8b27ff88e0eb");
        let alice_pk = public_key(&alice_sk);
        assert_eq!(
            hex(&alice_pk),
            "8520f0098930a754748b7ddcb43ef75a0dbf3a0d26381af4eba4a98eaa9b4e6a"
        );
        let bob_pk = public_key(&bob_sk);
        assert_eq!(
            hex(&bob_pk),
            "de9edb7d7b7dc1b4d35b61c2ece435373f8343c85b78674dadfc7e146f882b4f"
        );
        let k1 = x25519(&alice_sk, &bob_pk);
        let k2 = x25519(&bob_sk, &alice_pk);
        assert_eq!(k1, k2);
        assert_eq!(
            hex(&k1),
            "4a5d9d5ba4ce2de1728e3bf480350f25e07e21c947d19e3376f09b3c1e161742"
        );
    }

    // RFC 7748 §5.2 iterated vectors: 1 and 1000 iterations.
    #[test]
    fn rfc7748_iterated() {
        let once = x25519(&BASEPOINT, &BASEPOINT);
        assert_eq!(
            hex(&once),
            "422c8e7a6227d7bca1350b3e2bb7279f7897b87bb6854b783c60e80311ae3079"
        );
        let mut k = BASEPOINT;
        let mut u = BASEPOINT;
        for _ in 0..1000 {
            let r = x25519(&k, &u);
            u = k;
            k = r;
        }
        assert_eq!(
            hex(&k),
            "684cf59ba83309552800ef566f2f4d3c1c3887c49360e3875f2eb94d99532c51"
        );
    }

    #[test]
    fn comb_matches_ladder_on_recoding_edges() {
        // All-zero and all-ones; every nibble 8 (each becomes −8 with a
        // carry) and every nibble 7; digit 62 = 15, carrying into digit 63.
        let mut top_carry = [0u8; 32];
        top_carry[31] = 0x4f;
        let mut scalars = vec![[0u8; 32], [0xff; 32], [0x88; 32], [0x77; 32], top_carry];
        let mut rng = crate::drbg::HmacDrbg::new(b"comb");
        let rounds = if cfg!(miri) { 2 } else { 256 };
        for _ in 0..rounds {
            let mut s = [0u8; 32];
            rng.fill_bytes(&mut s);
            scalars.push(s);
        }
        for mut s in scalars {
            for _ in 0..2 {
                assert_eq!(public_key(&s), x25519(&s, &BASEPOINT), "{}", hex(&s));
                s[31] ^= 0x80; // bit 255 is cleared by clamping on both paths
            }
        }
    }

    #[test]
    fn curve_constants_are_consistent() {
        let d = Fe::ZERO
            .sub(&Fe::ONE.mul_small(121665))
            .mul(&Fe::ONE.mul_small(121666).invert());
        assert_eq!(d.add(&d).to_bytes(), D2.to_bytes());
        assert_eq!(B_Y.mul_small(5).to_bytes(), Fe::ONE.mul_small(4).to_bytes());
        // −x² + y² = 1 + d·x²·y²
        let (xx, yy) = (B_X.square(), B_Y.square());
        assert_eq!(
            yy.sub(&xx).to_bytes(),
            Fe::ONE.add(&d.mul(&xx).mul(&yy)).to_bytes()
        );
    }

    #[test]
    fn low_order_peer_values_are_rejected() {
        // u = 0, 1, p−1, p, p+1 and the two order-8 points, each also
        // with bit 255 set (RFC 7748 masks it off).
        let mut p_minus_1 = [0xff; 32];
        p_minus_1[0] = 0xec;
        p_minus_1[31] = 0x7f;
        let mut p = p_minus_1;
        p[0] = 0xed;
        let mut p_plus_1 = p_minus_1;
        p_plus_1[0] = 0xee;
        let mut one = [0u8; 32];
        one[0] = 1;
        let low_order = [
            [0u8; 32],
            one,
            p_minus_1,
            p,
            p_plus_1,
            unhex32("e0eb7a7c3b41b8ae1656e3faf19fc46ada098deb9c32b1fd866205165f49b800"),
            unhex32("5f9c95bca3508c24b1d0b1559c83ef5b04445cc4581c8e86d8224eddd09f1157"),
        ];
        let kp = X25519KeyPair::generate(&mut crate::drbg::HmacDrbg::new(b"low-order"));
        for mut u in low_order {
            for _ in 0..2 {
                assert!(has_small_order(&u), "{}", hex(&u));
                assert_eq!(x25519(&kp.secret, &u), [0u8; 32], "{}", hex(&u));
                assert_eq!(
                    kp.shared_secret(&u),
                    Err(CryptoError::InvalidPublicValue),
                    "{}",
                    hex(&u)
                );
                u[31] ^= 0x80;
            }
        }
        assert!(kp.shared_secret(&BASEPOINT).is_ok());
        assert!(!has_small_order(&BASEPOINT));
    }

    #[test]
    fn generated_public_keys_are_not_small_order() {
        // Public keys are points of large order: none is on the list,
        // and every ladder over one gives a non-zero secret.
        let mut rng = crate::drbg::HmacDrbg::new(b"small-order");
        let kp = X25519KeyPair::generate(&mut rng);
        for _ in 0..32 {
            let peer = X25519KeyPair::generate(&mut rng).public;
            assert!(!has_small_order(&peer), "{}", hex(&peer));
            assert!(kp.shared_secret(&peer).is_ok());
        }
    }

    #[test]
    fn keypair_exchange_agrees() {
        let mut rng = crate::drbg::HmacDrbg::new(b"x25519");
        let a = X25519KeyPair::generate(&mut rng);
        let b = X25519KeyPair::generate(&mut rng);
        assert_eq!(
            a.shared_secret(&b.public).unwrap(),
            b.shared_secret(&a.public).unwrap()
        );
        assert_ne!(a.public, b.public);
    }

    #[test]
    fn clamping_makes_cofactor_safe() {
        let mut s = [0xffu8; 32];
        clamp_scalar(&mut s);
        assert_eq!(s[0] & 7, 0);
        assert_eq!(s[31] & 0x80, 0);
        assert_eq!(s[31] & 0x40, 0x40);
    }

    #[test]
    fn fe_roundtrip() {
        // Canonical field elements round-trip through from_bytes/to_bytes.
        let mut rng = crate::drbg::HmacDrbg::new(b"fe");
        for _ in 0..20 {
            let mut b = [0u8; 32];
            rng.fill_bytes(&mut b);
            b[31] &= 0x7f; // < 2^255
                           // Values ≥ p don't round-trip (they reduce); skip unlikely case
                           // by masking the top byte down further.
            b[31] &= 0x3f;
            let fe = Fe::from_bytes(&b);
            assert_eq!(fe.to_bytes(), b);
        }
    }
}
