//! X25519 elliptic-curve Diffie-Hellman (RFC 7748).
//!
//! The ECDHE side of the study. Curve25519 is implemented with a
//! Montgomery ladder over GF(2^255 - 19) using five 51-bit limbs in `u64`s
//! with `u128` products (the "donna-64" representation) — half the limb
//! count and a quarter of the inner-loop multiplies of the earlier
//! radix-2^25.5 form, with no data-dependent branches in the limb loops.
//! Pinned to the RFC 7748 §5.2 test vectors and the iterated-ladder vector.
//!
//! Limb-bound discipline (the invariants the carry chains rely on):
//! reduced elements have limbs < 2^51 + ε; [`Fe::add`] and [`Fe::sub`]
//! emit limbs < 2^53 without re-carrying; [`Fe::mul`]/[`Fe::square`]
//! accept limbs < 2^53 and emit reduced elements.

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

    /// Inversion via Fermat: a^(p-2).
    fn invert(&self) -> Fe {
        let mut result = Fe::ONE;
        let mut base = *self;
        // p - 2 = 2^255 - 21: little-endian bits are 11010 then 250 ones
        // (2^255 ≡ 0 mod 32, so the low 5 bits are 32 - 21 = 01011b).
        for i in 0..255 {
            if i != 2 && i != 4 {
                result = result.mul(&base);
            }
            base = base.square();
        }
        result
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
        x3 = da.add(&cb).carry().square();
        z3 = x1.mul(&da.sub(&cb).square());
        x2 = aa.mul(&bb);
        z2 = e.mul(&aa.add(&e.mul_small(121665)).carry());
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

/// Compute the public key for a secret scalar.
pub fn public_key(secret: &[u8; 32]) -> [u8; 32] {
    x25519(secret, &BASEPOINT)
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
    pub fn shared_secret(&self, peer_public: &[u8; 32]) -> [u8; 32] {
        x25519(&self.secret, peer_public)
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
    fn keypair_exchange_agrees() {
        let mut rng = crate::drbg::HmacDrbg::new(b"x25519");
        let a = X25519KeyPair::generate(&mut rng);
        let b = X25519KeyPair::generate(&mut rng);
        assert_eq!(a.shared_secret(&b.public), b.shared_secret(&a.public));
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
