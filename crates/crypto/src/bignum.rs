//! Arbitrary-precision unsigned integers.
//!
//! Just enough bignum for the study's public-key needs: finite-field
//! Diffie-Hellman ([`crate::dh`]) and RSA ([`crate::rsa`]). Little-endian
//! `u64` limbs with `u128` intermediates, schoolbook multiplication, Knuth
//! Algorithm D division, and windowed Montgomery modular exponentiation
//! (odd moduli of up to 4096 bits — DH primes and RSA moduli always are).
//!
//! The representation is normalized: no trailing zero limbs; zero is the
//! empty limb vector.
//!
//! ## Hot-path design
//!
//! The daily campaign performs a full handshake per domain per day, and
//! each handshake pays for at least one RSA signature plus one or two DHE
//! exponentiations through this module. Four choices keep that affordable:
//!
//! * **64-bit limbs.** Halves the limb count versus u32 limbs and lets the
//!   inner loops run on `u128` products, roughly quartering the word-level
//!   work per full-width multiply.
//! * **Reusable [`Montgomery`] contexts.** `R² mod n` and `n0inv` cost a
//!   full-width multiply plus a long division; [`Montgomery::new`] runs
//!   once per fixed modulus (cached by `dh`/`rsa`) instead of once per
//!   `modpow`.
//! * **Fixed-width kernels.** All Montgomery arithmetic is one
//!   const-generic kernel over `[u64; N]` stack arrays, instantiated at 4,
//!   8, 16, 32 and 64 limbs. A context pads its modulus with zero limbs to
//!   the narrowest width that holds it and uses `R = 2^(64N)`: Montgomery
//!   reduction only needs an odd `n < R`, so a 320-bit modulus runs in the
//!   8-limb kernel unchanged. Every loop has a compile-time trip count, and
//!   an exponentiation's table, accumulator and products live on the
//!   stack. Moduli wider than 4096 bits have no kernel: [`Montgomery::new`]
//!   panics on them, and [`Ub::modpow`] and [`is_probable_prime`] take the
//!   division-based loop instead.
//! * **Fixed-window exponentiation.** `modpow` processes the exponent in
//!   4-bit windows over a 16-entry precomputed table: a CIOS multiply per
//!   window, with a dedicated SOS squaring for the four squarings between
//!   windows. The table lookup is a constant-time full-table scan
//!   ([`crate::ct::ct_select_u64`]), so a secret exponent window never
//!   forms a memory address.
//!
//! The final subtraction of every Montgomery product always runs, and a
//! mask, not a branch, keeps or drops it, so neither the table scan nor
//! the reduction depends on operand values. The number of windows does
//! follow the exponent's bit length.

use crate::error::CryptoError;
use ts_telemetry::Counter;

/// Every modular exponentiation performed (Montgomery or fallback path).
static MODEXP_TOTAL: Counter = Counter::new("crypto.modexp.total");

/// Modular exponentiations served through a process-cached [`Montgomery`]
/// context (per-`DhGroup` statics, per-RSA-key lazies) instead of
/// rebuilding `R² mod n`. Incremented at the cache access sites.
pub(crate) static MONT_CACHE_HIT: Counter = Counter::new("crypto.mont.cache.hit");

/// An arbitrary-precision unsigned integer.
#[derive(Clone, PartialEq, Eq, Default)]
pub struct Ub {
    /// Little-endian 64-bit limbs, normalized (no trailing zeros).
    limbs: Vec<u64>,
}

impl std::fmt::Debug for Ub {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Ub(0x{})", self.to_hex())
    }
}

impl crate::wipe::Wipe for Ub {
    /// Volatile-zero the limbs, then leave the value as canonical zero.
    /// `Ub` is used for both public and secret numbers, so wiping is not a
    /// `Drop` — secret-bearing owners (e.g. `DhKeyPair`) call it.
    fn wipe(&mut self) {
        crate::wipe::wipe_u64s(&mut self.limbs);
        self.limbs.clear();
    }
}

impl Ub {
    /// Zero.
    pub fn zero() -> Self {
        Ub { limbs: Vec::new() }
    }

    /// One.
    pub fn one() -> Self {
        Ub { limbs: vec![1] }
    }

    /// Construct from a `u64`.
    pub fn from_u64(v: u64) -> Self {
        let mut n = Ub { limbs: vec![v] };
        n.normalize();
        n
    }

    /// Construct from big-endian bytes (leading zeros allowed).
    pub fn from_bytes_be(bytes: &[u8]) -> Self {
        let mut limbs = Vec::with_capacity(bytes.len() / 8 + 1);
        let mut cur: u64 = 0;
        let mut shift = 0;
        for &b in bytes.iter().rev() {
            cur |= (b as u64) << shift;
            shift += 8;
            if shift == 64 {
                limbs.push(cur);
                cur = 0;
                shift = 0;
            }
        }
        if shift > 0 {
            limbs.push(cur);
        }
        let mut n = Ub { limbs };
        n.normalize();
        n
    }

    /// Serialize to big-endian bytes with no leading zeros (zero → empty).
    pub fn to_bytes_be(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.limbs.len() * 8);
        for &limb in self.limbs.iter().rev() {
            out.extend_from_slice(&limb.to_be_bytes());
        }
        let lead = out.iter().position(|&b| b != 0).unwrap_or(out.len());
        out.drain(..lead);
        out
    }

    /// Serialize to big-endian bytes left-padded to exactly `len` bytes.
    /// Panics if the value needs more than `len` bytes.
    pub fn to_bytes_be_padded(&self, len: usize) -> Vec<u8> {
        let raw = self.to_bytes_be();
        assert!(raw.len() <= len, "value does not fit in {len} bytes");
        let mut out = vec![0u8; len - raw.len()];
        out.extend_from_slice(&raw);
        out
    }

    /// Parse a hexadecimal string (no prefix, case-insensitive).
    pub fn from_hex(s: &str) -> Self {
        let s: String = s.chars().filter(|c| !c.is_whitespace()).collect();
        let bytes: Vec<u8> = {
            let padded = if s.len() % 2 == 1 { format!("0{s}") } else { s };
            (0..padded.len())
                .step_by(2)
                .map(|i| u8::from_str_radix(&padded[i..i + 2], 16).expect("hex digit"))
                .collect()
        };
        Ub::from_bytes_be(&bytes)
    }

    /// Render as lowercase hex (zero → "0").
    pub fn to_hex(&self) -> String {
        if self.is_zero() {
            return "0".into();
        }
        let bytes = self.to_bytes_be();
        let mut s: String = bytes.iter().map(|b| format!("{b:02x}")).collect();
        while s.len() > 1 && s.starts_with('0') {
            s.remove(0);
        }
        s
    }

    fn normalize(&mut self) {
        while self.limbs.last() == Some(&0) {
            self.limbs.pop();
        }
    }

    /// True if the value is zero.
    pub fn is_zero(&self) -> bool {
        self.limbs.is_empty()
    }

    /// True if the value is odd.
    pub fn is_odd(&self) -> bool {
        self.limbs.first().map_or(false, |l| l & 1 == 1)
    }

    /// Number of significant bits (zero → 0).
    pub fn bit_len(&self) -> usize {
        match self.limbs.last() {
            None => 0,
            Some(top) => (self.limbs.len() - 1) * 64 + (64 - top.leading_zeros() as usize),
        }
    }

    /// Test bit `i` (little-endian bit order).
    pub fn bit(&self, i: usize) -> bool {
        let limb = i / 64;
        if limb >= self.limbs.len() {
            return false;
        }
        (self.limbs[limb] >> (i % 64)) & 1 == 1
    }

    /// Compare.
    pub fn cmp_to(&self, other: &Ub) -> std::cmp::Ordering {
        use std::cmp::Ordering;
        match self.limbs.len().cmp(&other.limbs.len()) {
            Ordering::Equal => {}
            ord => return ord,
        }
        for (a, b) in self.limbs.iter().rev().zip(other.limbs.iter().rev()) {
            match a.cmp(b) {
                Ordering::Equal => {}
                ord => return ord,
            }
        }
        Ordering::Equal
    }

    /// `self + other`.
    pub fn add(&self, other: &Ub) -> Ub {
        let (long, short) = if self.limbs.len() >= other.limbs.len() {
            (&self.limbs, &other.limbs)
        } else {
            (&other.limbs, &self.limbs)
        };
        let mut out = Vec::with_capacity(long.len() + 1);
        let mut carry = 0u128;
        for i in 0..long.len() {
            let sum = long[i] as u128 + short.get(i).copied().unwrap_or(0) as u128 + carry;
            out.push(sum as u64);
            carry = sum >> 64;
        }
        if carry > 0 {
            out.push(carry as u64);
        }
        let mut n = Ub { limbs: out };
        n.normalize();
        n
    }

    /// `self - other`. Panics if `other > self`.
    pub fn sub(&self, other: &Ub) -> Ub {
        assert!(
            self.cmp_to(other) != std::cmp::Ordering::Less,
            "bignum subtraction underflow"
        );
        let mut out = Vec::with_capacity(self.limbs.len());
        let mut borrow = 0i128;
        for i in 0..self.limbs.len() {
            let mut diff =
                self.limbs[i] as i128 - other.limbs.get(i).copied().unwrap_or(0) as i128 - borrow;
            if diff < 0 {
                diff += 1 << 64;
                borrow = 1;
            } else {
                borrow = 0;
            }
            out.push(diff as u64);
        }
        debug_assert_eq!(borrow, 0);
        let mut n = Ub { limbs: out };
        n.normalize();
        n
    }

    /// `self * other` (schoolbook).
    pub fn mul(&self, other: &Ub) -> Ub {
        if self.is_zero() || other.is_zero() {
            return Ub::zero();
        }
        let mut out = vec![0u64; self.limbs.len() + other.limbs.len()];
        for (i, &a) in self.limbs.iter().enumerate() {
            let mut carry = 0u128;
            for (j, &b) in other.limbs.iter().enumerate() {
                let t = out[i + j] as u128 + a as u128 * b as u128 + carry;
                out[i + j] = t as u64;
                carry = t >> 64;
            }
            let mut k = i + other.limbs.len();
            while carry > 0 {
                let t = out[k] as u128 + carry;
                out[k] = t as u64;
                carry = t >> 64;
                k += 1;
            }
        }
        let mut n = Ub { limbs: out };
        n.normalize();
        n
    }

    /// Left shift by `bits`.
    pub fn shl(&self, bits: usize) -> Ub {
        if self.is_zero() {
            return Ub::zero();
        }
        let limb_shift = bits / 64;
        let bit_shift = bits % 64;
        let mut out = vec![0u64; limb_shift];
        if bit_shift == 0 {
            out.extend_from_slice(&self.limbs);
        } else {
            let mut carry = 0u64;
            for &l in &self.limbs {
                out.push((l << bit_shift) | carry);
                carry = l >> (64 - bit_shift);
            }
            if carry > 0 {
                out.push(carry);
            }
        }
        let mut n = Ub { limbs: out };
        n.normalize();
        n
    }

    /// Right shift by `bits`.
    pub fn shr(&self, bits: usize) -> Ub {
        let limb_shift = bits / 64;
        if limb_shift >= self.limbs.len() {
            return Ub::zero();
        }
        let bit_shift = bits % 64;
        let src = &self.limbs[limb_shift..];
        let mut out = Vec::with_capacity(src.len());
        if bit_shift == 0 {
            out.extend_from_slice(src);
        } else {
            for i in 0..src.len() {
                let lo = src[i] >> bit_shift;
                let hi = if i + 1 < src.len() {
                    src[i + 1] << (64 - bit_shift)
                } else {
                    0
                };
                out.push(lo | hi);
            }
        }
        let mut n = Ub { limbs: out };
        n.normalize();
        n
    }

    /// Quotient and remainder (`self / divisor`, `self % divisor`).
    /// Panics on division by zero.
    pub fn divrem(&self, divisor: &Ub) -> (Ub, Ub) {
        assert!(!divisor.is_zero(), "division by zero");
        if self.cmp_to(divisor) == std::cmp::Ordering::Less {
            return (Ub::zero(), self.clone());
        }
        if divisor.limbs.len() == 1 {
            // Single-limb fast path.
            let d = divisor.limbs[0] as u128;
            let mut q = Vec::with_capacity(self.limbs.len());
            let mut rem = 0u128;
            for &l in self.limbs.iter().rev() {
                let cur = (rem << 64) | l as u128;
                q.push((cur / d) as u64);
                rem = cur % d;
            }
            q.reverse();
            let mut qn = Ub { limbs: q };
            qn.normalize();
            return (qn, Ub::from_u64(rem as u64));
        }
        // Knuth Algorithm D (TAOCP vol. 2, 4.3.1).
        let shift = divisor.limbs.last().expect("non-empty").leading_zeros() as usize;
        let u = self.shl(shift);
        let v = divisor.shl(shift);
        let n = v.limbs.len();
        let m = u.limbs.len() - n;
        let mut un = u.limbs.clone();
        un.push(0); // u has m+n+1 limbs
        let vn = &v.limbs;
        let mut q = vec![0u64; m + 1];
        let b = 1u128 << 64;
        for j in (0..=m).rev() {
            // Estimate q̂.
            let top = ((un[j + n] as u128) << 64) | un[j + n - 1] as u128;
            let mut qhat = top / vn[n - 1] as u128;
            let mut rhat = top % vn[n - 1] as u128;
            while qhat >= b || qhat * vn[n - 2] as u128 > (rhat << 64) + un[j + n - 2] as u128 {
                qhat -= 1;
                rhat += vn[n - 1] as u128;
                if rhat >= b {
                    break;
                }
            }
            // Multiply and subtract.
            let mut borrow = 0i128;
            let mut carry = 0u128;
            for i in 0..n {
                let p = qhat * vn[i] as u128 + carry;
                carry = p >> 64;
                let t = un[i + j] as i128 - (p as u64) as i128 - borrow;
                un[i + j] = t as u64;
                borrow = if t < 0 { 1 } else { 0 };
            }
            let t = un[j + n] as i128 - carry as i128 - borrow;
            un[j + n] = t as u64;
            if t < 0 {
                // q̂ was one too large: add back.
                qhat -= 1;
                let mut carry = 0u128;
                for i in 0..n {
                    let t = un[i + j] as u128 + vn[i] as u128 + carry;
                    un[i + j] = t as u64;
                    carry = t >> 64;
                }
                un[j + n] = (un[j + n] as u128).wrapping_add(carry) as u64;
            }
            q[j] = qhat as u64;
        }
        let mut quotient = Ub { limbs: q };
        quotient.normalize();
        let mut rem = Ub {
            limbs: un[..n].to_vec(),
        };
        rem.normalize();
        (quotient, rem.shr(shift))
    }

    /// `self % modulus`.
    pub fn rem(&self, modulus: &Ub) -> Ub {
        self.divrem(modulus).1
    }

    /// `self % m` for a single-word modulus: one `u128` division per limb,
    /// most significant first. Panics if `m` is zero.
    fn rem_u64(&self, m: u64) -> u64 {
        self.limbs.iter().rev().fold(0, |r, &limb| {
            ((((r as u128) << 64) | limb as u128) % m as u128) as u64
        })
    }

    /// Modular multiplication.
    pub fn mul_mod(&self, other: &Ub, modulus: &Ub) -> Ub {
        self.mul(other).rem(modulus)
    }

    /// Modular exponentiation `self^exp mod modulus`.
    ///
    /// Uses windowed Montgomery multiplication for odd moduli of up to 4096
    /// bits (the common case for DH primes and RSA), falling back to
    /// square-and-multiply with division-based reduction otherwise. Callers
    /// exponentiating repeatedly against a fixed modulus should hold a
    /// [`Montgomery`] context instead — this entry point rebuilds one per
    /// call.
    pub fn modpow(&self, exp: &Ub, modulus: &Ub) -> Ub {
        assert!(!modulus.is_zero(), "zero modulus");
        if modulus.limbs == [1] {
            return Ub::zero();
        }
        if exp.is_zero() {
            return Ub::one();
        }
        if Montgomery::accepts(modulus) {
            return Montgomery::new(modulus).modpow(self, exp);
        }
        MODEXP_TOTAL.inc();
        let mut result = Ub::one();
        let base = self.rem(modulus);
        for i in (0..exp.bit_len()).rev() {
            result = result.mul_mod(&result, modulus);
            if exp.bit(i) {
                result = result.mul_mod(&base, modulus);
            }
        }
        result
    }

    /// Greatest common divisor (Euclid).
    pub fn gcd(&self, other: &Ub) -> Ub {
        let mut a = self.clone();
        let mut b = other.clone();
        while !b.is_zero() {
            let r = a.rem(&b);
            a = b;
            b = r;
        }
        a
    }

    /// Modular inverse of `self` modulo `modulus`, if it exists.
    pub fn modinv(&self, modulus: &Ub) -> Result<Ub, CryptoError> {
        // Extended Euclid on (a, m), tracking only the coefficient of a and
        // doing signed bookkeeping via (value, negative) pairs.
        if modulus.is_zero() {
            return Err(CryptoError::InvalidParameter("zero modulus"));
        }
        let mut r0 = modulus.clone();
        let mut r1 = self.rem(modulus);
        // t coefficients as (magnitude, is_negative)
        let mut t0 = (Ub::zero(), false);
        let mut t1 = (Ub::one(), false);
        while !r1.is_zero() {
            let (q, r2) = r0.divrem(&r1);
            // t2 = t0 - q * t1 with sign tracking.
            let qt1 = q.mul(&t1.0);
            let t2 = sub_signed(&t0, &(qt1, t1.1));
            r0 = r1;
            r1 = r2;
            t0 = t1;
            t1 = t2;
        }
        if r0 != Ub::one() {
            return Err(CryptoError::InvalidParameter("not invertible"));
        }
        let inv = if t0.1 {
            modulus.sub(&t0.0.rem(modulus))
        } else {
            t0.0.rem(modulus)
        };
        Ok(inv.rem(modulus))
    }
}

/// Signed subtraction over (magnitude, negative) pairs: `a - b`.
fn sub_signed(a: &(Ub, bool), b: &(Ub, bool)) -> (Ub, bool) {
    match (a.1, b.1) {
        (false, true) => (a.0.add(&b.0), false),
        (true, false) => (a.0.add(&b.0), true),
        (an, _) => {
            // Same sign: |a| - |b| with possible sign flip.
            if a.0.cmp_to(&b.0) != std::cmp::Ordering::Less {
                (a.0.sub(&b.0), an)
            } else {
                (b.0.sub(&a.0), !an)
            }
        }
    }
}

/// Exponent window width in bits.
const WINDOW_BITS: usize = 4;
/// Precomputed-table size: one entry per window value.
const TABLE_SIZE: usize = 1 << WINDOW_BITS;
/// Limb count of the widest kernel: moduli up to 4096 bits.
const MAX_LIMBS: usize = 64;

/// Montgomery context for a fixed odd modulus of at most 4096 bits.
///
/// Holds everything that depends only on the modulus — `n0inv`, `R² mod n`
/// and `R mod n` — so repeated exponentiations against the same modulus
/// (a DH group prime, an RSA key) skip the full-width multiply and long
/// division that context construction costs. `dh` caches one per group in
/// a process-wide `OnceLock`; `rsa` caches one per key.
#[derive(Clone)]
pub struct Montgomery {
    n: Ub,
    kernel: Kernel,
}

/// The modulus constants at the narrowest kernel width that holds `n`.
/// Boxed so a context stays a few words wherever it is embedded (every
/// `RsaPublicKey` carries a lazy one) instead of the widest kernel's
/// 1.5 KiB.
#[derive(Clone)]
enum Kernel {
    L4(Box<Fixed<4>>),
    L8(Box<Fixed<8>>),
    L16(Box<Fixed<16>>),
    L32(Box<Fixed<32>>),
    L64(Box<Fixed<64>>),
}

/// Evaluate `$body` with `$k` bound to whichever width `$kernel` holds.
macro_rules! with_kernel {
    ($kernel:expr, $k:ident => $body:expr) => {
        match $kernel {
            Kernel::L4($k) => $body,
            Kernel::L8($k) => $body,
            Kernel::L16($k) => $body,
            Kernel::L32($k) => $body,
            Kernel::L64($k) => $body,
        }
    };
}

impl crate::wipe::Wipe for Montgomery {
    /// A context for a secret modulus (an RSA prime in the CRT path) is
    /// itself secret: `n`, `R mod n` and `R² mod n` all reveal the prime.
    /// Like `Ub`, wiping is the owner's job, not a `Drop`.
    fn wipe(&mut self) {
        self.n.wipe();
        with_kernel!(&mut self.kernel, k => k.wipe());
    }
}

impl Montgomery {
    /// Build a context. Panics if the modulus is even, below 3, or wider
    /// than 4096 bits.
    pub fn new(modulus: &Ub) -> Self {
        assert!(modulus.is_odd(), "Montgomery requires odd modulus");
        assert!(modulus.bit_len() >= 2, "modulus too small");
        let kernel = match modulus.limbs.len() {
            1..=4 => Kernel::L4(Fixed::new(modulus)),
            5..=8 => Kernel::L8(Fixed::new(modulus)),
            9..=16 => Kernel::L16(Fixed::new(modulus)),
            17..=32 => Kernel::L32(Fixed::new(modulus)),
            33..=MAX_LIMBS => Kernel::L64(Fixed::new(modulus)),
            _ => panic!("Montgomery modulus wider than 4096 bits"),
        };
        Montgomery {
            n: modulus.clone(),
            kernel,
        }
    }

    /// Whether [`Montgomery::new`] takes `modulus`: odd, at least 3, and at
    /// most 4096 bits wide.
    pub fn accepts(modulus: &Ub) -> bool {
        modulus.is_odd() && modulus.bit_len() >= 2 && modulus.limbs.len() <= MAX_LIMBS
    }

    /// The modulus this context reduces by.
    pub fn modulus(&self) -> &Ub {
        &self.n
    }

    /// `base^exp mod n`.
    ///
    /// Fixed-window (w = 4) exponentiation: 16 precomputed powers in the
    /// Montgomery domain, four dedicated squarings per window, and a
    /// constant-time full-table scan for the window lookup — every table
    /// entry is read and masked with [`crate::ct::ct_select_u64`], so the
    /// (possibly secret) window value never selects a memory address. The
    /// table, accumulator and every product are `[u64; N]` stack arrays.
    pub fn modpow(&self, base: &Ub, exp: &Ub) -> Ub {
        MODEXP_TOTAL.inc();
        let reduced;
        let base = if base.cmp_to(&self.n) == std::cmp::Ordering::Less {
            base
        } else {
            reduced = base.rem(&self.n);
            &reduced
        };
        with_kernel!(&self.kernel, k => k.modpow(base, exp))
    }

    /// Whether one of `x², x⁴, …, x^(2^k)` mod n equals `target`, for
    /// `x` and `target` below n: Miller-Rabin's squaring chain, squared in
    /// Montgomery form (a bijection on `[0, n)`, so equality carries over)
    /// with no division. Stops at the first match.
    fn squarings_reach(&self, x: &Ub, k: usize, target: &Ub) -> bool {
        with_kernel!(&self.kernel, f => f.squarings_reach(x, k, target))
    }
}

/// Montgomery arithmetic modulo an odd `n` with `R = 2^(64N)`, on `N`-limb
/// stack arrays so every loop has a compile-time trip count. A modulus
/// narrower than `N` limbs is zero-padded: `R` only has to exceed `n`.
///
/// Every operand and result is fully reduced (below `n`).
#[derive(Clone)]
struct Fixed<const N: usize> {
    n: [u64; N],
    n0inv: u64,   // -n^{-1} mod 2^64
    rr: [u64; N], // R^2 mod n
    r1: [u64; N], // R mod n, the Montgomery form of 1
}

impl<const N: usize> crate::wipe::Wipe for Fixed<N> {
    fn wipe(&mut self) {
        crate::wipe::wipe_u64s(&mut self.n);
        crate::wipe::wipe_u64s(&mut self.rr);
        crate::wipe::wipe_u64s(&mut self.r1);
        self.n0inv = 0;
    }
}

impl<const N: usize> Fixed<N> {
    /// The constants for an odd `modulus` of at most `N` limbs.
    fn new(modulus: &Ub) -> Box<Self> {
        // n0inv = -n^{-1} mod 2^64 via Newton iteration; each round doubles
        // the number of correct low bits (1 → 64 needs six rounds).
        let n0 = modulus.limbs[0];
        let mut inv = 1u64;
        for _ in 0..6 {
            inv = inv.wrapping_mul(2u64.wrapping_sub(n0.wrapping_mul(inv)));
        }
        let r1 = Ub::one().shl(64 * N).rem(modulus);
        let rr = r1.mul(&r1).rem(modulus);
        Box::new(Fixed {
            n: to_limbs(modulus),
            n0inv: inv.wrapping_neg(),
            rr: to_limbs(&rr),
            r1: to_limbs(&r1),
        })
    }

    /// `base^exp mod n` for `base < n`.
    fn modpow(&self, base: &Ub, exp: &Ub) -> Ub {
        let mut table = [[0u64; N]; TABLE_SIZE];
        table[0] = self.r1;
        table[1] = self.mul(&to_limbs(base), &self.rr);
        for w in 2..TABLE_SIZE {
            table[w] = self.mul(&table[w - 1], &table[1]);
        }
        let mut acc = self.r1;
        let windows = exp.bit_len().div_ceil(WINDOW_BITS);
        for w in (0..windows).rev() {
            if w + 1 != windows {
                for _ in 0..WINDOW_BITS {
                    acc = self.sqr(&acc);
                }
            }
            // A window never straddles a limb: WINDOW_BITS divides 64.
            let bit = w * WINDOW_BITS;
            let win = (exp.limbs[bit / 64] >> (bit % 64)) & (TABLE_SIZE as u64 - 1);
            acc = self.mul(&acc, &ct_lookup(&table, win));
        }
        // Out of the Montgomery domain: acc·R⁻¹, below n since acc is.
        let mut out = Ub {
            limbs: self.redc(acc).to_vec(),
        };
        out.normalize();
        out
    }

    /// See [`Montgomery::squarings_reach`]; `x` and `target` are below n.
    fn squarings_reach(&self, x: &Ub, k: usize, target: &Ub) -> bool {
        let target = self.mul(&to_limbs(target), &self.rr);
        let mut acc = self.mul(&to_limbs(x), &self.rr);
        (0..k).any(|_| {
            acc = self.sqr(&acc);
            acc == target
        })
    }

    /// `a·b·R⁻¹ mod n` (CIOS). Each limb of `a` adds `a_i·b` and the
    /// multiple `m·n` that clears the low limb in one pass, shifting the
    /// accumulator down a limb as it goes; the accumulator stays below 2n.
    fn mul(&self, a: &[u64; N], b: &[u64; N]) -> [u64; N] {
        let mut t = [0u64; N];
        let mut hi = 0u64;
        for &ai in a {
            let ai = ai as u128;
            let s = t[0] as u128 + ai * b[0] as u128;
            let m = (s as u64).wrapping_mul(self.n0inv) as u128;
            let mut c1 = s >> 64;
            let mut c2 = ((s as u64) as u128 + m * self.n[0] as u128) >> 64;
            for j in 1..N {
                let s = t[j] as u128 + ai * b[j] as u128 + c1;
                c1 = s >> 64;
                let s = (s as u64) as u128 + m * self.n[j] as u128 + c2;
                c2 = s >> 64;
                t[j - 1] = s as u64;
            }
            let s = hi as u128 + c1 + c2;
            t[N - 1] = s as u64;
            hi = (s >> 64) as u64;
        }
        self.sub_n_if_ge(t, hi)
    }

    /// `a²·R⁻¹ mod n` (SOS): the cross products once, doubled, plus the
    /// diagonal, then [`Self::redc`] of the low half. About three quarters
    /// of the word products of `mul(a, a)`. Always inlined, like
    /// [`Self::redc`]: `modpow`'s window loop must not pay a call per
    /// squaring just because [`Self::squarings_reach`] squares too.
    #[inline(always)]
    fn sqr(&self, a: &[u64; N]) -> [u64; N] {
        let mut wide = [[0u64; N]; 2];
        let t = wide.as_flattened_mut();
        for i in 0..N {
            let ai = a[i] as u128;
            let mut c = 0u128;
            for j in i + 1..N {
                let s = t[i + j] as u128 + ai * a[j] as u128 + c;
                t[i + j] = s as u64;
                c = s >> 64;
            }
            t[i + N] = c as u64;
        }
        // Double the cross products (a² < R², so no bit shifts out), then
        // add the diagonal a_i².
        let mut top = 0u64;
        for limb in t.iter_mut() {
            let next = *limb >> 63;
            *limb = (*limb << 1) | top;
            top = next;
        }
        let mut c = 0u128;
        for i in 0..N {
            let d = a[i] as u128 * a[i] as u128;
            let s = t[2 * i] as u128 + (d as u64) as u128 + c;
            t[2 * i] = s as u64;
            let s = t[2 * i + 1] as u128 + (d >> 64) + (s >> 64);
            t[2 * i + 1] = s as u64;
            c = s >> 64;
        }
        // (lo + hi·R)·R⁻¹ = hi + redc(lo). The terms are at most n - 1
        // (hi = ⌊a²/R⌋ < n²/R) and n, so the sum is below 2n.
        let [lo, hi] = wide;
        let u = self.redc(lo);
        let mut sum = [0u64; N];
        let mut carry = 0u64;
        for i in 0..N {
            let s = u[i] as u128 + hi[i] as u128 + carry as u128;
            sum[i] = s as u64;
            carry = (s >> 64) as u64;
        }
        self.sub_n_if_ge(sum, carry)
    }

    /// Montgomery reduction of a single-width `t`: `(t + m·n)/R` for the
    /// `m < R` that makes the division exact. The result is at most `n`,
    /// and below `n` when `t` is. After `k` of the `N` steps the value is
    /// `(t + m_k·n)/2^(64k) ≤ n + (R - 1 - n)/2^(64k) < R` for the partial
    /// `m_k < 2^(64k)`, so it needs no word above `N` limbs.
    #[inline(always)]
    fn redc(&self, mut t: [u64; N]) -> [u64; N] {
        for _ in 0..N {
            let m = t[0].wrapping_mul(self.n0inv) as u128;
            let mut c = (t[0] as u128 + m * self.n[0] as u128) >> 64;
            for j in 1..N {
                let s = t[j] as u128 + m * self.n[j] as u128 + c;
                t[j - 1] = s as u64;
                c = s >> 64;
            }
            t[N - 1] = c as u64;
        }
        t
    }

    /// `t + hi·R` brought into `[0, n)`, given it is below `2n`. The
    /// subtraction always runs; a mask, not a branch, keeps `t` when it
    /// borrowed out of a value with no high word (i.e. `t < n`).
    fn sub_n_if_ge(&self, t: [u64; N], hi: u64) -> [u64; N] {
        let mut d = [0u64; N];
        let mut borrow = 0u64;
        for i in 0..N {
            let (d1, b1) = t[i].overflowing_sub(self.n[i]);
            let (d2, b2) = d1.overflowing_sub(borrow);
            d[i] = d2;
            borrow = (b1 | b2) as u64;
        }
        let keep_t = (borrow & !hi).wrapping_neg();
        for i in 0..N {
            d[i] = crate::ct::ct_select_u64(keep_t, t[i], d[i]);
        }
        d
    }
}

/// `x` as `N` little-endian limbs (`x` must fit).
fn to_limbs<const N: usize>(x: &Ub) -> [u64; N] {
    let mut out = [0u64; N];
    out[..x.limbs.len()].copy_from_slice(&x.limbs);
    out
}

/// `table[win]` by a constant-time scan: every entry is read and masked,
/// so the (secret) window value never forms an address.
fn ct_lookup<const N: usize>(table: &[[u64; N]; TABLE_SIZE], win: u64) -> [u64; N] {
    let mut out = [0u64; N];
    for (idx, entry) in table.iter().enumerate() {
        let mask = crate::ct::ct_eq_u64_mask(idx as u64, win);
        for (o, &e) in out.iter_mut().zip(entry) {
            *o = crate::ct::ct_select_u64(mask, e, *o);
        }
    }
    out
}

/// Generate a uniformly random value in `[0, bound)` using rejection
/// sampling over `fill`'s bytes. `fill` is any byte-filling closure
/// (typically a DRBG).
pub fn random_below(bound: &Ub, mut fill: impl FnMut(&mut [u8])) -> Ub {
    assert!(!bound.is_zero(), "empty range");
    let byte_len = (bound.bit_len() + 7) / 8;
    let top_bits = bound.bit_len() % 8;
    let mask = if top_bits == 0 {
        0xff
    } else {
        (1u16 << top_bits) as u8 - 1
    };
    let mut buf = vec![0u8; byte_len];
    loop {
        fill(&mut buf);
        buf[0] &= mask;
        let candidate = Ub::from_bytes_be(&buf);
        if candidate.cmp_to(bound) == std::cmp::Ordering::Less {
            return candidate;
        }
    }
}

/// The primes [`is_probable_prime`] screens a candidate by before any
/// Miller-Rabin round.
const SMALL_PRIMES: [u64; 16] = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53];

/// The product of the odd [`SMALL_PRIMES`], about 1.63·10¹⁹: it fits a
/// `u64`, so one residue of a candidate answers all fifteen odd
/// divisibility questions (and the compiler rejects an overflow).
const ODD_SMALL_PRIMORIAL: u64 = {
    let mut product = 1u64;
    let mut i = 1;
    while i < SMALL_PRIMES.len() {
        product *= SMALL_PRIMES[i];
        i += 1;
    }
    product
};

/// Miller-Rabin probable-prime test with `rounds` random bases.
///
/// Values up to 53 are answered from [`SMALL_PRIMES`]; a larger value
/// must be odd and have no odd small prime factor, read off one `u64`
/// residue. The rounds then run in one [`Montgomery`] context (moduli up
/// to 4096 bits): each base's exponentiation, and the squarings after it,
/// which compare against `n - 1` in Montgomery form instead of leaving the
/// domain. Wider moduli take the division-based loop.
pub fn is_probable_prime(n: &Ub, rounds: usize, mut fill: impl FnMut(&mut [u8])) -> bool {
    match n.limbs[..] {
        [] => return false,
        [v] if v <= SMALL_PRIMES[SMALL_PRIMES.len() - 1] => return SMALL_PRIMES.contains(&v),
        _ => {}
    }
    let residue = n.rem_u64(ODD_SMALL_PRIMORIAL);
    if !n.is_odd() || SMALL_PRIMES[1..].iter().any(|&p| residue.is_multiple_of(p)) {
        return false;
    }
    // n - 1 = d * 2^s
    let n_minus_1 = n.sub(&Ub::one());
    let mut d = n_minus_1.clone();
    let mut s = 0usize;
    while !d.is_odd() {
        d = d.shr(1);
        s += 1;
    }
    let mont = Montgomery::accepts(n).then(|| Montgomery::new(n));
    let two = Ub::from_u64(2);
    let bound = n.sub(&Ub::from_u64(3)); // bases in [2, n-2]
    for _ in 0..rounds {
        let a = random_below(&bound, &mut fill).add(&two);
        let mut x = match &mont {
            Some(mont) => mont.modpow(&a, &d),
            None => a.modpow(&d, n),
        };
        if x == Ub::one() || x == n_minus_1 {
            continue;
        }
        let reaches_minus_1 = match &mont {
            Some(mont) => mont.squarings_reach(&x, s - 1, &n_minus_1),
            None => (1..s).any(|_| {
                x = x.mul_mod(&x, n);
                x == n_minus_1
            }),
        };
        if !reaches_minus_1 {
            return false;
        }
    }
    true
}

/// Generate a random probable prime of exactly `bits` bits.
pub fn gen_prime(bits: usize, mut fill: impl FnMut(&mut [u8])) -> Ub {
    assert!(bits >= 8, "prime too small");
    let byte_len = (bits + 7) / 8;
    loop {
        let mut buf = vec![0u8; byte_len];
        fill(&mut buf);
        // Force exact bit length and oddness.
        let top_bit = (bits - 1) % 8;
        buf[0] &= ((1u16 << (top_bit + 1)) - 1) as u8;
        buf[0] |= 1 << top_bit;
        let last = buf.len() - 1;
        buf[last] |= 1;
        let candidate = Ub::from_bytes_be(&buf);
        if is_probable_prime(&candidate, 20, &mut fill) {
            return candidate;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fill_counter() -> impl FnMut(&mut [u8]) {
        // A toy deterministic filler for tests: SHA-256 counter stream.
        let mut ctr = 0u64;
        move |buf: &mut [u8]| {
            let mut off = 0;
            while off < buf.len() {
                let d = crate::sha256::sha256(&ctr.to_be_bytes());
                let take = (buf.len() - off).min(32);
                buf[off..off + take].copy_from_slice(&d[..take]);
                off += take;
                ctr += 1;
            }
        }
    }

    #[test]
    fn roundtrip_bytes_and_hex() {
        let n = Ub::from_hex("deadbeefcafebabe0123456789");
        assert_eq!(n.to_hex(), "deadbeefcafebabe0123456789");
        assert_eq!(Ub::from_bytes_be(&n.to_bytes_be()), n);
        assert_eq!(Ub::from_bytes_be(&[0, 0, 1]), Ub::one());
        assert_eq!(Ub::zero().to_bytes_be(), Vec::<u8>::new());
        assert_eq!(Ub::zero().to_hex(), "0");
    }

    #[test]
    fn padded_serialization() {
        let n = Ub::from_u64(0x1234);
        assert_eq!(n.to_bytes_be_padded(4), vec![0, 0, 0x12, 0x34]);
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn padded_serialization_overflow_panics() {
        Ub::from_u64(0x123456).to_bytes_be_padded(2);
    }

    #[test]
    fn add_sub_small() {
        let a = Ub::from_u64(u64::MAX);
        let b = Ub::from_u64(1);
        let sum = a.add(&b);
        assert_eq!(sum.to_hex(), "10000000000000000");
        assert_eq!(sum.sub(&b), a);
        assert_eq!(a.sub(&a), Ub::zero());
    }

    #[test]
    fn mul_known() {
        let a = Ub::from_hex("ffffffffffffffff");
        let b = Ub::from_hex("ffffffffffffffff");
        assert_eq!(a.mul(&b).to_hex(), "fffffffffffffffe0000000000000001");
        assert_eq!(a.mul(&Ub::zero()), Ub::zero());
        assert_eq!(a.mul(&Ub::one()), a);
    }

    #[test]
    fn shifts() {
        let a = Ub::from_u64(0b1011);
        assert_eq!(a.shl(4).to_hex(), "b0");
        assert_eq!(a.shl(64).to_hex(), "b0000000000000000");
        assert_eq!(a.shl(64).shr(64), a);
        assert_eq!(a.shr(2).to_hex(), "2");
        assert_eq!(a.shr(100), Ub::zero());
    }

    #[test]
    fn bit_len_and_bit() {
        assert_eq!(Ub::zero().bit_len(), 0);
        assert_eq!(Ub::one().bit_len(), 1);
        assert_eq!(Ub::from_u64(0x100).bit_len(), 9);
        let n = Ub::from_hex("8000000000000000000000000000000000");
        assert_eq!(n.bit_len(), 136);
        assert!(n.bit(135));
        assert!(!n.bit(134));
        assert!(!n.bit(500));
    }

    #[test]
    fn divrem_small_divisor() {
        let a = Ub::from_hex("123456789abcdef0123456789abcdef");
        let d = Ub::from_u64(97);
        let (q, r) = a.divrem(&d);
        assert_eq!(q.mul(&d).add(&r), a);
        assert!(r.cmp_to(&d) == std::cmp::Ordering::Less);
    }

    #[test]
    fn divrem_multi_limb() {
        let a = Ub::from_hex("fedcba9876543210fedcba9876543210fedcba98");
        let d = Ub::from_hex("123456789abcdef01234");
        let (q, r) = a.divrem(&d);
        assert_eq!(q.mul(&d).add(&r), a);
        assert!(r.cmp_to(&d) == std::cmp::Ordering::Less);
    }

    #[test]
    fn divrem_edge_cases() {
        let a = Ub::from_hex("abcdef");
        assert_eq!(a.divrem(&a), (Ub::one(), Ub::zero()));
        assert_eq!(a.divrem(&Ub::one()), (a.clone(), Ub::zero()));
        let bigger = a.add(&Ub::one());
        assert_eq!(a.divrem(&bigger), (Ub::zero(), a.clone()));
    }

    #[test]
    #[should_panic(expected = "division by zero")]
    fn div_by_zero_panics() {
        Ub::one().divrem(&Ub::zero());
    }

    #[test]
    fn modpow_small_known() {
        // 4^13 mod 497 = 445 (classic example).
        let r = Ub::from_u64(4).modpow(&Ub::from_u64(13), &Ub::from_u64(497));
        assert_eq!(r, Ub::from_u64(445));
        // Fermat: 2^(p-1) ≡ 1 mod p for prime p = 1000003.
        let p = Ub::from_u64(1_000_003);
        let r = Ub::from_u64(2).modpow(&p.sub(&Ub::one()), &p);
        assert_eq!(r, Ub::one());
    }

    #[test]
    fn modpow_even_modulus() {
        // 3^5 mod 16 = 243 mod 16 = 3 (exercises non-Montgomery path).
        let r = Ub::from_u64(3).modpow(&Ub::from_u64(5), &Ub::from_u64(16));
        assert_eq!(r, Ub::from_u64(3));
    }

    #[test]
    fn modpow_exp_zero_and_mod_one() {
        let m = Ub::from_u64(97);
        assert_eq!(Ub::from_u64(42).modpow(&Ub::zero(), &m), Ub::one());
        assert_eq!(
            Ub::from_u64(42).modpow(&Ub::from_u64(5), &Ub::one()),
            Ub::zero()
        );
        // Via a prebuilt context too (the window loop runs zero times).
        assert_eq!(
            Montgomery::new(&m).modpow(&Ub::from_u64(42), &Ub::zero()),
            Ub::one()
        );
    }

    #[test]
    fn modpow_base_larger_than_modulus() {
        // A prebuilt context must reduce an out-of-range base itself.
        let m = Ub::from_u64(497);
        let mont = Montgomery::new(&m);
        let big = Ub::from_u64(4).add(&m.mul(&Ub::from_u64(3)));
        assert_eq!(mont.modpow(&big, &Ub::from_u64(13)), Ub::from_u64(445));
    }

    #[test]
    fn montgomery_matches_naive() {
        // Cross-check Montgomery against division-based modpow for a batch
        // of odd moduli.
        let mut fill = fill_counter();
        for _ in 0..10 {
            let mut buf = [0u8; 24];
            fill(&mut buf);
            let mut m = Ub::from_bytes_be(&buf);
            if !m.is_odd() {
                m = m.add(&Ub::one());
            }
            if m.bit_len() < 2 {
                continue;
            }
            let mut bbuf = [0u8; 20];
            fill(&mut bbuf);
            let base = Ub::from_bytes_be(&bbuf);
            let exp = Ub::from_u64(65537);
            let mont = base.modpow(&exp, &m);
            // Naive reference.
            let mut reference = Ub::one();
            let b = base.rem(&m);
            for i in (0..exp.bit_len()).rev() {
                reference = reference.mul_mod(&reference, &m);
                if exp.bit(i) {
                    reference = reference.mul_mod(&b, &m);
                }
            }
            assert_eq!(mont, reference, "modulus {}", m.to_hex());
        }
    }

    #[test]
    fn windowed_modpow_matches_bit_by_bit_on_random_exponents() {
        // The window loop (table build, CT scan, dedicated squaring) against
        // the one-bit-at-a-time ladder it replaced.
        let mut fill = fill_counter();
        let m = Ub::from_hex("ffffffffffffffffffffffffffffff61"); // odd
        let mont = Montgomery::new(&m);
        for _ in 0..8 {
            let mut bbuf = [0u8; 16];
            fill(&mut bbuf);
            let base = Ub::from_bytes_be(&bbuf).rem(&m);
            let mut ebuf = [0u8; 16];
            fill(&mut ebuf);
            let exp = Ub::from_bytes_be(&ebuf);
            let mut reference = Ub::one();
            for i in (0..exp.bit_len()).rev() {
                reference = reference.mul_mod(&reference, &m);
                if exp.bit(i) {
                    reference = reference.mul_mod(&base, &m);
                }
            }
            assert_eq!(mont.modpow(&base, &exp), reference);
        }
    }

    #[test]
    #[should_panic(expected = "wider than 4096 bits")]
    fn montgomery_rejects_moduli_past_the_widest_kernel() {
        let widest = Ub::one().shl(4095).add(&Ub::one());
        assert!(Montgomery::accepts(&widest));
        let past = Ub::one().shl(4096).add(&Ub::one());
        assert!(!Montgomery::accepts(&past));
        Montgomery::new(&past);
    }

    #[test]
    fn wipe_zeroes_the_kernel_constants() {
        use crate::wipe::Wipe;
        // One modulus per kernel width: each context's padded n, R mod n,
        // R² mod n and n0inv must all end up zero.
        for limbs in [1usize, 5, 9, 17, 33] {
            let n = Ub::one().shl(64 * limbs - 1).add(&Ub::from_u64(3));
            let mut mont = Montgomery::new(&n);
            mont.wipe();
            assert!(mont.modulus().is_zero());
            let zeroed = with_kernel!(&mont.kernel, k => {
                let consts = [&k.n[..], &k.rr[..], &k.r1[..]];
                k.n0inv == 0 && consts.iter().all(|c| c.iter().all(|&l| l == 0))
            });
            assert!(zeroed, "{limbs}-limb modulus");
        }
    }

    #[test]
    fn gcd_and_modinv() {
        let a = Ub::from_u64(270);
        let b = Ub::from_u64(192);
        assert_eq!(a.gcd(&b), Ub::from_u64(6));
        // 3 * 7 = 21 ≡ 1 mod 10 → inverse of 3 mod 10 is 7.
        assert_eq!(
            Ub::from_u64(3).modinv(&Ub::from_u64(10)).unwrap(),
            Ub::from_u64(7)
        );
        // 65537^{-1} mod a known prime round-trips.
        let p = Ub::from_hex("ffffffffffffffc5"); // large prime < 2^64
        let e = Ub::from_u64(65537);
        let inv = e.modinv(&p).unwrap();
        assert_eq!(e.mul_mod(&inv, &p), Ub::one());
        // Non-invertible.
        assert!(Ub::from_u64(6).modinv(&Ub::from_u64(9)).is_err());
    }

    #[test]
    fn random_below_in_range() {
        let bound = Ub::from_u64(1000);
        let mut fill = fill_counter();
        for _ in 0..50 {
            let v = random_below(&bound, &mut fill);
            assert!(v.cmp_to(&bound) == std::cmp::Ordering::Less);
        }
    }

    #[test]
    fn small_primes_recognized() {
        let mut fill = fill_counter();
        for p in [2u64, 3, 5, 7, 11, 13, 97, 65537, 1_000_003] {
            assert!(
                is_probable_prime(&Ub::from_u64(p), 10, &mut fill),
                "{p} is prime"
            );
        }
        for c in [0u64, 1, 4, 9, 15, 91, 561, 65535, 1_000_001] {
            assert!(
                !is_probable_prime(&Ub::from_u64(c), 10, &mut fill),
                "{c} is composite"
            );
        }
    }

    #[test]
    fn carmichael_numbers_rejected() {
        let mut fill = fill_counter();
        // 561, 1105, 1729 fool Fermat but not Miller-Rabin.
        for c in [561u64, 1105, 1729, 2465, 2821, 6601] {
            assert!(!is_probable_prime(&Ub::from_u64(c), 20, &mut fill), "{c}");
        }
    }

    /// The screen and witness loop `is_probable_prime` had before the
    /// `u64` residue and the Montgomery squarings: 16 `Ub::rem` divisions,
    /// then `Ub::mul_mod` squarings. Kept as the oracle for both.
    fn reference_is_probable_prime(n: &Ub, rounds: usize, mut fill: impl FnMut(&mut [u8])) -> bool {
        if n.bit_len() < 2 {
            return false;
        }
        for &p in &SMALL_PRIMES {
            let pp = Ub::from_u64(p);
            match n.cmp_to(&pp) {
                std::cmp::Ordering::Equal => return true,
                std::cmp::Ordering::Less => return false,
                std::cmp::Ordering::Greater => {
                    if n.rem(&pp).is_zero() {
                        return false;
                    }
                }
            }
        }
        let n_minus_1 = n.sub(&Ub::one());
        let mut d = n_minus_1.clone();
        let mut s = 0usize;
        while !d.is_odd() {
            d = d.shr(1);
            s += 1;
        }
        let two = Ub::from_u64(2);
        let bound = n.sub(&Ub::from_u64(3));
        'outer: for _ in 0..rounds {
            let a = random_below(&bound, &mut fill).add(&two);
            let mut x = a.modpow(&d, n);
            if x == Ub::one() || x == n_minus_1 {
                continue;
            }
            for _ in 0..s - 1 {
                x = x.mul_mod(&x, n);
                if x == n_minus_1 {
                    continue 'outer;
                }
            }
            return false;
        }
        true
    }

    /// `test`'s verdict on `n` and every byte it drew from the filler.
    fn verdict_and_draws(
        test: fn(&Ub, usize, &mut dyn FnMut(&mut [u8])) -> bool,
        n: &Ub,
    ) -> (bool, Vec<u8>) {
        let mut stream = fill_counter();
        let mut drawn = Vec::new();
        let verdict = test(n, 20, &mut |buf: &mut [u8]| {
            stream(buf);
            drawn.extend_from_slice(buf);
        });
        (verdict, drawn)
    }

    /// Same verdict and the same draws from the filler as the reference.
    fn assert_matches_reference(n: &Ub) {
        let fast = verdict_and_draws(|n, r, f| is_probable_prime(n, r, f), n);
        let reference = verdict_and_draws(|n, r, f| reference_is_probable_prime(n, r, f), n);
        assert_eq!(fast, reference, "n = {}", n.to_hex());
    }

    #[test]
    fn primality_matches_the_division_reference_on_small_and_special_values() {
        let carmichael = [561u64, 1105, 1729, 2465, 2821, 6601];
        let recognized = [97u64, 65537, 1_000_003, 65535, 1_000_001];
        for v in (0..=60).chain(carmichael).chain(recognized) {
            assert_matches_reference(&Ub::from_u64(v));
        }
        // Multiples of each small prime, from 2p up to past the screen's
        // single limb, and primes, so every round's squarings run.
        let mut fill = fill_counter();
        for &p in &SMALL_PRIMES {
            for k in [2u64, 3, 53, 59, 1 << 40] {
                assert_matches_reference(&Ub::from_u64(p).mul(&Ub::from_u64(k)));
            }
            let mut buf = [0u8; 40];
            fill(&mut buf);
            assert_matches_reference(&Ub::from_u64(p).mul(&Ub::from_bytes_be(&buf)));
        }
        for bits in [64usize, 128, 256, 512] {
            assert_matches_reference(&gen_prime(bits, &mut fill));
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(256))]

        #[test]
        fn primality_matches_the_division_reference_on_random_odd_values(
            bits in 64usize..=512,
            bytes in proptest::collection::vec(proptest::prelude::any::<u8>(), 64),
        ) {
            // `bits` wide exactly, and odd.
            let mut n = Ub::from_bytes_be(&bytes[..bits.div_ceil(8)]);
            n = n.rem(&Ub::one().shl(bits - 1)).add(&Ub::one().shl(bits - 1));
            if !n.is_odd() {
                n = n.add(&Ub::one());
            }
            assert_matches_reference(&n);
        }

        #[test]
        fn primality_matches_the_division_reference_on_small_prime_multiples(
            index in 0usize..16,
            bytes in proptest::collection::vec(proptest::prelude::any::<u8>(), 1..64),
        ) {
            let k = Ub::from_bytes_be(&bytes).add(&Ub::from_u64(2));
            assert_matches_reference(&Ub::from_u64(SMALL_PRIMES[index]).mul(&k));
        }
    }

    #[test]
    fn gen_prime_has_exact_bit_length() {
        let mut fill = fill_counter();
        for bits in [16usize, 32, 64, 128] {
            let p = gen_prime(bits, &mut fill);
            assert_eq!(p.bit_len(), bits);
            assert!(p.is_odd());
            assert!(is_probable_prime(&p, 10, &mut fill));
        }
    }

    #[test]
    fn rfc3526_prime_is_prime() {
        // The 1536-bit MODP group prime (RFC 3526 group 5) — a good stress
        // test for Montgomery modpow on realistic sizes.
        let p = Ub::from_hex(
            "FFFFFFFFFFFFFFFFC90FDAA22168C234C4C6628B80DC1CD129024E088A67CC74\
             020BBEA63B139B22514A08798E3404DDEF9519B3CD3A431B302B0A6DF25F1437\
             4FE1356D6D51C245E485B576625E7EC6F44C42E9A637ED6B0BFF5CB6F406B7ED\
             EE386BFB5A899FA5AE9F24117C4B1FE649286651ECE45B3DC2007CB8A163BF05\
             98DA48361C55D39A69163FA8FD24CF5F83655D23DCA3AD961C62F356208552BB\
             9ED529077096966D670C354E4ABC9804F1746C08CA237327FFFFFFFFFFFFFFFF",
        );
        let mut fill = fill_counter();
        assert!(is_probable_prime(&p, 5, &mut fill));
    }
}
