//! Randomized cross-checks for the u64-limb multiprecision rewrite.
//!
//! Every optimized path (Montgomery CIOS multiplication, dedicated
//! squaring, fixed-window exponentiation, byte codecs, Knuth division) is
//! pinned against an independent reference computed from the slow,
//! obviously-correct operations. Operands come from a seeded [`HmacDrbg`]
//! so failures reproduce exactly.

use ts_crypto::bignum::{Montgomery, Ub};
use ts_crypto::drbg::HmacDrbg;

fn random_ub(rng: &mut HmacDrbg, max_bytes: usize) -> Ub {
    let len = (rng.next_u64() as usize % max_bytes) + 1;
    let mut bytes = vec![0u8; len];
    rng.fill_bytes(&mut bytes);
    Ub::from_bytes_be(&bytes)
}

/// A random odd modulus of at least two bytes (Montgomery requires odd).
fn random_odd_modulus(rng: &mut HmacDrbg, max_bytes: usize) -> Ub {
    loop {
        let mut bytes = vec![0u8; (rng.next_u64() as usize % max_bytes).max(2)];
        rng.fill_bytes(&mut bytes);
        bytes[0] |= 0x80; // full bit length
        let last = bytes.len() - 1;
        bytes[last] |= 1; // odd
        let n = Ub::from_bytes_be(&bytes);
        if n.cmp_to(&Ub::one()) == std::cmp::Ordering::Greater {
            return n;
        }
    }
}

/// An odd modulus of exactly `limbs` 64-bit limbs; `all_ones_top` makes
/// the top limb all ones, as in the MODP primes.
fn odd_modulus_of_limbs(rng: &mut HmacDrbg, limbs: usize, all_ones_top: bool) -> Ub {
    let mut bytes = vec![0u8; 8 * limbs];
    rng.fill_bytes(&mut bytes);
    bytes[0] |= 0x80;
    if all_ones_top {
        bytes[..8].fill(0xff);
    }
    bytes[8 * limbs - 1] |= 1;
    Ub::from_bytes_be(&bytes)
}

/// Bit-by-bit square-and-multiply via `mul_mod` — the reference the
/// windowed Montgomery ladder must match.
fn modpow_reference(base: &Ub, exp: &Ub, modulus: &Ub) -> Ub {
    let mut result = Ub::one().rem(modulus);
    let mut acc = base.rem(modulus);
    for i in 0..exp.bit_len() {
        if exp.bit(i) {
            result = result.mul_mod(&acc, modulus);
        }
        acc = acc.mul_mod(&acc, modulus);
    }
    result
}

#[test]
fn mul_mod_matches_mul_then_rem() {
    let mut rng = HmacDrbg::new(b"crosscheck-mulmod");
    for _ in 0..200 {
        let n = random_odd_modulus(&mut rng, 48);
        let a = random_ub(&mut rng, 64).rem(&n);
        let b = random_ub(&mut rng, 64).rem(&n);
        assert_eq!(
            a.mul_mod(&b, &n).to_hex(),
            a.mul(&b).rem(&n).to_hex(),
            "a={} b={} n={}",
            a.to_hex(),
            b.to_hex(),
            n.to_hex()
        );
    }
}

#[test]
fn divrem_reconstructs_dividend() {
    let mut rng = HmacDrbg::new(b"crosscheck-divrem");
    for _ in 0..200 {
        let a = random_ub(&mut rng, 96);
        let d = random_ub(&mut rng, 40);
        if d.is_zero() {
            continue;
        }
        let (q, r) = a.divrem(&d);
        assert_eq!(
            q.mul(&d).add(&r).to_hex(),
            a.to_hex(),
            "q*d + r != a for a={} d={}",
            a.to_hex(),
            d.to_hex()
        );
        assert_eq!(
            r.cmp_to(&d),
            std::cmp::Ordering::Less,
            "remainder not reduced"
        );
    }
}

#[test]
fn windowed_montgomery_modpow_matches_bit_by_bit() {
    let mut rng = HmacDrbg::new(b"crosscheck-modpow");
    for round in 0..60 {
        let n = random_odd_modulus(&mut rng, 32);
        let base = random_ub(&mut rng, 40);
        let exp = random_ub(&mut rng, 24);
        let mont = Montgomery::new(&n);
        assert_eq!(
            mont.modpow(&base, &exp).to_hex(),
            modpow_reference(&base, &exp, &n).to_hex(),
            "round {round}: base={} exp={} n={}",
            base.to_hex(),
            exp.to_hex(),
            n.to_hex()
        );
    }
    // n = 3, the smallest modulus a context takes, zero-padded to 4 limbs.
    let three = Montgomery::new(&Ub::from_u64(3));
    let long_exp = Ub::from_hex("fedcba9876543210fedcba9876543211");
    for (base, exp) in [
        (Ub::zero(), Ub::zero()),
        (Ub::from_u64(2), Ub::one()),
        (Ub::from_u64(5), Ub::from_u64(7)),
        (Ub::from_u64(u64::MAX), long_exp),
    ] {
        assert_eq!(
            three.modpow(&base, &exp),
            modpow_reference(&base, &exp, &Ub::from_u64(3)),
            "n=3 base={} exp={}",
            base.to_hex(),
            exp.to_hex()
        );
    }
    // Every kernel width: moduli that fill 4, 8, 16, 32 and 64 limbs
    // exactly (with a random and with an all-ones top limb), and moduli
    // one limb past each boundary, zero-padded into the next kernel. Each
    // shape runs exponents 0 and 1 and a short random one, all on a base
    // above n; the narrow shapes also run an exponent longer than the
    // modulus. Few rounds per shape: Miri runs this crate.
    let shapes = [4, 8, 16, 32, 64]
        .into_iter()
        .flat_map(|w| [(w, false), (w, true), (w + 1, false)])
        .filter(|&(limbs, _)| limbs <= 64);
    for (limbs, all_ones_top) in shapes {
        let n = odd_modulus_of_limbs(&mut rng, limbs, all_ones_top);
        let mont = Montgomery::new(&n);
        let base = random_ub(&mut rng, 8 * limbs).add(&n);
        let mut exps = vec![Ub::zero(), Ub::one(), random_ub(&mut rng, 16)];
        if limbs <= 9 {
            exps.push(random_ub(&mut rng, 8 * limbs).add(&n.shl(8)));
        }
        for exp in exps {
            assert_eq!(
                mont.modpow(&base, &exp).to_hex(),
                modpow_reference(&base, &exp, &n).to_hex(),
                "{limbs} limbs (all-ones top: {all_ones_top}): exp={} n={}",
                exp.to_hex(),
                n.to_hex()
            );
        }
    }
}

#[test]
fn generic_modpow_handles_even_moduli_too() {
    // Ub::modpow dispatches: odd modulus of up to 4096 bits → Montgomery,
    // even → plain square-and-multiply. Both arms must agree with the
    // reference.
    let mut rng = HmacDrbg::new(b"crosscheck-evenmod");
    for _ in 0..60 {
        let mut n = random_ub(&mut rng, 24);
        if n.cmp_to(&Ub::from_u64(2)) != std::cmp::Ordering::Greater {
            continue;
        }
        let base = random_ub(&mut rng, 32);
        let exp = random_ub(&mut rng, 16);
        assert_eq!(
            base.modpow(&exp, &n).to_hex(),
            modpow_reference(&base, &exp, &n).to_hex(),
            "modulus {} (odd={})",
            n.to_hex(),
            n.is_odd()
        );
        // Force the opposite parity next iteration by reusing n shifted.
        n = n.shl(1);
        if !n.is_zero() {
            assert_eq!(
                base.modpow(&exp, &n).to_hex(),
                modpow_reference(&base, &exp, &n).to_hex(),
                "even modulus {}",
                n.to_hex()
            );
        }
    }
}

#[test]
fn generic_modpow_answers_past_the_widest_kernel() {
    // An odd modulus wider than 4096 bits has no Montgomery kernel, so
    // Ub::modpow takes its division loop; the answer must still be right.
    let mut rng = HmacDrbg::new(b"crosscheck-wide");
    let n = odd_modulus_of_limbs(&mut rng, 65, false);
    assert!(n.bit_len() > 4096);
    let base = random_ub(&mut rng, 8 * 66);
    let exp = random_ub(&mut rng, 8);
    assert_eq!(
        base.modpow(&exp, &n).to_hex(),
        modpow_reference(&base, &exp, &n).to_hex(),
        "exp={}",
        exp.to_hex()
    );
}

#[test]
fn byte_codec_round_trips() {
    let mut rng = HmacDrbg::new(b"crosscheck-bytes");
    for _ in 0..200 {
        let a = random_ub(&mut rng, 80);
        let bytes = a.to_bytes_be();
        assert_eq!(Ub::from_bytes_be(&bytes).to_hex(), a.to_hex());
        // Leading zeros must be ignored on parse and absent on emit.
        let mut padded = vec![0u8; 7];
        padded.extend_from_slice(&bytes);
        assert_eq!(Ub::from_bytes_be(&padded).to_hex(), a.to_hex());
        if !a.is_zero() {
            assert_ne!(bytes[0], 0, "canonical encoding has no leading zero");
        }
        // Fixed-width padding round-trips through the same parser.
        let wide = a.to_bytes_be_padded(bytes.len() + 5);
        assert_eq!(wide.len(), bytes.len() + 5);
        assert_eq!(Ub::from_bytes_be(&wide).to_hex(), a.to_hex());
    }
}

#[test]
fn cached_group_context_matches_fresh_context() {
    use ts_crypto::dh::DhGroup;
    let mut rng = HmacDrbg::new(b"crosscheck-group");
    for group in [DhGroup::Sim256, DhGroup::Sim512] {
        let p = group.prime();
        let fresh = Montgomery::new(p);
        for _ in 0..20 {
            let base = random_ub(&mut rng, 40);
            let exp = random_ub(&mut rng, 20);
            assert_eq!(
                group.montgomery().modpow(&base, &exp).to_hex(),
                fresh.modpow(&base, &exp).to_hex(),
                "group {group:?}"
            );
        }
    }
}
