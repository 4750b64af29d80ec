//! Property-based tests for the crypto substrate: algebraic laws for the
//! bignum, involution/roundtrip laws for the ciphers, and agreement laws
//! for the key exchanges.

use proptest::prelude::*;
use ts_crypto::bignum::Ub;
use ts_crypto::cbc;
use ts_crypto::chacha20;
use ts_crypto::drbg::HmacDrbg;
use ts_crypto::hmac::hmac_sha256;
use ts_crypto::poly1305::{poly1305, Poly1305};
use ts_crypto::sha256::{sha256, Sha256};

fn ub(bytes: &[u8]) -> Ub {
    Ub::from_bytes_be(bytes)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // --- bignum ring axioms ---

    #[test]
    fn add_commutes(a in proptest::collection::vec(any::<u8>(), 0..24),
                    b in proptest::collection::vec(any::<u8>(), 0..24)) {
        prop_assert_eq!(ub(&a).add(&ub(&b)), ub(&b).add(&ub(&a)));
    }

    #[test]
    fn mul_commutes_and_distributes(
        a in proptest::collection::vec(any::<u8>(), 0..16),
        b in proptest::collection::vec(any::<u8>(), 0..16),
        c in proptest::collection::vec(any::<u8>(), 0..16),
    ) {
        let (a, b, c) = (ub(&a), ub(&b), ub(&c));
        prop_assert_eq!(a.mul(&b), b.mul(&a));
        // a * (b + c) == a*b + a*c
        prop_assert_eq!(a.mul(&b.add(&c)), a.mul(&b).add(&a.mul(&c)));
    }

    #[test]
    fn add_then_sub_roundtrips(
        a in proptest::collection::vec(any::<u8>(), 0..24),
        b in proptest::collection::vec(any::<u8>(), 0..24),
    ) {
        let (a, b) = (ub(&a), ub(&b));
        prop_assert_eq!(a.add(&b).sub(&b), a);
    }

    #[test]
    fn divrem_invariant(
        a in proptest::collection::vec(any::<u8>(), 0..32),
        d in proptest::collection::vec(any::<u8>(), 1..16),
    ) {
        let a = ub(&a);
        let d = ub(&d);
        prop_assume!(!d.is_zero());
        let (q, r) = a.divrem(&d);
        prop_assert_eq!(q.mul(&d).add(&r), a, "a == q*d + r");
        prop_assert!(r.cmp_to(&d) == std::cmp::Ordering::Less, "r < d");
    }

    #[test]
    fn shifts_roundtrip(a in proptest::collection::vec(any::<u8>(), 0..24),
                        bits in 0usize..100) {
        let a = ub(&a);
        prop_assert_eq!(a.shl(bits).shr(bits), a);
    }

    #[test]
    fn bytes_roundtrip(a in proptest::collection::vec(any::<u8>(), 0..40)) {
        let n = ub(&a);
        prop_assert_eq!(Ub::from_bytes_be(&n.to_bytes_be()), n.clone());
        prop_assert_eq!(Ub::from_hex(&n.to_hex()), n);
    }

    #[test]
    fn modpow_montgomery_matches_naive(
        base in proptest::collection::vec(any::<u8>(), 1..12),
        exp in 0u64..10_000,
        modulus in proptest::collection::vec(any::<u8>(), 2..12),
    ) {
        let mut m = ub(&modulus);
        if !m.is_odd() {
            m = m.add(&Ub::one()); // force odd so Montgomery path runs
        }
        prop_assume!(m.bit_len() >= 2);
        let base = ub(&base);
        let e = Ub::from_u64(exp);
        let fast = base.modpow(&e, &m);
        // Naive reference via repeated mul_mod.
        let mut reference = Ub::one();
        let b = base.rem(&m);
        for i in (0..e.bit_len()).rev() {
            reference = reference.mul_mod(&reference, &m);
            if e.bit(i) {
                reference = reference.mul_mod(&b, &m);
            }
        }
        prop_assert_eq!(fast, reference);
    }

    // --- hash/MAC incrementality ---

    #[test]
    fn sha256_incremental_equals_oneshot(
        data in proptest::collection::vec(any::<u8>(), 0..512),
        split in 0usize..512,
    ) {
        let split = split.min(data.len());
        let mut h = Sha256::new();
        h.update(&data[..split]);
        h.update(&data[split..]);
        prop_assert_eq!(h.finish(), sha256(&data));
    }

    #[test]
    fn poly1305_incremental_equals_oneshot(
        key in proptest::collection::vec(any::<u8>(), 32..=32),
        data in proptest::collection::vec(any::<u8>(), 0..300),
        split in 0usize..300,
    ) {
        let key: [u8; 32] = key.try_into().unwrap();
        let split = split.min(data.len());
        let mut p = Poly1305::new(&key);
        p.update(&data[..split]);
        p.update(&data[split..]);
        prop_assert_eq!(p.finish(), poly1305(&key, &data));
    }

    #[test]
    fn hmac_distinguishes_key_and_message(
        key in proptest::collection::vec(any::<u8>(), 1..64),
        msg in proptest::collection::vec(any::<u8>(), 0..128),
    ) {
        let tag = hmac_sha256(&key, &msg);
        let mut key2 = key.clone();
        key2[0] ^= 1;
        prop_assert_ne!(hmac_sha256(&key2, &msg), tag);
        let mut msg2 = msg.clone();
        msg2.push(0);
        prop_assert_ne!(hmac_sha256(&key, &msg2), tag);
    }

    // --- cipher roundtrips ---

    #[test]
    fn cbc_roundtrips_all_inputs(
        key in proptest::collection::vec(any::<u8>(), 16..=16),
        iv in proptest::collection::vec(any::<u8>(), 16..=16),
        pt in proptest::collection::vec(any::<u8>(), 0..200),
    ) {
        let key: [u8; 16] = key.try_into().unwrap();
        let iv: [u8; 16] = iv.try_into().unwrap();
        let ct = cbc::encrypt(&key, &iv, &pt);
        prop_assert_eq!(cbc::decrypt(&key, &iv, &ct).unwrap(), pt);
    }

    #[test]
    fn chacha_xor_is_involutive(
        key in proptest::collection::vec(any::<u8>(), 32..=32),
        nonce in proptest::collection::vec(any::<u8>(), 12..=12),
        counter in any::<u32>(),
        data in proptest::collection::vec(any::<u8>(), 0..300),
    ) {
        let key: [u8; 32] = key.try_into().unwrap();
        let nonce: [u8; 12] = nonce.try_into().unwrap();
        let mut buf = data.clone();
        chacha20::xor_stream(&key, counter, &nonce, &mut buf);
        chacha20::xor_stream(&key, counter, &nonce, &mut buf);
        prop_assert_eq!(buf, data);
    }

    // --- SIMD fast path vs scalar reference agreement ---
    //
    // On SIMD-capable hosts these pin the dispatched AES-NI/CLMUL and AVX2
    // paths against the portable scalar references, bit for bit, across
    // lengths straddling every batch boundary. On plain hosts (or with the
    // `portable` feature) both sides take the scalar path and the tests
    // degenerate to self-consistency — still a valid law, never skipped.

    #[test]
    fn gcm_dispatched_and_portable_seals_agree(
        key in proptest::collection::vec(any::<u8>(), 16..=16),
        nonce in proptest::collection::vec(any::<u8>(), 12..=12),
        aad in proptest::collection::vec(any::<u8>(), 0..64),
        pt in proptest::collection::vec(any::<u8>(), 0..1024),
    ) {
        use ts_crypto::gcm;
        let key: [u8; 16] = key.try_into().unwrap();
        let nonce: [u8; 12] = nonce.try_into().unwrap();
        let fast = gcm::seal(&key, &nonce, &aad, &pt);
        let slow = gcm::seal_portable(&key, &nonce, &aad, &pt);
        prop_assert_eq!(&fast, &slow);
        // Cross-open: each implementation accepts the other's output.
        prop_assert_eq!(gcm::open(&key, &nonce, &aad, &slow).unwrap(), pt.clone());
        prop_assert_eq!(gcm::open_portable(&key, &nonce, &aad, &fast).unwrap(), pt);
    }

    #[test]
    fn gcm_agrees_with_chunked_aad_absorption(
        key in proptest::collection::vec(any::<u8>(), 16..=16),
        nonce in proptest::collection::vec(any::<u8>(), 12..=12),
        aad in proptest::collection::vec(any::<u8>(), 0..100),
        pt_len in 0usize..=1024,
    ) {
        // AAD lengths crossing block boundaries (the padded-absorption
        // path) must not perturb hardware/scalar agreement.
        use ts_crypto::gcm;
        let key: [u8; 16] = key.try_into().unwrap();
        let nonce: [u8; 12] = nonce.try_into().unwrap();
        let pt: Vec<u8> = (0..pt_len).map(|i| (i % 251) as u8).collect();
        for cut in [0, aad.len() / 2, aad.len()] {
            let fast = gcm::seal(&key, &nonce, &aad[..cut], &pt);
            prop_assert_eq!(fast, gcm::seal_portable(&key, &nonce, &aad[..cut], &pt));
        }
    }

    #[test]
    fn chacha_dispatched_and_portable_streams_agree(
        key in proptest::collection::vec(any::<u8>(), 32..=32),
        nonce in proptest::collection::vec(any::<u8>(), 12..=12),
        counter in any::<u32>(),
        data in proptest::collection::vec(any::<u8>(), 0..1600),
    ) {
        let key: [u8; 32] = key.try_into().unwrap();
        let nonce: [u8; 12] = nonce.try_into().unwrap();
        let mut fast = data.clone();
        chacha20::xor_stream(&key, counter, &nonce, &mut fast);
        let mut slow = data.clone();
        chacha20::xor_stream_portable(&key, counter, &nonce, &mut slow);
        prop_assert_eq!(fast, slow);
    }

    #[test]
    fn aes128gcm_aead_roundtrip_and_tamper_detection(
        key in proptest::collection::vec(any::<u8>(), 16..=16),
        nonce in proptest::collection::vec(any::<u8>(), 12..=12),
        aad in proptest::collection::vec(any::<u8>(), 0..32),
        pt in proptest::collection::vec(any::<u8>(), 0..200),
        flip in any::<usize>(),
    ) {
        use ts_crypto::aead::{aes128gcm_open, aes128gcm_seal};
        let key: [u8; 16] = key.try_into().unwrap();
        let nonce: [u8; 12] = nonce.try_into().unwrap();
        let sealed = aes128gcm_seal(&key, &nonce, &aad, &pt);
        prop_assert_eq!(aes128gcm_open(&key, &nonce, &aad, &sealed).unwrap(), pt);
        let mut bad = sealed.clone();
        let idx = flip % bad.len();
        bad[idx] ^= 1;
        prop_assert!(aes128gcm_open(&key, &nonce, &aad, &bad).is_err());
    }

    #[test]
    fn aead_roundtrip_and_tamper_detection(
        key in proptest::collection::vec(any::<u8>(), 32..=32),
        nonce in proptest::collection::vec(any::<u8>(), 12..=12),
        aad in proptest::collection::vec(any::<u8>(), 0..32),
        pt in proptest::collection::vec(any::<u8>(), 0..200),
        flip in any::<usize>(),
    ) {
        use ts_crypto::aead::{chacha20poly1305_open, chacha20poly1305_seal};
        let key: [u8; 32] = key.try_into().unwrap();
        let nonce: [u8; 12] = nonce.try_into().unwrap();
        let sealed = chacha20poly1305_seal(&key, &nonce, &aad, &pt);
        prop_assert_eq!(chacha20poly1305_open(&key, &nonce, &aad, &sealed).unwrap(), pt);
        let mut bad = sealed.clone();
        let idx = flip % bad.len();
        bad[idx] ^= 1;
        prop_assert!(chacha20poly1305_open(&key, &nonce, &aad, &bad).is_err());
    }

    // --- key exchange agreement ---

    #[test]
    fn x25519_agreement(seed_a in any::<u64>(), seed_b in any::<u64>()) {
        use ts_crypto::x25519::X25519KeyPair;
        prop_assume!(seed_a != seed_b);
        let mut ra = HmacDrbg::from_seed_label(seed_a, "a");
        let mut rb = HmacDrbg::from_seed_label(seed_b, "b");
        let a = X25519KeyPair::generate(&mut ra);
        let b = X25519KeyPair::generate(&mut rb);
        prop_assert_eq!(a.shared_secret(&b.public).unwrap(), b.shared_secret(&a.public).unwrap());
    }

    #[test]
    fn x25519_public_key_is_the_ladder_on_the_base_point(
        s in proptest::collection::vec(any::<u8>(), 32),
    ) {
        use ts_crypto::x25519::{public_key, x25519, BASEPOINT};
        let s: [u8; 32] = s.try_into().unwrap();
        prop_assert_eq!(public_key(&s), x25519(&s, &BASEPOINT));
    }

    // --- DRBG determinism ---

    #[test]
    fn drbg_streams_deterministic_and_labelled(
        seed in any::<u64>(),
        n in 1usize..200,
    ) {
        let mut a = HmacDrbg::from_seed_label(seed, "x");
        let mut b = HmacDrbg::from_seed_label(seed, "x");
        prop_assert_eq!(a.bytes(n), b.bytes(n));
        let mut c = HmacDrbg::from_seed_label(seed, "y");
        let mut a2 = HmacDrbg::from_seed_label(seed, "x");
        prop_assert_ne!(c.bytes(32), a2.bytes(32));
    }
}
