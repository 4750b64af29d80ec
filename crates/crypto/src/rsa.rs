//! RSA key generation and PKCS#1 v1.5 signatures with SHA-256.
//!
//! TLS servers in the study authenticate with RSA certificates regardless of
//! key-exchange method (RSA, DHE_RSA, ECDHE_RSA suites). Key sizes are
//! configurable; the simulation defaults to 512-bit keys so that populating
//! tens of thousands of synthetic domains stays fast, while 1024/2048-bit
//! keys are supported and tested.

use crate::bignum::{gen_prime, Montgomery, Ub, MONT_CACHE_HIT};
use crate::drbg::HmacDrbg;
use crate::error::CryptoError;
use crate::sha256::sha256;
use crate::wipe::Wipe;
use std::sync::OnceLock;

/// The DER-encoded DigestInfo prefix for SHA-256 (RFC 8017 §9.2 note 1).
const SHA256_DIGEST_INFO: [u8; 19] = [
    0x30, 0x31, 0x30, 0x0d, 0x06, 0x09, 0x60, 0x86, 0x48, 0x01, 0x65, 0x03, 0x04, 0x02, 0x01, 0x05,
    0x00, 0x04, 0x20,
];

/// An RSA public key `(n, e)`.
///
/// Carries a lazily built [`Montgomery`] context for `n`, so repeated
/// operations against the same key instance (the server identity signing
/// every handshake's `signed_kex`) pay for `R² mod n` once. The context is
/// pure cache: equality and `Debug` ignore it.
#[derive(Clone)]
pub struct RsaPublicKey {
    /// Modulus.
    pub n: Ub,
    /// Public exponent (65537 for all generated keys).
    pub e: Ub,
    mont: OnceLock<Montgomery>,
}

impl PartialEq for RsaPublicKey {
    fn eq(&self, other: &Self) -> bool {
        self.n == other.n && self.e == other.e
    }
}

impl Eq for RsaPublicKey {}

impl std::fmt::Debug for RsaPublicKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "RsaPublicKey({} bits)", self.n.bit_len())
    }
}

/// The Chinese-remainder secret half of an RSA key: two ~half-width
/// exponentiations replace one full-width one (~3–4× on sign/decrypt).
// ctlint: secret
#[derive(Clone)]
struct RsaCrt {
    /// First prime factor.
    p: Ub,
    /// Second prime factor.
    q: Ub,
    /// `d mod (p-1)`.
    dp: Ub,
    /// `d mod (q-1)`.
    dq: Ub,
    /// `q^{-1} mod p`.
    qinv: Ub,
    /// Montgomery context for `p` (holds copies of the secret prime).
    mont_p: Montgomery,
    /// Montgomery context for `q`.
    mont_q: Montgomery,
}

impl std::fmt::Debug for RsaCrt {
    /// Redacting: none of the CRT components reach a formatter.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "RsaCrt(<redacted>)")
    }
}

impl Wipe for RsaCrt {
    fn wipe(&mut self) {
        self.p.wipe();
        self.q.wipe();
        self.dp.wipe();
        self.dq.wipe();
        self.qinv.wipe();
        self.mont_p.wipe();
        self.mont_q.wipe();
    }
}

impl Drop for RsaCrt {
    /// The factorization of `n` is total key compromise (paper §2.3's
    /// record-then-breach attacker); scrub it the moment the key dies.
    fn drop(&mut self) {
        self.wipe();
    }
}

impl RsaCrt {
    /// Derive the CRT components from a freshly generated `(p, q, d)`.
    fn derive(p: Ub, q: Ub, d: &Ub) -> Result<Self, CryptoError> {
        let dp = d.rem(&p.sub(&Ub::one()));
        let dq = d.rem(&q.sub(&Ub::one()));
        let qinv = q.modinv(&p)?;
        let mont_p = Montgomery::new(&p);
        let mont_q = Montgomery::new(&q);
        Ok(RsaCrt {
            p,
            q,
            dp,
            dq,
            qinv,
            mont_p,
            mont_q,
        })
    }

    /// `m^d mod n` by Garner's recombination of the two half-width
    /// exponentiations. Requires `m < n = p*q`.
    fn private_op(&self, m: &Ub) -> Ub {
        MONT_CACHE_HIT.inc();
        let m1 = self.mont_p.modpow(m, &self.dp);
        MONT_CACHE_HIT.inc();
        let m2 = self.mont_q.modpow(m, &self.dq);
        // h = qinv * (m1 - m2) mod p, with m2 brought into [0, p) first.
        // Computed as (m1 + p - m2p) mod p so no comparison branches on
        // the secret intermediates.
        let m2p = m2.rem(&self.p);
        let diff = m1.add(&self.p).sub(&m2p).rem(&self.p);
        let h = self.qinv.mul_mod(&diff, &self.p);
        m2.add(&h.mul(&self.q))
    }
}

/// An RSA private key. Holds the public half too.
#[derive(Clone)]
pub struct RsaPrivateKey {
    /// The public key.
    pub public: RsaPublicKey,
    /// Private exponent.
    pub d: Ub,
    /// CRT components when the factorization is known (generated keys).
    /// Keys reconstructed from `(n, e, d)` alone fall back to the
    /// full-width exponent path.
    crt: Option<RsaCrt>,
}

impl std::fmt::Debug for RsaPrivateKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "RsaPrivateKey({} bits)", self.public.n.bit_len())
    }
}

impl RsaPublicKey {
    /// Construct from modulus and public exponent.
    pub fn new(n: Ub, e: Ub) -> Self {
        RsaPublicKey {
            n,
            e,
            mont: OnceLock::new(),
        }
    }

    /// The per-key Montgomery context, built on first use.
    fn mont(&self) -> &Montgomery {
        MONT_CACHE_HIT.inc();
        self.mont.get_or_init(|| Montgomery::new(&self.n))
    }

    /// Modulus length in bytes.
    pub fn modulus_len(&self) -> usize {
        (self.n.bit_len() + 7) / 8
    }

    /// Verify a PKCS#1 v1.5 SHA-256 signature over `msg`.
    pub fn verify(&self, msg: &[u8], signature: &[u8]) -> Result<(), CryptoError> {
        if signature.len() != self.modulus_len() {
            return Err(CryptoError::BadSignature);
        }
        let s = Ub::from_bytes_be(signature);
        if s.cmp_to(&self.n) != std::cmp::Ordering::Less {
            return Err(CryptoError::BadSignature);
        }
        let em = self
            .mont()
            .modpow(&s, &self.e)
            .to_bytes_be_padded(self.modulus_len());
        let expected = pkcs1_v15_encode(msg, self.modulus_len())?;
        if crate::ct::ct_eq(&em, &expected) {
            Ok(())
        } else {
            Err(CryptoError::BadSignature)
        }
    }

    /// RSA public-key *encryption* (PKCS#1 v1.5 type 2) — used by the
    /// legacy non-PFS `TLS_RSA_*` key exchange, where the client encrypts
    /// the premaster secret to the server's certificate key.
    pub fn encrypt(&self, msg: &[u8], rng: &mut HmacDrbg) -> Result<Vec<u8>, CryptoError> {
        let k = self.modulus_len();
        if msg.len() + 11 > k {
            return Err(CryptoError::BadLength("RSA plaintext too long"));
        }
        let mut em = vec![0u8; k];
        em[1] = 0x02;
        let pad_len = k - 3 - msg.len();
        // Non-zero random padding, drawn in batches: each `fill_bytes` is
        // a full HMAC-DRBG generate round, so per-byte draws would cost
        // more than the modexp itself. Zero bytes (~1/256) are discarded
        // and the shortfall redrawn.
        let mut filled = 0;
        let mut buf = [0u8; 64];
        while filled < pad_len {
            let need = (pad_len - filled).min(buf.len());
            rng.fill_bytes(&mut buf[..need]);
            for &b in &buf[..need] {
                if b != 0 && filled < pad_len {
                    em[2 + filled] = b;
                    filled += 1;
                }
            }
        }
        em[2 + pad_len] = 0x00;
        em[3 + pad_len..].copy_from_slice(msg);
        let m = Ub::from_bytes_be(&em);
        Ok(self.mont().modpow(&m, &self.e).to_bytes_be_padded(k))
    }
}

impl RsaPrivateKey {
    /// Generate a key with modulus of `bits` bits and e = 65537.
    pub fn generate(bits: usize, rng: &mut HmacDrbg) -> Result<Self, CryptoError> {
        assert!(bits >= 128 && bits % 2 == 0, "unsupported RSA size");
        let e = Ub::from_u64(65537);
        for _ in 0..64 {
            let p = gen_prime(bits / 2, |b| rng.fill_bytes(b));
            let q = gen_prime(bits / 2, |b| rng.fill_bytes(b));
            if p == q {
                continue;
            }
            let n = p.mul(&q);
            if n.bit_len() != bits {
                continue;
            }
            let phi = p.sub(&Ub::one()).mul(&q.sub(&Ub::one()));
            let d = match e.modinv(&phi) {
                Ok(d) => d,
                Err(_) => continue, // gcd(e, phi) != 1; rare
            };
            let crt = match RsaCrt::derive(p, q, &d) {
                Ok(crt) => Some(crt),
                Err(_) => None, // unreachable for distinct primes; fall back
            };
            return Ok(RsaPrivateKey {
                public: RsaPublicKey::new(n, e),
                d,
                crt,
            });
        }
        Err(CryptoError::KeygenFailure)
    }

    /// `m^d mod n`: two half-width CRT exponentiations when the
    /// factorization is available, one full-width otherwise.
    fn private_op(&self, m: &Ub) -> Ub {
        match &self.crt {
            Some(crt) => crt.private_op(m),
            None => m.modpow(&self.d, &self.public.n),
        }
    }

    /// Sign `msg` with PKCS#1 v1.5 / SHA-256.
    pub fn sign(&self, msg: &[u8]) -> Result<Vec<u8>, CryptoError> {
        let k = self.public.modulus_len();
        let em = pkcs1_v15_encode(msg, k)?;
        let m = Ub::from_bytes_be(&em);
        Ok(self.private_op(&m).to_bytes_be_padded(k))
    }

    /// RSA private-key decryption (PKCS#1 v1.5 type 2).
    pub fn decrypt(&self, ciphertext: &[u8]) -> Result<Vec<u8>, CryptoError> {
        let k = self.public.modulus_len();
        if ciphertext.len() != k {
            return Err(CryptoError::BadLength("RSA ciphertext length"));
        }
        let c = Ub::from_bytes_be(ciphertext);
        if c.cmp_to(&self.public.n) != std::cmp::Ordering::Less {
            return Err(CryptoError::BadLength("RSA ciphertext out of range"));
        }
        let em = self.private_op(&c).to_bytes_be_padded(k);
        if em[0] != 0x00 || em[1] != 0x02 {
            return Err(CryptoError::BadPadding);
        }
        // Find the 0x00 separator after at least 8 padding bytes.
        let sep = em[2..]
            .iter()
            .position(|&b| b == 0)
            .ok_or(CryptoError::BadPadding)?;
        if sep < 8 {
            return Err(CryptoError::BadPadding);
        }
        Ok(em[2 + sep + 1..].to_vec())
    }
}

/// EMSA-PKCS1-v1_5 encoding of SHA-256(msg) into `k` bytes.
fn pkcs1_v15_encode(msg: &[u8], k: usize) -> Result<Vec<u8>, CryptoError> {
    let digest = sha256(msg);
    let t_len = SHA256_DIGEST_INFO.len() + digest.len();
    if k < t_len + 11 {
        return Err(CryptoError::BadLength("RSA modulus too small for SHA-256"));
    }
    let mut em = Vec::with_capacity(k);
    em.push(0x00);
    em.push(0x01);
    em.extend(std::iter::repeat(0xff).take(k - t_len - 3));
    em.push(0x00);
    em.extend_from_slice(&SHA256_DIGEST_INFO);
    em.extend_from_slice(&digest);
    debug_assert_eq!(em.len(), k);
    Ok(em)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_key(bits: usize, seed: &[u8]) -> RsaPrivateKey {
        let mut rng = HmacDrbg::new(seed);
        RsaPrivateKey::generate(bits, &mut rng).expect("keygen")
    }

    #[test]
    fn sign_verify_roundtrip_512() {
        let key = test_key(512, b"rsa-512");
        let sig = key.sign(b"hello TLS").unwrap();
        assert_eq!(sig.len(), 64);
        key.public.verify(b"hello TLS", &sig).unwrap();
    }

    #[test]
    fn sign_verify_roundtrip_1024() {
        let key = test_key(1024, b"rsa-1024");
        let sig = key.sign(b"server key exchange params").unwrap();
        assert_eq!(sig.len(), 128);
        key.public
            .verify(b"server key exchange params", &sig)
            .unwrap();
    }

    #[test]
    fn verify_rejects_wrong_message() {
        let key = test_key(512, b"rsa-wrong-msg");
        let sig = key.sign(b"msg A").unwrap();
        assert_eq!(
            key.public.verify(b"msg B", &sig),
            Err(CryptoError::BadSignature)
        );
    }

    #[test]
    fn verify_rejects_tampered_signature() {
        let key = test_key(512, b"rsa-tamper");
        let mut sig = key.sign(b"msg").unwrap();
        sig[10] ^= 1;
        assert!(key.public.verify(b"msg", &sig).is_err());
    }

    #[test]
    fn verify_rejects_wrong_key() {
        let k1 = test_key(512, b"rsa-k1");
        let k2 = test_key(512, b"rsa-k2");
        let sig = k1.sign(b"msg").unwrap();
        assert!(k2.public.verify(b"msg", &sig).is_err());
    }

    #[test]
    fn verify_rejects_bad_lengths() {
        let key = test_key(512, b"rsa-len");
        let sig = key.sign(b"msg").unwrap();
        assert!(key.public.verify(b"msg", &sig[..63]).is_err());
        let mut long = sig.clone();
        long.push(0);
        assert!(key.public.verify(b"msg", &long).is_err());
    }

    #[test]
    fn encrypt_decrypt_roundtrip() {
        let key = test_key(512, b"rsa-enc");
        let mut rng = HmacDrbg::new(b"enc-rng");
        let pms = b"premaster secret bytes 48 long.................";
        let ct = key.public.encrypt(pms, &mut rng).unwrap();
        assert_eq!(ct.len(), 64);
        assert_eq!(key.decrypt(&ct).unwrap(), pms);
    }

    #[test]
    fn encrypt_rejects_oversized_plaintext() {
        let key = test_key(512, b"rsa-too-big");
        let mut rng = HmacDrbg::new(b"r");
        let big = vec![1u8; 64 - 10];
        assert!(key.public.encrypt(&big, &mut rng).is_err());
    }

    #[test]
    fn decrypt_rejects_garbage() {
        let key = test_key(512, b"rsa-garbage");
        assert!(key.decrypt(&[0u8; 64]).is_err());
        assert!(key.decrypt(&[0u8; 63]).is_err());
        assert!(key.decrypt(&[0xffu8; 64]).is_err());
    }

    #[test]
    fn crt_sign_matches_full_exponent_sign() {
        // RSA is a deterministic function of (m, d, n): Garner recombination
        // must reproduce the plain-exponent signature bit for bit.
        let key = test_key(512, b"rsa-crt");
        assert!(key.crt.is_some(), "generated keys carry CRT components");
        let plain = RsaPrivateKey {
            public: key.public.clone(),
            d: key.d.clone(),
            crt: None,
        };
        for msg in [b"a".as_slice(), b"server key exchange params", &[0xAB; 100]] {
            assert_eq!(key.sign(msg).unwrap(), plain.sign(msg).unwrap());
        }
    }

    #[test]
    fn crt_decrypt_matches_full_exponent_decrypt() {
        let key = test_key(512, b"rsa-crt-dec");
        let plain = RsaPrivateKey {
            public: key.public.clone(),
            d: key.d.clone(),
            crt: None,
        };
        let mut rng = HmacDrbg::new(b"crt-dec-rng");
        let pms = b"premaster secret bytes 48 long.................";
        let ct = key.public.encrypt(pms, &mut rng).unwrap();
        assert_eq!(key.decrypt(&ct).unwrap(), pms);
        assert_eq!(plain.decrypt(&ct).unwrap(), pms);
    }

    #[test]
    fn crt_components_wipe_clean() {
        let key = test_key(512, b"rsa-wipe");
        let mut crt = key.crt.clone().unwrap();
        crt.wipe();
        assert!(crt.p.is_zero());
        assert!(crt.q.is_zero());
        assert!(crt.dp.is_zero());
        assert!(crt.dq.is_zero());
        assert!(crt.qinv.is_zero());
        // The Montgomery contexts hold copies of p and q; the kernel
        // constants themselves are checked in bignum's wipe test.
        assert!(crt.mont_p.modulus().is_zero());
        assert!(crt.mont_q.modulus().is_zero());
        crt.wipe(); // idempotent
    }

    #[test]
    fn keygen_is_deterministic_per_seed() {
        let k1 = test_key(512, b"same-seed");
        let k2 = test_key(512, b"same-seed");
        assert_eq!(k1.public.n.to_hex(), k2.public.n.to_hex());
        let k3 = test_key(512, b"other-seed");
        assert_ne!(k1.public.n.to_hex(), k3.public.n.to_hex());
    }

    #[test]
    fn exact_modulus_bit_length() {
        for bits in [256usize, 512] {
            let key = test_key(bits, format!("bits-{bits}").as_bytes());
            assert_eq!(key.public.n.bit_len(), bits);
        }
    }
}
