//! The world's RSA key material: the CA hierarchy and the pool of domain
//! keys that every leaf certificate draws from.
//!
//! Generating it is most of the cost of building a small world (51 RSA
//! key generations at the default config), yet it depends only on the
//! seed, the key size and the pool size. So one [`KeyMaterial`] serves
//! every world built from one config: [`Population::build_with`] takes it
//! instead of generating it again.
//!
//! [`Population::build_with`]: crate::Population::build_with

use crate::build::PopulationConfig;
use std::sync::Arc;
use ts_crypto::drbg::HmacDrbg;
use ts_crypto::rsa::{RsaPrivateKey, RsaPublicKey};
use ts_tls::config::ServerIdentity;
use ts_x509::{Certificate, CertificateParams, DistinguishedName, RootStore, Validity};

const DAY: u64 = 86_400;

/// The PKI and the domain-key pool of one population config, shared by
/// reference count between the worlds built from it. Opaque: a world
/// reaches it only through the root store and the identities it issues.
#[derive(Clone)]
pub struct KeyMaterial(Arc<Keys>);

struct Keys {
    /// The seed and key size the keys were generated from.
    seed: u64,
    rsa_bits: usize,
    /// The self-signed trust anchor of the root store.
    root_cert: Certificate,
    /// The root-signed CA that issues every trusted leaf.
    inter_key: RsaPrivateKey,
    inter_cert: Certificate,
    /// The issuer of untrusted leaves, which no root vouches for.
    rogue_key: RsaPrivateKey,
    rogue_name: DistinguishedName,
    /// Domain keys; each leaf certifies one of them.
    pool: Vec<RsaPrivateKey>,
}

/// A CA certificate valid for the whole study and then some.
fn ca_cert(
    serial: u64,
    subject: &DistinguishedName,
    key: &RsaPublicKey,
    issuer: &DistinguishedName,
    issuer_key: &RsaPrivateKey,
) -> Certificate {
    let params = CertificateParams {
        serial,
        subject: subject.clone(),
        validity: Validity {
            not_before: 0,
            not_after: 20 * 360 * DAY,
        },
        dns_names: vec![],
        is_ca: true,
    };
    Certificate::issue(&params, key, issuer, issuer_key)
}

impl KeyMaterial {
    /// Generate the key material `cfg` calls for from the population
    /// DRBG's `"pki"` and `"key-pool"` forks: three CA keys from `pki_rng`,
    /// then `cfg.key_pool` domain keys from `key_rng`, all `cfg.rsa_bits`
    /// wide.
    pub(crate) fn generate(
        cfg: &PopulationConfig,
        mut pki_rng: HmacDrbg,
        mut key_rng: HmacDrbg,
    ) -> Self {
        let root_key = RsaPrivateKey::generate(cfg.rsa_bits, &mut pki_rng).expect("root keygen");
        let root_name = DistinguishedName::cn("NSS-sim Root CA");
        let root_cert = ca_cert(1, &root_name, &root_key.public, &root_name, &root_key);
        let inter_key = RsaPrivateKey::generate(cfg.rsa_bits, &mut pki_rng).expect("inter keygen");
        let inter_name = DistinguishedName::cn("NSS-sim Issuing CA");
        let inter_cert = ca_cert(2, &inter_name, &inter_key.public, &root_name, &root_key);
        let rogue_key = RsaPrivateKey::generate(cfg.rsa_bits, &mut pki_rng).expect("rogue keygen");
        let pool = (0..cfg.key_pool)
            .map(|_| RsaPrivateKey::generate(cfg.rsa_bits, &mut key_rng).expect("keygen"))
            .collect();
        KeyMaterial(Arc::new(Keys {
            seed: cfg.seed,
            rsa_bits: cfg.rsa_bits,
            root_cert,
            inter_key,
            inter_cert,
            rogue_key,
            rogue_name: DistinguishedName::cn("Untrusted Self-Sign CA"),
            pool,
        }))
    }

    /// Panics unless these keys are the ones `cfg` generates: a world
    /// built from another config's keys would not be the world `cfg`
    /// describes.
    pub(crate) fn assert_generated_for(&self, cfg: &PopulationConfig) {
        let k = &self.0;
        assert!(
            (k.seed, k.rsa_bits, k.pool.len()) == (cfg.seed, cfg.rsa_bits, cfg.key_pool),
            "key material of seed {} ({} x {}-bit pool) used for seed {} ({} x {}-bit pool)",
            k.seed,
            k.pool.len(),
            k.rsa_bits,
            cfg.seed,
            cfg.key_pool,
            cfg.rsa_bits,
        );
    }

    /// A root store holding the one trust anchor.
    pub(crate) fn root_store(&self) -> RootStore {
        let mut store = RootStore::new();
        store.add_root(self.0.root_cert.clone());
        store
    }

    /// Number of domain keys in the pool.
    pub(crate) fn pool_len(&self) -> usize {
        self.0.pool.len()
    }

    /// A server identity for `domain` on pool key `key_idx`: a leaf with
    /// serial `serial`, chained to the root through the issuing CA when
    /// `trusted`, else issued alone by the untrusted CA.
    pub(crate) fn identity(
        &self,
        key_idx: usize,
        domain: &str,
        serial: u64,
        trusted: bool,
    ) -> ServerIdentity {
        let k = &self.0;
        let key = &k.pool[key_idx];
        let params = CertificateParams {
            serial,
            subject: DistinguishedName::cn(domain),
            validity: Validity {
                not_before: 0,
                not_after: 10 * 360 * DAY,
            },
            dns_names: vec![domain.to_string()],
            is_ca: false,
        };
        let chain = if trusted {
            let leaf =
                Certificate::issue(&params, &key.public, &k.inter_cert.subject, &k.inter_key);
            vec![leaf, k.inter_cert.clone()]
        } else {
            vec![Certificate::issue(
                &params,
                &key.public,
                &k.rogue_name,
                &k.rogue_key,
            )]
        };
        ServerIdentity {
            chain,
            key: key.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// SHA-256 of the 51 moduli seed 2016 generates, big-endian and in
    /// generation order: root, issuing CA, untrusted CA, then the pool.
    const SEED_2016_MODULI_SHA256: &str =
        "edc448017b145e62ac750eee739faba3424a96be3e368d60fa6d6ef3139138fa";

    #[test]
    fn seed_2016_generates_the_pinned_keys() {
        let keys = crate::Population::build(PopulationConfig::new(2016, 100)).keys;
        let k = &keys.0;
        let moduli = [
            &k.root_cert.public_key,
            &k.inter_key.public,
            &k.rogue_key.public,
        ]
        .into_iter()
        .chain(k.pool.iter().map(|key| &key.public))
        .map(|public| public.n.to_bytes_be());
        let mut bytes = Vec::new();
        let mut count = 0;
        for n in moduli {
            assert_eq!(n.len(), 64, "every modulus is exactly 512 bits");
            bytes.extend(n);
            count += 1;
        }
        assert_eq!(count, 51);
        let hex: String = ts_crypto::sha256::sha256(&bytes)
            .iter()
            .map(|b| format!("{b:02x}"))
            .collect();
        assert_eq!(hex, SEED_2016_MODULI_SHA256);
    }

    #[test]
    #[should_panic(expected = "key material of seed 7")]
    fn another_seeds_keys_are_refused() {
        let mut cfg = PopulationConfig::new(7, 100);
        cfg.key_pool = 2;
        let keys = crate::Population::build(cfg.clone()).keys;
        cfg.seed = 8;
        crate::Population::build_with(cfg, keys);
    }
}
