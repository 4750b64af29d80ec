//! Minimal X.509 v3 certificates with RSA-SHA256 signatures.
//!
//! Profile: version 3, RSA SubjectPublicKeyInfo, GeneralizedTime validity
//! on the simulation's virtual clock, a single-CN distinguished name, and
//! two extensions — basicConstraints (CA flag) and subjectAltName (DNS
//! names, wildcards allowed). That is exactly the surface the study's trust
//! decisions exercise.

use crate::der::{self, DerError, Reader, Tag};
use ts_crypto::bignum::{Montgomery, Ub};
use ts_crypto::rsa::{RsaPrivateKey, RsaPublicKey};

/// OID arcs used by the profile.
mod oids {
    pub const SHA256_WITH_RSA: [u64; 7] = [1, 2, 840, 113549, 1, 1, 11];
    pub const RSA_ENCRYPTION: [u64; 7] = [1, 2, 840, 113549, 1, 1, 1];
    pub const COMMON_NAME: [u64; 4] = [2, 5, 4, 3];
    pub const BASIC_CONSTRAINTS: [u64; 4] = [2, 5, 29, 19];
    pub const SUBJECT_ALT_NAME: [u64; 4] = [2, 5, 29, 17];
}

/// A distinguished name, reduced to its Common Name.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct DistinguishedName {
    /// The CN attribute (e.g. `"SimCA Root 1"` or `"*.cdn-alpha.sim"`).
    pub common_name: String,
}

impl DistinguishedName {
    /// Construct from a CN string.
    pub fn cn(name: &str) -> Self {
        DistinguishedName {
            common_name: name.to_string(),
        }
    }

    fn encode(&self) -> Vec<u8> {
        // RDNSequence → SET → SEQUENCE { OID, UTF8String }
        let attr = der::sequence(&[
            der::oid(&oids::COMMON_NAME),
            der::utf8_string(&self.common_name),
        ]);
        let mut set = Vec::new();
        der::write_tlv(&mut set, Tag::Set, &attr);
        der::sequence(&[set])
    }

    fn decode(r: &mut Reader) -> Result<Self, DerError> {
        let mut rdns = r.read_sequence()?;
        let set = rdns.read_tlv(Tag::Set)?;
        rdns.finish()?;
        let mut set_r = Reader::new(set);
        let mut attr = set_r.read_sequence()?;
        set_r.finish()?;
        let arcs = attr.read_oid()?;
        if arcs != oids::COMMON_NAME {
            return Err(DerError::BadValue("expected CN attribute"));
        }
        let cn = attr.read_utf8_string()?;
        attr.finish()?;
        Ok(DistinguishedName { common_name: cn })
    }
}

/// Certificate validity window in virtual seconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Validity {
    /// Inclusive start.
    pub not_before: u64,
    /// Inclusive end.
    pub not_after: u64,
}

impl Validity {
    /// True if `now` falls inside the window.
    pub fn contains(&self, now: u64) -> bool {
        self.not_before <= now && now <= self.not_after
    }
}

/// Parameters for issuing a certificate.
#[derive(Debug, Clone)]
pub struct CertificateParams {
    /// Serial number.
    pub serial: u64,
    /// Subject name.
    pub subject: DistinguishedName,
    /// Validity window.
    pub validity: Validity,
    /// DNS subjectAltNames; wildcard entries like `*.example.sim` allowed.
    pub dns_names: Vec<String>,
    /// CA certificate (can sign others)?
    pub is_ca: bool,
}

/// A parsed (or freshly issued) certificate plus its DER encoding.
#[derive(Debug, Clone)]
pub struct Certificate {
    /// Serial number.
    pub serial: Ub,
    /// Issuer name.
    pub issuer: DistinguishedName,
    /// Subject name.
    pub subject: DistinguishedName,
    /// Validity window.
    pub validity: Validity,
    /// Subject public key.
    pub public_key: RsaPublicKey,
    /// DNS names from subjectAltName.
    pub dns_names: Vec<String>,
    /// basicConstraints CA flag.
    pub is_ca: bool,
    /// The DER bytes of the TBSCertificate (what the signature covers).
    pub tbs_der: Vec<u8>,
    /// The signature over `tbs_der`.
    pub signature: Vec<u8>,
    /// The complete certificate DER.
    pub der: Vec<u8>,
}

impl PartialEq for Certificate {
    fn eq(&self, other: &Self) -> bool {
        self.der == other.der
    }
}
impl Eq for Certificate {}

fn encode_spki(key: &RsaPublicKey) -> Vec<u8> {
    let alg = der::sequence(&[der::oid(&oids::RSA_ENCRYPTION), der::null()]);
    let rsa_key = der::sequence(&[der::integer(&key.n), der::integer(&key.e)]);
    der::sequence(&[alg, der::bit_string(&rsa_key)])
}

fn decode_spki(r: &mut Reader) -> Result<RsaPublicKey, DerError> {
    let mut spki = r.read_sequence()?;
    let mut alg = spki.read_sequence()?;
    let arcs = alg.read_oid()?;
    if arcs != oids::RSA_ENCRYPTION {
        return Err(DerError::BadValue("unsupported key algorithm"));
    }
    alg.read_null()?;
    alg.finish()?;
    let key_bits = spki.read_bit_string()?;
    spki.finish()?;
    let mut key_r = Reader::new(key_bits);
    let mut rsa = key_r.read_sequence()?;
    key_r.finish()?;
    let n = rsa.read_integer()?;
    let e = rsa.read_integer()?;
    rsa.finish()?;
    // Peer bytes become a key here, and every use of the key runs
    // Montgomery arithmetic, which needs an odd modulus of at least 3 and
    // has no kernel wider than 4096 bits.
    if !Montgomery::accepts(&n) {
        return Err(DerError::BadValue(
            "RSA modulus must be odd, at least 3 and at most 4096 bits",
        ));
    }
    Ok(RsaPublicKey::new(n, e))
}

fn encode_extensions(params: &CertificateParams) -> Vec<u8> {
    let mut exts = Vec::new();
    // basicConstraints: SEQUENCE { OID, critical TRUE, OCTET STRING { SEQUENCE { BOOLEAN } } }
    let bc_value = der::sequence(&[der::boolean(params.is_ca)]);
    exts.push(der::sequence(&[
        der::oid(&oids::BASIC_CONSTRAINTS),
        der::boolean(true),
        der::octet_string(&bc_value),
    ]));
    if !params.dns_names.is_empty() {
        // subjectAltName: GeneralNames, dNSName = [2] IMPLICIT IA5String.
        // We encode each as a context-2 primitive TLV by hand.
        let mut names = Vec::new();
        for name in &params.dns_names {
            names.push(0x82u8); // context-specific primitive [2]
            names.push(name.len() as u8);
            names.extend_from_slice(name.as_bytes());
        }
        let mut general_names = Vec::new();
        der::write_tlv(&mut general_names, Tag::Sequence, &names);
        exts.push(der::sequence(&[
            der::oid(&oids::SUBJECT_ALT_NAME),
            der::octet_string(&general_names),
        ]));
    }
    // Extensions ::= [3] EXPLICIT SEQUENCE OF Extension
    der::context(3, &der::sequence(&exts))
}

struct ParsedExtensions {
    dns_names: Vec<String>,
    is_ca: bool,
}

fn decode_extensions(r: &mut Reader) -> Result<ParsedExtensions, DerError> {
    let mut out = ParsedExtensions {
        dns_names: Vec::new(),
        is_ca: false,
    };
    let ctx = match r.read_optional_context(3)? {
        Some(c) => c,
        None => return Ok(out),
    };
    let mut ctx = ctx;
    let mut exts = ctx.read_sequence()?;
    ctx.finish()?;
    while !exts.is_empty() {
        let mut ext = exts.read_sequence()?;
        let arcs = ext.read_oid()?;
        // Optional critical flag.
        let _critical = if ext.peek_tag() == Some(0x01) {
            ext.read_boolean()?
        } else {
            false
        };
        let value = ext.read_octet_string()?;
        ext.finish()?;
        if arcs == oids::BASIC_CONSTRAINTS {
            let mut v = Reader::new(value);
            let mut seq = v.read_sequence()?;
            v.finish()?;
            out.is_ca = if seq.is_empty() {
                false
            } else {
                seq.read_boolean()?
            };
        } else if arcs == oids::SUBJECT_ALT_NAME {
            let mut v = Reader::new(value);
            let mut names = v.read_sequence()?;
            v.finish()?;
            while !names.is_empty() {
                let (tag, contents) = names.read_any()?;
                if tag == 0x82 {
                    let name = String::from_utf8(contents.to_vec())
                        .map_err(|_| DerError::BadValue("dNSName not UTF-8"))?;
                    out.dns_names.push(name);
                }
            }
        }
        // Unknown extensions are skipped (non-critical assumption: fine for
        // our own profile).
    }
    Ok(out)
}

impl Certificate {
    /// Issue a certificate for `subject_key`, signed by `issuer_key` under
    /// `issuer_name`. Pass the same key and name for self-signed roots.
    pub fn issue(
        params: &CertificateParams,
        subject_key: &RsaPublicKey,
        issuer_name: &DistinguishedName,
        issuer_key: &RsaPrivateKey,
    ) -> Self {
        let sig_alg = der::sequence(&[der::oid(&oids::SHA256_WITH_RSA), der::null()]);
        let tbs = der::sequence(&[
            der::context(0, &der::integer_u64(2)), // version v3
            der::integer_u64(params.serial),
            sig_alg.clone(),
            issuer_name.encode(),
            der::sequence(&[
                der::generalized_time(params.validity.not_before),
                der::generalized_time(params.validity.not_after),
            ]),
            params.subject.encode(),
            encode_spki(subject_key),
            encode_extensions(params),
        ]);
        let signature = issuer_key.sign(&tbs).expect("RSA signing cannot fail here");
        let der_bytes = der::sequence(&[tbs.clone(), sig_alg, der::bit_string(&signature)]);
        Certificate {
            serial: Ub::from_u64(params.serial),
            issuer: issuer_name.clone(),
            subject: params.subject.clone(),
            validity: params.validity,
            public_key: subject_key.clone(),
            dns_names: params.dns_names.clone(),
            is_ca: params.is_ca,
            tbs_der: tbs,
            signature,
            der: der_bytes,
        }
    }

    /// Parse a certificate from DER.
    pub fn parse(der_bytes: &[u8]) -> Result<Self, DerError> {
        let mut r = Reader::new(der_bytes);
        let mut cert = r.read_sequence()?;
        r.finish()?;
        // Capture the raw TBS bytes for signature verification: re-read the
        // outer structure manually.
        let tbs_der = {
            let mut probe = Reader::new(der_bytes);
            let mut outer = probe.read_sequence()?;
            // read_any preserves the full TLV? It returns contents only, so
            // reconstruct: simplest is to re-encode below after parsing.
            let (tag, contents) = outer.read_any()?;
            if tag != Tag::Sequence.byte() {
                return Err(DerError::BadValue("TBS not a SEQUENCE"));
            }
            let mut full = Vec::with_capacity(contents.len() + 4);
            der::write_tlv(&mut full, Tag::Sequence, contents);
            full
        };
        let mut tbs = cert.read_sequence()?;
        // version [0] EXPLICIT
        let mut version = tbs
            .read_optional_context(0)?
            .ok_or(DerError::BadValue("missing version"))?;
        if version.read_integer_u64()? != 2 {
            return Err(DerError::BadValue("unsupported X.509 version"));
        }
        let serial = tbs.read_integer()?;
        let mut sig_alg = tbs.read_sequence()?;
        if sig_alg.read_oid()? != oids::SHA256_WITH_RSA {
            return Err(DerError::BadValue("unsupported signature algorithm"));
        }
        sig_alg.read_null()?;
        let issuer = DistinguishedName::decode(&mut tbs)?;
        let mut validity_seq = tbs.read_sequence()?;
        let not_before = validity_seq.read_generalized_time()?;
        let not_after = validity_seq.read_generalized_time()?;
        validity_seq.finish()?;
        let subject = DistinguishedName::decode(&mut tbs)?;
        let public_key = decode_spki(&mut tbs)?;
        let exts = decode_extensions(&mut tbs)?;
        tbs.finish()?;
        // Outer signature algorithm + signature.
        let mut outer_alg = cert.read_sequence()?;
        if outer_alg.read_oid()? != oids::SHA256_WITH_RSA {
            return Err(DerError::BadValue("signature algorithm mismatch"));
        }
        outer_alg.read_null()?;
        let signature = cert.read_bit_string()?.to_vec();
        cert.finish()?;
        Ok(Certificate {
            serial,
            issuer,
            subject,
            validity: Validity {
                not_before,
                not_after,
            },
            public_key,
            dns_names: exts.dns_names,
            is_ca: exts.is_ca,
            tbs_der,
            signature,
            der: der_bytes.to_vec(),
        })
    }

    /// Verify this certificate's signature against an issuer public key.
    pub fn verify_signature(&self, issuer_key: &RsaPublicKey) -> bool {
        issuer_key.verify(&self.tbs_der, &self.signature).is_ok()
    }

    /// True if `hostname` matches a SAN entry (or the subject CN as a
    /// fallback). Wildcards match exactly one leftmost label.
    pub fn matches_hostname(&self, hostname: &str) -> bool {
        let candidates: Vec<&str> = if self.dns_names.is_empty() {
            vec![self.subject.common_name.as_str()]
        } else {
            self.dns_names.iter().map(|s| s.as_str()).collect()
        };
        candidates.iter().any(|pat| hostname_matches(pat, hostname))
    }
}

/// RFC 6125-style hostname matching: exact, or `*.` wildcard covering one
/// leftmost label (never the registrable domain itself).
pub fn hostname_matches(pattern: &str, hostname: &str) -> bool {
    let pattern = pattern.to_ascii_lowercase();
    let hostname = hostname.to_ascii_lowercase();
    if let Some(suffix) = pattern.strip_prefix("*.") {
        match hostname.split_once('.') {
            Some((label, rest)) => !label.is_empty() && rest == suffix,
            None => false,
        }
    } else {
        pattern == hostname
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ts_crypto::drbg::HmacDrbg;

    fn keypair(seed: &[u8]) -> RsaPrivateKey {
        let mut rng = HmacDrbg::new(seed);
        RsaPrivateKey::generate(512, &mut rng).unwrap()
    }

    fn sample_params() -> CertificateParams {
        CertificateParams {
            serial: 42,
            subject: DistinguishedName::cn("www.example.sim"),
            validity: Validity {
                not_before: 100,
                not_after: 1_000_000,
            },
            dns_names: vec!["www.example.sim".into(), "*.cdn.example.sim".into()],
            is_ca: false,
        }
    }

    #[test]
    fn issue_parse_roundtrip() {
        let ca_key = keypair(b"ca");
        let leaf_key = keypair(b"leaf");
        let ca_name = DistinguishedName::cn("SimCA Root");
        let cert = Certificate::issue(&sample_params(), &leaf_key.public, &ca_name, &ca_key);
        let parsed = Certificate::parse(&cert.der).unwrap();
        assert_eq!(parsed, cert);
        assert_eq!(parsed.subject.common_name, "www.example.sim");
        assert_eq!(parsed.issuer.common_name, "SimCA Root");
        assert_eq!(parsed.serial, Ub::from_u64(42));
        assert_eq!(
            parsed.validity,
            Validity {
                not_before: 100,
                not_after: 1_000_000
            }
        );
        assert_eq!(
            parsed.dns_names,
            vec!["www.example.sim", "*.cdn.example.sim"]
        );
        assert!(!parsed.is_ca);
        assert_eq!(parsed.public_key, leaf_key.public);
    }

    #[test]
    fn signature_verifies_with_right_key_only() {
        let ca_key = keypair(b"ca2");
        let other = keypair(b"other");
        let leaf_key = keypair(b"leaf2");
        let cert = Certificate::issue(
            &sample_params(),
            &leaf_key.public,
            &DistinguishedName::cn("SimCA"),
            &ca_key,
        );
        assert!(cert.verify_signature(&ca_key.public));
        assert!(!cert.verify_signature(&other.public));
        assert!(!cert.verify_signature(&leaf_key.public));
    }

    #[test]
    fn parsed_cert_signature_still_verifies() {
        let ca_key = keypair(b"ca3");
        let leaf_key = keypair(b"leaf3");
        let cert = Certificate::issue(
            &sample_params(),
            &leaf_key.public,
            &DistinguishedName::cn("SimCA"),
            &ca_key,
        );
        let parsed = Certificate::parse(&cert.der).unwrap();
        assert!(parsed.verify_signature(&ca_key.public));
    }

    #[test]
    fn tampered_der_fails_signature_or_parse() {
        let ca_key = keypair(b"ca4");
        let leaf_key = keypair(b"leaf4");
        let cert = Certificate::issue(
            &sample_params(),
            &leaf_key.public,
            &DistinguishedName::cn("SimCA"),
            &ca_key,
        );
        // Flip a byte inside the subject name region.
        let mut tampered = cert.der.clone();
        let pos = tampered
            .windows(7)
            .position(|w| w == b"example")
            .expect("subject bytes present");
        tampered[pos] ^= 1;
        match Certificate::parse(&tampered) {
            Ok(parsed) => assert!(!parsed.verify_signature(&ca_key.public)),
            Err(_) => {} // structural break is fine too
        }
    }

    #[test]
    fn unusable_rsa_modulus_is_rejected_at_parse() {
        // Montgomery arithmetic needs an odd modulus ≥ 3 of at most 4096
        // bits; a peer's key that breaks this must fail to parse, not
        // panic on first use.
        let ca_key = keypair(b"ca-even");
        let mut even = [0xffu8; 64];
        even[63] = 0xfe;
        let too_wide = Ub::one().shl(4159).add(&Ub::one());
        for n in [Ub::from_bytes_be(&even), Ub::from_u64(1), too_wide] {
            let key = RsaPublicKey::new(n, Ub::from_u64(65_537));
            let cert = Certificate::issue(
                &sample_params(),
                &key,
                &DistinguishedName::cn("SimCA"),
                &ca_key,
            );
            assert!(matches!(
                Certificate::parse(&cert.der),
                Err(DerError::BadValue(_))
            ));
        }
    }

    #[test]
    fn self_signed_root() {
        let ca_key = keypair(b"root");
        let name = DistinguishedName::cn("SimCA Root 1");
        let params = CertificateParams {
            serial: 1,
            subject: name.clone(),
            validity: Validity {
                not_before: 0,
                not_after: u32::MAX as u64,
            },
            dns_names: vec![],
            is_ca: true,
        };
        let cert = Certificate::issue(&params, &ca_key.public, &name, &ca_key);
        assert!(cert.verify_signature(&ca_key.public));
        assert!(cert.is_ca);
        assert_eq!(cert.issuer, cert.subject);
        let parsed = Certificate::parse(&cert.der).unwrap();
        assert!(parsed.is_ca);
    }

    #[test]
    fn hostname_matching_rules() {
        assert!(hostname_matches("www.example.sim", "www.example.sim"));
        assert!(hostname_matches("WWW.EXAMPLE.SIM", "www.example.sim"));
        assert!(hostname_matches("*.example.sim", "foo.example.sim"));
        assert!(!hostname_matches("*.example.sim", "example.sim"));
        assert!(!hostname_matches("*.example.sim", "a.b.example.sim"));
        assert!(!hostname_matches("*.example.sim", "fooexample.sim"));
        assert!(!hostname_matches("www.example.sim", "example.sim"));
    }

    #[test]
    fn cert_hostname_uses_san_then_cn() {
        let ca_key = keypair(b"ca5");
        let leaf_key = keypair(b"leaf5");
        let cert = Certificate::issue(
            &sample_params(),
            &leaf_key.public,
            &DistinguishedName::cn("SimCA"),
            &ca_key,
        );
        assert!(cert.matches_hostname("www.example.sim"));
        assert!(cert.matches_hostname("img.cdn.example.sim"));
        assert!(!cert.matches_hostname("other.sim"));
        // No SANs → CN fallback.
        let mut p = sample_params();
        p.dns_names.clear();
        let cert = Certificate::issue(
            &p,
            &leaf_key.public,
            &DistinguishedName::cn("SimCA"),
            &ca_key,
        );
        assert!(cert.matches_hostname("www.example.sim"));
    }

    #[test]
    fn validity_window() {
        let v = Validity {
            not_before: 10,
            not_after: 20,
        };
        assert!(!v.contains(9));
        assert!(v.contains(10));
        assert!(v.contains(15));
        assert!(v.contains(20));
        assert!(!v.contains(21));
    }
}
