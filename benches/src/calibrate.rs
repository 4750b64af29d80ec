//! Calibration loops over the public primitives, with the workloads'
//! inputs: 512-bit RSA, `DhGroup::Sim256`, X25519, the TLS PRF, 16 KiB
//! AES-128-GCM records, SHA-256 and the fleet's certificate chain, plus
//! every handshake step per kind. They give the per-call cost of the
//! layers the workloads only reach through the scanner or the TLS stack.

use std::hint::black_box;
use std::time::{Duration, Instant};
use ts_crypto::aead::{aes128gcm_open, aes128gcm_seal};
use ts_crypto::bignum::Ub;
use ts_crypto::dh::DhGroup;
use ts_crypto::drbg::HmacDrbg;
use ts_crypto::prf::prf;
use ts_crypto::rsa::RsaPrivateKey;
use ts_crypto::sha256::sha256;
use ts_crypto::x25519::{public_key, x25519};
use ts_loadgen::target_sni;

/// Each loop runs at least this long after its warm-up.
const LOOP_TIME: Duration = Duration::from_millis(60);

/// Mean wall nanoseconds per call of `f`.
fn ns_per_call(mut f: impl FnMut()) -> f64 {
    for _ in 0..8 {
        f();
    }
    let t = Instant::now();
    let mut calls = 0u64;
    while calls < 16 || t.elapsed() < LOOP_TIME {
        f();
        calls += 1;
    }
    t.elapsed().as_nanos() as f64 / calls as f64
}

/// Every calibration metric as `(name, value)`: `_ns` per primitive call,
/// `_us` per handshake step or 16 KiB record.
pub fn run(seed: u64) -> Result<Vec<(String, f64)>, String> {
    let mut rng = HmacDrbg::from_seed_label(seed, "benchmark-calibration");
    let key = RsaPrivateKey::generate(512, &mut rng).map_err(|e| format!("RSA key: {e}"))?;
    let msg = rng.bytes(48);
    let sig = key.sign(&msg).map_err(|e| format!("RSA sign: {e}"))?;
    let ciphertext = key
        .public
        .encrypt(&msg, &mut rng)
        .map_err(|e| format!("RSA encrypt: {e}"))?;
    let group = DhGroup::Sim256;
    let exponent = Ub::from_bytes_be(&rng.bytes(32));
    let mut scalar = [0u8; 32];
    rng.fill_bytes(&mut scalar);
    let mut peer = [0u8; 32];
    rng.fill_bytes(&mut peer);
    let point = public_key(&peer);
    let label_seed = rng.bytes(64);
    let gcm_key: [u8; 16] = rng.bytes(16).try_into().expect("16 bytes");
    let nonce: [u8; 12] = rng.bytes(12).try_into().expect("12 bytes");
    let record = rng.bytes(crate::handshake::ECHO_BYTES);
    let sealed = aes128gcm_seal(&gcm_key, &nonce, b"", &record);
    let block = rng.bytes(1024);
    let fleet = crate::handshake::fleet(seed);
    let chain = &fleet.configs[0].identity.chain;
    let sni = target_sni(0);

    let mut out: Vec<(String, f64)> = vec![
        (
            "crypto.rsa512.sign_ns",
            ns_per_call(|| {
                black_box(key.sign(black_box(&msg)).ok());
            }),
        ),
        (
            "crypto.rsa512.verify_ns",
            ns_per_call(|| {
                black_box(key.public.verify(black_box(&msg), &sig).ok());
            }),
        ),
        (
            "crypto.rsa512.decrypt_ns",
            ns_per_call(|| {
                black_box(key.decrypt(black_box(&ciphertext)).ok());
            }),
        ),
        (
            "crypto.modpow_sim256_ns",
            ns_per_call(|| {
                black_box(
                    group
                        .montgomery()
                        .modpow(group.generator(), black_box(&exponent)),
                );
            }),
        ),
        (
            "crypto.x25519_ns",
            ns_per_call(|| {
                black_box(x25519(black_box(&scalar), &point));
            }),
        ),
        (
            "crypto.prf48_ns",
            ns_per_call(|| {
                black_box(prf(black_box(&msg), b"master secret", &label_seed, 48));
            }),
        ),
        (
            "crypto.aes128gcm.seal16k_ns",
            ns_per_call(|| {
                black_box(aes128gcm_seal(&gcm_key, &nonce, b"", black_box(&record)));
            }),
        ),
        (
            "crypto.aes128gcm.open16k_ns",
            ns_per_call(|| {
                black_box(aes128gcm_open(&gcm_key, &nonce, b"", black_box(&sealed)).ok());
            }),
        ),
        (
            "crypto.sha256_1k_ns",
            ns_per_call(|| {
                black_box(sha256(black_box(&block)));
            }),
        ),
        (
            "x509.validate_ns",
            ns_per_call(|| {
                black_box(fleet.store.validate(black_box(chain), &sni, 100).ok());
            }),
        ),
    ]
    .into_iter()
    .map(|(name, ns)| (name.to_string(), ns))
    .collect();

    let steps = crate::handshake::calibrate(&fleet, seed)?;
    for (name, (ns, calls)) in steps.0 {
        out.push((format!("{name}_us"), ns as f64 / calls as f64 / 1e3));
    }
    Ok(out)
}
