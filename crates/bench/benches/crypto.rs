//! Microbenchmarks for the crypto substrate — the per-handshake cost
//! model behind the paper's performance-vs-security tradeoff (§2: the
//! shortcuts exist to skip exactly these operations).

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::time::Duration;
use ts_crypto::bignum::Ub;
use ts_crypto::dh::{DhGroup, DhKeyPair};
use ts_crypto::drbg::HmacDrbg;
use ts_crypto::prf::prf;
use ts_crypto::rsa::RsaPrivateKey;
use ts_crypto::sha256::sha256;
use ts_crypto::x25519::X25519KeyPair;

fn quick(g: &mut criterion::BenchmarkGroup<criterion::measurement::WallTime>) {
    g.sample_size(20);
    g.warm_up_time(Duration::from_millis(500));
    g.measurement_time(Duration::from_secs(2));
}

fn bench_hash_and_prf(c: &mut Criterion) {
    let mut g = c.benchmark_group("hash");
    quick(&mut g);
    let data = vec![0xabu8; 16 * 1024];
    g.throughput(Throughput::Bytes(data.len() as u64));
    g.bench_function("sha256_16k", |b| b.iter(|| sha256(&data)));
    g.finish();

    c.bench_function("tls12_prf_master_secret", |b| {
        let pm = [7u8; 48];
        let seed = [9u8; 64];
        b.iter(|| prf(&pm, b"master secret", &seed, 48));
    });
}

fn bench_record_protection(c: &mut Criterion) {
    use ts_crypto::aead::{cbc_hmac_seal, chacha20poly1305_seal};
    let mut g = c.benchmark_group("record_protection");
    quick(&mut g);
    let payload = vec![0x42u8; 1400]; // a typical record
    g.throughput(Throughput::Bytes(payload.len() as u64));
    g.bench_function("chacha20poly1305_seal_1400", |b| {
        let key = [1u8; 32];
        let nonce = [2u8; 12];
        b.iter(|| chacha20poly1305_seal(&key, &nonce, b"aad", &payload));
    });
    g.bench_function("aes128cbc_hmac_seal_1400", |b| {
        let ek = [1u8; 16];
        let mk = [2u8; 32];
        let iv = [3u8; 16];
        b.iter(|| cbc_hmac_seal(&ek, &mk, &iv, b"aad", &payload));
    });
    g.finish();
}

fn bench_key_exchange(c: &mut Criterion) {
    // Key generation and the shared-secret computation are timed apart:
    // criterion's `iter_batched` setup is untimed, so a key pair built
    // there would drop out of a "keygen plus shared" measurement.
    let mut g = c.benchmark_group("key_exchange");
    quick(&mut g);
    let mut rng = HmacDrbg::new(b"bench-x25519");
    let server = X25519KeyPair::generate(&mut rng);
    let client = X25519KeyPair::generate(&mut rng);
    g.bench_function("x25519_keygen", |b| {
        b.iter(|| X25519KeyPair::generate(&mut rng))
    });
    g.bench_function("x25519_shared", |b| {
        b.iter(|| client.shared_secret(&server.public).unwrap())
    });
    for group in [DhGroup::Sim256, DhGroup::Sim512, DhGroup::Modp1024] {
        let mut rng = HmacDrbg::new(b"bench-dhe");
        let server = DhKeyPair::generate(group, &mut rng);
        let client = DhKeyPair::generate(group, &mut rng);
        g.bench_function(format!("ffdhe_{group:?}_keygen"), |b| {
            b.iter(|| DhKeyPair::generate(group, &mut rng))
        });
        g.bench_function(format!("ffdhe_{group:?}_shared"), |b| {
            b.iter(|| client.shared_secret(&server.public).unwrap())
        });
    }
    g.finish();
}

fn bench_rsa(c: &mut Criterion) {
    let mut g = c.benchmark_group("rsa");
    quick(&mut g);
    let mut rng = HmacDrbg::new(b"bench-rsa");
    let key512 = RsaPrivateKey::generate(512, &mut rng).unwrap();
    let key1024 = RsaPrivateKey::generate(1024, &mut rng).unwrap();
    g.bench_function("sign_512", |b| {
        b.iter(|| key512.sign(b"server key exchange"))
    });
    g.bench_function("sign_1024", |b| {
        b.iter(|| key1024.sign(b"server key exchange"))
    });
    let sig = key512.sign(b"msg").unwrap();
    g.bench_function("verify_512", |b| {
        b.iter(|| key512.public.verify(b"msg", &sig))
    });
    g.finish();
}

fn bench_bignum(c: &mut Criterion) {
    let mut g = c.benchmark_group("bignum");
    quick(&mut g);
    let p = DhGroup::Modp1024.prime();
    let base = Ub::from_u64(2);
    let exp = Ub::from_hex("deadbeefcafebabe0123456789abcdef");
    g.bench_function("modpow_1024bit_mod_128bit_exp", |b| {
        b.iter(|| base.modpow(&exp, p))
    });
    g.bench_function("modpow_1024bit_cached_context", |b| {
        let mont = DhGroup::Modp1024.montgomery();
        b.iter(|| mont.modpow(&base, &exp))
    });
    let a = Ub::from_hex(&"f1e2d3c4".repeat(16));
    let d = Ub::from_hex(&"abcdef01".repeat(8));
    g.bench_function("divrem_512_by_256", |b| b.iter(|| a.divrem(&d)));
    g.finish();
}

criterion_group!(
    benches,
    bench_hash_and_prf,
    bench_record_protection,
    bench_key_exchange,
    bench_rsa,
    bench_bignum
);
criterion_main!(benches);
