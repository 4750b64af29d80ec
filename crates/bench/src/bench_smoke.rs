//! `repro --bench-smoke` — a seconds-scale performance regression probe.
//!
//! Runs a fixed batch of full handshakes per key-exchange family and
//! reports throughput as JSON with a **deterministic schema**: the key
//! set, ordering, iteration counts and telemetry counter values depend
//! only on the workload (fixed seeds, fixed batch sizes), while the
//! `*_per_sec` rates carry the wall-clock measurement. `BENCH_5.json` at
//! the repo root archives the before/after rates for the PR that rebuilt
//! the multiprecision hot path (u64 limbs, cached Montgomery contexts,
//! windowed exponentiation, RSA-CRT).

use std::sync::Arc;
use ts_crypto::drbg::HmacDrbg;
use ts_crypto::rsa::RsaPrivateKey;
use ts_tls::config::{ClientConfig, ServerConfig, ServerIdentity};
use ts_tls::ephemeral::{EphemeralCache, EphemeralPolicy};
use ts_tls::pump::pump;
use ts_tls::suites::CipherSuite;
use ts_tls::{ClientConn, ServerConn};
use ts_x509::{Certificate, CertificateParams, DistinguishedName, RootStore, Validity};

/// Handshakes per suite. Small enough that the whole probe finishes in a
/// couple of seconds, large enough to average out scheduler noise.
const ITERS: u64 = 24;

/// The three key-exchange families the paper's cost model distinguishes.
const SUITES: [CipherSuite; 3] = [
    CipherSuite::DheRsaAes128CbcSha256,
    CipherSuite::EcdheRsaChaCha20Poly1305,
    CipherSuite::RsaAes128CbcSha256,
];

struct SmokeWorld {
    store: Arc<RootStore>,
    config: ServerConfig,
}

/// A minimal CA + leaf + server world with per-handshake-fresh ephemerals,
/// so every iteration pays the full key-exchange cost being measured.
fn smoke_world() -> SmokeWorld {
    let mut rng = HmacDrbg::new(b"bench-smoke-world");
    let ca_key = RsaPrivateKey::generate(512, &mut rng).expect("ca key");
    let ca_name = DistinguishedName::cn("Smoke CA");
    let ca = Certificate::issue(
        &CertificateParams {
            serial: 1,
            subject: ca_name.clone(),
            validity: Validity {
                not_before: 0,
                not_after: u32::MAX as u64,
            },
            dns_names: vec![],
            is_ca: true,
        },
        &ca_key.public,
        &ca_name,
        &ca_key,
    );
    let key = RsaPrivateKey::generate(512, &mut rng).expect("leaf key");
    let leaf = Certificate::issue(
        &CertificateParams {
            serial: 2,
            subject: DistinguishedName::cn("smoke.sim"),
            validity: Validity {
                not_before: 0,
                not_after: u32::MAX as u64,
            },
            dns_names: vec!["smoke.sim".into()],
            is_ca: false,
        },
        &key.public,
        &ca_name,
        &ca_key,
    );
    let mut store = RootStore::new();
    store.add_root(ca);
    let identity = Arc::new(ServerIdentity {
        chain: vec![leaf],
        key,
    });
    let eph = EphemeralCache::new(
        EphemeralPolicy::FreshPerHandshake,
        ts_crypto::dh::DhGroup::Sim256,
        HmacDrbg::new(b"bench-smoke-eph"),
    );
    let config = ServerConfig::new(identity, eph);
    SmokeWorld {
        store: Arc::new(store),
        config,
    }
}

fn one_handshake(w: &SmokeWorld, suite: CipherSuite, seed: u64) {
    let mut ccfg = ClientConfig::new(w.store.clone(), "smoke.sim", 100);
    ccfg.suites = vec![suite];
    let mut client = ClientConn::new(ccfg, HmacDrbg::from_seed_label(seed, "smoke-c"));
    let mut server = ServerConn::new(
        w.config.clone(),
        HmacDrbg::from_seed_label(seed, "smoke-s"),
        100,
    );
    pump(&mut client, &mut server).expect("smoke handshake");
}

/// Render a rate with one decimal, avoiding float formatting surprises in
/// the degenerate zero-elapsed case.
fn rate(count: u64, secs: f64) -> String {
    if secs <= 0.0 {
        return "0.0".into();
    }
    format!("{:.1}", count as f64 / secs)
}

/// Plaintext bytes per record-layer probe iteration (a large-ish record
/// burst, past the 8-block threshold where the AVX2 ChaCha path engages).
const REC_BUF: usize = 16 * 1024;
/// Iterations per record-layer probe: 1 MiB of traffic each.
const REC_ITERS: u64 = 64;
/// Operation count for each key-exchange probe.
const KEX_OPS: u64 = 16;

/// Time `f` processing `bytes` total and render one `record_layer` line.
/// The dispatched and `_portable` variants run the same byte volume, so
/// their ratio is the SIMD speedup on this host.
fn record_probe(
    name: &str,
    bytes: u64,
    now_nanos: &dyn Fn() -> u64,
    mut f: impl FnMut(),
) -> String {
    let t0 = now_nanos();
    f();
    let secs = now_nanos().saturating_sub(t0) as f64 / 1e9;
    format!(
        "    {{\"name\": \"{name}\", \"bytes\": {bytes}, \"bytes_per_sec\": {}}}",
        rate(bytes, secs)
    )
}

/// Same shape for the asymmetric probes, counting operations not bytes.
fn kex_probe(name: &str, ops: u64, now_nanos: &dyn Fn() -> u64, mut f: impl FnMut()) -> String {
    let t0 = now_nanos();
    f();
    let secs = now_nanos().saturating_sub(t0) as f64 / 1e9;
    format!(
        "    {{\"name\": \"{name}\", \"ops\": {ops}, \"ops_per_sec\": {}}}",
        rate(ops, secs)
    )
}

/// The SIMD-vs-scalar record-layer probes: AES-GCM seal and the ChaCha20
/// keystream, each through the CPU-dispatched path and the in-binary
/// scalar reference (`*_portable`), over identical inputs.
fn record_layer_probes(now_nanos: &dyn Fn() -> u64) -> Vec<String> {
    let key16 = [0x42u8; 16];
    let key32 = [0x24u8; 32];
    let nonce = [0x07u8; 12];
    let aad = b"bench-smoke-aad";
    let plaintext: Vec<u8> = (0..REC_BUF).map(|i| i as u8).collect();
    let bytes = REC_BUF as u64 * REC_ITERS;
    vec![
        record_probe("aes128gcm_seal", bytes, now_nanos, || {
            for _ in 0..REC_ITERS {
                std::hint::black_box(ts_crypto::gcm::seal(&key16, &nonce, aad, &plaintext));
            }
        }),
        record_probe("aes128gcm_seal_portable", bytes, now_nanos, || {
            for _ in 0..REC_ITERS {
                std::hint::black_box(ts_crypto::gcm::seal_portable(
                    &key16, &nonce, aad, &plaintext,
                ));
            }
        }),
        record_probe("chacha20_xor", bytes, now_nanos, || {
            let mut buf = plaintext.clone();
            for _ in 0..REC_ITERS {
                ts_crypto::chacha20::xor_stream(&key32, 1, &nonce, &mut buf);
            }
            std::hint::black_box(&buf);
        }),
        record_probe("chacha20_xor_portable", bytes, now_nanos, || {
            let mut buf = plaintext.clone();
            for _ in 0..REC_ITERS {
                ts_crypto::chacha20::xor_stream_portable(&key32, 1, &nonce, &mut buf);
            }
            std::hint::black_box(&buf);
        }),
    ]
}

/// Key-exchange probes: X25519 public-key derivation (the fixed-base
/// comb), the X25519 shared secret with a peer point (the ladder), and DHE
/// server-side exponentiation through the group's cached Montgomery
/// context.
fn kex_probes(now_nanos: &dyn Fn() -> u64) -> Vec<String> {
    use ts_crypto::bignum::Ub;
    let secrets: Vec<[u8; 32]> = (0..KEX_OPS)
        .map(|i| {
            let mut s = [0u8; 32];
            s[0] = 0x40 | i as u8;
            s[31] = !(i as u8);
            s
        })
        .collect();
    let group = ts_crypto::dh::DhGroup::Sim256;
    let mont = group.montgomery();
    let g = group.generator();
    let exps: Vec<Ub> = (0..KEX_OPS)
        .map(|i| Ub::from_bytes_be(&[&[0x33 + i as u8], &secrets[i as usize][..31]].concat()))
        .collect();
    let peer = ts_crypto::x25519::public_key(&[0x5a; 32]);
    vec![
        kex_probe("x25519_serial", KEX_OPS, now_nanos, || {
            for s in &secrets {
                std::hint::black_box(ts_crypto::x25519::public_key(s));
            }
        }),
        kex_probe("x25519_shared_serial", KEX_OPS, now_nanos, || {
            for s in &secrets {
                std::hint::black_box(ts_crypto::x25519::x25519(s, &peer));
            }
        }),
        kex_probe("dhe_modpow_serial", KEX_OPS, now_nanos, || {
            for e in &exps {
                std::hint::black_box(mont.modpow(g, e));
            }
        }),
    ]
}

/// Run the smoke probe and return the JSON report.
///
/// `now_nanos` supplies monotonic elapsed nanoseconds — injected by the
/// caller (the `repro` binary passes `Instant`-based time) so this crate
/// itself stays free of wall-clock reads under the ts-lint determinism
/// rules; everything here except the two rate fields is a pure function
/// of the workload.
///
/// Schema (`bench-smoke/v2`): `suites[]` carries, per key-exchange family,
/// the deterministic work counts (`handshakes`, `modexps`,
/// `mont_cache_hits`) and the measured `handshakes_per_sec` /
/// `modexps_per_sec`; `record_layer[]` compares the CPU-dispatched AEAD
/// kernels against their in-binary scalar references; `batch_kex[]`
/// times X25519 key derivation, the X25519 shared secret and DHE
/// exponentiation; `totals` aggregates across families.
pub fn run(now_nanos: &dyn Fn() -> u64) -> String {
    let w = smoke_world();
    let mut suite_lines = Vec::new();
    let mut total_hs = 0u64;
    let mut total_modexp = 0u64;
    let mut total_secs = 0f64;
    for (si, suite) in SUITES.iter().enumerate() {
        // Warm the per-process caches (Montgomery contexts, group
        // constants) outside the timed region: steady-state throughput is
        // the regression signal, not first-hit initialisation.
        one_handshake(&w, *suite, 1_000 * si as u64);
        let before = ts_telemetry::snapshot();
        let t0 = now_nanos();
        for i in 0..ITERS {
            one_handshake(&w, *suite, 1_000 * si as u64 + 1 + i);
        }
        let secs = now_nanos().saturating_sub(t0) as f64 / 1e9;
        let after = ts_telemetry::snapshot();
        let modexps = after.counter("crypto.modexp.total") - before.counter("crypto.modexp.total");
        let mont_hits =
            after.counter("crypto.mont.cache.hit") - before.counter("crypto.mont.cache.hit");
        total_hs += ITERS;
        total_modexp += modexps;
        total_secs += secs;
        suite_lines.push(format!(
            "    {{\"suite\": \"{suite:?}\", \"handshakes\": {ITERS}, \
             \"modexps\": {modexps}, \"mont_cache_hits\": {mont_hits}, \
             \"handshakes_per_sec\": {}, \"modexps_per_sec\": {}}}",
            rate(ITERS, secs),
            rate(modexps, secs),
        ));
    }
    // Record-layer and key-exchange probes run after the suite loop so
    // their modexp/counter traffic can't perturb the per-suite deltas
    // pinned against BENCH_5.json.
    let record_lines = record_layer_probes(now_nanos);
    let kex_lines = kex_probes(now_nanos);
    format!(
        "{{\n  \"schema\": \"bench-smoke/v2\",\n  \"suites\": [\n{}\n  ],\n  \
         \"record_layer\": [\n{}\n  ],\n  \
         \"batch_kex\": [\n{}\n  ],\n  \
         \"totals\": {{\"handshakes\": {total_hs}, \"modexps\": {total_modexp}, \
         \"handshakes_per_sec\": {}, \"modexps_per_sec\": {}}}\n}}",
        suite_lines.join(",\n"),
        record_lines.join(",\n"),
        kex_lines.join(",\n"),
        rate(total_hs, total_secs),
        rate(total_modexp, total_secs),
    )
}
