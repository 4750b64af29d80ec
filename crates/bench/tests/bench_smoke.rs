//! `repro --bench-smoke` report schema and counts.
//!
//! Own integration-test binary on purpose: the modexp and Montgomery
//! cache-hit counts it compares between two runs are process-global
//! telemetry, so any handshake another test runs at the same time would
//! leak into them.

use ts_bench::bench_smoke::run;
use ts_tls::suites::CipherSuite;

/// Handshakes per suite the probe runs.
const ITERS: u64 = 24;

/// The probe's three key-exchange families.
const SUITES: [CipherSuite; 3] = [
    CipherSuite::DheRsaAes128CbcSha256,
    CipherSuite::EcdheRsaChaCha20Poly1305,
    CipherSuite::RsaAes128CbcSha256,
];

/// A fake monotonic clock: 1ms per read. Keeps the test free of wall
/// time and makes even the rate fields reproducible.
fn fake_clock() -> impl Fn() -> u64 {
    let ticks = std::cell::Cell::new(0u64);
    move || {
        ticks.set(ticks.get() + 1);
        ticks.get() * 1_000_000
    }
}

#[test]
fn smoke_report_has_deterministic_schema_and_counts() {
    let clock = fake_clock();
    let report = run(&clock);
    assert!(report.contains("\"schema\": \"bench-smoke/v2\""));
    for name in [
        "aes128gcm_seal",
        "aes128gcm_seal_portable",
        "chacha20_xor",
        "chacha20_xor_portable",
        "x25519_serial",
        "x25519_shared_serial",
        "dhe_modpow_serial",
    ] {
        assert!(report.contains(&format!("\"name\": \"{name}\"")), "{name}");
    }
    for suite in SUITES {
        assert!(report.contains(&format!("\"suite\": \"{suite:?}\"")));
    }
    assert!(report.contains(&format!("\"handshakes\": {ITERS}")));
    // Counter-derived fields are pure functions of the workload: a
    // second run must report identical counts (rates may differ).
    let clock2 = fake_clock();
    let report2 = run(&clock2);
    let counts = |r: &str| -> Vec<String> {
        r.lines()
            .flat_map(|l| l.split(", "))
            .filter(|f| f.contains("\"modexps\":") || f.contains("\"mont_cache_hits\":"))
            .map(str::to_string)
            .collect()
    };
    assert_eq!(counts(&report), counts(&report2));
    assert!(!counts(&report).is_empty());
}
