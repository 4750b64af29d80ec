//! Loadgen determinism: the work a load profile performs — handshake
//! counts per kind and every deterministic telemetry counter — is a pure
//! function of the profile, independent of scheduling and repeatable
//! run-to-run. Wall-clock latency lands only in wall-flagged histograms,
//! which the deterministic telemetry form drops, so the `to_json(false)`
//! rendering of a run's delta must be byte-identical across same-seed
//! runs.
//!
//! Own integration-test binary on purpose: telemetry metrics are global
//! and monotone, so before/after snapshot deltas only isolate a run's
//! contribution when nothing else in the process is generating load. The
//! tests in this file take [`SERIAL`] for the same reason: the harness
//! runs them on parallel threads by default.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};
use ts_loadgen::{LoadgenConfig, LoadgenReport, Mix};
use ts_telemetry::{snapshot, Snapshot};

/// Held for a whole test body, so no other test's load lands in its
/// telemetry deltas.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    // A failed test poisons the lock; the next test still runs alone.
    SERIAL
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Run a profile against a deterministic fake clock and return the report
/// plus the telemetry delta attributable to the run.
fn run_profile(cfg: &LoadgenConfig) -> (LoadgenReport, Snapshot) {
    let ticks = AtomicU64::new(0);
    let clock = move || ticks.fetch_add(1, Ordering::Relaxed) * 1_000;
    let base = snapshot();
    let report = ts_loadgen::run(cfg, &clock);
    (report, snapshot().delta_since(&base))
}

fn profile() -> LoadgenConfig {
    LoadgenConfig {
        workers: 4,
        targets: 3,
        requests_per_worker: 120,
        mix: Mix {
            full_pct: 10,
            session_id_pct: 45,
            ticket_pct: 45,
        },
        seed: 2016,
        ..LoadgenConfig::default()
    }
}

#[test]
fn same_profile_repeats_identically() {
    let _serial = serial();
    let cfg = profile();
    let (first, first_delta) = run_profile(&cfg);
    let (second, second_delta) = run_profile(&cfg);

    // The work counts are identical run-to-run...
    assert_eq!(first.work, second.work);
    assert_eq!(
        first.work.handshakes,
        (cfg.workers * cfg.requests_per_worker) as u64
    );
    // ...and so is every deterministic counter, bucket by bucket.
    assert_eq!(first_delta.counters, second_delta.counters);

    // The deterministic telemetry form (what `repro loadgen
    // --telemetry-json` writes) is byte-identical: wall-clock latency
    // lives only in wall-flagged histograms, which it drops.
    let first_json = first_delta.to_json(false).to_json_string();
    let second_json = second_delta.to_json(false).to_json_string();
    assert_eq!(first_json, second_json);
    assert!(
        !first_json.contains("loadgen.handshake_us"),
        "wall histogram leaked into the deterministic form"
    );

    // The full form keeps the wall histogram for humans.
    let full = first_delta.to_json(true).to_json_string();
    assert!(full.contains("loadgen.handshake_us"));
}

#[test]
fn loadgen_counters_match_report_work() {
    let _serial = serial();
    let cfg = profile();
    let (report, delta) = run_profile(&cfg);
    assert_eq!(
        delta.counter("loadgen.handshake.ok"),
        report.work.handshakes
    );
    assert_eq!(delta.counter("loadgen.handshake.full"), report.work.full);
    assert_eq!(
        delta.counter("loadgen.resume.session_id"),
        report.work.resume_session_id
    );
    assert_eq!(
        delta.counter("loadgen.resume.ticket"),
        report.work.resume_ticket
    );
    // The resumption-heavy schedule really resumes: after each worker's
    // first lap over the targets, every session-ID and ticket slot hits.
    assert!(report.work.resume_session_id > 0);
    assert!(report.work.resume_ticket > 0);
}
