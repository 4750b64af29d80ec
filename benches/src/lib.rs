//! # ts-benchmark — the repository benchmark
//!
//! Drives the workspace from outside, through public functions only, on
//! four workloads (see `README.md` for why each was chosen):
//!
//! * `campaign` — the sharded daily campaign (`campaign.rs`);
//! * `resumption_scans` — the six resumption and sharing artefacts
//!   (`scans.rs`);
//! * `handshake_full` / `resume_bulk` — two closed-loop clients against a
//!   loadgen fleet (`handshake.rs`).
//!
//! An untraced run measures the end-to-end metrics; a traced run replays
//! the same inputs with spans around every call into a layer ([`trace`])
//! and adds calibration loops over the primitives ([`calibrate`]).

#![forbid(unsafe_code)]

pub mod agree;
pub mod calibrate;
mod campaign;
mod handshake;
pub mod manifest;
pub mod report;
mod scans;
mod stats;
pub mod trace;

use std::cell::Cell;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use ts_telemetry::{Event, Snapshot, TelemetrySink};

/// Threads the load comes from: the campaign and experiment fan-out, or
/// the closed-loop clients. Matches the 2-core host the bounds were set on.
pub const WORKERS: usize = 2;

/// Seed of a workload's `k`-th iteration: the run seed itself first, so
/// iteration 0 is exactly what `repro --seed S` computes, then distinct
/// derived seeds so a run averages over several generated worlds.
pub(crate) fn iteration_seed(seed: u64, k: u64) -> u64 {
    seed ^ k.wrapping_mul(0x9e37_79b9_7f4a_7c15)
}

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Sharded daily campaign past the eviction horizon.
    Campaign,
    /// Table 1, Figures 1–2 and Tables 5–7.
    ResumptionScans,
    /// Full handshakes only, rotating RSA / DHE / ECDHE.
    HandshakeFull,
    /// 10/45/45 full / session-ID / ticket with 16 KiB echoes.
    ResumeBulk,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 4] = [
        Workload::Campaign,
        Workload::ResumptionScans,
        Workload::HandshakeFull,
        Workload::ResumeBulk,
    ];

    /// Command-line and report name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Campaign => "campaign",
            Workload::ResumptionScans => "resumption_scans",
            Workload::HandshakeFull => "handshake_full",
            Workload::ResumeBulk => "resume_bulk",
        }
    }

    /// Parse a workload name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Measure end-to-end for about `seconds` of work (untraced).
    pub fn measure(self, seed: u64, seconds: f64) -> Measured {
        match self {
            Workload::Campaign => campaign::measure(seed, seconds),
            Workload::ResumptionScans => scans::measure(seed, seconds),
            Workload::HandshakeFull => handshake::measure(handshake::HANDSHAKE_FULL, seed, seconds),
            Workload::ResumeBulk => handshake::measure(handshake::RESUME_BULK, seed, seconds),
        }
    }

    /// Replay one fixed unit of the workload untraced, then traced.
    pub fn trace(self, seed: u64) -> Traced {
        match self {
            Workload::Campaign => campaign::trace(seed),
            Workload::ResumptionScans => scans::trace(seed),
            Workload::HandshakeFull => handshake::trace(handshake::HANDSHAKE_FULL, seed),
            Workload::ResumeBulk => handshake::trace(handshake::RESUME_BULK, seed),
        }
    }

    /// The constants that size the workload, for the run manifest.
    pub fn constants(self) -> Vec<(&'static str, u64)> {
        match self {
            Workload::Campaign => vec![("size", campaign::SIZE as u64), ("days", campaign::DAYS)],
            Workload::ResumptionScans => vec![("size", scans::SIZE as u64)],
            Workload::HandshakeFull => handshake::HANDSHAKE_FULL.constants(),
            Workload::ResumeBulk => handshake::RESUME_BULK.constants(),
        }
    }
}

/// A stretch of measured work that repeats within a run — a second of a
/// campaign, one pass of the six experiments, one handshake iteration —
/// summarised as it closes.
///
/// Other tenants of the host slow it down in bursts of a few seconds and
/// never speed it up, so the end-to-end metrics take the faster quartile
/// of a run's windows rather than pooling the whole run.
#[derive(Debug, Clone, Copy)]
pub struct Window {
    /// Handshakes completed per second.
    pub rate: f64,
    /// Median latency of the full-handshake operations, µs.
    pub full_p50_us: Option<f64>,
    /// 95th-percentile latency of the same operations, µs.
    pub full_p95_us: Option<f64>,
}

impl Window {
    /// Summarise `handshakes` completed in `seconds`, and the latencies
    /// (ns) of the operations among them that made a full handshake.
    pub fn new(seconds: f64, handshakes: u64, full_ns: &[u64]) -> Window {
        let us: Vec<f64> = full_ns.iter().map(|&ns| ns as f64 / 1e3).collect();
        Window {
            rate: handshakes as f64 / seconds,
            full_p50_us: stats::percentile(&us, 50.0).ok(),
            full_p95_us: stats::percentile(&us, 95.0).ok(),
        }
    }
}

/// What an untraced run measured.
#[derive(Debug, Default)]
pub struct Measured {
    /// Seconds per set-up (population build, or fleet build plus warm-up).
    pub setup_s: Vec<f64>,
    /// Wall seconds of the measured work, summed over iterations.
    pub wall_s: f64,
    /// The measured work, window by window.
    pub windows: Vec<Window>,
    /// Handshakes completed during the measured work.
    pub handshakes: u64,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations whose output failed a check.
    pub failed: u64,
    /// Iterations of the workload's unit of work.
    pub iterations: u64,
    /// Names of the checks that failed.
    pub failures: Vec<String>,
    /// Output digests, for the manifest.
    pub digests: Vec<(String, String)>,
}

/// What a traced run recorded.
#[derive(Debug, Default)]
pub struct Traced {
    /// Every span of the traced replay.
    pub spans: Vec<trace::Span>,
    /// Wall seconds of the same unit of work, untraced.
    pub untraced_wall_s: f64,
    /// Telemetry counter deltas over the traced replay.
    pub counters: Snapshot,
    /// Handshakes completed in the traced replay.
    pub handshakes: u64,
    /// Peak live streaming-accumulator entries (campaign only).
    pub live_entries_peak: u64,
    /// Operations the traced replay attempted.
    pub attempted: u64,
    /// Operations whose output failed a check.
    pub failed: u64,
    /// Names of the checks that failed.
    pub failures: Vec<String>,
}

/// Check a digest against its pin, or record it when the seed is unpinned.
pub(crate) fn check_digest(
    m: &mut Measured,
    what: &str,
    seed: u64,
    digest: u64,
    pins: &[(u64, u64)],
) -> bool {
    m.digests
        .push((format!("{what}@{seed}"), format!("{digest:016x}")));
    match pins.iter().find(|(s, _)| *s == seed) {
        Some(&(_, pinned)) if pinned != digest => {
            m.failures.push(format!(
                "{what} digest for seed {seed}: {digest:016x}, pinned {pinned:016x}"
            ));
            false
        }
        _ => true,
    }
}

/// Total scanner grabs concluded, from the per-class counters.
pub(crate) fn grabs(counters: &Snapshot) -> u64 {
    [
        "ok",
        "blacklisted",
        "no_dns",
        "refused",
        "timeout",
        "unknown_host",
        "tls_failed",
    ]
    .iter()
    .map(|class| counters.counter(&format!("scanner.grab.{class}")))
    .sum()
}

thread_local! {
    static LAST_GRAB: Cell<Option<Instant>> = const { Cell::new(None) };
    static GRAB_RESUMED: Cell<bool> = const { Cell::new(false) };
}

/// A successful grab: when it completed (ns after the clock started) and,
/// for a full handshake, how long it took.
type GrabEvent = (u64, Option<u64>);

/// Times scanner grabs from outside the scanner: the gap between two
/// consecutive `GrabOutcome` events on one thread is the time that thread
/// spent on the later grab, including the caller's per-grab bookkeeping.
/// A grab is a full handshake when it succeeded without a resumption hit
/// (the server side runs on the grabbing thread). A thread's first grab,
/// and the first after each campaign day, has no predecessor and so no
/// latency.
struct GrabClock {
    start: Instant,
    events: Mutex<Vec<GrabEvent>>,
}

impl TelemetrySink for GrabClock {
    fn record(&self, event: Event) {
        match event {
            Event::ResumptionHit { .. } => GRAB_RESUMED.set(true),
            Event::GrabOutcome { class, .. } => {
                let now = Instant::now();
                let prev = LAST_GRAB.replace(Some(now));
                let resumed = GRAB_RESUMED.replace(false);
                if class == "ok" {
                    let latency = prev
                        .filter(|_| !resumed)
                        .map(|p| now.duration_since(p).as_nanos() as u64);
                    let at = now.duration_since(self.start).as_nanos() as u64;
                    self.events
                        .lock()
                        .expect("grab clock poisoned")
                        .push((at, latency));
                }
            }
            Event::CampaignDay { .. } => LAST_GRAB.set(None),
            _ => {}
        }
    }
}

/// Run `f` with the grab clock installed; returns its result and its
/// windows of `width` (a trailing partial window is dropped), or one
/// window for the whole call when it is shorter than `width`.
pub(crate) fn grab_windows<R>(width: Duration, f: impl FnOnce() -> R) -> (R, Vec<Window>) {
    let width = u64::try_from(width.as_nanos()).unwrap_or(u64::MAX);
    let clock = Arc::new(GrabClock {
        start: Instant::now(),
        events: Mutex::new(Vec::new()),
    });
    LAST_GRAB.set(None);
    GRAB_RESUMED.set(false);
    ts_telemetry::set_sink(clock.clone());
    let out = f();
    ts_telemetry::clear_sink();
    let count = (clock.start.elapsed().as_nanos() as u64 / width).max(1) as usize;
    // Per window: first and last completion, completions, full latencies.
    let mut spans = vec![(u64::MAX, 0u64, 0u64); count];
    let mut full_ns = vec![Vec::new(); count];
    for (at, latency) in clock.events.lock().expect("grab clock poisoned").drain(..) {
        let w = (at / width) as usize;
        if w < count {
            let (first, last, n) = &mut spans[w];
            (*first, *last, *n) = ((*first).min(at), (*last).max(at), *n + 1);
            full_ns[w].extend(latency);
        }
    }
    // The rate between a window's first and last completion, so it is not
    // rounded to whole handshakes per second.
    let windows = spans
        .iter()
        .zip(&full_ns)
        .filter(|((first, last, n), _)| *n >= 2 && last > first)
        .map(|(&(first, last, n), full)| Window::new((last - first) as f64 / 1e9, n - 1, full))
        .collect();
    (out, windows)
}

/// Peak resident set of this process in kB (Linux `VmHWM`).
pub fn peak_rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}
