//! `resumption_scans`: Table 1, Figures 1–2 and Tables 5–7 over a world
//! of [`SIZE`] domains — the artefacts `repro all` builds from resumption
//! probes, burst scans and cross-domain cache and STEK tests, without the
//! campaign accumulators. Each experiment rebuilds its own world.

use crate::trace::{Layer, Tracer};
use crate::{Measured, Traced};
use std::time::{Duration, Instant};
use ts_bench::{exp_lifetimes, exp_sharing, exp_support, Context};
use ts_scanner::probe::ProbeSchedule;
use ts_telemetry::Snapshot;

/// Domains in each generated world.
pub const SIZE: usize = 500;
/// Iterations a run makes at least, so `setup_s` is a median of several.
const MIN_ITERATIONS: u64 = 3;

/// FNV-1a digests of the six concatenated reports, per seed.
const PINS: &[(u64, u64)] = &[(2016, 0xba9e_3e4a_e278_549c), (77, 0x2f1b_7563_2445_1739)];

type Experiment = fn(&Context, &ProbeSchedule) -> String;

/// The six experiments, named by their span.
const EXPERIMENTS: [(&str, Experiment); 6] = [
    ("bench.table1", |ctx, _| {
        exp_support::table1_support(ctx).report
    }),
    ("bench.fig1", |ctx, s| {
        exp_lifetimes::fig1_session_id_lifetime(ctx, s).report
    }),
    ("bench.fig2", |ctx, s| {
        exp_lifetimes::fig2_ticket_lifetime(ctx, s).report
    }),
    ("bench.table5", |ctx, _| {
        exp_sharing::table5_cache_groups(ctx).report
    }),
    ("bench.table6", |ctx, _| {
        exp_sharing::table6_stek_groups(ctx).report
    }),
    ("bench.table7", |ctx, _| {
        exp_sharing::table7_dh_groups(ctx).report
    }),
];

/// The probe cadence `repro all` uses: every 5 minutes for a day.
fn schedule() -> ProbeSchedule {
    ProbeSchedule::coarse(300, 86_400)
}

fn run_all(ctx: &Context) -> String {
    let schedule = schedule();
    EXPERIMENTS
        .iter()
        .map(|(_, run)| run(ctx, &schedule))
        .collect()
}

/// Run the six experiments over fresh worlds until `seconds` of
/// experiment wall time have been measured.
pub fn measure(seed: u64, seconds: f64) -> Measured {
    let mut m = Measured::default();
    while m.iterations < MIN_ITERATIONS || m.wall_s < seconds {
        let world_seed = crate::iteration_seed(seed, m.iterations);
        let t = Instant::now();
        let ctx = Context::new(world_seed, SIZE);
        m.setup_s.push(t.elapsed().as_secs_f64());

        let before = ts_telemetry::snapshot();
        let t = Instant::now();
        // One window per pass: the experiments differ too much in their mix of
        // full and resumed handshakes for shorter windows to be comparable.
        let (reports, windows) = crate::grab_windows(Duration::MAX, || run_all(&ctx));
        m.wall_s += t.elapsed().as_secs_f64();
        let delta = ts_telemetry::snapshot().delta_since(&before);

        let grabs = crate::grabs(&delta);
        m.handshakes += delta.counter("simnet.connect.ok");
        m.windows.extend(windows);
        m.attempted += grabs;
        let mut ok = grabs > 0;
        if m.iterations == 0 {
            let digest = crate::stats::fnv1a64(reports.as_bytes());
            ok &= crate::check_digest(&mut m, "reports", world_seed, digest, PINS);
        }
        if !ok {
            m.failed += grabs;
        }
        m.iterations += 1;
    }
    m
}

/// Replay iteration 0 untraced, then traced with one span per experiment.
pub fn trace(seed: u64) -> Traced {
    let ctx = Context::new(seed, SIZE);
    let t = Instant::now();
    let reference = run_all(&ctx);
    let untraced_wall_s = t.elapsed().as_secs_f64();

    let schedule = schedule();
    let before = ts_telemetry::snapshot();
    let tracer = Tracer::new();
    let mut reports = String::new();
    let mut per_experiment: Vec<(&str, Snapshot)> = Vec::new();
    {
        let mut lane = tracer.lane(0);
        lane.open("trace.resumption_scans", Layer::Unattributed, 0);
        for (name, run) in EXPERIMENTS {
            let start = ts_telemetry::snapshot();
            lane.open(name, Layer::Bench, 0);
            reports.push_str(&run(&ctx, &schedule));
            lane.close();
            per_experiment.push((name, ts_telemetry::snapshot().delta_since(&start)));
        }
    }
    let counters = ts_telemetry::snapshot().delta_since(&before);
    for (name, delta) in &per_experiment {
        eprintln!(
            "[benchmark] {name}: {} grabs, {} connects ok, {} resumed, {} burst connections",
            crate::grabs(delta),
            delta.counter("simnet.connect.ok"),
            delta.counter("tls.server.resume.session_id.hit")
                + delta.counter("tls.server.resume.ticket.hit"),
            delta.counter("scanner.burst.connections"),
        );
    }
    let mut t = Traced {
        spans: tracer.finish(),
        untraced_wall_s,
        handshakes: counters.counter("simnet.connect.ok"),
        attempted: crate::grabs(&counters),
        counters,
        ..Traced::default()
    };
    if reports != reference {
        t.failures
            .push("traced reports differ from the untraced run".into());
        t.failed = t.attempted;
    }
    t
}
