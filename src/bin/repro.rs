//! `repro` — regenerate every table and figure from the paper.
//!
//! ```text
//! repro [EXPERIMENT] [--size N] [--seed S] [--days D] [--step SECS]
//!       [--workers N] [--telemetry-json PATH]
//! repro loadgen [--workers N] [--targets M] [--requests R] [--bulk PCT]
//!       [--mix FULL/SID/TICKET] [--seed S] [--telemetry-json PATH]
//!
//! EXPERIMENT: all (default) | table1 | table2 | table3 | table4 |
//!             table5 | table6 | table7 | fig1 | fig2 | fig3 | fig4 |
//!             fig5 | fig6 | fig7 | fig8 | google | demo | tls13 |
//!             ablation | campaign
//! ```
//!
//! `campaign` (explicit-only, like `ablation`) runs the sharded daily
//! campaign and prints a `campaign/v1` JSON summary on stdout: shard
//! layout, domain-days, streamed pair/group counts and the bounded-memory
//! high-water marks from [`ts_bench::exp_campaign::CampaignStats`]. Every
//! field is deterministic for a fixed (seed, size, days) at any worker
//! count — CI diffs it across `--workers` values.
//!
//! `loadgen` is not an experiment: it drives the sans-I/O connection API
//! with N worker threads against a simulated server fleet and prints a
//! `loadgen/v1` JSON report (deterministic work counts + measured
//! throughput/latency). `BENCH_7.json` archives its scaling curve.
//!
//! Absolute counts scale with `--size`; the percentages, orderings and
//! crossovers are the reproduction targets (see EXPERIMENTS.md).
//!
//! `--telemetry-json PATH` writes the merged telemetry snapshot (counters,
//! histograms, span timers) in its deterministic form — byte-identical
//! across runs for a fixed (seed, size, experiment) regardless of worker
//! count, because wall-clock durations are excluded. `--telemetry-wall`
//! switches the file to the full form, adding the wall-flagged
//! performance metrics (`campaign.domains_per_sec`, `process.peak_rss_kb`,
//! span wall nanos) for perf trajectories; that form is *not* covered by
//! the byte-identical claim.
//!
//! `--workers N` pins the fan-out thread count. It exists to *prove* it
//! doesn't matter: `tests/repro_determinism.rs` runs `--workers 1` and
//! `--workers 8` and asserts byte-identical stdout and telemetry.

use std::time::Instant;
use ts_bench::{
    exp_ablation, exp_campaign, exp_exposure, exp_lifetimes, exp_sharing, exp_support, exp_target,
    exp_tls13, Context, DAY,
};
use ts_core::json::Json;
use ts_scanner::probe::ProbeSchedule;
use ts_telemetry::{Histogram, SpanStat};

static SPAN_BUILD: SpanStat = SpanStat::new("repro.build_population");
static SPAN_TABLE1: SpanStat = SpanStat::new("repro.table1");
static SPAN_FIG1: SpanStat = SpanStat::new("repro.fig1");
static SPAN_FIG2: SpanStat = SpanStat::new("repro.fig2");
static SPAN_CAMPAIGN: SpanStat = SpanStat::new("repro.campaign");
static SPAN_TABLE5: SpanStat = SpanStat::new("repro.table5");
static SPAN_TABLE6: SpanStat = SpanStat::new("repro.table6");
static SPAN_TABLE7: SpanStat = SpanStat::new("repro.table7");
static SPAN_FIG8: SpanStat = SpanStat::new("repro.fig8");

/// Campaign throughput in domain-days per wall second. Wall-flagged: the
/// deterministic telemetry form drops it, so same-seed `--telemetry-json`
/// files stay byte-identical while `--telemetry-wall` archives the rate.
static CAMPAIGN_DOMAINS_PER_SEC: Histogram = Histogram::new_wall(
    "campaign.domains_per_sec",
    &[
        10, 100, 1_000, 5_000, 10_000, 50_000, 100_000, 500_000, 1_000_000, 5_000_000,
    ],
);

/// Process peak resident set (VmHWM) in kB, sampled once per run just
/// before the telemetry snapshot is written. Wall-flagged for the same
/// reason: memory ceilings are host facts, not artefacts of the seed.
static PROCESS_PEAK_RSS_KB: Histogram = Histogram::new_wall(
    "process.peak_rss_kb",
    &[
        10_000, 50_000, 100_000, 250_000, 500_000, 1_000_000, 2_500_000, 5_000_000, 10_000_000,
    ],
);

/// Peak resident set size of this process in kB (Linux `VmHWM`), or
/// `None` where `/proc` is unavailable.
fn peak_rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Run `f`, recording wall time and the experiment's virtual-time window
/// under `span`.
fn timed<T>(span: &'static SpanStat, virtual_secs: u64, f: impl FnOnce() -> T) -> T {
    let t = Instant::now();
    let out = f();
    span.record(virtual_secs, t.elapsed().as_nanos() as u64);
    out
}

/// Every experiment name `repro` takes (`loadgen` is routed before these
/// flags are parsed).
const EXPERIMENTS: &[&str] = &[
    "all", "table1", "table2", "table3", "table4", "table5", "table6", "table7", "fig1", "fig2",
    "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "google", "demo", "tls13", "ablation",
    "campaign",
];

const USAGE: &str = "repro [EXPERIMENT] [--size N] [--seed S] [--days D] [--step SECS] \
                     [--workers N] [--telemetry-json PATH] [--telemetry-wall]";

const LOADGEN_USAGE: &str = "repro loadgen [--workers N] [--targets M] [--requests R] \
                             [--mix FULL/SID/TICKET] [--seed S] [--bulk PCT] \
                             [--bulk-bytes N] [--telemetry-json PATH]";

/// Report a malformed command line with the usage line on stderr and exit
/// with status 2, before any world is built.
fn usage_error(msg: &str, usage: &str) -> ! {
    eprintln!("repro: {msg}\nusage: {usage}");
    std::process::exit(2);
}

/// The value of the flag at `argv[*i]`, parsed, with `i` moved onto it.
/// A missing or unparsable value is a usage error.
fn flag_value<T: std::str::FromStr>(argv: &[String], i: &mut usize, usage: &str) -> T {
    let flag = &argv[*i];
    *i += 1;
    let Some(raw) = argv.get(*i) else {
        usage_error(&format!("{flag} needs a value"), usage)
    };
    raw.parse()
        .unwrap_or_else(|_| usage_error(&format!("{flag}: invalid value '{raw}'"), usage))
}

struct Args {
    experiment: String,
    size: usize,
    seed: u64,
    days: u64,
    step: u64,
    workers: usize,
    telemetry_json: Option<String>,
    telemetry_wall: bool,
}

fn parse_args(argv: &[String]) -> Args {
    let mut args = Args {
        experiment: "all".into(),
        size: 8_000,
        seed: 2016,
        days: 63,
        step: 300,  // the paper's probe cadence
        workers: 0, // 0 = hardware default
        telemetry_json: None,
        telemetry_wall: false,
    };
    let mut i = 0;
    while i < argv.len() {
        match argv[i].as_str() {
            "--size" => args.size = flag_value(argv, &mut i, USAGE),
            "--seed" => args.seed = flag_value(argv, &mut i, USAGE),
            "--days" => args.days = flag_value(argv, &mut i, USAGE),
            "--step" => args.step = flag_value(argv, &mut i, USAGE),
            "--workers" => args.workers = flag_value(argv, &mut i, USAGE),
            "--telemetry-json" => args.telemetry_json = Some(flag_value(argv, &mut i, USAGE)),
            "--telemetry-wall" => args.telemetry_wall = true,
            "--help" | "-h" => {
                println!(
                    "{USAGE}\n\
                     experiments: all table1..table7 fig1..fig8 google demo tls13 ablation \
                     campaign\n\
                     campaign: sharded daily campaign; deterministic campaign/v1 JSON on stdout\n\
                     --telemetry-wall: include wall-flagged perf metrics (domains/sec, \
                     peak RSS) in the telemetry JSON — no longer byte-identical"
                );
                std::process::exit(0);
            }
            flag if flag.starts_with('-') => usage_error(&format!("unknown flag '{flag}'"), USAGE),
            name if EXPERIMENTS.contains(&name) => args.experiment = name.to_string(),
            name => usage_error(&format!("unknown experiment '{name}'"), USAGE),
        }
        i += 1;
    }
    args
}

/// `repro loadgen ...` — its own tiny arg surface, separate from the
/// experiment flags.
fn run_loadgen(argv: &[String]) -> ! {
    let mut cfg = ts_loadgen::LoadgenConfig::default();
    let mut telemetry_json: Option<String> = None;
    let mut i = 0;
    while i < argv.len() {
        match argv[i].as_str() {
            "--workers" => cfg.workers = flag_value(argv, &mut i, LOADGEN_USAGE),
            "--targets" => cfg.targets = flag_value(argv, &mut i, LOADGEN_USAGE),
            "--requests" => cfg.requests_per_worker = flag_value(argv, &mut i, LOADGEN_USAGE),
            "--seed" => cfg.seed = flag_value(argv, &mut i, LOADGEN_USAGE),
            "--mix" => {
                let raw: String = flag_value(argv, &mut i, LOADGEN_USAGE);
                let parts: Vec<u8> = raw
                    .split('/')
                    .map(|p| p.parse())
                    .collect::<Result<_, _>>()
                    .unwrap_or_default();
                let [full_pct, session_id_pct, ticket_pct] = parts[..] else {
                    usage_error(&format!("--mix: invalid value '{raw}'"), LOADGEN_USAGE)
                };
                cfg.mix = ts_loadgen::Mix {
                    full_pct,
                    session_id_pct,
                    ticket_pct,
                };
            }
            "--bulk" => cfg.bulk_pct = flag_value(argv, &mut i, LOADGEN_USAGE),
            "--bulk-bytes" => cfg.bulk_bytes = flag_value(argv, &mut i, LOADGEN_USAGE),
            "--telemetry-json" => {
                telemetry_json = Some(flag_value(argv, &mut i, LOADGEN_USAGE));
            }
            "--help" | "-h" => {
                println!("{LOADGEN_USAGE}");
                std::process::exit(0);
            }
            other => usage_error(&format!("unknown loadgen flag '{other}'"), LOADGEN_USAGE),
        }
        i += 1;
    }
    // Clock injected here so ts-loadgen itself stays wall-clock-free
    // under the determinism lint.
    let t0 = Instant::now();
    let clock = move || t0.elapsed().as_nanos() as u64;
    let report = ts_loadgen::run(&cfg, &clock);
    println!("{}", report.to_json());
    eprintln!(
        "[loadgen] {} handshakes ({} full, {} sid, {} ticket) with {} workers: \
         {:.1} hs/s wall, {:.1} hs/s on ideal cores, p50 {:?}us p99 {:?}us",
        report.work.handshakes,
        report.work.full,
        report.work.resume_session_id,
        report.work.resume_ticket,
        cfg.workers,
        report.handshakes_per_sec(),
        report.modeled_ideal_core_hs_per_sec(),
        report.p50_us,
        report.p99_us,
    );
    if let Some(path) = &telemetry_json {
        // Deterministic form: wall-flagged latency histograms excluded, so
        // the file is byte-identical across same-seed runs at any worker
        // count.
        let json = ts_telemetry::snapshot().to_json(false).to_json_string();
        std::fs::write(path, json).expect("write telemetry json");
        eprintln!("[loadgen] telemetry snapshot written to {path}");
    }
    std::process::exit(0);
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("loadgen") {
        run_loadgen(&argv[1..]);
    }
    let args = parse_args(&argv);
    ts_core::par::set_default_workers(args.workers);
    let t0 = Instant::now();
    eprintln!(
        "[repro] building population: size={} seed={} days={}",
        args.size, args.seed, args.days
    );
    let mut cfg = ts_population::PopulationConfig::new(args.seed, args.size);
    cfg.study_days = args.days;
    let ctx = timed(&SPAN_BUILD, 0, || Context::from_config(cfg));
    eprintln!(
        "[repro] population ready in {:.1}s: {} core domains, {} trusted",
        t0.elapsed().as_secs_f64(),
        ctx.churn.core().len(),
        ctx.core_trusted.len(),
    );
    let schedule = ProbeSchedule::coarse(args.step, 24 * 3_600);

    let run = |name: &str| args.experiment == "all" || args.experiment == name;
    let section = |title: &str| {
        println!("\n{}", "=".repeat(74));
        println!("{title}");
        println!("{}", "=".repeat(74));
    };

    if run("table1") {
        let t = Instant::now();
        section("TABLE 1");
        println!(
            "{}",
            timed(&SPAN_TABLE1, 0, || exp_support::table1_support(&ctx)).report
        );
        eprintln!("[repro] table1 in {:.1}s", t.elapsed().as_secs_f64());
    }
    if run("fig1") {
        let t = Instant::now();
        section("FIGURE 1");
        println!(
            "{}",
            timed(&SPAN_FIG1, 24 * 3_600, || {
                exp_lifetimes::fig1_session_id_lifetime(&ctx, &schedule)
            })
            .report
        );
        eprintln!("[repro] fig1 in {:.1}s", t.elapsed().as_secs_f64());
    }
    if run("fig2") {
        let t = Instant::now();
        section("FIGURE 2");
        println!(
            "{}",
            timed(&SPAN_FIG2, 24 * 3_600, || {
                exp_lifetimes::fig2_ticket_lifetime(&ctx, &schedule)
            })
            .report
        );
        eprintln!("[repro] fig2 in {:.1}s", t.elapsed().as_secs_f64());
    }
    let campaign_needed = args.experiment == "campaign"
        || [
            "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "table2", "table3", "table4", "tls13",
        ]
        .iter()
        .any(|e| run(e));
    if campaign_needed {
        let t = Instant::now();
        let campaign = timed(&SPAN_CAMPAIGN, args.days * DAY, || ctx.campaign());
        let wall = t.elapsed().as_secs_f64();
        // Wall-side throughput: domain-days streamed per second of wall
        // time. Recorded into a wall-flagged histogram so it reaches
        // `--telemetry-wall` archives without touching the deterministic
        // form.
        let dps = if wall > 0.0 {
            campaign.stats.domain_days as f64 / wall
        } else {
            0.0
        };
        CAMPAIGN_DOMAINS_PER_SEC.observe(dps as u64);
        eprintln!(
            "[repro] daily campaign: {} attempts over {} days in {:.1}s \
             ({} shards, {} domain-days, {:.0} domain-days/s, \
             peak {} live stream entries, {} expired sessions discarded)",
            campaign.attempts,
            campaign.days,
            wall,
            campaign.stats.shards,
            campaign.stats.domain_days,
            dps,
            campaign.stats.peak_live_entries,
            campaign.stats.discarded_sessions,
        );
    }
    if args.experiment == "campaign" {
        // Explicit-only, like `ablation`: stdout is exactly one JSON
        // document (schema campaign/v1), every field a pure function of
        // (seed, size, days) — CI compares it across worker counts.
        let campaign = ctx.campaign();
        let spans = &campaign.spans;
        let mut top = ts_core::stream::TopK::new(10);
        for (domain, ds) in spans.stek.domain_spans() {
            top.push(&domain, ds.max_span_days);
        }
        let top_reusers = Json::Array(
            top.into_vec()
                .into_iter()
                .map(|(domain, span)| {
                    Json::obj(vec![
                        ("domain", Json::str(domain)),
                        ("span_days", Json::uint(span)),
                    ])
                })
                .collect(),
        );
        let report = Json::obj(vec![
            ("schema", Json::str("campaign/v1")),
            ("size", Json::uint(args.size as u64)),
            ("seed", Json::uint(args.seed)),
            ("days", Json::uint(campaign.days)),
            ("shards", Json::uint(campaign.stats.shards as u64)),
            ("domains", Json::uint(campaign.stats.domains as u64)),
            ("domain_days", Json::uint(campaign.stats.domain_days)),
            ("attempts", Json::uint(campaign.attempts)),
            ("stek_pairs", Json::uint(spans.stek.pair_count() as u64)),
            ("dhe_pairs", Json::uint(spans.dhe.pair_count() as u64)),
            ("ecdhe_pairs", Json::uint(spans.ecdhe.pair_count() as u64)),
            ("stek_groups", Json::uint(campaign.stek_groups.len() as u64)),
            ("dh_groups", Json::uint(campaign.dh_groups.len() as u64)),
            ("hinted_domains", Json::uint(campaign.hints.len() as u64)),
            (
                "peak_live_entries",
                Json::uint(campaign.stats.peak_live_entries as u64),
            ),
            (
                "evicted_group_ids",
                Json::uint(campaign.stats.evicted_group_ids),
            ),
            ("top_stek_reusers", top_reusers),
        ]);
        println!("{}", report.to_json_string());
    }
    if run("fig3") {
        section("FIGURE 3");
        println!("{}", exp_campaign::fig3_stek_lifetime(&ctx).report);
    }
    if run("fig4") {
        section("FIGURE 4");
        println!("{}", exp_campaign::fig4_stek_by_rank(&ctx));
    }
    if run("fig5") {
        section("FIGURE 5");
        println!("{}", exp_campaign::fig5_kex_reuse(&ctx).report);
    }
    if run("table2") {
        section("TABLE 2");
        println!("{}", exp_campaign::table2_stek_reuse(&ctx));
    }
    if run("table3") {
        section("TABLE 3");
        println!("{}", exp_campaign::table3_dhe_reuse(&ctx));
    }
    if run("table4") {
        section("TABLE 4");
        println!("{}", exp_campaign::table4_ecdhe_reuse(&ctx));
    }
    if run("table5") {
        let t = Instant::now();
        section("TABLE 5");
        println!(
            "{}",
            timed(&SPAN_TABLE5, 0, || exp_sharing::table5_cache_groups(&ctx)).report
        );
        eprintln!("[repro] table5 in {:.1}s", t.elapsed().as_secs_f64());
    }
    if run("table6") {
        let t = Instant::now();
        section("TABLE 6");
        println!(
            "{}",
            timed(&SPAN_TABLE6, 0, || exp_sharing::table6_stek_groups(&ctx)).report
        );
        eprintln!("[repro] table6 in {:.1}s", t.elapsed().as_secs_f64());
    }
    if run("table7") {
        let t = Instant::now();
        section("TABLE 7");
        println!(
            "{}",
            timed(&SPAN_TABLE7, 0, || exp_sharing::table7_dh_groups(&ctx)).report
        );
        eprintln!("[repro] table7 in {:.1}s", t.elapsed().as_secs_f64());
    }
    if run("fig6") || run("fig7") {
        section("FIGURES 6 & 7");
        println!("{}", exp_sharing::fig6_fig7_treemaps(&ctx));
    }
    if run("fig8") {
        let t = Instant::now();
        section("FIGURE 8");
        println!(
            "{}",
            timed(&SPAN_FIG8, 24 * 3_600, || exp_exposure::fig8_exposure(
                &ctx, &schedule
            ))
            .report
        );
        eprintln!("[repro] fig8 in {:.1}s", t.elapsed().as_secs_f64());
    }
    if run("google") {
        section("§7.2 TARGET ANALYSIS");
        println!("{}", exp_target::google_target_analysis(&ctx));
    }
    if run("demo") {
        section("§6.1 STEK THEFT DEMO");
        println!("{}", exp_target::stek_theft_demo(&ctx));
    }
    if run("tls13") {
        section("§8.1 TLS 1.3 OUTLOOK");
        println!("{}", exp_tls13::tls13_outlook(&ctx));
    }
    if args.experiment == "ablation" {
        // Not part of `all`: ablations are follow-on analyses, not paper
        // artefacts.
        section("ABLATION: STEK ROTATION SWEEP");
        println!("{}", exp_ablation::rotation_sweep(&ctx));
        section("ABLATION: PROBE-STEP SENSITIVITY");
        println!("{}", exp_ablation::probe_step_sensitivity(&ctx));
    }

    if let Some(kb) = peak_rss_kb() {
        PROCESS_PEAK_RSS_KB.observe(kb);
        eprintln!("[repro] peak RSS {kb} kB (VmHWM)");
    }
    let snap = ts_telemetry::snapshot();
    let handshakes = snap.counter("simnet.connect.ok");
    let probes = snap.counter("simnet.connect.probe");
    let resumptions = snap.counter("tls.server.resume.ticket.hit")
        + snap.counter("tls.server.resume.session_id.hit");
    eprintln!(
        "[repro] telemetry: {handshakes} successful handshakes ({probes} stopped after \
         the server flight, {resumptions} resumed), {} full, {} STEK rotations — the \
         paper's full-scale runs totalled 33.6M successful handshakes",
        snap.counter("tls.server.handshake.full"),
        snap.counter("tls.stek.rotations"),
    );
    if let Some(path) = &args.telemetry_json {
        // Deterministic form by default: wall-clock durations (and the
        // wall-flagged perf histograms) excluded, so the file is
        // byte-identical for a fixed (seed, size, experiment).
        // `--telemetry-wall` opts into the full form for perf archives.
        let json = snap.to_json(args.telemetry_wall).to_json_string();
        std::fs::write(path, json).expect("write telemetry json");
        eprintln!("[repro] telemetry snapshot written to {path}");
    }
    eprintln!("[repro] total {:.1}s", t0.elapsed().as_secs_f64());
}
