//! `campaign`: the sharded daily campaign, exactly as `repro campaign`
//! runs it, over a world of [`SIZE`] domains for [`DAYS`] days.
//!
//! The untraced run calls `exp_campaign::run_daily_campaign`. The traced
//! run replays its day-lockstep loop through the same public scanner and
//! stream APIs with spans around each call, and must seal to the same
//! counts.

use crate::trace::{Lane, Layer, StepTimer, Tracer};
use crate::{Measured, Traced};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};
use ts_bench::exp_campaign::{run_daily_campaign, Campaign, EVICTION_HORIZON_DAYS};
use ts_bench::Context;
use ts_core::json::Json;
use ts_core::observations::{KexKind, KexSighting, TicketSighting};
use ts_core::par::{default_workers, for_each_shard, ShardPlan};
use ts_core::stream::{GroupAcc, Merge, SpanAcc, TopK};
use ts_population::PopulationConfig;
use ts_scanner::daily::{run_campaign_streaming, CampaignOptions, CampaignSink};
use ts_scanner::Scanner;

/// Domains in each generated world.
pub const SIZE: usize = 1000;
/// Campaign length: past the 21-day eviction horizon, so eviction runs.
pub const DAYS: u64 = 28;
/// Iterations a run makes at least, so `setup_s` is a median of several.
const MIN_ITERATIONS: u64 = 3;

/// FNV-1a digests of the `campaign/v1` summary, per seed; equal to the
/// digest of `repro campaign --size 1000 --days 28 --seed S` output.
const PINS: &[(u64, u64)] = &[(2016, 0xd008_7a36_ae05_39d8), (77, 0xf478_f308_493d_b33e)];

fn context(seed: u64) -> Context {
    let mut cfg = PopulationConfig::new(seed, SIZE);
    cfg.study_days = DAYS;
    Context::from_config(cfg)
}

/// The deterministic `campaign/v1` summary, byte-identical to what
/// `repro campaign --size SIZE --days DAYS --seed S` prints.
fn summary(ctx: &Context, campaign: &Campaign) -> String {
    let spans = &campaign.spans;
    let mut top = TopK::new(10);
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
    Json::obj(vec![
        ("schema", Json::str("campaign/v1")),
        ("size", Json::uint(ctx.config.size as u64)),
        ("seed", Json::uint(ctx.config.seed)),
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
    ])
    .to_json_string()
}

/// Run campaigns over fresh worlds until `seconds` of campaign wall time
/// have been measured.
pub fn measure(seed: u64, seconds: f64) -> Measured {
    let mut m = Measured::default();
    while m.iterations < MIN_ITERATIONS || m.wall_s < seconds {
        let world_seed = crate::iteration_seed(seed, m.iterations);
        let t = Instant::now();
        let ctx = context(world_seed);
        m.setup_s.push(t.elapsed().as_secs_f64());

        let before = ts_telemetry::snapshot();
        let t = Instant::now();
        // One-second windows: every day of the campaign does the same work.
        let (campaign, windows) =
            crate::grab_windows(Duration::from_secs(1), || run_daily_campaign(&ctx));
        m.wall_s += t.elapsed().as_secs_f64();
        let delta = ts_telemetry::snapshot().delta_since(&before);

        m.handshakes += delta.counter("simnet.connect.ok");
        m.windows.extend(windows);
        m.attempted += campaign.attempts;
        let mut ok = crate::grabs(&delta) == campaign.attempts
            && campaign.attempts == 3 * campaign.stats.domain_days;
        if !ok {
            m.failures
                .push(format!("campaign grab count for seed {world_seed}"));
        }
        if m.iterations == 0 {
            let digest = crate::stats::fnv1a64(summary(&ctx, &campaign).as_bytes());
            ok &= crate::check_digest(&mut m, "campaign/v1", world_seed, digest, PINS);
        }
        if !ok {
            m.failed += campaign.attempts;
        }
        m.iterations += 1;
    }
    m
}

/// The counts a campaign seals to; the traced replica must match them.
#[derive(Debug, PartialEq, Eq)]
struct Sealed {
    attempts: u64,
    stek_pairs: usize,
    dhe_pairs: usize,
    ecdhe_pairs: usize,
    stek_groups: usize,
    dh_groups: usize,
    hinted_domains: usize,
    peak_live_entries: usize,
    evicted_group_ids: u64,
}

impl Sealed {
    fn of(c: &Campaign) -> Self {
        Sealed {
            attempts: c.attempts,
            stek_pairs: c.spans.stek.pair_count(),
            dhe_pairs: c.spans.dhe.pair_count(),
            ecdhe_pairs: c.spans.ecdhe.pair_count(),
            stek_groups: c.stek_groups.len(),
            dh_groups: c.dh_groups.len(),
            hinted_domains: c.hints.len(),
            peak_live_entries: c.stats.peak_live_entries,
            evicted_group_ids: c.stats.evicted_group_ids,
        }
    }
}

/// Replay campaign iteration 0 untraced, then traced.
pub fn trace(seed: u64) -> Traced {
    let ctx = context(seed);
    let t = Instant::now();
    let reference = run_daily_campaign(&ctx);
    let untraced_wall_s = t.elapsed().as_secs_f64();

    let before = ts_telemetry::snapshot();
    let tracer = Tracer::new();
    let replica = {
        let mut lane = tracer.lane(0);
        lane.open("trace.campaign", Layer::Unattributed, 0);
        replica(&ctx, &tracer, &mut lane)
    };
    let counters = ts_telemetry::snapshot().delta_since(&before);

    let mut t = Traced {
        spans: tracer.finish(),
        untraced_wall_s,
        handshakes: counters.counter("simnet.connect.ok"),
        live_entries_peak: replica.peak_live_entries as u64,
        attempted: replica.attempts,
        counters,
        ..Traced::default()
    };
    if replica != Sealed::of(&reference) {
        t.failures.push(format!(
            "traced replica sealed {replica:?}, untraced run {:?}",
            Sealed::of(&reference)
        ));
        t.failed = t.attempted;
    }
    t
}

/// One shard's campaign state, mirroring `exp_campaign`'s: its domains,
/// span accumulators, hint tracker and the day's batch for the group
/// trackers.
struct Shard {
    domains: Vec<String>,
    stek: SpanAcc,
    dhe: SpanAcc,
    ecdhe: SpanAcc,
    hints: BTreeMap<String, (u64, u32)>,
    attempts: u64,
    day_tickets: Vec<(String, String)>,
    day_kex: Vec<(String, String)>,
}

impl Shard {
    fn new(domains: Vec<String>) -> Self {
        let horizon = Some(EVICTION_HORIZON_DAYS);
        Shard {
            domains,
            stek: SpanAcc::with_horizon(horizon),
            dhe: SpanAcc::with_horizon(horizon),
            ecdhe: SpanAcc::with_horizon(horizon),
            hints: BTreeMap::new(),
            attempts: 0,
            day_tickets: Vec::new(),
            day_kex: Vec::new(),
        }
    }

    fn live_entries(&self) -> usize {
        self.stek.live_pairs() + self.dhe.live_pairs() + self.ecdhe.live_pairs()
    }
}

/// Folds sightings into a [`Shard`], one span per sighting.
struct TracedSink<'a, 't> {
    shard: &'a mut Shard,
    lane: &'a mut Lane<'t>,
    ctx: u64,
}

impl CampaignSink for TracedSink<'_, '_> {
    fn ticket(&mut self, s: TicketSighting) {
        let shard = &mut *self.shard;
        self.lane
            .step("core.span_acc.record", Layer::Core, self.ctx, || {
                shard.stek.record(&s.domain, &s.stek_id, s.day);
                let e = shard
                    .hints
                    .entry(s.domain.clone())
                    .or_insert((s.day, s.lifetime_hint));
                if s.day >= e.0 {
                    *e = (s.day, s.lifetime_hint);
                }
                shard.day_tickets.push((s.domain, s.stek_id));
            });
    }

    fn kex(&mut self, s: KexSighting) {
        let shard = &mut *self.shard;
        self.lane
            .step("core.span_acc.record", Layer::Core, self.ctx, || {
                match s.kex {
                    KexKind::Dhe => shard.dhe.record(&s.domain, &s.value_fp, s.day),
                    KexKind::Ecdhe => shard.ecdhe.record(&s.domain, &s.value_fp, s.day),
                }
                shard.day_kex.push((s.domain, s.value_fp));
            });
    }
}

/// `run_daily_campaign`, replayed with a span around every layer call.
fn replica(ctx: &Context, tracer: &Tracer, lane: &mut Lane<'_>) -> Sealed {
    let pop = lane.step("population.build", Layer::Population, 0, || ctx.fresh_pop());
    let domains = &ctx.core_trusted;
    let plan = ShardPlan::for_len(domains.len());
    let mut shards: Vec<Shard> = (0..plan.shard_count())
        .map(|s| Shard::new(domains[plan.range(s)].to_vec()))
        .collect();
    let horizon = Some(EVICTION_HORIZON_DAYS);
    let mut stek_groups = GroupAcc::with_horizon(horizon);
    let mut dh_groups = GroupAcc::with_horizon(horizon);
    let mut peak_live_entries = 0usize;
    let workers = default_workers().min(shards.len()).max(1);
    for day in 0..ctx.config.study_days {
        let fan = lane.open_fanout("core.par.for_each_shard", Layer::Core, day, workers as u32);
        for_each_shard(&mut shards, workers, |shard_id, shard| {
            let shard_day = day * 1_000 + shard_id as u64;
            let mut worker = tracer.lane(fan);
            worker.open("scanner.shard_day", Layer::Scanner, shard_day);
            let mut scanner = Scanner::new(&pop, &format!("daily-campaign-{day}-{shard_id}"));
            let options = CampaignOptions::new().days(day..day + 1);
            let shard_domains = shard.domains.clone();
            let mut sink = TracedSink {
                shard,
                lane: &mut worker,
                ctx: shard_day,
            };
            let attempts = run_campaign_streaming(
                &mut scanner,
                &options,
                move |_day| shard_domains.clone(),
                &mut sink,
            );
            sink.shard.attempts += attempts;
        });
        lane.close();
        lane.step("core.group_acc.record", Layer::Core, day, || {
            for shard in &mut shards {
                for (domain, id) in shard.day_tickets.drain(..) {
                    stek_groups.record(&domain, &id, day);
                }
                for (domain, fp) in shard.day_kex.drain(..) {
                    dh_groups.record(&domain, &fp, day);
                }
            }
        });
        lane.step("core.span_acc.advance", Layer::Core, day, || {
            for shard in &mut shards {
                shard.stek.advance(day);
                shard.dhe.advance(day);
                shard.ecdhe.advance(day);
            }
        });
        lane.step("core.group_acc.advance", Layer::Core, day, || {
            stek_groups.advance(day);
            dh_groups.advance(day);
        });
        let live: usize = shards.iter().map(Shard::live_entries).sum::<usize>()
            + stek_groups.live_ids()
            + dh_groups.live_ids();
        peak_live_entries = peak_live_entries.max(live);
    }
    lane.step("core.acc.seal", Layer::Core, 0, || {
        let mut stek = SpanAcc::with_horizon(horizon);
        let mut dhe = SpanAcc::with_horizon(horizon);
        let mut ecdhe = SpanAcc::with_horizon(horizon);
        let mut hinted = std::collections::BTreeSet::new();
        let mut attempts = 0;
        for shard in shards {
            stek.merge(shard.stek);
            dhe.merge(shard.dhe);
            ecdhe.merge(shard.ecdhe);
            hinted.extend(shard.hints.into_keys());
            attempts += shard.attempts;
        }
        Sealed {
            attempts,
            stek_pairs: stek.pair_count(),
            dhe_pairs: dhe.pair_count(),
            ecdhe_pairs: ecdhe.pair_count(),
            stek_groups: stek_groups.service_groups().len(),
            dh_groups: dh_groups.service_groups().len(),
            hinted_domains: hinted.len(),
            peak_live_entries,
            evicted_group_ids: stek_groups.evicted_ids() + dh_groups.evicted_ids(),
        }
    })
}
