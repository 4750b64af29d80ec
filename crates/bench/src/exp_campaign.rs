//! The shared 63-day daily campaign and its artefacts:
//! Figure 3 (STEK lifetime CDF), Figure 4 (STEK lifetime by rank tier),
//! Figure 5 (DHE/ECDHE reuse-span CDFs), and Tables 2–4 (top domains with
//! prolonged reuse).
//!
//! The campaign runs **sharded and streaming**: the domain population is
//! partitioned into fixed, count-derived shards (the same layout
//! [`parallel_map`](ts_core::par::parallel_map) uses for chunks), each
//! shard owns its analysis accumulators, and every sighting is folded into
//! a bounded accumulator the moment the scanner produces it. Nothing ever
//! materialises the full `Vec<TicketSighting>` of a nine-week scan, so
//! peak memory is governed by the eviction horizon and the domain count —
//! not by domain-days.

use crate::{Context, DAY};
use std::collections::BTreeMap;
use ts_core::groups::ServiceGroup;
use ts_core::observations::{KexKind, KexSighting, TicketSighting};
use ts_core::par::{default_workers, for_each_shard, ShardPlan};
use ts_core::report::{compare_line, pct, TextTable};
use ts_core::stream::{CountCdf, GroupAcc, Merge, SpanAcc, TierAcc};
use ts_core::tiers::tiers_for_population;
use ts_scanner::daily::{run_campaign_streaming, CampaignOptions, CampaignSink};
use ts_scanner::Scanner;

/// Sliding eviction horizon for campaign accumulators, in days.
///
/// A (domain, identifier) pair not re-observed for this many days is
/// retired into its domain aggregate; a shared identifier unseen for this
/// long is dropped from the group tracker. Safe because the simulated
/// servers never resurrect an identifier: STEK managers rotate forward and
/// reuse windows are contiguous, so once an id goes quiet it stays quiet.
/// The horizon comfortably exceeds the longest plausible flaky gap, and
/// final per-domain spans are exactly what the unbounded estimator yields.
pub const EVICTION_HORIZON_DAYS: u64 = 21;

/// The campaign's sealed analysis.
///
/// Earlier revisions carried every raw sighting (`Vec<TicketSighting>`,
/// `Vec<KexSighting>`) and re-derived each figure from scratch; this holds
/// only the merged streaming accumulators and the precomputed group
/// structures the figures read.
pub struct Campaign {
    /// Per-mechanism span accumulators, merged over shards in shard order.
    pub spans: CampaignSpans,
    /// STEK service groups over the whole campaign (Figure 6).
    pub stek_groups: Vec<ServiceGroup>,
    /// Diffie-Hellman service groups, both flavours (Figure 7 right).
    pub dh_groups: Vec<ServiceGroup>,
    /// Per-domain last-observed ticket lifetime hint (Figure 2's series).
    pub hints: BTreeMap<String, u32>,
    /// Total handshake attempts.
    pub attempts: u64,
    /// Days scanned.
    pub days: u64,
    /// Shard/memory accounting for the streaming run.
    pub stats: CampaignStats,
}

/// Accounting for the sharded streaming campaign: how the population was
/// split and how much live state the accumulators ever held.
#[derive(Debug, Clone, Default)]
pub struct CampaignStats {
    /// Number of domain shards the population was partitioned into.
    pub shards: usize,
    /// Domains scanned daily.
    pub domains: usize,
    /// Scanned domain-days (`domains × days`) — the quantity peak memory
    /// must stay sublinear in.
    pub domain_days: u64,
    /// Peak live accumulator entries across all shards, sampled at each
    /// day boundary after eviction (span pairs + tracked group ids).
    pub peak_live_entries: usize,
    /// Shared-identifier entries the group trackers evicted at the
    /// horizon over the whole campaign.
    pub evicted_group_ids: u64,
}

/// Span analysis bundles for the campaign.
pub struct CampaignSpans {
    /// Per-domain STEK spans.
    pub stek: SpanAcc,
    /// Per-domain DHE value spans.
    pub dhe: SpanAcc,
    /// Per-domain ECDHE value spans.
    pub ecdhe: SpanAcc,
}

/// One shard's private campaign state: its slice of the population, its
/// span accumulators, its hint tracker, and the current day's sighting
/// batch awaiting the post-barrier drain into the global group trackers.
struct ShardState {
    domains: Vec<String>,
    stek: SpanAcc,
    dhe: SpanAcc,
    ecdhe: SpanAcc,
    /// domain → (last day seen, hint on that day); last observation wins,
    /// matching the old collect-then-fold hint pass.
    hints: BTreeMap<String, (u64, u32)>,
    attempts: u64,
    day_tickets: Vec<(String, String)>,
    day_kex: Vec<(String, String)>,
}

impl ShardState {
    fn new(domains: Vec<String>) -> Self {
        let horizon = Some(EVICTION_HORIZON_DAYS);
        ShardState {
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

impl CampaignSink for ShardState {
    fn ticket(&mut self, s: TicketSighting) {
        self.stek.record(&s.domain, &s.stek_id, s.day);
        let e = self
            .hints
            .entry(s.domain.clone())
            .or_insert((s.day, s.lifetime_hint));
        if s.day >= e.0 {
            *e = (s.day, s.lifetime_hint);
        }
        self.day_tickets.push((s.domain, s.stek_id));
    }

    fn kex(&mut self, s: KexSighting) {
        match s.kex {
            KexKind::Dhe => self.dhe.record(&s.domain, &s.value_fp, s.day),
            KexKind::Ecdhe => self.ecdhe.record(&s.domain, &s.value_fp, s.day),
        }
        self.day_kex.push((s.domain, s.value_fp));
    }
}

/// Run the daily campaign over the stable core against a pristine world.
///
/// The paper scans the full churned list daily and filters to the stable
/// core for multi-day analysis; scanning only the core is observationally
/// identical for every artefact this campaign feeds and skips wasted
/// connections.
///
/// **Sharding.** The core is partitioned by [`ShardPlan`] — the exact
/// chunk layout `parallel_map` derives from the domain count — so shard
/// `s` on day `d` seeds its scanner `daily-campaign-{d}-{s}` exactly as
/// the chunked collector did, and output is byte-identical at any worker
/// count. Each shard folds its own sightings into [`SpanAcc`]s as they
/// are produced; cross-shard structures (the STEK and DH group trackers)
/// are global and fed after each day's barrier, draining every shard's
/// bounded day batch in fixed shard order. Sharers present a shared
/// identifier on the same day, so union edges always form before the
/// horizon can evict either endpoint.
///
/// **Parallelism** stays day-lockstep: workers fan out across shards
/// within one day, then barrier before the next. Virtual time inside
/// shared STEK managers only moves forward, so letting one worker race
/// ahead to day 40 while another still scans day 2 would freeze rotation
/// state for every domain sharing a manager across a shard boundary and
/// corrupt the span estimates.
///
/// **The clock within a day is not monotone.** Each domain's grabs run
/// at 06:00, 06:01 and 06:02, and the next domain starts again at 06:00.
/// A sibling's 06:01 or 06:02 grab can therefore rotate a STEK manager
/// that this domain shares before this domain's 06:00 ticket grab, which
/// then records a key created after its own time. Where the manager is
/// shared across shards the outcome can depend on thread scheduling:
/// `peak_live_entries` at size 1500, seed 2016, 63 days has read one
/// apart between `--workers 2` runs. One pass per grab kind with a
/// barrier between passes would fix it, but changes the scanner's draw
/// order and so every pinned digest; it is left for a re-pin.
///
/// The DHE and ECDHE passes are value-only grabs, which issue no ticket.
/// Their servers still advance the STEK manager to the grab's time when
/// ServerHello promises a ticket, as issuing it would have, so the
/// managers rotate exactly as under completed handshakes and every
/// output stays what the completed handshakes produced.
pub fn run_daily_campaign(ctx: &Context) -> Campaign {
    let pop = ctx.fresh_pop();
    let days = ctx.config.study_days;
    let domains = &ctx.core_trusted;
    let plan = ShardPlan::for_len(domains.len());
    let mut states: Vec<ShardState> = (0..plan.shard_count())
        .map(|s| ShardState::new(domains[plan.range(s)].to_vec()))
        .collect();
    let horizon = Some(EVICTION_HORIZON_DAYS);
    let mut stek_group_acc = GroupAcc::with_horizon(horizon);
    let mut dh_group_acc = GroupAcc::with_horizon(horizon);
    let mut peak_live_entries = 0usize;
    for day in 0..days {
        for_each_shard(&mut states, default_workers(), |shard_id, state| {
            let mut scanner = Scanner::new(&pop, &format!("daily-campaign-{day}-{shard_id}"));
            let options = CampaignOptions::new().days(day..day + 1);
            let shard_domains = state.domains.clone();
            let attempts = run_campaign_streaming(
                &mut scanner,
                &options,
                move |_day| shard_domains.clone(),
                state,
            );
            state.attempts += attempts;
        });
        // Barrier passed: drain each shard's day batch into the global
        // group trackers in fixed shard order (the same stream order the
        // collect-then-group path produced), then evict at the horizon.
        for state in &mut states {
            for (domain, id) in state.day_tickets.drain(..) {
                stek_group_acc.record(&domain, &id, day);
            }
            for (domain, fp) in state.day_kex.drain(..) {
                dh_group_acc.record(&domain, &fp, day);
            }
            state.stek.advance(day);
            state.dhe.advance(day);
            state.ecdhe.advance(day);
        }
        stek_group_acc.advance(day);
        dh_group_acc.advance(day);
        let live: usize = states.iter().map(ShardState::live_entries).sum::<usize>()
            + stek_group_acc.live_ids()
            + dh_group_acc.live_ids();
        peak_live_entries = peak_live_entries.max(live);
    }

    // Seal: merge shard accumulators in fixed shard order. Shards own
    // disjoint domains, so the span merge is a disjoint union and the
    // hint maps never collide.
    let mut stek = SpanAcc::with_horizon(horizon);
    let mut dhe = SpanAcc::with_horizon(horizon);
    let mut ecdhe = SpanAcc::with_horizon(horizon);
    let mut hints = BTreeMap::new();
    let mut attempts = 0u64;
    let domain_count = domains.len();
    for state in states {
        stek.merge(state.stek);
        dhe.merge(state.dhe);
        ecdhe.merge(state.ecdhe);
        for (domain, (_day, hint)) in state.hints {
            hints.insert(domain, hint);
        }
        attempts += state.attempts;
    }
    let evicted_group_ids = stek_group_acc.evicted_ids() + dh_group_acc.evicted_ids();
    Campaign {
        spans: CampaignSpans { stek, dhe, ecdhe },
        stek_groups: stek_group_acc.service_groups(),
        dh_groups: dh_group_acc.service_groups(),
        hints,
        attempts,
        days,
        stats: CampaignStats {
            shards: plan.shard_count(),
            domains: domain_count,
            domain_days: domain_count as u64 * days,
            peak_live_entries,
            evicted_group_ids,
        },
    }
}

/// The campaign's span accumulators (kept as an accessor for the figure
/// builders, which predate the sealed [`Campaign`]).
pub fn spans(campaign: &Campaign) -> &CampaignSpans {
    &campaign.spans
}

/// Figure 3: STEK lifetime CDF.
pub struct Fig3 {
    /// CDF of per-domain maximum STEK spans (days).
    pub cdf: CountCdf,
    /// Fraction of ticket issuers whose STEK never repeated across days.
    pub daily_fraction: f64,
    /// Fraction with spans ≥ 7 days.
    pub ge7_fraction: f64,
    /// Fraction with spans ≥ 30 days.
    pub ge30_fraction: f64,
    /// Rendered report.
    pub report: String,
}

/// Compute Figure 3.
pub fn fig3_stek_lifetime(ctx: &Context) -> Fig3 {
    let campaign = ctx.campaign();
    let s = spans(campaign);
    let cdf = CountCdf::from_samples(s.stek.max_spans());
    let daily_fraction = cdf.fraction_le(1);
    let ge7 = cdf.fraction_ge(7);
    let ge30 = cdf.fraction_ge(30);
    let mut report = String::new();
    report.push_str("Figure 3 — STEK Lifetime (CDF of max span per ticket-issuing domain)\n");
    let mut t = TextTable::new(&["span ≤ (days)", "CDF"]);
    for bp in [1u64, 2, 3, 7, 14, 30, 45, 63] {
        t.row(&[bp.to_string(), pct(cdf.fraction_le(bp))]);
    }
    report.push_str(&t.render());
    report.push('\n');
    report.push_str(&compare_line(
        "fresh STEK daily (of issuers)",
        "~53%",
        &pct(daily_fraction),
    ));
    report.push('\n');
    report.push_str(&compare_line(
        "STEK span ≥ 7d (of issuers)",
        "~28%",
        &pct(ge7),
    ));
    report.push('\n');
    report.push_str(&compare_line(
        "STEK span ≥ 30d (of issuers)",
        "~13%",
        &pct(ge30),
    ));
    report.push('\n');
    Fig3 {
        cdf,
        daily_fraction,
        ge7_fraction: ge7,
        ge30_fraction: ge30,
        report,
    }
}

/// Figure 4: STEK lifetime by rank tier.
///
/// Streams `(rank, span)` samples through a [`TierAcc`] — count-based
/// per-tier CDFs — instead of materialising and sorting a sample vector
/// per tier.
pub fn fig4_stek_by_rank(ctx: &Context) -> String {
    let campaign = ctx.campaign();
    let s = spans(campaign);
    let tiers = tiers_for_population(ctx.config.size);
    let mut acc = TierAcc::new(&tiers);
    for (domain, ds) in s.stek.domain_spans() {
        if let Some(t) = ctx.truth.get(&domain) {
            acc.record(t.rank, ds.max_span_days);
        }
    }
    let cdfs = acc.cdfs();
    let mut report = String::new();
    report.push_str("Figure 4 — STEK Lifetime by Rank Tier (per-tier CDF)\n");
    let mut t = TextTable::new(&["tier", "issuers", "≥7d", "≥30d", "median"]);
    for tier in &tiers {
        let cdf = &cdfs[tier.label];
        t.row(&[
            tier.label.to_string(),
            cdf.len().to_string(),
            pct(cdf.fraction_ge(7)),
            pct(cdf.fraction_ge(30)),
            cdf.median()
                .map(|m| format!("{m}d"))
                .unwrap_or_else(|| "-".into()),
        ]);
    }
    report.push_str(&t.render());
    report.push_str(
        "\npaper: 12 of the Alexa Top 100 persisted STEKs ≥30 days; long-lived\n\
         STEKs appear in every tier.\n",
    );
    report
}

/// Figure 5: DHE and ECDHE reuse-span CDFs.
pub struct Fig5 {
    /// DHE spans CDF (days), over DHE-connecting domains.
    pub dhe_cdf: CountCdf,
    /// ECDHE spans CDF.
    pub ecdhe_cdf: CountCdf,
    /// Rendered report.
    pub report: String,
}

/// Compute Figure 5.
pub fn fig5_kex_reuse(ctx: &Context) -> Fig5 {
    let campaign = ctx.campaign();
    let s = spans(campaign);
    let denominator = ctx.core_trusted.len() as f64;
    let dhe_cdf = CountCdf::from_samples(s.dhe.max_spans());
    let ecdhe_cdf = CountCdf::from_samples(s.ecdhe.max_spans());
    let mut report = String::new();
    report.push_str("Figure 5 — Ephemeral Exchange Value Reuse (span CDFs)\n");
    let mut t = TextTable::new(&[
        "span ≥",
        "DHE domains",
        "DHE %core",
        "ECDHE domains",
        "ECDHE %core",
    ]);
    for bp in [2u64, 7, 30] {
        let d = dhe_cdf.count_ge(bp);
        let e = ecdhe_cdf.count_ge(bp);
        t.row(&[
            format!("{bp}d"),
            d.to_string(),
            pct(d as f64 / denominator),
            e.to_string(),
            pct(e as f64 / denominator),
        ]);
    }
    report.push_str(&t.render());
    report.push('\n');
    report.push_str(&compare_line(
        "DHE ≥7d (of trusted core)",
        "1.2%",
        &pct(dhe_cdf.count_ge(7) as f64 / denominator),
    ));
    report.push('\n');
    report.push_str(&compare_line(
        "ECDHE ≥7d (of trusted core)",
        "3.0%",
        &pct(ecdhe_cdf.count_ge(7) as f64 / denominator),
    ));
    report.push('\n');
    Fig5 {
        dhe_cdf,
        ecdhe_cdf,
        report,
    }
}

/// Tables 2, 3, 4: top domains (by rank) with ≥7-day reuse.
pub fn top_reuse_table(
    ctx: &Context,
    acc: &SpanAcc,
    title: &str,
    paper_examples: &str,
    k: usize,
) -> String {
    let long: Vec<(String, u64)> = acc.domains_with_span_at_least(7);
    // Order by rank (most popular first), as the paper's tables do.
    let mut ranked: Vec<(usize, String, u64)> = long
        .into_iter()
        .filter_map(|(domain, span)| ctx.truth.get(&domain).map(|t| (t.rank, domain, span)))
        .collect();
    ranked.sort();
    let mut report = String::new();
    report.push_str(title);
    report.push('\n');
    let mut t = TextTable::new(&["Rank", "Domain", "# Days"]);
    for (rank, domain, span) in ranked.iter().take(k) {
        t.row(&[rank.to_string(), domain.clone(), span.to_string()]);
    }
    report.push_str(&t.render());
    report.push_str(&format!("\npaper's exemplars: {paper_examples}\n"));
    report
}

/// Table 2.
pub fn table2_stek_reuse(ctx: &Context) -> String {
    let s = spans(ctx.campaign());
    top_reuse_table(
        ctx,
        &s.stek,
        "Table 2 — Top Domains with Prolonged STEK Reuse (≥7 days)",
        "yahoo 63d, qq 56, taobao 63, pinterest 63, yandex 63, netflix 54, imgur 63, fc2 18, pornhub 29",
        12,
    )
}

/// Table 3.
pub fn table3_dhe_reuse(ctx: &Context) -> String {
    let s = spans(ctx.campaign());
    top_reuse_table(
        ctx,
        &s.dhe,
        "Table 3 — Top Domains with Prolonged DHE Reuse (≥7 days)",
        "netflix 59d, fc2 18, ebay-in 7, ebay-it 8, bleacherreport 24, kayak 13, cbssports 60, cookpad 63",
        12,
    )
}

/// Table 4.
pub fn table4_ecdhe_reuse(ctx: &Context) -> String {
    let s = spans(ctx.campaign());
    top_reuse_table(
        ctx,
        &s.ecdhe,
        "Table 4 — Top Domains with Prolonged ECDHE Reuse (≥7 days)",
        "netflix 59d, whatsapp 62, vice 26, 9gag 31, liputan6 28, paytm 27, playstation 11, woot 62",
        12,
    )
}

/// Validate the campaign estimator against ground truth: for domains with
/// a static STEK the measured span must equal the full study; for daily
/// rotators it must be 1. Returns (checked, mismatches).
pub fn validate_against_truth(ctx: &Context) -> (usize, usize) {
    let s = spans(ctx.campaign());
    let spans_by_domain = s.stek.domain_spans();
    let mut checked = 0;
    let mut mismatches = 0;
    for (domain, ds) in &spans_by_domain {
        let truth = match ctx.truth.get(domain) {
            Some(t) => t,
            None => continue,
        };
        match truth.stek_period {
            Some(u64::MAX) => {
                checked += 1;
                // Allow jitter at the edges from flaky connections.
                if ds.max_span_days + 3 < ctx.campaign().days {
                    mismatches += 1;
                }
            }
            Some(p) if p < DAY => {
                checked += 1;
                if ds.max_span_days > 2 {
                    mismatches += 1;
                }
            }
            _ => {}
        }
    }
    (checked, mismatches)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_ctx() -> Context {
        let mut cfg = ts_population::PopulationConfig::new(5, 250);
        cfg.study_days = 10;
        cfg.flakiness = 0.002;
        Context::from_config(cfg)
    }

    #[test]
    fn campaign_and_figures_run() {
        let ctx = small_ctx();
        let campaign = ctx.campaign();
        assert!(campaign.attempts > 0);
        assert!(campaign.spans.stek.pair_count() > 0);
        assert!(campaign.stats.shards > 0);
        assert!(campaign.stats.peak_live_entries > 0);
        let f3 = fig3_stek_lifetime(&ctx);
        assert!(!f3.cdf.is_empty());
        assert!(f3.report.contains("Figure 3"));
        // Shape: more domains rotate daily than hold ≥7d.
        assert!(f3.daily_fraction > f3.ge7_fraction);
        let f4 = fig4_stek_by_rank(&ctx);
        assert!(f4.contains("Top 100"));
        let f5 = fig5_kex_reuse(&ctx);
        assert!(f5.report.contains("Figure 5"));
        // Shape: ECDHE reuse exceeds DHE reuse in absolute domain counts.
        assert!(f5.ecdhe_cdf.count_ge(2) >= f5.dhe_cdf.count_ge(2));
    }

    #[test]
    fn tables_name_the_notables() {
        let ctx = small_ctx();
        // The rendered tables cap at the paper's ~10 rows; at this tiny
        // scale notables crowd the top ranks, so assert membership on the
        // full ≥7-day lists and rendering separately.
        let s = spans(ctx.campaign());
        let stek_long: Vec<String> = s
            .stek
            .domains_with_span_at_least(7)
            .into_iter()
            .map(|(d, _)| d)
            .collect();
        assert!(
            stek_long.contains(&"yahoo.sim".to_string()),
            "{stek_long:?}"
        );
        let dhe_long: Vec<String> = s
            .dhe
            .domains_with_span_at_least(7)
            .into_iter()
            .map(|(d, _)| d)
            .collect();
        assert!(
            dhe_long.contains(&"cookpad.sim".to_string()),
            "{dhe_long:?}"
        );
        let ecdhe_long: Vec<String> = s
            .ecdhe
            .domains_with_span_at_least(7)
            .into_iter()
            .map(|(d, _)| d)
            .collect();
        assert!(
            ecdhe_long.contains(&"whatsapp.sim".to_string()),
            "{ecdhe_long:?}"
        );
        assert!(table2_stek_reuse(&ctx).contains("Table 2"));
        assert!(table3_dhe_reuse(&ctx).contains("Table 3"));
        assert!(table4_ecdhe_reuse(&ctx).contains("Table 4"));
    }

    #[test]
    fn estimator_matches_ground_truth() {
        let ctx = small_ctx();
        let (checked, mismatches) = validate_against_truth(&ctx);
        assert!(checked > 10, "checked {checked}");
        let rate = mismatches as f64 / checked as f64;
        assert!(rate < 0.05, "estimator mismatch rate {rate}");
    }

    #[test]
    fn hints_include_90_day_outliers() {
        let ctx = small_ctx();
        let hints = &ctx.campaign().hints;
        // fantabobworld/fantabobshow advertise 90 days.
        let ninety = (90 * DAY) as u32;
        assert!(hints.values().any(|&h| h == ninety), "{hints:?}");
    }

    #[test]
    fn eviction_bounds_live_state_past_the_horizon() {
        // A study longer than the horizon: daily rotators accumulate one
        // (domain, id) pair per day, so without eviction live state grows
        // linearly in days. With it, pairs retire and group ids drop out
        // while the final spans still match ground truth.
        let mut cfg = ts_population::PopulationConfig::new(41, 150);
        cfg.flakiness = 0.0;
        cfg.study_days = EVICTION_HORIZON_DAYS + 9;
        let ctx = Context::from_config(cfg);
        let campaign = ctx.campaign();
        assert!(campaign.days > EVICTION_HORIZON_DAYS);
        assert!(
            campaign.spans.stek.live_pairs() < campaign.spans.stek.pair_count(),
            "daily rotators must have retired pairs: live {} of {}",
            campaign.spans.stek.live_pairs(),
            campaign.spans.stek.pair_count()
        );
        assert!(
            campaign.stats.evicted_group_ids > 0,
            "group trackers never evicted"
        );
        // Peak live state is bounded by domains × horizon, not by
        // domain-days: the whole point of the streaming rewrite.
        assert!(
            (campaign.stats.peak_live_entries as u64) < campaign.stats.domain_days * 3,
            "peak {} vs domain-days {}",
            campaign.stats.peak_live_entries,
            campaign.stats.domain_days
        );
        let (checked, mismatches) = validate_against_truth(&ctx);
        assert!(checked > 5, "checked {checked}");
        assert_eq!(mismatches, 0, "eviction must not distort final spans");
    }
}
