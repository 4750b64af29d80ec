//! Tables 5–7 and Figures 6–7 — cross-domain secret sharing.

use crate::Context;
use std::collections::BTreeMap;
use ts_core::groups::{stats, top_groups, ServiceGroup};
use ts_core::observations::{KexSighting, TicketSighting};
use ts_core::par::{default_workers, parallel_map};
use ts_core::report::{compare_line, fmt_duration, pct, TextTable};
use ts_core::stream::{GroupAcc, Merge};
use ts_core::treemap::{build_cells, red_cells, LongevityBucket};
use ts_scanner::crossdomain::{
    build_targets, dh_sharing_round, session_cache_scan, stek_sharing_round,
};
use ts_scanner::Scanner;

/// Output of one sharing experiment.
pub struct SharingResult {
    /// The inferred service groups (largest first).
    pub groups: Vec<ServiceGroup>,
    /// Rendered report.
    pub report: String,
}

fn render_groups(title: &str, groups: &[ServiceGroup], paper_note: &str) -> String {
    let s = stats(groups);
    let mut report = String::new();
    report.push_str(title);
    report.push('\n');
    let mut t = TextTable::new(&["Operator (inferred)", "# domains"]);
    for (label, size) in top_groups(groups, 10) {
        t.row(&[label, size.to_string()]);
    }
    report.push_str(&t.render());
    report.push('\n');
    report.push_str(&format!(
        "groups: {}  singletons: {} ({})  domains in shared groups: {}\n",
        s.group_count,
        s.singleton_count,
        pct(s.singleton_count as f64 / s.group_count.max(1) as f64),
        s.shared_domain_count,
    ));
    report.push_str(&format!("paper: {paper_note}\n"));
    report
}

/// Table 5 — largest session-cache service groups.
pub fn table5_cache_groups(ctx: &Context) -> SharingResult {
    let pop = ctx.fresh_pop();
    let targets = build_targets(&pop, &ctx.core_trusted);
    // Parallel over target chunks. Sibling sampling is chunk-local: the
    // builder lays operator domains out contiguously, so AS/IP siblings
    // overwhelmingly land in the same chunk — and the paper's method also
    // samples (≤5+5 per domain) rather than exhausting, so chunk-local
    // sampling tightens the same lower bound.
    // Each chunk links its own edges straight into a chunk-local group
    // accumulator (edges are chunk-local by construction, see above); the
    // shard accumulators then merge in fixed chunk order, which interns
    // names in target order and closes the same partition a single global
    // pass would.
    let shard_accs = parallel_map(&targets, default_workers(), |chunk_id, chunk| {
        let mut scanner = Scanner::new(&pop, &format!("t5-{chunk_id}"));
        let mut acc = GroupAcc::exact();
        for t in chunk {
            acc.add(&t.domain);
        }
        session_cache_scan(&mut scanner, chunk, 86_400, |a, b| acc.link(a, b));
        vec![acc]
    });
    let mut acc = GroupAcc::exact();
    for shard in shard_accs {
        acc.merge(shard);
    }
    let groups = acc.service_groups();
    let report = render_groups(
        "Table 5 — Largest Session Cache Service Groups",
        &groups,
        "CloudFlare #1 30,163; CloudFlare #2 15,241; Automattic 2,247/1,552; Blogspot ~560-850 × 5; 86% singletons",
    );
    SharingResult { groups, report }
}

/// Table 6 — largest STEK service groups.
pub fn table6_stek_groups(ctx: &Context) -> SharingResult {
    // Round-lockstep: all domains get round k before any domain gets
    // round k+1, so shared STEK managers advance uniformly.
    let pop = ctx.fresh_pop();
    let targets = build_targets(&pop, &ctx.core_trusted);
    let t0 = 86_400;
    let window = 6 * 3_600;
    let connections = 10u64;
    // Stream each connection round into an incremental group accumulator
    // instead of holding all eleven rounds of sightings at once: peak
    // memory is one round plus the live identifier index.
    let mut acc = GroupAcc::exact();
    for k in 0..=connections {
        // Connections 0..10 across the 6-hour window, plus the 30-minute
        // snapshot scan joined at the end (§5.2).
        let at = if k < connections {
            t0 + window * k / connections
        } else {
            t0 + window + 30 * 60
        };
        let step: Vec<TicketSighting> =
            parallel_map(&targets, default_workers(), |chunk_id, chunk| {
                let mut scanner = Scanner::new(&pop, &format!("t6-{k}-{chunk_id}"));
                let mut s = Vec::new();
                stek_sharing_round(&mut scanner, chunk, at, |x| s.push(x));
                s
            });
        for s in step {
            acc.record(&s.domain, &s.stek_id, s.day);
        }
    }
    let groups = acc.service_groups();
    let report = render_groups(
        "Table 6 — Largest STEK Service Groups",
        &groups,
        "CloudFlare 62,176; Google 8,973; Automattic 4,182; TMall 3,305; Shopify 3,247; 83% singletons",
    );
    SharingResult { groups, report }
}

/// Table 7 — largest Diffie-Hellman service groups.
pub fn table7_dh_groups(ctx: &Context) -> SharingResult {
    let pop = ctx.fresh_pop();
    let targets = build_targets(&pop, &ctx.core_trusted);
    let t0 = 86_400;
    let window = 5 * 3_600;
    let connections = 10u64;
    // Same per-round streaming as Table 6: rounds drain into the
    // accumulator as they complete.
    let mut acc = GroupAcc::exact();
    for k in 0..connections {
        let at = t0 + window * k / connections;
        let step: Vec<KexSighting> =
            parallel_map(&targets, default_workers(), |chunk_id, chunk| {
                let mut scanner = Scanner::new(&pop, &format!("t7-{k}-{chunk_id}"));
                let mut s = Vec::new();
                dh_sharing_round(&mut scanner, chunk, at, |x| s.push(x));
                s
            });
        for s in step {
            acc.record(&s.domain, &s.value_fp, s.day);
        }
    }
    let groups = acc.service_groups();
    let report = render_groups(
        "Table 7 — Largest Diffie-Hellman Service Groups",
        &groups,
        "SquareSpace 1,627; LiveJournal 1,330; Jimdo 179/178; Hostway's DHE value on 137 domains; 99% singletons",
    );
    SharingResult { groups, report }
}

/// Figures 6 and 7 — group size × secret longevity.
pub fn fig6_fig7_treemaps(ctx: &Context) -> String {
    let campaign = ctx.campaign();
    let spans = crate::exp_campaign::spans(campaign);

    // STEK treemap (Figure 6): groups tracked incrementally during the
    // streaming campaign, coloured by per-domain max STEK span.
    let stek_groups = &campaign.stek_groups;
    let stek_longevity: BTreeMap<String, u64> = spans
        .stek
        .domain_spans()
        .into_iter()
        .map(|(d, s)| (d, s.max_span_days * 86_400))
        .collect();
    let stek_cells = build_cells(stek_groups, &stek_longevity, 2);

    // DH treemap (Figure 7 right).
    let dh_groups = &campaign.dh_groups;
    let mut dh_longevity: BTreeMap<String, u64> = BTreeMap::new();
    for (d, s) in spans.dhe.domain_spans() {
        dh_longevity.insert(d, s.max_span_days * 86_400);
    }
    for (d, s) in spans.ecdhe.domain_spans() {
        let secs = s.max_span_days * 86_400;
        dh_longevity
            .entry(d)
            .and_modify(|v| *v = (*v).max(secs))
            .or_insert(secs);
    }
    let dh_cells = build_cells(dh_groups, &dh_longevity, 2);

    let mut report = String::new();
    report.push_str("Figure 6 — STEK Sharing and Longevity (size × colour cells)\n");
    let mut t = TextTable::new(&["group", "size", "median span", "bucket"]);
    for cell in stek_cells.iter().take(12) {
        t.row(&[
            cell.label.clone(),
            cell.size.to_string(),
            fmt_duration(cell.median_longevity),
            cell.bucket.label().to_string(),
        ]);
    }
    report.push_str(&t.render());
    let red = red_cells(&stek_cells, 2);
    report.push_str(&format!(
        "\nsolid-red cells (≥30d shared STEKs): {} groups covering {} domains\n",
        red.len(),
        red.iter().map(|c| c.size).sum::<usize>(),
    ));
    report.push_str(
        "paper: the two largest groups (CloudFlare, Google) rotate daily; TMall and \
         Fastly are the big red blocks; a 79-domain bank cluster shares one 59-day STEK.\n\n",
    );

    report.push_str("Figure 7 — Session Caches (left) and Diffie-Hellman Reuse (right)\n");
    let mut t = TextTable::new(&["DH group", "size", "median span", "bucket"]);
    for cell in dh_cells.iter().take(10) {
        t.row(&[
            cell.label.clone(),
            cell.size.to_string(),
            fmt_duration(cell.median_longevity),
            cell.bucket.label().to_string(),
        ]);
    }
    report.push_str(&t.render());
    let red = red_cells(&dh_cells, 2);
    report.push_str(&format!(
        "\nred DH cells: {} (paper: Affinity Internet's 91-domain 62-day value; Jimdo's 19/17-day values)\n",
        red.len(),
    ));
    // Largest-bucket sanity note.
    let reds_exist = stek_cells
        .iter()
        .any(|c| c.bucket == LongevityBucket::Red30Plus);
    report.push_str(&compare_line(
        "≥30d shared-STEK groups exist",
        "yes (TMall, Fastly, banks)",
        if reds_exist { "yes" } else { "no" },
    ));
    report.push('\n');
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx() -> Context {
        let mut cfg = ts_population::PopulationConfig::new(17, 1200);
        cfg.flakiness = 0.002;
        cfg.study_days = 8;
        cfg.transient_frac = 0.1;
        Context::from_config(cfg)
    }

    #[test]
    fn sharing_experiments_shape() {
        let ctx = ctx();
        let t6 = table6_stek_groups(&ctx);
        // Largest STEK group is the CDN analogue and dwarfs the rest.
        assert!(
            t6.groups[0].label.contains("cirrusflare"),
            "{}",
            t6.groups[0].label
        );
        let cdn = t6.groups[0].size();
        assert!(cdn >= 40, "cdn group size {cdn}");
        let s6 = stats(&t6.groups);
        assert!(
            s6.singleton_count as f64 / s6.group_count as f64 > 0.5,
            "most groups singleton"
        );

        let t7 = table7_dh_groups(&ctx);
        // DH groups far smaller and fewer than STEK groups.
        assert!(
            t7.groups[0].size() < cdn,
            "DH sharing smaller than STEK sharing"
        );
        let s7 = stats(&t7.groups);
        assert!(
            s7.singleton_count as f64 / s7.group_count as f64
                > s6.singleton_count as f64 / s6.group_count as f64,
            "DH singleton rate exceeds STEK singleton rate"
        );

        let t5 = table5_cache_groups(&ctx);
        assert!(t5.groups[0].size() > 1, "some cache sharing found");
        assert!(t5.report.contains("Table 5"));

        let treemaps = fig6_fig7_treemaps(&ctx);
        assert!(treemaps.contains("Figure 6"));
        assert!(treemaps.contains("Figure 7"));
    }
}
