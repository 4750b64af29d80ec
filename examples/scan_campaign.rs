//! A miniature end-to-end replication of the 9-week study: daily scans,
//! span estimation, service-group inference, combined exposure — the whole
//! §3→§6 pipeline on a small population, printing the headline numbers.
//!
//! ```text
//! cargo run --release --example scan_campaign [size]
//! ```
//!
//! (For the full per-table/figure output, use `cargo run --release -p
//! ts-bench --bin repro`.)

use tls_shortcuts::core::observations::KexKind;
use tls_shortcuts::core::report::pct;
use tls_shortcuts::core::stream::{CountCdf, GroupAcc, SpanAcc};
use tls_shortcuts::population::{Population, PopulationConfig};
use tls_shortcuts::scanner::crossdomain::{build_targets, stek_sharing_round};
use tls_shortcuts::scanner::daily::{run_campaign_streaming, CampaignData, CampaignOptions};
use tls_shortcuts::scanner::Scanner;

fn main() {
    let size: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(1_200);
    println!("building a {size}-domain simulated Top Million (seed 2016)...");
    let pop = Population::build(PopulationConfig::new(2016, size));
    let core = pop.core_trusted();
    println!(
        "  stable core: {} domains, {} browser-trusted ({})",
        pop.churn.core().len(),
        core.len(),
        pct(core.len() as f64 / pop.churn.core().len() as f64),
    );

    // --- The 63-day daily campaign. ---
    println!("\nrunning 63 daily scans (ticket + DHE + ECDHE grabs per domain)...");
    let mut scanner = Scanner::new(&pop, "campaign");
    let targets = core.clone();
    let mut data = CampaignData::default();
    let attempts = run_campaign_streaming(
        &mut scanner,
        &CampaignOptions::new(),
        move |_d| targets.clone(),
        &mut data,
    );
    println!(
        "  {attempts} handshake attempts, {} ticket sightings",
        data.tickets.len()
    );

    // --- STEK lifetimes (Figure 3's shape). ---
    let mut stek = SpanAcc::exact();
    for s in &data.tickets {
        stek.record(&s.domain, &s.stek_id, s.day);
    }
    let cdf = CountCdf::from_samples(stek.max_spans());
    println!("\nSTEK lifetime over {} ticket-issuing domains:", cdf.len());
    println!(
        "  fresh daily : {} (paper ~53% of issuers)",
        pct(cdf.fraction_le(1))
    );
    println!("  span ≥ 7d   : {} (paper ~28%)", pct(cdf.fraction_ge(7)));
    println!("  span ≥ 30d  : {} (paper ~13%)", pct(cdf.fraction_ge(30)));

    // --- KEX value reuse (Figure 5's shape). ---
    let (mut dhe, mut ecdhe) = (SpanAcc::exact(), SpanAcc::exact());
    for s in &data.kex {
        let est = match s.kex {
            KexKind::Dhe => &mut dhe,
            KexKind::Ecdhe => &mut ecdhe,
        };
        est.record(&s.domain, &s.value_fp, s.day);
    }
    let d7 = dhe.domains_with_span_at_least(7).len();
    let e7 = ecdhe.domains_with_span_at_least(7).len();
    println!("\nephemeral value reuse ≥7 days:");
    println!(
        "  DHE  : {d7} domains ({})",
        pct(d7 as f64 / core.len() as f64)
    );
    println!(
        "  ECDHE: {e7} domains ({})",
        pct(e7 as f64 / core.len() as f64)
    );

    // --- STEK service groups (Table 6's shape). ---
    println!("\ninferring STEK service groups from a one-day sharing scan...");
    let frame = build_targets(&pop, &core);
    let mut scanner2 = Scanner::new(&pop, "groups");
    let mut acc = GroupAcc::exact();
    // Ten rounds across six hours, then a snapshot 30 minutes later (§5.2).
    let t0 = 40 * 86_400;
    let rounds = (0..10)
        .map(|k| t0 + k * 6 * 3_600 / 10)
        .chain([t0 + 6 * 3_600 + 1_800]);
    for at in rounds {
        stek_sharing_round(&mut scanner2, &frame, at, |s| {
            acc.record(&s.domain, &s.stek_id, s.day)
        });
    }
    let groups = acc.service_groups();
    println!("  {} groups; the five largest:", groups.len());
    for g in groups.iter().take(5) {
        println!("    {:<28} {} domains", g.label, g.size());
    }

    println!(
        "\nshapes to check against the paper: tickets ≫ ECDHE ≫ DHE persistence; one\n\
         CDN-like group dwarfing everything; a long singleton tail."
    );
}
