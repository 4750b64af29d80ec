//! Table 1 — Support for Forward Secrecy and Resumption.
//!
//! Three burst scans (DHE-only, ECDHE-only, browser-like for tickets) of
//! ten connections each, producing the paper's funnels: listed →
//! non-blacklisted → browser-trusted → supports offer → ≥2× same value →
//! all same value.

use crate::Context;
use ts_core::par::{default_workers, parallel_map};
use ts_core::report::{compare_line, pct, TextTable};
use ts_scanner::burst::{burst_scan, BurstFunnel};
use ts_scanner::{Scanner, SuiteOffer};

/// The three funnels of Table 1.
pub struct Table1 {
    /// DHE funnel.
    pub dhe: BurstFunnel,
    /// ECDHE funnel.
    pub ecdhe: BurstFunnel,
    /// Session-ticket funnel.
    pub tickets: BurstFunnel,
    /// Rendered report.
    pub report: String,
}

fn merge(funnels: Vec<BurstFunnel>) -> BurstFunnel {
    let mut out = BurstFunnel::default();
    for f in funnels {
        out.listed += f.listed;
        out.non_blacklisted += f.non_blacklisted;
        out.trusted_tls += f.trusted_tls;
        out.supported += f.supported;
        out.repeat_twice += f.repeat_twice;
        out.all_same += f.all_same;
    }
    out
}

fn scan(pop: &ts_population::Population, label: &str, offer: SuiteOffer, day: u64) -> BurstFunnel {
    // Table 1 scans a single day's full list; we scan the stable core plus
    // that day's transients — the same composition.
    let domains = pop.churn.list_for_day(day);
    let now = day * 86_400 + 4 * 3_600;
    let funnels = parallel_map(&domains, default_workers(), |chunk_id, chunk| {
        let mut scanner = Scanner::new(pop, &format!("{label}-{chunk_id}"));
        vec![burst_scan(&mut scanner, chunk, now, offer)]
    });
    merge(funnels)
}

/// Run the full Table 1 experiment (three scan days, like the paper's
/// April 14/15/17 scans — ascending days against a pristine world, since
/// virtual time in shared STEK managers only moves forward).
pub fn table1_support(ctx: &Context) -> Table1 {
    let pop = ctx.fresh_pop();
    let dhe = scan(&pop, "t1-dhe", SuiteOffer::DheOnly, 1);
    let ecdhe = scan(&pop, "t1-ecdhe", SuiteOffer::EcdheOnly, 2);
    let tickets = scan(&pop, "t1-tickets", SuiteOffer::All, 4);

    let mut report = String::new();
    report
        .push_str("Table 1 — Support for Forward Secrecy and Resumption (10-connection bursts)\n");
    let mut t = TextTable::new(&["funnel row", "DHE", "ECDHE", "Tickets"]);
    let rows: [(&str, fn(&BurstFunnel) -> usize); 6] = [
        ("domains listed", |f| f.listed),
        ("non-blacklisted", |f| f.non_blacklisted),
        ("browser-trusted TLS", |f| f.trusted_tls),
        ("support offer / issue tickets", |f| f.supported),
        ("≥2x same value / STEK id", |f| f.repeat_twice),
        ("all same value / STEK id", |f| f.all_same),
    ];
    for (label, get) in rows {
        t.row(&[
            label.to_string(),
            get(&dhe).to_string(),
            get(&ecdhe).to_string(),
            get(&tickets).to_string(),
        ]);
    }
    report.push_str(&t.render());
    report.push('\n');
    let frac = |n: usize, d: usize| if d == 0 { 0.0 } else { n as f64 / d as f64 };
    report.push_str(&compare_line(
        "DHE support (of trusted)",
        "59%",
        &pct(frac(dhe.supported, dhe.trusted_tls)),
    ));
    report.push('\n');
    report.push_str(&compare_line(
        "ECDHE support (of trusted)",
        "89%",
        &pct(frac(ecdhe.supported, ecdhe.trusted_tls)),
    ));
    report.push('\n');
    report.push_str(&compare_line(
        "issue tickets (of trusted)",
        "81.5%",
        &pct(frac(tickets.supported, tickets.trusted_tls)),
    ));
    report.push('\n');
    report.push_str(&compare_line(
        "DHE burst reuse (of supporters)",
        "7.2%",
        &pct(frac(dhe.repeat_twice, dhe.supported)),
    ));
    report.push('\n');
    report.push_str(&compare_line(
        "ECDHE burst reuse (of supporters)",
        "15.5%",
        &pct(frac(ecdhe.repeat_twice, ecdhe.supported)),
    ));
    report.push('\n');
    report.push_str(&compare_line(
        "same STEK id within burst (of issuers)",
        "99.6%",
        &pct(frac(tickets.repeat_twice, tickets.supported)),
    ));
    report.push('\n');
    Table1 {
        dhe,
        ecdhe,
        tickets,
        report,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_shapes_hold() {
        // Large enough that the long tail dominates the notables (their
        // per-domain reuse policies would otherwise skew the rates).
        let mut cfg = ts_population::PopulationConfig::new(8, 1500);
        cfg.flakiness = 0.002;
        cfg.transient_frac = 0.1;
        let ctx = Context::from_config(cfg);
        let t1 = table1_support(&ctx);
        // Funnels decrease.
        for f in [&t1.dhe, &t1.ecdhe, &t1.tickets] {
            assert!(f.listed >= f.non_blacklisted);
            assert!(f.non_blacklisted >= f.trusted_tls);
            assert!(f.trusted_tls >= f.supported);
            assert!(f.supported >= f.repeat_twice);
            assert!(f.repeat_twice >= f.all_same);
        }
        // Orderings the paper reports.
        assert!(t1.ecdhe.supported > t1.dhe.supported, "ECDHE support > DHE");
        assert!(
            t1.tickets.supported > t1.dhe.supported,
            "tickets widespread"
        );
        // Within-burst STEK repetition near-universal; KEX reuse rare.
        let stek_rate = t1.tickets.repeat_twice as f64 / t1.tickets.supported.max(1) as f64;
        let dhe_rate = t1.dhe.repeat_twice as f64 / t1.dhe.supported.max(1) as f64;
        assert!(stek_rate > 0.85, "stek burst repetition {stek_rate}");
        assert!(dhe_rate < 0.30, "dhe burst reuse {dhe_rate}");
        assert!(t1.report.contains("Table 1"));
    }
}
