//! Cross-crate integration: the full §3→§6 pipeline on one world —
//! population → scanner → analysis → attacker — validated against the
//! population's ground truth.

use tls_shortcuts::attacker::passive::CapturedConnection;
use tls_shortcuts::attacker::stek::decrypt_with_stolen_steks;
use tls_shortcuts::core::observations::KexKind;
use tls_shortcuts::core::stream::{GroupAcc, SpanAcc};
use tls_shortcuts::crypto::drbg::HmacDrbg;
use tls_shortcuts::population::{Population, PopulationConfig};
use tls_shortcuts::scanner::crossdomain::{build_targets, stek_sharing_scan_streaming};
use tls_shortcuts::scanner::daily::{run_campaign_streaming, CampaignData, CampaignOptions};
use tls_shortcuts::scanner::{GrabOptions, Scanner};
use tls_shortcuts::tls::config::ClientConfig;
use tls_shortcuts::tls::pump::pump_app_data;

const DAY: u64 = 86_400;

/// Every sighting of a `days`-day campaign over `targets`.
fn campaign(scanner: &mut Scanner, days: u64, targets: Vec<String>) -> CampaignData {
    let mut data = CampaignData::default();
    let options = CampaignOptions::new().days(0..days);
    run_campaign_streaming(scanner, &options, move |_| targets.clone(), &mut data);
    data
}

fn world(seed: u64, size: usize, days: u64) -> Population {
    let mut cfg = PopulationConfig::new(seed, size);
    cfg.flakiness = 0.002;
    cfg.study_days = days;
    Population::build(cfg)
}

#[test]
fn campaign_spans_match_ground_truth_for_every_measured_domain() {
    let pop = world(100, 500, 12);
    let core = pop.core_trusted();
    let mut scanner = Scanner::new(&pop, "e2e-campaign");
    let data = campaign(&mut scanner, 12, core);

    let mut stek = SpanAcc::exact();
    for s in &data.tickets {
        stek.record(&s.domain, &s.stek_id, s.day);
    }
    let spans = stek.domain_spans();
    let mut static_checked = 0;
    let mut daily_checked = 0;
    for (domain, ds) in &spans {
        let truth = pop.truth.get(domain).expect("scanned domains have truth");
        match truth.stek_period {
            // Never-rotating STEKs must span (almost) the whole window.
            Some(u64::MAX) => {
                static_checked += 1;
                assert!(
                    ds.max_span_days >= 10,
                    "{domain}: static STEK span {} too short",
                    ds.max_span_days
                );
            }
            // Sub-daily rotation must never span multiple days...
            Some(p) if p <= 12 * 3_600 => {
                daily_checked += 1;
                assert!(
                    ds.max_span_days <= 2,
                    "{domain}: rotating STEK span {}",
                    ds.max_span_days
                );
            }
            _ => {}
        }
    }
    assert!(
        static_checked >= 3,
        "static STEK domains measured: {static_checked}"
    );
    assert!(
        daily_checked >= 10,
        "daily rotators measured: {daily_checked}"
    );
}

#[test]
fn kex_reuse_detected_only_where_configured() {
    let pop = world(101, 500, 8);
    let core = pop.core_trusted();
    let mut scanner = Scanner::new(&pop, "e2e-kex");
    let data = campaign(&mut scanner, 8, core);
    let mut ecdhe = SpanAcc::exact();
    for s in data.kex.iter().filter(|s| s.kex == KexKind::Ecdhe) {
        ecdhe.record(&s.domain, &s.value_fp, s.day);
    }
    for (domain, ds) in ecdhe.domain_spans() {
        let truth = pop.truth.get(&domain).expect("truth");
        let configured = truth.ecdhe_reuse.unwrap_or(0);
        if configured == 0 {
            assert_eq!(
                ds.max_span_days, 1,
                "{domain}: fresh-policy domain showed multi-day ECDHE span"
            );
        }
        if configured >= 8 * DAY && ds.days_seen >= 6 {
            assert!(
                ds.max_span_days >= 6,
                "{domain}: configured {configured}s reuse but measured {}d",
                ds.max_span_days
            );
        }
    }
}

#[test]
fn stek_groups_match_configured_units() {
    let pop = world(102, 2_000, 8);
    let core = pop.core_trusted();
    let scanner = Scanner::new(&pop, "e2e-groups");
    let frame = build_targets(&scanner, &core);
    let mut scanner = scanner;
    let mut acc = GroupAcc::exact();
    stek_sharing_scan_streaming(&mut scanner, &frame, 9_000, 6 * 3_600, 6, 1_800, |s| {
        acc.record(&s.domain, &s.stek_id, s.day)
    });
    let groups = acc.service_groups();
    // Every multi-domain group must correspond to one configured STEK unit.
    let mut multi_checked = 0;
    for g in groups.iter().filter(|g| g.size() >= 2) {
        let units: std::collections::HashSet<Option<usize>> = g
            .members
            .iter()
            .map(|m| pop.truth.get(m).and_then(|t| t.stek_unit))
            .collect();
        assert_eq!(units.len(), 1, "group {} spans units {units:?}", g.label);
        multi_checked += 1;
    }
    assert!(
        multi_checked >= 3,
        "multi-domain groups found: {multi_checked}"
    );
    // And the largest group is the CDN analogue.
    assert!(
        groups[0].label.contains("cirrusflare"),
        "largest group: {} ({})",
        groups[0].label,
        groups[0].size()
    );
}

#[test]
fn full_pipeline_capture_to_decryption() {
    // Scan → find a long-STEK domain → record traffic → steal → decrypt.
    let pop = world(103, 600, 5);
    let mut scanner = Scanner::new(&pop, "e2e-attack");

    // The scanner notices yahoo.sim never rotates (5 daily sightings, 1 id).
    let mut ids = std::collections::HashSet::new();
    for day in 0..5u64 {
        let g = scanner.grab("yahoo.sim", day * DAY + 3_600, &GrabOptions::new());
        if let Some(obs) = g.ok() {
            ids.insert(obs.stek_id.clone().unwrap());
        }
    }
    assert_eq!(ids.len(), 1, "yahoo.sim uses one STEK all week");

    // A victim's connection is recorded on day 5.
    let mut rng = HmacDrbg::new(b"e2e-victim");
    let ip = pop.dns.resolve("yahoo.sim", &mut rng).unwrap();
    let ccfg = ClientConfig::new(pop.root_store.clone(), "yahoo.sim", 5 * DAY);
    let conn = pop
        .net
        .connect(ip, ccfg, 5 * DAY, &mut rng)
        .expect("connects");
    let (mut client, mut server, mut capture) = (conn.client, conn.server, conn.capture);
    client.send_app_data(b"GET /mail/inbox").unwrap();
    pump_app_data(&mut client, &mut server, &mut capture).unwrap();
    server.send_app_data(b"inbox: 3 unread").unwrap();
    pump_app_data(&mut client, &mut server, &mut capture).unwrap();
    let parsed = CapturedConnection::parse(&capture).unwrap();
    assert!(parsed.cipher_suite.is_forward_secret());

    // Weeks later, the attacker obtains the terminator's STEK.
    let pod = pop
        .terminators
        .iter()
        .find(|t| t.domains().contains(&"yahoo.sim".to_string()))
        .unwrap();
    let stolen = pod.stek.as_ref().unwrap().steal_keys();
    let recovered = decrypt_with_stolen_steks(&parsed, &stolen).expect("decrypts");
    assert_eq!(recovered.client_to_server, b"GET /mail/inbox");
    assert_eq!(recovered.server_to_client, b"inbox: 3 unread");
}

#[test]
fn whole_study_is_deterministic() {
    let run = || {
        let pop = world(104, 300, 4);
        let core = pop.core_trusted();
        let mut scanner = Scanner::new(&pop, "e2e-det");
        let data = campaign(&mut scanner, 4, core);
        let mut tickets = data.tickets;
        tickets.sort_by(|a, b| (&a.domain, a.day).cmp(&(&b.domain, b.day)));
        tickets
            .iter()
            .map(|t| format!("{}:{}:{}", t.domain, t.day, t.stek_id))
            .collect::<Vec<_>>()
    };
    assert_eq!(run(), run(), "identical seeds → identical observations");
}

#[test]
fn blacklisted_domains_never_scanned() {
    let pop = world(105, 800, 3);
    let blacklisted: Vec<String> = pop
        .truth
        .iter()
        .filter(|t| t.blacklisted)
        .map(|t| t.name.clone())
        .collect();
    if blacklisted.is_empty() {
        return; // seed produced no blacklist entries at this size
    }
    let mut scanner = Scanner::new(&pop, "e2e-blacklist");
    let data = campaign(&mut scanner, 3, blacklisted);
    assert!(
        data.tickets.is_empty(),
        "no observations from blacklisted domains"
    );
    assert!(data.kex.is_empty());
}
