//! §7.2 — the nation-state target analysis, plus the §6.1 end-to-end
//! decryption demonstration on live captures.

use crate::Context;
use ts_attacker::passive::CapturedConnection;
use ts_attacker::stek::{bulk_decrypt, decrypt_with_stolen_steks};
use ts_attacker::target::analyze_goggle;
use ts_core::report::{compare_line, TextTable};
use ts_crypto::drbg::HmacDrbg;
use ts_scanner::Scanner;
use ts_tls::config::ClientConfig;
use ts_tls::pump::pump_app_data;
use ts_tls::{ClientConn, ServerConn};

/// Run the Google-analogue target analysis.
pub fn google_target_analysis(ctx: &Context) -> String {
    // The STEK service group for goggle, from ground truth membership
    // (the live scan version is exp_sharing::table6).
    let members: Vec<String> = {
        let mut v: Vec<String> = ctx
            .truth
            .iter()
            .filter(|t| t.operator.as_deref() == Some("goggle"))
            .map(|t| t.name.clone())
            .collect();
        v.sort();
        v
    };
    let group = ts_core::groups::ServiceGroup {
        label: "goggle".into(),
        members,
    };
    let analysis = analyze_goggle(&ctx.truth, &group, ctx.goggle_mx_domains);
    let mut report = String::new();
    report.push_str("§7.2 — Target Analysis: the Google analogue\n");
    let mut t = TextTable::new(&["metric", "value"]);
    t.row(&[
        "rotation period".into(),
        ts_core::report::fmt_duration(analysis.rotation_period),
    ]);
    t.row(&[
        "acceptance window (rotation + overlap)".into(),
        ts_core::report::fmt_duration(analysis.rotation_period + analysis.acceptance_window),
    ]);
    t.row(&[
        "keys to steal per day".into(),
        format!("{:.2}", analysis.keys_per_day),
    ]);
    t.row(&[
        "web domains behind one STEK".into(),
        analysis.stek_domains.to_string(),
    ]);
    t.row(&[
        "hosted-mail domains (MX census)".into(),
        analysis.mx_domains.to_string(),
    ]);
    report.push_str(&t.render());
    report.push('\n');
    let per_28h = analysis.keys_per_day * 28.0 / 24.0;
    report.push_str(&compare_line(
        "keys per 28 hours",
        "2 (two 16-byte keys)",
        &format!("{per_28h:.2}"),
    ));
    report.push('\n');
    let mx_rate = analysis.mx_domains as f64 / ctx.churn.unique_domains() as f64;
    report.push_str(&compare_line(
        "domains with provider MX",
        "9.1%",
        &ts_core::report::pct(mx_rate),
    ));
    report.push('\n');
    report.push_str(&analysis.summary());
    report.push('\n');
    report
}

/// The §6.1 demonstration: capture "forward-secret" connections to a
/// never-rotating operator, steal its one STEK, decrypt everything.
/// Returns the report; panics only on simulation bugs.
pub fn stek_theft_demo(ctx: &Context) -> String {
    // A pristine world: the demo owns its timeline (capture days 0-7,
    // compromise at day 30).
    let pop = ctx.fresh_pop();
    // Victim: the Fastly analogue (static STEK across the whole study).
    let victim = pop
        .truth
        .iter()
        .find(|t| t.operator.as_deref() == Some("fastlane"))
        .expect("fastlane domains exist")
        .name
        .clone();
    let ip = {
        let mut rng = HmacDrbg::from_seed_label(pop.config.seed, "demo-dns");
        pop.dns.resolve(&victim, &mut rng).expect("resolves")
    };

    // Passively record a week of connections (one per day).
    let mut captures = Vec::new();
    let mut rng = HmacDrbg::from_seed_label(pop.config.seed, "demo-traffic");
    for day in 0..7u64 {
        let now = day * 86_400 + 9 * 3_600;
        let cfg = ClientConfig::new(pop.root_store.clone(), &victim, now);
        let conn = match pop.net.connect(ip, cfg, now, &mut rng) {
            Ok(c) => c,
            Err(_) => continue, // flaky day
        };
        let mut client: ClientConn = conn.client;
        let mut server: ServerConn = conn.server;
        let mut capture = conn.capture;
        client
            .send_app_data(format!("GET /secrets?day={day}").as_bytes())
            .expect("established");
        pump_app_data(&mut client, &mut server, &mut capture).expect("data");
        server
            .send_app_data(format!("top secret payload {day}").as_bytes())
            .expect("established");
        pump_app_data(&mut client, &mut server, &mut capture).expect("data");
        captures.push(CapturedConnection::parse(&capture).expect("parse"));
    }

    // Day 30: compromise the terminator once; steal the STEK.
    let scanner = Scanner::new(&pop, "demo-locate");
    let _ = scanner; // (a real attacker would locate the pod by STEK id)
    let pod = pop
        .terminators
        .iter()
        .find(|t| t.domains().contains(&victim))
        .expect("victim pod");
    let stolen = pod.stek.as_ref().expect("tickets enabled").steal_keys();

    let recovered = bulk_decrypt(&captures, &stolen);
    let mut report = String::new();
    report.push_str("§6.1 — STEK Theft Demonstration (Fastly analogue, static STEK)\n");
    report.push_str(&format!(
        "captured connections: {}  stolen keys: {}  decrypted: {}\n",
        captures.len(),
        stolen.len(),
        recovered.len(),
    ));
    for (i, r) in recovered.iter().take(3) {
        report.push_str(&format!(
            "  conn {}: client sent {:?}, server sent {:?}\n",
            i,
            String::from_utf8_lossy(&r.client_to_server),
            String::from_utf8_lossy(&r.server_to_client),
        ));
    }
    report.push_str(&compare_line(
        "week-old PFS traffic decrypted with one 16-byte key",
        "yes (§6.1)",
        if recovered.len() == captures.len() {
            "yes — all of it"
        } else {
            "partially"
        },
    ));
    report.push('\n');

    // Contrast: a daily-rotating operator's old traffic survives.
    let rotator = pop
        .truth
        .iter()
        .find(|t| t.operator.as_deref() == Some("cirrusflare"))
        .expect("cdn domains")
        .name
        .clone();
    let rot_ip = {
        let mut rng = HmacDrbg::from_seed_label(pop.config.seed, "demo-dns2");
        pop.dns.resolve(&rotator, &mut rng).expect("resolves")
    };
    let mut rot_capture = None;
    for attempt in 0..5 {
        let now = 9 * 3_600 + attempt;
        let cfg = ClientConfig::new(pop.root_store.clone(), &rotator, now);
        if let Ok(conn) = pop.net.connect(rot_ip, cfg, now, &mut rng) {
            rot_capture = Some(CapturedConnection::parse(&conn.capture).expect("parse"));
            break;
        }
    }
    if let Some(cap) = rot_capture {
        // Compromise 30 days later: the issuing key is long gone.
        let rot_pod = pop
            .terminators
            .iter()
            .find(|t| t.domains().contains(&rotator))
            .expect("pod");
        rot_pod
            .stek
            .as_ref()
            .expect("tickets")
            .active_key_name_at(30 * 86_400); // advance rotation to day 30
        let stolen_late = rot_pod.stek.as_ref().expect("tickets").steal_keys();
        let outcome = decrypt_with_stolen_steks(&cap, &stolen_late);
        report.push_str(&compare_line(
            "daily-rotating CDN, key stolen 30 days later",
            "traffic safe",
            if outcome.is_err() {
                "traffic safe — no key matches"
            } else {
                "DECRYPTED (bug!)"
            },
        ));
        report.push('\n');
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx() -> Context {
        let mut cfg = ts_population::PopulationConfig::new(29, 900);
        cfg.flakiness = 0.002;
        Context::from_config(cfg)
    }

    #[test]
    fn google_analysis_report() {
        let ctx = ctx();
        let report = google_target_analysis(&ctx);
        assert!(report.contains("keys per 28 hours"));
        // 14h rotation → 2 keys per 28h.
        assert!(report.contains("2.00"), "{report}");
        assert!(report.contains("MX"));
    }

    #[test]
    fn stek_theft_demo_decrypts_and_contrast_holds() {
        let ctx = ctx();
        let report = stek_theft_demo(&ctx);
        assert!(report.contains("yes — all of it"), "{report}");
        assert!(report.contains("traffic safe — no key matches"), "{report}");
    }
}
