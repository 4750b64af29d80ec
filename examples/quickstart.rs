//! Quickstart: build a small simulated Internet, handshake with a site,
//! resume by session ID and by ticket, and read off everything the study
//! measures from a single connection.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use tls_shortcuts::population::{Population, PopulationConfig};
use tls_shortcuts::scanner::{GrabOptions, Scanner};
use tls_shortcuts::tls::server::ResumeKind;

fn main() {
    // A deterministic 1,000-domain "Top Million": same seed, same world.
    println!("building a 1,000-domain simulated HTTPS ecosystem...");
    let pop = Population::build(PopulationConfig::new(42, 1_000));
    println!(
        "  {} domains in the daily list, {} browser-trusted in the stable core,\n  \
         {} SSL terminators\n",
        pop.churn.core().len(),
        pop.core_trusted().len(),
        pop.terminators.len(),
    );

    let mut scanner = Scanner::new(&pop, "quickstart");

    // --- A full handshake, observed like the paper's modified zgrab. ---
    let domain = "yahoo.sim"; // the Table 2 headliner: 63 days on one STEK
    let grab = scanner.grab(domain, 10_000, &GrabOptions::new());
    let obs = grab.ok().expect("handshake succeeds").clone();
    println!("full handshake with {domain}:");
    println!(
        "  cipher suite : {:?} (forward secret: {})",
        obs.cipher_suite,
        obs.cipher_suite.is_forward_secret()
    );
    println!("  trusted chain: {}", obs.trusted);
    println!("  session ID   : {} bytes", obs.session_id.len());
    let nst = obs.ticket.clone().expect("server issues tickets");
    println!(
        "  ticket       : {} bytes, lifetime hint {}s",
        nst.ticket.len(),
        nst.lifetime_hint
    );
    println!(
        "  STEK id      : {}",
        obs.stek_id.clone().expect("parseable")
    );
    println!(
        "  server KEX   : {}...\n",
        &obs.kex_value_fp.clone().expect("PFS exchange")[..16]
    );

    // --- Session-ID resumption one second later. ---
    let opts = GrabOptions::new().resume_session(obs.session_id.clone(), obs.session.clone());
    let g2 = scanner.grab(domain, 10_001, &opts);
    let obs2 = g2.ok().expect("resumption works");
    println!(
        "1s later, offering the session ID: resumed = {:?}",
        obs2.resumed == Some(ResumeKind::SessionId)
    );

    // --- Ticket resumption ten minutes later. ---
    let opts = GrabOptions::new().resume_ticket(nst.ticket.clone(), obs.session.clone());
    let g3 = scanner.grab(domain, 10_600, &opts);
    let obs3 = g3.ok().expect("connects");
    println!(
        "10min later, offering the original ticket: resumed = {:?}",
        obs3.resumed == Some(ResumeKind::Ticket)
    );

    // --- The measurement that matters: the STEK never changes. ---
    let day = 86_400;
    let mut ids = Vec::new();
    for d in [0u64, 7, 30, 62] {
        let g = scanner.grab(domain, d * day + 3_600, &GrabOptions::new());
        if let Some(o) = g.ok() {
            ids.push((d, o.stek_id.clone().unwrap()));
        }
    }
    println!("\nSTEK identifier across the 9-week study:");
    for (d, id) in &ids {
        println!("  day {d:>2}: {}", &id[..24]);
    }
    let all_same = ids.windows(2).all(|w| w[0].1 == w[1].1);
    println!(
        "  → identical on every probe: {all_same} — every \"forward secret\" connection \
         in between\n    falls to one stolen 16-byte key (paper §6.1)."
    );
}
