//! Figures 1 and 2 — session-ID and session-ticket resumption lifetimes.
//!
//! Probe methodology per §4.1/§4.2: resume at 1 s, then on a fixed step
//! until failure or the 24-hour horizon. The step is configurable (the
//! paper used 5 minutes; coarser steps trade resolution for speed and
//! leave every discrete spike intact because server lifetimes cluster at
//! 3 m / 5 m / 1 h / 10 h / 18 h / 24 h).
//!
//! The experiment probes all domains in **delay-lockstep**: every domain
//! is probed at delay d before any domain is probed at the next delay.
//! Shared STEK managers advance monotonically in virtual time, so letting
//! one domain's probe sequence race 18 hours ahead of a sibling's would
//! prune retired keys out from under it nondeterministically.

use crate::{Context, HOUR};
use ts_core::observations::{ResumptionMechanism, ResumptionProbe};
use ts_core::par::{default_workers, parallel_map};
use ts_core::report::{compare_line, fmt_duration, pct, TextTable};
use ts_core::stream::CountCdf;
use ts_population::Population;
use ts_scanner::probe::ProbeSchedule;
use ts_scanner::{GrabOptions, Scanner};
use ts_tls::server::ResumeKind;
use ts_tls::session::SessionState;

/// Results for one mechanism.
pub struct LifetimeFigure {
    /// All probes (supported or not).
    pub probes: Vec<ResumptionProbe>,
    /// CDF of max successful delays (resuming domains only), seconds.
    pub cdf: CountCdf,
    /// Fraction of probed domains that indicated support.
    pub support_fraction: f64,
    /// Fraction that resumed at 1 s.
    pub resumed_1s_fraction: f64,
    /// Rendered report.
    pub report: String,
}

struct ProbeState {
    domain: String,
    // The ID and (encrypted) ticket blob are cleartext wire artifacts;
    // only `state` below carries the master secret.
    // ctlint: public
    session_id: Vec<u8>,
    // ctlint: public
    ticket: Option<Vec<u8>>,
    state: SessionState,
    hint: Option<u32>,
    supported: bool,
    resumed_1s: bool,
    max_delay: Option<u64>,
    alive: bool,
}

/// Run the lockstep probe experiment for one mechanism.
fn lockstep_probes(
    pop: &Population,
    domains: &[String],
    mechanism: ResumptionMechanism,
    t0: u64,
    schedule: &ProbeSchedule,
    label: &str,
) -> Vec<ResumptionProbe> {
    // Step 0: establish sessions everywhere at t0.
    let established: Vec<Option<ProbeState>> =
        parallel_map(domains, default_workers(), |chunk_id, chunk| {
            let mut scanner = Scanner::new(pop, &format!("{label}-est-{chunk_id}"));
            chunk
                .iter()
                .map(|domain| {
                    let g = scanner.grab(domain, t0, &GrabOptions::new());
                    g.ok().map(|obs| {
                        let supported = match mechanism {
                            ResumptionMechanism::SessionId => !obs.session_id.is_empty(),
                            ResumptionMechanism::Ticket => obs.ticket.is_some(),
                        };
                        ProbeState {
                            domain: domain.clone(),
                            session_id: obs.session_id.clone(),
                            ticket: obs.ticket.as_ref().map(|n| n.ticket.clone()),
                            state: obs.session.clone(),
                            hint: obs.ticket.as_ref().map(|n| n.lifetime_hint),
                            supported,
                            resumed_1s: false,
                            max_delay: None,
                            alive: supported,
                        }
                    })
                })
                .collect()
        });
    let mut states: Vec<ProbeState> = established.into_iter().flatten().collect();

    // Probe every still-alive domain at each delay, in lockstep.
    for (step, delay) in schedule.delays().enumerate() {
        let alive_idx: Vec<usize> = states
            .iter()
            .enumerate()
            .filter(|(_, s)| s.alive)
            .map(|(i, _)| i)
            .collect();
        if alive_idx.is_empty() {
            break;
        }
        let results: Vec<(usize, bool)> =
            parallel_map(&alive_idx, default_workers(), |chunk_id, chunk| {
                let mut scanner = Scanner::new(pop, &format!("{label}-d{step}-{chunk_id}"));
                chunk
                    .iter()
                    .map(|&i| {
                        let s = &states[i];
                        let opts = match mechanism {
                            ResumptionMechanism::SessionId => GrabOptions::new()
                                .resume_session(s.session_id.clone(), s.state.clone()),
                            // Always the ORIGINAL ticket (§4.2).
                            ResumptionMechanism::Ticket => GrabOptions::new().resume_ticket(
                                s.ticket.clone().expect("alive implies ticket"),
                                s.state.clone(),
                            ),
                        };
                        let g = scanner.grab(&s.domain, t0 + delay, &opts);
                        let want = match mechanism {
                            ResumptionMechanism::SessionId => ResumeKind::SessionId,
                            ResumptionMechanism::Ticket => ResumeKind::Ticket,
                        };
                        let resumed = g.ok().map(|o| o.resumed == Some(want)).unwrap_or(false);
                        (i, resumed)
                    })
                    .collect()
            });
        for (i, resumed) in results {
            if resumed {
                if delay == schedule.first_delay() {
                    states[i].resumed_1s = true;
                }
                states[i].max_delay = Some(delay);
            } else {
                states[i].alive = false;
            }
        }
    }

    states
        .into_iter()
        .map(|s| ResumptionProbe {
            domain: s.domain,
            mechanism,
            supported: s.supported,
            resumed_at_1s: s.resumed_1s,
            max_delay: s.max_delay,
            lifetime_hint: match mechanism {
                ResumptionMechanism::Ticket => s.hint,
                ResumptionMechanism::SessionId => None,
            },
        })
        .collect()
}

fn render(
    title: &str,
    probes: &[ResumptionProbe],
    paper_rows: &[(&str, &str, u64)],
) -> LifetimeFigure {
    let total = probes.len().max(1);
    let supported = probes.iter().filter(|p| p.supported).count();
    let resumed = probes.iter().filter(|p| p.resumed_at_1s).count();
    let cdf = CountCdf::from_samples(probes.iter().filter_map(|p| p.max_delay));
    let mut report = String::new();
    report.push_str(title);
    report.push('\n');
    let mut t = TextTable::new(&["resumption honoured ≤", "CDF (of resuming domains)"]);
    for bp in [
        60u64,
        5 * 60,
        30 * 60,
        HOUR,
        4 * HOUR,
        10 * HOUR,
        18 * HOUR,
        24 * HOUR,
    ] {
        t.row(&[fmt_duration(bp), pct(cdf.fraction_le(bp))]);
    }
    report.push_str(&t.render());
    report.push('\n');
    for (metric, paper, bp) in paper_rows {
        report.push_str(&compare_line(metric, paper, &pct(cdf.fraction_le(*bp))));
        report.push('\n');
    }
    report.push_str(&compare_line(
        "support (of probed)",
        "97% IDs / 79% tickets",
        &pct(supported as f64 / total as f64),
    ));
    report.push('\n');
    report.push_str(&compare_line(
        "resumed at 1s (of probed)",
        "83% IDs / 76% tickets",
        &pct(resumed as f64 / total as f64),
    ));
    report.push('\n');
    LifetimeFigure {
        probes: probes.to_vec(),
        cdf,
        support_fraction: supported as f64 / total as f64,
        resumed_1s_fraction: resumed as f64 / total as f64,
        report,
    }
}

/// Figure 1: session-ID lifetimes over the trusted core.
pub fn fig1_session_id_lifetime(ctx: &Context, schedule: &ProbeSchedule) -> LifetimeFigure {
    let pop = ctx.fresh_pop();
    let t0 = 86_400; // day 1 of the pristine world (the paper: April 27)
    let probes = lockstep_probes(
        &pop,
        &ctx.core_trusted,
        ResumptionMechanism::SessionId,
        t0,
        schedule,
        "fig1",
    );
    render(
        "Figure 1 — Session ID Lifetime",
        &probes,
        &[
            ("honoured ≤5min", "61%", 5 * 60),
            ("honoured ≤1h", "82%", HOUR),
        ],
    )
}

/// Figure 2: ticket lifetimes (original ticket retained across reissues).
pub fn fig2_ticket_lifetime(ctx: &Context, schedule: &ProbeSchedule) -> LifetimeFigure {
    let pop = ctx.fresh_pop();
    let t0 = 86_400;
    let probes = lockstep_probes(
        &pop,
        &ctx.core_trusted,
        ResumptionMechanism::Ticket,
        t0,
        schedule,
        "fig2",
    );
    let mut fig = render(
        "Figure 2 — Session Ticket Lifetime",
        &probes,
        &[
            ("honoured ≤5min", "67%", 5 * 60),
            ("honoured ≤1h", "76%", HOUR),
        ],
    );
    // The advertised-hint series the figure overlays.
    let hint_cdf = CountCdf::from_samples(
        probes
            .iter()
            .filter_map(|p| p.lifetime_hint)
            .filter(|&h| h > 0)
            .map(|h| h as u64),
    );
    let unspecified = probes.iter().filter(|p| p.lifetime_hint == Some(0)).count();
    fig.report.push_str(&format!(
        "advertised hint: median {}, unspecified hints: {} domains (paper: 14,663 unspecified; \
         two domains hinted 90 days)\n",
        hint_cdf
            .median()
            .map(fmt_duration)
            .unwrap_or_else(|| "-".into()),
        unspecified,
    ));
    fig
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx() -> Context {
        let mut cfg = ts_population::PopulationConfig::new(13, 220);
        cfg.flakiness = 0.0;
        Context::from_config(cfg)
    }

    #[test]
    fn fig1_shape() {
        let ctx = ctx();
        // Coarse schedule keeps the test fast; spikes at 5m and 10h remain.
        let fig = fig1_session_id_lifetime(&ctx, &ProbeSchedule::coarse(30 * 60, 24 * HOUR));
        assert!(
            fig.support_fraction > 0.9,
            "support {}",
            fig.support_fraction
        );
        assert!(
            fig.resumed_1s_fraction > 0.6,
            "resumed {}",
            fig.resumed_1s_fraction
        );
        // The bulk of resuming domains honour ≤1h (Fig 1's left mass);
        // with a 30-minute step the 5-minute spike lands in the first bin.
        assert!(fig.cdf.fraction_le(HOUR) > 0.6);
        // A visible 10h (IIS) step: some domains survive past 4h.
        assert!(fig.cdf.fraction_ge(4 * HOUR) > 0.02);
        assert!(fig.report.contains("Figure 1"));
    }

    #[test]
    fn fig2_shape() {
        let ctx = ctx();
        let fig = fig2_ticket_lifetime(&ctx, &ProbeSchedule::coarse(30 * 60, 24 * HOUR));
        assert!(fig.support_fraction > 0.5);
        assert!(fig.cdf.fraction_le(HOUR) > 0.5, "left mass");
        assert!(fig.report.contains("advertised hint"));
        // The 18h cirrusflare step: mass between 10h and 19h.
        let step = fig.cdf.fraction_le(19 * HOUR) - fig.cdf.fraction_le(10 * HOUR);
        assert!(step > 0.0, "18h step visible");
    }

    #[test]
    fn lockstep_matches_sequential_probe() {
        // The lockstep driver must agree with the single-domain sequential
        // prober on an isolated world.
        let ctx = ctx();
        let schedule = ProbeSchedule::coarse(2 * HOUR, 12 * HOUR);
        let fig = fig1_session_id_lifetime(&ctx, &schedule);
        let lock: std::collections::HashMap<&str, Option<u64>> = fig
            .probes
            .iter()
            .map(|p| (p.domain.as_str(), p.max_delay))
            .collect();
        let pop = ctx.fresh_pop();
        let mut scanner = Scanner::new(&pop, "seq-check");
        for domain in ctx.core_trusted.iter().take(12) {
            let seq = ts_scanner::probe::probe_session_id(&mut scanner, domain, 86_400, &schedule);
            assert_eq!(
                lock.get(domain.as_str()).copied().flatten(),
                seq.max_delay,
                "{domain}"
            );
        }
    }
}
