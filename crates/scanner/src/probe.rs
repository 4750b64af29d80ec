//! Resumption-lifetime probing (Figures 1 and 2).
//!
//! Methodology from §4.1/§4.2: establish a session, attempt resumption one
//! second later, then every five minutes until the site fails to resume or
//! 24 hours elapse. For ticket probes, the *original* ticket is retained
//! even when the server reissues during resumptions.

use crate::grab::{GrabOptions, Scanner};
use ts_core::observations::{ResumptionMechanism, ResumptionProbe};
use ts_telemetry::{Counter, Histogram};
use ts_tls::server::ResumeKind;

static PROBE_SESSION_ID: Counter = Counter::new("scanner.probe.session_id");
static PROBE_TICKET: Counter = Counter::new("scanner.probe.ticket");
static PROBE_MAX_DELAY: Histogram = Histogram::new(
    "scanner.probe.max_delay_secs",
    &[1, 300, 3_600, 21_600, 86_400],
);

/// The first resumption attempt, one second after the handshake.
const FIRST_DELAY: u64 = 1;

/// Probe schedule. The paper's: 1 s, then every 300 s to 86,400 s.
///
/// Construct with [`ProbeSchedule::new`] (paper defaults) or
/// [`ProbeSchedule::coarse`]; the first attempt is always at 1 s:
///
/// ```
/// use ts_scanner::ProbeSchedule;
/// let fast = ProbeSchedule::coarse(600, 3_600);
/// ```
#[derive(Debug, Clone, Copy)]
#[non_exhaustive]
pub struct ProbeSchedule {
    pub(crate) step: u64,
    pub(crate) horizon: u64,
}

impl Default for ProbeSchedule {
    fn default() -> Self {
        Self::new()
    }
}

impl ProbeSchedule {
    /// The paper's schedule: 1 s, then every 300 s up to 86,400 s.
    pub fn new() -> Self {
        Self::coarse(300, 86_400)
    }

    /// 1 s, then every `step` seconds up to `horizon`: a coarse schedule
    /// for tests and fast runs.
    pub fn coarse(step: u64, horizon: u64) -> Self {
        ProbeSchedule { step, horizon }
    }

    /// The first retry offset (the `resumed_at_1s` delay).
    pub fn first_delay(&self) -> u64 {
        FIRST_DELAY
    }

    /// The delays probed, in order.
    pub fn delays(&self) -> impl Iterator<Item = u64> + '_ {
        let step = self.step;
        let horizon = self.horizon;
        std::iter::once(FIRST_DELAY).chain(
            (1..)
                .map(move |k| k * step)
                .take_while(move |&d| d <= horizon),
        )
    }
}

/// Probe how long `domain` honours session-ID resumption starting at `t0`.
pub fn probe_session_id(
    scanner: &mut Scanner,
    domain: &str,
    t0: u64,
    schedule: &ProbeSchedule,
) -> ResumptionProbe {
    PROBE_SESSION_ID.inc();
    let initial = scanner.grab(domain, t0, &GrabOptions::new());
    let obs = match initial.ok() {
        Some(o) => o.clone(),
        None => {
            return ResumptionProbe {
                domain: domain.into(),
                mechanism: ResumptionMechanism::SessionId,
                supported: false,
                resumed_at_1s: false,
                max_delay: None,
                lifetime_hint: None,
            }
        }
    };
    let supported = !obs.session_id.is_empty();
    let mut max_delay = None;
    let mut resumed_at_1s = false;
    if supported {
        for delay in schedule.delays() {
            let opts =
                GrabOptions::new().resume_session(obs.session_id.clone(), obs.session.clone());
            let g = scanner.grab(domain, t0 + delay, &opts);
            let resumed = g
                .ok()
                .map(|o| o.resumed == Some(ResumeKind::SessionId))
                .unwrap_or(false);
            if resumed {
                if delay == FIRST_DELAY {
                    resumed_at_1s = true;
                }
                max_delay = Some(delay);
            } else {
                break;
            }
        }
    }
    if let Some(d) = max_delay {
        PROBE_MAX_DELAY.observe(d);
    }
    ResumptionProbe {
        domain: domain.into(),
        mechanism: ResumptionMechanism::SessionId,
        supported,
        resumed_at_1s,
        max_delay,
        lifetime_hint: None,
    }
}

/// Probe how long `domain` honours the *original* session ticket.
pub fn probe_ticket(
    scanner: &mut Scanner,
    domain: &str,
    t0: u64,
    schedule: &ProbeSchedule,
) -> ResumptionProbe {
    PROBE_TICKET.inc();
    let initial = scanner.grab(domain, t0, &GrabOptions::new());
    let obs = match initial.ok() {
        Some(o) => o.clone(),
        None => {
            return ResumptionProbe {
                domain: domain.into(),
                mechanism: ResumptionMechanism::Ticket,
                supported: false,
                resumed_at_1s: false,
                max_delay: None,
                lifetime_hint: None,
            }
        }
    };
    let original_ticket = match obs.ticket.clone() {
        Some(nst) => nst,
        None => {
            return ResumptionProbe {
                domain: domain.into(),
                mechanism: ResumptionMechanism::Ticket,
                supported: false,
                resumed_at_1s: false,
                max_delay: None,
                lifetime_hint: None,
            }
        }
    };
    let mut max_delay = None;
    let mut resumed_at_1s = false;
    for delay in schedule.delays() {
        // Always the ORIGINAL ticket, ignoring reissues (§4.2).
        let opts =
            GrabOptions::new().resume_ticket(original_ticket.ticket.clone(), obs.session.clone());
        let g = scanner.grab(domain, t0 + delay, &opts);
        let resumed = g
            .ok()
            .map(|o| o.resumed == Some(ResumeKind::Ticket))
            .unwrap_or(false);
        if resumed {
            if delay == FIRST_DELAY {
                resumed_at_1s = true;
            }
            max_delay = Some(delay);
        } else {
            break;
        }
    }
    if let Some(d) = max_delay {
        PROBE_MAX_DELAY.observe(d);
    }
    ResumptionProbe {
        domain: domain.into(),
        mechanism: ResumptionMechanism::Ticket,
        supported: true,
        resumed_at_1s,
        max_delay,
        lifetime_hint: Some(original_ticket.lifetime_hint),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::OnceLock;
    use ts_population::{Population, PopulationConfig};

    fn pop() -> &'static Population {
        static POP: OnceLock<Population> = OnceLock::new();
        POP.get_or_init(|| {
            let mut cfg = PopulationConfig::new(23, 400);
            cfg.flakiness = 0.0; // probes measure policy, not packet luck
            Population::build(cfg)
        })
    }

    #[test]
    fn schedule_delays() {
        let s = ProbeSchedule::default();
        let d: Vec<u64> = s.delays().take(4).collect();
        assert_eq!(d, vec![1, 300, 600, 900]);
        let all: Vec<u64> = ProbeSchedule::coarse(600, 1800).delays().collect();
        assert_eq!(all, vec![1, 600, 1200, 1800]);
    }

    #[test]
    fn session_probe_finds_five_minute_lifetime() {
        let p = pop();
        // Notables have a 5-minute session cache.
        let mut s = Scanner::new(p, "probe-sid");
        let probe = probe_session_id(
            &mut s,
            "yahoo.sim",
            10_000,
            &ProbeSchedule::coarse(150, 1_200),
        );
        assert!(probe.supported);
        assert!(probe.resumed_at_1s);
        // Lifetime 300 s: the 150 s and 300 s probes pass, 450 fails.
        assert_eq!(probe.max_delay, Some(300));
    }

    #[test]
    fn ticket_probe_respects_accept_window() {
        let p = pop();
        // Notables: ticket hint 1h, accept 1h.
        let mut s = Scanner::new(p, "probe-ticket");
        let probe = probe_ticket(
            &mut s,
            "netflix.sim",
            10_000,
            &ProbeSchedule::coarse(1_200, 7_200),
        );
        assert!(probe.supported);
        assert!(probe.resumed_at_1s);
        assert_eq!(probe.lifetime_hint, Some(3_600));
        assert_eq!(probe.max_delay, Some(3_600), "1h accept window");
    }

    #[test]
    fn non_https_domain_unsupported() {
        let p = pop();
        let dead = p
            .truth
            .iter()
            .find(|t| !t.https && t.stable && !t.blacklisted)
            .expect("non-https domain");
        let mut s = Scanner::new(p, "probe-dead");
        let probe = probe_session_id(&mut s, &dead.name, 10_000, &ProbeSchedule::coarse(300, 600));
        assert!(!probe.supported);
        assert_eq!(probe.max_delay, None);
    }

    #[test]
    fn cirrusflare_honours_18h_tickets() {
        let p = pop();
        let cdn = p
            .truth
            .iter()
            .find(|t| t.operator.as_deref() == Some("cirrusflare"))
            .expect("cdn domain");
        let mut s = Scanner::new(p, "probe-18h");
        // Coarse 6h steps: 1s, 6h, 12h, 18h pass; 24h fails.
        let probe = probe_ticket(
            &mut s,
            &cdn.name,
            50_000,
            &ProbeSchedule::coarse(6 * 3_600, 24 * 3_600),
        );
        assert!(probe.resumed_at_1s);
        assert_eq!(probe.max_delay, Some(18 * 3_600), "18-hour step (Fig. 2)");
    }
}
