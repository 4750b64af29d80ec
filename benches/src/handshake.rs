//! `handshake_full` and `resume_bulk`: [`WORKERS`] closed-loop clients,
//! each running both sans-I/O endpoints in-process (no sockets), against
//! a `ts_loadgen` fleet of [`TARGETS`] servers that share one session
//! cache and one STEK manager.
//!
//! The request schedule follows `repro loadgen`: request `i` of client `c`
//! goes to target `(c + i) % TARGETS`, its kind is positional (`i % 100`
//! against the mix), and a resumption slot offers what the client stashed
//! from its last full handshake with that target. The benchmark owns the
//! loop instead of calling `ts_loadgen::run` so every request is timed
//! exactly and checked: it must establish, resume exactly as its slot
//! says, agree on the master secret, and echo its payload intact.

use crate::trace::{Lane, Layer, StepTimer, StepTotals, Tracer};
use crate::{Measured, Traced, WORKERS};
use std::time::Instant;
use ts_crypto::ct::ct_eq;
use ts_crypto::drbg::HmacDrbg;
use ts_loadgen::{build_fleet, target_sni, Fleet, LoadgenConfig, Mix};
use ts_tls::client::HandshakeSummary;
use ts_tls::config::{ClientConfig, ServerConfig};
use ts_tls::pump::{pump, pump_app_data};
use ts_tls::server::ResumeKind;
use ts_tls::session::SessionState;
use ts_tls::suites::{CipherSuite, KeyExchange};
use ts_tls::{ClientConn, ConnectionCommon, ServerConn, TlsError};

/// Servers in the fleet.
pub const TARGETS: usize = 4;
/// Application bytes each echo sends each way.
pub const ECHO_BYTES: usize = 16 * 1024;
/// Virtual time every connection runs at (nothing expires or rotates).
const NOW: u64 = 100;
/// Iterations a run makes at least, so `setup_s` is a median of several.
const MIN_ITERATIONS: u64 = 5;
/// Fleet cache sizing: room for every session an iteration can insert,
/// so eviction order never depends on thread interleaving.
const CACHE_HEADROOM_REQUESTS: usize = 1_000_000;
/// Full-handshake suites `handshake_full` rotates through by position:
/// the paper's three key-exchange families.
const ROTATION: [CipherSuite; 3] = [
    CipherSuite::EcdheRsaAes128GcmSha256,
    CipherSuite::DheRsaAes128GcmSha256,
    CipherSuite::RsaAes128GcmSha256,
];

/// A handshake workload's request mix.
#[derive(Debug, Clone, Copy)]
pub struct Profile {
    /// Positional full / session-ID / ticket percentages.
    pub mix: Mix,
    /// Offer only `ROTATION[i % 3]` instead of the default suite list.
    pub rotate_suites: bool,
    /// Requests per hundred that also echo [`ECHO_BYTES`] each way.
    pub echo_pct: usize,
    /// Hundreds of requests per client in one iteration (about a second).
    centuries: usize,
}

/// Full handshakes only: public-key crypto, x509 and the state machine.
pub const HANDSHAKE_FULL: Profile = Profile {
    mix: Mix {
        full_pct: 100,
        session_id_pct: 0,
        ticket_pct: 0,
    },
    rotate_suites: true,
    echo_pct: 0,
    centuries: 40,
};

/// `repro loadgen`'s resumption-heavy mix plus record-layer echoes.
pub const RESUME_BULK: Profile = Profile {
    mix: Mix::RESUMPTION_HEAVY,
    rotate_suites: false,
    echo_pct: 20,
    centuries: 120,
};

impl Profile {
    /// The constants that size this workload, for the run manifest.
    pub fn constants(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("clients", WORKERS as u64),
            ("targets", TARGETS as u64),
            ("full_pct", u64::from(self.mix.full_pct)),
            ("session_id_pct", u64::from(self.mix.session_id_pct)),
            ("ticket_pct", u64::from(self.mix.ticket_pct)),
            ("suite_rotation", u64::from(self.rotate_suites)),
            ("echo_pct", self.echo_pct as u64),
            ("echo_bytes", ECHO_BYTES as u64),
            (
                "requests_per_iteration",
                (WORKERS * self.centuries * 100) as u64,
            ),
        ]
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Full,
    SessionId,
    Ticket,
}

/// Span names of each handshake step, per kind, in flight order. An
/// abbreviated handshake has no `client_finish`: the server's flight
/// already carries its Finished.
const FULL_RSA: &[&str] = &[
    "tls.full_rsa.client_hello",
    "tls.full_rsa.server_flight",
    "tls.full_rsa.client_flight",
    "tls.full_rsa.server_finish",
    "tls.full_rsa.client_finish",
];
const FULL_DHE: &[&str] = &[
    "tls.full_dhe.client_hello",
    "tls.full_dhe.server_flight",
    "tls.full_dhe.client_flight",
    "tls.full_dhe.server_finish",
    "tls.full_dhe.client_finish",
];
const FULL_ECDHE: &[&str] = &[
    "tls.full_ecdhe.client_hello",
    "tls.full_ecdhe.server_flight",
    "tls.full_ecdhe.client_flight",
    "tls.full_ecdhe.server_finish",
    "tls.full_ecdhe.client_finish",
];
const RESUMED_SID: &[&str] = &[
    "tls.resumed_sid.client_hello",
    "tls.resumed_sid.server_flight",
    "tls.resumed_sid.client_flight",
    "tls.resumed_sid.server_finish",
];
const RESUMED_TICKET: &[&str] = &[
    "tls.resumed_ticket.client_hello",
    "tls.resumed_ticket.server_flight",
    "tls.resumed_ticket.client_flight",
    "tls.resumed_ticket.server_finish",
];

/// Every step name, for the per-layer metric list.
pub const STEP_NAMES: [&[&str]; 5] = [FULL_RSA, FULL_DHE, FULL_ECDHE, RESUMED_SID, RESUMED_TICKET];

/// The servers prefer the client's first offered suite, so its key
/// exchange names a full handshake's steps before the ServerHello.
fn steps_for(kind: Kind, first_offered: CipherSuite) -> &'static [&'static str] {
    match (kind, first_offered.key_exchange()) {
        (Kind::SessionId, _) => RESUMED_SID,
        (Kind::Ticket, _) => RESUMED_TICKET,
        (Kind::Full, KeyExchange::Rsa) => FULL_RSA,
        (Kind::Full, KeyExchange::Dhe) => FULL_DHE,
        (Kind::Full, KeyExchange::Ecdhe) => FULL_ECDHE,
    }
}

/// What a client keeps from its last full handshake with a target.
#[derive(Default, Clone)]
struct Stash {
    session: Option<(Vec<u8>, SessionState)>,
    ticket: Option<(Vec<u8>, SessionState)>,
}

impl Stash {
    fn remember(&mut self, summary: &HandshakeSummary) {
        if summary.resumed.is_some() {
            return;
        }
        if !summary.server_session_id.is_empty() {
            self.session = Some((summary.server_session_id.clone(), summary.session.clone()));
        }
        if let Some(nst) = &summary.new_ticket {
            self.ticket = Some((nst.ticket.clone(), summary.session.clone()));
        }
    }
}

fn fleet_config(seed: u64) -> LoadgenConfig {
    LoadgenConfig {
        workers: WORKERS,
        targets: TARGETS,
        requests_per_worker: CACHE_HEADROOM_REQUESTS,
        seed,
        ..LoadgenConfig::default()
    }
}

/// The fleet every handshake workload runs against.
pub fn fleet(seed: u64) -> Fleet {
    build_fleet(&fleet_config(seed))
}

/// The client's and the server's DRBG for the connection `label`.
fn rngs(label: &str) -> (HmacDrbg, HmacDrbg) {
    (
        HmacDrbg::new(format!("{label}-client").as_bytes()),
        HmacDrbg::new(format!("{label}-server").as_bytes()),
    )
}

/// One scheduled request.
struct Request {
    /// Client in the high half, request index in the low half.
    id: u64,
    target: usize,
    kind: Kind,
    config: ClientConfig,
    echo: bool,
    rng_label: String,
}

fn plan(
    fleet: &Fleet,
    profile: Profile,
    seed: u64,
    client: usize,
    i: usize,
    stash: &[Stash],
) -> Request {
    let target = (client + i) % TARGETS;
    let slot = (i % 100) as u8;
    let mix = profile.mix;
    let mut config = ClientConfig::new(fleet.store.clone(), &target_sni(target), NOW);
    if profile.rotate_suites {
        config.suites = vec![ROTATION[i % ROTATION.len()]];
    }
    // A resumption slot with nothing stashed yet falls back to a full
    // handshake, as in `repro loadgen`.
    let kind = if slot < mix.full_pct {
        Kind::Full
    } else if slot < mix.full_pct + mix.session_id_pct {
        config.resumption.session = stash[target].session.clone();
        if config.resumption.session.is_some() {
            Kind::SessionId
        } else {
            Kind::Full
        }
    } else {
        config.resumption.ticket = stash[target].ticket.clone();
        if config.resumption.ticket.is_some() {
            Kind::Ticket
        } else {
            Kind::Full
        }
    };
    Request {
        id: ((client as u64) << 32) | i as u64,
        target,
        kind,
        config,
        echo: (i % 100) < profile.echo_pct,
        rng_label: format!("bench-{seed}-c{client}-r{i}"),
    }
}

/// The semantic checks every request passes; returns the client's view.
fn verify(
    client: &ClientConn,
    server: &ServerConn,
    expected: Kind,
) -> Result<HandshakeSummary, &'static str> {
    if !client.is_established() || !server.is_established() {
        return Err("connection never established");
    }
    let summary = client.summary().map_err(|_| "no handshake summary")?;
    let kind = match summary.resumed {
        None => Kind::Full,
        Some(ResumeKind::SessionId) => Kind::SessionId,
        Some(ResumeKind::Ticket) => Kind::Ticket,
    };
    if kind != expected {
        return Err("resume kind differs from the slot's kind");
    }
    match (client.master_secret(), server.master_secret()) {
        (Some(c), Some(s)) if ct_eq(&c, &s) => Ok(summary),
        _ => Err("client and server master secrets differ"),
    }
}

/// A payload pattern that differs per request, so a stuck sequence number
/// or IV would fail the echo check.
fn fill_payload(payload: &mut [u8], id: u64) {
    for (b, byte) in payload.iter_mut().enumerate() {
        *byte = (b as u8).wrapping_add(id as u8);
    }
}

/// Run one request through `pump`; returns its latency in ns.
fn execute(
    fleet: &Fleet,
    req: Request,
    stash: &mut Stash,
    payload: &mut [u8],
) -> Result<u64, &'static str> {
    let (client_rng, server_rng) = rngs(&req.rng_label);
    let server_config = fleet.configs[req.target].clone();
    let t = Instant::now();
    let mut client = ClientConn::new(req.config, client_rng);
    let mut server = ServerConn::new(server_config, server_rng, NOW);
    let mut capture = pump(&mut client, &mut server)
        .map_err(|_| "TLS error")?
        .capture;
    let mut latency = t.elapsed();
    stash.remember(&verify(&client, &server, req.kind)?);
    if req.echo {
        fill_payload(payload, req.id);
        let t = Instant::now();
        client.send_app_data(payload).map_err(|_| "echo send")?;
        pump_app_data(&mut client, &mut server, &mut capture).map_err(|_| "echo TLS error")?;
        if !ct_eq(&server.recv_app_data(), payload) {
            return Err("echo upstream mismatch");
        }
        server.send_app_data(payload).map_err(|_| "echo send")?;
        pump_app_data(&mut client, &mut server, &mut capture).map_err(|_| "echo TLS error")?;
        if !ct_eq(&client.recv_app_data(), payload) {
            return Err("echo downstream mismatch");
        }
        latency += t.elapsed();
    }
    Ok(latency.as_nanos() as u64)
}

/// Run one request flight by flight with a span per step.
fn execute_traced(
    fleet: &Fleet,
    req: Request,
    stash: &mut Stash,
    payload: &mut [u8],
    lane: &mut Lane<'_>,
) -> Result<(), &'static str> {
    let id = req.id;
    let (client_rng, server_rng) =
        lane.step("crypto.drbg", Layer::Crypto, id, || rngs(&req.rng_label));
    let steps = steps_for(req.kind, req.config.suites[0]);
    let server_config = fleet.configs[req.target].clone();
    let (mut client, mut server) = stepped(
        lane,
        steps,
        id,
        req.config,
        client_rng,
        server_config,
        server_rng,
    )?;
    let summary = lane.step("tls.summary", Layer::Tls, id, || {
        verify(&client, &server, req.kind)
    })?;
    stash.remember(&summary);
    if req.echo {
        fill_payload(payload, id);
        echo_stepped(lane, id, &mut client, &mut server, payload)?;
    }
    Ok(())
}

/// Drain `conn`'s queued TLS bytes.
fn drain(conn: &mut ConnectionCommon) -> Vec<u8> {
    let mut buf = Vec::new();
    while conn.wants_write() {
        conn.write_tls(&mut buf)
            .expect("writing to a Vec cannot fail");
    }
    buf
}

/// Feed `bytes` to `conn`.
fn deliver(conn: &mut ConnectionCommon, bytes: &[u8]) {
    let mut rd = bytes;
    while !rd.is_empty() {
        conn.read_tls(&mut rd).expect("reading a slice cannot fail");
    }
}

fn to_server(client: &mut ClientConn, server: &mut ServerConn) -> Result<(), TlsError> {
    let bytes = drain(client);
    deliver(server, &bytes);
    server.process_new_packets().map(drop)
}

fn to_client(server: &mut ServerConn, client: &mut ClientConn) -> Result<(), TlsError> {
    let bytes = drain(server);
    deliver(client, &bytes);
    client.process_new_packets().map(drop)
}

/// Drive a handshake flight by flight, timing each step under its name.
fn stepped<T: StepTimer>(
    timer: &mut T,
    steps: &'static [&'static str],
    ctx: u64,
    config: ClientConfig,
    client_rng: HmacDrbg,
    server_config: ServerConfig,
    server_rng: HmacDrbg,
) -> Result<(ClientConn, ServerConn), &'static str> {
    let mut client = timer.step(steps[0], Layer::Tls, ctx, || {
        ClientConn::new(config, client_rng)
    });
    let mut server = timer
        .step(steps[1], Layer::Tls, ctx, || {
            let mut server = ServerConn::new(server_config, server_rng, NOW);
            to_server(&mut client, &mut server).map(|()| server)
        })
        .map_err(|_| "TLS error")?;
    for (n, name) in steps.iter().enumerate().skip(2) {
        let towards_client = n % 2 == 0;
        timer
            .step(name, Layer::Tls, ctx, || {
                if towards_client {
                    to_client(&mut server, &mut client)
                } else {
                    to_server(&mut client, &mut server)
                }
            })
            .map_err(|_| "TLS error")?;
    }
    if client.wants_write() || server.wants_write() {
        return Err("handshake took more flights than its kind has");
    }
    Ok((client, server))
}

/// Echo `payload` both ways, timing each record seal and open.
fn echo_stepped<T: StepTimer>(
    timer: &mut T,
    ctx: u64,
    client: &mut ClientConn,
    server: &mut ServerConn,
    payload: &[u8],
) -> Result<(), &'static str> {
    timer
        .step("tls.record.seal", Layer::Tls, ctx, || {
            client.send_app_data(payload)
        })
        .map_err(|_| "echo send")?;
    timer
        .step("tls.record.open", Layer::Tls, ctx, || {
            to_server(client, server)
        })
        .map_err(|_| "echo TLS error")?;
    if !ct_eq(&server.recv_app_data(), payload) {
        return Err("echo upstream mismatch");
    }
    timer
        .step("tls.record.seal", Layer::Tls, ctx, || {
            server.send_app_data(payload)
        })
        .map_err(|_| "echo send")?;
    timer
        .step("tls.record.open", Layer::Tls, ctx, || {
            to_client(server, client)
        })
        .map_err(|_| "echo TLS error")?;
    if !ct_eq(&client.recv_app_data(), payload) {
        return Err("echo downstream mismatch");
    }
    Ok(())
}

/// One client's tallies.
#[derive(Default, PartialEq, Eq)]
struct ClientWork {
    requests: u64,
    failed: u64,
    by_kind: [u64; 3],
    echoes: u64,
}

struct ClientRun {
    work: ClientWork,
    /// Latencies of the requests that made a full handshake.
    full_ns: Vec<u64>,
    failures: Vec<&'static str>,
}

/// Issue one iteration's requests; whole hundreds, so the mix holds
/// exactly. With a tracer, each request runs stepped under spans.
fn client_loop(
    fleet: &Fleet,
    profile: Profile,
    seed: u64,
    client: usize,
    tracer: Option<(&Tracer, u32)>,
) -> ClientRun {
    let mut lane = tracer.map(|(t, parent)| t.lane(parent));
    let mut stash = vec![Stash::default(); TARGETS];
    let mut payload = vec![0u8; ECHO_BYTES];
    let mut run = ClientRun {
        work: ClientWork::default(),
        full_ns: Vec::new(),
        failures: Vec::new(),
    };
    for i in 0..profile.centuries * 100 {
        let req = plan(fleet, profile, seed, client, i, &stash);
        let (kind, echo, target) = (req.kind, req.echo, req.target);
        let outcome = match lane.as_mut() {
            None => execute(fleet, req, &mut stash[target], &mut payload).map(|ns| {
                if kind == Kind::Full {
                    run.full_ns.push(ns);
                }
            }),
            Some(lane) => {
                lane.open("bench.request", Layer::Unattributed, req.id);
                let r = execute_traced(fleet, req, &mut stash[target], &mut payload, lane);
                lane.close();
                r
            }
        };
        if let Err(why) = outcome {
            run.work.failed += 1;
            if !run.failures.contains(&why) {
                run.failures.push(why);
            }
        }
        run.work.requests += 1;
        run.work.by_kind[kind as usize] += 1;
        run.work.echoes += u64::from(echo);
    }
    run
}

fn run_clients(
    fleet: &Fleet,
    profile: Profile,
    seed: u64,
    tracer: Option<(&Tracer, u32)>,
) -> Vec<ClientRun> {
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..WORKERS)
            .map(|c| s.spawn(move || client_loop(fleet, profile, seed, c, tracer)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    })
}

/// One full handshake per (target, suite): fills the Montgomery and
/// session caches so the measured loop starts warm.
fn warm_up(fleet: &Fleet, seed: u64) -> Result<(), &'static str> {
    for target in 0..TARGETS {
        for (n, suite) in ROTATION.into_iter().enumerate() {
            let mut config = ClientConfig::new(fleet.store.clone(), &target_sni(target), NOW);
            config.suites = vec![suite];
            let (client_rng, server_rng) = rngs(&format!("bench-{seed}-warm-up-{target}-{n}"));
            let mut client = ClientConn::new(config, client_rng);
            let mut server = ServerConn::new(fleet.configs[target].clone(), server_rng, NOW);
            pump(&mut client, &mut server).map_err(|_| "TLS error")?;
            verify(&client, &server, Kind::Full)?;
        }
    }
    Ok(())
}

/// Build and warm the fleet of world `seed`, recording the set-up.
fn setup(seed: u64, m: &mut Measured) -> Fleet {
    let t = Instant::now();
    let fleet = fleet(seed);
    if let Err(why) = warm_up(&fleet, seed) {
        m.failures.push(format!("warm-up: {why}"));
    }
    m.setup_s.push(t.elapsed().as_secs_f64());
    fleet
}

/// Run iterations of about a second each, each on a freshly built fleet,
/// until `seconds` of client wall time have been measured; every iteration
/// is one window. A fresh fleet per iteration keeps the shared session
/// cache, and so peak memory, independent of how many requests the host
/// managed.
pub fn measure(profile: Profile, seed: u64, seconds: f64) -> Measured {
    let mut m = Measured::default();
    while m.iterations < MIN_ITERATIONS || m.wall_s < seconds {
        let world_seed = crate::iteration_seed(seed, m.iterations);
        let fleet = setup(world_seed, &mut m);
        let t = Instant::now();
        let runs = run_clients(&fleet, profile, world_seed, None);
        let wall_s = t.elapsed().as_secs_f64();
        m.wall_s += wall_s;
        let mut handshakes = 0;
        let mut full_ns = Vec::new();
        for r in runs {
            m.attempted += r.work.requests;
            m.failed += r.work.failed;
            handshakes += r.work.requests - r.work.failed;
            full_ns.extend(r.full_ns);
            m.failures.extend(r.failures.iter().map(|f| f.to_string()));
        }
        m.handshakes += handshakes;
        m.windows
            .push(crate::Window::new(wall_s, handshakes, &full_ns));
        m.iterations += 1;
    }
    m
}

/// Replay iteration 0 untraced, then traced, each on a fresh fleet after
/// a warm-up iteration; the traced work counts must equal the untraced.
pub fn trace(profile: Profile, seed: u64) -> Traced {
    let mut m = Measured::default();
    run_clients(&setup(seed, &mut m), profile, seed, None);
    let fleet = setup(seed, &mut m);
    let t = Instant::now();
    let untraced = run_clients(&fleet, profile, seed, None);
    let untraced_wall_s = t.elapsed().as_secs_f64();

    let fleet = setup(seed, &mut m);
    let before = ts_telemetry::snapshot();
    let tracer = Tracer::new();
    let traced = {
        let mut lane = tracer.lane(0);
        lane.open("trace.handshake", Layer::Unattributed, 0);
        let fan = lane.open_fanout("bench.clients", Layer::Unattributed, 0, WORKERS as u32);
        run_clients(&fleet, profile, seed, Some((&tracer, fan)))
    };
    let counters = ts_telemetry::snapshot().delta_since(&before);
    let mut t = Traced {
        spans: tracer.finish(),
        untraced_wall_s,
        counters,
        failures: m.failures,
        ..Traced::default()
    };
    for (a, b) in untraced.iter().zip(&traced) {
        if a.work != b.work {
            t.failures
                .push("traced work counts differ from the untraced run".into());
        }
        t.attempted += b.work.requests;
        t.failed += b.work.failed;
        t.handshakes += b.work.requests - b.work.failed;
        t.failures.extend(b.failures.iter().map(|f| f.to_string()));
    }
    t
}

/// Mean wall time of every handshake step per kind and of a 16 KiB
/// record seal and open, as `(span name, ns, count)` totals.
pub fn calibrate(fleet: &Fleet, seed: u64) -> Result<StepTotals, &'static str> {
    const FULL_ROUNDS: usize = 120;
    const RESUMED_ROUNDS: usize = 600;
    const ECHOES: usize = 200;
    let mut totals = StepTotals::default();
    let mut stash = vec![Stash::default(); TARGETS];
    let connect = |target: usize, n: usize| {
        let config = ClientConfig::new(fleet.store.clone(), &target_sni(target), NOW);
        let (client_rng, server_rng) = rngs(&format!("bench-{seed}-calibrate-connect-{n}"));
        let mut client = ClientConn::new(config, client_rng);
        let mut server = ServerConn::new(fleet.configs[target].clone(), server_rng, NOW);
        pump(&mut client, &mut server).map_err(|_| "TLS error")?;
        Ok::<_, &'static str>((client, server))
    };
    for (target, s) in stash.iter_mut().enumerate() {
        let (client, server) = connect(target, target)?;
        s.remember(&verify(&client, &server, Kind::Full)?);
    }
    let kinds = [
        (
            Kind::Full,
            Some(CipherSuite::RsaAes128GcmSha256),
            FULL_ROUNDS,
        ),
        (
            Kind::Full,
            Some(CipherSuite::DheRsaAes128GcmSha256),
            FULL_ROUNDS,
        ),
        (
            Kind::Full,
            Some(CipherSuite::EcdheRsaAes128GcmSha256),
            FULL_ROUNDS,
        ),
        (Kind::SessionId, None, RESUMED_ROUNDS),
        (Kind::Ticket, None, RESUMED_ROUNDS),
    ];
    for (k, (kind, suite, rounds)) in kinds.into_iter().enumerate() {
        for n in 0..rounds {
            let target = n % TARGETS;
            let mut config = ClientConfig::new(fleet.store.clone(), &target_sni(target), NOW);
            if let Some(suite) = suite {
                config.suites = vec![suite];
            }
            match kind {
                Kind::SessionId => config.resumption.session = stash[target].session.clone(),
                Kind::Ticket => config.resumption.ticket = stash[target].ticket.clone(),
                Kind::Full => {}
            }
            let steps = steps_for(kind, config.suites[0]);
            let (client_rng, server_rng) = rngs(&format!("bench-{seed}-calibrate-{k}-{n}"));
            let server_config = fleet.configs[target].clone();
            let (client, server) = stepped(
                &mut totals,
                steps,
                0,
                config,
                client_rng,
                server_config,
                server_rng,
            )?;
            verify(&client, &server, kind)?;
        }
    }
    let (mut client, mut server) = connect(0, TARGETS)?;
    let mut payload = vec![0u8; ECHO_BYTES];
    for i in 0..ECHOES {
        fill_payload(&mut payload, i as u64);
        echo_stepped(&mut totals, 0, &mut client, &mut server, &payload)?;
    }
    Ok(totals)
}
