//! Assembles the complete simulated ecosystem.
//!
//! [`Population::build`] wires together: a simulated CA hierarchy and root
//! store (the [`KeyMaterial`]), the named operators of
//! [`crate::operators`], the notable domains of Tables 2–4, a
//! behaviour-sampled long tail (half of it on shared hosting — the source
//! of the paper's thousands of small service groups), transient churn
//! domains, DNS (A + MX), and the address plan. The result hosts real TLS
//! endpoints on a [`SimNet`] the scanner can probe.

use crate::churn::ChurnModel;
use crate::ground_truth::{DomainTruth, GroundTruth};
use crate::keys::KeyMaterial;
use crate::operators::{notables, operators, DhKexKind, NotableDomain, OperatorSpec, RotationSpec};
use crate::profile::{self, DomainBehavior, Software};
use crate::terminator::{Terminator, VHost};
use std::collections::HashMap;
use std::sync::Arc;
use ts_crypto::dh::DhGroup;
use ts_crypto::drbg::HmacDrbg;
use ts_simnet::addr::AsPlan;
use ts_simnet::{AsId, Dns, Ip, SimNet};
use ts_tls::cache::SharedSessionCache;
use ts_tls::config::ServerIdentity;
use ts_tls::ephemeral::{EphemeralCache, EphemeralPolicy};
use ts_tls::suites::CipherSuite;
use ts_tls::ticket::{RotationPolicy, SharedStekManager, StekManager, TicketFormat};
use ts_x509::{Blacklist, RootStore};

const DAY: u64 = 86_400;
const HOUR: u64 = 3_600;

/// Configuration for population generation.
#[derive(Debug, Clone)]
pub struct PopulationConfig {
    /// Master seed; everything derives from it.
    pub seed: u64,
    /// Ranked-list size (the scaled "Top Million").
    pub size: usize,
    /// RSA modulus size for all certificates (512 = fast simulation).
    pub rsa_bits: usize,
    /// Number of distinct RSA keys shared across the population
    /// (key *identity* does not affect any measurement; generating one
    /// key per domain would only burn time).
    pub key_pool: usize,
    /// Default transient-connection-failure probability.
    pub flakiness: f64,
    /// Long-tail probability of supporting HTTPS at all.
    pub https_rate: f64,
    /// Long-tail probability a HTTPS site presents a trusted chain.
    pub trusted_rate_given_https: f64,
    /// Fraction of domains on the institutional blacklist.
    pub blacklist_rate: f64,
    /// Transient (churning) domains as a fraction of `size`.
    pub transient_frac: f64,
    /// Study length in days.
    pub study_days: u64,
    /// Fraction of the long tail on shared hosting.
    pub shared_hosting_frac: f64,
}

impl PopulationConfig {
    /// Standard configuration at the given scale.
    pub fn new(seed: u64, size: usize) -> Self {
        PopulationConfig {
            seed,
            size,
            rsa_bits: 512,
            key_pool: 48,
            flakiness: 0.01,
            https_rate: 0.64,
            trusted_rate_given_https: 0.62,
            blacklist_rate: 0.004,
            transient_frac: 0.45,
            study_days: 63,
            shared_hosting_frac: 0.5,
        }
    }
}

/// The built world.
pub struct Population {
    /// Configuration it was built from.
    pub config: PopulationConfig,
    /// The keys its certificates were issued from; pass them to
    /// [`Population::build_with`] to build this world again without
    /// generating them.
    pub keys: KeyMaterial,
    /// The network hosting every HTTPS endpoint.
    pub net: SimNet,
    /// DNS zone (A + MX records).
    pub dns: Dns,
    /// Browser ("NSS-sim") trust anchors.
    pub root_store: Arc<RootStore>,
    /// The institutional blacklist.
    pub blacklist: Blacklist,
    /// Churn model: the ranked list per day.
    pub churn: ChurnModel,
    /// What was actually configured (for estimator validation).
    pub truth: GroundTruth,
    /// Address plan (AS ↔ IP mapping, for the §5.1 sampling).
    pub as_plan: AsPlan,
    /// Every terminator, for white-box experiments (attack simulations).
    pub terminators: Vec<Arc<Terminator>>,
    /// The mail host the Google-analogue serves (for the §7.2 census).
    pub goggle_smtp_host: String,
}

/// Internal builder state.
struct Builder {
    cfg: PopulationConfig,
    rng: HmacDrbg,
    net: SimNet,
    dns: Dns,
    as_plan: AsPlan,
    truth: GroundTruth,
    blacklist: Blacklist,
    terminators: Vec<Arc<Terminator>>,
    key_material: KeyMaterial,
    next_serial: u64,
    next_unit: usize,
    // Lookup-only hash map (get/insert, never iterated): purely a
    // memoization cache, so its hash order cannot reach any output.
    identity_cache: HashMap<(usize, String, bool), Arc<ServerIdentity>>,
}

impl Builder {
    fn next_unit(&mut self) -> usize {
        let u = self.next_unit;
        self.next_unit += 1;
        u
    }

    /// Issue (and cache) an identity for `domain`.
    fn identity(&mut self, domain: &str, trusted: bool) -> Arc<ServerIdentity> {
        let key_idx = self.rng.gen_range(self.key_material.pool_len() as u64) as usize;
        let cache_key = (key_idx, domain.to_string(), trusted);
        if let Some(id) = self.identity_cache.get(&cache_key) {
            return id.clone();
        }
        self.next_serial += 1;
        let id = Arc::new(
            self.key_material
                .identity(key_idx, domain, self.next_serial, trusted),
        );
        self.identity_cache.insert(cache_key, id.clone());
        id
    }

    /// Create a pod (terminator) with the given shared state, register it
    /// on `ips`, and return its index.
    fn add_pod(
        &mut self,
        cache: Option<SharedSessionCache>,
        stek: Option<SharedStekManager>,
        ephemeral: EphemeralCache,
        ips: &[Ip],
    ) -> usize {
        let pod = Arc::new(Terminator::new(cache, stek, ephemeral));
        let idx = self.terminators.len();
        self.terminators.push(pod.clone());
        for &ip in ips {
            self.net.bind(ip, pod.clone());
        }
        idx
    }

    fn fresh_ephemeral(&mut self, label: &str) -> EphemeralCache {
        EphemeralCache::new(
            EphemeralPolicy::FreshPerHandshake,
            DhGroup::Sim256,
            self.rng.fork(label),
        )
    }

    fn ephemeral_with(
        &mut self,
        dhe_policy: EphemeralPolicy,
        ecdhe_policy: EphemeralPolicy,
        label: &str,
    ) -> EphemeralCache {
        EphemeralCache::with_policies(
            dhe_policy,
            ecdhe_policy,
            DhGroup::Sim256,
            self.rng.fork(label),
        )
    }

    fn stek_manager(
        &mut self,
        rotation: RotationPolicy,
        format: TicketFormat,
    ) -> SharedStekManager {
        let rng = self.rng.fork("stek");
        SharedStekManager::new(StekManager::new(rotation, format, rng, 0))
    }
}

fn rotation_from_spec(spec: RotationSpec, accept_window: u64) -> RotationPolicy {
    match spec {
        RotationSpec::Daily => RotationPolicy::Periodic {
            period: 12 * HOUR,
            overlap: accept_window.max(HOUR),
        },
        RotationSpec::Periodic { period, overlap } => RotationPolicy::Periodic { period, overlap },
        RotationSpec::RestartDays(d) => RotationPolicy::OnRestart {
            restart_interval: d * DAY,
        },
        RotationSpec::Never => RotationPolicy::Static,
    }
}

fn stek_period_secs(spec: RotationSpec) -> u64 {
    match spec {
        RotationSpec::Daily => 12 * HOUR,
        RotationSpec::Periodic { period, .. } => period,
        RotationSpec::RestartDays(d) => d * DAY,
        RotationSpec::Never => u64::MAX,
    }
}

fn span_to_policy(span_days: u64) -> EphemeralPolicy {
    if span_days >= 63 {
        EphemeralPolicy::ReuseForever
    } else {
        EphemeralPolicy::ReuseFor {
            secs: span_days * DAY,
        }
    }
}

fn policy_secs(policy: EphemeralPolicy) -> u64 {
    match policy {
        EphemeralPolicy::FreshPerHandshake => 0,
        EphemeralPolicy::ReuseFor { secs } => secs,
        EphemeralPolicy::ReuseForever => u64::MAX,
    }
}

impl Population {
    /// Build the world from a configuration, generating its key material.
    pub fn build(cfg: PopulationConfig) -> Population {
        Population::assemble(cfg, None)
    }

    /// Build the world from a configuration and the key material of
    /// another world of the same seed, key size and key-pool size: the
    /// world [`Population::build`] returns, without generating the keys
    /// again. Panics if `keys` belong to a different seed or key config.
    pub fn build_with(cfg: PopulationConfig, keys: KeyMaterial) -> Population {
        keys.assert_generated_for(&cfg);
        Population::assemble(cfg, Some(keys))
    }

    /// The world on `keys`, or on keys generated from the population
    /// DRBG's first two forks when there are none. The forks are drawn
    /// either way, so every later fork, and so the world, is the same.
    fn assemble(cfg: PopulationConfig, keys: Option<KeyMaterial>) -> Population {
        let mut rng = HmacDrbg::from_seed_label(cfg.seed, "population");
        let pki_rng = rng.fork("pki");
        let key_rng = rng.fork("key-pool");
        let keys = keys.unwrap_or_else(|| KeyMaterial::generate(&cfg, pki_rng, key_rng));
        let root_store = Arc::new(keys.root_store());

        let mut b = Builder {
            cfg: cfg.clone(),
            rng: rng.fork("builder"),
            net: SimNet::new(),
            dns: Dns::new(),
            as_plan: AsPlan::new(),
            truth: GroundTruth::new(),
            blacklist: Blacklist::new(),
            terminators: Vec::new(),
            key_material: keys,
            next_serial: 100,
            next_unit: 0,
            identity_cache: HashMap::new(),
        };
        b.net.set_default_flakiness(cfg.flakiness);

        let scale = |ppm: u32| -> usize {
            (((ppm as u64) * (cfg.size as u64)) / 1_000_000).max(1) as usize
        };

        // --- Rank allocation ---
        // Notables pin their paper ranks (clamped to the list); everyone
        // else draws from the shuffled remainder.
        let notable_list = notables(cfg.size as f64 / 1_000_000.0);
        let mut taken: Vec<bool> = vec![false; cfg.size + 1];
        // Lookup-only hash map: rank assignment below walks `notable_list`
        // (a fixed slice), never this map, so hash order cannot leak.
        let mut notable_ranks: HashMap<&str, usize> = HashMap::new();
        for n in &notable_list {
            let mut r = n.rank.min(cfg.size).max(1);
            while taken[r] {
                r = (r % cfg.size) + 1;
            }
            taken[r] = true;
            notable_ranks.insert(n.name, r);
        }
        let mut free_ranks: Vec<usize> = (1..=cfg.size).filter(|&r| !taken[r]).collect();
        // Fisher-Yates with the DRBG.
        let mut shuffle_rng = rng.fork("ranks");
        for i in (1..free_ranks.len()).rev() {
            let j = shuffle_rng.gen_range((i + 1) as u64) as usize;
            free_ranks.swap(i, j);
        }

        let mut core_domains: Vec<String> = Vec::with_capacity(cfg.size);
        let goggle_smtp_host = "smtp.goggle.sim".to_string();

        // --- Notable single domains ---
        let misc_as = b.as_plan.new_as();
        for n in &notable_list {
            let rank = notable_ranks[n.name];
            build_notable(&mut b, n, rank, misc_as);
            core_domains.push(n.name.to_string());
        }

        // --- Named operators ---
        let mut rank_cursor = 0usize;
        let take_rank = |free: &[usize], cursor: &mut usize| -> usize {
            let r = free[*cursor % free.len()];
            *cursor += 1;
            r
        };
        for op in operators() {
            let n = scale(op.ppm);
            let names = build_operator(&mut b, &op, n, &scale);
            for name in names {
                let rank = take_rank(&free_ranks, &mut rank_cursor);
                if let Some(t) = b.truth.by_name_mut(&name) {
                    t.rank = rank;
                }
                core_domains.push(name);
            }
        }

        // --- Long tail (stable core) ---
        let remaining = cfg.size.saturating_sub(core_domains.len());
        let tail_names: Vec<String> = (0..remaining).map(|i| format!("site-{i:06}.sim")).collect();
        build_long_tail(&mut b, &tail_names, true);
        for name in &tail_names {
            let rank = take_rank(&free_ranks, &mut rank_cursor);
            if let Some(t) = b.truth.by_name_mut(name) {
                t.rank = rank;
            }
            core_domains.push(name.clone());
        }

        // --- Transients ---
        let transient_count = (cfg.size as f64 * cfg.transient_frac) as usize;
        let transient_names: Vec<String> = (0..transient_count)
            .map(|i| format!("churn-{i:06}.sim"))
            .collect();
        build_long_tail(&mut b, &transient_names, false);
        for name in &transient_names {
            if let Some(t) = b.truth.by_name_mut(name) {
                // Transients sit in the lower ranks.
                t.rank = cfg.size;
            }
        }

        // --- Blacklist ---
        let mut bl_rng = rng.fork("blacklist");
        for name in &core_domains {
            if bl_rng.gen_bool(cfg.blacklist_rate) {
                b.blacklist.add(name);
                if let Some(t) = b.truth.by_name_mut(name) {
                    t.blacklisted = true;
                }
            }
        }

        // --- MX records (§7.2: 9.1% of domains point at the big
        // provider's SMTP) ---
        let mut mx_rng = rng.fork("mx");
        for name in core_domains.iter().chain(transient_names.iter()) {
            if mx_rng.gen_bool(0.091) {
                b.dns.set_mx(name, &goggle_smtp_host);
            } else if mx_rng.gen_bool(0.5) {
                b.dns.set_mx(name, &format!("mail.{name}"));
            }
        }

        // --- Churn model ---
        let mut churn_rng = rng.fork("churn");
        let churn = ChurnModel::build(
            core_domains,
            transient_names,
            cfg.study_days,
            &mut churn_rng,
        );

        Population {
            config: cfg,
            keys: b.key_material,
            net: b.net,
            dns: b.dns,
            root_store,
            blacklist: b.blacklist,
            churn,
            truth: b.truth,
            as_plan: b.as_plan,
            terminators: b.terminators,
            goggle_smtp_host,
        }
    }

    /// Stable-core domains that are HTTPS + trusted + unblacklisted — the
    /// denominator of every multi-day analysis in the paper.
    pub fn core_trusted(&self) -> Vec<String> {
        self.churn
            .core()
            .iter()
            .filter(|d| {
                self.truth
                    .get(d)
                    .map(|t| t.https && t.trusted && !t.blacklisted)
                    .unwrap_or(false)
            })
            .cloned()
            .collect()
    }

    /// Discard every server session that expired by `now` from every
    /// terminator's session cache; returns how many were dropped.
    ///
    /// Call it only at an instant no later grab precedes, such as a day
    /// boundary at the coming day's scan start: no grab can then resume
    /// what it drops, so nothing a scan observes changes.
    pub fn discard_expired_sessions(&self, now: u64) -> u64 {
        self.terminators
            .iter()
            .filter_map(|t| t.session_cache.as_ref())
            .map(|cache| cache.sweep(now))
            .sum()
    }
}

/// Build one notable single domain on its own terminator.
fn build_notable(b: &mut Builder, n: &NotableDomain, rank: usize, as_id: AsId) {
    let ip = b.as_plan.new_ip(as_id);
    let trusted = true;
    let identity = b.identity(n.name, trusted);

    let has_tickets = true;
    let hint = n.ticket_hint.unwrap_or(HOUR as u32);
    let accept = (hint as u64).min(24 * HOUR);
    let rotation = match n.stek_span_days {
        Some(d) if d >= 63 => RotationPolicy::Static,
        Some(d) => RotationPolicy::OnRestart {
            restart_interval: d * DAY,
        },
        None => RotationPolicy::Periodic {
            period: 12 * HOUR,
            overlap: accept.max(HOUR),
        },
    };
    let dhe_policy = n
        .dhe_span_days
        .map(span_to_policy)
        .unwrap_or(EphemeralPolicy::FreshPerHandshake);
    let ecdhe_policy = n
        .ecdhe_span_days
        .map(span_to_policy)
        .unwrap_or(EphemeralPolicy::FreshPerHandshake);

    let mut suites: Vec<CipherSuite> = Vec::new();
    suites.extend(CipherSuite::ecdhe_only());
    if n.dhe_span_days.is_some() || b.rng.gen_bool(0.6) {
        suites.extend(CipherSuite::dhe_only());
    }
    suites.push(CipherSuite::RsaAes128CbcSha256);
    let supports_dhe = suites
        .iter()
        .any(|s| s.key_exchange() == ts_tls::suites::KeyExchange::Dhe);

    let cache_lifetime = 5 * 60;
    let cache_unit = b.next_unit();
    let stek_unit = b.next_unit();
    let dh_unit = b.next_unit();
    let cache = SharedSessionCache::new(cache_lifetime, 10_000);
    let stek = b.stek_manager(rotation, TicketFormat::Rfc5077);
    let eph = b.ephemeral_with(dhe_policy, ecdhe_policy, "notable-eph");
    let pod = b.add_pod(Some(cache), Some(stek), eph, &[ip]);

    let behavior = DomainBehavior {
        software: Software::Custom,
        suites,
        cache: profile::CachePolicy {
            issue_ids: true,
            resume: true,
            lifetime: cache_lifetime,
        },
        tickets: profile::TicketPolicy {
            enabled: has_tickets,
            lifetime_hint: hint,
            accept_window: accept,
            rotation,
            reissue: true,
        },
        dhe_policy,
        ecdhe_policy,
    };
    b.terminators[pod].add_vhost(n.name, VHost { identity, behavior });
    b.dns.set_a(n.name, vec![ip]);

    b.truth.insert(DomainTruth {
        name: n.name.to_string(),
        rank,
        operator: None,
        https: true,
        trusted,
        blacklisted: false,
        stable: true,
        stek_period: Some(stek_period_secs(match n.stek_span_days {
            Some(d) if d >= 63 => RotationSpec::Never,
            Some(d) => RotationSpec::RestartDays(d),
            None => RotationSpec::Daily,
        })),
        cache_lifetime: Some(cache_lifetime),
        dhe_reuse: supports_dhe.then(|| policy_secs(dhe_policy)),
        ecdhe_reuse: Some(policy_secs(ecdhe_policy)),
        cache_unit: Some(cache_unit),
        stek_unit: Some(stek_unit),
        dh_unit: Some(dh_unit),
        pod,
    });
}

/// Build one named operator: shared units, pods, domains. Returns names.
fn build_operator(
    b: &mut Builder,
    op: &OperatorSpec,
    n: usize,
    scale: impl Fn(u32) -> usize,
) -> Vec<String> {
    let as_id = b.as_plan.new_as();
    let accept = op.ticket_accept;
    let rotation = rotation_from_spec(op.stek_rotation, accept);

    // Shared units (contiguous assignment).
    let cache_bounds: Vec<usize> = op.cache_groups_ppm.iter().map(|&ppm| scale(ppm)).collect();
    let stek_bounds: Vec<usize> = op.stek_groups_ppm.iter().map(|&ppm| scale(ppm)).collect();
    let dh_bounds: Vec<usize> = op.dh_groups_ppm.iter().map(|&ppm| scale(ppm)).collect();

    let shared_caches: Vec<(usize, SharedSessionCache)> = cache_bounds
        .iter()
        .map(|_| {
            (
                b.next_unit(),
                SharedSessionCache::new(op.cache_lifetime.max(1), 200_000),
            )
        })
        .collect();
    let shared_steks: Vec<(usize, SharedStekManager)> = stek_bounds
        .iter()
        .map(|_| {
            let unit = b.next_unit();
            let m = b.stek_manager(rotation, TicketFormat::Rfc5077);
            (unit, m)
        })
        .collect();
    let dh_policy = span_to_policy(op.dh_span_days.max(1));
    let (op_dhe_policy, op_ecdhe_policy) = match op.dh_kex {
        DhKexKind::Dhe => (dh_policy, EphemeralPolicy::FreshPerHandshake),
        DhKexKind::Ecdhe => (EphemeralPolicy::FreshPerHandshake, dh_policy),
    };
    let shared_dhs: Vec<(usize, EphemeralCache)> = dh_bounds
        .iter()
        .map(|_| {
            let unit = b.next_unit();
            let e = b.ephemeral_with(op_dhe_policy, op_ecdhe_policy, "op-dh");
            (unit, e)
        })
        .collect();

    let assign = |bounds: &[usize], idx: usize| -> Option<usize> {
        let mut cum = 0;
        for (g, &len) in bounds.iter().enumerate() {
            cum += len;
            if idx < cum {
                return Some(g);
            }
        }
        None
    };

    let mut suites: Vec<CipherSuite> = Vec::new();
    suites.extend(CipherSuite::ecdhe_only());
    if op.dh_kex == DhKexKind::Dhe {
        suites.extend(CipherSuite::dhe_only());
    }
    suites.push(CipherSuite::RsaAes128CbcSha256);
    let supports_dhe = op.dh_kex == DhKexKind::Dhe;

    let pod_size = 40usize;
    let mut names = Vec::with_capacity(n);
    let mut pod_state: Option<(
        usize,
        (Option<usize>, Option<usize>, Option<usize>),
        Vec<Ip>,
        usize,
    )> = None;

    for i in 0..n {
        let name = format!("{}-c{:05}.sim", op.name, i);
        let key = (
            assign(&cache_bounds, i),
            assign(&stek_bounds, i),
            assign(&dh_bounds, i),
        );
        // Start a new pod at boundaries or when the pod is full.
        let need_new = match &pod_state {
            Some((_, k, _, count)) => *k != key || *count >= pod_size,
            None => true,
        };
        if need_new {
            // Resolve shared state for this segment.
            let (cache_unit, cache) = match key.0 {
                Some(g) => {
                    let (u, c) = &shared_caches[g];
                    (*u, c.clone())
                }
                None => (
                    b.next_unit(),
                    SharedSessionCache::new(op.cache_lifetime.max(1), 50_000),
                ),
            };
            let (stek_unit, stek) = match key.1 {
                Some(g) => {
                    let (u, s) = &shared_steks[g];
                    (Some(*u), Some(s.clone()))
                }
                None => {
                    if op.stek_groups_ppm.is_empty() {
                        (None, None)
                    } else {
                        let u = b.next_unit();
                        let m = b.stek_manager(rotation, TicketFormat::Rfc5077);
                        (Some(u), Some(m))
                    }
                }
            };
            let (dh_unit, eph) = match key.2 {
                Some(g) => {
                    let (u, e) = &shared_dhs[g];
                    (*u, e.clone())
                }
                None => {
                    let u = b.next_unit();
                    let e = b.fresh_ephemeral("op-pod-eph");
                    (u, e)
                }
            };
            let ip_count = 1 + b.rng.gen_range(2) as usize;
            let ips: Vec<Ip> = (0..ip_count).map(|_| b.as_plan.new_ip(as_id)).collect();
            let pod = b.add_pod(Some(cache), stek, eph, &ips);
            pod_state = Some((pod, key, ips, 0));
            // Stash units for the truth below via closures: store in pod_state
            // encoded? Keep simple: recompute per-domain.
            let _ = (cache_unit, stek_unit, dh_unit);
        }
        let (pod, _, ips, count) = pod_state.as_mut().expect("just set");
        *count += 1;
        let pod = *pod;
        let dns_ips = ips.clone();

        let identity = b.identity(&name, true);
        let tickets_enabled = key.1.is_some() || !op.stek_groups_ppm.is_empty();
        let behavior = DomainBehavior {
            software: Software::Custom,
            suites: suites.clone(),
            cache: profile::CachePolicy {
                issue_ids: true,
                resume: op.cache_lifetime > 0,
                lifetime: op.cache_lifetime,
            },
            tickets: profile::TicketPolicy {
                enabled: tickets_enabled,
                lifetime_hint: op.ticket_hint,
                accept_window: op.ticket_accept,
                rotation,
                reissue: true,
            },
            dhe_policy: if key.2.is_some() {
                op_dhe_policy
            } else {
                EphemeralPolicy::FreshPerHandshake
            },
            ecdhe_policy: if key.2.is_some() {
                op_ecdhe_policy
            } else {
                EphemeralPolicy::FreshPerHandshake
            },
        };
        b.terminators[pod].add_vhost(&name, VHost { identity, behavior });
        b.dns.set_a(&name, dns_ips);

        // Truth units: recompute the ids the pod creation used.
        let cache_unit = key.0.map(|g| shared_caches[g].0);
        let stek_unit = key.1.map(|g| shared_steks[g].0);
        let dh_unit = key.2.map(|g| shared_dhs[g].0);
        b.truth.insert(DomainTruth {
            name: name.clone(),
            rank: 0, // assigned by the caller
            operator: Some(op.name.to_string()),
            https: true,
            trusted: true,
            blacklisted: false,
            stable: true,
            stek_period: tickets_enabled.then(|| stek_period_secs(op.stek_rotation)),
            cache_lifetime: (op.cache_lifetime > 0).then_some(op.cache_lifetime),
            dhe_reuse: supports_dhe.then(|| {
                if key.2.is_some() {
                    policy_secs(op_dhe_policy)
                } else {
                    0
                }
            }),
            ecdhe_reuse: Some(if key.2.is_some() && op.dh_kex == DhKexKind::Ecdhe {
                policy_secs(dh_policy)
            } else {
                0
            }),
            cache_unit,
            stek_unit,
            dh_unit,
            pod,
        });
        names.push(name);
    }

    // The Google-analogue also answers SMTP with the same STEK (§7.2).
    if op.name == "goggle" && !shared_steks.is_empty() {
        let smtp_name = "smtp.goggle.sim";
        let ip = b.as_plan.new_ip(as_id);
        let identity = b.identity(smtp_name, true);
        let stek = shared_steks[0].1.clone();
        let eph = b.fresh_ephemeral("goggle-smtp");
        let cache = SharedSessionCache::new(op.cache_lifetime.max(1), 10_000);
        let pod = b.add_pod(Some(cache), Some(stek), eph, &[ip]);
        let behavior = DomainBehavior {
            software: Software::Custom,
            suites: suites.clone(),
            cache: profile::CachePolicy {
                issue_ids: true,
                resume: true,
                lifetime: op.cache_lifetime,
            },
            tickets: profile::TicketPolicy {
                enabled: true,
                lifetime_hint: op.ticket_hint,
                accept_window: op.ticket_accept,
                rotation,
                reissue: true,
            },
            dhe_policy: EphemeralPolicy::FreshPerHandshake,
            ecdhe_policy: EphemeralPolicy::FreshPerHandshake,
        };
        b.terminators[pod].add_vhost(smtp_name, VHost { identity, behavior });
        b.dns.set_a(smtp_name, vec![ip]);
    }

    names
}

/// Build long-tail domains (`stable` marks core vs transient).
fn build_long_tail(b: &mut Builder, names: &[String], stable: bool) {
    let mut i = 0usize;
    let mut as_budget = 0usize;
    let mut current_as = b.as_plan.new_as();
    while i < names.len() {
        if as_budget > 150 {
            current_as = b.as_plan.new_as();
            as_budget = 0;
        }
        // `shared_hosting_frac` is the fraction of *domains* on shared
        // hosting. Each loop iteration creates one pod, so flipping the
        // coin at `shared_hosting_frac` directly would size-bias the
        // outcome (a shared pod consumes ~11.5 domains per flip, a single
        // only 1, putting >90% of domains on shared hosting). Convert to
        // the per-pod probability that yields the per-domain fraction.
        let f = b.cfg.shared_hosting_frac;
        let mean_pod = 11.5;
        let q = f / (mean_pod * (1.0 - f) + f);
        let shared = b.rng.gen_bool(q);
        let pod_n = if shared {
            (2 + b.rng.gen_range(19) as usize).min(names.len() - i)
        } else {
            1
        };
        let behavior = profile::sample_long_tail(&mut b.rng);
        let format = behavior.software.ticket_format();
        // §4.3's jitter source: ~10% of single-domain deployments run two
        // or three *unsynchronized* servers behind round-robin DNS — same
        // configuration, independent random STEKs, caches and ephemeral
        // values. Daily scans then flap between STEK identifiers, which is
        // exactly what the paper's first/last-seen span estimator must
        // bridge (and why within-burst "≥2x same value" exceeds "all
        // same" in Table 1).
        let replicas = if !shared && b.rng.gen_bool(0.10) {
            2 + b.rng.gen_range(2) as usize
        } else {
            1
        };
        let mut pod = 0;
        let mut ips = Vec::with_capacity(replicas);
        let mut cache_unit = None;
        let mut stek_unit = None;
        let mut dh_unit = 0;
        for r in 0..replicas {
            let cache = behavior
                .cache
                .resume
                .then(|| SharedSessionCache::new(behavior.cache.lifetime, 10_000));
            let stek = behavior
                .tickets
                .enabled
                .then(|| b.stek_manager(behavior.tickets.rotation, format));
            let eph = b.ephemeral_with(behavior.dhe_policy, behavior.ecdhe_policy, "tail-eph");
            let ip = b.as_plan.new_ip(current_as);
            let cu = cache.is_some().then(|| b.next_unit());
            let su = stek.is_some().then(|| b.next_unit());
            let du = b.next_unit();
            let p = b.add_pod(cache, stek, eph, &[ip]);
            ips.push(ip);
            if r == 0 {
                pod = p;
                cache_unit = cu;
                stek_unit = su;
                dh_unit = du;
            }
        }
        as_budget += 1;

        for k in 0..pod_n {
            let name = &names[i + k];
            let https = b.rng.gen_bool(b.cfg.https_rate);
            let trusted = https && b.rng.gen_bool(b.cfg.trusted_rate_given_https);
            if https {
                let identity = b.identity(name, trusted);
                for r in 0..replicas {
                    let t = &b.terminators[pod + r];
                    t.add_vhost(
                        name,
                        VHost {
                            identity: identity.clone(),
                            behavior: behavior.clone(),
                        },
                    );
                }
                b.dns.set_a(name, ips.clone());
            } else {
                // Domain resolves but nothing listens on 443.
                let dead_ip = b.as_plan.new_ip(current_as);
                b.dns.set_a(name, vec![dead_ip]);
            }
            b.truth.insert(DomainTruth {
                name: name.clone(),
                rank: 0,
                operator: None,
                https,
                trusted,
                blacklisted: false,
                stable,
                stek_period: (https && behavior.tickets.enabled).then(|| {
                    match behavior.tickets.rotation {
                        RotationPolicy::Static => u64::MAX,
                        RotationPolicy::OnRestart { restart_interval } => restart_interval,
                        RotationPolicy::Periodic { period, .. } => period,
                    }
                }),
                cache_lifetime: (https && behavior.cache.resume).then_some(behavior.cache.lifetime),
                dhe_reuse: (https && behavior.supports_dhe())
                    .then(|| policy_secs(behavior.dhe_policy)),
                ecdhe_reuse: (https && behavior.supports_ecdhe())
                    .then(|| policy_secs(behavior.ecdhe_policy)),
                cache_unit: if https { cache_unit } else { None },
                stek_unit: if https { stek_unit } else { None },
                dh_unit: https.then_some(dh_unit),
                pod,
            });
        }
        i += pod_n;
    }
}

impl GroundTruth {
    /// Mutable access for the builder's rank back-fill.
    fn by_name_mut(&mut self, name: &str) -> Option<&mut DomainTruth> {
        self.get_mut(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> &'static Population {
        use std::sync::OnceLock;
        static POP: OnceLock<Population> = OnceLock::new();
        POP.get_or_init(|| Population::build(PopulationConfig::new(42, 800)))
    }

    #[test]
    fn builds_and_is_deterministic() {
        let a = small();
        let b = Population::build(PopulationConfig::new(42, 800));
        let b = &b;
        assert_eq!(a.churn.core().len(), b.churn.core().len());
        assert_eq!(a.truth.len(), b.truth.len());
        let names_a: Vec<&str> = {
            let mut v: Vec<&str> = a.truth.iter().map(|t| t.name.as_str()).collect();
            v.sort_unstable();
            v
        };
        let names_b: Vec<&str> = {
            let mut v: Vec<&str> = b.truth.iter().map(|t| t.name.as_str()).collect();
            v.sort_unstable();
            v
        };
        assert_eq!(names_a, names_b);
    }

    #[test]
    fn core_size_matches_config() {
        let p = small();
        assert_eq!(p.churn.core().len(), p.config.size);
    }

    #[test]
    fn https_and_trust_rates_plausible() {
        let p = small();
        let core = p.churn.core();
        let https = core
            .iter()
            .filter(|d| p.truth.get(d).map(|t| t.https).unwrap_or(false))
            .count() as f64
            / core.len() as f64;
        let trusted = core
            .iter()
            .filter(|d| p.truth.get(d).map(|t| t.trusted).unwrap_or(false))
            .count() as f64
            / core.len() as f64;
        // Operators + notables are all HTTPS; long tail ~64%.
        assert!(https > 0.6 && https < 0.85, "https rate {https}");
        assert!(trusted > 0.35 && trusted < 0.65, "trusted rate {trusted}");
    }

    #[test]
    fn operator_domains_share_units() {
        let p = small();
        let cirrus: Vec<&DomainTruth> = p
            .truth
            .iter()
            .filter(|t| t.operator.as_deref() == Some("cirrusflare"))
            .collect();
        assert!(!cirrus.is_empty());
        // All cirrusflare domains share one STEK unit.
        let units: std::collections::HashSet<Option<usize>> =
            cirrus.iter().map(|t| t.stek_unit).collect();
        assert_eq!(units.len(), 1, "single STEK unit: {units:?}");
        assert!(units.iter().next().unwrap().is_some());
    }

    #[test]
    fn notables_present_with_expected_truth() {
        let p = small();
        let yahoo = p.truth.get("yahoo.sim").expect("yahoo exists");
        assert_eq!(yahoo.stek_period, Some(u64::MAX), "static STEK");
        assert!(yahoo.trusted);
        let netflix = p.truth.get("netflix.sim").expect("netflix exists");
        assert_eq!(netflix.stek_period, Some(54 * DAY));
        assert_eq!(netflix.dhe_reuse, Some(59 * DAY));
        let whatsapp = p.truth.get("whatsapp.sim").expect("whatsapp exists");
        assert_eq!(whatsapp.ecdhe_reuse, Some(62 * DAY));
    }

    #[test]
    fn a_trusted_domain_actually_handshakes() {
        let p = small();
        let mut rng = HmacDrbg::new(b"probe");
        let domain = "yahoo.sim";
        let ip = p.dns.resolve(domain, &mut rng).expect("resolves");
        let cfg = ts_tls::config::ClientConfig::new(p.root_store.clone(), domain, 1000);
        let conn = p.net.connect(ip, cfg, 1000, &mut rng);
        // Default flakiness is 1%; retry a few times.
        let mut conn = conn;
        for _ in 0..5 {
            if conn.is_ok() {
                break;
            }
            let cfg = ts_tls::config::ClientConfig::new(p.root_store.clone(), domain, 1000);
            conn = p.net.connect(ip, cfg, 1000, &mut rng);
        }
        let conn = conn.expect("handshake succeeds");
        let s = conn.client.summary().unwrap();
        assert_eq!(s.trust, Some(Ok(())));
        assert!(s.new_ticket.is_some(), "notables issue tickets");
    }

    #[test]
    fn non_https_domain_refuses() {
        let p = small();
        let mut rng = HmacDrbg::new(b"refuse");
        let dead = p
            .truth
            .iter()
            .find(|t| !t.https && t.stable)
            .expect("some non-HTTPS domain");
        let ip = p.dns.resolve(&dead.name, &mut rng).expect("resolves");
        let cfg = ts_tls::config::ClientConfig::new(p.root_store.clone(), &dead.name, 1000);
        assert!(matches!(
            p.net.connect(ip, cfg, 1000, &mut rng),
            Err(ts_simnet::ConnectError::Refused)
        ));
    }

    #[test]
    fn untrusted_https_domain_fails_trust() {
        let p = small();
        let mut rng = HmacDrbg::new(b"untrusted");
        let ut = p
            .truth
            .iter()
            .find(|t| t.https && !t.trusted && t.stable)
            .expect("some untrusted domain");
        let ip = p.dns.resolve(&ut.name, &mut rng).expect("resolves");
        let mut cfg = ts_tls::config::ClientConfig::new(p.root_store.clone(), &ut.name, 1000);
        cfg.verify_certs = false;
        let mut attempt = p.net.connect(ip, cfg, 1000, &mut rng);
        for _ in 0..5 {
            if attempt.is_ok() {
                break;
            }
            let mut cfg = ts_tls::config::ClientConfig::new(p.root_store.clone(), &ut.name, 1000);
            cfg.verify_certs = false;
            attempt = p.net.connect(ip, cfg, 1000, &mut rng);
        }
        let conn = attempt.expect("permissive handshake succeeds");
        assert!(matches!(conn.client.summary().unwrap().trust, Some(Err(_))));
    }

    #[test]
    fn mx_census_close_to_nine_percent() {
        let p = small();
        let with_goggle = p.dns.domains_with_mx(&p.goggle_smtp_host).len() as f64;
        let total = p.churn.unique_domains() as f64;
        let rate = with_goggle / total;
        assert!((rate - 0.091).abs() < 0.03, "goggle MX rate {rate}");
    }

    #[test]
    fn smtp_host_shares_goggle_stek() {
        let p = small();
        let mut rng = HmacDrbg::new(b"smtp");
        let ip = p
            .dns
            .resolve(&p.goggle_smtp_host, &mut rng)
            .expect("smtp resolves");
        let cfg = ts_tls::config::ClientConfig::new(p.root_store.clone(), &p.goggle_smtp_host, 500);
        let mut attempt = p.net.connect(ip, cfg, 500, &mut rng);
        for _ in 0..5 {
            if attempt.is_ok() {
                break;
            }
            let cfg =
                ts_tls::config::ClientConfig::new(p.root_store.clone(), &p.goggle_smtp_host, 500);
            attempt = p.net.connect(ip, cfg, 500, &mut rng);
        }
        let conn = attempt.expect("smtp handshake");
        let smtp_ticket = conn.client.summary().unwrap().new_ticket.expect("ticket");
        let smtp_stek =
            ts_tls::ticket::extract_stek_id(&smtp_ticket.ticket, TicketFormat::Rfc5077).unwrap();
        // Compare with a goggle web domain's STEK id.
        let web = p
            .truth
            .iter()
            .find(|t| t.operator.as_deref() == Some("goggle"))
            .expect("goggle domain");
        let ip = p.dns.resolve(&web.name, &mut rng).expect("resolves");
        let cfg = ts_tls::config::ClientConfig::new(p.root_store.clone(), &web.name, 500);
        let mut attempt = p.net.connect(ip, cfg, 500, &mut rng);
        for _ in 0..5 {
            if attempt.is_ok() {
                break;
            }
            let cfg = ts_tls::config::ClientConfig::new(p.root_store.clone(), &web.name, 500);
            attempt = p.net.connect(ip, cfg, 500, &mut rng);
        }
        let conn = attempt.expect("web handshake");
        let web_ticket = conn.client.summary().unwrap().new_ticket.expect("ticket");
        let web_stek =
            ts_tls::ticket::extract_stek_id(&web_ticket.ticket, TicketFormat::Rfc5077).unwrap();
        assert_eq!(smtp_stek, web_stek, "SMTP and web share the STEK");
    }

    #[test]
    fn shared_hosting_pods_exist() {
        let p = small();
        let mut pod_counts: HashMap<usize, usize> = HashMap::new();
        for t in p.truth.iter() {
            if t.https && t.operator.is_none() {
                *pod_counts.entry(t.pod).or_default() += 1;
            }
        }
        let multi = pod_counts.values().filter(|&&c| c > 1).count();
        assert!(multi > 5, "shared-hosting pods exist ({multi})");
    }
}
