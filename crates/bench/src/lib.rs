//! # ts-bench — the experiment harness
//!
//! One function per paper artefact (Tables 1–7, Figures 1–8, the §7.2
//! target analysis), shared between the `repro` binary and the `benches/`
//! benchmark. Every experiment runs against a seeded [`Context`] and
//! returns both structured results and a rendered report with
//! paper-vs-measured columns.
//!
//! The heavyweight scans (daily campaign, burst scans, probes) fan out
//! across threads with [`ts_core::par`]; results are deterministic for a
//! fixed (seed, size) pair at any worker count because every worker
//! derives its DRBG from its chunk index.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod exp_ablation;
pub mod exp_campaign;
pub mod exp_exposure;
pub mod exp_lifetimes;
pub mod exp_sharing;
pub mod exp_support;
pub mod exp_target;
pub mod exp_tls13;

use std::sync::OnceLock;
use ts_population::churn::ChurnModel;
use ts_population::{GroundTruth, KeyMaterial, Population, PopulationConfig};

/// Seconds per day.
pub const DAY: u64 = 86_400;
/// Seconds per hour.
pub const HOUR: u64 = 3_600;

/// What every experiment shares: the config, its key material and what
/// the world is known to contain, plus lazily computed shared artefacts.
///
/// The context holds no world. Simulated virtual time only moves forward
/// inside a `Population` (STEK managers rotate monotonically), so
/// experiments that scan *different* virtual time windows must not share
/// one mutable world: each experiment builds its own on demand via
/// [`Context::fresh_pop`] — byte-identical, since the build is a pure
/// function of the config — from the key material the context keeps, so
/// no world generates its keys twice.
pub struct Context {
    /// The population config every experiment world is built from.
    pub config: PopulationConfig,
    /// The worlds' CA and domain keys, generated once.
    keys: KeyMaterial,
    /// What every world was configured with (for estimator validation).
    pub truth: GroundTruth,
    /// The ranked list per day.
    pub churn: ChurnModel,
    /// Browser-trusted stable-core domains (the paper's 291,643 analogue).
    pub core_trusted: Vec<String>,
    /// Domains whose MX record names the Google analogue's SMTP host (the
    /// §7.2 MX census), a pure function of the config like the truth.
    pub goggle_mx_domains: usize,
    campaign: OnceLock<exp_campaign::Campaign>,
}

impl Context {
    /// Build a context at the given scale.
    pub fn new(seed: u64, size: usize) -> Self {
        Self::from_config(PopulationConfig::new(seed, size))
    }

    /// Build with a custom population config: one world, of which the
    /// context keeps the key material, ground truth, churn model and MX
    /// census.
    pub fn from_config(cfg: PopulationConfig) -> Self {
        let pop = Population::build(cfg.clone());
        let core_trusted = pop.core_trusted();
        let goggle_mx_domains = pop.dns.domains_with_mx(&pop.goggle_smtp_host).len();
        let Population {
            keys, truth, churn, ..
        } = pop;
        Context {
            config: cfg,
            keys,
            truth,
            churn,
            core_trusted,
            goggle_mx_domains,
            campaign: OnceLock::new(),
        }
    }

    /// A pristine, byte-identical world for one experiment's exclusive use.
    pub fn fresh_pop(&self) -> Population {
        Population::build_with(self.config.clone(), self.keys.clone())
    }

    /// The shared 63-day campaign (run once, reused by Figures 3–5 and
    /// Tables 2–4).
    pub fn campaign(&self) -> &exp_campaign::Campaign {
        self.campaign
            .get_or_init(|| exp_campaign::run_daily_campaign(self))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn context_builds_and_caches_campaign() {
        let ctx = Context::new(3, 200);
        assert!(!ctx.core_trusted.is_empty());
        let c1 = ctx.campaign() as *const _;
        let c2 = ctx.campaign() as *const _;
        assert_eq!(c1, c2, "campaign computed once");
    }

    #[test]
    fn mx_census_is_the_worlds() {
        let ctx = Context::new(3, 200);
        let pop = ctx.fresh_pop();
        let census = pop.dns.domains_with_mx(&pop.goggle_smtp_host).len();
        assert!(census > 0);
        assert_eq!(ctx.goggle_mx_domains, census);
    }
}
