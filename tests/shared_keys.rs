//! A world built from another world's key material is the world built
//! from scratch: `Population::build_with(cfg, keys)` must serve exactly
//! what `Population::build(cfg)` serves, because every experiment world
//! `ts_bench::Context::fresh_pop` builds reuses the context's keys.
//!
//! The key material depends on the seed alone, so the keys here come
//! from a world of the same seed and a different size.

use tls_shortcuts::population::{Population, PopulationConfig};
use tls_shortcuts::scanner::{GrabOptions, Scanner};
use tls_shortcuts::simnet::TlsResponder;

/// Everything `pop` serves, in a fixed order: per terminator, each
/// domain's certificate-chain DER; per domain, its DNS answers and
/// ground truth; the churn model's lists; and one default grab per core
/// domain.
fn served(pop: &Population) -> Vec<String> {
    let mut out = Vec::new();
    for (i, t) in pop.terminators.iter().enumerate() {
        for domain in t.domains() {
            let config = t.server_config(&domain, 0).expect("bound vhost");
            let ders: Vec<&[u8]> = config.identity.chain.iter().map(|c| &c.der[..]).collect();
            out.push(format!("pod {i} {domain} {ders:?}"));
        }
    }
    for truth in pop.truth.iter() {
        let domain = &truth.name;
        let a = pop.dns.lookup_all(domain);
        let mx = pop.dns.lookup_mx(domain);
        out.push(format!("{truth:?} A {a:?} MX {mx:?}"));
    }
    out.push(format!(
        "{:?} {:?}",
        pop.churn.core(),
        pop.churn.transients()
    ));
    let mut scanner = Scanner::new(pop, "shared-keys");
    for domain in pop.churn.core() {
        let grab = scanner.grab(domain, 9 * 3_600, &GrabOptions::new());
        out.push(format!("{grab:?}"));
    }
    out
}

fn assert_same_world(seed: u64, size: usize, keys_from_size: usize) {
    let donor = Population::build(PopulationConfig::new(seed, keys_from_size));
    let rebuilt = Population::build_with(PopulationConfig::new(seed, size), donor.keys.clone());
    let scratch = Population::build(PopulationConfig::new(seed, size));
    let (rebuilt, scratch) = (served(&rebuilt), served(&scratch));
    assert!(
        rebuilt.len() > size,
        "seed {seed} size {size}: served nothing"
    );
    for (r, s) in rebuilt.iter().zip(&scratch) {
        assert_eq!(r, s, "seed {seed} size {size}");
    }
    assert_eq!(rebuilt.len(), scratch.len(), "seed {seed} size {size}");
}

#[test]
fn shared_key_world_serves_what_a_from_scratch_world_serves() {
    for seed in [2016, 77] {
        assert_same_world(seed, 150, 400);
        assert_same_world(seed, 400, 150);
    }
}
