//! Count-derived domain shards over a population.
//!
//! Million-domain campaigns split the scan list into the fixed shard
//! layout [`ShardPlan`] derives from the domain count — the same layout
//! `parallel_map` uses for work chunks — so per-shard scanner seeds and
//! per-shard accumulator state line up exactly with the parallel fan-out
//! at any worker count. This module is the population-side view of that
//! partition: each shard knows its domain slice and can extract the DNS
//! subzone covering exactly those domains.
//!
//! Shared server state (session caches, STEK managers, ephemeral-value
//! caches) can *straddle* a shard boundary: two domains behind one STEK
//! manager may land in different shards, so cross-domain structures
//! (service groups) must be built from merged shard summaries rather
//! than per shard.

use crate::build::Population;
use ts_core::par::ShardPlan;
use ts_simnet::dns::Dns;

/// One shard of the partition: its index and its slice of the scan list.
#[derive(Debug, Clone, Copy)]
pub struct ShardView<'a> {
    /// Shard index (also the chunk id `parallel_map` would pass).
    pub shard: usize,
    /// The shard's domains, in scan-list order.
    pub domains: &'a [String],
}

/// A fixed partition of a scan list over a population.
pub struct PopulationShards<'a> {
    pop: &'a Population,
    domains: &'a [String],
    plan: ShardPlan,
}

impl<'a> PopulationShards<'a> {
    /// Partition `domains` (a scan list over `pop`) into the
    /// count-derived shard layout.
    pub fn new(pop: &'a Population, domains: &'a [String]) -> Self {
        PopulationShards {
            pop,
            domains,
            plan: ShardPlan::for_len(domains.len()),
        }
    }

    /// The underlying layout.
    pub fn plan(&self) -> ShardPlan {
        self.plan
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.plan.shard_count()
    }

    /// One shard's view.
    pub fn view(&self, shard: usize) -> ShardView<'a> {
        ShardView {
            shard,
            domains: &self.domains[self.plan.range(shard)],
        }
    }

    /// All shards, in shard order.
    pub fn iter(&self) -> impl Iterator<Item = ShardView<'a>> + '_ {
        (0..self.shard_count()).map(|s| self.view(s))
    }

    /// The DNS subzone covering exactly one shard's domains.
    pub fn subzone(&self, shard: usize) -> Dns {
        self.pop
            .dns
            .subzone(self.view(shard).domains.iter().map(|d| d.as_str()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::PopulationConfig;
    use std::sync::OnceLock;

    fn pop() -> &'static Population {
        static POP: OnceLock<Population> = OnceLock::new();
        POP.get_or_init(|| Population::build(PopulationConfig::new(23, 800)))
    }

    fn core_list(p: &Population) -> Vec<String> {
        p.churn.core().to_vec()
    }

    #[test]
    fn shards_partition_the_list_in_order() {
        let p = pop();
        let domains = core_list(p);
        let shards = PopulationShards::new(p, &domains);
        assert!(shards.shard_count() > 1);
        let rejoined: Vec<String> = shards
            .iter()
            .flat_map(|v| v.domains.iter().cloned())
            .collect();
        assert_eq!(rejoined, domains, "shards concatenate to the list");
        for (i, v) in shards.iter().enumerate() {
            assert_eq!(v.shard, i);
        }
    }

    #[test]
    fn subzone_resolves_own_shard_only() {
        let p = pop();
        let domains = core_list(p);
        let shards = PopulationShards::new(p, &domains);
        let zone0 = shards.subzone(0);
        let v0 = shards.view(0);
        for d in v0.domains {
            assert!(
                zone0.lookup_all(d).is_some(),
                "{d} must resolve in its own shard's zone"
            );
            assert_eq!(
                zone0.lookup_all(d),
                p.dns.lookup_all(d),
                "records carry over verbatim"
            );
        }
        let last = shards.view(shards.shard_count() - 1);
        let foreign = &last.domains[0];
        assert!(
            zone0.lookup_all(foreign).is_none(),
            "{foreign} belongs to another shard"
        );
    }
}
