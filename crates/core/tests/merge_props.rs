//! Property-based tests for the shard-merge law ([`ts_core::stream::Merge`]).
//!
//! The sharded campaign rests on one algebraic claim: feeding a stream
//! through a single accumulator, or splitting it across shard-local
//! accumulators and merging them, yields the same analysis results.
//! These properties pin the law in the three regimes the campaign uses:
//!
//! * **exact mode, arbitrary splits** — every record can land in any
//!   shard and merge order cannot matter (SpanAcc, CountCdf, TierAcc,
//!   TopK);
//! * **exact mode, contiguous splits in shard order** — the regime the
//!   campaign's fixed shard layout guarantees, where even the
//!   order-sensitive group *labelling* must reproduce the single-pass
//!   output byte for byte (GroupAcc);
//! * **horizon mode, domain-/id-partitioned splits** — eviction stays
//!   equivalent as long as per-domain (per-identifier) state never
//!   straddles two accumulators, which the shard layout also guarantees.

use proptest::prelude::*;
use std::collections::BTreeSet;
use ts_core::stream::{CountCdf, GroupAcc, Merge, SpanAcc, TierAcc, TopK};
use ts_core::tiers::Tier;

/// A sighting stream: (domain, id, day), with a shard assignment.
fn sightings(max_len: usize) -> impl Strategy<Value = Vec<(String, String, u64, usize)>> {
    proptest::collection::vec(
        ("[ab][0-3]\\.sim", "[w-z][0-2]", 0u64..40, 0usize..4),
        1..max_len,
    )
}

/// Merge `parts` into one accumulator, in the given order.
fn merge_all<T: Merge>(parts: Vec<T>) -> T {
    let mut it = parts.into_iter();
    let mut acc = it.next().expect("at least one shard");
    for p in it {
        acc.merge(p);
    }
    acc
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    // --- SpanAcc, exact mode: full order independence ---

    #[test]
    fn span_acc_sharded_equals_single_any_split(
        stream in sightings(150),
    ) {
        let mut single = SpanAcc::exact();
        let mut shards: Vec<SpanAcc> = (0..4).map(|_| SpanAcc::exact()).collect();
        for (domain, id, day, shard) in &stream {
            single.record(domain, id, *day);
            shards[*shard].record(domain, id, *day);
        }
        // Forward and reverse merge orders both match the single pass:
        // with associativity (below) this covers arbitrary groupings.
        let forward = merge_all(shards.clone());
        let mut reversed = shards;
        reversed.reverse();
        let backward = merge_all(reversed);
        for merged in [&forward, &backward] {
            prop_assert_eq!(merged.domain_spans(), single.domain_spans());
            prop_assert_eq!(merged.pair_count(), single.pair_count());
            prop_assert_eq!(merged.watermark(), single.watermark());
            prop_assert_eq!(merged.max_spans(), single.max_spans());
        }
    }

    #[test]
    fn span_acc_merge_is_associative(
        stream in sightings(120),
    ) {
        let mut parts: Vec<SpanAcc> = (0..3).map(|_| SpanAcc::exact()).collect();
        for (domain, id, day, shard) in &stream {
            parts[shard % 3].record(domain, id, *day);
        }
        let [a, b, c] = <[SpanAcc; 3]>::try_from(parts).ok().unwrap();
        // (a ⊕ b) ⊕ c
        let mut left = a.clone();
        left.merge(b.clone());
        left.merge(c.clone());
        // a ⊕ (b ⊕ c)
        let mut bc = b;
        bc.merge(c);
        let mut right = a;
        right.merge(bc);
        prop_assert_eq!(left.domain_spans(), right.domain_spans());
        prop_assert_eq!(left.pair_count(), right.pair_count());
        prop_assert_eq!(left.domains_with_span_at_least(2),
                        right.domains_with_span_at_least(2));
    }

    // --- SpanAcc, horizon mode: domain-partitioned splits ---

    #[test]
    fn span_acc_horizon_sharded_equals_single_domain_partition(
        stream in sightings(150),
        horizon in 1u64..12,
    ) {
        // Day-lockstep replay, as the campaign runs it: all of day d is
        // recorded, then every accumulator advances to d. Domains are
        // partitioned by shard of their name, so per-domain state never
        // straddles accumulators.
        let mut stream = stream;
        stream.sort_by_key(|(_, _, day, _)| *day);
        let shard_of = |domain: &str| domain.as_bytes()[1] as usize % 2;
        let mut single = SpanAcc::with_horizon(Some(horizon));
        let mut shards: Vec<SpanAcc> =
            (0..2).map(|_| SpanAcc::with_horizon(Some(horizon))).collect();
        let last_day = stream.iter().map(|(_, _, d, _)| *d).max().unwrap();
        for day in 0..=last_day {
            for (domain, id, d, _) in stream.iter().filter(|(_, _, d, _)| *d == day) {
                single.record(domain, id, *d);
                shards[shard_of(domain)].record(domain, id, *d);
            }
            single.advance(day);
            for s in &mut shards {
                s.advance(day);
            }
        }
        let merged = merge_all(shards);
        prop_assert_eq!(merged.domain_spans(), single.domain_spans());
        prop_assert_eq!(merged.pair_count(), single.pair_count());
    }

    // --- SpanAcc: each shard numbers its domains in its own order ---

    #[test]
    fn span_acc_merge_is_independent_of_interning_order(
        stream in sightings(150),
        horizon in 0u64..12,
    ) {
        // A shard interns a domain at its first sighting. Day-lockstep
        // replay: each day, even shards take their sightings forward and
        // odd shards backward, and the single accumulator takes the
        // shards' day batches one after another. Without a horizon the
        // split is arbitrary, so shards share domains and number them
        // differently; with one it is by domain, as the campaign's is.
        let horizon = (horizon > 0).then_some(horizon);
        let mut stream = stream;
        stream.sort_by_key(|(_, _, day, _)| *day);
        let shard_of = |domain: &str, shard: usize| match horizon {
            Some(_) => domain.as_bytes()[1] as usize % 4,
            None => shard,
        };
        let mut single = SpanAcc::with_horizon(horizon);
        let mut shards: Vec<SpanAcc> = (0..4).map(|_| SpanAcc::with_horizon(horizon)).collect();
        let last_day = stream.iter().map(|(_, _, d, _)| *d).max().unwrap();
        for day in 0..=last_day {
            for (s, shard) in shards.iter_mut().enumerate() {
                let mut batch: Vec<_> = stream
                    .iter()
                    .filter(|(domain, _, d, sh)| *d == day && shard_of(domain, *sh) == s)
                    .collect();
                if s % 2 == 1 {
                    batch.reverse();
                }
                for (domain, id, d, _) in batch {
                    shard.record(domain, id, *d);
                    single.record(domain, id, *d);
                }
            }
            single.advance(day);
            for s in &mut shards {
                s.advance(day);
            }
        }
        let merged = merge_all(shards);
        prop_assert_eq!(merged.domain_spans(), single.domain_spans());
        prop_assert_eq!(merged.pair_count(), single.pair_count());
        prop_assert_eq!(merged.live_pairs(), single.live_pairs());
    }

    // --- CountCdf / TierAcc ---

    #[test]
    fn count_cdf_sharded_equals_single_any_split(
        samples in proptest::collection::vec((0u64..200, 0usize..4), 1..200),
    ) {
        let mut single = CountCdf::new();
        let mut shards: Vec<CountCdf> = (0..4).map(|_| CountCdf::new()).collect();
        for (v, shard) in &samples {
            single.add(*v);
            shards[*shard].add(*v);
        }
        let forward = merge_all(shards.clone());
        let mut reversed = shards;
        reversed.reverse();
        let backward = merge_all(reversed);
        prop_assert_eq!(&forward, &single);
        prop_assert_eq!(&backward, &single);
        // Query surface agrees with a brute-force count over the samples.
        let mut sorted: Vec<u64> = samples.iter().map(|(v, _)| *v).collect();
        sorted.sort_unstable();
        for x in [0, 50, 199] {
            let le = sorted.iter().filter(|&&v| v <= x).count();
            let ge = sorted.iter().filter(|&&v| v >= x).count();
            prop_assert_eq!(forward.count_ge(x), ge);
            prop_assert_eq!(forward.fraction_le(x), le as f64 / sorted.len() as f64);
        }
        prop_assert_eq!(forward.median(), Some(sorted[(sorted.len() - 1) / 2]));
    }

    #[test]
    fn tier_acc_sharded_equals_single_any_split(
        records in proptest::collection::vec(
            (1usize..5000, 0u64..64, 0usize..3), 1..150),
    ) {
        const TIERS: &[Tier] = &[
            Tier { label: "Top 100", limit: 100 },
            Tier { label: "Top 1K", limit: 1_000 },
            Tier { label: "All", limit: usize::MAX },
        ];
        let mut single = TierAcc::new(TIERS);
        let mut shards: Vec<TierAcc> = (0..3).map(|_| TierAcc::new(TIERS)).collect();
        for (rank, value, shard) in &records {
            single.record(*rank, *value);
            shards[*shard].record(*rank, *value);
        }
        let merged = merge_all(shards);
        prop_assert_eq!(merged.cdfs(), single.cdfs());
    }

    // --- GroupAcc, exact mode: contiguous splits in shard order ---

    #[test]
    fn group_acc_contiguous_shards_equal_single_exactly(
        stream in sightings(150),
        links in proptest::collection::vec(
            ("[a-c][0-3]\\.sim", "[a-c][0-3]\\.sim", 0usize..150), 0..20),
        cut in 1usize..149,
    ) {
        // The campaign's regime: shard 0's stream precedes shard 1's, and
        // merges happen in shard order — then even name-interning order
        // (hence group labelling and tie-breaks) reproduces exactly.
        // Links (Table 5's cross-domain resumptions) ride in the same
        // stream, after the sighting at their position.
        let cut = cut.min(stream.len());
        let mut single = GroupAcc::exact();
        let mut left = GroupAcc::exact();
        let mut right = GroupAcc::exact();
        for (i, (domain, id, day, _)) in stream.iter().enumerate() {
            let shard = if i < cut { &mut left } else { &mut right };
            single.record(domain, id, *day);
            shard.record(domain, id, *day);
            for (a, b, _) in links.iter().filter(|(_, _, at)| at % stream.len() == i) {
                single.link(a, b);
                shard.link(a, b);
            }
        }
        left.merge(right);
        prop_assert_eq!(left.groups(), single.groups());
        prop_assert_eq!(left.service_groups(), single.service_groups());
    }

    // --- GroupAcc, horizon mode: id-partitioned splits ---

    #[test]
    fn group_acc_horizon_id_partition_same_partition(
        stream in sightings(150),
        horizon in 1u64..12,
    ) {
        // Identifiers are partitioned across accumulators (each id's
        // sightings all reach one shard), so sharing edges form locally
        // and eviction retires the same ids. The *partition* of domains
        // into groups must agree; labelling order may differ between the
        // interleaved and concatenated feeds, so compare canonical sets.
        let mut stream = stream;
        stream.sort_by_key(|(_, _, day, _)| *day);
        let shard_of = |id: &str| id.as_bytes()[1] as usize % 2;
        let mut single = GroupAcc::with_horizon(Some(horizon));
        let mut shards: Vec<GroupAcc> =
            (0..2).map(|_| GroupAcc::with_horizon(Some(horizon))).collect();
        let last_day = stream.iter().map(|(_, _, d, _)| *d).max().unwrap();
        for day in 0..=last_day {
            for (domain, id, d, _) in stream.iter().filter(|(_, _, d, _)| *d == day) {
                single.record(domain, id, *d);
                shards[shard_of(id)].record(domain, id, *d);
            }
            single.advance(day);
            for s in &mut shards {
                s.advance(day);
            }
        }
        let mut merged = merge_all(shards);
        let canon = |groups: Vec<Vec<String>>| -> BTreeSet<Vec<String>> {
            groups.into_iter().collect()
        };
        prop_assert_eq!(canon(merged.groups()), canon(single.groups()));
        prop_assert_eq!(merged.evicted_ids(), single.evicted_ids());
    }

    // --- TopK ---

    #[test]
    fn top_k_sharded_equals_single_any_split(
        entries in proptest::collection::vec(("[a-f][0-9]", 0u64..100, 0usize..3), 1..120),
        k in 1usize..12,
    ) {
        let mut single = TopK::new(k);
        let mut shards: Vec<TopK> = (0..3).map(|_| TopK::new(k)).collect();
        for (name, value, shard) in &entries {
            single.push(name, *value);
            shards[*shard].push(name, *value);
        }
        let merged = merge_all(shards);
        prop_assert_eq!(merged.into_vec(), single.into_vec());
    }
}
