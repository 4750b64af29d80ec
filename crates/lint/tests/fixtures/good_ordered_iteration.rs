// Ordered structures, lookup-only hash maps, and sorted drains are all
// legitimate: none of them lets the hash seed reach the output.
use std::collections::{BTreeMap, HashMap};

fn histogram(samples: &[u32]) -> Vec<(u32, usize)> {
    let mut counts: BTreeMap<u32, usize> = BTreeMap::new();
    for s in samples {
        *counts.entry(*s).or_default() += 1;
    }
    counts.into_iter().collect()
}

fn lookup_only(index: &HashMap<String, u64>, key: &str) -> Option<u64> {
    index.get(key).copied()
}

fn sorted_drain(index: &HashMap<String, u64>) -> Vec<String> {
    let mut keys: Vec<String> = index.keys().cloned().collect();
    keys.sort();
    keys
}

fn rekeyed(index: &HashMap<String, u64>) -> BTreeMap<String, u64> {
    index.iter().map(|(k, v)| (k.clone(), *v)).collect::<BTreeMap<String, u64>>()
}
