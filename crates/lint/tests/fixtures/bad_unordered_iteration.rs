// expect: unordered-iteration counts
// A HashMap's randomized visit order escapes straight into the returned
// vector: two runs with different hash seeds print different rows.
use std::collections::HashMap;

fn histogram(samples: &[u32]) -> Vec<(u32, usize)> {
    let mut counts: HashMap<u32, usize> = HashMap::new();
    for s in samples {
        *counts.entry(*s).or_default() += 1;
    }
    let mut rows = Vec::new();
    for (k, v) in counts {
        rows.push((k, v));
    }
    rows
}
