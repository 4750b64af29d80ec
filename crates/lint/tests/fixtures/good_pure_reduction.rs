// The closure returns its chunk's partial result and the harness
// concatenates in chunk order — no captured state, no worker races.
fn sum_via_chunk_results(items: &[u64]) -> u64 {
    let partials = parallel_map(items, 8, |_id, chunk| vec![chunk.iter().sum::<u64>()]);
    partials.into_iter().sum()
}

fn parallel_map<T, R>(items: &[T], workers: usize, f: impl Fn(usize, &[T]) -> Vec<R>) -> Vec<R> {
    let _ = workers;
    f(0, items)
}
