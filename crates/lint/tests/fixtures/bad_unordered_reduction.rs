// expect: unordered-reduction total
// Mutating captured state from inside a parallel_map closure makes the
// result depend on which worker gets there first.
fn sum_via_captured_accumulator(items: &[u64]) -> u64 {
    let mut total = 0u64;
    parallel_map(items, 8, |_id, chunk| {
        for x in chunk {
            total += *x;
        }
        Vec::<u64>::new()
    });
    total
}

fn parallel_map<T, R>(items: &[T], workers: usize, f: impl FnMut(usize, &[T]) -> Vec<R>) -> Vec<R> {
    let mut f = f;
    let _ = workers;
    f(0, items)
}
