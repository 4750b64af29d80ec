//! The interprocedural contract: taint that crosses function boundaries
//! through innocently-typed channels must still reach the rules, the call
//! graph must be a pure total function of its input, and the report must
//! not depend on the worker count.

use proptest::prelude::*;

/// A master secret laundered through two helper hops — each typed as a
/// plain `Vec<u8>` — into a telemetry sink in a third file. No single file
/// shows a violation on its own; only the workspace call graph does.
#[test]
fn two_hop_leak_reaches_the_sink_rule() {
    let files: Vec<(String, String)> = [
        (
            "crates/a/src/hop1.rs",
            "fn acquire(state: &SessionState) {\n    \
             relay(state.master_secret.to_vec());\n}\n",
        ),
        (
            "crates/b/src/hop2.rs",
            "fn relay(material: Vec<u8>) {\n    deliver(material);\n}\n",
        ),
        (
            "crates/c/src/hop3.rs",
            "fn deliver(payload: Vec<u8>) {\n    \
             LATENCY.observe(payload[0] as u64);\n}\n",
        ),
    ]
    .into_iter()
    .map(|(p, s)| (p.to_string(), s.to_string()))
    .collect();

    // Each file in isolation is clean — the leak is invisible lexically.
    for f in &files {
        let solo = ts_lint::analyze_sources(std::slice::from_ref(f), &ts_lint::Config::default());
        assert!(solo.is_clean(), "{}: {}", f.0, solo.render());
    }

    // Together, the sink call in the third file fires.
    let report = ts_lint::analyze_sources(&files, &ts_lint::Config::default());
    assert_eq!(report.diagnostics.len(), 1, "{}", report.render());
    let d = &report.diagnostics[0];
    assert_eq!(d.rule.id(), "telemetry-sink");
    assert_eq!(d.file, "crates/c/src/hop3.rs");
    assert_eq!(d.ident, "payload");

    // And the report is byte-identical at any worker count.
    for workers in [2usize, 8] {
        let multi =
            ts_lint::analyze_sources_with_workers(&files, &ts_lint::Config::default(), workers);
        assert_eq!(multi.render(), report.render(), "workers={workers}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    // Call-graph construction is total (never panics on rust-shaped soup)
    // and deterministic (two builds over the same indexes agree exactly).
    #[test]
    fn callgraph_build_is_total_and_deterministic(
        srcs in proptest::collection::vec(
            "[a-zA-Z0-9_ .:;,<>=!&|'\"/#\\[\\]{}()*?-]{0,160}",
            1..6,
        ),
    ) {
        let files: Vec<ts_lint::index::FileIndex> = srcs
            .iter()
            .enumerate()
            .map(|(i, s)| ts_lint::index::scan_file(&format!("f{i}.rs"), s))
            .collect();
        let a = ts_lint::callgraph::CallGraph::build(&files);
        let b = ts_lint::callgraph::CallGraph::build(&files);
        prop_assert_eq!(&a.defs, &b.defs);
        prop_assert_eq!(&a.calls, &b.calls);
        // Shape invariant the flow solver indexes by: one call-site list
        // per (file, fn).
        prop_assert_eq!(a.calls.len(), files.len());
        for (f, per_fn) in files.iter().zip(&a.calls) {
            prop_assert_eq!(per_fn.len(), f.fns.len());
        }
        // Every resolved name must point at an in-bounds production fn.
        for (name, ids) in &a.defs {
            if let Some(id) = a.resolve(name) {
                prop_assert_eq!(ids.len(), 1);
                prop_assert!(id.file < files.len());
                prop_assert!(id.fn_idx < files[id.file].fns.len());
            }
        }
    }
}
