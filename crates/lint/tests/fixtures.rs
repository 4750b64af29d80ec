//! Fixture corpus driver.
//!
//! Every `tests/fixtures/*.rs` snippet declares the findings it must
//! produce in `// expect: <rule-id> <ident>` header lines — none means the
//! snippet must analyze clean. Each file is analyzed in isolation with the
//! default config, and the produced (rule, ident) multiset must match the
//! declaration *exactly*: a bad snippet firing an extra diagnostic is as
//! much a regression as a good snippet firing at all.
//!
//! File-name convention: `bad_*` must declare at least one expectation,
//! `good_*` must declare none. The workspace scan skips `tests/`
//! directories, so the corpus never pollutes the real lint.

use std::collections::BTreeSet;
use std::path::PathBuf;

fn fixture_files() -> Vec<(String, String)> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
    let mut paths: Vec<PathBuf> = std::fs::read_dir(&dir)
        .expect("fixtures directory")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "rs"))
        .collect();
    paths.sort();
    paths
        .into_iter()
        .map(|p| {
            let name = p
                .file_name()
                .expect("file name")
                .to_string_lossy()
                .to_string();
            let src = std::fs::read_to_string(&p).expect("readable fixture");
            (name, src)
        })
        .collect()
}

fn expectations(src: &str) -> Vec<(String, String)> {
    src.lines()
        .filter_map(|l| l.trim().strip_prefix("// expect: "))
        .map(|rest| {
            let mut it = rest.split_whitespace();
            let rule = it.next().expect("expect line: rule id").to_string();
            let ident = it.next().expect("expect line: anchor ident").to_string();
            (rule, ident)
        })
        .collect()
}

#[test]
fn fixtures_produce_exactly_their_expected_diagnostics() {
    let files = fixture_files();
    assert!(
        files.len() >= 10,
        "fixture corpus went missing ({} files)",
        files.len()
    );
    for (name, src) in &files {
        let mut expected = expectations(src);
        if name.starts_with("bad_") {
            assert!(
                !expected.is_empty(),
                "{name}: bad fixture declares no expectations"
            );
        } else if name.starts_with("good_") {
            assert!(
                expected.is_empty(),
                "{name}: good fixture declares expectations"
            );
        } else {
            panic!("{name}: fixture names must start with bad_ or good_");
        }
        let report =
            ts_lint::analyze_sources(&[(name.clone(), src.clone())], &ts_lint::Config::default());
        let mut got: Vec<(String, String)> = report
            .diagnostics
            .iter()
            .map(|d| (d.rule.id().to_string(), d.ident.clone()))
            .collect();
        expected.sort();
        got.sort();
        assert_eq!(
            got,
            expected,
            "{name} diagnostics diverge:\n{}",
            report.render()
        );
    }
}

#[test]
fn every_rule_has_a_firing_and_a_clean_fixture() {
    let files = fixture_files();
    let fired: BTreeSet<String> = files
        .iter()
        .flat_map(|(_, src)| expectations(src))
        .map(|(rule, _)| rule)
        .collect();
    for rule in ts_lint::Rule::all() {
        assert!(
            fired.contains(rule.id()),
            "no firing fixture for {}",
            rule.id()
        );
    }
    let clean = files
        .iter()
        .filter(|(name, _)| name.starts_with("good_"))
        .count();
    assert!(
        clean >= 4,
        "want at least one clean fixture per rule, have {clean}"
    );
}
