//! The `test-only-api` rule over a workspace laid out on disk: which
//! trees count as production callers depends on where a file lives, so
//! these cases need real `tests/`, `examples/`, `src/bin`, `benches/src`
//! and `vendor/` directories, walked by `check_workspace_with_workers`.

use std::path::{Path, PathBuf};

/// A scratch workspace that removes itself when dropped.
struct Workspace(PathBuf);

impl Workspace {
    fn new(name: &str, files: &[(&str, &str)]) -> Workspace {
        let root = std::env::temp_dir().join(format!("ts-lint-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        for (path, src) in files {
            let path = root.join(path);
            std::fs::create_dir_all(path.parent().expect("file has a parent")).expect("mkdir");
            std::fs::write(&path, src).expect("write source");
        }
        Workspace(root)
    }

    fn root(&self) -> &Path {
        &self.0
    }
}

impl Drop for Workspace {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

const LIB: &str = "\
pub fn from_bin() {}
pub fn from_bench() {}
pub fn from_test_dir() {}
pub fn from_example() {}
pub fn from_unit_test() {}
pub fn waived_probe() {}
pub(crate) fn crate_only() {}
pub fn twice() {}

#[cfg(test)]
mod tests {
    #[test]
    fn reads() {
        super::from_unit_test();
        super::waived_probe();
        super::crate_only();
    }
}
";

fn files<'a>(ctlint: &'a str) -> Vec<(&'a str, &'a str)> {
    vec![
        ("crates/a/src/lib.rs", LIB),
        ("crates/b/src/lib.rs", "pub fn twice() {}\n"),
        ("src/bin/tool.rs", "fn main() { a::from_bin(); }\n"),
        ("benches/src/lib.rs", "pub fn run() { a::from_bench(); }\n"),
        (
            "crates/a/tests/t.rs",
            "#[test]\nfn t() { a::from_test_dir(); }\n",
        ),
        (
            "crates/a/examples/e.rs",
            "fn main() { a::from_example(); }\n",
        ),
        ("vendor/v/src/lib.rs", "pub fn vendored_unused() {}\n"),
        ("ctlint.toml", ctlint),
    ]
}

const WAIVER: &str = "[[api]]\nrule = \"test-only-api\"\nfile = \"crates/a/src/lib.rs\"\n\
                      ident = \"waived_probe\"\nreason = \"crates/a/src/lib.rs tests read it\"\n";

#[test]
fn only_test_and_example_callers_are_flagged() {
    let ws = Workspace::new("api-flags", &files(WAIVER));
    let report = ts_lint::check_workspace_with_workers(ws.root(), 1).expect("ctlint.toml parses");
    let flagged: Vec<&str> = report
        .diagnostics
        .iter()
        .map(|d| {
            assert_eq!(d.rule.id(), "test-only-api", "{}", report.render());
            d.ident.as_str()
        })
        .collect();
    // Callers in `#[cfg(test)]`, `tests/` and `examples/` do not count.
    // `src/bin` and `benches/src` callers do; a `pub(crate)` fn, a name
    // defined twice and a `vendor/` fn are never findings.
    assert_eq!(
        flagged,
        ["from_test_dir", "from_example", "from_unit_test"],
        "{}",
        report.render()
    );
    // The [[api]] entry suppresses its finding and is not stale.
    assert_eq!(report.suppressed.len(), 1, "{}", report.render());
    assert_eq!(report.suppressed[0].ident, "waived_probe");
    assert!(report.stale_allows.is_empty(), "{}", report.render());
    // `benches/src` is read for callers only: no rule reports on it, and
    // it is not counted as a scanned file.
    assert!(report
        .diagnostics
        .iter()
        .all(|d| !d.file.starts_with("benches/")));
    assert_eq!(report.files_scanned, 4, "{}", report.render());
}

#[test]
fn a_stale_api_waiver_fails_the_lint() {
    let stale = WAIVER.replace("waived_probe", "deleted_probe");
    let ws = Workspace::new("api-stale", &files(&stale));
    let report = ts_lint::check_workspace_with_workers(ws.root(), 1).expect("ctlint.toml parses");
    assert!(!report.is_clean());
    assert_eq!(report.stale_allows.len(), 1, "{}", report.render());
    assert!(
        report.stale_allows[0].starts_with("[[api]]"),
        "{}",
        report.stale_allows[0]
    );
    // The function the dead entry no longer covers is a live finding.
    assert!(report.diagnostics.iter().any(|d| d.ident == "waived_probe"));
}
