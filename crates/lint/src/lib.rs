//! # ts-lint — secret-hygiene and constant-time static analysis
//!
//! The crypto-shortcuts study handles live key material on purpose: STEKs,
//! cached (EC)DHE private scalars, master secrets, connection keys. This
//! crate is the workspace's guard rail — a dependency-free static analyzer
//! (the offline build cannot use `syn`) that walks every `.rs` file and
//! reports four classes of secret-hygiene violations:
//!
//! 1. **`non-ct-comparison`** — `==`/`!=` on secret-tainted bytes instead
//!    of `ts_crypto::ct::ct_eq`,
//! 2. **`secret-leak`** — `derive(Debug)`/`Display` on secret-marked types,
//!    or a `format!`/`println!`-family macro mentioning a secret,
//! 3. **`missing-wipe`** — secret-marked types without wipe-on-drop,
//! 4. **`secret-index`** — table lookups indexed by secret-derived data.
//!
//! Secret marking combines a seed list of type names with `// ctlint:
//! secret` / `// ctlint: public` annotations in source; taint propagates
//! through struct fields and function signatures (see [`rules`]) — and,
//! interprocedurally, through call-site arguments and return values via a
//! workspace call graph and fixed-point flow facts (see [`callgraph`] and
//! [`flow`]). Three further families ride on those facts:
//!
//! * **`secret-lifetime`** — ephemeral key material stored into a type
//!   whose `// ctlint: lifetime(connection|epoch|process)` class is
//!   longer than the material's own (see [`lifetime`]); the crypto
//!   shortcuts the paper measures, made visible in source,
//! * **`wipe-on-all-paths`** — an explicit wipe that a `?`/`return`
//!   between binding and wipe can skip,
//! * **`unsafe-audit`** — `unsafe` blocks without a `// SAFETY:` comment,
//!   or reading secret-tainted data.
//!
//! A second family guards the repro's *determinism* claim — that every
//! table, figure, and `--telemetry-json` snapshot is a pure function of
//! the seed (see [`determinism`]):
//!
//! 5. **`unordered-iteration`** — `HashMap`/`HashSet` visit order escaping
//!    into output (iterate/drain/collect without a sort),
//! 6. **`wall-clock`** — `Instant::now`/`SystemTime::now` outside the
//!    sanctioned telemetry/progress boundary,
//! 7. **`ambient-entropy`** — `thread_rng`, `RandomState::new`,
//!    `from_entropy`, env-derived seeds, `process::id`,
//! 8. **`unordered-reduction`** — mutating captured state from inside a
//!    `parallel_map` closure (worker-order dependent).
//!
//! Deliberate exceptions (the AES S-box, the telemetry wall timers, the
//! measured crypto-shortcut windows) live in `ctlint.toml` at the
//! workspace root — hygiene waivers under `[[allow]]`, determinism waivers
//! under `[[determinism]]`, lifetime waivers under `[[lifetime]]`; every
//! entry needs a reason and must keep matching a real finding or the lint
//! fails.
//!
//! Scanning runs through the parallel incremental [`driver`]: parse
//! results are cached by content hash and fan out over
//! `ts_core::par::parallel_map`, with byte-identical output at any worker
//! count. Run it as `cargo run -p ts-lint` (`--workers N`,
//! `--telemetry-json PATH`) or, enforced, via the root-package integration
//! test `tests/lint_clean.rs`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod api;
pub mod callgraph;
pub mod concurrency;
pub mod config;
pub mod determinism;
pub mod diag;
pub mod driver;
pub mod flow;
pub mod index;
pub mod lexer;
pub mod lifetime;
pub mod rules;

use std::path::{Path, PathBuf};

pub use config::{Allow, Config, ConfigError};
pub use diag::{Diagnostic, Report, Rule, RuleFamily};

/// Analyze in-memory sources (used by fixture tests). Applies the
/// allowlist from `config` and reports stale entries.
pub fn analyze_sources(files: &[(String, String)], config: &Config) -> Report {
    analyze_sources_with_workers(files, config, 1)
}

/// [`analyze_sources`] with an explicit worker count. The report is
/// byte-identical at every worker count; workers only change wall time.
pub fn analyze_sources_with_workers(
    files: &[(String, String)],
    config: &Config,
    workers: usize,
) -> Report {
    let (callers, linted): (Vec<_>, Vec<_>) = files
        .iter()
        .cloned()
        .partition(|(path, _)| path.starts_with(api::CALLER_ONLY_PREFIX));
    let indexes = driver::index_files(&linted, workers);
    let caller_indexes = driver::index_files(&callers, workers);
    let raw = rules::analyze_with_workers(&indexes, &caller_indexes, config, workers);
    apply_allowlist(raw, config, linted.len())
}

/// Analyze every production `.rs` file under `root` on `workers` workers,
/// honouring `root/ctlint.toml` if present.
///
/// Skipped trees: `target/`, VCS metadata, `tests/`, `benches/` and
/// `examples/` directories (test code legitimately compares and prints
/// secrets — the same exemption `#[cfg(test)]` modules get), and with
/// them the lint's own `tests/fixtures/` corpus of deliberately-bad
/// snippets. `benches/src` is read back in for the `test-only-api` rule's
/// callers only.
pub fn check_workspace_with_workers(root: &Path, workers: usize) -> Result<Report, ConfigError> {
    let (files, config) = load_workspace(root)?;
    Ok(analyze_sources_with_workers(&files, &config, workers))
}

/// The secret model the analyzer would use for `root` — what `ts-lint
/// --model` prints. Lets a developer see *why* an identifier is tainted.
pub fn workspace_model(root: &Path) -> Result<rules::SecretModel, ConfigError> {
    let (files, config) = load_workspace(root)?;
    let indexes = driver::index_files(&files, 1);
    Ok(rules::SecretModel::build(&indexes, &config))
}

/// The hash-collection model the determinism rules would use for `root` —
/// the `hash fields` / `hash fns` lines of `ts-lint --model`.
pub fn workspace_determinism_model(
    root: &Path,
) -> Result<determinism::DeterminismModel, ConfigError> {
    let (files, _config) = load_workspace(root)?;
    let indexes = driver::index_files(&files, 1);
    Ok(determinism::DeterminismModel::build(&indexes))
}

/// The concurrency model — lock-field declarations, the global
/// lock-acquisition graph, interprocedural held-lock sets, and publisher
/// atomics — as printed by `ts-lint --model`. Deterministic (name-sorted)
/// and byte-identical for every `workers` value.
pub fn workspace_concurrency_model(
    root: &Path,
    workers: usize,
) -> Result<concurrency::ConcurrencyModel, ConfigError> {
    let (files, _config) = load_workspace(root)?;
    let indexes = driver::index_files(&files, workers);
    let graph = callgraph::CallGraph::build(&indexes);
    Ok(concurrency::ConcurrencyModel::build(&indexes, &graph))
}

fn load_workspace(root: &Path) -> Result<(Vec<(String, String)>, Config), ConfigError> {
    let config_path = root.join("ctlint.toml");
    let config = match std::fs::read_to_string(&config_path) {
        Ok(text) => Config::from_toml(&text)?,
        Err(_) => Config::default(),
    };
    let mut paths = Vec::new();
    collect_rs_files(root, root, &mut paths);
    // The public API's callers in the benchmark crate (see [`api`]).
    collect_rs_files(root, &root.join(api::CALLER_ONLY_PREFIX), &mut paths);
    paths.sort();
    let files: Vec<(String, String)> = paths
        .into_iter()
        .filter_map(|p| {
            let rel = p
                .strip_prefix(root)
                .unwrap_or(&p)
                .to_string_lossy()
                .replace('\\', "/");
            std::fs::read_to_string(&p).ok().map(|src| (rel, src))
        })
        .collect();
    Ok((files, config))
}

fn collect_rs_files(root: &Path, dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        let name = entry.file_name().to_string_lossy().to_string();
        if path.is_dir() {
            if matches!(
                name.as_str(),
                "target" | ".git" | "tests" | "benches" | "examples"
            ) {
                continue;
            }
            collect_rs_files(root, &path, out);
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
}

fn apply_allowlist(raw: Vec<Diagnostic>, config: &Config, files_scanned: usize) -> Report {
    let mut report = Report {
        files_scanned,
        ..Report::default()
    };
    let mut matched = vec![false; config.allows.len()];
    for d in raw {
        let mut hit = false;
        for (i, a) in config.allows.iter().enumerate() {
            if a.matches(&d) {
                matched[i] = true;
                hit = true;
            }
        }
        if hit {
            report.suppressed.push(d);
        } else {
            report.diagnostics.push(d);
        }
    }
    for (i, a) in config.allows.iter().enumerate() {
        if !matched[i] {
            report.stale_allows.push(a.describe());
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allowlist_suppresses_and_detects_stale() {
        let src = "// ctlint: secret\nfn sub(s: &mut [u8]) { s[0] = T[s[0] as usize]; }";
        let mut cfg = Config::default();
        cfg.allows.push(Allow {
            section: diag::RuleFamily::Hygiene,
            rule: "secret-index".into(),
            file: "aes.rs".into(),
            ident: "T".into(),
            reason: "test".into(),
        });
        cfg.allows.push(Allow {
            section: diag::RuleFamily::Hygiene,
            rule: "secret-index".into(),
            file: "gone.rs".into(),
            ident: "OLD".into(),
            reason: "stale".into(),
        });
        let report = analyze_sources(&[("crates/x/src/aes.rs".into(), src.into())], &cfg);
        assert!(report.diagnostics.is_empty(), "{}", report.render());
        assert_eq!(report.suppressed.len(), 1);
        assert_eq!(report.stale_allows.len(), 1);
        assert!(!report.is_clean());
    }

    #[test]
    fn clean_sources_are_clean() {
        let report = analyze_sources(
            &[(
                "lib.rs".into(),
                "fn ok(a: u32, b: u32) -> bool { a == b }".into(),
            )],
            &Config::default(),
        );
        assert!(report.is_clean(), "{}", report.render());
    }
}
