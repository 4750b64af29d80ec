//! Enforce the secret-hygiene lint from `cargo test`.
//!
//! `ts-lint` walks every production `.rs` file in the workspace and fails
//! this test on any unsuppressed finding — non-constant-time comparisons
//! on key material, Debug/Display leak surfaces, missing zeroization,
//! secret-indexed table lookups, secret-tainted values reaching a
//! telemetry sink, lifetime-class violations, skippable wipes, or
//! unjustified `unsafe` — and equally on any *stale* `ctlint.toml`
//! allowlist entry, so suppressions cannot outlive the code they excuse.

use std::path::Path;

#[test]
fn workspace_passes_secret_hygiene_lint() {
    // CARGO_MANIFEST_DIR of the root package IS the workspace root.
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let report = ts_lint::check_workspace(root).expect("ctlint.toml parses");
    assert!(
        report.files_scanned > 50,
        "scanned only {} files — workspace walk is broken",
        report.files_scanned
    );
    assert!(report.is_clean(), "\n{}", report.render());
}

#[test]
fn workspace_report_is_identical_at_any_worker_count() {
    // The parallel driver and the Jacobi flow fixpoint promise
    // byte-identical output regardless of fan-out — the property the
    // determinism rules demand of everything else in this repo.
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let serial = ts_lint::check_workspace_with_workers(root, 1)
        .expect("ctlint.toml parses")
        .render();
    let parallel = ts_lint::check_workspace_with_workers(root, 8)
        .expect("ctlint.toml parses")
        .render();
    assert_eq!(serial, parallel);
}

#[test]
fn concurrency_model_dump_is_identical_at_any_worker_count() {
    // The `--model` dump now includes the inferred lock-acquisition graph
    // and interprocedural held-lock sets; like every other analyzer
    // output, the rendered form must be byte-identical no matter how the
    // parse fan-out is sliced.
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let serial = ts_lint::workspace_concurrency_model(root, 1)
        .expect("ctlint.toml parses")
        .render();
    let parallel = ts_lint::workspace_concurrency_model(root, 8)
        .expect("ctlint.toml parses")
        .render();
    assert_eq!(serial, parallel);
    // The exemplar the lock-order rule checks: STEK republication nests
    // `published` -> `manager` (and nothing else may invert it).
    assert!(
        serial.contains("SharedStekInner.published -> SharedStekInner.manager"),
        "expected the STEK republication edge in the model dump:\n{serial}"
    );
    assert!(
        serial.contains("SharedStekInner.epoch  publishes(published)"),
        "expected the epoch publisher annotation in the model dump:\n{serial}"
    );
}

#[test]
fn stale_concurrency_waiver_fails_the_lint() {
    // `[[concurrency]]` entries obey the same contract as the other
    // waiver sections: one that matches no finding flips the report to
    // not-clean, so a deadlock waiver cannot outlive the cycle it excused.
    let mut config = ts_lint::Config::default();
    config.allows.push(ts_lint::Allow {
        section: ts_lint::RuleFamily::Concurrency,
        rule: "lock-order".into(),
        file: "crates/gone/src/cache.rs".into(),
        ident: "Gone.shards".into(),
        reason: "a cycle that no longer exists".into(),
    });
    let report = ts_lint::analyze_sources(
        &[(
            "lib.rs".into(),
            "fn ok(a: u32, b: u32) -> bool { a == b }".into(),
        )],
        &config,
    );
    assert!(!report.is_clean(), "\n{}", report.render());
    assert_eq!(report.stale_allows.len(), 1, "\n{}", report.render());
    assert!(
        report.stale_allows[0].starts_with("[[concurrency]]"),
        "{}",
        report.stale_allows[0]
    );
}

#[test]
fn stale_lifetime_waiver_fails_the_lint() {
    // A `[[lifetime]]` entry that matches no finding must flip the report
    // to not-clean, exactly like stale `[[allow]]`/`[[determinism]]`
    // entries — shortcut waivers cannot outlive the shortcut they excuse.
    let mut config = ts_lint::Config::default();
    config.allows.push(ts_lint::Allow {
        section: ts_lint::RuleFamily::Lifetime,
        rule: "secret-lifetime".into(),
        file: "crates/gone/src/cache.rs".into(),
        ident: "held".into(),
        reason: "a shortcut that no longer exists".into(),
    });
    let report = ts_lint::analyze_sources(
        &[(
            "lib.rs".into(),
            "fn ok(a: u32, b: u32) -> bool { a == b }".into(),
        )],
        &config,
    );
    assert!(!report.is_clean(), "\n{}", report.render());
    assert_eq!(report.stale_allows.len(), 1, "\n{}", report.render());
    assert!(
        report.stale_allows[0].starts_with("[[lifetime]]"),
        "{}",
        report.stale_allows[0]
    );
}

#[test]
fn removed_connection_api_has_no_callers() {
    // The PR that introduced the sans-I/O `ConnectionCommon` deleted the
    // old `input`/`take_output` surface in the same sweep. This grep keeps
    // it deleted: no file in the workspace may call the removed methods.
    // The needles are assembled at runtime so this test never matches its
    // own source.
    let needles = [
        format!(".{}{}(", "take_", "output"),
        format!(".{}{}(", "in", "put"),
        format!(".{}{}(", "take_", "app_data"),
    ];
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut offenders = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        for entry in std::fs::read_dir(&dir).expect("readable dir") {
            let entry = entry.expect("dir entry");
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if path.is_dir() {
                // Vendored stand-ins and build output are not ours to police.
                if name != "target" && name != "vendor" && name != ".git" {
                    stack.push(path);
                }
            } else if name.ends_with(".rs") {
                let text = std::fs::read_to_string(&path).expect("readable source");
                for needle in &needles {
                    if text.contains(needle.as_str()) {
                        offenders.push(format!(
                            "{}: calls removed API `{}...)`",
                            path.strip_prefix(root).unwrap_or(&path).display(),
                            needle
                        ));
                    }
                }
            }
        }
    }
    assert!(
        offenders.is_empty(),
        "removed connection API still has callers:\n{}",
        offenders.join("\n")
    );
}

#[test]
fn handshake_state_machines_hold_no_panicking_unwraps() {
    // Each handshake state owns its data, so the state machines have no
    // `Option` to unwrap: a message out of order is an `UnexpectedMessage`,
    // never a panic. These files have no test module. The needles are
    // assembled at runtime so this test never matches its own source.
    let needles = [
        format!(".{}(", "expect"),
        format!(".{}(", "expect_err"),
        format!(".{}()", "unwrap"),
        format!("{}!(", "unreachable"),
    ];
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("crates/tls/src");
    let mut offenders = Vec::new();
    for file in ["client.rs", "server.rs", "conn.rs"] {
        let text = std::fs::read_to_string(dir.join(file)).expect("readable source");
        for (line, code) in text.lines().enumerate() {
            for needle in needles.iter().filter(|n| code.contains(n.as_str())) {
                offenders.push(format!("crates/tls/src/{file}:{}: `{needle}`", line + 1));
            }
        }
    }
    assert!(
        offenders.is_empty(),
        "handshake state machines may panic:\n{}",
        offenders.join("\n")
    );
}

#[test]
fn declared_dependencies_are_used() {
    // Every `[dependencies]` edge of the root package and of each crate
    // must be used by that package's `src/`: as a path root (`ts_core::`)
    // or right after `use ` (`pub use ts_crypto as crypto`). A bare word
    // is not enough, since a name like `bytes` also appears in prose.
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut packages = vec![root.to_path_buf()];
    for entry in std::fs::read_dir(root.join("crates")).expect("crates/") {
        packages.push(entry.expect("dir entry").path());
    }
    let mut unused = Vec::new();
    for package in packages {
        let manifest =
            std::fs::read_to_string(package.join("Cargo.toml")).expect("readable manifest");
        let mut source = String::new();
        read_sources(&package.join("src"), &mut source);
        for dep in dependency_names(&manifest) {
            let krate = dep.replace('-', "_");
            if !is_used(&source, &krate) {
                unused.push(format!(
                    "{}: {dep}",
                    package.strip_prefix(root).unwrap_or(&package).display()
                ));
            }
        }
    }
    assert!(
        unused.is_empty(),
        "declared dependencies that no source uses:\n{}",
        unused.join("\n")
    );
}

/// Names listed under `[dependencies]` (not dev- or build-dependencies).
fn dependency_names(manifest: &str) -> Vec<String> {
    let mut in_deps = false;
    let mut names = Vec::new();
    for line in manifest.lines().map(str::trim) {
        if line.starts_with('[') {
            in_deps = line == "[dependencies]";
        } else if in_deps && !line.is_empty() && !line.starts_with('#') {
            let end = line.find(['.', '=', ' ']).unwrap_or(line.len());
            names.push(line[..end].to_string());
        }
    }
    names
}

/// Append every `.rs` file under `dir` to `out`.
fn read_sources(dir: &Path, out: &mut String) {
    for entry in std::fs::read_dir(dir).expect("readable dir") {
        let path = entry.expect("dir entry").path();
        if path.is_dir() {
            read_sources(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push_str(&std::fs::read_to_string(&path).expect("readable source"));
            out.push('\n');
        }
    }
}

/// Does `source` name crate `krate` as a path root or right after `use `?
fn is_used(source: &str, krate: &str) -> bool {
    let ident = |c: char| c.is_alphanumeric() || c == '_';
    source.match_indices(krate).any(|(at, _)| {
        let before = &source[..at];
        let after = &source[at + krate.len()..];
        let whole_word =
            !before.ends_with(|c: char| ident(c) || c == ':') && !after.starts_with(ident);
        whole_word && (after.starts_with("::") || before.ends_with("use "))
    })
}

#[test]
fn telemetry_sink_rule_is_armed_for_the_workspace_scan() {
    // The clean verdict above must include the telemetry-sink rule: the
    // built-in sink names and the extra `[telemetry] sinks` entries from
    // ctlint.toml have to survive config parsing, or the rule silently
    // checks nothing.
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let toml = std::fs::read_to_string(root.join("ctlint.toml")).expect("ctlint.toml");
    let config = ts_lint::Config::from_toml(&toml).expect("ctlint.toml parses");
    for sink in ["observe", "emit", "record", "count_outcome"] {
        assert!(
            config.telemetry_sinks.iter().any(|s| s == sink),
            "telemetry sink `{sink}` missing from the effective config"
        );
    }
    assert!(ts_lint::Rule::all()
        .iter()
        .any(|r| r.id() == "telemetry-sink"));
}
