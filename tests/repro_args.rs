//! `repro` rejects a malformed command line before it builds a world:
//! exit status 2, the offending argument and the usage line on stderr,
//! and no `[repro] building population` line. Without `--size`, that
//! world would have 8000 domains.

use std::process::Command;

/// Run `repro` with `args` and check it is refused naming `offender`.
fn assert_refused(args: &[&str], offender: &str) {
    let output = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("spawn repro");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(2), "repro {args:?}: {stderr}");
    assert!(stderr.contains(offender), "repro {args:?}: {stderr}");
    assert!(stderr.contains("usage: repro"), "repro {args:?}: {stderr}");
    assert!(
        !stderr.contains("[repro] building population"),
        "repro {args:?} built a world: {stderr}"
    );
    assert!(output.stdout.is_empty(), "repro {args:?} printed a report");
}

#[test]
fn misspelled_flag_is_refused_before_the_world_is_built() {
    assert_refused(&["--size", "200", "--sede", "5"], "--sede");
}

#[test]
fn flag_without_a_value_is_refused() {
    assert_refused(&["table1", "--size"], "--size needs a value");
    assert_refused(&["--size", "many"], "'many'");
}

#[test]
fn unknown_experiment_is_refused() {
    assert_refused(&["--size", "200", "tabel1"], "unknown experiment 'tabel1'");
}
