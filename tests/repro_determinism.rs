//! The determinism claim, proved end to end: `repro` as two separate
//! subprocesses — `--workers 1` vs `--workers 8` — must produce
//! byte-identical stdout and byte-identical `--telemetry-json` artifacts.
//! Checked for Table 6 (STEK groups) and Table 5 (session-cache groups,
//! closed per target chunk and merged in chunk order).
//!
//! This is the strongest form of the guarantee the ts-lint determinism
//! rules and the fixed-chunk `parallel_map` layout exist to uphold:
//! in-process tests can share state by accident, but two OS processes with
//! different ASLR layouts, different `HashMap` seeds, and different thread
//! interleavings can only agree byte-for-byte if results truly are a pure
//! function of `(seed, size, experiment)`.
//!
//! Stdout carries the tables; stderr (progress lines, wall-clock timings)
//! is deliberately outside the claim. The test skips gracefully when the
//! release binary has not been built (`cargo build --release`).

use std::path::PathBuf;
use std::process::Command;

fn repro_binary() -> Option<PathBuf> {
    // CARGO_MANIFEST_DIR of the root package IS the workspace root.
    let bin = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("target")
        .join("release")
        .join("repro");
    bin.is_file().then_some(bin)
}

struct Run {
    stdout: Vec<u8>,
    telemetry: String,
}

fn run_repro(bin: &PathBuf, experiment: &str, workers: usize, tag: &str) -> Run {
    let json_path = std::env::temp_dir().join(format!(
        "repro_det_{}_{experiment}_{tag}_w{workers}.telemetry.json",
        std::process::id()
    ));
    let output = Command::new(bin)
        .args([
            experiment,
            "--size",
            "300",
            "--seed",
            "77",
            "--days",
            "8",
            "--workers",
            &workers.to_string(),
            "--telemetry-json",
        ])
        .arg(&json_path)
        .output()
        .expect("spawn repro");
    assert!(
        output.status.success(),
        "repro --workers {workers} failed:\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    let telemetry = std::fs::read_to_string(&json_path).expect("telemetry artifact written");
    let _ = std::fs::remove_file(&json_path);
    Run {
        stdout: output.stdout,
        telemetry,
    }
}

/// Run `experiment` at `--workers 1`, `--workers 8` and a `--workers 1`
/// replay; all three must agree byte for byte.
fn assert_identical_across_workers(experiment: &str, header: &str) {
    let Some(bin) = repro_binary() else {
        eprintln!("skipping: target/release/repro not built (run `cargo build --release`)");
        return;
    };
    let serial = run_repro(&bin, experiment, 1, "a");
    let fanned = run_repro(&bin, experiment, 8, "b");

    assert!(
        !serial.stdout.is_empty()
            && serial
                .stdout
                .windows(header.len())
                .any(|w| w == header.as_bytes()),
        "{experiment} produced no report on stdout"
    );
    assert_eq!(
        serial.stdout, fanned.stdout,
        "{experiment} stdout diverged between --workers 1 and --workers 8"
    );
    assert_eq!(
        serial.telemetry, fanned.telemetry,
        "{experiment} telemetry artifacts diverged between --workers 1 and --workers 8"
    );

    // Same flags, separate process, different hash seeds: replaying the
    // run must also replay it exactly.
    let replay = run_repro(&bin, experiment, 1, "c");
    assert_eq!(
        serial.stdout, replay.stdout,
        "{experiment} re-run with identical flags diverged"
    );
    assert_eq!(
        serial.telemetry, replay.telemetry,
        "{experiment} telemetry re-run diverged"
    );
}

#[test]
fn repro_output_is_byte_identical_across_worker_counts() {
    assert_identical_across_workers("table6", "TABLE 6");
}

#[test]
fn table5_output_is_byte_identical_across_worker_counts() {
    assert_identical_across_workers("table5", "TABLE 5");
}
