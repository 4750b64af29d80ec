//! `benchmark` — run one workload, or repeat runs in child processes.
//!
//! ```text
//! benchmark [--workload NAME|all] [--seed S] [--seconds T] [--trace 0|1]
//!           [--runs N] [--sets K]
//! ```
//!
//! One workload with one run measures in this process: the end-to-end
//! metrics untraced (`--trace 0`), or the per-layer metrics from a traced
//! replay plus calibration (`--trace 1`, spans written to
//! `benches/out/spans-<workload>.json`). Standard output then ends with a
//! manifest line and the result line
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}`.
//! `--workload all`, `--runs N` or `--sets K` instead run every (workload,
//! run) as a child process and report medians and quartiles; with
//! `--sets 2` the sets must agree within the bounds in `BENCHMARK.json`.

use std::process::ExitCode;
use ts_benchmark::report::{self, Metric};
use ts_benchmark::trace::{attribute, spans_json};
use ts_benchmark::{agree, calibrate, manifest, peak_rss_kb, Workload, WORKERS};
use ts_core::json::Json;

const USAGE: &str = "usage: benchmark [--workload NAME|all] [--seed S] [--seconds T] \
                     [--trace 0|1] [--runs N] [--sets K]\n\
                     workloads: campaign resumption_scans handshake_full resume_bulk";

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    runs: usize,
    sets: usize,
}

fn parse(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 2016,
        seconds: 20.0,
        trace: false,
        runs: 1,
        sets: 1,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                args.workload = match name.as_str() {
                    "all" => None,
                    _ => Some(Workload::from_name(name).ok_or(format!("unknown workload {name}"))?),
                };
            }
            "--seed" => args.seed = value()?.parse().map_err(|_| "--seed takes an integer")?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|_| "--seconds takes a number")?;
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--runs" => args.runs = value()?.parse().map_err(|_| "--runs takes an integer")?,
            "--sets" => args.sets = value()?.parse().map_err(|_| "--sets takes an integer")?,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let seconds_ok = args.seconds.is_finite() && args.seconds > 0.0;
    if !seconds_ok || args.runs == 0 || args.sets == 0 {
        return Err("--seconds, --runs and --sets must be positive and finite".into());
    }
    Ok(args)
}

/// Measure one workload in this process; returns whether every check held.
fn run_one(workload: Workload, args: &Args) -> Result<bool, String> {
    ts_core::par::set_default_workers(WORKERS);
    let (metrics, attempted, failed, mut failures, extra) = if args.trace {
        let traced = workload.trace(args.seed);
        let attribution = attribute(&traced.spans)?;
        let calibration = calibrate::run(args.seed)?;
        let out_dir = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
        std::fs::create_dir_all(out_dir).map_err(|e| format!("{out_dir}: {e}"))?;
        let path = format!("{out_dir}/spans-{}.json", workload.name());
        std::fs::write(&path, spans_json(workload.name(), &traced.spans))
            .map_err(|e| format!("{path}: {e}"))?;
        let mut failures = traced.failures.clone();
        let total: f64 = attribution.layers.values().sum();
        if (total - attribution.wall_ns).abs() > 0.01 * attribution.wall_ns {
            failures.push(format!(
                "layer rows sum to {total} ns, traced wall is {} ns",
                attribution.wall_ns
            ));
        }
        let unattributed =
            attribution.pct(attribution.layer_ns(ts_benchmark::trace::Layer::Unattributed));
        if unattributed >= 15.0 {
            failures.push(format!(
                "unattributed share {unattributed:.1}% is not under 15%"
            ));
        }
        let metrics = report::per_layer(&traced, &attribution, &calibration)?;
        let extra = vec![
            ("spans", Json::uint(traced.spans.len() as u64)),
            ("spans_file", Json::str(path)),
        ];
        (metrics, traced.attempted, traced.failed, failures, extra)
    } else {
        let measured = workload.measure(args.seed, args.seconds);
        let rss = peak_rss_kb().ok_or("VmHWM unavailable")?;
        let metrics = report::end_to_end(&measured, rss)?;
        let digests = measured
            .digests
            .iter()
            .map(|(what, d)| (what.clone(), Json::str(d.clone())))
            .collect();
        let extra = vec![
            ("iterations", Json::uint(measured.iterations)),
            ("windows", Json::uint(measured.windows.len() as u64)),
            ("handshakes", Json::uint(measured.handshakes)),
            ("setup_samples", Json::uint(measured.setup_s.len() as u64)),
            ("measured_wall_s", Json::Float(measured.wall_s)),
            ("digests", Json::Object(digests)),
        ];
        (
            metrics,
            measured.attempted,
            measured.failed,
            measured.failures,
            extra,
        )
    };
    if let Some(m) = metrics.iter().find(|m| !m.value.is_finite()) {
        failures.push(format!("{} is not a finite number", m.name));
    }
    print_table(workload, &metrics);
    for f in &failures {
        eprintln!("[benchmark] check failed: {f}");
    }
    let correct = failures.is_empty() && failed == 0 && attempted > 0;
    let manifest = manifest::manifest(workload, args.seed, args.seconds, args.trace, extra);
    println!(
        "{}",
        Json::obj(vec![("manifest", manifest)]).to_json_string()
    );
    println!(
        "{}",
        report::result_line(correct, attempted, failed, &metrics)
    );
    Ok(correct)
}

fn print_table(workload: Workload, metrics: &[Metric]) {
    for m in metrics {
        eprintln!(
            "[benchmark] {:<17} {:<36} {:>16.4} {}",
            workload.name(),
            m.name,
            m.value,
            m.unit
        );
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.iter().any(|a| a == "--help" || a == "-h") {
        eprintln!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("benchmark: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = match args.workload {
        Some(w) if args.runs == 1 && args.sets == 1 => run_one(w, &args),
        _ => agree::run(&agree::Plan {
            workloads: args.workload.map_or(Workload::ALL.to_vec(), |w| vec![w]),
            runs: args.runs,
            sets: args.sets,
            seed: args.seed,
            seconds: args.seconds,
            trace: args.trace,
        }),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}
