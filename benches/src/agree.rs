//! Repeated runs, each in a fresh child process (`--runs N`), and the
//! agreement check between alternating sets of them (`--sets 2`).
//!
//! A child per (workload, run) keeps `peak_rss_kb`, telemetry deltas and
//! process-wide caches (the Montgomery contexts) per run. Run `i` of every
//! set uses seed `seed + i`; the set order alternates from run to run so
//! drift on the host does not favour one set.

use crate::stats::{median, quartiles};
use crate::Workload;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, Stdio};
use ts_core::json::Json;

/// `BENCHMARK.json` at the repository root.
pub(crate) fn benchmark_json_path() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
}

/// An end-to-end metric's regression bound, from `BENCHMARK.json`.
struct Bound {
    name: String,
    unit: String,
    lower_is_better: bool,
    bound: f64,
}

fn number(v: &Json) -> Result<f64, String> {
    match v {
        Json::Float(f) => Ok(*f),
        Json::Int(i) => Ok(*i as f64),
        other => Err(format!("expected a number, got {other:?}")),
    }
}

fn bounds() -> Result<Vec<Bound>, String> {
    let path = benchmark_json_path();
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = Json::parse(&text).map_err(|e| e.to_string())?;
    let list = doc
        .field("end_to_end")
        .and_then(Json::as_array)
        .map_err(|e| e.to_string())?;
    list.iter()
        .map(|m| {
            let s = |k| m.field(k).and_then(Json::as_str).map_err(|e| e.to_string());
            Ok(Bound {
                name: s("name")?.to_string(),
                unit: s("unit")?.to_string(),
                lower_is_better: s("better")? == "lower",
                bound: number(m.field("bound").map_err(|e| e.to_string())?)?,
            })
        })
        .collect()
}

/// What the repeated runs are.
pub struct Plan {
    /// Workloads, each run `runs` times per set.
    pub workloads: Vec<Workload>,
    /// Runs per set.
    pub runs: usize,
    /// Sets (2 for the agreement check).
    pub sets: usize,
    /// Seed of run 0; run `i` uses `seed + i`.
    pub seed: u64,
    /// `--seconds` passed to every run.
    pub seconds: f64,
    /// Traced runs (per-layer metrics, no agreement check).
    pub trace: bool,
}

/// One child's result line.
struct RunResult {
    correct: bool,
    failed: u64,
    metrics: BTreeMap<String, (f64, String)>,
}

fn child(workload: Workload, seed: u64, seconds: f64, trace: bool) -> Result<RunResult, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args(["--workload", workload.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.lines().last().unwrap_or_default();
    let doc = Json::parse(line)
        .map_err(|e| format!("{} seed {seed}: no result line ({e})", workload.name()))?;
    let field = |k| doc.field(k).map_err(|e| e.to_string());
    let mut metrics = BTreeMap::new();
    if let Json::Object(pairs) = field("metrics")? {
        for (name, m) in pairs {
            let unit = m
                .field("unit")
                .and_then(Json::as_str)
                .map_err(|e| e.to_string())?;
            let value = number(m.field("value").map_err(|e| e.to_string())?)?;
            metrics.insert(name.clone(), (value, unit.to_string()));
        }
    }
    Ok(RunResult {
        correct: field("correct")?.as_bool().map_err(|e| e.to_string())? && out.status.success(),
        failed: field("failed")?.as_u64().map_err(|e| e.to_string())?,
        metrics,
    })
}

/// Median, quartiles and relative spread of one metric over one set.
fn summarize(values: &[f64]) -> Option<(f64, f64, f64, f64)> {
    let [q1, _, q3] = quartiles(values)?;
    let med = median(values)?;
    Some((med, q1, q3, (q3 - q1) / med))
}

/// Run the plan; prints a table on stderr and a JSON summary as the last
/// stdout line. Returns whether every run was correct and every spread
/// and set-to-set difference stayed within its bound.
pub fn run(plan: &Plan) -> Result<bool, String> {
    let bounds = if plan.trace { Vec::new() } else { bounds()? };
    let mut all_ok = true;
    let mut report = Vec::new();
    for &w in &plan.workloads {
        let mut sets: Vec<Vec<RunResult>> = (0..plan.sets).map(|_| Vec::new()).collect();
        for i in 0..plan.runs {
            let order: Vec<usize> = if i % 2 == 0 {
                (0..plan.sets).collect()
            } else {
                (0..plan.sets).rev().collect()
            };
            for s in order {
                let seed = plan.seed + i as u64;
                let r = child(w, seed, plan.seconds, plan.trace)?;
                eprintln!(
                    "[agree] {} set {s} run {i} seed {seed}: correct={} failed={}",
                    w.name(),
                    r.correct,
                    r.failed
                );
                sets[s].push(r);
            }
        }
        let correct = sets.iter().flatten().all(|r| r.correct && r.failed == 0);
        let same_failures = sets
            .iter()
            .map(|set| set.iter().map(|r| r.failed).sum::<u64>())
            .all(|f| f == sets[0].iter().map(|r| r.failed).sum::<u64>());
        let mut ok = correct && same_failures;
        let mut rows = Vec::new();
        let names: Vec<(String, String)> = if plan.trace {
            sets[0][0]
                .metrics
                .iter()
                .map(|(n, (_, u))| (n.clone(), u.clone()))
                .collect()
        } else {
            bounds
                .iter()
                .map(|b| (b.name.clone(), b.unit.clone()))
                .collect()
        };
        for (name, unit) in names {
            let bound = bounds.iter().find(|b| b.name == name);
            let mut per_set = Vec::new();
            for set in &sets {
                let values: Vec<f64> = set
                    .iter()
                    .map(|r| r.metrics.get(&name).map(|(v, _)| *v))
                    .collect::<Option<_>>()
                    .ok_or_else(|| format!("{} did not report {name}", w.name()))?;
                per_set.push(values);
            }
            let mut row_ok = true;
            let mut cells = Vec::new();
            for values in &per_set {
                match summarize(values) {
                    Some((med, q1, q3, spread)) => {
                        let steady = bound.is_none_or(|b| b.name == "setup_s" || spread <= b.bound);
                        row_ok &= steady;
                        cells.push(Json::obj(vec![
                            ("median", Json::Float(med)),
                            ("q1", Json::Float(q1)),
                            ("q3", Json::Float(q3)),
                            ("spread", Json::Float(spread)),
                        ]));
                        eprintln!(
                            "[agree] {:<17} {name:<36} median {med:>14.4} {unit:<6} q1 {q1:>14.4} \
                             q3 {q3:>14.4} spread {:>6.2}%{}",
                            w.name(),
                            100.0 * spread,
                            if steady { "" } else { " (over bound)" }
                        );
                    }
                    None => {
                        cells.push(Json::Array(
                            values.iter().map(|v| Json::Float(*v)).collect(),
                        ));
                        eprintln!("[agree] {:<17} {name:<36} {values:?} {unit}", w.name());
                    }
                }
            }
            if let (Some(b), [first, second, ..]) = (bound, &per_set[..]) {
                let (m0, m1) = (median(first).unwrap_or(0.0), median(second).unwrap_or(0.0));
                let worse = if b.lower_is_better {
                    m1 / m0 - 1.0
                } else {
                    1.0 - m1 / m0
                };
                let differ = (m1 / m0 - 1.0).abs();
                let agree = differ <= b.bound;
                row_ok &= agree;
                eprintln!(
                    "[agree] {:<17} {name:<36} sets differ by {:.2}% (second worse by {:.2}%), \
                     bound {:.0}%: {}",
                    w.name(),
                    100.0 * differ,
                    100.0 * worse,
                    100.0 * b.bound,
                    if agree { "ok" } else { "FAIL" }
                );
            }
            ok &= row_ok;
            rows.push((
                name,
                Json::obj(vec![
                    ("unit", Json::str(unit)),
                    ("bound", bound.map_or(Json::Null, |b| Json::Float(b.bound))),
                    ("sets", Json::Array(cells)),
                    ("ok", Json::Bool(row_ok)),
                ]),
            ));
        }
        all_ok &= ok;
        report.push(Json::obj(vec![
            ("workload", Json::str(w.name())),
            ("correct", Json::Bool(correct)),
            ("ok", Json::Bool(ok)),
            ("metrics", Json::Object(rows)),
        ]));
    }
    println!(
        "{}",
        Json::obj(vec![
            ("runs", Json::uint(plan.runs as u64)),
            ("sets", Json::uint(plan.sets as u64)),
            ("seed", Json::uint(plan.seed)),
            ("seconds", Json::Float(plan.seconds)),
            ("workloads", Json::Array(report)),
            ("ok", Json::Bool(all_ok)),
        ])
        .to_json_string()
    );
    Ok(all_ok)
}
