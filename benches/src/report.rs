//! The metrics a run reports, and the result line that carries them.

use crate::stats::{median, quartiles};
use crate::trace::{Attribution, Layer};
use crate::{Measured, Traced};
use ts_core::json::Json;

/// A measured value with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as in `BENCHMARK.json`.
    pub name: String,
    /// Unit, as in `BENCHMARK.json`.
    pub unit: &'static str,
    /// Value as measured.
    pub value: f64,
}

fn metric(name: impl Into<String>, unit: &'static str, value: f64) -> Metric {
    Metric {
        name: name.into(),
        unit,
        value,
    }
}

/// End-to-end metrics: `(name, unit)`, reported by every workload.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("peak_rss_kb", "kB"),
    ("handshakes_per_s", "1/s"),
    ("full_p50_us", "us"),
    ("full_p95_us", "us"),
];

/// Windows a run needs, so its quartiles rest on more than a handful.
const MIN_WINDOWS: usize = 3;

/// The faster quartile of per-window values: the upper one of a rate,
/// the lower one of a latency.
fn faster_quartile(values: &[f64], higher_is_better: bool) -> Result<f64, String> {
    if values.len() < MIN_WINDOWS {
        return Err(format!(
            "{} measured windows, need {MIN_WINDOWS}",
            values.len()
        ));
    }
    let [q1, _, q3] = quartiles(values).ok_or("no windows")?;
    Ok(if higher_is_better { q3 } else { q1 })
}

/// The end-to-end metrics of an untraced run.
pub fn end_to_end(m: &Measured, peak_rss_kb: u64) -> Result<Vec<Metric>, String> {
    let rates: Vec<f64> = m.windows.iter().map(|w| w.rate).collect();
    let p50: Vec<f64> = m.windows.iter().filter_map(|w| w.full_p50_us).collect();
    let p95: Vec<f64> = m.windows.iter().filter_map(|w| w.full_p95_us).collect();
    Ok(vec![
        metric(
            "setup_s",
            "s",
            median(&m.setup_s).ok_or("no set-up was timed")?,
        ),
        metric("peak_rss_kb", "kB", peak_rss_kb as f64),
        metric("handshakes_per_s", "1/s", faster_quartile(&rates, true)?),
        metric("full_p50_us", "us", faster_quartile(&p50, false)?),
        metric("full_p95_us", "us", faster_quartile(&p95, false)?),
    ])
}

/// Span names whose weighted self time is reported as a share of the
/// traced wall: `(metric, span)`.
const SPAN_SHARES: [(&str, &str); 14] = [
    ("population.build_pct", "population.build"),
    ("scanner.shard_day.self_pct", "scanner.shard_day"),
    ("core.span_acc.record_pct", "core.span_acc.record"),
    ("core.span_acc.advance_pct", "core.span_acc.advance"),
    ("core.group_acc.record_pct", "core.group_acc.record"),
    ("core.group_acc.advance_pct", "core.group_acc.advance"),
    ("core.acc.seal_pct", "core.acc.seal"),
    ("core.par.barrier_wait_pct", "core.par.for_each_shard"),
    ("bench.table1_pct", "bench.table1"),
    ("bench.fig1_pct", "bench.fig1"),
    ("bench.fig2_pct", "bench.fig2"),
    ("bench.table5_pct", "bench.table5"),
    ("bench.table6_pct", "bench.table6"),
    ("bench.table7_pct", "bench.table7"),
];

/// Counters taken from the traced replay's telemetry delta.
const COUNTS: [&str; 9] = [
    "scanner.grab.attempts",
    "scanner.grab.retries",
    "scanner.burst.connections",
    "tls.resume.offers",
    "simnet.connect.attempts",
    "simnet.connect.flaky_drop",
    "tls.server.handshake.full",
    "tls.stek.rotations",
    "core.live_entries_peak",
];

/// Ratios taken from the traced replay's telemetry delta.
const RATIOS: [&str; 3] = [
    "scanner.grab.ok_ratio",
    "tls.resume.hit_ratio",
    "crypto.modexp_per_handshake",
];

/// Calibration metrics timed per primitive call.
const CALIBRATION_NS: [&str; 10] = [
    "crypto.rsa512.sign_ns",
    "crypto.rsa512.verify_ns",
    "crypto.rsa512.decrypt_ns",
    "crypto.modpow_sim256_ns",
    "crypto.x25519_ns",
    "crypto.prf48_ns",
    "crypto.aes128gcm.seal16k_ns",
    "crypto.aes128gcm.open16k_ns",
    "crypto.sha256_1k_ns",
    "x509.validate_ns",
];

/// Per-layer metrics: `(name, unit)`, reported by every traced run.
pub fn per_layer_names() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = vec![
        ("trace.wall_s".into(), "s"),
        ("trace.unattributed_s".into(), "s"),
        ("trace.overhead_ratio".into(), "ratio"),
    ];
    out.extend(Layer::ALL.map(|l| (format!("layer.{}_pct", l.name()), "%")));
    out.extend(SPAN_SHARES.map(|(name, _)| (name.to_string(), "%")));
    out.extend(COUNTS.map(|name| (name.to_string(), "count")));
    out.extend(RATIOS.map(|name| (name.to_string(), "ratio")));
    out.extend(CALIBRATION_NS.map(|name| (name.to_string(), "ns")));
    for steps in crate::handshake::STEP_NAMES {
        out.extend(steps.iter().map(|s| (format!("{s}_us"), "us")));
    }
    out.push(("tls.record.seal_us".into(), "us"));
    out.push(("tls.record.open_us".into(), "us"));
    out
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// The per-layer metrics of a traced run, in [`per_layer_names`] order.
pub fn per_layer(
    t: &Traced,
    a: &Attribution,
    calibration: &[(String, f64)],
) -> Result<Vec<Metric>, String> {
    let c = &t.counters;
    let grabs = crate::grabs(c);
    let resume_hits =
        c.counter("tls.server.resume.session_id.hit") + c.counter("tls.server.resume.ticket.hit");
    let resume_misses =
        c.counter("tls.server.resume.session_id.miss") + c.counter("tls.server.resume.ticket.miss");
    let mut out = vec![
        metric("trace.wall_s", "s", a.wall_ns / 1e9),
        metric(
            "trace.unattributed_s",
            "s",
            a.layer_ns(Layer::Unattributed) / 1e9,
        ),
        metric(
            "trace.overhead_ratio",
            "ratio",
            a.wall_ns / 1e9 / t.untraced_wall_s,
        ),
    ];
    for layer in Layer::ALL {
        let pct = a.pct(a.layer_ns(layer));
        out.push(metric(format!("layer.{}_pct", layer.name()), "%", pct));
    }
    for (name, span) in SPAN_SHARES {
        out.push(metric(name, "%", a.pct(a.name_ns(span))));
    }
    let counts = [
        grabs,
        c.counter("scanner.grab.retries"),
        c.counter("scanner.burst.connections"),
        resume_hits + resume_misses,
        c.counter("simnet.connect.attempts"),
        c.counter("simnet.connect.flaky_drop"),
        c.counter("tls.server.handshake.full"),
        c.counter("tls.stek.rotations"),
        t.live_entries_peak,
    ];
    for (name, value) in COUNTS.into_iter().zip(counts) {
        out.push(metric(name, "count", value as f64));
    }
    let ratios = [
        ratio(c.counter("scanner.grab.ok"), grabs),
        ratio(resume_hits, resume_hits + resume_misses),
        ratio(c.counter("crypto.modexp.total"), t.handshakes),
    ];
    for (name, value) in RATIOS.into_iter().zip(ratios) {
        out.push(metric(name, "ratio", value));
    }
    for (name, unit) in per_layer_names().into_iter().skip(out.len()) {
        let value = calibration
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
            .ok_or_else(|| format!("calibration did not measure {name}"))?;
        out.push(metric(name, unit, value));
    }
    Ok(out)
}

/// The result line: the last line of standard output.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let metrics = Json::Object(
        metrics
            .iter()
            .map(|m| {
                (
                    m.name.clone(),
                    Json::obj(vec![
                        ("value", Json::Float(m.value)),
                        ("unit", Json::str(m.unit)),
                    ]),
                )
            })
            .collect(),
    );
    Json::obj(vec![
        ("correct", Json::Bool(correct)),
        ("attempted", Json::uint(attempted)),
        ("failed", Json::uint(failed)),
        ("metrics", metrics),
    ])
    .to_json_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` and this module must name the same metrics.
    #[test]
    fn benchmark_json_lists_exactly_the_reported_metrics() {
        let text = std::fs::read_to_string(crate::agree::benchmark_json_path())
            .expect("BENCHMARK.json beside the benches directory");
        let doc = Json::parse(&text).expect("BENCHMARK.json parses");
        let listed = |key: &str| -> Vec<(String, String)> {
            doc.field(key)
                .and_then(Json::as_array)
                .expect("metric list")
                .iter()
                .map(|m| {
                    (
                        m.field("name").and_then(Json::as_str).unwrap().to_string(),
                        m.field("unit").and_then(Json::as_str).unwrap().to_string(),
                    )
                })
                .collect()
        };
        let e2e: Vec<(String, String)> = END_TO_END
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(listed("end_to_end"), e2e);
        let layers: Vec<(String, String)> = per_layer_names()
            .into_iter()
            .map(|(n, u)| (n, u.to_string()))
            .collect();
        assert_eq!(listed("per_layer"), layers);
        let workloads: Vec<String> = doc
            .field("workloads")
            .and_then(Json::as_array)
            .unwrap()
            .iter()
            .map(|w| w.field("name").and_then(Json::as_str).unwrap().to_string())
            .collect();
        let ours: Vec<String> = crate::Workload::ALL
            .iter()
            .map(|w| w.name().to_string())
            .collect();
        assert_eq!(workloads, ours);
    }

    #[test]
    fn per_layer_reports_every_listed_metric_in_order() {
        let names = per_layer_names();
        let calibration: Vec<(String, f64)> = names.iter().map(|(n, _)| (n.clone(), 1.0)).collect();
        let a = Attribution {
            wall_ns: 1.0,
            ..Attribution::default()
        };
        let t = Traced {
            untraced_wall_s: 1.0,
            ..Traced::default()
        };
        let reported: Vec<(String, &str)> = per_layer(&t, &a, &calibration)
            .unwrap()
            .into_iter()
            .map(|m| (m.name, m.unit))
            .collect();
        assert_eq!(reported, names);
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let line = result_line(true, 10, 0, &[metric("setup_s", "s", 0.5)]);
        let doc = Json::parse(&line).unwrap();
        let Json::Object(pairs) = &doc else {
            panic!("not an object")
        };
        let keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(
            line,
            r#"{"correct":true,"attempted":10,"failed":0,"metrics":{"setup_s":{"value":0.5,"unit":"s"}}}"#
        );
    }
}
