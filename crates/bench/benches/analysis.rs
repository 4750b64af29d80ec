//! Benchmarks for the analysis pipeline (ts-core) at realistic data
//! volumes: span estimation over hundreds of thousands of sightings,
//! service-group closure, and CDF construction — the operations the paper
//! ran over nine weeks of scans.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use std::time::Duration;
use ts_core::observations::TicketSighting;
use ts_core::stream::{CountCdf, GroupAcc, SpanAcc};

/// Synthesize a campaign: `domains` domains × `days` days of sightings,
/// with a CloudFlare-like 6% sharing one id per day and a 10% static-STEK
/// tail.
fn synth_sightings(domains: usize, days: u64) -> Vec<TicketSighting> {
    let mut out = Vec::with_capacity(domains * days as usize);
    for d in 0..domains {
        for day in 0..days {
            let stek_id = if d < domains / 16 {
                format!("cdn-shared-day{day}")
            } else if d % 10 == 0 {
                format!("static-{d}")
            } else {
                format!("daily-{d}-{day}")
            };
            out.push(TicketSighting {
                domain: format!("d{d:06}.sim"),
                day,
                stek_id,
                lifetime_hint: 300,
            });
        }
    }
    out
}

fn bench_span_estimation(c: &mut Criterion) {
    let mut g = c.benchmark_group("span_estimation");
    g.sample_size(10);
    g.warm_up_time(Duration::from_millis(500));
    g.measurement_time(Duration::from_secs(3));
    for domains in [1_000usize, 10_000] {
        let sightings = synth_sightings(domains, 63);
        g.throughput(Throughput::Elements(sightings.len() as u64));
        g.bench_function(format!("ingest_and_spans_{domains}x63"), |b| {
            b.iter_batched(
                SpanAcc::exact,
                |mut est| {
                    for s in &sightings {
                        est.record(&s.domain, &s.stek_id, s.day);
                    }
                    est.domain_spans()
                },
                BatchSize::LargeInput,
            )
        });
    }
    g.finish();
}

fn bench_group_inference(c: &mut Criterion) {
    let mut g = c.benchmark_group("service_groups");
    g.sample_size(10);
    g.warm_up_time(Duration::from_millis(500));
    g.measurement_time(Duration::from_secs(3));
    let sightings = synth_sightings(10_000, 7);
    g.bench_function("stek_groups_10k_domains", |b| {
        b.iter(|| {
            let mut acc = GroupAcc::exact();
            for s in &sightings {
                acc.record(&s.domain, &s.stek_id, s.day);
            }
            acc.service_groups()
        })
    });
    g.finish();
}

fn bench_cdf(c: &mut Criterion) {
    let mut g = c.benchmark_group("cdf");
    g.sample_size(10);
    g.warm_up_time(Duration::from_millis(500));
    g.measurement_time(Duration::from_secs(3));
    let samples: Vec<u64> = (0..1_000_000u64).map(|i| (i * 7919) % 86_400).collect();
    g.throughput(Throughput::Elements(samples.len() as u64));
    g.bench_function("build_1m_samples", |b| {
        b.iter_batched(
            || samples.clone(),
            CountCdf::from_samples,
            BatchSize::LargeInput,
        )
    });
    let cdf = CountCdf::from_samples(samples);
    g.bench_function("query_series", |b| {
        let breakpoints: Vec<u64> = (0..288).map(|i| i * 300).collect();
        b.iter(|| cdf.series(&breakpoints))
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_span_estimation,
    bench_group_inference,
    bench_cdf
);
criterion_main!(benches);
