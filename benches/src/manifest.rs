//! The run manifest: what a result was measured with and on.

use crate::{Workload, WORKERS};
use std::path::Path;
use ts_core::json::Json;

/// Manifest of one run, plus run-specific `extra` fields.
pub fn manifest(
    workload: Workload,
    seed: u64,
    seconds: f64,
    traced: bool,
    extra: Vec<(&str, Json)>,
) -> Json {
    let constants = workload
        .constants()
        .into_iter()
        .map(|(k, v)| (k, Json::uint(v)))
        .collect();
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let mut fields = vec![
        ("workload", Json::str(workload.name())),
        ("seed", Json::uint(seed)),
        ("seconds", Json::Float(seconds)),
        ("trace", Json::Bool(traced)),
        ("constants", Json::obj(constants)),
        ("workers", Json::uint(WORKERS as u64)),
        ("nproc", Json::uint(nproc as u64)),
        ("cpu", Json::str(cpu_model())),
        ("features", cpu_features()),
        (
            "force_portable",
            Json::Bool(ts_crypto::dispatch::force_portable()),
        ),
        ("git_head", Json::str(git_head())),
        ("rustc", Json::str(env!("BENCH_RUSTC_VERSION"))),
    ];
    fields.extend(extra);
    Json::obj(fields)
}

#[cfg(target_arch = "x86_64")]
fn cpu_model() -> String {
    use std::arch::x86_64::__cpuid;
    if __cpuid(0x8000_0000).eax < 0x8000_0004 {
        return "unknown".into();
    }
    let mut brand = Vec::with_capacity(48);
    for leaf in 0x8000_0002..=0x8000_0004u32 {
        let r = __cpuid(leaf);
        for reg in [r.eax, r.ebx, r.ecx, r.edx] {
            brand.extend_from_slice(&reg.to_le_bytes());
        }
    }
    String::from_utf8_lossy(&brand)
        .trim_matches(|c: char| c == '\0' || c.is_whitespace())
        .to_string()
}

#[cfg(not(target_arch = "x86_64"))]
fn cpu_model() -> String {
    "unknown".into()
}

/// The CPU features the crypto kernels dispatch on.
fn cpu_features() -> Json {
    #[cfg(target_arch = "x86_64")]
    let detected = [
        ("aes", std::arch::is_x86_feature_detected!("aes")),
        (
            "pclmulqdq",
            std::arch::is_x86_feature_detected!("pclmulqdq"),
        ),
        ("avx2", std::arch::is_x86_feature_detected!("avx2")),
        ("sha", std::arch::is_x86_feature_detected!("sha")),
    ];
    #[cfg(not(target_arch = "x86_64"))]
    let detected = [
        ("aes", false),
        ("pclmulqdq", false),
        ("avx2", false),
        ("sha", false),
    ];
    Json::obj(detected.map(|(k, v)| (k, Json::Bool(v))).to_vec())
}

/// The commit the benchmark was built from, read from the checkout's
/// `.git` without running git; "unknown" outside a repository.
fn git_head() -> String {
    let git = Path::new(env!("CARGO_MANIFEST_DIR")).join("../.git");
    let read = |p: &str| std::fs::read_to_string(git.join(p)).ok();
    let Some(head) = read("HEAD") else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    read(reference)
        .map(|id| id.trim().to_string())
        .or_else(|| {
            read("packed-refs")?
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".into())
}
