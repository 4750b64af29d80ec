//! Diagnostics and the analysis report.

use std::fmt;

/// The diagnostic classes `ts-lint` reports: the secret-hygiene,
/// determinism, lifetime, concurrency and API families.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Rule {
    /// A `==` / `!=` comparison touching secret-tainted bytes instead of
    /// `ts_crypto::ct::ct_eq` — a classic timing-oracle shape.
    NonCtComparison,
    /// A secret value can reach a formatter: `derive(Debug)` on a
    /// secret-marked type, a manual `Display` impl for one, or a
    /// `format!`/`println!`-family macro whose arguments mention a secret.
    SecretLeak,
    /// A secret-marked type has neither an `impl Drop` nor an `impl Wipe`,
    /// so key material survives in freed memory.
    MissingWipe,
    /// A table lookup indexed by secret-derived data (cache-timing surface).
    SecretIndex,
    /// A secret-tainted value passed to a telemetry sink call
    /// (`observe` / `emit` / `record` and anything added via
    /// `[telemetry] sinks`). Metric snapshots are exported and diffed, so
    /// key material reaching one is an exfiltration channel.
    TelemetrySink,
    /// Iterating / draining / collecting a `HashMap`/`HashSet` (or any
    /// value whose type-index entry resolves to one) where the visit order
    /// can escape into output. Hash iteration order varies per process
    /// (`RandomState`), so reports and telemetry built from it are not a
    /// pure function of the seed. Use `BTreeMap`/`BTreeSet`, sort the
    /// result, or keep the map lookup-only.
    UnorderedIteration,
    /// `Instant::now` / `SystemTime::now` outside the sanctioned boundary
    /// (telemetry wall timers, repro progress messages on stderr).
    /// Experiment logic must use the simnet virtual clock.
    WallClock,
    /// Ambient entropy reaching the simulation: `thread_rng`,
    /// `RandomState::new`, `from_entropy`, env-var-derived seeds,
    /// `process::id`. Every random draw must come from a seeded
    /// `HmacDrbg` stream.
    AmbientEntropy,
    /// Mutating captured state from inside a `parallel_map` closure.
    /// Workers drain chunks in a nondeterministic real-time order, so
    /// accumulating order-sensitive state (floats, string concat,
    /// first-wins maps) across them breaks worker-count independence —
    /// return values from the closure instead (they are re-concatenated
    /// in chunk order).
    UnorderedReduction,
    /// Ephemeral key material (a secret type whose declared lifetime class
    /// is `connection`) stored into a type whose declared lifetime class is
    /// longer (`epoch` / `process`) — the paper's crypto shortcut, caught
    /// statically. Declared via `// ctlint: lifetime(connection|epoch|
    /// process)` annotations; deliberate shortcuts (the simulation *models*
    /// them) are waived under `[[lifetime]]` in ctlint.toml.
    SecretLifetime,
    /// A binding the function explicitly wipes (`x.wipe()` /
    /// `wipe_bytes(&mut x)`) but with an early `return` / `?` between the
    /// binding and the wipe, so at least one exit path leaves the key
    /// material unscrubbed in memory.
    WipeOnAllPaths,
    /// An `unsafe` block without a `// SAFETY:` comment (immediately before
    /// the block or as its first statement), or an `unsafe` block whose
    /// body mentions secret-tainted data — raw-pointer code over key
    /// material needs an individually justified waiver.
    UnsafeAudit,
    /// Two lock fields acquired in opposite orders somewhere in the
    /// workspace (directly, or through a resolved call while a guard is
    /// still live). The global lock-acquisition graph — lock fields as
    /// nodes, "acquired B while holding A" as edges, held-sets propagated
    /// interprocedurally over the call graph — must stay acyclic, which is
    /// the classical sufficient condition for deadlock freedom.
    LockOrder,
    /// A `Relaxed` operation on an atomic field annotated
    /// `// ctlint: publishes(...)` — i.e. an atomic whose value gates the
    /// visibility of other data. Publication needs `Release` on the
    /// writer side and `Acquire` on the reader side; `Relaxed` orders
    /// nothing and lets readers observe the flag before the payload.
    AtomicOrdering,
    /// A lock guard bound to a local and still live at a `parallel_map` /
    /// `scope` / `spawn` fan-out or a user-supplied callback invocation.
    /// Worker closures that re-enter the guarded structure deadlock, and
    /// even when they don't, the lock serialises the whole fan-out.
    LockAcrossCallback,
    /// A `#[target_feature]` SIMD kernel reachable (over the call graph)
    /// from a production caller whose path back to dispatch never crosses
    /// a CPUID detect gate (`*available()` / `is_x86_feature_detected!`),
    /// or an unsafe block calling such a kernel whose `// SAFETY:` comment
    /// does not name the gate that makes the call sound.
    SimdDispatchGate,
    /// A bare-`pub` production function whose name is defined once and
    /// that no other production code names: only tests, examples or
    /// nothing at all reach it. Callers in `src/bin` and `benches/src`
    /// count. A test observation point or reference implementation is
    /// waived under `[[api]]`, naming the test that reads it.
    TestOnlyApi,
}

impl Rule {
    /// Stable machine-readable rule id — this is what `ctlint.toml`
    /// allowlist entries name.
    pub fn id(self) -> &'static str {
        match self {
            Rule::NonCtComparison => "non-ct-comparison",
            Rule::SecretLeak => "secret-leak",
            Rule::MissingWipe => "missing-wipe",
            Rule::SecretIndex => "secret-index",
            Rule::TelemetrySink => "telemetry-sink",
            Rule::UnorderedIteration => "unordered-iteration",
            Rule::WallClock => "wall-clock",
            Rule::AmbientEntropy => "ambient-entropy",
            Rule::UnorderedReduction => "unordered-reduction",
            Rule::SecretLifetime => "secret-lifetime",
            Rule::WipeOnAllPaths => "wipe-on-all-paths",
            Rule::UnsafeAudit => "unsafe-audit",
            Rule::LockOrder => "lock-order",
            Rule::AtomicOrdering => "atomic-ordering",
            Rule::LockAcrossCallback => "lock-across-callback",
            Rule::SimdDispatchGate => "simd-dispatch-gate",
            Rule::TestOnlyApi => "test-only-api",
        }
    }

    /// Which `ctlint.toml` section may suppress this rule: `[[allow]]`
    /// for the secret-hygiene family, `[[determinism]]` for the
    /// determinism family.
    pub fn family(self) -> RuleFamily {
        match self {
            Rule::NonCtComparison
            | Rule::SecretLeak
            | Rule::MissingWipe
            | Rule::SecretIndex
            | Rule::TelemetrySink
            | Rule::WipeOnAllPaths
            | Rule::UnsafeAudit => RuleFamily::Hygiene,
            Rule::UnorderedIteration
            | Rule::WallClock
            | Rule::AmbientEntropy
            | Rule::UnorderedReduction => RuleFamily::Determinism,
            Rule::SecretLifetime => RuleFamily::Lifetime,
            Rule::LockOrder
            | Rule::AtomicOrdering
            | Rule::LockAcrossCallback
            | Rule::SimdDispatchGate => RuleFamily::Concurrency,
            Rule::TestOnlyApi => RuleFamily::Api,
        }
    }

    /// All rules, for iteration/tests.
    pub fn all() -> [Rule; 17] {
        [
            Rule::NonCtComparison,
            Rule::SecretLeak,
            Rule::MissingWipe,
            Rule::SecretIndex,
            Rule::TelemetrySink,
            Rule::UnorderedIteration,
            Rule::WallClock,
            Rule::AmbientEntropy,
            Rule::UnorderedReduction,
            Rule::SecretLifetime,
            Rule::WipeOnAllPaths,
            Rule::UnsafeAudit,
            Rule::LockOrder,
            Rule::AtomicOrdering,
            Rule::LockAcrossCallback,
            Rule::SimdDispatchGate,
            Rule::TestOnlyApi,
        ]
    }
}

/// The rule families, each with its own `ctlint.toml` exception
/// section. Keeping them separate means a determinism waiver can never
/// silently silence a secret-hygiene finding (or vice versa), and a
/// lifetime waiver — which documents a *deliberate* crypto shortcut the
/// simulation models — can silence nothing but `secret-lifetime`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RuleFamily {
    /// Secret hygiene: suppressed by `[[allow]]`.
    Hygiene,
    /// Determinism: suppressed by `[[determinism]]`.
    Determinism,
    /// Key-material lifetime: suppressed by `[[lifetime]]`.
    Lifetime,
    /// Concurrency soundness (lock order, atomics ordering, fan-out
    /// discipline, SIMD dispatch gating): suppressed by `[[concurrency]]`.
    Concurrency,
    /// Public API without a production caller: suppressed by `[[api]]`.
    Api,
}

impl RuleFamily {
    /// The `ctlint.toml` section header that suppresses this family.
    pub fn section(self) -> &'static str {
        match self {
            RuleFamily::Hygiene => "[[allow]]",
            RuleFamily::Determinism => "[[determinism]]",
            RuleFamily::Lifetime => "[[lifetime]]",
            RuleFamily::Concurrency => "[[concurrency]]",
            RuleFamily::Api => "[[api]]",
        }
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.id())
    }
}

/// One finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Which rule fired.
    pub rule: Rule,
    /// Workspace-relative path of the offending file.
    pub file: String,
    /// 1-based line number.
    pub line: u32,
    /// The identifier the finding is anchored on (type name, tainted
    /// variable, indexed table). Allowlist entries match against this.
    pub ident: String,
    /// Human-readable explanation.
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file,
            self.line,
            self.rule.id(),
            self.message
        )
    }
}

/// The outcome of analysing a set of files.
#[derive(Debug, Default)]
pub struct Report {
    /// Findings not covered by any allowlist entry. Must be empty for the
    /// workspace to be considered clean.
    pub diagnostics: Vec<Diagnostic>,
    /// Findings matched (and silenced) by an allowlist entry.
    pub suppressed: Vec<Diagnostic>,
    /// Allowlist entries that matched nothing — stale suppressions are
    /// themselves an error, so the allowlist can only shrink over time.
    pub stale_allows: Vec<String>,
    /// Number of `.rs` files analysed.
    pub files_scanned: usize,
}

impl Report {
    /// True when there is nothing to fix: no live findings and no stale
    /// allowlist entries.
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty() && self.stale_allows.is_empty()
    }

    /// Render the report as human-readable text (used by the CLI and by
    /// test failure messages).
    pub fn render(&self) -> String {
        let mut out = String::new();
        for d in &self.diagnostics {
            out.push_str(&format!("{d}\n"));
        }
        for s in &self.stale_allows {
            out.push_str(&format!(
                "ctlint.toml: stale allowlist entry matched nothing: {s}\n"
            ));
        }
        out.push_str(&format!(
            "{} files scanned, {} finding(s), {} suppressed, {} stale allow(s)\n",
            self.files_scanned,
            self.diagnostics.len(),
            self.suppressed.len(),
            self.stale_allows.len()
        ));
        out
    }
}
