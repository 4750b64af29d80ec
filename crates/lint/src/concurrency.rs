//! Concurrency analysis: lock-order graph, atomics-ordering, fan-out
//! discipline, and SIMD dispatch gating.
//!
//! The shared state this workspace grew — the 8-way sharded
//! `SessionCache`, the epoch-pinned `Arc<StekSet>` snapshots, the shared
//! ephemeral-key caches — is exactly the state the paper's harm
//! argument rests on, so its locking discipline is checked statically
//! rather than asserted in comments. Four rules, all built on the
//! token-stream index and the workspace call graph:
//!
//! * **`lock-order`** — every `Mutex`/`RwLock` *acquisition* is keyed to
//!   the struct field (or local/static) it locks. A guard bound with
//!   `let g = x.lock();` is tracked as *held* from the end of that
//!   statement to the end of its enclosing block (or an explicit
//!   `drop(g)`). Acquiring `B` while `A` is held — directly, or inside
//!   any function reachable through a resolved call — adds the edge
//!   `A → B` to the global lock-acquisition graph. The graph must be
//!   acyclic (the classical sufficient condition for deadlock freedom);
//!   a self-edge means the same lock field can be acquired twice, which
//!   for an array-of-locks field (`SessionCache` shards) is flagged too:
//!   the home-shard-first + fixed-order fallback works precisely because
//!   it never holds two shards at once, and this rule is what proves it.
//!   Guard-less temporaries (`self.shards[i].lock().insert(…)`) release
//!   within the statement and create no held-across edges.
//! * **`atomic-ordering`** — an atomic field annotated
//!   `// ctlint: publishes(other_field, …)` gates the visibility of the
//!   named sibling data (the `PinnedStekSet` epoch pattern). Any
//!   `Relaxed` operation on such a field fires: publication needs
//!   `Release`/`Acquire` pairing, and `Relaxed` lets a reader observe
//!   the flag before the payload it stands for.
//! * **`lock-across-callback`** — a live guard at a `parallel_map` /
//!   `scope` / `spawn` fan-out call. A worker closure re-entering the
//!   guarded structure deadlocks; even when it doesn't, the guard
//!   serialises the whole fan-out.
//! * **`simd-dispatch-gate`** — every `#[target_feature]` kernel must be
//!   reachable only through a dispatch path that crossed a CPUID detect
//!   (`*available()` / `is_x86_feature_detected!`), checked by walking
//!   the call graph backwards from the kernel; and every unsafe block
//!   that calls a kernel (or uses `_mm*` intrinsics directly) must have
//!   a `// SAFETY:` comment that *states the gate* rather than
//!   restating the code.
//!
//! Waivers live under `[[concurrency]]` in `ctlint.toml`, with the same
//! mandatory-reason / stale-entry contract as `[[lifetime]]`.
//!
//! Everything here is deterministic by construction: models are keyed by
//! name in `BTreeMap`s, edge witnesses are minimised over (path, line),
//! and the interprocedural acquisition sets are a monotone fixpoint whose
//! result is independent of file order — a property test shuffles the
//! file list to pin this.

use std::collections::{BTreeMap, BTreeSet};

use crate::callgraph::{CallGraph, FnId};
use crate::diag::{Diagnostic, Rule};
use crate::index::{matching, FileIndex, FnDef};
use crate::lexer::{TokKind, Token};
use crate::rules::is_keyword;

/// Fan-out entry points a guard must never be held across.
const FANOUT_CALLS: &[&str] = &["parallel_map", "spawn", "scope"];

/// Atomic operations whose `Ordering` argument the publishes rule audits.
const ATOMIC_METHODS: &[&str] = &[
    "load",
    "store",
    "swap",
    "fetch_add",
    "fetch_sub",
    "fetch_and",
    "fetch_or",
    "fetch_xor",
    "fetch_update",
    "compare_exchange",
    "compare_exchange_weak",
];

/// Substrings a SAFETY comment on a SIMD-calling unsafe block must
/// mention (lower-cased match) to count as stating the gate invariant.
const GATE_MARKERS: &[&str] = &["available", "feature_detected", "cpuid"];

fn is_vendored(path: &str) -> bool {
    path.starts_with("vendor/") || path.contains("/vendor/")
}

/// The inferred concurrency model: what `ts-lint --model` prints and what
/// the rules run against.
#[derive(Debug, Default)]
pub struct ConcurrencyModel {
    /// Qualified lock key (`Owner.field`) → declaration site
    /// (`path:line`), for locks that are struct fields. Locals, statics
    /// and call-returned locks participate in the graph under bare keys
    /// but have no declaration entry.
    pub lock_decls: BTreeMap<String, String>,
    /// Function display name (`Type::fn` or `fn`) → every lock key the
    /// function may acquire, directly or through resolved calls. Only
    /// non-empty sets are kept.
    pub held_sets: BTreeMap<String, BTreeSet<String>>,
    /// Lock-acquisition graph: `(held, acquired)` → first witness site
    /// (`path:line`, minimised so the dump is file-order independent).
    pub edges: BTreeMap<(String, String), String>,
    /// Publisher atomics: qualified field key → the sibling data it
    /// publishes (from `// ctlint: publishes(…)`).
    pub publishers: BTreeMap<String, BTreeSet<String>>,
}

impl ConcurrencyModel {
    /// Build the model for `files` (diagnostics are discarded — use
    /// [`check`] to collect them).
    pub fn build<F: AsRef<FileIndex>>(files: &[F], graph: &CallGraph) -> ConcurrencyModel {
        analyze(files, graph).0
    }

    /// Deterministic text form, name-sorted like the secret/hash model
    /// dumps. Byte-identical for any file order or worker count.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str("lock fields:\n");
        for (key, site) in &self.lock_decls {
            out.push_str(&format!("  {key}  {site}\n"));
        }
        out.push_str("lock graph:\n");
        for ((from, to), site) in &self.edges {
            out.push_str(&format!("  {from} -> {to}  {site}\n"));
        }
        out.push_str("held-lock sets:\n");
        for (func, locks) in &self.held_sets {
            let locks: Vec<&str> = locks.iter().map(String::as_str).collect();
            out.push_str(&format!("  {func}  {{{}}}\n", locks.join(", ")));
        }
        out.push_str("atomic publishers:\n");
        for (key, published) in &self.publishers {
            let p: Vec<&str> = published.iter().map(String::as_str).collect();
            out.push_str(&format!("  {key}  publishes({})\n", p.join(", ")));
        }
        out
    }
}

/// Run the concurrency family over all files, appending raw diagnostics.
pub fn check<F: AsRef<FileIndex>>(files: &[F], graph: &CallGraph, diags: &mut Vec<Diagnostic>) {
    diags.extend(analyze(files, graph).1);
}

// ---------------------------------------------------------------------------
// Lock field table

/// Struct fields whose declared type mentions `Mutex` or `RwLock`.
struct LockFields {
    /// field name → owning production types (sorted).
    owners: BTreeMap<String, BTreeSet<String>>,
    /// `Owner.field` → declaration site.
    decls: BTreeMap<String, String>,
    /// Field names declared as `RwLock` (eligible for `.read()`/`.write()`
    /// acquisition detection; `.lock()` is accepted on anything).
    rw_names: BTreeSet<String>,
}

impl LockFields {
    fn build<F: AsRef<FileIndex>>(files: &[F]) -> LockFields {
        let mut lf = LockFields {
            owners: BTreeMap::new(),
            decls: BTreeMap::new(),
            rw_names: BTreeSet::new(),
        };
        for f in files {
            let f = f.as_ref();
            if is_vendored(&f.path) {
                continue;
            }
            for ty in &f.types {
                if ty.in_test {
                    continue;
                }
                for field in &ty.fields {
                    let is_mutex = field.type_idents.iter().any(|t| t == "Mutex");
                    let is_rw = field.type_idents.iter().any(|t| t == "RwLock");
                    if !is_mutex && !is_rw {
                        continue;
                    }
                    lf.owners
                        .entry(field.name.clone())
                        .or_default()
                        .insert(ty.name.clone());
                    lf.decls
                        .entry(format!("{}.{}", ty.name, field.name))
                        .or_insert_with(|| format!("{}:{}", f.path, ty.line));
                    if is_rw {
                        lf.rw_names.insert(field.name.clone());
                    }
                }
            }
        }
        lf
    }

    /// Qualify a field name into a lock key: the enclosing impl's type
    /// wins, then a workspace-unique owner, then the bare name.
    fn key_for(&self, field: &str, self_type: Option<&str>) -> Option<String> {
        let owners = self.owners.get(field)?;
        if let Some(st) = self_type {
            if owners.contains(st) {
                return Some(format!("{st}.{field}"));
            }
        }
        if owners.len() == 1 {
            let only = owners.iter().next().expect("non-empty owner set");
            return Some(format!("{only}.{field}"));
        }
        Some(field.to_string())
    }
}

// ---------------------------------------------------------------------------
// Receiver resolution

/// The syntactic receiver of a `.method()` call, reduced to its most
/// specific segment.
enum Receiver {
    /// `…name.method()` — a field access or a plain local.
    Name(String),
    /// `self.0.method()` — a tuple field of the impl type.
    TupleField(String),
    /// `name(…).method()` — the return value of a call.
    CallResult(String),
}

/// Find the opener matching the close delimiter at `close`, scanning
/// backwards no further than `lo`.
fn matching_back(toks: &[Token], close: usize, lo: usize) -> Option<usize> {
    let (close_t, open_t) = match toks[close].text.as_str() {
        ")" => (")", "("),
        "]" => ("]", "["),
        "}" => ("}", "{"),
        _ => return None,
    };
    let mut depth = 0usize;
    let mut k = close;
    loop {
        if toks[k].kind == TokKind::Punct {
            if toks[k].text == close_t {
                depth += 1;
            } else if toks[k].text == open_t {
                depth -= 1;
                if depth == 0 {
                    return Some(k);
                }
            }
        }
        if k == lo {
            return None;
        }
        k -= 1;
    }
}

/// Resolve the receiver chain ending at `dot` (the `.` before the method
/// name), walking backwards over index expressions and path separators.
fn receiver_of(toks: &[Token], lo: usize, dot: usize) -> Option<Receiver> {
    let mut k = dot;
    while k > lo {
        k -= 1;
        let t = &toks[k];
        match t.kind {
            TokKind::Punct => match t.text.as_str() {
                "]" => k = matching_back(toks, k, lo)?,
                ")" => {
                    let open = matching_back(toks, k, lo)?;
                    if open > lo && toks[open - 1].kind == TokKind::Ident {
                        return Some(Receiver::CallResult(toks[open - 1].text.clone()));
                    }
                    return None;
                }
                "." | "::" => {}
                _ => return None,
            },
            TokKind::Number => {
                if k >= 2 && toks[k - 1].is_punct(".") && toks[k - 2].is_ident("self") {
                    return Some(Receiver::TupleField(t.text.clone()));
                }
                return None;
            }
            TokKind::Ident => {
                if t.text == "self" {
                    return None;
                }
                return Some(Receiver::Name(t.text.clone()));
            }
            _ => return None,
        }
    }
    None
}

// ---------------------------------------------------------------------------
// Per-function scan

/// A guard binding (`let g = x.lock();`) being tracked for liveness.
struct GuardBinding {
    name: String,
    key: String,
    /// Brace depth the binding was made at — the guard dies when that
    /// block closes.
    depth: usize,
    /// Token index of the binding statement's `;` — the guard is live
    /// strictly after it (the acquisition inside its own initialiser must
    /// not see itself as held).
    start: usize,
    alive: bool,
}

/// Everything extracted from one function body.
#[derive(Default)]
struct FnScan {
    /// Lock keys acquired directly in this body.
    direct: BTreeSet<String>,
    /// `(held, acquired, line)` for intra-body nested acquisitions.
    edges: Vec<(String, String, u32)>,
    /// `(held set, callee name, line)` at call sites with live guards,
    /// for interprocedural edge propagation.
    held_calls: Vec<(BTreeSet<String>, String, u32)>,
    /// Raw diagnostics (`lock-across-callback`, `atomic-ordering`).
    diags: Vec<Diagnostic>,
}

/// Try to interpret the token at `i` as a lock acquisition
/// (`.lock()` / `.read()` / `.write()`, zero arguments). Returns the lock
/// key and the index of the call's closing paren.
fn acquisition_at(
    toks: &[Token],
    i: usize,
    lo: usize,
    hi: usize,
    self_type: Option<&str>,
    lf: &LockFields,
    aliases: &BTreeMap<String, String>,
) -> Option<(String, usize)> {
    let method = toks[i].text.as_str();
    if !matches!(method, "lock" | "read" | "write")
        || toks[i].kind != TokKind::Ident
        || i == lo
        || !toks[i - 1].is_punct(".")
        || !toks.get(i + 1).is_some_and(|t| t.is_punct("("))
    {
        return None;
    }
    let close = matching(toks, i + 1, hi);
    if close != i + 2 {
        // `.read(buf)` / `.write(buf)` are I/O, `.lock(x)` is something
        // else entirely — a lock acquisition takes no arguments.
        return None;
    }
    let recv = receiver_of(toks, lo, i - 1)?;
    let key = match recv {
        Receiver::Name(n) => {
            if let Some(aliased) = aliases.get(&n) {
                aliased.clone()
            } else if let Some(k) = lf.key_for(&n, self_type) {
                if method != "lock" && !lf.rw_names.contains(&n) {
                    return None;
                }
                k
            } else if method == "lock" {
                // A local or static mutex: participates under its bare
                // name. `.read()`/`.write()` on unknown receivers are
                // overwhelmingly I/O, so only known RwLock fields count.
                n
            } else {
                return None;
            }
        }
        Receiver::TupleField(n) => {
            if method != "lock" {
                return None;
            }
            match self_type {
                Some(st) => format!("{st}.{n}"),
                None => format!("self.{n}"),
            }
        }
        Receiver::CallResult(n) => {
            if method != "lock" {
                return None;
            }
            n
        }
    };
    Some((key, close))
}

/// Pre-pass: locals bound by `for pat in …field…` loops over a lock
/// field alias that field (`for (i, shard) in self.shards.iter()` makes
/// `shard` an alias of `SharedSessionCache.shards`).
fn collect_aliases(
    toks: &[Token],
    lo: usize,
    hi: usize,
    self_type: Option<&str>,
    lf: &LockFields,
) -> BTreeMap<String, String> {
    let mut aliases = BTreeMap::new();
    let mut i = lo;
    while i < hi {
        if !toks[i].is_ident("for") {
            i += 1;
            continue;
        }
        // pattern: tokens until a depth-0 `in`
        let pat_start = i + 1;
        let mut j = pat_start;
        let mut depth = 0usize;
        while j < hi {
            let t = &toks[j];
            if t.kind == TokKind::Punct {
                match t.text.as_str() {
                    "(" | "[" => depth += 1,
                    ")" | "]" => depth = depth.saturating_sub(1),
                    _ => {}
                }
            }
            if depth == 0 && t.is_ident("in") {
                break;
            }
            j += 1;
        }
        if j >= hi {
            break;
        }
        let pat = (pat_start, j);
        // iterated expression: tokens until the loop's `{`
        let expr_start = j + 1;
        let mut k = expr_start;
        let mut depth = 0usize;
        while k < hi {
            let t = &toks[k];
            if t.kind == TokKind::Punct {
                match t.text.as_str() {
                    "(" | "[" => depth += 1,
                    ")" | "]" => depth = depth.saturating_sub(1),
                    "{" if depth == 0 => break,
                    _ => {}
                }
            }
            k += 1;
        }
        // a lock field mentioned in the expression aliases the pattern
        let mut key = None;
        for t in &toks[expr_start..k] {
            if t.kind == TokKind::Ident {
                if let Some(k2) = lf.key_for(&t.text, self_type) {
                    key = Some(k2);
                    break;
                }
            }
        }
        if let Some(key) = key {
            for t in &toks[pat.0..pat.1] {
                if t.kind == TokKind::Ident && !is_keyword(&t.text) {
                    aliases.insert(t.text.clone(), key.clone());
                }
            }
        }
        i = k;
    }
    aliases
}

/// Find the `;` ending the statement whose expression starts at `from`.
fn stmt_end(toks: &[Token], from: usize, hi: usize) -> Option<usize> {
    let mut depth = 0usize;
    let mut i = from;
    while i < hi {
        let t = &toks[i];
        if t.kind == TokKind::Punct {
            match t.text.as_str() {
                "(" | "[" | "{" => depth += 1,
                ")" | "]" | "}" => depth = depth.saturating_sub(1),
                ";" if depth == 0 => return Some(i),
                _ => {}
            }
        }
        i += 1;
    }
    None
}

/// Scan one production function body.
#[allow(clippy::too_many_arguments)]
fn scan_fn<F: AsRef<FileIndex>>(
    files: &[F],
    fi: usize,
    func: &FnDef,
    lf: &LockFields,
    publishers: &BTreeMap<String, BTreeSet<String>>,
    graph: &CallGraph,
) -> FnScan {
    let f = files[fi].as_ref();
    let toks = &f.tokens;
    let (lo, hi) = func.body;
    let self_type = func.self_type.as_deref();
    let aliases = collect_aliases(toks, lo, hi, self_type, lf);

    let mut scan = FnScan::default();
    let mut guards: Vec<GuardBinding> = Vec::new();
    let mut depth = 0usize;

    let live_keys = |guards: &[GuardBinding], at: usize| -> BTreeSet<String> {
        guards
            .iter()
            .filter(|g| g.alive && g.start < at)
            .map(|g| g.key.clone())
            .collect()
    };

    let mut i = lo;
    while i < hi {
        let t = &toks[i];
        if t.kind == TokKind::Punct {
            match t.text.as_str() {
                "{" => depth += 1,
                "}" => {
                    for g in guards.iter_mut() {
                        if g.depth >= depth {
                            g.alive = false;
                        }
                    }
                    depth = depth.saturating_sub(1);
                }
                _ => {}
            }
            i += 1;
            continue;
        }
        if t.kind != TokKind::Ident {
            i += 1;
            continue;
        }

        // `let name = …lock();` — a guard binding (skip `if let`/`while
        // let`, whose scrutinee guard is a statement-scoped temporary).
        if t.text == "let"
            && (i == lo || !(toks[i - 1].is_ident("if") || toks[i - 1].is_ident("while")))
        {
            if let Some(binding) = guard_binding(toks, i, lo, hi, self_type, lf, &aliases, depth) {
                guards.push(binding);
            }
            i += 1;
            continue;
        }

        // Acquisition events (`.lock()` etc.).
        if let Some((key, _close)) = acquisition_at(toks, i, lo, hi, self_type, lf, &aliases) {
            for held in live_keys(&guards, i) {
                scan.edges.push((held, key.clone(), t.line));
            }
            scan.direct.insert(key);
            i += 1;
            continue;
        }

        // Atomic operations on publisher fields.
        if ATOMIC_METHODS.contains(&t.text.as_str())
            && i > lo
            && toks[i - 1].is_punct(".")
            && toks.get(i + 1).is_some_and(|n| n.is_punct("("))
        {
            if let Some(Receiver::Name(field)) = receiver_of(toks, lo, i - 1) {
                let qualified = publishers
                    .keys()
                    .find(|k| k.rsplit('.').next() == Some(field.as_str()))
                    .cloned();
                if let Some(qualified) = qualified {
                    let close = matching(toks, i + 1, hi);
                    if toks[i + 2..close].iter().any(|a| a.is_ident("Relaxed")) {
                        let published: Vec<String> =
                            publishers[&qualified].iter().cloned().collect();
                        scan.diags.push(Diagnostic {
                            rule: Rule::AtomicOrdering,
                            file: f.path.clone(),
                            line: t.line,
                            ident: field.clone(),
                            message: format!(
                                "`{qualified}` publishes {{{}}} but `{}` uses \
                                 `Ordering::Relaxed` — relaxed operations do not order \
                                 the publication; use Acquire on loads and \
                                 Release/AcqRel on stores",
                                published.join(", "),
                                t.text,
                            ),
                        });
                    }
                }
            }
            i += 1;
            continue;
        }

        // `drop(guard)` releases a tracked guard early.
        if t.text == "drop"
            && toks.get(i + 1).is_some_and(|n| n.is_punct("("))
            && toks.get(i + 2).is_some_and(|n| n.kind == TokKind::Ident)
            && toks.get(i + 3).is_some_and(|n| n.is_punct(")"))
        {
            let name = &toks[i + 2].text;
            if let Some(g) = guards.iter_mut().rev().find(|g| &g.name == name) {
                g.alive = false;
            }
            i += 4;
            continue;
        }

        // Other call sites: fan-out discipline + interprocedural edges.
        if !is_keyword(&t.text)
            && toks.get(i + 1).is_some_and(|n| n.is_punct("("))
            && !(i > lo && (toks[i - 1].is_ident("fn") || toks[i - 1].is_punct("!")))
        {
            let held = live_keys(&guards, i);
            if !held.is_empty() {
                if FANOUT_CALLS.contains(&t.text.as_str()) {
                    for key in &held {
                        scan.diags.push(Diagnostic {
                            rule: Rule::LockAcrossCallback,
                            file: f.path.clone(),
                            line: t.line,
                            ident: key.clone(),
                            message: format!(
                                "lock `{key}` is held across the `{}` fan-out — worker \
                                 closures that touch the guarded structure deadlock; \
                                 release the guard before fanning out",
                                t.text,
                            ),
                        });
                    }
                }
                scan.held_calls.push((held, t.text.clone(), t.line));
            }
            i += 1;
            continue;
        }

        i += 1;
    }
    let _ = graph;
    scan
}

/// Parse `let [mut] name [: ty] = expr;` where `expr` ends in a lock
/// acquisition (optionally chained through `.unwrap()` / `.expect(…)` /
/// `?`) into a guard binding.
#[allow(clippy::too_many_arguments)]
fn guard_binding(
    toks: &[Token],
    let_pos: usize,
    lo: usize,
    hi: usize,
    self_type: Option<&str>,
    lf: &LockFields,
    aliases: &BTreeMap<String, String>,
    depth: usize,
) -> Option<GuardBinding> {
    let mut j = let_pos + 1;
    if toks.get(j).is_some_and(|t| t.is_ident("mut")) {
        j += 1;
    }
    let name_tok = toks.get(j).filter(|t| t.kind == TokKind::Ident)?;
    let name = name_tok.text.clone();
    j += 1;
    // Optional `: Type` annotation up to the depth-0 `=` (generic-aware).
    let eq = if toks.get(j).is_some_and(|t| t.is_punct("=")) {
        j
    } else if toks.get(j).is_some_and(|t| t.is_punct(":")) {
        let mut depth = 0i64;
        let mut k = j + 1;
        loop {
            let t = toks.get(k)?;
            if t.kind == TokKind::Punct {
                match t.text.as_str() {
                    "(" | "[" | "{" | "<" => depth += 1,
                    ")" | "]" | "}" | ">" => depth -= 1,
                    ">>" => depth -= 2,
                    "=" if depth <= 0 => break k,
                    ";" if depth <= 0 => return None,
                    _ => {}
                }
            }
            k += 1;
            if k >= hi {
                return None;
            }
        }
    } else {
        return None;
    };
    let end = stmt_end(toks, eq + 1, hi)?;
    // The last acquisition in the initialiser…
    let mut last: Option<(String, usize)> = None;
    let mut k = eq + 1;
    while k < end {
        if let Some(found) = acquisition_at(toks, k, lo, end, self_type, lf, aliases) {
            last = Some(found);
        }
        k += 1;
    }
    let (key, close) = last?;
    // …must be the value the binding receives: only `.unwrap()`,
    // `.expect(…)` and `?` may follow it before the `;`.
    let mut tail = close + 1;
    loop {
        if tail == end {
            return Some(GuardBinding {
                name,
                key,
                depth,
                start: end,
                alive: true,
            });
        }
        if toks[tail].is_punct("?") {
            tail += 1;
            continue;
        }
        if toks[tail].is_punct(".")
            && toks
                .get(tail + 1)
                .is_some_and(|t| t.is_ident("unwrap") || t.is_ident("expect"))
            && toks.get(tail + 2).is_some_and(|t| t.is_punct("("))
        {
            tail = matching(toks, tail + 2, end) + 1;
            continue;
        }
        return None;
    }
}

// ---------------------------------------------------------------------------
// Whole-workspace analysis

fn fn_display(func: &FnDef) -> String {
    match &func.self_type {
        Some(st) => format!("{st}::{}", func.name),
        None => func.name.clone(),
    }
}

fn analyze<F: AsRef<FileIndex>>(
    files: &[F],
    graph: &CallGraph,
) -> (ConcurrencyModel, Vec<Diagnostic>) {
    let lf = LockFields::build(files);
    let mut diags = Vec::new();

    // Publisher atomics from `// ctlint: publishes(…)` annotations.
    let mut publishers: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
    for f in files {
        let f = f.as_ref();
        if is_vendored(&f.path) {
            continue;
        }
        for ty in &f.types {
            if ty.in_test {
                continue;
            }
            for field in &ty.fields {
                if let Some(list) = &field.publishes {
                    publishers
                        .entry(format!("{}.{}", ty.name, field.name))
                        .or_default()
                        .extend(list.iter().cloned());
                }
            }
        }
    }

    // Per-function scans (production functions in non-vendored files).
    let mut scans: BTreeMap<FnId, FnScan> = BTreeMap::new();
    for (fi, f) in files.iter().enumerate() {
        let fr = f.as_ref();
        if is_vendored(&fr.path) {
            continue;
        }
        for (gi, func) in fr.fns.iter().enumerate() {
            if func.in_test {
                continue;
            }
            let id = FnId {
                file: fi,
                fn_idx: gi,
            };
            scans.insert(id, scan_fn(files, fi, func, &lf, &publishers, graph));
        }
    }

    // Interprocedural acquisition sets: monotone fixpoint over the call
    // graph (result independent of iteration order).
    let mut acq: BTreeMap<FnId, BTreeSet<String>> = scans
        .iter()
        .map(|(id, s)| (*id, s.direct.clone()))
        .collect();
    loop {
        let mut changed = false;
        let snapshot = acq.clone();
        for (id, set) in acq.iter_mut() {
            for cs in &graph.calls[id.file][id.fn_idx] {
                if let Some(target) = graph.resolve(&cs.callee) {
                    if let Some(t_set) = snapshot.get(&target) {
                        for k in t_set {
                            changed |= set.insert(k.clone());
                        }
                    }
                }
            }
        }
        if !changed {
            break;
        }
    }

    // Assemble the global lock-acquisition graph with minimised witnesses.
    let mut edges: BTreeMap<(String, String), String> = BTreeMap::new();
    let mut add_edge = |from: &str, to: &str, path: &str, line: u32| {
        let site = format!("{path}:{line}");
        edges
            .entry((from.to_string(), to.to_string()))
            .and_modify(|s| {
                if site < *s {
                    *s = site.clone();
                }
            })
            .or_insert(site);
    };
    for (id, scan) in &scans {
        let path = &files[id.file].as_ref().path;
        for (from, to, line) in &scan.edges {
            add_edge(from, to, path, *line);
        }
        for (held, callee, line) in &scan.held_calls {
            if let Some(target) = graph.resolve(callee) {
                if let Some(t_set) = acq.get(&target) {
                    for from in held {
                        for to in t_set {
                            add_edge(from, to, path, *line);
                        }
                    }
                }
            }
        }
    }

    diags.extend(scans.values().flat_map(|s| s.diags.iter().cloned()));

    // Cycle detection over the lock graph.
    diags.extend(lock_cycles(&edges));

    // SIMD dispatch gating.
    simd_gate(files, graph, &mut diags);

    // Model assembly.
    let mut held_sets: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
    for (id, set) in &acq {
        if set.is_empty() {
            continue;
        }
        let func = &files[id.file].as_ref().fns[id.fn_idx];
        held_sets
            .entry(fn_display(func))
            .or_default()
            .extend(set.iter().cloned());
    }
    let model = ConcurrencyModel {
        lock_decls: lf.decls,
        held_sets,
        edges,
        publishers,
    };
    (model, diags)
}

/// Report every strongly connected component of the lock graph that
/// contains a cycle (including self-edges), deterministically.
fn lock_cycles(edges: &BTreeMap<(String, String), String>) -> Vec<Diagnostic> {
    let mut adj: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
    for (from, to) in edges.keys() {
        adj.entry(from).or_default().insert(to);
        adj.entry(to).or_default();
    }
    // Iterative Tarjan SCC over name-sorted nodes.
    let nodes: Vec<&str> = adj.keys().copied().collect();
    let index_of: BTreeMap<&str, usize> = nodes.iter().enumerate().map(|(i, n)| (*n, i)).collect();
    let n = nodes.len();
    let mut index = vec![usize::MAX; n];
    let mut low = vec![0usize; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<usize> = Vec::new();
    let mut next_index = 0usize;
    let mut sccs: Vec<Vec<usize>> = Vec::new();

    for start in 0..n {
        if index[start] != usize::MAX {
            continue;
        }
        // Explicit DFS stack: (node, neighbour iterator position).
        let mut work: Vec<(usize, usize)> = vec![(start, 0)];
        while let Some(&mut (v, ref mut ni)) = work.last_mut() {
            if *ni == 0 {
                index[v] = next_index;
                low[v] = next_index;
                next_index += 1;
                stack.push(v);
                on_stack[v] = true;
            }
            let neighbours: Vec<usize> = adj[nodes[v]].iter().map(|t| index_of[t]).collect();
            if *ni < neighbours.len() {
                let w = neighbours[*ni];
                *ni += 1;
                if index[w] == usize::MAX {
                    work.push((w, 0));
                } else if on_stack[w] {
                    low[v] = low[v].min(index[w]);
                }
            } else {
                if low[v] == index[v] {
                    let mut comp = Vec::new();
                    while let Some(w) = stack.pop() {
                        on_stack[w] = false;
                        comp.push(w);
                        if w == v {
                            break;
                        }
                    }
                    sccs.push(comp);
                }
                work.pop();
                if let Some(&mut (u, _)) = work.last_mut() {
                    low[u] = low[u].min(low[v]);
                }
            }
        }
    }

    let mut out = Vec::new();
    for comp in sccs {
        let mut members: Vec<&str> = comp.iter().map(|&i| nodes[i]).collect();
        members.sort_unstable();
        let cyclic =
            members.len() > 1 || (members.len() == 1 && adj[members[0]].contains(members[0]));
        if !cyclic {
            continue;
        }
        let member_set: BTreeSet<&str> = members.iter().copied().collect();
        // Witness: the smallest internal edge site.
        let witness = edges
            .iter()
            .filter(|((a, b), _)| {
                member_set.contains(a.as_str()) && member_set.contains(b.as_str())
            })
            .map(|(_, site)| site.clone())
            .min()
            .unwrap_or_default();
        let (file, line) = witness
            .rsplit_once(':')
            .map(|(f, l)| (f.to_string(), l.parse().unwrap_or(0)))
            .unwrap_or((witness.clone(), 0));
        // A deterministic cycle path for the message: walk min-neighbour
        // edges inside the component starting from the smallest member.
        let head = members[0];
        let mut path = vec![head];
        let mut cur = head;
        loop {
            let next = adj[cur]
                .iter()
                .copied()
                .filter(|t| member_set.contains(t))
                .find(|t| !path.contains(t))
                .or_else(|| {
                    adj[cur]
                        .iter()
                        .copied()
                        .find(|t| *t == head || member_set.contains(t))
                });
            match next {
                Some(t) if t == head || path.contains(&t) => {
                    path.push(t);
                    break;
                }
                Some(t) => {
                    path.push(t);
                    cur = t;
                }
                None => break,
            }
        }
        let cycle = path.join(" -> ");
        out.push(Diagnostic {
            rule: Rule::LockOrder,
            file,
            line,
            ident: head.to_string(),
            message: format!(
                "lock-order cycle: {cycle} — the lock-acquisition graph must stay \
                 acyclic (fix the acquisition order; a [[concurrency]] waiver is a \
                 last resort)"
            ),
        });
    }
    out
}

// ---------------------------------------------------------------------------
// SIMD dispatch gating

/// Does this function's body mention a CPUID detect?
fn gated(f: &FileIndex, func: &FnDef) -> bool {
    f.tokens[func.body.0..func.body.1].iter().any(|t| {
        t.kind == TokKind::Ident
            && (t.text.ends_with("available") || t.text.contains("feature_detected"))
    })
}

fn simd_gate<F: AsRef<FileIndex>>(files: &[F], graph: &CallGraph, diags: &mut Vec<Diagnostic>) {
    // Kernel table: production #[target_feature] functions.
    let mut kernels: Vec<(FnId, String)> = Vec::new();
    let mut kernel_names: BTreeSet<&str> = BTreeSet::new();
    for (fi, f) in files.iter().enumerate() {
        let fr = f.as_ref();
        if is_vendored(&fr.path) {
            continue;
        }
        for (gi, func) in fr.fns.iter().enumerate() {
            if func.target_feature && !func.in_test {
                kernels.push((
                    FnId {
                        file: fi,
                        fn_idx: gi,
                    },
                    func.name.clone(),
                ));
                kernel_names.insert(&fr.fns[gi].name);
            }
        }
    }
    if kernels.is_empty() {
        return;
    }

    // callee name → production callers, with the call-site line.
    let mut callers: BTreeMap<&str, Vec<(FnId, u32)>> = BTreeMap::new();
    for (fi, f) in files.iter().enumerate() {
        let fr = f.as_ref();
        if is_vendored(&fr.path) {
            continue;
        }
        for (gi, func) in fr.fns.iter().enumerate() {
            if func.in_test {
                continue;
            }
            for cs in &graph.calls[fi][gi] {
                callers.entry(cs.callee.as_str()).or_default().push((
                    FnId {
                        file: fi,
                        fn_idx: gi,
                    },
                    cs.line,
                ));
            }
        }
    }

    // Rule (a): walking back from every kernel, some ancestor on the
    // dispatch path must cross a CPUID detect.
    for (kid, kname) in &kernels {
        let Some(direct) = callers.get(kname.as_str()) else {
            continue; // only test code dispatches it
        };
        let direct: Vec<(FnId, u32)> = direct.iter().copied().filter(|(c, _)| *c != *kid).collect();
        if direct.is_empty() {
            continue;
        }
        let mut visited: BTreeSet<FnId> = BTreeSet::new();
        let mut queue: Vec<FnId> = direct.iter().map(|(c, _)| *c).collect();
        queue.sort_unstable();
        let mut found_gate = false;
        while let Some(c) = queue.pop() {
            if !visited.insert(c) {
                continue;
            }
            let cf = files[c.file].as_ref();
            let cfn = &cf.fns[c.fn_idx];
            if gated(cf, cfn) {
                found_gate = true;
                break;
            }
            if let Some(ups) = callers.get(cfn.name.as_str()) {
                for (u, _) in ups {
                    if !visited.contains(u) {
                        queue.push(*u);
                    }
                }
            }
        }
        if !found_gate {
            let witness = direct
                .iter()
                .map(|(c, line)| (files[c.file].as_ref().path.clone(), *line))
                .min()
                .expect("non-empty caller set");
            diags.push(Diagnostic {
                rule: Rule::SimdDispatchGate,
                file: witness.0,
                line: witness.1,
                ident: kname.clone(),
                message: format!(
                    "#[target_feature] kernel `{kname}` is reachable without a CPUID \
                     dispatch gate — no caller path crosses an `*available()` / \
                     `is_x86_feature_detected!` check before invoking it"
                ),
            });
        }
    }

    // Rule (b): an unsafe block that enters SIMD (kernel call or raw
    // `_mm*` intrinsic) must carry a SAFETY comment stating the gate.
    for f in files {
        let fr = f.as_ref();
        if is_vendored(&fr.path) {
            continue;
        }
        for ub in &fr.unsafe_blocks {
            if ub.in_test {
                continue;
            }
            let simd_entry = fr.tokens[ub.body.0..ub.body.1]
                .iter()
                .zip(
                    fr.tokens[ub.body.0 + 1..ub.body.1]
                        .iter()
                        .map(Some)
                        .chain([None]),
                )
                .find_map(|(t, next)| {
                    if t.kind != TokKind::Ident {
                        return None;
                    }
                    if t.text.starts_with("_mm") {
                        return Some(t.text.clone());
                    }
                    if kernel_names.contains(t.text.as_str())
                        && next.is_some_and(|n| n.is_punct("("))
                    {
                        return Some(t.text.clone());
                    }
                    None
                });
            let Some(entry) = simd_entry else {
                continue;
            };
            let text = ub.safety_text.to_lowercase();
            if !GATE_MARKERS.iter().any(|m| text.contains(m)) {
                diags.push(Diagnostic {
                    rule: Rule::SimdDispatchGate,
                    file: fr.path.clone(),
                    line: ub.line,
                    ident: entry.clone(),
                    message: format!(
                        "unsafe SIMD block (`{entry}`) needs a `// SAFETY:` comment \
                         stating the CPUID feature-gate invariant (which detect gates \
                         this path), not a restatement of the code"
                    ),
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::scan_file;

    fn run(sources: &[(&str, &str)]) -> (ConcurrencyModel, Vec<Diagnostic>) {
        let files: Vec<FileIndex> = sources.iter().map(|(p, s)| scan_file(p, s)).collect();
        let graph = CallGraph::build(&files);
        analyze(&files, &graph)
    }

    #[test]
    fn opposite_order_acquisition_is_a_cycle() {
        let src = r#"
            struct S { a: Mutex<u8>, b: Mutex<u8> }
            impl S {
                fn ab(&self) { let ga = self.a.lock(); let gb = self.b.lock(); }
                fn ba(&self) { let gb = self.b.lock(); let ga = self.a.lock(); }
            }
        "#;
        let (model, diags) = run(&[("x.rs", src)]);
        assert!(model.edges.contains_key(&("S.a".into(), "S.b".into())));
        assert!(model.edges.contains_key(&("S.b".into(), "S.a".into())));
        let cycles: Vec<_> = diags.iter().filter(|d| d.rule == Rule::LockOrder).collect();
        assert_eq!(cycles.len(), 1, "{diags:?}");
        assert!(
            cycles[0].message.contains("S.a -> S.b"),
            "{}",
            cycles[0].message
        );
    }

    #[test]
    fn consistent_order_is_clean_and_modelled() {
        let src = r#"
            struct S { a: Mutex<u8>, b: Mutex<u8> }
            impl S {
                fn ab(&self) { let ga = self.a.lock(); let gb = self.b.lock(); }
                fn also_ab(&self) { let ga = self.a.lock(); self.b.lock().checked_add(1); }
            }
        "#;
        let (model, diags) = run(&[("x.rs", src)]);
        assert!(diags.iter().all(|d| d.rule != Rule::LockOrder), "{diags:?}");
        assert_eq!(model.edges.len(), 1);
        assert!(model.held_sets["S::ab"].contains("S.a"));
    }

    #[test]
    fn interprocedural_cycle_through_a_helper() {
        let src = r#"
            struct S { a: Mutex<u8>, b: Mutex<u8> }
            impl S {
                fn outer(&self) { let ga = self.a.lock(); self.helper_b(); }
                fn helper_b(&self) { let gb = self.b.lock(); }
                fn other(&self) { let gb = self.b.lock(); self.helper_a(); }
                fn helper_a(&self) { let ga = self.a.lock(); }
            }
        "#;
        let (model, diags) = run(&[("x.rs", src)]);
        assert!(
            model.edges.contains_key(&("S.a".into(), "S.b".into())),
            "{:?}",
            model.edges
        );
        assert!(diags.iter().any(|d| d.rule == Rule::LockOrder), "{diags:?}");
    }

    #[test]
    fn temporaries_and_dropped_guards_do_not_hold() {
        let src = r#"
            struct S { a: Mutex<u8>, b: Mutex<u8> }
            impl S {
                fn ok(&self) {
                    self.a.lock().checked_add(1);
                    let ga = self.b.lock();
                    drop(ga);
                    let gb = self.a.lock();
                }
            }
        "#;
        let (model, diags) = run(&[("x.rs", src)]);
        assert!(diags.is_empty(), "{diags:?}");
        assert!(model.edges.is_empty(), "{:?}", model.edges);
    }

    #[test]
    fn block_scope_ends_a_guard() {
        let src = r#"
            struct S { a: Mutex<u8>, b: Mutex<u8> }
            impl S {
                fn scoped(&self) {
                    { let ga = self.a.lock(); }
                    let gb = self.b.lock();
                }
            }
        "#;
        let (model, _) = run(&[("x.rs", src)]);
        assert!(model.edges.is_empty(), "{:?}", model.edges);
    }

    #[test]
    fn same_field_double_hold_is_a_self_cycle() {
        let src = r#"
            struct S { shards: Vec<Mutex<u8>> }
            impl S {
                fn both(&self, i: usize, j: usize) {
                    let gi = self.shards[i].lock();
                    let gj = self.shards[j].lock();
                }
            }
        "#;
        let (_, diags) = run(&[("x.rs", src)]);
        let cy: Vec<_> = diags.iter().filter(|d| d.rule == Rule::LockOrder).collect();
        assert_eq!(cy.len(), 1, "{diags:?}");
        assert_eq!(cy[0].ident, "S.shards");
    }

    #[test]
    fn loop_alias_resolves_to_the_field() {
        let src = r#"
            struct S { shards: Vec<Mutex<u8>> }
            impl S {
                fn sweep(&self) {
                    for shard in self.shards.iter() {
                        shard.lock().checked_add(1);
                    }
                }
            }
        "#;
        let (model, diags) = run(&[("x.rs", src)]);
        assert!(diags.is_empty(), "{diags:?}");
        assert!(model.held_sets["S::sweep"].contains("S.shards"));
    }

    #[test]
    fn relaxed_on_publisher_field_fires() {
        let src = r#"
            struct S {
                // ctlint: publishes(snapshot)
                epoch: AtomicU64,
                snapshot: Mutex<u8>,
            }
            impl S {
                fn bad(&self) -> u64 { self.epoch.load(Ordering::Relaxed) }
                fn good(&self) -> u64 { self.epoch.load(Ordering::Acquire) }
            }
        "#;
        let (model, diags) = run(&[("x.rs", src)]);
        assert!(model.publishers.contains_key("S.epoch"));
        let hits: Vec<_> = diags
            .iter()
            .filter(|d| d.rule == Rule::AtomicOrdering)
            .collect();
        assert_eq!(hits.len(), 1, "{diags:?}");
        assert_eq!(hits[0].ident, "epoch");
    }

    #[test]
    fn guard_across_parallel_map_fires() {
        let src = r#"
            struct S { state: Mutex<u8> }
            impl S {
                fn bad(&self, items: &[u8]) {
                    let g = self.state.lock();
                    parallel_map(items, 4, |_c, xs| xs.to_vec());
                }
                fn good(&self, items: &[u8]) {
                    { let g = self.state.lock(); }
                    parallel_map(items, 4, |_c, xs| xs.to_vec());
                }
            }
        "#;
        let (_, diags) = run(&[("x.rs", src)]);
        let hits: Vec<_> = diags
            .iter()
            .filter(|d| d.rule == Rule::LockAcrossCallback)
            .collect();
        assert_eq!(hits.len(), 1, "{diags:?}");
        assert_eq!(hits[0].ident, "S.state");
    }

    #[test]
    fn ungated_kernel_fires_and_gated_is_clean() {
        let bad = r#"
            #[target_feature(enable = "avx2")]
            unsafe fn kern8(x: &mut [u8]) {}
            fn wrapper(x: &mut [u8]) {
                // SAFETY: the dispatcher checked CPUID.
                unsafe { kern8(x) }
            }
            fn root(x: &mut [u8]) { wrapper(x); }
        "#;
        let (_, diags) = run(&[("bad.rs", bad)]);
        assert!(
            diags
                .iter()
                .any(|d| d.rule == Rule::SimdDispatchGate && d.ident == "kern8"),
            "{diags:?}"
        );

        let good = r#"
            fn kern_available() -> bool { true }
            #[target_feature(enable = "avx2")]
            unsafe fn kern8(x: &mut [u8]) {}
            fn wrapper(x: &mut [u8]) {
                // SAFETY: kern_available() gates every call site on CPUID.
                unsafe { kern8(x) }
            }
            fn root(x: &mut [u8]) {
                if kern_available() { wrapper(x); }
            }
        "#;
        let (_, diags) = run(&[("good.rs", good)]);
        assert!(
            diags.iter().all(|d| d.rule != Rule::SimdDispatchGate),
            "{diags:?}"
        );
    }

    #[test]
    fn simd_safety_comment_must_state_the_gate() {
        let src = r#"
            fn kern_available() -> bool { true }
            #[target_feature(enable = "avx2")]
            unsafe fn kern8(x: &mut [u8]) {}
            fn wrapper(x: &mut [u8]) {
                // SAFETY: pointer arithmetic is in bounds.
                unsafe { kern8(x) }
            }
            fn root(x: &mut [u8]) { if kern_available() { wrapper(x); } }
        "#;
        let (_, diags) = run(&[("x.rs", src)]);
        let hits: Vec<_> = diags
            .iter()
            .filter(|d| d.rule == Rule::SimdDispatchGate)
            .collect();
        assert_eq!(hits.len(), 1, "{diags:?}");
        assert!(hits[0].message.contains("SAFETY"), "{}", hits[0].message);
    }

    #[test]
    fn model_render_is_file_order_independent() {
        let a = (
            "a.rs",
            "struct A { m: Mutex<u8> }\nimpl A { fn f(&self) { let g = self.m.lock(); other(); } }",
        );
        let b = ("b.rs", "struct B { n: Mutex<u8> }\nimpl B { fn g(&self) { self.n.lock().checked_add(1); } }\nfn other() {}");
        let (m1, _) = run(&[a, b]);
        let (m2, _) = run(&[b, a]);
        assert_eq!(m1.render(), m2.render());
    }
}
