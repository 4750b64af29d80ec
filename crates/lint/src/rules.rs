//! The secret-hygiene rules, plus the taint model they share.
//!
//! ## Taint model
//!
//! A *secret type* is any type named in the seed list ([`crate::config`]),
//! annotated `// ctlint: secret`, or — by fixpoint propagation — any struct
//! with a non-`// ctlint: public` field whose type is itself secret.
//!
//! A *secret field* is a byte-carrying field (`u8` arrays/vecs/slices, `Ub`
//! limbs) of a secret type, unless annotated `// ctlint: public`. Field
//! accesses `.field` to one of these taint the whole expression.
//!
//! Inside a function, taint starts at parameters of secret type (or every
//! parameter if the `fn` carries `// ctlint: secret`) and flows forward
//! through `let` / `for` bindings whose initialiser mentions tainted data.
//! Calls to secret-returning functions (configured names, annotated `fn`s,
//! and anything returning a secret type) taint their result.
//!
//! On top of the per-function pass, the interprocedural facts from
//! [`crate::flow`] seed extra taint: parameters that receive tainted
//! arguments at some resolved call site elsewhere in the workspace, and
//! functions whose returns were observed to carry secrets. That is what
//! catches a master secret laundered through two innocently-typed helper
//! hops into a telemetry sink.
//!
//! `.len()` / `.is_empty()` projections de-taint: lengths of secrets are
//! public in this protocol (TLS key sizes are fixed by the cipher suite).
//!
//! Test code (`#[cfg(test)]` modules, `tests/`/`benches/` trees) is exempt:
//! tests legitimately compare and print key material.

use std::collections::{BTreeSet, HashSet};

use crate::callgraph::{CallGraph, FnId};
use crate::config::Config;
use crate::diag::{Diagnostic, Rule};
use crate::flow::FlowFacts;
use crate::index::{matching, FileIndex, FnDef};
use crate::lexer::{TokKind, Token};
use crate::lifetime::LifetimeModel;

/// Formatter-family macros whose arguments must never mention a secret.
const FMT_MACROS: &[&str] = &[
    "format",
    "print",
    "println",
    "eprint",
    "eprintln",
    "write",
    "writeln",
    "dbg",
    "panic",
    "todo",
    "unimplemented",
    "unreachable",
    "trace",
    "debug",
    "info",
    "warn",
    "error",
    "assert",
    "assert_eq",
    "assert_ne",
    "debug_assert",
    "debug_assert_eq",
    "debug_assert_ne",
];

/// The workspace-wide secret model derived from all file indexes.
pub struct SecretModel {
    /// Every secret type name (seed + annotated + propagated).
    pub secret_types: BTreeSet<String>,
    /// Secret types marked directly (seed list or annotation) — these are
    /// the ones that must implement `Drop`/`Wipe` themselves.
    pub direct_secret_types: BTreeSet<String>,
    /// Byte-carrying field names of secret types.
    pub secret_fields: BTreeSet<String>,
    /// Field names annotated `// ctlint: public` — projecting a tainted
    /// value through one of these yields public data.
    pub public_fields: BTreeSet<String>,
    /// Functions whose return value is secret.
    pub secret_fns: BTreeSet<String>,
    /// Call names that ship their arguments into exported telemetry
    /// (counters, histograms, the event stream). Tainted arguments to
    /// these fire [`Rule::TelemetrySink`].
    pub telemetry_sinks: BTreeSet<String>,
}

impl SecretModel {
    /// Build the model: seed lists, annotations, then field-type fixpoint.
    pub fn build<F: AsRef<FileIndex>>(files: &[F], config: &Config) -> SecretModel {
        let mut secret: BTreeSet<String> = config.secret_types.iter().cloned().collect();
        let mut direct = secret.clone();
        for f in files {
            for t in &f.as_ref().types {
                if t.annotated_secret && !t.in_test {
                    secret.insert(t.name.clone());
                    direct.insert(t.name.clone());
                }
            }
        }
        // Propagate through struct fields until stable. Test-only types
        // and functions stay out of the model: matching is by bare name,
        // and a test helper must not taint a production identifier.
        loop {
            let mut changed = false;
            for f in files {
                for t in &f.as_ref().types {
                    if t.in_test || secret.contains(&t.name) {
                        continue;
                    }
                    let inherits = t.fields.iter().any(|fd| {
                        !fd.annotated_public && fd.type_idents.iter().any(|n| secret.contains(n))
                    });
                    if inherits {
                        secret.insert(t.name.clone());
                        changed = true;
                    }
                }
            }
            if !changed {
                break;
            }
        }
        // Secret fields: byte material of secret types. Public-annotated
        // fields are collected separately so projections through them
        // de-taint.
        let mut fields = BTreeSet::new();
        let mut public_fields = BTreeSet::new();
        for f in files {
            for t in &f.as_ref().types {
                if t.in_test || !secret.contains(&t.name) {
                    continue;
                }
                for fd in &t.fields {
                    if fd.annotated_public {
                        public_fields.insert(fd.name.clone());
                        continue;
                    }
                    if fd.byteish || fd.annotated_secret {
                        fields.insert(fd.name.clone());
                    }
                }
            }
        }
        // Secret-returning functions.
        let mut fns: BTreeSet<String> = config.secret_fns.iter().cloned().collect();
        for f in files {
            for func in &f.as_ref().fns {
                if func.in_test {
                    continue;
                }
                if func.annotated_secret || func.return_idents.iter().any(|n| secret.contains(n)) {
                    fns.insert(func.name.clone());
                }
            }
        }
        SecretModel {
            secret_types: secret,
            direct_secret_types: direct,
            secret_fields: fields,
            public_fields,
            secret_fns: fns,
            telemetry_sinks: config.telemetry_sinks.iter().cloned().collect(),
        }
    }
}

/// Run all rules over the indexed files. Returns raw (pre-allowlist)
/// diagnostics sorted by file/line.
pub fn analyze<F: AsRef<FileIndex> + Sync>(files: &[F], config: &Config) -> Vec<Diagnostic> {
    analyze_with_workers(files, &[], config, 1)
}

/// [`analyze`] with an explicit worker count for the interprocedural
/// fixpoint and the per-file rule pass. The output is byte-identical at
/// every worker count: parallel stages return values re-assembled in
/// chunk order, and the flow rounds are Jacobi-synchronous. `callers`
/// are read by the `test-only-api` rule only (see [`crate::api`]).
pub fn analyze_with_workers<F: AsRef<FileIndex> + Sync>(
    files: &[F],
    callers: &[F],
    config: &Config,
    workers: usize,
) -> Vec<Diagnostic> {
    let model = SecretModel::build(files, config);
    let graph = CallGraph::build(files);
    let facts = crate::flow::solve(files, &model, &graph, workers);
    crate::driver::TAINT_ROUNDS.add(facts.rounds);
    let ltm = LifetimeModel::build(files);

    // Which types have a wipe story (Drop or Wipe impl anywhere)?
    let mut wiped: HashSet<&str> = HashSet::new();
    for f in files {
        for im in &f.as_ref().impls {
            if let Some(tr) = &im.trait_name {
                if tr == "Drop" || tr == "Wipe" {
                    wiped.insert(im.type_name.as_str());
                }
            }
        }
    }

    let ids: Vec<usize> = (0..files.len()).collect();
    let scan = |_chunk: usize, chunk_ids: &[usize]| -> Vec<Diagnostic> {
        let mut out = Vec::new();
        for &fi in chunk_ids {
            check_file(files, fi, &model, &facts, &ltm, &wiped, &mut out);
        }
        out
    };
    let mut diags = if workers > 1 {
        ts_core::par::parallel_map(&ids, workers, scan)
    } else {
        scan(0, &ids)
    };

    // The determinism family shares the indexes but has its own model
    // (hash-collection fields/fns instead of secrets).
    crate::determinism::check(files, &mut diags);

    // The concurrency family reuses the call graph for interprocedural
    // held-lock propagation and SIMD dispatch-gate walks.
    crate::concurrency::check(files, &graph, &mut diags);

    crate::api::check(files, callers, &graph, &mut diags);

    diags.sort_by(|a, b| {
        (&a.file, a.line, a.rule.id(), &a.ident).cmp(&(&b.file, b.line, b.rule.id(), &b.ident))
    });
    diags.dedup();
    diags
}

/// Run every per-file rule over `files[fi]`.
fn check_file<F: AsRef<FileIndex>>(
    files: &[F],
    fi: usize,
    model: &SecretModel,
    facts: &FlowFacts,
    ltm: &LifetimeModel,
    wiped: &HashSet<&str>,
    diags: &mut Vec<Diagnostic>,
) {
    let f = files[fi].as_ref();
    {
        // Rule: secret-leak via derives, and missing-wipe on definitions.
        for t in &f.types {
            if t.in_test || !model.secret_types.contains(&t.name) {
                continue;
            }
            // A derived Debug only leaks when the type itself holds raw
            // secret bytes. Wrapper types whose secrecy comes from a
            // secret-typed field format that field through its own
            // (manual, redacting) impl, so the derive composes safely.
            let holds_raw_bytes = model.direct_secret_types.contains(&t.name)
                || t.fields.iter().any(|fd| fd.byteish && !fd.annotated_public);
            if holds_raw_bytes && t.derives.iter().any(|d| d == "Debug") {
                diags.push(Diagnostic {
                    rule: Rule::SecretLeak,
                    file: f.path.clone(),
                    line: t.line,
                    ident: t.name.clone(),
                    message: format!(
                        "secret type `{}` derives Debug; derive leaks key bytes into any \
                         formatter — write a redacting manual impl instead",
                        t.name
                    ),
                });
            }
            if t.is_struct
                && model.direct_secret_types.contains(&t.name)
                && !wiped.contains(t.name.as_str())
            {
                diags.push(Diagnostic {
                    rule: Rule::MissingWipe,
                    file: f.path.clone(),
                    line: t.line,
                    ident: t.name.clone(),
                    message: format!(
                        "secret type `{}` has no `Drop`/`Wipe` impl; key material will \
                         survive in freed memory — implement `ts_crypto::wipe::Wipe` and \
                         wipe on drop",
                        t.name
                    ),
                });
            }
        }
        // Rule: secret-leak via a manual Display impl.
        for im in &f.impls {
            if im.in_test {
                continue;
            }
            if im.trait_name.as_deref() == Some("Display")
                && model.secret_types.contains(&im.type_name)
            {
                diags.push(Diagnostic {
                    rule: Rule::SecretLeak,
                    file: f.path.clone(),
                    line: im.line,
                    ident: im.type_name.clone(),
                    message: format!(
                        "secret type `{}` implements Display; secret-bearing types must \
                         not be user-printable",
                        im.type_name
                    ),
                });
            }
        }
        // Rule: secret-lifetime at declaration sites.
        crate::lifetime::check_decls(f, model, ltm, diags);
        // Rule: unsafe-audit — missing `// SAFETY:` justification.
        for ub in &f.unsafe_blocks {
            if !ub.in_test && !ub.has_safety_comment {
                diags.push(Diagnostic {
                    rule: Rule::UnsafeAudit,
                    file: f.path.clone(),
                    line: ub.line,
                    ident: "unsafe".to_string(),
                    message: "unsafe block has no `// SAFETY:` comment; every unsafe \
                              block must state the invariant that makes it sound"
                        .to_string(),
                });
            }
        }
        // Body rules.
        for (gi, func) in f.fns.iter().enumerate() {
            if func.in_test {
                continue;
            }
            let id = FnId {
                file: fi,
                fn_idx: gi,
            };
            analyze_body(f, func, id, model, facts, ltm, diags);
        }
    }
}

/// Per-function taint environment.
pub(crate) struct TaintEnv<'m> {
    /// Tainted local bindings (seeded parameters plus `let`/`for` flow).
    pub(crate) idents: HashSet<String>,
    /// The workspace secret model.
    pub(crate) model: &'m SecretModel,
    /// Secret-returning function names — the model's set, possibly
    /// extended with flow-discovered ones (see [`crate::flow`]).
    secret_fns: &'m BTreeSet<String>,
}

impl<'m> TaintEnv<'m> {
    /// An environment with no tainted bindings yet, judging call results
    /// against `secret_fns`.
    pub(crate) fn new(model: &'m SecretModel, secret_fns: &'m BTreeSet<String>) -> TaintEnv<'m> {
        TaintEnv {
            idents: HashSet::new(),
            model,
            secret_fns,
        }
    }

    /// Is the expression spanned by `toks` secret-tainted?
    ///
    /// Mentions immediately projected through `.len()` / `.is_empty()` do
    /// not count — secret *sizes* are public in this protocol.
    pub(crate) fn span_tainted(&self, toks: &[Token]) -> bool {
        self.first_tainted(toks).is_some()
    }

    /// The first tainted identifier mentioned in `toks`, if any.
    pub(crate) fn first_tainted(&self, toks: &[Token]) -> Option<String> {
        for (i, t) in toks.iter().enumerate() {
            if t.kind != TokKind::Ident {
                continue;
            }
            let after_dot = i > 0 && toks[i - 1].is_punct(".");
            let mentions = if after_dot {
                self.model.secret_fields.contains(&t.text)
            } else {
                self.idents.contains(&t.text)
                    || (self.secret_fns.contains(&t.text)
                        && toks.get(i + 1).is_some_and(|n| n.is_punct("(")))
            };
            if mentions && !self.projection_public(toks, i) {
                return Some(t.text.clone());
            }
        }
        None
    }

    /// After the mention at `i`, does the field chain resolve to public
    /// data — a length query (sizes are fixed by the cipher suite), a
    /// scalar DRBG draw (simulation sampling randomness; the generator
    /// *state* stays secret, and byte-level draws like `bytes` /
    /// `fill_bytes` stay tainted), or a `// ctlint: public` field?
    fn projection_public(&self, toks: &[Token], i: usize) -> bool {
        const PUBLIC_CALLS: &[&str] = &[
            "len",
            "is_empty",
            "bit_len",
            "gen_range",
            "gen_bool",
            "gen_f64",
            "next_u64",
        ];
        // Walk the whole chain: `a.material.len()` is public even though
        // `material` is secret (the length of a secret is not a secret).
        // A name in both field sets resolves secret — some type still
        // declares it as live key bytes. Unknown projections (`.clone()`,
        // `.to_vec()`) carry the verdict of what they project from.
        let mut public = false;
        let mut j = i + 1;
        while j + 1 < toks.len() && toks[j].is_punct(".") && toks[j + 1].kind == TokKind::Ident {
            let name = &toks[j + 1].text;
            if PUBLIC_CALLS.contains(&name.as_str())
                && toks.get(j + 2).is_some_and(|t| t.is_punct("("))
            {
                return true;
            }
            if self.model.secret_fields.contains(name) {
                public = false;
            } else if self.model.public_fields.contains(name) {
                public = true;
            }
            j += 2;
        }
        public
    }
}

fn analyze_body(
    f: &FileIndex,
    func: &FnDef,
    id: FnId,
    model: &SecretModel,
    facts: &FlowFacts,
    ltm: &LifetimeModel,
    diags: &mut Vec<Diagnostic>,
) {
    let toks = &f.tokens[func.body.0..func.body.1];
    // Seeding (see `flow::seed_env`): only *direct* secret types (seed
    // list + `// ctlint: secret`) taint a whole parameter — those are the
    // actual key-material holders — plus any parameter position the
    // interprocedural fixpoint proved receives tainted arguments. Then one
    // forward pass over `let` / `for` bindings.
    let env = crate::flow::seed_env(model, facts, id, func, toks);

    let mut i = 0usize;
    while i < toks.len() {
        let t = &toks[i];
        if t.kind == TokKind::Punct && (t.text == "==" || t.text == "!=") {
            check_comparison(f, func, toks, i, &env, diags);
            i += 1;
        } else if t.kind == TokKind::Ident
            && FMT_MACROS.contains(&t.text.as_str())
            && toks.get(i + 1).is_some_and(|n| n.is_punct("!"))
        {
            i = check_fmt_macro(f, toks, i, &env, diags);
        } else if t.is_punct("[") && is_index_open(toks, i) {
            check_index(f, toks, i, &env, diags);
            i += 1;
        } else if t.kind == TokKind::Ident
            && model.telemetry_sinks.contains(&t.text)
            && toks.get(i + 1).is_some_and(|n| n.is_punct("("))
            && !(i > 0 && toks[i - 1].is_ident("fn"))
        {
            i = check_sink_call(f, toks, i, &env, diags);
        } else {
            i += 1;
        }
    }

    // Rule: wipe-on-all-paths — an explicit wipe that an early exit skips.
    check_wipe_paths(f, toks, diags);
    // Rule: secret-lifetime at store sites.
    crate::lifetime::check_stores(f, func, model, ltm, diags);
    // Rule: unsafe-audit — tainted reads inside this fn's unsafe blocks.
    for ub in &f.unsafe_blocks {
        if ub.in_test || ub.body.0 < func.body.0 || ub.body.1 > func.body.1 {
            continue;
        }
        if let Some(ident) = env.first_tainted(&f.tokens[ub.body.0..ub.body.1]) {
            diags.push(Diagnostic {
                rule: Rule::UnsafeAudit,
                file: f.path.clone(),
                line: ub.line,
                ident: ident.clone(),
                message: format!(
                    "unsafe block reads secret-tainted `{ident}`; raw-pointer access to \
                     key material bypasses every other guard — keep secrets behind safe \
                     APIs or waive with the audit rationale"
                ),
            });
        }
    }
}

/// Wipe verbs: `x.wipe()` method calls and the `ts_crypto::wipe` free
/// functions. The rule checks that no `?` / `return` between a binding's
/// initialising statement and its wipe can skip the wipe.
const WIPE_FREE_FNS: &[&str] = &["wipe_bytes", "wipe_u32s", "wipe_u64s"];

fn check_wipe_paths(f: &FileIndex, toks: &[Token], diags: &mut Vec<Diagnostic>) {
    let mut i = 0usize;
    while i < toks.len() {
        let t = &toks[i];
        let mut target: Option<String> = None;
        if t.is_ident("wipe")
            && i >= 2
            && toks[i - 1].is_punct(".")
            && toks.get(i + 1).is_some_and(|n| n.is_punct("("))
            && toks[i - 2].kind == TokKind::Ident
            && !is_keyword(&toks[i - 2].text)
            // A plain local only: `self.field.wipe()` chains are the
            // owning type's lifecycle, not a local cleanup obligation.
            && !(i >= 3 && toks[i - 3].is_punct("."))
        {
            target = Some(toks[i - 2].text.clone());
        } else if t.kind == TokKind::Ident
            && WIPE_FREE_FNS.contains(&t.text.as_str())
            && toks.get(i + 1).is_some_and(|n| n.is_punct("("))
            && !(i > 0 && toks[i - 1].is_ident("fn"))
        {
            let close = matching(toks, i + 1, toks.len());
            // The wiped binding: last plain ident of the argument
            // (`&mut kb` → `kb`); a field access means it is not a local.
            let span = &toks[i + 2..close];
            if let Some(p) = span
                .iter()
                .rposition(|x| x.kind == TokKind::Ident && !is_keyword(&x.text))
            {
                if !(p > 0 && span[p - 1].is_punct(".")) {
                    target = Some(span[p].text.clone());
                }
            }
        }
        if let Some(name) = target.filter(|n| n != "self") {
            check_one_wipe(f, toks, &name, i, diags);
        }
        i += 1;
    }
}

/// Is the explicit wipe of `name` at token `pos` reachable on all paths
/// from its binding? Flags the first `?` / `return` in between.
fn check_one_wipe(
    f: &FileIndex,
    toks: &[Token],
    name: &str,
    pos: usize,
    diags: &mut Vec<Diagnostic>,
) {
    let Some(first) = toks[..pos].iter().position(|t| t.is_ident(name)) else {
        return;
    };
    // The end of the statement that introduces the binding: a `?` inside
    // the initialiser itself cannot leak the value (it does not exist yet).
    let mut j = first;
    let mut depth = 0usize;
    let mut stmt_end = pos;
    while j < pos {
        let x = &toks[j];
        if x.kind == TokKind::Punct {
            match x.text.as_str() {
                "(" | "[" | "{" => depth += 1,
                ")" | "]" | "}" => depth = depth.saturating_sub(1),
                ";" if depth == 0 => {
                    stmt_end = j;
                    break;
                }
                _ => {}
            }
        }
        j += 1;
    }
    for k in stmt_end..pos {
        let x = &toks[k];
        if x.is_punct("?") || x.is_ident("return") {
            let how = if x.is_punct("?") { "`?`" } else { "`return`" };
            diags.push(Diagnostic {
                rule: Rule::WipeOnAllPaths,
                file: f.path.clone(),
                line: x.line,
                ident: name.to_string(),
                message: format!(
                    "`{name}` is wiped at line {} but the {how} here exits first and \
                     skips the wipe, leaving key material live in freed memory — wipe \
                     before the fallible call or hold the buffer in a drop guard",
                    toks[pos].line
                ),
            });
            return; // one finding per wipe site
        }
    }
}

/// Seed and grow the binding taint set in one forward pass.
pub(crate) fn collect_bindings(toks: &[Token], env: &mut TaintEnv<'_>) {
    let mut i = 0usize;
    while i < toks.len() {
        let t = &toks[i];
        if t.is_ident("let") {
            // In `while let` / `if let` the "initialiser" is the scrutinee
            // and ends at the block brace; a plain `let`'s initialiser ends
            // at the semicolon (its depth-0 braces are struct literals).
            let conditional_let =
                i > 0 && (toks[i - 1].is_ident("while") || toks[i - 1].is_ident("if"));
            // pattern … = initialiser … ;   (depth-0 `=` and `;`)
            let mut j = i + 1;
            let mut depth = 0usize;
            let mut eq = None;
            while j < toks.len() {
                let x = &toks[j];
                if x.kind == TokKind::Punct {
                    match x.text.as_str() {
                        "(" | "[" | "{" => depth += 1,
                        ")" | "]" | "}" => {
                            if depth == 0 {
                                break;
                            }
                            depth -= 1;
                        }
                        "=" if depth == 0 => {
                            eq = Some(j);
                            break;
                        }
                        ";" if depth == 0 => break,
                        _ => {}
                    }
                }
                j += 1;
            }
            if let Some(eq) = eq {
                let mut k = eq + 1;
                let mut depth = 0usize;
                while k < toks.len() {
                    let x = &toks[k];
                    if x.kind == TokKind::Punct {
                        match x.text.as_str() {
                            "{" if depth == 0 && conditional_let => break,
                            "(" | "[" | "{" => depth += 1,
                            ")" | "]" | "}" => {
                                if depth == 0 {
                                    break;
                                }
                                depth -= 1;
                            }
                            ";" if depth == 0 => break,
                            _ => {}
                        }
                    }
                    k += 1;
                }
                if env.span_tainted(&toks[eq + 1..k]) {
                    bind_pattern_idents(&toks[i + 1..eq], env);
                }
                i = eq + 1;
                continue;
            }
        } else if t.is_ident("for") {
            // for pat in iter { … }
            let pat_start = i + 1;
            let mut j = pat_start;
            while j < toks.len() && !toks[j].is_ident("in") {
                j += 1;
            }
            if j < toks.len() {
                let mut k = j + 1;
                let mut depth = 0usize;
                while k < toks.len() {
                    let x = &toks[k];
                    if x.kind == TokKind::Punct {
                        match x.text.as_str() {
                            "{" if depth == 0 => break,
                            "(" | "[" => depth += 1,
                            ")" | "]" => depth = depth.saturating_sub(1),
                            _ => {}
                        }
                    }
                    k += 1;
                }
                if env.span_tainted(&toks[j + 1..k]) {
                    bind_pattern_idents(&toks[pat_start..j], env);
                }
                i = j + 1;
                continue;
            }
        }
        i += 1;
    }
}

/// Add the binding identifiers of a pattern to the taint set. Uppercase
/// identifiers (enum constructors, types) and keywords are skipped.
fn bind_pattern_idents(pat: &[Token], env: &mut TaintEnv<'_>) {
    for t in pat {
        if t.kind == TokKind::Ident
            && !matches!(t.text.as_str(), "mut" | "ref" | "_" | "box")
            && !t.text.starts_with(char::is_uppercase)
        {
            env.idents.insert(t.text.clone());
        }
    }
}

/// Is the `[` at `i` an index operation (as opposed to an array literal,
/// attribute, or macro bracket)?
fn is_index_open(toks: &[Token], i: usize) -> bool {
    if i == 0 {
        return false;
    }
    let prev = &toks[i - 1];
    prev.kind == TokKind::Ident && !is_keyword(&prev.text)
        || prev.is_punct("]")
        || prev.is_punct(")")
}

pub(crate) fn is_keyword(s: &str) -> bool {
    matches!(
        s,
        "let"
            | "mut"
            | "ref"
            | "return"
            | "if"
            | "else"
            | "match"
            | "in"
            | "for"
            | "while"
            | "loop"
            | "break"
            | "continue"
            | "as"
            | "move"
            | "fn"
            | "impl"
            | "where"
            | "use"
            | "pub"
            | "struct"
            | "enum"
            | "const"
            | "static"
            | "type"
            | "trait"
            | "mod"
            | "unsafe"
            | "dyn"
            | "box"
            | "await"
            | "async"
            | "crate"
            | "self"
            | "Self"
            | "super"
            | "true"
            | "false"
    )
}

fn check_comparison(
    f: &FileIndex,
    _func: &FnDef,
    toks: &[Token],
    op: usize,
    env: &TaintEnv<'_>,
    diags: &mut Vec<Diagnostic>,
) {
    let left = operand_left(toks, op);
    let right = operand_right(toks, op);
    let hit = env
        .first_tainted(&toks[left..op])
        .or_else(|| env.first_tainted(&toks[op + 1..right]));
    if let Some(ident) = hit {
        let message = format!(
            "`{}` on secret-tainted `{}` is a timing oracle; use \
             `ts_crypto::ct::ct_eq` (or `ct_eq_array`) instead",
            toks[op].text, ident
        );
        diags.push(Diagnostic {
            rule: Rule::NonCtComparison,
            file: f.path.clone(),
            line: toks[op].line,
            ident,
            message,
        });
    }
}

/// Walk the primary-expression chain leftwards from the operator.
/// Returns the start index of the operand span.
fn operand_left(toks: &[Token], op: usize) -> usize {
    let mut i = op;
    while i > 0 {
        let t = &toks[i - 1];
        match t.kind {
            TokKind::Ident if !is_keyword(&t.text) => i -= 1,
            TokKind::Number | TokKind::Str | TokKind::Char => i -= 1,
            TokKind::Punct => match t.text.as_str() {
                "." | "::" | "?" => i -= 1,
                ")" | "]" => {
                    // jump to the matching opener
                    let mut depth = 0i64;
                    let mut j = i - 1;
                    loop {
                        match toks[j].text.as_str() {
                            ")" | "]" | "}" if toks[j].kind == TokKind::Punct => depth += 1,
                            "(" | "[" | "{" if toks[j].kind == TokKind::Punct => {
                                depth -= 1;
                                if depth == 0 {
                                    break;
                                }
                            }
                            _ => {}
                        }
                        if j == 0 {
                            break;
                        }
                        j -= 1;
                    }
                    i = j;
                }
                "&" | "*" => i -= 1,
                _ => break,
            },
            _ => break,
        }
    }
    i
}

/// Walk the primary-expression chain rightwards from the operator.
/// Returns the end index (exclusive) of the operand span.
fn operand_right(toks: &[Token], op: usize) -> usize {
    let mut i = op + 1;
    // unary prefixes
    while i < toks.len()
        && toks[i].kind == TokKind::Punct
        && matches!(toks[i].text.as_str(), "&" | "*" | "!" | "-")
    {
        i += 1;
    }
    while i < toks.len() {
        let t = &toks[i];
        match t.kind {
            TokKind::Ident if t.text == "as" => i += 1,
            TokKind::Ident if !is_keyword(&t.text) => i += 1,
            TokKind::Number | TokKind::Str | TokKind::Char => i += 1,
            TokKind::Punct => match t.text.as_str() {
                "." | "::" | "?" => i += 1,
                "(" | "[" => i = matching(toks, i, toks.len()) + 1,
                _ => break,
            },
            _ => break,
        }
    }
    i
}

/// Check the argument tokens of a formatter-family macro. Returns the
/// index to resume scanning from.
fn check_fmt_macro(
    f: &FileIndex,
    toks: &[Token],
    name_idx: usize,
    env: &TaintEnv<'_>,
    diags: &mut Vec<Diagnostic>,
) -> usize {
    let open = name_idx + 2;
    if !toks
        .get(open)
        .is_some_and(|t| t.is_punct("(") || t.is_punct("[") || t.is_punct("{"))
    {
        return name_idx + 1;
    }
    let close = matching(toks, open, toks.len());
    if let Some(ident) = env.first_tainted(&toks[open + 1..close]) {
        let message = format!(
            "`{}!` argument mentions secret-tainted `{}`; secrets must not reach \
             formatters or log output",
            toks[name_idx].text, ident
        );
        diags.push(Diagnostic {
            rule: Rule::SecretLeak,
            file: f.path.clone(),
            line: toks[name_idx].line,
            ident,
            message,
        });
        // one finding per macro invocation is enough
        return close + 1;
    }
    name_idx + 1
}

/// Check the argument tokens of a telemetry sink call (`observe(..)`,
/// `emit(..)`, `.record(..)`, plus configured names). Returns the index
/// to resume scanning from.
fn check_sink_call(
    f: &FileIndex,
    toks: &[Token],
    name_idx: usize,
    env: &TaintEnv<'_>,
    diags: &mut Vec<Diagnostic>,
) -> usize {
    let open = name_idx + 1;
    let close = matching(toks, open, toks.len());
    if let Some(ident) = env.first_tainted(&toks[open + 1..close]) {
        let message = format!(
            "telemetry sink `{}` receives secret-tainted `{}`; metrics are \
             exported, so only public scalars and static labels may reach a \
             sink — record a length, count, or class label instead",
            toks[name_idx].text, ident
        );
        diags.push(Diagnostic {
            rule: Rule::TelemetrySink,
            file: f.path.clone(),
            line: toks[name_idx].line,
            ident,
            message,
        });
        // one finding per sink call is enough
        return close + 1;
    }
    name_idx + 1
}

fn check_index(
    f: &FileIndex,
    toks: &[Token],
    open: usize,
    env: &TaintEnv<'_>,
    diags: &mut Vec<Diagnostic>,
) {
    let close = matching(toks, open, toks.len());
    if close <= open + 1 {
        return;
    }
    if let Some(ident) = env.first_tainted(&toks[open + 1..close]) {
        let base = toks[..open]
            .iter()
            .rev()
            .find(|t| t.kind == TokKind::Ident && !is_keyword(&t.text))
            .map(|t| t.text.clone())
            .unwrap_or_else(|| "<expr>".to_string());
        diags.push(Diagnostic {
            rule: Rule::SecretIndex,
            file: f.path.clone(),
            line: toks[open].line,
            ident: base,
            message: format!(
                "table `{}` is indexed by secret-tainted `{}`; data-dependent lookups \
                 leak through the cache — mask with `ct_select_u64` or justify in ctlint.toml",
                toks[..open]
                    .iter()
                    .rev()
                    .find(|t| t.kind == TokKind::Ident && !is_keyword(&t.text))
                    .map(|t| t.text.as_str())
                    .unwrap_or("<expr>"),
                ident
            ),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::scan_file;

    fn run(src: &str) -> Vec<Diagnostic> {
        let idx = scan_file("fix.rs", src);
        analyze(&[idx], &Config::default())
    }

    #[test]
    fn comparison_on_secret_param_fires() {
        let d = run("fn check(keys: &Stek, other: &[u8]) -> bool { keys.enc_key == *other }");
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].rule, Rule::NonCtComparison);
    }

    #[test]
    fn len_comparison_is_public() {
        let d = run("fn check(keys: &Stek) -> bool { keys.enc_key.len() == 16 }");
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn let_binding_propagates_taint() {
        let d = run("fn check(state: &SessionState, x: &[u8]) -> bool {\
                 let ms = state.master_secret; ms != *x }");
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].rule, Rule::NonCtComparison);
    }

    #[test]
    fn fmt_macro_leak_fires() {
        let d = run("fn show(kp: &DhKeyPair) -> String { format!(\"{:?}\", kp) }");
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].rule, Rule::SecretLeak);
    }

    #[test]
    fn derive_debug_on_secret_type_fires() {
        let d = run(
            "// ctlint: secret\n#[derive(Debug, Clone)]\nstruct K { b: [u8; 32] }\n\
             impl Drop for K { fn drop(&mut self) {} }",
        );
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].rule, Rule::SecretLeak);
        assert_eq!(d[0].ident, "K");
    }

    #[test]
    fn missing_wipe_fires_and_drop_silences() {
        let bad = run("// ctlint: secret\nstruct K { b: [u8; 32] }");
        assert!(bad.iter().any(|d| d.rule == Rule::MissingWipe), "{bad:?}");
        let good = run(
            "// ctlint: secret\nstruct K { b: [u8; 32] }\nimpl Drop for K { fn drop(&mut self) {} }",
        );
        assert!(good.iter().all(|d| d.rule != Rule::MissingWipe), "{good:?}");
    }

    #[test]
    fn secret_index_fires() {
        let d = run(
            "// ctlint: secret\nfn sub(state: &mut [u8]) { for b in state.iter_mut() { *b = TABLE[*b as usize]; } }",
        );
        assert!(
            d.iter()
                .any(|x| x.rule == Rule::SecretIndex && x.ident == "TABLE"),
            "{d:?}"
        );
    }

    #[test]
    fn public_annotation_detaints_field() {
        let d = run(
            "// ctlint: secret\nstruct K {\n// ctlint: public\nname: [u8; 16],\nkey: [u8; 16],\n}\n\
             impl Drop for K { fn drop(&mut self) {} }\n\
             fn find(k: &K, want: &[u8]) -> bool { k.name == *want }",
        );
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn taint_propagates_through_containing_struct() {
        // Wrapper has a DhKeyPair field → Wrapper is secret → its byteish
        // sibling field is a secret field.
        let d = run("struct Wrapper { kp: DhKeyPair, salt: Vec<u8> }\n\
             fn cmp(w: &Wrapper, x: &[u8]) -> bool { w.salt == *x }");
        assert!(d.iter().any(|x| x.rule == Rule::NonCtComparison), "{d:?}");
    }

    #[test]
    fn test_code_is_exempt() {
        let d = run(
            "#[cfg(test)]\nmod tests {\n fn t(k: &Stek) { assert!(k.enc_key == [0u8; 16]); }\n}",
        );
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn tainted_arg_to_sink_fires() {
        let d = run("fn leak(keys: &Stek) { HANDSHAKES.observe(keys.enc_key[0] as u64); }");
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].rule, Rule::TelemetrySink);
        assert_eq!(d[0].ident, "keys");
    }

    #[test]
    fn tainted_arg_to_free_fn_sink_fires() {
        let d = run(
            "fn leak(state: &SessionState) { let ms = state.master_secret; emit(ms[0] as u64); }",
        );
        assert!(
            d.iter()
                .any(|x| x.rule == Rule::TelemetrySink && x.ident == "ms"),
            "{d:?}"
        );
    }

    #[test]
    fn public_projections_through_sinks_are_clean() {
        // Lengths of secrets are public; so are unrelated scalars.
        let d = run("fn sample(keys: &Stek, n: usize) {\
                 HIST.observe(keys.enc_key.len() as u64);\
                 SPAN.record(n as u64, 7);\
             }");
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn sink_definitions_do_not_fire() {
        // A nested `fn record(...)` is a definition, not a call.
        let d = run("fn outer(keys: &Stek) { fn record(v: u64) { let _ = v; } record(3); }");
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn configured_extra_sink_fires() {
        let mut cfg = Config::default();
        cfg.telemetry_sinks.push("count_outcome".to_string());
        let idx = scan_file(
            "fix.rs",
            "fn leak(keys: &Stek) { count_outcome(keys.enc_key[0]); }",
        );
        let d = analyze(&[idx], &cfg);
        assert!(d.iter().any(|x| x.rule == Rule::TelemetrySink), "{d:?}");
    }

    #[test]
    fn secret_fn_call_taints_binding() {
        let d = run("fn handshake(pre: &[u8]) -> bool {\
               let ms = master_secret(pre, b\"x\", b\"y\");\
               ms == [0u8; 48] }");
        assert!(d.iter().any(|x| x.rule == Rule::NonCtComparison), "{d:?}");
    }
}
