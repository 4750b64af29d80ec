//! `test-only-api`: public functions without a production caller.
//!
//! A public function that only tests (or nothing) call is code the study
//! carries without using: it has to be read, kept compiling and kept
//! correct, and it suggests a scan path that does not exist. This rule
//! flags a bare-`pub` production function outside `vendor/` when
//!
//! 1. its name is defined exactly once among production functions — the
//!    call graph's resolution discipline ([`crate::callgraph`]), since
//!    matching is by bare name and a shared name cannot be attributed;
//! 2. the name appears as an identifier token nowhere else in production
//!    code: not in another function, not in its own file, not in
//!    `src/bin`, and not in `benches/src`.
//!
//! Production code is every file the lint scans minus its `#[cfg(test)]`
//! items and `mod tests` blocks, plus `benches/src/**`, which builds
//! against the public API and is read here for callers only — no other
//! rule sees it. Comments and string literals are not identifier tokens,
//! and a `use` item imports a name without calling it, so neither counts.
//! The function's own name token and body do not count either: recursion
//! is not a caller.
//!
//! A function that exists for tests on purpose (an observation point such
//! as a ground-truth check, or a portable reference kernel a test compares
//! the fast path against) is waived under `[[api]]` in `ctlint.toml`, with
//! a reason that names the test that reads it.

use std::collections::BTreeMap;

use crate::callgraph::{CallGraph, FnId};
use crate::diag::{Diagnostic, Rule};
use crate::index::FileIndex;
use crate::lexer::{TokKind, Token};

/// Files under this prefix are read for callers only (see the module docs).
pub(crate) const CALLER_ONLY_PREFIX: &str = "benches/src/";

/// Run the rule. `files` are the linted files the call graph was built
/// from; `callers` are the caller-only files.
pub fn check<F: AsRef<FileIndex>>(
    files: &[F],
    callers: &[F],
    graph: &CallGraph,
    diags: &mut Vec<Diagnostic>,
) {
    // Candidates still without a caller; a use removes one.
    let mut uncalled: BTreeMap<&str, FnId> = BTreeMap::new();
    for (name, ids) in &graph.defs {
        let [id] = ids.as_slice() else { continue };
        let file = files[id.file].as_ref();
        if !file.path.starts_with("vendor/") && file.fns[id.fn_idx].is_pub {
            uncalled.insert(name, *id);
        }
    }
    for (fi, f) in files.iter().chain(callers).enumerate() {
        let f = f.as_ref();
        for at in production_idents(f) {
            let name = f.tokens[at].text.as_str();
            let Some(id) = uncalled.get(name) else {
                continue;
            };
            let own = &files[id.file].as_ref().fns[id.fn_idx];
            let in_own_def =
                fi == id.file && (at == own.name_at || (own.body.0..own.body.1).contains(&at));
            if !in_own_def {
                uncalled.remove(name);
            }
        }
    }
    for (name, id) in uncalled {
        let file = files[id.file].as_ref();
        let def = &file.fns[id.fn_idx];
        let qualified = match &def.self_type {
            Some(ty) => format!("{ty}::{name}"),
            None => name.to_string(),
        };
        diags.push(Diagnostic {
            rule: Rule::TestOnlyApi,
            file: file.path.clone(),
            line: def.line,
            ident: name.to_string(),
            message: format!(
                "`pub fn {qualified}` has no production caller: no production code, `src/bin` \
                 or `benches/src` names it. Delete it, or waive it under [[api]] naming the \
                 test that reads it"
            ),
        });
    }
}

/// Token indexes of the identifiers in `f`'s production code: outside the
/// test ranges and outside `use` items.
fn production_idents(f: &FileIndex) -> Vec<usize> {
    let toks: &[Token] = &f.tokens;
    let mut out = Vec::new();
    let mut tests = f.test_ranges.iter().peekable();
    let mut i = 0;
    while i < toks.len() {
        if let Some(&&(lo, hi)) = tests.peek() {
            if i >= lo {
                i = i.max(hi);
                tests.next();
                continue;
            }
        }
        let t = &toks[i];
        if t.is_ident("use") && !toks.get(i + 1).is_some_and(|n| n.is_punct("<")) {
            while i < toks.len() && !toks[i].is_punct(";") {
                i += 1;
            }
            continue;
        }
        if t.kind == TokKind::Ident {
            out.push(i);
        }
        i += 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::scan_file;

    fn findings(files: &[(&str, &str)]) -> Vec<String> {
        let (callers, linted): (Vec<_>, Vec<_>) = files
            .iter()
            .map(|(path, src)| scan_file(path, src))
            .partition(|f| f.path.starts_with(CALLER_ONLY_PREFIX));
        let graph = CallGraph::build(&linted);
        let mut diags = Vec::new();
        check(&linted, &callers, &graph, &mut diags);
        diags.into_iter().map(|d| d.ident).collect()
    }

    #[test]
    fn use_items_and_recursion_are_not_callers() {
        let got = findings(&[
            (
                "crates/a/src/lib.rs",
                "pub use inner::spin;\nmod inner { pub fn spin(n: u32) -> u32 { if n == 0 { 0 } else { spin(n - 1) } } }",
            ),
        ]);
        assert_eq!(got, vec!["spin"]);
    }

    #[test]
    fn a_test_range_hides_its_calls_but_not_what_follows() {
        let got = findings(&[(
            "crates/a/src/lib.rs",
            "pub fn only_tested() {}\npub fn used() {}\n\
             #[cfg(test)]\nfn check() { only_tested(); }\n\
             fn prod() { used(); }",
        )]);
        assert_eq!(got, vec!["only_tested"]);
    }

    #[test]
    fn const_fns_are_indexed() {
        let got = findings(&[(
            "crates/a/src/lib.rs",
            "pub const fn unused_const() -> u8 { 0 }",
        )]);
        assert_eq!(got, vec!["unused_const"]);
    }
}
