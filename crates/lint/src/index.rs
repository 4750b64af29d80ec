//! Item-level scanning: from a token stream to a structural index.
//!
//! This is deliberately *not* a Rust parser. It recognises the handful of
//! item shapes the secret-hygiene analysis needs — `struct`/`enum`
//! definitions (with attributes, fields and `// ctlint:` annotations),
//! `impl` blocks (which trait for which type), and `fn` items (parameter
//! types, return type, body token range) — and skips everything else by
//! bracket matching. Anything it cannot make sense of is ignored rather
//! than reported, so the scanner is robust to arbitrary input.

use crate::lexer::{TokKind, Token};

/// A struct or enum definition.
#[derive(Debug, Clone)]
pub struct TypeDef {
    /// Type name.
    pub name: String,
    /// 1-based definition line.
    pub line: u32,
    /// True for `struct`, false for `enum`.
    pub is_struct: bool,
    /// Marked `// ctlint: secret` at the definition site.
    pub annotated_secret: bool,
    /// Declared lifetime class from `// ctlint: lifetime(connection)` /
    /// `lifetime(epoch)` / `lifetime(process)` — how long values of this
    /// type are allowed to live (see [`crate::lifetime`]).
    pub lifetime_class: Option<String>,
    /// Traits named in `#[derive(...)]` attributes.
    pub derives: Vec<String>,
    /// Named fields (empty for enums / tuple structs).
    pub fields: Vec<FieldDef>,
    /// Defined inside `#[cfg(test)]` code.
    pub in_test: bool,
}

/// One named struct field.
#[derive(Debug, Clone)]
pub struct FieldDef {
    /// Field name.
    pub name: String,
    /// Every identifier appearing in the field's type.
    pub type_idents: Vec<String>,
    /// Type textually contains raw byte material (`u8` arrays/slices/vecs,
    /// or the bignum limb type `Ub`).
    pub byteish: bool,
    /// Marked `// ctlint: public` — excluded from taint even in a secret
    /// type (wire-visible identifiers, timestamps, counters).
    pub annotated_public: bool,
    /// Marked `// ctlint: secret` — force-included in taint.
    pub annotated_secret: bool,
    /// Marked `// ctlint: publishes(a, b)` — this atomic field gates the
    /// visibility of the named sibling data, so `Relaxed` operations on it
    /// fire `atomic-ordering` (see [`crate::concurrency`]). `Some` even
    /// when the list is empty.
    pub publishes: Option<Vec<String>>,
}

/// An `impl` block header.
#[derive(Debug, Clone)]
pub struct ImplDef {
    /// Final trait-path segment (`Debug`, `Display`, `Drop`, `Wipe`), or
    /// `None` for inherent impls.
    pub trait_name: Option<String>,
    /// Final path segment of the implementing type.
    pub type_name: String,
    /// 1-based line of the `impl` keyword.
    pub line: u32,
    /// Inside `#[cfg(test)]` code.
    pub in_test: bool,
}

/// A function item with a body.
#[derive(Debug, Clone)]
pub struct FnDef {
    /// Function name.
    pub name: String,
    /// Token index of the name (the identifier after `fn`).
    pub name_at: usize,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Declared with a bare `pub` (not `pub(crate)`, `pub(super)` or
    /// `pub(in …)`): part of the crate's public API.
    pub is_pub: bool,
    /// Marked `// ctlint: secret`: every parameter (and the return value)
    /// is treated as secret-tainted.
    pub annotated_secret: bool,
    /// `(binding ident, identifiers in the declared type)` per parameter.
    /// `self` receivers are omitted.
    pub params: Vec<(String, Vec<String>)>,
    /// Identifiers appearing in the return type.
    pub return_idents: Vec<String>,
    /// Half-open token range of the body inside the file token vector.
    pub body: (usize, usize),
    /// Inside `#[cfg(test)]` code.
    pub in_test: bool,
    /// The `impl` block's type name when this is a method (`impl Foo {
    /// fn … }` records `Foo`); `None` for free functions.
    pub self_type: Option<String>,
    /// Carries a `#[target_feature(enable = …)]` attribute — a SIMD kernel
    /// whose call sites must be CPUID-gated (see [`crate::concurrency`]).
    pub target_feature: bool,
}

/// One `unsafe { … }` block found in a function body.
#[derive(Debug, Clone)]
pub struct UnsafeBlock {
    /// 1-based line of the `unsafe` keyword.
    pub line: u32,
    /// Half-open token range of the block body (inside the braces).
    pub body: (usize, usize),
    /// A `// SAFETY:` line comment immediately precedes the block or opens
    /// its body.
    pub has_safety_comment: bool,
    /// The text of that comment run (the `SAFETY` line plus its
    /// continuation lines), empty when absent. The SIMD-audit rule greps
    /// it for the CPUID gate the comment is supposed to name.
    pub safety_text: String,
    /// Inside `#[cfg(test)]` code.
    pub in_test: bool,
}

/// Everything extracted from one file.
#[derive(Debug, Default)]
pub struct FileIndex {
    /// Workspace-relative path.
    pub path: String,
    /// The file's full token stream (fn bodies are ranges into this).
    pub tokens: Vec<Token>,
    /// Type definitions.
    pub types: Vec<TypeDef>,
    /// Impl blocks.
    pub impls: Vec<ImplDef>,
    /// Function items.
    pub fns: Vec<FnDef>,
    /// Half-open token ranges of the outermost `#[cfg(test)]` items and
    /// `mod tests` blocks, in source order. Tokens outside them are
    /// production code.
    pub test_ranges: Vec<(usize, usize)>,
    /// `unsafe { … }` expression blocks (audited by the `unsafe-audit`
    /// rule). `unsafe fn` *declarations* are deliberately not listed: their
    /// obligations are discharged at call sites, which are unsafe blocks.
    pub unsafe_blocks: Vec<UnsafeBlock>,
}

impl AsRef<FileIndex> for FileIndex {
    fn as_ref(&self) -> &FileIndex {
        self
    }
}

/// Scan one file.
pub fn scan_file(path: &str, src: &str) -> FileIndex {
    let tokens = crate::lexer::lex(src);
    let mut idx = FileIndex {
        path: path.to_string(),
        ..FileIndex::default()
    };
    let end = tokens.len();
    scan_items(&tokens, 0, end, false, &mut idx);
    idx.unsafe_blocks = find_unsafe_blocks(&tokens, &idx.fns);
    idx.tokens = tokens;
    idx
}

/// Locate every `unsafe { … }` expression block and whether it carries a
/// `// SAFETY:` justification — either in the contiguous comment run
/// directly above the `unsafe` keyword, or as a comment inside the block.
fn find_unsafe_blocks(toks: &[Token], fns: &[FnDef]) -> Vec<UnsafeBlock> {
    let is_safety = |t: &Token| {
        t.kind == TokKind::LineComment
            && t.text
                .trim_start_matches(['/', '!'])
                .trim_start()
                .starts_with("SAFETY")
    };
    let mut out = Vec::new();
    for i in 0..toks.len() {
        if !toks[i].is_ident("unsafe") || !toks.get(i + 1).is_some_and(|t| t.is_punct("{")) {
            continue;
        }
        let close = matching(toks, i + 1, toks.len());
        // The comment run directly above: walk back over consecutive
        // line comments (a multi-line SAFETY comment is several tokens).
        let mut justified = false;
        let mut run_start = i;
        let mut j = i;
        while j > 0 && toks[j - 1].kind == TokKind::LineComment {
            j -= 1;
            run_start = j;
            if is_safety(&toks[j]) {
                justified = true;
                break;
            }
        }
        let mut safety_text = String::new();
        if justified {
            for t in &toks[run_start..i] {
                if t.kind == TokKind::LineComment {
                    safety_text.push_str(&t.text);
                    safety_text.push(' ');
                }
            }
        } else {
            // Or the justification opens the block body itself: capture the
            // whole contiguous comment run starting at the SAFETY line.
            if let Some(s) = toks[i + 2..close].iter().position(is_safety) {
                justified = true;
                for t in &toks[i + 2 + s..close] {
                    if t.kind != TokKind::LineComment {
                        break;
                    }
                    safety_text.push_str(&t.text);
                    safety_text.push(' ');
                }
            }
        }
        let in_test = fns
            .iter()
            .any(|f| f.in_test && f.body.0 <= i && i < f.body.1);
        out.push(UnsafeBlock {
            line: toks[i].line,
            body: (i + 2, close),
            has_safety_comment: justified,
            safety_text,
            in_test,
        });
    }
    out
}

/// Find the index of the close delimiter matching the open one at `open`
/// (which must be `(`, `[` or `{`). Returns `hi` if unbalanced.
pub fn matching(toks: &[Token], open: usize, hi: usize) -> usize {
    let mut depth = 0usize;
    let mut i = open;
    while i < hi {
        match toks[i].text.as_str() {
            "(" | "[" | "{" if toks[i].kind == TokKind::Punct => depth += 1,
            ")" | "]" | "}" if toks[i].kind == TokKind::Punct => {
                depth = depth.saturating_sub(1);
                if depth == 0 {
                    return i;
                }
            }
            _ => {}
        }
        i += 1;
    }
    hi
}

/// Skip a `<...>` generic-argument group starting at `i` (pointing at `<`).
/// Returns the index just past the closing `>`.
fn skip_generics(toks: &[Token], mut i: usize, hi: usize) -> usize {
    let mut depth = 0i64;
    while i < hi {
        match toks[i].text.as_str() {
            "<" | "<=" if toks[i].kind == TokKind::Punct => depth += 1,
            ">" => depth -= 1,
            ">>" => depth -= 2,
            "->" => {}
            _ => {}
        }
        i += 1;
        if depth <= 0 {
            break;
        }
    }
    i
}

/// Pending per-item context accumulated from comments/attributes.
#[derive(Default)]
struct Pending {
    secret: bool,
    public: bool,
    lifetime: Option<String>,
    publishes: Option<Vec<String>>,
    derives: Vec<String>,
    cfg_test: bool,
    target_feature: bool,
    bare_pub: bool,
}

/// Parse one `ctlint:` directive body (`secret`, `public`,
/// `lifetime(connection)`, `publishes(field, …)`) into the pending context.
fn read_ctlint_directive(rest: &str, pend: &mut Pending) {
    let rest = rest.trim();
    match rest {
        "secret" => pend.secret = true,
        "public" => pend.public = true,
        _ => {
            if let Some(class) = rest
                .strip_prefix("lifetime(")
                .and_then(|r| r.strip_suffix(')'))
            {
                pend.lifetime = Some(class.trim().to_string());
            } else if let Some(list) = rest
                .strip_prefix("publishes(")
                .and_then(|r| r.strip_suffix(')'))
            {
                pend.publishes = Some(
                    list.split(',')
                        .map(|s| s.trim().to_string())
                        .filter(|s| !s.is_empty())
                        .collect(),
                );
            }
        }
    }
}

fn scan_items(toks: &[Token], lo: usize, hi: usize, in_test: bool, out: &mut FileIndex) {
    scan_items_with_self(toks, lo, hi, in_test, None, out);
}

fn scan_items_with_self(
    toks: &[Token],
    lo: usize,
    hi: usize,
    in_test: bool,
    self_type: Option<&str>,
    out: &mut FileIndex,
) {
    let mut i = lo;
    let mut pend = Pending::default();
    while i < hi {
        let t = &toks[i];
        match t.kind {
            TokKind::LineComment => {
                let txt = t.text.trim();
                if let Some(rest) = txt.strip_prefix("ctlint:") {
                    read_ctlint_directive(rest, &mut pend);
                }
                i += 1;
            }
            TokKind::Punct if t.text == "#" => {
                // #[attr] or #![attr]
                let mut j = i + 1;
                if j < hi && toks[j].is_punct("!") {
                    j += 1;
                }
                if j < hi && toks[j].is_punct("[") {
                    let close = matching(toks, j, hi);
                    read_attr(toks, j + 1, close, &mut pend);
                    i = close + 1;
                } else {
                    i += 1;
                }
            }
            TokKind::Ident => {
                // An outermost test item: everything up to its end is
                // test code.
                let start = i;
                let test_item = !in_test
                    && (pend.cfg_test
                        || (t.text == "mod"
                            && toks.get(i + 1).is_some_and(|n| n.is_ident("tests"))));
                match t.text.as_str() {
                    "pub" => {
                        // skip visibility, including pub(crate) / pub(in …)
                        i += 1;
                        if i < hi && toks[i].is_punct("(") {
                            i = matching(toks, i, hi) + 1;
                        } else {
                            pend.bare_pub = true;
                        }
                        continue;
                    }
                    "struct" | "enum" | "union" => {
                        i = scan_type_def(toks, i, hi, in_test, &mut pend, out);
                    }
                    "impl" => {
                        i = scan_impl(toks, i, hi, in_test, &mut pend, out);
                    }
                    "fn" => {
                        i = scan_fn(toks, i, hi, in_test, self_type, &mut pend, out);
                    }
                    "mod" => {
                        i = scan_mod(toks, i, hi, in_test, &mut pend, out);
                    }
                    "trait" | "macro_rules" => {
                        i = skip_to_block_end(toks, i, hi);
                        pend = Pending::default();
                    }
                    // `const fn` is a function; `const X: T = …;` is not.
                    "const" if toks.get(i + 1).is_some_and(|n| n.is_ident("fn")) => {
                        i += 1;
                        continue;
                    }
                    "use" | "extern" | "type" | "const" | "static" => {
                        i = skip_to_semi_or_block(toks, i, hi);
                        pend = Pending::default();
                    }
                    // `unsafe`, `async`, `default` etc. prefix other items:
                    // keep pending context and move on.
                    "unsafe" | "async" | "default" => {
                        i += 1;
                        continue;
                    }
                    _ => {
                        i += 1;
                        pend = Pending::default();
                    }
                }
                if test_item {
                    out.test_ranges.push((start, i.min(hi)));
                }
            }
            _ => {
                // Stray tokens at item level (shouldn't happen in valid
                // Rust): skip groups wholesale so we never mis-nest.
                if t.is_punct("{") || t.is_punct("(") || t.is_punct("[") {
                    i = matching(toks, i, hi) + 1;
                } else {
                    i += 1;
                }
                pend = Pending::default();
            }
        }
    }
}

fn read_attr(toks: &[Token], lo: usize, hi: usize, pend: &mut Pending) {
    let mut i = lo;
    while i < hi {
        if toks[i].kind == TokKind::Ident {
            let name = toks[i].text.as_str();
            if name == "derive" && i + 1 < hi && toks[i + 1].is_punct("(") {
                let close = matching(toks, i + 1, hi);
                for t in &toks[i + 2..close] {
                    if t.kind == TokKind::Ident {
                        pend.derives.push(t.text.clone());
                    }
                }
                i = close + 1;
                continue;
            }
            if name == "cfg" && i + 1 < hi && toks[i + 1].is_punct("(") {
                let close = matching(toks, i + 1, hi);
                if toks[i + 2..close].iter().any(|t| t.is_ident("test")) {
                    pend.cfg_test = true;
                }
                i = close + 1;
                continue;
            }
            if name == "target_feature" {
                pend.target_feature = true;
            }
        }
        i += 1;
    }
}

fn scan_type_def(
    toks: &[Token],
    kw: usize,
    hi: usize,
    in_test: bool,
    pend: &mut Pending,
    out: &mut FileIndex,
) -> usize {
    let is_struct = toks[kw].text == "struct";
    let mut i = kw + 1;
    let Some(name_tok) = toks.get(i).filter(|t| t.kind == TokKind::Ident) else {
        *pend = Pending::default();
        return i;
    };
    let mut def = TypeDef {
        name: name_tok.text.clone(),
        line: toks[kw].line,
        is_struct,
        annotated_secret: pend.secret,
        lifetime_class: pend.lifetime.take(),
        derives: std::mem::take(&mut pend.derives),
        fields: Vec::new(),
        in_test,
    };
    i += 1;
    if i < hi && toks[i].is_punct("<") {
        i = skip_generics(toks, i, hi);
    }
    // where-clause (if any) runs until the body/terminator
    while i < hi && !toks[i].is_punct("{") && !toks[i].is_punct("(") && !toks[i].is_punct(";") {
        i += 1;
    }
    if i < hi && toks[i].is_punct("{") {
        let close = matching(toks, i, hi);
        if is_struct {
            scan_fields(toks, i + 1, close, &mut def);
        }
        i = close + 1;
    } else if i < hi && toks[i].is_punct("(") {
        // tuple struct: no named fields to record; skip to `;`
        let close = matching(toks, i, hi);
        i = close + 1;
        while i < hi && !toks[i].is_punct(";") {
            i += 1;
        }
        i += 1;
    } else {
        i += 1; // `;`
    }
    out.types.push(def);
    *pend = Pending::default();
    i
}

fn scan_fields(toks: &[Token], lo: usize, hi: usize, def: &mut TypeDef) {
    let mut i = lo;
    let mut f_secret = false;
    let mut f_public = false;
    let mut f_publishes: Option<Vec<String>> = None;
    while i < hi {
        match toks[i].kind {
            TokKind::LineComment => {
                let txt = toks[i].text.trim();
                if let Some(rest) = txt.strip_prefix("ctlint:") {
                    match rest.trim() {
                        "secret" => f_secret = true,
                        "public" => f_public = true,
                        other => {
                            if let Some(list) = other
                                .strip_prefix("publishes(")
                                .and_then(|r| r.strip_suffix(')'))
                            {
                                f_publishes = Some(
                                    list.split(',')
                                        .map(|s| s.trim().to_string())
                                        .filter(|s| !s.is_empty())
                                        .collect(),
                                );
                            }
                        }
                    }
                }
                i += 1;
            }
            TokKind::Punct if toks[i].text == "#" => {
                let mut j = i + 1;
                if j < hi && toks[j].is_punct("[") {
                    j = matching(toks, j, hi) + 1;
                }
                i = j;
            }
            TokKind::Ident if toks[i].text == "pub" => {
                i += 1;
                if i < hi && toks[i].is_punct("(") {
                    i = matching(toks, i, hi) + 1;
                }
            }
            TokKind::Ident => {
                // `name : type-tokens` up to a depth-0 comma
                let name = toks[i].text.clone();
                i += 1;
                if i < hi && toks[i].is_punct(":") {
                    i += 1;
                    let ty_start = i;
                    let mut depth = 0usize;
                    while i < hi {
                        let tx = toks[i].text.as_str();
                        if toks[i].kind == TokKind::Punct {
                            match tx {
                                // Generic arguments nest too: the comma in
                                // `BTreeMap<Vec<u8>, Entry>` must not end
                                // the field. `>>` closes two levels (the
                                // lexer max-munches it into one token).
                                "(" | "[" | "{" | "<" => depth += 1,
                                ")" | "]" | "}" | ">" => depth = depth.saturating_sub(1),
                                ">>" => depth = depth.saturating_sub(2),
                                "," if depth == 0 => break,
                                _ => {}
                            }
                        }
                        i += 1;
                    }
                    let ty = &toks[ty_start..i];
                    let type_idents: Vec<String> = ty
                        .iter()
                        .filter(|t| t.kind == TokKind::Ident)
                        .map(|t| t.text.clone())
                        .collect();
                    let byteish = type_idents
                        .iter()
                        .any(|n| n == "u8" || n == "Ub" || n == "BytesMut");
                    def.fields.push(FieldDef {
                        name,
                        type_idents,
                        byteish,
                        annotated_public: f_public,
                        annotated_secret: f_secret,
                        publishes: f_publishes.take(),
                    });
                    i += 1; // comma
                }
                f_secret = false;
                f_public = false;
                f_publishes = None;
            }
            _ => i += 1,
        }
    }
}

fn scan_impl(
    toks: &[Token],
    kw: usize,
    hi: usize,
    in_test: bool,
    pend: &mut Pending,
    out: &mut FileIndex,
) -> usize {
    let line = toks[kw].line;
    let mut i = kw + 1;
    if i < hi && toks[i].is_punct("<") {
        i = skip_generics(toks, i, hi);
    }
    // header runs to the body brace (or `where`)
    let mut header = Vec::new();
    let mut depth = 0usize;
    while i < hi {
        let t = &toks[i];
        if t.kind == TokKind::Punct {
            match t.text.as_str() {
                "{" if depth == 0 => break,
                "(" | "[" => depth += 1,
                ")" | "]" => depth = depth.saturating_sub(1),
                _ => {}
            }
        }
        if t.is_ident("where") && depth == 0 {
            // discard bounds; body brace still terminates the loop
            while i < hi && !toks[i].is_punct("{") {
                i += 1;
            }
            break;
        }
        header.push(i);
        i += 1;
    }
    let body_open = i;
    let body_close = if body_open < hi {
        matching(toks, body_open, hi)
    } else {
        hi
    };

    // Split the header at a top-level `for` (trait impls).
    let for_pos = header.iter().position(|&j| toks[j].is_ident("for"));
    let (trait_name, type_name) = match for_pos {
        Some(p) => (
            path_final_ident(toks, &header[..p]),
            path_final_ident(toks, &header[p + 1..]),
        ),
        None => (None, path_final_ident(toks, &header)),
    };

    if let Some(type_name) = type_name {
        out.impls.push(ImplDef {
            trait_name,
            type_name: type_name.clone(),
            line,
            in_test: in_test || pend.cfg_test,
        });
        if body_open < hi {
            scan_items_with_self(
                toks,
                body_open + 1,
                body_close,
                in_test || pend.cfg_test,
                Some(&type_name),
                out,
            );
        }
    }
    *pend = Pending::default();
    body_close + 1
}

/// Last identifier of a path, ignoring generic arguments: `std::fmt::Debug`
/// → `Debug`, `Vec<u8>` → `Vec`, `&mut Foo<T>` → `Foo`.
fn path_final_ident(toks: &[Token], positions: &[usize]) -> Option<String> {
    let mut last = None;
    for &j in positions {
        let t = &toks[j];
        if t.is_punct("<") {
            break;
        }
        if t.kind == TokKind::Ident && t.text != "dyn" && t.text != "mut" {
            last = Some(t.text.clone());
        }
    }
    last
}

fn scan_fn(
    toks: &[Token],
    kw: usize,
    hi: usize,
    in_test: bool,
    self_type: Option<&str>,
    pend: &mut Pending,
    out: &mut FileIndex,
) -> usize {
    let line = toks[kw].line;
    let name_at = kw + 1;
    let mut i = name_at;
    let Some(name_tok) = toks.get(i).filter(|t| t.kind == TokKind::Ident) else {
        *pend = Pending::default();
        return i;
    };
    let name = name_tok.text.clone();
    i += 1;
    if i < hi && toks[i].is_punct("<") {
        i = skip_generics(toks, i, hi);
    }
    if i >= hi || !toks[i].is_punct("(") {
        *pend = Pending::default();
        return i;
    }
    let params_close = matching(toks, i, hi);
    let params = parse_params(toks, i + 1, params_close);
    i = params_close + 1;

    // Return type: after `->` up to `{`, `where`, or `;`.
    let mut return_idents = Vec::new();
    if i < hi && toks[i].is_punct("->") {
        i += 1;
        let mut depth = 0usize;
        while i < hi {
            let t = &toks[i];
            if t.kind == TokKind::Punct {
                match t.text.as_str() {
                    "{" if depth == 0 => break,
                    "(" | "[" => depth += 1,
                    ")" | "]" => depth = depth.saturating_sub(1),
                    ";" if depth == 0 => break,
                    _ => {}
                }
            }
            if depth == 0 && t.is_ident("where") {
                break;
            }
            if t.kind == TokKind::Ident {
                return_idents.push(t.text.clone());
            }
            i += 1;
        }
    }
    // Skip a where-clause (bracket-aware: bounds like `[u8; N]: Sized`
    // contain semicolons that must not terminate the scan).
    let mut depth = 0usize;
    while i < hi {
        let t = &toks[i];
        if t.kind == TokKind::Punct {
            match t.text.as_str() {
                "{" if depth == 0 => break,
                ";" if depth == 0 => break,
                "(" | "[" => depth += 1,
                ")" | "]" => depth = depth.saturating_sub(1),
                _ => {}
            }
        }
        i += 1;
    }
    let (body, next) = if i < hi && toks[i].is_punct("{") {
        let close = matching(toks, i, hi);
        ((i + 1, close), close + 1)
    } else {
        ((i, i), i + 1) // declaration without body (trait method sig)
    };
    out.fns.push(FnDef {
        name,
        name_at,
        line,
        is_pub: pend.bare_pub,
        annotated_secret: pend.secret,
        params,
        return_idents,
        body,
        in_test: in_test || pend.cfg_test,
        self_type: self_type.map(|s| s.to_string()),
        target_feature: pend.target_feature,
    });
    *pend = Pending::default();
    next
}

fn parse_params(toks: &[Token], lo: usize, hi: usize) -> Vec<(String, Vec<String>)> {
    let mut out = Vec::new();
    let mut i = lo;
    while i < hi {
        // one parameter: pattern `:` type, up to a depth-0 comma
        let start = i;
        let mut colon = None;
        let mut depth = 0usize;
        while i < hi {
            let t = &toks[i];
            if t.kind == TokKind::Punct {
                match t.text.as_str() {
                    "(" | "[" | "{" => depth += 1,
                    ")" | "]" | "}" => depth = depth.saturating_sub(1),
                    "<" => depth += 1,
                    ">" => depth = depth.saturating_sub(1),
                    ">>" => depth = depth.saturating_sub(2),
                    ":" if depth == 0 && colon.is_none() => colon = Some(i),
                    "," if depth == 0 => break,
                    _ => {}
                }
            }
            i += 1;
        }
        if let Some(c) = colon {
            // binding = last plain ident of the pattern (covers `mut x`)
            let binding = toks[start..c]
                .iter()
                .rev()
                .find(|t| t.kind == TokKind::Ident && t.text != "mut" && t.text != "ref")
                .map(|t| t.text.clone());
            if let Some(binding) = binding {
                let type_idents = toks[c + 1..i]
                    .iter()
                    .filter(|t| t.kind == TokKind::Ident)
                    .map(|t| t.text.clone())
                    .collect();
                out.push((binding, type_idents));
            }
        }
        i += 1; // comma
    }
    out
}

fn scan_mod(
    toks: &[Token],
    kw: usize,
    hi: usize,
    in_test: bool,
    pend: &mut Pending,
    out: &mut FileIndex,
) -> usize {
    let mut i = kw + 1;
    let mod_name = toks.get(i).map(|t| t.text.clone()).unwrap_or_default();
    i += 1;
    let inner_test = in_test || pend.cfg_test || mod_name == "tests";
    let next = if i < hi && toks[i].is_punct("{") {
        let close = matching(toks, i, hi);
        scan_items(toks, i + 1, close, inner_test, out);
        close + 1
    } else {
        i + 1 // `mod foo;`
    };
    *pend = Pending::default();
    next
}

fn skip_to_semi_or_block(toks: &[Token], mut i: usize, hi: usize) -> usize {
    let mut depth = 0usize;
    while i < hi {
        let t = &toks[i];
        if t.kind == TokKind::Punct {
            match t.text.as_str() {
                "{" if depth == 0 => return matching(toks, i, hi) + 1,
                "(" | "[" => depth += 1,
                ")" | "]" => depth = depth.saturating_sub(1),
                ";" if depth == 0 => return i + 1,
                _ => {}
            }
        }
        i += 1;
    }
    i
}

fn skip_to_block_end(toks: &[Token], mut i: usize, hi: usize) -> usize {
    while i < hi && !toks[i].is_punct("{") {
        i += 1;
    }
    if i < hi {
        matching(toks, i, hi) + 1
    } else {
        i
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn struct_with_annotations_and_derives() {
        let src = r#"
            // ctlint: secret
            #[derive(Clone, Debug)]
            pub struct Keys {
                // ctlint: public
                pub name: [u8; 16],
                pub enc_key: [u8; 16],
                pub created_at: u64,
            }
        "#;
        let idx = scan_file("t.rs", src);
        assert_eq!(idx.types.len(), 1);
        let t = &idx.types[0];
        assert_eq!(t.name, "Keys");
        assert!(t.annotated_secret);
        assert_eq!(t.derives, vec!["Clone", "Debug"]);
        assert_eq!(t.fields.len(), 3);
        assert!(t.fields[0].annotated_public);
        assert!(t.fields[0].byteish);
        assert!(!t.fields[1].annotated_public);
        assert!(t.fields[1].byteish);
        assert!(!t.fields[2].byteish);
    }

    #[test]
    fn impl_headers() {
        let src = r#"
            impl Keys { fn id(&self) -> u8 { 0 } }
            impl std::fmt::Debug for Keys { fn fmt(&self, f: &mut F) -> R { todo!() } }
            impl Drop for Keys { fn drop(&mut self) {} }
            impl<T: Clone> Wrapper<T> { }
        "#;
        let idx = scan_file("t.rs", src);
        let names: Vec<_> = idx
            .impls
            .iter()
            .map(|i| (i.trait_name.clone(), i.type_name.clone()))
            .collect();
        assert!(names.contains(&(None, "Keys".into())));
        assert!(names.contains(&(Some("Debug".into()), "Keys".into())));
        assert!(names.contains(&(Some("Drop".into()), "Keys".into())));
        assert!(names.contains(&(None, "Wrapper".into())));
    }

    #[test]
    fn fn_params_and_return() {
        let src =
            "fn derive_keys(master: &SessionState, mut label: &[u8]) -> ConnectionKeys { body() }";
        let idx = scan_file("t.rs", src);
        assert_eq!(idx.fns.len(), 1);
        let f = &idx.fns[0];
        assert_eq!(f.name, "derive_keys");
        assert_eq!(f.params[0].0, "master");
        assert!(f.params[0].1.contains(&"SessionState".to_string()));
        assert_eq!(f.params[1].0, "label");
        assert!(f.return_idents.contains(&"ConnectionKeys".to_string()));
        assert!(f.body.1 > f.body.0);
    }

    #[test]
    fn cfg_test_marks_items() {
        let src = r#"
            fn prod() {}
            #[cfg(test)]
            mod tests {
                fn helper(k: &Stek) { let _ = k; }
                struct Fixture { x: [u8; 4] }
            }
        "#;
        let idx = scan_file("t.rs", src);
        assert!(!idx.fns.iter().find(|f| f.name == "prod").unwrap().in_test);
        assert!(idx.fns.iter().find(|f| f.name == "helper").unwrap().in_test);
        assert!(
            idx.types
                .iter()
                .find(|t| t.name == "Fixture")
                .unwrap()
                .in_test
        );
    }

    #[test]
    fn field_types_span_commas_inside_generics() {
        // The comma in `BTreeMap<K, V>` separates generic arguments, not
        // fields — `CacheEntry` must stay in the first field's type, and
        // nested `Vec<Vec<u8>>` (lexed with one `>>` token) must close.
        let src = "struct Cache {\n\
                   entries: BTreeMap<Vec<u8>, CacheEntry>,\n\
                   rows: Vec<Vec<u8>>,\n\
                   n: usize,\n\
                   }";
        let idx = scan_file("t.rs", src);
        let t = &idx.types[0];
        assert_eq!(t.fields.len(), 3, "{:?}", t.fields);
        assert!(t.fields[0].type_idents.contains(&"CacheEntry".to_string()));
        assert!(t.fields[1].byteish);
        assert_eq!(t.fields[2].name, "n");
    }

    #[test]
    fn publishes_annotation_and_target_feature_attr() {
        let src = r#"
            struct Shared {
                // ctlint: publishes(published, horizon)
                epoch: AtomicU64,
                published: Mutex<Arc<Set>>,
            }
            #[target_feature(enable = "avx2")]
            unsafe fn blocks8(state: &[u32; 16]) {}
            fn plain() {}
        "#;
        let idx = scan_file("t.rs", src);
        let t = &idx.types[0];
        assert_eq!(
            t.fields[0].publishes.as_deref(),
            Some(&["published".to_string(), "horizon".to_string()][..])
        );
        assert_eq!(t.fields[1].publishes, None);
        let f = idx.fns.iter().find(|f| f.name == "blocks8").unwrap();
        assert!(f.target_feature);
        assert!(
            !idx.fns
                .iter()
                .find(|f| f.name == "plain")
                .unwrap()
                .target_feature
        );
    }

    #[test]
    fn generic_fn_and_where_clause() {
        let src = "pub fn ct_eq_array<const N: usize>(a: &[u8; N], b: &[u8; N]) -> bool where [u8; N]: Sized { true }";
        let idx = scan_file("t.rs", src);
        let f = &idx.fns[0];
        assert_eq!(f.name, "ct_eq_array");
        assert_eq!(f.params.len(), 2);
        assert!(f.body.1 > f.body.0);
    }
}
