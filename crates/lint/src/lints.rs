//! The lint registry and per-file checks.
//!
//! Every lint is named by a short id (`D1`, `T1`, …) and documented in the
//! [`LINTS`] registry; `ARCHITECTURE.md`'s "Static analysis" section is the
//! human-readable mirror of that table. Each check is a pure function over
//! a [`FileIndex`] plus the file's classification — no I/O, so the fixture
//! corpus under `tests/fixtures/` drives them directly.
//!
//! Findings are *raw* until [`resolve_allows`] applies the
//! `// tdm-lint: allow(<id>): <rationale>` suppressions and emits the A1
//! hygiene findings for unused or malformed allows.

use crate::lexer::{is_keyword, Token, TokenKind};
use crate::scope::FileIndex;

/// One registry entry.
#[derive(Debug, Clone, Copy)]
pub struct LintInfo {
    /// Short id used in findings and allow comments.
    pub id: &'static str,
    /// Kebab-case name.
    pub name: &'static str,
    /// What the lint enforces.
    pub summary: &'static str,
    /// One-line fix hint appended to findings.
    pub hint: &'static str,
}

/// Every lint `tdm-lint` knows, in report order.
pub const LINTS: &[LintInfo] = &[
    LintInfo {
        id: "D1",
        name: "default-hasher-map",
        summary: "`HashMap`/`HashSet` with the default SipHash hasher in deterministic \
                  (non-bench, non-test) code",
        hint: "use `tdm_sim::fast_map::FastMap` or name a hasher type parameter",
    },
    LintInfo {
        id: "D2",
        name: "wall-clock-in-model",
        summary: "`Instant`/`SystemTime`/`std::env` reads inside modeled code (wall-clock \
                  and environment belong to the bench harness only)",
        hint: "thread the value in from the harness instead of reading it in the model",
    },
    LintInfo {
        id: "T1",
        name: "panicking-decoder",
        summary: "`unwrap`/`expect`/`panic!`-family/slice indexing in the total-decoder \
                  modules (snapshot + trace codecs must never panic on bad input)",
        hint: "return a typed `SnapshotError`/`TraceError` (use `get`/`try_into`/`ok_or`)",
    },
    LintInfo {
        id: "C1",
        name: "lossy-cast-in-codec",
        summary: "potentially narrowing `as` cast (to u8/u16/u32/i8/i16/i32/usize/isize/char) \
                  in codec modules or `Persist` impls",
        hint: "use `try_from`/`try_into` with a typed error, or `u32::from`-style widening",
    },
    LintInfo {
        id: "C2",
        name: "save-load-drift",
        summary: "`Persist::save` and `Persist::load` disagree on field idents or order \
                  (plain field-per-statement impls only)",
        hint: "make `load` read exactly the fields `save` writes, in the same order",
    },
    LintInfo {
        id: "U1",
        name: "missing-forbid-unsafe",
        summary: "workspace crate root without `#![forbid(unsafe_code)]`",
        hint: "add `#![forbid(unsafe_code)]` under the crate docs (or a file-level allow \
               with the reason the crate needs unsafe)",
    },
    LintInfo {
        id: "A1",
        name: "allow-hygiene",
        summary: "`tdm-lint: allow` comment that is malformed, names an unknown lint, \
                  lacks a rationale, or suppresses nothing",
        hint: "every allow needs `allow(<ids>): <why>` and must guard a real finding; \
               delete stale ones",
    },
];

/// Looks up a lint id in [`LINTS`].
pub fn lint_info(id: &str) -> Option<&'static LintInfo> {
    LINTS.iter().find(|l| l.id == id)
}

/// The modules whose decoders must be total (T1) and cast-clean (C1).
pub const DECODER_MODULES: &[&str] = &[
    "crates/sim/src/snapshot.rs",
    "crates/runtime/src/trace.rs",
    "crates/runtime/src/fault.rs",
];

/// Coarse classification of a file, derived from its workspace-relative
/// path. Decides which lints apply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// Library source of a modeled crate (core, sim, runtime, workloads,
    /// energy) or the root facade — the deterministic simulation itself.
    Modeled,
    /// The analyzer's own source (held to the determinism bar too).
    Tooling,
    /// Bench harness code: wall-clock and host randomness are its job.
    Bench,
    /// Integration tests.
    Test,
    /// Examples.
    Example,
}

/// A classified file.
#[derive(Debug, Clone)]
pub struct FileClass {
    /// Path relative to the workspace root, `/`-separated.
    pub rel_path: String,
    /// Which family of code this is.
    pub role: Role,
    /// True for a package's `src/lib.rs` (U1 applies).
    pub is_lib_root: bool,
}

/// Classifies `rel_path` (workspace-relative, `/`-separated).
pub fn classify(rel_path: &str) -> FileClass {
    let p = rel_path;
    let role = if p.starts_with("tests/") || p.contains("/tests/") {
        Role::Test
    } else if p.contains("/benches/") {
        Role::Bench
    } else if p.starts_with("examples/") || p.contains("/examples/") {
        Role::Example
    } else if p.starts_with("crates/bench/") || p.starts_with("perfbench/") {
        Role::Bench
    } else if p.starts_with("crates/lint/") {
        Role::Tooling
    } else {
        Role::Modeled
    };
    FileClass {
        rel_path: p.to_string(),
        role,
        is_lib_root: p.ends_with("src/lib.rs"),
    }
}

/// One finding, before or after allow resolution.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line.
    pub line: usize,
    /// 1-based column.
    pub col: usize,
    /// Lint id (`D1`, …).
    pub id: &'static str,
    /// One-line description of this occurrence.
    pub message: String,
}

impl Finding {
    fn at(class: &FileClass, tok: &Token, id: &'static str, message: String) -> Finding {
        Finding {
            file: class.rel_path.clone(),
            line: tok.line,
            col: tok.col,
            id,
            message,
        }
    }
}

/// Runs every per-file lint on an indexed file and resolves allows.
/// This is the single entry point used by both the workspace runner and
/// the fixture harness.
pub fn check_file(class: &FileClass, idx: &FileIndex) -> Vec<Finding> {
    let mut raw = Vec::new();
    d1_default_hasher(class, idx, &mut raw);
    d2_wall_clock(class, idx, &mut raw);
    t1_panicking_decoder(class, idx, &mut raw);
    c1_lossy_cast(class, idx, &mut raw);
    c2_save_load_drift(class, idx, &mut raw);
    u1_forbid_unsafe(class, idx, &mut raw);
    resolve_allows(class, idx, raw)
}

// ---------------------------------------------------------------------------
// D1 — default-hasher maps
// ---------------------------------------------------------------------------

/// Number of top-level generic parameters after `tokens[idx]` (which must
/// be followed by `<`). `None` when the ident is not followed by generics.
fn generic_param_count(tokens: &[Token], idx: usize) -> Option<usize> {
    if !tokens.get(idx + 1).is_some_and(|t| t.is_punct("<")) {
        return None;
    }
    let mut depth = 1usize;
    let mut params = 1usize;
    // Bail after a generous window: a real argument list in this workspace
    // is far shorter, and a pathological stream must not loop.
    for t in tokens.iter().skip(idx + 2).take(256) {
        match t.text.as_str() {
            "<" => depth += 1,
            ">" => {
                depth -= 1;
                if depth == 0 {
                    return Some(params);
                }
            }
            "," if depth == 1 => params += 1,
            ";" | "{" => return None,
            _ => {}
        }
    }
    None
}

fn d1_default_hasher(class: &FileClass, idx: &FileIndex, out: &mut Vec<Finding>) {
    if !matches!(class.role, Role::Modeled | Role::Tooling) {
        return;
    }
    for (i, t) in idx.tokens.iter().enumerate() {
        if idx.in_test(i) {
            continue;
        }
        let required = match t.text.as_str() {
            "HashMap" => 3,
            "HashSet" => 2,
            _ => continue,
        };
        if t.kind != TokenKind::Ident {
            continue;
        }
        let hasher_named = generic_param_count(&idx.tokens, i).is_some_and(|n| n >= required);
        if !hasher_named {
            out.push(Finding::at(
                class,
                t,
                "D1",
                format!(
                    "`{}` with the default SipHash hasher in deterministic code",
                    t.text
                ),
            ));
        }
    }
}

// ---------------------------------------------------------------------------
// D2 — wall-clock / environment reads in modeled code
// ---------------------------------------------------------------------------

const ENV_READS: &[&str] = &[
    "var",
    "vars",
    "var_os",
    "vars_os",
    "args",
    "args_os",
    "temp_dir",
    "current_dir",
];

fn d2_wall_clock(class: &FileClass, idx: &FileIndex, out: &mut Vec<Finding>) {
    if class.role != Role::Modeled {
        return;
    }
    for (i, t) in idx.tokens.iter().enumerate() {
        if t.kind != TokenKind::Ident || idx.in_test(i) {
            continue;
        }
        match t.text.as_str() {
            "Instant" | "SystemTime" => {
                out.push(Finding::at(
                    class,
                    t,
                    "D2",
                    format!("`{}` (host wall clock) referenced in modeled code", t.text),
                ));
            }
            "env" => {
                let is_read = idx.tokens.get(i + 1).is_some_and(|n| n.is_punct("::"))
                    && idx
                        .tokens
                        .get(i + 2)
                        .is_some_and(|n| ENV_READS.contains(&n.text.as_str()));
                if is_read {
                    out.push(Finding::at(
                        class,
                        t,
                        "D2",
                        format!(
                            "`env::{}` (host environment) read in modeled code",
                            idx.tokens[i + 2].text
                        ),
                    ));
                }
            }
            _ => {}
        }
    }
}

// ---------------------------------------------------------------------------
// T1 — panicking constructs in the total-decoder modules
// ---------------------------------------------------------------------------

fn t1_panicking_decoder(class: &FileClass, idx: &FileIndex, out: &mut Vec<Finding>) {
    if !DECODER_MODULES.contains(&class.rel_path.as_str()) {
        return;
    }
    for (i, t) in idx.tokens.iter().enumerate() {
        if idx.in_test(i) {
            continue;
        }
        match (&t.kind, t.text.as_str()) {
            (TokenKind::Ident, "unwrap" | "expect") => {
                out.push(Finding::at(
                    class,
                    t,
                    "T1",
                    format!("`.{}()` in a total-decoder module", t.text),
                ));
            }
            (TokenKind::Ident, "panic" | "unreachable" | "todo" | "unimplemented")
                if idx.tokens.get(i + 1).is_some_and(|n| n.is_punct("!")) =>
            {
                out.push(Finding::at(
                    class,
                    t,
                    "T1",
                    format!("`{}!` in a total-decoder module", t.text),
                ));
            }
            (TokenKind::Punct, "[") => {
                // Indexing: `[` directly after an expression tail (a
                // non-keyword ident, `]` or `)`). Array types, attributes,
                // patterns and `vec![` all have different predecessors.
                let indexing = i > 0
                    && match &idx.tokens[i - 1] {
                        p if p.is_punct("]") || p.is_punct(")") => true,
                        p if p.kind == TokenKind::Ident => !is_keyword(&p.text),
                        _ => false,
                    };
                if indexing {
                    out.push(Finding::at(
                        class,
                        t,
                        "T1",
                        "slice/array indexing (panics when out of bounds) in a total-decoder \
                         module"
                            .to_string(),
                    ));
                }
            }
            _ => {}
        }
    }
}

// ---------------------------------------------------------------------------
// C1 — potentially narrowing `as` casts in codec code
// ---------------------------------------------------------------------------

const NARROW_TARGETS: &[&str] = &[
    "u8", "u16", "u32", "i8", "i16", "i32", "usize", "isize", "char",
];

fn c1_lossy_cast(class: &FileClass, idx: &FileIndex, out: &mut Vec<Finding>) {
    let whole_file = DECODER_MODULES.contains(&class.rel_path.as_str());
    if !whole_file && class.role != Role::Modeled {
        return;
    }
    for (i, t) in idx.tokens.iter().enumerate() {
        if !t.is_ident("as") || idx.in_test(i) {
            continue;
        }
        let Some(target) = idx.tokens.get(i + 1) else {
            continue;
        };
        if !NARROW_TARGETS.contains(&target.text.as_str()) {
            continue;
        }
        let in_scope = whole_file || idx.persist_impls.iter().any(|p| p.span.contains(i));
        if in_scope {
            out.push(Finding::at(
                class,
                t,
                "C1",
                format!(
                    "`as {}` cast can silently narrow/wrap in codec code",
                    target.text
                ),
            ));
        }
    }
}

// ---------------------------------------------------------------------------
// C2 — save/load field symmetry in plain Persist impls
// ---------------------------------------------------------------------------

/// If `range` is exactly a run of `self.<field>.save(<arg>);` statements,
/// returns the ordered field names; otherwise `None` (the impl is not a
/// plain field codec — match-based enums, loops, derived state — and C2
/// cannot judge it statically).
fn plain_save_fields(tokens: &[Token], range: crate::scope::TokenRange) -> Option<Vec<String>> {
    let mut fields = Vec::new();
    let mut i = range.start;
    while i < range.end {
        let stmt = tokens.get(i..i + 8)?;
        let ok = stmt[0].is_ident("self")
            && stmt[1].is_punct(".")
            && stmt[2].kind == TokenKind::Ident
            && stmt[3].is_punct(".")
            && stmt[4].is_ident("save")
            && stmt[5].is_punct("(")
            && stmt[6].kind == TokenKind::Ident
            && stmt[7].is_punct(")");
        if !ok || !tokens.get(i + 8).is_some_and(|t| t.is_punct(";")) {
            return None;
        }
        fields.push(stmt[2].text.clone());
        i += 9;
    }
    if fields.is_empty() {
        None
    } else {
        Some(fields)
    }
}

/// Extracts, in order, the field idents `fn load` decodes: struct-literal
/// fields and `let`/assignment targets whose initializer calls `load`.
fn load_fields(tokens: &[Token], range: crate::scope::TokenRange) -> Vec<String> {
    let mut fields = Vec::new();
    let mut i = range.start;
    while i < range.end {
        // `let [mut] <ident> … = <init with load>;`
        if tokens[i].is_ident("let") {
            let mut k = i + 1;
            if tokens.get(k).is_some_and(|t| t.is_ident("mut")) {
                k += 1;
            }
            let end = stmt_end(tokens, i, range.end);
            let Some(binding) = tokens.get(k).filter(|t| t.kind == TokenKind::Ident) else {
                // Pattern destructuring — nothing C2 can attribute.
                i = end;
                continue;
            };
            // `let table = Foo { a: u8::load(r)?, … };` decodes the literal
            // fields, not a field named after the binding — recurse into
            // the struct literal when there is one.
            if let Some(open) = struct_literal_open(tokens, k + 1, end) {
                let close = crate::scope::matching_close(tokens, open);
                let inner = load_fields(
                    tokens,
                    crate::scope::TokenRange {
                        start: open + 1,
                        end: close.saturating_sub(1).min(end),
                    },
                );
                if !inner.is_empty() {
                    fields.extend(inner);
                    i = end;
                    continue;
                }
            }
            if segment_calls_load(&tokens[i..end]) {
                fields.push(binding.text.clone());
            }
            i = end;
            continue;
        }
        // `<recv>.<field> = <init with load>;`
        if tokens[i].kind == TokenKind::Ident
            && tokens.get(i + 1).is_some_and(|t| t.is_punct("."))
            && tokens
                .get(i + 2)
                .is_some_and(|t| t.kind == TokenKind::Ident)
            && tokens.get(i + 3).is_some_and(|t| t.is_punct("="))
        {
            let name = tokens[i + 2].text.clone();
            let end = stmt_end(tokens, i, range.end);
            if segment_calls_load(&tokens[i..end]) {
                fields.push(name);
            }
            i = end;
            continue;
        }
        // `<field>: <init with load>` inside a struct literal.
        if tokens[i].kind == TokenKind::Ident
            && !is_keyword(&tokens[i].text)
            && tokens.get(i + 1).is_some_and(|t| t.is_punct(":"))
        {
            let name = tokens[i].text.clone();
            let end = initializer_end(tokens, i + 2, range.end);
            if segment_calls_load(&tokens[i..end]) {
                fields.push(name);
            }
            i = end;
            continue;
        }
        i += 1;
    }
    fields
}

/// First `{` in `tokens[i..end]` opening a struct literal: one directly
/// after a non-keyword ident or a generics `>` (so blocks and closures
/// don't match).
fn struct_literal_open(tokens: &[Token], i: usize, end: usize) -> Option<usize> {
    (i.max(1)..end).find(|&j| {
        tokens[j].is_punct("{")
            && match &tokens[j - 1] {
                p if p.is_punct(">") => true,
                p if p.kind == TokenKind::Ident => !is_keyword(&p.text),
                _ => false,
            }
    })
}

/// Index one past the `;` ending the statement starting at `i` (bracket
/// aware), clamped to `limit`.
fn stmt_end(tokens: &[Token], i: usize, limit: usize) -> usize {
    let mut depth = 0isize;
    let mut j = i;
    while j < limit {
        match tokens[j].text.as_str() {
            "(" | "[" | "{" => depth += 1,
            ")" | "]" | "}" => depth -= 1,
            ";" if depth == 0 => return j + 1,
            _ => {}
        }
        j += 1;
    }
    limit
}

/// Index of the `,` or closing `}` that ends a struct-literal initializer
/// starting at `i` (bracket aware), clamped to `limit`.
fn initializer_end(tokens: &[Token], i: usize, limit: usize) -> usize {
    let mut depth = 0isize;
    let mut j = i;
    while j < limit {
        match tokens[j].text.as_str() {
            "(" | "[" | "{" => depth += 1,
            ")" | "]" => depth -= 1,
            "}" => {
                if depth == 0 {
                    return j;
                }
                depth -= 1;
            }
            "," if depth == 0 => return j + 1,
            _ => {}
        }
        j += 1;
    }
    limit
}

fn segment_calls_load(segment: &[Token]) -> bool {
    segment.iter().any(|t| t.is_ident("load"))
}

fn c2_save_load_drift(class: &FileClass, idx: &FileIndex, out: &mut Vec<Finding>) {
    if class.role != Role::Modeled {
        return;
    }
    for imp in &idx.persist_impls {
        if idx.in_test(imp.span.start) {
            continue;
        }
        let (Some(save_body), Some(load_body)) = (imp.save_body, imp.load_body) else {
            continue;
        };
        let Some(saved) = plain_save_fields(&idx.tokens, save_body) else {
            continue;
        };
        let loaded = load_fields(&idx.tokens, load_body);
        if saved != loaded {
            let tok = &idx.tokens[imp.span.start];
            out.push(Finding::at(
                class,
                tok,
                "C2",
                format!(
                    "`impl Persist for {}`: save writes [{}] but load reads [{}]",
                    imp.type_name,
                    saved.join(", "),
                    loaded.join(", ")
                ),
            ));
        }
    }
}

// ---------------------------------------------------------------------------
// U1 — crate roots must forbid unsafe code
// ---------------------------------------------------------------------------

fn u1_forbid_unsafe(class: &FileClass, idx: &FileIndex, out: &mut Vec<Finding>) {
    if !class.is_lib_root || idx.forbids_unsafe() {
        return;
    }
    out.push(Finding {
        file: class.rel_path.clone(),
        line: 1,
        col: 1,
        id: "U1",
        message: "crate root lacks `#![forbid(unsafe_code)]`".to_string(),
    });
}

// ---------------------------------------------------------------------------
// Allow resolution + A1 hygiene
// ---------------------------------------------------------------------------

/// Applies the file's allow comments to `raw` findings: suppressed findings
/// are dropped, and malformed or unused allows become A1 findings.
///
/// An allow guards the next line carrying code. `U1` is special-cased as
/// file-scoped (the finding is the *absence* of an attribute, so there is
/// no natural line for it to precede).
pub fn resolve_allows(class: &FileClass, idx: &FileIndex, raw: Vec<Finding>) -> Vec<Finding> {
    let mut kept: Vec<Finding> = Vec::new();
    let mut suppressed = vec![false; raw.len()];
    let mut out = Vec::new();

    let mut used = vec![false; idx.allows.len()];
    for (a, allow) in idx.allows.iter().enumerate() {
        // Hygiene first: malformed allows never suppress anything.
        if allow.ids.is_empty() {
            out.push(a1(
                class,
                allow.line,
                "malformed `tdm-lint: allow(...)` comment",
            ));
            used[a] = true; // already reported; not also "unused"
            continue;
        }
        if let Some(unknown) = allow.ids.iter().find(|id| lint_info(id).is_none()) {
            out.push(a1(
                class,
                allow.line,
                &format!("allow names unknown lint `{unknown}`"),
            ));
            used[a] = true;
            continue;
        }
        if allow.rationale.is_empty() {
            out.push(a1(
                class,
                allow.line,
                "allow without a rationale (write `allow(<ids>): <why>`)",
            ));
            used[a] = true;
            continue;
        }
        for (f, finding) in raw.iter().enumerate() {
            let matches_id = allow.ids.iter().any(|id| id == finding.id);
            let matches_site = if finding.id == "U1" {
                true
            } else {
                allow.guarded_line == Some(finding.line)
            };
            if matches_id && matches_site {
                suppressed[f] = true;
                used[a] = true;
            }
        }
        if !used[a] {
            out.push(a1(
                class,
                allow.line,
                &format!(
                    "unused allow({}) — nothing to suppress here",
                    allow.ids.join(", ")
                ),
            ));
        }
    }

    for (f, finding) in raw.into_iter().enumerate() {
        if !suppressed[f] {
            kept.push(finding);
        }
    }
    out.extend(kept);
    out.sort_by(|x, y| (x.line, x.col, x.id).cmp(&(y.line, y.col, y.id)));
    out
}

fn a1(class: &FileClass, line: usize, message: &str) -> Finding {
    Finding {
        file: class.rel_path.clone(),
        line,
        col: 1,
        id: "A1",
        message: message.to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check(path: &str, src: &str) -> Vec<Finding> {
        let class = classify(path);
        let idx = FileIndex::build(src);
        check_file(&class, &idx)
    }

    fn ids(findings: &[Finding]) -> Vec<&'static str> {
        findings.iter().map(|f| f.id).collect()
    }

    #[test]
    fn classification_matches_the_workspace_layout() {
        assert_eq!(classify("crates/sim/src/cache.rs").role, Role::Modeled);
        assert_eq!(classify("src/lib.rs").role, Role::Modeled);
        assert_eq!(classify("crates/bench/src/cli.rs").role, Role::Bench);
        assert_eq!(classify("perfbench/src/pass.rs").role, Role::Bench);
        assert_eq!(
            classify("crates/bench/benches/dmu_ops.rs").role,
            Role::Bench
        );
        assert_eq!(classify("crates/lint/src/lints.rs").role, Role::Tooling);
        assert_eq!(classify("tests/conformance/main.rs").role, Role::Test);
        assert_eq!(classify("crates/lint/tests/fixtures.rs").role, Role::Test);
        assert_eq!(classify("examples/quickstart.rs").role, Role::Example);
        assert!(classify("crates/sim/src/lib.rs").is_lib_root);
        assert!(!classify("crates/sim/src/cache.rs").is_lib_root);
    }

    #[test]
    fn d1_sees_hasher_parameters() {
        let src = "
            use std::collections::HashMap;
            type Fast<K, V> = HashMap<K, V, BuildHasherDefault<FastHasher>>;
            fn f() {
                let a: HashMap<u64, Vec<u32>> = HashMap::new();
            }
        ";
        let f = check("crates/sim/src/x.rs", src);
        // `use` line, the two-parameter type, and `HashMap::new` fire; the
        // three-parameter alias target does not.
        assert_eq!(ids(&f), vec!["D1", "D1", "D1"]);
    }

    #[test]
    fn d1_is_silent_in_bench_and_tests() {
        let src = "fn f() { let m: HashMap<u8, u8> = HashMap::new(); }";
        assert!(check("crates/bench/src/x.rs", src).is_empty());
        assert!(check("tests/conformance/x.rs", src).is_empty());
    }

    #[test]
    fn t1_only_fires_in_decoder_modules() {
        let src = "fn f(v: &[u8]) -> u8 { v[0] }";
        assert_eq!(ids(&check("crates/sim/src/snapshot.rs", src)), vec!["T1"]);
        assert!(check("crates/sim/src/event.rs", src).is_empty());
    }

    #[test]
    fn c2_catches_reordered_fields() {
        let src = "
            impl Persist for Foo {
                fn save(&self, out: &mut Vec<u8>) {
                    self.a.save(out);
                    self.b.save(out);
                }
                fn load(r: &mut Reader<'_>) -> Result<Self, E> {
                    Ok(Foo { b: u8::load(r)?, a: u8::load(r)? })
                }
            }
        ";
        let f = check("crates/runtime/src/x.rs", src);
        assert_eq!(ids(&f), vec!["C2"]);
        assert!(f[0].message.contains("save writes [a, b]"));
    }

    #[test]
    fn c2_accepts_let_struct_literal_loads() {
        // The workspace's dominant load shape: build the value in a `let`,
        // validate, then return it.
        let src = "
            impl Persist for Table {
                fn save(&self, out: &mut Vec<u8>) {
                    self.addr.save(out);
                    self.live.save(out);
                }
                fn load(r: &mut Reader<'_>) -> Result<Self, E> {
                    let table = Table { addr: Vec::load(r)?, live: usize::load(r)? };
                    if table.addr.is_empty() { return Err(E::Corrupt); }
                    Ok(table)
                }
            }
        ";
        assert!(check("crates/core/src/x.rs", src).is_empty());
    }

    #[test]
    fn c2_catches_drift_inside_let_struct_literal() {
        let src = "
            impl Persist for Table {
                fn save(&self, out: &mut Vec<u8>) {
                    self.addr.save(out);
                    self.live.save(out);
                }
                fn load(r: &mut Reader<'_>) -> Result<Self, E> {
                    let mut table = Table { live: usize::load(r)?, addr: Vec::load(r)? };
                    Ok(table)
                }
            }
        ";
        assert_eq!(ids(&check("crates/core/src/x.rs", src)), vec!["C2"]);
    }

    #[test]
    fn allow_suppresses_and_unused_allow_fires() {
        let src = "
// tdm-lint: allow(D1): this map is never iterated; hasher is irrelevant here.
use std::collections::HashMap;
// tdm-lint: allow(D1): stale comment guarding nothing.
fn f() {}
";
        let f = check("crates/sim/src/x.rs", src);
        assert_eq!(ids(&f), vec!["A1"]);
        assert!(f[0].message.contains("unused"));
    }

    #[test]
    fn allow_without_rationale_is_a1() {
        let src = "
// tdm-lint: allow(D1)
use std::collections::HashMap;
";
        let f = check("crates/sim/src/x.rs", src);
        // The rationale-less allow is A1 and does NOT suppress, so D1 also
        // survives.
        assert_eq!(ids(&f), vec!["A1", "D1"]);
    }

    #[test]
    fn u1_fires_on_lib_roots_only() {
        assert_eq!(
            ids(&check("crates/sim/src/lib.rs", "fn f() {}")),
            vec!["U1"]
        );
        assert!(check("crates/sim/src/lib.rs", "#![forbid(unsafe_code)]").is_empty());
        assert!(check("crates/sim/src/cache.rs", "fn f() {}").is_empty());
    }
}
