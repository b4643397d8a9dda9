//! A hand-rolled, lexer-level source lint for the workspace's own
//! conventions — the ones `rustc`/`clippy` cannot express:
//!
//! * **`unsafe-needs-safety`** — every `unsafe { … }` block must carry a
//!   `// SAFETY:` comment block directly above it (only further
//!   comments, attributes, or blank lines may intervene).
//!   (`unsafe fn` / `unsafe impl` / `unsafe trait` headers are
//!   covered by `unsafe_op_in_unsafe_fn` + rustdoc `# Safety` sections
//!   and are not re-checked here.)
//! * **`unsafe-waiver`** — the workspace denies `unsafe_code`, and an
//!   `allow(unsafe_code)` (or `expect(unsafe_code)`) attribute may
//!   appear only in the files of `UNSAFE_WAIVERS`: the SIMD kernels,
//!   the sync facade, and the huge-page advice in `storage::mem`. A new
//!   waiver is a design decision, made by extending that list, not by
//!   adding an attribute somewhere.
//! * **`raw-sync`** — no construction or import of `parking_lot` /
//!   `std::sync` mutexes, rwlocks, or condvars outside the
//!   `cracker_core::sync` facade: all real latching must flow through
//!   the instrumented wrappers so lockdep sees it. The facade itself and
//!   the model-checker scheduler (which *implements* scheduling on top
//!   of OS primitives) are allowlisted; anything else needs a
//!   `lint: allow(raw-sync)` waiver with a reason.
//! * **`no-unwrap`** — no `.unwrap()` / `.expect(` in non-test library
//!   code; return `Result`/`Option` or waive with
//!   `lint: allow(unwrap) — reason` for genuinely unreachable arms.
//!   `src/bin/` CLIs are exempt (aborting with a message is their job).
//! * **`allow-needs-reason`** — every `#[allow(…)]` / `#![allow(…)]` in
//!   non-test code must have a justification comment on the same line or
//!   the line directly above.
//! * **`durability-io`** — inside the durability layer
//!   (`storage::checkpoint`, `storage::wal`, `storage::persist`) no raw
//!   file I/O outside the `storage::fault` injector facade: every
//!   create/write/fsync/rename/truncate must name the `injector` (or one
//!   of the facade helpers) so chaos tests can arm it. Crash-simulation
//!   sites that *deliberately* bypass injection carry a
//!   `lint: allow(durability-io) — reason` waiver.
//! * **`per-tuple-alloc`** — inside the operator pipeline
//!   (`engine::exec`), no per-tuple allocation in hot loops: a
//!   `.clone()` / `vec![…]` / `Vec::new()` inside a `for`/`while`/`loop`
//!   body is exactly the per-row cost the block-at-a-time rework
//!   removed, and this rule keeps it from creeping back. Tuple-path
//!   reference code (whose per-row rows are its contract) and
//!   deliberate bridges carry a `lint: allow(per-tuple-alloc) — reason`
//!   waiver.
//!
//! The "parser" is a small lexer that blanks comments, strings, and char
//! literals (so `"unsafe"` in a string does not count) and records
//! comments per line (so waivers and SAFETY justifications do count).
//! `#[cfg(test)]` items and `#[test]` functions are skipped by brace
//! matching over the blanked source. This is deliberately not a real
//! Rust parser: the rules are conventions about *source text*, and a
//! lexer is the strongest tool that cannot rot when syntax it never
//! understood shows up.

use std::collections::HashMap;
use std::fmt;
use std::path::{Path, PathBuf};

/// One rule violation.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Path relative to the workspace root.
    pub file: PathBuf,
    /// 1-based line number.
    pub line: usize,
    /// Rule identifier (`unsafe-needs-safety`, `raw-sync`, …).
    pub rule: &'static str,
    /// Human-readable explanation.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file.display(),
            self.line,
            self.rule,
            self.message
        )
    }
}

/// Files where the `raw-sync` rule does not apply at all: the facade
/// that wraps the raw primitives, and the schedule explorer that builds
/// a scheduler *out of* OS primitives (instrumenting those would be
/// turtles all the way down).
const RAW_SYNC_ALLOWED: &[&str] = &["crates/core/src/sync.rs", "crates/analysis/src/sched.rs"];

/// The only files that may waive the workspace's `unsafe_code = "deny"`
/// (the `unsafe-waiver` rule).
const UNSAFE_WAIVERS: &[&str] = &[
    "crates/core/src/simd.rs",
    "crates/core/src/sync.rs",
    "crates/storage/src/mem.rs",
];

/// Durability-layer files where the `durability-io` rule applies. The
/// facade itself (`crates/storage/src/fault.rs`) is deliberately *not*
/// listed: it is the one place raw I/O is supposed to live.
const DURABILITY_SCOPED: &[&str] = &[
    "crates/storage/src/checkpoint.rs",
    "crates/storage/src/wal.rs",
    "crates/storage/src/persist.rs",
];

/// Raw file-I/O tokens the `durability-io` rule hunts for. Lexer-level
/// like everything here: a line that names the `injector` is taken as
/// going through the facade and is exempt.
const RAW_IO_TOKENS: &[&str] = &[
    "fs::",
    "File::",
    "OpenOptions",
    ".sync_all(",
    ".sync_data(",
    ".set_len(",
    ".write_all(",
    ".read_to_string(",
];

/// Allocation tokens the `per-tuple-alloc` rule hunts for inside loop
/// bodies of `engine::exec` files. Lexer-level: `.cloned()` covers the
/// iterator adaptor, `.clone()` the direct call; `unwrap_or`-style
/// names never match because the token list requires the exact call.
const PER_TUPLE_ALLOC_TOKENS: &[&str] = &[
    ".clone()",
    ".cloned()",
    ".to_vec()",
    "vec![",
    "Vec::new(",
    "Vec::with_capacity(",
];

/// Source text after lexing: code with comments/strings blanked, plus
/// the comment text per line.
struct Lexed {
    /// Same length and line structure as the input; comment and literal
    /// bodies replaced by spaces.
    code: String,
    /// 1-based line number → concatenated comment text on that line.
    comments: HashMap<usize, String>,
}

/// Blank comments, string literals, and char literals, preserving line
/// structure; collect comment text per line. Handles nested block
/// comments, raw strings with arbitrary `#` counts, escapes, and the
/// lifetime-vs-char-literal ambiguity.
fn lex(src: &str) -> Lexed {
    #[derive(PartialEq)]
    enum St {
        Code,
        LineComment,
        BlockComment(usize),
        Str,
        RawStr(usize),
        Char,
    }
    let mut code = String::with_capacity(src.len());
    let mut comments: HashMap<usize, String> = HashMap::new();
    let mut line = 1usize;
    let mut st = St::Code;
    let chars: Vec<char> = src.chars().collect();
    let mut i = 0;
    while i < chars.len() {
        let c = chars[i];
        if c == '\n' {
            if st == St::LineComment {
                st = St::Code;
            }
            code.push('\n');
            line += 1;
            i += 1;
            continue;
        }
        match st {
            St::Code => {
                let next = chars.get(i + 1).copied();
                if c == '/' && next == Some('/') {
                    st = St::LineComment;
                    code.push(' ');
                } else if c == '/' && next == Some('*') {
                    st = St::BlockComment(1);
                    code.push(' ');
                } else if c == '"' {
                    st = St::Str;
                    code.push('"');
                } else if c == 'r' && (next == Some('"') || next == Some('#')) {
                    // Possible raw string r"…" / r#"…"# (also br"…").
                    let mut j = i + 1;
                    let mut hashes = 0;
                    while chars.get(j) == Some(&'#') {
                        hashes += 1;
                        j += 1;
                    }
                    if chars.get(j) == Some(&'"') {
                        st = St::RawStr(hashes);
                        for _ in i..=j {
                            code.push(' ');
                        }
                        i = j + 1;
                        continue;
                    }
                    code.push(c);
                } else if c == '\'' {
                    // Lifetime (`'a`) vs char literal (`'a'`, `'\n'`).
                    let is_lifetime = matches!(next, Some(n) if n.is_alphabetic() || n == '_')
                        && chars.get(i + 2) != Some(&'\'');
                    if is_lifetime {
                        code.push(c);
                    } else {
                        st = St::Char;
                        code.push('\'');
                    }
                } else {
                    code.push(c);
                }
            }
            St::LineComment => {
                comments.entry(line).or_default().push(c);
                code.push(' ');
            }
            St::BlockComment(depth) => {
                let next = chars.get(i + 1).copied();
                if c == '*' && next == Some('/') {
                    st = if depth == 1 {
                        St::Code
                    } else {
                        St::BlockComment(depth - 1)
                    };
                    code.push(' ');
                    code.push(' ');
                    i += 2;
                    continue;
                }
                if c == '/' && next == Some('*') {
                    st = St::BlockComment(depth + 1);
                    code.push(' ');
                    code.push(' ');
                    i += 2;
                    continue;
                }
                comments.entry(line).or_default().push(c);
                code.push(' ');
            }
            St::Str => {
                if c == '\\' {
                    code.push(' ');
                    if let Some(n) = chars.get(i + 1) {
                        code.push(if *n == '\n' { '\n' } else { ' ' });
                        if *n == '\n' {
                            line += 1;
                        }
                        i += 2;
                        continue;
                    }
                } else if c == '"' {
                    st = St::Code;
                    code.push('"');
                } else {
                    code.push(' ');
                }
            }
            St::RawStr(hashes) => {
                if c == '"' {
                    let mut j = i + 1;
                    let mut seen = 0;
                    while seen < hashes && chars.get(j) == Some(&'#') {
                        seen += 1;
                        j += 1;
                    }
                    if seen == hashes {
                        st = St::Code;
                        for _ in i..j {
                            code.push(' ');
                        }
                        i = j;
                        continue;
                    }
                }
                code.push(' ');
            }
            St::Char => {
                if c == '\\' {
                    code.push(' ');
                    if chars.get(i + 1).is_some() {
                        code.push(' ');
                        i += 2;
                        continue;
                    }
                } else if c == '\'' {
                    st = St::Code;
                    code.push('\'');
                } else {
                    code.push(' ');
                }
            }
        }
        i += 1;
    }
    Lexed { code, comments }
}

/// Mark every line that belongs to a `#[cfg(test)]` item or a `#[test]`
/// function, by matching the braces of the item that follows the
/// attribute in the blanked source.
fn test_lines(code: &str) -> Vec<bool> {
    let line_count = code.lines().count() + 1;
    let mut is_test = vec![false; line_count + 1];
    let bytes = code.as_bytes();
    let line_of = |pos: usize| 1 + code[..pos].bytes().filter(|b| *b == b'\n').count();
    for marker in ["#[cfg(test)]", "#[test]"] {
        let mut from = 0;
        while let Some(found) = code[from..].find(marker) {
            let start = from + found;
            from = start + marker.len();
            // Scan to the item's opening brace; a `;` first means a
            // braceless item (e.g. `mod tests;`) — nothing to span.
            let mut j = start + marker.len();
            while j < bytes.len() && bytes[j] != b'{' && bytes[j] != b';' {
                j += 1;
            }
            if j >= bytes.len() || bytes[j] == b';' {
                continue;
            }
            let mut depth = 0usize;
            while j < bytes.len() {
                match bytes[j] {
                    b'{' => depth += 1,
                    b'}' => {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    _ => {}
                }
                j += 1;
            }
            let (a, b) = (
                line_of(start),
                line_of(j.min(bytes.len().saturating_sub(1))),
            );
            for flag in is_test.iter_mut().take(b.min(line_count) + 1).skip(a) {
                *flag = true;
            }
        }
    }
    is_test
}

/// Mark every line inside a `for`/`while`/`loop` body by matching the
/// braces of the block that follows the keyword in the blanked source.
/// `impl Trait for Type { … }` also contains the word `for`; a real
/// loop header is distinguished by the word `in` before its brace.
fn loop_lines(code: &str) -> Vec<bool> {
    let line_count = code.lines().count() + 1;
    let mut in_loop = vec![false; line_count + 1];
    let bytes = code.as_bytes();
    let line_of = |pos: usize| 1 + code[..pos].bytes().filter(|b| *b == b'\n').count();
    for kw in ["for", "while", "loop"] {
        let mut from = 0;
        while let Some(found) = code[from..].find(kw) {
            let pos = from + found;
            from = pos + kw.len();
            if !word_at(code, pos, kw) {
                continue;
            }
            // Scan the header to its opening brace; hitting `;` or `}`
            // first means this was not a loop header (e.g. `for<'a>`
            // bounds in a where-clause ending the item).
            let mut j = pos + kw.len();
            while j < bytes.len() && bytes[j] != b'{' && bytes[j] != b';' && bytes[j] != b'}' {
                j += 1;
            }
            if j >= bytes.len() || bytes[j] != b'{' {
                continue;
            }
            if kw == "for" {
                let header = &code[pos..j];
                let is_loop = header
                    .match_indices("in")
                    .any(|(k, _)| word_at(header, k, "in"));
                if !is_loop {
                    continue;
                }
            }
            let mut depth = 0usize;
            while j < bytes.len() {
                match bytes[j] {
                    b'{' => depth += 1,
                    b'}' => {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    _ => {}
                }
                j += 1;
            }
            let (a, b) = (line_of(pos), line_of(j.min(bytes.len().saturating_sub(1))));
            for flag in in_loop.iter_mut().take(b.min(line_count) + 1).skip(a) {
                *flag = true;
            }
        }
    }
    in_loop
}

/// True when `code[pos..]` starts with `word` as a whole identifier.
fn word_at(code: &str, pos: usize, word: &str) -> bool {
    if !code[pos..].starts_with(word) {
        return false;
    }
    let before_ok = pos == 0
        || !code[..pos]
            .chars()
            .next_back()
            .is_some_and(|c| c.is_alphanumeric() || c == '_');
    let after_ok = !code[pos + word.len()..]
        .chars()
        .next()
        .is_some_and(|c| c.is_alphanumeric() || c == '_');
    before_ok && after_ok
}

/// Does any comment on `line` or the `above` lines before it contain
/// `needle`?
fn comment_near(lexed: &Lexed, line: usize, above: usize, needle: &str) -> bool {
    (line.saturating_sub(above)..=line)
        .any(|l| lexed.comments.get(&l).is_some_and(|c| c.contains(needle)))
}

/// Does the contiguous comment/attribute block ending directly above
/// `line` (or `line` itself) contain `needle`? This is the SAFETY rule:
/// a multi-line `// SAFETY: …` block must abut the `unsafe`, with only
/// further comment lines, attributes, or blank lines in between.
fn comment_block_above(lexed: &Lexed, code_lines: &[&str], line: usize, needle: &str) -> bool {
    if lexed
        .comments
        .get(&line)
        .is_some_and(|c| c.contains(needle))
    {
        return true;
    }
    let mut l = line;
    while l > 1 {
        l -= 1;
        if lexed.comments.get(&l).is_some_and(|c| c.contains(needle)) {
            return true;
        }
        let code = code_lines.get(l - 1).map_or("", |s| s.trim());
        let is_comment_line = lexed.comments.contains_key(&l);
        if !is_comment_line && !code.is_empty() && !code.starts_with("#[") {
            return false; // real code interrupts the block
        }
    }
    false
}

/// Does the comment on `line` or on the line directly above have any
/// non-empty text at all?
fn has_any_comment(lexed: &Lexed, line: usize) -> bool {
    (line.saturating_sub(1)..=line)
        .any(|l| lexed.comments.get(&l).is_some_and(|c| !c.trim().is_empty()))
}

/// Lint one source file. `rel` is the path relative to the workspace
/// root, used both for reporting and for path-scoped rule exemptions.
pub fn lint_source(rel: &Path, src: &str) -> Vec<Finding> {
    let lexed = lex(src);
    let in_test = test_lines(&lexed.code);
    let rel_str = rel.to_string_lossy().replace('\\', "/");
    let is_bin = rel_str.contains("/src/bin/") || rel_str.ends_with("/main.rs");
    let raw_sync_exempt = RAW_SYNC_ALLOWED.iter().any(|p| rel_str.ends_with(p));
    let may_waive_unsafe = UNSAFE_WAIVERS.iter().any(|p| rel_str.ends_with(p));
    let durability_scoped = DURABILITY_SCOPED.iter().any(|p| rel_str.ends_with(p));
    let exec_scoped = rel_str.contains("crates/engine/src/exec/");
    let mut findings = Vec::new();
    let mut push = |line: usize, rule: &'static str, message: String| {
        findings.push(Finding {
            file: rel.to_path_buf(),
            line,
            rule,
            message,
        });
    };

    // ---- unsafe-needs-safety: scan the blanked code for `unsafe {`.
    let code = &lexed.code;
    let code_lines: Vec<&str> = code.lines().collect();
    let mut from = 0;
    while let Some(found) = code[from..].find("unsafe") {
        let pos = from + found;
        from = pos + "unsafe".len();
        if !word_at(code, pos, "unsafe") {
            continue;
        }
        let rest = code[pos + "unsafe".len()..].trim_start();
        // Only bare `unsafe { … }` blocks need a local justification.
        if !rest.starts_with('{') {
            continue;
        }
        let line = 1 + code[..pos].bytes().filter(|b| *b == b'\n').count();
        if in_test.get(line).copied().unwrap_or(false) {
            continue;
        }
        if !comment_block_above(&lexed, &code_lines, line, "SAFETY") {
            push(
                line,
                "unsafe-needs-safety",
                "`unsafe` block without a `// SAFETY:` comment block directly above it".into(),
            );
        }
    }

    // ---- unsafe-waiver: an `unsafe_code` lint name inside an `allow(` /
    // `expect(` attribute, which may span lines or sit in a `cfg_attr`.
    if !may_waive_unsafe {
        let mut from = 0;
        while let Some(found) = code[from..].find("unsafe_code") {
            let pos = from + found;
            from = pos + "unsafe_code".len();
            if !word_at(code, pos, "unsafe_code") {
                continue;
            }
            let attr = code[..pos].rfind('#').map_or("", |h| &code[h..pos]);
            if !attr.contains(']') && (attr.contains("allow(") || attr.contains("expect(")) {
                let line = 1 + code[..pos].bytes().filter(|b| *b == b'\n').count();
                push(
                    line,
                    "unsafe-waiver",
                    "`allow(unsafe_code)` outside the allow-listed files; keep unsafe code in \
                     `simd.rs`, `sync.rs` or `storage::mem`, or extend `UNSAFE_WAIVERS`"
                        .into(),
                );
            }
        }
    }

    // ---- line-scoped rules.
    let code_lines: Vec<&str> = lexed.code.lines().collect();
    let in_loop = if exec_scoped {
        loop_lines(&lexed.code)
    } else {
        Vec::new()
    };
    for (idx, &line_code) in code_lines.iter().enumerate() {
        let line = idx + 1;
        let test = in_test.get(line).copied().unwrap_or(false);

        if !raw_sync_exempt
            && (line_code.contains("parking_lot")
                || (line_code.contains("std::sync")
                    && ["Mutex", "RwLock", "Condvar"]
                        .iter()
                        .any(|t| line_code.contains(t))))
            && !comment_near(&lexed, line, 1, "lint: allow(raw-sync)")
        {
            push(
                line,
                "raw-sync",
                "raw lock primitive outside the `cracker_core::sync` facade; \
                 route latching through the facade or waive with `// lint: allow(raw-sync) — why`"
                    .into(),
            );
        }

        if !test && !is_bin {
            // `.expect("` / `.expect(format!` (the quote survives
            // blanking) rather than bare `.expect(`: parser-style
            // `self.expect(Tok::X)` methods returning `Result` are not
            // the panicking combinator.
            for pat in [".unwrap()", ".expect(\"", ".expect(format!"] {
                if line_code.contains(pat) && !comment_near(&lexed, line, 1, "lint: allow(unwrap)")
                {
                    push(
                        line,
                        "no-unwrap",
                        format!(
                            "`{pat}` in library code; propagate the error or waive with \
                             `// lint: allow(unwrap) — why`"
                        ),
                    );
                }
            }
        }

        if durability_scoped && !test {
            let trimmed = line_code.trim_start();
            let is_import = trimmed.starts_with("use ") || trimmed.starts_with("pub use ");
            // A rustfmt-split method chain puts `self.injector` on the line
            // above the `.write_all(...)` continuation; count both as facade.
            let through_facade = line_code.contains("injector")
                || (trimmed.starts_with('.')
                    && idx > 0
                    && code_lines[idx - 1].contains("injector"));
            if !is_import
                && !through_facade
                && RAW_IO_TOKENS.iter().any(|t| line_code.contains(t))
                && !comment_near(&lexed, line, 1, "lint: allow(durability-io)")
            {
                push(
                    line,
                    "durability-io",
                    "raw file I/O in the durability layer bypasses the `storage::fault` \
                     injector facade; route it through the injector or waive with \
                     `// lint: allow(durability-io) — why`"
                        .into(),
                );
            }
        }

        if exec_scoped
            && !test
            && in_loop.get(line).copied().unwrap_or(false)
            && PER_TUPLE_ALLOC_TOKENS.iter().any(|t| line_code.contains(t))
            && !comment_near(&lexed, line, 1, "lint: allow(per-tuple-alloc)")
        {
            push(
                line,
                "per-tuple-alloc",
                "per-tuple allocation inside an `engine::exec` hot loop; move it out of \
                 the loop, reuse a scratch buffer, or waive with \
                 `// lint: allow(per-tuple-alloc) — why`"
                    .into(),
            );
        }

        if !test
            && (line_code.trim_start().starts_with("#[allow(")
                || line_code.trim_start().starts_with("#![allow("))
            && !has_any_comment(&lexed, line)
        {
            push(
                line,
                "allow-needs-reason",
                "`#[allow]` without a justification comment on the same line or the line above"
                    .into(),
            );
        }
    }
    findings
}

/// Recursively collect `.rs` files under `dir`.
fn walk(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    let mut entries: Vec<_> = std::fs::read_dir(dir)?
        .filter_map(Result::ok)
        .map(|e| e.path())
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            walk(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Lint every library source file in the workspace rooted at `root`:
/// `src/` of the facade package and of each crate under `crates/`.
/// (`tests/`, `benches/`, and `examples/` are intentionally out of
/// scope; the shims are vendored stand-ins, not our code.)
pub fn lint_workspace(root: &Path) -> std::io::Result<Vec<Finding>> {
    let mut files = Vec::new();
    let root_src = root.join("src");
    if root_src.is_dir() {
        walk(&root_src, &mut files)?;
    }
    let crates = root.join("crates");
    if crates.is_dir() {
        let mut crate_dirs: Vec<_> = std::fs::read_dir(&crates)?
            .filter_map(Result::ok)
            .map(|e| e.path())
            .collect();
        crate_dirs.sort();
        for crate_dir in crate_dirs {
            let src = crate_dir.join("src");
            if src.is_dir() {
                walk(&src, &mut files)?;
            }
        }
    }
    let mut findings = Vec::new();
    for file in files {
        let rel = file.strip_prefix(root).unwrap_or(&file).to_path_buf();
        let src = std::fs::read_to_string(&file)?;
        findings.extend(lint_source(&rel, &src));
    }
    Ok(findings)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lint(src: &str) -> Vec<Finding> {
        lint_source(Path::new("crates/x/src/lib.rs"), src)
    }

    fn rules(src: &str) -> Vec<&'static str> {
        lint(src).into_iter().map(|f| f.rule).collect()
    }

    #[test]
    fn unsafe_block_without_safety_is_flagged() {
        let src = "fn f() {\n    unsafe { core::hint::unreachable_unchecked() }\n}\n";
        assert_eq!(rules(src), vec!["unsafe-needs-safety"]);
    }

    #[test]
    fn unsafe_block_with_safety_passes() {
        let src = "fn f() {\n    // SAFETY: n is in bounds by the loop guard.\n    unsafe { do_it() }\n}\n";
        assert!(rules(src).is_empty());
    }

    #[test]
    fn unsafe_fn_header_is_not_reflagged() {
        // Covered by unsafe_op_in_unsafe_fn + `# Safety` docs instead.
        let src = "/// # Safety\n/// caller checks bounds\npub unsafe fn f() {}\n";
        assert!(rules(src).is_empty());
    }

    #[test]
    fn unsafe_in_string_or_comment_is_ignored() {
        let src = "fn f() {\n    let s = \"unsafe { }\";\n    // unsafe { } in a comment\n}\n";
        assert!(rules(src).is_empty());
    }

    #[test]
    fn unsafe_waiver_outside_the_list_is_flagged() {
        let other = Path::new("crates/engine/src/db.rs");
        for src in [
            "// reason\n#![allow(unsafe_code)]\n",
            "// reason\n#[allow(dead_code, unsafe_code)]\nfn f() {}\n",
            "// reason\n#[cfg_attr(unix, expect(\n    unsafe_code\n))]\nfn f() {}\n",
            "#[cfg(test)]\nmod tests {\n    // reason\n    #[allow(unsafe_code)]\n    fn t() {}\n}\n",
        ] {
            let found = lint_source(other, src);
            assert_eq!(
                found.iter().map(|f| f.rule).collect::<Vec<_>>(),
                vec!["unsafe-waiver"],
                "{src}"
            );
        }
        let multi_line = "// reason\n#[allow(\n    dead_code,\n    unsafe_code,\n)]\nfn f() {}\n";
        assert_eq!(lint_source(other, multi_line)[0].line, 4);
    }

    #[test]
    fn unsafe_waiver_allowed_in_listed_files_and_denies_pass() {
        let waiver = "// reason\n#![allow(unsafe_code)]\n";
        for file in UNSAFE_WAIVERS {
            assert!(lint_source(Path::new(file), waiver).is_empty(), "{file}");
        }
        let other = Path::new("crates/engine/src/db.rs");
        for src in [
            "#![forbid(unsafe_code)]\n",
            "#![deny(unsafe_code)]\n#[allow(dead_code)] // reason\nfn f() {}\n",
            "// allow(unsafe_code) in a comment\nfn f() { let s = \"#[allow(unsafe_code)]\"; }\n",
            "#[allow(dead_code)] // reason\nfn unsafe_code() {}\n",
        ] {
            assert!(lint_source(other, src).is_empty(), "{src}");
        }
    }

    #[test]
    fn raw_sync_flagged_and_waivable() {
        let flagged = "use parking_lot::Mutex;\n";
        assert_eq!(rules(flagged), vec!["raw-sync"]);
        let waived = "// lint: allow(raw-sync) — below cracker_core in the dep graph\nuse parking_lot::Mutex;\n";
        assert!(rules(waived).is_empty());
        let facade = lint_source(Path::new("crates/core/src/sync.rs"), flagged);
        assert!(facade.is_empty(), "the facade itself is exempt");
    }

    #[test]
    fn std_sync_arc_alone_is_fine() {
        assert!(rules("use std::sync::Arc;\nuse std::sync::atomic::AtomicU64;\n").is_empty());
        assert_eq!(rules("use std::sync::{Arc, Mutex};\n"), vec!["raw-sync"]);
    }

    #[test]
    fn unwrap_flagged_outside_tests_only() {
        let src = "fn f() { x().unwrap(); }\n#[cfg(test)]\nmod tests {\n    fn g() { y().unwrap(); }\n}\n";
        assert_eq!(rules(src), vec!["no-unwrap"]);
    }

    #[test]
    fn unwrap_or_variants_are_not_unwrap() {
        assert!(rules("fn f() { x().unwrap_or(0); y().unwrap_or_else(z); }\n").is_empty());
    }

    #[test]
    fn expect_flagged_and_waivable() {
        assert_eq!(
            rules("fn f() { x().expect(\"boom\"); }\n"),
            vec!["no-unwrap"]
        );
        let waived =
            "fn f() {\n    // lint: allow(unwrap) — len checked above\n    x().expect(\"boom\");\n}\n";
        assert!(rules(waived).is_empty());
    }

    #[test]
    fn bins_may_unwrap() {
        let src = "fn main() { run().unwrap(); }\n";
        assert!(lint_source(Path::new("crates/x/src/bin/tool.rs"), src).is_empty());
    }

    #[test]
    fn test_fn_attribute_also_skips() {
        let src = "#[test]\nfn t() { x().unwrap(); }\n";
        assert!(rules(src).is_empty());
    }

    #[test]
    fn allow_needs_reason() {
        assert_eq!(
            rules("#[allow(dead_code)]\nfn f() {}\n"),
            vec!["allow-needs-reason"]
        );
        assert!(
            rules("// retained for the ffi layer\n#[allow(dead_code)]\nfn f() {}\n").is_empty()
        );
        assert!(rules("#[allow(dead_code)] // retained for the ffi layer\nfn f() {}\n").is_empty());
    }

    #[test]
    fn durability_io_flagged_in_scope_and_waivable() {
        let src = "fn f() { fs::write(p, b).ok(); }\n";
        let scoped = lint_source(Path::new("crates/storage/src/wal.rs"), src);
        assert_eq!(
            scoped.iter().map(|f| f.rule).collect::<Vec<_>>(),
            vec!["durability-io"]
        );
        let waived = "fn f() {\n    // lint: allow(durability-io) — crash sim bypasses injection\n    fs::write(p, b).ok();\n}\n";
        assert!(lint_source(Path::new("crates/storage/src/wal.rs"), waived).is_empty());
    }

    #[test]
    fn durability_io_exempts_facade_calls_imports_and_other_files() {
        // Calls through the injector are the sanctioned route.
        let facade =
            "fn f() { injector.write_all(P, file, b)?; self.injector.sync_file(P, &f)?; }\n";
        assert!(lint_source(Path::new("crates/storage/src/checkpoint.rs"), facade).is_empty());
        // Imports alone do no I/O.
        let import = "use std::fs::File;\nuse std::fs;\n";
        assert!(lint_source(Path::new("crates/storage/src/wal.rs"), import).is_empty());
        // rustfmt may split the facade call across lines; the continuation
        // under a `self.injector` receiver is still the sanctioned route.
        let split = "fn f() {\n    let _ = self\n        .injector\n        .write_all(P, &mut self.file, half);\n}\n";
        assert!(lint_source(Path::new("crates/storage/src/wal.rs"), split).is_empty());
        // The rule is scoped: the facade itself and unrelated crates may
        // touch files directly.
        let raw = "fn f() { fs::write(p, b).ok(); }\n";
        assert!(lint_source(Path::new("crates/storage/src/fault.rs"), raw).is_empty());
        assert!(lint_source(Path::new("crates/sim/src/lib.rs"), raw).is_empty());
        // Test code inside a scoped file is exempt too.
        let test_only = "#[cfg(test)]\nmod tests {\n    fn t() { fs::write(p, b).ok(); }\n}\n";
        assert!(lint_source(Path::new("crates/storage/src/wal.rs"), test_only).is_empty());
    }

    #[test]
    fn per_tuple_alloc_flagged_in_exec_loops_and_waivable() {
        let src =
            "fn f(rows: &[Row]) {\n    for r in rows {\n        let x = r.clone();\n    }\n}\n";
        let scoped = lint_source(Path::new("crates/engine/src/exec/ops.rs"), src);
        assert_eq!(
            scoped.iter().map(|f| f.rule).collect::<Vec<_>>(),
            vec!["per-tuple-alloc"]
        );
        // A waiver on the line above clears it.
        let waived = "fn f(rows: &[Row]) {\n    for r in rows {\n        // lint: allow(per-tuple-alloc) — emitted rows are owned by contract\n        let x = r.clone();\n    }\n}\n";
        assert!(lint_source(Path::new("crates/engine/src/exec/ops.rs"), waived).is_empty());
        // `while` and bare `loop` bodies are hot loops too.
        let while_loop = "fn f() {\n    while go() {\n        let v = Vec::new();\n    }\n    loop {\n        let v = vec![0u8; 4];\n        break;\n    }\n}\n";
        let found = lint_source(Path::new("crates/engine/src/exec/vector.rs"), while_loop);
        assert_eq!(found.len(), 2);
        // Outside a loop (one-time setup) allocation is fine.
        let setup = "fn f() {\n    let mut out = Vec::with_capacity(8);\n    out.push(1);\n}\n";
        assert!(lint_source(Path::new("crates/engine/src/exec/ops.rs"), setup).is_empty());
        // The rule is scoped: the same loop elsewhere passes.
        assert!(lint(src).is_empty());
        // Test code inside a scoped file is exempt.
        let test_only =
            "#[cfg(test)]\nmod tests {\n    fn t() { for r in rows { r.clone(); } }\n}\n";
        assert!(lint_source(Path::new("crates/engine/src/exec/ops.rs"), test_only).is_empty());
    }

    #[test]
    fn impl_for_blocks_are_not_loops() {
        // `impl Trait for Type` contains the word `for` but is no loop:
        // allocations directly inside its methods must not be flagged.
        let src = "impl Operator for ScanOp {\n    fn next(&mut self) -> Option<Row> {\n        let mut row = Vec::with_capacity(self.arity);\n        Some(row)\n    }\n}\n";
        assert!(lint_source(Path::new("crates/engine/src/exec/ops.rs"), src).is_empty());
        // But a real loop inside such a method is still covered.
        let src = "impl Operator for ScanOp {\n    fn next(&mut self) -> Option<Row> {\n        for c in &self.cols {\n            let v = c.to_vec();\n        }\n        None\n    }\n}\n";
        let found = lint_source(Path::new("crates/engine/src/exec/ops.rs"), src);
        assert_eq!(
            found.iter().map(|f| f.rule).collect::<Vec<_>>(),
            vec!["per-tuple-alloc"]
        );
    }

    #[test]
    fn raw_strings_and_chars_lex_cleanly() {
        let src = "fn f() {\n    let r = r#\"unsafe { .unwrap() }\"#;\n    let c = '\"';\n    let lt: &'static str = \"x\";\n}\n";
        assert!(rules(src).is_empty());
    }

    #[test]
    fn nested_block_comments_do_not_leak() {
        let src = "/* outer /* inner */ still comment .unwrap() */\nfn f() {}\n";
        assert!(rules(src).is_empty());
    }
}
