//! A source lint pass for the repo's own conventions.
//!
//! A deliberately small line/token scanner — no parser dependency —
//! enforcing eight rules that the type system cannot, plus a ninth that
//! keeps their escape hatch honest:
//!
//! * **R1 `PanicInLib`** — no `.unwrap()`, `.expect(`, or `panic!` in
//!   non-test library code of `qse-comm`, `qse-statevec`,
//!   `qse-machine`, `qse-stabilizer` and `qse-serve`: the crates whose
//!   errors must surface as typed values ([`qse_comm::CommError`], a
//!   served job's typed reply) rather than as panics on a rank or a
//!   serve worker.
//!   (`assert!`, `debug_assert!`, and `unreachable!` remain allowed —
//!   invariant violations *should* panic.)
//! * **R2 `InstantInMachine`** — no `Instant::now()` in `qse-machine`:
//!   the analytic model must stay a pure function of its inputs, never
//!   of the wall clock.
//! * **R3 `UndocumentedPub`** — every `pub fn` in `qse-comm` carries a
//!   doc comment; the communication layer is the API other crates build
//!   on.
//! * **R4 `AssertInMeasure`** — no `assert!`/`assert_eq!`/`assert_ne!`
//!   in the measurement-path files of `qse-statevec` (`measure.rs`).
//!   Measurement outcomes depend on caller-supplied randomness and
//!   state, so "impossible" conditions there are reachable by callers
//!   and must surface as typed `MeasureError` values — an `assert!` is
//!   error handling in disguise. (`debug_assert!` remains allowed:
//!   true internal invariants may still self-check in debug builds.)
//! * **R5 `UnsafeWithoutSafety`** — every `unsafe` keyword in the SIMD
//!   storage kernels (`qse-statevec/src/storage/soa.rs`), the
//!   thread-pool (`qse-util/src/parallel.rs`) and the resident rank
//!   threads (`qse-comm/src/universe.rs`) must be justified by a
//!   `SAFETY:` comment on the same line or in the contiguous
//!   comment/attribute block directly above it. These are the only
//!   files in the tree allowed to contain `unsafe` at all; each use
//!   must say why it is sound.
//! * **R6 `TruncatingCast`** — no `as usize` / `as u32` casts in the
//!   index arithmetic of `qse-comm` and `qse-statevec` library code:
//!   on a 32-bit host a silent `u64 → usize` truncation turns an
//!   amplitude index into a wrong-but-valid one. Convert with
//!   `try_into()`/`u64::from`, route through an audited helper, or
//!   carry a documented `// qse-lint: allow`.
//! * **R7 `UnboundedNetRead`** — no unbounded read APIs
//!   (`.read_to_end(`, `.read_to_string(`, `.read_line(`) in `qse-serve`
//!   library code: every byte a network client can send must pass
//!   through the audited `BoundedLineReader` (hard per-line byte cap,
//!   socket read timeouts), or a hostile client holds a connection
//!   thread's memory hostage with one endless line.
//! * **R8 `SliceStaging`** — no whole-slice serialisation
//!   (`.to_f64_vec()`, `f64s_to_bytes(`) in the distributed engine
//!   (`qse-statevec/src/dist.rs`): a distributed gate packs each wire
//!   chunk straight from storage and consumes each payload where it
//!   arrived, so an exchanged byte is copied once. Either call stages
//!   the slice through a second buffer — the copies DESIGN §9 counts
//!   and the benchmark's `hadamard22_global` pays for.
//! * **R9 `StaleAllow`** — a `// qse-lint: allow` marker must excuse a
//!   finding on its own line or the next. A marker that excuses nothing
//!   (reformatting moved it off its line, or the code it excused is
//!   gone) would otherwise sit waiting to excuse whatever lands beside
//!   it next.
//!
//! The scanner strips `//` comments, `/* */` blocks, and string/char
//! literals before matching, and skips `#[cfg(test)]` regions by brace
//! counting. A `// qse-lint: allow` marker escape-hatches its own line
//! or, when its own line has no finding, the next one.

use std::fmt;
use std::path::{Path, PathBuf};

/// Which convention a violation breaks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rule {
    /// `.unwrap()` / `.expect(` / `panic!` in library code.
    PanicInLib,
    /// `Instant::now()` in the analytic-model crate.
    InstantInMachine,
    /// `pub fn` without a doc comment in `qse-comm`.
    UndocumentedPub,
    /// `assert!` used as error handling in statevec measure paths.
    AssertInMeasure,
    /// `unsafe` without an adjacent `SAFETY:` comment in the files that
    /// are allowed to contain `unsafe`.
    UnsafeWithoutSafety,
    /// Potentially truncating `as usize` / `as u32` in index arithmetic.
    TruncatingCast,
    /// Unbounded read API on client input in `qse-serve` library code.
    UnboundedNetRead,
    /// Whole-slice serialisation on the distributed exchange path.
    SliceStaging,
    /// A `qse-lint: allow` marker that excuses no finding.
    StaleAllow,
}

impl Rule {
    /// Short identifier used in reports.
    pub fn code(self) -> &'static str {
        match self {
            Rule::PanicInLib => "panic-in-lib",
            Rule::InstantInMachine => "instant-in-machine",
            Rule::UndocumentedPub => "undocumented-pub",
            Rule::AssertInMeasure => "assert-in-measure",
            Rule::UnsafeWithoutSafety => "unsafe-without-safety",
            Rule::TruncatingCast => "truncating-cast",
            Rule::UnboundedNetRead => "unbounded-net-read",
            Rule::SliceStaging => "slice-staging",
            Rule::StaleAllow => "stale-allow",
        }
    }
}

/// One lint finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Workspace-relative path of the offending file.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// The broken rule.
    pub rule: Rule,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file,
            self.line,
            self.rule.code(),
            self.message
        )
    }
}

/// The crates R1 applies to: their `src/` trees must not panic on
/// recoverable errors.
const NO_PANIC_CRATES: [&str; 5] = ["comm", "statevec", "machine", "stabilizer", "serve"];

fn crate_of(relpath: &str) -> Option<&str> {
    let rest = relpath.strip_prefix("crates/")?;
    let (name, tail) = rest.split_once('/')?;
    if tail.ends_with("/tests.rs") {
        // A `tests.rs` module file is test code by convention: it is only
        // reachable through a `#[cfg(test)] mod tests;` declaration in its
        // parent module, which this single-file pass cannot see.
        return None;
    }
    tail.starts_with("src/").then_some(name)
}

/// A comment or literal that one line leaves open for the next.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Open {
    /// Nothing: the next line starts in code.
    Code,
    /// A `/* */` comment.
    BlockComment,
    /// A raw string closed by `"` and this many `#`s.
    RawString(usize),
}

/// The guard count of a raw string with `#` guards (`r#"…"#`,
/// `r##"…"##`, …) opening at `bytes[i]`, if one opens there.
fn raw_string_guards(bytes: &[u8], i: usize) -> Option<usize> {
    let ident = |b: u8| b.is_ascii_alphanumeric() || b == b'_';
    if bytes[i] != b'r' || (i > 0 && ident(bytes[i - 1])) {
        return None;
    }
    let hashes = bytes[i + 1..].iter().take_while(|&&b| b == b'#').count();
    (hashes > 0 && bytes.get(i + 1 + hashes) == Some(&b'"')).then_some(hashes)
}

/// Strips comments and string/char literals from one line, carrying
/// block comments and raw strings with `#` guards across lines in
/// `open`. Unguarded raw strings read as plain strings.
fn strip_line(line: &str, open: &mut Open) -> String {
    let mut out = String::with_capacity(line.len());
    let bytes = line.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        match *open {
            Open::Code => {}
            Open::BlockComment => {
                if bytes[i] == b'*' && i + 1 < bytes.len() && bytes[i + 1] == b'/' {
                    *open = Open::Code;
                    i += 2;
                } else {
                    i += 1;
                }
                continue;
            }
            Open::RawString(hashes) => {
                let closes = bytes[i] == b'"'
                    && bytes[i + 1..].iter().take_while(|&&b| b == b'#').count() >= hashes;
                if closes {
                    *open = Open::Code;
                    i += 1 + hashes;
                } else {
                    i += 1;
                }
                continue;
            }
        }
        if let Some(hashes) = raw_string_guards(bytes, i) {
            *open = Open::RawString(hashes);
            out.push_str("\"\"");
            i += 2 + hashes;
            continue;
        }
        match bytes[i] {
            b'/' if i + 1 < bytes.len() && bytes[i + 1] == b'/' => break,
            b'/' if i + 1 < bytes.len() && bytes[i + 1] == b'*' => {
                *open = Open::BlockComment;
                i += 2;
            }
            b'"' => {
                i += 1;
                while i < bytes.len() {
                    match bytes[i] {
                        b'\\' => i += 2,
                        b'"' => {
                            i += 1;
                            break;
                        }
                        _ => i += 1,
                    }
                }
                out.push_str("\"\"");
            }
            b'\'' => {
                // Either a char literal ('x', '\n') or a lifetime ('a).
                // A closing quote within 3 bytes means char literal.
                let close = bytes[i + 1..]
                    .iter()
                    .take(4)
                    .position(|&b| b == b'\'')
                    .map(|p| i + 1 + p);
                match close {
                    Some(end) => {
                        out.push_str("' '");
                        i = end + 1;
                    }
                    None => {
                        out.push('\'');
                        i += 1;
                    }
                }
            }
            b => {
                out.push(b as char);
                i += 1;
            }
        }
    }
    out
}

/// The escape-hatch marker: excuses the findings on its own line or,
/// when its own line has none, on the next line.
const ALLOW_MARKER: &str = "qse-lint: allow";

/// Does the stripped line declare a documentable public function?
/// (`pub(crate)` and narrower are internal — not covered by R3.)
fn declares_pub_fn(stripped: &str) -> bool {
    let t = stripped.trim_start();
    if !t.starts_with("pub ") {
        return false;
    }
    let after = t["pub ".len()..].trim_start();
    for prefix in ["fn ", "const fn ", "unsafe fn ", "async fn "] {
        if after.starts_with(prefix) {
            return true;
        }
    }
    // `pub const unsafe fn`, `pub unsafe extern "C" fn`, … — rare;
    // catch any `fn ` following only qualifier words.
    let words: Vec<&str> = after.split_whitespace().collect();
    let mut saw_qualifiers_only = true;
    for w in &words {
        if *w == "fn" || w.starts_with("fn") {
            return saw_qualifiers_only;
        }
        if !matches!(*w, "const" | "unsafe" | "async" | "extern" | "\"\"") {
            saw_qualifiers_only = false;
        }
    }
    false
}

/// Does the stripped line invoke a hard assertion macro? Matches
/// `assert!`, `assert_eq!`, and `assert_ne!` but not `debug_assert*!`
/// (the match must not be preceded by an identifier character).
fn invokes_hard_assert(stripped: &str) -> bool {
    for needle in ["assert!", "assert_eq!", "assert_ne!"] {
        let mut from = 0;
        while let Some(pos) = stripped[from..].find(needle) {
            let at = from + pos;
            let preceded_by_ident = at > 0 && {
                let b = stripped.as_bytes()[at - 1];
                b.is_ascii_alphanumeric() || b == b'_'
            };
            if !preceded_by_ident {
                return true;
            }
            from = at + needle.len();
        }
    }
    false
}

/// The only files in the tree permitted to contain `unsafe` at all;
/// R5 requires every use in them to carry a `SAFETY:` justification.
const UNSAFE_FILES: [&str; 3] = [
    "crates/statevec/src/storage/soa.rs",
    "crates/util/src/parallel.rs",
    "crates/comm/src/universe.rs",
];

/// Does the stripped line contain `needle` not embedded in a longer
/// identifier on either side?
fn contains_token(stripped: &str, needle: &str) -> bool {
    let mut from = 0;
    while let Some(pos) = stripped[from..].find(needle) {
        let at = from + pos;
        let ident = |b: u8| b.is_ascii_alphanumeric() || b == b'_';
        let before_ok = at == 0 || !ident(stripped.as_bytes()[at - 1]);
        let end = at + needle.len();
        let after_ok = end >= stripped.len() || !ident(stripped.as_bytes()[end]);
        if before_ok && after_ok {
            return true;
        }
        from = end;
    }
    false
}

/// Lints one file's contents. `relpath` is workspace-relative with `/`
/// separators (e.g. `crates/comm/src/universe.rs`); it decides which
/// rules apply.
pub fn lint_file(relpath: &str, content: &str) -> Vec<Violation> {
    let Some(crate_name) = crate_of(relpath) else {
        return Vec::new();
    };
    let check_panics = NO_PANIC_CRATES.contains(&crate_name);
    let check_instant = crate_name == "machine";
    let check_docs = crate_name == "comm";
    let check_measure_asserts = crate_name == "statevec" && relpath.ends_with("/measure.rs");
    let check_unsafe = UNSAFE_FILES.contains(&relpath);
    let check_casts = matches!(crate_name, "comm" | "statevec" | "stabilizer");
    let check_net_reads = crate_name == "serve";
    let check_staging = relpath == "crates/statevec/src/dist.rs";
    if !(check_panics
        || check_instant
        || check_docs
        || check_unsafe
        || check_casts
        || check_net_reads)
    {
        return Vec::new();
    }

    let mut violations = Vec::new();
    let mut open = Open::Code;
    // Depth tracking for `#[cfg(test)]` regions: once the attribute is
    // seen, the next block `{ … }` (usually `mod tests`) is test code.
    let mut brace_depth: i64 = 0;
    let mut cfg_test_pending = false;
    let mut test_region_floor: Option<i64> = None;
    // R3 state: a doc comment (or doc + attributes) directly above.
    let mut doc_pending = false;
    // R5 state: a `SAFETY:` comment in the contiguous comment/attribute
    // block directly above.
    let mut safety_pending = false;
    // R9 state: the previous line's marker, if it had one (line number,
    // whether it has excused a finding yet).
    let mut prev_marker: Option<(usize, bool)> = None;
    let stale = |line: usize| Violation {
        file: relpath.to_string(),
        line,
        rule: Rule::StaleAllow,
        message: "`qse-lint: allow` excuses no finding on this line or the next; \
                  remove it, or move it back beside the line it justifies"
            .to_string(),
    };

    for (idx, raw) in content.lines().enumerate() {
        let line_no = idx + 1;
        let was_in_block = open == Open::BlockComment;
        let stripped = strip_line(raw, &mut open);
        let trimmed_raw = raw.trim_start();

        // Doc-comment adjacency for R3 (raw text: `///` lines are
        // comments and would be stripped).
        if trimmed_raw.starts_with("///") || trimmed_raw.starts_with("#[doc") {
            doc_pending = true;
        } else if trimmed_raw.starts_with("#[") || trimmed_raw.starts_with("#![") {
            // Attributes between the doc comment and the item keep it.
        } else if !stripped.trim().is_empty() {
            // consumed below by the pub fn check, then cleared
        }
        // R5: a `SAFETY:` comment anywhere in the contiguous comment
        // block above an `unsafe` justifies it.
        if trimmed_raw.starts_with("//") && trimmed_raw.contains("SAFETY:") {
            safety_pending = true;
        }

        if stripped.contains("#[cfg(test)]") || stripped.contains("#[cfg(all(test") {
            cfg_test_pending = true;
        }

        let in_test_region = test_region_floor.is_some();
        let mut findings: Vec<Violation> = Vec::new();

        if !in_test_region && !was_in_block {
            if check_panics {
                for (needle, what) in [
                    (".unwrap()", "`.unwrap()`"),
                    (".expect(", "`.expect(…)`"),
                    ("panic!", "`panic!`"),
                ] {
                    if stripped.contains(needle) {
                        findings.push(Violation {
                            file: relpath.to_string(),
                            line: line_no,
                            rule: Rule::PanicInLib,
                            message: format!(
                                "{what} in library code; return a typed error instead \
                                 (or `// qse-lint: allow` with justification)"
                            ),
                        });
                    }
                }
            }
            if check_instant && stripped.contains("Instant::now()") {
                findings.push(Violation {
                    file: relpath.to_string(),
                    line: line_no,
                    rule: Rule::InstantInMachine,
                    message: "`Instant::now()` in the analytic model; estimates must be \
                              pure functions of their inputs"
                        .to_string(),
                });
            }
            if check_measure_asserts && invokes_hard_assert(&stripped) {
                findings.push(Violation {
                    file: relpath.to_string(),
                    line: line_no,
                    rule: Rule::AssertInMeasure,
                    message: "`assert!` in a measure path is error handling in disguise; \
                              return a typed `MeasureError` instead \
                              (or `// qse-lint: allow` with justification)"
                        .to_string(),
                });
            }
            if check_unsafe
                && contains_token(&stripped, "unsafe")
                && !safety_pending
                && !raw.contains("SAFETY:")
            {
                findings.push(Violation {
                    file: relpath.to_string(),
                    line: line_no,
                    rule: Rule::UnsafeWithoutSafety,
                    message: "`unsafe` without a `SAFETY:` comment on the same line or \
                              directly above; say why this use is sound"
                        .to_string(),
                });
            }
            if check_casts {
                for needle in ["as usize", "as u32"] {
                    if contains_token(&stripped, needle) {
                        findings.push(Violation {
                            file: relpath.to_string(),
                            line: line_no,
                            rule: Rule::TruncatingCast,
                            message: format!(
                                "`{needle}` may truncate on a 32-bit host; use \
                                 `try_into()`, an audited helper, or \
                                 `// qse-lint: allow` with justification"
                            ),
                        });
                    }
                }
            }
            if check_net_reads {
                for needle in [".read_to_end(", ".read_to_string(", ".read_line("] {
                    if stripped.contains(needle) {
                        findings.push(Violation {
                            file: relpath.to_string(),
                            line: line_no,
                            rule: Rule::UnboundedNetRead,
                            message: format!(
                                "`{needle}…)` reads without a length bound; route client \
                                 input through `BoundedLineReader` (or `// qse-lint: allow` \
                                 with justification)"
                            ),
                        });
                    }
                }
            }
            if check_staging {
                for needle in [".to_f64_vec()", "f64s_to_bytes("] {
                    if stripped.contains(needle) {
                        findings.push(Violation {
                            file: relpath.to_string(),
                            line: line_no,
                            rule: Rule::SliceStaging,
                            message: format!(
                                "`{needle}` stages the whole slice through a second buffer; \
                                 pack wire chunks straight from storage (`pack_range`) \
                                 (or `// qse-lint: allow` with justification)"
                            ),
                        });
                    }
                }
            }
            if check_docs && declares_pub_fn(&stripped) && !doc_pending {
                findings.push(Violation {
                    file: relpath.to_string(),
                    line: line_no,
                    rule: Rule::UndocumentedPub,
                    message: "public function without a doc comment".to_string(),
                });
            }
        }

        // A finding is excused by this line's marker, else by an unspent
        // marker on the line above; a marker gone one line without
        // excusing anything is stale.
        let here_marker = raw.contains(ALLOW_MARKER).then_some(line_no);
        let excused_by = if findings.is_empty() {
            None
        } else {
            here_marker.or(prev_marker.and_then(|(line, used)| (!used).then_some(line)))
        };
        if let Some((line, used)) = prev_marker {
            if !used && excused_by != Some(line) {
                violations.push(stale(line));
            }
        }
        if excused_by.is_none() {
            violations.append(&mut findings);
        }
        prev_marker = here_marker.map(|line| (line, excused_by == Some(line)));

        // Clear doc/safety adjacency on any substantive non-attribute line.
        if !trimmed_raw.starts_with("///")
            && !trimmed_raw.starts_with("#[")
            && !trimmed_raw.starts_with("#![")
            && !stripped.trim().is_empty()
        {
            doc_pending = false;
            safety_pending = false;
        }

        // Brace accounting (on stripped text, so braces in strings and
        // comments don't count).
        for b in stripped.bytes() {
            match b {
                b'{' => {
                    brace_depth += 1;
                    if cfg_test_pending && test_region_floor.is_none() {
                        test_region_floor = Some(brace_depth);
                        cfg_test_pending = false;
                    }
                }
                b'}' => {
                    if let Some(floor) = test_region_floor {
                        if brace_depth == floor {
                            test_region_floor = None;
                        }
                    }
                    brace_depth -= 1;
                }
                b';' => {
                    // `#[cfg(test)] use …;` — attribute consumed by a
                    // braceless item.
                    if cfg_test_pending && test_region_floor.is_none() {
                        cfg_test_pending = false;
                    }
                }
                _ => {}
            }
        }
    }
    if let Some((line, false)) = prev_marker {
        violations.push(stale(line));
    }
    violations
}

/// Walks up from `start` to the directory whose `Cargo.toml` declares
/// `[workspace]`, so the lint runs correctly from any working directory.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start.to_path_buf());
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(d);
            }
        }
        dir = d.parent().map(Path::to_path_buf);
    }
    None
}

fn walk_rs_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    let mut paths: Vec<PathBuf> = entries.flatten().map(|e| e.path()).collect();
    paths.sort();
    for path in paths {
        if path.is_dir() {
            walk_rs_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// Lints every `src/` file of every crate under `root/crates`, returning
/// all violations sorted by path and line.
pub fn lint_tree(root: &Path) -> std::io::Result<Vec<Violation>> {
    let mut files = Vec::new();
    let crates_dir = root.join("crates");
    let mut crate_dirs: Vec<PathBuf> = std::fs::read_dir(&crates_dir)?
        .flatten()
        .map(|e| e.path())
        .filter(|p| p.is_dir())
        .collect();
    crate_dirs.sort();
    for crate_dir in crate_dirs {
        walk_rs_files(&crate_dir.join("src"), &mut files);
    }
    let mut violations = Vec::new();
    for path in files {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace('\\', "/");
        let content = std::fs::read_to_string(&path)?;
        violations.extend(lint_file(&rel, &content));
    }
    Ok(violations)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unwrap_in_library_code_flagged() {
        let v = lint_file(
            "crates/comm/src/fake.rs",
            "pub(crate) fn f(x: Option<u8>) -> u8 {\n    x.unwrap()\n}\n",
        );
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, Rule::PanicInLib);
        assert_eq!(v[0].line, 2);
    }

    #[test]
    fn expect_and_panic_flagged_assert_allowed() {
        let src = "fn f() {\n    assert!(true);\n    debug_assert_eq!(1, 1);\n    \
                   unreachable!(\"x\");\n    y.expect(\"boom\");\n    panic!(\"no\");\n}\n";
        let v = lint_file("crates/statevec/src/fake.rs", src);
        let rules: Vec<usize> = v.iter().map(|x| x.line).collect();
        assert_eq!(rules, vec![5, 6]);
    }

    #[test]
    fn test_module_is_exempt() {
        let src = "fn lib() {}\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() {\n        \
                   Some(1).unwrap();\n    }\n}\n";
        assert!(lint_file("crates/comm/src/fake.rs", src).is_empty());
    }

    #[test]
    fn code_after_test_module_is_linted_again() {
        let src = "#[cfg(test)]\nmod tests {\n    fn t() { x.unwrap(); }\n}\n\
                   fn after() { y.unwrap(); }\n";
        let v = lint_file("crates/comm/src/fake.rs", src);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].line, 5);
    }

    #[test]
    fn strings_and_comments_do_not_trip_the_scanner() {
        let src = "fn f() {\n    let s = \".unwrap()\";\n    // x.unwrap()\n    \
                   /* panic!(\"no\") */\n    let c = '\\'';\n}\n";
        assert!(lint_file("crates/comm/src/fake.rs", src).is_empty());
    }

    #[test]
    fn allow_marker_suppresses() {
        let src = "fn f() {\n    x.unwrap() // qse-lint: allow — startup only\n}\n";
        assert!(lint_file("crates/comm/src/fake.rs", src).is_empty());
        let src = "fn f() {\n    // qse-lint: allow — lock poisoning is fatal\n    x.unwrap()\n}\n";
        assert!(lint_file("crates/comm/src/fake.rs", src).is_empty());
    }

    #[test]
    fn detached_allow_marker_is_itself_a_violation() {
        // Reformatting pushed the `panic!` two lines below its marker:
        // the marker excuses nothing and the panic is reported too.
        let src = "fn f() -> u64 {\n    traffic(g) // qse-lint: allow — invariant\n        \
                   .map(|t| t.bytes)\n        .unwrap_or_else(|e| panic!(\"{e}\"))\n}\n";
        let v = lint_file("crates/machine/src/fake.rs", src);
        let found: Vec<(usize, Rule)> = v.iter().map(|v| (v.line, v.rule)).collect();
        assert_eq!(
            found,
            [(2, Rule::StaleAllow), (4, Rule::PanicInLib)],
            "{v:?}"
        );
        // A marker with nothing flagged beside it, also at end of file.
        let src = "fn f() {\n    let x = 1; // qse-lint: allow\n}\n// qse-lint: allow";
        let lines: Vec<usize> = lint_file("crates/comm/src/fake.rs", src)
            .iter()
            .map(|v| {
                assert_eq!(v.rule, Rule::StaleAllow);
                v.line
            })
            .collect();
        assert_eq!(lines, [2, 4]);
        // A marker that excuses its own line is not also spent on the
        // next: the unmarked unwrap below it is still reported.
        let src = "fn f() {\n    x.unwrap(); // qse-lint: allow\n    y.unwrap();\n}\n";
        let v = lint_file("crates/comm/src/fake.rs", src);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!((v[0].line, v[0].rule), (3, Rule::PanicInLib));
    }

    #[test]
    fn instant_only_flagged_in_machine() {
        let src = "fn f() { let t = Instant::now(); }\n";
        assert_eq!(lint_file("crates/machine/src/fake.rs", src).len(), 1);
        assert!(lint_file("crates/comm/src/fake.rs", src).is_empty());
    }

    #[test]
    fn undocumented_pub_fn_flagged_in_comm_only() {
        let src = "pub fn naked() {}\n";
        let v = lint_file("crates/comm/src/fake.rs", src);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, Rule::UndocumentedPub);
        assert!(lint_file("crates/statevec/src/fake.rs", src).is_empty());
    }

    #[test]
    fn documented_pub_fn_passes_even_with_attributes() {
        let src = "/// Does the thing.\n#[inline]\npub fn documented() {}\n";
        assert!(lint_file("crates/comm/src/fake.rs", src).is_empty());
        let src = "/// Docs.\npub const fn k() -> u8 { 0 }\n";
        assert!(lint_file("crates/comm/src/fake.rs", src).is_empty());
    }

    #[test]
    fn pub_crate_fn_needs_no_docs() {
        let src = "pub(crate) fn internal() {}\n";
        assert!(lint_file("crates/comm/src/fake.rs", src).is_empty());
    }

    #[test]
    fn unlinted_crates_and_paths_ignored() {
        let src = "pub fn f() { x.unwrap(); panic!(); }\n";
        assert!(lint_file("crates/core/src/fake.rs", src).is_empty());
        assert!(lint_file("crates/comm/tests/fake.rs", src).is_empty());
        assert!(lint_file("src/lib.rs", src).is_empty());
    }

    #[test]
    fn tests_module_files_are_exempt() {
        // `mod tests;` split into its own file: only reachable under
        // `#[cfg(test)]`, so the in-file region tracker never sees the
        // attribute — the path convention must exempt it.
        let src = "fn t() { x.unwrap(); let i = n as usize; }\n";
        assert!(lint_file("crates/statevec/src/sparse/tests.rs", src).is_empty());
        assert!(lint_file("crates/comm/src/tests.rs", src).is_empty());
        // But a file merely named close to it is still linted.
        assert!(!lint_file("crates/comm/src/latests.rs", src).is_empty());
    }

    #[test]
    fn stabilizer_crate_is_held_to_no_panic_and_cast_rules() {
        let src = "pub fn f(i: u64) -> usize {\n    x.unwrap();\n    i as usize\n}\n";
        let v = lint_file("crates/stabilizer/src/fake.rs", src);
        assert_eq!(v.len(), 2, "{v:?}");
        assert!(v.iter().any(|x| x.rule == Rule::PanicInLib), "{v:?}");
        assert!(v.iter().any(|x| x.rule == Rule::TruncatingCast), "{v:?}");
    }

    #[test]
    fn guarded_raw_strings_are_stripped() {
        let mut open = Open::Code;
        let line = r####"let x = (r#"{"a":"}"}"#, r###"x"#y"###).unwrap(); r#"{"####;
        assert_eq!(
            strip_line(line, &mut open),
            r#"let x = ("", "").unwrap(); """#
        );
        // The last literal runs on into the next line and closes there.
        assert_eq!(open, Open::RawString(1));
        assert_eq!(
            strip_line(r##"  ]}}"#, x.unwrap()"##, &mut open),
            ", x.unwrap()"
        );
        assert_eq!(open, Open::Code);
        // An identifier ending in `r` before a `#` is no literal.
        assert_eq!(strip_line("for#", &mut open), "for#");
    }

    #[test]
    fn serve_crate_is_held_to_the_no_panic_rule() {
        let src = "fn f(q: &mut VecDeque<Job>) {\n    q.remove(0).expect(\"job\");\n}\n";
        let v = lint_file("crates/serve/src/fake.rs", src);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!((v[0].rule, v[0].line), (Rule::PanicInLib, 2));
        // Its test modules may still unwrap.
        let src = "#[cfg(test)]\nmod tests {\n    fn t() {\n        x.unwrap();\n    }\n}\n";
        assert!(lint_file("crates/serve/src/fake.rs", src).is_empty());
    }

    #[test]
    fn doc_examples_do_not_count_as_violations() {
        let src = "/// ```\n/// x.unwrap();\n/// ```\npub fn documented() {}\n";
        assert!(lint_file("crates/comm/src/fake.rs", src).is_empty());
    }

    #[test]
    fn assert_in_measure_path_flagged() {
        let src = "pub fn collapse() {\n    assert!(p > 1e-15, \"zero-probability\");\n}\n";
        let v = lint_file("crates/statevec/src/measure.rs", src);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, Rule::AssertInMeasure);
        assert_eq!(v[0].line, 2);
        // The same assert anywhere else in statevec is invariant checking.
        assert!(lint_file("crates/statevec/src/single.rs", src).is_empty());
    }

    #[test]
    fn assert_eq_and_ne_flagged_in_measure_debug_assert_allowed() {
        let src = "fn f() {\n    debug_assert!(x > 0.0);\n    debug_assert_eq!(a, b);\n    \
                   assert_eq!(a, b);\n    assert_ne!(a, c);\n}\n";
        let v = lint_file("crates/statevec/src/measure.rs", src);
        let lines: Vec<usize> = v
            .iter()
            .filter(|x| x.rule == Rule::AssertInMeasure)
            .map(|x| x.line)
            .collect();
        assert_eq!(lines, vec![4, 5]);
    }

    #[test]
    fn measure_asserts_exempt_in_tests_and_with_allow_marker() {
        let src = "fn lib() {}\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() {\n        \
                   assert!(true);\n        assert_eq!(1, 1);\n    }\n}\n";
        assert!(lint_file("crates/statevec/src/measure.rs", src).is_empty());
        let src = "fn f() {\n    assert!(invariant) // qse-lint: allow — structural invariant\n}\n";
        assert!(lint_file("crates/statevec/src/measure.rs", src).is_empty());
    }

    #[test]
    fn unsafe_without_safety_comment_flagged() {
        let src = "fn f(p: *const u8) -> u8 {\n    unsafe { *p }\n}\n";
        let v = lint_file("crates/util/src/parallel.rs", src);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, Rule::UnsafeWithoutSafety);
        assert_eq!(v[0].line, 2);
        // The same code outside the unsafe-permitted files is not R5's
        // concern (nothing else should contain `unsafe` at all).
        assert!(lint_file("crates/util/src/sync.rs", src).is_empty());
    }

    #[test]
    fn safety_comment_justifies_unsafe_same_line_or_block_above() {
        let src = "fn f(p: *const u8) -> u8 {\n    \
                   unsafe { *p } // SAFETY: caller pins p\n}\n";
        assert!(lint_file("crates/util/src/parallel.rs", src).is_empty());
        let src = "// SAFETY: callers must have verified CPU support.\n\
                   // (And more prose continuing the same block.)\nunsafe fn g() {}\n";
        assert!(lint_file("crates/statevec/src/storage/soa.rs", src).is_empty());
        // A doc block whose SAFETY line is not the last line still counts.
        let src = "/// SAFETY: callers pin the pointee.\n/// More docs.\n\
                   #[inline]\nunsafe fn g() {}\n";
        assert!(lint_file("crates/statevec/src/storage/soa.rs", src).is_empty());
        // Substantive code between the comment and the `unsafe` breaks
        // the adjacency: the second use needs its own justification.
        let src = "// SAFETY: only for the first impl.\nunsafe impl Send for X {}\n\
                   unsafe impl Sync for X {}\n";
        let v = lint_file("crates/util/src/parallel.rs", src);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].line, 3);
    }

    #[test]
    fn truncating_casts_flagged_in_comm_and_statevec() {
        let src = "fn f(i: u64) -> usize {\n    i as usize\n}\n";
        for rel in ["crates/comm/src/fake.rs", "crates/statevec/src/fake.rs"] {
            let v = lint_file(rel, src);
            assert_eq!(v.len(), 1, "{rel}");
            assert_eq!(v[0].rule, Rule::TruncatingCast);
            assert_eq!(v[0].line, 2);
        }
        let src = "fn f(i: u64) -> u32 { i as u32 }\n";
        assert_eq!(lint_file("crates/comm/src/fake.rs", src).len(), 1);
        // Widening casts and other crates stay untouched.
        assert!(lint_file(
            "crates/comm/src/fake.rs",
            "fn f(i: u32) -> u64 { i as u64 }\n"
        )
        .is_empty());
        assert!(lint_file(
            "crates/machine/src/fake.rs",
            "fn f(i: u64) -> usize { i as usize }\n"
        )
        .is_empty());
    }

    #[test]
    fn truncating_casts_exempt_in_tests_and_with_allow_marker() {
        let src = "fn lib() {}\n#[cfg(test)]\nmod tests {\n    fn t(i: u64) -> usize {\n        \
                   i as usize\n    }\n}\n";
        assert!(lint_file("crates/statevec/src/fake.rs", src).is_empty());
        let src = "fn f(i: u64) -> usize {\n    i as usize // qse-lint: allow — bounded above\n}\n";
        assert!(lint_file("crates/comm/src/fake.rs", src).is_empty());
        // Identifiers merely containing the pattern are not casts.
        let src = "fn f(has_usize: bool) -> bool { has_usize }\n";
        assert!(lint_file("crates/comm/src/fake.rs", src).is_empty());
    }

    #[test]
    fn unbounded_net_reads_flagged_in_serve_only() {
        let src = "fn f(s: &mut TcpStream) {\n    let mut buf = Vec::new();\n    \
                   s.read_to_end(&mut buf);\n    let mut line = String::new();\n    \
                   r.read_line(&mut line);\n    r.read_to_string(&mut line);\n}\n";
        let v = lint_file("crates/serve/src/fake.rs", src);
        let lines: Vec<usize> = v
            .iter()
            .filter(|x| x.rule == Rule::UnboundedNetRead)
            .map(|x| x.line)
            .collect();
        assert_eq!(lines, vec![3, 5, 6]);
        // Other crates read files legitimately (the lint binary itself
        // uses read_to_string on local sources).
        assert!(lint_file("crates/check/src/fake.rs", src).is_empty());
        // Bounded chunk reads stay clean.
        let src = "fn f(r: &mut impl Read) {\n    let mut chunk = [0u8; 4096];\n    \
                   let k = r.read(&mut chunk);\n}\n";
        assert!(lint_file("crates/serve/src/fake.rs", src).is_empty());
    }

    #[test]
    fn unbounded_net_reads_exempt_in_tests_and_with_allow_marker() {
        let src =
            "fn lib() {}\n#[cfg(test)]\nmod tests {\n    fn t(r: &mut impl BufRead) {\n        \
                   let mut s = String::new();\n        r.read_line(&mut s);\n    }\n}\n";
        assert!(lint_file("crates/serve/src/fake.rs", src).is_empty());
        let src = "fn f(r: &mut impl BufRead) {\n    \
                   r.read_line(&mut s) // qse-lint: allow — trusted local pipe\n}\n";
        assert!(lint_file("crates/serve/src/fake.rs", src).is_empty());
    }

    #[test]
    fn slice_staging_flagged_in_dist_only() {
        let src = "fn f(s: &S) {\n    let all = s.to_f64_vec();\n    \
                   let wire = f64s_to_bytes(&all);\n}\n";
        let v = lint_file("crates/statevec/src/dist.rs", src);
        let lines: Vec<usize> = v
            .iter()
            .filter(|x| x.rule == Rule::SliceStaging)
            .map(|x| x.line)
            .collect();
        assert_eq!(lines, vec![2, 3]);
        // The storage layer defines `to_f64_vec`; collectives frame f64s.
        assert!(lint_file("crates/statevec/src/storage/mod.rs", src).is_empty());
        assert!(lint_file("crates/comm/src/collective.rs", src).is_empty());
        // Tests in dist.rs may serialise whatever they like.
        let src = "fn lib() {}\n#[cfg(test)]\nmod tests {\n    fn t(s: &S) {\n        \
                   s.to_f64_vec();\n    }\n}\n";
        assert!(lint_file("crates/statevec/src/dist.rs", src).is_empty());
    }

    #[test]
    fn violation_display_is_clickable() {
        let v = Violation {
            file: "crates/comm/src/x.rs".into(),
            line: 12,
            rule: Rule::PanicInLib,
            message: "m".into(),
        };
        assert_eq!(v.to_string(), "crates/comm/src/x.rs:12: [panic-in-lib] m");
    }
}
